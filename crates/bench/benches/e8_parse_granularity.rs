//! E8 (§3.2.4): fine-grained vs coarse-grained data sources. SNMP answers
//! a one-attribute question with a few dozen binary bytes; Ganglia ships
//! the whole cluster as XML whose parse cost grows with cluster size —
//! unless a narrow projection or the driver's TTL cache compensates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridrm_bench::{single_site_world, SEED};
use gridrm_core::ClientRequest;
use gridrm_drivers::ganglia::parse_dump;
use gridrm_drivers::mappings::ganglia_mapping;
use gridrm_resmodel::{SiteModel, SiteSpec};
use std::hint::black_box;
use std::time::Duration;

fn cluster_xml(hosts: usize) -> String {
    let site = SiteModel::generate(SEED, &SiteSpec::new("xml", hosts, 4));
    site.advance_to(600_000);
    gridrm_agents::ganglia::GangliaAgent::new(site).dump()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_parse_granularity");
    group.measurement_time(Duration::from_secs(3));

    // -- end-to-end: one attribute of one host, via each driver ----------
    let world = single_site_world(32);
    world.gateway.request_manager().set_record_history(false);
    let sql = "SELECT Load1 FROM Processor WHERE Hostname = 'node07.bench'";
    let fine = ClientRequest::realtime("jdbc:snmp://node07.bench/public", sql);
    group.bench_function("one_attr_via_snmp_fine", |b| {
        b.iter(|| black_box(world.gateway.query(&fine).unwrap()));
    });
    let coarse = ClientRequest::realtime("jdbc:ganglia://node00.bench/bench?ttl=0", sql);
    group.bench_function("one_attr_via_ganglia_coarse_uncached", |b| {
        b.iter(|| black_box(world.gateway.query(&coarse).unwrap()));
    });
    let coarse_cached =
        ClientRequest::realtime("jdbc:ganglia://node00.bench/bench?ttl=600000", sql);
    world.gateway.query(&coarse_cached).unwrap();
    group.bench_function("one_attr_via_ganglia_driver_ttl_cache", |b| {
        b.iter(|| black_box(world.gateway.query(&coarse_cached).unwrap()));
    });

    // -- raw parse cost scaling with cluster size: the one parser, keeping
    // every mapped key (wide) or two (narrow) ---------------------------
    let mut wide: Vec<String> = ganglia_mapping()
        .groups
        .values()
        .flat_map(|fields| fields.values().map(|fm| fm.native_key.clone()))
        .collect();
    wide.sort();
    wide.dedup();
    let narrow = vec!["load_one".to_owned(), "host.name".to_owned()];
    for hosts in [4usize, 32, 128] {
        let xml = cluster_xml(hosts);
        for (name, keep) in [
            ("xml_parse_wide", &wide),
            ("xml_parse_narrow_2_keys", &narrow),
        ] {
            group.bench_with_input(BenchmarkId::new(name, hosts), &hosts, |b, _| {
                b.iter(|| black_box(parse_dump(&xml, Some(keep)).unwrap().len()));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
