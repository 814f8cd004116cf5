//! E3 (Fig 3): end-to-end latency of the query path per driver type —
//! the "SQL query in, ResultSet out" pipeline over each native protocol.

use criterion::{criterion_group, criterion_main, Criterion};
use gridrm_bench::single_site_world;
use gridrm_core::ClientRequest;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let world = single_site_world(8);
    world.agents.pump(); // NetLogger needs log content
    world.gateway.request_manager().set_record_history(false);

    let cases: Vec<(&str, &str, &str)> = vec![
        (
            "snmp_processor",
            "jdbc:snmp://node02.bench/public",
            "SELECT Hostname, NCpu, Load1, Load5, Load15 FROM Processor",
        ),
        (
            "snmp_filesystem_walk",
            "jdbc:snmp://node02.bench/public",
            "SELECT Name, SizeMB, AvailableMB FROM FileSystem",
        ),
        (
            "ganglia_cluster",
            "jdbc:ganglia://node00.bench/bench?ttl=0",
            "SELECT Hostname, Load1 FROM Processor",
        ),
        (
            "nws_forecasts",
            "jdbc:nws://node00.bench/perf",
            "SELECT SourceHost, DestHost, ForecastBandwidthMbps FROM NetworkElement",
        ),
        (
            "netlogger_events",
            "jdbc:netlogger://node00.bench/log",
            "SELECT Hostname, Category, Value FROM Event WHERE Category = 'cpu.load'",
        ),
        (
            "scms_cluster",
            "jdbc:scms://node00.bench/",
            "SELECT Hostname, Load1 FROM Processor",
        ),
        (
            "sqlstore_history",
            "jdbc:gridrm://local/history",
            "SELECT COUNT(*) FROM history",
        ),
    ];

    let mut group = c.benchmark_group("e3_query_path");
    group.measurement_time(Duration::from_secs(3));
    for (name, source, sql) in cases {
        let req = ClientRequest::realtime(source, sql);
        group.bench_function(name, |b| {
            b.iter(|| match world.gateway.query(&req) {
                Ok(r) => black_box(r),
                Err(e) => panic!(
                    "case failed: sql={:?} src={:?} err={e}",
                    req.sql(),
                    req.sources
                ),
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
