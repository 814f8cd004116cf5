//! The GridRM-rs experiment harness: regenerates the measurable form of
//! every figure/claim in the paper (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! Usage: `cargo run -p gridrm-bench --bin experiments [--release] -- [eN ...|all]`
//!
//! Each experiment is one row of [`EXPERIMENTS`]: a function that prints
//! its table and returns an [`Outcome`] — a verdict taken from counts on
//! the simulated network, which are deterministic and therefore
//! machine-independent, plus, for the four pinned experiments, the JSON
//! document to write. `main` prints every `RESULT:` line, writes every
//! pinned file and exits non-zero if any experiment fails. Wall-clock
//! per-layer timings come from `gridrm-benchmark`, not from here.

use gridrm_bench::{grid_world, grid_world_with_wan, single_site_world, SEED};
use gridrm_core::events::{EventManager, GridRMEvent, ListenerFilter, Severity};
use gridrm_core::{ClientRequest, FailurePolicy};
use gridrm_dbc::JdbcUrl;
use gridrm_simnet::{Latency, SimClock};
use gridrm_telemetry::GatewayTelemetry;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// A value in a pinned document. A float carries the number of decimals
/// it is printed with, so a document renders to the same bytes anywhere.
enum Json {
    Int(u64),
    Fixed(f64, usize),
    Bool(bool),
    Str(String),
    /// An array of flat objects, one object per line.
    Rows(Vec<Fields>),
}

/// The fields of one JSON object, in print order.
type Fields = Vec<(&'static str, Json)>;

impl Json {
    fn render(&self) -> String {
        match self {
            Json::Int(n) => n.to_string(),
            Json::Fixed(x, decimals) => format!("{x:.decimals$}"),
            Json::Bool(b) => b.to_string(),
            Json::Str(s) => format!("\"{s}\""),
            Json::Rows(rows) => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| format!("    {{{}}}", join_fields(r, ", ")))
                    .collect();
                format!("[\n{}\n  ]", rows.join(",\n"))
            }
        }
    }
}

fn join_fields(fields: &[(&str, Json)], sep: &str) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {}", value.render()))
        .collect();
    fields.join(sep)
}

/// The text of a pinned file: one top-level field per line.
fn document(fields: &[(&str, Json)]) -> String {
    format!("{{\n  {}\n}}\n", join_fields(fields, ",\n  "))
}

/// What an experiment hands back to `main`.
struct Outcome {
    pass: bool,
    /// The pinned file name and its document, for E13–E16.
    pinned: Option<(&'static str, Fields)>,
}

impl From<bool> for Outcome {
    fn from(pass: bool) -> Outcome {
        Outcome { pass, pinned: None }
    }
}

/// One experiment: `(id, title, run)`.
type Experiment = (&'static str, &'static str, fn() -> Outcome);

/// Every experiment, in run order.
const EXPERIMENTS: &[Experiment] = &[
    ("e1", "Global-layer routing (Fig 1)", e1),
    ("e3", "Query-path anatomy (Fig 3)", e3),
    ("e4", "Event Manager loss-freedom under burst (Fig 4)", e4),
    ("e5", "Driver selection probe counts (Fig 5, Table 2)", e5),
    (
        "e6",
        "Failure policies: notify / retry n / dynamic reselect (§4)",
        e6,
    ),
    (
        "e7",
        "Cache scalability: agent intrusion vs TTL (§4, Fig 9)",
        e7,
    ),
    (
        "e10",
        "Runtime driver registration/removal under load (§3.2)",
        e10,
    ),
    ("e11", "GLUE translation coverage per driver (§3.2.3)", e11),
    ("e12", "Inter-gateway event propagation (§3.1.5)", e12),
    (
        "e13",
        "Parallel fan-out: max(site) vs sum(site) latency",
        e13,
    ),
    (
        "e14",
        "TIME_BUCKET rollups + SLO burn engine over 1M samples",
        || e14_run(8, 131_072),
    ),
    (
        "e15",
        "Continuous queries: shared delta evaluation vs 10k re-pollers",
        || e15_run(100, 100, 20),
    ),
    (
        "e16",
        "Intrusion profile: per-site monitor traffic vs. grid size and subscribers",
        || e16_run(&[2, 4, 8], 8, &[1, 4, 16], 5),
    ),
];

fn row(cols: &[&str], widths: &[usize]) {
    let line: Vec<String> = cols
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:<w$}"))
        .collect();
    println!("  {}", line.join("  "));
}

/// E1 — Fig 1: remote queries are routed via the owning gateway; local
/// queries never cross sites; no client/gateway ever contacts a foreign
/// agent directly.
fn e1() -> Outcome {
    let world = grid_world(3, 4);
    let portal = &world.sites[0].3;
    let sql = "SELECT Hostname, Load1 FROM Processor";

    for (label, source) in [
        ("local  (site0)", "jdbc:snmp://node01.site0/public"),
        ("remote (site1)", "jdbc:snmp://node01.site1/public"),
        ("remote (site2)", "jdbc:snmp://node01.site2/public"),
    ] {
        let resp = portal
            .query(&ClientRequest::realtime(source, sql))
            .expect("query");
        println!("  query {label}: {} row(s)", resp.rows.len());
    }
    let out = portal.stats().remote_queries_out.get();
    let requests = |from: &str, to: &str| world.net.stats_for(from, to).snapshot().requests;
    let hops01 = requests("gw.site0:gma", "gw.site1:gma");
    let hops02 = requests("gw.site0:gma", "gw.site2:gma");
    let direct_foreign = requests("gw.site0", "node01.site1:snmp");
    println!("\n  remote queries sent by gw-site0 ............ {out} (expect 2)");
    println!("  gw-site0 -> gw-site1 gma hops ............... {hops01} (expect 1)");
    println!("  gw-site0 -> gw-site2 gma hops ............... {hops02} (expect 1)");
    println!("  gw-site0 direct requests to foreign agents .. {direct_foreign} (expect 0)");
    (out == 2 && hops01 == 1 && hops02 == 1 && direct_foreign == 0).into()
}

/// E3 — Fig 3: component-by-component breakdown of one query, shown as the
/// native requests/bytes each stage induced.
fn e3() -> Outcome {
    let world = single_site_world(8);
    let source = "jdbc:snmp://node03.bench/public";
    let sql = "SELECT Hostname, NCpu, Load1 FROM Processor";

    let link = world.net.stats_for("gw.bench", "node03.bench:snmp");
    let before = link.snapshot();
    let resp = world
        .gateway
        .query(&ClientRequest::realtime(source, sql))
        .expect("query");
    let after = link.snapshot();
    let dm_snap = world.gateway.driver_manager().stats().snapshot();
    let pool_snap = world.gateway.connections().stats().snapshot();
    let (pool_hits, creates) = (pool_snap.pool_hits, pool_snap.creates);
    let (_h, validations, _s) = world.gateway.schema().stats().snapshot();

    println!("  query: {sql}\n  source: {source}\n");
    println!(
        "  RequestManager  -> 1 client request, {} row(s) back",
        resp.rows.len()
    );
    println!(
        "  DriverManager   -> {} resolution(s) ({} cached, {} dynamic scan(s))",
        dm_snap.resolutions, dm_snap.cache_hits, dm_snap.dynamic_scans
    );
    println!(
        "  ConnectionMgr   -> {} checkout(s): {pool_hits} pooled, {creates} created",
        pool_snap.checkouts
    );
    println!("  SchemaManager   -> {validations} consistency validation(s)");
    let cold_requests = after.requests - before.requests;
    println!(
        "  Driver/agent    -> {cold_requests} native request(s) (connect probe + GET), {} B out / {} B in",
        after.bytes_out - before.bytes_out,
        after.bytes_in - before.bytes_in
    );

    // Second, identical query: the pooled/cached path.
    let before = link.snapshot();
    world
        .gateway
        .query(&ClientRequest::realtime(source, sql))
        .expect("query");
    let after = link.snapshot();
    let dm_snap = world.gateway.driver_manager().stats().snapshot();
    let pool_snap = world.gateway.connections().stats().snapshot();
    let (pool_hits2, creates2) = (pool_snap.pool_hits, pool_snap.creates);
    println!("\n  repeat query (warm):");
    println!(
        "  DriverManager   -> cached driver ({} total hits, scans still {})",
        dm_snap.cache_hits, dm_snap.dynamic_scans
    );
    println!(
        "  ConnectionMgr   -> pooled connection ({pool_hits2} total pool hits, creates still {creates2})"
    );
    let warm_requests = after.requests - before.requests;
    println!(
        "  Driver/agent    -> {warm_requests} native request(s) (the GET alone: no reconnect probe, no pool ping)"
    );
    ((cold_requests, warm_requests) == (2, 1)
        && (pool_hits, creates) == (0, 1)
        && (pool_hits2, creates2) == (1, 1))
        .into()
}

/// E4 — Fig 4: the fast buffer absorbs bursts without losing events. The
/// events/s column times ingest (each event also journalled, as in a
/// gateway), dispatch and the listener's drain of each burst on this
/// host (stdout only).
fn e4() -> Outcome {
    println!("  burst   fast-cap  overflowed  dispatched  delivered  lost  events/s");
    let mut ok = true;
    for (burst, cap) in [
        (1_000usize, 1024usize),
        (10_000, 1024),
        (100_000, 1024),
        (100_000, 64),
    ] {
        let manager = EventManager::new(cap, &GatewayTelemetry::new(SimClock::new()));
        let (_, rx) = manager.register_listener(ListenerFilter::default());
        let t0 = Instant::now();
        for i in 0..burst {
            manager.ingest(GridRMEvent {
                id: 0,
                at_ms: i as i64,
                source: "burst:snmp".into(),
                hostname: None,
                severity: Severity::Info,
                category: "burst".into(),
                message: String::new(),
                value: None,
            });
        }
        let dispatched = manager.dispatch().len();
        let delivered = rx.try_iter().count();
        let rate = burst as f64 / t0.elapsed().as_secs_f64();
        let overflowed = manager.stats().overflowed.get();
        let lost = burst.saturating_sub(delivered);
        println!(
            "  {burst:<7} {cap:<9} {overflowed:<11} {dispatched:<11} {delivered:<10} {lost:<5} {:.2}M",
            rate / 1e6
        );
        ok &= lost == 0;
    }
    ok.into()
}

/// E5 — Fig 5/Table 2: how much accepts_url probing each selection mode
/// costs.
fn e5() -> Outcome {
    let world = single_site_world(4);
    let dm = world.gateway.driver_manager();
    let probes = || dm.base().stats().snapshot().1;
    let sql = "SELECT Hostname FROM Processor";
    let wildcard = "jdbc:://node01.bench/public";

    let probes0 = probes();
    world
        .gateway
        .query(&ClientRequest::realtime(wildcard, sql))
        .expect("first wildcard query");
    let probes_first = probes() - probes0;

    let probes1 = probes();
    for _ in 0..10 {
        world
            .gateway
            .query(&ClientRequest::realtime(wildcard, sql))
            .expect("cached query");
    }
    let probes_cached = probes() - probes1;

    let snap = dm.stats().snapshot();
    println!("  first wildcard resolution: {probes_first} accepts_url probe(s)");
    println!("  next 10 resolutions:       {probes_cached} probe(s) (last-success cache)");
    println!(
        "  totals: {} resolutions, {} cache hits, {} dynamic scans, {} invalidations",
        snap.resolutions, snap.cache_hits, snap.dynamic_scans, snap.invalidations
    );
    (probes_cached == 0 && probes_first >= 1).into()
}

/// E6 — §4/Fig 8: the three failure policies against a dead agent.
/// `Report` and `Retry(3)` must surface the agent-down error; `TryNext`
/// must recover through the Ganglia driver.
fn e6() -> Outcome {
    let sql = "SELECT Hostname, Load1 FROM Processor WHERE Hostname = 'node00.bench'";
    let source = "jdbc:://node00.bench/public";
    println!("  policy        outcome after agent failure");
    let mut ok = true;
    for policy in [
        FailurePolicy::Report,
        FailurePolicy::Retry(3),
        FailurePolicy::TryNext,
    ] {
        let world = single_site_world(4);
        let url = JdbcUrl::parse(source).unwrap();
        // Establish the happy path first (SNMP wins the wildcard).
        world
            .gateway
            .query(&ClientRequest::realtime(source, sql))
            .expect("initial query");
        world.gateway.driver_manager().set_policy(&url, policy);
        if matches!(policy, FailurePolicy::Retry(_)) {
            // "Retry the specified drivers for n iterations": pin the
            // user's specified driver so the retries target it.
            world
                .gateway
                .driver_manager()
                .set_preferences(&url, vec!["jdbc-snmp".to_owned()]);
        }
        // Kill the SNMP agent.
        world.net.set_down("node00.bench:snmp", true);
        let recovers = policy == FailurePolicy::TryNext;
        let outcome = match world.gateway.query(&ClientRequest::realtime(source, sql)) {
            Ok(resp) => {
                let via = world
                    .gateway
                    .driver_manager()
                    .cached_driver(&url)
                    .unwrap_or_default();
                ok &= recovers && via == "jdbc-ganglia" && resp.rows.len() == 1;
                format!("recovered via {via} ({} row)", resp.rows.len())
            }
            Err(e) => {
                let e = e.to_string();
                ok &= !recovers && e.contains("'node00.bench:snmp' is down");
                format!("reported after exhausting policy: {e}")
            }
        };
        println!("  {:<13} {outcome}", format!("{policy:?}"));
    }
    ok.into()
}

/// E7 — §4/Fig 9: cache TTL vs agent intrusion for a population of
/// polling clients, plus the inter-gateway variant. Realtime intrusion
/// grows with the clients; cached intrusion is set by the TTL alone.
fn e7() -> Outcome {
    let sql = "SELECT Hostname, Load1 FROM Processor";
    // Each client polls 10 times over 60 virtual seconds; agent intrusion
    // is measured for real-time polling vs gateway-cached polling.
    let measure = |clients: usize, ttl: u64| -> u64 {
        let world = single_site_world(4);
        world.gateway.request_manager().set_record_history(false);
        let source = "jdbc:ganglia://node00.bench/bench?ttl=0";
        let agent = world.net.endpoint_stats("node00.bench:ganglia").unwrap();
        let before = agent.snapshot().requests_served;
        for _round in 0..10usize {
            world.net.clock().advance(6_000);
            for _client in 0..clients {
                let req = if ttl == 0 {
                    ClientRequest::realtime(source, sql)
                } else {
                    ClientRequest::cached(source, sql, Some(ttl))
                };
                world.gateway.query(&req).expect("poll");
            }
        }
        agent.snapshot().requests_served - before
    };
    println!("  clients  agent_req(realtime)  agent_req(ttl=5s)  agent_req(ttl=30s)  reduction@5s");
    let mut rows: Vec<[u64; 3]> = Vec::new();
    for clients in [1usize, 16, 64, 256] {
        let [realtime, cached5, cached30] = [0, 5_000, 30_000].map(|ttl| measure(clients, ttl));
        let reduction = 100.0 * (1.0 - cached5 as f64 / realtime as f64);
        println!("  {clients:<8} {realtime:<20} {cached5:<18} {cached30:<19} {reduction:>6.1}%");
        rows.push([realtime, cached5, cached30]);
    }

    // Inter-gateway: the same mechanism between sites.
    let world = grid_world(2, 4);
    let portal = &world.sites[0].3;
    let source = "jdbc:ganglia://node00.site1/site1?ttl=0";
    let agent = world.net.endpoint_stats("node00.site1:ganglia").unwrap();
    let hops = || {
        world
            .net
            .stats_for("gw.site0:gma", "gw.site1:gma")
            .snapshot()
            .requests
    };
    portal
        .query(&ClientRequest::realtime(source, sql))
        .expect("prime");
    let before = agent.snapshot().requests_served;
    let hops_before = hops();
    for _ in 0..50 {
        portal
            .query(&ClientRequest::cached(source, sql, Some(60_000)))
            .expect("cached remote");
    }
    let served = agent.snapshot().requests_served - before;
    println!(
        "\n  inter-gateway: 50 cached remote polls -> {} gma hops, {served} agent request(s)",
        hops() - hops_before
    );
    let realtime_grows = rows.windows(2).all(|w| w[1][0] > w[0][0]);
    let ttl5_flat = rows.iter().all(|r| r[1] == rows[0][1]);
    let ttl30_below = rows.iter().all(|r| r[2] < r[1]);
    (realtime_grows && ttl5_flat && ttl30_below && served == 0).into()
}

/// E10 — Table 1/§3.2: runtime driver churn does not disturb queries.
fn e10() -> Outcome {
    let world = single_site_world(4);
    let gateway = world.gateway.clone();
    let sql = "SELECT Hostname FROM Processor";
    let source = "jdbc:snmp://node01.bench/public";
    let stop = std::sync::atomic::AtomicBool::new(false);
    let ok = std::sync::atomic::AtomicU64::new(0);
    let failed = std::sync::atomic::AtomicU64::new(0);
    let churns = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    match gateway.query(&ClientRequest::realtime(source, sql)) {
                        Ok(_) => ok.fetch_add(1, Ordering::Relaxed),
                        Err(_) => failed.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
        s.spawn(|| {
            let env = world.env.clone();
            for _ in 0..500 {
                // Churn an *unrelated* driver while SNMP queries run.
                gateway.driver_manager().unregister("jdbc-scms");
                gateway
                    .driver_manager()
                    .register(gridrm_drivers::ScmsDriver::new(env.clone()));
                churns.fetch_add(1, Ordering::Relaxed);
            }
            stop.store(true, Ordering::Relaxed);
        });
    });

    let ok = ok.load(Ordering::Relaxed);
    let failed = failed.load(Ordering::Relaxed);
    println!(
        "  {} register/unregister cycles concurrent with {} queries: {} failed",
        churns.load(Ordering::Relaxed),
        ok + failed,
        failed
    );
    (failed == 0 && ok > 0).into()
}

/// E11 — §3.2.3: translation coverage per driver — which GLUE attributes
/// each source can fill, NULLs for the rest. SNMP fills the whole group;
/// Ganglia and SCMS each fill part of it, and not the same part.
fn e11() -> Outcome {
    let world = single_site_world(4);
    world.agents.pump();
    let sql = "SELECT * FROM Processor WHERE Hostname = 'node01.bench'";
    let widths = [14usize, 10, 10, 22];
    row(
        &["driver", "attrs", "non-null", "sample NULL attrs"],
        &widths,
    );
    let mut coverage = Vec::new();
    for (driver, source) in [
        ("jdbc-snmp", "jdbc:snmp://node01.bench/public"),
        ("jdbc-ganglia", "jdbc:ganglia://node00.bench/bench"),
        ("jdbc-scms", "jdbc:scms://node00.bench/"),
    ] {
        let resp = world
            .gateway
            .query(&ClientRequest::realtime(source, sql))
            .expect("query");
        let rows = resp.rows;
        let total = rows.meta().column_count();
        let rowv = &rows.rows()[0];
        let non_null = rowv.iter().filter(|v| !v.is_null()).count();
        let nulls: Vec<String> = (0..total)
            .filter(|&i| rowv[i].is_null())
            .map(|i| rows.meta().column_name(i).unwrap_or("?").to_owned())
            .collect();
        let sample = nulls.iter().take(3).cloned().collect::<Vec<_>>().join(",");
        row(
            &[driver, &total.to_string(), &non_null.to_string(), &sample],
            &widths,
        );
        coverage.push((total, non_null, nulls));
    }
    let (snmp, ganglia, scms) = (&coverage[0], &coverage[1], &coverage[2]);
    (snmp.0 == 11 && snmp.1 == 11 && ganglia.1 >= 1 && scms.1 >= 1 && ganglia.2 != scms.2).into()
}

/// E12 — §1.1/§3.1.5: event propagation between gateways, with counts.
fn e12() -> Outcome {
    let world = grid_world(3, 3);
    for (_, _, _, layer) in &world.sites {
        layer.enable_event_propagation(Severity::Warning);
    }
    // Listeners at the two consumer sites.
    let listen = |site: usize| {
        world.sites[site]
            .2
            .events()
            .register_listener(ListenerFilter::default())
            .1
    };
    let (rx1, rx2) = (listen(1), listen(2));
    let pump_gateways = || {
        for (_, _, gateway, _) in &world.sites {
            gateway.pump();
        }
    };

    // Trap at site0.
    for a in &world.sites[0].1.snmp {
        a.set_trap_sink(world.net.clone(), "gw.site0", 3.0);
    }
    world.sites[0].0.inject_load_spike("node01.site0", 15.0);
    world.sites[0].0.advance_to(601_000);
    let (traps, _) = world.sites[0].1.pump();
    pump_gateways();

    let got1 = rx1.try_iter().count();
    let got2 = rx2.try_iter().count();
    let fwd = world.sites[0].3.stats().events_out.get();
    println!("  traps fired at site0 .................. {traps}");
    println!("  events forwarded by gw-site0 .......... {fwd} (expect 2 peers)");
    println!("  received by consumer at site1 ......... {got1}");
    println!("  received by consumer at site2 ......... {got2}");
    // Loop check: pump everything again; nothing new may move.
    pump_gateways();
    let extra = rx1.try_iter().count() + rx2.try_iter().count();
    println!("  extra deliveries after re-pump ........ {extra} (expect 0, no loops)");
    (traps == 1 && fwd == 2 && got1 == 1 && got2 == 1 && extra == 0).into()
}

/// E13 — Fan-out engine: a consolidated multi-site query should cost
/// about the *slowest* site (parallel dispatch), not the *sum* of sites
/// (sequential dispatch). Virtual-clock latencies, so the numbers are
/// machine-independent; pinned in `BENCH_fanout.json`.
fn e13() -> Outcome {
    const ROUNDS: usize = 12;
    const WAN_MS: u64 = 40;
    const WAN_JITTER_MS: u64 = 10;
    let sql = "SELECT Hostname, Load1 FROM Processor ORDER BY Hostname";
    let pct = |sorted: &[u64], p: usize| sorted[(sorted.len() * p / 100).min(sorted.len() - 1)];
    let widths = [6, 8, 8, 8, 8, 8];

    println!("  WAN one-way latency {WAN_MS}ms + jitter {WAN_JITTER_MS}ms, {ROUNDS} cold queries per mode\n");
    row(
        &[
            "sites", "par p50", "par p95", "seq p50", "seq p95", "speedup",
        ],
        &widths,
    );
    let mut results = Vec::new();
    let mut speedup_at_8 = 0.0_f64;
    for n in [1usize, 2, 4, 8] {
        let world = grid_world_with_wan(n, 2, Latency::ms(WAN_MS, WAN_JITTER_MS));
        let (_, _, portal_gw, portal) = &world.sites[0];
        let sources: Vec<String> = (0..n)
            .map(|i| format!("jdbc:snmp://node00.site{i}/public"))
            .collect();
        let sources: Vec<&str> = sources.iter().map(String::as_str).collect();

        let measure = |parallel: bool| -> Vec<u64> {
            portal.set_parallel_fanout(parallel);
            let mut samples = Vec::with_capacity(ROUNDS);
            for _ in 0..ROUNDS {
                // Sweep every cache so each round pays the full fan-out.
                for (_, _, gw, _) in &world.sites {
                    gw.cache().sweep(gw.clock().now_millis(), 0);
                }
                let t0 = portal_gw.clock().now_millis();
                let request = ClientRequest::builder(sql).sources(&sources).build();
                portal.query(&request).expect("fan-out query");
                samples.push(portal_gw.clock().now_millis() - t0);
            }
            samples.sort_unstable();
            samples
        };
        let par = measure(true);
        let seq = measure(false);
        let (pp50, pp95) = (pct(&par, 50), pct(&par, 95));
        let (sp50, sp95) = (pct(&seq, 50), pct(&seq, 95));
        // An all-local query costs ~0ms either way: call that parity.
        let speedup = if sp50 == 0 && pp50 == 0 {
            1.0
        } else {
            sp50 as f64 / pp50.max(1) as f64
        };
        if n == 8 {
            speedup_at_8 = speedup;
        }
        row(
            &[
                &n.to_string(),
                &format!("{pp50}ms"),
                &format!("{pp95}ms"),
                &format!("{sp50}ms"),
                &format!("{sp95}ms"),
                &format!("{speedup:.2}x"),
            ],
            &widths,
        );
        results.push(vec![
            ("sites", Json::Int(n as u64)),
            ("parallel_p50_ms", Json::Int(pp50)),
            ("parallel_p95_ms", Json::Int(pp95)),
            ("sequential_p50_ms", Json::Int(sp50)),
            ("sequential_p95_ms", Json::Int(sp95)),
            ("speedup_p50", Json::Fixed(speedup, 2)),
        ]);
    }
    println!("\n  speedup at 8 sites .................... {speedup_at_8:.2}x (expect >= 3x)");
    let doc = vec![
        ("experiment", Json::Str("fanout".into())),
        ("seed", Json::Str(format!("{SEED:#x}"))),
        ("wan_base_ms", Json::Int(WAN_MS)),
        ("wan_jitter_ms", Json::Int(WAN_JITTER_MS)),
        ("rounds_per_mode", Json::Int(ROUNDS as u64)),
        ("unit", Json::Str("virtual_ms".into())),
        ("results", Json::Rows(results)),
    ];
    Outcome {
        pass: speedup_at_8 >= 3.0,
        pinned: Some(("BENCH_fanout.json", doc)),
    }
}

/// E14 — Time-series + SLO engine at scale: feed the recorder
/// `series × points_per_series` deterministic synthetic samples, roll
/// them up three independent ways — the columnar `bucketed()` kernel,
/// the SQL `TIME_BUCKET` GROUP BY path through the store executor, and a
/// naive row loop — and require bucket-for-bucket agreement; then drive
/// the burn-rate engine through a scripted regression and recovery in
/// virtual time. Sample values are exact multiples of 1/8 so every sum
/// is exact in f64 and the aggregates are bit-identical regardless of
/// summation order; counts, sums and transition timestamps are pinned in
/// `BENCH_slo.json`, wall-clock timings go to stdout only.
fn e14_run(series: usize, points_per_series: usize) -> Outcome {
    use gridrm_sqlparse::ast::{ColumnDef, Statement};
    use gridrm_sqlparse::{SqlType, SqlValue};
    use gridrm_store::Table;
    use gridrm_telemetry::{
        Journal, Labels, PointKind, Registry, SloEngine, SloObjective, SloSpec, TimeSeriesRecorder,
        DEFAULT_LATENCY_BUCKETS_MS,
    };
    use std::sync::Arc;

    const STEP_MS: u64 = 100;
    const BUCKET_MS: u64 = 60_000;
    const NAME: &str = "gridrm_bench_signal";
    let total_points = series * points_per_series;
    // Exact eighths in [0, 500): every partial sum is a multiple of 1/8
    // well inside f64's exact-integer range, so addition never rounds.
    let value = |s: usize, i: usize| ((s + i).wrapping_mul(2_654_435_761) % 4_000) as f64 / 8.0;
    let label = |s: usize| format!("series=\"s{s:02}\"");

    // Ingest: one ring per series, sized so nothing is evicted.
    let rec = TimeSeriesRecorder::new(&Registry::new());
    rec.configure(1, points_per_series);
    let t0 = Instant::now();
    for s in 0..series {
        let labels = label(s);
        for i in 0..points_per_series {
            rec.record_point(
                NAME,
                &labels,
                PointKind::Gauge,
                i as u64 * STEP_MS,
                value(s, i),
            );
        }
    }
    let ingest = t0.elapsed();
    println!(
        "  ingest: {total_points} points in {:.0}ms ({:.2}M points/s)",
        ingest.as_secs_f64() * 1e3,
        total_points as f64 / ingest.as_secs_f64() / 1e6
    );

    // Path 1: the columnar kernel over every series.
    let t0 = Instant::now();
    let kernel: Vec<Vec<gridrm_telemetry::BucketStats>> = (0..series)
        .map(|s| rec.bucketed(NAME, &label(s), BUCKET_MS))
        .collect();
    let kernel_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Path 2: a naive per-row loop over the materialised history.
    let t0 = Instant::now();
    let mut naive_ok = true;
    for (s, want) in kernel.iter().enumerate() {
        let mut got: Vec<(u64, u64, f64, f64, f64)> = Vec::new();
        for r in rec.history_for(Some(NAME), Some(&label(s))) {
            let b = r.ts_ms / BUCKET_MS * BUCKET_MS;
            match got.last_mut() {
                Some(last) if last.0 == b => {
                    last.1 += 1;
                    last.2 = last.2.min(r.value);
                    last.3 = last.3.max(r.value);
                    last.4 += r.value;
                }
                _ => got.push((b, 1, r.value, r.value, r.value)),
            }
        }
        naive_ok &= got.len() == want.len()
            && got.iter().zip(want).all(|(g, w)| {
                (g.0, g.1, g.2, g.3, g.4) == (w.bucket_ms, w.count, w.min, w.max, w.sum)
            });
    }
    let naive_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Path 3: the SQL TIME_BUCKET GROUP BY path through the store
    // executor, over series 0 loaded into a plain two-column table.
    let column = |name: &str, ty| ColumnDef {
        name: name.into(),
        ty,
        primary_key: false,
    };
    let mut table = Table::new(
        "samples",
        vec![
            column("ts", SqlType::Timestamp),
            column("value", SqlType::Float),
        ],
    );
    for i in 0..points_per_series {
        table
            .insert(
                &[],
                vec![
                    SqlValue::Timestamp((i as u64 * STEP_MS) as i64),
                    SqlValue::Float(value(0, i)),
                ],
            )
            .expect("insert sample");
    }
    let sql = format!(
        "SELECT TIME_BUCKET({BUCKET_MS}, ts) AS bucket, COUNT(*), MIN(value), \
         MAX(value), SUM(value) FROM samples \
         GROUP BY TIME_BUCKET({BUCKET_MS}, ts) ORDER BY bucket"
    );
    let sel = match gridrm_sqlparse::parse(&sql) {
        Ok(Statement::Select(sel)) => sel,
        other => panic!("TIME_BUCKET select parses: {other:?}"),
    };
    let t0 = Instant::now();
    let rs = gridrm_store::select_in_memory(&table, &sel, 0).expect("TIME_BUCKET rollup");
    let sql_ms = t0.elapsed().as_secs_f64() * 1e3;
    let sql_ok = rs.len() == kernel[0].len()
        && rs.rows().iter().zip(&kernel[0]).all(|(row, w)| {
            row[0].as_i64() == Some(w.bucket_ms as i64)
                && row[1].as_i64() == Some(w.count as i64)
                && row[2].as_f64() == Some(w.min)
                && row[3].as_f64() == Some(w.max)
                && row[4].as_f64() == Some(w.sum)
        });

    let buckets = kernel.iter().flatten();
    let total_count: u64 = buckets.clone().map(|b| b.count).sum();
    let total_sum: f64 = buckets.clone().map(|b| b.sum).sum();
    let global_min = buckets.clone().map(|b| b.min).fold(f64::MAX, f64::min);
    let global_max = buckets.map(|b| b.max).fold(f64::MIN, f64::max);
    let widths = [22, 12, 10, 8];
    let (per_series, sql_buckets) = (kernel[0].len().to_string(), rs.len().to_string());
    row(&["path", "time", "buckets", "agrees"], &widths);
    for (path, ms, n, agrees) in [
        ("columnar kernel", kernel_ms, &per_series, "-"),
        ("naive row loop", naive_ms, &per_series, yes_no(naive_ok)),
        ("sql TIME_BUCKET", sql_ms, &sql_buckets, yes_no(sql_ok)),
    ] {
        row(&[path, &format!("{ms:.1}ms"), n, agrees], &widths);
    }

    // The burn-rate engine on a scripted workload: 10 ms requests, a
    // 10-minute 500 ms regression starting at t=600 s, then recovery.
    // All in virtual time, so the transition stamps are deterministic.
    let registry = Arc::new(Registry::new());
    let journal = Arc::new(Journal::new(64, &registry));
    let engine = SloEngine::new(registry.clone(), journal);
    let mut spec = SloSpec::new(
        "bench-latency",
        SloObjective::Latency {
            metric: "gridrm_request_latency_ms".to_owned(),
            threshold_ms: 100.0,
        },
        0.9,
    );
    spec.fast_window_ms = 60_000;
    spec.slow_window_ms = 300_000;
    spec.fast_burn_threshold = 2.0;
    spec.slow_burn_threshold = 1.0;
    engine.configure(&[spec]);
    let hist = registry.histogram(
        "gridrm_request_latency_ms",
        "scripted request latency",
        Labels::none(),
        DEFAULT_LATENCY_BUCKETS_MS,
    );
    let (mut fired_at, mut cleared_at) = (0u64, 0u64);
    let mut evaluations = 0u64;
    for step in 0..3_600u64 {
        let now = step * 1_000;
        let latency = if (600_000..1_200_000).contains(&now) {
            500.0
        } else {
            10.0
        };
        for _ in 0..10 {
            hist.observe(latency);
        }
        engine.evaluate(now);
        evaluations += 1;
        for t in engine.take_transitions() {
            if t.firing {
                fired_at = now;
            } else {
                cleared_at = now;
            }
        }
    }
    let transitions = engine.snapshot()[0].transitions;
    let slo_ok = transitions == 2 && fired_at > 0 && cleared_at > fired_at;
    println!(
        "  slo: {evaluations} evaluations, fired at t={fired_at}ms, cleared at t={cleared_at}ms, \
         {transitions} transitions"
    );

    let doc = vec![
        ("experiment", Json::Str("slo_timebucket".into())),
        ("unit", Json::Str("virtual_ms".into())),
        ("series", Json::Int(series as u64)),
        ("points_per_series", Json::Int(points_per_series as u64)),
        ("total_points", Json::Int(total_points as u64)),
        ("step_ms", Json::Int(STEP_MS)),
        ("bucket_ms", Json::Int(BUCKET_MS)),
        ("buckets_per_series", Json::Int(kernel[0].len() as u64)),
        ("total_count", Json::Int(total_count)),
        ("total_sum", Json::Fixed(total_sum, 3)),
        ("global_min", Json::Fixed(global_min, 3)),
        ("global_max", Json::Fixed(global_max, 3)),
        ("paths_agree", Json::Bool(naive_ok && sql_ok)),
        ("slo_evaluations", Json::Int(evaluations)),
        ("slo_fired_at_ms", Json::Int(fired_at)),
        ("slo_cleared_at_ms", Json::Int(cleared_at)),
        ("slo_transitions", Json::Int(transitions)),
    ];
    Outcome {
        pass: naive_ok && sql_ok && slo_ok && total_count as usize == total_points,
        pinned: Some(("BENCH_slo.json", doc)),
    }
}

fn yes_no(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "NO"
    }
}

/// E15's synthetic monitoring feed, a third-party driver on the kit:
/// each source serves `rows` rows of which only row 0 changes, once per
/// `every_ms` of virtual time, so the delta volume is analytic.
struct Feed {
    rows: usize,
    every_ms: u64,
}

impl gridrm_drivers::Source for Feed {
    fn meta(&self) -> gridrm_dbc::DriverMetaData {
        gridrm_dbc::DriverMetaData {
            name: "jdbc-feed".to_owned(),
            subprotocol: "feed".to_owned(),
            version: (0, 1),
            description: "bench feed: one row changes per cadence".to_owned(),
        }
    }

    /// Nothing to reach: the rows are made in process.
    fn probe(&self, _at: &gridrm_drivers::Target<'_>) -> gridrm_dbc::DbcResult<()> {
        Ok(())
    }

    fn query(
        &self,
        at: &gridrm_drivers::Target<'_>,
        _schema: &mut gridrm_glue::SchemaHandle,
        _sel: &gridrm_sqlparse::ast::SelectStatement,
    ) -> gridrm_dbc::DbcResult<gridrm_dbc::RowSet> {
        use gridrm_dbc::{ColumnMeta, ResultSetMetaData, RowSet, SqlError};
        use gridrm_sqlparse::{SqlType, SqlValue};
        // Row 0 carries the current epoch; the rest are stable background data.
        let epoch = at.env.clock.now_millis() / self.every_ms;
        let rows = (0..self.rows)
            .map(|r| {
                let value = if r == 0 { epoch as i64 } else { r as i64 * 100 };
                vec![SqlValue::Str(format!("h{r}")), SqlValue::Int(value)]
            })
            .collect();
        let meta = ResultSetMetaData::new(vec![
            ColumnMeta::new("Host", SqlType::Str),
            ColumnMeta::new("Value", SqlType::Int),
        ]);
        RowSet::new(meta, rows).map_err(|e| SqlError::Driver(e.to_string()))
    }
}

/// E15 — the continuous-query plane at scale: N subscribers sharing
/// deduplicated standing queries versus the same N clients re-polling.
/// Executions, deltas and rows shipped are virtual-time deterministic
/// and pinned in `BENCH_stream.json`; wall-clock goes to stdout only.
fn e15_run(queries: usize, subs_per_query: usize, ticks: u64) -> Outcome {
    use gridrm_core::stream::BackpressurePolicy;
    use gridrm_core::{Gateway, GatewayConfig};
    use gridrm_drivers::{DriverEnv, KitDriver};
    use gridrm_simnet::Network;
    use std::sync::Arc;

    const EVERY_MS: u64 = 1_000;
    const ROWS_PER_SOURCE: usize = 5;
    const BUFFER_CAP: usize = 4;
    const UNPOLLED_TICKS: u64 = 10;
    let sql = "SELECT Host, Value FROM Feed";
    let subscribers = queries * subs_per_query;
    let sources: Vec<String> = (0..queries)
        .map(|q| format!("jdbc:feed://src{q:03}.bench/feed"))
        .collect();
    let world = |seed: u64| -> Arc<Gateway> {
        let net = Network::new(SimClock::new(), seed);
        let gateway = Gateway::new(GatewayConfig::new("gw-stream", "bench"), net);
        gateway.request_manager().set_record_history(false);
        let env = DriverEnv::new(
            gateway.network().clone(),
            gateway.schema().clone(),
            &gateway.config().address,
        );
        let feed = Feed {
            rows: ROWS_PER_SOURCE,
            every_ms: EVERY_MS,
        };
        gateway
            .driver_manager()
            .register(KitDriver::with_source(env, feed));
        gateway
    };

    // --- Streaming path: subscribe everyone, pump, drain every tick.
    let gateway = world(1);
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(subscribers);
    for source in &sources {
        for _ in 0..subs_per_query {
            let spec = ClientRequest::builder(sql)
                .source(source)
                .subscribe_every(EVERY_MS)
                .buffer(BUFFER_CAP)
                .backpressure(BackpressurePolicy::DropOldest);
            ids.push(gateway.subscribe(&spec).expect("subscribe"));
        }
    }
    let subscribe_wall = t0.elapsed();
    let mut stream_rows = 0u64;
    let mut peak_pending = 0usize;
    let t0 = Instant::now();
    for _ in 0..=ticks {
        for &id in &ids {
            peak_pending = peak_pending.max(gateway.streams().pending(id));
            for d in gateway.poll_deltas(id, 0).expect("poll") {
                stream_rows += d.rows.len() as u64;
            }
        }
        gateway.clock().advance(EVERY_MS);
        gateway.pump();
    }
    let stream_wall = t0.elapsed();
    let stats = gateway.streams().stats();
    let stream_execs = stats.evaluations.get();
    let stream_deltas = stats.deltas.get();

    // --- Bounded-memory phase: stop draining entirely; buffers must
    // plateau at their capacity while the drop counters absorb the rest.
    for _ in 0..UNPOLLED_TICKS {
        gateway.clock().advance(EVERY_MS);
        gateway.pump();
    }
    let peak_unpolled = ids
        .iter()
        .map(|&id| gateway.streams().pending(id))
        .max()
        .unwrap_or(0);
    let dropped_total = stats.dropped_oldest.get();

    // --- Naive path: every subscriber re-polls its query every tick.
    let gateway2 = world(2);
    let mut naive_rows = 0u64;
    let t0 = Instant::now();
    for tick in 0..=ticks {
        if tick > 0 {
            gateway2.clock().advance(EVERY_MS);
        }
        for source in &sources {
            for _ in 0..subs_per_query {
                let resp = gateway2
                    .query(&ClientRequest::realtime(source, sql))
                    .expect("re-poll");
                naive_rows += resp.rows.len() as u64;
            }
        }
    }
    let naive_wall = t0.elapsed();
    let naive_execs = (ticks + 1) * subscribers as u64;

    let exec_reduction = 100.0 * (1.0 - stream_execs as f64 / naive_execs as f64);
    let rows_reduction = 100.0 * (1.0 - stream_rows as f64 / naive_rows as f64);
    println!(
        "  {subscribers} subscribers over {queries} standing queries, {ticks} ticks @ {EVERY_MS}ms, \
         {ROWS_PER_SOURCE} rows/source\n"
    );
    let widths = [10, 12, 14, 10];
    row(&["path", "executions", "rows shipped", "wall"], &widths);
    for (path, execs, rows, wall) in [
        ("delta", stream_execs, stream_rows, stream_wall),
        ("re-poll", naive_execs, naive_rows, naive_wall),
    ] {
        let wall = format!("{:.0}ms", wall.as_secs_f64() * 1e3);
        row(
            &[path, &execs.to_string(), &rows.to_string(), &wall],
            &widths,
        );
    }
    println!(
        "\n  subscribe burst: {subscribers} registrations in {:.0}ms",
        subscribe_wall.as_secs_f64() * 1e3
    );
    println!("  source executions reduced ............. {exec_reduction:.1}%");
    println!("  rows shipped reduced .................. {rows_reduction:.1}%");
    println!(
        "  buffers: peak {peak_pending} pending while drained, plateau {peak_unpolled}/{BUFFER_CAP} \
         after {UNPOLLED_TICKS} unpolled ticks, {dropped_total} dropped"
    );
    let bounded = peak_unpolled <= BUFFER_CAP;
    let doc = vec![
        ("experiment", Json::Str("stream_delta".into())),
        ("unit", Json::Str("virtual_ms".into())),
        ("standing_queries", Json::Int(queries as u64)),
        ("subscribers", Json::Int(subscribers as u64)),
        ("ticks", Json::Int(ticks)),
        ("every_ms", Json::Int(EVERY_MS)),
        ("rows_per_source", Json::Int(ROWS_PER_SOURCE as u64)),
        ("stream_executions", Json::Int(stream_execs)),
        ("stream_deltas_emitted", Json::Int(stream_deltas)),
        ("stream_rows_shipped", Json::Int(stream_rows)),
        ("naive_executions", Json::Int(naive_execs)),
        ("naive_rows_shipped", Json::Int(naive_rows)),
        ("execution_reduction_pct", Json::Fixed(exec_reduction, 1)),
        ("rows_reduction_pct", Json::Fixed(rows_reduction, 1)),
        ("buffer_capacity", Json::Int(BUFFER_CAP as u64)),
        ("unpolled_ticks", Json::Int(UNPOLLED_TICKS)),
        ("peak_pending_unpolled", Json::Int(peak_unpolled as u64)),
        ("dropped_total", Json::Int(dropped_total)),
        ("memory_bounded", Json::Bool(bounded)),
    ];
    Outcome {
        pass: exec_reduction > 90.0 && rows_reduction > 50.0 && bounded && stream_rows > 0,
        pinned: Some(("BENCH_stream.json", doc)),
    }
}

/// E16 core — the monitor's own network footprint (Zhang et al.'s
/// *intrusiveness* axis), read straight from the portal gateway's cost
/// ledger. Two sweeps: (a) grid size — consolidated queries against
/// every site of an N-site grid must impose a *flat* per-site load
/// (each site answers once per query regardless of N, one frame each
/// way); (b) subscriber count — grid-wide standing queries against one
/// remote site cost one poll round-trip per subscriber per tick, so
/// per-site subscription traffic is exactly linear. Message counts are
/// virtual-network facts, so both curves are deterministic and pinned in
/// `BENCH_intrusion.json`; wall-clock never matters here.
fn e16_run(grid_sizes: &[usize], rounds: u64, sub_counts: &[usize], ticks: u64) -> Outcome {
    use gridrm_core::stream::SubscribeSpec;
    use gridrm_telemetry::IntrusionRow;

    const WAN_MS: u64 = 20;
    const EVERY_MS: u64 = 1_000;
    let sql = "SELECT Hostname, Load1 FROM Processor ORDER BY Hostname";
    // `(msgs, bytes, msgs/vsec, bytes/vsec)` charged to `site` for `cause`.
    let bucket = |snapshot: &[IntrusionRow], site: &str, cause: &str| -> (u64, u64, f64, f64) {
        snapshot
            .iter()
            .find(|r| r.site == site && r.cause == cause)
            .map(|r| {
                (
                    r.bucket.msgs,
                    r.bucket.bytes,
                    r.bucket.msgs_per_vsec(),
                    r.bucket.bytes_per_vsec(),
                )
            })
            .unwrap_or((0, 0, 0.0, 0.0))
    };

    // ---- Sweep A: per-site query intrusion vs. grid size ----
    println!("  {rounds} cold fan-out queries per grid, {WAN_MS}ms WAN\n");
    let widths = [6, 10, 11, 16, 6];
    row(
        &[
            "sites",
            "msgs/site",
            "bytes/site",
            "msgs/site/query",
            "flat?",
        ],
        &widths,
    );
    let mut grid_rows = Vec::new();
    let mut per_site_msgs_per_query = Vec::new();
    let mut all_uniform = true;
    for &n in grid_sizes {
        let world = grid_world_with_wan(n, 2, Latency::ms(WAN_MS, 0));
        let (_, _, portal_gw, portal) = &world.sites[0];
        let sources: Vec<String> = (0..n)
            .map(|i| format!("jdbc:snmp://node00.site{i}/public"))
            .collect();
        let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
        for _ in 0..rounds {
            for (_, _, gw, _) in &world.sites {
                gw.cache().sweep(gw.clock().now_millis(), 0);
            }
            let request = ClientRequest::builder(sql).sources(&sources).build();
            portal.query(&request).expect("fan-out query");
        }
        let snapshot = portal_gw.telemetry().costs().intrusion_snapshot();
        // Average over the remote sites; each should carry the same
        // load (and sweep A's claim is that it is independent of n).
        let remotes: Vec<(u64, u64, f64, f64)> = (1..n)
            .map(|i| bucket(&snapshot, &format!("site{i}"), "query"))
            .collect();
        let site_msgs = remotes.iter().map(|r| r.0).sum::<u64>() / remotes.len() as u64;
        let site_bytes = remotes.iter().map(|r| r.1).sum::<u64>() / remotes.len() as u64;
        let msgs_per_vsec = remotes.iter().map(|r| r.2).sum::<f64>() / remotes.len() as f64;
        let bytes_per_vsec = remotes.iter().map(|r| r.3).sum::<f64>() / remotes.len() as f64;
        let uniform = remotes.iter().all(|r| r.0 == site_msgs);
        all_uniform &= uniform;
        let per_query = site_msgs as f64 / rounds as f64;
        per_site_msgs_per_query.push(per_query);
        row(
            &[
                &n.to_string(),
                &site_msgs.to_string(),
                &site_bytes.to_string(),
                &format!("{per_query:.1}"),
                yes_no(uniform),
            ],
            &widths,
        );
        grid_rows.push(vec![
            ("sites", Json::Int(n as u64)),
            ("queries", Json::Int(rounds)),
            ("msgs_per_site", Json::Int(site_msgs)),
            ("bytes_per_site", Json::Int(site_bytes)),
            ("msgs_per_site_per_query", Json::Fixed(per_query, 1)),
            ("msgs_per_site_per_vsec", Json::Fixed(msgs_per_vsec, 3)),
            ("bytes_per_site_per_vsec", Json::Fixed(bytes_per_vsec, 3)),
            ("uniform_across_sites", Json::Bool(uniform)),
        ]);
    }
    // Flat: every grid size imposes the same per-site per-query load
    // (one request frame out, one response frame in).
    let flat = per_site_msgs_per_query
        .iter()
        .all(|&m| m == per_site_msgs_per_query[0]);
    println!(
        "\n  per-site msgs per query across grid sizes ... {per_site_msgs_per_query:?} (expect flat)"
    );

    // ---- Sweep B: subscription intrusion vs. subscriber count ----
    println!("\n  standing queries against one remote site, {ticks} ticks @ {EVERY_MS}ms\n");
    let widths = [6, 8, 10, 10];
    row(&["subs", "msgs", "bytes", "msgs/sub"], &widths);
    let mut sub_rows = Vec::new();
    let mut msgs_per_sub = Vec::new();
    for &k in sub_counts {
        let world = grid_world_with_wan(2, 2, Latency::ms(WAN_MS, 0));
        let (_, _, portal_gw, portal) = &world.sites[0];
        let subs: Vec<_> = (0..k)
            .map(|_| {
                let spec = SubscribeSpec {
                    request: ClientRequest::builder(sql)
                        .sources(&["jdbc:snmp://node00.site1/public"])
                        .build(),
                    every_ms: Some(EVERY_MS),
                    buffer: None,
                    backpressure: None,
                };
                portal.subscribe(&spec).expect("grid subscribe")
            })
            .collect();
        for _ in 0..ticks {
            portal_gw.clock().advance(EVERY_MS);
            world.sites[1].2.pump();
            for sub in &subs {
                portal.poll_deltas(sub, 0).expect("poll deltas");
            }
        }
        for sub in &subs {
            portal.unsubscribe(sub);
        }
        let snapshot = portal_gw.telemetry().costs().intrusion_snapshot();
        let (msgs, bytes, msgs_vsec, bytes_vsec) = bucket(&snapshot, "site1", "subscription");
        let per_sub = msgs as f64 / k as f64;
        msgs_per_sub.push(per_sub);
        row(
            &[
                &k.to_string(),
                &msgs.to_string(),
                &bytes.to_string(),
                &format!("{per_sub:.1}"),
            ],
            &widths,
        );
        sub_rows.push(vec![
            ("subscribers", Json::Int(k as u64)),
            ("ticks", Json::Int(ticks)),
            ("msgs", Json::Int(msgs)),
            ("bytes", Json::Int(bytes)),
            ("msgs_per_subscriber", Json::Fixed(per_sub, 1)),
            ("msgs_per_vsec", Json::Fixed(msgs_vsec, 3)),
            ("bytes_per_vsec", Json::Fixed(bytes_vsec, 3)),
        ]);
    }
    // Linear: subscribe + ticks polls + unsubscribe, one round trip
    // each, identically per subscriber.
    let linear = msgs_per_sub.iter().all(|&m| m == msgs_per_sub[0]);
    println!("\n  msgs per subscriber across counts ........... {msgs_per_sub:?} (expect linear)");

    let doc = vec![
        ("experiment", Json::Str("intrusion".into())),
        ("seed", Json::Str(format!("{SEED:#x}"))),
        ("wan_ms", Json::Int(WAN_MS)),
        (
            "unit",
            Json::Str("virtual_network_messages_and_bytes".into()),
        ),
        ("grid_sweep", Json::Rows(grid_rows)),
        ("subscriber_sweep", Json::Rows(sub_rows)),
    ];
    Outcome {
        pass: all_uniform && flat && linear,
        pinned: Some(("BENCH_intrusion.json", doc)),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id || a == "all");
    println!("GridRM-rs experiment harness (seed {SEED:#x})");
    println!(
        "Per-layer wall-clock timings: `cargo run --release -p gridrm-benchmark -- --workload <w> --trace 1`."
    );
    let mut failed = 0;
    for (id, title, run) in EXPERIMENTS.iter().filter(|(id, ..)| want(id)) {
        println!("\n==================================================================");
        println!("{}: {title}", id.to_uppercase());
        println!("==================================================================");
        let outcome = run();
        if let Some((file, doc)) = &outcome.pinned {
            std::fs::write(file, document(doc)).unwrap_or_else(|e| panic!("write {file}: {e}"));
            println!("  wrote {file}");
        }
        println!("  RESULT: {}", if outcome.pass { "PASS" } else { "FAIL" });
        failed += usize::from(!outcome.pass);
    }
    println!();
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment but the three large ones, at full scale. Runs
    /// never write: E13's document, which only `main` writes, must equal
    /// the committed `BENCH_fanout.json` byte for byte.
    #[test]
    fn every_small_experiment_passes_at_full_scale() {
        for (id, _, run) in EXPERIMENTS {
            if ["e14", "e15", "e16"].contains(id) {
                continue;
            }
            let outcome = run();
            assert!(outcome.pass, "{id} failed");
            if let Some((file, doc)) = &outcome.pinned {
                assert_eq!(*file, "BENCH_fanout.json", "{id}");
                assert_eq!(
                    document(doc),
                    include_str!("../../../../BENCH_fanout.json"),
                    "{id}"
                );
            }
        }
    }

    /// The e14 pipeline at reduced scale.
    #[test]
    fn e14_paths_agree_at_reduced_scale() {
        assert!(e14_run(2, 4_096).pass);
    }

    /// The e15 pipeline at reduced scale.
    #[test]
    fn e15_delta_beats_repoll_at_reduced_scale() {
        assert!(e15_run(10, 20, 5).pass);
    }

    /// Both e16 sweeps at reduced scale.
    #[test]
    fn e16_intrusion_is_flat_and_linear_at_reduced_scale() {
        assert!(e16_run(&[2, 3], 2, &[1, 2], 2).pass);
    }
}
