//! The four workloads: each is a *fixed sequence* of request frames
//! generated from `--seed`, plus what a correct reply to every frame
//! looks like according to the [`SiteModel`] ground truth (never the
//! gateway's own output).
//!
//! The seed picks the simulated site (host loads), the rotation of
//! sources and the order of requests inside each clock-constant block.
//! It never changes *how many* requests of each kind a sequence holds
//! or which sources a block touches: the count metrics (agent
//! messages, bytes) are regression-gated at 1 %, so they must not move
//! with the seed.

use gridrm_global::{GlobalRequest, WireFrame};
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_serve::{client_identity, query_frame};
use gridrm_simnet::XorShift;

/// Name of the simulated site (`ServeWorld::source_url` assumes it).
pub const SITE: &str = "serve";
/// CPUs per simulated host.
pub const NCPU: u32 = 4;
/// Virtual time the site is advanced to before agents are deployed.
pub const START_MS: u64 = 600_000;

/// The ROADMAP / `BENCH_serve.json` canonical query.
pub const SQL_POINT: &str = "SELECT Hostname, NCpu, Load1 FROM Processor";
/// The realtime multi-source query of `mixed_churn`: different text
/// from [`SQL_POINT`], so its cache stores never refresh the entries
/// the cached point queries look up (which would make hit counts
/// depend on request order inside a block).
pub const SQL_MULTI: &str = "SELECT Hostname, Load1, Load5 FROM Processor";
/// The standing query of the four `mixed_churn` subscriptions.
pub const SQL_STREAM: &str = "SELECT Hostname, Load1 FROM Processor EVERY 1000";
/// The Ganglia filter of `mixed_churn`: half the hosts, whatever the
/// seed or the virtual time.
pub const SQL_HALF: &str = "SELECT Hostname, Load1 FROM Processor WHERE Hostname < 'node08'";
/// Source health as the gateway sees it.
pub const SQL_HEALTH: &str = "SELECT source, state, consecutive_successes FROM gridrm_health";
/// The most expensive recent queries from the cost ledger.
pub const SQL_COSTS: &str = "SELECT request, msgs_out, bytes_in, rows_returned \
                             FROM gridrm_query_costs ORDER BY bytes_in DESC LIMIT 8";
/// The gateway's own telemetry source.
pub const TELEMETRY_URL: &str = "jdbc:telemetry://local/metrics";

/// Requests between two `pump_once(1000)` calls in `mixed_churn`; the
/// virtual clock stands still inside a block.
pub const BLOCK: usize = 50;
/// Subscriptions `mixed_churn` registers during warm-up.
pub const SUBSCRIPTIONS: u64 = 4;

/// One of the four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request is a gateway cache hit.
    CachedPoint,
    /// Every request fetches from one SNMP agent.
    RealtimeSnmp,
    /// Every request pulls and filters the whole-cluster Ganglia dump.
    CoarseScan,
    /// Hits, expiring entries, consolidation, deltas and introspection.
    MixedChurn,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CachedPoint,
        Workload::RealtimeSnmp,
        Workload::CoarseScan,
        Workload::MixedChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CachedPoint => "cached_point",
            Workload::RealtimeSnmp => "realtime_snmp",
            Workload::CoarseScan => "coarse_scan",
            Workload::MixedChurn => "mixed_churn",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Hosts in the simulated site.
    pub fn hosts(self) -> usize {
        match self {
            Workload::CachedPoint | Workload::RealtimeSnmp => 8,
            Workload::CoarseScan => 32,
            Workload::MixedChurn => 16,
        }
    }

    /// `N`: requests per pass, sized so one replay (set-up, warm-up,
    /// one in-process and one TCP pass) costs roughly 100 ms on a
    /// quiet machine.
    pub fn requests(self) -> usize {
        match self {
            Workload::CachedPoint => 2_000,
            Workload::RealtimeSnmp => 400,
            Workload::CoarseScan => 40,
            Workload::MixedChurn => 500,
        }
    }

    /// Whether the harness pumps the world after every [`BLOCK`]
    /// requests (advancing the virtual clock by one second).
    pub fn pumps(self) -> bool {
        self == Workload::MixedChurn
    }
}

/// What the simulated site really looks like at [`START_MS`].
pub struct Truth {
    /// Host names in node order.
    pub hostnames: Vec<String>,
    /// CPUs per host.
    pub ncpu: Vec<i64>,
    /// One-minute load per host.
    pub load1: Vec<f64>,
}

impl Truth {
    /// Read the ground truth off the site every replay deploys for
    /// `site_seed`.
    pub fn generate(site_seed: u64, hosts: usize) -> Truth {
        let site = SiteModel::generate(site_seed, &SiteSpec::new(SITE, hosts, NCPU));
        site.advance_to(START_MS);
        let snaps = site.all_snapshots();
        Truth {
            hostnames: snaps.iter().map(|s| s.spec.hostname.clone()).collect(),
            ncpu: snaps.iter().map(|s| i64::from(s.spec.ncpu)).collect(),
            load1: snaps.iter().map(|s| s.load1).collect(),
        }
    }
}

/// A request as the layers below the wire see it (the probes call the
/// layers with these parts; the timed passes only send the frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `GlobalRequest::Query`.
    Query {
        /// Data-source URLs.
        sources: Vec<String>,
        /// SQL text.
        sql: String,
        /// `Some(age)` asks for the gateway cache.
        max_cache_age_ms: Option<u64>,
    },
    /// `GlobalRequest::Subscribe` (warm-up only).
    Subscribe {
        /// Data-source URLs.
        sources: Vec<String>,
        /// SQL text with its `EVERY` clause.
        sql: String,
    },
    /// `GlobalRequest::PollDeltas`, draining everything pending.
    Poll {
        /// Subscription id.
        subscription: u64,
    },
}

/// What a correct reply looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `Rows` with these columns and exactly one row per listed host
    /// (indices into [`Truth`]), in this order, `Hostname` and `NCpu`
    /// matching the ground truth.
    Hosts {
        /// Projected column names.
        columns: &'static [&'static str],
        /// Expected hosts, in reply order.
        hosts: Vec<usize>,
        /// Also compare `Load1` with the ground truth (only where the
        /// virtual clock stands still for the whole replay).
        check_load: bool,
    },
    /// `Rows` from an introspection table: these columns, ≥ 1 row.
    Table {
        /// Projected column names.
        columns: &'static [&'static str],
    },
    /// `Subscribed` carrying this id.
    Subscribed {
        /// The id a fresh gateway must hand out.
        id: u64,
    },
    /// `Deltas` whose batches all belong to this subscription.
    Deltas {
        /// Subscription id.
        subscription: u64,
    },
}

/// One request of a sequence.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request's parts.
    pub op: Op,
    /// The encoded frame sent in both passes.
    pub frame: Vec<u8>,
    /// What a correct reply looks like.
    pub expect: Expect,
}

impl Request {
    fn new(op: Op, expect: Expect) -> Request {
        let frame = match &op {
            Op::Query {
                sources,
                sql,
                max_cache_age_ms,
            } => query_frame(sources, sql, *max_cache_age_ms),
            Op::Subscribe { sources, sql } => WireFrame::encode(&GlobalRequest::Subscribe {
                from_gateway: "wire-client".to_owned(),
                identity: client_identity(),
                sources: sources.clone(),
                sql: sql.clone(),
                every_ms: None,
                buffer: None,
                backpressure: None,
            })
            .into_bytes(),
            Op::Poll { subscription } => WireFrame::encode(&GlobalRequest::PollDeltas {
                subscription: *subscription,
                max: 0,
            })
            .into_bytes(),
        };
        Request { op, frame, expect }
    }
}

/// A workload's warm-up list and timed sequence for one seed.
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Seed of the simulated site, derived from `--seed`.
    pub site_seed: u64,
    /// What that site really looks like.
    pub truth: Truth,
    /// Requests run once, untimed by the request estimators (they
    /// count towards `setup_s`).
    pub warmup: Vec<Request>,
    /// The `N` timed requests.
    pub requests: Vec<Request>,
}

const POINT_COLUMNS: &[&str] = &["Hostname", "NCpu", "Load1"];
const MULTI_COLUMNS: &[&str] = &["Hostname", "Load1", "Load5"];
const SCAN_COLUMNS: &[&str] = &["Hostname", "Load1"];

/// `jdbc:snmp://nodeNN.serve/public`, as `ServeWorld::source_url`.
pub fn snmp_url(host: usize) -> String {
    format!("jdbc:snmp://node{host:02}.{SITE}/public")
}

/// The Ganglia source on the head node; `ttl` overrides the driver's
/// dump cache (`Some(0)` disables it).
pub fn ganglia_url(ttl: Option<u64>) -> String {
    match ttl {
        Some(ms) => format!("jdbc:ganglia://node00.{SITE}/{SITE}?ttl={ms}"),
        None => format!("jdbc:ganglia://node00.{SITE}/{SITE}"),
    }
}

fn point(host: usize, max_cache_age_ms: Option<u64>, check_load: bool) -> Request {
    Request::new(
        Op::Query {
            sources: vec![snmp_url(host)],
            sql: SQL_POINT.to_owned(),
            max_cache_age_ms,
        },
        Expect::Hosts {
            columns: POINT_COLUMNS,
            hosts: vec![host],
            check_load,
        },
    )
}

fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// The Ganglia agent prints loads with two decimals; the scan filters
/// on what it printed.
fn printed(load: f64) -> f64 {
    format!("{load:.2}").parse().unwrap_or(load)
}

/// The `Load1` threshold that splits the site exactly in half — midway
/// between the two middle printed loads, so with three decimals it
/// never equals a printed value — or `None` when those two tie.
fn median_threshold(truth: &Truth) -> Option<f64> {
    let mut loads: Vec<f64> = truth.load1.iter().map(|&l| printed(l)).collect();
    loads.sort_by(f64::total_cmp);
    let mid = loads.len() / 2;
    (mid > 0 && loads[mid] > loads[mid - 1]).then(|| (loads[mid - 1] + loads[mid]) / 2.0)
}

/// The site for `seed`. `coarse_scan` must select exactly half the
/// hosts on every seed (its reply size is gated at 1 %), so it takes
/// the first of `seed`, `seed + 2³²`, `seed + 2·2³²`, … whose two
/// middle printed loads differ; about one site in ten has a tie there.
fn pick_site(workload: Workload, seed: u64) -> (u64, Truth) {
    (0..64u64)
        .map(|k| seed.wrapping_add(k << 32))
        .map(|site_seed| (site_seed, Truth::generate(site_seed, workload.hosts())))
        .find(|(_, truth)| workload != Workload::CoarseScan || median_threshold(truth).is_some())
        .expect("64 generated sites in a row with tied median loads")
}

impl Plan {
    /// Generate `workload`'s site and sequence of `n` requests from
    /// `seed`.
    pub fn generate(workload: Workload, seed: u64, n: usize) -> Plan {
        let (site_seed, truth) = pick_site(workload, seed);
        let mut rng = XorShift::new(seed).fork("sequence");
        let hosts = workload.hosts();
        let rot = rng.next_below(hosts as u64) as usize;
        let (warmup, requests) = match workload {
            Workload::CachedPoint => (
                (0..hosts).map(|h| point(h, None, true)).collect(),
                (0..n)
                    .map(|i| point((rot + i) % hosts, Some(3_600_000), true))
                    .collect(),
            ),
            Workload::RealtimeSnmp => (
                (0..hosts).map(|h| point(h, None, true)).collect(),
                (0..n)
                    .map(|i| point((rot + i) % hosts, None, true))
                    .collect(),
            ),
            Workload::CoarseScan => {
                let threshold = median_threshold(&truth).expect("pick_site checked the split");
                let scan = Request::new(
                    Op::Query {
                        sources: vec![ganglia_url(Some(0))],
                        sql: format!(
                            "SELECT Hostname, Load1 FROM Processor WHERE Load1 > {threshold:.3}"
                        ),
                        max_cache_age_ms: None,
                    },
                    Expect::Hosts {
                        columns: SCAN_COLUMNS,
                        hosts: (0..hosts)
                            .filter(|&h| printed(truth.load1[h]) > threshold)
                            .collect(),
                        check_load: true,
                    },
                );
                (vec![scan.clone(); 2], vec![scan; n])
            }
            Workload::MixedChurn => mixed_churn(hosts, rot, n, &mut rng),
        };
        Plan {
            workload,
            site_seed,
            truth,
            warmup,
            requests,
        }
    }
}

/// `mixed_churn`: blocks of [`BLOCK`] requests, each holding exactly 30
/// cached point queries (15 with `max_cache_age_ms` 2 000 on 15
/// distinct sources, 15 with 60 000), 5 `PollDeltas`, 5 Ganglia filter
/// queries and — alternating so two blocks make 15 % and 5 % — 8 or 7
/// realtime queries over 2–4 sources and 2 or 3 introspection
/// queries. The seed rotates the sources and shuffles each block.
fn mixed_churn(
    hosts: usize,
    rot: usize,
    n: usize,
    rng: &mut XorShift,
) -> (Vec<Request>, Vec<Request>) {
    let subs = SUBSCRIPTIONS as usize;
    let per_sub = hosts / subs;
    let introspect = |health: bool| {
        let (sql, columns): (&str, &'static [&'static str]) = if health {
            (SQL_HEALTH, &["source", "state", "consecutive_successes"])
        } else {
            (
                SQL_COSTS,
                &["request", "msgs_out", "bytes_in", "rows_returned"],
            )
        };
        Request::new(
            Op::Query {
                sources: vec![TELEMETRY_URL.to_owned()],
                sql: sql.to_owned(),
                max_cache_age_ms: None,
            },
            Expect::Table { columns },
        )
    };
    let half_scan = || {
        Request::new(
            Op::Query {
                sources: vec![ganglia_url(None)],
                sql: SQL_HALF.to_owned(),
                max_cache_age_ms: None,
            },
            Expect::Hosts {
                columns: SCAN_COLUMNS,
                hosts: (0..hosts.min(8)).collect(),
                check_load: false,
            },
        )
    };

    let mut warmup: Vec<Request> = (0..hosts).map(|h| point(h, None, false)).collect();
    for s in 0..subs {
        warmup.push(Request::new(
            Op::Subscribe {
                sources: (s * per_sub..(s + 1) * per_sub).map(snmp_url).collect(),
                sql: SQL_STREAM.to_owned(),
            },
            Expect::Subscribed { id: s as u64 + 1 },
        ));
    }
    warmup.extend([half_scan(), introspect(true), introspect(false)]);

    let mut requests = Vec::with_capacity(n + BLOCK);
    let mut introspections = 0usize;
    for b in 0..n.div_ceil(BLOCK) {
        let mut block = Vec::with_capacity(BLOCK);
        for j in 0..15 {
            block.push(point((rot + 15 * b + j) % hosts, Some(2_000), false));
            block.push(point((rot + 15 * b + j + 8) % hosts, Some(60_000), false));
        }
        let realtime = if b % 2 == 0 { 8 } else { 7 };
        for j in 0..realtime {
            // Half are four wide: the widest queries then make up 8 % of
            // the sequence, so the p95 across positions falls inside one
            // homogeneous group instead of on the edge between two.
            let width = [4, 2, 4, 3][j % 4];
            let picked: Vec<usize> = (0..width)
                .map(|k| (rot + 7 * b + 3 * j + k) % hosts)
                .collect();
            block.push(Request::new(
                Op::Query {
                    sources: picked.iter().map(|&h| snmp_url(h)).collect(),
                    sql: SQL_MULTI.to_owned(),
                    max_cache_age_ms: None,
                },
                Expect::Hosts {
                    columns: MULTI_COLUMNS,
                    hosts: picked,
                    check_load: false,
                },
            ));
        }
        for j in 0..5 {
            let subscription = ((b + j) % subs) as u64 + 1;
            block.push(Request::new(
                Op::Poll { subscription },
                Expect::Deltas { subscription },
            ));
            block.push(half_scan());
        }
        for _ in 0..10 - realtime {
            block.push(introspect(introspections.is_multiple_of(2)));
            introspections += 1;
        }
        shuffle(&mut block, rng);
        requests.extend(block);
    }
    requests.truncate(n);
    (warmup, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_other_seed_differs() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 7, 100);
            let b = Plan::generate(w, 7, 100);
            assert_eq!(a.requests.len(), 100);
            let frames = |p: &Plan| {
                p.requests
                    .iter()
                    .map(|r| r.frame.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(frames(&a), frames(&b), "{}", w.name());
        }
        let a = Plan::generate(Workload::MixedChurn, 7, 100);
        let c = Plan::generate(Workload::MixedChurn, 8, 100);
        assert_ne!(
            a.requests.iter().map(|r| &r.frame).collect::<Vec<_>>(),
            c.requests.iter().map(|r| &r.frame).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mixed_churn_mix_is_exact_whatever_the_seed() {
        for seed in [1, 2, 99] {
            let plan = Plan::generate(Workload::MixedChurn, seed, 500);
            let count = |f: &dyn Fn(&Op) -> bool| plan.requests.iter().filter(|r| f(&r.op)).count();
            let is_sql = |op: &Op, want: &str| matches!(op, Op::Query { sql, .. } if sql == want);
            assert_eq!(count(&|op| is_sql(op, SQL_POINT)), 300);
            assert_eq!(count(&|op| is_sql(op, SQL_MULTI)), 75);
            assert_eq!(count(&|op| matches!(op, Op::Poll { .. })), 50);
            assert_eq!(count(&|op| is_sql(op, SQL_HALF)), 50);
            assert_eq!(
                count(&|op| is_sql(op, SQL_HEALTH) || is_sql(op, SQL_COSTS)),
                25
            );
            // Every block polls every subscription at least once.
            for block in plan.requests.chunks(BLOCK) {
                for id in 1..=SUBSCRIPTIONS {
                    assert!(block.iter().any(|r| r.op == Op::Poll { subscription: id }));
                }
            }
        }
    }

    #[test]
    fn scan_selects_exactly_half_the_site_on_every_seed() {
        for seed in 0..24 {
            let plan = Plan::generate(Workload::CoarseScan, seed, 4);
            match &plan.requests[0].expect {
                Expect::Hosts { hosts, .. } => assert_eq!(hosts.len(), 16, "seed {seed}"),
                other => panic!("{other:?}"),
            }
        }
        // A tie between the two middle printed loads has no threshold.
        let tied = Truth {
            hostnames: Vec::new(),
            ncpu: Vec::new(),
            load1: vec![0.1, 0.501, 0.499, 0.9],
        };
        assert_eq!(median_threshold(&tied), None);
    }
}
