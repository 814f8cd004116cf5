//! One replay: build a fresh served world stage by stage, warm it up,
//! send the fixed sequence once in-process and once over loopback TCP,
//! time every request, check every reply and read the exact counts.
//!
//! Everything here reaches the program through the same entry points a
//! deployment uses — `ServeWorld`'s parts, `GlobalLayer::wire_service`,
//! `TcpServer`, `write_frame`/`read_frame` — and times them from
//! outside. The run does a *fixed* number of replays; no loop in this
//! crate is bounded by a clock.

use crate::alloc::thread_totals;
use crate::estimator::{sample_ns, Samples};
use crate::workload::{Expect, Plan, Request, Truth, Workload, BLOCK, NCPU, SITE, START_MS};
use gridrm_agents::deploy_site;
use gridrm_core::{Gateway, GatewayConfig};
use gridrm_drivers::install_into_gateway;
use gridrm_global::transport::FrameService;
use gridrm_global::{GlobalLayer, GlobalResponse, GmaDirectory, WireFrame};
use gridrm_resmodel::{SiteModel, SiteSpec};
use gridrm_serve::{read_frame, write_frame, SchedulerConfig, ServeWorld, TcpServer};
use gridrm_simnet::{Network, SimClock};
use gridrm_sqlparse::SqlValue;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// The set-up stages timed before the warm-up requests, in order.
pub const SETUP_STAGES: [&str; 6] = [
    "site_generate",
    "advance_to",
    "deploy_agents",
    "gateway_drivers",
    "layer_attach",
    "server_connect",
];

/// Bytes the TCP framing adds to every payload (`u32` length prefix).
pub const FRAME_PREFIX: u64 = 4;

/// A served world with one connected client.
pub struct Served {
    /// The simulated site, gateway and Global layer.
    pub world: ServeWorld,
    /// The wire service both passes dispatch into.
    pub service: Arc<dyn FrameService>,
    /// The TCP server (`workers` as asked).
    pub server: TcpServer,
    /// The connected clients, `TCP_NODELAY` set.
    pub clients: Vec<TcpStream>,
}

impl Served {
    /// Build the world `ServeWorld::build` builds, but seeded and one
    /// stage at a time, writing each stage's duration into `stages`
    /// (one slot per [`SETUP_STAGES`] entry).
    pub fn build(
        site_seed: u64,
        hosts: usize,
        workers: usize,
        clients: usize,
        stages: &mut [u32],
    ) -> std::io::Result<Served> {
        let mut stage = 0;
        let mut lap = |started: Instant| {
            stages[stage] = sample_ns(started.elapsed());
            stage += 1;
        };

        let t = Instant::now();
        // The clock starts where the site does, so `pump_once` really
        // advances the site (`ServeWorld::build` leaves the clock at 0,
        // ten minutes behind, and its hosts never change).
        let net = Network::new(SimClock::starting_at(START_MS), site_seed);
        let site = SiteModel::generate(site_seed, &SiteSpec::new(SITE, hosts, NCPU));
        lap(t);

        let t = Instant::now();
        site.advance_to(START_MS);
        lap(t);

        let t = Instant::now();
        let agents = deploy_site(&net, site.clone());
        lap(t);

        let t = Instant::now();
        let gateway = Gateway::new(GatewayConfig::new("gw-serve", SITE), net.clone());
        install_into_gateway(&gateway);
        lap(t);

        let t = Instant::now();
        let directory = GmaDirectory::new();
        let layer = GlobalLayer::attach(gateway.clone(), directory.clone());
        let world = ServeWorld {
            net,
            site,
            agents,
            gateway,
            directory,
            layer,
        };
        let service = world.service();
        lap(t);

        let t = Instant::now();
        let config = SchedulerConfig {
            workers,
            ..SchedulerConfig::default()
        };
        let server = TcpServer::start("127.0.0.1:0", service.clone(), config)?;
        let clients = (0..clients)
            .map(|_| {
                let stream = TcpStream::connect(server.local_addr())?;
                stream.set_nodelay(true)?;
                Ok(stream)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        lap(t);

        Ok(Served {
            world,
            service,
            server,
            clients,
        })
    }

    /// Close the clients, stop the server and take every endpoint off
    /// the simnet. The last step matters for memory: the NetLogger
    /// agent holds the network that holds the agent, so a world whose
    /// endpoints stay registered is never freed and peak RSS would grow
    /// with the replay count.
    pub fn shut_down(mut self) {
        self.clients.clear();
        self.server.stop();
        for addr in self.world.net.scan() {
            self.world.net.unregister(&addr);
        }
    }

    /// One closed-loop round trip on client `c`.
    pub fn round_trip(&mut self, c: usize, frame: &[u8]) -> std::io::Result<Vec<u8>> {
        let stream = &mut self.clients[c];
        write_frame(stream, frame)?;
        read_frame(stream)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the socket",
            )
        })
    }
}

/// FNV-1a over a reply: replies must be byte-identical across replays,
/// so later replays compare digests instead of decoding again.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Check one reply against the ground truth.
pub fn check_reply(reply: &[u8], expect: &Expect, truth: &Truth) -> Result<(), String> {
    let (response, _) =
        WireFrame::decode::<GlobalResponse>(reply).map_err(|e| format!("undecodable: {e}"))?;
    match (response, expect) {
        (GlobalResponse::Rows { rows, .. }, Expect::Table { columns }) => {
            check_columns(&rows.columns, columns)?;
            if rows.rows.is_empty() {
                return Err("introspection table came back empty".to_owned());
            }
            Ok(())
        }
        (
            GlobalResponse::Rows { rows, .. },
            Expect::Hosts {
                columns,
                hosts,
                check_load,
            },
        ) => {
            check_columns(&rows.columns, columns)?;
            if rows.rows.len() != hosts.len() {
                return Err(format!(
                    "{} rows, ground truth says {}",
                    rows.rows.len(),
                    hosts.len()
                ));
            }
            let col = |name: &str| columns.iter().position(|c| *c == name);
            for (row, &h) in rows.rows.iter().zip(hosts) {
                let cell = |name: &str| col(name).and_then(|i| row.get(i));
                if cell("Hostname").and_then(SqlValue::as_str) != Some(truth.hostnames[h].as_str())
                {
                    return Err(format!(
                        "Hostname {:?} != {}",
                        cell("Hostname"),
                        truth.hostnames[h]
                    ));
                }
                if let Some(ncpu) = cell("NCpu") {
                    if ncpu.as_i64() != Some(truth.ncpu[h]) {
                        return Err(format!("NCpu {ncpu:?} != {}", truth.ncpu[h]));
                    }
                }
                if *check_load {
                    // Agents quantise to 1/100 (SNMP centi-load,
                    // Ganglia's two printed decimals).
                    let load = cell("Load1").and_then(SqlValue::as_f64);
                    if !load.is_some_and(|l| (l - truth.load1[h]).abs() <= 0.0101) {
                        return Err(format!("Load1 {load:?} != {}", truth.load1[h]));
                    }
                }
            }
            Ok(())
        }
        (GlobalResponse::Subscribed { subscription }, Expect::Subscribed { id }) => {
            if subscription == *id {
                Ok(())
            } else {
                Err(format!(
                    "subscription id {subscription}, sequence assumes {id}"
                ))
            }
        }
        (GlobalResponse::Deltas { deltas }, Expect::Deltas { subscription }) => {
            match deltas.iter().find(|d| d.subscription != *subscription) {
                None => Ok(()),
                Some(d) => Err(format!("delta for subscription {}", d.subscription)),
            }
        }
        (GlobalResponse::Error { message }, _) => Err(format!("Error: {message}")),
        (GlobalResponse::Overloaded { queue_depth, .. }, _) => {
            Err(format!("Overloaded at depth {queue_depth}"))
        }
        (other, _) => Err(format!("unexpected reply {other:?} for {expect:?}")),
    }
}

fn check_columns(
    got: &[(String, gridrm_sqlparse::SqlType, Option<String>)],
    want: &[&str],
) -> Result<(), String> {
    if got
        .iter()
        .map(|(name, _, _)| name.as_str())
        .eq(want.iter().copied())
    {
        Ok(())
    } else {
        let got: Vec<&str> = got.iter().map(|(name, _, _)| name.as_str()).collect();
        Err(format!("columns {got:?}, expected {want:?}"))
    }
}

/// The exact counts of one replay. They come from the program's own
/// counters and must be identical in every replay of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests served by simulated agents (every endpoint but `:gma`).
    pub agent_msgs: u64,
    /// Agent request + reply payload bytes.
    pub agent_bytes: u64,
    /// Request payload bytes of the TCP pass.
    pub frame_bytes_in: u64,
    /// Response payload bytes of the TCP pass.
    pub frame_bytes_out: u64,
    /// Rows materialised by drivers (`CostLedger::totals`).
    pub rows_scanned: u64,
    /// Native driver fetches (`CostLedger::totals`).
    pub fetch_units: u64,
    /// Gateway cache hits.
    pub cache_hits: u64,
    /// Gateway cache misses.
    pub cache_misses: u64,
    /// Connection checkouts served from the pool.
    pub pool_hits: u64,
    /// Connection checkouts.
    pub pool_checkouts: u64,
    /// Requests the scheduler admitted.
    pub sched_accepted: u64,
    /// Requests the scheduler shed.
    pub sched_shed: u64,
    /// Allocations made by `handle_frame` over the in-process pass.
    pub alloc_count: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Digest of every reply of both passes, in order.
    pub replies: u64,
}

impl Counts {
    // Not `read`: gridrm-lint's name-based lock-order pass would take
    // the name for a guard acquisition.
    fn tally(served: &Served) -> Counts {
        let net = &served.world.net;
        let gateway = &served.world.gateway;
        let agents: Vec<String> = net
            .scan()
            .into_iter()
            .filter(|a| !a.ends_with(":gma"))
            .collect();
        let agent_bytes = agents
            .iter()
            .map(|a| {
                let link = net.stats_for(&gateway.config().address, a).snapshot();
                link.bytes_out + link.bytes_in
            })
            .sum();
        let ledger = gateway.telemetry().costs().totals();
        let cache = gateway.cache().stats().snapshot();
        let pool = gateway.connections().stats().snapshot();
        let (accepted, shed, _, _) = served.server.stats().snapshot();
        Counts {
            agent_msgs: net.total_requests_served(|a| !a.ends_with(":gma")),
            agent_bytes,
            rows_scanned: ledger.rows_scanned,
            fetch_units: ledger.fetch_units,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            pool_hits: pool.pool_hits,
            pool_checkouts: pool.checkouts,
            sched_accepted: accepted,
            sched_shed: shed,
            ..Counts::default()
        }
    }
}

/// Everything the timed replays of one run produced.
pub struct Timed {
    /// Per-replay durations of [`SETUP_STAGES`] then each warm-up request.
    pub setup: Samples,
    /// Per-position in-process `handle_frame` times.
    pub svc: Samples,
    /// Per-position loopback round-trip times.
    pub rtt: Samples,
    /// Counts of replay 0.
    pub counts: Counts,
    /// Requests sent (warm-up included), all replays.
    pub attempted: u64,
    /// Requests whose reply was wrong, all replays.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Whether every replay's counts equalled replay 0's.
    pub deterministic: bool,
}

/// The three request lists of a replay, as failure messages name them.
const PASSES: [&str; 3] = ["warmup", "svc", "rtt"];

struct Checker<'a> {
    truth: &'a Truth,
    /// Digests of replay 0's replies, per pass.
    reference: [Vec<u64>; PASSES.len()],
    first: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    combined: u64,
}

impl Checker<'_> {
    /// Replay 0 decodes and checks against the ground truth and records
    /// the digest; later replays must reproduce that digest.
    fn check(&mut self, pass: usize, i: usize, request: &Request, reply: &[u8]) {
        self.attempted += 1;
        let d = digest(reply);
        self.combined = (self.combined ^ d).wrapping_mul(0x100_0000_01b3);
        let verdict = if self.first {
            self.reference[pass].push(d);
            check_reply(reply, &request.expect, self.truth)
        } else if self.reference[pass].get(i) == Some(&d) {
            Ok(())
        } else {
            Err("reply differs from replay 0".to_owned())
        };
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures
                    .push(format!("{}[{i}] {:?}: {why}", PASSES[pass], request.op));
            }
        }
    }
}

/// Run `replays` timed replays of `plan`.
pub fn run_timed(plan: &Plan, replays: usize) -> std::io::Result<Timed> {
    let n = plan.requests.len();
    let setup_slots = SETUP_STAGES.len() + plan.warmup.len();
    let mut timed = Timed {
        setup: Samples::new(setup_slots, replays),
        svc: Samples::new(n, replays),
        rtt: Samples::new(n, replays),
        counts: Counts::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        deterministic: true,
    };
    let mut checker = Checker {
        truth: &plan.truth,
        reference: Default::default(),
        first: true,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        combined: 0,
    };
    for replay in 0..replays {
        checker.first = replay == 0;
        checker.combined = 0;
        let counts = replay_once(plan, &mut timed, &mut checker)?;
        if replay == 0 {
            timed.counts = counts;
        } else if counts != timed.counts {
            timed.deterministic = false;
            if checker.failures.len() < 5 {
                checker.failures.push(format!(
                    "replay {replay} counts {counts:?} != {:?}",
                    timed.counts
                ));
            }
        }
    }
    timed.attempted = checker.attempted;
    timed.failed = checker.failed;
    timed.failures = checker.failures;
    Ok(timed)
}

fn replay_once(
    plan: &Plan,
    timed: &mut Timed,
    checker: &mut Checker<'_>,
) -> std::io::Result<Counts> {
    let workload: Workload = plan.workload;
    let setup = timed.setup.next_replay();
    let (stages, warmups) = setup.split_at_mut(SETUP_STAGES.len());
    let mut served = Served::build(plan.site_seed, workload.hosts(), 1, 1, stages)?;

    for (i, request) in plan.warmup.iter().enumerate() {
        let t = Instant::now();
        let reply = served.service.handle_frame("bench", &request.frame);
        warmups[i] = sample_ns(t.elapsed());
        checker.check(0, i, request, &reply);
    }

    let mut allocs = (0u64, 0u64);
    let svc = timed.svc.next_replay();
    for (i, request) in plan.requests.iter().enumerate() {
        let (c0, b0) = thread_totals();
        let t = Instant::now();
        let reply = served.service.handle_frame("bench", &request.frame);
        svc[i] = sample_ns(t.elapsed());
        let (c1, b1) = thread_totals();
        allocs = (allocs.0 + (c1 - c0), allocs.1 + (b1 - b0));
        checker.check(1, i, request, &reply);
        if pump_due(workload, i) {
            served.world.pump_once(1_000);
        }
    }

    let rtt = timed.rtt.next_replay();
    let (mut bytes_in, mut bytes_out) = (0u64, 0u64);
    for (i, request) in plan.requests.iter().enumerate() {
        let t = Instant::now();
        let reply = served.round_trip(0, &request.frame)?;
        rtt[i] = sample_ns(t.elapsed());
        bytes_in += request.frame.len() as u64;
        bytes_out += reply.len() as u64;
        checker.check(2, i, request, &reply);
        if pump_due(workload, i) {
            served.world.pump_once(1_000);
        }
    }

    let counts = Counts {
        frame_bytes_in: bytes_in,
        frame_bytes_out: bytes_out,
        alloc_count: allocs.0,
        alloc_bytes: allocs.1,
        replies: checker.combined,
        ..Counts::tally(&served)
    };
    served.shut_down();
    Ok(counts)
}

/// Whether the harness pumps the world after request `i`:
/// `mixed_churn` advances the virtual clock by one second and runs the
/// gateway's periodic work after every [`BLOCK`] requests.
pub fn pump_due(workload: Workload, i: usize) -> bool {
    workload.pumps() && (i + 1).is_multiple_of(BLOCK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_global::WireRows;
    use gridrm_sqlparse::SqlType;

    fn rows_reply(rows: Vec<Vec<SqlValue>>) -> Vec<u8> {
        WireFrame::encode(&GlobalResponse::Rows {
            rows: WireRows {
                columns: vec![
                    ("Hostname".to_owned(), SqlType::Str, None),
                    ("NCpu".to_owned(), SqlType::Int, None),
                    ("Load1".to_owned(), SqlType::Float, None),
                ],
                rows,
            },
            warnings: Vec::new(),
            served_from_cache: 0,
            spans: Vec::new(),
            elapsed_ms: 0,
            outcomes: Vec::new(),
        })
        .into_bytes()
    }

    #[test]
    fn replies_are_checked_against_the_ground_truth() {
        let truth = Truth {
            hostnames: vec!["node00.serve".to_owned(), "node01.serve".to_owned()],
            ncpu: vec![4, 4],
            load1: vec![0.5, 1.5],
        };
        let expect = Expect::Hosts {
            columns: &["Hostname", "NCpu", "Load1"],
            hosts: vec![1],
            check_load: true,
        };
        let row = |host: &str, ncpu: i64, load: f64| {
            vec![
                SqlValue::Str(host.to_owned()),
                SqlValue::Int(ncpu),
                SqlValue::Float(load),
            ]
        };
        let good = rows_reply(vec![row("node01.serve", 4, 1.5)]);
        assert_eq!(check_reply(&good, &expect, &truth), Ok(()));
        for bad in [
            rows_reply(vec![row("node00.serve", 4, 1.5)]),
            rows_reply(vec![row("node01.serve", 2, 1.5)]),
            rows_reply(vec![row("node01.serve", 4, 0.5)]),
            rows_reply(vec![]),
            WireFrame::encode(&GlobalResponse::Error {
                message: "x".to_owned(),
            })
            .into_bytes(),
            b"not json".to_vec(),
        ] {
            assert!(check_reply(&bad, &expect, &truth).is_err());
        }
        assert_ne!(digest(&good), digest(b"not json"));
    }
}
