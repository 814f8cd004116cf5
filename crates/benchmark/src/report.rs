//! Metric definitions, one run of one workload, and how it is printed.
//!
//! The two tables here are the program's copy of `BENCHMARK.json`
//! (a test holds them equal): every end-to-end metric with unit,
//! direction and regression bound, every per-layer metric with unit
//! and the end-to-end metric it should move.

use crate::estimator::{mean_us, percentile_us, rel_diff, sum_ns};
use crate::host::{self, Pin};
use crate::probes::{self, Probe, Span, Traced};
use crate::replay::{self, Counts, Timed, FRAME_PREFIX};
use crate::workload::{Plan, Workload};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the gateway sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median it may worsen by before a change
    /// counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, the same ten on every workload. The timing
/// bounds are three times the worst ten-seed spread seen on the shared
/// 2-vCPU reference host in a noisy hour (means 4.7 %, p95s 8.4 %):
/// what is left after the minima is slow drift of the host between
/// runs, which shifted set medians by up to 6 %.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("rtt_mean_us", "us", Better::Lower, 0.15),
    e2e("rtt_p95_us", "us", Better::Lower, 0.20),
    e2e("qps", "1/s", Better::Higher, 0.15),
    e2e("svc_mean_us", "us", Better::Lower, 0.15),
    e2e("svc_p95_us", "us", Better::Lower, 0.20),
    e2e("agent_msgs_per_query", "count", Better::Lower, 0.01),
    e2e("agent_bytes_per_query", "bytes", Better::Lower, 0.01),
    e2e("wire_bytes_per_query", "bytes", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// A per-layer metric. None is regression-gated.
pub struct PerLayer {
    /// Metric name, `<module>.<probe>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric an optimisation of this layer should move.
    pub moves: &'static str,
}

/// Times, bytes and counts get better downwards; the three exceptions
/// are marked `higher` in [`PER_LAYER`].
const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
    }
}

const fn higher(mut metric: PerLayer) -> PerLayer {
    metric.better = Better::Higher;
    metric
}

/// The per-layer metrics, in printing order.
pub const PER_LAYER: [PerLayer; 37] = [
    layer("serve.socket_us", "us", "rtt_mean_us, qps"),
    layer("serve.frame_codec_us", "us", "rtt_mean_us"),
    layer("serve.frame_bytes_in", "bytes", "wire_bytes_per_query"),
    layer("serve.frame_bytes_out", "bytes", "wire_bytes_per_query"),
    layer("serve.shed_ratio", "ratio", "failed share"),
    higher(layer("serve.qps_2c", "1/s", "informational")),
    layer("global.decode_request_us", "us", "svc_mean_us"),
    layer("global.rows_to_wire_us", "us", "svc_mean_us"),
    layer("global.encode_response_us", "us", "svc_mean_us"),
    layer("global.handle_other_us", "us", "svc_mean_us"),
    layer("sqlparse.parse_us", "us", "svc_mean_us"),
    layer("core.gateway_query_us", "us", "svc_mean_us"),
    layer("core.request_overhead_us", "us", "svc_mean_us"),
    layer("core.cache_lookup_us", "us", "svc_mean_us"),
    layer("core.cache_store_us", "us", "svc_mean_us"),
    higher(layer(
        "core.cache_hit_ratio",
        "ratio",
        "agent_msgs_per_query",
    )),
    layer("core.driver_resolve_us", "us", "svc_mean_us"),
    layer("core.conn_execute_us", "us", "svc_mean_us"),
    higher(layer("core.pool_reuse_ratio", "ratio", "svc_mean_us")),
    layer("core.pump_us", "us", "rtt_p95_us"),
    layer("core.stream_poll_us", "us", "rtt_p95_us"),
    layer("drivers.execute_us", "us", "svc_mean_us"),
    layer("drivers.rows_scanned_per_query", "count", "svc_mean_us"),
    layer(
        "drivers.fetch_units_per_query",
        "count",
        "agent_bytes_per_query",
    ),
    layer("drivers.telemetry_query_us", "us", "rtt_p95_us"),
    layer("agents.request_us", "us", "svc_mean_us"),
    layer("agents.msgs_per_query", "count", "agent_msgs_per_query"),
    layer("agents.bytes_per_query", "bytes", "agent_bytes_per_query"),
    layer("glue.translate_row_us", "us", "svc_mean_us"),
    layer("store.select_us", "us", "svc_mean_us"),
    layer("dbc.url_parse_us", "us", "svc_mean_us"),
    layer("dbc.rowset_clone_us", "us", "svc_mean_us"),
    layer("telemetry.span_us", "us", "svc_mean_us"),
    layer("telemetry.journal_record_us", "us", "svc_mean_us"),
    layer("alloc.count_per_query", "count", "svc_mean_us, peak_rss_mb"),
    layer("alloc.bytes_per_query", "bytes", "svc_mean_us, peak_rss_mb"),
    layer("trace.overhead_ratio", "ratio", "none"),
];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of the site and the sequence.
    pub seed: u64,
    /// `N`, requests per pass.
    pub requests: usize,
    /// `R`, timed replays.
    pub replays: usize,
    /// Traced replays after the timed ones (0 skips the traced pass).
    pub traced_replays: usize,
}

impl Config {
    /// The full-scale run the driver asks for: `R = 10 × seconds`
    /// replays (100 at the `run_seconds` of `BENCHMARK.json`) and, when
    /// tracing, three traced replays for every ten timed ones. The
    /// argument fixes the work; no loop watches a clock.
    pub fn full(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Config {
        let replays = seconds as usize * 10;
        Config {
            workload,
            seed,
            requests: workload.requests(),
            replays,
            traced_replays: if trace { replays * 3 / 10 } else { 0 },
        }
    }
}

/// Host conditions of one run, to tell a bad run from a bad change.
#[derive(Debug, Clone, Copy)]
pub struct HostConditions {
    /// CPUs available to the process before pinning.
    pub nproc: usize,
    /// Whether the harness ran on exactly one CPU.
    pub pinned: bool,
    /// Steal ticks the machine accumulated during the timed replays.
    pub steal_ticks: Option<u64>,
    /// Share of timed samples more than 1.5× their position minimum.
    pub noisy_share: f64,
}

impl HostConditions {
    fn print(&self) {
        println!(
            "host: nproc {} pinned={} steal_ticks {} noisy_share {:.3}",
            self.nproc,
            self.pinned,
            self.steal_ticks.map_or("n/a".to_owned(), |t| t.to_string()),
            self.noisy_share
        );
    }
}

/// Everything one run produced.
pub struct Outcome {
    /// What ran.
    pub config: Config,
    /// Values aligned with [`END_TO_END`].
    pub end_to_end: Vec<f64>,
    /// `(name, unit, value)` per per-layer metric, when traced.
    pub per_layer: Option<Vec<(&'static str, &'static str, f64)>>,
    /// Exact counts of replay 0.
    pub counts: Counts,
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose reply was wrong.
    pub failed: u64,
    /// No failure, and every replay's counts identical.
    pub correct: bool,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Host conditions.
    pub host: HostConditions,
    /// Per-stage minima behind `setup_s`, µs: the build stages, then
    /// the warm-up requests as one entry.
    pub setup_stages_us: Vec<(&'static str, f64)>,
    /// Spans of traced replay 0.
    pub spans: Vec<Span>,
    /// `handle_frame` time against the sum of its layer probes.
    pub accounting: Option<Accounting>,
}

/// What `GlobalLayer::handle_wire` strings together for a query.
const WIRE_LAYERS: [Probe; 4] = [
    Probe::DecodeRequest,
    Probe::GatewayQuery,
    Probe::RowsToWire,
    Probe::EncodeResponse,
];

/// How well the per-layer rows explain the service time.
#[derive(Debug, Clone, Copy)]
pub struct Accounting {
    /// Traced `handle_frame` at the probed query positions, µs.
    pub handle_frame_us: f64,
    /// decode + `Gateway::query` + rows-to-wire + encode, µs.
    pub wire_layers_us: f64,
}

impl Accounting {
    /// Share of `handle_frame` its direct layer probes leave
    /// unexplained (negative: the probes sum to more than the call).
    pub fn residual_share(&self) -> f64 {
        (self.handle_frame_us - self.wire_layers_us) / self.handle_frame_us.max(f64::MIN_POSITIVE)
    }
}

/// Run one workload as configured. The caller pins the process first.
pub fn run(config: Config, pin: &Pin) -> std::io::Result<Outcome> {
    let workload = config.workload;
    let plan = Plan::generate(workload, config.seed, config.requests);

    let steal_before = host::steal_ticks();
    let mut timed = replay::run_timed(&plan, config.replays)?;
    let steal_ticks = steal_before
        .zip(host::steal_ticks())
        .map(|(a, b)| b.saturating_sub(a));
    // Before the traced pass allocates anything.
    let peak_rss_mb = host::peak_rss_mib().unwrap_or(0.0);

    let end_to_end = end_to_end_values(&timed, plan.requests.len(), peak_rss_mb);
    let setup = timed.setup.position_mins();
    let (build, warmup) = setup.split_at(replay::SETUP_STAGES.len());
    let setup_stages_us = replay::SETUP_STAGES
        .iter()
        .zip(build)
        .map(|(&name, &ns)| (name, f64::from(ns) / 1e3))
        .chain([("warmup", sum_ns(warmup) as f64 / 1e3)])
        .collect();
    let mut outcome = Outcome {
        config,
        end_to_end,
        per_layer: None,
        counts: timed.counts,
        attempted: timed.attempted,
        failed: timed.failed,
        correct: timed.failed == 0 && timed.deterministic,
        failures: std::mem::take(&mut timed.failures),
        host: HostConditions {
            nproc: pin
                .original
                .map_or_else(host::nproc, |m| m.count() as usize),
            pinned: pin.pinned(),
            steal_ticks,
            noisy_share: (timed.svc.noisy_share(1.5) + timed.rtt.noisy_share(1.5)) / 2.0,
        },
        setup_stages_us,
        spans: Vec::new(),
        accounting: None,
    };

    if config.traced_replays > 0 {
        let mut traced = probes::run_traced(&plan, config.traced_replays)?;
        let qps_2c = if workload == Workload::CachedPoint {
            // Both CPUs for this one probe, then back to one.
            if let Some(all) = &pin.original {
                all.apply();
            }
            let qps = probes::qps_two_clients(&plan, 5)?;
            if let Some(one) = &pin.single {
                one.apply();
            }
            qps
        } else {
            0.0
        };
        outcome.attempted += traced.attempted;
        outcome.failed += traced.failed;
        outcome.correct &= traced.failed == 0;
        outcome.failures.append(&mut traced.failures);
        outcome.per_layer = Some(per_layer_values(
            &timed,
            &traced,
            plan.requests.len(),
            qps_2c,
        ));
        outcome.accounting = Some(Accounting {
            handle_frame_us: traced.handle_frame_us_where(Probe::GatewayQuery),
            wire_layers_us: WIRE_LAYERS.iter().map(|&p| traced.mean_us(p)).sum(),
        });
        outcome.spans = traced.spans;
    }
    Ok(outcome)
}

fn end_to_end_values(timed: &Timed, n: usize, peak_rss_mb: f64) -> Vec<f64> {
    let rtt = timed.rtt.position_mins();
    let svc = timed.svc.position_mins();
    let c = &timed.counts;
    // Both passes send the sequence, so a replay holds 2N client queries;
    // agent traffic is counted over the whole replay, warm-up included,
    // which keeps `cached_point` (no agent traffic after warm-up) off 0.
    let queries = 2.0 * n as f64;
    let wire_bytes = c.frame_bytes_in + c.frame_bytes_out + 2 * FRAME_PREFIX * n as u64;
    vec![
        mean_us(&rtt),
        percentile_us(&rtt, 0.95),
        n as f64 / (sum_ns(&rtt) as f64 / 1e9),
        mean_us(&svc),
        percentile_us(&svc, 0.95),
        c.agent_msgs as f64 / queries,
        c.agent_bytes as f64 / queries,
        wire_bytes as f64 / n as f64,
        peak_rss_mb,
        sum_ns(&timed.setup.position_mins()) as f64 / 1e9,
    ]
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn per_layer_values(
    timed: &Timed,
    traced: &Traced,
    n: usize,
    qps_2c: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let c = &timed.counts;
    let svc_mean = mean_us(&timed.svc.position_mins());
    let rtt_mean = mean_us(&timed.rtt.position_mins());
    let queries = 2.0 * n as f64;
    let value = |name: &str| -> f64 {
        if let Some(probe) = Probe::ALL
            .into_iter()
            .find(|p| name.strip_suffix("_us") == Some(p.name()))
        {
            return traced.mean_us(probe);
        }
        match name {
            "serve.socket_us" => rtt_mean - svc_mean,
            "serve.frame_bytes_in" => c.frame_bytes_in as f64 / n as f64,
            "serve.frame_bytes_out" => c.frame_bytes_out as f64 / n as f64,
            "serve.shed_ratio" => ratio(c.sched_shed, c.sched_accepted),
            "serve.qps_2c" => qps_2c,
            "global.handle_other_us" => traced.self_time_us(Probe::HandleFrame, &WIRE_LAYERS),
            "core.request_overhead_us" => traced.self_time_us(
                Probe::GatewayQuery,
                &[Probe::CacheLookup, Probe::ConnExecute],
            ),
            "core.cache_hit_ratio" => ratio(c.cache_hits, c.cache_hits + c.cache_misses),
            "core.pool_reuse_ratio" => ratio(c.pool_hits, c.pool_checkouts),
            "drivers.rows_scanned_per_query" => c.rows_scanned as f64 / queries,
            "drivers.fetch_units_per_query" => c.fetch_units as f64 / queries,
            "agents.msgs_per_query" => c.agent_msgs as f64 / queries,
            "agents.bytes_per_query" => c.agent_bytes as f64 / queries,
            "alloc.count_per_query" => c.alloc_count as f64 / n as f64,
            "alloc.bytes_per_query" => c.alloc_bytes as f64 / n as f64,
            "trace.overhead_ratio" => {
                traced.mean_us(Probe::HandleFrame) / svc_mean.max(f64::MIN_POSITIVE)
            }
            other => unreachable!("per-layer metric {other} has no source"),
        }
    };
    PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, value(m.name)))
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

impl Outcome {
    /// The result line the driver reads: `correct`, `attempted`,
    /// `failed` and `metrics` — every end-to-end metric, or (traced)
    /// every per-layer metric.
    pub fn json_line(&self, per_layer: bool) -> String {
        let metrics: Vec<(&str, &str, f64)> = match (&self.per_layer, per_layer) {
            (Some(values), true) => values.clone(),
            _ => END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|(m, v)| (m.name, m.unit, *v))
                .collect(),
        };
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with unit and bound, host conditions and
    /// failures, for a person.
    pub fn print(&self) {
        let c = &self.config;
        println!(
            "workload {} seed {} N {} R {} traced {}",
            c.workload.name(),
            c.seed,
            c.requests,
            c.replays,
            c.traced_replays
        );
        self.host.print();
        println!("end-to-end (bound = how far it may worsen):");
        for (m, v) in END_TO_END.iter().zip(&self.end_to_end) {
            println!(
                "  {:<24} {:>14.4} {:<6} {} is better, bound {:.0} %",
                m.name,
                v,
                m.unit,
                m.better.name(),
                m.bound * 100.0
            );
        }
        let stages: Vec<String> = self
            .setup_stages_us
            .iter()
            .map(|(name, us)| format!("{name} {us:.0}"))
            .collect();
        println!("setup stages (us): {}", stages.join(", "));
        if let Some(values) = &self.per_layer {
            println!("per layer (not gated):");
            for ((name, unit, v), def) in values.iter().zip(&PER_LAYER) {
                println!("  {name:<32} {v:>14.4} {unit:<6} moves {}", def.moves);
            }
        }
        if let Some(a) = &self.accounting {
            println!(
                "accounting: handle_frame {:.2} us = decode + gateway_query + rows_to_wire + encode \
                 {:.2} us + other ({:+.1} % residual)",
                a.handle_frame_us,
                a.wire_layers_us,
                a.residual_share() * 100.0
            );
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for failure in &self.failures {
            println!("  FAILED {failure}");
        }
    }
}

/// Compare two runs of the same configuration: every end-to-end metric
/// must agree within its bound, every count exactly. Prints the table
/// and returns the disagreements.
pub fn selfcheck(first: &Outcome, second: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    println!("selfcheck: two runs back to back");
    first.host.print();
    second.host.print();
    for ((m, a), b) in END_TO_END
        .iter()
        .zip(&first.end_to_end)
        .zip(&second.end_to_end)
    {
        let diff = rel_diff(*a, *b);
        let ok = diff <= m.bound;
        println!(
            "  {:<24} {:>14.4} {:>14.4} {:<6} diff {:>6.2} % (bound {:.0} %){}",
            m.name,
            a,
            b,
            m.unit,
            diff * 100.0,
            m.bound * 100.0,
            if ok { "" } else { "  <-- disagrees" }
        );
        if !ok {
            bad.push(format!("{} differs by {:.2} %", m.name, diff * 100.0));
        }
    }
    if first.counts != second.counts {
        bad.push(format!(
            "counts differ: {:?} vs {:?}",
            first.counts, second.counts
        ));
    }
    println!(
        "  counts {}",
        if first.counts == second.counts {
            "identical"
        } else {
            "DIFFER"
        }
    );
    bad
}
