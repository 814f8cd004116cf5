//! SLO burn-rate engine: declared objectives evaluated against the live
//! registry with multi-window burn-rate math, alerting through the
//! journal and a health-style fire/clear state machine.
//!
//! An [`SloSpec`] names a good-fraction `target` (e.g. `0.99`) over one
//! of three objectives: request **latency** (observations of a latency
//! histogram completing within a threshold), request **availability**
//! (per-source request outcomes that are not denials/deadline
//! exhaustions), or **source health** (tracked sources currently `Up`).
//! Each evaluation — driven by `Gateway::pump` on the virtual clock —
//! samples `(good, total)`, computes the error rate over a *fast* and a
//! *slow* trailing window, and divides by the allowed error rate
//! `1 - target` to get the **burn rate**: `1.0` means the error budget
//! is being consumed exactly as fast as the objective allows. The alert
//! fires only when *both* windows exceed their thresholds (the fast
//! window reacts, the slow window confirms — the multi-window pattern
//! from the SRE literature) and clears when both fall back below.
//!
//! Transitions follow the health-monitor discipline: a journal entry
//! (kind [`KIND_SLO`]), the `gridrm_slo_transitions_total` counter, and
//! a pending record drained by `Gateway::pump` into the Event Manager —
//! one code path, so the three counts can never drift apart. Burn rates
//! and the remaining error budget are continuously exported as the
//! `gridrm_slo_burn_rate{slo,window}` and
//! `gridrm_slo_error_budget{slo}` gauges.

use crate::journal::{Journal, JournalSeverity, KIND_SLO};
use crate::metrics::{Counter, Gauge, Labels, Registry};
use parking_lot::Mutex;
use serde::{DeError, Deserialize, Map, Reader, Serialize, Value};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default fast (reacting) window: 5 virtual minutes.
pub const DEFAULT_FAST_WINDOW_MS: u64 = 300_000;
/// Default slow (confirming) window: 1 virtual hour.
pub const DEFAULT_SLOW_WINDOW_MS: u64 = 3_600_000;
/// Default fast-window burn threshold.
pub const DEFAULT_FAST_BURN_THRESHOLD: f64 = 10.0;
/// Default slow-window burn threshold.
pub const DEFAULT_SLOW_BURN_THRESHOLD: f64 = 2.0;

/// The latency histogram the default latency objective reads.
pub const DEFAULT_LATENCY_METRIC: &str = "gridrm_request_latency_ms";
/// The per-source outcome counter the availability objective reads.
pub const AVAILABILITY_METRIC: &str = "gridrm_request_paths_total";
/// The per-state source gauge the source-health objective reads.
pub const SOURCE_HEALTH_METRIC: &str = "gridrm_health_sources";

mod defaults {
    pub fn latency_metric() -> String {
        super::DEFAULT_LATENCY_METRIC.to_owned()
    }
    pub fn bad_paths() -> Vec<String> {
        vec!["denied".to_owned(), "deadline_exceeded".to_owned()]
    }
    pub fn fast_window_ms() -> u64 {
        super::DEFAULT_FAST_WINDOW_MS
    }
    pub fn slow_window_ms() -> u64 {
        super::DEFAULT_SLOW_WINDOW_MS
    }
    pub fn fast_burn_threshold() -> f64 {
        super::DEFAULT_FAST_BURN_THRESHOLD
    }
    pub fn slow_burn_threshold() -> f64 {
        super::DEFAULT_SLOW_BURN_THRESHOLD
    }
}

/// What an SLO measures. Serialised flattened into the [`SloSpec`]
/// object with a snake_case `objective` tag, so a JSON spec reads
/// `{"name":"...","objective":"latency","threshold_ms":100,...}`.
#[derive(Debug, Clone, PartialEq)]
pub enum SloObjective {
    /// Good = observations of histogram `metric` at or below
    /// `threshold_ms`. For an exact split the threshold should equal a
    /// bucket upper bound.
    Latency {
        /// Histogram family to read.
        metric: String,
        /// Latency objective in virtual ms.
        threshold_ms: f64,
    },
    /// Good = per-source request outcomes whose `path` label is not in
    /// `bad_paths` (default: `denied`, `deadline_exceeded`).
    Availability {
        /// Outcome label values that count against the budget.
        bad_paths: Vec<String>,
    },
    /// Good = tracked sources currently `Up`; total excludes `Unknown`
    /// (never-observed sources have no verdict yet). Level-sampled:
    /// window error rates average the sampled levels.
    SourceHealth,
}

impl SloObjective {
    /// Short description for exposition rows.
    pub fn describe(&self) -> String {
        match self {
            SloObjective::Latency {
                metric,
                threshold_ms,
            } => format!("latency<={threshold_ms}ms over {metric}"),
            SloObjective::Availability { bad_paths } => {
                format!("availability (bad: {})", bad_paths.join(","))
            }
            SloObjective::SourceHealth => "source_health".to_owned(),
        }
    }

    /// Whether `(good, total)` samples are cumulative (deltas between
    /// samples carry the window) or instantaneous levels.
    fn cumulative(&self) -> bool {
        !matches!(self, SloObjective::SourceHealth)
    }
}

/// One declared SLO, normally carried in `GatewayConfig::slos`.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Unique SLO name, used as the `slo` label value.
    pub name: String,
    /// What is measured (flattened into the spec object as JSON).
    pub objective: SloObjective,
    /// Good fraction objective in `(0, 1)`, e.g. `0.99`.
    pub target: f64,
    /// Fast (reacting) window in virtual ms.
    pub fast_window_ms: u64,
    /// Slow (confirming) window in virtual ms.
    pub slow_window_ms: u64,
    /// Burn rate at which the fast window trips.
    pub fast_burn_threshold: f64,
    /// Burn rate at which the slow window trips.
    pub slow_burn_threshold: f64,
}

impl Serialize for SloSpec {
    fn write_json(&self, out: &mut Vec<u8>) {
        let mut m = Map::new();
        m.insert("name".to_owned(), Value::from(self.name.as_str()));
        match &self.objective {
            SloObjective::Latency {
                metric,
                threshold_ms,
            } => {
                m.insert("objective".to_owned(), Value::from("latency"));
                m.insert("metric".to_owned(), Value::from(metric.as_str()));
                m.insert("threshold_ms".to_owned(), Value::from(*threshold_ms));
            }
            SloObjective::Availability { bad_paths } => {
                m.insert("objective".to_owned(), Value::from("availability"));
                let paths = bad_paths.iter().map(|p| Value::from(p.as_str()));
                m.insert("bad_paths".to_owned(), Value::Array(paths.collect()));
            }
            SloObjective::SourceHealth => {
                m.insert("objective".to_owned(), Value::from("source_health"));
            }
        }
        m.insert("target".to_owned(), Value::from(self.target));
        m.insert(
            "fast_window_ms".to_owned(),
            Value::from(self.fast_window_ms),
        );
        m.insert(
            "slow_window_ms".to_owned(),
            Value::from(self.slow_window_ms),
        );
        m.insert(
            "fast_burn_threshold".to_owned(),
            Value::from(self.fast_burn_threshold),
        );
        m.insert(
            "slow_burn_threshold".to_owned(),
            Value::from(self.slow_burn_threshold),
        );
        Value::Object(m).write_json(out)
    }
}

impl<'de> Deserialize<'de> for SloSpec {
    fn read_json(r: &mut Reader<'de>) -> Result<Self, DeError> {
        /// The typed value under `key`, when the key is there.
        fn get<T: for<'a> Deserialize<'a>>(v: &Value, key: &str) -> Result<Option<T>, DeError> {
            v.get(key)
                .map(|inner| serde_json::from_value(inner.clone()).map_err(DeError::custom))
                .transpose()
        }
        let v = Value::read_json(r)?;
        if v.as_object().is_none() {
            return Err(DeError::custom(format!(
                "expected SLO spec object, got {v}"
            )));
        }
        let name: String =
            get(&v, "name")?.ok_or_else(|| DeError::custom("SLO spec missing `name`"))?;
        let target = get(&v, "target")?
            .ok_or_else(|| DeError::custom(format!("SLO `{name}` missing `target`")))?;
        let tag = v
            .get("objective")
            .and_then(Value::as_str)
            .ok_or_else(|| DeError::custom(format!("SLO `{name}` missing `objective` tag")))?;
        let objective = match tag {
            "latency" => SloObjective::Latency {
                metric: get(&v, "metric")?.unwrap_or_else(defaults::latency_metric),
                threshold_ms: get(&v, "threshold_ms")?.ok_or_else(|| {
                    DeError::custom(format!("latency SLO `{name}` missing `threshold_ms`"))
                })?,
            },
            "availability" => SloObjective::Availability {
                bad_paths: get(&v, "bad_paths")?.unwrap_or_else(defaults::bad_paths),
            },
            "source_health" => SloObjective::SourceHealth,
            other => {
                return Err(DeError::custom(format!(
                    "unknown SLO objective `{other}` (expected latency, availability, or \
                     source_health)"
                )))
            }
        };
        Ok(SloSpec {
            name,
            objective,
            target,
            fast_window_ms: get(&v, "fast_window_ms")?.unwrap_or_else(defaults::fast_window_ms),
            slow_window_ms: get(&v, "slow_window_ms")?.unwrap_or_else(defaults::slow_window_ms),
            fast_burn_threshold: get(&v, "fast_burn_threshold")?
                .unwrap_or_else(defaults::fast_burn_threshold),
            slow_burn_threshold: get(&v, "slow_burn_threshold")?
                .unwrap_or_else(defaults::slow_burn_threshold),
        })
    }
}

impl SloSpec {
    /// A spec with default windows and thresholds.
    pub fn new(name: &str, objective: SloObjective, target: f64) -> SloSpec {
        SloSpec {
            name: name.to_owned(),
            objective,
            target,
            fast_window_ms: DEFAULT_FAST_WINDOW_MS,
            slow_window_ms: DEFAULT_SLOW_WINDOW_MS,
            fast_burn_threshold: DEFAULT_FAST_BURN_THRESHOLD,
            slow_burn_threshold: DEFAULT_SLOW_BURN_THRESHOLD,
        }
    }

    /// The allowed error rate `1 - target`, floored away from zero so
    /// burn rates stay finite even for a (mis)declared target of 1.0.
    pub fn allowed_error_rate(&self) -> f64 {
        (1.0 - self.target).max(1e-9)
    }
}

/// One fire/clear transition of an SLO alert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloTransition {
    /// The SLO.
    pub slo: String,
    /// `true` when the alert fired, `false` when it cleared.
    pub firing: bool,
    /// Virtual transition time.
    pub at_ms: u64,
    /// Fast-window burn rate at the transition.
    pub burn_fast: f64,
    /// Slow-window burn rate at the transition.
    pub burn_slow: f64,
    /// Human-readable one-liner (shared with the journal entry).
    pub message: String,
}

/// Point-in-time status of one SLO, for JSON/SQL exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// The SLO.
    pub name: String,
    /// Objective description.
    pub objective: String,
    /// Good-fraction target.
    pub target: f64,
    /// Cumulative good count (or current good level) at last evaluation.
    pub good: f64,
    /// Cumulative total (or current level) at last evaluation.
    pub total: f64,
    /// Fast-window burn rate.
    pub burn_fast: f64,
    /// Slow-window burn rate.
    pub burn_slow: f64,
    /// Remaining error budget over the slow window, `1.0` = untouched,
    /// `<= 0` = exhausted (clamped to `[-1, 1]`).
    pub error_budget_remaining: f64,
    /// Whether the alert is currently firing.
    pub firing: bool,
    /// Virtual time of the last fire/clear transition (0 before any).
    pub since_ms: u64,
    /// Fire + clear transitions so far.
    pub transitions: u64,
}

struct SloRuntime {
    spec: SloSpec,
    /// Trailing `(ts, good, total)` samples, oldest first. Pruned to
    /// the slow window plus one baseline sample at or before its start.
    samples: VecDeque<(u64, f64, f64)>,
    burn_fast_gauge: Gauge,
    burn_slow_gauge: Gauge,
    budget_gauge: Gauge,
    firing: bool,
    since_ms: u64,
    transitions: u64,
    last_burn_fast: f64,
    last_burn_slow: f64,
    last_budget: f64,
    last_good: f64,
    last_total: f64,
}

/// Fired/cleared counters, registered as
/// `gridrm_slo_transitions_total{state=…}`.
#[derive(Debug)]
pub struct SloStats {
    /// Alerts that started firing.
    pub fired: Counter,
    /// Alerts that cleared.
    pub cleared: Counter,
}

impl SloStats {
    fn new(registry: &Registry) -> SloStats {
        let [fired, cleared] = registry.counters(
            "gridrm_slo_transitions_total",
            "SLO alert transitions by destination state",
            "state",
            ["firing", "ok"],
        );
        SloStats { fired, cleared }
    }
}

/// The SLO burn-rate engine. See the module docs.
pub struct SloEngine {
    registry: Arc<Registry>,
    journal: Arc<Journal>,
    runtimes: Mutex<Vec<SloRuntime>>,
    pending: Mutex<Vec<SloTransition>>,
    stats: SloStats,
}

impl SloEngine {
    /// An engine with no SLOs declared; [`SloEngine::configure`] adds
    /// them. The transition counters register eagerly so the family
    /// exists from startup.
    pub fn new(registry: Arc<Registry>, journal: Arc<Journal>) -> SloEngine {
        SloEngine {
            stats: SloStats::new(&registry),
            registry,
            journal,
            runtimes: Mutex::new(Vec::new()),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Declare the SLO set (normally from `GatewayConfig::slos` at
    /// startup), replacing any previous declaration. Targets are
    /// clamped into `(0, 1)`; the per-SLO burn/budget gauges register
    /// immediately so every declared SLO is scrapeable before its
    /// first evaluation.
    pub fn configure(&self, specs: &[SloSpec]) {
        let mut runtimes = self.runtimes.lock();
        runtimes.clear();
        for spec in specs {
            let mut spec = spec.clone();
            spec.target = spec.target.clamp(0.0, 0.999_999_999);
            spec.fast_window_ms = spec.fast_window_ms.max(1);
            spec.slow_window_ms = spec.slow_window_ms.max(spec.fast_window_ms);
            let slo_labels = Labels::from_pairs(&[("slo", &spec.name)]);
            let burn_fast_gauge = self.registry.gauge(
                "gridrm_slo_burn_rate",
                "Error-budget burn rate per SLO and window (1 = burning exactly at target)",
                slo_labels.with("window", "fast"),
            );
            let burn_slow_gauge = self.registry.gauge(
                "gridrm_slo_burn_rate",
                "Error-budget burn rate per SLO and window (1 = burning exactly at target)",
                slo_labels.with("window", "slow"),
            );
            let budget_gauge = self.registry.gauge(
                "gridrm_slo_error_budget",
                "Remaining error budget per SLO over the slow window (1 = untouched)",
                slo_labels,
            );
            budget_gauge.set(1.0);
            runtimes.push(SloRuntime {
                spec,
                samples: VecDeque::new(),
                burn_fast_gauge,
                burn_slow_gauge,
                budget_gauge,
                firing: false,
                since_ms: 0,
                transitions: 0,
                last_burn_fast: 0.0,
                last_burn_slow: 0.0,
                last_budget: 1.0,
                last_good: 0.0,
                last_total: 0.0,
            });
        }
    }

    /// The declared SLO specs.
    pub fn specs(&self) -> Vec<SloSpec> {
        self.runtimes
            .lock()
            .iter()
            .map(|r| r.spec.clone())
            .collect()
    }

    /// Transition counters.
    pub fn stats(&self) -> &SloStats {
        &self.stats
    }

    /// Read `(good, total)` for one objective from the registry.
    fn observe(&self, objective: &SloObjective) -> (f64, f64) {
        match objective {
            SloObjective::Latency {
                metric,
                threshold_ms,
            } => match self.registry.histogram_good_total(metric, *threshold_ms) {
                Some((good, total)) => (good as f64, total as f64),
                None => (0.0, 0.0),
            },
            SloObjective::Availability { bad_paths } => {
                let mut good = 0.0;
                let mut total = 0.0;
                for (labels, value) in self.registry.family_values(AVAILABILITY_METRIC) {
                    total += value;
                    let bad = bad_paths.iter().any(|p| labels == format!("path=\"{p}\""));
                    if !bad {
                        good += value;
                    }
                }
                (good, total)
            }
            SloObjective::SourceHealth => {
                let mut good = 0.0;
                let mut total = 0.0;
                for (labels, value) in self.registry.family_values(SOURCE_HEALTH_METRIC) {
                    match labels.as_str() {
                        "state=\"up\"" => {
                            good += value;
                            total += value;
                        }
                        "state=\"degraded\"" | "state=\"down\"" => total += value,
                        _ => {} // `unknown`: no verdict yet
                    }
                }
                (good, total)
            }
        }
    }

    /// Evaluate every SLO at `now_ms`: sample, recompute both window
    /// burn rates, export the gauges, and run the fire/clear state
    /// machine. Call [`SloEngine::take_transitions`] afterwards to
    /// drain transitions for alerting.
    pub fn evaluate(&self, now_ms: u64) {
        let mut runtimes = self.runtimes.lock();
        for rt in runtimes.iter_mut() {
            let (good, total) = self.observe(&rt.spec.objective);
            rt.samples.push_back((now_ms, good, total));
            prune(&mut rt.samples, now_ms, rt.spec.slow_window_ms);

            let cumulative = rt.spec.objective.cumulative();
            let err_fast =
                window_error_rate(&rt.samples, now_ms, rt.spec.fast_window_ms, cumulative);
            let err_slow =
                window_error_rate(&rt.samples, now_ms, rt.spec.slow_window_ms, cumulative);
            let allowed = rt.spec.allowed_error_rate();
            let burn_fast = err_fast / allowed;
            let burn_slow = err_slow / allowed;
            let budget = (1.0 - burn_slow).clamp(-1.0, 1.0);
            rt.burn_fast_gauge.set(burn_fast);
            rt.burn_slow_gauge.set(burn_slow);
            rt.budget_gauge.set(budget);
            rt.last_burn_fast = burn_fast;
            rt.last_burn_slow = burn_slow;
            rt.last_budget = budget;
            rt.last_good = good;
            rt.last_total = total;

            let should_fire = burn_fast >= rt.spec.fast_burn_threshold
                && burn_slow >= rt.spec.slow_burn_threshold;
            let should_clear =
                burn_fast < rt.spec.fast_burn_threshold && burn_slow < rt.spec.slow_burn_threshold;
            if !rt.firing && should_fire {
                rt.firing = true;
                rt.since_ms = now_ms;
                rt.transitions += 1;
                let message = format!(
                    "SLO {} burning: fast {burn_fast:.2}x (>= {}), slow {burn_slow:.2}x (>= {}), \
                     budget {budget:.2}",
                    rt.spec.name, rt.spec.fast_burn_threshold, rt.spec.slow_burn_threshold
                );
                self.transition(rt, now_ms, true, burn_fast, burn_slow, message);
            } else if rt.firing && should_clear {
                rt.firing = false;
                rt.since_ms = now_ms;
                rt.transitions += 1;
                let message = format!(
                    "SLO {} recovered: fast {burn_fast:.2}x, slow {burn_slow:.2}x back below \
                     thresholds, budget {budget:.2}",
                    rt.spec.name
                );
                self.transition(rt, now_ms, false, burn_fast, burn_slow, message);
            }
        }
    }

    /// Journal + counter + pending record in one path, so the three
    /// counts can never drift apart (the health-monitor discipline).
    fn transition(
        &self,
        rt: &SloRuntime,
        at_ms: u64,
        firing: bool,
        burn_fast: f64,
        burn_slow: f64,
        message: String,
    ) {
        let severity = if firing {
            self.stats.fired.inc();
            JournalSeverity::Critical
        } else {
            self.stats.cleared.inc();
            JournalSeverity::Info
        };
        self.journal.record(
            at_ms,
            severity,
            KIND_SLO,
            &rt.spec.name,
            None,
            Some(if firing { "firing" } else { "ok" }),
            &message,
        );
        self.pending.lock().push(SloTransition {
            slo: rt.spec.name.clone(),
            firing,
            at_ms,
            burn_fast,
            burn_slow,
            message,
        });
    }

    /// Drain transitions recorded since the last call (`Gateway::pump`
    /// forwards them to the Event Manager).
    pub fn take_transitions(&self) -> Vec<SloTransition> {
        std::mem::take(&mut *self.pending.lock())
    }

    /// Point-in-time status of every SLO, sorted by name.
    pub fn snapshot(&self) -> Vec<SloStatus> {
        let runtimes = self.runtimes.lock();
        let mut out: Vec<SloStatus> = runtimes
            .iter()
            .map(|rt| SloStatus {
                name: rt.spec.name.clone(),
                objective: rt.spec.objective.describe(),
                target: rt.spec.target,
                good: rt.last_good,
                total: rt.last_total,
                burn_fast: rt.last_burn_fast,
                burn_slow: rt.last_burn_slow,
                error_budget_remaining: rt.last_budget,
                firing: rt.firing,
                since_ms: rt.since_ms,
                transitions: rt.transitions,
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Number of SLOs currently firing.
    pub fn firing_count(&self) -> usize {
        self.runtimes.lock().iter().filter(|r| r.firing).count()
    }
}

/// Drop samples older than the slow window, keeping the newest such
/// sample as the baseline at-or-before the window start.
fn prune(samples: &mut VecDeque<(u64, f64, f64)>, now_ms: u64, slow_window_ms: u64) {
    let start = now_ms.saturating_sub(slow_window_ms);
    while samples.len() >= 2 {
        let second_ts = samples[1].0;
        if second_ts <= start {
            samples.pop_front();
        } else {
            break;
        }
    }
}

/// Error rate over the trailing `window_ms`.
///
/// Cumulative series: `(Δtotal − Δgood) / Δtotal` against the baseline
/// sample at or before the window start (an idle window burns nothing).
/// Level series: mean of `1 − good/total` over the samples inside the
/// window (samples with `total == 0` express no verdict).
fn window_error_rate(
    samples: &VecDeque<(u64, f64, f64)>,
    now_ms: u64,
    window_ms: u64,
    cumulative: bool,
) -> f64 {
    let Some(&(_, good_now, total_now)) = samples.back() else {
        return 0.0;
    };
    let start = now_ms.saturating_sub(window_ms);
    if cumulative {
        // Baseline: newest sample at or before the window start; when
        // every sample is inside the window the series history begins
        // there, so everything observed counts (baseline zero).
        let baseline = samples
            .iter()
            .rev()
            .find(|(ts, _, _)| *ts <= start)
            .copied()
            .unwrap_or((start, 0.0, 0.0));
        let d_total = total_now - baseline.2;
        if d_total <= 0.0 {
            return 0.0;
        }
        let d_good = good_now - baseline.1;
        ((d_total - d_good) / d_total).clamp(0.0, 1.0)
    } else {
        let mut sum = 0.0;
        let mut n = 0u64;
        for &(ts, good, total) in samples.iter() {
            if ts > start && total > 0.0 {
                sum += (1.0 - good / total).clamp(0.0, 1.0);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Labels, Registry, DEFAULT_LATENCY_BUCKETS_MS};

    fn engine() -> (Arc<Registry>, Arc<Journal>, SloEngine) {
        let registry = Arc::new(Registry::new());
        let journal = Arc::new(Journal::new(64, &registry));
        let engine = SloEngine::new(registry.clone(), journal.clone());
        (registry, journal, engine)
    }

    fn latency_spec() -> SloSpec {
        SloSpec {
            fast_window_ms: 10_000,
            slow_window_ms: 60_000,
            fast_burn_threshold: 10.0,
            slow_burn_threshold: 2.0,
            ..SloSpec::new(
                "latency-100ms",
                SloObjective::Latency {
                    metric: DEFAULT_LATENCY_METRIC.to_owned(),
                    threshold_ms: 100.0,
                },
                0.99,
            )
        }
    }

    #[test]
    fn spec_json_roundtrip_and_defaults() {
        let spec = latency_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SloSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // A minimal spec picks up every default.
        let minimal: SloSpec =
            serde_json::from_str(r#"{"name":"avail","objective":"availability","target":0.999}"#)
                .unwrap();
        assert_eq!(minimal.fast_window_ms, DEFAULT_FAST_WINDOW_MS);
        assert_eq!(minimal.slow_window_ms, DEFAULT_SLOW_WINDOW_MS);
        assert_eq!(
            minimal.objective,
            SloObjective::Availability {
                bad_paths: vec!["denied".to_owned(), "deadline_exceeded".to_owned()]
            }
        );
        let health: SloSpec =
            serde_json::from_str(r#"{"name":"health","objective":"source_health","target":0.9}"#)
                .unwrap();
        assert_eq!(health.objective, SloObjective::SourceHealth);
    }

    #[test]
    fn latency_regression_fires_and_clears_at_exact_times() {
        let (registry, journal, engine) = engine();
        engine.configure(&[latency_spec()]);
        let h = registry.histogram(
            "gridrm_request_latency_ms",
            "Latency",
            Labels::none(),
            DEFAULT_LATENCY_BUCKETS_MS,
        );
        // Healthy traffic: all requests within 100ms.
        for t in 0..10u64 {
            for _ in 0..20 {
                h.observe(5.0);
            }
            engine.evaluate(t * 1_000);
        }
        assert_eq!(engine.firing_count(), 0);
        assert!(engine.take_transitions().is_empty());

        // Regression: every request now takes 500ms. With target 0.99
        // the error rate 1.0 burns at 100x — far past both thresholds.
        let mut fired_at = None;
        for t in 10..20u64 {
            for _ in 0..20 {
                h.observe(500.0);
            }
            engine.evaluate(t * 1_000);
            if fired_at.is_none() && engine.firing_count() == 1 {
                fired_at = Some(t * 1_000);
            }
        }
        let fired_at = fired_at.expect("alert fired");
        let transitions = engine.take_transitions();
        assert_eq!(transitions.len(), 1);
        assert!(transitions[0].firing);
        assert_eq!(transitions[0].at_ms, fired_at);
        assert_eq!(engine.stats().fired.get(), 1);
        let entries = journal.recent_of_kind(KIND_SLO);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].severity, JournalSeverity::Critical);
        assert_eq!(entries[0].at_ms, fired_at);

        // Recovery: fast traffic again. The fast window drains first;
        // the alert clears once the slow window confirms.
        let mut cleared_at = None;
        for t in 20..100u64 {
            for _ in 0..50 {
                h.observe(5.0);
            }
            engine.evaluate(t * 1_000);
            if cleared_at.is_none() && engine.firing_count() == 0 {
                cleared_at = Some(t * 1_000);
            }
        }
        let cleared_at = cleared_at.expect("alert cleared");
        assert!(cleared_at > fired_at);
        let transitions = engine.take_transitions();
        assert_eq!(transitions.len(), 1);
        assert!(!transitions[0].firing);
        assert_eq!(transitions[0].at_ms, cleared_at);
        assert_eq!(engine.stats().cleared.get(), 1);

        // Gauges export the final burn rates.
        let samples = registry.samples();
        let burn_fast = samples
            .iter()
            .find(|s| {
                s.name == "gridrm_slo_burn_rate"
                    && s.labels == "slo=\"latency-100ms\",window=\"fast\""
            })
            .expect("burn gauge");
        assert!(burn_fast.value < 10.0);
        let budget = samples
            .iter()
            .find(|s| s.name == "gridrm_slo_error_budget" && s.labels == "slo=\"latency-100ms\"")
            .expect("budget gauge");
        assert!(budget.value <= 1.0);
    }

    #[test]
    fn source_health_objective_averages_levels() {
        let (registry, _journal, engine) = engine();
        engine.configure(&[SloSpec {
            fast_window_ms: 5_000,
            slow_window_ms: 10_000,
            fast_burn_threshold: 2.0,
            slow_burn_threshold: 2.0,
            ..SloSpec::new("sources-up", SloObjective::SourceHealth, 0.75)
        }]);
        let up = registry.gauge(
            "gridrm_health_sources",
            "Sources",
            Labels::from_pairs(&[("state", "up")]),
        );
        let down = registry.gauge(
            "gridrm_health_sources",
            "Sources",
            Labels::from_pairs(&[("state", "down")]),
        );
        let unknown = registry.gauge(
            "gridrm_health_sources",
            "Sources",
            Labels::from_pairs(&[("state", "unknown")]),
        );
        unknown.set(10.0); // never counts against the objective
        up.set(4.0);
        down.set(0.0);
        engine.evaluate(1_000);
        assert_eq!(engine.firing_count(), 0);
        // Half the fleet drops: error rate 0.5 against allowed 0.25 =
        // burn 2.0 in both windows.
        up.set(2.0);
        down.set(2.0);
        for t in 2..=12u64 {
            engine.evaluate(t * 1_000);
        }
        assert_eq!(engine.firing_count(), 1);
        let snap = engine.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].firing);
        assert_eq!(snap[0].good, 2.0);
        assert_eq!(snap[0].total, 4.0);
        assert!(snap[0].burn_slow >= 2.0 - 1e-9);
    }

    #[test]
    fn availability_objective_counts_bad_paths() {
        let (registry, _journal, engine) = engine();
        engine.configure(&[SloSpec {
            fast_window_ms: 2_000,
            slow_window_ms: 4_000,
            fast_burn_threshold: 5.0,
            slow_burn_threshold: 5.0,
            ..SloSpec::new(
                "availability",
                SloObjective::Availability {
                    bad_paths: defaults::bad_paths(),
                },
                0.9,
            )
        }]);
        let ok = registry.counter(
            "gridrm_request_paths_total",
            "Paths",
            Labels::from_pairs(&[("path", "realtime_fetch")]),
        );
        let denied = registry.counter(
            "gridrm_request_paths_total",
            "Paths",
            Labels::from_pairs(&[("path", "denied")]),
        );
        ok.add(90);
        engine.evaluate(0);
        // From here on, every request is denied: error rate 1.0 against
        // allowed 0.1 = burn 10 in both windows once the baseline ages.
        denied.add(50);
        engine.evaluate(2_000);
        engine.evaluate(4_000);
        assert_eq!(engine.firing_count(), 1);
        let snap = engine.snapshot();
        assert_eq!(snap[0].total, 140.0);
        assert_eq!(snap[0].good, 90.0);
    }

    #[test]
    fn idle_windows_burn_nothing() {
        let (_registry, _journal, engine) = engine();
        engine.configure(&[latency_spec()]);
        for t in 0..10u64 {
            engine.evaluate(t * 1_000);
        }
        assert_eq!(engine.firing_count(), 0);
        let snap = engine.snapshot();
        assert_eq!(snap[0].burn_fast, 0.0);
        assert_eq!(snap[0].error_budget_remaining, 1.0);
    }
}
