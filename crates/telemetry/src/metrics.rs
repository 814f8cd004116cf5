//! Lock-cheap metrics registry: labelled counters, gauges, and
//! fixed-bucket histograms, with Prometheus-text and JSON exposition.
//!
//! Hot-path updates are single atomic operations on handles cloned out
//! of the registry; the registry lock is taken only on registration and
//! on snapshot/exposition.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An ordered label set (`driver="ganglia", state="up"`).
///
/// Keep cardinality low: label values must come from small closed sets
/// (driver names, states, outcomes, stage names) — never from per-request
/// data such as source URLs, SQL text or row contents. Debug builds
/// refuse the keys of such open sets (`source`, `url`, `host`, …).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Labels(Vec<(String, String)>);

/// Label keys whose values are client-controlled open sets: that detail
/// belongs in the trace, not in labels.
const OPEN_SET_LABEL_KEYS: &[&str] = &[
    "source", "url", "hostname", "host", "sql", "query", "address",
];

fn debug_check_label_key(key: &str) {
    debug_assert!(
        !OPEN_SET_LABEL_KEYS.contains(&key),
        "label key `{key}` is a client-controlled open set — put the detail in the trace, not in labels"
    );
}

/// Every registered family is `gridrm_*`; a counter also ends `_total`.
fn debug_check_metric_name(name: &str, counter: bool) {
    debug_assert!(
        name.starts_with("gridrm_"),
        "metric `{name}` must start with `gridrm_`"
    );
    debug_assert!(
        !counter || name.ends_with("_total"),
        "counter `{name}` must end in `_total`"
    );
}

impl Labels {
    /// The empty label set.
    pub fn none() -> Labels {
        Labels::default()
    }

    /// Build from `(key, value)` pairs; keys are sorted for a canonical
    /// identity, so `[a, b]` and `[b, a]` address the same series.
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Labels {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|(k, val)| {
                debug_check_label_key(k);
                (k.to_string(), val.to_string())
            })
            .collect();
        v.sort();
        Labels(v)
    }

    /// A copy with one more label appended (re-canonicalised).
    pub fn with(&self, key: &str, value: &str) -> Labels {
        debug_check_label_key(key);
        let mut v = self.0.clone();
        v.push((key.to_string(), value.to_string()));
        v.sort();
        Labels(v)
    }

    /// True when no labels are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The pairs in canonical order.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Prometheus body text: `k1="v1",k2="v2"` (no braces). Label
    /// values escape `\`, `"`, and newline per the text exposition
    /// format, so a value containing any of them cannot corrupt the
    /// line-oriented output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let escaped = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let _ = write!(out, "{k}=\"{escaped}\"");
        }
        out
    }
}

/// Saturating add on a shared atomic (counters never wrap to zero).
fn saturating_add(cell: &AtomicU64, n: u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_add(n);
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing counter. Clones share the same cell, so a
/// handle can live inside a stats struct while the registry exposes it.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (saturating).
    pub fn add(&self, n: u64) {
        saturating_add(&self.cell, n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (pool sizes, queue depths).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set to an absolute value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default latency buckets in milliseconds (upper bounds).
pub const DEFAULT_LATENCY_BUCKETS_MS: &[f64] = &[
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
];

struct HistogramInner {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>, // one per bound, plus a trailing +Inf bucket
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram with a saturating overflow (+Inf) bucket.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Histogram over ascending upper bounds (`+Inf` is implicit).
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Latency histogram with [`DEFAULT_LATENCY_BUCKETS_MS`].
    pub fn latency_ms() -> Histogram {
        Histogram::new(DEFAULT_LATENCY_BUCKETS_MS)
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.inner.bounds.len()); // overflow bucket
        saturating_add(&self.inner.counts[idx], 1);
        let mut cur = self.inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observation count across all buckets.
    pub fn count(&self) -> u64 {
        self.inner
            .counts
            .iter()
            .fold(0u64, |acc, c| acc.saturating_add(c.load(Ordering::Relaxed)))
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.inner.sum_bits.load(Ordering::Relaxed))
    }

    /// Per-bucket `(upper_bound, count)` pairs; the final entry is the
    /// `+Inf` overflow bucket.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        let mut out: Vec<(f64, u64)> = self
            .inner
            .bounds
            .iter()
            .zip(&self.inner.counts)
            .map(|(&b, c)| (b, c.load(Ordering::Relaxed)))
            .collect();
        out.push((
            f64::INFINITY,
            self.inner.counts[self.inner.bounds.len()].load(Ordering::Relaxed),
        ));
        out
    }

    /// Estimate the `q`-quantile (0..=1) as the upper bound of the
    /// first bucket whose cumulative count reaches `q * total`.
    /// Returns `None` with no observations; observations past the last
    /// bound report the last finite bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (bound, count) in self.buckets() {
            cumulative = cumulative.saturating_add(count);
            if cumulative >= rank {
                return Some(if bound.is_finite() {
                    bound
                } else {
                    *self.inner.bounds.last().expect("non-empty bounds")
                });
            }
        }
        Some(*self.inner.bounds.last().expect("non-empty bounds"))
    }

    #[cfg(test)]
    fn saturate_overflow_for_test(&self) {
        self.inner.counts[self.inner.bounds.len()].store(u64::MAX, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }

    fn duplicate(&self) -> Metric {
        match self {
            Metric::Counter(c) => Metric::Counter(c.clone()),
            Metric::Gauge(g) => Metric::Gauge(g.clone()),
            Metric::Histogram(h) => Metric::Histogram(h.clone()),
        }
    }
}

struct Family {
    help: String,
    series: BTreeMap<Labels, Metric>,
}

/// One flat exposition sample: a metric (or histogram component) at one
/// label set.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Sample {
    /// Sample name (`gridrm_requests_total`, `…_bucket`, `…_sum`, …).
    pub name: String,
    /// Rendered labels (`driver="ganglia"`), empty when unlabelled.
    pub labels: String,
    /// Sample value.
    pub value: f64,
}

/// Kind of a recordable time-series point (see
/// [`Registry::series_points`]): counters are cumulative (rate/delta
/// derivable), gauges are instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// Cumulative, monotonically non-decreasing.
    Counter,
    /// Instantaneous level.
    Gauge,
}

impl PointKind {
    /// Lower-case name (`counter` / `gauge`), for exposition rows.
    pub fn name(&self) -> &'static str {
        match self {
            PointKind::Counter => "counter",
            PointKind::Gauge => "gauge",
        }
    }
}

impl Serialize for PointKind {
    fn write_json(&self, out: &mut Vec<u8>) {
        self.name().write_json(out)
    }
}

impl<'de> Deserialize<'de> for PointKind {
    fn read_json(r: &mut serde::Reader<'de>) -> Result<Self, serde::DeError> {
        match String::read_json(r)?.as_str() {
            "counter" => Ok(PointKind::Counter),
            "gauge" => Ok(PointKind::Gauge),
            other => Err(r.error(format_args!("expected `counter` or `gauge`, got `{other}`"))),
        }
    }
}

/// One recordable point of one series, as sampled by the time-series
/// recorder: the family (or histogram-component) name, the rendered
/// labels, and the current value.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Series name (`gridrm_requests_total`, `…_count`, `…_p95`, …).
    pub name: String,
    /// Rendered labels (`driver="ganglia"`), empty when unlabelled.
    pub labels: String,
    /// Counter (cumulative) or gauge (instantaneous).
    pub kind: PointKind,
    /// Value at sample time.
    pub value: f64,
}

/// Snapshot of one metric family for JSON exposition.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct MetricSnapshot {
    /// Family name.
    pub name: String,
    /// Metric kind: `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// Help text.
    pub help: String,
    /// Flat samples of this family.
    pub samples: Vec<Sample>,
}

/// The gateway-wide metric registry.
///
/// Registration returns shared handles; re-registering the same
/// `(name, labels)` returns the existing series, so independently
/// constructed components converge on the same cells.
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: Labels,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        // An existing series costs a read lock and no allocation: the
        // write lock (and the family-name copy) is only for inserting.
        let existing = self
            .families
            .read()
            .get(name)
            .and_then(|family| family.series.get(&labels))
            .map(Metric::duplicate);
        if let Some(metric) = existing {
            return metric;
        }
        let mut families = self.families.write();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        family.series.entry(labels).or_insert_with(make).duplicate()
    }

    /// Register (or fetch) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: Labels) -> Counter {
        debug_check_metric_name(name, true);
        match self.register(name, help, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` already registered as {}", other.kind()),
        }
    }

    /// Register (or fetch) one counter series per value of one label
    /// key: `counters(name, help, "event", ["hit", "miss"])` returns the
    /// `{event="hit"}` and `{event="miss"}` series of `name`, in order.
    pub fn counters<const N: usize>(
        &self,
        name: &str,
        help: &str,
        key: &str,
        values: [&str; N],
    ) -> [Counter; N] {
        values.map(|value| self.counter(name, help, Labels::from_pairs(&[(key, value)])))
    }

    /// Register (or fetch) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: Labels) -> Gauge {
        debug_check_metric_name(name, false);
        match self.register(name, help, labels, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as {}", other.kind()),
        }
    }

    /// Register (or fetch) a histogram series with the given buckets.
    pub fn histogram(&self, name: &str, help: &str, labels: Labels, bounds: &[f64]) -> Histogram {
        debug_check_metric_name(name, false);
        match self.register(name, help, labels, || {
            Metric::Histogram(Histogram::new(bounds))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as {}", other.kind()),
        }
    }

    /// Snapshot every family for JSON exposition.
    ///
    /// Output order is deterministic: families sort by metric name (the
    /// `BTreeMap` key) and, within a family, series sort by their
    /// *rendered* label text — while each histogram series keeps its
    /// own `_bucket` (ascending, `+Inf` last) / `_sum` / `_count`
    /// internal order. Exposition diffs and determinism fingerprints
    /// therefore stay stable across runs.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let families = self.families.read();
        families
            .iter()
            .map(|(name, family)| MetricSnapshot {
                name: name.clone(),
                kind: family
                    .series
                    .values()
                    .next()
                    .map(|m| m.kind().to_string())
                    .unwrap_or_else(|| "counter".to_string()),
                help: family.help.clone(),
                samples: {
                    let mut series: Vec<(String, &Metric)> = family
                        .series
                        .iter()
                        .map(|(labels, metric)| (labels.render(), metric))
                        .collect();
                    series.sort_by(|a, b| a.0.cmp(&b.0));
                    series
                        .iter()
                        .flat_map(|(rendered, metric)| flatten(name, rendered, metric))
                        .collect()
                },
            })
            .collect()
    }

    /// All samples across all families, flattened (virtual-table rows).
    pub fn samples(&self) -> Vec<Sample> {
        self.snapshot()
            .into_iter()
            .flat_map(|s| s.samples)
            .collect()
    }

    /// One recordable point per series, for the time-series recorder.
    ///
    /// Counters and gauges yield one point each; a histogram expands to
    /// `{name}_count` / `{name}_sum` (cumulative, counter-kind) plus
    /// `{name}_p50` / `{name}_p95` / `{name}_p99` quantile estimates
    /// (gauge-kind, omitted until the histogram has observations).
    /// Order is deterministic: family name, then rendered labels.
    pub fn series_points(&self) -> Vec<SeriesPoint> {
        let families = self.families.read();
        let mut out = Vec::new();
        for (name, family) in families.iter() {
            let mut series: Vec<(String, &Metric)> = family
                .series
                .iter()
                .map(|(labels, metric)| (labels.render(), metric))
                .collect();
            series.sort_by(|a, b| a.0.cmp(&b.0));
            for (labels, metric) in series {
                match metric {
                    Metric::Counter(c) => out.push(SeriesPoint {
                        name: name.clone(),
                        labels,
                        kind: PointKind::Counter,
                        value: c.get() as f64,
                    }),
                    Metric::Gauge(g) => out.push(SeriesPoint {
                        name: name.clone(),
                        labels,
                        kind: PointKind::Gauge,
                        value: g.get(),
                    }),
                    Metric::Histogram(h) => {
                        out.push(SeriesPoint {
                            name: format!("{name}_count"),
                            labels: labels.clone(),
                            kind: PointKind::Counter,
                            value: h.count() as f64,
                        });
                        out.push(SeriesPoint {
                            name: format!("{name}_sum"),
                            labels: labels.clone(),
                            kind: PointKind::Counter,
                            value: h.sum(),
                        });
                        for (q, suffix) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                            if let Some(v) = h.quantile(q) {
                                out.push(SeriesPoint {
                                    name: format!("{name}_{suffix}"),
                                    labels: labels.clone(),
                                    kind: PointKind::Gauge,
                                    value: v,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Sum, across every series of histogram family `name`, of
    /// `(observations ≤ threshold, total observations)`. `None` when
    /// the family is absent or not a histogram. For an exact split the
    /// threshold should coincide with a bucket upper bound; otherwise
    /// the next lower bound is the effective cut.
    pub fn histogram_good_total(&self, name: &str, threshold: f64) -> Option<(u64, u64)> {
        let families = self.families.read();
        let family = families.get(name)?;
        let mut good = 0u64;
        let mut total = 0u64;
        let mut saw_histogram = false;
        for metric in family.series.values() {
            if let Metric::Histogram(h) = metric {
                saw_histogram = true;
                for (bound, count) in h.buckets() {
                    if bound <= threshold {
                        good = good.saturating_add(count);
                    }
                    total = total.saturating_add(count);
                }
            }
        }
        saw_histogram.then_some((good, total))
    }

    /// Point-in-time value of each series of family `name` as
    /// `(rendered labels, value)`: counters and gauges report their
    /// value, histograms their observation count. Empty when the
    /// family is absent.
    pub fn family_values(&self, name: &str) -> Vec<(String, f64)> {
        let families = self.families.read();
        let Some(family) = families.get(name) else {
            return Vec::new();
        };
        let mut out: Vec<(String, f64)> = family
            .series
            .iter()
            .map(|(labels, metric)| {
                let value = match metric {
                    Metric::Counter(c) => c.get() as f64,
                    Metric::Gauge(g) => g.get(),
                    Metric::Histogram(h) => h.count() as f64,
                };
                (labels.render(), value)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Render the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for snap in self.snapshot() {
            let _ = writeln!(out, "# HELP {} {}", snap.name, snap.help);
            let _ = writeln!(out, "# TYPE {} {}", snap.name, snap.kind);
            for sample in &snap.samples {
                if sample.labels.is_empty() {
                    let _ = writeln!(out, "{} {}", sample.name, format_value(sample.value));
                } else {
                    let _ = writeln!(
                        out,
                        "{}{{{}}} {}",
                        sample.name,
                        sample.labels,
                        format_value(sample.value)
                    );
                }
            }
        }
        out
    }
}

fn format_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn flatten(name: &str, labels: &str, metric: &Metric) -> Vec<Sample> {
    match metric {
        Metric::Counter(c) => vec![Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value: c.get() as f64,
        }],
        Metric::Gauge(g) => vec![Sample {
            name: name.to_string(),
            labels: labels.to_string(),
            value: g.get(),
        }],
        Metric::Histogram(h) => {
            let mut out = Vec::new();
            let mut cumulative = 0u64;
            for (bound, count) in h.buckets() {
                cumulative = cumulative.saturating_add(count);
                let le = if bound.is_finite() {
                    format_value(bound)
                } else {
                    "+Inf".to_string()
                };
                let le_labels = if labels.is_empty() {
                    format!("le=\"{le}\"")
                } else {
                    format!("{labels},le=\"{le}\"")
                };
                out.push(Sample {
                    name: format!("{name}_bucket"),
                    labels: le_labels,
                    value: cumulative as f64,
                });
            }
            out.push(Sample {
                name: format!("{name}_sum"),
                labels: labels.to_string(),
                value: h.sum(),
            });
            out.push(Sample {
                name: format!("{name}_count"),
                labels: labels.to_string(),
                value: h.count() as f64,
            });
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_shared_between_handles() {
        let reg = Registry::new();
        let a = reg.counter("gridrm_requests_total", "Requests handled", Labels::none());
        let b = reg.counter("gridrm_requests_total", "Requests handled", Labels::none());
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.samples()[0].value, 3.0);
    }

    #[test]
    fn counters_register_one_series_per_label_value() {
        let reg = Registry::new();
        let [hits, misses] = reg.counters("gridrm_c_total", "C", "event", ["hit", "miss"]);
        hits.add(2);
        misses.inc();
        assert_eq!(
            reg.family_values("gridrm_c_total"),
            vec![
                ("event=\"hit\"".to_owned(), 2.0),
                ("event=\"miss\"".to_owned(), 1.0)
            ]
        );
    }

    #[test]
    fn labels_are_canonical() {
        let x = Labels::from_pairs(&[("b", "2"), ("a", "1")]);
        let y = Labels::from_pairs(&[("a", "1"), ("b", "2")]);
        assert_eq!(x, y);
        assert_eq!(x.render(), "a=\"1\",b=\"2\"");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new(&[1.0, 5.0, 10.0]);
        h.observe(0.5); // <= 1
        h.observe(1.0); // <= 1 (boundary lands in its own bucket)
        h.observe(5.0); // <= 5
        h.observe(7.0); // <= 10
        h.observe(99.0); // overflow
        let b = h.buckets();
        assert_eq!(b[0], (1.0, 2));
        assert_eq!(b[1], (5.0, 1));
        assert_eq!(b[2], (10.0, 1));
        assert_eq!(b[3].1, 1);
        assert!(b[3].0.is_infinite());
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 0.5 + 1.0 + 5.0 + 7.0 + 99.0);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new(&[1.0, 2.0, 5.0, 10.0]);
        assert_eq!(h.quantile(0.5), None);
        for _ in 0..90 {
            h.observe(1.5); // 90 in (1, 2]
        }
        for _ in 0..10 {
            h.observe(8.0); // 10 in (5, 10]
        }
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.9), Some(2.0));
        assert_eq!(h.quantile(0.95), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(10.0));
        // Observations beyond the last bound report the last finite bound.
        let h2 = Histogram::new(&[1.0]);
        h2.observe(50.0);
        assert_eq!(h2.quantile(0.5), Some(1.0));
    }

    #[test]
    fn histogram_overflow_saturates() {
        let h = Histogram::new(&[1.0]);
        h.saturate_overflow_for_test();
        h.observe(100.0); // must not wrap
        let b = h.buckets();
        assert_eq!(b[1].1, u64::MAX);
        assert_eq!(h.count(), u64::MAX); // saturating total
    }

    #[test]
    fn prometheus_rendering() {
        let reg = Registry::new();
        let c = reg.counter(
            "gridrm_cache_hits_total",
            "Cache hits",
            Labels::from_pairs(&[("proto", "a:xml")]),
        );
        c.add(4);
        let g = reg.gauge(
            "gridrm_pool_idle",
            "Idle pooled connections",
            Labels::none(),
        );
        g.set(2.0);
        let h = reg.histogram(
            "gridrm_request_latency_ms",
            "Latency",
            Labels::from_pairs(&[("driver", "ganglia")]),
            &[1.0, 10.0],
        );
        h.observe(3.0);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE gridrm_cache_hits_total counter"));
        assert!(text.contains("gridrm_cache_hits_total{proto=\"a:xml\"} 4"));
        assert!(text.contains("gridrm_pool_idle 2"));
        assert!(text.contains("gridrm_request_latency_ms_bucket{driver=\"ganglia\",le=\"10\"} 1"));
        assert!(text.contains("gridrm_request_latency_ms_bucket{driver=\"ganglia\",le=\"+Inf\"} 1"));
        assert!(text.contains("gridrm_request_latency_ms_count{driver=\"ganglia\"} 1"));
    }

    #[test]
    fn label_values_escape_backslash_quote_and_newline() {
        let backslash = Labels::from_pairs(&[("path", "C:\\tmp")]);
        assert_eq!(backslash.render(), "path=\"C:\\\\tmp\"");
        let quote = Labels::from_pairs(&[("msg", "he said \"hi\"")]);
        assert_eq!(quote.render(), "msg=\"he said \\\"hi\\\"\"");
        let newline = Labels::from_pairs(&[("msg", "line1\nline2")]);
        assert_eq!(newline.render(), "msg=\"line1\\nline2\"");
        // A newline smuggled into a label value must not break the
        // line-oriented text format: the rendered exposition stays one
        // sample per line.
        let reg = Registry::new();
        reg.counter("gridrm_evil_total", "Evil", newline).inc();
        let text = reg.render_prometheus();
        assert!(text.contains("gridrm_evil_total{msg=\"line1\\nline2\"} 1"));
        assert_eq!(text.lines().count(), 3, "HELP + TYPE + one sample");
    }

    #[test]
    fn exposition_order_is_deterministic() {
        // Register in one order, read back sorted by name then rendered
        // labels — and histogram internals keep bucket order (+Inf last)
        // rather than sorting "+Inf" before "1" textually.
        let reg = Registry::new();
        reg.counter("gridrm_z_total", "Z", Labels::from_pairs(&[("kind", "b")]))
            .inc();
        reg.counter("gridrm_z_total", "Z", Labels::from_pairs(&[("kind", "a")]))
            .inc();
        reg.counter("gridrm_a_total", "A", Labels::none()).inc();
        let h = reg.histogram("gridrm_lat_ms", "L", Labels::none(), &[1.0, 10.0]);
        h.observe(3.0);

        let flat: Vec<(String, String)> = reg
            .samples()
            .into_iter()
            .map(|s| (s.name, s.labels))
            .collect();
        let expect: Vec<(String, String)> = [
            ("gridrm_a_total", ""),
            ("gridrm_lat_ms_bucket", "le=\"1\""),
            ("gridrm_lat_ms_bucket", "le=\"10\""),
            ("gridrm_lat_ms_bucket", "le=\"+Inf\""),
            ("gridrm_lat_ms_sum", ""),
            ("gridrm_lat_ms_count", ""),
            ("gridrm_z_total", "kind=\"a\""),
            ("gridrm_z_total", "kind=\"b\""),
        ]
        .into_iter()
        .map(|(n, l)| (n.to_string(), l.to_string()))
        .collect();
        assert_eq!(flat, expect);
        // Prometheus text renders the very same order, twice over.
        assert_eq!(reg.render_prometheus(), reg.render_prometheus());
    }

    #[test]
    fn series_points_expand_histograms() {
        let reg = Registry::new();
        reg.counter("gridrm_x_total", "X", Labels::none()).add(3);
        let h = reg.histogram("gridrm_lat_ms", "L", Labels::none(), &[1.0, 10.0]);
        let names = |reg: &Registry| -> Vec<String> {
            reg.series_points().into_iter().map(|p| p.name).collect()
        };
        // No observations: quantile points are withheld.
        assert_eq!(
            names(&reg),
            vec!["gridrm_lat_ms_count", "gridrm_lat_ms_sum", "gridrm_x_total"]
        );
        h.observe(5.0);
        assert_eq!(
            names(&reg),
            vec![
                "gridrm_lat_ms_count",
                "gridrm_lat_ms_sum",
                "gridrm_lat_ms_p50",
                "gridrm_lat_ms_p95",
                "gridrm_lat_ms_p99",
                "gridrm_x_total"
            ]
        );
        let points = reg.series_points();
        assert_eq!(points[0].kind, PointKind::Counter);
        assert_eq!(points[0].value, 1.0);
        assert_eq!(points[2].kind, PointKind::Gauge);
        assert_eq!(points[2].value, 10.0); // p50 reports the bucket bound
    }

    #[test]
    fn histogram_good_total_splits_at_bucket_bound() {
        let reg = Registry::new();
        let h = reg.histogram("gridrm_lat_ms", "L", Labels::none(), &[10.0, 100.0]);
        for _ in 0..9 {
            h.observe(5.0);
        }
        h.observe(50.0);
        assert_eq!(
            reg.histogram_good_total("gridrm_lat_ms", 10.0),
            Some((9, 10))
        );
        assert_eq!(
            reg.histogram_good_total("gridrm_lat_ms", 100.0),
            Some((10, 10))
        );
        assert_eq!(reg.histogram_good_total("gridrm_missing", 10.0), None);
        reg.counter("gridrm_x_total", "X", Labels::none()).inc();
        assert_eq!(reg.histogram_good_total("gridrm_x_total", 10.0), None);
    }

    #[test]
    fn json_snapshot_roundtrips() {
        let reg = Registry::new();
        reg.counter("gridrm_events_total", "Events", Labels::none())
            .add(7);
        let snaps = reg.snapshot();
        let json = serde_json::to_string(&snaps).unwrap();
        let back: Vec<MetricSnapshot> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snaps);
    }
}
