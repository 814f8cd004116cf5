//! Metrics time-series recorder: bounded per-series history rings.
//!
//! The registry answers "what is the value *now*"; this module answers
//! "what was it *over time*". `Gateway::pump` drives
//! [`TimeSeriesRecorder::maybe_sample`] on the shared `SimClock`: every
//! due tick copies each registry series (histograms expanded to
//! `_count`/`_sum`/quantile points, see
//! [`Registry::series_points`](crate::Registry::series_points)) into a
//! bounded [`ColumnRing`] of typed columns — timestamps and values in
//! parallel arrays, oldest overwritten first. Counter semantics
//! (delta and rate between consecutive samples) are derived on read,
//! so recording stays a pair of array stores per series.
//!
//! The per-column layout is deliberate: [`TimeSeriesRecorder::bucketed`]
//! aggregates `time_bucket`-style (min/max/avg/sum per fixed-width
//! virtual-time bucket) in one tight pass over the column slices — the
//! first concrete columnar-aggregation kernel on the road to the full
//! history store (ROADMAP item 3). The same data feeds the
//! `gridrm_metrics_history` virtual SQL table and the Admin JSON
//! endpoint.

use crate::metrics::{Counter, Labels, PointKind, Registry};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default virtual-time distance between samples.
pub const DEFAULT_TIMESERIES_INTERVAL_MS: u64 = 1_000;
/// Default per-series ring capacity (samples retained).
pub const DEFAULT_TIMESERIES_CAPACITY: usize = 1_024;

/// A bounded ring of `(timestamp, value)` points stored as two parallel
/// typed columns. Pushes wrap around, overwriting the oldest point; the
/// live window is exposed as at most two contiguous column slices, so
/// aggregation loops run over plain `&[u64]` / `&[f64]` runs.
#[derive(Debug)]
pub struct ColumnRing {
    cap: usize,
    /// Index of the oldest point once the ring has wrapped.
    head: usize,
    ts: Vec<u64>,
    values: Vec<f64>,
}

impl ColumnRing {
    /// Ring retaining at most `cap` points (minimum 2, so a counter
    /// series can always derive one delta).
    pub fn new(cap: usize) -> ColumnRing {
        let cap = cap.max(2);
        ColumnRing {
            cap,
            head: 0,
            ts: Vec::with_capacity(cap),
            values: Vec::with_capacity(cap),
        }
    }

    /// Append one point, overwriting the oldest on overflow.
    pub fn push(&mut self, ts: u64, value: f64) {
        if self.ts.len() < self.cap {
            self.ts.push(ts);
            self.values.push(value);
        } else {
            self.ts[self.head] = ts;
            self.values[self.head] = value;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Retained points.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Maximum retained points.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The live window as up to two contiguous `(timestamps, values)`
    /// column runs, oldest first (the second pair is empty until the
    /// ring wraps). Aggregators iterate these directly.
    pub fn slices(&self) -> [(&[u64], &[f64]); 2] {
        // Once wrapped, storage is [recently-overwritten | oldest]:
        // positions before `head` hold the newest points, positions
        // from `head` on hold the oldest. Time order is therefore the
        // tail run first, then the head run.
        let (newest_ts, oldest_ts) = self.ts.split_at(self.head);
        let (newest_v, oldest_v) = self.values.split_at(self.head);
        [(oldest_ts, oldest_v), (newest_ts, newest_v)]
    }

    /// Iterate points oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        let [(ts_a, v_a), (ts_b, v_b)] = self.slices();
        ts_a.iter()
            .copied()
            .zip(v_a.iter().copied())
            .chain(ts_b.iter().copied().zip(v_b.iter().copied()))
    }

    /// The most recent point.
    pub fn last(&self) -> Option<(u64, f64)> {
        if self.is_empty() {
            return None;
        }
        let idx = if self.ts.len() < self.cap {
            self.ts.len() - 1
        } else {
            (self.head + self.cap - 1) % self.cap
        };
        Some((self.ts[idx], self.values[idx]))
    }
}

/// One materialised history row: a recorded point plus, for counter
/// series, the delta and per-second rate against the previous sample.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRow {
    /// Virtual sample time.
    pub ts_ms: u64,
    /// Series name (`gridrm_requests_total`, `…_count`, `…_p95`, …).
    pub name: String,
    /// Rendered labels, empty when unlabelled.
    pub labels: String,
    /// `counter` or `gauge`.
    pub kind: String,
    /// Raw sampled value (cumulative for counters).
    pub value: f64,
    /// Increase since the previous retained sample (counters only;
    /// `None` for gauges and for the oldest retained point). A counter
    /// reset reports the post-reset value.
    pub delta: Option<f64>,
    /// `delta` per elapsed virtual second (counters only).
    pub rate_per_s: Option<f64>,
}

/// `time_bucket` aggregate of one series over one fixed-width bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketStats {
    /// Bucket start (virtual ms, aligned to the bucket width).
    pub bucket_ms: u64,
    /// Points that fell in this bucket.
    pub count: u64,
    /// Minimum value in the bucket.
    pub min: f64,
    /// Maximum value in the bucket.
    pub max: f64,
    /// Sum of values in the bucket.
    pub sum: f64,
}

impl BucketStats {
    /// Mean value in the bucket.
    pub fn avg(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

struct SeriesState {
    kind: PointKind,
    ring: ColumnRing,
}

struct RecorderState {
    interval_ms: u64,
    capacity: usize,
    last_sample_ms: Option<u64>,
    series: BTreeMap<(String, String), SeriesState>,
}

/// The gateway-wide metrics history recorder. See the module docs.
pub struct TimeSeriesRecorder {
    state: Mutex<RecorderState>,
    /// Points recorded, exposed as `gridrm_timeseries_points_total`.
    points: Counter,
}

impl TimeSeriesRecorder {
    /// Recorder with default interval and capacity, its counter created
    /// in `registry`.
    pub fn new(registry: &Registry) -> TimeSeriesRecorder {
        TimeSeriesRecorder {
            state: Mutex::new(RecorderState {
                interval_ms: DEFAULT_TIMESERIES_INTERVAL_MS,
                capacity: DEFAULT_TIMESERIES_CAPACITY,
                last_sample_ms: None,
                series: BTreeMap::new(),
            }),
            points: registry.counter(
                "gridrm_timeseries_points_total",
                "Samples recorded into the metrics time-series rings",
                Labels::none(),
            ),
        }
    }

    /// Apply configuration knobs (normally from `GatewayConfig` at
    /// startup). The interval is clamped to >= 1 ms and the capacity to
    /// >= 2 points; rings created before the call keep their size.
    pub fn configure(&self, interval_ms: u64, capacity: usize) {
        let mut state = self.state.lock();
        state.interval_ms = interval_ms.max(1);
        state.capacity = capacity.max(2);
    }

    /// The sampling interval in virtual ms.
    pub fn interval_ms(&self) -> u64 {
        self.state.lock().interval_ms
    }

    /// Per-series ring capacity for newly seen series.
    pub fn capacity(&self) -> usize {
        self.state.lock().capacity
    }

    /// Sample every registry series if at least one interval elapsed
    /// since the previous sample (or none was ever taken). Returns
    /// whether a sample was taken.
    pub fn maybe_sample(&self, registry: &Registry, now_ms: u64) -> bool {
        {
            let state = self.state.lock();
            let due = match state.last_sample_ms {
                None => true,
                Some(last) => now_ms >= last.saturating_add(state.interval_ms),
            };
            if !due {
                return false;
            }
        }
        self.sample_now(registry, now_ms);
        true
    }

    /// Unconditionally sample every registry series at `now_ms`.
    pub fn sample_now(&self, registry: &Registry, now_ms: u64) {
        let points = registry.series_points();
        let mut state = self.state.lock();
        state.last_sample_ms = Some(now_ms);
        let capacity = state.capacity;
        for p in points {
            let entry = state
                .series
                .entry((p.name, p.labels))
                .or_insert_with(|| SeriesState {
                    kind: p.kind,
                    ring: ColumnRing::new(capacity),
                });
            entry.ring.push(now_ms, p.value);
            self.points.inc();
        }
    }

    /// Record one point directly, bypassing the registry — the feed for
    /// benches and tests that generate synthetic history.
    pub fn record_point(&self, name: &str, labels: &str, kind: PointKind, at_ms: u64, value: f64) {
        let mut state = self.state.lock();
        let capacity = state.capacity;
        let entry = state
            .series
            .entry((name.to_owned(), labels.to_owned()))
            .or_insert_with(|| SeriesState {
                kind,
                ring: ColumnRing::new(capacity),
            });
        entry.ring.push(at_ms, value);
        self.points.inc();
    }

    /// `(name, labels)` of every tracked series, sorted.
    pub fn series_names(&self) -> Vec<(String, String)> {
        self.state.lock().series.keys().cloned().collect()
    }

    /// Materialise history rows (see [`HistoryRow`]), ordered by series
    /// then time, optionally restricted to one series name and/or one
    /// rendered label set — the pushdown path for
    /// `WHERE name = '…' [AND labels = '…']` over the virtual table.
    pub fn history_for(&self, name: Option<&str>, labels: Option<&str>) -> Vec<HistoryRow> {
        let state = self.state.lock();
        let mut out = Vec::new();
        for ((series_name, series_labels), series) in state.series.iter() {
            if name.is_some_and(|n| n != series_name) {
                continue;
            }
            if labels.is_some_and(|l| l != series_labels) {
                continue;
            }
            let counter = series.kind == PointKind::Counter;
            let mut prev: Option<(u64, f64)> = None;
            for (ts, value) in series.ring.iter() {
                let (delta, rate_per_s) = match (counter, prev) {
                    (true, Some((prev_ts, prev_v))) => {
                        // A counter that moved backwards was reset; the
                        // post-reset value is the whole increase.
                        let d = if value >= prev_v {
                            value - prev_v
                        } else {
                            value
                        };
                        let elapsed_ms = ts.saturating_sub(prev_ts);
                        let rate = if elapsed_ms == 0 {
                            0.0
                        } else {
                            d * 1_000.0 / elapsed_ms as f64
                        };
                        (Some(d), Some(rate))
                    }
                    _ => (None, None),
                };
                out.push(HistoryRow {
                    ts_ms: ts,
                    name: series_name.clone(),
                    labels: series_labels.clone(),
                    kind: series.kind.name().to_owned(),
                    value,
                    delta,
                    rate_per_s,
                });
                prev = Some((ts, value));
            }
        }
        out
    }

    /// Aggregate one series into fixed-width virtual-time buckets —
    /// the columnar `time_bucket` kernel. Runs a single pass over the
    /// ring's column slices; since the clock is monotone the points
    /// arrive bucket-ordered and each bucket closes exactly once.
    /// `bucket_ms` of 0 is treated as 1.
    pub fn bucketed(&self, name: &str, labels: &str, bucket_ms: u64) -> Vec<BucketStats> {
        let bucket_ms = bucket_ms.max(1);
        let state = self.state.lock();
        let Some(series) = state.series.get(&(name.to_owned(), labels.to_owned())) else {
            return Vec::new();
        };
        let mut out: Vec<BucketStats> = Vec::new();
        for (ts_col, value_col) in series.ring.slices() {
            for (&ts, &value) in ts_col.iter().zip(value_col) {
                let bucket = (ts / bucket_ms) * bucket_ms;
                match out.last_mut() {
                    Some(acc) if acc.bucket_ms == bucket => {
                        acc.count += 1;
                        acc.min = acc.min.min(value);
                        acc.max = acc.max.max(value);
                        acc.sum += value;
                    }
                    _ => out.push(BucketStats {
                        bucket_ms: bucket,
                        count: 1,
                        min: value,
                        max: value,
                        sum: value,
                    }),
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ring_wraps_and_keeps_time_order() {
        let mut ring = ColumnRing::new(4);
        for i in 0..6u64 {
            ring.push(i * 10, i as f64);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.capacity(), 4);
        let points: Vec<(u64, f64)> = ring.iter().collect();
        assert_eq!(points, vec![(20, 2.0), (30, 3.0), (40, 4.0), (50, 5.0)]);
        assert_eq!(ring.last(), Some((50, 5.0)));
        // The two slice runs cover the same points in the same order.
        let [(a_ts, _), (b_ts, _)] = ring.slices();
        let mut ts: Vec<u64> = a_ts.to_vec();
        ts.extend_from_slice(b_ts);
        assert_eq!(ts, vec![20, 30, 40, 50]);
    }

    #[test]
    fn recorder_samples_on_interval_only() {
        let reg = Registry::new();
        let c = reg.counter("gridrm_x_total", "X", Labels::none());
        let rec = TimeSeriesRecorder::new(&Registry::new());
        rec.configure(1_000, 16);
        c.inc();
        assert!(rec.maybe_sample(&reg, 0));
        assert!(!rec.maybe_sample(&reg, 500), "interval not elapsed");
        c.add(4);
        assert!(rec.maybe_sample(&reg, 1_000));
        let rows = rec.history_for(Some("gridrm_x_total"), None);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value, 1.0);
        assert_eq!(rows[0].delta, None, "oldest point has no predecessor");
        assert_eq!(rows[1].value, 5.0);
        assert_eq!(rows[1].delta, Some(4.0));
        assert_eq!(rows[1].rate_per_s, Some(4.0));
    }

    #[test]
    fn histograms_expand_to_quantile_points() {
        let reg = Registry::new();
        let h = reg.histogram("gridrm_lat_ms", "L", Labels::none(), &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        let rec = TimeSeriesRecorder::new(&Registry::new());
        rec.sample_now(&reg, 0);
        let names: Vec<(String, String)> = rec.series_names();
        let names: Vec<&str> = names.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "gridrm_lat_ms_count",
                "gridrm_lat_ms_p50",
                "gridrm_lat_ms_p95",
                "gridrm_lat_ms_p99",
                "gridrm_lat_ms_sum"
            ]
        );
        let count = rec.history_for(Some("gridrm_lat_ms_count"), None);
        assert_eq!(count[0].kind, "counter");
        assert_eq!(count[0].value, 2.0);
        let p95 = rec.history_for(Some("gridrm_lat_ms_p95"), None);
        assert_eq!(p95[0].kind, "gauge");
        assert_eq!(p95[0].value, 100.0);
    }

    #[test]
    fn counter_reset_reports_post_reset_delta() {
        let rec = TimeSeriesRecorder::new(&Registry::new());
        rec.record_point("gridrm_x_total", "", PointKind::Counter, 0, 100.0);
        rec.record_point("gridrm_x_total", "", PointKind::Counter, 1_000, 3.0);
        let rows = rec.history_for(None, None);
        assert_eq!(rows[1].delta, Some(3.0));
    }

    #[test]
    fn bucketed_matches_row_by_row_aggregation() {
        let rec = TimeSeriesRecorder::new(&Registry::new());
        rec.configure(1, 4_096);
        // Two full buckets of width 100 plus a partial third.
        for i in 0..25u64 {
            rec.record_point("gridrm_g", "", PointKind::Gauge, i * 10, (i % 7) as f64);
        }
        let buckets = rec.bucketed("gridrm_g", "", 100);
        assert_eq!(buckets.len(), 3);
        // Cross-check against the naive per-point loop.
        let rows = rec.history_for(Some("gridrm_g"), None);
        let mut naive: BTreeMap<u64, (u64, f64, f64, f64)> = BTreeMap::new();
        for r in rows {
            let b = (r.ts_ms / 100) * 100;
            let e = naive.entry(b).or_insert((0, f64::MAX, f64::MIN, 0.0));
            e.0 += 1;
            e.1 = e.1.min(r.value);
            e.2 = e.2.max(r.value);
            e.3 += r.value;
        }
        for b in &buckets {
            let (count, min, max, sum) = naive[&b.bucket_ms];
            assert_eq!((b.count, b.min, b.max, b.sum), (count, min, max, sum));
            assert_eq!(b.avg(), sum / count as f64);
        }
        // Unknown series and zero-width buckets are safe.
        assert!(rec.bucketed("missing", "", 100).is_empty());
        assert_eq!(rec.bucketed("gridrm_g", "", 0).len(), 25);
    }
}
