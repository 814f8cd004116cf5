//! `BENCHMARK.json` against the program's own tables, and a
//! reduced-scale run (`R = 3`, `N = 40`) of every workload.

use gridrm_benchmark::host::Pin;
use gridrm_benchmark::report::{self, Config, END_TO_END, PER_LAYER};
use gridrm_benchmark::workload::Workload;
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a Vec<Value> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{entry:?} has no `{key}`"))
}

#[test]
fn benchmark_json_matches_the_programs_tables() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let e2e = entries(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, ours) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(entry, "name"), ours.name);
        assert_eq!(text(entry, "unit"), ours.unit, "{}", ours.name);
        assert_eq!(text(entry, "better"), ours.better.name(), "{}", ours.name);
        let bound = entry.get("bound").and_then(Value::as_f64).expect("bound");
        assert_eq!(bound, ours.bound, "{}", ours.name);
        assert!(bound <= 0.25);
    }
    assert!(e2e
        .iter()
        .any(|m| text(m, "name") == "setup_s" && text(m, "unit") == "s"));

    let layers = entries(&doc, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, ours) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(text(entry, "name"), ours.name);
        assert_eq!(text(entry, "unit"), ours.unit, "{}", ours.name);
        assert_eq!(text(entry, "better"), ours.better.name(), "{}", ours.name);
    }

    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["crates/benchmark"]);
}

/// `R = 3`, `N = 40`, two traced replays, unpinned (tests run on
/// parallel threads): every metric is emitted and no request fails.
fn smoke(workload: Workload) {
    let config = Config {
        workload,
        seed: 11,
        requests: 40,
        replays: 3,
        traced_replays: 2,
    };
    let unpinned = Pin {
        original: None,
        single: None,
    };
    let outcome = report::run(config, &unpinned).expect("loopback sockets work");
    assert_eq!(outcome.failed, 0, "{:?}", outcome.failures);
    assert!(outcome.correct, "{:?}", outcome.failures);
    assert!(outcome.attempted >= 3 * 2 * 40);

    let doc = benchmark_json();
    for (per_layer, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let line: Value =
            serde_json::from_str(&outcome.json_line(per_layer)).expect("result line parses");
        let top: Vec<&String> = line.as_object().expect("object").keys().collect();
        assert_eq!(top, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        let metrics = line
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        let want: Vec<&str> = entries(&doc, key).iter().map(|m| text(m, "name")).collect();
        let got: Vec<&str> = metrics.keys().map(String::as_str).collect();
        assert_eq!(got, want, "{key}");
        for m in entries(&doc, key) {
            let emitted = metrics.get(text(m, "name")).expect("emitted");
            assert_eq!(text(emitted, "unit"), text(m, "unit"));
            let value = emitted.get("value").and_then(Value::as_f64).expect("value");
            // `serve.socket_us` is a difference of two passes; at this
            // scale, on parallel test threads, it can come out negative.
            assert!(
                value.is_finite() && (value >= 0.0 || text(m, "name") == "serve.socket_us"),
                "{} = {value}",
                text(m, "name")
            );
            if key == "end_to_end" && text(m, "name") != "peak_rss_mb" {
                assert!(value > 0.0, "{} must never read 0", text(m, "name"));
            }
        }
    }
    // Every traced request has a root span; probed ones have children.
    assert!(outcome.spans.iter().filter(|s| s.parent.is_none()).count() >= 40);
    assert!(outcome.spans.iter().any(|s| s.parent.is_some()));
}

#[test]
fn smoke_cached_point() {
    smoke(Workload::CachedPoint);
}

#[test]
fn smoke_realtime_snmp() {
    smoke(Workload::RealtimeSnmp);
}

#[test]
fn smoke_coarse_scan() {
    smoke(Workload::CoarseScan);
}

#[test]
fn smoke_mixed_churn() {
    smoke(Workload::MixedChurn);
}
