//! `BENCHMARK.json` at the repository root must list exactly the workloads
//! the benchmark runs and the metrics it prints, in order, with their units.

use comfort_telemetry::json::{self, JsonValue};
use perfbench::layers::{InterpProbe, JournalProbe, SetupPhases};
use perfbench::metrics::{end_to_end, per_layer, Layers, Metric};
use perfbench::service::{Counts, DaemonTrace};
use perfbench::workload::{Loop, Workload};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &JsonValue, section: &str, key: &str) -> Vec<String> {
    doc.get(section)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|entry| entry.get(key).and_then(JsonValue::as_str).expect("string field").to_string())
        .collect()
}

fn printed(metrics: &[Metric]) -> (Vec<String>, Vec<String>) {
    metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).unzip()
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_the_benchmark_prints() {
    let doc = benchmark_json();
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared(&doc, "workloads", "name"), workloads);

    let looped = Loop::default();
    let (names, units) = printed(&end_to_end(&looped, &[1.0]));
    assert_eq!(declared(&doc, "end_to_end", "name"), names);
    assert_eq!(declared(&doc, "end_to_end", "unit"), units);

    let layers = Layers {
        traced: &looped,
        untraced: &looped,
        width: 1,
        setup_s: &[1.0],
        phases: SetupPhases::default(),
        interp: InterpProbe::default(),
        journal: JournalProbe::default(),
        counts: Counts::default(),
        daemon: &DaemonTrace::default(),
    };
    let (names, units) = printed(&per_layer(&layers));
    assert_eq!(declared(&doc, "per_layer", "name"), names);
    assert_eq!(declared(&doc, "per_layer", "unit"), units);
}
