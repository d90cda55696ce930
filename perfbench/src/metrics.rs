//! Named metrics and the result line.

use comfort_telemetry::Stage;

use crate::host;
use crate::layers::{InterpProbe, JournalProbe, SetupPhases};
use crate::service::{Counts, DaemonTrace};
use crate::stats::{median, tail};
use crate::workload::Loop;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// Completed campaigns per wall second of a loop.
fn campaigns_per_s(looped: &Loop) -> f64 {
    looped.finished.len() as f64 / looped.wall_s
}

/// The end-to-end metrics of an untraced loop, given the set-up samples of
/// the run.
pub fn end_to_end(looped: &Loop, setup_s: &[f64]) -> Vec<Metric> {
    let waits: Vec<f64> = looped.finished.iter().map(|f| f.wait_s).collect();
    let cases = looped.cases() as f64;
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("report_p50_s", "s", median(&waits)),
        metric("report_tail_s", "s", tail(&waits).value),
        metric("cases_per_s", "1/s", cases / looped.wall_s),
        metric("campaigns_per_s", "1/s", campaigns_per_s(looped)),
        metric("cpu_ms_per_case", "ms", looped.cpu_s * 1e3 / cases),
        metric("peak_rss_mb", "MB", looped.peak_rss_mb),
    ]
}

/// Everything the per-layer metrics are computed from.
pub struct Layers<'a> {
    /// The traced loop.
    pub traced: &'a Loop,
    /// The untraced loop run beside it.
    pub untraced: &'a Loop,
    /// The pool / executor width.
    pub width: usize,
    /// Set-up samples of the run.
    pub setup_s: &'a [f64],
    /// Set-up phase medians.
    pub phases: SetupPhases,
    /// Front-end and VM timings.
    pub interp: InterpProbe,
    /// Journal timings (daemon workloads; zero where no journal is kept).
    pub journal: JournalProbe,
    /// Service counters (zero outside the daemon workloads).
    pub counts: Counts,
    /// Daemon timings (empty outside the daemon workloads).
    pub daemon: &'a DaemonTrace,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(l: &Layers) -> Vec<Metric> {
    let t = l.traced;
    let campaigns = t.finished.len().max(1) as f64;
    let mut out = vec![
        metric("setup.session_ms", "ms", median(l.setup_s) * 1e3),
        metric("setup.phases_sum_ms", "ms", l.phases.sum_ms()),
        metric("corpus.training_corpus_ms", "ms", l.phases.corpus_ms),
        metric("lm.bpe_train_ms", "ms", l.phases.bpe_train_ms),
        metric("lm.bpe_encode_ms", "ms", l.phases.bpe_encode_ms),
        metric("lm.ngram_train_ms", "ms", l.phases.ngram_train_ms),
        metric("engines.testbeds_ms", "ms", l.phases.testbeds_ms),
    ];
    for stage in Stage::ALL {
        let (wall_ns, items) = t.finished.iter().fold((0u64, 0u64), |(w, i), f| {
            let m = f.metrics.stage(stage);
            (w + m.wall_nanos, i + m.items)
        });
        out.push(metric(format!("core.{stage}.wall_ms"), "ms", wall_ns as f64 / 1e6 / campaigns));
        out.push(metric(format!("core.{stage}.items"), "count", items as f64 / campaigns));
    }
    let logical: u64 = t.finished.iter().map(|f| f.metrics.stage(Stage::Differential).items).sum();
    let saved: u64 = t.finished.iter().map(|f| f.metrics.executions_saved).sum();
    let shard_ns: u64 = t.shard_wall_ns.iter().sum();
    let shard_ms: Vec<f64> = t.shard_wall_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let pool_s = l.width as f64 * t.wall_s;
    let d = l.daemon;
    out.extend([
        metric("differential.executions_saved", "count", saved as f64 / campaigns),
        metric(
            "differential.physical_frac",
            "ratio",
            if logical == 0 { 0.0 } else { (logical - saved) as f64 / logical as f64 },
        ),
        metric("syntax.parse_us", "us", l.interp.parse_us),
        metric("interp.compile_us", "us", l.interp.compile_us),
        metric("interp.run_chunk_us", "us", l.interp.run_chunk_us),
        metric("executor.shard_ms", "ms", median(&shard_ms)),
        metric("executor.busy_frac", "ratio", shard_ns as f64 / 1e9 / pool_s),
        metric("checkpoint.append_ms", "ms", l.journal.append_ms),
        metric("checkpoint.load_ms", "ms", l.journal.load_ms),
        metric("checkpoint.bytes_per_shard", "bytes", l.journal.bytes_per_shard),
        metric("daemon.submit_ms", "ms", median(&d.submit_ms)),
        metric("daemon.queue_wait_ms", "ms", median(&d.queue_wait_ms)),
        metric("daemon.lease_hold_ms", "ms", median(&d.lease_hold_ms)),
        metric("daemon.finalize_ms", "ms", median(&d.finalize_ms)),
        metric(
            "daemon.pool_busy_frac",
            "ratio",
            d.lease_hold_ms.iter().fold(0.0, |a, b| a + b) / 1e3 / pool_s,
        ),
        metric("lease.acquired", "count", l.counts.leases_acquired as f64),
        metric("lease.renewed", "count", l.counts.leases_renewed as f64),
        metric("lease.expired", "count", l.counts.leases_expired as f64),
        metric("lease.reclaimed", "count", l.counts.leases_reclaimed as f64),
        metric("fleet.workers_spawned", "count", l.counts.workers_spawned as f64),
        metric("fleet.workers_died", "count", l.counts.workers_died as f64),
        metric("fleet.child_cpu_ms", "ms", t.child_cpu_s * 1e3),
        metric(
            "fleet.child_peak_rss_mb",
            "MB",
            host::Usage::now().child_max_rss_kib as f64 / 1024.0,
        ),
        metric(
            "trace.overhead_frac",
            "ratio",
            campaigns_per_s(l.untraced) / campaigns_per_s(t) - 1.0,
        ),
    ]);
    out
}

/// The result line: `correct`, `attempted`, `failed` and every metric with
/// its unit, as one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
