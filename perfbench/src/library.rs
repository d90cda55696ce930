//! The library workloads: `oneshot` and `steady` drive `CampaignSession`
//! directly, one client, at the host's width.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use comfort_core::campaign::CampaignReport;
use comfort_core::checkpoint::report_checksum;
use comfort_telemetry::{Event, EventKind, Sink, SinkHandle};

use crate::host::{self, Usage};
use crate::workload::{self, Budget, Finished, Loop, Seeds, Workload};

/// A benchmark-owned telemetry sink that keeps each executor shard's wall
/// time while it is switched on, and ignores every other event.
#[derive(Clone, Default)]
pub struct ShardClock {
    on: Arc<AtomicBool>,
    walls: Arc<Mutex<Vec<u64>>>,
}

impl ShardClock {
    /// A handle to install as a session's sink.
    pub fn handle(&self) -> SinkHandle {
        SinkHandle::new(self.clone())
    }

    /// Starts or stops recording.
    pub fn record(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// The shard walls recorded so far, emptied.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut self.walls.lock().expect("shard clock poisoned"))
    }
}

impl Sink for ShardClock {
    fn emit(&self, event: &Event) {
        if let EventKind::ShardFinished { wall_nanos: Some(ns), .. } = event.kind {
            if self.on.load(Ordering::Relaxed) {
                self.walls.lock().expect("shard clock poisoned").push(ns);
            }
        }
    }
}

fn finished(seed: u64, start: Instant, report: &CampaignReport) -> Finished {
    Finished {
        seed,
        wait_s: start.elapsed().as_secs_f64(),
        checksum: report_checksum(report),
        cases: report.cases_run,
        metrics: report.metrics.clone(),
        journal: None,
    }
}

fn close(mut looped: Loop, start: Instant, usage: Usage, clock: &ShardClock) -> Loop {
    let now = Usage::now();
    looped.wall_s = start.elapsed().as_secs_f64();
    looped.cpu_s = now.total_cpu_s() - usage.total_cpu_s();
    looped.child_cpu_s = (now.child_cpu - usage.child_cpu).as_secs_f64();
    looped.shard_wall_ns = clock.take();
    looped.peak_rss_mb = host::peak_rss_mb();
    looped
}

/// `oneshot`: fresh sessions of the bench spec, one after another, each
/// timed from spec to report (set-up included, as a one-shot caller pays
/// it), at the next seed from `seeds`. Each session's set-up is also timed
/// on its own.
pub fn oneshot(seeds: &Seeds, width: usize, budget: Budget, trace: bool) -> Loop {
    let clock = ShardClock::default();
    clock.record(trace);
    let mut looped = Loop::default();
    host::reset_peak_rss();
    let (start, usage) = (Instant::now(), Usage::now());
    while budget.allows(looped.attempted, start) {
        looped.attempted += 1;
        let seed = seeds.take();
        let t0 = Instant::now();
        let session =
            workload::session(&Workload::Oneshot.spec(seed)).threads(width).sink(clock.handle());
        looped.setup_s.push(workload::set_up(&session));
        let report = session.run_with_threads(width).expect("fresh sessions cannot fail");
        looped.finished.push(finished(seed, t0, &report));
    }
    close(looped, start, usage, &clock)
}

/// `steady`: the paper-config campaign on `sessions` trained sessions in
/// turn, at campaign seeds `first`, `first + 1`, ... Each session is set up
/// and runs one warm-up campaign outside the timed loop; then it repeats its
/// campaign for `per_session`, each run timed from `run` to report. Several
/// sessions average out how much the campaign's cost depends on its seed.
pub fn steady(first: u64, sessions: u64, width: usize, per_session: Budget, trace: bool) -> Loop {
    let mut out = Loop::default();
    for seed in first..first + sessions {
        let clock = ShardClock::default();
        let session =
            workload::session(&Workload::Steady.spec(seed)).threads(width).sink(clock.handle());
        out.setup_s.push(workload::set_up(&session));
        session.run_with_threads(width).expect("fresh sessions cannot fail");
        clock.record(trace);
        let mut looped = Loop::default();
        host::reset_peak_rss();
        let (start, usage) = (Instant::now(), Usage::now());
        while per_session.allows(looped.attempted, start) {
            looped.attempted += 1;
            let t0 = Instant::now();
            let report = session.run_with_threads(width).expect("fresh sessions cannot fail");
            looped.finished.push(finished(seed, t0, &report));
        }
        out.absorb(close(looped, start, usage, &clock));
    }
    out
}
