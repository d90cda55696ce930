//! The repository benchmark: what a caller waits for, from a campaign spec
//! to its report, in each of the three ways a campaign is run — the library
//! `CampaignSession`, the `Daemon` with thread workers, and the `Daemon`
//! with jailed `comfortd --worker-once` process workers.
//!
//! [`run`] runs one named workload from a workload seed for a wall-clock
//! budget, checks every report against a reference, and returns the
//! end-to-end metrics (untraced) or the per-layer metrics (traced). See
//! `README.md` in this directory for the workloads and the layer map.

pub mod host;
pub mod layers;
pub mod library;
pub mod metrics;
pub mod service;
pub mod stats;
pub mod workload;

use std::path::PathBuf;
use std::time::Duration;

use crate::layers::JournalProbe;
use crate::metrics::{Layers, Metric};
use crate::service::{Isolation, ServiceRun};
use crate::workload::{Budget, Loop, References, Seeds, Workload, STEADY_SESSIONS};

/// One-shot-spec set-ups timed alone before the timed loop, and again
/// after it. With the loop's own set-ups, their median is `setup_s`.
pub const SETUP_REPS: u64 = 3;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; campaign seeds are `seed`, `seed + 1`, ...
    pub seed: u64,
    /// Wall-clock budget of the timed loop.
    pub seconds: Duration,
    /// Report per-layer metrics (a traced run) instead of end-to-end ones.
    pub trace: bool,
    /// The release `comfortd` binary fleet workers exec.
    pub comfortd: PathBuf,
    /// Directory for journals; emptied first.
    pub work_dir: PathBuf,
}

/// What one invocation measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The metrics to report, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Campaigns started in timed loops.
    pub attempted: u64,
    /// One line per failed campaign.
    pub failures: Vec<String>,
    /// The pool / executor width used.
    pub width: usize,
    /// Human-readable notes: sample counts, percentiles, set-up split.
    pub notes: Vec<String>,
}

/// Runs the workload `opts` names and checks its outputs.
pub fn run(opts: &Options) -> std::io::Result<Outcome> {
    let width = host::width();
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir)?;
    let work_dir = opts.work_dir.canonicalize()?;
    let w = opts.workload;
    let seeds = Seeds::from(opts.seed);
    let mut references = References::new(w);
    let mut setup_s = Vec::new();

    // Set-up timed alone, before the loop: the references of the first
    // campaign seeds, untimed otherwise. They also warm the process.
    let first = match w {
        Workload::Steady => STEADY_SESSIONS,
        _ => SETUP_REPS,
    };
    setup_s.extend((opts.seed..opts.seed + first).map(|s| references.add(s)));
    // The set-up phases are timed here too, in the same state of the process
    // as those set-ups.
    let phases = opts.trace.then(|| layers::setup_phases(&w.spec(opts.seed)));
    let isolation = match w {
        Workload::ServiceFleet => Isolation::Fleet(opts.comfortd.canonicalize()?),
        _ => Isolation::Threads,
    };

    // A traced run times an untraced and a traced loop of half the budget
    // each, so that it measures the tracing overhead too.
    let budget = if opts.trace { opts.seconds / 2 } else { opts.seconds };
    let run_loop = |traced: bool| -> ServiceRun {
        let looped = match w {
            Workload::Oneshot => library::oneshot(&seeds, width, Budget::For(budget), traced),
            Workload::Steady => {
                let per_session = Budget::For(budget / STEADY_SESSIONS as u32);
                library::steady(opts.seed, STEADY_SESSIONS, width, per_session, traced)
            }
            _ => {
                let budget = Budget::For(budget);
                return service::run(&isolation, &seeds, width, budget, traced, &work_dir);
            }
        };
        ServiceRun { looped, ..ServiceRun::default() }
    };
    let untraced = run_loop(false);
    let traced = opts.trace.then(|| run_loop(true));
    if w != Workload::Steady {
        let specs = (opts.seed..opts.seed + SETUP_REPS).map(|s| w.spec(s));
        setup_s.extend(specs.map(|spec| workload::set_up(&workload::session(&spec))));
    }

    let mut failures = Vec::new();
    let mut attempted = 0;
    for run in std::iter::once(&untraced).chain(traced.as_ref()) {
        setup_s.extend(&run.looped.setup_s);
        attempted += run.looped.attempted;
        failures.extend(run.looped.failures.iter().cloned());
        references.fill(&run.looped, width);
        failures.extend(references.verify(&run.looped));
    }

    let mut notes = vec![notes(&traced.as_ref().unwrap_or(&untraced).looped, &setup_s)];
    let metrics = match &traced {
        None => metrics::end_to_end(&untraced.looped, &setup_s),
        Some(traced) => {
            let spec = w.spec(opts.seed);
            let phases = phases.expect("traced runs time the set-up phases");
            notes.push(format!(
                "set-up phases sum to {:.1} ms beside an untraced session set-up of {:.1} ms",
                phases.sum_ms(),
                stats::median(&setup_s) * 1e3
            ));
            let journal = match traced.looped.finished.first().and_then(|f| f.journal.as_ref()) {
                Some(path) => layers::journal_probe(path, &work_dir.join("probe.ckpt")),
                None => JournalProbe::default(),
            };
            metrics::per_layer(&Layers {
                traced: &traced.looped,
                untraced: &untraced.looped,
                width,
                setup_s: &setup_s,
                phases,
                interp: layers::interp_probe(&spec),
                journal,
                counts: traced.counts,
                daemon: &traced.trace,
            })
        }
    };
    std::fs::remove_dir_all(&work_dir)?;
    Ok(Outcome { metrics, attempted, failures, width, notes })
}

/// Sample counts behind the timing metrics of `looped`.
fn notes(looped: &Loop, setup_s: &[f64]) -> String {
    let waits: Vec<f64> = looped.finished.iter().map(|f| f.wait_s).collect();
    let t = stats::tail(&waits);
    format!(
        "{} reports in {:.2} s; report_tail_s is p{:.1} of {} waits ({} beyond it); \
         setup_s is the median of {} set-ups",
        looped.finished.len(),
        looped.wall_s,
        t.percentile,
        t.samples,
        t.beyond,
        setup_s.len()
    )
}
