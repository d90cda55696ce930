//! Two runs of a workload at one seed must do the same work: the same
//! stage invocations and items, the same execution dedup, the same lease
//! and worker counts, and the same journal bytes. Run with
//! `cargo test --release` after building the release `comfortd` into the
//! same target directory (see `README.md`).

use std::path::{Path, PathBuf};

use comfort_telemetry::Stage;
use perfbench::layers::deterministic_journal_bytes;
use perfbench::service::{self, Counts, Isolation};
use perfbench::workload::{Budget, Loop, Seeds, DEFAULT_SEED};
use perfbench::{host, library};

/// What must repeat exactly, per campaign seed.
#[derive(Debug, PartialEq)]
struct Work {
    seed: u64,
    checksum: u64,
    stages: Vec<(u64, u64)>,
    executions_saved: u64,
    journal_bytes: Option<u64>,
}

fn work(looped: &Loop, scratch: &Path) -> Vec<Work> {
    assert!(looped.failures.is_empty(), "failures: {:?}", looped.failures);
    let mut out: Vec<Work> = looped
        .finished
        .iter()
        .map(|f| Work {
            seed: f.seed,
            checksum: f.checksum,
            stages: Stage::ALL
                .iter()
                .map(|&s| (f.metrics.stage(s).invocations, f.metrics.stage(s).items))
                .collect(),
            executions_saved: f.metrics.executions_saved,
            journal_bytes: f.journal.as_ref().map(|j| deterministic_journal_bytes(j, scratch)),
        })
        .collect();
    out.sort_by_key(|w| w.seed);
    out
}

/// The counts that must repeat; renewals follow heartbeat timing and are
/// left out.
fn repeatable(c: Counts) -> Counts {
    Counts { leases_renewed: 0, ..c }
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("work dir");
    dir
}

#[test]
fn oneshot_repeats_and_gives_the_pinned_checksum() {
    let run =
        || library::oneshot(&Seeds::from(DEFAULT_SEED), host::width(), Budget::Campaigns(2), false);
    let scratch = work_dir("oneshot").join("scratch.ckpt");
    let first = work(&run(), &scratch);
    assert_eq!(first.len(), 2);
    assert_eq!(first[0].checksum, 0xa92f_73d7_d5a0_c004);
    assert_eq!(first, work(&run(), &scratch));
}

#[test]
fn steady_repeats_across_sessions() {
    let run = || library::steady(DEFAULT_SEED, 1, host::width(), Budget::Campaigns(1), false);
    let scratch = work_dir("steady").join("scratch.ckpt");
    let first = work(&run(), &scratch);
    assert!(first[0].stages[Stage::Reduction.index()].0 > 0, "steady must reduce");
    assert_eq!(first, work(&run(), &scratch));
}

fn service_repeats(isolation: Isolation, name: &str) {
    let run = |attempt: usize| {
        let dir = work_dir(&format!("{name}-{attempt}"));
        let run = service::run(
            &isolation,
            &Seeds::from(DEFAULT_SEED),
            host::width(),
            Budget::Campaigns(3),
            false,
            &dir,
        );
        let work = work(&run.looped, &dir.join("scratch.ckpt"));
        let _ = std::fs::remove_dir_all(&dir);
        (work, repeatable(run.counts))
    };
    let (first, counts) = run(0);
    assert_eq!(first.len(), 3);
    assert_eq!(first[0].checksum, 0xa92f_73d7_d5a0_c004);
    assert!(first.iter().all(|w| w.journal_bytes.unwrap_or(0) > 0));
    assert_eq!(counts.leases_acquired, 12, "three campaigns of four shards");
    assert_eq!((first, counts), run(1));
}

#[test]
fn service_threads_repeats() {
    service_repeats(Isolation::Threads, "threads");
}

#[test]
fn service_fleet_repeats() {
    // The release `comfortd` sits beside this test's `deps` directory when
    // both are built into one target directory.
    let exe = std::env::current_exe().expect("test executable path");
    let comfortd = exe.parent().and_then(Path::parent).expect("target dir").join("comfortd");
    assert!(
        comfortd.exists(),
        "{} is missing: build it first with \
         `cargo build --release -p comfort-service --bin comfortd` into the same target directory",
        comfortd.display()
    );
    service_repeats(Isolation::Fleet(comfortd), "fleet");
}
