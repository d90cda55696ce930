//! Out-of-process crash recovery: SIGKILL a lease-holding worker mid-shard
//! and prove the daemon expires the orphaned lease, reclaims the shard,
//! re-runs it, and merges a final report bit-identical to the
//! uninterrupted single-process run — at pool widths 1, 2, and 4.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use comfort_core::checkpoint::{report_checksum, CampaignCheckpoint, LeaseAction};
use comfort_core::session::CampaignSession;
use comfort_lm::GeneratorConfig;
use comfort_service::daemon::{CampaignState, Daemon, ServiceConfig};
use comfort_service::metrics::MetricsSnapshot;
use comfort_service::spec::CampaignSpec;
use comfort_telemetry::{EventKind, MemorySink, SinkHandle};

fn crash_spec(journal: &Path) -> CampaignSpec {
    CampaignSpec {
        tenant: "crash-lab".to_string(),
        seed: Some(77),
        corpus_programs: Some(60),
        lm: Some(GeneratorConfig { order: 6, bpe_merges: 120, top_k: 8, max_tokens: 400 }),
        max_cases: Some(30),
        shard_cases: Some(15),
        fuel: Some(200_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        checkpoint: Some(journal.display().to_string()),
        ..CampaignSpec::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("comfort-crash-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Spawns `comfortd --worker-once` against `journal`, waits until its
/// lease acquisition is durably journalled, then SIGKILLs it inside the
/// hold window — leaving a held lease with no shard record behind.
fn crash_a_worker_mid_shard(spec_file: &Path, journal: &Path) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_comfortd"))
        .args([
            "--worker-once",
            "--spec",
            &spec_file.display().to_string(),
            "--worker",
            "doomed",
            "--ttl-millis",
            "200",
            "--hold-millis",
            "120000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn comfortd --worker-once");

    let deadline = Instant::now() + Duration::from_secs(120);
    let lease_journalled = loop {
        if let Some(status) = child.try_wait().expect("poll child") {
            panic!("worker-once exited early ({status}) instead of holding its lease");
        }
        if journal.exists() {
            if let Ok((checkpoint, _)) = CampaignCheckpoint::load(journal) {
                if checkpoint
                    .leases
                    .iter()
                    .any(|l| l.action == LeaseAction::Acquired && l.worker == "doomed")
                {
                    break true;
                }
            }
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    // SIGKILL: no destructors, no Released record — the worker simply
    // vanishes while holding the lease.
    child.kill().expect("SIGKILL worker");
    let _ = child.wait();
    assert!(lease_journalled, "worker never journalled its lease acquisition");

    let (checkpoint, _) = CampaignCheckpoint::load(journal).expect("journal readable after kill");
    assert!(checkpoint.shards.is_empty(), "no shard may have committed before the kill");
    let held = checkpoint.latest_leases();
    assert!(
        held.iter().any(|l| l.action == LeaseAction::Acquired),
        "journal must end with the orphaned lease held"
    );
}

#[test]
fn sigkilled_worker_is_reclaimed_and_resume_is_bit_identical_at_1_2_4_workers() {
    // The uninterrupted single-process baseline, checked at several thread
    // counts: the library's determinism contract makes them all agree.
    let mut bare = crash_spec(&temp_path("unused"));
    bare.checkpoint = None;
    let baseline = {
        let config = bare.build_config().expect("spec builds");
        let report =
            CampaignSession::new(config).run_with_threads(1).expect("baseline run succeeds");
        report_checksum(&report)
    };
    for threads in [2usize, 4] {
        let config = bare.build_config().expect("spec builds");
        let report =
            CampaignSession::new(config).run_with_threads(threads).expect("baseline run succeeds");
        assert_eq!(
            report_checksum(&report),
            baseline,
            "library baseline must not depend on thread count"
        );
    }

    for workers in [1usize, 2, 4] {
        let journal = temp_path(&format!("w{workers}.ckpt"));
        let spec = crash_spec(&journal);
        let spec_file = temp_path(&format!("w{workers}.spec.json"));
        std::fs::write(&spec_file, spec.to_json()).expect("write spec file");

        crash_a_worker_mid_shard(&spec_file, &journal);

        // A daemon in a later life adopts the orphaned lease from the
        // journal; its supervisor sees no progress, expires it after the
        // recorded TTL, reclaims the shard, and re-runs it.
        let service_events = MemorySink::new();
        let daemon = Daemon::start(ServiceConfig {
            workers,
            lease_ttl: Duration::from_millis(150),
            heartbeat: Duration::from_millis(25),
            sink: SinkHandle::new(service_events.clone()),
            ..ServiceConfig::default()
        });
        let id = daemon.submit(&spec).expect("crashed campaign resubmits cleanly");
        let status = daemon.wait(&id, Duration::from_secs(300)).expect("campaign exists");

        assert_eq!(status.state, CampaignState::Completed, "workers={workers}");
        assert!(status.resumed, "the journal marks the campaign resumed");
        assert!(status.reclaims >= 1, "the orphaned lease must have been reclaimed");
        assert_eq!(
            status.checksum,
            Some(baseline),
            "resumed report diverges from the uninterrupted run at workers={workers}"
        );

        // The lease lifecycle is visible in both ledgers and they agree:
        // expiry and reclaim events were emitted, counted, and conserved.
        let events = service_events.events();
        let expired =
            events.iter().filter(|e| matches!(e.kind, EventKind::LeaseExpired { .. })).count()
                as u64;
        let reclaimed =
            events.iter().filter(|e| matches!(e.kind, EventKind::LeaseReclaimed { .. })).count()
                as u64;
        assert!(expired >= 1, "orphaned lease must expire (workers={workers})");
        assert_eq!(expired, reclaimed, "every expiry is reclaimed exactly once");
        let snap = daemon.metrics();
        assert_eq!(
            MetricsSnapshot::from_events(events.iter()),
            snap,
            "the sink's stream folds to different counters"
        );
        snap.leases_conserved(daemon.leases_held()).expect("lease ledger conserved");
        snap.campaigns_conserved(daemon.campaigns_active()).expect("campaign ledger conserved");

        daemon.drain();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&spec_file);
    }
}

#[test]
fn comfortctl_inspects_a_crashed_journal_offline() {
    let journal = temp_path("inspect.ckpt");
    let spec = crash_spec(&journal);
    let spec_file = temp_path("inspect.spec.json");
    std::fs::write(&spec_file, spec.to_json()).expect("write spec file");

    crash_a_worker_mid_shard(&spec_file, &journal);

    let output = Command::new(env!("CARGO_BIN_EXE_comfortctl"))
        .args(["journal", "inspect", &journal.display().to_string()])
        .output()
        .expect("run comfortctl journal inspect");
    assert!(output.status.success(), "inspect failed: {output:?}");
    let text = String::from_utf8(output.stdout).expect("utf-8 report");
    assert!(text.contains("doomed"), "lease holder missing from report:\n{text}");
    assert!(text.contains("acquired"), "lease action missing from report:\n{text}");

    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&spec_file);
}
