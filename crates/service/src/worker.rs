//! The single-shot out-of-process shard worker (`comfortd --worker-once`).
//!
//! Three modes share one entry point:
//!
//! * **Standalone** (no `--shard`): the worker claims a shard through the
//!   journal itself — append an `Acquired` record, re-read the journal,
//!   and the *first* acquisition at the contested sequence wins (journal
//!   order is the tiebreak). The loser exits with a lease error and writes
//!   nothing further. Commits are fenced the same way: a worker whose
//!   sequence has been superseded must not append its shard record.
//! * **Directed** (`--shard N --lease-seq S`): a fleet supervisor already
//!   owns the lease (and journals every lease transition itself); the
//!   child just runs the shard, reports progress on stdout, and appends
//!   the shard record. Used by the daemon's process-isolation pool.
//! * **Probe** (`--probe --shard N --limit-cases M`): runs the first `M`
//!   cases of the shard with *no journal writes at all*. Under `--jail`
//!   an injected abort kills the process for real, so the exit status
//!   tells the poison-shard bisection whether the prefix is lethal.
//!
//! `--jail` additionally arms real chaos signals and is set by the fleet
//! supervisor, which wraps the process in rlimits and its own process
//! group (see [`crate::fleet`]).

use std::time::Duration;

use comfort_core::checkpoint::{
    CampaignCheckpoint, CheckpointError, CheckpointJournal, LeaseAction, LeaseRecord, ShardRecord,
};
use comfort_core::executor::{ShardLedger, ShardSpec};
use comfort_core::session::CampaignSession;
use comfort_telemetry::MemorySink;

use crate::spec::CampaignSpec;

/// A typed worker failure, classifiable by the supervisor through the
/// process exit code (see [`WorkerError::exit_code`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerError {
    /// The spec is invalid or names no checkpoint journal.
    Spec(String),
    /// The journal cannot be read, created, or appended.
    Journal(String),
    /// A lease race was lost or a commit was fenced off.
    Lease(String),
    /// Shard execution failed (escaped panic boundary).
    Exec(String),
    /// Nothing to do: every shard is already committed.
    Idle(String),
}

impl WorkerError {
    /// The process exit code for this error class (the supervisor's
    /// signal-free classification channel).
    pub fn exit_code(&self) -> u8 {
        match self {
            WorkerError::Spec(_) => 10,
            WorkerError::Journal(_) => 11,
            WorkerError::Lease(_) => 12,
            WorkerError::Exec(_) => 13,
            WorkerError::Idle(_) => 14,
        }
    }

    /// Maps an exit code back to its class label (`None` for codes this
    /// worker never produces).
    pub fn classify(code: i32) -> Option<&'static str> {
        match code {
            10 => Some("spec"),
            11 => Some("journal"),
            12 => Some("lease"),
            13 => Some("exec"),
            14 => Some("idle"),
            _ => None,
        }
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Spec(m) => write!(f, "spec error: {m}"),
            WorkerError::Journal(m) => write!(f, "journal error: {m}"),
            WorkerError::Lease(m) => write!(f, "lease error: {m}"),
            WorkerError::Exec(m) => write!(f, "exec error: {m}"),
            WorkerError::Idle(m) => write!(f, "idle: {m}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Options for one worker-once execution.
#[derive(Debug, Clone)]
pub struct WorkerOnceOptions {
    /// The campaign spec (must name a checkpoint journal except in probe
    /// mode).
    pub spec: CampaignSpec,
    /// Worker label recorded in the lease.
    pub worker: String,
    /// Lease TTL journalled with the acquisition (standalone mode).
    pub ttl_millis: u64,
    /// Sleep between acquiring the lease and running the shard — the
    /// window a crash-recovery test SIGKILLs this process in.
    pub hold_millis: u64,
    /// Directed mode: run exactly this shard.
    pub shard: Option<u64>,
    /// Directed mode: the supervisor-owned fencing sequence. When set the
    /// worker writes *no* lease records — the parent owns the lease ledger.
    pub lease_seq: Option<u64>,
    /// Probe mode: no journal writes; the exit status is the result.
    pub probe: bool,
    /// Run only the first `n` cases of the shard (probe bisection).
    pub limit_cases: Option<usize>,
    /// Arm real chaos signals: injected aborts kill this process.
    pub jail: bool,
    /// Print `progress <cases>` lines on stdout at this interval so a
    /// supervising parent can renew the lease on real progress.
    pub heartbeat_millis: Option<u64>,
}

impl WorkerOnceOptions {
    /// Standalone defaults for `spec` (the crash-recovery harness shape).
    pub fn standalone(spec: CampaignSpec, worker: &str) -> Self {
        WorkerOnceOptions {
            spec,
            worker: worker.to_string(),
            ttl_millis: 1000,
            hold_millis: 0,
            shard: None,
            lease_seq: None,
            probe: false,
            limit_cases: None,
            jail: false,
            heartbeat_millis: None,
        }
    }
}

/// The journal-order claim rule: among the lease records acquiring
/// `shard` at `lease_seq`, the **first in journal order** wins. Everyone
/// appends optimistically, re-reads, and defers to this function — append
/// order is the single serialization point, so exactly one worker wins.
pub fn claim_winner(leases: &[LeaseRecord], shard: u64, lease_seq: u64) -> Option<&LeaseRecord> {
    leases
        .iter()
        .find(|l| l.shard == shard && l.lease_seq == lease_seq && l.action == LeaseAction::Acquired)
}

/// The commit fencing rule: a worker holding `lease_seq` may append its
/// shard record only while no *newer* acquisition exists for the shard.
/// A record at a higher sequence means the lease was reclaimed and
/// re-granted — the stale holder's result must be discarded.
pub fn commit_fenced(leases: &[LeaseRecord], shard: u64, lease_seq: u64) -> bool {
    leases
        .iter()
        .any(|l| l.shard == shard && l.action == LeaseAction::Acquired && l.lease_seq > lease_seq)
}

/// Runs one shard under a journalled lease (or probes one, journal-free).
/// Returns a summary line for the CLI.
pub fn run_worker_once(opts: &WorkerOnceOptions) -> Result<String, WorkerError> {
    if opts.jail {
        comfort_engines::arm_real_chaos_signals();
    }
    let config = opts.spec.build_config().map_err(WorkerError::Spec)?;
    let path = config.checkpoint.clone();
    let session = CampaignSession::new(config);
    let plan = session.plan();

    if opts.probe {
        return run_probe(opts, &session, &plan);
    }

    let path = path.ok_or_else(|| {
        WorkerError::Spec("worker-once requires a checkpoint in the spec".to_string())
    })?;

    // Progress sampling: run_shard drives the session's shared progress
    // handle, so a sampler thread can stream `progress` lines to stdout.
    let progress = session.progress();
    progress.reset(&plan.iter().map(|s| s.cases as u64).collect::<Vec<u64>>());

    let (journal, target, lease_seq) = match (opts.shard, opts.lease_seq) {
        (Some(shard), Some(lease_seq)) => {
            // Directed mode: the supervisor owns the lease ledger; this
            // process only appends the shard record.
            if shard as usize >= plan.len() {
                return Err(WorkerError::Spec(format!(
                    "directed shard {shard} is outside the {}-shard plan",
                    plan.len()
                )));
            }
            let journal = CheckpointJournal::open_append_shared(&path)
                .map_err(|e| WorkerError::Journal(format!("cannot append to {path:?}: {e}")))?;
            (journal, shard, lease_seq)
        }
        (Some(_), None) | (None, Some(_)) => {
            return Err(WorkerError::Spec(
                "--shard and --lease-seq must be given together".to_string(),
            ));
        }
        (None, None) => claim_standalone(opts, &session, &path)?,
    };
    let directed = opts.lease_seq.is_some();

    // The kill window: a crash-recovery harness SIGKILLs us in here,
    // leaving the journal with a held lease and no shard record.
    std::thread::sleep(Duration::from_millis(opts.hold_millis));

    let spec = plan[target as usize];
    let buffer = MemorySink::new();
    let report = {
        let _beat = opts.heartbeat_millis.map(|millis| {
            ProgressBeat::start(progress.clone(), target as usize, Duration::from_millis(millis))
        });
        session.executor().run_shard(&spec, &buffer)
    };
    let record = ShardRecord {
        index: target,
        seed: spec.seed,
        cases: spec.cases as u64,
        report,
        events: buffer.events(),
    };

    if !directed {
        // Standalone commit fencing: re-read the journal; a newer
        // acquisition (or an existing record) means we were superseded.
        let (checkpoint, _) = CampaignCheckpoint::load(&path)
            .map_err(|e| WorkerError::Journal(format!("journal {path:?}: {e}")))?;
        if commit_fenced(&checkpoint.leases, target, lease_seq) {
            return Err(WorkerError::Lease(format!(
                "shard {target} lease seq {lease_seq} was superseded; discarding the result"
            )));
        }
        if checkpoint.shards.iter().any(|r| r.index == target) {
            return Err(WorkerError::Lease(format!(
                "shard {target} was already committed by another worker"
            )));
        }
    }

    journal.append_shard(&record).map_err(|e| WorkerError::Journal(e.to_string()))?;
    if !directed {
        journal
            .append_lease(&lease_record(opts, target, lease_seq, LeaseAction::Released))
            .map_err(|e| WorkerError::Journal(e.to_string()))?;
    }
    println!("committed {target}");
    Ok(format!(
        "worker {} committed shard {} ({} cases) under lease seq {}",
        opts.worker, target, record.report.cases_run, lease_seq
    ))
}

/// Probe mode: run the first `limit_cases` cases of the shard with no
/// journal writes. Under `--jail` a lethal case kills the process; a
/// clean exit means the prefix survived.
fn run_probe(
    opts: &WorkerOnceOptions,
    session: &CampaignSession,
    plan: &[ShardSpec],
) -> Result<String, WorkerError> {
    let shard =
        opts.shard.ok_or_else(|| WorkerError::Spec("--probe requires --shard".to_string()))?;
    let spec = *plan
        .get(shard as usize)
        .ok_or_else(|| WorkerError::Spec(format!("probe shard {shard} is out of plan")))?;
    let cases = opts.limit_cases.unwrap_or(spec.cases).min(spec.cases);
    // A prefix probe is valid because generation is sequential from the
    // shard seed: the first `cases` cases of the truncated spec are
    // exactly the first `cases` cases of the full shard.
    let probe_spec = ShardSpec { cases, ..spec };
    let progress = session.progress();
    progress.reset(&plan.iter().map(|s| s.cases as u64).collect::<Vec<u64>>());
    let buffer = MemorySink::new();
    let report = session.executor().run_shard(&probe_spec, &buffer);
    Ok(format!("probe survived shard {shard} prefix of {cases} cases ({} run)", report.cases_run))
}

/// Standalone claim: pick the first uncommitted shard, append `Acquired`,
/// re-read, and keep the claim only if this worker's record is the first
/// at the contested sequence.
fn claim_standalone(
    opts: &WorkerOnceOptions,
    session: &CampaignSession,
    path: &std::path::Path,
) -> Result<(CheckpointJournal, u64, u64), WorkerError> {
    // The library's resumability rule decides whether the journal on disk
    // belongs to this spec (and creates it when there is none yet).
    let ledger = ShardLedger::open(session.config(), &session.progress()).map_err(|e| match e {
        CheckpointError::FingerprintMismatch { .. } | CheckpointError::PlanMismatch(_) => {
            WorkerError::Spec(format!("journal {path:?} belongs to a different spec: {e}"))
        }
        e => WorkerError::Journal(format!("journal {path:?}: {e}")),
    })?;
    let (done, leases) =
        ledger.salvage().map_or((&[][..], &[][..]), |s| (&s.shards[..], &s.leases[..]));
    let target = (0..ledger.plan().len())
        .find(|i| !done.contains(i))
        .ok_or_else(|| WorkerError::Idle("every shard is already committed".to_string()))?
        as u64;
    let lease_seq = leases.iter().find(|l| l.shard == target).map_or(1, |l| l.lease_seq + 1);
    let journal = CheckpointJournal::open_append_shared(path)
        .map_err(|e| WorkerError::Journal(format!("cannot append to {path:?}: {e}")))?;

    journal
        .append_lease(&lease_record(opts, target, lease_seq, LeaseAction::Acquired))
        .map_err(|e| WorkerError::Journal(e.to_string()))?;

    // Claim verification: re-read and defer to journal order. Two racers
    // compute the same next sequence; the one whose append landed first
    // owns the lease, the other backs off without running anything.
    let (checkpoint, _) = CampaignCheckpoint::load(path)
        .map_err(|e| WorkerError::Journal(format!("journal {path:?}: {e}")))?;
    match claim_winner(&checkpoint.leases, target, lease_seq) {
        Some(winner) if winner.worker == opts.worker => Ok((journal, target, lease_seq)),
        Some(winner) => Err(WorkerError::Lease(format!(
            "lost the claim race for shard {target} seq {lease_seq} to worker '{}'",
            winner.worker
        ))),
        None => Err(WorkerError::Journal(format!(
            "own acquisition for shard {target} seq {lease_seq} is missing after append"
        ))),
    }
}

fn lease_record(
    opts: &WorkerOnceOptions,
    shard: u64,
    lease_seq: u64,
    action: LeaseAction,
) -> LeaseRecord {
    LeaseRecord {
        shard,
        worker: opts.worker.clone(),
        action,
        lease_seq,
        ttl_millis: opts.ttl_millis,
        unix_millis: std::time::SystemTime::now()
            .duration_since(std::time::SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or_default(),
    }
}

/// A sampler thread that prints `progress <cases>` lines while a shard
/// runs, so a supervising parent can renew the worker's lease on real
/// progress (and only on real progress — a wedged run prints nothing).
struct ProgressBeat {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressBeat {
    fn start(
        progress: comfort_telemetry::ProgressHandle,
        shard: usize,
        interval: Duration,
    ) -> ProgressBeat {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            use std::io::Write as _;
            let mut last = 0u64;
            while !flag.load(std::sync::atomic::Ordering::SeqCst) {
                std::thread::sleep(interval);
                let snap = progress.snapshot();
                let done = snap.shards.get(shard).map(|s| s.cases_done).unwrap_or_default();
                if done > last {
                    last = done;
                    println!("progress {done}");
                    let _ = std::io::stdout().flush();
                }
            }
        });
        ProgressBeat { stop, handle: Some(handle) }
    }
}

impl Drop for ProgressBeat {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lease(shard: u64, worker: &str, action: LeaseAction, lease_seq: u64) -> LeaseRecord {
        LeaseRecord {
            shard,
            worker: worker.to_string(),
            action,
            lease_seq,
            ttl_millis: 100,
            unix_millis: 0,
        }
    }

    #[test]
    fn exit_codes_round_trip_through_classification() {
        let errors = [
            WorkerError::Spec("s".into()),
            WorkerError::Journal("j".into()),
            WorkerError::Lease("l".into()),
            WorkerError::Exec("e".into()),
            WorkerError::Idle("i".into()),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in &errors {
            let code = e.exit_code();
            assert!(seen.insert(code), "exit codes must be distinct");
            assert!(WorkerError::classify(code as i32).is_some());
        }
        assert_eq!(WorkerError::classify(0), None);
        assert_eq!(WorkerError::classify(1), None);
    }

    #[test]
    fn journal_order_decides_the_claim_race() {
        let leases =
            vec![lease(0, "a", LeaseAction::Acquired, 1), lease(0, "b", LeaseAction::Acquired, 1)];
        assert_eq!(claim_winner(&leases, 0, 1).map(|l| l.worker.as_str()), Some("a"));
        // Reversed journal order reverses the winner.
        let leases =
            vec![lease(0, "b", LeaseAction::Acquired, 1), lease(0, "a", LeaseAction::Acquired, 1)];
        assert_eq!(claim_winner(&leases, 0, 1).map(|l| l.worker.as_str()), Some("b"));
    }

    #[test]
    fn fencing_rejects_superseded_sequences_only() {
        let leases = vec![
            lease(0, "a", LeaseAction::Acquired, 1),
            lease(0, "s", LeaseAction::Expired, 1),
            lease(0, "s", LeaseAction::Reclaimed, 1),
            lease(0, "b", LeaseAction::Acquired, 2),
        ];
        assert!(commit_fenced(&leases, 0, 1), "seq 1 was superseded by seq 2");
        assert!(!commit_fenced(&leases, 0, 2), "the current holder commits");
        assert!(!commit_fenced(&leases, 1, 1), "another shard's chain is independent");
    }
}
