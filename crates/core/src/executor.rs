//! Sharded, deterministic parallel campaign executor.
//!
//! The paper's evaluation runs 250k cases over 102 testbeds in a 200-hour
//! budget; a strictly serial loop cannot approach that. This module splits a
//! campaign's `max_cases` budget into **shards** — independent
//! sub-campaigns whose seeds are a pure function of `(master_seed,
//! shard_index)` — runs them on a `std::thread` worker pool, and merges the
//! shard reports into one [`CampaignReport`].
//!
//! # Determinism contract
//!
//! * The shard plan depends only on the configuration (`max_cases`,
//!   `shard_cases`, `seed`) — never on thread count or hardware.
//! * `threads` affects scheduling only: shard reports are collected by
//!   shard index and merged in shard order, so the merged report is
//!   **bit-identical** at `threads = 1`, `2`, `8`, or any other width.
//! * A single-shard plan (`shard_cases = 0`, the default) reproduces the
//!   legacy serial `Campaign::run` case stream exactly.
//!
//! Shards are the only unit of parallelism: each shard runs its cases, and
//! each case its testbed matrix, serially on the worker that claimed it
//! (see [`run_case_hardened`](crate::resilience::run_case_hardened)). A plan
//! with fewer shards than `threads` spawns one worker per pending shard, so
//! a single-shard plan runs on one thread at any width.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use comfort_engines::Testbed;
use comfort_lm::Generator;
use comfort_telemetry::{
    Event, EventKind, MemorySink, ProgressHandle, Recorder, SinkHandle, CONTROL_SHARD, MERGE_SHARD,
};

use crate::campaign::{testbeds_for, Campaign, CampaignConfig, CampaignReport};
use crate::checkpoint::{
    config_fingerprint, CampaignCheckpoint, CheckpointError, CheckpointJournal, LeaseRecord,
    RecoveryReport, ResumeInfo, ShardRecord,
};
use crate::filter::BugTree;
use crate::resilience::CancelToken;

// The executor shares programs, testbeds, and the trained generator across
// worker threads by reference; these assertions pin the Send/Sync audit of
// the engine substrate at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Testbed>();
    assert_send_sync::<comfort_engines::Engine>();
    assert_send_sync::<comfort_syntax::Program>();
    assert_send_sync::<Generator>();
    assert_send_sync::<CampaignReport>();
};

/// One shard's slice of the campaign budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Position in the shard plan (merge order).
    pub index: usize,
    /// The shard's campaign seed, `mix(master_seed, index)`.
    pub seed: u64,
    /// The shard's share of `max_cases`.
    pub cases: usize,
}

/// Derives a shard's seed from the master seed (splitmix64-style mixing, so
/// neighbouring shard indices produce unrelated streams).
pub fn shard_seed(master_seed: u64, shard_index: u64) -> u64 {
    let mut z = master_seed
        .wrapping_add(shard_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `config.max_cases` into the shard plan — a pure function of the
/// configuration. With `shard_cases = 0` (or one shard's worth of budget)
/// the plan is a single shard carrying the master seed, i.e. exactly the
/// legacy serial campaign.
pub fn plan_shards(config: &CampaignConfig) -> Vec<ShardSpec> {
    let per_shard = if config.shard_cases == 0 { config.max_cases } else { config.shard_cases };
    let count = config.max_cases.div_ceil(per_shard.max(1)).max(1);
    if count == 1 {
        return vec![ShardSpec { index: 0, seed: config.seed, cases: config.max_cases }];
    }
    // Even split: the first `max_cases % count` shards carry one extra case,
    // so the shares always sum to exactly `max_cases`.
    let base = config.max_cases / count;
    let extra = config.max_cases % count;
    (0..count)
        .map(|i| ShardSpec {
            index: i,
            seed: shard_seed(config.seed, i as u64),
            cases: base + usize::from(i < extra),
        })
        .collect()
}

/// Resolves a `threads` knob: `0` means all available parallelism.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// Merges per-shard reports (in shard order) into one campaign report.
///
/// Counters are summed; each bug's `sim_hours` is re-based by the simulated
/// time of the preceding shards (shards model consecutive slices of one
/// testing budget); bugs whose [`BugKey`](crate::filter::BugKey) was already
/// reported by an earlier shard are counted into `duplicates_filtered`
/// instead of being reported twice.
pub fn merge_shard_reports(shard_reports: &[CampaignReport]) -> CampaignReport {
    merge_shard_reports_with_sink(shard_reports, &SinkHandle::null())
}

/// [`merge_shard_reports`], additionally emitting a cross-shard
/// [`BugDeduped`](comfort_telemetry::EventKind::BugDeduped) event (stamped
/// with the [`MERGE_SHARD`] pseudo-shard) for every bug an earlier shard
/// already reported. Metrics merge conservation-exactly: every counter of
/// the merged value is the sum of the shard values, with cross-shard
/// duplicates moved from `bugs_reported` to `bugs_deduped`.
pub fn merge_shard_reports_with_sink(
    shard_reports: &[CampaignReport],
    sink: &SinkHandle,
) -> CampaignReport {
    let mut merged = CampaignReport::default();
    let mut tree = BugTree::new();
    let mut recorder = Recorder::new(sink.clone(), MERGE_SHARD);
    for report in shard_reports {
        merged.cases_run += report.cases_run;
        merged.parse_errors += report.parse_errors;
        merged.passes += report.passes;
        merged.deviations_observed += report.deviations_observed;
        merged.duplicates_filtered += report.duplicates_filtered;
        merged.metrics.merge_from(&report.metrics);
        if merged.health.is_empty() {
            merged.health = report.health.clone();
        } else {
            debug_assert_eq!(merged.health.len(), report.health.len());
            for (acc, shard) in merged.health.iter_mut().zip(&report.health) {
                acc.merge_from(shard);
            }
        }
        for bug in &report.bugs {
            if tree.observe(&bug.key) {
                let mut rebased = bug.clone();
                rebased.sim_hours += merged.sim_hours;
                merged.bugs.push(rebased);
            } else {
                merged.duplicates_filtered += 1;
                merged.metrics.dedup_reported_bug();
                recorder.emit(EventKind::BugDeduped {
                    engine: bug.key.engine.as_str().to_string(),
                    key: bug.key.to_string(),
                    cross_shard: true,
                });
            }
        }
        merged.sim_hours += report.sim_hours;
    }
    merged
}

/// The cold path of every campaign: trains the generator on the seed's
/// corpus and builds the testbed matrix. Both depend only on the config, so
/// every shard of a campaign shares one result.
pub(crate) fn set_up(config: &CampaignConfig) -> (Arc<Generator>, Vec<Testbed>) {
    let corpus = comfort_corpus::training_corpus(config.seed, config.corpus_programs);
    (Arc::new(Generator::train(&corpus, config.lm.clone())), testbeds_for(config))
}

/// The sharded campaign executor.
///
/// Trains the language model **once** (training is a pure function of the
/// master seed and LM config, which all shards share) and builds the
/// testbed matrix once; each shard then runs a [`Campaign`] over its slice
/// of the budget with its derived seed.
///
/// ```no_run
/// use comfort_core::campaign::CampaignConfig;
/// use comfort_core::executor::ShardedCampaign;
///
/// let config = CampaignConfig::builder()
///     .max_cases(240)
///     .shard_cases(40) // 6 shards
///     .threads(0)      // all cores
///     .build()
///     .expect("valid config");
/// let report = ShardedCampaign::new(config).run_with_threads(0);
/// println!("{} bugs", report.bugs.len());
/// ```
///
/// Most callers should drive it through
/// [`CampaignSession`](crate::session::CampaignSession), which adds
/// resume-awareness and chainable scheduling overrides on top.
pub struct ShardedCampaign {
    config: CampaignConfig,
    generator: Arc<Generator>,
    testbeds: Vec<Testbed>,
    progress: ProgressHandle,
}

impl ShardedCampaign {
    /// Trains the generator and prepares the shared testbed matrix.
    pub fn new(config: CampaignConfig) -> Self {
        let (generator, testbeds) = set_up(&config);
        ShardedCampaign { config, generator, testbeds, progress: ProgressHandle::new() }
    }

    /// The live progress handle for this executor. Poll it from another
    /// thread while a run executes: completed-case counts are
    /// monotonically increasing, and per-shard snapshots carry throughput.
    pub fn progress(&self) -> ProgressHandle {
        self.progress.clone()
    }

    /// Replaces the progress handle with a caller-owned one (the `Comfort`
    /// facade shares a single handle across budgeted runs).
    pub fn attach_progress(&mut self, progress: ProgressHandle) {
        self.progress = progress;
    }

    /// The shard plan this executor will run.
    pub fn plan(&self) -> Vec<ShardSpec> {
        plan_shards(&self.config)
    }

    /// Runs the campaign on up to `threads` workers, one per pending shard
    /// (`0` = available parallelism). The report is bit-identical for every
    /// `threads` value. A configured checkpoint journal is started afresh.
    ///
    /// Telemetry keeps the same contract: each shard's event stream is
    /// buffered and flushed to the configured sink as soon as every earlier
    /// shard has flushed, so the sink observes events in logical `(shard,
    /// seq)` order — byte-identical (modulo wall-clock fields) at every
    /// thread count — while shard 0's events still arrive as soon as shard 0
    /// finishes, not at the end of the whole run.
    pub fn run_with_threads(&self, threads: usize) -> CampaignReport {
        self.drive(threads, ShardLedger::fresh(&self.config, &self.progress))
    }

    /// Runs the campaign on up to `threads` workers with crash-safe
    /// resume: if the configured checkpoint journal already exists on disk,
    /// its intact shard records are salvaged and fed straight into the
    /// order-preserving merge, and only the missing shards re-run — yielding
    /// a report **bit-identical** to an uninterrupted run (in every
    /// deterministic field; see
    /// [`report_to_json_deterministic`](crate::checkpoint::report_to_json_deterministic)).
    ///
    /// Fails if the config has no checkpoint path, or the journal on disk
    /// fails [`ShardLedger::open`]'s resumability check.
    pub fn run_resumable_with_threads(
        &self,
        threads: usize,
    ) -> Result<CampaignReport, CheckpointError> {
        if self.config.checkpoint.is_none() {
            return Err(CheckpointError::NoCheckpointPath);
        }
        Ok(self.drive(threads, ShardLedger::open(&self.config, &self.progress)?))
    }

    /// The executor core: claims the ledger's pending shards onto workers,
    /// stages, commits and flushes each completed shard, honours
    /// cooperative shutdown, and lets the ledger merge in shard order.
    fn drive(&self, threads: usize, ledger: ShardLedger) -> CampaignReport {
        let pending = ledger.pending();
        // One worker per pending shard, up to the width: a resumed run with
        // one shard left spawns one thread.
        let workers = resolve_threads(threads).min(pending.len());

        // Arm the wall-clock deadline exactly once, at campaign start; the
        // token is shared with every shard config clone, so shard-level
        // re-arming is a no-op and per-case checks see the same instant.
        if let Some(deadline) = self.config.deadline {
            self.config.cancel.arm_deadline(std::time::Instant::now() + deadline);
        }

        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // Cooperative shutdown at the shard boundary: claimed
                    // shards drain at their next cancellation point; nothing
                    // new is claimed.
                    if self.config.cancel.is_cancelled() {
                        break;
                    }
                    let Some(spec) = pending.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    let attempt = MemorySink::new();
                    let report = self.run_shard(spec, &attempt);
                    if report.interrupted {
                        // A partially-run shard is discarded whole: its
                        // events would desync the replayed stream, and
                        // resume re-runs the shard from scratch.
                        break;
                    }
                    ledger.stage(spec.index, report);
                    ledger.commit(spec.index, attempt.take(), Commit::Append);
                    ledger.flush(spec.index);
                });
            }
        });
        ledger.finish()
    }

    /// Runs one shard as a plain serial campaign over its budget slice,
    /// buffering its event stream in `buffer` for in-order flushing.
    ///
    /// Public so external supervisors (the `comfort-service` daemon, its
    /// single-shot worker mode) can execute individual leased shards with
    /// exactly the machinery the executor uses internally — same derived
    /// seed, same buffered stream — and therefore merge to bit-identical
    /// reports through a [`ShardLedger`].
    pub fn run_shard(&self, spec: &ShardSpec, buffer: &MemorySink) -> CampaignReport {
        let mut config = self.config.clone();
        config.seed = spec.seed;
        config.max_cases = spec.cases;
        config.sink = SinkHandle::new(buffer.clone());
        let mut campaign =
            Campaign::with_shared(config, Arc::clone(&self.generator), self.testbeds.clone());
        campaign.set_shard(spec.index as u64);
        campaign.set_progress(self.progress.clone());
        campaign.run()
    }
}

/// What [`ShardLedger::open`] salvaged from a journal already on disk.
#[derive(Debug, Clone)]
pub struct Salvage {
    /// The journal the campaign resumes from.
    pub path: PathBuf,
    /// What recovery kept and dropped.
    pub recovery: RecoveryReport,
    /// Plan indices of the salvaged shard records, ascending.
    pub shards: Vec<usize>,
    /// The journal's last lease transition per shard, in shard order (empty
    /// for journals written by unsupervised runs) — the lease state a
    /// supervisor rebuilds after a restart.
    pub leases: Vec<LeaseRecord>,
}

/// How [`ShardLedger::commit`] reaches the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commit {
    /// This process ran the shard: append its record.
    Append,
    /// A worker process already appended the record: adopt it as is.
    Adopt,
}

/// The per-campaign shard bookkeeping every way of running a campaign
/// shares: the executor drives it with in-memory claims, the
/// `comfort-service` daemon with journalled leases.
///
/// It is the single owner of the journal-resumability rule and of the
/// `stage → commit → flush → finish` order:
///
/// * [`open`](Self::open) resumes a journal on disk only when its config
///   fingerprint, shard count and every record's `(seed, cases)` agree with
///   the config's plan; salvaged shards are replayed into their result
///   slots, event buffers, progress and the flush frontier exactly as if
///   they had just run.
/// * [`stage`](Self::stage) puts a shard's report in its slot.
/// * [`commit`](Self::commit) journals the shard record (or adopts one a
///   worker process wrote) and emits `CheckpointWritten`.
/// * [`flush`](Self::flush) marks the shard done; shard `i`'s events reach
///   the sink once shards `0..i` have flushed, so the sink observes logical
///   `(shard, seq)` order whatever order shards complete in.
/// * [`finish`](Self::finish) merges the flushed shards in shard order,
///   flags an interrupted run, and attaches resume provenance.
pub struct ShardLedger {
    plan: Vec<ShardSpec>,
    sink: SinkHandle,
    cancel: CancelToken,
    progress: ProgressHandle,
    slots: Vec<Mutex<Slot>>,
    frontier: Mutex<Frontier>,
    /// The write-ahead journal. Journaling is best-effort: a read-only
    /// filesystem degrades to an unjournaled run rather than failing it.
    journal: Option<CheckpointJournal>,
    /// Control-plane recorder: checkpoint/resume/interrupt events are
    /// operational facts about *this* execution, stamped with the
    /// CONTROL_SHARD pseudo-shard and excluded from determinism
    /// comparisons (`Event::is_control`).
    control: Mutex<Recorder>,
    checkpoints_written: AtomicU64,
    salvage: Option<Salvage>,
}

/// One shard's staged result and its buffered, not yet flushed events.
#[derive(Default)]
struct Slot {
    report: Option<CampaignReport>,
    events: Vec<Event>,
}

/// The ordered flush frontier: the next shard to flush and which shards
/// are done.
struct Frontier {
    next: usize,
    done: Vec<bool>,
}

impl ShardLedger {
    /// A ledger for a fresh run of `config`, starting a new journal (over
    /// any old one) when the config names a checkpoint path.
    pub fn fresh(config: &CampaignConfig, progress: &ProgressHandle) -> ShardLedger {
        let plan = plan_shards(config);
        let journal = config.checkpoint.as_ref().and_then(|path| {
            CheckpointJournal::create(path, config_fingerprint(config), plan.len() as u64).ok()
        });
        ShardLedger::new(config, plan, journal, progress)
    }

    /// A resume-aware ledger: salvages the config's checkpoint journal when
    /// one exists on disk, and is [`fresh`](Self::fresh) otherwise.
    ///
    /// Fails when the journal cannot be read, was written under another
    /// config fingerprint, or its shard plan disagrees with the config's.
    /// Nothing on disk changes unless the journal passes these checks.
    pub fn open(
        config: &CampaignConfig,
        progress: &ProgressHandle,
    ) -> Result<ShardLedger, CheckpointError> {
        let Some(path) = config.checkpoint.as_ref().filter(|path| path.exists()) else {
            return Ok(ShardLedger::fresh(config, progress));
        };
        let (checkpoint, recovery) = CampaignCheckpoint::load(path)?;
        let plan = plan_shards(config);
        let expected = config_fingerprint(config);
        if checkpoint.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                expected,
                found: checkpoint.fingerprint,
            });
        }
        if checkpoint.shards_total != plan.len() as u64 {
            return Err(CheckpointError::PlanMismatch(format!(
                "journal plans {} shards, config plans {}",
                checkpoint.shards_total,
                plan.len()
            )));
        }
        for record in &checkpoint.shards {
            let spec = plan.get(record.index as usize).ok_or_else(|| {
                CheckpointError::PlanMismatch(format!(
                    "record for out-of-plan shard {}",
                    record.index
                ))
            })?;
            if record.seed != spec.seed || record.cases != spec.cases as u64 {
                return Err(CheckpointError::PlanMismatch(format!(
                    "shard {}: journal has (seed {}, cases {}), plan derives (seed {}, cases {})",
                    record.index, record.seed, record.cases, spec.seed, spec.cases
                )));
            }
        }

        // Append past the salvaged prefix (with any torn tail truncated).
        let journal = CheckpointJournal::open_append(path, &recovery).ok();
        let ledger = ShardLedger::new(config, plan, journal, progress);
        ledger.control().emit(EventKind::CampaignResumed {
            shards_salvaged: checkpoint.shards.len() as u64,
            shards_total: ledger.plan.len() as u64,
            dropped_bytes: recovery.dropped_tail_bytes,
        });
        let leases = checkpoint.latest_leases().into_iter().cloned().collect();
        let mut shards = Vec::with_capacity(checkpoint.shards.len());
        for record in checkpoint.shards {
            let i = record.index as usize;
            progress.shard_started(i);
            for _ in 0..record.report.cases_run {
                progress.case_done(i);
            }
            for _ in 0..record.report.bugs.len() {
                progress.bug_found(i);
            }
            progress.shard_finished(i);
            *ledger.slot(i) = Slot { report: Some(record.report), events: record.events };
            ledger.flush(i);
            shards.push(i);
        }
        Ok(ShardLedger {
            salvage: Some(Salvage { path: path.clone(), recovery, shards, leases }),
            ..ledger
        })
    }

    fn new(
        config: &CampaignConfig,
        plan: Vec<ShardSpec>,
        journal: Option<CheckpointJournal>,
        progress: &ProgressHandle,
    ) -> ShardLedger {
        progress.reset(&plan.iter().map(|s| s.cases as u64).collect::<Vec<u64>>());
        ShardLedger {
            slots: plan.iter().map(|_| Mutex::default()).collect(),
            frontier: Mutex::new(Frontier { next: 0, done: vec![false; plan.len()] }),
            plan,
            sink: config.sink.clone(),
            cancel: config.cancel.clone(),
            progress: progress.clone(),
            journal,
            control: Mutex::new(Recorder::new(config.sink.clone(), CONTROL_SHARD)),
            checkpoints_written: AtomicU64::new(0),
            salvage: None,
        }
    }

    /// The shard plan.
    pub fn plan(&self) -> &[ShardSpec] {
        &self.plan
    }

    /// The progress handle salvaged shards were replayed into.
    pub fn progress(&self) -> &ProgressHandle {
        &self.progress
    }

    /// The write-ahead journal, when the run is journalled.
    pub fn journal(&self) -> Option<&CheckpointJournal> {
        self.journal.as_ref()
    }

    /// What [`open`](Self::open) salvaged, when the run resumed a journal.
    pub fn salvage(&self) -> Option<&Salvage> {
        self.salvage.as_ref()
    }

    /// The shards not yet flushed, in plan order.
    pub fn pending(&self) -> Vec<ShardSpec> {
        let frontier = self.frontier.lock().expect("flush frontier poisoned");
        self.plan.iter().filter(|s| !frontier.done[s.index]).copied().collect()
    }

    /// Puts shard `index`'s report in its result slot.
    pub fn stage(&self, index: usize, report: CampaignReport) {
        self.slot(index).report = Some(report);
    }

    /// Commits staged shard `index` with its event stream: journals the
    /// shard record (or, for [`Commit::Adopt`], takes the one a worker
    /// process already appended) and emits `CheckpointWritten`.
    pub fn commit(&self, index: usize, events: Vec<Event>, how: Commit) {
        let report = self.slot(index).report.clone().expect("a shard is staged before it commits");
        let cases_run = report.cases_run;
        let (written, events) = match (&self.journal, how) {
            (None, _) => (None, events),
            (Some(journal), Commit::Append) => {
                let spec = self.plan[index];
                let record = ShardRecord {
                    index: index as u64,
                    seed: spec.seed,
                    cases: spec.cases as u64,
                    report,
                    events,
                };
                (journal.append_shard(&record).ok(), record.events)
            }
            (Some(journal), Commit::Adopt) => {
                (Some(std::fs::metadata(journal.path()).map(|m| m.len()).unwrap_or(0)), events)
            }
        };
        self.slot(index).events = events;
        if let Some(journal_bytes) = written {
            self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            self.control().emit(EventKind::CheckpointWritten {
                checkpointed_shard: index as u64,
                cases_run,
                journal_bytes,
            });
        }
    }

    /// Marks shard `index` done and flushes every buffered stream at the
    /// in-order frontier.
    pub fn flush(&self, index: usize) {
        let mut frontier = self.frontier.lock().expect("flush frontier poisoned");
        frontier.done[index] = true;
        while frontier.next < frontier.done.len() && frontier.done[frontier.next] {
            for event in std::mem::take(&mut self.slot(frontier.next).events) {
                self.sink.emit(&event);
            }
            frontier.next += 1;
        }
    }

    /// Merges the flushed shards in shard order. A run with unflushed
    /// shards is flagged `interrupted` (with a `CampaignInterrupted`
    /// event); a resumed run carries its [`ResumeInfo`]. Call once: the
    /// merge takes the staged reports.
    pub fn finish(&self) -> CampaignReport {
        let done = self.frontier.lock().expect("flush frontier poisoned").done.clone();
        let reports: Vec<CampaignReport> = (0..self.plan.len())
            .filter(|&i| done[i])
            .map(|i| self.slot(i).report.take().expect("a flushed shard was staged"))
            .collect();
        let mut merged = merge_shard_reports_with_sink(&reports, &self.sink);
        if reports.len() < self.plan.len() {
            merged.interrupted = true;
            self.control().emit(EventKind::CampaignInterrupted {
                shards_completed: reports.len() as u64,
                shards_total: self.plan.len() as u64,
                reason: self.cancel.reason().to_string(),
            });
        }
        if let Some(salvage) = &self.salvage {
            merged.resume = Some(ResumeInfo {
                resumed_from: salvage.path.display().to_string(),
                shards_salvaged: salvage.shards.len() as u64,
                shards_rerun: (self.plan.len() - salvage.shards.len()) as u64,
                shards_total: self.plan.len() as u64,
                dropped_tail_bytes: salvage.recovery.dropped_tail_bytes,
                checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            });
        }
        merged
    }

    fn slot(&self, index: usize) -> std::sync::MutexGuard<'_, Slot> {
        self.slots[index].lock().expect("shard slot poisoned")
    }

    fn control(&self) -> std::sync::MutexGuard<'_, Recorder> {
        self.control.lock().expect("control recorder poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sharded_config() -> CampaignConfig {
        CampaignConfig::builder()
            .seed(11)
            .corpus_programs(80)
            .lm(comfort_lm::GeneratorConfig {
                order: 8,
                bpe_merges: 200,
                top_k: 10,
                max_tokens: 800,
            })
            .datagen(crate::datagen::DataGenConfig {
                max_mutants_per_program: 10,
                random_mutants: 2,
            })
            .max_cases(90)
            .fuel(200_000)
            .include_strict(false)
            .include_legacy(false)
            .reduce_cases(false)
            .shard_cases(30)
            .build()
            .expect("valid config")
    }

    #[test]
    fn shard_plan_is_even_and_exact() {
        // ceil(100/30) = 4 shards of 25
        let config =
            CampaignConfig { max_cases: 100, shard_cases: 30, ..CampaignConfig::default() };
        let plan = plan_shards(&config);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.iter().map(|s| s.cases).sum::<usize>(), 100);
        assert!(plan.iter().all(|s| s.cases == 25));
        // Distinct seeds per shard, all derived from the master seed.
        let mut seeds: Vec<u64> = plan.iter().map(|s| s.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn single_shard_plan_keeps_the_master_seed() {
        let config = CampaignConfig::default();
        let plan = plan_shards(&config);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].seed, config.seed);
        assert_eq!(plan[0].cases, config.max_cases);
    }

    #[test]
    fn uneven_budgets_still_sum_exactly() {
        // 5 shards: 21,21,21,20,20
        let config =
            CampaignConfig { max_cases: 103, shard_cases: 25, ..CampaignConfig::default() };
        let plan = plan_shards(&config);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.iter().map(|s| s.cases).sum::<usize>(), 103);
        let max = plan.iter().map(|s| s.cases).max().unwrap();
        let min = plan.iter().map(|s| s.cases).min().unwrap();
        assert!(max - min <= 1, "shares must differ by at most one case");
    }

    #[test]
    fn sharded_run_matches_across_thread_counts() {
        let executor = ShardedCampaign::new(sharded_config());
        let serial = executor.run_with_threads(1);
        let parallel = executor.run_with_threads(4);
        assert_eq!(serial.cases_run, parallel.cases_run);
        assert_eq!(serial.sim_hours, parallel.sim_hours);
        let ka: Vec<String> = serial.bugs.iter().map(|b| b.key.to_string()).collect();
        let kb: Vec<String> = parallel.bugs.iter().map(|b| b.key.to_string()).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn merge_preserves_counts_and_dedups_keys() {
        let executor = ShardedCampaign::new(sharded_config());
        let plan = executor.plan();
        assert_eq!(plan.len(), 3);
        let shard_reports: Vec<CampaignReport> =
            plan.iter().map(|s| executor.run_shard(s, &MemorySink::new())).collect();
        let merged = merge_shard_reports(&shard_reports);
        assert_eq!(merged.cases_run, shard_reports.iter().map(|r| r.cases_run).sum::<u64>());
        let total_bugs: usize = shard_reports.iter().map(|r| r.bugs.len()).sum();
        let cross_shard_dups: u64 = merged.duplicates_filtered
            - shard_reports.iter().map(|r| r.duplicates_filtered).sum::<u64>();
        assert_eq!(merged.bugs.len() + cross_shard_dups as usize, total_bugs);
        // Every surviving key is unique.
        let mut keys: Vec<String> = merged.bugs.iter().map(|b| b.key.to_string()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len());
    }
}
