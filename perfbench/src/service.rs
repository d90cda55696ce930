//! The daemon workloads: `service-threads` and `service-fleet`.
//!
//! One in-process [`Daemon`] per life serves [`CAMPAIGNS_PER_LIFE`]
//! campaigns and is then drained; lives follow each other until the budget
//! is spent. A fixed count per life keeps the memory the daemon retains for
//! finished campaigns independent of how fast they finish; the reported
//! peak resident set is the first life's. Within a life,
//! `width` clients across two tenants each submit the one-shot spec, wait
//! for its report, and submit the next seed (a closed loop).

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use comfort_core::checkpoint::report_checksum;
use comfort_service::daemon::{CampaignState, Daemon, IsolationMode, ServiceConfig};
use comfort_service::fleet::ProcessJail;
use comfort_service::metrics::MetricsSnapshot;
use comfort_telemetry::{Event, EventKind, Sink, SinkHandle};

use crate::host::{self, Usage};
use crate::workload::{Budget, Finished, Loop, Seeds, Workload};

/// Campaigns one daemon life serves before it is drained.
pub const CAMPAIGNS_PER_LIFE: u64 = 16;

/// The tenants clients submit as, round-robin by client.
pub const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// Lease TTL: long enough that no healthy worker's lease expires while a
/// fleet child trains its generator, so the workloads measure scheduling,
/// not crash recovery.
pub const LEASE_TTL: Duration = Duration::from_secs(30);

/// How long a client waits for one report before counting it failed.
pub const REPORT_TIMEOUT: Duration = Duration::from_secs(120);

/// Where leased shards execute.
#[derive(Debug, Clone)]
pub enum Isolation {
    /// On the daemon's worker threads.
    Threads,
    /// In jailed children of this `comfortd` binary.
    Fleet(PathBuf),
}

/// A service event as the tap saw it.
#[derive(Debug, Clone)]
enum Stamp {
    Acquired(String, u64),
    Released(String, u64),
    Finished(String),
}

/// A benchmark-owned `ServiceConfig.sink`: wakes clients when their
/// campaign finishes and, when tracing, timestamps every lease event.
struct Tap {
    finished: Mutex<HashSet<String>>,
    bell: Condvar,
    log: Option<Mutex<Vec<(Instant, Stamp)>>>,
}

impl Tap {
    fn new(trace: bool) -> Tap {
        Tap {
            finished: Mutex::new(HashSet::new()),
            bell: Condvar::new(),
            log: trace.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Blocks until campaign `id` has finished, or `timeout` passes.
    fn wait(&self, id: &str, timeout: Duration) -> bool {
        let finished = self.finished.lock().expect("tap poisoned");
        let (finished, _) = self
            .bell
            .wait_timeout_while(finished, timeout, |done| !done.contains(id))
            .expect("tap poisoned");
        finished.contains(id)
    }

    fn stamps(&self) -> Vec<(Instant, Stamp)> {
        self.log.as_ref().map(|log| log.lock().expect("tap poisoned").clone()).unwrap_or_default()
    }
}

struct TapSink(Arc<Tap>);

impl Sink for TapSink {
    fn emit(&self, event: &Event) {
        let now = Instant::now();
        let stamp = match &event.kind {
            EventKind::LeaseAcquired { campaign, lease_shard, .. } => {
                Stamp::Acquired(campaign.clone(), *lease_shard)
            }
            EventKind::LeaseReleased { campaign, lease_shard, .. } => {
                Stamp::Released(campaign.clone(), *lease_shard)
            }
            EventKind::CampaignFinished { campaign, .. } => {
                self.0.finished.lock().expect("tap poisoned").insert(campaign.clone());
                self.0.bell.notify_all();
                Stamp::Finished(campaign.clone())
            }
            _ => return,
        };
        if let Some(log) = &self.0.log {
            log.lock().expect("tap poisoned").push((now, stamp));
        }
    }
}

/// Service-plane counters summed over every daemon life of a loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Leases handed to workers.
    pub leases_acquired: u64,
    /// Heartbeat renewals.
    pub leases_renewed: u64,
    /// Leases released after a committed shard.
    pub leases_released: u64,
    /// Leases that outlived their TTL.
    pub leases_expired: u64,
    /// Expired leases returned to the pool.
    pub leases_reclaimed: u64,
    /// Submissions rejected by admission control.
    pub campaigns_rejected: u64,
    /// Worker children spawned.
    pub workers_spawned: u64,
    /// Worker children that died by signal.
    pub workers_died: u64,
}

impl Counts {
    fn add(&mut self, m: &MetricsSnapshot) {
        self.leases_acquired += m.leases_acquired;
        self.leases_renewed += m.leases_renewed;
        self.leases_released += m.leases_released;
        self.leases_expired += m.leases_expired;
        self.leases_reclaimed += m.leases_reclaimed;
        self.campaigns_rejected += m.campaigns_rejected;
        self.workers_spawned += m.workers_spawned;
        self.workers_died += m.workers_died;
    }
}

/// Per-layer daemon timings of a traced loop, one sample per call, lease or
/// campaign, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct DaemonTrace {
    /// `Daemon::submit` call durations.
    pub submit_ms: Vec<f64>,
    /// Submit → the campaign's first `LeaseAcquired`.
    pub queue_wait_ms: Vec<f64>,
    /// `LeaseAcquired` → `LeaseReleased`, per shard.
    pub lease_hold_ms: Vec<f64>,
    /// Last `LeaseReleased` → `CampaignFinished`.
    pub finalize_ms: Vec<f64>,
}

/// What a service loop observed.
#[derive(Debug, Default)]
pub struct ServiceRun {
    /// The end-to-end observations.
    pub looped: Loop,
    /// Service counters over all lives.
    pub counts: Counts,
    /// Daemon timings (traced loops only).
    pub trace: DaemonTrace,
    /// Each daemon life's peak resident set, in MB.
    pub life_peak_rss_mb: Vec<f64>,
}

/// What one client saw of one campaign.
struct Submitted {
    id: String,
    at: Instant,
    submit_ms: f64,
}

/// Runs the closed loop under `isolation` until `budget` is spent, with
/// each campaign's journal in `work_dir`.
pub fn run(
    isolation: &Isolation,
    seeds: &Seeds,
    width: usize,
    budget: Budget,
    trace: bool,
    work_dir: &Path,
) -> ServiceRun {
    let mut out = ServiceRun::default();
    let started = Mutex::new(0u64);
    let (start, usage) = (Instant::now(), Usage::now());
    while budget.allows(*started.lock().expect("counter poisoned"), start) {
        life(isolation, seeds, width, budget, trace, work_dir, (&started, start), &mut out);
    }
    let now = Usage::now();
    out.looped.wall_s = start.elapsed().as_secs_f64();
    out.looped.cpu_s = now.total_cpu_s() - usage.total_cpu_s();
    out.looped.child_cpu_s = (now.child_cpu - usage.child_cpu).as_secs_f64();
    // The first life's: later lives start from the heap the previous
    // daemon left fragmented, and their peaks vary from run to run.
    out.looped.peak_rss_mb = out.life_peak_rss_mb[0];
    out
}

/// One daemon life: start, serve up to `CAMPAIGNS_PER_LIFE` campaigns,
/// drain.
#[allow(clippy::too_many_arguments)]
fn life(
    isolation: &Isolation,
    seeds: &Seeds,
    width: usize,
    budget: Budget,
    trace: bool,
    work_dir: &Path,
    (started, start): (&Mutex<u64>, Instant),
    out: &mut ServiceRun,
) {
    host::reset_peak_rss();
    let tap = Arc::new(Tap::new(trace));
    let daemon = Daemon::start(ServiceConfig {
        workers: width,
        lease_ttl: LEASE_TTL,
        sink: SinkHandle::new(TapSink(Arc::clone(&tap))),
        isolation: match isolation {
            Isolation::Threads => IsolationMode::InProcess,
            Isolation::Fleet(comfortd) => {
                IsolationMode::Processes(ProcessJail::new(comfortd.clone()))
            }
        },
        ..ServiceConfig::default()
    });
    let in_life = Mutex::new(0u64);
    let claim = || {
        let mut started = started.lock().expect("counter poisoned");
        let mut in_life = in_life.lock().expect("counter poisoned");
        if *in_life >= CAMPAIGNS_PER_LIFE || !budget.allows(*started, start) {
            return None;
        }
        *started += 1;
        *in_life += 1;
        Some(seeds.take())
    };
    let results: Vec<(Loop, Vec<Submitted>)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..width)
            .map(|c| {
                let (daemon, tap, claim) = (&daemon, &tap, &claim);
                scope.spawn(move || client(c, daemon, tap, claim, trace, work_dir))
            })
            .collect();
        clients.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    daemon.drain();
    out.life_peak_rss_mb.push(host::peak_rss_mb());
    out.counts.add(&daemon.metrics());
    let stamps = tap.stamps();
    for (looped, submitted) in results {
        out.looped.attempted += looped.attempted;
        out.looped.finished.extend(looped.finished);
        out.looped.failures.extend(looped.failures);
        out.looped.shard_wall_ns.extend(looped.shard_wall_ns);
        if trace {
            fold_trace(&submitted, &stamps, &mut out.trace);
        }
    }
}

/// One closed-loop client: submit, wait for the report, repeat.
fn client(
    c: usize,
    daemon: &Daemon,
    tap: &Tap,
    claim: &dyn Fn() -> Option<u64>,
    trace: bool,
    work_dir: &Path,
) -> (Loop, Vec<Submitted>) {
    let mut looped = Loop::default();
    let mut submitted = Vec::new();
    while let Some(seed) = claim() {
        looped.attempted += 1;
        let journal = work_dir.join(format!("campaign-{seed}.ckpt"));
        let mut spec = Workload::ServiceThreads.spec(seed);
        spec.tenant = TENANTS[c % TENANTS.len()].to_string();
        spec.checkpoint = Some(journal.display().to_string());
        let at = Instant::now();
        let id = match daemon.submit(&spec) {
            Ok(id) => id,
            Err(rejection) => {
                looped.failures.push(format!("seed {seed}: {rejection}"));
                continue;
            }
        };
        let submit_ms = at.elapsed().as_secs_f64() * 1e3;
        let report = if tap.wait(&id, REPORT_TIMEOUT) { daemon.final_report(&id) } else { None };
        let wait_s = at.elapsed().as_secs_f64();
        let state = daemon.campaign_status(&id).map(|s| s.state);
        match report {
            Some((report, checksum)) if checksum != report_checksum(&report) => {
                looped.failures.push(format!("seed {seed}: daemon checksum disagrees"));
            }
            Some((report, checksum)) if state == Some(CampaignState::Completed) => {
                looped.finished.push(Finished {
                    seed,
                    wait_s,
                    checksum,
                    cases: report.cases_run,
                    metrics: report.metrics,
                    journal: Some(journal),
                });
            }
            _ => looped.failures.push(format!("seed {seed}: campaign {id} ended {state:?}")),
        }
        if trace {
            let events = daemon.tail_events(&id, 0).map(|(events, _)| events).unwrap_or_default();
            looped.shard_wall_ns.extend(events.iter().filter_map(|e| match e.kind {
                EventKind::ShardFinished { wall_nanos, .. } => wall_nanos,
                _ => None,
            }));
            submitted.push(Submitted { id, at, submit_ms });
        }
    }
    (looped, submitted)
}

fn fold_trace(submitted: &[Submitted], stamps: &[(Instant, Stamp)], trace: &mut DaemonTrace) {
    let ms = |later: Instant, earlier: Instant| later.duration_since(earlier).as_secs_f64() * 1e3;
    for s in submitted {
        trace.submit_ms.push(s.submit_ms);
        let mut acquired: HashMap<u64, Instant> = HashMap::new();
        let mut last_release = None;
        for (at, stamp) in stamps {
            match stamp {
                Stamp::Acquired(id, shard) if *id == s.id => {
                    if acquired.is_empty() {
                        trace.queue_wait_ms.push(ms(*at, s.at));
                    }
                    acquired.insert(*shard, *at);
                }
                Stamp::Released(id, shard) if *id == s.id => {
                    if let Some(from) = acquired.get(shard) {
                        trace.lease_hold_ms.push(ms(*at, *from));
                    }
                    last_release = Some(*at);
                }
                Stamp::Finished(id) if *id == s.id => {
                    if let Some(from) = last_release {
                        trace.finalize_ms.push(ms(*at, from));
                    }
                }
                _ => {}
            }
        }
    }
}
