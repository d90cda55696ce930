//! The four workloads, their campaign specs, and what a timed loop records.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use comfort_core::checkpoint::report_checksum;
use comfort_core::session::CampaignSession;
use comfort_lm::GeneratorConfig;
use comfort_service::spec::CampaignSpec;
use comfort_telemetry::CampaignMetrics;

/// The workload seed used when none is given.
pub const DEFAULT_SEED: u64 = 6;

/// Steady workload: cases per campaign (the paper config's own budget).
const STEADY_CASES: usize = 1500;
/// Steady workload: cases per shard.
const STEADY_SHARD_CASES: usize = 100;
/// Steady workload: sessions (campaign seeds) a run goes through in turn.
pub const STEADY_SESSIONS: u64 = 4;

/// Report checksums of the one-shot bench spec at the campaign seeds a run
/// with the default workload seed starts from. Seed 6 is the repository's
/// pinned `a92f73d7d5a0c004`.
const PINNED_ONESHOT: [(u64, u64); 4] = [
    (6, 0xa92f_73d7_d5a0_c004),
    (7, 0x90da_8446_3cd2_d441),
    (8, 0xa8cb_453f_dc1e_b2b9),
    (9, 0x2b73_5186_4196_63c4),
];

/// Report checksums of the steady spec at the campaign seeds a run with the
/// default workload seed goes through.
const PINNED_STEADY: [(u64, u64); 4] = [
    (6, 0x38b5_8942_0923_2546),
    (7, 0xb1a2_ba13_ef3b_97ed),
    (8, 0xb90c_2480_d15c_ed86),
    (9, 0xad9f_126c_896d_214d),
];

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh `CampaignSession`s one after another: set-up dominates.
    Oneshot,
    /// Trained sessions on the paper config, each campaign repeated.
    Steady,
    /// An in-process daemon with thread workers, closed-loop clients.
    ServiceThreads,
    /// The same load on jailed `comfortd --worker-once` children.
    ServiceFleet,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] =
        [Workload::Oneshot, Workload::Steady, Workload::ServiceThreads, Workload::ServiceFleet];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Oneshot => "oneshot",
            Workload::Steady => "steady",
            Workload::ServiceThreads => "service-threads",
            Workload::ServiceFleet => "service-fleet",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The spec of the campaign with seed `seed` in this workload.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        match self {
            Workload::Steady => steady_spec(seed),
            _ => oneshot_spec(seed),
        }
    }
}

/// The seed-6 bench spec at another seed: 80 corpus programs, LM order 8 /
/// 200 merges / top-k 10 / 800 tokens, 120 cases in shards of 30, fuel
/// 200k, strict/legacy testbeds and reduction off.
fn oneshot_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        tenant: "bench".to_string(),
        seed: Some(seed),
        corpus_programs: Some(80),
        lm: Some(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 }),
        max_cases: Some(120),
        shard_cases: Some(30),
        fuel: Some(200_000),
        include_strict: Some(false),
        include_legacy: Some(false),
        reduce_cases: Some(false),
        ..CampaignSpec::default()
    }
}

/// The paper config (`CampaignConfig::default()`: 260 programs, 400 merges,
/// strict + legacy testbeds, reduction on, fuel 400k) at `seed`, sharded.
fn steady_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        tenant: "bench".to_string(),
        seed: Some(seed),
        max_cases: Some(STEADY_CASES),
        shard_cases: Some(STEADY_SHARD_CASES),
        ..CampaignSpec::default()
    }
}

/// A fresh, untrained library session for `spec`.
pub(crate) fn session(spec: &CampaignSpec) -> CampaignSession {
    CampaignSession::new(spec.build_config().expect("benchmark specs are valid"))
}

/// Trains `session`'s executor (corpus + LM + testbeds) and returns how
/// long that took, in seconds.
pub(crate) fn set_up(session: &CampaignSession) -> f64 {
    let start = Instant::now();
    std::hint::black_box(session.executor());
    start.elapsed().as_secs_f64()
}

/// How long a timed loop runs: for a wall-clock budget (the benchmark), or
/// for a fixed number of campaigns (the determinism tests).
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start new campaigns until this much time has passed.
    For(Duration),
    /// Start exactly this many campaigns.
    Campaigns(u64),
}

impl Budget {
    /// Whether campaign number `started` (0-based) may start, `since` the
    /// loop began.
    pub fn allows(self, started: u64, since: Instant) -> bool {
        match self {
            Budget::For(limit) => since.elapsed() < limit,
            Budget::Campaigns(n) => started < n,
        }
    }
}

/// Hands out consecutive campaign seeds from the workload seed.
#[derive(Debug)]
pub struct Seeds {
    next: AtomicU64,
}

impl Seeds {
    /// Seeds `first`, `first + 1`, ...
    pub fn from(first: u64) -> Seeds {
        Seeds { next: AtomicU64::new(first) }
    }

    /// The next campaign seed.
    pub fn take(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

/// One campaign a timed loop saw through to its report.
#[derive(Debug, Clone)]
pub struct Finished {
    /// The campaign seed.
    pub seed: u64,
    /// Seconds from spec (or submit) to the final report.
    pub wait_s: f64,
    /// `report_checksum` of the final report.
    pub checksum: u64,
    /// Logical cases the report ran.
    pub cases: u64,
    /// The report's stage metrics.
    pub metrics: CampaignMetrics,
    /// The campaign's checkpoint journal (daemon workloads).
    pub journal: Option<std::path::PathBuf>,
}

/// What one timed loop observed.
#[derive(Debug, Clone, Default)]
pub struct Loop {
    /// Campaigns that delivered a report.
    pub finished: Vec<Finished>,
    /// Campaigns started.
    pub attempted: u64,
    /// Why each failed campaign failed.
    pub failures: Vec<String>,
    /// Wall seconds from the first start to the last report.
    pub wall_s: f64,
    /// CPU seconds of this process and its children over the loop.
    pub cpu_s: f64,
    /// CPU seconds of the children alone.
    pub child_cpu_s: f64,
    /// Executor shard wall times, in nanoseconds (traced loops only).
    pub shard_wall_ns: Vec<u64>,
    /// Set-up seconds of sessions the loop built itself (`oneshot`,
    /// `steady`).
    pub setup_s: Vec<f64>,
    /// Peak resident set over the loop, of this process or its largest
    /// child, in MB.
    pub peak_rss_mb: f64,
}

impl Loop {
    /// Logical cases completed.
    pub fn cases(&self) -> u64 {
        self.finished.iter().map(|f| f.cases).sum()
    }

    /// Adds a loop that ran after this one.
    pub fn absorb(&mut self, next: Loop) {
        self.finished.extend(next.finished);
        self.attempted += next.attempted;
        self.failures.extend(next.failures);
        self.wall_s += next.wall_s;
        self.cpu_s += next.cpu_s;
        self.child_cpu_s += next.child_cpu_s;
        self.shard_wall_ns.extend(next.shard_wall_ns);
        self.setup_s.extend(next.setup_s);
        self.peak_rss_mb = self.peak_rss_mb.max(next.peak_rss_mb);
    }
}

/// A reference report checksum, from an untimed single-thread run.
#[derive(Debug, Clone, Copy)]
struct Reference {
    /// `report_checksum` of the single-thread report.
    checksum: u64,
    /// Seconds the reference session took to set up.
    setup_s: f64,
}

/// Runs `spec` on a fresh single-thread session, untimed.
fn reference(spec: &CampaignSpec) -> Reference {
    let session = session(spec).threads(1);
    let setup_s = set_up(&session);
    let report = session.run_with_threads(1).expect("fresh sessions cannot fail");
    Reference { checksum: report_checksum(&report), setup_s }
}

/// The checksum a campaign seed must give, if this workload pins one.
fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    match workload {
        Workload::Steady => &PINNED_STEADY,
        _ => &PINNED_ONESHOT,
    }
    .iter()
    .find(|(s, _)| *s == seed)
    .map(|(_, c)| *c)
}

/// Reference checksums by campaign seed. An entry is `Err` when the
/// reference itself differs from a pinned checksum.
#[derive(Debug)]
pub struct References {
    workload: Workload,
    known: BTreeMap<u64, Result<u64, String>>,
}

impl References {
    /// No references yet.
    pub fn new(workload: Workload) -> References {
        References { workload, known: BTreeMap::new() }
    }

    fn insert(&mut self, seed: u64, r: Reference) {
        let checked = match pinned(self.workload, seed) {
            Some(pin) if pin != r.checksum => Err(format!(
                "seed {seed}: reference checksum {:016x}, pinned {pin:016x}",
                r.checksum
            )),
            _ => Ok(r.checksum),
        };
        self.known.insert(seed, checked);
    }

    /// Computes the reference for `seed` on this thread, alone, and returns
    /// its set-up seconds.
    pub fn add(&mut self, seed: u64) -> f64 {
        let r = reference(&self.workload.spec(seed));
        self.insert(seed, r);
        r.setup_s
    }

    /// Computes the references the reports of `looped` still lack, `width`
    /// sessions at a time.
    pub fn fill(&mut self, looped: &Loop, width: usize) {
        let mut missing: Vec<u64> = looped
            .finished
            .iter()
            .map(|f| f.seed)
            .filter(|s| !self.known.contains_key(s))
            .collect();
        missing.sort_unstable();
        missing.dedup();
        let queue = std::sync::Mutex::new(missing);
        let workload = self.workload;
        let found: Vec<(u64, Reference)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..width)
                .map(|_| {
                    scope.spawn(|| {
                        let mut found = Vec::new();
                        while let Some(seed) = queue.lock().expect("seed queue poisoned").pop() {
                            found.push((seed, reference(&workload.spec(seed))));
                        }
                        found
                    })
                })
                .collect();
            workers.into_iter().flat_map(|h| h.join().expect("reference thread panicked")).collect()
        });
        for (seed, r) in found {
            self.insert(seed, r);
        }
    }

    /// Checks every report in `looped` against the reference for its seed
    /// (call [`fill`](Self::fill) first). Returns one failure per campaign
    /// whose report differs from its reference, or whose reference differs
    /// from a pinned checksum.
    pub fn verify(&self, looped: &Loop) -> Vec<String> {
        let mut failures = Vec::new();
        for f in &looped.finished {
            match self.known.get(&f.seed) {
                None => failures.push(format!("seed {}: no reference", f.seed)),
                Some(Err(why)) => failures.push(why.clone()),
                Some(Ok(checksum)) if *checksum != f.checksum => failures.push(format!(
                    "seed {}: report checksum {:016x}, reference {checksum:016x}",
                    f.seed, f.checksum
                )),
                Some(Ok(_)) => {}
            }
        }
        failures
    }
}
