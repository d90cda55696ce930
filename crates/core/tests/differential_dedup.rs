//! Integration tests for footprint-based execution dedup: classing a case's
//! testbed matrix into behaviour-equivalence classes and running one
//! representative per class must be a pure execution-count optimization —
//! every outcome, signature, health ledger, report, and (modulo the
//! `execution_deduped` events themselves) telemetry stream is bit-identical
//! to the full matrix, at every thread count, with or without chaos.

use comfort_core::campaign::{testbeds_for, CampaignConfig, CampaignReport};
use comfort_core::checkpoint::{report_checksum, report_to_json_deterministic};
use comfort_core::differential::ExecutionClasses;
use comfort_core::resilience::{run_case_hardened, ChaosConfig, ExecPolicy, HealthTracker};
use comfort_core::session::CampaignSession;
use comfort_engines::{FaultPlan, RunOptions};
use comfort_interp::ApiFootprint;
use comfort_lm::GeneratorConfig;
use proptest::prelude::*;

/// The pinned checksum of the seed-6 workload: the full-matrix executor
/// produces exactly this report, and `perfbench/tests/determinism.rs` pins
/// the same value through the library, daemon-thread and fleet paths.
/// Dedup must reproduce it bit-for-bit.
const SEED6_CHECKSUM: &str = "a92f73d7d5a0c004";

/// The seed-6 bench workload, mirroring perfbench's `oneshot` spec
/// (`perfbench/src/workload.rs`).
fn seed6_config() -> CampaignConfig {
    CampaignConfig {
        seed: 6,
        corpus_programs: 80,
        lm: GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 },
        max_cases: 120,
        fuel: 200_000,
        shard_cases: 30,
        include_strict: false,
        include_legacy: false,
        reduce_cases: false,
        ..CampaignConfig::default()
    }
}

fn run_seed6(dedup: bool, threads: usize) -> CampaignReport {
    let mut config = seed6_config();
    config.exec.dedup = dedup;
    CampaignSession::new(config).run_with_threads(threads).expect("fresh run is infallible")
}

#[test]
fn seed6_checksum_matches_bench7_baseline_at_every_thread_count() {
    for threads in [1, 2, 4, 8] {
        let report = run_seed6(true, threads);
        assert_eq!(
            format!("{:016x}", report_checksum(&report)),
            SEED6_CHECKSUM,
            "dedup-on report drifted from the pinned seed-6 checksum at {threads} threads"
        );
        assert!(
            report.metrics.executions_saved > 0,
            "the seed-6 workload must actually collapse classes"
        );
    }
}

#[test]
fn seed6_report_is_identical_with_dedup_on_and_off() {
    let on = run_seed6(true, 2);
    let off = run_seed6(false, 2);
    assert_eq!(report_to_json_deterministic(&on), report_to_json_deterministic(&off));
    assert_eq!(format!("{:016x}", report_checksum(&off)), SEED6_CHECKSUM);
    // Only the how-it-ran counters may differ — and only in one direction.
    assert_eq!(off.metrics.executions_saved, 0);
    assert_eq!(off.metrics.equivalence_classes, 0);
    assert!(on.metrics.executions_saved > 0);
    // Logical work recorded per case is unchanged: the differential stage
    // still counts every masked-in testbed slot, not physical executions.
    assert_eq!(
        on.metrics.stage(comfort_core::telemetry::Stage::Differential).items,
        off.metrics.stage(comfort_core::telemetry::Stage::Differential).items
    );
}

/// Per-case oracle: over a pinned corpus slice, run the hardened slot path
/// with dedup on and off against the *widest* matrix (strict + legacy
/// testbeds) and require identical outcomes, quorum summaries, and health
/// ledgers — while dedup performs strictly fewer executions overall.
#[test]
fn classed_execution_matches_full_matrix_oracle() {
    let config =
        CampaignConfig { include_strict: true, include_legacy: true, ..CampaignConfig::default() };
    let testbeds = testbeds_for(&config);
    assert!(testbeds.len() >= 12, "oracle needs a wide matrix");
    let on = ExecPolicy { dedup: true, ..ExecPolicy::default() };
    let off = ExecPolicy { dedup: false, ..ExecPolicy::default() };
    let options = RunOptions { fuel: 200_000, ..RunOptions::default() };

    let mut total_physical = 0usize;
    let mut total_logical = 0usize;
    for src in comfort_corpus::training_corpus(6, 40) {
        let program = comfort_syntax::parse(&src).expect("corpus parses");
        let mut tracker_on = HealthTracker::new(&testbeds, 0);
        let mut tracker_off = HealthTracker::new(&testbeds, 0);
        let a = run_case_hardened(&program, &testbeds, &options, 1, &on, &mut tracker_on);
        let b = run_case_hardened(&program, &testbeds, &options, 1, &off, &mut tracker_off);
        assert_eq!(a.outcome, b.outcome, "outcome diverged on: {src}");
        assert_eq!(a.groups, b.groups, "quorum summary diverged on: {src}");
        assert_eq!(a.active_runs, b.active_runs);
        assert_eq!(b.active_runs, b.physical_runs, "dedup-off must run the full matrix");
        assert!(a.physical_runs <= a.active_runs);
        assert_eq!(a.physical_runs, a.classes);
        assert_eq!(tracker_on.reports(), tracker_off.reports(), "ledger diverged on: {src}");
        total_physical += a.physical_runs;
        total_logical += a.active_runs;
    }
    // The widest matrix (strict + legacy, 29 testbeds) shares less than the
    // bench matrix — each engine/version/mode key is distinct — but classing
    // must still drop a large fraction of executions.
    assert!(
        total_physical * 5 <= total_logical * 3,
        "classing should save at least 40% of executions on the corpus \
         ({total_physical} physical vs {total_logical} logical)"
    );
}

/// Classing soundness at the signature level: any two testbeds the
/// partition coalesces must produce byte-identical run signatures on that
/// chunk. This is the invariant the whole optimization rests on.
#[test]
fn classmates_produce_identical_signatures() {
    let config =
        CampaignConfig { include_strict: true, include_legacy: true, ..CampaignConfig::default() };
    let testbeds = testbeds_for(&config);
    let options = RunOptions { fuel: 200_000, ..RunOptions::default() };
    let mask = vec![true; testbeds.len()];
    let shareable = vec![true; testbeds.len()];
    for src in comfort_corpus::training_corpus(11, 30) {
        let program = comfort_syntax::parse(&src).expect("corpus parses");
        let chunk = comfort_engines::compile(&program);
        let classes = ExecutionClasses::compute(&chunk, &testbeds, &mask, &shareable);
        for (i, bed) in testbeds.iter().enumerate() {
            let rep = classes.rep(i);
            if rep == i {
                continue;
            }
            let mine = bed.run_compiled(&chunk, &options);
            let leaders = testbeds[rep].run_compiled(&chunk, &options);
            assert_eq!(
                comfort_core::differential::Signature::of(&mine.status, &mine.output),
                comfort_core::differential::Signature::of(&leaders.status, &leaders.output),
                "testbeds {i} and {rep} were classed together but diverged on: {src}"
            );
        }
    }
}

#[test]
fn forced_singletons_and_poisoned_footprints_disable_sharing() {
    let config = CampaignConfig::default();
    let testbeds = testbeds_for(&config);
    let n = testbeds.len();
    let mask = vec![true; n];

    // A poisoned footprint (e.g. eval in the program) yields the identity
    // partition regardless of shareability.
    let poisoned = comfort_engines::compile(
        &comfort_syntax::parse("var x = eval(\"1\"); print(x);").expect("parses"),
    );
    assert!(poisoned.footprint.is_poisoned());
    let classes = ExecutionClasses::compute(&poisoned, &testbeds, &mask, &vec![true; n]);
    assert_eq!(classes.class_count(), n);
    assert!((0..n).all(|i| classes.is_representative(i)));

    // A non-shareable slot stays a singleton even when a classmate exists.
    let clean = comfort_engines::compile(&comfort_syntax::parse("print(1 + 2);").expect("parses"));
    assert!(!clean.footprint.is_poisoned());
    let mut shareable = vec![true; n];
    shareable[0] = false;
    let classes = ExecutionClasses::compute(&clean, &testbeds, &mask, &shareable);
    assert!(classes.is_representative(0));
    assert!((0..n).all(|i| classes.rep(i) != 0 || i == 0), "no slot may reuse a singleton");

    // Masked-out slots neither run nor join classes.
    let mut masked = vec![true; n];
    masked[1] = false;
    let classes = ExecutionClasses::compute(&clean, &testbeds, &masked, &vec![true; n]);
    let sizes = classes.class_sizes(&masked);
    assert_eq!(sizes.iter().sum::<usize>(), n - 1);
    assert_eq!(classes.class_count(), sizes.len());
}

/// Chaos composition: with the first testbed wrapped in a seeded fault
/// plan, dedup must leave the deterministic report untouched and the event
/// stream untouched modulo its own `execution_deduped` events — at every
/// thread count.
#[test]
fn chaos_campaign_is_identical_with_dedup_on_and_off() {
    use comfort_telemetry::{Event, EventKind, MemorySink, SinkHandle};

    let chaos_config = |dedup: bool, sink: SinkHandle| CampaignConfig {
        seed: 2,
        corpus_programs: 80,
        lm: GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 },
        max_cases: 60,
        fuel: 200_000,
        shard_cases: 20,
        include_strict: false,
        include_legacy: false,
        reduce_cases: false,
        keep_invalid_fraction: 0.2,
        exec: ExecPolicy { quarantine_after: 2, probe_after: 3, dedup, ..ExecPolicy::default() },
        chaos: Some(ChaosConfig::on_first(
            FaultPlan::new(1005)
                .panic_rate(0.10)
                .hang_rate(0.05)
                .transient_rate(0.08)
                .hang_millis(1),
        )),
        sink,
        ..CampaignConfig::default()
    };
    let run = |dedup: bool, threads: usize| -> (Vec<Event>, CampaignReport) {
        let mem = MemorySink::new();
        let session = CampaignSession::new(chaos_config(dedup, SinkHandle::new(mem.clone())));
        let report = session.run_with_threads(threads).expect("fresh run is infallible");
        (mem.take(), report)
    };
    let det = |events: &[Event]| -> Vec<String> {
        events.iter().map(Event::to_json_deterministic).collect()
    };
    // The extra execution_deduped events consume (shard, seq) slots, so the
    // on/off comparison looks at the ordered deterministic *payloads* with
    // the per-stream clock prefix stripped.
    let without_dedup_events = |events: &[Event]| -> Vec<String> {
        events
            .iter()
            .filter(|e| !matches!(e.kind, EventKind::ExecutionDeduped { .. }))
            .map(|e| {
                let json = e.to_json_deterministic();
                let idx = json.find("\"type\"").expect("event JSON has a type field");
                format!("{{{}", &json[idx..])
            })
            .collect()
    };

    let (e1, r1) = run(true, 1);
    let (e2, r2) = run(true, 2);
    let (e8, r8) = run(true, 8);
    assert_eq!(det(&e1), det(&e2), "dedup-on chaos streams diverged: threads 1 vs 2");
    assert_eq!(det(&e1), det(&e8), "dedup-on chaos streams diverged: threads 1 vs 8");
    assert_eq!(report_to_json_deterministic(&r1), report_to_json_deterministic(&r2));
    assert_eq!(report_to_json_deterministic(&r1), report_to_json_deterministic(&r8));

    let (eoff, roff) = run(false, 1);
    assert_eq!(report_to_json_deterministic(&r1), report_to_json_deterministic(&roff));
    assert_eq!(
        without_dedup_events(&e1),
        without_dedup_events(&eoff),
        "dedup may only add execution_deduped events, never reorder or drop others"
    );
    assert!(eoff.iter().all(|e| !matches!(e.kind, EventKind::ExecutionDeduped { .. })));
    // The chaotic campaign still found sharing on chaos-free slots.
    assert!(r1.metrics.executions_saved > 0);
    assert!(r1.metrics.faults_observed > 0, "the fault plan must actually fire");
    assert_eq!(r1.metrics.faults_observed, roff.metrics.faults_observed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Footprint-relevance monotonicity: growing a footprint (more atoms,
    /// index stores, or poisoning) can only grow each engine's relevant-bug
    /// set — the conservative direction. A shrinking set could class two
    /// genuinely-divergent testbeds together.
    #[test]
    fn relevance_is_monotone_under_footprint_growth(seed in 0u64..2000) {
        const POOL: [&str; 12] = [
            "split", "eval", "defineProperty", "reverse", "push", "toFixed",
            "charAt", "slice", "sort", "replace", "parse", "exec",
        ];
        let mut rng = seed;
        let mut next = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            rng >> 33
        };
        let small: Vec<&str> =
            POOL.iter().copied().filter(|_| next() % 3 == 0).collect();
        let mut large = small.clone();
        large.extend(POOL.iter().copied().filter(|_| next() % 2 == 0));
        let small_fp = ApiFootprint::from_parts(small, next() % 4 == 0, false);
        let large_fp = ApiFootprint::from_parts(large, true, next() % 5 == 0);
        let poisoned = ApiFootprint::poisoned_all();

        for bed in testbeds_for(&CampaignConfig {
            include_strict: true,
            include_legacy: true,
            ..CampaignConfig::default()
        }) {
            let lo = bed.engine.relevant_bugs(&small_fp);
            let hi = bed.engine.relevant_bugs(&large_fp);
            let all = bed.engine.relevant_bugs(&poisoned);
            prop_assert!(
                lo.iter().all(|id| hi.contains(id)),
                "bug set shrank when the footprint grew ({})", bed.label()
            );
            prop_assert!(hi.iter().all(|id| all.contains(id)));
        }
    }

    /// Random-footprint partitions are well-formed: representatives are the
    /// lowest index of their class, class sizes cover the mask exactly, and
    /// classmates share the (strict, relevant-behaviour) key — bug *ids*
    /// may differ across a class, because behaviourally identical bugs of
    /// different engines merge.
    #[test]
    fn random_partitions_are_well_formed(seed in 0u64..1500) {
        let src = comfort_corpus::training_corpus(seed, 1).remove(0);
        let program = comfort_syntax::parse(&src).expect("corpus parses");
        let chunk = comfort_engines::compile(&program);
        let testbeds = testbeds_for(&CampaignConfig {
            include_strict: true,
            ..CampaignConfig::default()
        });
        let n = testbeds.len();
        let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut bits = |i: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(i | 1);
            rng >> 62 != 0 // true 3/4 of the time
        };
        let mask: Vec<bool> = (0..n as u64).map(&mut bits).collect();
        let shareable: Vec<bool> = (0..n as u64).map(|i| bits(i + 64)).collect();

        let classes = ExecutionClasses::compute(&chunk, &testbeds, &mask, &shareable);
        let masked_in = mask.iter().filter(|m| **m).count();
        prop_assert_eq!(classes.class_sizes(&mask).iter().sum::<usize>(), masked_in);
        prop_assert_eq!(classes.class_sizes(&mask).len(), classes.class_count());
        for i in 0..n {
            let rep = classes.rep(i);
            if !mask[i] {
                prop_assert_eq!(rep, i, "masked-out slot joined a class");
                continue;
            }
            prop_assert!(rep <= i, "representative must be the lowest index");
            prop_assert!(classes.is_representative(rep));
            if rep != i {
                prop_assert!(mask[rep] && shareable[rep] && shareable[i]);
                prop_assert_eq!(testbeds[i].strict, testbeds[rep].strict);
                let strict_sites =
                    testbeds[i].strict || chunk.footprint.has_strict_sites();
                prop_assert_eq!(
                    testbeds[i].engine.relevant_behavior(&chunk.footprint, strict_sites),
                    testbeds[rep].engine.relevant_behavior(&chunk.footprint, strict_sites)
                );
            }
        }
    }
}
