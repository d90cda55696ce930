//! Per-layer probes: each times calls into one layer's public functions,
//! from outside, on the workload's own inputs.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use comfort_core::campaign::testbeds_for;
use comfort_core::checkpoint::{CampaignCheckpoint, CheckpointJournal};
use comfort_interp::hooks::SpecProfile;
use comfort_interp::{compile, run_chunk, RunOptions};
use comfort_lm::{Bpe, NgramModel, EOF_MARK};
use comfort_service::spec::CampaignSpec;
use comfort_telemetry::Event;

use crate::stats::median;

/// Repetitions of each set-up phase and checkpoint call.
pub const REPS: usize = 3;
/// Corpus programs the syntax/interp probe runs.
pub const PROBE_PROGRAMS: usize = 8;
/// Timed repetitions per program in the syntax/interp probe.
pub const PROBE_ITERS: usize = 20;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Median milliseconds of each set-up phase, timing the same public calls
/// `Generator::train` and `testbeds_for` make, on the same inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupPhases {
    /// `comfort_corpus::training_corpus`.
    pub corpus_ms: f64,
    /// `Bpe::train` over the EOF-marked corpus.
    pub bpe_train_ms: f64,
    /// `Bpe::encode` of every corpus program.
    pub bpe_encode_ms: f64,
    /// `NgramModel::train` over the encoded corpus.
    pub ngram_train_ms: f64,
    /// `testbeds_for` the campaign config.
    pub testbeds_ms: f64,
}

impl SetupPhases {
    /// The phases summed.
    pub fn sum_ms(&self) -> f64 {
        self.corpus_ms
            + self.bpe_train_ms
            + self.bpe_encode_ms
            + self.ngram_train_ms
            + self.testbeds_ms
    }
}

/// Times each set-up phase of `spec`, [`REPS`] times, and keeps medians.
pub fn setup_phases(spec: &CampaignSpec) -> SetupPhases {
    let config = spec.build_config().expect("benchmark specs are valid");
    let mut samples: [Vec<f64>; 5] = Default::default();
    for _ in 0..REPS {
        let t = Instant::now();
        let corpus = comfort_corpus::training_corpus(config.seed, config.corpus_programs);
        samples[0].push(ms_since(t));
        let with_eof: Vec<String> = corpus.iter().map(|p| format!("{p}{EOF_MARK}")).collect();
        let t = Instant::now();
        let bpe = Bpe::train(&with_eof, config.lm.bpe_merges);
        samples[1].push(ms_since(t));
        let t = Instant::now();
        let sequences: Vec<Vec<u32>> = with_eof.iter().map(|p| bpe.encode(p)).collect();
        samples[2].push(ms_since(t));
        let t = Instant::now();
        black_box(NgramModel::train(&sequences, config.lm.order));
        samples[3].push(ms_since(t));
        let t = Instant::now();
        black_box(testbeds_for(&config));
        samples[4].push(ms_since(t));
    }
    SetupPhases {
        corpus_ms: median(&samples[0]),
        bpe_train_ms: median(&samples[1]),
        bpe_encode_ms: median(&samples[2]),
        ngram_train_ms: median(&samples[3]),
        testbeds_ms: median(&samples[4]),
    }
}

/// Median microseconds per call of the front end and the VM.
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpProbe {
    /// `comfort_syntax::parse`.
    pub parse_us: f64,
    /// `comfort_interp::compile`.
    pub compile_us: f64,
    /// `comfort_interp::run_chunk` under the spec profile at the
    /// campaign's fuel.
    pub run_chunk_us: f64,
}

/// Times parse, compile and run of the first [`PROBE_PROGRAMS`] programs of
/// `spec`'s training corpus, [`PROBE_ITERS`] times each.
pub fn interp_probe(spec: &CampaignSpec) -> InterpProbe {
    let config = spec.build_config().expect("benchmark specs are valid");
    let corpus = comfort_corpus::training_corpus(config.seed, config.corpus_programs);
    let options = RunOptions { fuel: config.fuel, ..RunOptions::default() };
    let (mut parse, mut comp, mut run) = (Vec::new(), Vec::new(), Vec::new());
    for src in corpus.iter().take(PROBE_PROGRAMS) {
        let program = comfort_syntax::parse(src).expect("training corpus programs parse");
        let chunk = compile(&program);
        black_box(run_chunk(&chunk, &SpecProfile, &options));
        for _ in 0..PROBE_ITERS {
            let t = Instant::now();
            black_box(comfort_syntax::parse(black_box(src)).ok());
            parse.push(us_since(t));
            let t = Instant::now();
            black_box(compile(black_box(&program)));
            comp.push(us_since(t));
            let t = Instant::now();
            black_box(run_chunk(black_box(&chunk), &SpecProfile, &options));
            run.push(us_since(t));
        }
    }
    InterpProbe { parse_us: median(&parse), compile_us: median(&comp), run_chunk_us: median(&run) }
}

/// Median cost of the checkpoint journal on one campaign's own records.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalProbe {
    /// `CheckpointJournal::append_shard` (framed write + `sync_data`).
    pub append_ms: f64,
    /// `CampaignCheckpoint::load` of the whole journal.
    pub load_ms: f64,
    /// Journal bytes one shard record adds.
    pub bytes_per_shard: f64,
}

/// Loads `journal` [`REPS`] times, then appends its shard records to a
/// fresh journal at `scratch`, timing each call.
pub fn journal_probe(journal: &Path, scratch: &Path) -> JournalProbe {
    let mut load = Vec::new();
    let mut checkpoint = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let (loaded, _) = CampaignCheckpoint::load(journal).expect("campaign journal loads");
        load.push(ms_since(t));
        checkpoint = Some(loaded);
    }
    let checkpoint = checkpoint.expect("REPS > 0");
    let fresh = CheckpointJournal::create(scratch, checkpoint.fingerprint, checkpoint.shards_total)
        .expect("scratch journal opens");
    let header_bytes = std::fs::metadata(scratch).map(|m| m.len()).unwrap_or(0);
    let mut append = Vec::new();
    let mut bytes = header_bytes;
    for record in &checkpoint.shards {
        let t = Instant::now();
        bytes = fresh.append_shard(record).expect("scratch journal appends");
        append.push(ms_since(t));
    }
    let _ = std::fs::remove_file(scratch);
    let shards = checkpoint.shards.len().max(1) as f64;
    JournalProbe {
        append_ms: median(&append),
        load_ms: median(&load),
        bytes_per_shard: (bytes - header_bytes) as f64 / shards,
    }
}

/// Bytes the shard records of `journal` take once their wall-clock fields
/// are stripped: the part of a journal that must repeat exactly between two
/// runs of one campaign. Re-appends them to a scratch journal at `scratch`.
pub fn deterministic_journal_bytes(journal: &Path, scratch: &Path) -> u64 {
    let (checkpoint, _) = CampaignCheckpoint::load(journal).expect("campaign journal loads");
    let fresh = CheckpointJournal::create(scratch, checkpoint.fingerprint, checkpoint.shards_total)
        .expect("scratch journal opens");
    let header_bytes = std::fs::metadata(scratch).map(|m| m.len()).unwrap_or(0);
    let mut bytes = header_bytes;
    for mut record in checkpoint.shards {
        record.report.metrics = record.report.metrics.without_wall_clock();
        record.events = record.events.iter().map(Event::without_wall_clock).collect();
        bytes = fresh.append_shard(&record).expect("scratch journal appends");
    }
    let _ = std::fs::remove_file(scratch);
    bytes - header_bytes
}
