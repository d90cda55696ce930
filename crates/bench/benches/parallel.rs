//! Thread-sweep bench for the campaign executor, driven through the unified
//! [`CampaignSession`] entry point. The determinism contract makes the
//! reports bit-identical across each sweep — asserted below before any
//! timing — so any ns/iter difference is pure scheduling.
//!
//! * `sharded_campaign_60_cases`: 60 cases in 6 shards at 1, 2, and 4
//!   worker threads; on a multi-core host the 4-thread row should come in
//!   at a fraction of the serial row (the acceptance bar is ≥2×).
//! * `single_shard`: the same 60 cases as one shard (`shard_cases = 0`) at
//!   1 and 4 threads — fewer shards than workers. Shards are the only unit
//!   of parallelism, so both rows run the shard on one thread and the
//!   4-thread row must be no slower than the serial one.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use comfort_core::campaign::CampaignConfig;
use comfort_core::checkpoint::report_to_json_deterministic;
use comfort_core::session::CampaignSession;
use comfort_lm::GeneratorConfig;

fn campaign_config(shard_cases: usize) -> CampaignConfig {
    CampaignConfig::builder()
        .seed(2)
        .corpus_programs(80)
        .lm(GeneratorConfig { order: 8, bpe_merges: 200, top_k: 10, max_tokens: 800 })
        .max_cases(60)
        .fuel(200_000)
        .include_strict(false)
        .include_legacy(false)
        .reduce_cases(false)
        .shard_cases(shard_cases)
        .build()
        .expect("valid bench config")
}

/// Times `session` at each of `widths` under `group`, after proving every
/// width produces the report of the first.
fn sweep(c: &mut Criterion, group: &str, session: &CampaignSession, widths: &[usize]) {
    // The timing rows are only comparable if every thread count does
    // bit-identical work — prove it before measuring anything.
    let run = |threads| session.run_with_threads(threads).expect("fresh runs cannot fail");
    let reference = report_to_json_deterministic(&run(widths[0]));
    for &threads in &widths[1..] {
        assert_eq!(
            report_to_json_deterministic(&run(threads)),
            reference,
            "{group}: threads={threads} diverged from threads={}",
            widths[0]
        );
    }

    let mut group = c.benchmark_group(group);
    for &threads in widths {
        group.bench_function(&format!("threads_{threads}"), |b| {
            b.iter(|| black_box(run(threads)).cases_run);
        });
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    // Build each session once: the LM trains outside the timed region (it
    // is identical for every thread count), and the sweep measures
    // execution.
    let sharded = CampaignSession::new(campaign_config(10)); // 6 shards, enough for 4 workers
    sweep(c, "sharded_campaign_60_cases", &sharded, &[1, 2, 4]);
    let single = CampaignSession::new(campaign_config(0));
    sweep(c, "single_shard", &single, &[1, 4]);
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
