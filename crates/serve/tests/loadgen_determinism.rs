//! Loadgen determinism: the same trace + seed + shard count must yield
//! a byte-identical reply stream and identical per-shard scoring stats,
//! regardless of how many submitter threads replay it or how wide the
//! rayon pool is (CI runs this file under `RAYON_NUM_THREADS={1,4}`).
//!
//! Flash-crowd traces carry only `Normal`-priority events, so no event
//! is ever shed and each shard's request/row counters are a pure
//! function of the trace — the strongest determinism claim the replay
//! can make. (Mixed-priority traces keep the *score stream* identical
//! via shed-retry, but shed counters there are timing-dependent, which
//! is why this test pins the pattern.)

use std::time::Duration;

use lightmirm_core::bundle::{BundleMetadata, ModelBundle};
use lightmirm_core::lr::LrModel;
use lightmirm_core::obs::request::N_STAGES;
use lightmirm_core::trainers::TrainedModel;
use lightmirm_serve::loadgen::{
    replay, synthesize_trace, ReplayOutcome, TraceConfig, TracePattern,
};
use lightmirm_serve::{EngineConfig, ShardConfig, ShardedEngine};
use loansim::{generate, GeneratorConfig};

fn fixture() -> (ModelBundle, TraceConfig) {
    let frame = generate(&GeneratorConfig::small(2_000, 53));
    let cfg = lightmirm_gbdt::GbdtConfig {
        n_trees: 4,
        ..Default::default()
    };
    let gbdt = lightmirm_gbdt::Gbdt::fit(
        frame.feature_matrix(),
        frame.n_features(),
        &frame.label,
        &cfg,
    )
    .expect("GBDT fits");
    let weights: Vec<f64> = (0..gbdt.total_leaves())
        .map(|i| ((i % 13) as f64 - 6.0) * 0.05)
        .collect();
    let bundle = ModelBundle::new(
        gbdt,
        &TrainedModel::Global(LrModel { weights }),
        BundleMetadata::default(),
    )
    .expect("dimensions match");
    let envs = frame
        .province
        .iter()
        .copied()
        .max()
        .map(|p| p + 1)
        .unwrap_or(1);
    let tc = TraceConfig::quick(TracePattern::FlashCrowd, frame.n_features() as u32, envs);
    (bundle, tc)
}

fn replay_once(
    bundle: &ModelBundle,
    tc: &TraceConfig,
    shards: usize,
    submitters: usize,
) -> (ReplayOutcome, Vec<(u64, u64)>) {
    let (outcome, per_shard, _) = replay_traced(bundle, tc, shards, submitters, false);
    (outcome, per_shard)
}

fn replay_traced(
    bundle: &ModelBundle,
    tc: &TraceConfig,
    shards: usize,
    submitters: usize,
    trace_requests: bool,
) -> (
    ReplayOutcome,
    Vec<(u64, u64)>,
    Vec<lightmirm_core::obs::RequestTrace>,
) {
    let engine = ShardedEngine::new(
        bundle,
        &ShardConfig {
            shards,
            engine: EngineConfig {
                max_batch: 64,
                max_wait: Duration::from_micros(200),
                queue_capacity: 1024,
                workers: 2,
                trace_requests,
                tail_samples: 16,
                ..EngineConfig::default()
            },
        },
    );
    let trace = synthesize_trace(tc);
    let outcome = replay(&engine, trace, submitters).expect("trace decodes");
    let tails = engine.tail_sampler().traces().to_vec();
    let stats = engine.shutdown();
    let per_shard = stats.iter().map(|s| (s.requests, s.rows_scored)).collect();
    (outcome, per_shard, tails)
}

#[test]
fn trace_synthesis_is_byte_identical_across_calls() {
    let (_, tc) = fixture();
    let a = synthesize_trace(&tc);
    let b = synthesize_trace(&tc);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same TraceConfig must serialize the same bytes");

    // A different seed is a different trace (the seed is load-bearing).
    let mut other = fixture().1;
    other.seed ^= 0xdead_beef;
    assert_ne!(synthesize_trace(&other), a);
}

#[test]
fn identical_trace_seed_and_shards_give_identical_replies_and_stats() {
    let (bundle, tc) = fixture();
    let (base, base_stats) = replay_once(&bundle, &tc, 3, 1);
    assert!(base.rows > 0);
    assert_eq!(
        base.retried_sheds, 0,
        "flash-crowd traces are all Normal priority; nothing sheds"
    );

    for submitters in [1usize, 3] {
        let (again, again_stats) = replay_once(&bundle, &tc, 3, submitters);
        // Reply stream: byte-identical, event by event, bit by bit.
        assert_eq!(again.events, base.events);
        assert_eq!(again.rows, base.rows);
        assert_eq!(again.score_digest(), base.score_digest());
        assert_eq!(again.scores.len(), base.scores.len());
        for (e, (a, b)) in base.scores.iter().zip(&again.scores).enumerate() {
            assert_eq!(a.len(), b.len(), "event {e} row count");
            for k in 0..a.len() {
                assert_eq!(
                    a[k].to_bits(),
                    b[k].to_bits(),
                    "event {e} row {k} differs with {submitters} submitters"
                );
            }
        }
        // Per-shard work assignment: identical (requests, rows_scored)
        // on every shard — routing is deterministic, not load-balanced.
        assert_eq!(
            again_stats, base_stats,
            "per-shard stats drifted with {submitters} submitters"
        );
    }
}

#[test]
fn different_shard_counts_keep_the_reply_stream_identical() {
    // The shard count changes *where* rows are scored, never *what* the
    // replies are: scores are routing-invariant.
    let (bundle, tc) = fixture();
    let (one, _) = replay_once(&bundle, &tc, 1, 2);
    for shards in [2usize, 4] {
        let (many, per_shard) = replay_once(&bundle, &tc, shards, 2);
        assert_eq!(many.score_digest(), one.score_digest());
        let total: u64 = per_shard.iter().map(|&(_, rows)| rows).sum();
        assert_eq!(total, one.rows, "rows conserved across {shards} shards");
    }
}

#[test]
fn request_tracing_keeps_sharded_replay_bit_identical() {
    // Tracing is observation-only: with `trace_requests` armed the reply
    // stream must stay bit-identical to the untraced replay, per shard
    // count — and every sampled tail trace must telescope exactly (stage
    // sum == enqueue-to-reply latency).
    let (bundle, tc) = fixture();
    for shards in [1usize, 3] {
        let (off, off_stats, off_tails) = replay_traced(&bundle, &tc, shards, 2, false);
        assert!(off_tails.is_empty(), "tracing off must sample nothing");
        let (on, on_stats, tails) = replay_traced(&bundle, &tc, shards, 2, true);
        assert_eq!(
            on.score_digest(),
            off.score_digest(),
            "tracing perturbed scores with {shards} shards"
        );
        for (e, (a, b)) in off.scores.iter().zip(&on.scores).enumerate() {
            for k in 0..a.len() {
                assert_eq!(a[k].to_bits(), b[k].to_bits(), "event {e} row {k}");
            }
        }
        assert_eq!(on_stats, off_stats, "tracing changed per-shard routing");

        assert!(!tails.is_empty(), "traced replay must sample tail requests");
        assert!(tails.len() <= 16, "sampler exceeded its k");
        for t in &tails {
            assert!((t.shard as usize) < shards, "trace stamped bogus shard");
            assert_eq!(t.stages_ns.len(), N_STAGES);
            let sum: u64 = t.stages_ns.iter().sum();
            assert_eq!(
                sum, t.enqueue_to_reply_ns,
                "request {:#018x}: stage decomposition must telescope exactly",
                t.request_id
            );
        }
        // Deterministic selection rule: slowest-first, ties broken by
        // ascending request id.
        for w in tails.windows(2) {
            assert!(
                w[0].enqueue_to_reply_ns > w[1].enqueue_to_reply_ns
                    || (w[0].enqueue_to_reply_ns == w[1].enqueue_to_reply_ns
                        && w[0].request_id < w[1].request_id),
                "tail traces out of deterministic order"
            );
        }
    }
}
