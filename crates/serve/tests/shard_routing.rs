//! The sharded front end's correctness battery: routing stability and
//! sharded-vs-single-engine-vs-offline bit-identity.
//!
//! The routing contract under test: a route is a pure function of
//! `(key, shard count)` — the same key routes to the same shard across
//! process restarts, never changing as a side effect of traffic,
//! reloads, or time.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::shard::route;
use lightmirm_serve::{EngineConfig, Priority, ShardConfig, ShardedEngine, SubmitOptions};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

struct World {
    bundle: ModelBundle,
    stream: LoanFrame,
    offline: Vec<f64>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let frame = generate(&GeneratorConfig::small(6_000, 47));
        let split = temporal_split(&frame, 2020);
        let mut fe = FeatureExtractorConfig::default();
        fe.gbdt.n_trees = 6;
        let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains");
        let names = ProvinceCatalog::standard().names();
        let train = extractor
            .to_env_dataset(&split.train, names, None)
            .expect("train transform");
        let out = ErmTrainer::new(TrainConfig {
            epochs: 4,
            ..Default::default()
        })
        .fit(&train, None);
        let bundle = ModelBundle::new(
            extractor.gbdt().clone(),
            &out.model,
            BundleMetadata::default(),
        )
        .expect("dimensions match");
        let stream = split.test;
        let n = stream.len();
        let mut features = Vec::with_capacity(n * bundle.n_features());
        let mut env_ids = Vec::with_capacity(n);
        for k in 0..n {
            features.extend_from_slice(stream.row(k));
            env_ids.push(stream.province[k]);
        }
        let offline = bundle.score_batch(&features, &env_ids);
        World {
            bundle,
            stream,
            offline,
        }
    })
}

// ---------------------------------------------------------------------------
// Routing stability
// ---------------------------------------------------------------------------

#[test]
fn the_same_key_routes_to_the_same_shard_across_restarts() {
    // "Restart" = constructing a fresh front end from the same
    // configuration: every one must submit each key to `route(key, 5)`.
    let w = world();
    let cfg = ShardConfig {
        shards: 5,
        engine: EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
    };
    for restart in 0..2 {
        let engine = ShardedEngine::new(&w.bundle, &cfg);
        let pending: Vec<_> = (0..=u16::MAX)
            .step_by(97)
            .map(|k| {
                let (shard, p) = engine
                    .submit(
                        k,
                        w.stream.row(0).to_vec(),
                        vec![w.stream.province[0]],
                        SubmitOptions::default(),
                    )
                    .expect("accepted");
                assert_eq!(
                    shard,
                    route(k, 5),
                    "key {k} left its route on run {restart}"
                );
                p
            })
            .collect();
        for p in pending {
            assert_eq!(
                p.wait().expect("scored")[0].to_bits(),
                w.offline[0].to_bits()
            );
        }
        engine.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Sharded == single-engine == offline
// ---------------------------------------------------------------------------

/// Score the whole stream through a sharded front end as 3-row chunks
/// routed by each chunk's first-row province.
fn scores_through_sharded(w: &World, shards: usize, workers: usize) -> Vec<f64> {
    let engine = ShardedEngine::new(
        &w.bundle,
        &ShardConfig {
            shards,
            engine: EngineConfig {
                max_batch: 64,
                max_wait: Duration::from_micros(200),
                queue_capacity: 1024,
                workers,
                ..EngineConfig::default()
            },
        },
    );
    let nf = w.bundle.n_features();
    let chunk = 3usize;
    let mut pending = Vec::new();
    let mut r = 0usize;
    while r < w.stream.len() {
        let n = chunk.min(w.stream.len() - r);
        let mut features = Vec::with_capacity(n * nf);
        let mut env_ids = Vec::with_capacity(n);
        for k in r..r + n {
            features.extend_from_slice(w.stream.row(k));
            env_ids.push(w.stream.province[k]);
        }
        let (_, p) = engine
            .submit(
                w.stream.province[r],
                features,
                env_ids,
                SubmitOptions::default(),
            )
            .expect("accepted");
        pending.push(p);
        r += n;
    }
    let scores: Vec<f64> = pending
        .into_iter()
        .flat_map(|p| p.wait().expect("scored"))
        .collect();
    let total: u64 = engine.shutdown().iter().map(|s| s.rows_scored).sum();
    assert_eq!(total as usize, w.stream.len(), "no lost or duplicated rows");
    scores
}

#[test]
fn sharded_scores_are_bit_identical_to_single_engine() {
    let w = world();
    // The single-engine path is a 1-shard front end; the offline
    // reference is the fixture's `score_batch` over the whole stream.
    let single = scores_through_sharded(w, 1, 1);
    for (shards, workers) in [(2, 1), (3, 2), (4, 2), (7, 1)] {
        let sharded = scores_through_sharded(w, shards, workers);
        assert_eq!(sharded.len(), w.offline.len());
        for k in 0..w.offline.len() {
            assert_eq!(
                sharded[k].to_bits(),
                single[k].to_bits(),
                "row {k} differs between {shards}x{workers} and single engine"
            );
            assert_eq!(
                sharded[k].to_bits(),
                w.offline[k].to_bits(),
                "row {k} drifted from offline"
            );
        }
    }
    // A second pass through a fresh front end reproduces the fixture.
    let again = scores_through_sharded(w, 4, 2);
    for (k, s) in again.iter().enumerate() {
        assert_eq!(s.to_bits(), w.offline[k].to_bits());
    }
}

// ---------------------------------------------------------------------------
// Engine-level MPMC: concurrent mixed-priority submits lose nothing
// ---------------------------------------------------------------------------

#[test]
fn concurrent_mixed_priority_submits_across_shards_lose_and_duplicate_nothing() {
    let w = world();
    let engine = Arc::new(ShardedEngine::new(
        &w.bundle,
        &ShardConfig {
            shards: 3,
            engine: EngineConfig {
                max_batch: 32,
                max_wait: Duration::from_micros(100),
                queue_capacity: 256,
                workers: 2,
                ..EngineConfig::default()
            },
        },
    ));
    let submitters = 4usize;
    let n = w.stream.len().min(2_000);
    let handles: Vec<_> = (0..submitters)
        .map(|t| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let w = world();
                let mut checked = 0usize;
                let mut k = t;
                let mut pending = Vec::new();
                while k < n {
                    let opts = SubmitOptions {
                        priority: if k % 3 == 0 {
                            Priority::High
                        } else {
                            Priority::Normal
                        },
                        ..SubmitOptions::default()
                    };
                    let (_, p) = engine
                        .submit(
                            w.stream.province[k],
                            w.stream.row(k).to_vec(),
                            vec![w.stream.province[k]],
                            opts,
                        )
                        .expect("accepted");
                    pending.push((k, p));
                    k += submitters;
                }
                for (k, p) in pending {
                    let scores = p.wait().expect("scored");
                    assert_eq!(scores.len(), 1);
                    assert_eq!(scores[0].to_bits(), w.offline[k].to_bits(), "row {k}");
                    checked += 1;
                }
                checked
            })
        })
        .collect();
    let answered: usize = handles.into_iter().map(|h| h.join().expect("thread")).sum();
    assert_eq!(answered, n, "every submitted request answered exactly once");
    let engine = Arc::into_inner(engine).expect("submitters joined");
    let stats = engine.shutdown();
    let total: u64 = stats.iter().map(|s| s.rows_scored).sum();
    assert_eq!(total as usize, n, "per-shard row counts sum to the stream");
    assert!(
        stats.iter().filter(|s| s.rows_scored > 0).count() > 1,
        "the stream must actually exercise more than one shard"
    );
}
