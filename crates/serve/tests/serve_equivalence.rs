//! Serve/offline equivalence: the engine's scores must be bit-identical
//! to the offline `TrainedModel::predict_rows` path for any
//! request-to-batch split and any worker count — the serving-path
//! extension of `crates/core/tests/parallel_determinism.rs`.

use std::time::Duration;

use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::{EngineConfig, ScoringEngine, SubmitError, SubmitOptions};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

/// Train a small LightMIRM bundle and keep the held-out 2020 stream plus
/// its offline scores for comparison.
fn served_world() -> (ModelBundle, LoanFrame, Vec<f64>) {
    let frame = generate(&GeneratorConfig::small(8_000, 29));
    let split = temporal_split(&frame, 2020);
    let mut fe = FeatureExtractorConfig::default();
    fe.gbdt.n_trees = 8;
    let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains");
    let names = ProvinceCatalog::standard().names();
    let train = extractor
        .to_env_dataset(&split.train, names.clone(), None)
        .expect("train transform");
    let out = LightMirmTrainer::new(TrainConfig {
        epochs: 5,
        inner_lr: 0.1,
        outer_lr: 0.3,
        momentum: 0.0,
        ..Default::default()
    })
    .fit(&train, None);

    let test = extractor
        .to_env_dataset(&split.test, names, None)
        .expect("test transform");
    let rows = test.all_rows();
    let offline = out.model.predict_rows(&test.x, &rows, &test.env_ids);

    let bundle = ModelBundle::new(
        extractor.gbdt().clone(),
        &out.model,
        BundleMetadata {
            trainer: "LightMIRM(L=5,g=0.9)".into(),
            seed: 29,
            notes: "serve equivalence test".into(),
        },
    )
    .expect("dimensions match");
    (bundle, split.test, offline)
}

/// Drive the whole stream through an engine as requests of the given row
/// sizes (cycled), preserving order, and return the concatenated scores.
fn scores_through_engine(
    bundle: &ModelBundle,
    stream: &LoanFrame,
    cfg: EngineConfig,
    request_sizes: &[usize],
) -> Vec<f64> {
    let engine = ScoringEngine::new(bundle.clone(), cfg);
    let nf = bundle.n_features();
    let mut pending = Vec::new();
    let mut r = 0usize;
    let mut size_idx = 0usize;
    while r < stream.len() {
        let n = request_sizes[size_idx % request_sizes.len()].min(stream.len() - r);
        size_idx += 1;
        let mut features = Vec::with_capacity(n * nf);
        let mut env_ids = Vec::with_capacity(n);
        for k in r..r + n {
            features.extend_from_slice(stream.row(k));
            env_ids.push(stream.province[k]);
        }
        pending.push(
            engine
                .submit(features, env_ids, SubmitOptions::default())
                .expect("accepted"),
        );
        r += n;
    }
    let mut scores = Vec::with_capacity(stream.len());
    for p in pending {
        scores.extend(p.wait().expect("scored"));
    }
    let stats = engine.shutdown();
    assert_eq!(stats.rows_scored as usize, stream.len());
    scores
}

#[test]
fn engine_scores_are_bit_identical_to_offline_for_any_split_and_workers() {
    let (bundle, stream, offline) = served_world();
    // Request splits: single rows, odd chunks, chunks straddling
    // max_batch, and the whole stream as one request-too-large-free batch.
    let splits: &[&[usize]] = &[&[1], &[7, 13, 1, 64], &[300], &[1000]];
    for workers in [1, 2, 4] {
        for (i, sizes) in splits.iter().enumerate() {
            let cfg = EngineConfig {
                max_batch: 256,
                max_wait: Duration::from_millis(1),
                queue_capacity: 1 << 20,
                workers,
                ..EngineConfig::default()
            };
            let got = scores_through_engine(&bundle, &stream, cfg, sizes);
            assert_eq!(
                got, offline,
                "scores drifted at workers={workers}, split #{i}"
            );
        }
    }
}

#[test]
fn bundle_round_trip_through_engine_smoke() {
    // The CI smoke contract: save → load → serve must reproduce the
    // offline scores exactly at two worker counts.
    let (bundle, stream, offline) = served_world();
    let reloaded = ModelBundle::from_json(&bundle.to_json()).expect("round trip");
    for workers in [1, 2] {
        let cfg = EngineConfig {
            workers,
            ..EngineConfig::default()
        };
        let got = scores_through_engine(&reloaded, &stream, cfg, &[17]);
        assert_eq!(
            got, offline,
            "round-tripped bundle drifted at {workers} workers"
        );
    }
}

#[test]
fn queue_full_backpressure_and_drain_on_shutdown() {
    let (bundle, stream, offline) = served_world();
    let nf = bundle.n_features();
    // Workers only dispatch at 10_000 queued rows or after 10 s — so
    // submissions pile up deterministically and fill the bound.
    let engine = ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 10_000,
            max_wait: Duration::from_secs(10),
            queue_capacity: 8,
            workers: 2,
            ..EngineConfig::default()
        },
    );
    let one = |k: usize| (stream.row(k).to_vec(), vec![stream.province[k]]);

    let mut pending = Vec::new();
    for k in 0..8 {
        let (f, e) = one(k);
        pending.push(
            engine
                .submit(f, e, SubmitOptions::default())
                .expect("queue has space"),
        );
    }
    std::thread::scope(|s| {
        // A 9th row cannot fit: its submit parks on the full queue ...
        let (f, e) = one(8);
        let blocked = s.spawn(|| engine.submit(f, e, SubmitOptions::default()));
        let parked_by = std::time::Instant::now() + Duration::from_secs(5);
        while engine.park_wake_counts().0 == 0 {
            assert!(
                std::time::Instant::now() < parked_by,
                "the 9th submit never parked on the full queue"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!blocked.is_finished(), "a parked submit must not return");

        let (f, e) = one(8);
        assert_eq!(
            engine
                .submit(vec![0.0; 9 * nf], vec![0; 9], SubmitOptions::default())
                .unwrap_err(),
            SubmitError::RequestTooLarge {
                rows: 9,
                capacity: 8
            }
        );
        // Malformed feature slices are rejected before queueing.
        assert!(matches!(
            engine.submit(f[..nf - 1].to_vec(), e, SubmitOptions::default()),
            Err(SubmitError::Malformed { .. })
        ));
        // Zero-row requests answer immediately without occupying the queue.
        assert_eq!(
            engine
                .submit(Vec::new(), Vec::new(), SubmitOptions::default())
                .unwrap()
                .wait()
                .unwrap(),
            Vec::<f64>::new()
        );
        let stats = engine.stats();
        assert_eq!(stats.queue_depth_max, 8);

        // ... until the drain begins, which refuses it.
        engine.begin_shutdown();
        assert_eq!(
            blocked.join().expect("blocked submitter").unwrap_err(),
            SubmitError::ShuttingDown
        );
    });

    // Graceful drain: shutdown flushes all 8 queued requests.
    let stats = engine.shutdown();
    assert_eq!(stats.rows_scored, 8);
    for (k, p) in pending.into_iter().enumerate() {
        let scores = p.wait().expect("drained, not dropped");
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0], offline[k], "drained score differs at row {k}");
    }
    assert!(stats.latency_p99_ns >= stats.latency_p50_ns);
    assert_eq!(stats.requests, 9); // 8 queued + 1 empty
}

#[test]
fn blocking_submit_waits_for_space_instead_of_failing() {
    let (bundle, stream, offline) = served_world();
    // Tiny queue with a fast deadline: blocked submitters make progress
    // as the deadline flushes partial batches.
    let engine = std::sync::Arc::new(ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(200),
            queue_capacity: 4,
            workers: 1,
            ..EngineConfig::default()
        },
    ));
    let n = 200.min(stream.len());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let engine = std::sync::Arc::clone(&engine);
            let stream = stream.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                for k in (t..n).step_by(4) {
                    let scores = engine
                        .submit(
                            stream.row(k).to_vec(),
                            vec![stream.province[k]],
                            SubmitOptions::default(),
                        )
                        .expect("accepted")
                        .wait()
                        .expect("blocking submit succeeds");
                    got.push((k, scores[0]));
                }
                got
            })
        })
        .collect();
    for h in handles {
        for (k, s) in h.join().expect("submitter thread") {
            assert_eq!(s, offline[k], "score differs at row {k}");
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.rows_scored as usize, n);
    assert!(stats.batch_rows_max <= 4);
}
