//! Concurrency contract tests: under contention — many submitters, tiny
//! capacity, shutdown racing submission — every *accepted* request is
//! answered exactly once with its correct scores or a structured error,
//! and every rejection is one of the documented [`SubmitError`]s.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::{EngineConfig, Priority, ScoringEngine, SubmitError, SubmitOptions};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

/// Train a small bundle and keep the held-out stream plus its offline
/// scores (the correctness reference for every concurrent path).
fn served_world() -> (ModelBundle, LoanFrame, Vec<f64>) {
    let frame = generate(&GeneratorConfig::small(6_000, 41));
    let split = temporal_split(&frame, 2020);
    let mut fe = FeatureExtractorConfig::default();
    fe.gbdt.n_trees = 6;
    let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains");
    let names = ProvinceCatalog::standard().names();
    let train = extractor
        .to_env_dataset(&split.train, names.clone(), None)
        .expect("train transform");
    let out = ErmTrainer::new(TrainConfig {
        epochs: 4,
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
        BundleMetadata::default(),
    )
    .expect("dimensions match");
    (bundle, split.test, offline)
}

#[test]
fn blocking_submit_contention_answers_every_request_exactly_once() {
    let (bundle, stream, offline) = served_world();
    // Tiny queue + slow dispatch threshold: eight one-row submitters
    // against a six-row bound park on the full queue whenever the
    // workers fall behind.
    let queue_capacity = 6;
    let engine = Arc::new(ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 4,
            max_wait: Duration::from_micros(100),
            queue_capacity,
            workers: 2,
            ..EngineConfig::default()
        },
    ));
    let n = 400.min(stream.len());
    let accepted = Arc::new(AtomicUsize::new(0));
    let answered = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let stream = stream.clone();
            let offline = offline.clone();
            let (accepted, answered) = (Arc::clone(&accepted), Arc::clone(&answered));
            std::thread::spawn(move || {
                for k in (t..n).step_by(8) {
                    let p = engine
                        .submit(
                            stream.row(k).to_vec(),
                            vec![stream.province[k]],
                            SubmitOptions::default(),
                        )
                        .unwrap_or_else(|e| panic!("unexpected rejection: {e}"));
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let scores = p.wait().expect("accepted request is answered");
                    assert_eq!(scores.len(), 1);
                    assert_eq!(scores[0], offline[k], "wrong score for row {k}");
                    answered.fetch_add(1, Ordering::SeqCst);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter");
    }
    let engine = Arc::into_inner(engine).expect("all submitters joined");
    let stats = engine.shutdown();
    assert_eq!(accepted.load(Ordering::SeqCst), n, "every submit admitted");
    assert_eq!(answered.load(Ordering::SeqCst), n);
    assert_eq!(stats.rows_scored as usize, n);
    assert!(
        stats.queue_depth_max <= queue_capacity as u64,
        "queue depth {} overran its {queue_capacity}-row bound",
        stats.queue_depth_max
    );
}

#[test]
fn oversized_requests_are_rejected_under_concurrency_without_wedging() {
    let (bundle, stream, offline) = served_world();
    let nf = bundle.n_features();
    let engine = Arc::new(ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 8,
            max_wait: Duration::from_micros(100),
            queue_capacity: 8,
            workers: 2,
            ..EngineConfig::default()
        },
    ));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let stream = stream.clone();
            let offline = offline.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    // Interleave poison-pill oversized requests with real ones.
                    let err = engine
                        .submit(vec![0.0; 9 * nf], vec![0; 9], SubmitOptions::default())
                        .expect_err("9 rows can never fit an 8-row queue");
                    assert_eq!(
                        err,
                        SubmitError::RequestTooLarge {
                            rows: 9,
                            capacity: 8
                        }
                    );
                    let k = (t * 50 + i) % stream.len();
                    let scores = engine
                        .submit(
                            stream.row(k).to_vec(),
                            vec![stream.province[k]],
                            SubmitOptions::default(),
                        )
                        .expect("accepted")
                        .wait()
                        .expect("well-formed request succeeds");
                    assert_eq!(scores[0], offline[k]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter");
    }
}

#[test]
fn shutdown_vs_submit_race_never_loses_an_accepted_request() {
    let (bundle, stream, offline) = served_world();
    let engine = Arc::new(ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 16,
            max_wait: Duration::from_micros(50),
            queue_capacity: 64,
            workers: 3,
            ..EngineConfig::default()
        },
    ));
    let accepted = Arc::new(AtomicUsize::new(0));
    let answered = Arc::new(AtomicUsize::new(0));
    let rejected_shutdown = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let stream = stream.clone();
            let offline = offline.clone();
            let (accepted, answered, rejected) = (
                Arc::clone(&accepted),
                Arc::clone(&answered),
                Arc::clone(&rejected_shutdown),
            );
            std::thread::spawn(move || {
                for k in (t..600).step_by(6) {
                    let k = k % stream.len();
                    match engine.submit(
                        stream.row(k).to_vec(),
                        vec![stream.province[k]],
                        SubmitOptions::default(),
                    ) {
                        Ok(p) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            // Drain guarantee: accepted before/during
                            // shutdown still answers with real scores.
                            let scores = p.wait().expect("accepted requests drain");
                            assert_eq!(scores[0], offline[k]);
                            answered.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(SubmitError::ShuttingDown) => {
                            rejected.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(e) => panic!("unexpected rejection: {e}"),
                    }
                }
            })
        })
        .collect();
    // Initiate the drain while submitters are mid-flight: from here on
    // submissions race the shutdown flag for real.
    std::thread::sleep(Duration::from_millis(2));
    engine.begin_shutdown();
    for h in handles {
        h.join().expect("submitter");
    }
    let engine = Arc::into_inner(engine).expect("submitters joined");
    let stats = engine.shutdown();
    assert_eq!(
        accepted.load(Ordering::SeqCst),
        answered.load(Ordering::SeqCst),
        "every accepted request answered exactly once"
    );
    assert_eq!(stats.rows_scored as usize, accepted.load(Ordering::SeqCst));
    assert_eq!(
        stats.requests as usize,
        accepted.load(Ordering::SeqCst),
        "rejected submissions never count as requests"
    );
    // The race window is wide (600 submissions straddling the flag);
    // both outcomes must have occurred for the test to mean anything.
    assert!(
        rejected_shutdown.load(Ordering::SeqCst) > 0 || accepted.load(Ordering::SeqCst) == 600,
        "shutdown flag never observed"
    );
}

#[test]
fn low_priority_traffic_sheds_at_the_watermark() {
    let (bundle, stream, _) = served_world();
    // Dispatch threshold unreachable: submissions pile up deterministically.
    let engine = ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 10_000,
            max_wait: Duration::from_secs(10),
            queue_capacity: 8,
            workers: 1,
            shed_watermark: 0.5,
            ..EngineConfig::default()
        },
    );
    let one = |k: usize| (stream.row(k).to_vec(), vec![stream.province[k]]);
    let low = SubmitOptions {
        priority: Priority::Low,
        ..SubmitOptions::default()
    };

    // Fill to the watermark (4 of 8 rows) with low-priority traffic.
    let mut pending = Vec::new();
    for k in 0..4 {
        let (f, e) = one(k);
        pending.push(engine.submit(f, e, low).expect("below watermark"));
    }
    // Low sheds at the watermark; normal traffic still fits.
    let (f, e) = one(4);
    assert_eq!(engine.submit(f, e, low).unwrap_err(), SubmitError::Shed);
    let (f, e) = one(4);
    pending.push(
        engine
            .submit(f, e, SubmitOptions::default())
            .expect("normal traffic unaffected"),
    );
    // Shedding never parks: a repeat low-priority submit is refused at
    // once too, although submit parks on a full queue.
    let (f, e) = one(5);
    assert_eq!(engine.submit(f, e, low).unwrap_err(), SubmitError::Shed);
    // High priority also keeps flowing up to the hard bound.
    let (f, e) = one(5);
    let high = SubmitOptions {
        priority: Priority::High,
        ..SubmitOptions::default()
    };
    pending.push(engine.submit(f, e, high).expect("high passes"));

    let stats = engine.stats();
    assert_eq!(stats.shed_low_priority, 2);
    let stats = engine.shutdown();
    assert_eq!(stats.rows_scored, 6);
    for p in pending {
        assert_eq!(p.wait().expect("drained").len(), 1);
    }
}

#[test]
fn expired_only_batches_answer_deadline_exceeded() {
    let (bundle, stream, offline) = served_world();
    // One worker, dispatch only on max_wait: a zero deadline is always
    // expired by dispatch time.
    let engine = ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 10_000,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let dead = SubmitOptions {
        deadline: Some(Duration::ZERO),
        ..SubmitOptions::default()
    };
    let p = engine
        .submit(stream.row(0).to_vec(), vec![stream.province[0]], dead)
        .expect("accepted");
    assert_eq!(
        p.wait().unwrap_err(),
        lightmirm_serve::ScoreError::DeadlineExceeded
    );
    let stats = engine.stats();
    assert_eq!(stats.expired, 1);
    // A generous deadline scores normally.
    let ok = SubmitOptions {
        deadline: Some(Duration::from_secs(60)),
        ..SubmitOptions::default()
    };
    let p = engine
        .submit(stream.row(0).to_vec(), vec![stream.province[0]], ok)
        .expect("accepted");
    assert_eq!(p.wait().expect("scored"), vec![offline[0]]);
    engine.shutdown();
}
