//! Concurrency contract tests: under contention — many submitters, tiny
//! capacity, shutdown racing submission — every *accepted* request is
//! answered exactly once with its correct scores or a structured error,
//! and every rejection is one of the documented [`SubmitError`]s.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use lightmirm_core::obs::STAGE_NAMES;
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::{
    EngineConfig, PendingScores, Priority, ScoringEngine, SubmitError, SubmitOptions,
};
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

/// Poll `done` every millisecond for up to five seconds.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let by = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < by, "{what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Submit stream row `k` alone.
fn submit_row(engine: &ScoringEngine, stream: &LoanFrame, k: usize) -> PendingScores {
    engine
        .submit(
            stream.row(k).to_vec(),
            vec![stream.province[k]],
            SubmitOptions::default(),
        )
        .expect("accepted")
}

#[test]
fn submits_into_a_forming_batch_signal_no_worker() {
    let (bundle, stream, offline) = served_world();
    // A deadline far past the test, and a batch the test never fills:
    // only the drain seals it.
    let engine = ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 64,
            max_wait: Duration::from_secs(60),
            queue_capacity: 128,
            workers: 2,
            ..EngineConfig::default()
        },
    );
    let mut pending = vec![submit_row(&engine, &stream, 0)];
    // The batch opens when a worker pops its first request.
    wait_until("no worker opened a batch", || engine.ring_occupancy() == 0);
    let (_, _, wakeups) = engine.park_wake_counts();
    for k in 1..8 {
        pending.push(submit_row(&engine, &stream, k));
    }
    assert_eq!(
        engine.park_wake_counts().2,
        wakeups,
        "a submit below max_batch into a forming batch signalled a worker"
    );
    assert_eq!(
        engine.ring_occupancy(),
        7,
        "arrivals wait in the ring until the batch seals"
    );
    let stats = engine.shutdown();
    assert_eq!(stats.rows_scored, 8);
    for (k, p) in pending.into_iter().enumerate() {
        assert_eq!(p.wait().expect("drained"), vec![offline[k]], "row {k}");
    }
}

#[test]
fn the_submit_that_fills_a_batch_is_answered_long_before_max_wait() {
    let (bundle, stream, offline) = served_world();
    let max_wait = Duration::from_secs(60);
    for workers in [1, 2] {
        let engine = ScoringEngine::new(
            bundle.clone(),
            EngineConfig {
                max_batch: 4,
                max_wait,
                queue_capacity: 16,
                workers,
                ..EngineConfig::default()
            },
        );
        let (tx, rx) = mpsc::channel();
        let started = Instant::now();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                // Three rows open a batch and wait in it; the fourth
                // brings the admitted rows to max_batch.
                let pending: Vec<PendingScores> =
                    (0..4).map(|k| submit_row(&engine, &stream, k)).collect();
                for (k, p) in pending.into_iter().enumerate() {
                    assert_eq!(p.wait().expect("scored"), vec![offline[k]], "row {k}");
                }
                tx.send(()).expect("report");
            });
            rx.recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| {
                    panic!("{workers} worker(s): a full batch waited for its {max_wait:?} deadline")
                });
            waiter.join().expect("waiter");
        });
        assert!(started.elapsed() < max_wait / 6);
        assert_eq!(engine.shutdown().rows_scored, 4);
    }
}

#[test]
fn a_request_joining_an_open_batch_spends_its_wait_in_batch_not_ring() {
    let (bundle, stream, _) = served_world();
    // One worker and a long deadline: A opens the batch, B joins it
    // while it forms, and both dispatch when A's deadline passes.
    let max_wait = Duration::from_millis(300);
    let engine = ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 64,
            max_wait,
            queue_capacity: 128,
            workers: 1,
            trace_requests: true,
            tail_samples: 4,
            ..EngineConfig::default()
        },
    );
    let traced = |k: usize, id: u64| {
        let opts = SubmitOptions {
            request_id: Some(id),
            ..SubmitOptions::default()
        };
        let t0 = Instant::now();
        let pending = engine
            .submit(stream.row(k).to_vec(), vec![stream.province[k]], opts)
            .expect("accepted");
        (pending, t0)
    };
    let (a, a_sent) = traced(0, 1);
    wait_until("no worker opened a batch", || engine.ring_occupancy() == 0);
    let (b, b_sent) = traced(1, 2);
    a.wait().expect("A scored");
    let a_wall = a_sent.elapsed();
    b.wait().expect("B scored");
    let b_wall = b_sent.elapsed();
    let tail = engine.tail_sampler();
    let trace = |id: u64| {
        tail.traces()
            .iter()
            .find(|t| t.request_id == id)
            .unwrap_or_else(|| panic!("request {id} not sampled"))
            .clone()
    };
    let (ring, batch) = (2, 3);
    assert_eq!((STAGE_NAMES[ring], STAGE_NAMES[batch]), ("ring", "batch"));
    let (ta, tb) = (trace(1), trace(2));
    for (t, wall) in [(&ta, a_wall), (&tb, b_wall)] {
        assert_eq!(t.stages_ns.iter().sum::<u64>(), t.enqueue_to_reply_ns);
        assert!(
            Duration::from_nanos(t.enqueue_to_reply_ns) <= wall,
            "request {}: stages {:?} exceed the caller's {wall:?}",
            t.request_id,
            t.stages_ns
        );
    }
    assert_eq!(
        tb.stages_ns[ring], 0,
        "B joined an open batch, so it never queued: {:?}",
        tb.stages_ns
    );
    assert!(
        Duration::from_nanos(tb.stages_ns[batch]) >= max_wait / 3,
        "B's coalescing wait is its batch stage: {:?}",
        tb.stages_ns
    );
    assert!(
        Duration::from_nanos(ta.stages_ns[ring] + ta.stages_ns[batch]) >= max_wait,
        "A waited out the deadline: {:?}",
        ta.stages_ns
    );
    engine.shutdown();
}

#[test]
fn stress_every_accepted_request_is_answered_bit_identically() {
    let (bundle, stream, _) = served_world();
    let reference = bundle.score_batch(stream.feature_matrix(), &stream.province);
    let max_batch = 8;
    let submitters = 4;
    let per_submitter = 40;
    for workers in [1, 2, 4] {
        for max_wait in [
            Duration::ZERO,
            Duration::from_micros(200),
            Duration::from_millis(2),
        ] {
            let config = format!("{workers} worker(s), max_wait {max_wait:?}");
            let engine = Arc::new(ScoringEngine::new(
                bundle.clone(),
                EngineConfig {
                    max_batch,
                    max_wait,
                    queue_capacity: 3 * max_batch,
                    workers,
                    ..EngineConfig::default()
                },
            ));
            let (done_tx, done_rx) = mpsc::channel();
            let mut handles = Vec::new();
            for t in 0..submitters {
                let (engine, stream, reference) =
                    (Arc::clone(&engine), stream.clone(), reference.clone());
                let done_tx = done_tx.clone();
                handles.push(std::thread::spawn(move || {
                    // Request sizes cycle through 1..=max_batch + 1; even
                    // submitters wait for each reply, odd ones submit
                    // everything first and park on the full queue.
                    let mut rows_sent = 0;
                    let mut pending = Vec::new();
                    for i in 0..per_submitter {
                        let size = (t + i) % (max_batch + 1) + 1;
                        let first = (t * per_submitter + i) * (max_batch + 1);
                        let rows: Vec<usize> =
                            (first..first + size).map(|k| k % stream.len()).collect();
                        let features: Vec<f32> =
                            rows.iter().flat_map(|&k| stream.row(k).to_vec()).collect();
                        let env_ids = rows.iter().map(|&k| stream.province[k]).collect();
                        let p = engine
                            .submit(features, env_ids, SubmitOptions::default())
                            .expect("every submit is admitted");
                        rows_sent += size;
                        pending.push((rows, p));
                        if t % 2 == 0 {
                            let (rows, p) = pending.pop().expect("just pushed");
                            check(&rows, p, &reference);
                        }
                    }
                    for (rows, p) in pending {
                        check(&rows, p, &reference);
                    }
                    done_tx.send(rows_sent).expect("report");
                }));
            }
            drop(done_tx);
            let mut rows_sent = 0;
            for _ in 0..submitters {
                rows_sent += done_rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|_| panic!("{config}: a request went unanswered"));
            }
            for h in handles {
                h.join().expect("submitter");
            }
            let engine = Arc::into_inner(engine).expect("submitters finished");
            let stats = engine.shutdown();
            assert_eq!(stats.rows_scored as usize, rows_sent, "{config}");
        }
    }
}

/// The served scores of `rows` equal offline `score_batch` bit for bit.
fn check(rows: &[usize], pending: PendingScores, reference: &[f64]) {
    let served = pending.wait().expect("accepted request is answered");
    let want: Vec<u64> = rows.iter().map(|&k| reference[k].to_bits()).collect();
    let got: Vec<u64> = served.iter().map(|s| s.to_bits()).collect();
    assert_eq!(got, want, "rows {rows:?}");
}
