//! The chaos suite: deterministic fault injection against the serving
//! engine. Compiled only under `--features failpoints`.
//!
//! Contract verified under every injected fault (worker panic at the
//! scoring site, worker-thread death outside it, dispatch delays,
//! probabilistic panic storms): each accepted request is answered
//! exactly once with either scores **bit-identical to the fault-free
//! run** or a structured [`ScoreError`] — zero hangs, zero silent NaNs.
//! Every schedule is seeded, so a failing run replays identically; the
//! fired-fault log is printed for the CI artifact.
#![cfg(feature = "failpoints")]

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use lightmirm_core::failpoint::{self, FailMode, Fault};
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::{EngineConfig, ScoreError, ScoringEngine, SubmitOptions};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

/// The failpoint registry is process-global: chaos tests run one at a
/// time. (The fixture is also only built once, under this lock.)
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

struct World {
    bundle: ModelBundle,
    stream: LoanFrame,
    offline: Vec<f64>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let frame = generate(&GeneratorConfig::small(6_000, 61));
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
        // The fault-free reference: the bundle's own batch path, which
        // the serve-equivalence suite already proves matches offline.
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

/// Quiet the default panic printer for injected worker panics (they are
/// expected and caught); anything from a non-worker thread still prints.
fn hush_worker_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let from_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("lightmirm-score-"));
            if !from_worker {
                default(info);
            }
        }));
    });
}

fn engine(cfg: EngineConfig) -> ScoringEngine {
    ScoringEngine::new(world().bundle.clone(), cfg)
}

/// Submit `n` single-row requests, wait for all, and return each
/// request's outcome.
fn drive(engine: &ScoringEngine, n: usize) -> Vec<Result<Vec<f64>, ScoreError>> {
    let w = world();
    let pending: Vec<_> = (0..n)
        .map(|k| {
            engine
                .submit(
                    w.stream.row(k).to_vec(),
                    vec![w.stream.province[k]],
                    SubmitOptions::default(),
                )
                .expect("accepted")
        })
        .collect();
    pending.into_iter().map(|p| p.wait()).collect()
}

#[test]
fn transient_scoring_panics_retry_to_bit_identical_scores() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    failpoint::configure(101);
    failpoint::set(
        "serve::score_batch",
        FailMode::FirstK {
            k: 2,
            fault: Fault::Panic,
        },
    );
    let engine = engine(EngineConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        queue_capacity: 1024,
        workers: 1,
        max_attempts: 3,
        ..EngineConfig::default()
    });
    let outcomes = drive(&engine, 100);
    for (k, outcome) in outcomes.iter().enumerate() {
        let scores = outcome.as_ref().expect("transient faults recover");
        assert_eq!(
            scores[0].to_bits(),
            w.offline[k].to_bits(),
            "row {k} drifted after retries"
        );
    }
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(stats.worker_panics, 2);
    assert!(stats.retried_requests >= 1);
    assert_eq!(stats.poisoned_requests, 0);
    assert_eq!(stats.rows_scored, 100);
}

#[test]
fn persistent_scoring_panics_poison_boundedly_and_never_hang() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    failpoint::configure(202);
    failpoint::set("serve::score_batch", FailMode::Always(Fault::Panic));
    let engine = engine(EngineConfig {
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        queue_capacity: 1024,
        workers: 2,
        max_attempts: 2,
        ..EngineConfig::default()
    });
    let outcomes = drive(&engine, 40);
    for (k, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.as_ref().unwrap_err(),
            &ScoreError::Poisoned { attempts: 2 },
            "request {k} should exhaust its attempts"
        );
    }
    // The drain itself must also terminate with everything answered.
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(stats.poisoned_requests, 40);
    assert_eq!(stats.rows_scored, 0);
    assert!(stats.worker_panics >= 2);
}

#[test]
fn dead_worker_threads_are_respawned_and_service_continues() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    failpoint::configure(303);
    // Panic at the loop top, outside the scoring guard: the thread dies
    // and only the respawn path can keep the pool alive.
    failpoint::set(
        "serve::worker_loop",
        FailMode::FirstK {
            k: 1,
            fault: Fault::Panic,
        },
    );
    let engine = engine(EngineConfig {
        workers: 1,
        max_wait: Duration::from_micros(100),
        ..EngineConfig::default()
    });
    let outcomes = drive(&engine, 50);
    for (k, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.as_ref().expect("respawned worker serves")[0].to_bits(),
            w.offline[k].to_bits(),
            "row {k} drifted across the respawn"
        );
    }
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(stats.workers_respawned, 1);
    assert_eq!(stats.rows_scored, 50);
}

#[test]
fn dispatch_delays_stall_but_never_corrupt() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    failpoint::configure(404);
    failpoint::set(
        "serve::dispatch_delay",
        FailMode::Every {
            n: 3,
            fault: Fault::Delay(5),
        },
    );
    let engine = engine(EngineConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(100),
        workers: 2,
        ..EngineConfig::default()
    });
    let outcomes = drive(&engine, 60);
    for (k, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.as_ref().expect("delays are not failures")[0].to_bits(),
            w.offline[k].to_bits(),
            "row {k} drifted under injected delays"
        );
    }
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(stats.rows_scored, 60);
}

/// The acceptance criterion's determinism clause: the same seed replays
/// the same faults and the same per-request outcomes, end to end.
#[test]
fn a_fixed_seed_replays_faults_and_outcomes_identically() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    let run = |seed: u64| -> (Vec<String>, Vec<Result<Vec<u64>, ScoreError>>) {
        failpoint::configure(seed);
        failpoint::set(
            "serve::score_batch",
            FailMode::Prob {
                p: 0.3,
                fault: Fault::Panic,
            },
        );
        // One worker and strictly sequential blocking submits: the
        // site's hit order is then exactly the request/retry order, so
        // the probabilistic schedule is fully reproducible.
        let engine = engine(EngineConfig {
            max_batch: 1,
            max_wait: Duration::from_micros(50),
            workers: 1,
            max_attempts: 2,
            ..EngineConfig::default()
        });
        let outcomes: Vec<Result<Vec<u64>, ScoreError>> = (0..80)
            .map(|k| {
                engine
                    .submit(
                        w.stream.row(k).to_vec(),
                        vec![w.stream.province[k]],
                        SubmitOptions::default(),
                    )
                    .expect("accepted")
                    .wait()
                    .map(|scores| scores.iter().map(|s| s.to_bits()).collect())
            })
            .collect();
        engine.shutdown();
        let log = failpoint::fired_log();
        failpoint::clear();
        (log, outcomes)
    };
    let (log_a, out_a) = run(777);
    let (log_b, out_b) = run(777);
    assert_eq!(log_a, log_b, "fired-fault trace must replay identically");
    assert_eq!(out_a, out_b, "per-request outcomes must replay identically");
    assert!(
        log_a.iter().any(|l| l.contains("Panic")),
        "the schedule must actually fire for this test to mean anything"
    );
    // And the successful outcomes are still bit-identical to fault-free.
    for (k, outcome) in out_a.iter().enumerate() {
        if let Ok(bits) = outcome {
            assert_eq!(bits[0], w.offline[k].to_bits());
        }
    }
    println!("chaos determinism trace ({} faults):", log_a.len());
    for line in &log_a {
        println!("  {line}");
    }
}

/// Requests queued behind a poisoned batch drain correctly when the
/// engine shuts down mid-storm: shutdown must never strand retries.
#[test]
fn shutdown_mid_fault_storm_answers_everything() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    failpoint::configure(505);
    failpoint::set(
        "serve::score_batch",
        FailMode::Every {
            n: 2,
            fault: Fault::Panic,
        },
    );
    let engine = engine(EngineConfig {
        max_batch: 4,
        max_wait: Duration::from_micros(100),
        workers: 2,
        max_attempts: 3,
        ..EngineConfig::default()
    });
    let w = world();
    let pending: Vec<_> = (0..60)
        .map(|k| {
            engine
                .submit(
                    w.stream.row(k).to_vec(),
                    vec![w.stream.province[k]],
                    SubmitOptions::default(),
                )
                .expect("accepted")
        })
        .collect();
    // Shut down immediately: the drain overlaps the fault storm.
    let engine = Arc::new(engine);
    let drainer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.begin_shutdown())
    };
    let mut scored = 0usize;
    let mut poisoned = 0usize;
    for (k, p) in pending.into_iter().enumerate() {
        match p.wait() {
            Ok(scores) => {
                assert_eq!(scores[0].to_bits(), w.offline[k].to_bits());
                scored += 1;
            }
            Err(ScoreError::Poisoned { .. }) => poisoned += 1,
            Err(e) => panic!("unexpected outcome for request {k}: {e}"),
        }
    }
    drainer.join().expect("drainer");
    let engine = Arc::into_inner(engine).expect("drainer joined");
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(scored + poisoned, 60, "every accepted request answered");
    assert_eq!(stats.rows_scored as usize, scored);
}

/// The submit rule: a push wakes an idle worker only when it makes the
/// queue non-empty while no batch is forming. Requests queued behind a
/// worker that is still scoring signal it once, not once per submit, and
/// still score bit-identically.
#[test]
fn submits_queued_behind_a_busy_worker_signal_it_once() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    failpoint::configure(606);
    // Hold the only worker in its first `score_batch` long enough for
    // three more submits to land behind it.
    failpoint::set(
        "serve::score_batch",
        FailMode::FirstK {
            k: 1,
            fault: Fault::Delay(500),
        },
    );
    let engine = engine(EngineConfig {
        max_batch: 8,
        max_wait: Duration::ZERO,
        workers: 1,
        ..EngineConfig::default()
    });
    let submit = |k: usize| {
        engine
            .submit(
                w.stream.row(k).to_vec(),
                vec![w.stream.province[k]],
                SubmitOptions::default(),
            )
            .expect("accepted")
    };
    let mut pending = vec![submit(0)];
    let by = std::time::Instant::now() + Duration::from_secs(5);
    while failpoint::fired_log().is_empty() {
        assert!(
            std::time::Instant::now() < by,
            "the worker never reached score_batch"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let (_, _, before) = engine.park_wake_counts();
    pending.extend((1..4).map(submit));
    let (_, _, after) = engine.park_wake_counts();
    assert_eq!(
        after - before,
        1,
        "only the submit that made the queue non-empty signals"
    );
    for (k, p) in pending.into_iter().enumerate() {
        let scores = p.wait().expect("scored");
        assert_eq!(scores[0].to_bits(), w.offline[k].to_bits(), "row {k}");
    }
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(stats.rows_scored, 4);
}
