//! Chaos for the sharded front end: scoped failpoints (`site#shardN`)
//! target one shard while its siblings keep serving. Compiled only
//! under `--features failpoints`.
//!
//! Verified here: a draining shard refuses its keys at once while its
//! accepted requests and every sibling's replies stay bit-identical;
//! per-shard hot reloads racing live traffic keep each shard's
//! bundle⇔drift-monitor pairing intact; and shutdown under a full queue
//! cannot deadlock with a producer blocked in `submit` (the
//! drain-on-shutdown regression test).

#![cfg(feature = "failpoints")]

use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

use lightmirm_core::bundle::DriftBaseline;
use lightmirm_core::failpoint::{self, FailMode, Fault};
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::shard::route;
use lightmirm_serve::{
    EngineConfig, MonitorConfig, ShardConfig, ShardedEngine, SubmitError, SubmitOptions,
};
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
        let frame = generate(&GeneratorConfig::small(6_000, 67));
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

#[test]
fn a_draining_shard_refuses_its_keys_while_siblings_hold_deadline() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    failpoint::configure(301);
    // Transient panics scoped to shard 1 only: its retries must still
    // converge to bit-identical scores while shard 0 drains.
    failpoint::set(
        "serve::score_batch#shard1",
        FailMode::FirstK {
            k: 3,
            fault: Fault::Panic,
        },
    );
    let engine = ShardedEngine::new(
        &w.bundle,
        &ShardConfig {
            shards: 4,
            engine: EngineConfig {
                max_batch: 16,
                max_wait: Duration::from_micros(100),
                queue_capacity: 512,
                workers: 1,
                max_attempts: 4,
                ..EngineConfig::default()
            },
        },
    );
    let n = w.stream.len().min(1_200);
    let opts = SubmitOptions {
        deadline: Some(Duration::from_secs(60)),
        ..SubmitOptions::default()
    };
    let mut pending = Vec::with_capacity(n);
    let (mut accepted_on_0, mut refused) = (0u64, 0usize);
    for (k, &province) in w.stream.province.iter().enumerate().take(n) {
        if k == n / 2 {
            // Kill shard 0 mid-flood. Its keys are refused from here on
            // (no request moves to a sibling); its queued requests drain
            // to completion.
            engine.shard(0).begin_shutdown();
        }
        let routed = route(province, 4);
        match engine.submit(province, w.stream.row(k).to_vec(), vec![province], opts) {
            Ok((shard, p)) => {
                assert_eq!(shard, routed, "request {k} left its route");
                assert!(
                    k < n / 2 || shard != 0,
                    "request {k} accepted by a draining shard"
                );
                accepted_on_0 += u64::from(shard == 0);
                pending.push((k, p));
            }
            Err(e) => {
                assert_eq!(e, SubmitError::ShuttingDown, "request {k}");
                assert!(k >= n / 2 && routed == 0, "request {k} refused: {e}");
                refused += 1;
            }
        }
    }
    assert!(refused > 0, "no key of the second half routes to shard 0");
    let accepted = pending.len();
    for (k, p) in pending {
        let scores = p
            .wait()
            .unwrap_or_else(|e| panic!("request {k} not answered in time: {e}"));
        assert_eq!(scores.len(), 1);
        assert_eq!(
            scores[0].to_bits(),
            w.offline[k].to_bits(),
            "row {k} drifted under shard death + scoped panics"
        );
    }
    let stats = engine.shutdown();
    failpoint::clear();
    let total: u64 = stats.iter().map(|s| s.rows_scored).sum();
    assert_eq!(total as usize, accepted, "every row answered exactly once");
    assert_eq!(accepted + refused, n);
    assert!(
        accepted_on_0 > 0,
        "shard 0 accepted nothing before its drain"
    );
    assert_eq!(
        stats[0].rows_scored, accepted_on_0,
        "the draining shard answered its accepted requests"
    );
    assert_eq!(stats.iter().map(|s| s.expired).sum::<u64>(), 0);
    assert_eq!(
        stats[1].worker_panics, 3,
        "the scoped failpoint fired on shard 1 alone"
    );
    assert_eq!(stats.iter().map(|s| s.worker_panics).sum::<u64>(), 3);
    assert!(
        (1..4).all(|i| stats[i].rows_scored > 0),
        "surviving shards all kept scoring: {stats:?}"
    );
}

#[test]
fn per_shard_reloads_racing_traffic_keep_bundle_and_monitor_paired() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    failpoint::configure(404);
    // Stretch shard 1's probe validation so every reload_all overlaps
    // in-flight traffic on that shard for multiple batches.
    failpoint::set(
        "serve::reload_probe#shard1",
        FailMode::Always(Fault::Delay(5)),
    );

    let n_probe = 8.min(w.stream.len());
    let mut probe_features = Vec::with_capacity(n_probe * w.bundle.n_features());
    let mut probe_envs = Vec::with_capacity(n_probe);
    for k in 0..n_probe {
        probe_features.extend_from_slice(w.stream.row(k));
        probe_envs.push(w.stream.province[k]);
    }
    // Two candidates with identical scoring weights: one carries a
    // drift baseline (monitor must arm), one does not (monitor must
    // disarm). Scores stay bit-identical across every generation.
    let mut all_features = Vec::with_capacity(w.stream.len() * w.bundle.n_features());
    for k in 0..w.stream.len() {
        all_features.extend_from_slice(w.stream.row(k));
    }
    let baseline = DriftBaseline::capture(
        &w.offline,
        &w.stream.province,
        &all_features,
        w.bundle.n_features(),
        &[0, 1],
        32,
    );
    let with_baseline = w.bundle.clone().with_baseline(baseline);
    let without_baseline = w.bundle.clone();

    let engine = Arc::new(ShardedEngine::new(
        &with_baseline,
        &ShardConfig {
            shards: 2,
            engine: EngineConfig {
                max_batch: 16,
                max_wait: Duration::from_micros(100),
                queue_capacity: 512,
                workers: 1,
                monitor: Some(MonitorConfig::default()),
                ..EngineConfig::default()
            },
        },
    ));
    let n = w.stream.len().min(1_500);
    let flood = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let w = world();
            let pending: Vec<_> = (0..n)
                .map(|k| {
                    let (_, p) = engine
                        .submit(
                            w.stream.province[k],
                            w.stream.row(k).to_vec(),
                            vec![w.stream.province[k]],
                            SubmitOptions::default(),
                        )
                        .expect("accepted");
                    (k, p)
                })
                .collect();
            for (k, p) in pending {
                let scores = p.wait().expect("answered");
                assert_eq!(
                    scores[0].to_bits(),
                    w.offline[k].to_bits(),
                    "row {k} drifted across reload generations"
                );
            }
        })
    };
    // Toggle the baseline on and off while the flood runs. After every
    // swap, each shard's bundle and monitor must agree: a baseline-ful
    // bundle serves with an armed monitor, a baseline-less one without.
    for round in 0..6 {
        let candidate = if round % 2 == 0 {
            &without_baseline
        } else {
            &with_baseline
        };
        engine
            .reload_all(candidate, &probe_features, &probe_envs)
            .expect("probe passes: candidate scores match the incumbent");
        for i in 0..engine.shards() {
            let has_baseline = engine.shard(i).bundle().baseline.is_some();
            let has_monitor = engine.shard(i).drift_monitor().is_some();
            assert_eq!(has_baseline, candidate.baseline.is_some());
            assert_eq!(
                has_baseline, has_monitor,
                "shard {i} round {round}: bundle and monitor unpaired"
            );
        }
    }
    flood.join().expect("flood thread");
    let engine = Arc::into_inner(engine).expect("flood joined");
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(stats.iter().map(|s| s.rows_scored).sum::<u64>() as usize, n);
    assert_eq!(stats.iter().map(|s| s.reloads).sum::<u64>(), 12);
    assert_eq!(stats.iter().map(|s| s.poisoned_requests).sum::<u64>(), 0);
}

#[test]
fn shutdown_under_a_full_queue_cannot_deadlock_a_blocked_producer() {
    let _g = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_worker_panics();
    let w = world();
    failpoint::configure(505);
    // Stall the reply path so the queue backs up and the producer
    // parks in blocking `submit` against the row-count bound.
    failpoint::set("serve::reply#shard0", FailMode::Always(Fault::Delay(10)));
    let engine = Arc::new(ShardedEngine::new(
        &w.bundle,
        &ShardConfig {
            shards: 1,
            engine: EngineConfig {
                max_batch: 4,
                max_wait: Duration::from_micros(100),
                queue_capacity: 8,
                workers: 1,
                ..EngineConfig::default()
            },
        },
    ));
    let (done_tx, done_rx) = mpsc::channel();
    let producer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let w = world();
            let mut accepted = Vec::new();
            let mut rejected = 0usize;
            for k in 0..300 {
                match engine.submit(
                    w.stream.province[k],
                    w.stream.row(k).to_vec(),
                    vec![w.stream.province[k]],
                    SubmitOptions::default(),
                ) {
                    Ok((_, p)) => accepted.push((k, p)),
                    Err(e) => {
                        assert_eq!(
                            e,
                            lightmirm_serve::SubmitError::ShuttingDown,
                            "only the shutdown cutoff may reject a blocking submit"
                        );
                        rejected += 1;
                    }
                }
            }
            // Every accepted request must still be answered, correctly.
            let n_accepted = accepted.len();
            for (k, p) in accepted {
                let scores = p.wait().expect("accepted requests drain to replies");
                assert_eq!(scores[0].to_bits(), w.offline[k].to_bits(), "row {k}");
            }
            done_tx.send((n_accepted, rejected)).expect("report");
        })
    };
    // Let the producer wedge against the full queue (replies trickle at
    // 10ms each against a 300-row backlog), then pull the plug.
    std::thread::sleep(Duration::from_millis(150));
    assert!(
        engine.shard(0).park_wake_counts().0 > 0,
        "the producer never parked on the full queue"
    );
    engine.shard(0).begin_shutdown();
    // The regression under test: the blocked producer must wake, see
    // ShuttingDown, and finish — not sleep forever on a condvar no
    // worker will ever signal again.
    let (accepted, rejected) = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("producer deadlocked against shutdown");
    producer.join().expect("producer thread");
    assert!(accepted > 0, "some requests were accepted before the cut");
    assert!(rejected > 0, "the cutoff rejected the blocked submissions");
    assert_eq!(accepted + rejected, 300);
    let engine = Arc::into_inner(engine).expect("producer joined");
    let stats = engine.shutdown();
    failpoint::clear();
    assert_eq!(stats[0].rows_scored as usize, accepted);
}
