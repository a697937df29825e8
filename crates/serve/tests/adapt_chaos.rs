//! The adaptation chaos suite: every failure mode of the promotion
//! state machine, injected deterministically through `core::failpoint`.
//! Compiled only under `--features failpoints`.
//!
//! - a panicking retrain (`adapt::retrain`) walks retry → exponential
//!   backoff → cooldown, then recovers and promotes once the fault
//!   clears;
//! - a silently corrupted candidate head (`adapt::bad_retrain`) slips
//!   past the probe but is caught by the canary guard and rolled back
//!   with bit-identical champion scores;
//! - a persistence failure (`bundle::fsync`) vetoes an otherwise
//!   promotable challenger — promotion requires a durable artifact;
//! - a manual hot reload racing the controller's promotion
//!   (`serve::reload_probe` delayed to widen the window) leaves the
//!   served bundle and the rearmed monitor consistently paired.
//!
//! The retrain-walk test exports the full transition log as JSONL (to
//! `$ADAPT_EVENT_LOG` when set) — the CI chaos job's artifact.
#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use lightmirm_core::bundle::DriftBaseline;
use lightmirm_core::failpoint::{self, FailMode, Fault};
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::{
    AdaptConfig, AdaptOutcome, EngineConfig, FeedConfig, LabelFeed, MonitorConfig,
    PromotionController, RollbackReason, ScoringEngine, SubmitOptions,
};
use loansim::{generate, temporal_split, GeneratorConfig, ProvinceCatalog};

/// The failpoint registry is process-global: chaos tests run one at a
/// time.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

struct World {
    bundle: ModelBundle,
    /// Shifted-province stream rows (+3.0 on monitored columns).
    feats: Vec<f32>,
    envs: Vec<u16>,
    labels: Vec<u8>,
    shifted_env: u16,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let frame = generate(&GeneratorConfig::small(6_000, 31));
        let split = temporal_split(&frame, 2020);
        let mut fe = FeatureExtractorConfig::default();
        fe.gbdt.n_trees = 6;
        let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains");
        let train = extractor
            .to_env_dataset(&split.train, ProvinceCatalog::standard().names(), None)
            .expect("train transform");
        let out = LightMirmTrainer::new(TrainConfig {
            epochs: 4,
            inner_lr: 0.1,
            outer_lr: 0.3,
            ..Default::default()
        })
        .fit(&train, None);
        let bundle = ModelBundle::new(
            extractor.gbdt().clone(),
            &out.model,
            BundleMetadata::default(),
        )
        .expect("dimensions match");

        let nf = bundle.n_features();
        let mut feats = Vec::new();
        let mut envs = Vec::new();
        for k in 0..split.train.len() {
            feats.extend_from_slice(split.train.row(k));
            envs.push(split.train.province[k]);
        }
        let train_scores = bundle.score_batch(&feats, &envs);
        let columns = DriftBaseline::top_k_columns(extractor.gbdt().feature_importance(), 4);
        let baseline = DriftBaseline::capture(&train_scores, &envs, &feats, nf, &columns, 64);
        let bundle = bundle.with_baseline(baseline);

        // Best-sampled province, shifted +3.0 on the monitored columns.
        let mut counts = std::collections::BTreeMap::new();
        for &p in &split.train.province {
            *counts.entry(p).or_insert(0usize) += 1;
        }
        let shifted_env = *counts.iter().max_by_key(|&(_, n)| *n).expect("provinces").0;
        let shift_cols: Vec<usize> = bundle
            .baseline
            .as_ref()
            .expect("baseline")
            .columns
            .iter()
            .map(|&c| c as usize)
            .collect();
        let mut s_feats = Vec::new();
        let mut s_envs = Vec::new();
        let mut s_labels = Vec::new();
        for k in 0..split.train.len() {
            if split.train.province[k] == shifted_env {
                let mut row = split.train.row(k).to_vec();
                for &c in &shift_cols {
                    row[c] += 3.0;
                }
                s_feats.extend_from_slice(&row);
                s_envs.push(shifted_env);
                s_labels.push(split.train.label[k]);
            }
        }
        assert!(s_envs.len() >= 256, "shifted province too small");
        World {
            bundle,
            feats: s_feats,
            envs: s_envs,
            labels: s_labels,
            shifted_env,
        }
    })
}

/// An engine whose sentinel already reports Major for the shifted
/// province, plus a feed holding every labeled shifted row — the
/// controller can be single-stepped from here.
fn armed(w: &World) -> (ScoringEngine, LabelFeed) {
    let engine = ScoringEngine::new(
        w.bundle.clone(),
        EngineConfig {
            max_batch: 128,
            max_wait: Duration::from_millis(1),
            queue_capacity: 1 << 20,
            workers: 2,
            monitor: Some(MonitorConfig {
                window: 1 << 16,
                min_samples: 64,
                check_every: 128,
                n_buckets: 10,
            }),
            ..EngineConfig::default()
        },
    );
    let nf = w.bundle.n_features();
    for (chunk_f, chunk_e) in w.feats.chunks(64 * nf).zip(w.envs.chunks(64)) {
        engine
            .submit(chunk_f.to_vec(), chunk_e.to_vec(), SubmitOptions::default())
            .expect("accepted")
            .wait()
            .expect("scored");
    }
    engine.drift_monitor().expect("armed").check_now();
    let feed = LabelFeed::new(nf, FeedConfig::default());
    for k in 0..w.envs.len() {
        feed.push(w.envs[k], &w.feats[k * nf..(k + 1) * nf], w.labels[k]);
    }
    (engine, feed)
}

fn cfg(guard: f64) -> AdaptConfig {
    AdaptConfig {
        min_rows: 128,
        train: TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
        guard_min_auc_gain: guard,
        max_retries: 2,
        backoff_steps: 2,
        cooldown_steps: 8,
        ..AdaptConfig::default()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|s| s.to_bits()).collect()
}

/// Quiet the default panic printer for injected retrain panics (they
/// are expected and caught by the controller); anything else prints.
fn hush_injected_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("injected panic"));
            if !injected {
                default(info);
            }
        }));
    });
}

/// Re-prime the sentinel after a reload reset its windows: stream the
/// shifted rows through the engine again and force a check.
fn reprime_monitor(engine: &ScoringEngine, w: &World) {
    let nf = w.bundle.n_features();
    for (chunk_f, chunk_e) in w.feats.chunks(64 * nf).zip(w.envs.chunks(64)) {
        engine
            .submit(chunk_f.to_vec(), chunk_e.to_vec(), SubmitOptions::default())
            .expect("accepted")
            .wait()
            .expect("scored");
    }
    engine.drift_monitor().expect("armed").check_now();
}

#[test]
fn retrain_panics_walk_retry_backoff_then_recover_and_promote() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_injected_panics();
    let w = world();
    let (engine, feed) = armed(w);
    // Guard -1: any surviving challenger promotes — the test is about
    // the failure walk, not canary quality.
    let mut ctl = PromotionController::new(engine.bundle(), cfg(-1.0));

    failpoint::configure(21);
    failpoint::set(
        "adapt::retrain",
        FailMode::FirstK {
            k: 2,
            fault: Fault::Panic,
        },
    );
    // 1st failure: retry scheduled with backoff 2 steps.
    assert_eq!(
        ctl.step(&engine, &feed),
        AdaptOutcome::RetrainFailed {
            env: w.shifted_env,
            retries: 1
        }
    );
    assert_eq!(
        ctl.step(&engine, &feed),
        AdaptOutcome::Backoff { remaining: 1 }
    );
    assert_eq!(
        ctl.step(&engine, &feed),
        AdaptOutcome::Backoff { remaining: 0 }
    );
    // 2nd failure: backoff doubles to 4 steps.
    assert_eq!(
        ctl.step(&engine, &feed),
        AdaptOutcome::RetrainFailed {
            env: w.shifted_env,
            retries: 2
        }
    );
    for remaining in (0..4).rev() {
        assert_eq!(
            ctl.step(&engine, &feed),
            AdaptOutcome::Backoff { remaining }
        );
    }
    // The injected fault has burnt out (FirstK k=2): recovery promotes.
    assert!(matches!(
        ctl.step(&engine, &feed),
        AdaptOutcome::Promoted { generation: 1, .. }
    ));
    assert_eq!(ctl.generation(), 1);
    assert_eq!(
        failpoint::fired_log().len(),
        2,
        "{:?}",
        failpoint::fired_log()
    );
    failpoint::clear();

    // The walk is all in the transition log — exported as the CI chaos
    // artifact when `$ADAPT_EVENT_LOG` names a path.
    let stages: Vec<&str> = ctl.events().iter().map(|e| e.stage).collect();
    for want in ["retrain", "backoff", "probe", "canary", "promote"] {
        assert!(stages.contains(&want), "missing {want}: {stages:?}");
    }
    let log_path = std::env::var_os("ADAPT_EVENT_LOG")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("lightmirm-adapt-events.jsonl"));
    ctl.write_event_log(&log_path).expect("event log written");
    assert!(log_path.exists());
    engine.shutdown();
}

#[test]
fn exhausted_retries_enter_cooldown_before_trying_again() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_injected_panics();
    let w = world();
    let (engine, feed) = armed(w);
    let mut ctl = PromotionController::new(engine.bundle(), cfg(-1.0));

    failpoint::configure(22);
    failpoint::set("adapt::retrain", FailMode::Always(Fault::Panic));
    // Attempts 1 and 2 back off (2 then 4 steps, 9 steps total); attempt
    // 3 at step 9 exceeds max_retries=2 and enters cooldown.
    let mut outcomes = Vec::new();
    for _ in 0..9 {
        outcomes.push(ctl.step(&engine, &feed));
    }
    assert!(
        matches!(outcomes[8], AdaptOutcome::RetrainFailed { retries: 3, .. }),
        "{outcomes:?}"
    );
    for _ in 0..8 {
        assert!(matches!(
            ctl.step(&engine, &feed),
            AdaptOutcome::Cooldown { .. }
        ));
    }
    failpoint::clear();
    // Out of cooldown with the fault gone, the next attempt succeeds.
    assert!(matches!(
        ctl.step(&engine, &feed),
        AdaptOutcome::Promoted { .. }
    ));
    engine.shutdown();
}

#[test]
fn corrupted_candidate_passes_probe_but_fails_the_canary_guard() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    hush_injected_panics();
    let w = world();
    let (engine, feed) = armed(w);
    let offline = w.bundle.score_batch(&w.feats, &w.envs);
    let mut ctl = PromotionController::new(engine.bundle(), cfg(0.0));

    failpoint::configure(23);
    failpoint::set("adapt::bad_retrain", FailMode::Always(Fault::Panic));
    let outcome = ctl.step(&engine, &feed);
    failpoint::clear();
    // The negated head scores anti-correlated: probe validation cannot
    // see that, only the golden-metric canary can.
    assert!(
        matches!(
            outcome,
            AdaptOutcome::RolledBack {
                reason: RollbackReason::GuardFailed,
                ..
            }
        ),
        "{outcome:?}"
    );
    assert_eq!(ctl.generation(), 0);

    // Post-rollback, the engine serves the pristine champion
    // bit-identically.
    let served = engine
        .submit(w.feats.clone(), w.envs.clone(), SubmitOptions::default())
        .expect("accepted")
        .wait()
        .expect("scored");
    assert_eq!(bits(&served), bits(&offline));
    engine.shutdown();
}

#[test]
fn persistence_failure_vetoes_an_otherwise_promotable_challenger() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let w = world();
    let (engine, feed) = armed(w);
    let save_path = std::env::temp_dir().join(format!(
        "lightmirm-adapt-chaos-{}.bundle",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&save_path);
    let mut c = cfg(-1.0);
    c.save_path = Some(save_path.clone());
    let mut ctl = PromotionController::new(engine.bundle(), c);

    failpoint::configure(24);
    failpoint::set("bundle::fsync", FailMode::Always(Fault::IoError));
    let outcome = ctl.step(&engine, &feed);
    failpoint::clear();
    assert!(
        matches!(
            outcome,
            AdaptOutcome::RolledBack {
                reason: RollbackReason::PersistFailed,
                ..
            }
        ),
        "{outcome:?}"
    );
    assert_eq!(ctl.generation(), 0, "no durable artifact, no promotion");
    assert!(!save_path.exists(), "failed save must not land");

    // With the fault cleared (and cooldown waited out), the same
    // challenger persists and promotes. The rollback's reload rearmed
    // the sentinel with fresh empty windows, so the shifted stream must
    // be replayed for Major to be visible again.
    for _ in 0..8 {
        assert!(matches!(
            ctl.step(&engine, &feed),
            AdaptOutcome::Cooldown { .. }
        ));
    }
    reprime_monitor(&engine, w);
    assert!(matches!(
        ctl.step(&engine, &feed),
        AdaptOutcome::Promoted { .. }
    ));
    assert!(save_path.exists(), "promotion persists the bundle");
    let persisted = ModelBundle::load_from_path(&save_path).expect("valid envelope");
    assert_eq!(
        persisted.lineage.as_ref().expect("lineage").parent_crc32,
        w.bundle.payload_crc32()
    );
    let _ = std::fs::remove_file(&save_path);
    engine.shutdown();
}

#[test]
fn manual_reload_racing_promotion_stays_consistent() {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let w = world();
    let (engine, feed) = armed(w);
    let engine = Arc::new(engine);
    let mut ctl = PromotionController::new(engine.bundle(), cfg(-1.0));

    // Widen the race window: every reload's probe stalls 20ms inside
    // the critical section, so the manual reload and the promotion's
    // reload genuinely contend for the token.
    failpoint::configure(25);
    failpoint::set("serve::reload_probe", FailMode::Always(Fault::Delay(20)));
    let mut legacy = w.bundle.clone();
    legacy.baseline = None;
    let rival = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            for _ in 0..3 {
                engine
                    .reload(legacy.clone(), &[], &[])
                    .expect("valid manual candidate");
            }
        })
    };
    let outcome = ctl.step(&engine, &feed);
    rival.join().expect("no panic");
    failpoint::clear();

    // The interleaving is genuinely racy: if a manual reload of the
    // baseline-less bundle lands before the controller reads the drift
    // report, the step sees no sentinel and stays inert; otherwise the
    // promotion goes through. Both are legal — what must hold is that
    // every reload was serialized by the token.
    let promoted = matches!(outcome, AdaptOutcome::Promoted { .. });
    assert!(
        promoted || matches!(outcome, AdaptOutcome::Disabled),
        "{outcome:?}"
    );
    // Whoever won the last reload, the served bundle and the monitor
    // swapped atomically: baseline presence and sentinel presence agree.
    let bundle = engine.bundle();
    assert_eq!(
        bundle.baseline.is_some(),
        engine.drift_monitor().is_some(),
        "reload token must serialize the probe + rearm + swap"
    );
    assert_eq!(
        engine.stats().reloads,
        3 + u64::from(promoted),
        "3 manual reloads, plus the promotion's when it ran"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
}
