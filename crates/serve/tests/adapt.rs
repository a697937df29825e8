//! The supervised adaptation loop, end to end through the engine:
//!
//! 1. **Recovery** — a covariate + concept shift replay on one province
//!    degrades the frozen champion's AUC; the controller's warm retrain
//!    promotes a challenger that recovers at least half the AUC lost,
//!    carries a lineage record, and rearms the drift sentinel against
//!    its fresh baseline (the shifted stream is back in distribution).
//! 2. **Rollback** — with an unsatisfiable promotion guard every
//!    challenger is rejected and the replay's scores stay bit-identical
//!    to the pre-drift champion's offline scoring.
//! 3. **Graceful degradation** — a legacy bundle without a drift
//!    baseline leaves adaptation inert ([`AdaptOutcome::Disabled`]) and
//!    untouched scores.
//! 4. **Reload serialization** — concurrent `reload` calls are
//!    serialized by the reload token: the served bundle and the rearmed
//!    monitor always pair up, under scoring load.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use lightmirm_core::bundle::DriftBaseline;
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_metrics::drift::DriftLevel;
use lightmirm_metrics::rank::auc;
use lightmirm_serve::{
    AdaptConfig, AdaptOutcome, EngineConfig, FeedConfig, LabelFeed, MonitorConfig,
    PromotionController, ScoringEngine, SubmitOptions,
};
use loansim::{generate, temporal_split, GeneratorConfig, ProvinceCatalog};

/// The shift world: a champion trained pre-shift, and a labeled stream
/// where one province undergoes a covariate shift (+3.0 on the
/// monitored top-gain columns) *and* a concept shift (labels inverted),
/// while a second province stays in distribution.
struct World {
    bundle: ModelBundle,
    /// The interleaved drift stream (both provinces, original row order).
    feats: Vec<f32>,
    envs: Vec<u16>,
    labels: Vec<u8>,
    stable_env: u16,
    shifted_env: u16,
    /// Champion AUC on the shifted province before the shift.
    clean_auc: f64,
    /// Champion AUC on the shifted province's shifted stream.
    degraded_auc: f64,
    /// Champion offline scores of the full drift stream.
    offline: Vec<f64>,
    /// The shifted province's slice of the stream, for AUC evaluation.
    shifted_feats: Vec<f32>,
    shifted_envs: Vec<u16>,
    shifted_labels: Vec<u8>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let frame = generate(&GeneratorConfig::small(8_000, 31));
        let split = temporal_split(&frame, 2020);
        let mut fe = FeatureExtractorConfig::default();
        fe.gbdt.n_trees = 8;
        let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains");
        let names = ProvinceCatalog::standard().names();
        let train = extractor
            .to_env_dataset(&split.train, names, None)
            .expect("train transform");
        let out = LightMirmTrainer::new(TrainConfig {
            epochs: 5,
            inner_lr: 0.1,
            outer_lr: 0.3,
            ..Default::default()
        })
        .fit(&train, None);
        let bundle = ModelBundle::new(
            extractor.gbdt().clone(),
            &out.model,
            BundleMetadata {
                trainer: "LightMIRM(L=5,g=0.9)".into(),
                seed: 31,
                notes: "adaptation test champion".into(),
            },
        )
        .expect("dimensions match");

        // Baseline captured the way `train` does it.
        let nf = bundle.n_features();
        let mut feats = Vec::with_capacity(split.train.len() * nf);
        let mut envs = Vec::with_capacity(split.train.len());
        for k in 0..split.train.len() {
            feats.extend_from_slice(split.train.row(k));
            envs.push(split.train.province[k]);
        }
        let train_scores = bundle.score_batch(&feats, &envs);
        let columns = DriftBaseline::top_k_columns(extractor.gbdt().feature_importance(), 4);
        let baseline = DriftBaseline::capture(&train_scores, &envs, &feats, nf, &columns, 64);
        let bundle = bundle.with_baseline(baseline);

        // The two best-sampled training provinces.
        let mut counts = std::collections::BTreeMap::new();
        for &p in &split.train.province {
            *counts.entry(p).or_insert(0usize) += 1;
        }
        let mut by_count: Vec<(u16, usize)> = counts.into_iter().collect();
        by_count.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let (stable_env, shifted_env) = (by_count[0].0, by_count[1].0);

        // The drift stream: stable province rows verbatim with their
        // labels; shifted province rows with the monitored columns
        // pushed +3.0 and labels inverted (covariate + concept shift).
        let shift_cols: Vec<usize> = bundle
            .baseline
            .as_ref()
            .expect("baseline captured")
            .columns
            .iter()
            .map(|&c| c as usize)
            .collect();
        assert!(!shift_cols.is_empty());
        let mut s_feats = Vec::new();
        let mut s_envs = Vec::new();
        let mut s_labels = Vec::new();
        let (mut clean_feats, mut clean_envs, mut clean_labels) = (Vec::new(), Vec::new(), vec![]);
        for k in 0..split.train.len() {
            let p = split.train.province[k];
            if p == stable_env {
                s_feats.extend_from_slice(split.train.row(k));
                s_envs.push(p);
                s_labels.push(split.train.label[k]);
            } else if p == shifted_env {
                let mut row = split.train.row(k).to_vec();
                for &c in &shift_cols {
                    row[c] += 3.0;
                }
                s_feats.extend_from_slice(&row);
                s_envs.push(p);
                s_labels.push(1 - split.train.label[k]);
                clean_feats.extend_from_slice(split.train.row(k));
                clean_envs.push(p);
                clean_labels.push(split.train.label[k]);
            }
        }

        let offline = bundle.score_batch(&s_feats, &s_envs);
        let clean_scores = bundle.score_batch(&clean_feats, &clean_envs);
        let clean_auc = auc(&clean_scores, &clean_labels).expect("two classes");

        let mut shifted_feats = Vec::new();
        let mut shifted_envs = Vec::new();
        let mut shifted_labels = Vec::new();
        for k in 0..s_envs.len() {
            if s_envs[k] == shifted_env {
                shifted_feats.extend_from_slice(&s_feats[k * nf..(k + 1) * nf]);
                shifted_envs.push(shifted_env);
                shifted_labels.push(s_labels[k]);
            }
        }
        let degraded_scores = bundle.score_batch(&shifted_feats, &shifted_envs);
        let degraded_auc = auc(&degraded_scores, &shifted_labels).expect("two classes");

        World {
            bundle,
            feats: s_feats,
            envs: s_envs,
            labels: s_labels,
            stable_env,
            shifted_env,
            clean_auc,
            degraded_auc,
            offline,
            shifted_feats,
            shifted_envs,
            shifted_labels,
        }
    })
}

fn engine_cfg() -> EngineConfig {
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
    }
}

/// The CLI's `--adapt` loop in miniature: serve a chunk, wait, feed its
/// labels, step the controller, repeat. Returns the served scores.
fn adaptive_replay(
    engine: &ScoringEngine,
    controller: &mut PromotionController,
    feed: &LabelFeed,
    w: &World,
    chunk: usize,
) -> Vec<f64> {
    let nf = engine.bundle().n_features();
    let mut scores = Vec::with_capacity(w.envs.len());
    let mut r = 0usize;
    while r < w.envs.len() {
        let n = chunk.min(w.envs.len() - r);
        let got = engine
            .submit(
                w.feats[r * nf..(r + n) * nf].to_vec(),
                w.envs[r..r + n].to_vec(),
                SubmitOptions::default(),
            )
            .expect("accepted")
            .wait()
            .expect("scored");
        scores.extend(got);
        for k in r..r + n {
            feed.push(w.envs[k], &w.feats[k * nf..(k + 1) * nf], w.labels[k]);
        }
        controller.step(engine, feed);
        r += n;
    }
    scores
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn adaptation_recovers_at_least_half_the_auc_lost_to_the_shift() {
    let w = world();
    let lost = w.clean_auc - w.degraded_auc;
    assert!(
        lost > 0.05,
        "the engineered shift must genuinely degrade the champion: \
         clean {:.4} vs degraded {:.4}",
        w.clean_auc,
        w.degraded_auc
    );

    let engine = ScoringEngine::new(w.bundle.clone(), engine_cfg());
    let feed = LabelFeed::new(w.bundle.n_features(), FeedConfig::default());
    let mut controller = PromotionController::new(
        engine.bundle(),
        AdaptConfig {
            min_rows: 256,
            train: TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
            // One promotion, then hold: the assertions below want the
            // first adapted generation, not a promotion cascade.
            cooldown_steps: 1_000_000,
            ..AdaptConfig::default()
        },
    );
    adaptive_replay(&engine, &mut controller, &feed, w, 64);

    assert_eq!(controller.generation(), 1, "exactly one promotion");
    let adapted = controller.champion();
    let lineage = adapted.lineage.as_ref().expect("promoted bundle lineage");
    assert_eq!(lineage.parent_crc32, w.bundle.payload_crc32());
    assert_eq!(lineage.trigger_env, w.shifted_env);
    assert!(
        lineage.trigger_psi > 0.25,
        "Major PSI: {}",
        lineage.trigger_psi
    );
    assert!(lineage.rows_used >= 256);
    assert_eq!(lineage.generation, 1);

    // The adapted challenger recovers at least half the AUC lost.
    let adapted_scores = adapted.score_batch(&w.shifted_feats, &w.shifted_envs);
    let adapted_auc = auc(&adapted_scores, &w.shifted_labels).expect("two classes");
    let recovered = adapted_auc - w.degraded_auc;
    assert!(
        recovered >= lost / 2.0,
        "recovered {recovered:.4} of {lost:.4} lost \
         (clean {:.4}, degraded {:.4}, adapted {adapted_auc:.4})",
        w.clean_auc,
        w.degraded_auc
    );

    // The engine serves the adapted bundle, and the sentinel was rearmed
    // against its fresh baseline: the shifted stream is in distribution
    // for the new champion, so the province leaves the Major band.
    assert_eq!(
        engine.bundle().payload_crc32(),
        adapted.payload_crc32(),
        "engine serves the promoted challenger"
    );
    let monitor = engine.drift_monitor().expect("rearmed");
    assert_eq!(
        monitor.baseline().envs.len(),
        2,
        "candidate baseline covers exactly the two streamed provinces"
    );
    let nf = w.bundle.n_features();
    for (chunk_f, chunk_e) in w
        .shifted_feats
        .chunks(64 * nf)
        .zip(w.shifted_envs.chunks(64))
    {
        engine
            .submit(chunk_f.to_vec(), chunk_e.to_vec(), SubmitOptions::default())
            .expect("accepted")
            .wait()
            .expect("scored");
    }
    monitor.check_now();
    let report = engine.drift_report().expect("armed");
    let shifted = report.env(w.shifted_env).expect("monitored");
    assert!(shifted.checks >= 1);
    assert_ne!(
        shifted.level(),
        DriftLevel::Major,
        "post-promotion windows must compare against the new baseline: {shifted:?}"
    );
    // The trigger was the shifted province, never the stable one.
    assert!(
        controller
            .events()
            .iter()
            .all(|e| e.env.is_none() || e.env == Some(w.shifted_env)),
        "stable province {} must not trigger adaptation: {:?}",
        w.stable_env,
        controller.events()
    );
    engine.shutdown();
}

#[test]
fn unsatisfiable_guard_rolls_back_bit_identically_every_time() {
    let w = world();
    let engine = ScoringEngine::new(w.bundle.clone(), engine_cfg());
    let feed = LabelFeed::new(w.bundle.n_features(), FeedConfig::default());
    let mut controller = PromotionController::new(
        engine.bundle(),
        AdaptConfig {
            min_rows: 256,
            train: TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
            // No challenger can gain +10 AUC: every canary fails.
            guard_min_auc_gain: 10.0,
            cooldown_steps: 4,
            ..AdaptConfig::default()
        },
    );
    let served = adaptive_replay(&engine, &mut controller, &feed, w, 64);

    assert_eq!(controller.generation(), 0, "nothing promotes");
    let rollbacks = controller
        .events()
        .iter()
        .filter(|e| e.stage == "rollback")
        .count();
    assert!(rollbacks >= 1, "events: {:?}", controller.events());

    // Every serving window — before, between, and after the rejected
    // challengers — scored bit-identically to the pre-drift champion.
    assert_eq!(
        bits(&served),
        bits(&w.offline),
        "rollback must restore the champion bit-identically"
    );
    // And the engine still serves the pristine champion afterwards.
    let post = engine
        .submit(
            w.shifted_feats.clone(),
            w.shifted_envs.clone(),
            SubmitOptions::default(),
        )
        .expect("accepted")
        .wait()
        .expect("scored");
    assert_eq!(
        bits(&post),
        bits(&w.bundle.score_batch(&w.shifted_feats, &w.shifted_envs))
    );
    engine.shutdown();
}

#[test]
fn legacy_bundle_without_baseline_leaves_adaptation_inert() {
    let w = world();
    let mut legacy = w.bundle.clone();
    legacy.baseline = None;
    let engine = ScoringEngine::new(legacy, engine_cfg());
    assert!(
        engine.drift_report().is_none(),
        "no baseline, no sentinel, even with monitoring configured"
    );

    let feed = LabelFeed::new(w.bundle.n_features(), FeedConfig::default());
    let mut controller = PromotionController::new(engine.bundle(), AdaptConfig::default());
    let nf = w.bundle.n_features();
    for k in 0..512 {
        feed.push(w.envs[k], &w.feats[k * nf..(k + 1) * nf], w.labels[k]);
    }
    for _ in 0..3 {
        assert_eq!(controller.step(&engine, &feed), AdaptOutcome::Disabled);
    }
    let disabled: Vec<_> = controller
        .events()
        .iter()
        .filter(|e| e.stage == "disabled")
        .collect();
    assert_eq!(disabled.len(), 1, "announced once, not per step");

    // Scores are untouched by the inert controller.
    let served = engine
        .submit(w.feats.clone(), w.envs.clone(), SubmitOptions::default())
        .expect("accepted")
        .wait()
        .expect("scored");
    assert_eq!(bits(&served), bits(&w.offline));
    engine.shutdown();
}

#[test]
fn concurrent_reloads_serialize_and_keep_bundle_and_monitor_paired() {
    let w = world();
    // Two distinguishable candidates: with a baseline the reload rearms
    // the sentinel; without one it disarms it. If two reloads ever
    // interleave inside the swap, the served bundle and the monitor can
    // end up mismatched — the invariant below catches exactly that.
    let with_baseline = Arc::new(w.bundle.clone());
    let mut stripped = w.bundle.clone();
    stripped.baseline = None;
    let without_baseline = Arc::new(stripped);

    let engine = Arc::new(ScoringEngine::new(w.bundle.clone(), engine_cfg()));
    let nf = w.bundle.n_features();
    for round in 0..32 {
        let (a, b) = (Arc::clone(&with_baseline), Arc::clone(&without_baseline));
        let (e1, e2) = (Arc::clone(&engine), Arc::clone(&engine));
        let t1 = std::thread::spawn(move || {
            e1.reload((*a).clone(), &[], &[]).expect("valid candidate");
        });
        let t2 = std::thread::spawn(move || {
            e2.reload((*b).clone(), &[], &[]).expect("valid candidate");
        });
        // Scoring load concurrent with both reloads.
        let served = engine
            .submit(
                w.feats[..64 * nf].to_vec(),
                w.envs[..64].to_vec(),
                SubmitOptions::default(),
            )
            .expect("accepted")
            .wait()
            .expect("scored");
        assert_eq!(served.len(), 64);
        t1.join().expect("no panic");
        t2.join().expect("no panic");

        let bundle = engine.bundle();
        let monitored = engine.drift_monitor().is_some();
        assert_eq!(
            bundle.baseline.is_some(),
            monitored,
            "round {round}: served bundle and monitor must swap atomically"
        );
    }
    assert_eq!(
        engine.stats().reloads,
        64,
        "every reload serialized and counted"
    );
    Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("sole owner"))
        .shutdown();
}
