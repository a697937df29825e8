//! The drift sentinel's two contracts, proven end-to-end through the
//! engine:
//!
//! 1. **Observation-only** — scores are bit-identical with the monitor
//!    armed or absent, and with a trace sink attached while a span
//!    profile is being harvested from the ring. The serve-side extension
//!    of `crates/core/tests/obs_determinism.rs`.
//! 2. **Detection** — replaying a shifted split reports
//!    [`DriftLevel::Major`] for the shifted environment while the
//!    environment still on the training distribution stays `Stable`.

use std::time::Duration;

use lightmirm_core::bundle::DriftBaseline;
use lightmirm_core::obs::{self, Profile};
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_metrics::drift::DriftLevel;
use lightmirm_serve::{EngineConfig, MonitorConfig, ScoringEngine, SubmitOptions};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

/// Train a small LightMIRM bundle with a captured drift baseline, and
/// keep the train/test frames plus the offline scores of the test
/// stream for bit-exact comparison.
fn monitored_world() -> (ModelBundle, LoanFrame, LoanFrame, Vec<f64>) {
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
        momentum: 0.0,
        ..Default::default()
    })
    .fit(&train, None);

    let bundle = ModelBundle::new(
        extractor.gbdt().clone(),
        &out.model,
        BundleMetadata {
            trainer: "LightMIRM(L=5,g=0.9)".into(),
            seed: 31,
            notes: "drift monitor test".into(),
        },
    )
    .expect("dimensions match");

    // Capture the baseline exactly the way `train` does: score the
    // training rows through the bundle, monitor the top-gain columns.
    let (feats, envs) = flatten(&split.train, bundle.n_features());
    let train_scores = bundle.score_batch(&feats, &envs);
    let columns = DriftBaseline::top_k_columns(extractor.gbdt().feature_importance(), 4);
    let baseline = DriftBaseline::capture(
        &train_scores,
        &envs,
        &feats,
        bundle.n_features(),
        &columns,
        64,
    );
    let bundle = bundle.with_baseline(baseline);

    let (test_feats, test_envs) = flatten(&split.test, bundle.n_features());
    let offline = bundle.score_batch(&test_feats, &test_envs);
    (bundle, split.train, split.test, offline)
}

/// Row-major feature matrix plus env ids for a frame.
fn flatten(frame: &LoanFrame, n_features: usize) -> (Vec<f32>, Vec<u16>) {
    let mut feats = Vec::with_capacity(frame.len() * n_features);
    let mut envs = Vec::with_capacity(frame.len());
    for k in 0..frame.len() {
        feats.extend_from_slice(frame.row(k));
        envs.push(frame.province[k]);
    }
    (feats, envs)
}

/// Score `rows` (feature-slices + env ids) through a fresh engine in
/// chunked requests, returning the concatenated scores and the engine.
fn scores_through_engine(
    bundle: &ModelBundle,
    feats: &[f32],
    envs: &[u16],
    cfg: EngineConfig,
) -> (Vec<f64>, ScoringEngine) {
    let engine = ScoringEngine::new(bundle.clone(), cfg);
    let nf = bundle.n_features();
    let mut pending = Vec::new();
    for (chunk_f, chunk_e) in feats.chunks(17 * nf).zip(envs.chunks(17)) {
        pending.push(
            engine
                .submit(chunk_f.to_vec(), chunk_e.to_vec(), SubmitOptions::default())
                .expect("accepted"),
        );
    }
    let mut scores = Vec::with_capacity(envs.len());
    for p in pending {
        scores.extend(p.wait().expect("scored"));
    }
    (scores, engine)
}

fn cfg(monitor: Option<MonitorConfig>) -> EngineConfig {
    EngineConfig {
        max_batch: 128,
        max_wait: Duration::from_millis(1),
        queue_capacity: 1 << 20,
        workers: 2,
        monitor,
        ..EngineConfig::default()
    }
}

#[test]
fn scores_are_bit_identical_with_monitor_on_off_and_profiled() {
    let (bundle, _train, test, offline) = monitored_world();
    let (feats, envs) = flatten(&test, bundle.n_features());

    // Monitor absent.
    let (bare, engine) = scores_through_engine(&bundle, &feats, &envs, cfg(None));
    assert!(engine.drift_report().is_none(), "no monitor configured");
    drop(engine);
    assert_eq!(bare, offline, "engine must match offline scoring");

    // Monitor armed.
    let (armed, engine) = scores_through_engine(
        &bundle,
        &feats,
        &envs,
        cfg(Some(MonitorConfig {
            check_every: 64,
            ..MonitorConfig::default()
        })),
    );
    let report = engine.drift_report().expect("monitor armed");
    assert!(
        report.envs.iter().any(|e| e.checks > 0),
        "monitor observed and checked: {report:?}"
    );
    drop(engine);
    assert_eq!(armed, offline, "sentinel must not perturb scores");

    // Monitor armed + a trace sink attached + a span profile harvested
    // from the ring mid-flight (the `--profile-out` shape).
    let dir = std::env::temp_dir().join("lightmirm_monitor_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let sink_path = dir.join("trace.jsonl");
    let sink = obs::JsonLinesSink::create(&sink_path).expect("sink file");
    let sink_id = obs::tracer().add_sink(std::sync::Arc::new(sink));
    let (sunk, engine) =
        scores_through_engine(&bundle, &feats, &envs, cfg(Some(MonitorConfig::default())));
    let profile = Profile::from_ring();
    profile
        .write(&dir.join("profile.txt"))
        .expect("profile writes");
    drop(engine);
    obs::tracer().remove_sink(sink_id);
    assert_eq!(sunk, offline, "sink + profiler must not perturb scores");
}

#[test]
fn shifted_env_reports_major_while_in_distribution_env_stays_stable() {
    let (bundle, train, _test, _offline) = monitored_world();
    let baseline = bundle.baseline.clone().expect("baseline captured");

    // Pick the two best-sampled training environments.
    let mut counts = std::collections::BTreeMap::new();
    for &p in &train.province {
        *counts.entry(p).or_insert(0usize) += 1;
    }
    let mut by_count: Vec<(u16, usize)> = counts.into_iter().collect();
    by_count.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let (stable_env, shifted_env) = (by_count[0].0, by_count[1].0);
    assert!(baseline.env(stable_env).is_some() && baseline.env(shifted_env).is_some());

    // Replay: the stable env streams its own training rows verbatim;
    // the shifted env streams its rows with every feature pushed +3.0
    // out of distribution (a 2020-style covariate shift).
    let mut feats = Vec::new();
    let mut envs = Vec::new();
    for k in 0..train.len() {
        let p = train.province[k];
        if p == stable_env {
            feats.extend_from_slice(train.row(k));
            envs.push(p);
        } else if p == shifted_env {
            feats.extend(train.row(k).iter().map(|v| v + 3.0));
            envs.push(p);
        }
    }

    let (_scores, engine) = scores_through_engine(
        &bundle,
        &feats,
        &envs,
        cfg(Some(MonitorConfig {
            window: 1 << 16,
            min_samples: 64,
            check_every: 128,
            n_buckets: 10,
        })),
    );
    // Shutdown path: force a final check so short replays still report.
    engine.drift_monitor().expect("armed").check_now();
    let report = engine.drift_report().expect("armed");
    let stable = report.env(stable_env).expect("stable env monitored");
    let shifted = report.env(shifted_env).expect("shifted env monitored");
    assert!(stable.checks >= 1 && shifted.checks >= 1);
    assert_eq!(stable.level(), DriftLevel::Stable, "{stable:?}");
    assert_eq!(shifted.level(), DriftLevel::Major, "{shifted:?}");
    engine.shutdown();
}
