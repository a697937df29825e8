//! Hot-reload and input-quarantine contracts: a failed reload rolls back
//! to the incumbent with no in-flight disruption, and a bad row never
//! poisons the scores of its batch neighbors.

use std::sync::Arc;
use std::time::Duration;

use lightmirm_core::lr::LrModel;
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_serve::{
    EngineConfig, QuarantineFallback, QuarantinePolicy, ScoreError, ScoringEngine, SubmitOptions,
};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

fn served_world() -> (ModelBundle, LoanFrame, Vec<f64>) {
    let frame = generate(&GeneratorConfig::small(6_000, 53));
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

/// A dimension-compatible bundle whose head is all-NaN: structurally
/// valid, behaviorally poisonous — exactly what probe validation exists
/// to catch.
fn nan_head_bundle(template: &ModelBundle) -> ModelBundle {
    let dim = template.extractor.total_leaves();
    let model = TrainedModel::Global(LrModel {
        weights: vec![f64::NAN; dim],
    });
    ModelBundle::new(
        template.extractor.clone(),
        &model,
        BundleMetadata::default(),
    )
    .expect("dimensions match")
}

#[test]
fn failed_reload_rolls_back_with_no_inflight_disruption() {
    let (bundle, stream, offline) = served_world();
    let engine = Arc::new(ScoringEngine::new(
        bundle.clone(),
        EngineConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            workers: 2,
            ..EngineConfig::default()
        },
    ));
    let n = 400.min(stream.len());

    // Keep a stream of requests in flight while reloads are attempted.
    let submitter = {
        let engine = Arc::clone(&engine);
        let stream = stream.clone();
        let offline = offline.clone();
        std::thread::spawn(move || {
            for (k, reference) in offline.iter().enumerate().take(n) {
                let scores = engine
                    .submit(
                        stream.row(k).to_vec(),
                        vec![stream.province[k]],
                        SubmitOptions::default(),
                    )
                    .expect("accepted")
                    .wait()
                    .expect("scored");
                assert_eq!(
                    scores[0], *reference,
                    "in-flight request disturbed at row {k}"
                );
            }
        })
    };

    let probe_f = stream.row(0).to_vec();
    let probe_e = vec![stream.province[0]];
    // Candidate 1: NaN head — probe scores non-finite, must roll back.
    let err = engine
        .reload(nan_head_bundle(&bundle), &probe_f, &probe_e)
        .expect_err("NaN-head candidate must be rejected");
    assert!(matches!(
        err,
        lightmirm_serve::ReloadError::ProbeNonFinite { .. }
    ));
    // Candidate 2: malformed probe.
    let err = engine
        .reload(bundle.clone(), &probe_f[..probe_f.len() - 1], &probe_e)
        .expect_err("short probe rejected");
    assert!(matches!(
        err,
        lightmirm_serve::ReloadError::ProbeMalformed { .. }
    ));
    // Candidate 3: the incumbent itself — valid, swaps in, scores are
    // bit-identical so the submitter cannot tell.
    engine
        .reload(bundle.clone(), &probe_f, &probe_e)
        .expect("identical bundle passes probe");

    submitter.join().expect("submitter clean");
    let stats = engine.stats();
    assert_eq!(stats.reload_rejected, 2);
    assert_eq!(stats.reloads, 1);
    let engine = Arc::into_inner(engine).expect("submitter joined");
    let stats = engine.shutdown();
    assert_eq!(stats.rows_scored as usize, n);
}

#[test]
fn reloaded_bundle_actually_serves_subsequent_requests() {
    let (bundle, stream, offline) = served_world();
    let engine = ScoringEngine::new(bundle.clone(), EngineConfig::default());
    let k = 0;
    let before = engine
        .submit(
            stream.row(k).to_vec(),
            vec![stream.province[k]],
            SubmitOptions::default(),
        )
        .expect("accepted")
        .wait()
        .expect("scored");
    assert_eq!(before[0], offline[k]);

    // A constant-zero head scores sigmoid(0) = 0.5 everywhere: visibly
    // different from the trained head, proving the swap took effect.
    let dim = bundle.extractor.total_leaves();
    let flat = ModelBundle::new(
        bundle.extractor.clone(),
        &TrainedModel::Global(LrModel {
            weights: vec![0.0; dim],
        }),
        BundleMetadata::default(),
    )
    .expect("dimensions match");
    engine
        .reload(flat, stream.row(k), &[stream.province[k]])
        .expect("flat head passes probe");
    let after = engine
        .submit(
            stream.row(k).to_vec(),
            vec![stream.province[k]],
            SubmitOptions::default(),
        )
        .expect("accepted")
        .wait()
        .expect("scored");
    assert_eq!(after[0], 0.5);
    engine.shutdown();
}

#[test]
fn quarantined_rows_error_without_poisoning_batch_neighbors() {
    let (bundle, stream, offline) = served_world();
    let nf = bundle.n_features();
    // One worker and a large coalescing window so the poisoned and the
    // clean request land in the same micro-batch.
    let engine = ScoringEngine::new(
        bundle,
        EngineConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(50),
            queue_capacity: 1024,
            workers: 1,
            ..EngineConfig::default()
        },
    );
    let mut poisoned = stream.row(0).to_vec();
    poisoned[0] = f32::NAN;
    let bad = engine
        .submit(poisoned, vec![stream.province[0]], SubmitOptions::default())
        .expect("accepted");
    let mut clean_f = Vec::with_capacity(3 * nf);
    let mut clean_e = Vec::new();
    for k in 1..4 {
        clean_f.extend_from_slice(stream.row(k));
        clean_e.push(stream.province[k]);
    }
    let good = engine
        .submit(clean_f, clean_e, SubmitOptions::default())
        .expect("accepted");

    assert_eq!(
        bad.wait().unwrap_err(),
        ScoreError::Quarantined { rows: vec![0] }
    );
    let scores = good.wait().expect("clean neighbor request scores");
    for (i, k) in (1..4).enumerate() {
        assert_eq!(
            scores[i], offline[k],
            "clean row {k} drifted next to a quarantined neighbor"
        );
    }
    let stats = engine.shutdown();
    assert_eq!(stats.quarantined_rows, 1);
    assert_eq!(stats.rows_scored, 4);
}

#[test]
fn prior_fallback_substitutes_instead_of_erroring() {
    let (bundle, stream, offline) = served_world();
    let engine = ScoringEngine::new(
        bundle,
        EngineConfig {
            quarantine: QuarantinePolicy {
                max_abs: None,
                fallback: QuarantineFallback::PriorScore(0.04),
            },
            ..EngineConfig::default()
        },
    );
    let nf = engine.bundle().n_features();
    let mut features = Vec::with_capacity(2 * nf);
    features.extend_from_slice(stream.row(0));
    features.extend_from_slice(stream.row(1));
    features[2] = f32::INFINITY; // poison row 0
    let p = engine
        .submit(
            features,
            vec![stream.province[0], stream.province[1]],
            SubmitOptions::default(),
        )
        .expect("accepted");
    let resp = p.wait_detailed().expect("prior fallback answers Ok");
    assert_eq!(resp.quarantined, vec![0]);
    assert_eq!(resp.scores[0], 0.04, "prior substituted");
    assert_eq!(resp.scores[1], offline[1], "clean row untouched");
    engine.shutdown();
}
