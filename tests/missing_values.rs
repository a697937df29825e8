//! End-to-end robustness to missing feature values: the GBDT bins NaN to
//! the last bin at fit time, so it goes right at every split, and routes
//! NaN right at prediction time; the whole pipeline must train and score
//! on platform-realistic data with failed bureau pulls.

use lightmirm::prelude::*;
use lightmirm_core::trainers::TrainConfig;

#[test]
fn pipeline_trains_and_scores_with_missing_features() {
    let mut cfg = GeneratorConfig::small(12_000, 19);
    cfg.missing_rate = 0.08;
    let frame = lightmirm::data::generate(&cfg);
    let split = lightmirm::data::temporal_split(&frame, 2020);

    let mut fe = FeatureExtractorConfig::default();
    fe.gbdt.n_trees = 12;
    let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains on NaNs");
    let names = ProvinceCatalog::standard().names();
    let train = extractor
        .to_env_dataset(&split.train, names.clone(), None)
        .expect("train transform");
    let test = extractor
        .to_env_dataset(&split.test, names, None)
        .expect("test transform");

    let out = LightMirmTrainer::new(TrainConfig {
        epochs: 10,
        inner_lr: 0.1,
        outer_lr: 0.3,
        momentum: 0.0,
        ..Default::default()
    })
    .fit(&train, None);
    let summary = evaluate_filtered(&out.model, &test, 20).expect("scorable");
    assert!(
        summary.m_auc > 0.7,
        "pipeline should stay predictive under 8% missingness (mAUC {:.3})",
        summary.m_auc
    );
}

#[test]
fn missingness_degrades_but_does_not_break_the_extractor() {
    let seed = 23;
    let auc_at = |missing_rate: f64| {
        let mut cfg = GeneratorConfig::small(12_000, seed);
        cfg.missing_rate = missing_rate;
        let frame = lightmirm::data::generate(&cfg);
        let split = lightmirm::data::temporal_split(&frame, 2020);
        let mut fe = FeatureExtractorConfig::default();
        fe.gbdt.n_trees = 16;
        let extractor = FeatureExtractor::fit(&split.train, &fe).expect("fits");
        let probs = extractor
            .gbdt()
            .predict_proba_batch(split.test.feature_matrix());
        lightmirm::metrics::auc(&probs, &split.test.label).expect("scorable")
    };
    let clean = auc_at(0.0);
    let heavy = auc_at(0.3);
    assert!(
        heavy > 0.65,
        "even 30% missingness keeps signal ({heavy:.3})"
    );
    assert!(
        clean > heavy - 0.02,
        "clean data should not be materially worse: {clean:.3} vs {heavy:.3}"
    );
}
