//! Adaptation lab — the Fig. 10/11-style covariate + concept shift
//! replay behind DESIGN.md §5j, frozen as a JSON artifact.
//!
//! One province's 2020 stream is pushed out of distribution (+3.0 on
//! the drift baseline's monitored columns) *and* concept-shifted
//! (labels inverted); a second province stays in distribution. The
//! frozen champion degrades on the shifted province; the supervised
//! adaptation loop (`serve::adapt`) retrains the LR head warm-started
//! from the champion and promotes the challenger through probe +
//! canary. The artifact records how much of the lost AUC the adapted
//! generation recovers, alongside the full promotion event log.
//!
//! The tier-1 proof of the same story is `crates/serve/tests/adapt.rs`;
//! this bin exists to regenerate the numbers at arbitrary scale:
//!
//! ```text
//! cargo run --release -p lightmirm-experiments --bin adaptlab -- \
//!     --rows 20000 --trees 16 --epochs 20
//! ```

use std::collections::BTreeMap;
use std::time::Duration;

use lightmirm_core::bundle::DriftBaseline;
use lightmirm_core::prelude::*;
use lightmirm_experiments::{write_json, ExpConfig};
use lightmirm_metrics::rank::auc;
use lightmirm_serve::{
    AdaptConfig, EngineConfig, FeedConfig, LabelFeed, MonitorConfig, PromotionController,
    ShardConfig, ShardedEngine, SubmitOptions,
};
use loansim::{generate, temporal_split, GeneratorConfig, ProvinceCatalog};

fn main() {
    let cfg = ExpConfig::from_args();
    let frame = generate(&GeneratorConfig::small(cfg.rows, cfg.seed));
    let split = temporal_split(&frame, 2020);

    let mut fe = FeatureExtractorConfig::default();
    fe.gbdt.n_trees = cfg.trees;
    let extractor = FeatureExtractor::fit(&split.train, &fe).expect("GBDT trains");
    let names = ProvinceCatalog::standard().names();
    let train = extractor
        .to_env_dataset(&split.train, names, None)
        .expect("train transform");
    let out = LightMirmTrainer::new(cfg.train_config()).fit(&train, None);
    let bundle = ModelBundle::new(
        extractor.gbdt().clone(),
        &out.model,
        BundleMetadata {
            trainer: "LightMIRM".into(),
            seed: cfg.seed,
            notes: "adaptlab champion".into(),
        },
    )
    .expect("dimensions match");

    // Drift baseline over the champion's own training scores, the way
    // `lightmirm train` captures it.
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

    // The two best-sampled training provinces: one stays in
    // distribution, the other takes the covariate + concept shift.
    let mut counts = BTreeMap::new();
    for &p in &split.train.province {
        *counts.entry(p).or_insert(0usize) += 1;
    }
    let mut by_count: Vec<(u16, usize)> = counts.into_iter().collect();
    by_count.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let (stable_env, shifted_env) = (by_count[0].0, by_count[1].0);
    let shift_cols: Vec<usize> = bundle
        .baseline
        .as_ref()
        .expect("baseline captured")
        .columns
        .iter()
        .map(|&c| c as usize)
        .collect();

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

    // Frozen-champion reference points on the shifted province.
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
    let lost = clean_auc - degraded_auc;

    // The adaptive replay: serve chunks, feed labels, step the
    // controller — the CLI's `serve-replay --adapt` loop in miniature,
    // through the same one-shard front end.
    let engine = ShardedEngine::new(
        &bundle,
        &ShardConfig {
            shards: 1,
            engine: EngineConfig {
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
        },
    );
    let feed = LabelFeed::new(nf, FeedConfig::default());
    let mut controller = PromotionController::new(
        engine.shard(0).bundle(),
        AdaptConfig {
            min_rows: 256,
            train: cfg.train_config(),
            // One promotion, then hold: the artifact reports the first
            // adapted generation, not a promotion cascade.
            cooldown_steps: u64::MAX,
            ..AdaptConfig::default()
        },
    );
    let chunk = 64usize;
    let mut r = 0usize;
    while r < s_envs.len() {
        let n = chunk.min(s_envs.len() - r);
        let (_, pending) = engine
            .submit(
                s_envs[r],
                s_feats[r * nf..(r + n) * nf].to_vec(),
                s_envs[r..r + n].to_vec(),
                SubmitOptions::default(),
            )
            .expect("accepted");
        pending.wait().expect("scored");
        for k in r..r + n {
            feed.push(s_envs[k], &s_feats[k * nf..(k + 1) * nf], s_labels[k]);
        }
        controller.step(engine.shard(0), &feed);
        r += n;
    }

    let adapted = controller.champion();
    let adapted_scores = adapted.score_batch(&shifted_feats, &shifted_envs);
    let adapted_auc = auc(&adapted_scores, &shifted_labels).expect("two classes");
    let recovered = adapted_auc - degraded_auc;
    engine.shutdown();

    println!("\n== Adaptation lab: covariate + concept shift on province {shifted_env} ==");
    println!("{:<26} {:>8.4}", "champion AUC (pre-shift)", clean_auc);
    println!("{:<26} {:>8.4}", "champion AUC (shifted)", degraded_auc);
    println!("{:<26} {:>8.4}", "adapted AUC (shifted)", adapted_auc);
    println!(
        "{:<26} {:>8.4}  ({:.0}% of {:.4} lost)",
        "recovered",
        recovered,
        if lost > 0.0 {
            100.0 * recovered / lost
        } else {
            0.0
        },
        lost
    );
    println!(
        "generations: {}, events: {}",
        controller.generation(),
        controller.events().len()
    );

    let lineage = adapted.lineage.as_ref().map(|l| {
        serde_json::json!({
            "parent_crc32": l.parent_crc32,
            "trigger_env": l.trigger_env,
            "trigger_psi": l.trigger_psi,
            "rows_used": l.rows_used,
            "generation": l.generation,
        })
    });
    let value = serde_json::json!({
        "rows": cfg.rows,
        "seed": cfg.seed,
        "trees": cfg.trees,
        "epochs": cfg.epochs,
        "stable_env": stable_env,
        "shifted_env": shifted_env,
        "clean_auc": clean_auc,
        "degraded_auc": degraded_auc,
        "adapted_auc": adapted_auc,
        "auc_lost": lost,
        "auc_recovered": recovered,
        "generation": controller.generation(),
        "steps": controller.steps(),
        "lineage": lineage,
        "events": controller.events(),
    });
    write_json(&cfg, "adaptlab", &value);
}
