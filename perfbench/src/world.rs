//! The fixed world every workload starts from, and the raw-frame →
//! persisted-bundle fit exactly as `lightmirm train --method lightmirm`
//! performs it at CLI defaults.
//!
//! The world is generated from a fixed seed, so the trained model — and
//! with it `worst_env_auc` and every op count — is identical in every
//! run. The run seed drives the traffic (see `serve`).

use std::path::Path;
use std::time::Instant;

use lightmirm_core::bundle::{BundleMetadata, DriftBaseline, ModelBundle};
use lightmirm_core::env::EnvDataset;
use lightmirm_core::lr::LrModel;
use lightmirm_core::pipeline::{FeatureExtractor, FeatureExtractorConfig};
use lightmirm_core::timing::OpCounter;
use lightmirm_core::trainers::{LightMirmTrainer, MetaIrmTrainer, TrainConfig, TrainOutput};
use lightmirm_metrics::{EnvScores, FairnessSummary};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog};

use crate::stats::median;
use crate::trace::Tracer;

/// Rows in the generated world (2016–2020, equal yearly volume).
pub const WORLD_ROWS: usize = 8_000;
/// Seed of the world, fixed so the model is the same in every run.
pub const WORLD_SEED: u64 = 7;
/// The held-out year the paper tests on.
pub const TEST_YEAR: u16 = 2020;
/// `lightmirm evaluate`'s minimum province size for wAUC.
pub const MIN_EVAL_ROWS: usize = 50;
/// `lightmirm train` defaults: GBDT trees, MRQ length and decay, and
/// drift-baseline columns and sketch points.
const TREES: usize = 64;
const MRQ_LEN: usize = 5;
const GAMMA: f64 = 0.9;
const BASELINE_COLS: usize = 4;
const SKETCH_POINTS: usize = 64;

/// The `lightmirm train` head hyper-parameters (60 epochs).
pub fn cli_train_config() -> TrainConfig {
    TrainConfig {
        epochs: 60,
        inner_lr: 0.1,
        outer_lr: 0.3,
        lambda: 0.5,
        reg: 1e-4,
        momentum: 0.0,
        seed: 7,
    }
}

/// The raw world plus its temporal split.
pub struct World {
    pub frame: LoanFrame,
    pub train: LoanFrame,
    pub test: LoanFrame,
}

impl World {
    pub fn generate(tr: &Tracer, parent: u64) -> World {
        let frame = tr.time("loansim::generate", parent, 0, |_| {
            generate(&GeneratorConfig {
                rows: WORLD_ROWS,
                seed: WORLD_SEED,
                ..Default::default()
            })
        });
        let split = temporal_split(&frame, TEST_YEAR);
        World {
            frame,
            train: split.train,
            test: split.test,
        }
    }
}

/// The yardstick pass's time on the reference host in a fast phase
/// (2-vCPU Xeon VM, the fixed 8 000-row world). Epoch and fit times are
/// reported at this host speed; see [`TimedFit::scaled_epoch_ms`].
pub const YARDSTICK_REF_US: f64 = 600.0;

/// Column weights of the yardstick pass: fixed, and unrelated to any model.
fn yardstick_weights(env: &EnvDataset) -> Vec<f64> {
    (0..env.x.n_cols())
        .map(|j| ((j * 37) % 101) as f64 * 1e-3 - 0.05)
        .collect()
}

/// One yardstick pass, in microseconds: the benchmark's own fixed loop
/// over `env`'s multi-hot design matrix, environment by environment as
/// the trainers' kernels walk it — per row, the sum of `weights` at its
/// active columns, a sigmoid, and a scatter-add of it into `grad`. It
/// touches the memory the kernels touch, in the same order, so it slows
/// with the host as they do, while none of the program's code runs in it.
fn yardstick_us(env: &EnvDataset, weights: &[f64], grad: &mut [f64]) -> f64 {
    let x = &env.x;
    let start = Instant::now();
    let mut total = 0.0;
    for m in env.active_envs() {
        for &r in env.env_rows(m) {
            let row = x.row(r as usize);
            let z: f64 = row.iter().map(|&j| weights[j as usize]).sum();
            let p = 1.0 / (1.0 + (-z).exp());
            total += p;
            for &j in row {
                grad[j as usize] += p;
            }
        }
    }
    std::hint::black_box((total, grad));
    start.elapsed().as_secs_f64() * 1e6
}

/// Per-epoch wall times of one head fit, stamped from outside through the
/// trainer's public epoch observer, with a yardstick pass before the
/// first epoch and after each one.
#[derive(Clone)]
pub struct TimedFit {
    pub out: TrainOutput,
    pub epoch_ms: Vec<f64>,
    /// Yardstick passes: `epoch_ms.len() + 1` of them.
    pub pass_us: Vec<f64>,
    /// Wall time of the fit, the yardstick passes left out.
    pub wall_s: f64,
}

impl TimedFit {
    /// Each epoch but the first (scratch allocation, first touch of the
    /// dataset), rescaled to the reference host speed: its wall time ×
    /// [`YARDSTICK_REF_US`] ÷ the mean of the passes just before and just
    /// after it. The reference host runs the same code at speeds up to 2×
    /// apart for minutes at a time (see `perfbench/README.md`); the ratio
    /// of an epoch to its neighbouring passes moves far less.
    pub fn scaled_epoch_ms(&self) -> Vec<f64> {
        (1..self.epoch_ms.len())
            .map(|k| {
                let pass = 0.5 * (self.pass_us[k] + self.pass_us[k + 1]);
                self.epoch_ms[k] * YARDSTICK_REF_US / pass
            })
            .collect()
    }

    /// Median yardstick pass of the fit: the host's speed while it ran.
    pub fn pass_median_us(&self) -> f64 {
        median(&self.pass_us)
    }

    fn passes_s(&self) -> f64 {
        self.pass_us.iter().sum::<f64>() * 1e-6
    }
}

fn observe_epochs(
    env: &EnvDataset,
    fit: impl FnOnce(&mut dyn FnMut(usize, &LrModel)) -> TrainOutput,
) -> TimedFit {
    let weights = yardstick_weights(env);
    let mut grad = vec![0.0; weights.len()];
    let start = Instant::now();
    let mut pass_us = vec![yardstick_us(env, &weights, &mut grad)];
    let mut epoch_ms = Vec::new();
    let mut last = Instant::now();
    let mut stamp = |_: usize, _: &LrModel| {
        epoch_ms.push(last.elapsed().as_secs_f64() * 1e3);
        pass_us.push(yardstick_us(env, &weights, &mut grad));
        last = Instant::now();
    };
    let out = fit(&mut stamp);
    let mut timed = TimedFit {
        out,
        epoch_ms,
        pass_us,
        wall_s: start.elapsed().as_secs_f64(),
    };
    timed.wall_s -= timed.passes_s();
    timed
}

/// LightMIRM head fit with per-epoch stamps.
pub fn fit_lightmirm(env: &EnvDataset, config: TrainConfig) -> TimedFit {
    let trainer = LightMirmTrainer::with_mrq(config, MRQ_LEN, GAMMA);
    observe_epochs(env, |obs| trainer.fit(env, Some(obs)))
}

/// Complete meta-IRM head fit with per-epoch stamps.
pub fn fit_meta_irm(env: &EnvDataset, config: TrainConfig) -> TimedFit {
    let trainer = MetaIrmTrainer::new(config);
    observe_epochs(env, |obs| trainer.fit(env, Some(obs)))
}

/// Check §III-F's op ledger exactly: first-order env-loss operations per
/// epoch are `4M` for LightMIRM and `2M²` for complete meta-IRM.
pub fn check_ops(method: &str, ops: &OpCounter, epochs: usize, m: usize) -> Result<(), String> {
    let per_epoch = match method {
        "lightmirm" => 4 * m,
        _ => 2 * m * m,
    } as u64;
    let want = per_epoch * epochs as u64;
    if ops.total() == want {
        Ok(())
    } else {
        Err(format!(
            "{method}: {} env-loss ops over {epochs} epochs, expected {want} ({per_epoch}/epoch, M={m})",
            ops.total()
        ))
    }
}

/// Bit-identity of two score vectors.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a over the score bits, in order.
pub fn digest(scores: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in scores {
        for b in s.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The paper's wAUC over provinces with at least [`MIN_EVAL_ROWS`] rows,
/// as `lightmirm evaluate` computes it; `scores` align with `test` rows.
pub fn worst_env_auc(scores: &[f64], test: &LoanFrame) -> Result<f64, String> {
    let mut buckets: Vec<EnvScores> = ProvinceCatalog::standard()
        .names()
        .into_iter()
        .map(EnvScores::new)
        .collect();
    for (r, &s) in scores.iter().enumerate() {
        buckets[test.province[r] as usize].push(s, test.label[r]);
    }
    buckets.retain(|b| b.len() >= MIN_EVAL_ROWS);
    FairnessSummary::compute(&buckets)
        .map(|s| s.w_auc)
        .map_err(|e| format!("wAUC: {e}"))
}

/// Everything one raw-frame → reloaded-bundle fit produces.
pub struct Fitted {
    pub env: EnvDataset,
    pub head: TimedFit,
    /// The bundle as reloaded from disk.
    pub bundle: ModelBundle,
    pub bundle_bytes: u64,
    /// The reloaded bundle's scores on the test rows.
    pub test_scores: Vec<f64>,
    pub wauc: f64,
    /// Wall time of the whole fit, frame to wAUC, the head's yardstick
    /// passes left out.
    pub wall_s: f64,
}

impl Fitted {
    /// [`Fitted::wall_s`] rescaled to the reference host speed by the
    /// head's median yardstick pass.
    pub fn scaled_s(&self) -> f64 {
        self.wall_s * YARDSTICK_REF_US / self.head.pass_median_us()
    }
}

/// Train, persist, reload and evaluate, as `lightmirm train` then
/// `lightmirm evaluate` do. Checks that the reloaded bundle scores
/// bit-identically to the in-memory one and that the head's op count is
/// exactly `4M` per epoch; a failed check is an error.
pub fn fit_pipeline(
    frame: &LoanFrame,
    path: &Path,
    tr: &Tracer,
    parent: u64,
    op: u64,
) -> Result<Fitted, String> {
    let start = Instant::now();
    tr.time("pipeline::fit", parent, op, |fit| {
        let split = temporal_split(frame, TEST_YEAR);
        let mut fe = FeatureExtractorConfig::default();
        fe.gbdt.n_trees = TREES;
        let extractor = tr
            .time("FeatureExtractor::fit", fit, op, |_| {
                FeatureExtractor::fit(&split.train, &fe)
            })
            .map_err(|e| format!("GBDT: {e}"))?;
        let names = ProvinceCatalog::standard().names();
        let env = tr
            .time("FeatureExtractor::to_env_dataset", fit, op, |_| {
                extractor.to_env_dataset(&split.train, names, None)
            })
            .map_err(|e| format!("transform: {e}"))?;
        let head = tr.time("LightMirmTrainer::fit", fit, op, |_| {
            fit_lightmirm(&env, cli_train_config())
        });
        check_ops(
            "lightmirm",
            &head.out.ops,
            head.out.epochs_run,
            env.active_envs().len(),
        )?;
        let bundle = ModelBundle::new(
            extractor.gbdt().clone(),
            &head.out.model,
            BundleMetadata {
                trainer: "lightmirm".into(),
                seed: cli_train_config().seed,
                notes: format!("benchmark fit on {} rows", split.train.len()),
            },
        )
        .map_err(|e| e.to_string())?;
        let bundle = tr.time("DriftBaseline::capture", fit, op, |_| {
            let feats = split.train.feature_matrix();
            let train_scores = bundle.score_batch(feats, &split.train.province);
            let columns =
                DriftBaseline::top_k_columns(extractor.gbdt().feature_importance(), BASELINE_COLS);
            let baseline = DriftBaseline::capture(
                &train_scores,
                &split.train.province,
                feats,
                bundle.n_features(),
                &columns,
                SKETCH_POINTS,
            );
            bundle.with_baseline(baseline)
        });
        tr.time("ModelBundle::save_to_path", fit, op, |_| {
            bundle.save_to_path(path)
        })
        .map_err(|e| format!("save {}: {e}", path.display()))?;
        let reloaded = tr
            .time("ModelBundle::load_from_path", fit, op, |_| {
                ModelBundle::load_from_path(path)
            })
            .map_err(|e| format!("load {}: {e}", path.display()))?;
        let bundle_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        let test_feats = split.test.feature_matrix();
        let test_scores = tr.time("ModelBundle::score_batch", fit, op, |_| {
            reloaded.score_batch(test_feats, &split.test.province)
        });
        if !same_bits(
            &test_scores,
            &bundle.score_batch(test_feats, &split.test.province),
        ) {
            return Err("reloaded bundle scores differ from the in-memory bundle".into());
        }
        let wauc = tr.time("FairnessSummary::compute", fit, op, |_| {
            worst_env_auc(&test_scores, &split.test)
        })?;
        let wall_s = start.elapsed().as_secs_f64() - head.passes_s();
        Ok(Fitted {
            env,
            head,
            bundle: reloaded,
            bundle_bytes,
            test_scores,
            wauc,
            wall_s,
        })
    })
}
