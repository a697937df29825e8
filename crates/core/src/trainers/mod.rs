//! Trainers: ERM and the fairness/robustness baselines of Table I, plus
//! the paper's meta-IRM (Algorithm 1) and LightMIRM (Algorithm 2).
//!
//! Every trainer consumes an [`EnvDataset`] and produces a [`TrainOutput`]
//! with the learned model, the Table-III step timings, the §III-F
//! operation counts, and space for an epoch observer to record training
//! curves (paper Figs. 6 and 8).

mod baselines;
mod light_mirm;
mod meta_irm;
mod robust;

pub use baselines::{ErmTrainer, FineTuneTrainer, UpSamplingTrainer};
pub use light_mirm::LightMirmTrainer;
pub use meta_irm::MetaIrmTrainer;
pub use robust::{GroupDroTrainer, Irmv1Trainer, VRexTrainer};

use crate::env::EnvDataset;
use crate::lr::LrModel;
use crate::timing::{OpCounter, StepTimer};

/// Hyper-parameters shared by all trainers.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TrainConfig {
    /// Outer-loop epochs (full passes over the environments).
    pub epochs: usize,
    /// Inner-loop learning rate α (meta trainers only).
    pub inner_lr: f64,
    /// Outer/main learning rate β.
    pub outer_lr: f64,
    /// Weight λ of the meta-loss standard-deviation penalty σ.
    pub lambda: f64,
    /// L2 regularization on θ.
    pub reg: f64,
    /// Heavy-ball momentum on the outer/main update (0 disables).
    pub momentum: f64,
    /// RNG seed for environment sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 40,
            inner_lr: 0.5,
            outer_lr: 1.0,
            lambda: 0.5,
            reg: 1e-4,
            momentum: 0.0,
            seed: 17,
        }
    }
}

/// Heavy-ball update state: `v ← μv + g`, `θ ← θ − lr·v`.
#[derive(Debug, Clone)]
pub(crate) struct Momentum {
    velocity: Vec<f64>,
    mu: f64,
}

impl Momentum {
    pub(crate) fn new(dim: usize, mu: f64) -> Self {
        Momentum {
            velocity: vec![0.0; dim],
            mu,
        }
    }

    /// Apply one momentum step of `grad` to `theta`.
    pub(crate) fn step(&mut self, theta: &mut [f64], lr: f64, grad: &[f64]) {
        if self.mu == 0.0 {
            axpy_neg(theta, lr, grad);
            return;
        }
        for ((v, t), &g) in self.velocity.iter_mut().zip(theta.iter_mut()).zip(grad) {
            *v = self.mu * *v + g;
            *t -= lr * *v;
        }
    }
}

/// A trained predictor: a single global model, or a per-environment family
/// (the "ERM + fine-tuning" baseline evaluates each province with its own
/// fine-tuned copy). It is also the head a [`crate::bundle::ModelBundle`]
/// stores.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TrainedModel {
    /// One model scores every row.
    Global(LrModel),
    /// Per-environment fine-tuned copies with a global fallback for
    /// environments unseen in training.
    PerEnv {
        base: LrModel,
        per_env: Vec<Option<LrModel>>,
    },
}

impl TrainedModel {
    /// Score a set of rows, routing each through the appropriate model.
    pub fn predict_rows(
        &self,
        x: &crate::sparse::MultiHotMatrix,
        rows: &[u32],
        env_ids: &[u16],
    ) -> Vec<f64> {
        match self {
            TrainedModel::Global(model) => model.predict_rows(x, rows),
            TrainedModel::PerEnv { .. } => rows
                .iter()
                .map(|&r| self.head(env_ids[r as usize]).predict_row(x, r as usize))
                .collect(),
        }
    }

    /// The head that scores environment `env`: its own fine-tuned copy
    /// when it has one, the global (or base) model otherwise.
    pub fn head(&self, env: u16) -> &LrModel {
        match self {
            TrainedModel::Global(m) => m,
            TrainedModel::PerEnv { base, per_env } => per_env
                .get(usize::from(env))
                .and_then(Option::as_ref)
                .unwrap_or(base),
        }
    }

    /// The global (or base) model.
    pub fn global(&self) -> &LrModel {
        match self {
            TrainedModel::Global(m) => m,
            TrainedModel::PerEnv { base, .. } => base,
        }
    }
}

/// Everything a training run produces.
#[derive(Debug, Clone)]
pub struct TrainOutput {
    /// The learned predictor.
    pub model: TrainedModel,
    /// Table-III step timings accumulated over all epochs.
    pub timer: StepTimer,
    /// §III-F operation counts accumulated over all epochs.
    pub ops: OpCounter,
    /// Epochs actually run.
    pub epochs_run: usize,
}

/// Called after every epoch with `(epoch_index, current_model)`; used by
/// the experiment harness to record test-metric curves (Figs. 6/8).
pub type EpochObserver<'a> = &'a mut dyn FnMut(usize, &LrModel);

/// Pre-resolved metric handles for a training run — the trainers'
/// bridge to [`crate::obs`]. Constructed once per `fit` (`None` when
/// the `obs` feature is off, so instrumented sites reduce to a
/// `Option::is_some` check on a value known to be `None`), holding one
/// inner-step histogram and one sampled-`s_m` counter per environment
/// so env-parallel phases record into disjoint handles.
///
/// Everything recorded here is observation only: nothing in the
/// training path reads these values back, which is what keeps model
/// outputs bit-identical with `obs` on or off.
pub(crate) struct MetaObs {
    /// Per-env inner-step latency (`train_inner_step_ns{trainer,env}`),
    /// indexed like the trainer's `envs` vector.
    pub(crate) inner_step: Vec<crate::obs::HistogramHandle>,
    /// Outer-update latency per epoch (`train_outer_step_ns{trainer}`).
    pub(crate) outer_step: crate::obs::HistogramHandle,
    /// Meta-loss σ of the latest epoch (`train_meta_loss_sigma{trainer}`).
    pub(crate) meta_sigma: crate::obs::Gauge,
    /// MRQ pushes (`train_mrq_push_total{trainer}`).
    pub(crate) mrq_push: crate::obs::Counter,
    /// MRQ replayed-mean reads (`train_mrq_replay_total{trainer}`).
    pub(crate) mrq_replay: crate::obs::Counter,
    /// How often each env was drawn as `s_m`
    /// (`train_sampled_env_total{trainer,env}`), indexed like `envs`.
    pub(crate) sampled_env: Vec<crate::obs::Counter>,
    /// Epochs completed (`train_epochs_total{trainer}`).
    pub(crate) epochs: crate::obs::Counter,
}

impl MetaObs {
    /// Resolve the handles against the global registry; `None` when the
    /// `obs` feature is off.
    pub(crate) fn new(trainer: &str, envs: &[usize]) -> Option<MetaObs> {
        if !crate::obs::enabled() {
            return None;
        }
        let reg = crate::obs::registry();
        Some(MetaObs {
            inner_step: envs
                .iter()
                .map(|&m| {
                    reg.histogram(
                        "train_inner_step_ns",
                        &[("trainer", trainer), ("env", &m.to_string())],
                    )
                })
                .collect(),
            outer_step: reg.histogram("train_outer_step_ns", &[("trainer", trainer)]),
            meta_sigma: reg.gauge("train_meta_loss_sigma", &[("trainer", trainer)]),
            mrq_push: reg.counter("train_mrq_push_total", &[("trainer", trainer)]),
            mrq_replay: reg.counter("train_mrq_replay_total", &[("trainer", trainer)]),
            sampled_env: envs
                .iter()
                .map(|&m| {
                    reg.counter(
                        "train_sampled_env_total",
                        &[("trainer", trainer), ("env", &m.to_string())],
                    )
                })
                .collect(),
            epochs: reg.counter("train_epochs_total", &[("trainer", trainer)]),
        })
    }

    /// Record the per-epoch meta-loss spread (σ of Eq. (7)).
    pub(crate) fn record_sigma(&self, meta_losses: &[f64]) {
        self.meta_sigma.set(std_dev(meta_losses));
    }
}

/// The number of active environments `M` of a dataset.
///
/// # Panics
///
/// Panics when no environment has data.
pub(crate) fn active_envs_checked(data: &EnvDataset) -> Vec<usize> {
    let envs = data.active_envs();
    assert!(!envs.is_empty(), "dataset has no populated environment");
    envs
}

/// In-place `θ ← θ − lr · g`, through the vectorized lane loop
/// (bit-identical to the scalar `*t -= lr * g` form: IEEE sign flips
/// and `a + (−b)` vs `a − b` are exact).
pub(crate) fn axpy_neg(theta: &mut [f64], lr: f64, grad: &[f64]) {
    crate::simd::axpy_neg(theta, lr, grad);
}

/// Standard deviation with the paper's `1/M` normalization (Eq. (7)).
pub(crate) fn std_dev(values: &[f64]) -> f64 {
    let m = values.len() as f64;
    let mean = values.iter().sum::<f64>() / m;
    (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / m).sqrt()
}

/// The outer-gradient coefficient `∂(Σ R/M + λσ)/∂R_m`
/// `= 1/M + λ (R_m − R̄)/(M σ)`, with the σ term dropped when σ = 0.
pub(crate) fn sigma_coefficients(meta_losses: &[f64], lambda: f64) -> Vec<f64> {
    let m = meta_losses.len() as f64;
    let mean = meta_losses.iter().sum::<f64>() / m;
    let sigma = std_dev(meta_losses);
    meta_losses
        .iter()
        .map(|&r| {
            let mut c = 1.0 / m;
            if sigma > 1e-12 {
                c += lambda * (r - mean) / (m * sigma);
            }
            c
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::MultiHotMatrix;

    #[test]
    fn std_dev_matches_hand_computation() {
        // values 1, 3: mean 2, var (1+1)/2 = 1.
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn sigma_coefficients_sum_to_one_when_sigma_zero() {
        let c = sigma_coefficients(&[2.0, 2.0, 2.0], 0.7);
        for ci in &c {
            assert!((ci - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sigma_coefficients_push_up_above_mean_losses() {
        let c = sigma_coefficients(&[1.0, 3.0], 1.0);
        // Env with higher meta-loss gets a larger coefficient.
        assert!(c[1] > c[0]);
        // And the base 1/M is preserved in the sum.
        assert!((c.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_neg_steps_against_gradient() {
        let mut theta = vec![1.0, 2.0];
        axpy_neg(&mut theta, 0.5, &[2.0, -2.0]);
        assert_eq!(theta, vec![0.0, 3.0]);
    }

    #[test]
    fn per_env_model_routes_and_falls_back() {
        let x = MultiHotMatrix::new(vec![0, 1, 0, 1, 0, 1], 2, 2).unwrap();
        let base = LrModel {
            weights: vec![0.0, 0.0],
        };
        let special = LrModel {
            weights: vec![10.0, 10.0],
        };
        let model = TrainedModel::PerEnv {
            base: base.clone(),
            per_env: vec![Some(special), None],
        };
        let env_ids = vec![0u16, 1, 7];
        let ps = model.predict_rows(&x, &[0, 1, 2], &env_ids);
        assert!(ps[0] > 0.99); // env 0 uses the special model
        assert!((ps[1] - 0.5).abs() < 1e-12); // env 1 falls back to base
        assert!((ps[2] - 0.5).abs() < 1e-12); // env 7 outside catalog: base
    }

    #[test]
    fn global_model_predicts_directly() {
        let x = MultiHotMatrix::new(vec![0, 1], 2, 2).unwrap();
        let model = TrainedModel::Global(LrModel {
            weights: vec![1.0, 1.0],
        });
        let ps = model.predict_rows(&x, &[0], &[0]);
        assert!((ps[0] - crate::lr::sigmoid(2.0)).abs() < 1e-12);
    }
}
