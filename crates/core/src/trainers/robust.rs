//! Robustness baselines: Group DRO, V-REx, and IRMv1.
//!
//! Group DRO and V-REx both need every environment's loss *and* gradient at
//! the same `θ` each epoch, so they run one fused
//! [`kernels::env_loss_grad`] pass per environment — environments in
//! parallel — and then apply their per-environment coefficients in a serial
//! env-order merge, keeping results bit-identical for any thread count.

use crate::env::EnvDataset;
use crate::kernels;
use crate::lr::{sigmoid, LrModel};
use crate::sparse::MultiHotMatrix;
use crate::timing::{OpCounter, Step, StepTimer};
use crate::trainers::{active_envs_checked, EpochObserver, TrainConfig, TrainOutput, TrainedModel};
use rayon::prelude::*;

/// Group Distributionally Robust Optimization (Sagawa et al.):
/// exponentiated-gradient ascent on group weights `q`, descent on the
/// `q`-weighted loss — optimizing the worst group.
#[derive(Debug, Clone)]
pub struct GroupDroTrainer {
    pub config: TrainConfig,
    /// Step size of the exponentiated-gradient update on `q`.
    pub group_step: f64,
}

impl GroupDroTrainer {
    /// Build with the given config and group step size.
    pub fn new(config: TrainConfig, group_step: f64) -> Self {
        GroupDroTrainer { config, group_step }
    }

    /// Train by alternating the `q` ascent and the θ descent.
    pub fn fit(&self, data: &EnvDataset, mut observer: Option<EpochObserver<'_>>) -> TrainOutput {
        let mut timer = StepTimer::new();
        let mut ops = OpCounter::new();
        let envs = active_envs_checked(data);
        let mut model = LrModel::zeros(data.n_cols());
        let mut q = vec![1.0 / envs.len() as f64; envs.len()];
        // Per-environment (loss, gradient) slots, reused every epoch.
        let mut env_state: Vec<(f64, Vec<f64>)> = envs
            .iter()
            .map(|_| (0.0, vec![0.0; data.n_cols()]))
            .collect();
        let mut weighted = vec![0.0; data.n_cols()];
        let mut momentum = crate::trainers::Momentum::new(data.n_cols(), self.config.momentum);
        for epoch in 0..self.config.epochs {
            // One fused pass per environment at the current θ: the loss
            // feeds the q ascent, the gradient the descent, and the logits
            // are computed once.
            timer.time(Step::Backward, || {
                let weights = &model.weights;
                env_state.par_iter_mut().enumerate().for_each(|(i, slot)| {
                    let (loss, grad) = slot;
                    *loss = kernels::env_loss_grad(
                        weights,
                        &data.x,
                        &data.labels,
                        data.env_rows(envs[i]),
                        self.config.reg,
                        grad,
                    );
                });
            });
            ops.add_forward(envs.len() as u64);
            ops.add_backward(envs.len() as u64);
            // Ascent on q: q_m ∝ q_m exp(η L_m).
            for (qi, (l, _)) in q.iter_mut().zip(&env_state) {
                *qi *= (self.group_step * l).exp();
            }
            let z: f64 = q.iter().sum();
            for qi in q.iter_mut() {
                *qi /= z;
            }
            // Descent on the q-weighted loss, merged serially in env order.
            weighted.fill(0.0);
            for (i, (_, grad)) in env_state.iter().enumerate() {
                for (w, &g) in weighted.iter_mut().zip(grad) {
                    *w += q[i] * g;
                }
            }
            momentum.step(&mut model.weights, self.config.outer_lr, &weighted);
            if let Some(obs) = observer.as_mut() {
                obs(epoch, &model);
            }
        }
        TrainOutput {
            model: TrainedModel::Global(model),
            timer,
            ops,
            epochs_run: self.config.epochs,
        }
    }
}

/// V-REx (Krueger et al.): minimize `mean_m R_m + λ_v · Var_m(R_m)`, the
/// variance pushing per-environment risks together.
#[derive(Debug, Clone)]
pub struct VRexTrainer {
    pub config: TrainConfig,
    /// Variance penalty weight λ_v.
    pub variance_weight: f64,
}

impl VRexTrainer {
    /// Build with the given config and variance weight.
    pub fn new(config: TrainConfig, variance_weight: f64) -> Self {
        VRexTrainer {
            config,
            variance_weight,
        }
    }

    /// Train on the variance-penalized objective.
    pub fn fit(&self, data: &EnvDataset, mut observer: Option<EpochObserver<'_>>) -> TrainOutput {
        let mut timer = StepTimer::new();
        let mut ops = OpCounter::new();
        let envs = active_envs_checked(data);
        let m_count = envs.len() as f64;
        let mut model = LrModel::zeros(data.n_cols());
        // Per-environment (loss, gradient) slots, reused every epoch.
        let mut env_state: Vec<(f64, Vec<f64>)> = envs
            .iter()
            .map(|_| (0.0, vec![0.0; data.n_cols()]))
            .collect();
        let mut total = vec![0.0; data.n_cols()];
        let mut momentum = crate::trainers::Momentum::new(data.n_cols(), self.config.momentum);
        for epoch in 0..self.config.epochs {
            // Both the risks (for the variance coefficients) and the
            // gradients are taken at the same θ — one fused pass per env.
            timer.time(Step::Backward, || {
                let weights = &model.weights;
                env_state.par_iter_mut().enumerate().for_each(|(i, slot)| {
                    let (loss, grad) = slot;
                    *loss = kernels::env_loss_grad(
                        weights,
                        &data.x,
                        &data.labels,
                        data.env_rows(envs[i]),
                        self.config.reg,
                        grad,
                    );
                });
            });
            ops.add_forward(envs.len() as u64);
            ops.add_backward(envs.len() as u64);
            let mean = env_state.iter().map(|(l, _)| l).sum::<f64>() / m_count;
            // ∂/∂R_m [mean + λ_v var] = 1/M + λ_v · 2 (R_m − mean)/M.
            total.fill(0.0);
            for (loss, grad) in &env_state {
                let coef = 1.0 / m_count + self.variance_weight * 2.0 * (loss - mean) / m_count;
                for (t, &g) in total.iter_mut().zip(grad) {
                    *t += coef * g;
                }
            }
            momentum.step(&mut model.weights, self.config.outer_lr, &total);
            if let Some(obs) = observer.as_mut() {
                obs(epoch, &model);
            }
        }
        TrainOutput {
            model: TrainedModel::Global(model),
            timer,
            ops,
            epochs_run: self.config.epochs,
        }
    }
}

/// IRMv1 (Arjovsky et al.): the penalty `‖∇_{w|w=1} R_m(w·θ)‖²` per
/// environment, in closed form for logistic regression. Included because
/// the paper positions meta-IRM as the fix for IRMv1's brittleness.
#[derive(Debug, Clone)]
pub struct Irmv1Trainer {
    pub config: TrainConfig,
    /// IRM penalty weight.
    pub penalty_weight: f64,
}

impl Irmv1Trainer {
    /// Build with the given config and penalty weight.
    pub fn new(config: TrainConfig, penalty_weight: f64) -> Self {
        Irmv1Trainer {
            config,
            penalty_weight,
        }
    }

    /// The per-environment dummy-classifier gradient
    /// `D_m = d/dw R_m(w·θ)|_{w=1} = 1/n Σ (σ(zᵢ) − yᵢ) zᵢ`
    /// and its θ-gradient
    /// `∇_θ D_m = 1/n Σ [σ'(zᵢ) zᵢ + (σ(zᵢ) − yᵢ)] xᵢ`.
    fn dummy_grad(
        theta: &[f64],
        x: &MultiHotMatrix,
        labels: &[u8],
        rows: &[u32],
        out: &mut [f64],
    ) -> f64 {
        out.fill(0.0);
        let inv_n = 1.0 / rows.len() as f64;
        let mut d = 0.0;
        for &r in rows {
            let r = r as usize;
            let z = x.dot_row(r, theta);
            let p = sigmoid(z);
            let resid = p - labels[r] as f64;
            d += resid * z * inv_n;
            let coef = (p * (1.0 - p) * z + resid) * inv_n;
            x.scatter_add(r, coef, out);
        }
        d
    }

    /// Train on `Σ_m R_m/M + penalty · Σ_m D_m²/M`.
    pub fn fit(&self, data: &EnvDataset, mut observer: Option<EpochObserver<'_>>) -> TrainOutput {
        let mut timer = StepTimer::new();
        let mut ops = OpCounter::new();
        let envs = active_envs_checked(data);
        let m_count = envs.len() as f64;
        let mut model = LrModel::zeros(data.n_cols());
        let mut grad = vec![0.0; data.n_cols()];
        let mut dummy = vec![0.0; data.n_cols()];
        let mut total = vec![0.0; data.n_cols()];
        let mut momentum = crate::trainers::Momentum::new(data.n_cols(), self.config.momentum);
        for epoch in 0..self.config.epochs {
            total.fill(0.0);
            for &m in &envs {
                let rows = data.env_rows(m);
                timer.time(Step::Backward, || {
                    kernels::env_grad(
                        &model.weights,
                        &data.x,
                        &data.labels,
                        rows,
                        self.config.reg,
                        &mut grad,
                    );
                });
                ops.add_backward(1);
                let d = timer.time(Step::MetaLoss, || {
                    Self::dummy_grad(&model.weights, &data.x, &data.labels, rows, &mut dummy)
                });
                ops.add_forward(1);
                for ((t, &g), &dg) in total.iter_mut().zip(&grad).zip(&dummy) {
                    *t += (g + self.penalty_weight * 2.0 * d * dg) / m_count;
                }
            }
            momentum.step(&mut model.weights, self.config.outer_lr, &total);
            if let Some(obs) = observer.as_mut() {
                obs(epoch, &model);
            }
        }
        TrainOutput {
            model: TrainedModel::Global(model),
            timer,
            ops,
            epochs_run: self.config.epochs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr::env_loss;

    /// Two environments: env 0 large & easy, env 1 small & differently
    /// distributed (its positives also carry column 3).
    fn toy() -> EnvDataset {
        let mut idx = Vec::new();
        let mut labels = Vec::new();
        let mut envs = Vec::new();
        for i in 0..240 {
            let env = (i % 4 == 0) as u16;
            let y = (i % 3 == 0) as u8;
            let signal = if env == 0 {
                if y == 1 {
                    0u32
                } else {
                    1
                }
            } else {
                // The small env's signal lives in different leaves.
                if y == 1 {
                    2
                } else {
                    3
                }
            };
            let marker = if env == 1 { 5u32 } else { 4 };
            idx.extend_from_slice(&[signal, marker]);
            labels.push(y);
            envs.push(env);
        }
        let x = MultiHotMatrix::new(idx, 2, 6).unwrap();
        EnvDataset::new(x, labels, envs, vec!["big".into(), "small".into()]).unwrap()
    }

    fn cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            outer_lr: 1.0,
            ..Default::default()
        }
    }

    fn env_losses(model: &LrModel, data: &EnvDataset) -> Vec<f64> {
        data.active_envs()
            .iter()
            .map(|&m| env_loss(&model.weights, &data.x, &data.labels, data.env_rows(m), 0.0))
            .collect()
    }

    #[test]
    fn group_dro_reduces_worst_group_loss() {
        let data = toy();
        let erm = crate::trainers::ErmTrainer::new(cfg(80)).fit(&data, None);
        let dro = GroupDroTrainer::new(cfg(80), 0.5).fit(&data, None);
        let worst = |m: &LrModel| env_losses(m, &data).into_iter().fold(f64::MIN, f64::max);
        assert!(
            worst(dro.model.global()) <= worst(erm.model.global()) + 1e-6,
            "DRO worst-group loss should not exceed ERM's"
        );
    }

    #[test]
    fn vrex_narrows_the_risk_gap() {
        let data = toy();
        let plain = VRexTrainer::new(cfg(80), 0.0).fit(&data, None);
        let penalized = VRexTrainer::new(cfg(80), 10.0).fit(&data, None);
        let gap = |m: &LrModel| {
            let l = env_losses(m, &data);
            (l[0] - l[1]).abs()
        };
        assert!(
            gap(penalized.model.global()) <= gap(plain.model.global()) + 1e-9,
            "variance penalty should shrink the env-risk gap"
        );
    }

    #[test]
    fn vrex_zero_weight_equals_upsampling() {
        // With λ_v = 0 the objective is exactly the balanced mean risk.
        let data = toy();
        let a = VRexTrainer::new(cfg(20), 0.0).fit(&data, None);
        let b = crate::trainers::UpSamplingTrainer::new(cfg(20)).fit(&data, None);
        for (x, y) in a
            .model
            .global()
            .weights
            .iter()
            .zip(&b.model.global().weights)
        {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn irmv1_dummy_gradient_matches_finite_difference() {
        let data = toy();
        let rows = data.env_rows(0);
        let theta: Vec<f64> = (0..6).map(|i| 0.2 * i as f64 - 0.5).collect();
        let mut dummy = vec![0.0; 6];
        let d = Irmv1Trainer::dummy_grad(&theta, &data.x, &data.labels, rows, &mut dummy);
        // Finite difference of w ↦ R(w·θ) at w = 1.
        let eps = 1e-6;
        let loss_at_w = |w: f64| {
            let scaled: Vec<f64> = theta.iter().map(|t| w * t).collect();
            env_loss(&scaled, &data.x, &data.labels, rows, 0.0)
        };
        let fd = (loss_at_w(1.0 + eps) - loss_at_w(1.0 - eps)) / (2.0 * eps);
        assert!((d - fd).abs() < 1e-7, "dummy grad {d} vs fd {fd}");
        // And ∇_θ D via finite differences.
        for i in 0..6 {
            let mut plus = theta.clone();
            plus[i] += eps;
            let mut minus = theta.clone();
            minus[i] -= eps;
            let mut scratch = vec![0.0; 6];
            let dp = Irmv1Trainer::dummy_grad(&plus, &data.x, &data.labels, rows, &mut scratch);
            let dm = Irmv1Trainer::dummy_grad(&minus, &data.x, &data.labels, rows, &mut scratch);
            let fd = (dp - dm) / (2.0 * eps);
            assert!(
                (dummy[i] - fd).abs() < 1e-6,
                "∇D[{i}] {} vs fd {fd}",
                dummy[i]
            );
        }
    }

    #[test]
    fn irmv1_trains_to_reasonable_accuracy() {
        let data = toy();
        let out = Irmv1Trainer::new(cfg(80), 0.5).fit(&data, None);
        let rows = data.all_rows();
        let ps = out.model.predict_rows(&data.x, &rows, &data.env_ids);
        let acc = ps
            .iter()
            .zip(&data.labels)
            .filter(|&(&p, &y)| (p >= 0.5) == (y != 0))
            .count() as f64
            / rows.len() as f64;
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn op_counts_scale_linearly_in_envs() {
        let data = toy();
        let epochs = 7u64;
        let m = data.active_envs().len() as u64;
        let dro = GroupDroTrainer::new(cfg(epochs as usize), 0.5).fit(&data, None);
        assert_eq!(dro.ops.total(), epochs * 2 * m);
        let vrex = VRexTrainer::new(cfg(epochs as usize), 1.0).fit(&data, None);
        assert_eq!(vrex.ops.total(), epochs * 2 * m);
        let irm = Irmv1Trainer::new(cfg(epochs as usize), 1.0).fit(&data, None);
        assert_eq!(irm.ops.total(), epochs * 2 * m);
    }
}
