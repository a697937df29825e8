//! Meta-IRM (paper Algorithm 1): MAML-style bi-level IRM with exact
//! second-order outer gradients.
//!
//! Per outer iteration, for every environment `m`:
//!
//! 1. **Inner step** — `θ̄_m = θ − α ∇R^m(θ)` (lines 6–7);
//! 2. **Meta-loss** — `R_meta(θ̄_m)` over the other environments (line 8);
//!    the sampled variant (`meta-IRM(S)` in Tables II/VI) averages over a
//!    random subset of `S` environments instead of all `M−1`;
//! 3. **Outer update** (lines 10–11) —
//!    `θ ← θ − β ∇_θ(Σ_m R_meta(θ̄_m)/M + λσ)` where σ is the std of the
//!    meta-losses. The gradient is exact: the Jacobian of the inner step
//!    is `I − αH_m(θ)`, applied with one Hessian-vector product per
//!    environment.
//!
//! Execution: each phase runs env-parallel on the fused kernels of
//! [`crate::kernels`]. Lines 6–7 are one gradient pass per environment
//! that also caches the logits the line-10 HVP reuses (nothing reads the
//! inner loss `R^m(θ)`, so the pass computes none). Line 8 is one fused
//! pass per `(θ̄_m, e)` that yields `R^e(θ̄_m)` together with its
//! gradient, so the outer step's backward is only the HVP chain term and
//! the ordered merge. Subsets are drawn up front on the serial RNG
//! stream, and per-environment contributions merge in env order —
//! training is bit-identical for any thread count.
//!
//! Deviation noted in DESIGN.md §5: meta-losses are averaged (not summed)
//! over their environments so the outer learning rate is comparable
//! across `M`, `S`, and LightMIRM — the optimizer geometry is unchanged.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::env::EnvDataset;
use crate::kernels::{self, EnvScratch, ScratchPool};
use crate::lr::LrModel;
use crate::timing::{OpCounter, Step, StepTimer};
use crate::trainers::{
    active_envs_checked, axpy_neg, sigma_coefficients, EpochObserver, MetaObs, TrainConfig,
    TrainOutput, TrainedModel,
};

/// Meta-IRM trainer; `sample_size: None` is the complete Algorithm 1,
/// `Some(s)` the sampled variant the paper calls `meta-IRM(s)`.
#[derive(Debug, Clone)]
pub struct MetaIrmTrainer {
    pub config: TrainConfig,
    /// Number of environments sampled per meta-loss (`None` = all `M−1`).
    pub sample_size: Option<usize>,
    /// How a `sample_size` subset is drawn. The paper's `meta-IRM(s)`
    /// baseline restricts meta-losses to a *fixed* pool of `s` provinces —
    /// the naive way to cut the quadratic cost — which is what LightMIRM's
    /// per-iteration *re-sampling* (plus replay) is designed to beat.
    pub resample_each_iter: bool,
    /// Drop the Hessian-vector product (first-order MAML ablation).
    pub first_order: bool,
}

impl MetaIrmTrainer {
    /// Complete meta-IRM.
    pub fn new(config: TrainConfig) -> Self {
        MetaIrmTrainer {
            config,
            sample_size: None,
            resample_each_iter: false,
            first_order: false,
        }
    }

    /// Sampled meta-IRM(`s`) with a fixed province pool (the paper's
    /// Table II baseline).
    pub fn with_sample_size(config: TrainConfig, s: usize) -> Self {
        assert!(s >= 1, "sample size must be positive");
        MetaIrmTrainer {
            config,
            sample_size: Some(s),
            resample_each_iter: false,
            first_order: false,
        }
    }

    /// Sampled meta-IRM(`s`) that redraws the subset per environment and
    /// iteration (an ablation between the fixed pool and LightMIRM).
    pub fn with_resampling(config: TrainConfig, s: usize) -> Self {
        assert!(s >= 1, "sample size must be positive");
        MetaIrmTrainer {
            config,
            sample_size: Some(s),
            resample_each_iter: true,
            first_order: false,
        }
    }

    /// Train per Algorithm 1.
    pub fn fit(&self, data: &EnvDataset, mut observer: Option<EpochObserver<'_>>) -> TrainOutput {
        let mut timer = StepTimer::new();
        let mut ops = OpCounter::new();
        let envs = timer.time(Step::LoadData, || active_envs_checked(data));
        let n_cols = data.n_cols();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut model = LrModel::zeros(n_cols);

        // The fixed province pool of meta-IRM(s): drawn once.
        let fixed_pool: Option<Vec<usize>> = match self.sample_size {
            Some(s) if !self.resample_each_iter && s < envs.len() => {
                let mut pool = envs.clone();
                pool.shuffle(&mut rng);
                pool.truncate(s.max(2)); // pool\{m} must be nonempty
                Some(pool)
            }
            _ => None,
        };

        // Per-environment scratch (θ̄, gradients, u, HVP, logit cache),
        // allocated once and reused every epoch.
        let env_sizes: Vec<usize> = envs.iter().map(|&m| data.env_rows(m).len()).collect();
        let mut pool = ScratchPool::new(n_cols, &env_sizes);
        let mut outer = vec![0.0; n_cols];
        let mut momentum = crate::trainers::Momentum::new(n_cols, self.config.momentum);
        let mobs = MetaObs::new("meta-irm", &envs);

        for epoch in 0..self.config.epochs {
            let _epoch_span = crate::span!("train_epoch", trainer = "meta-irm", epoch = epoch);
            // others[i] = environments included in R_meta(θ̄_{envs[i]}).
            // Subsets are drawn up front on the serial RNG stream (in the
            // same per-env order as before), keeping the draw sequence
            // independent of the parallel schedule.
            let others: Vec<Vec<usize>> = envs
                .iter()
                .map(|&m| {
                    if let Some(pool) = &fixed_pool {
                        pool.iter().copied().filter(|&e| e != m).collect()
                    } else {
                        let mut pool: Vec<usize> =
                            envs.iter().copied().filter(|&e| e != m).collect();
                        match self.sample_size {
                            Some(s) if s < pool.len() => {
                                pool.shuffle(&mut rng);
                                pool.truncate(s);
                                pool
                            }
                            _ => pool,
                        }
                    }
                })
                .collect();

            // ---- inner loop: lines 5–7, env-parallel -------------------
            // One pass per environment computes ∇R^m(θ) (line 7), caching
            // the logits the line-10 HVP at the same θ reuses. Nothing
            // reads R^m(θ) (line 6), so the pass skips the loss sum; it is
            // still charged one forward and one backward op.
            timer.time(Step::InnerOptimization, || {
                let weights = &model.weights;
                let mobs = mobs.as_ref();
                // The workers open their spans under this epoch's.
                let epoch_ctx = crate::obs::trace::current();
                pool.slots_mut()
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(i, slot)| {
                        let _span = crate::span!(parent: epoch_ctx, "inner_step", env = envs[i]);
                        let t0 = mobs.map(|_| std::time::Instant::now());
                        let EnvScratch {
                            theta_bar,
                            grad,
                            logits,
                            ..
                        } = slot;
                        kernels::env_grad_cached(
                            weights,
                            &data.x,
                            &data.labels,
                            data.env_rows(envs[i]),
                            self.config.reg,
                            grad,
                            logits,
                        );
                        theta_bar.copy_from_slice(weights);
                        axpy_neg(theta_bar, self.config.inner_lr, grad);
                        if let (Some(mo), Some(t0)) = (mobs, t0) {
                            mo.inner_step[i].record_duration(t0.elapsed());
                        }
                    });
            });
            ops.add_forward(envs.len() as u64);
            ops.add_backward(envs.len() as u64);

            // ---- meta-losses: line 8, env-parallel ----------------------
            // One fused pass per (θ̄_m, e) yields R^e(θ̄_m) and ∇R^e(θ̄_m);
            // the losses average into R_meta(θ̄_m) and the gradients into
            // u = ∇_{θ̄} R_meta(θ̄_m), both in env order.
            let meta_losses: Vec<f64> = timer.time(Step::MetaLoss, || {
                pool.slots_mut()
                    .par_iter_mut()
                    .enumerate()
                    .map(|(i, slot)| {
                        let EnvScratch {
                            theta_bar, grad, u, ..
                        } = slot;
                        u.fill(0.0);
                        let k = others[i].len().max(1) as f64;
                        let sum: f64 = others[i]
                            .iter()
                            .map(|&e| {
                                let loss = kernels::env_loss_grad(
                                    theta_bar,
                                    &data.x,
                                    &data.labels,
                                    data.env_rows(e),
                                    self.config.reg,
                                    grad,
                                );
                                for (ui, &g) in u.iter_mut().zip(grad.iter()) {
                                    *ui += g / k;
                                }
                                loss
                            })
                            .sum();
                        sum / k
                    })
                    .collect()
            });
            ops.add_forward(others.iter().map(|o| o.len() as u64).sum());

            // ---- outer update: lines 10–11 ------------------------------
            if let Some(mo) = &mobs {
                mo.record_sigma(&meta_losses);
            }
            let coefs = sigma_coefficients(&meta_losses, self.config.lambda);
            let outer_t0 = mobs.as_ref().map(|_| std::time::Instant::now());
            // Chain through the inner step: Jᵀu = u − α H_m(θ) u. The
            // first-order ablation keeps u as it is and has no row work here.
            if !self.first_order {
                timer.time(Step::Backward, || {
                    pool.slots_mut()
                        .par_iter_mut()
                        .enumerate()
                        .for_each(|(i, slot)| {
                            let EnvScratch { u, hvp, logits, .. } = slot;
                            kernels::hvp_from_logits(
                                logits,
                                &data.x,
                                data.env_rows(envs[i]),
                                self.config.reg,
                                u,
                                hvp,
                            );
                            for (ui, &h) in u.iter_mut().zip(hvp.iter()) {
                                *ui -= self.config.inner_lr * h;
                            }
                        });
                });
                ops.add_hvp(envs.len() as u64);
            }
            ops.add_backward(others.iter().map(|o| o.len() as u64).sum());
            // Ordered merge: environments accumulate in env order, so the
            // outer gradient is independent of the parallel schedule.
            outer.fill(0.0);
            for (i, slot) in pool.slots().iter().enumerate() {
                for (o, &ui) in outer.iter_mut().zip(&slot.u) {
                    *o += coefs[i] * ui;
                }
            }
            momentum.step(&mut model.weights, self.config.outer_lr, &outer);
            if let (Some(mo), Some(t0)) = (&mobs, outer_t0) {
                mo.outer_step.record_duration(t0.elapsed());
                mo.epochs.inc();
            }
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
    use crate::lr::{env_grad, env_loss};
    use crate::sparse::MultiHotMatrix;

    /// Three environments. Column 0/1 carry the *invariant* signal (same
    /// direction everywhere). Columns 2/3 carry a *spurious* signal whose
    /// direction flips in env 2 — an ERM model pooled over the data keeps
    /// using it; an invariant learner must not.
    fn irm_toy(rows_per_env: &[usize]) -> EnvDataset {
        let mut idx = Vec::new();
        let mut labels = Vec::new();
        let mut envs = Vec::new();
        let mut counter = 0usize;
        for (env, &n) in rows_per_env.iter().enumerate() {
            for _ in 0..n {
                counter += 1;
                let y = (counter % 2) as u8;
                // Invariant leaf: always aligned with the label, but noisy
                // (flips 25% of the time).
                let noise = counter.wrapping_mul(2654435761).is_multiple_of(4);
                let inv = if (y == 1) != noise { 0u32 } else { 1 };
                // Spurious leaf: aligned with the label in envs 0/1,
                // anti-aligned in env 2.
                let spur_aligned = env < 2;
                let spur = if (y == 1) == spur_aligned { 2u32 } else { 3 };
                idx.extend_from_slice(&[inv, spur]);
                labels.push(y);
                envs.push(env as u16);
            }
        }
        let x = MultiHotMatrix::new(idx, 2, 4).unwrap();
        let names = (0..rows_per_env.len()).map(|i| format!("e{i}")).collect();
        EnvDataset::new(x, labels, envs, names).unwrap()
    }

    fn cfg(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            inner_lr: 0.3,
            outer_lr: 1.0,
            lambda: 0.5,
            reg: 1e-4,
            momentum: 0.0,
            seed: 5,
        }
    }

    /// Reliance on the spurious leaves: |w₂ − w₃| compared against the
    /// invariant reliance |w₀ − w₁|.
    fn spurious_ratio(model: &LrModel) -> f64 {
        let inv = (model.weights[0] - model.weights[1]).abs();
        let spur = (model.weights[2] - model.weights[3]).abs();
        spur / inv.max(1e-9)
    }

    #[test]
    fn matches_serial_algorithm_1_reference() {
        // Algorithm 1 (complete meta-IRM) as a plain serial loop over the
        // `lr` oracle kernels, for the exact second-order trainer and the
        // first-order ablation. Exact equality pins every reduction order.
        let data = irm_toy(&[60, 45, 30, 50]);
        let config = TrainConfig {
            reg: 1e-3,
            ..cfg(8)
        };
        let (x, y) = (&data.x, &data.labels);
        let (alpha, reg) = (config.inner_lr, config.reg);
        let envs = data.active_envs();
        let n = data.n_cols();
        for first_order in [false, true] {
            let mut theta = vec![0.0; n];
            let mut grad = vec![0.0; n];
            let mut hvp = vec![0.0; n];
            for _ in 0..config.epochs {
                let mut metas = Vec::with_capacity(envs.len());
                let mut us = Vec::with_capacity(envs.len());
                for &m in &envs {
                    env_grad(&theta, x, y, data.env_rows(m), reg, &mut grad);
                    let bar: Vec<f64> = theta
                        .iter()
                        .zip(&grad)
                        .map(|(t, g)| t - alpha * g)
                        .collect();
                    let others: Vec<usize> = envs.iter().copied().filter(|&e| e != m).collect();
                    let k = others.len() as f64;
                    let mut sum = 0.0;
                    let mut u = vec![0.0; n];
                    for &e in &others {
                        sum += env_loss(&bar, x, y, data.env_rows(e), reg);
                        env_grad(&bar, x, y, data.env_rows(e), reg, &mut grad);
                        for (ui, &g) in u.iter_mut().zip(&grad) {
                            *ui += g / k;
                        }
                    }
                    if !first_order {
                        crate::lr::env_hvp(&theta, x, y, data.env_rows(m), reg, &u, &mut hvp);
                        for (ui, &h) in u.iter_mut().zip(&hvp) {
                            *ui -= alpha * h;
                        }
                    }
                    metas.push(sum / k);
                    us.push(u);
                }
                let coefs = crate::trainers::sigma_coefficients(&metas, config.lambda);
                let mut outer = vec![0.0; n];
                for (c, u) in coefs.iter().zip(&us) {
                    for (o, &ui) in outer.iter_mut().zip(u) {
                        *o += c * ui;
                    }
                }
                for (t, &o) in theta.iter_mut().zip(&outer) {
                    *t -= config.outer_lr * o;
                }
            }
            let trainer = MetaIrmTrainer {
                first_order,
                ..MetaIrmTrainer::new(config.clone())
            };
            let fitted = trainer.fit(&data, None);
            assert!(theta.iter().any(|&w| w != 0.0), "training must move θ");
            assert_eq!(
                fitted.model.global().weights,
                theta,
                "first_order = {first_order}"
            );
        }
    }

    #[test]
    fn meta_irm_relies_less_on_spurious_features_than_erm() {
        let data = irm_toy(&[300, 300, 100]);
        let erm = crate::trainers::ErmTrainer::new(cfg(60)).fit(&data, None);
        let meta = MetaIrmTrainer::new(cfg(60)).fit(&data, None);
        let r_erm = spurious_ratio(erm.model.global());
        let r_meta = spurious_ratio(meta.model.global());
        assert!(
            r_meta < r_erm,
            "meta-IRM spurious reliance {r_meta:.3} should be below ERM's {r_erm:.3}"
        );
    }

    #[test]
    fn op_count_matches_2m_squared() {
        let data = irm_toy(&[60, 60, 60]);
        let epochs = 3u64;
        let out = MetaIrmTrainer::new(cfg(epochs as usize)).fit(&data, None);
        let m = 3u64;
        // Lines 6+7: 2M; line 8: M(M−1); line 11: M(M−1). Total 2M².
        assert_eq!(out.ops.total(), epochs * 2 * m * m);
        // One HVP per environment per epoch (second-order, counted apart).
        assert_eq!(out.ops.hvp, epochs * m);
    }

    #[test]
    fn resampled_variant_reduces_op_count() {
        let data = irm_toy(&[60, 60, 60, 60, 60]);
        let epochs = 2u64;
        let m = 5u64;
        let s = 2u64;
        let out =
            MetaIrmTrainer::with_resampling(cfg(epochs as usize), s as usize).fit(&data, None);
        // 2M inner + M·S meta + M·S backward.
        assert_eq!(out.ops.total(), epochs * (2 * m + 2 * m * s));
    }

    #[test]
    fn fixed_pool_variant_reduces_op_count() {
        let data = irm_toy(&[60, 60, 60, 60, 60]);
        let epochs = 2u64;
        let out = MetaIrmTrainer::with_sample_size(cfg(epochs as usize), 2).fit(&data, None);
        // Pool of 2 provinces: members see pool\{m} of size 1 (2 envs),
        // non-members see 2 (3 envs) -> 8 meta ops per pass, twice
        // (forward + backward), plus 2M inner ops.
        assert_eq!(out.ops.total(), epochs * (2 * 5 + 2 * 8));
    }

    #[test]
    fn fixed_pool_is_deterministic_and_seed_dependent() {
        let data = irm_toy(&[60, 60, 60, 60, 60]);
        let a = MetaIrmTrainer::with_sample_size(cfg(3), 2).fit(&data, None);
        let b = MetaIrmTrainer::with_sample_size(cfg(3), 2).fit(&data, None);
        assert_eq!(a.model.global().weights, b.model.global().weights);
    }

    #[test]
    fn sample_size_larger_than_pool_degrades_to_complete() {
        let data = irm_toy(&[60, 60, 60]);
        let complete = MetaIrmTrainer::new(cfg(4)).fit(&data, None);
        let oversampled = MetaIrmTrainer::with_sample_size(cfg(4), 99).fit(&data, None);
        assert_eq!(complete.ops.total(), oversampled.ops.total());
        // And identical trajectories (no sampling randomness engaged).
        for (a, b) in complete
            .model
            .global()
            .weights
            .iter()
            .zip(&oversampled.model.global().weights)
        {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = irm_toy(&[80, 80, 80]);
        let a = MetaIrmTrainer::with_resampling(cfg(5), 1).fit(&data, None);
        let b = MetaIrmTrainer::with_resampling(cfg(5), 1).fit(&data, None);
        assert_eq!(a.model.global().weights, b.model.global().weights);
        let mut other = cfg(5);
        other.seed = 99;
        let c = MetaIrmTrainer::with_resampling(other, 1).fit(&data, None);
        assert_ne!(a.model.global().weights, c.model.global().weights);
    }

    #[test]
    fn outer_gradient_matches_finite_difference_of_outer_objective() {
        // One outer step from a fixed θ must equal θ − β ∇L(θ) with
        // L(θ) = Σ_m R_meta(θ̄_m(θ))/M + λσ(θ). We verify ∇L by finite
        // differences, exercising the HVP chain end to end.
        let data = irm_toy(&[40, 40, 40]);
        let config = TrainConfig {
            epochs: 1,
            inner_lr: 0.2,
            outer_lr: 1.0,
            lambda: 0.4,
            reg: 0.01,
            momentum: 0.0,
            seed: 3,
        };
        let envs = data.active_envs();

        // The outer objective as a pure function of θ (complete variant).
        let objective = |theta: &[f64]| -> f64 {
            let mut metas = Vec::new();
            let mut g = vec![0.0; theta.len()];
            for &m in &envs {
                env_grad(
                    theta,
                    &data.x,
                    &data.labels,
                    data.env_rows(m),
                    config.reg,
                    &mut g,
                );
                let bar: Vec<f64> = theta
                    .iter()
                    .zip(&g)
                    .map(|(t, gi)| t - config.inner_lr * gi)
                    .collect();
                let others: Vec<usize> = envs.iter().copied().filter(|&e| e != m).collect();
                let mean = others
                    .iter()
                    .map(|&e| env_loss(&bar, &data.x, &data.labels, data.env_rows(e), config.reg))
                    .sum::<f64>()
                    / others.len() as f64;
                metas.push(mean);
            }
            let mean = metas.iter().sum::<f64>() / metas.len() as f64;
            let sigma = crate::trainers::std_dev(&metas);
            mean + config.lambda * sigma
        };

        // Start from a nonzero θ to make the check nondegenerate: run two
        // ERM epochs first.
        let warm = crate::trainers::ErmTrainer::new(TrainConfig {
            epochs: 2,
            ..config.clone()
        })
        .fit(&data, None);
        let theta0 = warm.model.global().weights.clone();

        // One meta-IRM outer step starting from θ0. We reproduce it by
        // setting epochs = 1 and initial weights θ0 — the trainer always
        // starts from zero, so instead extract the update direction by
        // diffing. To inject θ0 we retrain with epochs=1 on a shifted
        // dataset is overkill; rather, recompute the exact update with the
        // internals: run the trainer once from zero and separately check
        // at θ = 0.
        let _ = theta0; // the check below uses θ = 0, where ERM warmup is unnecessary
        let out = MetaIrmTrainer::new(config.clone()).fit(&data, None);
        let stepped = &out.model.global().weights;

        // Finite-difference ∇L at θ = 0.
        let zero = vec![0.0; data.n_cols()];
        let eps = 1e-5;
        for i in 0..data.n_cols() {
            let mut plus = zero.clone();
            plus[i] += eps;
            let mut minus = zero.clone();
            minus[i] -= eps;
            let fd = (objective(&plus) - objective(&minus)) / (2.0 * eps);
            let update = -stepped[i] / config.outer_lr; // θ₁ = −β∇L(0)
            assert!(
                (update - fd).abs() < 1e-5,
                "outer grad[{i}]: trainer {update:.8} vs fd {fd:.8}"
            );
        }
    }

    #[test]
    fn first_order_variant_differs_but_still_trains() {
        let data = irm_toy(&[120, 120, 120]);
        let mut full = MetaIrmTrainer::new(cfg(20));
        let mut fo = MetaIrmTrainer::new(cfg(20));
        full.first_order = false;
        fo.first_order = true;
        let a = full.fit(&data, None);
        let b = fo.fit(&data, None);
        assert_ne!(a.model.global().weights, b.model.global().weights);
        assert_eq!(b.ops.hvp, 0);
        assert!(a.ops.hvp > 0);
    }
}
