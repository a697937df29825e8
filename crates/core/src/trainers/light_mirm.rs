//! LightMIRM (paper Algorithm 2): meta-IRM accelerated by environment
//! sampling and meta-loss replaying.
//!
//! Per outer iteration, for every environment `m`:
//!
//! 1. **Inner step** as in meta-IRM (lines 6–7);
//! 2. **Environment sampling** (line 8) — draw one `s_m ≠ m`;
//! 3. **Meta-loss replaying** (lines 9–10) — compute only
//!    `R^{s_m}(θ̄_m)`, push it into the per-environment MRQ, and read the
//!    decayed recombination as the approximate meta-loss;
//! 4. **Outer update** (lines 12–13) — as meta-IRM, except gradients flow
//!    only through the newest queue entry ("only the last element in the
//!    queue has gradients"), so the backward cost is `O(M)`.
//!
//! Per-iteration first-order op count: `M` (line 6) + `M` (line 7) + `M`
//! (line 9) + `M` (line 13) = `4M`, asserted exactly in tests against
//! meta-IRM's `2M²`.
//!
//! Execution: each phase runs env-parallel on the fused kernels of
//! [`crate::kernels`] (lines 6–7 are one fused pass that also caches the
//! logits the line-13 HVP reuses), all `s_m` are drawn up front on the
//! serial RNG stream, and per-environment contributions merge in env
//! order — training is bit-identical for any thread count.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use crate::env::EnvDataset;
use crate::kernels::{self, EnvScratch, ScratchPool};
use crate::lr::LrModel;
use crate::mrq::MetaReplayQueue;
use crate::timing::{OpCounter, Step, StepTimer};
use crate::trainers::{
    active_envs_checked, axpy_neg, sigma_coefficients, EpochObserver, MetaObs, TrainConfig,
    TrainOutput, TrainedModel,
};

/// LightMIRM trainer.
#[derive(Debug, Clone)]
pub struct LightMirmTrainer {
    pub config: TrainConfig,
    /// Length `L` of the meta-loss replaying queue (paper default 5).
    pub mrq_len: usize,
    /// Decay coefficient γ of Eq. (9) (paper default 0.9).
    pub gamma: f64,
}

impl LightMirmTrainer {
    /// Build with the paper's default MRQ length 5 and γ = 0.9.
    pub fn new(config: TrainConfig) -> Self {
        Self::with_mrq(config, 5, 0.9)
    }

    /// Build with explicit MRQ length and decay (the ablations of
    /// Fig. 9 and Table IV).
    ///
    /// # Panics
    ///
    /// Panics when `mrq_len == 0` or `gamma` is outside `(0, 1]`.
    pub fn with_mrq(config: TrainConfig, mrq_len: usize, gamma: f64) -> Self {
        assert!(mrq_len >= 1, "MRQ length must be positive");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        LightMirmTrainer {
            config,
            mrq_len,
            gamma,
        }
    }

    /// Train per Algorithm 2, starting from the zero head.
    pub fn fit(&self, data: &EnvDataset, observer: Option<EpochObserver<'_>>) -> TrainOutput {
        self.fit_warm(data, LrModel::zeros(data.n_cols()), observer)
    }

    /// Train per Algorithm 2 from an explicit initial head — the online
    /// adaptation warm start: the serving layer seeds the retrain with
    /// the champion's weights so few epochs over a small labeled buffer
    /// suffice. `fit` is exactly `fit_warm` from the zero head, so the
    /// two are bit-identical on that initialization.
    ///
    /// # Panics
    ///
    /// Panics when `init.weights.len() != data.n_cols()`.
    pub fn fit_warm(
        &self,
        data: &EnvDataset,
        init: LrModel,
        mut observer: Option<EpochObserver<'_>>,
    ) -> TrainOutput {
        assert_eq!(
            init.weights.len(),
            data.n_cols(),
            "warm-start head dimension must match the dataset"
        );
        let mut timer = StepTimer::new();
        let mut ops = OpCounter::new();
        let envs = timer.time(Step::LoadData, || active_envs_checked(data));
        let n_cols = data.n_cols();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut model = init;

        // One MRQ per environment, zero-initialized (Algorithm 2 line 1).
        let mut queues: Vec<MetaReplayQueue> = envs
            .iter()
            .map(|_| MetaReplayQueue::new(self.mrq_len))
            .collect();

        // Per-environment scratch (θ̄, gradients, u, HVP, logit cache),
        // allocated once and reused every epoch.
        let env_sizes: Vec<usize> = envs.iter().map(|&m| data.env_rows(m).len()).collect();
        let mut pool = ScratchPool::new(n_cols, &env_sizes);
        let mut outer = vec![0.0; n_cols];
        let mut momentum = crate::trainers::Momentum::new(n_cols, self.config.momentum);
        let mobs = MetaObs::new("lightmirm", &envs);

        for epoch in 0..self.config.epochs {
            let _epoch_span = crate::span!("train_epoch", trainer = "lightmirm", epoch = epoch);
            // ---- sample s_m ≠ m: line 8 ----------------------------------
            // All draws happen up front on the single ChaCha stream, so
            // the sampling sequence is independent of the parallel
            // schedule below. `s_m ≠ m` is drawn directly by index shift
            // (one uniform over the M−1 other positions) instead of a
            // rejection loop.
            let sampled: Vec<usize> = if envs.len() == 1 {
                vec![envs[0]] // degenerate single-env world: self is the only option
            } else {
                (0..envs.len())
                    .map(|i| {
                        let j = rng.gen_range(0..envs.len() - 1);
                        envs[if j >= i { j + 1 } else { j }]
                    })
                    .collect()
            };

            // ---- inner step: lines 6–7, env-parallel --------------------
            // One fused pass per environment yields R^m(θ) (line 6) and
            // ∇R^m(θ) (line 7) while caching the logits the outer HVP at
            // the same θ will reuse. The paper's accounting still charges
            // one forward and one backward per environment.
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
                        let _inner_loss = kernels::env_loss_grad_cached(
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
            if let Some(mo) = &mobs {
                for &s in &sampled {
                    if let Some(pos) = envs.iter().position(|&e| e == s) {
                        mo.sampled_env[pos].inc();
                    }
                }
            }

            // ---- replay: lines 9–10, env-parallel -----------------------
            let sampled_losses: Vec<f64> = timer.time(Step::MetaLoss, || {
                pool.slots()
                    .par_iter()
                    .enumerate()
                    .map(|(i, slot)| {
                        kernels::env_loss(
                            &slot.theta_bar,
                            &data.x,
                            &data.labels,
                            data.env_rows(sampled[i]),
                            self.config.reg,
                        )
                    })
                    .collect()
            });
            ops.add_forward(envs.len() as u64);
            for (queue, &loss) in queues.iter_mut().zip(&sampled_losses) {
                queue.push(loss);
            }

            // R_meta per env: the decay-normalized replayed loss.
            let meta_losses: Vec<f64> =
                queues.iter().map(|q| q.replayed_mean(self.gamma)).collect();
            if let Some(mo) = &mobs {
                mo.mrq_push.add(envs.len() as u64);
                mo.mrq_replay.add(envs.len() as u64);
                mo.record_sigma(&meta_losses);
            }

            // ---- outer update: lines 12–13 ------------------------------
            // Gradient flows only through the newest queue entry,
            // R^{s_m}(θ̄_m), whose weight inside the replayed mean is
            // `newest_weight`.
            let coefs = sigma_coefficients(&meta_losses, self.config.lambda);
            let w_news: Vec<f64> = queues.iter().map(|q| q.newest_weight(self.gamma)).collect();
            let outer_t0 = mobs.as_ref().map(|_| std::time::Instant::now());
            timer.time(Step::Backward, || {
                pool.slots_mut()
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(i, slot)| {
                        let EnvScratch {
                            theta_bar,
                            u,
                            hvp,
                            logits,
                            ..
                        } = slot;
                        kernels::env_grad(
                            theta_bar,
                            &data.x,
                            &data.labels,
                            data.env_rows(sampled[i]),
                            self.config.reg,
                            u,
                        );
                        // Chain through the inner step: u − α H_m(θ) u.
                        // The Hessian is at θ over env m's rows — exactly
                        // where the inner pass cached the logits.
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
            ops.add_backward(envs.len() as u64);
            ops.add_hvp(envs.len() as u64);
            // Ordered merge: environments accumulate in env order, so the
            // outer gradient is independent of the parallel schedule.
            outer.fill(0.0);
            for (i, slot) in pool.slots().iter().enumerate() {
                let scale = coefs[i] * w_news[i];
                for (o, &ui) in outer.iter_mut().zip(&slot.u) {
                    *o += scale * ui;
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
    use crate::lr;
    use crate::sparse::MultiHotMatrix;
    use crate::trainers::MetaIrmTrainer;

    /// Same anti-causal toy as the meta-IRM tests: invariant leaves 0/1,
    /// spurious leaves 2/3 that flip direction in env 2.
    fn irm_toy(rows_per_env: &[usize]) -> EnvDataset {
        let mut idx = Vec::new();
        let mut labels = Vec::new();
        let mut envs = Vec::new();
        let mut counter = 0usize;
        for (env, &n) in rows_per_env.iter().enumerate() {
            for _ in 0..n {
                counter += 1;
                let y = (counter % 2) as u8;
                let noise = counter.wrapping_mul(2654435761).is_multiple_of(4);
                let inv = if (y == 1) != noise { 0u32 } else { 1 };
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

    fn spurious_ratio(model: &LrModel) -> f64 {
        let inv = (model.weights[0] - model.weights[1]).abs();
        let spur = (model.weights[2] - model.weights[3]).abs();
        spur / inv.max(1e-9)
    }

    #[test]
    fn matches_serial_algorithm_2_reference() {
        // Algorithm 2 as a plain serial loop over the `lr` oracle kernels.
        // M = 3, so the index-shift draw of s_m ≠ m matters (at M = 2
        // every draw is forced).
        let data = irm_toy(&[60, 45, 30]);
        let config = TrainConfig {
            reg: 1e-3,
            ..cfg(12)
        };
        let trainer = LightMirmTrainer::new(config.clone());
        let (x, y) = (&data.x, &data.labels);
        let (alpha, reg, gamma) = (config.inner_lr, config.reg, trainer.gamma);
        let envs = data.active_envs();
        let m = envs.len();
        let n = data.n_cols();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut queues = vec![MetaReplayQueue::new(trainer.mrq_len); m];
        let mut theta = vec![0.0; n];
        let mut grad = vec![0.0; n];
        let mut hvp = vec![0.0; n];
        for _ in 0..config.epochs {
            let sampled: Vec<usize> = (0..m)
                .map(|i| {
                    let j = rng.gen_range(0..m - 1);
                    envs[if j >= i { j + 1 } else { j }]
                })
                .collect();
            let mut bars = Vec::with_capacity(m);
            for (i, &e) in envs.iter().enumerate() {
                lr::env_grad(&theta, x, y, data.env_rows(e), reg, &mut grad);
                let bar: Vec<f64> = theta
                    .iter()
                    .zip(&grad)
                    .map(|(t, g)| t - alpha * g)
                    .collect();
                queues[i].push(lr::env_loss(&bar, x, y, data.env_rows(sampled[i]), reg));
                bars.push(bar);
            }
            let metas: Vec<f64> = queues.iter().map(|q| q.replayed_mean(gamma)).collect();
            let coefs = sigma_coefficients(&metas, config.lambda);
            let mut outer = vec![0.0; n];
            for (i, &e) in envs.iter().enumerate() {
                lr::env_grad(&bars[i], x, y, data.env_rows(sampled[i]), reg, &mut grad);
                lr::env_hvp(&theta, x, y, data.env_rows(e), reg, &grad, &mut hvp);
                let scale = coefs[i] * queues[i].newest_weight(gamma);
                for ((o, &u), &h) in outer.iter_mut().zip(&grad).zip(&hvp) {
                    *o += scale * (u - alpha * h);
                }
            }
            for (t, &o) in theta.iter_mut().zip(&outer) {
                *t -= config.outer_lr * o;
            }
        }
        let fitted = trainer.fit(&data, None);
        assert!(theta.iter().any(|&w| w != 0.0), "training must move θ");
        assert_eq!(fitted.model.global().weights, theta);
    }

    #[test]
    fn op_count_is_exactly_4m_per_epoch() {
        let data = irm_toy(&[50, 50, 50, 50]);
        let epochs = 3u64;
        let m = 4u64;
        let out = LightMirmTrainer::new(cfg(epochs as usize)).fit(&data, None);
        assert_eq!(out.ops.total(), epochs * 4 * m);
        assert_eq!(out.ops.hvp, epochs * m);
    }

    #[test]
    fn linear_vs_quadratic_scaling() {
        // The §III-F claim: as M grows, LightMIRM ops grow linearly and
        // meta-IRM ops quadratically.
        for m in [3usize, 5, 8] {
            let data = irm_toy(&vec![40; m]);
            let light = LightMirmTrainer::new(cfg(1)).fit(&data, None);
            let meta = MetaIrmTrainer::new(cfg(1)).fit(&data, None);
            assert_eq!(light.ops.total(), 4 * m as u64);
            assert_eq!(meta.ops.total(), 2 * (m * m) as u64);
        }
    }

    #[test]
    fn light_mirm_avoids_spurious_features() {
        let data = irm_toy(&[300, 300, 100]);
        let erm = crate::trainers::ErmTrainer::new(cfg(60)).fit(&data, None);
        let light = LightMirmTrainer::new(cfg(60)).fit(&data, None);
        let r_erm = spurious_ratio(erm.model.global());
        let r_light = spurious_ratio(light.model.global());
        assert!(
            r_light < r_erm,
            "LightMIRM spurious reliance {r_light:.3} should be below ERM's {r_erm:.3}"
        );
    }

    #[test]
    fn tracks_complete_meta_irm_on_the_toy() {
        // Fig. 6's qualitative claim: LightMIRM reaches the quality of the
        // complete meta-IRM. On this toy, compare the invariant-feature
        // alignment of both after training.
        let data = irm_toy(&[200, 200, 200]);
        let meta = MetaIrmTrainer::new(cfg(40)).fit(&data, None);
        let light = LightMirmTrainer::new(cfg(40)).fit(&data, None);
        let r_meta = spurious_ratio(meta.model.global());
        let r_light = spurious_ratio(light.model.global());
        assert!(
            (r_light - r_meta).abs() < 0.3,
            "light {r_light:.3} vs meta {r_meta:.3} should be in the same regime"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = irm_toy(&[80, 80, 80]);
        let a = LightMirmTrainer::new(cfg(6)).fit(&data, None);
        let b = LightMirmTrainer::new(cfg(6)).fit(&data, None);
        assert_eq!(a.model.global().weights, b.model.global().weights);
        let mut other = cfg(6);
        other.seed = 1234;
        let c = LightMirmTrainer::new(other).fit(&data, None);
        assert_ne!(a.model.global().weights, c.model.global().weights);
    }

    #[test]
    fn mrq_length_one_equals_pure_sampling_semantics() {
        // With L = 1 the replayed mean is exactly the newest sampled loss;
        // the trainer still runs and matches the 4M op count.
        let data = irm_toy(&[60, 60, 60]);
        let out = LightMirmTrainer::with_mrq(cfg(4), 1, 0.9).fit(&data, None);
        assert_eq!(out.ops.total(), 4 * 4 * 3);
    }

    #[test]
    fn gamma_one_is_uniform_replay() {
        let data = irm_toy(&[60, 60, 60]);
        // Should train without numerical issues at the γ = 1 boundary.
        let out = LightMirmTrainer::with_mrq(cfg(10), 5, 1.0).fit(&data, None);
        assert!(out.model.global().weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_gamma_above_one() {
        let _ = LightMirmTrainer::with_mrq(cfg(1), 5, 1.5);
    }

    #[test]
    #[should_panic(expected = "MRQ length")]
    fn rejects_zero_queue() {
        let _ = LightMirmTrainer::with_mrq(cfg(1), 0, 0.9);
    }

    #[test]
    fn single_environment_degenerates_gracefully() {
        let data = irm_toy(&[100]);
        let out = LightMirmTrainer::new(cfg(5)).fit(&data, None);
        assert!(out.model.global().weights.iter().all(|w| w.is_finite()));
    }

    #[test]
    fn fit_warm_from_zeros_is_bit_identical_to_fit() {
        let data = irm_toy(&[80, 80, 80]);
        let cold = LightMirmTrainer::new(cfg(6)).fit(&data, None);
        let warm =
            LightMirmTrainer::new(cfg(6)).fit_warm(&data, LrModel::zeros(data.n_cols()), None);
        assert_eq!(cold.model.global().weights, warm.model.global().weights);
    }

    #[test]
    fn fit_warm_starts_from_the_given_head() {
        let data = irm_toy(&[80, 80, 80]);
        let init = LrModel {
            weights: (0..data.n_cols()).map(|i| 0.25 * i as f64).collect(),
        };
        // Zero epochs: the warm start must come back untouched.
        let out = LightMirmTrainer::new(cfg(0)).fit_warm(&data, init.clone(), None);
        assert_eq!(out.model.global().weights, init.weights);
        // And a different init must steer a short run elsewhere.
        let warm = LightMirmTrainer::new(cfg(3)).fit_warm(&data, init, None);
        let cold = LightMirmTrainer::new(cfg(3)).fit(&data, None);
        assert_ne!(warm.model.global().weights, cold.model.global().weights);
    }

    #[test]
    #[should_panic(expected = "warm-start head dimension")]
    fn fit_warm_rejects_dimension_mismatch() {
        let data = irm_toy(&[40, 40]);
        let _ = LightMirmTrainer::new(cfg(1)).fit_warm(&data, LrModel::zeros(3), None);
    }

    #[test]
    fn observer_called_every_epoch() {
        let data = irm_toy(&[60, 60]);
        let mut count = 0usize;
        let mut obs = |_e: usize, _m: &LrModel| count += 1;
        LightMirmTrainer::new(cfg(7)).fit(&data, Some(&mut obs));
        assert_eq!(count, 7);
    }
}
