//! The traced run's inner-layer probe: each layer's public functions,
//! called directly on the workload's own data and timed from outside.
//! Every figure is the median of a few repetitions.

use std::time::Instant;

use lightmirm_core::framing::decode_frame;
use lightmirm_core::kernels::{
    env_grad, env_loss, env_loss_grad, env_loss_grad_cached, hvp_from_logits, predict_rows_into,
};
use lightmirm_core::pipeline::FeatureExtractorConfig;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_gbdt::{best_split, grow_tree, BinnedDataset, FeatureHistogram};
use lightmirm_serve::{DriftMonitor, MonitorConfig};

use crate::serve::Request;
use crate::stats::{after_warmup, median};
use crate::trace::Tracer;
use crate::world::{cli_train_config, fit_lightmirm, Fitted, World};

/// Median seconds of `reps` calls of `f`, each inside a span.
fn timed(tr: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let _g = tr.span(name, 0, 0);
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Per-layer figures measured by calling the layers directly.
pub fn probe(
    world: &World,
    fitted: &Fitted,
    batch_rows: usize,
    frames: &[Request],
    tr: &Tracer,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let gbdt_cfg = FeatureExtractorConfig::default().gbdt;
    let train = &world.train;
    let nf = train.n_features();

    // gbdt: binning, one tree, one root histogram pass, split search.
    let mut binned = None;
    let bin_s = timed(tr, "BinnedDataset::fit", 3, || {
        binned = Some(BinnedDataset::fit(
            train.feature_matrix(),
            nf,
            gbdt_cfg.max_bins,
        ));
    });
    let binned = binned.expect("binned at least once");
    out.push(("gbdt.bin_s", bin_s));
    let prior = train.default_rate();
    let grads: Vec<f64> = train.label.iter().map(|&y| prior - f64::from(y)).collect();
    let hessians = vec![prior * (1.0 - prior); train.len()];
    let tree_s = timed(tr, "grow_tree", 5, || {
        std::hint::black_box(grow_tree(&binned, &grads, &hessians, &gbdt_cfg.grow));
    });
    out.push(("gbdt.tree_ms", tree_s * 1e3));
    let root: Vec<u32> = (0..train.len() as u32).collect();
    let mut hists = Vec::new();
    let hist_s = timed(tr, "FeatureHistogram::build", 5, || {
        hists = (0..nf)
            .map(|f| {
                FeatureHistogram::build(
                    binned.feature_codes(f),
                    &root,
                    &grads,
                    &hessians,
                    binned.mapper(f).n_bins(),
                )
            })
            .collect();
    });
    out.push(("gbdt.hist_build_ms", hist_s * 1e3));
    let g = gbdt_cfg.grow;
    let split_s = timed(tr, "best_split", 21, || {
        for (f, h) in hists.iter().enumerate() {
            std::hint::black_box(best_split(
                h,
                f as u32,
                g.lambda_l2,
                g.min_data_in_leaf,
                g.min_gain,
            ));
        }
    });
    out.push(("gbdt.split_search_us", split_s * 1e6));

    // gbdt transform and bundle scoring over the test rows.
    let test = &world.test;
    let n_test = test.len() as f64;
    let bundle = &fitted.bundle;
    let transform_s = timed(tr, "Gbdt::transform_batch", 5, || {
        std::hint::black_box(bundle.extractor.transform_batch(test.feature_matrix()));
    });
    out.push(("gbdt.transform_ns_per_row", transform_s * 1e9 / n_test));
    let batch = batch_rows.max(1);
    let chunks: Vec<(&[f32], &[u16])> = test
        .feature_matrix()
        .chunks(batch * nf)
        .zip(test.province.chunks(batch))
        .collect();
    let score_s = timed(tr, "ModelBundle::score_batch", 5, || {
        for (f, e) in &chunks {
            std::hint::black_box(bundle.score_batch(f, e));
        }
    });
    out.push(("bundle.score_ns_per_row", score_s * 1e9 / n_test));
    let baseline = bundle
        .baseline
        .clone()
        .expect("the benchmark's bundles carry a drift baseline");
    let monitor = DriftMonitor::new(baseline, MonitorConfig::default());
    let scored: Vec<Vec<f64>> = chunks
        .iter()
        .map(|(f, e)| bundle.score_batch(f, e))
        .collect();
    let observe_s = timed(tr, "DriftMonitor::observe", 5, || {
        for ((f, e), s) in chunks.iter().zip(&scored) {
            monitor.observe(s, e, f, nf);
        }
    });
    out.push(("monitor.observe_ns_per_row", observe_s * 1e9 / n_test));

    // framing: decode plus payload materialization, as the sender does.
    let decode_s = timed(tr, "framing::decode_frame", 5, || {
        for r in frames {
            let mut buf = r.frame.clone();
            let f = decode_frame(&mut buf).expect("benchmark frames decode");
            std::hint::black_box((f.features(), f.env_ids()));
        }
    });
    out.push((
        "framing.decode_ns_per_frame",
        decode_s * 1e9 / frames.len().max(1) as f64,
    ));

    // kernels: every active environment in turn, as the trainers call them.
    let env = &fitted.env;
    let theta = &fitted.head.out.model.global().weights;
    let reg = cli_train_config().reg;
    let envs: Vec<&[u32]> = env
        .active_envs()
        .into_iter()
        .map(|m| env.env_rows(m))
        .collect();
    let rows: f64 = envs.iter().map(|r| r.len() as f64).sum();
    let mut grad = vec![0.0; theta.len()];
    let loss_grad_s = timed(tr, "kernels::env_loss_grad", 5, || {
        for r in &envs {
            std::hint::black_box(env_loss_grad(theta, &env.x, &env.labels, r, reg, &mut grad));
        }
    });
    out.push(("kernels.loss_grad_ns_per_row", loss_grad_s * 1e9 / rows));
    let loss_s = timed(tr, "kernels::env_loss", 5, || {
        for r in &envs {
            std::hint::black_box(env_loss(theta, &env.x, &env.labels, r, reg));
        }
    });
    out.push(("kernels.loss_ns_per_row", loss_s * 1e9 / rows));
    let grad_s = timed(tr, "kernels::env_grad", 5, || {
        for r in &envs {
            env_grad(theta, &env.x, &env.labels, r, reg, &mut grad);
        }
    });
    out.push(("kernels.grad_ns_per_row", grad_s * 1e9 / rows));
    let logits: Vec<Vec<f64>> = envs
        .iter()
        .map(|r| {
            let mut l = vec![0.0; r.len()];
            env_loss_grad_cached(theta, &env.x, &env.labels, r, reg, &mut grad, &mut l);
            l
        })
        .collect();
    let mut hv = vec![0.0; theta.len()];
    let hvp_s = timed(tr, "kernels::hvp_from_logits", 5, || {
        for (r, l) in envs.iter().zip(&logits) {
            hvp_from_logits(l, &env.x, r, reg, theta, &mut hv);
        }
    });
    out.push(("kernels.hvp_ns_per_row", hvp_s * 1e9 / rows));
    // The parallel runtime: LightMIRM epochs with rayon on every CPU.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(crate::sys::nproc())
        .build()
        .expect("the thread-count override always builds");
    let parallel = tr.time("LightMirmTrainer::fit@nproc", 0, 0, |_| {
        pool.install(|| {
            fit_lightmirm(
                env,
                TrainConfig {
                    epochs: 20,
                    ..cli_train_config()
                },
            )
        })
    });
    out.push((
        "rayon.nproc_lightmirm_epoch_ms",
        median(after_warmup(&parallel.epoch_ms, 1)),
    ));
    let all_rows = env.all_rows();
    let mut pred = vec![0.0; all_rows.len()];
    let predict_s = timed(tr, "kernels::predict_rows_into", 5, || {
        predict_rows_into(theta, &env.x, &all_rows, &mut pred);
    });
    out.push((
        "kernels.predict_ns_per_row",
        predict_s * 1e9 / all_rows.len() as f64,
    ));
    out
}
