//! Training: the `train-pipeline` loop, and the Table III reference
//! round every workload runs between its timed stretches.

use std::path::Path;
use std::time::{Duration, Instant};

use lightmirm_core::env::EnvDataset;
use lightmirm_core::trainers::TrainConfig;
use loansim::LoanFrame;

use crate::report::Tally;
use crate::sys::process_cpu;
use crate::trace::Tracer;
use crate::world::{check_ops, fit_lightmirm, fit_meta_irm, fit_pipeline, TimedFit};
use crate::Slice;

/// Epochs per head in one Table III round.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    pub lightmirm: usize,
    pub meta_irm: usize,
}

/// What a training loop produced.
#[derive(Default)]
pub struct TrainRun {
    /// One per pipeline fit: train rows, and wall and process CPU time
    /// rescaled to the reference host speed.
    pub slices: Vec<Slice>,
    /// Each pipeline fit's wall time at the reference host speed.
    pub fit_s: Vec<f64>,
    /// Each pipeline fit's wall time as measured.
    pub raw_fit_s: Vec<f64>,
    pub lightmirm: Vec<TimedFit>,
    pub wauc: f64,
    pub tally: Tally,
}

/// `train-pipeline`: raw frame → reloaded bundle → wAUC, repeated on one
/// fixed frame until `duration` has passed. The wAUC of every fit must
/// equal `expected_wauc`, the set-up fit's. Each fit's wall and CPU time
/// are rescaled to the reference host speed by its head's median
/// yardstick pass ([`Fitted::scaled_s`]).
pub fn pipeline_loop(
    frame: &LoanFrame,
    train_rows: usize,
    expected_wauc: f64,
    dir: &Path,
    duration: Duration,
    tr: &Tracer,
) -> TrainRun {
    let mut run = TrainRun {
        wauc: expected_wauc,
        ..TrainRun::default()
    };
    let start = Instant::now();
    let path = dir.join("pipeline.bundle");
    let mut op = 1u64;
    while start.elapsed() < duration || run.tally.attempted == 0 {
        run.tally.attempted += 1;
        let cpu0 = process_cpu();
        let fitted = fit_pipeline(frame, &path, tr, 0, op);
        let cpu_s = (process_cpu() - cpu0).as_secs_f64();
        match fitted {
            Ok(fitted) => {
                if fitted.wauc.to_bits() != expected_wauc.to_bits() {
                    run.tally.fail(format!(
                        "fit {op}: wAUC {} differs from the set-up fit's {expected_wauc}",
                        fitted.wauc
                    ));
                }
                let scaled_s = fitted.scaled_s();
                let scale = scaled_s / fitted.wall_s;
                run.slices.push(Slice {
                    rows: train_rows as u64,
                    wall_s: scaled_s,
                    cpu_s: cpu_s * scale,
                    p50_ms: scaled_s * 1e3,
                });
                run.fit_s.push(scaled_s);
                run.raw_fit_s.push(fitted.wall_s);
                run.lightmirm.push(fitted.head);
            }
            Err(e) => run.tally.fail(format!("fit {op}: {e}")),
        }
        op += 1;
    }
    run
}

/// One Table III round on `env`: a LightMIRM fit, then a complete
/// meta-IRM fit, for `round`'s epochs each. Both op ledgers are checked.
pub fn reference_round(
    env: &EnvDataset,
    config: &TrainConfig,
    round: Round,
    tally: &mut Tally,
) -> (TimedFit, TimedFit) {
    let m = env.active_envs().len();
    let light = fit_lightmirm(
        env,
        TrainConfig {
            epochs: round.lightmirm,
            ..config.clone()
        },
    );
    let meta = fit_meta_irm(
        env,
        TrainConfig {
            epochs: round.meta_irm,
            ..config.clone()
        },
    );
    for (method, fit) in [("lightmirm", &light), ("meta-irm", &meta)] {
        tally.attempted += 1;
        if let Err(e) = check_ops(method, &fit.out.ops, fit.out.epochs_run, m) {
            tally.fail(format!("reference round: {e}"));
        }
    }
    (light, meta)
}
