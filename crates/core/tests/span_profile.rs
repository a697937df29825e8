//! Span parentage across the env-parallel trainers: every `inner_step`
//! a pool worker runs is linked to the `train_epoch` span that launched
//! it, so the span profile of a parallel fit has one
//! `train_epoch → inner_step` edge per environment and epoch.
//!
//! The trace ring is process-global and the harness runs a binary's
//! tests in parallel, so this binary holds this one test: the ring then
//! holds this fit's spans and nothing else.

use lightmirm_core::obs::{self, Profile};
use lightmirm_core::prelude::*;
use lightmirm_core::trainers::TrainConfig;
use rayon::ThreadPoolBuilder;

/// `n_envs` environments of `rows` multi-hot rows each.
fn world(n_envs: u16, rows: usize) -> EnvDataset {
    let mut idx = Vec::new();
    let mut labels = Vec::new();
    let mut envs = Vec::new();
    for env in 0..n_envs {
        for r in 0..rows {
            let y = (r % 3 == 0) as u8;
            idx.extend_from_slice(&[u32::from(y), 2 + (r % 4) as u32]);
            labels.push(y);
            envs.push(env);
        }
    }
    let x = MultiHotMatrix::new(idx, 2, 6).expect("well-formed");
    let names = (0..n_envs).map(|e| format!("env{e}")).collect();
    EnvDataset::new(x, labels, envs, names).expect("aligned")
}

#[test]
fn a_four_thread_lightmirm_fit_profiles_every_inner_step_under_its_epoch() {
    // Spans record only with the `obs` feature.
    if !obs::enabled() {
        return;
    }
    let (n_envs, epochs) = (4u16, 6usize);
    let data = world(n_envs, 40);
    let config = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    let pool = ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("pool");
    pool.install(|| LightMirmTrainer::new(config).fit(&data, None));

    let profile = Profile::from_ring();
    let edge = profile
        .edges
        .iter()
        .find(|e| e.parent == "train_epoch" && e.child == "inner_step");
    assert_eq!(
        edge.map(|e| e.count),
        Some((epochs * usize::from(n_envs)) as u64),
        "edges: {:?}",
        profile.edges
    );
}
