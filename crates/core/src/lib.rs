//! `lightmirm-core` — the LightMIRM paper's primary contribution.
//!
//! This crate implements, from scratch:
//!
//! - the **multi-hot design matrix** produced by the GBDT+LR transform
//!   ([`sparse`]) and the **logistic-regression** model with closed-form
//!   gradients and Hessian-vector products ([`lr`]);
//! - **fused, parallel kernels** over that matrix ([`kernels`]): a
//!   single-pass loss+gradient, a logit-caching HVP, and fixed-chunk
//!   ordered reductions that keep results bit-identical for any thread
//!   count, executed by vectorized row-block inner loops ([`simd`]) that
//!   stay bit-identical to the serial [`lr`] kernels on a single chunk;
//! - **environment-partitioned datasets** ([`mod@env`]);
//! - the **trainers** of the paper's evaluation ([`trainers`]): ERM,
//!   ERM + per-province fine-tuning, environment up-sampling, Group DRO,
//!   V-REx, IRMv1, meta-IRM (Algorithm 1, complete and sampled), and
//!   **LightMIRM** (Algorithm 2) with the meta-loss replaying queue
//!   ([`mrq`]);
//! - Table-III **step timing** and §III-F **operation accounting**
//!   ([`timing`]) — the `O(2M²)` vs `O(4M)` claims are asserted exactly in
//!   tests;
//! - the end-to-end **GBDT+LR pipeline** ([`pipeline`]), per-province
//!   **fairness evaluation** ([`eval`]), the **online replay
//!   simulator** behind Fig. 5 ([`online`]), and versioned **deployable
//!   model bundles** ([`bundle`]).
//!
//! # Quick start
//!
//! ```
//! use lightmirm_core::prelude::*;
//! use lightmirm_core::trainers::TrainConfig;
//! use loansim::{generate, temporal_split, GeneratorConfig, ProvinceCatalog};
//!
//! // A tiny synthetic world, split as the paper does (2016–19 / 2020).
//! let frame = generate(&GeneratorConfig::small(2000, 1));
//! let split = temporal_split(&frame, 2020);
//!
//! // Feature extraction (GBDT trained with ERM), then LightMIRM on top.
//! let mut fe_cfg = FeatureExtractorConfig::default();
//! fe_cfg.gbdt.n_trees = 8;
//! let extractor = FeatureExtractor::fit(&split.train, &fe_cfg).unwrap();
//! let names = ProvinceCatalog::standard().names();
//! let train = extractor.to_env_dataset(&split.train, names.clone(), None).unwrap();
//! let test = extractor.to_env_dataset(&split.test, names, None).unwrap();
//!
//! let trainer = LightMirmTrainer::new(TrainConfig { epochs: 5, ..Default::default() });
//! let out = trainer.fit(&train, None);
//! let summary = evaluate(&out.model, &test).unwrap();
//! assert!(summary.m_auc > 0.5);
//! ```

#![deny(unsafe_code)]

pub mod batch;
pub mod bundle;
pub mod env;
pub mod eval;
pub mod explain;
pub mod failpoint;
pub mod framing;
pub mod hash;
pub mod kernels;
pub mod lr;
pub mod mrq;
pub mod obs;
pub mod online;
pub mod pipeline;
pub mod sem;
pub mod simd;
pub mod sparse;
pub mod timing;
pub mod trainers;

/// Convenient single-import surface.
pub mod prelude {
    pub use crate::batch::Batcher;
    pub use crate::bundle::{
        BundleError, BundleMetadata, ModelBundle, QuarantineFallback, QuarantinePolicy,
        QuarantinedScores, RowQuarantine, ValueFault,
    };
    pub use crate::env::EnvDataset;
    pub use crate::eval::{evaluate, evaluate_filtered, score_rows};
    pub use crate::explain::{explain_row, Explanation, TreeContribution};
    pub use crate::kernels::{
        env_loss_grad, env_loss_grad_cached, hvp_from_logits, EnvScratch, ScratchPool, CHUNK_ROWS,
    };
    pub use crate::lr::{env_grad, env_hvp, env_loss, sigmoid, LrModel};
    pub use crate::mrq::MetaReplayQueue;
    pub use crate::obs::{
        Counter, Gauge, HistogramHandle, MetricKey, MetricValue, MetricsRegistry, MetricsSnapshot,
    };
    pub use crate::online::{
        best_threshold, realized_profit, replay, OnlinePoint, OnlineReplay, ProfitModel,
    };
    pub use crate::pipeline::{FeatureExtractor, FeatureExtractorConfig, PipelineError};
    pub use crate::sem::SemSpec;
    pub use crate::simd::BLOCK_ROWS;
    pub use crate::sparse::MultiHotMatrix;
    pub use crate::timing::{Histogram, OpCounter, Step, StepTimer};
    pub use crate::trainers::{
        ErmTrainer, FineTuneTrainer, GroupDroTrainer, Irmv1Trainer, LightMirmTrainer,
        MetaIrmTrainer, TrainConfig, TrainOutput, TrainedModel, UpSamplingTrainer, VRexTrainer,
    };
}

pub use prelude::*;
