//! `lightmirm-gbdt` — histogram-based gradient boosted decision trees.
//!
//! A from-scratch, LightGBM-style GBDT implementing exactly what the
//! LightMIRM paper's feature-extraction module needs:
//!
//! - **quantile binning** into ≤255 bins per feature, by one radix sort
//!   per column ([`binning`]);
//! - **leaf-wise (best-first) growth** with L2-regularised second-order
//!   gain ([`grow`], [`histogram`]): every tree's root is the whole
//!   training set, its histograms summed bin by bin, and below it the
//!   histogram-subtraction trick builds only the smaller child's;
//! - **binary-logloss boosting** with shrinkage, a fixed number of rounds
//!   ([`boost`]);
//! - the **GBDT+LR transform**: each tree maps a raw row to a leaf index;
//!   concatenated one-hot leaf encodings form the multi-hot input of the
//!   downstream logistic-regression model ([`Gbdt::transform_row`]).
//!
//! # Quick start
//!
//! ```
//! use lightmirm_gbdt::{Gbdt, GbdtConfig};
//!
//! // Tiny toy problem: y = x0 > 0.5, with a noise feature.
//! let mut feats = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..200 {
//!     let x = (i % 100) as f32 / 100.0;
//!     feats.extend_from_slice(&[x, (i % 7) as f32]);
//!     labels.push((x > 0.5) as u8);
//! }
//! let model = Gbdt::fit(&feats, 2, &labels, &GbdtConfig::default()).unwrap();
//! assert!(model.predict_proba(&[0.9, 0.0]) > 0.5);
//! assert!(model.predict_proba(&[0.1, 0.0]) < 0.5);
//! ```

#![forbid(unsafe_code)]

pub mod binning;
pub mod boost;
pub mod grow;
pub mod histogram;
pub mod tree;

pub use binning::{BinMapper, BinnedDataset};
pub use boost::{Gbdt, GbdtConfig, GbdtError};
pub use grow::{grow_tree, GrowConfig, GrownTree};
pub use histogram::{best_split, BinStats, FeatureHistogram, SplitCandidate};
pub use tree::{Node, Tree};
