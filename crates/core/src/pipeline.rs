//! The end-to-end GBDT+LR pipeline of paper Fig. 2.
//!
//! A LightGBM-style ensemble is trained with ERM on the pooled training
//! data (the feature-extraction module, blue box); every tree then maps a
//! raw row to a leaf index, and the concatenated one-hot encodings become
//! the multi-hot input of the LR module (yellow box), which is trained
//! with any of the [`crate::trainers`].

use lightmirm_gbdt::{Gbdt, GbdtConfig, GbdtError, GrowConfig};
use loansim::LoanFrame;

use crate::env::{EnvDataset, EnvError};
use crate::sparse::{MultiHotMatrix, SparseError};
use crate::timing::{Step, StepTimer};

/// Configuration of the feature-extraction module.
#[derive(Debug, Clone)]
pub struct FeatureExtractorConfig {
    /// GBDT hyper-parameters. The pipeline default uses many small trees
    /// (64 × 8 leaves), which factorizes the leaf features and suits the
    /// downstream LR better than few deep trees.
    pub gbdt: GbdtConfig,
}

impl Default for FeatureExtractorConfig {
    fn default() -> Self {
        FeatureExtractorConfig {
            gbdt: GbdtConfig {
                n_trees: 64,
                learning_rate: 0.15,
                max_bins: 64,
                grow: GrowConfig {
                    max_leaves: 8,
                    min_data_in_leaf: 40,
                    lambda_l2: 1.0,
                    min_gain: 1e-6,
                },
            },
        }
    }
}

/// A fitted feature extractor (trained GBDT).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    gbdt: Gbdt,
}

impl FeatureExtractor {
    /// Train the GBDT on a frame's raw features with ERM (cross entropy on
    /// the pooled data, as §III-C prescribes).
    ///
    /// # Errors
    ///
    /// Propagates [`GbdtError`] from training.
    pub fn fit(frame: &LoanFrame, config: &FeatureExtractorConfig) -> Result<Self, GbdtError> {
        let gbdt = Gbdt::fit(
            frame.feature_matrix(),
            frame.n_features(),
            &frame.label,
            &config.gbdt,
        )?;
        Ok(FeatureExtractor { gbdt })
    }

    /// The underlying ensemble.
    pub fn gbdt(&self) -> &Gbdt {
        &self.gbdt
    }

    /// Dimension `N` of the multi-hot feature space.
    pub fn n_leaf_features(&self) -> usize {
        self.gbdt.total_leaves()
    }

    /// Transform a frame into the multi-hot design matrix.
    ///
    /// # Errors
    ///
    /// Propagates [`SparseError`] (cannot occur for indices produced by a
    /// consistent ensemble; surfaced for honesty).
    pub fn transform(&self, frame: &LoanFrame) -> Result<MultiHotMatrix, SparseError> {
        let indices = self.gbdt.transform_batch(frame.feature_matrix());
        MultiHotMatrix::new(indices, self.gbdt.n_trees(), self.gbdt.total_leaves())
    }

    /// Transform and assemble an [`EnvDataset`] (provinces as envs), with
    /// the transform charged to the Table-III `TransformFormat` step.
    ///
    /// # Errors
    ///
    /// Propagates transform and assembly errors.
    pub fn to_env_dataset(
        &self,
        frame: &LoanFrame,
        env_names: Vec<String>,
        timer: Option<&mut StepTimer>,
    ) -> Result<EnvDataset, PipelineError> {
        let x = match timer {
            Some(t) => t.time(Step::TransformFormat, || self.transform(frame))?,
            None => self.transform(frame)?,
        };
        let env = EnvDataset::new(x, frame.label.clone(), frame.province.clone(), env_names)?;
        Ok(env)
    }
}

/// Errors from pipeline assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// GBDT training failed.
    Gbdt(GbdtError),
    /// Transform produced an invalid matrix.
    Sparse(SparseError),
    /// Environment assembly failed.
    Env(EnvError),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Gbdt(e) => write!(f, "feature extractor: {e}"),
            PipelineError::Sparse(e) => write!(f, "transform: {e}"),
            PipelineError::Env(e) => write!(f, "environment assembly: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<GbdtError> for PipelineError {
    fn from(e: GbdtError) -> Self {
        PipelineError::Gbdt(e)
    }
}

impl From<SparseError> for PipelineError {
    fn from(e: SparseError) -> Self {
        PipelineError::Sparse(e)
    }
}

impl From<EnvError> for PipelineError {
    fn from(e: EnvError) -> Self {
        PipelineError::Env(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loansim::{generate, GeneratorConfig};

    fn small_world() -> LoanFrame {
        generate(&GeneratorConfig::small(3000, 71))
    }

    fn quick_extractor(frame: &LoanFrame) -> FeatureExtractor {
        let mut cfg = FeatureExtractorConfig::default();
        cfg.gbdt.n_trees = 10;
        FeatureExtractor::fit(frame, &cfg).unwrap()
    }

    /// The default extractor's GBDT on a NaN-free world, pinned by an
    /// FNV-1a digest of its JSON: every threshold, leaf value, leaf index
    /// and importance. A change to binning, histogram sums, split choice
    /// or leaf values moves it; at both rayon widths it must not.
    #[test]
    fn default_gbdt_digest_is_pinned() {
        let ex = FeatureExtractor::fit(&small_world(), &FeatureExtractorConfig::default()).unwrap();
        let json = serde_json::to_string(ex.gbdt()).unwrap();
        assert_eq!(
            crate::hash::fnv1a(json.as_bytes()),
            0x9fae_6c39_a6bd_37ec,
            "the default GBDT's bits moved"
        );
    }

    #[test]
    fn extractor_fits_and_transforms() {
        let frame = small_world();
        let ex = quick_extractor(&frame);
        let x = ex.transform(&frame).unwrap();
        assert_eq!(x.n_rows(), frame.len());
        assert_eq!(x.nnz_per_row(), 10);
        assert_eq!(x.n_cols(), ex.n_leaf_features());
    }

    #[test]
    fn transform_indices_stay_in_per_tree_ranges() {
        let frame = small_world();
        let ex = quick_extractor(&frame);
        let x = ex.transform(&frame).unwrap();
        for r in 0..x.n_rows().min(50) {
            let row = x.row(r);
            // Strictly increasing across trees (disjoint offset ranges).
            for w in row.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn env_dataset_assembles_with_province_names() {
        let frame = small_world();
        let ex = quick_extractor(&frame);
        let names = loansim::ProvinceCatalog::standard().names();
        let data = ex.to_env_dataset(&frame, names, None).unwrap();
        assert_eq!(data.n_rows(), frame.len());
        assert!(data.active_envs().len() > 5);
    }

    #[test]
    fn transform_is_charged_to_the_timer() {
        let frame = small_world();
        let ex = quick_extractor(&frame);
        let names = loansim::ProvinceCatalog::standard().names();
        let mut timer = StepTimer::new();
        let _ = ex.to_env_dataset(&frame, names, Some(&mut timer)).unwrap();
        assert!(timer.total(Step::TransformFormat) > std::time::Duration::ZERO);
    }

    #[test]
    fn gbdt_scores_beat_chance_on_train() {
        let frame = small_world();
        let ex = quick_extractor(&frame);
        let probs = ex.gbdt().predict_proba_batch(frame.feature_matrix());
        let auc = lightmirm_metrics::auc(&probs, &frame.label).unwrap();
        assert!(auc > 0.7, "GBDT train AUC {auc}");
    }
}
