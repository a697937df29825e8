//! Prediction explanations — the paper's §II-B argument for the GBDT+LR
//! architecture is that it stays explainable and auditable, and lending
//! regulations require *reason codes* for adverse decisions.
//!
//! The decomposition is exact: the LR logit is a sum of one weight per
//! tree (`z = Σ_t θ[leaf_t]`), and each leaf is reached through a
//! root-to-leaf path of raw-feature comparisons. Attributing each tree's
//! weight to the raw features on its path yields an additive,
//! faithful-by-construction explanation of the score.

use lightmirm_gbdt::{Gbdt, Tree};

use crate::lr::{sigmoid, LrModel};

/// One tree's contribution to a score.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TreeContribution {
    /// Tree index.
    pub tree: usize,
    /// Global leaf index (the LR column).
    pub leaf: u32,
    /// LR weight of that leaf — the tree's additive logit contribution.
    pub weight: f64,
    /// Raw features compared on the root-to-leaf path, in path order
    /// (deduplicated, order of first use).
    pub path_features: Vec<u32>,
}

/// An additive explanation of one prediction.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Explanation {
    /// The predicted default probability.
    pub probability: f64,
    /// The logit being decomposed (`Σ contributions.weight`).
    pub logit: f64,
    /// Per-tree contributions, sorted by descending |weight|.
    pub contributions: Vec<TreeContribution>,
    /// Per-raw-feature attribution: each tree's weight split equally over
    /// its path features, summed across trees. Length = raw feature count.
    pub feature_attribution: Vec<f64>,
}

impl Explanation {
    /// The `k` raw features pushing the score most toward default
    /// (largest positive attribution) — the adverse-action reason codes.
    pub fn top_risk_features(&self, k: usize) -> Vec<(u32, f64)> {
        let mut ranked: Vec<(u32, f64)> = self
            .feature_attribution
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a > 0.0)
            .map(|(f, &a)| (f as u32, a))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("attributions are finite"));
        ranked.truncate(k);
        ranked
    }
}

/// Collect the raw features compared on the root-to-leaf path of `row`.
fn path_features(tree: &Tree, row: &[f32]) -> Vec<u32> {
    let mut features = Vec::new();
    tree.route_with(row, |feature| {
        if !features.contains(&feature) {
            features.push(feature);
        }
    });
    features
}

/// Explain one raw feature row under a GBDT extractor and LR head.
///
/// # Panics
///
/// Panics if the head's dimension does not match the extractor's leaf
/// count, or the row width does not match the extractor.
pub fn explain_row(gbdt: &Gbdt, head: &LrModel, row: &[f32]) -> Explanation {
    assert_eq!(
        head.weights.len(),
        gbdt.total_leaves(),
        "head dimension must match the extractor"
    );
    let mut leaf_buf = Vec::new();
    gbdt.transform_row(row, &mut leaf_buf);

    let mut contributions = Vec::with_capacity(leaf_buf.len());
    let mut attribution = vec![0.0f64; gbdt.n_features()];
    let mut logit = 0.0;
    for (t, &leaf) in leaf_buf.iter().enumerate() {
        let weight = head.weights[leaf as usize];
        logit += weight;
        let path = path_features(gbdt.tree(t), row);
        if !path.is_empty() {
            let share = weight / path.len() as f64;
            for &f in &path {
                attribution[f as usize] += share;
            }
        }
        contributions.push(TreeContribution {
            tree: t,
            leaf,
            weight,
            path_features: path,
        });
    }
    contributions.sort_by(|a, b| {
        b.weight
            .abs()
            .partial_cmp(&a.weight.abs())
            .expect("weights are finite")
    });
    Explanation {
        probability: sigmoid(logit),
        logit,
        contributions,
        feature_attribution: attribution,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightmirm_gbdt::{GbdtConfig, GrowConfig};

    /// Feature 0 drives the label; feature 1 is constant noise.
    fn fitted_parts() -> (Gbdt, LrModel, Vec<f32>) {
        let n = 600;
        let mut feats = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let x = (i % 100) as f32 / 100.0;
            feats.extend_from_slice(&[x, 1.0]);
            labels.push((x > 0.5) as u8);
        }
        let gbdt = Gbdt::fit(
            &feats,
            2,
            &labels,
            &GbdtConfig {
                n_trees: 6,
                learning_rate: 0.3,
                max_bins: 32,
                grow: GrowConfig {
                    max_leaves: 4,
                    min_data_in_leaf: 10,
                    lambda_l2: 1.0,
                    min_gain: 1e-6,
                },
            },
        )
        .expect("fits");
        // A hand-made head: weight = +1 for leaves whose one-hot column is
        // even, −1 otherwise (arbitrary but fixed).
        let head = LrModel {
            weights: (0..gbdt.total_leaves())
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect(),
        };
        (gbdt, head, feats)
    }

    #[test]
    fn decomposition_is_exact() {
        let (gbdt, head, feats) = fitted_parts();
        for row in feats.chunks_exact(2).take(30) {
            let ex = explain_row(&gbdt, &head, row);
            let sum: f64 = ex.contributions.iter().map(|c| c.weight).sum();
            assert!((ex.logit - sum).abs() < 1e-12);
            assert!((ex.probability - sigmoid(ex.logit)).abs() < 1e-12);
            // And matches direct scoring through the head.
            let mut leaves = Vec::new();
            gbdt.transform_row(row, &mut leaves);
            let direct: f64 = leaves.iter().map(|&l| head.weights[l as usize]).sum();
            assert!((ex.logit - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn attribution_concentrates_on_the_informative_feature() {
        let (gbdt, head, feats) = fitted_parts();
        let ex = explain_row(&gbdt, &head, &feats[0..2]);
        // Splits only ever use feature 0 (feature 1 is constant), so all
        // attribution mass sits there.
        assert_eq!(ex.feature_attribution[1], 0.0);
        let total: f64 = ex.feature_attribution.iter().sum();
        assert!((total - ex.logit).abs() < 1e-9);
    }

    #[test]
    fn attribution_mass_conserves_the_logit() {
        let (gbdt, head, feats) = fitted_parts();
        for row in feats.chunks_exact(2).take(10) {
            let ex = explain_row(&gbdt, &head, row);
            // Stump trees (no splits) contribute weight without a path;
            // all non-stump weight must land in the attribution vector.
            let pathless: f64 = ex
                .contributions
                .iter()
                .filter(|c| c.path_features.is_empty())
                .map(|c| c.weight)
                .sum();
            let attributed: f64 = ex.feature_attribution.iter().sum();
            assert!((attributed + pathless - ex.logit).abs() < 1e-9);
        }
    }

    #[test]
    fn top_risk_features_are_positive_and_sorted() {
        let (gbdt, head, feats) = fitted_parts();
        let ex = explain_row(&gbdt, &head, &feats[0..2]);
        let top = ex.top_risk_features(5);
        for w in top.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        for (_, a) in &top {
            assert!(*a > 0.0);
        }
    }

    #[test]
    fn contributions_sorted_by_magnitude() {
        let (gbdt, head, feats) = fitted_parts();
        let ex = explain_row(&gbdt, &head, &feats[4..6]);
        for w in ex.contributions.windows(2) {
            assert!(w[0].weight.abs() >= w[1].weight.abs());
        }
    }
}
