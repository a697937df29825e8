//! Per-environment fairness reports: the paper's `mKS` / `wKS` / `mAUC` /
//! `wAUC` summary.
//!
//! The paper evaluates every method per province and reports the mean
//! metric (overall performance) and the worst metric (minimax fairness).
//! [`EnvReport`] computes both from per-environment score/label slices.

use crate::{auc, ks, MetricError};

/// Scores and labels for one environment (e.g. one province).
#[derive(Debug, Clone, Default)]
pub struct EnvScores {
    /// Environment name, e.g. `"Guangdong"`.
    pub name: String,
    /// Predicted default probabilities.
    pub scores: Vec<f64>,
    /// Ground-truth labels (1 = default).
    pub labels: Vec<u8>,
}

impl EnvScores {
    /// Create an environment bucket with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        EnvScores {
            name: name.into(),
            scores: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Append one scored sample.
    pub fn push(&mut self, score: f64, label: u8) {
        self.scores.push(score);
        self.labels.push(label);
    }

    /// Number of samples in this environment.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the bucket is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }
}

/// Per-environment metric values.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EnvReport {
    pub name: String,
    pub n: usize,
    pub auc: f64,
    pub ks: f64,
    /// Empirical default rate in this environment.
    pub default_rate: f64,
}

/// The paper's four headline numbers plus the per-environment breakdown.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FairnessSummary {
    /// Mean KS across environments (`mKS`).
    pub m_ks: f64,
    /// Worst (minimum) KS across environments (`wKS`).
    pub w_ks: f64,
    /// Mean AUC across environments (`mAUC`).
    pub m_auc: f64,
    /// Worst AUC across environments (`wAUC`).
    pub w_auc: f64,
    /// Name of the environment attaining `wKS`.
    pub worst_ks_env: String,
    /// Name of the environment attaining `wAUC`.
    pub worst_auc_env: String,
    /// Per-environment details, in input order.
    pub envs: Vec<EnvReport>,
}

impl FairnessSummary {
    /// Compute the summary over a set of environments.
    ///
    /// Environments that are empty or single-class (too small to score) are
    /// skipped with no error — mirroring how the paper drops provinces with
    /// insufficient test data — but at least one environment must be
    /// scorable.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::Empty`] when no environment is scorable, and
    /// propagates NaN-score errors.
    pub fn compute(envs: &[EnvScores]) -> Result<Self, MetricError> {
        let mut reports = Vec::new();
        for e in envs {
            match (auc(&e.scores, &e.labels), ks(&e.scores, &e.labels)) {
                (Ok(a), Ok(k)) => {
                    let pos = e.labels.iter().filter(|&&y| y != 0).count();
                    reports.push(EnvReport {
                        name: e.name.clone(),
                        n: e.len(),
                        auc: a,
                        ks: k,
                        default_rate: pos as f64 / e.len() as f64,
                    });
                }
                (Err(MetricError::NanScore { index }), _)
                | (_, Err(MetricError::NanScore { index })) => {
                    return Err(MetricError::NanScore { index });
                }
                // Empty / single-class environments are unscoreable; skip.
                _ => {}
            }
        }
        if reports.is_empty() {
            return Err(MetricError::Empty);
        }
        let n = reports.len() as f64;
        let m_ks = reports.iter().map(|r| r.ks).sum::<f64>() / n;
        let m_auc = reports.iter().map(|r| r.auc).sum::<f64>() / n;
        let worst_ks = reports
            .iter()
            .min_by(|a, b| a.ks.partial_cmp(&b.ks).expect("metrics are finite"))
            .expect("nonempty");
        let worst_auc = reports
            .iter()
            .min_by(|a, b| a.auc.partial_cmp(&b.auc).expect("metrics are finite"))
            .expect("nonempty");
        Ok(FairnessSummary {
            m_ks,
            w_ks: worst_ks.ks,
            m_auc,
            w_auc: worst_auc.auc,
            worst_ks_env: worst_ks.name.clone(),
            worst_auc_env: worst_auc.name.clone(),
            envs: reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(name: &str, scores: &[f64], labels: &[u8]) -> EnvScores {
        EnvScores {
            name: name.into(),
            scores: scores.to_vec(),
            labels: labels.to_vec(),
        }
    }

    #[test]
    fn summary_means_and_worsts() {
        // Env A: perfect separation (AUC 1, KS 1).
        // Env B: perfectly wrong (AUC 0, KS 1 -- CDFs still fully separate).
        let a = env("A", &[0.1, 0.9], &[0, 1]);
        let b = env("B", &[0.9, 0.1], &[0, 1]);
        let s = FairnessSummary::compute(&[a, b]).unwrap();
        assert!((s.m_auc - 0.5).abs() < 1e-12);
        assert_eq!(s.w_auc, 0.0);
        assert_eq!(s.worst_auc_env, "B");
        assert!((s.m_ks - 1.0).abs() < 1e-12);
        assert_eq!(s.w_ks, 1.0);
    }

    #[test]
    fn unscoreable_envs_are_skipped() {
        let good = env("A", &[0.1, 0.9], &[0, 1]);
        let single_class = env("B", &[0.5, 0.6], &[1, 1]);
        let empty = EnvScores::new("C");
        let s = FairnessSummary::compute(&[good, single_class, empty]).unwrap();
        assert_eq!(s.envs.len(), 1);
        assert_eq!(s.envs[0].name, "A");
    }

    #[test]
    fn all_unscoreable_is_an_error() {
        let single = env("B", &[0.5], &[1]);
        assert_eq!(
            FairnessSummary::compute(&[single]).unwrap_err(),
            MetricError::Empty
        );
    }

    #[test]
    fn nan_is_an_error_not_a_skip() {
        let bad = env("A", &[0.5, f64::NAN], &[0, 1]);
        assert!(matches!(
            FairnessSummary::compute(&[bad]).unwrap_err(),
            MetricError::NanScore { .. }
        ));
    }

    #[test]
    fn default_rate_reported() {
        let a = env("A", &[0.1, 0.9, 0.4, 0.8], &[0, 1, 0, 1]);
        let s = FairnessSummary::compute(&[a]).unwrap();
        assert!((s.envs[0].default_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn worst_is_min_over_envs() {
        let a = env("A", &[0.1, 0.9, 0.2, 0.8], &[0, 1, 0, 1]); // AUC 1
                                                                // B: pos scores {0.9, 0.2}, neg {0.1, 0.8} -> 3 of 4 pairs concordant.
        let b = env("B", &[0.1, 0.9, 0.8, 0.2], &[0, 1, 0, 1]); // AUC 0.75
        let s = FairnessSummary::compute(&[a, b]).unwrap();
        assert!((s.w_auc - 0.75).abs() < 1e-12);
        assert!((s.m_auc - 0.875).abs() < 1e-12);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn envs_strategy() -> impl Strategy<Value = Vec<EnvScores>> {
            proptest::collection::vec(
                proptest::collection::vec((0u8..=10, 0u8..=1), 2..30)
                    .prop_filter("both classes", |v| {
                        v.iter().any(|&(_, y)| y == 1) && v.iter().any(|&(_, y)| y == 0)
                    }),
                1..6,
            )
            .prop_map(|envs| {
                envs.into_iter()
                    .enumerate()
                    .map(|(i, rows)| EnvScores {
                        name: format!("env{i}"),
                        scores: rows.iter().map(|&(s, _)| s as f64 / 10.0).collect(),
                        labels: rows.iter().map(|&(_, y)| y).collect(),
                    })
                    .collect()
            })
        }

        proptest! {
            #[test]
            fn worst_le_mean(envs in envs_strategy()) {
                let s = FairnessSummary::compute(&envs).unwrap();
                prop_assert!(s.w_ks <= s.m_ks + 1e-12);
                prop_assert!(s.w_auc <= s.m_auc + 1e-12);
            }

            #[test]
            fn mean_is_between_extremes(envs in envs_strategy()) {
                let s = FairnessSummary::compute(&envs).unwrap();
                let max_ks = s.envs.iter().map(|r| r.ks).fold(f64::MIN, f64::max);
                prop_assert!(s.m_ks <= max_ks + 1e-12);
                prop_assert!(s.m_ks >= s.w_ks - 1e-12);
            }
        }
    }
}
