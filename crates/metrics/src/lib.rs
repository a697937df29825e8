//! Evaluation metrics for loan default prediction.
//!
//! This crate implements the metrics used throughout the LightMIRM paper
//! (ICDE 2023):
//!
//! - [`auc`] — area under the ROC curve, computed from the rank statistic
//!   with proper tie handling (exactly the Mann–Whitney U estimator).
//! - [`ks`] — the two-sample Kolmogorov–Smirnov statistic between the score
//!   distributions of the positive and negative classes, the standard
//!   risk-ranking measure in credit scoring.
//! - [`roc`] — full ROC curves and a trapezoidal AUC that cross-checks
//!   [`auc`].
//! - [`report`] — per-environment fairness aggregation producing the
//!   paper's headline numbers `mKS`, `wKS`, `mAUC`, `wAUC`
//!   (mean and worst across environments).
//! - [`bootstrap`] — percentile bootstrap confidence intervals for AUC/KS.
//! - [`calibration`] — Brier score, reliability curves, and expected
//!   calibration error (the paper's fairness notion is calibration across
//!   groups).
//! - [`drift`] — the population stability index (PSI), the standard
//!   credit-risk monitor for the covariate shift the paper analyses.
//! - [`lift`] — Gini coefficient and decile lift/gain tables.
//!
//! All functions take plain `&[f64]` scores and `&[u8]` binary labels so
//! they are agnostic to the model that produced the scores.

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod calibration;
pub mod drift;
pub mod lift;
pub mod rank;
pub mod report;
pub mod roc;

pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use calibration::{brier_score, expected_calibration_error, reliability_curve, ReliabilityBin};
pub use drift::{psi, DriftLevel, PsiBucket, PsiReport};
pub use lift::{gini, lift_table, LiftBucket};
pub use rank::{auc, ks, ks_curve};
pub use report::{EnvReport, EnvScores, FairnessSummary};
pub use roc::{roc_curve, RocPoint};

/// Errors produced by metric computations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricError {
    /// Scores and labels have different lengths.
    LengthMismatch { scores: usize, labels: usize },
    /// The input is empty.
    Empty,
    /// All labels belong to one class, so a discrimination metric is
    /// undefined.
    SingleClass,
    /// A score was NaN, which has no place in an ordering-based metric.
    NanScore { index: usize },
    /// A score was infinite; drift bucketing needs finite samples.
    NonFinite { index: usize },
    /// A bucketed metric was asked for fewer than two buckets.
    TooFewBuckets { n_buckets: usize },
}

impl std::fmt::Display for MetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricError::LengthMismatch { scores, labels } => write!(
                f,
                "scores ({scores}) and labels ({labels}) have different lengths"
            ),
            MetricError::Empty => write!(f, "empty input"),
            MetricError::SingleClass => {
                write!(f, "labels contain a single class; AUC/KS are undefined")
            }
            MetricError::NanScore { index } => write!(f, "score at index {index} is NaN"),
            MetricError::NonFinite { index } => {
                write!(f, "score at index {index} is not finite")
            }
            MetricError::TooFewBuckets { n_buckets } => {
                write!(f, "need at least two buckets, got {n_buckets}")
            }
        }
    }
}

impl std::error::Error for MetricError {}

pub(crate) fn validate(scores: &[f64], labels: &[u8]) -> Result<(), MetricError> {
    if scores.len() != labels.len() {
        return Err(MetricError::LengthMismatch {
            scores: scores.len(),
            labels: labels.len(),
        });
    }
    if scores.is_empty() {
        return Err(MetricError::Empty);
    }
    if let Some(index) = scores.iter().position(|s| s.is_nan()) {
        return Err(MetricError::NanScore { index });
    }
    let pos = labels.iter().filter(|&&y| y != 0).count();
    if pos == 0 || pos == labels.len() {
        return Err(MetricError::SingleClass);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_mismatch() {
        let err = validate(&[0.1, 0.2], &[1]).unwrap_err();
        assert_eq!(
            err,
            MetricError::LengthMismatch {
                scores: 2,
                labels: 1
            }
        );
    }

    #[test]
    fn validate_rejects_empty() {
        assert_eq!(validate(&[], &[]).unwrap_err(), MetricError::Empty);
    }

    #[test]
    fn validate_rejects_single_class() {
        assert_eq!(
            validate(&[0.1, 0.2], &[1, 1]).unwrap_err(),
            MetricError::SingleClass
        );
        assert_eq!(
            validate(&[0.1, 0.2], &[0, 0]).unwrap_err(),
            MetricError::SingleClass
        );
    }

    #[test]
    fn validate_rejects_nan() {
        assert_eq!(
            validate(&[0.1, f64::NAN], &[0, 1]).unwrap_err(),
            MetricError::NanScore { index: 1 }
        );
    }

    #[test]
    fn validate_accepts_good_input() {
        assert!(validate(&[0.1, 0.9], &[0, 1]).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let msg = MetricError::SingleClass.to_string();
        assert!(msg.contains("single class"));
        let msg = MetricError::NonFinite { index: 3 }.to_string();
        assert!(
            msg.contains("index 3") && msg.contains("not finite"),
            "{msg}"
        );
        let msg = MetricError::TooFewBuckets { n_buckets: 1 }.to_string();
        assert!(
            msg.contains("two buckets") && msg.contains("got 1"),
            "{msg}"
        );
    }
}
