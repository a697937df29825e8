//! ROC curves.
//!
//! The paper's online FPR vs. bad-debt trade-off (Fig. 5) is computed by
//! `lightmirm_core::online::replay`, not here.

use crate::{validate, MetricError};

/// One point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct RocPoint {
    /// Decision threshold: predict default when `score >= threshold`.
    pub threshold: f64,
    /// True positive rate (defaults correctly flagged).
    pub tpr: f64,
    /// False positive rate (good loans incorrectly flagged).
    pub fpr: f64,
}

/// Compute the ROC curve at every distinct score threshold, descending.
///
/// The returned curve always starts at `(fpr=0, tpr=0)` (threshold above
/// the maximum score) and ends at `(1, 1)`.
///
/// # Errors
///
/// Returns [`MetricError`] under the same conditions as [`crate::auc`].
pub fn roc_curve(scores: &[f64], labels: &[u8]) -> Result<Vec<RocPoint>, MetricError> {
    validate(scores, labels)?;
    let n = scores.len();
    let mut idx: Vec<u32> = (0..n as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("NaN scores rejected by validate")
    });
    let n_pos = labels.iter().filter(|&&y| y != 0).count() as f64;
    let n_neg = n as f64 - n_pos;

    let mut curve = Vec::with_capacity(n + 1);
    curve.push(RocPoint {
        threshold: f64::INFINITY,
        tpr: 0.0,
        fpr: 0.0,
    });
    let mut tp = 0.0f64;
    let mut fp = 0.0f64;
    let mut i = 0usize;
    while i < n {
        let s = scores[idx[i] as usize];
        let mut j = i;
        loop {
            if labels[idx[j] as usize] != 0 {
                tp += 1.0;
            } else {
                fp += 1.0;
            }
            if j + 1 < n && scores[idx[j + 1] as usize] == s {
                j += 1;
            } else {
                break;
            }
        }
        curve.push(RocPoint {
            threshold: s,
            tpr: tp / n_pos,
            fpr: fp / n_neg,
        });
        i = j + 1;
    }
    Ok(curve)
}

/// AUC computed by trapezoidal integration of the ROC curve.
///
/// Provided as an independent cross-check of [`crate::auc`]; the two agree
/// to floating-point precision (a unit test asserts this).
pub fn auc_trapezoid(scores: &[f64], labels: &[u8]) -> Result<f64, MetricError> {
    let curve = roc_curve(scores, labels)?;
    let mut area = 0.0;
    for w in curve.windows(2) {
        area += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
    }
    Ok(area)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auc;

    #[test]
    fn roc_endpoints() {
        let scores = [0.1, 0.4, 0.35, 0.8];
        let labels = [0, 0, 1, 1];
        let curve = roc_curve(&scores, &labels).unwrap();
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert_eq!((first.tpr, first.fpr), (0.0, 0.0));
        assert_eq!((last.tpr, last.fpr), (1.0, 1.0));
    }

    #[test]
    fn roc_is_monotone() {
        let scores = [0.1, 0.4, 0.35, 0.8, 0.5, 0.5, 0.2];
        let labels = [0, 0, 1, 1, 0, 1, 1];
        let curve = roc_curve(&scores, &labels).unwrap();
        for w in curve.windows(2) {
            assert!(w[1].tpr >= w[0].tpr);
            assert!(w[1].fpr >= w[0].fpr);
        }
    }

    #[test]
    fn trapezoid_auc_matches_rank_auc() {
        let scores = [0.1, 0.4, 0.35, 0.8, 0.5, 0.5, 0.2, 0.9, 0.05];
        let labels = [0, 0, 1, 1, 0, 1, 1, 0, 0];
        let a = auc(&scores, &labels).unwrap();
        let b = auc_trapezoid(&scores, &labels).unwrap();
        assert!((a - b).abs() < 1e-12, "rank {a} vs trapezoid {b}");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn scored_labels() -> impl Strategy<Value = (Vec<f64>, Vec<u8>)> {
            proptest::collection::vec((0u8..=10, 0u8..=1), 2..50)
                .prop_filter("need both classes", |v| {
                    v.iter().any(|&(_, y)| y == 1) && v.iter().any(|&(_, y)| y == 0)
                })
                .prop_map(|v| {
                    (
                        v.iter().map(|&(s, _)| s as f64 / 10.0).collect(),
                        v.iter().map(|&(_, y)| y).collect(),
                    )
                })
        }

        proptest! {
            #[test]
            fn trapezoid_equals_rank_auc((scores, labels) in scored_labels()) {
                let a = auc(&scores, &labels).unwrap();
                let b = auc_trapezoid(&scores, &labels).unwrap();
                prop_assert!((a - b).abs() < 1e-10);
            }
        }
    }
}
