//! Gradient/hessian histograms and the subtraction trick.
//!
//! For each (leaf, feature) pair the grower accumulates, per bin, the sums
//! of gradients and hessians plus a count. The best split of a leaf is
//! found by a linear scan over bins. When a leaf splits, only the smaller
//! child's histogram is rebuilt from data; the larger child's is obtained
//! by subtracting the small child from the parent in place — halving
//! histogram construction cost, as in LightGBM.
//!
//! [`FeatureHistogram::build`] is the per-feature reference. The grower
//! builds four features per pass over a leaf's rows instead (the
//! crate-private `GroupAccumulator`); every bin still adds its rows in
//! leaf order, so both produce the same bits.

/// Per-bin accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BinStats {
    pub grad: f64,
    pub hess: f64,
    pub count: u32,
}

/// Histogram of one feature over the rows of one leaf.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureHistogram {
    bins: Vec<BinStats>,
}

impl FeatureHistogram {
    /// Zeroed histogram with `n_bins` slots.
    pub fn zeros(n_bins: usize) -> Self {
        FeatureHistogram {
            bins: vec![BinStats::default(); n_bins],
        }
    }

    /// Accumulate the rows in `rows` using the feature's bin codes.
    pub fn build(
        codes: &[u8],
        rows: &[u32],
        grads: &[f64],
        hessians: &[f64],
        n_bins: usize,
    ) -> Self {
        let mut h = Self::zeros(n_bins);
        for &r in rows {
            let r = r as usize;
            let b = codes[r] as usize;
            let slot = &mut h.bins[b];
            slot.grad += grads[r];
            slot.hess += hessians[r];
            slot.count += 1;
        }
        h
    }

    /// `self -= small`, in place: the subtraction trick that turns the
    /// parent's histogram into the larger child's.
    ///
    /// # Panics
    ///
    /// Panics if bin counts differ (histograms of different features).
    pub(crate) fn subtract(&mut self, small: &FeatureHistogram) {
        assert_eq!(self.bins.len(), small.bins.len(), "bin count mismatch");
        for (p, c) in self.bins.iter_mut().zip(&small.bins) {
            p.grad -= c.grad;
            p.hess -= c.hess;
            p.count -= c.count;
        }
    }

    /// Per-bin stats in bin order.
    pub fn bins(&self) -> &[BinStats] {
        &self.bins
    }

    /// Totals across all bins.
    pub fn totals(&self) -> BinStats {
        let mut t = BinStats::default();
        for b in &self.bins {
            t.grad += b.grad;
            t.hess += b.hess;
            t.count += b.count;
        }
        t
    }
}

/// Features whose histograms one pass over a leaf's rows builds: each
/// row's (gradient, hessian) pair is loaded once per group instead of
/// once per feature. Four beat both one and eight (register spills).
pub(crate) const GROUP: usize = 4;

/// Scratch for grouped histogram builds: one fixed 256-slot accumulator
/// per feature of a group, indexed by the `u8` bin code itself, so no bin
/// index is bounds-checked. Slots at or above a feature's bin count are
/// never touched and stay zero; the used slots are zeroed again when
/// they are copied out, so one accumulator serves any number of groups.
pub(crate) struct GroupAccumulator {
    slots: [[BinStats; 256]; GROUP],
}

impl GroupAccumulator {
    pub(crate) fn new() -> Self {
        GroupAccumulator {
            slots: [[BinStats::default(); 256]; GROUP],
        }
    }

    /// Histograms of up to [`GROUP`] features over the same rows, in one
    /// pass. `columns[k]` is a feature's code column and its bin count;
    /// `gh[i]` is the (gradient, hessian) pair of row `rows[i]`.
    ///
    /// Every code must be below its feature's bin count, as
    /// [`crate::BinnedDataset`] guarantees. Each bin sums its rows in
    /// `rows` order, exactly as [`FeatureHistogram::build`] does, so the
    /// result is bit-identical to building each feature alone.
    pub(crate) fn build(
        &mut self,
        columns: &[(&[u8], usize)],
        rows: &[u32],
        gh: &[(f64, f64)],
    ) -> Vec<FeatureHistogram> {
        debug_assert_eq!(rows.len(), gh.len());
        let codes = |k: usize| columns[k].0;
        match columns.len() {
            1 => self.accumulate([codes(0)], rows, gh),
            2 => self.accumulate([codes(0), codes(1)], rows, gh),
            3 => self.accumulate([codes(0), codes(1), codes(2)], rows, gh),
            4 => self.accumulate([codes(0), codes(1), codes(2), codes(3)], rows, gh),
            n => panic!("a group holds 1..={GROUP} features, got {n}"),
        }
        columns
            .iter()
            .zip(self.slots.iter_mut())
            .map(|(&(_, n_bins), acc)| {
                let used = &mut acc[..n_bins];
                let bins = used.to_vec();
                used.fill(BinStats::default());
                debug_assert!(
                    acc[n_bins..].iter().all(|s| s.count == 0),
                    "bin code at or above n_bins"
                );
                FeatureHistogram { bins }
            })
            .collect()
    }

    fn accumulate<const N: usize>(&mut self, codes: [&[u8]; N], rows: &[u32], gh: &[(f64, f64)]) {
        for (&r, &(g, h)) in rows.iter().zip(gh) {
            let r = r as usize;
            for (acc, col) in self.slots.iter_mut().zip(codes) {
                let slot = &mut acc[usize::from(col[r])];
                slot.grad += g;
                slot.hess += h;
                slot.count += 1;
            }
        }
    }
}

/// A candidate split of one leaf.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    pub feature: u32,
    /// Go left when `bin <= threshold_bin`.
    pub threshold_bin: u8,
    pub gain: f64,
    pub left_count: u32,
    pub right_count: u32,
}

/// Leaf-score objective: `score(G, H) = G² / (H + λ)`.
fn leaf_score(grad: f64, hess: f64, lambda: f64) -> f64 {
    grad * grad / (hess + lambda)
}

/// Scan a histogram for the best split.
///
/// Gain is the standard second-order criterion
/// `score(G_L,H_L) + score(G_R,H_R) − score(G,H)` with L2 penalty
/// `lambda`. Splits leaving fewer than `min_data_in_leaf` rows on a side
/// are skipped. Returns `None` when no split beats `min_gain`.
pub fn best_split(
    hist: &FeatureHistogram,
    feature: u32,
    lambda: f64,
    min_data_in_leaf: u32,
    min_gain: f64,
) -> Option<SplitCandidate> {
    let totals = hist.totals();
    let parent = leaf_score(totals.grad, totals.hess, lambda);
    let mut left = BinStats::default();
    let mut best: Option<SplitCandidate> = None;
    // Splitting after the last bin sends everything left; skip it.
    for (b, stats) in hist.bins().iter().enumerate().take(hist.bins().len() - 1) {
        left.grad += stats.grad;
        left.hess += stats.hess;
        left.count += stats.count;
        let right_count = totals.count - left.count;
        if left.count < min_data_in_leaf || right_count < min_data_in_leaf {
            continue;
        }
        let right_grad = totals.grad - left.grad;
        let right_hess = totals.hess - left.hess;
        let gain = leaf_score(left.grad, left.hess, lambda)
            + leaf_score(right_grad, right_hess, lambda)
            - parent;
        if gain > min_gain && best.is_none_or(|c| gain > c.gain) {
            best = Some(SplitCandidate {
                feature,
                threshold_bin: b as u8,
                gain,
                left_count: left.count,
                right_count,
            });
        }
    }
    best
}

/// Optimal leaf value for the accumulated gradients: `-G / (H + λ)`.
pub fn leaf_value(grad: f64, hess: f64, lambda: f64) -> f64 {
    -grad / (hess + lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_accumulates_per_bin() {
        let codes = [0u8, 1, 1, 2];
        let rows = [0u32, 1, 2, 3];
        let grads = [1.0, 2.0, 3.0, 4.0];
        let hess = [0.1, 0.2, 0.3, 0.4];
        let h = FeatureHistogram::build(&codes, &rows, &grads, &hess, 3);
        assert_eq!(
            h.bins()[0],
            BinStats {
                grad: 1.0,
                hess: 0.1,
                count: 1
            }
        );
        assert_eq!(
            h.bins()[1],
            BinStats {
                grad: 5.0,
                hess: 0.5,
                count: 2
            }
        );
        assert_eq!(
            h.bins()[2],
            BinStats {
                grad: 4.0,
                hess: 0.4,
                count: 1
            }
        );
    }

    #[test]
    fn build_respects_row_subset() {
        let codes = [0u8, 1, 1, 2];
        let grads = [1.0, 2.0, 3.0, 4.0];
        let hess = [1.0; 4];
        let h = FeatureHistogram::build(&codes, &[1, 3], &grads, &hess, 3);
        assert_eq!(h.totals().count, 2);
        assert_eq!(h.bins()[0].count, 0);
    }

    #[test]
    fn subtraction_recovers_sibling() {
        let codes = [0u8, 1, 0, 2, 1, 2];
        let grads = [1.0, -1.0, 2.0, 0.5, 1.5, -0.5];
        let hess = [0.2; 6];
        let all_rows: Vec<u32> = (0..6).collect();
        let parent = FeatureHistogram::build(&codes, &all_rows, &grads, &hess, 3);
        let left = FeatureHistogram::build(&codes, &[0, 2, 4], &grads, &hess, 3);
        let right_direct = FeatureHistogram::build(&codes, &[1, 3, 5], &grads, &hess, 3);
        let mut right_sub = parent;
        right_sub.subtract(&left);
        for (a, b) in right_sub.bins().iter().zip(right_direct.bins()) {
            assert!((a.grad - b.grad).abs() < 1e-12);
            assert!((a.hess - b.hess).abs() < 1e-12);
            assert_eq!(a.count, b.count);
        }
    }

    #[test]
    fn best_split_finds_clean_cut() {
        // Bin 0: all negative gradients; bin 1: all positive. The obvious
        // split is after bin 0.
        let mut h = FeatureHistogram::zeros(2);
        h.bins[0] = BinStats {
            grad: -10.0,
            hess: 5.0,
            count: 50,
        };
        h.bins[1] = BinStats {
            grad: 10.0,
            hess: 5.0,
            count: 50,
        };
        let s = best_split(&h, 3, 1.0, 1, 0.0).unwrap();
        assert_eq!(s.feature, 3);
        assert_eq!(s.threshold_bin, 0);
        assert!(s.gain > 0.0);
        assert_eq!(s.left_count, 50);
        assert_eq!(s.right_count, 50);
    }

    #[test]
    fn best_split_rejects_small_leaves() {
        let mut h = FeatureHistogram::zeros(2);
        h.bins[0] = BinStats {
            grad: -10.0,
            hess: 5.0,
            count: 3,
        };
        h.bins[1] = BinStats {
            grad: 10.0,
            hess: 5.0,
            count: 50,
        };
        assert!(best_split(&h, 0, 1.0, 5, 0.0).is_none());
    }

    #[test]
    fn best_split_requires_min_gain() {
        let mut h = FeatureHistogram::zeros(2);
        // Homogeneous gradients: zero gain split.
        h.bins[0] = BinStats {
            grad: 5.0,
            hess: 5.0,
            count: 50,
        };
        h.bins[1] = BinStats {
            grad: 5.0,
            hess: 5.0,
            count: 50,
        };
        assert!(best_split(&h, 0, 1.0, 1, 1e-6).is_none());
    }

    #[test]
    fn best_split_none_for_single_bin() {
        let h = FeatureHistogram::zeros(1);
        assert!(best_split(&h, 0, 1.0, 1, 0.0).is_none());
    }

    #[test]
    fn leaf_value_is_newton_step() {
        assert!((leaf_value(-4.0, 3.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((leaf_value(4.0, 3.0, 1.0) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn subtraction_rejects_mismatched_width() {
        let mut a = FeatureHistogram::zeros(2);
        let b = FeatureHistogram::zeros(3);
        a.subtract(&b);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn gain_is_nonnegative_when_reported(
                grads in proptest::collection::vec(-5.0f64..5.0, 8..64),
            ) {
                let n = grads.len();
                let codes: Vec<u8> = (0..n).map(|i| (i % 8) as u8).collect();
                let hess: Vec<f64> = vec![0.25; n];
                let rows: Vec<u32> = (0..n as u32).collect();
                let h = FeatureHistogram::build(&codes, &rows, &grads, &hess, 8);
                if let Some(s) = best_split(&h, 0, 1.0, 1, 0.0) {
                    prop_assert!(s.gain >= 0.0);
                    prop_assert_eq!(s.left_count + s.right_count, n as u32);
                }
            }

            #[test]
            fn totals_match_direct_sums(
                grads in proptest::collection::vec(-5.0f64..5.0, 1..64),
            ) {
                let n = grads.len();
                let codes: Vec<u8> = (0..n).map(|i| (i % 4) as u8).collect();
                let hess: Vec<f64> = grads.iter().map(|g| g.abs() + 0.1).collect();
                let rows: Vec<u32> = (0..n as u32).collect();
                let h = FeatureHistogram::build(&codes, &rows, &grads, &hess, 4);
                let t = h.totals();
                prop_assert!((t.grad - grads.iter().sum::<f64>()).abs() < 1e-9);
                prop_assert!((t.hess - hess.iter().sum::<f64>()).abs() < 1e-9);
                prop_assert_eq!(t.count as usize, n);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The grouped pass against the per-feature reference, bit for
            /// bit: bin counts 1..=255, feature counts that are and are not
            /// multiples of the group width, and ascending row subsets —
            /// every row, none, or the rows flagged in `raw`.
            #[test]
            fn grouped_build_matches_per_feature_build_bitwise(
                n_bins in proptest::collection::vec(1usize..=255, 1..=11),
                raw in proptest::collection::vec(
                    (proptest::collection::vec(0u8..=255, 11), -1e3f64..1e3, 0.0f64..0.25, 0u8..2),
                    0..300,
                ),
                subset in 0u8..3,
            ) {
                let columns: Vec<Vec<u8>> = n_bins
                    .iter()
                    .enumerate()
                    .map(|(f, &n)| raw.iter().map(|row| (usize::from(row.0[f]) % n) as u8).collect())
                    .collect();
                let grads: Vec<f64> = raw.iter().map(|row| row.1).collect();
                let hess: Vec<f64> = raw.iter().map(|row| row.2 + 1e-16).collect();
                let rows: Vec<u32> = (0..raw.len() as u32)
                    .filter(|&r| match subset {
                        0 => true,
                        1 => false,
                        _ => raw[r as usize].3 == 1,
                    })
                    .collect();
                let gh: Vec<(f64, f64)> = rows
                    .iter()
                    .map(|&r| (grads[r as usize], hess[r as usize]))
                    .collect();
                let refs: Vec<(&[u8], usize)> = columns
                    .iter()
                    .zip(&n_bins)
                    .map(|(c, &n)| (c.as_slice(), n))
                    .collect();
                let mut acc = GroupAccumulator::new();
                let grouped: Vec<FeatureHistogram> = refs
                    .chunks(GROUP)
                    .flat_map(|group| acc.build(group, &rows, &gh))
                    .collect();
                prop_assert_eq!(grouped.len(), n_bins.len());
                for ((codes, &n), got) in columns.iter().zip(&n_bins).zip(&grouped) {
                    let want = FeatureHistogram::build(codes, &rows, &grads, &hess, n);
                    prop_assert_eq!(got.bins().len(), n);
                    for (g, w) in got.bins().iter().zip(want.bins()) {
                        prop_assert_eq!(g.grad.to_bits(), w.grad.to_bits());
                        prop_assert_eq!(g.hess.to_bits(), w.hess.to_bits());
                        prop_assert_eq!(g.count, w.count);
                    }
                }
            }
        }
    }
}
