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
//! builds a leaf's histograms four features per pass over its rows
//! instead (the crate-private `GroupAccumulator`), and the root's bin by
//! bin over the dataset's grouped rows (`build_by_bins`). Every bin still
//! adds its rows in ascending row order, so all three produce the same
//! bits.

use crate::binning::{BinRows, BLOCK_ROWS};

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
    /// pass, written over `out` (feature `k`'s codes are `codes[k]`, its
    /// bin count `out[k]`'s). `gh[i]` is the (gradient, hessian) pair of
    /// row `rows[i]`.
    ///
    /// Every code must be below its feature's bin count, as
    /// [`crate::BinnedDataset`] guarantees. Each bin sums its rows in
    /// `rows` order, exactly as [`FeatureHistogram::build`] does, so the
    /// result is bit-identical to building each feature alone.
    pub(crate) fn fill(
        &mut self,
        codes: &[&[u8]],
        rows: &[u32],
        gh: &[(f64, f64)],
        out: &mut [FeatureHistogram],
    ) {
        debug_assert_eq!(rows.len(), gh.len());
        debug_assert_eq!(codes.len(), out.len());
        match *codes {
            [a] => self.accumulate([a], rows, gh),
            [a, b] => self.accumulate([a, b], rows, gh),
            [a, b, c] => self.accumulate([a, b, c], rows, gh),
            [a, b, c, d] => self.accumulate([a, b, c, d], rows, gh),
            _ => panic!("a group holds 1..={GROUP} features, got {}", codes.len()),
        }
        for (hist, acc) in out.iter_mut().zip(self.slots.iter_mut()) {
            let used = &mut acc[..hist.bins.len()];
            hist.bins.copy_from_slice(used);
            used.fill(BinStats::default());
            debug_assert!(
                acc[hist.bins.len()..].iter().all(|s| s.count == 0),
                "bin code at or above n_bins"
            );
        }
    }

    /// [`GroupAccumulator::fill`] into fresh histograms; `columns[k]` is a
    /// feature's code column and its bin count.
    #[cfg(test)]
    pub(crate) fn build(
        &mut self,
        columns: &[(&[u8], usize)],
        rows: &[u32],
        gh: &[(f64, f64)],
    ) -> Vec<FeatureHistogram> {
        let codes: Vec<&[u8]> = columns.iter().map(|&(c, _)| c).collect();
        let mut out: Vec<FeatureHistogram> = columns
            .iter()
            .map(|&(_, n_bins)| FeatureHistogram::zeros(n_bins))
            .collect();
        self.fill(&codes, rows, gh, &mut out);
        out
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

/// Bins whose sums [`build_by_bins`] runs at once, so that their add
/// chains overlap.
const LANES: usize = 4;

/// One bin's running sum in [`build_by_bins`].
#[derive(Clone, Copy)]
struct Lane<'a> {
    /// The feature (index into the run) and bin being summed; `None` when
    /// the lane is idle.
    chain: Option<(usize, usize)>,
    /// The bin's next block to read.
    block: usize,
    /// The unread rows of the current block, and that block's first row.
    rest: &'a [u16],
    base: usize,
    grad: f64,
    hess: f64,
}

impl<'a> Lane<'a> {
    const IDLE: Lane<'static> = Lane {
        chain: None,
        block: 0,
        rest: &[],
        base: 0,
        grad: 0.0,
        hess: 0.0,
    };

    /// Until the lane has rows to sum: move on to its bin's next block,
    /// or write its finished bin to `out` and take the next bin from
    /// `queue`. The lane stays idle once `queue` is empty.
    // Four calls a round; left out of line, they were a measurable share
    // of the pass.
    #[inline(always)]
    fn settle(
        &mut self,
        rows: &'a [BinRows],
        queue: &mut impl Iterator<Item = (usize, usize)>,
        out: &mut [FeatureHistogram],
    ) {
        while self.rest.is_empty() {
            match self.chain {
                Some((f, b)) if self.block < rows[f].n_blocks() => {
                    self.rest = rows[f].segment(b, self.block);
                    self.base = self.block * BLOCK_ROWS;
                    self.block += 1;
                }
                Some((f, b)) => {
                    out[f].bins[b] = BinStats {
                        grad: self.grad,
                        hess: self.hess,
                        count: rows[f].bin_len(b) as u32,
                    };
                    *self = Lane::IDLE;
                }
                None => match queue.next() {
                    Some(chain) => self.chain = Some(chain),
                    None => return,
                },
            }
        }
    }
}

/// The histograms of a run of features over every row, summed bin by bin.
///
/// `rows[i]` holds feature `i`'s rows grouped by bin, and its histogram is
/// written over `out[i]`; `pairs[r]` is row `r`'s (gradient, hessian)
/// pair.
///
/// Each bin adds its rows' pairs in ascending row order starting from
/// 0.0: the additions [`FeatureHistogram::build`] makes over all rows, in
/// the same order, so the bits are the same. But the running sums stay in
/// registers instead of making a read-modify-write through memory per
/// row. [`LANES`] bins are summed in lockstep for as many rows as the
/// shortest has left in its block; a lane whose bin runs out takes the
/// run's next bin, and the last few bins finish one at a time.
pub(crate) fn build_by_bins(rows: &[BinRows], pairs: &[(f64, f64)], out: &mut [FeatureHistogram]) {
    debug_assert_eq!(rows.len(), out.len());
    let mut queue = rows
        .iter()
        .enumerate()
        .flat_map(|(f, r)| (0..r.n_bins()).map(move |b| (f, b)));
    let mut lanes = [Lane::IDLE; LANES];
    loop {
        for lane in &mut lanes {
            lane.settle(rows, &mut queue, out);
        }
        if lanes.iter().any(|lane| lane.chain.is_none()) {
            break;
        }
        let steps = lanes.iter().map(|lane| lane.rest.len()).min().unwrap_or(0);
        let [a, b, c, d] = &mut lanes;
        let (ra, rb, rc, rd) = (
            &a.rest[..steps],
            &b.rest[..steps],
            &c.rest[..steps],
            &d.rest[..steps],
        );
        let (pa, pb, pc, pd) = (
            &pairs[a.base..],
            &pairs[b.base..],
            &pairs[c.base..],
            &pairs[d.base..],
        );
        let (mut sa, mut sb, mut sc, mut sd) = (
            (a.grad, a.hess),
            (b.grad, b.hess),
            (c.grad, c.hess),
            (d.grad, d.hess),
        );
        for i in 0..steps {
            let (ga, ha) = pa[usize::from(ra[i])];
            let (gb, hb) = pb[usize::from(rb[i])];
            let (gc, hc) = pc[usize::from(rc[i])];
            let (gd, hd) = pd[usize::from(rd[i])];
            sa = (sa.0 + ga, sa.1 + ha);
            sb = (sb.0 + gb, sb.1 + hb);
            sc = (sc.0 + gc, sc.1 + hc);
            sd = (sd.0 + gd, sd.1 + hd);
        }
        for (lane, (grad, hess)) in [a, b, c, d].into_iter().zip([sa, sb, sc, sd]) {
            lane.rest = &lane.rest[steps..];
            lane.grad = grad;
            lane.hess = hess;
        }
    }
    // The queue is empty: finish the bins still in lanes one at a time.
    for lane in &mut lanes {
        while lane.chain.is_some() {
            for &offset in lane.rest {
                let (g, h) = pairs[lane.base + usize::from(offset)];
                lane.grad += g;
                lane.hess += h;
            }
            lane.rest = &[];
            lane.settle(rows, &mut queue, out);
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
/// are skipped: the scan computes no gain until the left side holds that
/// many rows, and stops at the first bin whose right side holds fewer,
/// because left counts only grow. Of equal gains the first bin wins.
/// Returns `None` when no split beats `min_gain`.
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
    let mut best_gain = min_gain;
    let mut best: Option<(usize, u32)> = None;
    // Splitting after the last bin sends everything left; skip it.
    for (b, stats) in hist.bins().iter().enumerate().take(hist.bins().len() - 1) {
        left.grad += stats.grad;
        left.hess += stats.hess;
        left.count += stats.count;
        if left.count < min_data_in_leaf {
            continue;
        }
        if totals.count - left.count < min_data_in_leaf {
            break;
        }
        let right_grad = totals.grad - left.grad;
        let right_hess = totals.hess - left.hess;
        let gain = leaf_score(left.grad, left.hess, lambda)
            + leaf_score(right_grad, right_hess, lambda)
            - parent;
        if gain > best_gain {
            best_gain = gain;
            best = Some((b, left.count));
        }
    }
    best.map(|(b, left_count)| SplitCandidate {
        feature,
        threshold_bin: b as u8,
        gain: best_gain,
        left_count,
        right_count: totals.count - left_count,
    })
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

    /// Bin-by-bin root histograms of every feature of `data`, written
    /// over histograms filled with garbage first.
    fn root_by_bins(
        data: &crate::BinnedDataset,
        grads: &[f64],
        hess: &[f64],
    ) -> Vec<FeatureHistogram> {
        let garbage = BinStats {
            grad: f64::NAN,
            hess: -7.0,
            count: 99,
        };
        let mut out: Vec<FeatureHistogram> = (0..data.n_features())
            .map(|f| FeatureHistogram {
                bins: vec![garbage; data.mapper(f).n_bins()],
            })
            .collect();
        let pairs: Vec<(f64, f64)> = grads.iter().copied().zip(hess.iter().copied()).collect();
        build_by_bins(data.bin_rows(), &pairs, &mut out);
        out
    }

    /// `got` against the per-feature reference over every row, bit for bit.
    fn assert_matches_per_row_build(
        got: &[FeatureHistogram],
        data: &crate::BinnedDataset,
        grads: &[f64],
        hess: &[f64],
    ) {
        let all: Vec<u32> = (0..data.n_rows() as u32).collect();
        for (f, got) in got.iter().enumerate() {
            let n_bins = data.mapper(f).n_bins();
            let want = FeatureHistogram::build(data.feature_codes(f), &all, grads, hess, n_bins);
            assert_eq!(got.bins().len(), n_bins);
            for (b, (g, w)) in got.bins().iter().zip(want.bins()).enumerate() {
                assert_eq!(
                    g.grad.to_bits(),
                    w.grad.to_bits(),
                    "feature {f} bin {b} grad"
                );
                assert_eq!(
                    g.hess.to_bits(),
                    w.hess.to_bits(),
                    "feature {f} bin {b} hess"
                );
                assert_eq!(g.count, w.count, "feature {f} bin {b} count");
            }
        }
    }

    /// Row counts on both sides of a `u16` block: each bin's sum carries
    /// over from one block's rows to the next's, in row order.
    #[test]
    fn bin_by_bin_root_matches_per_row_build_across_row_blocks() {
        for n_rows in [
            BLOCK_ROWS - 17,
            BLOCK_ROWS,
            BLOCK_ROWS + 17,
            2 * BLOCK_ROWS + 17,
        ] {
            // Columns of 1, 5, 64 and 255 bins; gradients whose sums
            // round, so the order of additions shows in the bits.
            let feats: Vec<f32> = (0..n_rows)
                .flat_map(|r| {
                    let h = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    [
                        1.0,
                        (r % 5) as f32,
                        (h % 64) as f32,
                        ((h >> 8) % 255) as f32,
                    ]
                })
                .collect();
            let grads: Vec<f64> = (0..n_rows)
                .map(|r| ((r * 7919) % 1000) as f64 / 997.0 - 0.5)
                .collect();
            let hess: Vec<f64> = (0..n_rows)
                .map(|r| ((r * 104_729) % 1000) as f64 / 4093.0 + 1e-3)
                .collect();
            let data = crate::BinnedDataset::fit(&feats, 4, 255);
            assert_eq!(data.bin_rows()[0].n_blocks(), n_rows.div_ceil(BLOCK_ROWS));
            let got = root_by_bins(&data, &grads, &hess);
            assert_matches_per_row_build(&got, &data, &grads, &hess);
        }
    }

    /// The split scan as it was before it stopped at the size bound: every
    /// bin but the last, a gain computed wherever both sides hold
    /// `min_data_in_leaf` rows, the first strictly greater gain above
    /// `min_gain` kept.
    fn reference_best_split(
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

            /// The bounded scan against the full one. Integer gradients and
            /// quarter hessians keep every sum exact; `mirror` appends the
            /// bins reversed with negated gradients, so thresholds tie with
            /// their reflections; `min_gain` is a quarter step, the best
            /// gain itself (a tie at `min_gain`), or below every gain; and
            /// `min_data_in_leaf` runs from 0 to above the leaf's rows.
            #[test]
            fn bounded_scan_matches_the_full_scan(
                mut bins in proptest::collection::vec((0u32..12, -6i8..=6, 0u8..8), 1..=40),
                (mirror, lambda_quarters, min_share) in (0u8..2, 0u8..8, 0u32..=110),
                (gain_mode, min_gain_quarters) in (0u8..3, 0u8..12),
            ) {
                if mirror == 1 {
                    let images: Vec<_> = bins.iter().rev().map(|&(n, g, h)| (n, -g, h)).collect();
                    bins.extend(images);
                }
                let hist = FeatureHistogram {
                    bins: bins
                        .iter()
                        .map(|&(count, g, h)| BinStats {
                            grad: f64::from(g) * f64::from(count),
                            hess: f64::from(h) / 4.0 * f64::from(count),
                            count,
                        })
                        .collect(),
                };
                let total = hist.totals().count;
                let min_data_in_leaf = total * min_share / 100 + u32::from(min_share > 100);
                let lambda = f64::from(lambda_quarters) / 4.0;
                let min_gain = match gain_mode {
                    0 => f64::from(min_gain_quarters) / 4.0,
                    1 => reference_best_split(&hist, 0, lambda, min_data_in_leaf, f64::NEG_INFINITY)
                        .map_or(0.0, |s| s.gain),
                    _ => -1e300,
                };
                let got = best_split(&hist, 5, lambda, min_data_in_leaf, min_gain);
                let want = reference_best_split(&hist, 5, lambda, min_data_in_leaf, min_gain);
                prop_assert_eq!(got.map(|s| s.gain.to_bits()), want.map(|s| s.gain.to_bits()));
                prop_assert_eq!(got, want);
            }

            /// The bin-by-bin root pass against the per-feature reference
            /// over every row, bit for bit: 1–9 features of 1–255 bins
            /// (so the lanes refill across features and finish a tail),
            /// 0–400 rows, written over garbage.
            #[test]
            fn bin_by_bin_root_matches_per_row_build_bitwise(
                n_bins in proptest::collection::vec(1usize..=255, 1..=9),
                raw in proptest::collection::vec(
                    (proptest::collection::vec(0u16..=u16::MAX, 9), -1e3f64..1e3, 0.0f64..0.25),
                    0..400,
                ),
            ) {
                let n_features = n_bins.len();
                let feats: Vec<f32> = raw
                    .iter()
                    .flat_map(|row| n_bins.iter().zip(&row.0).map(|(&n, &x)| f32::from(x % n as u16)))
                    .collect();
                let grads: Vec<f64> = raw.iter().map(|row| row.1).collect();
                let hess: Vec<f64> = raw.iter().map(|row| row.2 + 1e-16).collect();
                let data = crate::BinnedDataset::fit(&feats, n_features, 255);
                let got = root_by_bins(&data, &grads, &hess);
                assert_matches_per_row_build(&got, &data, &grads, &hess);
            }
        }
    }
}
