//! Leaf-wise (best-first) tree growth over binned data.
//!
//! LightGBM's distinguishing growth strategy: instead of expanding level by
//! level, always split the leaf with the highest gain until `max_leaves`
//! leaves exist or no leaf has a positive-gain split. The root is always
//! the whole training set, and its histograms are summed bin by bin over
//! the dataset's grouped rows. Below it, the smaller child's histograms
//! are built from its rows, and the larger child's are the parent's with
//! the smaller child's subtracted in place (the subtraction trick). Every
//! build overwrites a histogram set recycled through a `HistogramPool`.

use crate::binning::BinnedDataset;
use crate::histogram::{
    best_split, build_by_bins, leaf_value, FeatureHistogram, GroupAccumulator, SplitCandidate,
    GROUP,
};
use crate::tree::{Node, Tree};
use rayon::prelude::*;

/// Structural hyper-parameters of a single tree.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GrowConfig {
    /// Maximum number of leaves per tree (LightGBM `num_leaves`).
    pub max_leaves: u32,
    /// Minimum rows per leaf.
    pub min_data_in_leaf: u32,
    /// L2 regularization λ on leaf values.
    pub lambda_l2: f64,
    /// Minimum gain for a split to be accepted.
    pub min_gain: f64,
}

impl Default for GrowConfig {
    fn default() -> Self {
        GrowConfig {
            max_leaves: 31,
            min_data_in_leaf: 20,
            lambda_l2: 1.0,
            min_gain: 1e-6,
        }
    }
}

/// A grown tree plus which training rows landed in each leaf — the boost
/// loop uses the assignment to update scores without re-routing.
#[derive(Debug)]
pub struct GrownTree {
    pub tree: Tree,
    /// `leaf_rows[leaf_index]` = training rows in that leaf.
    pub leaf_rows: Vec<Vec<u32>>,
    /// Total split gain attributed to each feature (importance).
    pub feature_gain: Vec<f64>,
}

struct WorkingLeaf {
    /// Slot in the provisional node array to patch when this leaf splits.
    node_slot: usize,
    rows: Vec<u32>,
    hists: Vec<FeatureHistogram>,
    best: Option<SplitCandidate>,
}

/// Histogram sets, one [`FeatureHistogram`] per feature, that finished
/// leaves hand back for later builds to overwrite: a fit allocates sets
/// only while its number of live leaves grows.
#[derive(Default)]
pub(crate) struct HistogramPool {
    free: Vec<Vec<FeatureHistogram>>,
}

impl HistogramPool {
    /// A set sized for `data`'s features; its sums are stale until a build
    /// overwrites them.
    fn take(&mut self, data: &BinnedDataset) -> Vec<FeatureHistogram> {
        self.free.pop().unwrap_or_else(|| {
            (0..data.n_features())
                .map(|f| FeatureHistogram::zeros(data.mapper(f).n_bins()))
                .collect()
        })
    }
}

/// Grow one tree against per-row gradients and hessians.
///
/// # Panics
///
/// Panics when `grads`/`hessians` lengths differ from the dataset rows.
pub fn grow_tree(
    data: &BinnedDataset,
    grads: &[f64],
    hessians: &[f64],
    config: &GrowConfig,
) -> GrownTree {
    grow(data, grads, hessians, config, &mut HistogramPool::default())
}

/// [`grow_tree`], taking its histogram sets from `pool` and returning them
/// there.
pub(crate) fn grow(
    data: &BinnedDataset,
    grads: &[f64],
    hessians: &[f64],
    config: &GrowConfig,
    pool: &mut HistogramPool,
) -> GrownTree {
    assert_eq!(grads.len(), data.n_rows(), "gradient length mismatch");
    assert_eq!(hessians.len(), data.n_rows(), "hessian length mismatch");
    assert!(config.max_leaves >= 1);

    let mut feature_gain = vec![0.0f64; data.n_features()];
    let mut root_hists = pool.take(data);
    root_histograms(data, grads, hessians, &mut root_hists);
    let root_best = scan_best(&root_hists, config);

    // Provisional flat tree; leaves are patched into splits as they grow.
    let mut nodes: Vec<Node> = vec![Node::Leaf {
        value: 0.0,
        index: u32::MAX,
    }];
    let mut working = vec![WorkingLeaf {
        node_slot: 0,
        rows: (0..data.n_rows() as u32).collect(),
        hists: root_hists,
        best: root_best,
    }];
    let mut finalized: Vec<WorkingLeaf> = Vec::new();

    while (working.len() + finalized.len()) < config.max_leaves as usize {
        // Pick the working leaf with the highest splittable gain.
        let Some(pick) = working
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.best.map(|b| (i, b.gain)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("gains are finite"))
            .map(|(i, _)| i)
        else {
            break; // nothing splittable
        };
        let leaf = working.swap_remove(pick);
        let split = leaf.best.expect("picked leaves have splits");
        feature_gain[split.feature as usize] += split.gain;

        // Partition rows by the chosen bin threshold.
        let codes = data.feature_codes(split.feature as usize);
        let mut left_rows = Vec::with_capacity(split.left_count as usize);
        let mut right_rows = Vec::with_capacity(split.right_count as usize);
        for &r in &leaf.rows {
            if codes[r as usize] <= split.threshold_bin {
                left_rows.push(r);
            } else {
                right_rows.push(r);
            }
        }
        debug_assert_eq!(left_rows.len(), split.left_count as usize);
        debug_assert_eq!(right_rows.len(), split.right_count as usize);

        // Build the smaller child's histograms; subtract for the larger.
        let small_is_left = left_rows.len() <= right_rows.len();
        let small_rows = if small_is_left {
            &left_rows
        } else {
            &right_rows
        };
        let mut small_hists = pool.take(data);
        build_histograms(data, small_rows, grads, hessians, &mut small_hists);
        let mut large_hists = leaf.hists;
        for (parent, small) in large_hists.iter_mut().zip(&small_hists) {
            parent.subtract(small);
        }
        let (left_hists, right_hists) = if small_is_left {
            (small_hists, large_hists)
        } else {
            (large_hists, small_hists)
        };

        // Patch the parent slot into a split and append the two children.
        let left_slot = nodes.len();
        let right_slot = nodes.len() + 1;
        let threshold = data
            .mapper(split.feature as usize)
            .upper_edge(split.threshold_bin);
        nodes[leaf.node_slot] = Node::Split {
            feature: split.feature,
            threshold,
            left: left_slot as u32,
            right: right_slot as u32,
        };
        nodes.push(Node::Leaf {
            value: 0.0,
            index: u32::MAX,
        });
        nodes.push(Node::Leaf {
            value: 0.0,
            index: u32::MAX,
        });

        for (slot, rows, hists) in [
            (left_slot, left_rows, left_hists),
            (right_slot, right_rows, right_hists),
        ] {
            // Scanned even when this split fills the tree: whether a leaf
            // has a split decides whether it is numbered with the
            // finalized leaves or the working ones.
            let best = scan_best(&hists, config);
            let child = WorkingLeaf {
                node_slot: slot,
                rows,
                hists,
                best,
            };
            // A leaf that can never split again still counts toward
            // max_leaves; keep it in `working` only if splittable so the
            // loop guard stays simple.
            if child.best.is_some() {
                working.push(child);
            } else {
                finalized.push(child);
            }
        }
    }
    finalized.append(&mut working);

    // Assign dense leaf indices and optimal values; the sets go back to
    // the pool.
    let mut leaf_rows: Vec<Vec<u32>> = Vec::with_capacity(finalized.len());
    for (leaf_idx, leaf) in finalized.into_iter().enumerate() {
        let totals = leaf.hists[0].totals();
        let value = leaf_value(totals.grad, totals.hess, config.lambda_l2);
        nodes[leaf.node_slot] = Node::Leaf {
            value,
            index: leaf_idx as u32,
        };
        pool.free.push(leaf.hists);
        leaf_rows.push(leaf.rows);
    }
    let n_leaves = leaf_rows.len() as u32;
    GrownTree {
        tree: Tree::from_nodes(nodes, n_leaves),
        leaf_rows,
        feature_gain,
    }
}

/// Features per contiguous run when `updates` row × feature additions are
/// split over the pool, a multiple of `unit`: small builds stay on this
/// thread in one run (the fork/join would not pay), larger ones get a run
/// per thread. Each feature's sums are independent of the others, so the
/// result does not depend on the pool width.
fn run_len(updates: usize, n_features: usize, unit: usize) -> usize {
    let workers = if updates < 1 << 16 {
        1
    } else {
        rayon::current_num_threads()
    };
    n_features.div_ceil(unit).div_ceil(workers) * unit
}

/// The root's histograms over every row, bin by bin, written over `set`.
fn root_histograms(
    data: &BinnedDataset,
    grads: &[f64],
    hessians: &[f64],
    set: &mut [FeatureHistogram],
) {
    // Every row's (gradient, hessian) pair, interleaved: one 16-byte load
    // per row a bin adds.
    let pairs: Vec<(f64, f64)> = grads
        .iter()
        .copied()
        .zip(hessians.iter().copied())
        .collect();
    let run = run_len(data.n_rows() * set.len(), set.len(), 1);
    set.par_chunks_mut(run).enumerate().for_each(|(i, hists)| {
        build_by_bins(&data.bin_rows()[i * run..][..hists.len()], &pairs, hists);
    });
}

/// A leaf's histograms over its rows, [`GROUP`] features per pass,
/// written over `set`.
fn build_histograms(
    data: &BinnedDataset,
    rows: &[u32],
    grads: &[f64],
    hessians: &[f64],
    set: &mut [FeatureHistogram],
) {
    // The leaf's (gradient, hessian) pairs in row order: every group's pass
    // reads them sequentially instead of gathering them per feature.
    let gh: Vec<(f64, f64)> = rows
        .iter()
        .map(|&r| (grads[r as usize], hessians[r as usize]))
        .collect();
    let columns: Vec<&[u8]> = (0..data.n_features())
        .map(|f| data.feature_codes(f))
        .collect();
    let run = run_len(rows.len() * set.len(), set.len(), GROUP);
    set.par_chunks_mut(run).enumerate().for_each(|(i, hists)| {
        let mut acc = GroupAccumulator::new();
        for (group, codes) in hists
            .chunks_mut(GROUP)
            .zip(columns[i * run..].chunks(GROUP))
        {
            acc.fill(codes, rows, &gh, group);
        }
    });
}

fn scan_best(hists: &[FeatureHistogram], config: &GrowConfig) -> Option<SplitCandidate> {
    hists
        .iter()
        .enumerate()
        .filter_map(|(f, h)| {
            best_split(
                h,
                f as u32,
                config.lambda_l2,
                config.min_data_in_leaf,
                config.min_gain,
            )
        })
        .max_by(|a, b| a.gain.partial_cmp(&b.gain).expect("gains are finite"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Gradients for squared loss toward targets: grad = pred - y with
    /// pred = 0, hess = 1.
    fn regression_grads(targets: &[f64]) -> (Vec<f64>, Vec<f64>) {
        (
            targets.iter().map(|&y| -y).collect(),
            vec![1.0; targets.len()],
        )
    }

    fn cfg(max_leaves: u32, min_leaf: u32) -> GrowConfig {
        GrowConfig {
            max_leaves,
            min_data_in_leaf: min_leaf,
            lambda_l2: 0.0,
            min_gain: 1e-9,
        }
    }

    #[test]
    fn splits_a_step_function_exactly() {
        // y = 1 for x > 0.5, else 0. One split suffices.
        let n = 100;
        let feats: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
        let targets: Vec<f64> = feats.iter().map(|&x| (x > 0.5) as u8 as f64).collect();
        let data = BinnedDataset::fit(&feats, 1, 255);
        let (g, h) = regression_grads(&targets);
        let grown = grow_tree(&data, &g, &h, &cfg(2, 1));
        assert_eq!(grown.tree.n_leaves(), 2);
        // Check predictions recover the step.
        for (i, &x) in feats.iter().enumerate() {
            let p = grown.tree.predict(&[x]);
            assert!(
                (p - targets[i]).abs() < 1e-9,
                "x={x} pred={p} want={}",
                targets[i]
            );
        }
    }

    #[test]
    fn leaf_rows_partition_the_data() {
        let n = 200;
        let feats: Vec<f32> = (0..n).map(|i| ((i * 37) % n) as f32).collect();
        let targets: Vec<f64> = feats.iter().map(|&x| (x as f64 * 0.1).sin()).collect();
        let data = BinnedDataset::fit(&feats, 1, 32);
        let (g, h) = regression_grads(&targets);
        let grown = grow_tree(&data, &g, &h, &cfg(8, 5));
        let mut seen = vec![false; n];
        for rows in &grown.leaf_rows {
            for &r in rows {
                assert!(!seen[r as usize], "row {r} in two leaves");
                seen[r as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn leaf_assignment_matches_routing() {
        // Both features carry NaN rows: training must put each in the
        // leaf `Tree::route` sends it to.
        let n = 300;
        let feats: Vec<f32> = (0..n)
            .flat_map(|i| {
                let nan_or = |missing: bool, v: usize| if missing { f32::NAN } else { v as f32 };
                [
                    nan_or(i % 7 == 0, (i * 13) % 97),
                    nan_or(i % 11 == 3, (i * 7) % 31),
                ]
            })
            .collect();
        let targets: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let data = BinnedDataset::fit(&feats, 2, 32);
        let (g, h) = regression_grads(&targets);
        let grown = grow_tree(&data, &g, &h, &cfg(12, 5));
        for (leaf_idx, rows) in grown.leaf_rows.iter().enumerate() {
            for &r in rows {
                let row = &feats[r as usize * 2..r as usize * 2 + 2];
                assert_eq!(
                    grown.tree.leaf_index(row),
                    leaf_idx as u32,
                    "row {r} routed inconsistently"
                );
            }
        }
    }

    /// The best root split by brute force over the raw rows: every
    /// feature, every bin upper edge but the last as the threshold, the
    /// grower's `min_data_in_leaf` and `min_gain` rules, and its tie
    /// rule — the first bin within a feature, the last feature across
    /// features (as `max_by` picks). Returns `(feature, bin, gain)`.
    fn exhaustive_root_split(
        feats: &[f32],
        data: &BinnedDataset,
        grads: &[f64],
        hessians: &[f64],
        config: &GrowConfig,
    ) -> Option<(u32, u8, f64)> {
        let score = |g: f64, h: f64| g * g / (h + config.lambda_l2);
        let nf = data.n_features();
        let parent = score(grads.iter().sum(), hessians.iter().sum());
        let mut best: Option<(u32, u8, f64)> = None;
        for f in 0..nf {
            let mapper = data.mapper(f);
            let mut feature_best: Option<(u8, f64)> = None;
            for b in 0..mapper.n_bins() as u8 - 1 {
                let edge = mapper.upper_edge(b);
                let (mut left, mut right) = ((0.0, 0.0, 0u32), (0.0, 0.0, 0u32));
                for (r, (&g, &h)) in grads.iter().zip(hessians).enumerate() {
                    let side = if feats[r * nf + f] <= edge {
                        &mut left
                    } else {
                        &mut right
                    };
                    side.0 += g;
                    side.1 += h;
                    side.2 += 1;
                }
                if left.2 < config.min_data_in_leaf || right.2 < config.min_data_in_leaf {
                    continue;
                }
                let gain = score(left.0, left.1) + score(right.0, right.1) - parent;
                if gain > config.min_gain && feature_best.is_none_or(|(_, g)| gain > g) {
                    feature_best = Some((b, gain));
                }
            }
            if let Some((b, gain)) = feature_best {
                if best.is_none_or(|(_, _, g)| gain >= g) {
                    best = Some((f as u32, b, gain));
                }
            }
        }
        best
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// DESIGN.md §6's exhaustive-split reference: on tiny data with
            /// integer gradients and unit hessians every f64 sum is exact,
            /// so the grower's root split must match the brute-force scan
            /// in feature, threshold bin and gain bits. Two knobs make
            /// gains tie: column `dup` (when in range) copies column 0,
            /// across features; `mirror` appends each row's mirror image
            /// `(11 − x, −g)`, so every threshold ties with its reflection
            /// within a feature.
            #[test]
            fn root_split_matches_exhaustive_reference(
                n_features in 1usize..=6,
                mut raw in proptest::collection::vec(
                    (proptest::collection::vec(0u8..12, 6), -4i8..=4),
                    1..=64,
                ),
                max_bins in 2usize..=12,
                (min_data_in_leaf, lambda_quarters, min_gain_quarters) in (1u32..=8, 0u8..8, 0u8..12),
                (dup, mirror) in (1usize..=6, 0u8..2),
            ) {
                if mirror == 1 {
                    raw.truncate(raw.len().div_ceil(2));
                    let images: Vec<_> = raw
                        .iter()
                        .map(|(x, g)| (x.iter().map(|&v| 11 - v).collect(), -g))
                        .collect();
                    raw.extend(images);
                }
                let feats: Vec<f32> = raw
                    .iter()
                    .flat_map(|(x, _)| {
                        (0..n_features).map(|f| f32::from(x[if f == dup { 0 } else { f }]))
                    })
                    .collect();
                let grads: Vec<f64> = raw.iter().map(|&(_, g)| f64::from(g)).collect();
                let hessians = vec![1.0; raw.len()];
                let data = BinnedDataset::fit(&feats, n_features, max_bins);
                // Quarter steps: exact gains can meet `min_gain` exactly.
                let config = GrowConfig {
                    max_leaves: 2,
                    min_data_in_leaf,
                    lambda_l2: f64::from(lambda_quarters) / 4.0,
                    min_gain: f64::from(min_gain_quarters) / 4.0,
                };
                let grown = grow_tree(&data, &grads, &hessians, &config);
                let want = exhaustive_root_split(&feats, &data, &grads, &hessians, &config);
                match (grown.tree.nodes()[0].clone(), want) {
                    (Node::Leaf { .. }, None) => {}
                    (Node::Split { feature, threshold, .. }, Some((f, b, gain))) => {
                        prop_assert_eq!(feature, f);
                        prop_assert_eq!(data.mapper(f as usize).bin(threshold), b);
                        prop_assert_eq!(grown.feature_gain[f as usize].to_bits(), gain.to_bits());
                    }
                    (root, want) => {
                        prop_assert!(false, "grower chose {root:?}, brute force {want:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn respects_max_leaves() {
        let n = 500;
        let feats: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let targets: Vec<f64> = (0..n)
            .map(|i| ((i as u64 * 2654435761) % 100) as f64)
            .collect();
        let data = BinnedDataset::fit(&feats, 1, 255);
        let (g, h) = regression_grads(&targets);
        for max_leaves in [1u32, 2, 4, 7, 16] {
            let grown = grow_tree(&data, &g, &h, &cfg(max_leaves, 1));
            assert!(grown.tree.n_leaves() <= max_leaves);
        }
    }

    #[test]
    fn max_leaves_one_gives_stump() {
        let feats = [1.0f32, 2.0, 3.0, 4.0];
        let data = BinnedDataset::fit(&feats, 1, 8);
        let (g, h) = regression_grads(&[0.0, 0.0, 1.0, 1.0]);
        let grown = grow_tree(&data, &g, &h, &cfg(1, 1));
        assert_eq!(grown.tree.n_leaves(), 1);
        // Value is the global Newton step: -sum(g)/sum(h) = mean target.
        assert!((grown.tree.predict(&[9.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_data_in_leaf_blocks_splits() {
        let feats = [0.0f32, 1.0, 2.0, 3.0];
        let data = BinnedDataset::fit(&feats, 1, 8);
        let (g, h) = regression_grads(&[0.0, 0.0, 1.0, 1.0]);
        let grown = grow_tree(&data, &g, &h, &cfg(4, 3));
        // No split can give both sides >= 3 of 4 rows.
        assert_eq!(grown.tree.n_leaves(), 1);
    }

    #[test]
    fn pure_targets_do_not_split() {
        let feats = [0.0f32, 1.0, 2.0, 3.0];
        let data = BinnedDataset::fit(&feats, 1, 8);
        let (g, h) = regression_grads(&[2.0, 2.0, 2.0, 2.0]);
        let grown = grow_tree(&data, &g, &h, &cfg(8, 1));
        assert_eq!(grown.tree.n_leaves(), 1);
    }

    #[test]
    fn feature_gain_attributes_to_informative_feature() {
        // Feature 0 carries signal, feature 1 is constant.
        let n = 100;
        let feats: Vec<f32> = (0..n).flat_map(|i| [i as f32, 1.0]).collect();
        let targets: Vec<f64> = (0..n).map(|i| (i >= 50) as u8 as f64).collect();
        let data = BinnedDataset::fit(&feats, 2, 32);
        let (g, h) = regression_grads(&targets);
        let grown = grow_tree(&data, &g, &h, &cfg(4, 1));
        assert!(grown.feature_gain[0] > 0.0);
        assert_eq!(grown.feature_gain[1], 0.0);
    }

    #[test]
    fn two_feature_interaction_needs_depth() {
        // Additive + interaction target over two binary features: fitting
        // it exactly needs all 4 cells, and (unlike pure XOR) the first
        // greedy split already has positive gain.
        let rows = [
            (0.0f32, 0.0f32, 0.0f64),
            (0.0, 1.0, 1.0),
            (1.0, 0.0, 2.0),
            (1.0, 1.0, 5.0),
        ];
        let mut feats = Vec::new();
        let mut targets = Vec::new();
        for &(a, b, y) in rows.iter().cycle().take(400) {
            feats.extend_from_slice(&[a, b]);
            targets.push(y);
        }
        let data = BinnedDataset::fit(&feats, 2, 8);
        let (g, h) = regression_grads(&targets);
        let grown = grow_tree(&data, &g, &h, &cfg(4, 1));
        assert_eq!(grown.tree.n_leaves(), 4);
        for &(a, b, y) in &rows {
            assert!((grown.tree.predict(&[a, b]) - y).abs() < 1e-9);
        }
    }
}
