//! Gradient boosting driver: binary-logloss objective, shrinkage,
//! prediction, and the GBDT+LR leaf-index transform.

use crate::binning::BinnedDataset;
use crate::grow::{grow, GrowConfig, HistogramPool};
use crate::tree::{Node, Tree};

/// Hyper-parameters of a boosted ensemble.
///
/// Every tree grows over all training rows and all features: there is no
/// row bagging or feature sub-sampling, so a fit depends on nothing but
/// its data and this config.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Shrinkage applied to every leaf value.
    pub learning_rate: f64,
    /// Maximum bins for feature discretization.
    pub max_bins: usize,
    /// Per-tree structural parameters.
    pub grow: GrowConfig,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            n_trees: 100,
            learning_rate: 0.1,
            max_bins: 255,
            grow: GrowConfig::default(),
        }
    }
}

/// Errors from training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GbdtError {
    /// Features/labels disagree in length or the matrix is ragged.
    ShapeMismatch { rows: usize, labels: usize },
    /// The training set is empty.
    Empty,
    /// Labels are all one class; boosting logloss degenerates.
    SingleClass,
}

impl std::fmt::Display for GbdtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GbdtError::ShapeMismatch { rows, labels } => {
                write!(f, "{rows} feature rows but {labels} labels")
            }
            GbdtError::Empty => write!(f, "empty training set"),
            GbdtError::SingleClass => write!(f, "labels contain a single class"),
        }
    }
}

impl std::error::Error for GbdtError {}

/// A trained gradient-boosted ensemble for binary classification.
///
/// Serializes as its first five fields, in order; the walk table is
/// rebuilt (and the trees validated) on deserialization.
#[derive(Debug, Clone, PartialEq)]
pub struct Gbdt {
    trees: Vec<Tree>,
    /// Prior log-odds added to every prediction.
    base_score: f64,
    n_features: usize,
    /// `leaf_offsets[t]` = index of tree `t`'s leaf 0 in the concatenated
    /// one-hot layout; the last entry is the total leaf count.
    leaf_offsets: Vec<u32>,
    /// Total split gain per feature across all trees.
    feature_importance: Vec<f64>,
    /// The leaf transform's table, derived from `trees`.
    walk: Walk,
}

/// The serialized form of [`Gbdt`].
#[derive(serde::Deserialize)]
struct StoredGbdt {
    trees: Vec<Tree>,
    base_score: f64,
    n_features: usize,
    leaf_offsets: Vec<u32>,
    feature_importance: Vec<f64>,
}

impl serde::Serialize for Gbdt {
    fn to_value(&self) -> serde::value::Value {
        let mut m = serde::value::Map::new();
        m.insert("trees".into(), self.trees.to_value());
        m.insert("base_score".into(), self.base_score.to_value());
        m.insert("n_features".into(), self.n_features.to_value());
        m.insert("leaf_offsets".into(), self.leaf_offsets.to_value());
        m.insert(
            "feature_importance".into(),
            self.feature_importance.to_value(),
        );
        serde::value::Value::Object(m)
    }
}

impl serde::Deserialize for Gbdt {
    /// Parse and validate: a model that loads can be walked (see
    /// [`Walk::build`]) and its importances cover every feature.
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        let s = StoredGbdt::from_value(v)?;
        let invalid = |detail: String| serde::DeError(format!("invalid Gbdt: {detail}"));
        if s.n_features == 0 {
            return Err(invalid("n_features is 0".into()));
        }
        if s.feature_importance.len() != s.n_features {
            return Err(invalid(format!(
                "{} feature importances for {} features",
                s.feature_importance.len(),
                s.n_features
            )));
        }
        let walk = Walk::build(&s.trees, s.n_features, &s.leaf_offsets).map_err(invalid)?;
        Ok(Gbdt {
            trees: s.trees,
            base_score: s.base_score,
            n_features: s.n_features,
            leaf_offsets: s.leaf_offsets,
            feature_importance: s.feature_importance,
            walk,
        })
    }
}

/// Trees walked in lockstep by the leaf transform.
const LANES: usize = 16;

/// One node of the walk table: go to `left` when
/// `row[feature] <= threshold`, else to `right`. Children are global step
/// indices, and a leaf is a step whose children are both itself.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(16))]
struct Step {
    feature: u32,
    threshold: f32,
    left: u32,
    right: u32,
}

/// Every tree's nodes in one flat table, walked [`LANES`] trees at a time
/// (DESIGN.md §5n). Built once per model.
#[derive(Debug, Clone, PartialEq, Default)]
struct Walk {
    /// All trees' nodes, tree after tree.
    steps: Vec<Step>,
    /// `leaf[s]` is the global leaf index (`leaf_offsets[t] + index`) of
    /// step `s` when it is a leaf, `u32::MAX` when it is a split.
    leaf: Vec<u32>,
    /// Each tree's root step. A short last block repeats its first root,
    /// whose results are dropped.
    roots: Vec<u32>,
    /// Per block of [`LANES`] trees, the depth of its deepest tree.
    depths: Vec<u32>,
}

impl Walk {
    /// Lay `trees` out as one table, checking everything the walk relies
    /// on: every split's children are later nodes of its tree (so each
    /// tree is acyclic and has a finite depth), every split feature is
    /// below `n_features`, each tree's leaf indices are exactly
    /// `0..n_leaves`, and `leaf_offsets` are the prefix sums of the leaf
    /// counts, starting at 0.
    ///
    /// # Errors
    ///
    /// The first violation, naming its tree and, where there is one, node.
    fn build(trees: &[Tree], n_features: usize, leaf_offsets: &[u32]) -> Result<Self, String> {
        if leaf_offsets.len() != trees.len() + 1 || leaf_offsets[0] != 0 {
            return Err(format!(
                "leaf_offsets must start at 0 and hold {} entries, got {:?}",
                trees.len() + 1,
                leaf_offsets
            ));
        }
        let n_steps: usize = trees.iter().map(Tree::n_nodes).sum();
        if u32::try_from(n_steps).is_err() {
            return Err(format!("{n_steps} nodes do not fit u32 step indices"));
        }
        let mut walk = Walk {
            steps: Vec::with_capacity(n_steps),
            leaf: Vec::with_capacity(n_steps),
            roots: Vec::with_capacity(trees.len().next_multiple_of(LANES)),
            depths: Vec::with_capacity(trees.len().div_ceil(LANES)),
        };
        let mut tree_depths = Vec::with_capacity(trees.len());
        let mut node_depth = Vec::new();
        let mut seen = Vec::new();
        for (t, tree) in trees.iter().enumerate() {
            let nodes = tree.nodes();
            let n_leaves = tree.n_leaves();
            if nodes.is_empty() {
                return Err(format!("tree {t} has no nodes"));
            }
            let offset = leaf_offsets[t];
            if offset.checked_add(n_leaves) != Some(leaf_offsets[t + 1]) {
                return Err(format!(
                    "tree {t}: leaf_offsets[{}] is {}, expected {offset} + {n_leaves} leaves",
                    t + 1,
                    leaf_offsets[t + 1]
                ));
            }
            let base = walk.steps.len() as u32;
            walk.roots.push(base);
            node_depth.clear();
            node_depth.resize(nodes.len(), 0u32);
            seen.clear();
            seen.resize(n_leaves as usize, false);
            let mut depth = 0;
            for (k, node) in nodes.iter().enumerate() {
                let at = base + k as u32;
                match *node {
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        for child in [left, right] {
                            let c = child as usize;
                            if c <= k || c >= nodes.len() {
                                return Err(format!(
                                    "tree {t}, node {k}: child {child} is not a later node \
                                     of the tree's {} nodes",
                                    nodes.len()
                                ));
                            }
                            node_depth[c] = node_depth[c].max(node_depth[k] + 1);
                        }
                        if feature as usize >= n_features {
                            return Err(format!(
                                "tree {t}, node {k}: splits on feature {feature} of {n_features}"
                            ));
                        }
                        walk.steps.push(Step {
                            feature,
                            threshold,
                            left: base + left,
                            right: base + right,
                        });
                        walk.leaf.push(u32::MAX);
                    }
                    Node::Leaf { index, .. } => {
                        if index >= n_leaves || std::mem::replace(&mut seen[index as usize], true) {
                            return Err(format!(
                                "tree {t}, node {k}: leaf index {index} is outside 0..{n_leaves} \
                                 or repeats"
                            ));
                        }
                        depth = depth.max(node_depth[k]);
                        walk.steps.push(Step {
                            feature: 0,
                            threshold: 0.0,
                            left: at,
                            right: at,
                        });
                        walk.leaf.push(offset + index);
                    }
                }
            }
            if let Some(missing) = seen.iter().position(|&s| !s) {
                return Err(format!("tree {t}: no leaf has index {missing}"));
            }
            tree_depths.push(depth);
        }
        for block in tree_depths.chunks(LANES) {
            walk.depths.push(block.iter().copied().max().unwrap_or(0));
        }
        if let Some(&pad) = walk.roots.get(trees.len() / LANES * LANES) {
            walk.roots.resize(trees.len().next_multiple_of(LANES), pad);
        }
        Ok(walk)
    }

    /// Write each tree's global leaf index for `row` into `out`, one entry
    /// per tree. Each block of [`LANES`] cursors takes its block's depth
    /// in steps; a cursor that reaches a leaf early stays there, and NaN
    /// goes right because `NaN <= t` is false, as in [`Tree::route`].
    fn leaves(&self, row: &[f32], out: &mut [u32]) {
        let blocks = self.roots.chunks_exact(LANES).zip(&self.depths);
        for (dst, (roots, &depth)) in out.chunks_mut(LANES).zip(blocks) {
            let mut cursor: [u32; LANES] = roots.try_into().expect("whole blocks");
            for _ in 0..depth {
                for c in &mut cursor {
                    let s = self.steps[*c as usize];
                    *c = if row[s.feature as usize] <= s.threshold {
                        s.left
                    } else {
                        s.right
                    };
                }
            }
            for (o, &c) in dst.iter_mut().zip(&cursor) {
                *o = self.leaf[c as usize];
            }
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Gbdt {
    /// Train `config.n_trees` rounds on a row-major matrix.
    ///
    /// # Errors
    ///
    /// See [`GbdtError`].
    pub fn fit(
        features: &[f32],
        n_features: usize,
        labels: &[u8],
        config: &GbdtConfig,
    ) -> Result<Self, GbdtError> {
        if n_features == 0 || !features.len().is_multiple_of(n_features) {
            return Err(GbdtError::ShapeMismatch {
                rows: 0,
                labels: labels.len(),
            });
        }
        let n_rows = features.len() / n_features;
        if n_rows != labels.len() {
            return Err(GbdtError::ShapeMismatch {
                rows: n_rows,
                labels: labels.len(),
            });
        }
        if n_rows == 0 {
            return Err(GbdtError::Empty);
        }
        let pos = labels.iter().filter(|&&y| y != 0).count();
        if pos == 0 || pos == n_rows {
            return Err(GbdtError::SingleClass);
        }

        let data = BinnedDataset::fit(features, n_features, config.max_bins);
        let prior = pos as f64 / n_rows as f64;
        let base_score = (prior / (1.0 - prior)).ln();

        let mut model = Gbdt {
            trees: Vec::with_capacity(config.n_trees),
            base_score,
            n_features,
            leaf_offsets: vec![0],
            feature_importance: vec![0.0; n_features],
            walk: Walk::default(),
        };

        let mut scores = vec![base_score; n_rows];
        let mut grads = vec![0.0f64; n_rows];
        let mut hessians = vec![0.0f64; n_rows];

        // One pool of histogram sets serves every tree of the fit.
        let mut pool = HistogramPool::default();
        for _round in 0..config.n_trees {
            for i in 0..n_rows {
                let p = sigmoid(scores[i]);
                grads[i] = p - labels[i] as f64;
                hessians[i] = (p * (1.0 - p)).max(1e-16);
            }
            let mut grown = grow(&data, &grads, &hessians, &config.grow, &mut pool);
            // Shrinkage folds into the stored leaf values so that
            // prediction is a plain sum over trees.
            grown.tree = scale_leaves(grown.tree, config.learning_rate);
            for (leaf_idx, rows) in grown.leaf_rows.iter().enumerate() {
                let value = leaf_output(&grown.tree, leaf_idx as u32);
                for &r in rows {
                    scores[r as usize] += value;
                }
            }
            for (imp, g) in model.feature_importance.iter_mut().zip(&grown.feature_gain) {
                *imp += g;
            }
            let n_leaves = grown.tree.n_leaves();
            model.trees.push(grown.tree);
            model
                .leaf_offsets
                .push(model.leaf_offsets.last().unwrap() + n_leaves);
        }

        model.walk = Walk::build(&model.trees, n_features, &model.leaf_offsets)
            .expect("grown trees are well-formed");
        Ok(model)
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// One tree of the ensemble (for inspection/explanation).
    pub fn tree(&self, t: usize) -> &Tree {
        &self.trees[t]
    }

    /// Feature width expected by prediction.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total leaves across all trees — the dimension `N` of the GBDT+LR
    /// multi-hot feature space.
    pub fn total_leaves(&self) -> usize {
        *self.leaf_offsets.last().expect("offsets never empty") as usize
    }

    /// Total split gain per feature (importance).
    pub fn feature_importance(&self) -> &[f64] {
        &self.feature_importance
    }

    /// Raw log-odds prediction for one row.
    pub fn predict_logit(&self, row: &[f32]) -> f64 {
        debug_assert_eq!(row.len(), self.n_features);
        self.base_score + self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
    }

    /// Default probability for one row.
    pub fn predict_proba(&self, row: &[f32]) -> f64 {
        sigmoid(self.predict_logit(row))
    }

    /// Default probabilities for a row-major matrix.
    pub fn predict_proba_batch(&self, features: &[f32]) -> Vec<f64> {
        features
            .chunks_exact(self.n_features)
            .map(|row| self.predict_proba(row))
            .collect()
    }

    /// The GBDT+LR transform of one row: for each tree, the global index
    /// of the leaf the row falls in (`leaf_offsets[t] + leaf`). The result
    /// is the sparse encoding of the concatenated one-hot vector —
    /// exactly `n_trees` active positions out of [`Gbdt::total_leaves`].
    /// The indices equal [`Tree::leaf_index`]'s bit for bit.
    pub fn transform_row(&self, row: &[f32], out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.trees.len(), 0);
        self.walk.leaves(row, out);
    }

    /// Transform a row-major matrix into flat CSR-style indices: row `i`
    /// occupies `indices[i*n_trees..(i+1)*n_trees]`, equal to
    /// [`Gbdt::transform_row`] of that row.
    pub fn transform_batch(&self, features: &[f32]) -> Vec<u32> {
        let n_trees = self.trees.len();
        let mut out = vec![0; features.len() / self.n_features * n_trees];
        for (i, row) in features.chunks_exact(self.n_features).enumerate() {
            self.walk
                .leaves(row, &mut out[i * n_trees..(i + 1) * n_trees]);
        }
        out
    }
}

fn scale_leaves(tree: Tree, factor: f64) -> Tree {
    let n_leaves = tree.n_leaves();
    let nodes = tree
        .nodes()
        .iter()
        .map(|n| match *n {
            Node::Leaf { value, index } => Node::Leaf {
                value: value * factor,
                index,
            },
            ref split => split.clone(),
        })
        .collect();
    Tree::from_nodes(nodes, n_leaves)
}

fn leaf_output(tree: &Tree, leaf: u32) -> f64 {
    tree.nodes()
        .iter()
        .find_map(|n| match *n {
            Node::Leaf { value, index } if index == leaf => Some(value),
            _ => None,
        })
        .expect("leaf index exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A nonlinear but learnable binary problem on 2 features.
    fn ring_data(n: usize) -> (Vec<f32>, Vec<u8>) {
        let mut feats = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Low-discrepancy grid points in [-1,1]^2.
            let x = ((i * 2654435761_usize) % 1000) as f32 / 500.0 - 1.0;
            let y = ((i * 40503_usize) % 1000) as f32 / 500.0 - 1.0;
            feats.extend_from_slice(&[x, y]);
            labels.push(((x * x + y * y) < 0.5) as u8);
        }
        (feats, labels)
    }

    fn quick_config(n_trees: usize) -> GbdtConfig {
        GbdtConfig {
            n_trees,
            learning_rate: 0.3,
            max_bins: 64,
            grow: GrowConfig {
                max_leaves: 8,
                min_data_in_leaf: 5,
                lambda_l2: 1.0,
                min_gain: 1e-6,
            },
        }
    }

    fn logloss(scores: &[f64], labels: &[u8]) -> f64 {
        let mut total = 0.0;
        for (&s, &y) in scores.iter().zip(labels) {
            let p = sigmoid(s).clamp(1e-12, 1.0 - 1e-12);
            total -= if y != 0 { p.ln() } else { (1.0 - p).ln() };
        }
        total / scores.len() as f64
    }

    #[test]
    fn learns_a_nonlinear_boundary() {
        let (feats, labels) = ring_data(2000);
        let model = Gbdt::fit(&feats, 2, &labels, &quick_config(40)).unwrap();
        let probs = model.predict_proba_batch(&feats);
        let correct = probs
            .iter()
            .zip(&labels)
            .filter(|&(&p, &y)| (p >= 0.5) == (y != 0))
            .count();
        let acc = correct as f64 / labels.len() as f64;
        assert!(acc > 0.95, "train accuracy {acc} too low");
    }

    #[test]
    fn more_trees_reduce_training_loss() {
        let (feats, labels) = ring_data(1000);
        let small = Gbdt::fit(&feats, 2, &labels, &quick_config(3)).unwrap();
        let large = Gbdt::fit(&feats, 2, &labels, &quick_config(30)).unwrap();
        let loss = |m: &Gbdt| {
            let scores: Vec<f64> = feats
                .chunks_exact(2)
                .map(|row| m.predict_logit(row))
                .collect();
            logloss(&scores, &labels)
        };
        assert!(loss(&large) < loss(&small));
    }

    #[test]
    fn base_score_matches_prior() {
        let (feats, labels) = ring_data(500);
        let model = Gbdt::fit(&feats, 2, &labels, &quick_config(0)).unwrap();
        assert_eq!(model.n_trees(), 0);
        let prior = labels.iter().filter(|&&y| y != 0).count() as f64 / labels.len() as f64;
        let p = model.predict_proba(&[0.0, 0.0]);
        assert!((p - prior).abs() < 1e-9);
    }

    #[test]
    fn transform_has_one_index_per_tree() {
        let (feats, labels) = ring_data(500);
        let model = Gbdt::fit(&feats, 2, &labels, &quick_config(10)).unwrap();
        let mut idx = Vec::new();
        model.transform_row(&feats[0..2], &mut idx);
        assert_eq!(idx.len(), model.n_trees());
        // Indices fall in disjoint per-tree ranges and are sorted.
        for w in idx.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!((*idx.last().unwrap() as usize) < model.total_leaves());
    }

    #[test]
    fn transform_batch_matches_row_transform() {
        let (feats, labels) = ring_data(400);
        for n_trees in TREE_COUNTS {
            let model = Gbdt::fit(&feats, 2, &labels, &quick_config(n_trees)).unwrap();
            // Rows on every threshold, and with NaN, ±∞ and ±0.0.
            let mut probe = feats.clone();
            for tree in &model.trees {
                for node in tree.nodes() {
                    if let Node::Split { threshold, .. } = *node {
                        probe.extend_from_slice(&[threshold, threshold]);
                    }
                }
            }
            for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0] {
                probe.extend_from_slice(&[v, 0.1, 0.1, v, v, v]);
            }
            assert_walk_matches_reference(&model, &probe);
        }
    }

    #[test]
    fn total_leaves_matches_offsets() {
        let (feats, labels) = ring_data(500);
        let model = Gbdt::fit(&feats, 2, &labels, &quick_config(7)).unwrap();
        let direct: usize = (0..model.n_trees())
            .map(|t| (model.leaf_offsets[t + 1] - model.leaf_offsets[t]) as usize)
            .sum();
        assert_eq!(direct, model.total_leaves());
    }

    #[test]
    fn errors_on_bad_shapes() {
        assert!(matches!(
            Gbdt::fit(&[1.0, 2.0, 3.0], 2, &[0, 1], &quick_config(1)),
            Err(GbdtError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Gbdt::fit(&[1.0, 2.0], 2, &[0, 1], &quick_config(1)),
            Err(GbdtError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            Gbdt::fit(&[], 2, &[], &quick_config(1)),
            Err(GbdtError::Empty)
        ));
        assert!(matches!(
            Gbdt::fit(&[1.0, 2.0, 3.0, 4.0], 2, &[1, 1], &quick_config(1)),
            Err(GbdtError::SingleClass)
        ));
    }

    #[test]
    fn probabilities_are_probabilities() {
        let (feats, labels) = ring_data(400);
        let model = Gbdt::fit(&feats, 2, &labels, &quick_config(15)).unwrap();
        for p in model.predict_proba_batch(&feats) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn importance_concentrates_on_informative_features() {
        // Feature 1 is pure noise, feature 0 determines the label.
        let n = 1000;
        let mut feats = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let x = (i % 100) as f32 / 100.0;
            let noise = ((i * 2654435761_usize) % 97) as f32;
            feats.extend_from_slice(&[x, noise]);
            labels.push((x > 0.5) as u8);
        }
        let model = Gbdt::fit(&feats, 2, &labels, &quick_config(10)).unwrap();
        let imp = model.feature_importance();
        assert!(imp[0] > 10.0 * imp[1].max(1e-12));
    }

    /// The root pass and the child builds fan contiguous feature runs out
    /// over the pool above 2¹⁶ updates; each feature's sums are its own,
    /// so the model is the same at any pool width. 70,000 rows cross a
    /// `u16` row block, and one feature carries NaN.
    #[test]
    fn fit_is_identical_under_one_and_four_threads() {
        let n = 70_000;
        let (ring, labels) = ring_data(n);
        let feats: Vec<f32> = ring
            .chunks_exact(2)
            .enumerate()
            .flat_map(|(i, xy)| {
                let noise = ((i * 2_654_435_761) % 1_009) as f32;
                let nan_or = if i % 13 == 0 { f32::NAN } else { xy[0] * xy[1] };
                [
                    xy[0],
                    xy[1],
                    noise,
                    nan_or,
                    (i % 7) as f32,
                    xy[0] + noise / 1e3,
                ]
            })
            .collect();
        let fit = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| Gbdt::fit(&feats, 6, &labels, &quick_config(6)).unwrap())
        };
        let (one, four) = (fit(1), fit(4));
        assert_eq!(
            serde_json::to_string(&one).unwrap(),
            serde_json::to_string(&four).unwrap()
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (feats, labels) = ring_data(500);
        let a = Gbdt::fit(&feats, 2, &labels, &quick_config(5)).unwrap();
        let b = Gbdt::fit(&feats, 2, &labels, &quick_config(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip() {
        let (feats, labels) = ring_data(300);
        for n_trees in [0, 17] {
            let model = Gbdt::fit(&feats, 2, &labels, &quick_config(n_trees)).unwrap();
            let json = serde_json::to_string(&model).unwrap();
            let back: Gbdt = serde_json::from_str(&json).unwrap();
            assert_eq!(model, back);
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
            let fields = [
                "{\"trees\":[",
                "],\"base_score\":",
                ",\"n_features\":2,\"leaf_offsets\":[0",
                "],\"feature_importance\":[",
            ];
            let mut at = 0;
            for field in fields {
                at += json[at..]
                    .find(field)
                    .unwrap_or_else(|| panic!("{field} in order"));
            }
        }
    }

    /// The JSON of a `Gbdt` with the given parts, valid or not.
    fn gbdt_json(trees: &[Tree], n_features: usize, leaf_offsets: &[u32], n_imp: usize) -> String {
        format!(
            "{{\"trees\":{},\"base_score\":0.0,\"n_features\":{n_features},\
             \"leaf_offsets\":{},\"feature_importance\":{}}}",
            serde_json::to_string(trees).unwrap(),
            serde_json::to_string(leaf_offsets).unwrap(),
            serde_json::to_string(&vec![0.0f64; n_imp]).unwrap(),
        )
    }

    /// Load `trees` with prefix-sum offsets and `n_features` importances.
    fn load(trees: &[Tree], n_features: usize) -> Result<Gbdt, String> {
        let mut offsets = vec![0u32];
        for t in trees {
            offsets.push(offsets.last().unwrap() + t.n_leaves());
        }
        serde_json::from_str(&gbdt_json(trees, n_features, &offsets, n_features))
            .map_err(|e: serde_json::Error| e.to_string())
    }

    fn split(feature: u32, threshold: f32, left: u32, right: u32) -> Node {
        Node::Split {
            feature,
            threshold,
            left,
            right,
        }
    }

    fn leaf(index: u32) -> Node {
        Node::Leaf { value: 0.5, index }
    }

    /// `f0 <= 1 ? leaf 0 : (f1 <= 5 ? leaf 1 : leaf 2)`.
    fn demo_nodes() -> Vec<Node> {
        vec![
            split(0, 1.0, 1, 2),
            leaf(0),
            split(1, 5.0, 3, 4),
            leaf(1),
            leaf(2),
        ]
    }

    /// Tree 1 of a two-tree model is `demo_nodes` with `node` replaced.
    fn load_with(node: usize, replacement: Node, n_leaves: u32) -> Result<Gbdt, String> {
        let mut nodes = demo_nodes();
        nodes[node] = replacement;
        let trees = [
            Tree::from_nodes(demo_nodes(), 3),
            Tree::from_nodes(nodes, n_leaves),
        ];
        load(&trees, 2)
    }

    fn assert_rejected(got: Result<Gbdt, String>, names: &str) {
        let err = got.expect_err("hostile model must not load");
        assert!(err.contains(names), "{err:?} does not name {names:?}");
    }

    #[test]
    fn load_accepts_well_formed_trees() {
        let model = load_with(0, split(0, 1.0, 1, 2), 3).unwrap();
        let mut leaves = Vec::new();
        model.transform_row(&[2.0, 6.0], &mut leaves);
        assert_eq!(leaves, [2, 5]);
        model.transform_row(&[f32::NAN, f32::NAN], &mut leaves);
        assert_eq!(leaves, [2, 5]);
        model.transform_row(&[1.0, 5.0], &mut leaves);
        assert_eq!(leaves, [0, 3]);
    }

    #[test]
    fn load_rejects_split_children_that_are_not_later_nodes() {
        for (node, child) in [(0, 0), (2, 2), (2, 1), (2, 5), (0, u32::MAX)] {
            assert_rejected(
                load_with(node, split(0, 1.0, child, 4), 3),
                &format!("tree 1, node {node}: child {child}"),
            );
            assert_rejected(
                load_with(node, split(0, 1.0, 3, child), 3),
                &format!("tree 1, node {node}: child {child}"),
            );
        }
    }

    #[test]
    fn load_rejects_split_features_past_the_row() {
        for feature in [2, 4_600_000, u32::MAX] {
            assert_rejected(
                load_with(2, split(feature, 5.0, 3, 4), 3),
                &format!("tree 1, node 2: splits on feature {feature} of 2"),
            );
        }
    }

    #[test]
    fn load_rejects_leaf_indices_that_are_not_exactly_0_to_n_leaves() {
        // One past the end: the rows would land in the next tree's leaf 0.
        assert_rejected(load_with(4, leaf(3), 3), "tree 1, node 4: leaf index 3");
        assert_rejected(load_with(4, leaf(0), 3), "tree 1, node 4: leaf index 0");
        assert_rejected(
            load_with(0, split(0, 1.0, 1, 2), 4),
            "tree 1: no leaf has index 3",
        );
        assert_rejected(
            load_with(0, split(0, 1.0, 1, 2), 2),
            "tree 1, node 4: leaf index 2",
        );
    }

    #[test]
    fn load_rejects_offsets_that_are_not_the_leaf_prefix_sums() {
        let trees = [Tree::from_nodes(demo_nodes(), 3), Tree::stump(0.0)];
        let load_offsets = |offsets: &[u32]| {
            serde_json::from_str::<Gbdt>(&gbdt_json(&trees, 2, offsets, 2))
                .map_err(|e| e.to_string())
        };
        assert!(load_offsets(&[0, 3, 4]).is_ok());
        assert_rejected(load_offsets(&[0, 3, 5]), "tree 1: leaf_offsets[2] is 5");
        assert_rejected(load_offsets(&[0, 2, 3]), "tree 0: leaf_offsets[1] is 2");
        assert_rejected(load_offsets(&[1, 4, 5]), "leaf_offsets must start at 0");
        assert_rejected(load_offsets(&[0, 3]), "leaf_offsets must start at 0");
        assert_rejected(load_offsets(&[]), "leaf_offsets must start at 0");
        assert_rejected(
            load_offsets(&[0, u32::MAX, 0]),
            "tree 0: leaf_offsets[1] is 4294967295",
        );
    }

    #[test]
    fn load_rejects_empty_trees_zero_features_and_short_importances() {
        let empty = "{\"trees\":[{\"nodes\":[],\"n_leaves\":0}],\"base_score\":0.0,\
                     \"n_features\":2,\"leaf_offsets\":[0,0],\"feature_importance\":[0.0,0.0]}";
        let empty = serde_json::from_str::<Gbdt>(empty).map_err(|e| e.to_string());
        assert_rejected(empty, "tree 0 has no nodes");
        assert_rejected(load(&[Tree::stump(0.0)], 0), "n_features is 0");
        let one_tree = [Tree::stump(0.0)];
        let short = serde_json::from_str::<Gbdt>(&gbdt_json(&one_tree, 2, &[0, 1], 1))
            .map_err(|e| e.to_string());
        assert_rejected(short, "1 feature importances for 2 features");
    }

    /// The per-tree reference: `leaf_offsets[t] + Tree::leaf_index(row)`.
    fn reference(model: &Gbdt, features: &[f32]) -> Vec<u32> {
        features
            .chunks_exact(model.n_features)
            .flat_map(|row| {
                (0..model.n_trees())
                    .map(|t| model.leaf_offsets[t] + model.tree(t).leaf_index(row))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// `transform_batch` equals the reference on 0, 1 and all rows, and
    /// each of its rows equals `transform_row`.
    fn assert_walk_matches_reference(model: &Gbdt, features: &[f32]) {
        let nf = model.n_features;
        for n_rows in [0, 1, features.len() / nf] {
            let batch = &features[..n_rows * nf];
            assert_eq!(model.transform_batch(batch), reference(model, batch));
        }
        let batch = model.transform_batch(features);
        let mut row_out = Vec::new();
        for (i, row) in features.chunks_exact(nf).enumerate() {
            model.transform_row(row, &mut row_out);
            let n = model.n_trees();
            assert_eq!(row_out, &batch[i * n..(i + 1) * n]);
        }
    }

    /// Tree counts around the lane width.
    const TREE_COUNTS: [usize; 6] = [0, 1, 15, 16, 17, 33];

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// Thresholds are drawn from here, and so are most row values, so
        /// rows land on thresholds exactly. (JSON has no infinities, so a
        /// loadable threshold is finite.)
        const POOL: [f32; 8] = [f32::MIN, -1.5, -0.0, 0.0, 0.25, 1.0, 3.0, f32::MAX];

        /// A random tree in pre-order (so children point forward), up to
        /// `max_depth` deep, with its leaf indices shuffled.
        fn random_tree(rng: &mut ChaCha8Rng, n_features: usize, max_depth: u32) -> Tree {
            fn grow(
                rng: &mut ChaCha8Rng,
                nodes: &mut Vec<Node>,
                n_features: usize,
                depth_left: u32,
            ) -> u32 {
                let slot = nodes.len();
                nodes.push(leaf(0));
                if depth_left > 0 && rng.gen_bool(0.7) {
                    let feature = rng.gen_range(0..n_features) as u32;
                    let threshold = POOL[rng.gen_range(0..POOL.len())];
                    let left = grow(rng, nodes, n_features, depth_left - 1);
                    let right = grow(rng, nodes, n_features, depth_left - 1);
                    nodes[slot] = split(feature, threshold, left, right);
                }
                slot as u32
            }
            let mut nodes = Vec::new();
            grow(rng, &mut nodes, n_features, max_depth);
            let leaves: Vec<usize> = (0..nodes.len())
                .filter(|&k| matches!(nodes[k], Node::Leaf { .. }))
                .collect();
            let mut indices: Vec<u32> = (0..leaves.len() as u32).collect();
            indices.shuffle(rng);
            for (&k, &index) in leaves.iter().zip(&indices) {
                nodes[k] = Node::Leaf {
                    value: rng.gen(),
                    index,
                };
            }
            Tree::from_nodes(nodes, leaves.len() as u32)
        }

        fn random_value(rng: &mut ChaCha8Rng) -> f32 {
            match rng.gen_range(0..12) {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 | 4 => rng.gen_range(-2.0..4.0),
                _ => POOL[rng.gen_range(0..POOL.len())],
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn walk_matches_the_per_tree_reference(
                seed in 0u64..u64::MAX,
                n_trees in (0..TREE_COUNTS.len()).prop_map(|i| TREE_COUNTS[i]),
                n_features in 1usize..6,
                max_depth in 0u32..=8,
                n_rows in 2usize..40,
            ) {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let trees: Vec<Tree> = (0..n_trees)
                    .map(|_| {
                        let depth = rng.gen_range(0..=max_depth);
                        random_tree(&mut rng, n_features, depth)
                    })
                    .collect();
                let model = load(&trees, n_features).expect("forward trees load");
                let features: Vec<f32> =
                    (0..n_rows * n_features).map(|_| random_value(&mut rng)).collect();
                assert_walk_matches_reference(&model, &features);
            }
        }
    }
}
