//! Decision-tree structure shared by training and inference.
//!
//! Trees are stored as flat node arrays. Internal nodes split on
//! `feature value <= threshold` (raw-value threshold recovered from the
//! bin upper edge at training time); leaves carry both an output value and
//! a stable *leaf index*, which is what the GBDT+LR transform consumes.

use serde::{Deserialize, Serialize};

/// One node of a tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Internal split: `go left when value[feature] <= threshold`.
    Split {
        feature: u32,
        threshold: f32,
        left: u32,
        right: u32,
    },
    /// Terminal leaf.
    Leaf {
        /// Additive output of this leaf (log-odds contribution).
        value: f64,
        /// Dense leaf index in `0..tree.n_leaves()`, assigned in creation
        /// order; used as the categorical code of the GBDT+LR transform.
        index: u32,
    },
}

/// A trained regression tree.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Tree {
    nodes: Vec<Node>,
    n_leaves: u32,
}

impl Tree {
    /// A single-leaf tree with constant output (used when no split gains).
    pub fn stump(value: f64) -> Self {
        Tree {
            nodes: vec![Node::Leaf { value, index: 0 }],
            n_leaves: 1,
        }
    }

    /// Build from parts; used by the grower.
    pub(crate) fn from_nodes(nodes: Vec<Node>, n_leaves: u32) -> Self {
        debug_assert!(n_leaves >= 1);
        Tree { nodes, n_leaves }
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> u32 {
        self.n_leaves
    }

    /// Number of nodes (splits + leaves).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes, root first.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Route a raw feature row to its leaf; returns `(leaf index, value)`.
    ///
    /// This is the per-row reference that [`crate::Gbdt`]'s leaf transform
    /// is tested against, and the value path of fitting's validation
    /// score updates.
    pub fn route(&self, row: &[f32]) -> (u32, f64) {
        self.route_with(row, |_| {})
    }

    /// [`Tree::route`], calling `on_split` with the feature of every split
    /// on the root-to-leaf path, in path order.
    pub fn route_with(&self, row: &[f32], mut on_split: impl FnMut(u32)) -> (u32, f64) {
        let mut node = 0usize;
        loop {
            match self.nodes[node] {
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    on_split(feature);
                    // NaN routes right (treated as "greater"), matching the
                    // binning rule that unseen values land high.
                    let v = row[feature as usize];
                    node = if v <= threshold {
                        left as usize
                    } else {
                        right as usize
                    };
                }
                Node::Leaf { value, index } => return (index, value),
            }
        }
    }

    /// The additive output for a raw feature row.
    pub fn predict(&self, row: &[f32]) -> f64 {
        self.route(row).1
    }

    /// The leaf index for a raw feature row (GBDT+LR transform).
    pub fn leaf_index(&self, row: &[f32]) -> u32 {
        self.route(row).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built tree:
    ///         f0 <= 1.0
    ///        /          \
    ///   leaf0(-1.0)   f1 <= 5.0
    ///                /        \
    ///           leaf1(2.0)  leaf2(3.0)
    fn demo_tree() -> Tree {
        Tree::from_nodes(
            vec![
                Node::Split {
                    feature: 0,
                    threshold: 1.0,
                    left: 1,
                    right: 2,
                },
                Node::Leaf {
                    value: -1.0,
                    index: 0,
                },
                Node::Split {
                    feature: 1,
                    threshold: 5.0,
                    left: 3,
                    right: 4,
                },
                Node::Leaf {
                    value: 2.0,
                    index: 1,
                },
                Node::Leaf {
                    value: 3.0,
                    index: 2,
                },
            ],
            3,
        )
    }

    #[test]
    fn routing_follows_thresholds() {
        let t = demo_tree();
        assert_eq!(t.route(&[0.5, 0.0]), (0, -1.0));
        assert_eq!(t.route(&[1.0, 0.0]), (0, -1.0)); // boundary goes left
        assert_eq!(t.route(&[2.0, 4.0]), (1, 2.0));
        assert_eq!(t.route(&[2.0, 6.0]), (2, 3.0));
    }

    #[test]
    fn nan_routes_right() {
        let t = demo_tree();
        assert_eq!(t.route(&[f32::NAN, 6.0]).0, 2);
    }

    #[test]
    fn stump_always_returns_value() {
        let t = Tree::stump(0.25);
        assert_eq!(t.predict(&[1.0, 2.0, 3.0]), 0.25);
        assert_eq!(t.leaf_index(&[9.0]), 0);
        assert_eq!(t.n_leaves(), 1);
    }

    #[test]
    fn leaf_indices_are_dense() {
        let t = demo_tree();
        let mut seen = [false; 3];
        for node in t.nodes() {
            if let Node::Leaf { index, .. } = node {
                seen[*index as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(t.n_leaves(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let t = demo_tree();
        let json = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
