//! Quantile binning: the "histogram" in histogram-based GBDT.
//!
//! Each feature is discretized into at most 255 bins whose edges are
//! (approximate) quantiles of the training distribution. Training then
//! works on `u8` bin codes, which makes split finding a pass over ≤255
//! histogram slots instead of a sort over all values — the core LightGBM
//! trick.

use std::cmp::Ordering;

/// Maps raw feature values to bin codes for one feature.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BinMapper {
    /// Ascending upper-inclusive bin edges: bin `b` holds values
    /// `edges[b-1] < v <= edges[b]`; the last bin additionally holds
    /// everything above the last edge.
    edges: Vec<f32>,
}

impl BinMapper {
    /// Build a mapper from the training values of one feature.
    ///
    /// Edges are placed at evenly spaced quantiles over the *distinct*
    /// values, so constant features get a single bin and low-cardinality
    /// (categorical-coded) features get one bin per value.
    pub fn fit(values: &[f32], max_bins: usize) -> Self {
        assert!((1..=255).contains(&max_bins), "1..=255 bins supported");
        let mut sorted: Vec<f32> = values.iter().copied().filter(|v| v.is_finite()).collect();
        // Finite values never compare unordered, so the fallback is dead:
        // the sort makes the same comparisons as with `expect`, without
        // a panic path in its inner loop.
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        sorted.dedup();
        if sorted.is_empty() {
            return BinMapper { edges: vec![0.0] };
        }
        if sorted.len() <= max_bins {
            return BinMapper { edges: sorted };
        }
        // Evenly spaced quantiles over the distinct values. Using distinct
        // values (not raw ranks) keeps heavily-tied features from wasting
        // bins on duplicates of the same value.
        let mut edges = Vec::with_capacity(max_bins);
        for b in 1..=max_bins {
            let q = b as f64 / max_bins as f64;
            let idx = ((q * sorted.len() as f64).ceil() as usize - 1).min(sorted.len() - 1);
            edges.push(sorted[idx]);
        }
        edges.dedup();
        BinMapper { edges }
    }

    /// Number of bins (codes are `0..n_bins`).
    pub fn n_bins(&self) -> usize {
        self.edges.len()
    }

    /// Map a raw value to its bin code. Values above the last edge (unseen
    /// at fit time) fall into the last bin, and so does NaN: no split
    /// threshold is ever the last bin, so NaN goes right at every split
    /// in training, as [`crate::Tree::route`] sends it.
    pub fn bin(&self, value: f32) -> u8 {
        let last = self.edges.len() - 1;
        if value.is_nan() {
            return last as u8;
        }
        // The first edge >= value.
        self.edges.partition_point(|&e| e < value).min(last) as u8
    }

    /// The raw-value threshold of a split "bin <= t": the upper edge of
    /// bin `t`, so prediction on raw values reproduces binned training.
    pub fn upper_edge(&self, bin: u8) -> f32 {
        self.edges[bin as usize]
    }
}

/// A fully binned training set, column-major.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    mappers: Vec<BinMapper>,
    /// `codes[f]` holds the bin code of every row for feature `f`.
    codes: Vec<Vec<u8>>,
    n_rows: usize,
}

impl BinnedDataset {
    /// Bin a row-major feature matrix (`n_rows × n_features`).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not a multiple of `n_features`.
    pub fn fit(features: &[f32], n_features: usize, max_bins: usize) -> Self {
        assert!(n_features > 0, "need at least one feature");
        assert_eq!(
            features.len() % n_features,
            0,
            "matrix length must be a multiple of the width"
        );
        let n_rows = features.len() / n_features;
        let mut mappers = Vec::with_capacity(n_features);
        let mut codes = Vec::with_capacity(n_features);
        let mut column = vec![0.0f32; n_rows];
        for f in 0..n_features {
            for (r, slot) in column.iter_mut().enumerate() {
                *slot = features[r * n_features + f];
            }
            let mapper = BinMapper::fit(&column, max_bins);
            let col_codes: Vec<u8> = column.iter().map(|&v| mapper.bin(v)).collect();
            mappers.push(mapper);
            codes.push(col_codes);
        }
        BinnedDataset {
            mappers,
            codes,
            n_rows,
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.mappers.len()
    }

    /// Bin codes of one feature column.
    pub fn feature_codes(&self, feature: usize) -> &[u8] {
        &self.codes[feature]
    }

    /// The mapper of one feature.
    pub fn mapper(&self, feature: usize) -> &BinMapper {
        &self.mappers[feature]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_feature_gets_one_bin() {
        let m = BinMapper::fit(&[5.0; 100], 255);
        assert_eq!(m.n_bins(), 1);
        assert_eq!(m.bin(5.0), 0);
        assert_eq!(m.bin(-1.0), 0);
        assert_eq!(m.bin(99.0), 0);
    }

    #[test]
    fn low_cardinality_gets_exact_bins() {
        let vals = [0.0f32, 1.0, 2.0, 1.0, 0.0, 2.0];
        let m = BinMapper::fit(&vals, 255);
        assert_eq!(m.n_bins(), 3);
        assert_eq!(m.bin(0.0), 0);
        assert_eq!(m.bin(1.0), 1);
        assert_eq!(m.bin(2.0), 2);
    }

    #[test]
    fn binning_respects_edges() {
        let vals: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let m = BinMapper::fit(&vals, 10);
        assert!(m.n_bins() <= 10);
        // Boundary semantics: values equal to an edge map to that bin.
        for b in 0..m.n_bins() as u8 {
            assert_eq!(m.bin(m.upper_edge(b)), b);
        }
    }

    #[test]
    fn binning_is_monotone() {
        let vals: Vec<f32> = (0..500).map(|i| (i as f32).sin() * 10.0).collect();
        let m = BinMapper::fit(&vals, 32);
        let mut sorted = vals.clone();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        for w in sorted.windows(2) {
            assert!(m.bin(w[0]) <= m.bin(w[1]));
        }
    }

    #[test]
    fn out_of_range_values_clamp() {
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let m = BinMapper::fit(&vals, 16);
        assert_eq!(m.bin(-1e9), 0);
        assert_eq!(m.bin(1e9) as usize, m.n_bins() - 1);
        assert_eq!(m.bin(f32::NAN) as usize, m.n_bins() - 1);
    }

    #[test]
    fn bins_split_mass_roughly_evenly() {
        let vals: Vec<f32> = (0..10_000).map(|i| i as f32).collect();
        let m = BinMapper::fit(&vals, 10);
        let mut counts = vec![0usize; m.n_bins()];
        for &v in &vals {
            counts[m.bin(v) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (800..=1200).contains(&c),
                "bin sizes {counts:?} should be near 1000"
            );
        }
    }

    #[test]
    fn dataset_binning_round_trip() {
        // 3 rows × 2 features.
        let feats = [1.0f32, 10.0, 2.0, 20.0, 3.0, 30.0];
        let ds = BinnedDataset::fit(&feats, 2, 255);
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.feature_codes(0), &[0, 1, 2]);
        assert_eq!(ds.feature_codes(1), &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "multiple of the width")]
    fn dataset_rejects_ragged_matrix() {
        let _ = BinnedDataset::fit(&[1.0, 2.0, 3.0], 2, 255);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn bin_codes_in_range(
                vals in proptest::collection::vec(-1e6f32..1e6, 1..200),
                max_bins in 1usize..64,
            ) {
                let m = BinMapper::fit(&vals, max_bins);
                prop_assert!(m.n_bins() <= max_bins);
                for &v in &vals {
                    prop_assert!((m.bin(v) as usize) < m.n_bins());
                }
            }

            #[test]
            fn binning_preserves_order(
                vals in proptest::collection::vec(-1e3f32..1e3, 2..100),
            ) {
                let m = BinMapper::fit(&vals, 16);
                for &a in &vals {
                    for &b in &vals {
                        if a < b {
                            prop_assert!(m.bin(a) <= m.bin(b));
                        }
                    }
                }
            }

            #[test]
            fn distinct_values_up_to_bins_are_separated(
                mut vals in proptest::collection::btree_set(-1000i32..1000, 2..20),
            ) {
                let v: Vec<f32> = vals.iter().map(|&x| x as f32).collect();
                let m = BinMapper::fit(&v, 255);
                // With enough bins, distinct values must get distinct codes.
                let codes: std::collections::BTreeSet<u8> =
                    v.iter().map(|&x| m.bin(x)).collect();
                prop_assert_eq!(codes.len(), v.len());
                vals.clear();
            }
        }
    }
}
