//! Quantile binning: the "histogram" in histogram-based GBDT.
//!
//! Each feature is discretized into at most 255 bins whose edges are
//! (approximate) quantiles of the training distribution. Training then
//! works on `u8` bin codes, which makes split finding a pass over ≤255
//! histogram slots instead of a sort over all values — the core LightGBM
//! trick.
//!
//! [`BinMapper::fit`] and [`BinMapper::bin`] are the per-value reference.
//! [`BinnedDataset::fit`] reaches the same edges and codes by one radix
//! sort per column, and also keeps each feature's rows grouped by bin for
//! the root's bin-by-bin histogram pass.

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
    /// (categorical-coded) features get one bin per value. −0.0 and +0.0
    /// are one value, and an edge there is stored as +0.0 whatever the
    /// row order.
    pub fn fit(values: &[f32], max_bins: usize) -> Self {
        assert!((1..=255).contains(&max_bins), "1..=255 bins supported");
        let mut sorted: Vec<f32> = values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .map(positive_zero)
            .collect();
        // Finite values never compare unordered, so the fallback is dead:
        // the sort makes the same comparisons as with `expect`, without
        // a panic path in its inner loop.
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
        sorted.dedup();
        BinMapper {
            edges: quantile_edges(&sorted, max_bins),
        }
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

/// `-0.0` as `+0.0`; every other value unchanged.
fn positive_zero(v: f32) -> f32 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Bin edges over a feature's ascending distinct finite values.
fn quantile_edges(distinct: &[f32], max_bins: usize) -> Vec<f32> {
    if distinct.is_empty() {
        return vec![0.0];
    }
    if distinct.len() <= max_bins {
        return distinct.to_vec();
    }
    // Evenly spaced quantiles over the distinct values. Using distinct
    // values (not raw ranks) keeps heavily-tied features from wasting
    // bins on duplicates of the same value.
    let mut edges = Vec::with_capacity(max_bins);
    for b in 1..=max_bins {
        let q = b as f64 / max_bins as f64;
        let idx = ((q * distinct.len() as f64).ceil() as usize - 1).min(distinct.len() - 1);
        edges.push(distinct[idx]);
    }
    edges.dedup();
    edges
}

/// An order-preserving key: finite values compare as their keys do, with
/// `-0.0` keyed as `+0.0`; −∞ and +∞ key below and above every finite
/// value, and every NaN above +∞.
fn sort_key(v: f32) -> u32 {
    if v.is_nan() {
        return u32::MAX;
    }
    let bits = positive_zero(v).to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The value of a non-NaN [`sort_key`].
fn key_value(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 {
        key & !(1 << 31)
    } else {
        !key
    })
}

/// Stable LSD radix sort of `(key << 32) | payload` items by key, one
/// byte per pass; a pass whose byte all items share is skipped.
fn radix_sort(items: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    let mut counts = [[0usize; 256]; 4];
    for &item in items.iter() {
        for (d, count) in counts.iter_mut().enumerate() {
            count[(item >> (32 + 8 * d)) as usize & 0xFF] += 1;
        }
    }
    for (d, count) in counts.iter().enumerate() {
        if count.contains(&items.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut start = 0;
        for (slot, &n) in next.iter_mut().zip(count) {
            *slot = start;
            start += n;
        }
        scratch.resize(items.len(), 0);
        for &item in items.iter() {
            let slot = &mut next[(item >> (32 + 8 * d)) as usize & 0xFF];
            scratch[*slot] = item;
            *slot += 1;
        }
        std::mem::swap(items, scratch);
    }
}

/// One column's mapper and codes from its `(key << 32) | row` items in
/// [`sort_key`] order: the distinct finite values are read off the order,
/// and codes are assigned walking it, the bin advancing past every edge
/// below the value.
fn bin_sorted(sorted: &[u64], max_bins: usize) -> (BinMapper, Vec<u8>) {
    let key = |item: u64| (item >> 32) as u32;
    let (lowest, highest) = (sort_key(f32::NEG_INFINITY), sort_key(f32::INFINITY));
    let mut distinct: Vec<u32> = sorted
        .iter()
        .map(|&item| key(item))
        .filter(|&k| k != lowest)
        .take_while(|&k| k < highest)
        .collect();
    distinct.dedup();
    let values: Vec<f32> = distinct.into_iter().map(key_value).collect();
    let mapper = BinMapper {
        edges: quantile_edges(&values, max_bins),
    };
    let edge_keys: Vec<u32> = mapper.edges.iter().map(|&e| sort_key(e)).collect();
    let last = edge_keys.len() - 1;
    let mut codes = vec![0u8; sorted.len()];
    let mut bin = 0;
    for &item in sorted {
        while bin < last && edge_keys[bin] < key(item) {
            bin += 1;
        }
        codes[item as u32 as usize] = bin as u8;
    }
    (mapper, codes)
}

/// Rows per block of [`BinRows`]: an offset within a block fits `u16`.
pub(crate) const BLOCK_ROWS: usize = 1 << 16;

/// One feature's rows grouped by bin code, ascending within each bin, as
/// `u16` offsets within their [`BLOCK_ROWS`]-row block: bin after bin, and
/// within a bin, block after block. Two bytes per row at any row count.
#[derive(Debug, Clone)]
pub(crate) struct BinRows {
    offsets: Vec<u16>,
    /// `bounds[b * n_blocks + k]..bounds[b * n_blocks + k + 1]` spans bin
    /// `b`'s rows in block `k`.
    bounds: Vec<usize>,
    n_blocks: usize,
}

impl BinRows {
    /// Group `codes` (all below `n_bins`) by bin, one counting pass.
    fn group(codes: &[u8], n_bins: usize) -> Self {
        let n_blocks = codes.len().div_ceil(BLOCK_ROWS).max(1);
        let slot = |r: usize, code: u8| usize::from(code) * n_blocks + r / BLOCK_ROWS;
        let mut bounds = vec![0usize; n_bins * n_blocks + 1];
        for (r, &code) in codes.iter().enumerate() {
            bounds[slot(r, code) + 1] += 1;
        }
        for s in 1..bounds.len() {
            bounds[s] += bounds[s - 1];
        }
        let mut next = bounds.clone();
        let mut offsets = vec![0u16; codes.len()];
        for (r, &code) in codes.iter().enumerate() {
            let at = &mut next[slot(r, code)];
            offsets[*at] = r as u16;
            *at += 1;
        }
        BinRows {
            offsets,
            bounds,
            n_blocks,
        }
    }

    /// Number of bins.
    pub(crate) fn n_bins(&self) -> usize {
        (self.bounds.len() - 1) / self.n_blocks
    }

    /// Number of [`BLOCK_ROWS`]-row blocks.
    pub(crate) fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Rows of bin `bin` in block `block`, ascending, as offsets from
    /// `block * BLOCK_ROWS`.
    pub(crate) fn segment(&self, bin: usize, block: usize) -> &[u16] {
        let s = bin * self.n_blocks + block;
        &self.offsets[self.bounds[s]..self.bounds[s + 1]]
    }

    /// Number of rows in bin `bin`.
    pub(crate) fn bin_len(&self, bin: usize) -> usize {
        self.bounds[(bin + 1) * self.n_blocks] - self.bounds[bin * self.n_blocks]
    }
}

/// Features gathered per pass over the matrix in [`BinnedDataset::fit`]:
/// sixteen `f32`s, one cache line per row.
const LINE: usize = 16;

#[derive(Clone, Copy)]
#[repr(align(64))]
struct Line([f32; LINE]);

/// A fully binned training set, column-major.
#[derive(Debug, Clone)]
pub struct BinnedDataset {
    mappers: Vec<BinMapper>,
    /// `codes[f]` holds the bin code of every row for feature `f`.
    codes: Vec<Vec<u8>>,
    /// `rows[f]` holds feature `f`'s rows grouped by bin.
    rows: Vec<BinRows>,
    n_rows: usize,
}

impl BinnedDataset {
    /// Bin a row-major feature matrix (`n_rows × n_features`).
    ///
    /// Each column's mapper and codes equal [`BinMapper::fit`] and
    /// [`BinMapper::bin`]'s, found by one radix sort of the column (see
    /// `bin_sorted`). Columns are gathered sixteen at a time through a
    /// buffer of one cache line per row, not a transposed copy of the
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is not a multiple of `n_features`, or if
    /// `max_bins` is outside `1..=255`.
    pub fn fit(features: &[f32], n_features: usize, max_bins: usize) -> Self {
        assert!(n_features > 0, "need at least one feature");
        assert_eq!(
            features.len() % n_features,
            0,
            "matrix length must be a multiple of the width"
        );
        assert!((1..=255).contains(&max_bins), "1..=255 bins supported");
        let n_rows = features.len() / n_features;
        let mut mappers = Vec::with_capacity(n_features);
        let mut codes = Vec::with_capacity(n_features);
        let mut rows = Vec::with_capacity(n_features);
        let mut lines = vec![Line([0.0; LINE]); n_rows];
        let mut sorted = Vec::with_capacity(n_rows);
        let mut scratch = Vec::with_capacity(n_rows);
        for first in (0..n_features).step_by(LINE) {
            let width = LINE.min(n_features - first);
            for (line, row) in lines.iter_mut().zip(features.chunks_exact(n_features)) {
                line.0[..width].copy_from_slice(&row[first..first + width]);
            }
            for k in 0..width {
                sorted.clear();
                sorted.extend(
                    lines
                        .iter()
                        .zip(0u64..)
                        .map(|(line, r)| u64::from(sort_key(line.0[k])) << 32 | r),
                );
                radix_sort(&mut sorted, &mut scratch);
                let (mapper, col_codes) = bin_sorted(&sorted, max_bins);
                rows.push(BinRows::group(&col_codes, mapper.n_bins()));
                codes.push(col_codes);
                mappers.push(mapper);
            }
        }
        BinnedDataset {
            mappers,
            codes,
            rows,
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

    /// Every feature's rows grouped by bin, feature after feature.
    pub(crate) fn bin_rows(&self) -> &[BinRows] {
        &self.rows
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

    /// Sorting calls −0.0 and +0.0 equal, so which of them survived
    /// deduplication used to depend on the row order; both paths now
    /// store +0.0, so the bundle's threshold bytes do not.
    #[test]
    fn zero_edge_is_positive_zero_in_every_row_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        // 128 distinct values −63..=64: zero sits at sorted index 63, an
        // edge at 64 bins as well as at 255, and both signs of it occur.
        let mut column: Vec<f32> = (0..280).map(|i| (i % 128) as f32 - 63.0).collect();
        column.extend([-0.0; 10]);
        column.extend([0.0; 10]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for _ in 0..200 {
            column.shuffle(&mut rng);
            for max_bins in [64, 255] {
                let dataset = BinnedDataset::fit(&column, 1, max_bins);
                for mapper in [&BinMapper::fit(&column, max_bins), dataset.mapper(0)] {
                    let zero = (0..mapper.n_bins() as u8)
                        .map(|b| mapper.upper_edge(b))
                        .find(|&e| e == 0.0)
                        .expect("zero is an edge");
                    assert_eq!(zero.to_bits(), 0, "a -0.0 edge at {max_bins} bins");
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

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

            /// The radix path against the per-value reference, column by
            /// column: mappers with the same edge bits, the same codes, and
            /// rows grouped under their codes in ascending order. Columns
            /// are continuous, duplicated (with both zeros), constant, all
            /// non-finite, or mixed with NaN, ±∞ and ±0.0; 1–20 of them
            /// cross the 16-feature gather blocks, and the bin budget falls
            /// both below and above the distinct-value counts.
            #[test]
            fn dataset_binning_matches_per_column_reference(
                kinds in proptest::collection::vec(0u8..6, 1..=20),
                raw in proptest::collection::vec(
                    (proptest::collection::vec(0u8..=255, 20), proptest::collection::vec(-1e4f32..1e4, 20)),
                    0..300,
                ),
                max_bins in 1usize..=255,
            ) {
                let value = |kind: u8, sel: u8, x: f32| match kind {
                    0 => x,
                    1 if sel % 9 == 4 && sel % 2 == 1 => -0.0,
                    1 => f32::from(sel % 9) - 4.0,
                    2 => 3.5,
                    3 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][usize::from(sel % 3)],
                    4 => match sel % 10 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => -0.0,
                        4 => 0.0,
                        _ => x.round(),
                    },
                    _ => (x / 64.0).round() / 8.0,
                };
                let n_features = kinds.len();
                let feats: Vec<f32> = raw
                    .iter()
                    .flat_map(|(sel, x)| (0..n_features).map(move |f| (f, sel[f], x[f])))
                    .map(|(f, sel, x)| value(kinds[f], sel, x))
                    .collect();
                let data = BinnedDataset::fit(&feats, n_features.max(1), max_bins);
                prop_assert_eq!(data.n_rows(), raw.len());
                for f in 0..n_features {
                    let column: Vec<f32> = feats.iter().skip(f).step_by(n_features).copied().collect();
                    let want = BinMapper::fit(&column, max_bins);
                    let got = data.mapper(f);
                    prop_assert_eq!(got.n_bins(), want.n_bins());
                    for b in 0..want.n_bins() as u8 {
                        prop_assert_eq!(got.upper_edge(b).to_bits(), want.upper_edge(b).to_bits());
                    }
                    let codes = data.feature_codes(f);
                    for (&code, &v) in codes.iter().zip(&column) {
                        prop_assert_eq!(code, want.bin(v));
                    }
                    let grouped = &data.bin_rows()[f];
                    prop_assert_eq!(grouped.n_bins(), want.n_bins());
                    for b in 0..want.n_bins() {
                        let rows: Vec<usize> = (0..grouped.n_blocks())
                            .flat_map(|k| grouped.segment(b, k).iter().map(move |&o| k * BLOCK_ROWS + usize::from(o)))
                            .collect();
                        let want_rows: Vec<usize> = (0..codes.len()).filter(|&r| usize::from(codes[r]) == b).collect();
                        prop_assert_eq!(grouped.bin_len(b), want_rows.len());
                        prop_assert_eq!(rows, want_rows);
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
