//! The multi-hot design matrix produced by the GBDT+LR transform.
//!
//! Every row has exactly `nnz_per_row` active columns (one leaf per tree),
//! all with implicit value 1.0. Storing only the active column indices
//! makes the logistic-regression forward/backward passes `O(rows × trees)`
//! instead of `O(rows × total_leaves)`.
//!
//! The constructor validates every index against `n_cols` once; the
//! blocked dot product ([`MultiHotMatrix::dot_block`]) relies on that
//! invariant to read the weight vector without per-element bounds checks.

use crate::simd::BLOCK_ROWS;

/// A binary matrix with a fixed number of ones per row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiHotMatrix {
    n_cols: usize,
    nnz_per_row: usize,
    /// Row-major active indices: row `i` owns
    /// `indices[i*nnz_per_row..(i+1)*nnz_per_row]`.
    indices: Vec<u32>,
}

/// Errors from matrix construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// `indices.len()` is not a multiple of `nnz_per_row`.
    RaggedRows { len: usize, nnz_per_row: usize },
    /// An index is out of the column range.
    IndexOutOfRange { index: u32, n_cols: usize },
    /// `nnz_per_row` was zero.
    EmptyRows,
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::RaggedRows { len, nnz_per_row } => {
                write!(
                    f,
                    "{len} indices is not a multiple of {nnz_per_row} per row"
                )
            }
            SparseError::IndexOutOfRange { index, n_cols } => {
                write!(f, "column index {index} out of range {n_cols}")
            }
            SparseError::EmptyRows => write!(f, "nnz_per_row must be positive"),
        }
    }
}

impl std::error::Error for SparseError {}

impl MultiHotMatrix {
    /// Wrap flat row-major indices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] on ragged input or out-of-range indices.
    pub fn new(indices: Vec<u32>, nnz_per_row: usize, n_cols: usize) -> Result<Self, SparseError> {
        if nnz_per_row == 0 {
            return Err(SparseError::EmptyRows);
        }
        if !indices.len().is_multiple_of(nnz_per_row) {
            return Err(SparseError::RaggedRows {
                len: indices.len(),
                nnz_per_row,
            });
        }
        if let Some(&bad) = indices.iter().find(|&&i| i as usize >= n_cols) {
            return Err(SparseError::IndexOutOfRange { index: bad, n_cols });
        }
        Ok(MultiHotMatrix {
            n_cols,
            nnz_per_row,
            indices,
        })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.indices.len() / self.nnz_per_row
    }

    /// Number of columns (the LR parameter dimension `N`).
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Active positions per row (the number of GBDT trees).
    pub fn nnz_per_row(&self) -> usize {
        self.nnz_per_row
    }

    /// The full flat row-major index stream (row `i` owns the slice
    /// `[i*nnz_per_row, (i+1)*nnz_per_row)`). Used by golden-style tests
    /// to compare two matrices byte for byte.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Active column indices of one row.
    pub fn row(&self, row: usize) -> &[u32] {
        &self.indices[row * self.nnz_per_row..(row + 1) * self.nnz_per_row]
    }

    /// `θᵀx` for a multi-hot row: the sum of the touched weights.
    pub fn dot_row(&self, row: usize, weights: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), self.n_cols);
        self.row(row).iter().map(|&i| weights[i as usize]).sum()
    }

    /// Batch `θᵀx` over a row subset: `out[k] = dot_row(rows[k], weights)`.
    /// Offline predict and the serve engine's `score_batch` both route
    /// through this one inner loop: [`BLOCK_ROWS`]-row blocks through
    /// [`MultiHotMatrix::dot_block`] with a per-row tail, bit-identical
    /// to [`Self::dot_row`] (each row's sum adds the same weights in the
    /// same order).
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != rows.len()`.
    pub fn dot_rows_into(&self, rows: &[u32], weights: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), rows.len(), "output must match the row count");
        let mut blocks = rows.chunks_exact(BLOCK_ROWS);
        let mut outs = out.chunks_exact_mut(BLOCK_ROWS);
        for (block, ob) in (&mut blocks).zip(&mut outs) {
            let mut acc = [0.0; BLOCK_ROWS];
            self.dot_block(block, weights, &mut acc);
            ob.copy_from_slice(&acc);
        }
        for (o, &r) in outs.into_remainder().iter_mut().zip(blocks.remainder()) {
            *o = self.dot_row(r as usize, weights);
        }
    }

    /// `θᵀx` of a full [`BLOCK_ROWS`]-row block: `acc[k] += ` the dot of
    /// row `rows[k]`, all eight rows advanced one active column per
    /// outer step. Eight independent accumulator chains give the CPU
    /// cross-row ILP without staging the weights through a scratch
    /// buffer; each row's additions happen in the same ascending-`j`
    /// order as [`Self::dot_row`]'s sequential fold, so the result is
    /// bit-identical to eight scalar dots.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len() != BLOCK_ROWS` or
    /// `weights.len() != n_cols`.
    // The crate's one `unsafe`: the unchecked gather below.
    #[allow(unsafe_code)]
    pub fn dot_block(&self, rows: &[u32], weights: &[f64], acc: &mut [f64; BLOCK_ROWS]) {
        let nnz = self.nnz_per_row;
        assert_eq!(rows.len(), BLOCK_ROWS, "dot_block needs a full block");
        assert_eq!(weights.len(), self.n_cols, "weight vector shape");
        let mut base = [0usize; BLOCK_ROWS];
        for (b, &r) in base.iter_mut().zip(rows) {
            *b = r as usize * nnz;
            assert!(*b + nnz <= self.indices.len(), "row in range");
        }
        for j in 0..nnz {
            for k in 0..BLOCK_ROWS {
                // SAFETY: base[k] + j < base[k] + nnz <= indices.len()
                // (asserted above), and the constructor rejected any
                // index >= n_cols == weights.len().
                unsafe {
                    let c = *self.indices.get_unchecked(base[k] + j);
                    acc[k] += *weights.get_unchecked(c as usize);
                }
            }
        }
    }

    /// Scatter-add `coef` into the touched weights of a row
    /// (`out += coef · x_row`).
    pub fn scatter_add(&self, row: usize, coef: f64, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_cols);
        for &i in self.row(row) {
            out[i as usize] += coef;
        }
    }

    /// Densify one row (testing / interop).
    pub fn densify_row(&self, row: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n_cols];
        for &i in self.row(row) {
            out[i as usize] += 1.0;
        }
        out
    }

    /// Densify the whole matrix, row-major (testing / interop).
    pub fn densify(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_rows() * self.n_cols);
        for r in 0..self.n_rows() {
            out.extend_from_slice(&self.densify_row(r));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> MultiHotMatrix {
        // 3 rows, 2 active per row, 5 columns.
        MultiHotMatrix::new(vec![0, 2, 1, 3, 2, 4], 2, 5).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let m = demo();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 5);
        assert_eq!(m.nnz_per_row(), 2);
        assert_eq!(m.row(1), &[1, 3]);
    }

    #[test]
    fn dot_row_sums_touched_weights() {
        let m = demo();
        let w = [1.0, 10.0, 100.0, 1000.0, 10000.0];
        assert_eq!(m.dot_row(0, &w), 101.0);
        assert_eq!(m.dot_row(1, &w), 1010.0);
        assert_eq!(m.dot_row(2, &w), 10100.0);
    }

    #[test]
    fn dot_rows_into_matches_per_row_dots() {
        let m = demo();
        let w = [1.0, 10.0, 100.0, 1000.0, 10000.0];
        let rows = [2u32, 0, 1];
        let mut out = vec![0.0; 3];
        m.dot_rows_into(&rows, &w, &mut out);
        assert_eq!(out, vec![10100.0, 101.0, 1010.0]);
    }

    #[test]
    fn blocked_and_scalar_dot_rows_are_bitwise_identical() {
        // 19 rows: two full blocks plus an odd tail of 3.
        let n_cols = 9;
        let nnz = 3;
        let indices: Vec<u32> = (0..19 * nnz)
            .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9) % n_cols as u64) as u32)
            .collect();
        let m = MultiHotMatrix::new(indices, nnz, n_cols).unwrap();
        let w: Vec<f64> = (0..n_cols).map(|i| (i as f64) * 0.73 - 2.1).collect();
        let rows: Vec<u32> = (0..19u32).rev().collect();
        let mut blocked = vec![0.0; 19];
        m.dot_rows_into(&rows, &w, &mut blocked);
        let scalar: Vec<f64> = rows.iter().map(|&r| m.dot_row(r as usize, &w)).collect();
        assert_eq!(blocked, scalar);
    }

    #[test]
    fn scatter_add_accumulates() {
        let m = demo();
        let mut out = vec![0.0; 5];
        m.scatter_add(0, 2.0, &mut out);
        m.scatter_add(1, -1.0, &mut out);
        assert_eq!(out, vec![2.0, -1.0, 2.0, -1.0, 0.0]);
    }

    #[test]
    fn densify_matches_sparse_ops() {
        let m = demo();
        let dense = m.densify();
        let w = [0.5, -1.0, 2.0, 0.0, 3.0];
        for r in 0..3 {
            let direct = m.dot_row(r, &w);
            let via_dense: f64 = dense[r * 5..(r + 1) * 5]
                .iter()
                .zip(&w)
                .map(|(&x, &wi)| x * wi)
                .sum();
            assert!((direct - via_dense).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_ragged() {
        assert_eq!(
            MultiHotMatrix::new(vec![0, 1, 2], 2, 5).unwrap_err(),
            SparseError::RaggedRows {
                len: 3,
                nnz_per_row: 2
            }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            MultiHotMatrix::new(vec![0, 9], 2, 5).unwrap_err(),
            SparseError::IndexOutOfRange {
                index: 9,
                n_cols: 5
            }
        );
    }

    #[test]
    fn rejects_zero_nnz() {
        assert_eq!(
            MultiHotMatrix::new(vec![], 0, 5).unwrap_err(),
            SparseError::EmptyRows
        );
    }

    #[test]
    fn empty_matrix_is_fine() {
        let m = MultiHotMatrix::new(vec![], 3, 10).unwrap();
        assert_eq!(m.n_rows(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn dense_and_sparse_dot_agree(
                rows in 1usize..10,
                nnz in 1usize..5,
                seed in 0u64..500,
            ) {
                let n_cols = 12;
                let indices: Vec<u32> = (0..rows * nnz)
                    .map(|i| {
                        let h = (i as u64 + 1).wrapping_mul(seed.wrapping_add(0x9E3779B9));
                        (h % n_cols as u64) as u32
                    })
                    .collect();
                let m = MultiHotMatrix::new(indices, nnz, n_cols).unwrap();
                let w: Vec<f64> = (0..n_cols).map(|i| (i as f64) * 0.37 - 1.1).collect();
                let dense = m.densify();
                for r in 0..rows {
                    let direct = m.dot_row(r, &w);
                    let via: f64 = dense[r * n_cols..(r + 1) * n_cols]
                        .iter().zip(&w).map(|(&x, &wi)| x * wi).sum();
                    prop_assert!((direct - via).abs() < 1e-10);
                }
            }
        }
    }
}
