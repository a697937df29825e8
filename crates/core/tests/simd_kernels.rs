//! Bit-exactness of the vectorized row-block kernels.
//!
//! The row blocks promise to be an *implementation detail*: for any shape
//! (including odd tails and row counts that are not a multiple of
//! `BLOCK_ROWS`) they must produce, on a single chunk, the same bits as
//! the serial reference in `lr` — the one oracle — and, across chunks,
//! the same bits at any thread count. These tests enforce that promise
//! with property tests over random shapes and with multi-chunk runs under
//! rayon pools of different widths.

use lightmirm_core::kernels;
use lightmirm_core::lr;
use lightmirm_core::prelude::*;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;

/// Deterministic multi-hot instance: `rows` rows, `nnz` active columns
/// each, hashed indices, alternating-ish labels.
fn instance(rows: usize, n_cols: usize, nnz: usize, seed: u64) -> (MultiHotMatrix, Vec<u8>) {
    let idx: Vec<u32> = (0..rows * nnz)
        .map(|i| {
            let h = (i as u64 + 1).wrapping_mul(seed | 1).rotate_left(17);
            (h % n_cols as u64) as u32
        })
        .collect();
    let x = MultiHotMatrix::new(idx, nnz, n_cols).expect("well-formed");
    let y: Vec<u8> = (0..rows)
        .map(|i| ((i as u64).wrapping_mul(seed | 1) >> 7).is_multiple_of(3) as u8)
        .collect();
    (x, y)
}

fn theta_for(n_cols: usize, seed: u64) -> Vec<f64> {
    (0..n_cols)
        .map(|i| ((i as f64) * 0.37 - 1.2) * (0.1 + (seed % 7) as f64 * 0.15))
        .collect()
}

/// The HVP direction every run uses.
fn direction(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.21 * i as f64 - 0.9).collect()
}

/// The seven kernel outputs, in one tuple for comparison: fused loss,
/// fused gradient, cached logits, HVP, predictions, gradient, loss.
type KernelOutputs = (f64, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, f64);

/// Every row-block kernel.
fn run_blocked(
    x: &MultiHotMatrix,
    y: &[u8],
    theta: &[f64],
    rows: &[u32],
    reg: f64,
) -> KernelOutputs {
    let n = theta.len();
    let v = direction(n);
    let mut grad = vec![0.0; n];
    let mut logits = vec![0.0; rows.len()];
    let loss = kernels::env_loss_grad_cached(theta, x, y, rows, reg, &mut grad, &mut logits);
    let mut hvp = vec![0.0; n];
    kernels::hvp_from_logits(&logits, x, rows, reg, &v, &mut hvp);
    let mut preds = vec![0.0; rows.len()];
    kernels::predict_rows_into(theta, x, rows, &mut preds);
    let mut g2 = vec![0.0; n];
    kernels::env_grad(theta, x, y, rows, reg, &mut g2);
    let l2 = kernels::env_loss(theta, x, y, rows, reg);
    (loss, grad, logits, hvp, preds, g2, l2)
}

/// The same seven outputs from the serial `lr` kernels and per-row dots.
fn run_oracle(
    x: &MultiHotMatrix,
    y: &[u8],
    theta: &[f64],
    rows: &[u32],
    reg: f64,
) -> KernelOutputs {
    let n = theta.len();
    let loss = lr::env_loss(theta, x, y, rows, reg);
    let mut grad = vec![0.0; n];
    lr::env_grad(theta, x, y, rows, reg, &mut grad);
    let logits: Vec<f64> = rows.iter().map(|&r| x.dot_row(r as usize, theta)).collect();
    let mut hvp = vec![0.0; n];
    lr::env_hvp(theta, x, y, rows, reg, &direction(n), &mut hvp);
    let preds = logits.iter().map(|&z| lr::sigmoid(z)).collect();
    (loss, grad.clone(), logits, hvp, preds, grad, loss)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a single chunk every row-block kernel equals the serial `lr`
    /// oracle to the bit, across random shapes: row counts that are not
    /// multiples of the block width, nnz from 1 (degenerate) up past a
    /// vector register, shuffled row subsets, with and without L2.
    #[test]
    fn simd_matches_serial_reference_bitwise(
        rows in 1usize..600,
        n_cols in 2usize..40,
        nnz in 1usize..20,
        seed in 0u64..1000,
        reg_choice in 0usize..3,
    ) {
        let reg = [0.0, 0.05, 1.3][reg_choice];
        let (x, y) = instance(rows, n_cols, nnz, seed);
        let theta = theta_for(n_cols, seed);
        // Shuffled subset so gathers are not contiguous.
        let mut subset: Vec<u32> = (0..rows as u32).collect();
        subset.reverse();
        subset.rotate_left(seed as usize % rows);
        let blocked = run_blocked(&x, &y, &theta, &subset, reg);
        let oracle = run_oracle(&x, &y, &theta, &subset, reg);
        prop_assert_eq!(blocked, oracle);
    }
}

/// Multi-chunk shapes give the same bits under rayon pools of 1 and 4
/// workers (the chunk merge is ordered; parallelism only changes which
/// worker runs a chunk).
#[test]
fn simd_is_thread_invariant_across_chunks() {
    let rows = CHUNK_ROWS * 2 + 777; // three chunks, odd tail
    let (x, y) = instance(rows, 48, 8, 5);
    let theta = theta_for(48, 5);
    let all: Vec<u32> = (0..rows as u32).collect();
    let outputs: Vec<KernelOutputs> = [1usize, 4]
        .into_iter()
        .map(|threads| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| run_blocked(&x, &y, &theta, &all, 0.01))
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);
}

/// Serve-path scoring (shared `dot_rows_into` inner loop) equals per-row
/// `dot_row` on shuffled row subsets with a non-multiple-of-8 length.
#[test]
fn dot_rows_into_matches_dot_row_on_subsets() {
    let (x, _) = instance(101, 30, 7, 42);
    let theta = theta_for(30, 42);
    let rows: Vec<u32> = (0..101u32).filter(|r| r % 3 != 1).collect();
    let mut blocked = vec![0.0; rows.len()];
    x.dot_rows_into(&rows, &theta, &mut blocked);
    let per_row: Vec<f64> = rows
        .iter()
        .map(|&r| x.dot_row(r as usize, &theta))
        .collect();
    assert_eq!(blocked, per_row);
}
