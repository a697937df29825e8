//! SIMD row-block kernel support: the shared vectorizable primitives of
//! the LR hot path.
//!
//! The serial kernels in [`crate::lr`] process one row at a time; every
//! row's `θᵀx` is a chain of `nnz_per_row` dependent additions, so the
//! CPU spends the whole loop waiting on add latency. This module provides
//! the building blocks for the **row-block** kernels in
//! [`crate::kernels`]:
//!
//! - [`BLOCK_ROWS`]-wide structure-of-arrays helpers — [`axpy`] /
//!   [`axpy_neg`] are explicit lane-chunked elementwise updates;
//! - [`sigmoid_softplus`] — the fused forward nonlinearity that derives
//!   `σ(z)` and `softplus(z)` from **one** `exp` (the serial reference
//!   computes two) while producing bit-identical values.
//!
//! # Determinism contract
//!
//! The blocked kernels are **bit-identical** to the serial reference in
//! [`crate::lr`], their one oracle: vectorization happens *across* the
//! rows of a block (independent accumulator per row), never *within* a
//! row's reduction, so every per-row floating-point operation sequence —
//! the `θᵀx` addition order, the `exp`/`ln_1p` calls, the scatter order
//! into the gradient — is exactly the serial kernel's. Lane order inside
//! each [`crate::kernels::CHUNK_ROWS`] chunk is fixed by the row order,
//! and the chunk merge is ordered, so results do not depend on the
//! thread count or the batch split. Tests in
//! `crates/core/tests/simd_kernels.rs` assert exact equality.

/// Rows processed per block by the vectorized kernels. Eight rows give
/// eight independent accumulator chains — enough to hide f64 add latency
/// — and fill two AVX2 (or one AVX-512) register per lane step.
pub const BLOCK_ROWS: usize = 8;

/// Fused `(σ(z), softplus(z))` from one `exp`.
///
/// Bit-identical to [`crate::lr::sigmoid`] and the reference softplus
/// (`if z > 0 { z + ln_1p(exp(−z)) } else { ln_1p(exp(z)) }`): both
/// derive from the same `exp(−|z|)` the reference computes, merely
/// sharing the evaluation. At `z == 0` both formulations yield exactly
/// `0.5` and `ln 2`.
#[inline]
pub fn sigmoid_softplus(z: f64) -> (f64, f64) {
    if z > 0.0 {
        let e = (-z).exp();
        (1.0 / (1.0 + e), z + e.ln_1p())
    } else {
        let e = z.exp();
        (e / (1.0 + e), e.ln_1p())
    }
}

/// Elementwise `out[i] += a * x[i]`, lane-chunked so the compiler emits
/// vector mul+add. Each element is independent and the operation order
/// per element is unchanged, so this is bit-identical to the scalar loop
/// (no FMA contraction: `a * x` and `+` stay separate rounded ops).
///
/// # Panics
///
/// Panics (debug) when lengths differ.
#[inline]
pub fn axpy(out: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(out.len(), x.len());
    let n = out.len() - out.len() % BLOCK_ROWS;
    let (out_blocks, out_tail) = out.split_at_mut(n);
    let (x_blocks, x_tail) = x.split_at(n);
    for (ob, xb) in out_blocks
        .chunks_exact_mut(BLOCK_ROWS)
        .zip(x_blocks.chunks_exact(BLOCK_ROWS))
    {
        for k in 0..BLOCK_ROWS {
            ob[k] += a * xb[k];
        }
    }
    for (o, &xi) in out_tail.iter_mut().zip(x_tail) {
        *o += a * xi;
    }
}

/// Elementwise `out[i] -= a * x[i]` (the inner-step update
/// `θ̄ = θ − α∇R`), lane-chunked like [`axpy`].
#[inline]
pub fn axpy_neg(out: &mut [f64], a: f64, x: &[f64]) {
    axpy(out, -a, x);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_softplus_matches_reference_bitwise() {
        for z in [
            -700.0, -30.0, -2.0, -1e-12, -0.0, 0.0, 1e-12, 0.5, 2.0, 30.0, 700.0,
        ] {
            let (sig, sp) = sigmoid_softplus(z);
            let ref_sig = crate::lr::sigmoid(z);
            let ref_sp = if z > 0.0 {
                z + (-z).exp().ln_1p()
            } else {
                z.exp().ln_1p()
            };
            assert_eq!(sig.to_bits(), ref_sig.to_bits(), "sigmoid at z={z}");
            assert_eq!(sp.to_bits(), ref_sp.to_bits(), "softplus at z={z}");
        }
        let (sig, sp) = sigmoid_softplus(f64::NAN);
        assert!(sig.is_nan() && sp.is_nan());
    }

    #[test]
    fn axpy_matches_scalar_loop_bitwise() {
        let x: Vec<f64> = (0..19).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let mut out: Vec<f64> = (0..19).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let mut reference = out.clone();
        axpy(&mut out, 0.37, &x);
        for (r, &xi) in reference.iter_mut().zip(&x) {
            *r += 0.37 * xi;
        }
        assert_eq!(out, reference);
        let mut neg = vec![1.0; 19];
        axpy_neg(&mut neg, 2.0, &x);
        for (n, &xi) in neg.iter().zip(&x) {
            assert_eq!(n.to_bits(), (1.0 - 2.0 * xi).to_bits());
        }
    }
}
