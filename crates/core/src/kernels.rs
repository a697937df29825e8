//! Fused, parallel logistic-regression kernels.
//!
//! The trainers' hot path is dominated by three row-loop primitives over
//! the multi-hot matrix: the environment loss (forward), its gradient
//! (backward), and the Hessian-vector product. This module provides
//!
//! 1. **Fused single-pass kernels** — [`env_loss_grad`] computes the loss
//!    and the gradient from one `θᵀx` evaluation per row (the separate
//!    [`crate::lr::env_loss`] + [`crate::lr::env_grad`] pair computes the
//!    same logit twice); the meta trainers take each meta-loss
//!    `R^e(θ̄_m)` and its gradient from it. [`env_grad_cached`] is the
//!    inner step's pass: the gradient and the per-row logits, with no
//!    loss, so the outer-loop HVP at the same `θ` can skip its own logit
//!    pass via [`hvp_from_logits`]. [`env_grad`], the gradient alone, is
//!    the single-level trainers' step. All four gradient kernels (with
//!    [`env_loss_grad_cached`]: loss, gradient and logits) share one
//!    chunk loop, with the loss sum selected at compile time; no trainer
//!    calls [`env_loss_grad_cached`] or the forward-only [`env_loss`],
//!    which remain for perfbench's probe;
//! 2. **Vectorized row-block execution** — each chunk is walked in
//!    [`crate::simd::BLOCK_ROWS`]-row blocks: the per-row `θᵀx` sums run
//!    as eight independent accumulator chains, all eight rows advanced
//!    one active column per step ([`MultiHotMatrix::dot_block`]) —
//!    vector adds across rows, with a per-row tail for the last
//!    `rows.len() % BLOCK_ROWS` rows. Per-row operation sequences are
//!    unchanged, so on a single chunk the kernels are **bit-identical**
//!    to the serial reference in [`crate::lr`], their one oracle (see
//!    [`crate::simd`] for the contract, and
//!    `crates/core/tests/simd_kernels.rs` for the proof);
//! 3. **Deterministic chunked execution** — every reduction splits the row
//!    slice at fixed [`CHUNK_ROWS`] boundaries, accumulates each chunk
//!    sequentially into chunk-local scratch, and merges the chunk results
//!    **sequentially in chunk order**. The reduction tree therefore
//!    depends only on the data, never on the parallel schedule, and the
//!    output is bit-identical for any thread count (including 1);
//! 4. A [`ScratchPool`] of per-environment buffers (`θ̄`, gradient, `u`,
//!    HVP, logit cache), so the env-parallel trainers allocate once per
//!    `fit` instead of once per epoch.

use crate::lr::sigmoid;
use crate::simd::{sigmoid_softplus, BLOCK_ROWS};
use crate::sparse::MultiHotMatrix;
use rayon::prelude::*;

/// Fixed chunk size of every parallel row reduction. Chunk boundaries are
/// a function of the row count alone, which is what makes the merge order
/// (and hence the result) independent of the thread count.
pub const CHUNK_ROWS: usize = 4096;

/// Kernel-layer metric handles, resolved once. Only the fused trainer
/// kernels record (per-call reduction latency + chunk counts); the
/// sites are gated on `obs::enabled()` so they fold away without the
/// `obs` feature.
struct KernelObs {
    fused_ns: crate::obs::HistogramHandle,
    fused_chunks: crate::obs::Counter,
    scratch_pools: crate::obs::Counter,
    scratch_allocs: crate::obs::Counter,
}

fn kobs() -> &'static KernelObs {
    static KOBS: std::sync::OnceLock<KernelObs> = std::sync::OnceLock::new();
    KOBS.get_or_init(|| {
        let reg = crate::obs::registry();
        KernelObs {
            fused_ns: reg.histogram("kernel_reduce_ns", &[("kernel", "fused")]),
            fused_chunks: reg.counter("kernel_reduce_chunks_total", &[("kernel", "fused")]),
            scratch_pools: reg.counter("kernel_scratch_pools_total", &[]),
            scratch_allocs: reg.counter("kernel_scratch_allocs_total", &[]),
        }
    })
}

/// Softplus with the reference's branch structure: `ln(1 + e^z)` computed
/// as `z + ln_1p(e^{−z})` for positive `z`.
#[inline]
fn softplus(z: f64) -> f64 {
    if z > 0.0 {
        z + (-z).exp().ln_1p()
    } else {
        z.exp().ln_1p()
    }
}

/// One row's `σ(z)` for the gradient scatter. With `LOSS`, `σ(z)` and
/// `softplus(z)` share one `exp` ([`sigmoid_softplus`]) and the row's
/// stable BCE-with-logits term `softplus(z) − y z` is added to `total`;
/// without it, `σ(z)` alone comes from [`sigmoid`]. The two `σ(z)` are the
/// same bits.
#[inline(always)]
fn row_sigmoid<const LOSS: bool>(z: f64, y: f64, total: &mut f64) -> f64 {
    if LOSS {
        let (sig, sp) = sigmoid_softplus(z);
        *total += sp - y * z;
        sig
    } else {
        sigmoid(z)
    }
}

/// One chunk of the fused pass: accumulates the `inv_n`-scaled gradient
/// over `chunk_rows` and, with `LOSS`, returns the unnormalized loss sum
/// (0 without it), optionally recording each row's logit. Eight rows'
/// dots run as independent accumulator chains
/// ([`MultiHotMatrix::dot_block`]), then each row is finished **in row
/// order** (loss accumulation and gradient scatter), so the fp operation
/// sequence matches the serial [`crate::lr`] pair exactly.
fn fused_chunk<const LOSS: bool>(
    theta: &[f64],
    x: &MultiHotMatrix,
    labels: &[u8],
    chunk_rows: &[u32],
    inv_n: f64,
    grad: &mut [f64],
    mut logits: Option<&mut [f64]>,
) -> f64 {
    let mut total = 0.0;
    let mut base = 0usize;
    let mut blocks = chunk_rows.chunks_exact(BLOCK_ROWS);
    for block in &mut blocks {
        let mut zs = [0.0; BLOCK_ROWS];
        x.dot_block(block, theta, &mut zs);
        for (k, (&r, &z)) in block.iter().zip(&zs).enumerate() {
            let r = r as usize;
            if let Some(ls) = logits.as_deref_mut() {
                ls[base + k] = z;
            }
            let y = labels[r] as f64;
            let coef = (row_sigmoid::<LOSS>(z, y, &mut total) - y) * inv_n;
            x.scatter_add(r, coef, grad);
        }
        base += BLOCK_ROWS;
    }
    for (k, &r) in blocks.remainder().iter().enumerate() {
        let r = r as usize;
        let z = x.dot_row(r, theta);
        if let Some(ls) = logits.as_deref_mut() {
            ls[base + k] = z;
        }
        let y = labels[r] as f64;
        let coef = (row_sigmoid::<LOSS>(z, y, &mut total) - y) * inv_n;
        x.scatter_add(r, coef, grad);
    }
    total
}

/// The fused pass over `rows`: the gradient into `grad_out` (zeroed
/// first), the logits into `logits_out` when given, and, with `LOSS`, the
/// loss as the return value (0 without it).
///
/// Rows are processed in fixed [`CHUNK_ROWS`] chunks, in parallel, with
/// the chunk partials merged in chunk order, so the result is
/// bit-identical for any thread count, and for `rows.len() <= CHUNK_ROWS`
/// bit-identical to the serial reference.
fn fused<const LOSS: bool>(
    theta: &[f64],
    x: &MultiHotMatrix,
    labels: &[u8],
    rows: &[u32],
    reg: f64,
    grad_out: &mut [f64],
    logits_out: Option<&mut [f64]>,
) -> f64 {
    debug_assert_eq!(grad_out.len(), theta.len());
    grad_out.fill(0.0);
    let t0 = if crate::obs::enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    };
    let inv_n = 1.0 / rows.len() as f64;
    let total = if rows.len() <= CHUNK_ROWS {
        fused_chunk::<LOSS>(theta, x, labels, rows, inv_n, grad_out, logits_out)
    } else {
        let run = |chunk: &[u32], lchunk: Option<&mut [f64]>| {
            let mut g = vec![0.0; theta.len()];
            let s = fused_chunk::<LOSS>(theta, x, labels, chunk, inv_n, &mut g, lchunk);
            (s, g)
        };
        let partials: Vec<(f64, Vec<f64>)> = match logits_out {
            Some(l) => rows
                .par_chunks(CHUNK_ROWS)
                .zip(l.par_chunks_mut(CHUNK_ROWS))
                .map(|(chunk, lchunk)| run(chunk, Some(lchunk)))
                .collect(),
            None => rows
                .par_chunks(CHUNK_ROWS)
                .map(|chunk| run(chunk, None))
                .collect(),
        };
        merge_partials(partials, grad_out)
    };
    if reg > 0.0 {
        for (g, &w) in grad_out.iter_mut().zip(theta) {
            *g += reg * w;
        }
    }
    let loss = if LOSS {
        let mut loss = total / rows.len() as f64;
        if reg > 0.0 {
            loss += reg / 2.0 * theta.iter().map(|w| w * w).sum::<f64>();
        }
        loss
    } else {
        0.0
    };
    if let Some(t0) = t0 {
        let k = kobs();
        k.fused_ns.record_duration(t0.elapsed());
        k.fused_chunks.add(rows.len().div_ceil(CHUNK_ROWS) as u64);
    }
    loss
}

/// Fused `env_loss` + `env_grad`: one logit evaluation per row feeds both
/// the loss sum and the gradient scatter. Returns the loss; writes the
/// gradient into `grad_out` (zeroed first). The meta trainers score each
/// `θ̄_m` with it, and take the meta-gradient from the same pass.
///
/// Rows are processed in fixed [`CHUNK_ROWS`] chunks, in parallel, with
/// the chunk partials merged in chunk order — the result is bit-identical
/// for any thread count, and for `rows.len() <= CHUNK_ROWS` bit-identical
/// to the serial reference pair.
///
/// # Panics
///
/// Panics when `rows` is empty — callers must skip empty environments.
pub fn env_loss_grad(
    theta: &[f64],
    x: &MultiHotMatrix,
    labels: &[u8],
    rows: &[u32],
    reg: f64,
    grad_out: &mut [f64],
) -> f64 {
    assert!(!rows.is_empty(), "loss over an empty environment");
    fused::<true>(theta, x, labels, rows, reg, grad_out, None)
}

/// [`env_loss_grad`] that additionally writes `θᵀx` of each row into
/// `logits_out` (position-aligned with `rows`), for reuse by
/// [`hvp_from_logits`] at the same `θ` over the same rows. No trainer
/// calls it (their inner steps read no loss, so they take
/// [`env_grad_cached`]); perfbench's kernel probe times it.
///
/// # Panics
///
/// Panics when `rows` is empty or `logits_out.len() != rows.len()`.
pub fn env_loss_grad_cached(
    theta: &[f64],
    x: &MultiHotMatrix,
    labels: &[u8],
    rows: &[u32],
    reg: f64,
    grad_out: &mut [f64],
    logits_out: &mut [f64],
) -> f64 {
    assert!(!rows.is_empty(), "loss over an empty environment");
    assert_eq!(
        logits_out.len(),
        rows.len(),
        "logit cache must match the row count"
    );
    fused::<true>(theta, x, labels, rows, reg, grad_out, Some(logits_out))
}

/// [`env_loss_grad_cached`] without the loss: the gradient into
/// `grad_out` (zeroed first) and `θᵀx` of each row into `logits_out`,
/// from one pass that computes `σ(z)` and no softplus. The meta
/// trainers' inner step `θ̄_m = θ − α∇R^m(θ)`; the outer HVP at the same
/// `θ` reuses the logits. Same chunking, merge order and bits as
/// [`env_loss_grad_cached`]'s gradient and logits.
///
/// # Panics
///
/// Panics when `rows` is empty or `logits_out.len() != rows.len()`.
pub fn env_grad_cached(
    theta: &[f64],
    x: &MultiHotMatrix,
    labels: &[u8],
    rows: &[u32],
    reg: f64,
    grad_out: &mut [f64],
    logits_out: &mut [f64],
) {
    assert!(!rows.is_empty(), "gradient over an empty environment");
    assert_eq!(
        logits_out.len(),
        rows.len(),
        "logit cache must match the row count"
    );
    fused::<false>(theta, x, labels, rows, reg, grad_out, Some(logits_out));
}

/// Ordered merge of chunk partials: chunk order, not completion order.
fn merge_partials(partials: Vec<(f64, Vec<f64>)>, out: &mut [f64]) -> f64 {
    let mut total = 0.0;
    for (s, g) in &partials {
        total += s;
        for (o, &gi) in out.iter_mut().zip(g) {
            *o += gi;
        }
    }
    total
}

/// Parallel chunked environment loss (forward only), matching
/// [`crate::lr::env_loss`] bit-for-bit on a single chunk. No trainer
/// calls it (the meta trainers take the loss from [`env_loss_grad`]);
/// perfbench's kernel probe times it.
///
/// # Panics
///
/// Panics when `rows` is empty.
pub fn env_loss(theta: &[f64], x: &MultiHotMatrix, labels: &[u8], rows: &[u32], reg: f64) -> f64 {
    assert!(!rows.is_empty(), "loss over an empty environment");
    let loss_chunk = |chunk: &[u32]| -> f64 {
        let mut total = 0.0;
        let mut blocks = chunk.chunks_exact(BLOCK_ROWS);
        for block in &mut blocks {
            let mut zs = [0.0; BLOCK_ROWS];
            x.dot_block(block, theta, &mut zs);
            for (&r, &z) in block.iter().zip(&zs) {
                let y = labels[r as usize] as f64;
                total += softplus(z) - y * z;
            }
        }
        for &r in blocks.remainder() {
            let z = x.dot_row(r as usize, theta);
            let y = labels[r as usize] as f64;
            total += softplus(z) - y * z;
        }
        total
    };
    let total = if rows.len() <= CHUNK_ROWS {
        loss_chunk(rows)
    } else {
        let partials: Vec<f64> = rows.par_chunks(CHUNK_ROWS).map(loss_chunk).collect();
        partials.iter().sum() // chunk order
    };
    let mut loss = total / rows.len() as f64;
    if reg > 0.0 {
        loss += reg / 2.0 * theta.iter().map(|w| w * w).sum::<f64>();
    }
    loss
}

/// Parallel chunked gradient (backward only), matching
/// [`crate::lr::env_grad`] bit-for-bit on a single chunk: the fused pass
/// without the loss sum or the logit cache. The single-level trainers'
/// gradient step.
///
/// # Panics
///
/// Panics when `rows` is empty.
pub fn env_grad(
    theta: &[f64],
    x: &MultiHotMatrix,
    labels: &[u8],
    rows: &[u32],
    reg: f64,
    out: &mut [f64],
) {
    assert!(!rows.is_empty(), "gradient over an empty environment");
    fused::<false>(theta, x, labels, rows, reg, out, None);
}

/// Hessian-vector product reusing cached logits: with `zᵢ = θᵀxᵢ` already
/// known, `H·v = 1/n Σ σ(zᵢ)(1−σ(zᵢ))(xᵢᵀv) xᵢ + reg·v` needs only the
/// `xᵢᵀv` pass — half the sparse reads of [`crate::lr::env_hvp`], which it
/// matches bit-for-bit on a single chunk.
///
/// `logits` must be position-aligned with `rows` (as produced by
/// [`env_grad_cached`] or [`env_loss_grad_cached`] at the same `θ`).
///
/// # Panics
///
/// Panics when `rows` is empty or `logits.len() != rows.len()`.
pub fn hvp_from_logits(
    logits: &[f64],
    x: &MultiHotMatrix,
    rows: &[u32],
    reg: f64,
    v: &[f64],
    out: &mut [f64],
) {
    assert!(!rows.is_empty(), "HVP over an empty environment");
    assert_eq!(
        logits.len(),
        rows.len(),
        "logit cache must match the row count"
    );
    debug_assert_eq!(out.len(), v.len());
    out.fill(0.0);
    let inv_n = 1.0 / rows.len() as f64;
    let hvp_chunk = |chunk: &[u32], lchunk: &[f64], h: &mut [f64]| {
        let mut blocks = chunk.chunks_exact(BLOCK_ROWS);
        let mut lblocks = lchunk.chunks_exact(BLOCK_ROWS);
        for (block, lblock) in (&mut blocks).zip(&mut lblocks) {
            let mut xvs = [0.0; BLOCK_ROWS];
            x.dot_block(block, v, &mut xvs);
            for ((&r, &z), &xv) in block.iter().zip(lblock).zip(&xvs) {
                let r = r as usize;
                let p = sigmoid(z);
                let coef = p * (1.0 - p) * xv * inv_n;
                x.scatter_add(r, coef, h);
            }
        }
        for (&r, &z) in blocks.remainder().iter().zip(lblocks.remainder()) {
            let r = r as usize;
            let p = sigmoid(z);
            let xv = x.dot_row(r, v);
            let coef = p * (1.0 - p) * xv * inv_n;
            x.scatter_add(r, coef, h);
        }
    };
    if rows.len() <= CHUNK_ROWS {
        hvp_chunk(rows, logits, out);
    } else {
        let partials: Vec<Vec<f64>> = rows
            .par_chunks(CHUNK_ROWS)
            .zip(logits.par_chunks(CHUNK_ROWS))
            .map(|(chunk, lchunk)| {
                let mut h = vec![0.0; v.len()];
                hvp_chunk(chunk, lchunk, &mut h);
                h
            })
            .collect();
        for h in &partials {
            for (o, &hi) in out.iter_mut().zip(h) {
                *o += hi;
            }
        }
    }
    if reg > 0.0 {
        for (o, &vi) in out.iter_mut().zip(v) {
            *o += reg * vi;
        }
    }
}

/// Batch scoring: `out[k] = σ(θᵀx[rows[k]])`, row chunks in parallel.
/// Purely elementwise, so parallelism cannot affect the values: the dots
/// run through the same blocked loop the serve engine and offline predict
/// share ([`MultiHotMatrix::dot_rows_into`]), then the identical sigmoid
/// per row.
///
/// # Panics
///
/// Panics when `out.len() != rows.len()`.
pub fn predict_rows_into(theta: &[f64], x: &MultiHotMatrix, rows: &[u32], out: &mut [f64]) {
    assert_eq!(out.len(), rows.len(), "output must match the row count");
    let score_chunk = |chunk: &[u32], ochunk: &mut [f64]| {
        x.dot_rows_into(chunk, theta, ochunk);
        for o in ochunk.iter_mut() {
            *o = sigmoid(*o);
        }
    };
    if rows.len() <= CHUNK_ROWS {
        score_chunk(rows, out);
        return;
    }
    rows.par_chunks(CHUNK_ROWS)
        .zip(out.par_chunks_mut(CHUNK_ROWS))
        .for_each(|(chunk, ochunk)| score_chunk(chunk, ochunk));
}

/// Allocating convenience wrapper over [`predict_rows_into`].
pub fn predict_rows(theta: &[f64], x: &MultiHotMatrix, rows: &[u32]) -> Vec<f64> {
    let mut out = vec![0.0; rows.len()];
    predict_rows_into(theta, x, rows, &mut out);
    out
}

/// Per-environment scratch buffers for the meta trainers: the inner-step
/// model `θ̄_m`, a gradient buffer, the meta-gradient `u`, an HVP buffer,
/// and the logit cache of the environment's rows.
#[derive(Debug, Clone)]
pub struct EnvScratch {
    /// Inner-step parameters `θ̄_m = θ − α∇R^m(θ)`.
    pub theta_bar: Vec<f64>,
    /// General-purpose gradient buffer (inner gradient, then reusable).
    pub grad: Vec<f64>,
    /// Meta-gradient `u = ∇_{θ̄} R_meta(θ̄_m)`, adjusted in place by the
    /// HVP chain term.
    pub u: Vec<f64>,
    /// Hessian-vector product buffer.
    pub hvp: Vec<f64>,
    /// `θᵀx` of every row of environment `m`, filled by the inner fused
    /// pass and reused by the outer HVP at the same `θ`.
    pub logits: Vec<f64>,
}

/// One [`EnvScratch`] per environment, allocated once per `fit` and
/// reused across epochs — replacing the per-epoch `Vec` allocations the
/// serial trainers made for `θ̄`, `u`, and the HVP buffer.
#[derive(Debug, Clone)]
pub struct ScratchPool {
    slots: Vec<EnvScratch>,
}

impl ScratchPool {
    /// Build a pool for environments with the given row counts, all
    /// parameter buffers sized `n_cols`.
    pub fn new(n_cols: usize, rows_per_env: &[usize]) -> Self {
        if crate::obs::enabled() {
            let k = kobs();
            k.scratch_pools.inc();
            k.scratch_allocs.add(rows_per_env.len() as u64);
        }
        ScratchPool {
            slots: rows_per_env
                .iter()
                .map(|&n| EnvScratch {
                    theta_bar: vec![0.0; n_cols],
                    grad: vec![0.0; n_cols],
                    u: vec![0.0; n_cols],
                    hvp: vec![0.0; n_cols],
                    logits: vec![0.0; n],
                })
                .collect(),
        }
    }

    /// Shared view of the per-environment slots.
    pub fn slots(&self) -> &[EnvScratch] {
        &self.slots
    }

    /// Mutable view of the per-environment slots (one per env, disjoint —
    /// safe to hand to an env-parallel loop).
    pub fn slots_mut(&mut self) -> &mut [EnvScratch] {
        &mut self.slots
    }

    /// Number of environments the pool serves.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr;
    use rayon::ThreadPoolBuilder;

    /// Deterministic synthetic instance: `rows` multi-hot rows over
    /// `n_cols` columns with 2 active positions each.
    fn instance(rows: usize, n_cols: usize, seed: u64) -> (MultiHotMatrix, Vec<u8>, Vec<f64>) {
        let nnz = 2;
        let idx: Vec<u32> = (0..rows * nnz)
            .map(|i| {
                let h = (i as u64 + 1).wrapping_mul(seed.wrapping_add(0x9E37_79B9));
                (h % n_cols as u64) as u32
            })
            .collect();
        let x = MultiHotMatrix::new(idx, nnz, n_cols).unwrap();
        let y: Vec<u8> = (0..rows).map(|i| ((i as u64 + seed) % 2) as u8).collect();
        let theta: Vec<f64> = (0..n_cols)
            .map(|i| ((i as f64) * 0.31 - 0.8) * ((seed % 5) as f64 * 0.2 + 0.2))
            .collect();
        (x, y, theta)
    }

    fn all_rows(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn fused_matches_separate_exactly_on_one_chunk() {
        let (x, y, theta) = instance(300, 16, 7);
        let rows = all_rows(300);
        for reg in [0.0, 0.3] {
            let mut fused_grad = vec![0.0; 16];
            let fused_loss = env_loss_grad(&theta, &x, &y, &rows, reg, &mut fused_grad);
            let sep_loss = lr::env_loss(&theta, &x, &y, &rows, reg);
            let mut sep_grad = vec![0.0; 16];
            lr::env_grad(&theta, &x, &y, &rows, reg, &mut sep_grad);
            // Single chunk: the exact same fp operation sequence.
            assert_eq!(fused_loss, sep_loss);
            assert_eq!(fused_grad, sep_grad);
        }
    }

    #[test]
    fn fused_matches_separate_across_chunks() {
        // 3 chunks: the merge reassociates the sums, so compare to 1e-12.
        let (x, y, theta) = instance(10_000, 32, 3);
        let rows = all_rows(10_000);
        let mut fused_grad = vec![0.0; 32];
        let fused_loss = env_loss_grad(&theta, &x, &y, &rows, 0.1, &mut fused_grad);
        let sep_loss = lr::env_loss(&theta, &x, &y, &rows, 0.1);
        let mut sep_grad = vec![0.0; 32];
        lr::env_grad(&theta, &x, &y, &rows, 0.1, &mut sep_grad);
        assert!((fused_loss - sep_loss).abs() < 1e-12);
        for (a, b) in fused_grad.iter().zip(&sep_grad) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn chunked_kernels_are_bitwise_identical_across_thread_counts() {
        let (x, y, theta) = instance(9_000, 24, 11);
        let rows = all_rows(9_000);
        let v: Vec<f64> = (0..24).map(|i| 0.1 * i as f64 - 1.0).collect();
        let run = |threads: usize| {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut grad = vec![0.0; 24];
                let mut logits = vec![0.0; rows.len()];
                let loss =
                    env_loss_grad_cached(&theta, &x, &y, &rows, 0.05, &mut grad, &mut logits);
                let mut hvp = vec![0.0; 24];
                hvp_from_logits(&logits, &x, &rows, 0.05, &v, &mut hvp);
                let preds = predict_rows(&theta, &x, &rows);
                let mut grad_only = (vec![0.0; 24], vec![0.0; rows.len()]);
                env_grad_cached(
                    &theta,
                    &x,
                    &y,
                    &rows,
                    0.05,
                    &mut grad_only.0,
                    &mut grad_only.1,
                );
                (loss, grad, logits, hvp, preds, grad_only)
            })
        };
        let serial = run(1);
        // The loss-free pass leaves the fused pass's gradient and logits.
        assert_eq!(serial.5, (serial.1.clone(), serial.2.clone()));
        for threads in [2, 3, 5] {
            let parallel = run(threads);
            assert_eq!(serial.0, parallel.0, "loss differs at {threads} threads");
            assert_eq!(serial.1, parallel.1, "grad differs at {threads} threads");
            assert_eq!(serial.2, parallel.2, "logits differ at {threads} threads");
            assert_eq!(serial.3, parallel.3, "hvp differs at {threads} threads");
            assert_eq!(serial.4, parallel.4, "preds differ at {threads} threads");
            assert_eq!(
                serial.5, parallel.5,
                "grad-only differs at {threads} threads"
            );
        }
    }

    #[test]
    fn cached_hvp_matches_reference_hvp() {
        let (x, y, theta) = instance(500, 12, 9);
        let rows = all_rows(500);
        let v: Vec<f64> = (0..12).map(|i| (i as f64) * 0.2 - 1.1).collect();
        let mut grad = vec![0.0; 12];
        let mut logits = vec![0.0; 500];
        env_loss_grad_cached(&theta, &x, &y, &rows, 0.2, &mut grad, &mut logits);
        let mut reference = vec![0.0; 12];
        lr::env_hvp(&theta, &x, &y, &rows, 0.2, &v, &mut reference);
        let mut cached = vec![0.0; 12];
        hvp_from_logits(&logits, &x, &rows, 0.2, &v, &mut cached);
        assert_eq!(cached, reference);
    }

    #[test]
    fn chunked_loss_and_grad_match_reference() {
        let (x, y, theta) = instance(6_000, 20, 13);
        let rows = all_rows(6_000);
        let chunked_loss = env_loss(&theta, &x, &y, &rows, 0.1);
        assert!((chunked_loss - lr::env_loss(&theta, &x, &y, &rows, 0.1)).abs() < 1e-12);
        let mut chunked = vec![0.0; 20];
        env_grad(&theta, &x, &y, &rows, 0.1, &mut chunked);
        let mut reference = vec![0.0; 20];
        lr::env_grad(&theta, &x, &y, &rows, 0.1, &mut reference);
        for (a, b) in chunked.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn predict_rows_matches_model_predictions() {
        let (x, _, theta) = instance(200, 10, 4);
        let model = lr::LrModel {
            weights: theta.clone(),
        };
        let rows: Vec<u32> = vec![5, 0, 199, 42];
        assert_eq!(
            predict_rows(&theta, &x, &rows),
            model.predict_rows(&x, &rows)
        );
    }

    #[test]
    fn scratch_pool_shapes_follow_environments() {
        let pool = ScratchPool::new(8, &[100, 3, 77]);
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
        assert_eq!(pool.slots()[0].logits.len(), 100);
        assert_eq!(pool.slots()[2].logits.len(), 77);
        assert_eq!(pool.slots()[1].theta_bar.len(), 8);
        assert_eq!(pool.slots()[1].hvp.len(), 8);
    }

    #[test]
    #[should_panic(expected = "empty environment")]
    fn fused_rejects_empty_rows() {
        let (x, y, theta) = instance(10, 8, 1);
        let mut g = vec![0.0; 8];
        let _ = env_loss_grad(&theta, &x, &y, &[], 0.0, &mut g);
    }

    #[test]
    #[should_panic(expected = "logit cache")]
    fn grad_cached_rejects_misaligned_cache() {
        let (x, y, theta) = instance(10, 8, 1);
        let mut g = vec![0.0; 8];
        env_grad_cached(&theta, &x, &y, &[0, 1], 0.0, &mut g, &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "logit cache")]
    fn cached_hvp_rejects_misaligned_cache() {
        let (x, _, theta) = instance(10, 8, 1);
        let mut out = vec![0.0; 8];
        hvp_from_logits(&[0.0; 3], &x, &[0, 1], 0.0, &theta, &mut out);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn strat() -> impl Strategy<Value = (MultiHotMatrix, Vec<u8>, Vec<f64>)> {
            (2usize..40, 0u64..200).prop_map(|(rows, seed)| instance(rows, 6, seed))
        }

        proptest! {
            #[test]
            fn fused_equals_separate((x, y, theta) in strat()) {
                let rows: Vec<u32> = (0..x.n_rows() as u32).collect();
                for reg in [0.0, 0.25] {
                    let mut fused_grad = vec![0.0; theta.len()];
                    let fused_loss = env_loss_grad(&theta, &x, &y, &rows, reg, &mut fused_grad);
                    let sep_loss = lr::env_loss(&theta, &x, &y, &rows, reg);
                    let mut sep_grad = vec![0.0; theta.len()];
                    lr::env_grad(&theta, &x, &y, &rows, reg, &mut sep_grad);
                    prop_assert!((fused_loss - sep_loss).abs() < 1e-12);
                    for (a, b) in fused_grad.iter().zip(&sep_grad) {
                        prop_assert!((a - b).abs() < 1e-12);
                    }
                }
            }
        }
    }
}
