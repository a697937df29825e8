//! SIMD row-block kernel support: aligned storage and the shared
//! vectorizable primitives of the LR hot path.
//!
//! The serial kernels in [`crate::lr`] process one row at a time; every
//! row's `θᵀx` is a chain of `nnz_per_row` dependent additions, so the
//! CPU spends the whole loop waiting on add latency. This module provides
//! the building blocks for the **row-block** kernels in
//! [`crate::kernels`]:
//!
//! - [`AlignedVec`] — a 64-byte-aligned `f64` buffer (one cache line /
//!   one AVX-512 register) adopted by `ScratchPool`, so vector loads
//!   never split cache lines;
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

use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Rows processed per block by the vectorized kernels. Eight rows give
/// eight independent accumulator chains — enough to hide f64 add latency
/// — and fill two AVX2 (or one AVX-512) register per lane step.
pub const BLOCK_ROWS: usize = 8;

/// Alignment of [`AlignedVec`] storage: one cache line, and the natural
/// alignment of an AVX-512 register.
pub const ALIGNMENT: usize = 64;

// ---------------------------------------------------------------------------
// AlignedVec
// ---------------------------------------------------------------------------

/// A heap `f64` buffer whose storage is always [`ALIGNMENT`]-byte aligned.
///
/// Behaves like a fixed-capacity-then-growable `Vec<f64>` for the subset
/// of operations the kernel layer needs (zero-fill construction, resize,
/// slice access). Dereferences to `[f64]`, so existing kernel signatures
/// taking `&[f64]` / `&mut [f64]` accept it unchanged.
pub struct AlignedVec {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively, like Vec<f64>.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        AlignedVec {
            // Dangling but well-aligned: never dereferenced while cap == 0.
            ptr: NonNull::new(std::ptr::without_provenance_mut(ALIGNMENT)).expect("nonzero"),
            len: 0,
            cap: 0,
        }
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedVec::new();
        }
        let layout = Self::layout(len);
        // SAFETY: layout has nonzero size (len > 0).
        let raw = unsafe { alloc_zeroed(layout) } as *mut f64;
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        AlignedVec { ptr, len, cap: len }
    }

    /// A buffer holding a copy of `src`.
    pub fn from_slice(src: &[f64]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.as_mut_slice().copy_from_slice(src);
        v
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<f64>(), ALIGNMENT)
            .expect("aligned layout within isize::MAX")
    }

    /// Number of initialized elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity in elements.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Shared slice view.
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: ptr is valid for len initialized elements (or dangling
        // with len == 0, which from_raw_parts permits for empty slices).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable slice view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: as for as_slice; &mut self gives exclusive access.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Grow or shrink to `new_len`, filling new elements with `value`.
    /// Growth reallocates to exactly `new_len` or double the current
    /// capacity, whichever is larger; shrinking never reallocates.
    pub fn resize(&mut self, new_len: usize, value: f64) {
        if new_len > self.cap {
            self.reallocate(new_len.max(self.cap * 2));
        }
        if new_len > self.len {
            // SAFETY: capacity covers new_len; fill the tail before
            // exposing it through len.
            unsafe {
                for i in self.len..new_len {
                    self.ptr.as_ptr().add(i).write(value);
                }
            }
        }
        self.len = new_len;
    }

    fn reallocate(&mut self, new_cap: usize) {
        debug_assert!(new_cap > self.cap);
        let new_layout = Self::layout(new_cap);
        // SAFETY: new_layout has nonzero size (new_cap > cap >= 0).
        let raw = unsafe { alloc(new_layout) } as *mut f64;
        let Some(new_ptr) = NonNull::new(raw) else {
            handle_alloc_error(new_layout);
        };
        if self.cap > 0 {
            // SAFETY: both regions are valid for len elements and
            // disjoint (fresh allocation).
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), new_ptr.as_ptr(), self.len);
                dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
            }
        }
        self.ptr = new_ptr;
        self.cap = new_cap;
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: ptr was allocated with exactly this layout.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) }
        }
    }
}

impl Default for AlignedVec {
    fn default() -> Self {
        AlignedVec::new()
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        AlignedVec::from_slice(self.as_slice())
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::ops::Deref for AlignedVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl<'a> IntoIterator for &'a AlignedVec {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a> IntoIterator for &'a mut AlignedVec {
    type Item = &'a mut f64;
    type IntoIter = std::slice::IterMut<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

impl From<Vec<f64>> for AlignedVec {
    fn from(v: Vec<f64>) -> Self {
        AlignedVec::from_slice(&v)
    }
}

// ---------------------------------------------------------------------------
// Block primitives
// ---------------------------------------------------------------------------

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
    fn aligned_vec_storage_is_64_byte_aligned() {
        for len in [1usize, 3, 8, 64, 1000] {
            let v = AlignedVec::zeroed(len);
            assert_eq!(v.as_slice().as_ptr() as usize % ALIGNMENT, 0, "len {len}");
        }
        // The empty buffer's (dangling) pointer keeps the invariant too.
        let empty = AlignedVec::new();
        assert_eq!(empty.as_slice().as_ptr() as usize % ALIGNMENT, 0);
    }

    #[test]
    fn aligned_vec_zero_fill_and_len() {
        let v = AlignedVec::zeroed(37);
        assert_eq!(v.len(), 37);
        assert!(!v.is_empty());
        assert!(v.iter().all(|&x| x == 0.0));
        assert!(AlignedVec::new().is_empty());
    }

    #[test]
    fn aligned_vec_clone_is_deep_and_aligned() {
        let mut a = AlignedVec::from_slice(&[1.0, -2.5, 3.25]);
        let b = a.clone();
        a[0] = 99.0;
        assert_eq!(b.as_slice(), &[1.0, -2.5, 3.25]);
        assert_eq!(b.as_slice().as_ptr() as usize % ALIGNMENT, 0);
        assert_ne!(a, b);
        assert_eq!(b, AlignedVec::from(vec![1.0, -2.5, 3.25]));
    }

    #[test]
    fn aligned_vec_grow_preserves_prefix_and_alignment() {
        let mut v = AlignedVec::from_slice(&[1.0, 2.0]);
        v.resize(5, 7.0);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 7.0, 7.0, 7.0]);
        assert!(v.capacity() >= 5);
        // Growth doubles at least, so repeated small grows amortize.
        let cap_after_first = v.capacity();
        v.resize(cap_after_first + 1, 0.0);
        assert!(v.capacity() >= cap_after_first * 2);
        assert_eq!(v.as_slice().as_ptr() as usize % ALIGNMENT, 0);
        // Shrinking keeps the allocation and truncates the view.
        v.resize(2, 0.0);
        assert_eq!(v.as_slice(), &[1.0, 2.0]);
        assert!(v.capacity() >= cap_after_first);
    }

    #[test]
    fn aligned_vec_deref_supports_slice_ops() {
        let mut v = AlignedVec::zeroed(4);
        v.fill(2.0);
        v[3] = -1.0;
        let sum: f64 = v.iter().sum();
        assert_eq!(sum, 5.0);
        let collected: Vec<f64> = (&v).into_iter().copied().collect();
        assert_eq!(collected, vec![2.0, 2.0, 2.0, -1.0]);
        for x in &mut v {
            *x += 1.0;
        }
        assert_eq!(v.as_slice(), &[3.0, 3.0, 3.0, 0.0]);
        assert_eq!(format!("{v:?}"), "[3.0, 3.0, 3.0, 0.0]");
    }

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
