//! The repository's two non-cryptographic hashes, each pinned by
//! known-answer tests.
//!
//! - [`splitmix64`] is the splitmix64 output finalizer (Steele, Lea &
//!   Flood, 2014). Counter streams, request ids, load-generator draws,
//!   shard routes and failpoint schedules all run their own pre-mixing
//!   (a golden-ratio-strided counter, a seed XOR) through it.
//! - [`fnv1a`] / [`fnv1a_extend`] are 64-bit FNV-1a, used where a short
//!   byte string (a failpoint-site name) or a byte stream (the loadgen
//!   score digest, the pinned default-GBDT digest) needs a stable
//!   fingerprint.
//!
//! Both are part of persisted contracts — routes, request ids and score
//! digests must not change across releases — so their constants live
//! here once. `core::sem::pct` is a different mixer with its own legacy
//! oracle and deliberately does not route through this module.

/// The splitmix64 increment: 2⁶⁴ divided by the golden ratio. Callers
/// stride counters by it before finalizing.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 output finalizer: two xor-shift-multiply rounds and a
/// final xor-shift. A bijection on `u64`; the first output of a
/// splitmix64 generator seeded with 0 is `splitmix64(GOLDEN_GAMMA)`.
#[inline]
#[must_use]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 64-bit FNV-1a offset basis: the hash of the empty input, and the
/// starting state for [`fnv1a_extend`].
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The 64-bit FNV prime.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into a running FNV-1a state `hash`. Starting from
/// [`FNV1A_OFFSET`], folding the pieces of a byte stream one by one
/// gives the same value as [`fnv1a`] over their concatenation.
#[inline]
#[must_use]
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV1A_PRIME);
    }
    hash
}

/// 64-bit FNV-1a of `bytes`.
#[inline]
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV1A_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_first_output() {
        // splitmix64 seeded with 0: state += gamma, then finalize.
        assert_eq!(splitmix64(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(0), 0);
    }

    #[test]
    fn fnv1a_matches_published_test_vectors() {
        assert_eq!(fnv1a(b""), FNV1A_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv1a_extend_folds_a_stream_like_one_buffer() {
        let folded = fnv1a_extend(fnv1a_extend(FNV1A_OFFSET, b"foo"), b"bar");
        assert_eq!(folded, fnv1a(b"foobar"));
    }
}
