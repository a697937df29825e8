//! Zero-copy scoring-request framing over the vendored `bytes` crate.
//!
//! The wire format the serving front end and the load generator share.
//! A trace (or a network read) lands in one [`Bytes`] allocation;
//! decoding walks it frame by frame, and each [`Frame`]'s payloads —
//! env-id halfwords and feature words — are `Bytes` **slices of that
//! same allocation**, not copies. Typed `Vec<u16>`/`Vec<f32>` buffers
//! materialize only at the moment a request is actually submitted to an
//! engine, so framing costs one pass over the payload regardless of how
//! long the frame sits queued.
//!
//! ## Frame layout (version 1, all integers little-endian)
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `LMRQ` |
//! | 4      | 1    | version (1) |
//! | 5      | 1    | priority (0 = Low, 1 = Normal, 2 = High) |
//! | 6      | 2    | route key (tenant/province) |
//! | 8      | 4    | rows |
//! | 12     | 4    | features per row |
//! | 16     | 4    | deadline in ms from submission (0 = none) |
//! | 20     | 2·rows | env ids, u16 each |
//! | …      | 4·rows·features | feature values, f32 each |

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::hash;

/// Frame magic: `LMRQ` ("LightMIRM request").
pub const FRAME_MAGIC: [u8; 4] = *b"LMRQ";
/// Current frame version.
pub const FRAME_VERSION: u8 = 1;
/// Fixed header size in bytes.
pub const HEADER_BYTES: usize = 20;

/// Fixed-size frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Shedding class: 0 = Low, 1 = Normal, 2 = High (the serve crate
    /// maps this onto its `Priority`; core stays dependency-free).
    pub priority: u8,
    /// Routing key (tenant or province id) for the shard router.
    pub route_key: u16,
    /// Rows in the payload.
    pub rows: u32,
    /// Feature values per row.
    pub n_features: u32,
    /// Answer-by budget in milliseconds from submission; 0 = none.
    pub deadline_ms: u32,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer does not start with [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported version byte.
    BadVersion(u8),
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs from the cursor.
        need: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The declared payload length, `rows × 2 + rows × n_features × 4`
    /// bytes, overflows the address space — a corrupt or hostile header.
    PayloadOverflow,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            FrameError::PayloadOverflow => write!(f, "frame payload size overflows"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame. Payload accessors materialize typed vectors; the
/// `*_bytes` accessors expose the shared-allocation slices for callers
/// that relay without touching the values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The fixed header.
    pub header: FrameHeader,
    env_ids: Bytes,
    features: Bytes,
}

impl Frame {
    /// Materialize the env-id payload in one pass over its bytes.
    pub fn env_ids(&self) -> Vec<u16> {
        self.env_ids
            .chunks_exact(2)
            .map(|b| u16::from_le_bytes([b[0], b[1]]))
            .collect()
    }

    /// Materialize the feature payload (row-major) in one pass over its
    /// bytes.
    pub fn features(&self) -> Vec<f32> {
        self.features
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect()
    }

    /// The raw env-id bytes (slice of the decoded buffer's allocation).
    pub fn env_id_bytes(&self) -> &Bytes {
        &self.env_ids
    }

    /// The raw feature bytes (slice of the decoded buffer's allocation).
    pub fn feature_bytes(&self) -> &Bytes {
        &self.features
    }
}

/// The splitmix64-derived request id of the `index`-th frame of a
/// stream seeded with `seed`.
///
/// Request-scoped tracing needs an id that (a) is a pure function of
/// the stream position, so two replays of the same trace tag the same
/// logical request identically regardless of submitter interleaving,
/// and (b) is well-mixed, so ids from adjacent frames land far apart
/// (they double as deterministic tie-breakers in the tail sampler).
/// The wire format is untouched: the id is derived, not transmitted.
#[must_use]
pub fn frame_request_id(seed: u64, index: u64) -> u64 {
    // splitmix64 finalizer over a golden-ratio-strided counter, seeded
    // by XOR.
    hash::splitmix64(seed ^ index.wrapping_mul(hash::GOLDEN_GAMMA))
}

/// Append one frame to `buf`.
///
/// # Panics
///
/// Panics when `features.len() != env_ids.len() × n_features` or the
/// row count exceeds `u32` — caller bugs, not wire conditions.
pub fn encode_frame(
    buf: &mut BytesMut,
    priority: u8,
    route_key: u16,
    deadline_ms: u32,
    n_features: u32,
    env_ids: &[u16],
    features: &[f32],
) {
    let rows = u32::try_from(env_ids.len()).expect("row count fits u32");
    assert_eq!(
        features.len(),
        env_ids.len() * n_features as usize,
        "features must be rows × n_features"
    );
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.put_u8(FRAME_VERSION);
    buf.put_u8(priority);
    buf.put_u16_le(route_key);
    buf.put_u32_le(rows);
    buf.put_u32_le(n_features);
    buf.put_u32_le(deadline_ms);
    for &e in env_ids {
        buf.put_u16_le(e);
    }
    for &x in features {
        buf.put_u32_le(x.to_bits());
    }
}

/// Decode one frame from the cursor, advancing past it. The returned
/// payloads are slices sharing `buf`'s allocation.
///
/// # Errors
///
/// See [`FrameError`]; on error the cursor position is unspecified and
/// the stream should be abandoned.
pub fn decode_frame(buf: &mut Bytes) -> Result<Frame, FrameError> {
    if buf.remaining() < HEADER_BYTES {
        return Err(FrameError::Truncated {
            need: HEADER_BYTES,
            have: buf.remaining(),
        });
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = buf.get_u8();
    if version != FRAME_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let header = FrameHeader {
        priority: buf.get_u8(),
        route_key: buf.get_u16_le(),
        rows: buf.get_u32_le(),
        n_features: buf.get_u32_le(),
        deadline_ms: buf.get_u32_le(),
    };
    // Every length is checked: the header is untrusted, and `rows ×
    // n_features × 4` alone can fit a u64 while its sum with `rows × 2`
    // does not.
    let rows = u64::from(header.rows);
    let env_len = rows * 2;
    let feat_len = rows
        .checked_mul(u64::from(header.n_features))
        .and_then(|v| v.checked_mul(4))
        .ok_or(FrameError::PayloadOverflow)?;
    let need = env_len
        .checked_add(feat_len)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or(FrameError::PayloadOverflow)?;
    // Both parts are at most `need`, which fits usize.
    let (env_len, feat_len) = (env_len as usize, feat_len as usize);
    if buf.remaining() < need {
        return Err(FrameError::Truncated {
            need,
            have: buf.remaining(),
        });
    }
    let env_ids = buf.slice(0..env_len);
    buf.advance(env_len);
    let features = buf.slice(0..feat_len);
    buf.advance(feat_len);
    Ok(Frame {
        header,
        env_ids,
        features,
    })
}

/// Iterate the frames of a multi-frame buffer (a loadgen trace, a
/// connection's read buffer). Yields `Err` once on a malformed tail and
/// then stops.
pub struct FrameReader {
    buf: Bytes,
    dead: bool,
}

impl FrameReader {
    /// A reader over `buf` from its current cursor.
    pub fn new(buf: Bytes) -> Self {
        FrameReader { buf, dead: false }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

impl Iterator for FrameReader {
    type Item = Result<Frame, FrameError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.dead || self.buf.remaining() == 0 {
            return None;
        }
        match decode_frame(&mut self.buf) {
            Ok(frame) => Some(Ok(frame)),
            Err(e) => {
                self.dead = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(rows: usize, n_features: u32, key: u16) -> (Vec<u16>, Vec<f32>) {
        let env_ids: Vec<u16> = (0..rows).map(|i| (key + i as u16) % 7).collect();
        let features: Vec<f32> = (0..rows * n_features as usize)
            .map(|i| (i as f32) * 0.25 - 3.0)
            .collect();
        (env_ids, features)
    }

    #[test]
    fn frame_roundtrip_is_exact() {
        let (env_ids, features) = sample(5, 3, 11);
        let mut buf = BytesMut::new();
        encode_frame(&mut buf, 2, 11, 250, 3, &env_ids, &features);
        let mut bytes = buf.freeze();
        let frame = decode_frame(&mut bytes).expect("decodes");
        assert_eq!(bytes.remaining(), 0, "cursor consumed the frame");
        assert_eq!(
            frame.header,
            FrameHeader {
                priority: 2,
                route_key: 11,
                rows: 5,
                n_features: 3,
                deadline_ms: 250,
            }
        );
        assert_eq!(frame.env_ids(), env_ids);
        // f32 payload must round-trip bit-exactly, not approximately.
        let decoded = frame.features();
        assert_eq!(decoded.len(), features.len());
        for (a, b) in decoded.iter().zip(&features) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reader_walks_a_multi_frame_trace() {
        let mut buf = BytesMut::new();
        for key in 0u16..4 {
            let (env_ids, features) = sample(2 + key as usize, 2, key);
            encode_frame(&mut buf, 1, key, 0, 2, &env_ids, &features);
        }
        let frames: Vec<Frame> = FrameReader::new(buf.freeze())
            .collect::<Result<_, _>>()
            .expect("all frames decode");
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[3].header.route_key, 3);
        assert_eq!(frames[3].header.rows, 5);
    }

    #[test]
    fn adjacent_frames_decode_to_exactly_their_own_payloads() {
        // Two frames back to back in one allocation. Each frame's payload
        // views must stop at its own end: the first frame's env ids may
        // not run into its features, nor its features into the second
        // frame's header.
        let (env_a, feat_a) = sample(3, 4, 1);
        let env_b = vec![6u16, u16::MAX];
        let feat_b = vec![f32::NAN, -0.0, f32::INFINITY, 1e-40, 7.5, f32::MIN];
        let mut buf = BytesMut::new();
        encode_frame(&mut buf, 1, 1, 0, 4, &env_a, &feat_a);
        encode_frame(&mut buf, 2, 2, 9, 3, &env_b, &feat_b);
        let frames: Vec<Frame> = FrameReader::new(buf.freeze())
            .collect::<Result<_, _>>()
            .expect("both frames decode");
        assert_eq!(frames.len(), 2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for (frame, env, feat) in [(&frames[0], &env_a, &feat_a), (&frames[1], &env_b, &feat_b)] {
            assert_eq!(&frame.env_ids(), env);
            assert_eq!(bits(&frame.features()), bits(feat));
            assert_eq!(frame.env_id_bytes().len(), env.len() * 2);
            assert_eq!(frame.feature_bytes().len(), feat.len() * 4);
        }
    }

    #[test]
    fn truncated_and_corrupt_frames_fail_loudly() {
        let (env_ids, features) = sample(4, 2, 1);
        let mut buf = BytesMut::new();
        encode_frame(&mut buf, 0, 1, 0, 2, &env_ids, &features);
        let whole = buf.freeze();

        let mut cut = whole.slice(0..whole.len() - 3);
        assert!(matches!(
            decode_frame(&mut cut),
            Err(FrameError::Truncated { .. })
        ));

        let mut corrupted = whole.to_vec();
        corrupted[0] = b'X';
        let mut bad = Bytes::from(corrupted);
        assert!(matches!(
            decode_frame(&mut bad),
            Err(FrameError::BadMagic(_))
        ));

        let mut reader = FrameReader::new(whole.slice(0..HEADER_BYTES + 1));
        assert!(reader.next().expect("one item").is_err());
        assert!(reader.next().is_none(), "reader stops after an error");
    }

    #[test]
    fn payload_slices_share_the_trace_allocation() {
        // The accessor contract: env/feature bytes come from the decoded
        // buffer, positioned exactly over the payload regions.
        let (env_ids, features) = sample(3, 2, 9);
        let mut buf = BytesMut::new();
        encode_frame(&mut buf, 1, 9, 0, 2, &env_ids, &features);
        let whole = buf.freeze();
        let mut cursor = whole.clone();
        let frame = decode_frame(&mut cursor).expect("decodes");
        assert_eq!(
            frame.env_id_bytes().as_slice(),
            &whole.as_slice()[HEADER_BYTES..HEADER_BYTES + 6]
        );
        assert_eq!(
            frame.feature_bytes().as_slice(),
            &whole.as_slice()[HEADER_BYTES + 6..]
        );
    }

    #[test]
    fn request_ids_are_pure_and_well_mixed() {
        // Pure: same (seed, index) → same id, always.
        assert_eq!(frame_request_id(7, 42), frame_request_id(7, 42));
        // Distinct across adjacent indices and across seeds, and never
        // the raw index (the mixer actually ran).
        let ids: Vec<u64> = (0..64).map(|i| frame_request_id(7, i)).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len(), "collision in 64 ids");
        assert!(ids.iter().enumerate().all(|(i, &id)| id != i as u64));
        assert_ne!(frame_request_id(7, 0), frame_request_id(8, 0));
    }

    /// A bare 20-byte header declaring `rows × n_features`.
    fn raw_header(rows: u32, n_features: u32) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&FRAME_MAGIC);
        buf.put_u8(FRAME_VERSION);
        buf.put_u8(1);
        buf.put_u16_le(7);
        buf.put_u32_le(rows);
        buf.put_u32_le(n_features);
        buf.put_u32_le(0);
        buf
    }

    /// Payload bytes a header declares, in u128 so no header overflows.
    fn declared(rows: u32, n_features: u32) -> u128 {
        u128::from(rows) * (2 + 4 * u128::from(n_features))
    }

    #[test]
    fn payload_length_sum_overflow_is_rejected() {
        // rows × n_features × 4 = 2⁶⁴ − 4 fits a u64; adding rows × 2
        // does not.
        let mut header = raw_header(2_147_483_649, 2_147_483_647).freeze();
        assert_eq!(decode_frame(&mut header), Err(FrameError::PayloadOverflow));
    }

    /// Header dimensions a hostile sender would pick: the edges of the
    /// u32 range and around 2³¹, small values whose payload fits a short
    /// buffer, and arbitrary ones.
    fn dim() -> impl Strategy<Value = u32> {
        const EDGES: [u32; 5] = [0, 1, (1 << 31) - 1, (1 << 31) + 1, u32::MAX];
        (0u8..3, 0..EDGES.len(), 0..=u32::MAX).prop_map(|(kind, edge, any)| match kind {
            0 => EDGES[edge],
            1 => any % 8,
            _ => any,
        })
    }

    /// A header followed by 0–512 arbitrary bytes; with `exact`, the
    /// bytes are cut to the declared payload when they hold it, so
    /// concatenations of such frames also walk past well-formed frames.
    fn hostile_frame() -> impl Strategy<Value = (u32, u32, Vec<u8>)> {
        (dim(), dim(), collection::vec(0u8..=255, 0..=512), 0u8..2).prop_map(
            |(rows, n_features, mut payload, exact)| {
                let need = declared(rows, n_features);
                if exact == 1 && need <= payload.len() as u128 {
                    payload.truncate(need as usize);
                }
                (rows, n_features, payload)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn hostile_headers_decode_without_panic_or_over_read(
            (rows, n_features, payload) in hostile_frame(),
        ) {
            let mut buf = raw_header(rows, n_features);
            buf.extend_from_slice(&payload);
            let mut cursor = buf.freeze();
            let need = declared(rows, n_features);
            let have = payload.len() as u128;
            let decoded = decode_frame(&mut cursor);
            prop_assert_eq!(decoded.is_ok(), need <= have, "{:?}", decoded);
            match decoded {
                Ok(frame) => {
                    prop_assert_eq!(frame.header.rows, rows);
                    prop_assert_eq!(frame.header.n_features, n_features);
                    prop_assert_eq!(cursor.remaining() as u128, have - need);
                }
                Err(FrameError::Truncated { need: n, have: h }) => {
                    prop_assert!(n > h, "Truncated {{ need: {n}, have: {h} }}");
                    prop_assert_eq!((n as u128, h as u128), (need, have));
                }
                Err(FrameError::PayloadOverflow) => {
                    prop_assert!(need > usize::MAX as u128, "{need} bytes fit usize");
                }
                Err(e) => panic!("a well-formed header failed with {e}"),
            }
        }

        #[test]
        fn frame_reader_stops_after_at_most_one_error(
            frames in collection::vec(hostile_frame(), 1..5),
        ) {
            let mut buf = BytesMut::new();
            for (rows, n_features, payload) in &frames {
                buf.extend_from_slice(&raw_header(*rows, *n_features));
                buf.extend_from_slice(payload);
            }
            // Every item consumes at least a header, so a reader that
            // terminates yields no more than this many.
            let bound = buf.len() / HEADER_BYTES + 1;
            let mut reader = FrameReader::new(buf.freeze());
            let items: Vec<_> = reader.by_ref().take(bound).collect();
            prop_assert!(reader.next().is_none(), "reader did not stop");
            let errors = items.iter().filter(|item| item.is_err()).count();
            prop_assert!(errors <= 1, "{errors} errors: {items:?}");
            if errors == 1 {
                prop_assert!(items.last().is_some_and(Result::is_err), "{items:?}");
            }
            for item in &items {
                match item {
                    Ok(frame) => prop_assert!(
                        frame.env_id_bytes().len() + frame.feature_bytes().len()
                            == declared(frame.header.rows, frame.header.n_features) as usize
                    ),
                    Err(FrameError::Truncated { need, have }) => {
                        prop_assert!(need > have, "Truncated {{ need: {need}, have: {have} }}");
                    }
                    Err(_) => {}
                }
            }
        }
    }
}
