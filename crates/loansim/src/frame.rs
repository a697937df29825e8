//! Columnar-ish storage for generated loan records.
//!
//! [`LoanFrame`] keeps the dense feature matrix row-major (generation and
//! prediction are row-wise; the GBDT crate re-bins into its own columnar
//! layout) and the metadata columns (year, half, province, vehicle, label)
//! as separate typed vectors — the usual hybrid layout of analytic stores.

use crate::schema::NUM_FEATURES;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// A batch of loan records with aligned metadata columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoanFrame {
    n_features: usize,
    /// Row-major `n_rows × n_features` feature matrix.
    features: Vec<f32>,
    /// Application year, e.g. 2016..=2020.
    pub year: Vec<u16>,
    /// Half of the year: 0 = Jan–Jun, 1 = Jul–Dec.
    pub half: Vec<u8>,
    /// Province (environment) id.
    pub province: Vec<u16>,
    /// Vehicle type code (see [`crate::schema::VehicleType`]).
    pub vehicle: Vec<u8>,
    /// Default label: 1 = the customer failed to repay.
    pub label: Vec<u8>,
}

/// Errors from frame operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A row had the wrong number of features.
    BadRowWidth { expected: usize, got: usize },
    /// Deserialization found a malformed buffer.
    Corrupt(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadRowWidth { expected, got } => {
                write!(f, "row has {got} features, schema expects {expected}")
            }
            FrameError::Corrupt(what) => write!(f, "corrupt frame buffer: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl LoanFrame {
    /// An empty frame with the standard 210-feature width.
    pub fn new() -> Self {
        Self::with_width(NUM_FEATURES)
    }

    /// An empty frame with a custom feature width (tests, reduced worlds).
    pub fn with_width(n_features: usize) -> Self {
        LoanFrame {
            n_features,
            features: Vec::new(),
            year: Vec::new(),
            half: Vec::new(),
            province: Vec::new(),
            vehicle: Vec::new(),
            label: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.year.len()
    }

    /// Whether the frame holds no rows.
    pub fn is_empty(&self) -> bool {
        self.year.is_empty()
    }

    /// Feature width per row.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Append a record.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadRowWidth`] when `features` does not match
    /// the frame width.
    pub fn push(
        &mut self,
        features: &[f32],
        year: u16,
        half: u8,
        province: u16,
        vehicle: u8,
        label: u8,
    ) -> Result<(), FrameError> {
        if features.len() != self.n_features {
            return Err(FrameError::BadRowWidth {
                expected: self.n_features,
                got: features.len(),
            });
        }
        self.features.extend_from_slice(features);
        self.year.push(year);
        self.half.push(half);
        self.province.push(province);
        self.vehicle.push(vehicle);
        self.label.push(label);
        Ok(())
    }

    /// The feature row at `row`.
    pub fn row(&self, row: usize) -> &[f32] {
        let start = row * self.n_features;
        &self.features[start..start + self.n_features]
    }

    /// The whole row-major feature matrix.
    pub fn feature_matrix(&self) -> &[f32] {
        &self.features
    }

    /// One feature column, gathered into a fresh vector.
    pub fn column(&self, col: usize) -> Vec<f32> {
        assert!(col < self.n_features, "column {col} out of range");
        (0..self.len())
            .map(|r| self.features[r * self.n_features + col])
            .collect()
    }

    /// A new frame containing only the selected row indices, in order.
    pub fn select(&self, rows: &[usize]) -> LoanFrame {
        let mut out = LoanFrame::with_width(self.n_features);
        out.features.reserve(rows.len() * self.n_features);
        for &r in rows {
            out.features.extend_from_slice(self.row(r));
            out.year.push(self.year[r]);
            out.half.push(self.half[r]);
            out.province.push(self.province[r]);
            out.vehicle.push(self.vehicle[r]);
            out.label.push(self.label[r]);
        }
        out
    }

    /// Row indices matching a predicate over `(year, half, province)`.
    pub fn filter_rows(&self, mut pred: impl FnMut(u16, u8, u16) -> bool) -> Vec<usize> {
        (0..self.len())
            .filter(|&r| pred(self.year[r], self.half[r], self.province[r]))
            .collect()
    }

    /// Append all rows of `other` (must have the same width).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::BadRowWidth`] on width mismatch.
    pub fn append(&mut self, other: &LoanFrame) -> Result<(), FrameError> {
        if other.n_features != self.n_features {
            return Err(FrameError::BadRowWidth {
                expected: self.n_features,
                got: other.n_features,
            });
        }
        self.features.extend_from_slice(&other.features);
        self.year.extend_from_slice(&other.year);
        self.half.extend_from_slice(&other.half);
        self.province.extend_from_slice(&other.province);
        self.vehicle.extend_from_slice(&other.vehicle);
        self.label.extend_from_slice(&other.label);
        Ok(())
    }

    /// Empirical default rate over all rows (`NaN` on empty frames).
    pub fn default_rate(&self) -> f64 {
        let pos = self.label.iter().filter(|&&y| y != 0).count();
        pos as f64 / self.len() as f64
    }

    /// Serialize to a compact binary buffer (little-endian, versioned).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(
            16 + self.features.len() * 4 + self.len() * (2 + 1 + 2 + 1 + 1),
        );
        buf.put_u32_le(FRAME_MAGIC);
        buf.put_u16_le(FRAME_VERSION);
        buf.put_u32_le(self.n_features as u32);
        buf.put_u64_le(self.len() as u64);
        for &f in &self.features {
            buf.put_f32_le(f);
        }
        for &y in &self.year {
            buf.put_u16_le(y);
        }
        buf.put_slice(&self.half);
        for &p in &self.province {
            buf.put_u16_le(p);
        }
        buf.put_slice(&self.vehicle);
        buf.put_slice(&self.label);
        buf.freeze()
    }

    /// Deserialize a buffer produced by [`LoanFrame::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Corrupt`] on magic/version/length mismatches.
    pub fn from_bytes(mut buf: Bytes) -> Result<Self, FrameError> {
        if buf.remaining() < 18 {
            return Err(FrameError::Corrupt("header truncated"));
        }
        if buf.get_u32_le() != FRAME_MAGIC {
            return Err(FrameError::Corrupt("bad magic"));
        }
        if buf.get_u16_le() != FRAME_VERSION {
            return Err(FrameError::Corrupt("unsupported version"));
        }
        let n_features = buf.get_u32_le() as usize;
        let n_rows = buf.get_u64_le() as usize;
        // A hostile header can claim any counts: size the payload with
        // checked arithmetic instead of overflowing.
        let need = n_rows
            .checked_mul(n_features)
            .and_then(|cells| cells.checked_mul(4))
            .zip(n_rows.checked_mul(2 + 1 + 2 + 1 + 1))
            .and_then(|(features, columns)| features.checked_add(columns))
            .ok_or(FrameError::Corrupt("payload length overflows usize"))?;
        if buf.remaining() != need {
            return Err(FrameError::Corrupt("payload length mismatch"));
        }
        let mut frame = LoanFrame::with_width(n_features);
        frame.features = (0..n_rows * n_features).map(|_| buf.get_f32_le()).collect();
        frame.year = (0..n_rows).map(|_| buf.get_u16_le()).collect();
        frame.half = (0..n_rows).map(|_| buf.get_u8()).collect();
        frame.province = (0..n_rows).map(|_| buf.get_u16_le()).collect();
        frame.vehicle = (0..n_rows).map(|_| buf.get_u8()).collect();
        frame.label = (0..n_rows).map(|_| buf.get_u8()).collect();
        Ok(frame)
    }
}

const FRAME_MAGIC: u32 = 0x4C4F_414E; // "LOAN"
const FRAME_VERSION: u16 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_frame() -> LoanFrame {
        let mut f = LoanFrame::with_width(3);
        f.push(&[1.0, 2.0, 3.0], 2016, 0, 5, 1, 0).unwrap();
        f.push(&[4.0, 5.0, 6.0], 2020, 1, 7, 3, 1).unwrap();
        f.push(&[7.0, 8.0, 9.0], 2018, 0, 5, 0, 1).unwrap();
        f
    }

    #[test]
    fn push_and_row_access() {
        let f = tiny_frame();
        assert_eq!(f.len(), 3);
        assert_eq!(f.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(f.n_features(), 3);
    }

    #[test]
    fn push_rejects_bad_width() {
        let mut f = LoanFrame::with_width(3);
        let err = f.push(&[1.0], 2016, 0, 0, 0, 0).unwrap_err();
        assert_eq!(
            err,
            FrameError::BadRowWidth {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn column_gathers_strided_values() {
        let f = tiny_frame();
        assert_eq!(f.column(1), vec![2.0, 5.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn column_out_of_range_panics() {
        let _ = tiny_frame().column(3);
    }

    #[test]
    fn select_preserves_metadata_alignment() {
        let f = tiny_frame();
        let g = f.select(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(g.year, vec![2018, 2016]);
        assert_eq!(g.label, vec![1, 0]);
        assert_eq!(g.province, vec![5, 5]);
    }

    #[test]
    fn filter_rows_by_predicate() {
        let f = tiny_frame();
        let rows = f.filter_rows(|year, _, _| year < 2020);
        assert_eq!(rows, vec![0, 2]);
        let rows = f.filter_rows(|_, half, _| half == 1);
        assert_eq!(rows, vec![1]);
    }

    #[test]
    fn append_concatenates() {
        let mut a = tiny_frame();
        let b = tiny_frame();
        a.append(&b).unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a.row(4), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn append_rejects_width_mismatch() {
        let mut a = tiny_frame();
        let b = LoanFrame::with_width(2);
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn default_rate() {
        let f = tiny_frame();
        assert!((f.default_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_round_trip() {
        let f = tiny_frame();
        let buf = f.to_bytes();
        let g = LoanFrame::from_bytes(buf).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn bytes_round_trip_empty() {
        let f = LoanFrame::with_width(4);
        let g = LoanFrame::from_bytes(f.to_bytes()).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn from_bytes_rejects_bad_magic() {
        let mut raw = BytesMut::new();
        raw.put_u32_le(0xDEADBEEF);
        raw.put_u16_le(1);
        raw.put_u32_le(0);
        raw.put_u64_le(0);
        assert_eq!(
            LoanFrame::from_bytes(raw.freeze()).unwrap_err(),
            FrameError::Corrupt("bad magic")
        );
    }

    #[test]
    fn from_bytes_rejects_truncation() {
        let f = tiny_frame();
        let buf = f.to_bytes();
        let truncated = buf.slice(0..buf.len() - 1);
        assert!(LoanFrame::from_bytes(truncated).is_err());
    }

    #[test]
    fn from_bytes_rejects_overflowing_header() {
        // A bare 18-byte header claiming u64::MAX rows of u32::MAX
        // features: the payload length overflows and must be an error.
        let mut raw = BytesMut::new();
        raw.put_u32_le(FRAME_MAGIC);
        raw.put_u16_le(FRAME_VERSION);
        raw.put_u32_le(u32::MAX);
        raw.put_u64_le(u64::MAX);
        assert_eq!(
            LoanFrame::from_bytes(raw.freeze()).unwrap_err(),
            FrameError::Corrupt("payload length overflows usize")
        );
    }

    #[test]
    fn from_bytes_rejects_wrong_version() {
        let f = LoanFrame::with_width(1);
        let mut raw = BytesMut::from(&f.to_bytes()[..]);
        raw[4] = 99; // version low byte
        assert_eq!(
            LoanFrame::from_bytes(raw.freeze()).unwrap_err(),
            FrameError::Corrupt("unsupported version")
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn round_trip_any_frame(
                rows in proptest::collection::vec(
                    (proptest::collection::vec(-1e3f32..1e3, 4),
                     2015u16..2021, 0u8..2, 0u16..30, 0u8..6, 0u8..2),
                    0..20,
                )
            ) {
                let mut f = LoanFrame::with_width(4);
                for (feat, y, h, p, v, l) in &rows {
                    f.push(feat, *y, *h, *p, *v, *l).unwrap();
                }
                let g = LoanFrame::from_bytes(f.to_bytes()).unwrap();
                prop_assert_eq!(f, g);
            }

            #[test]
            fn select_then_len(rows in 1usize..20) {
                let mut f = LoanFrame::with_width(2);
                for i in 0..rows {
                    f.push(&[i as f32, 0.0], 2016, 0, 0, 0, 0).unwrap();
                }
                let idx: Vec<usize> = (0..rows).rev().collect();
                let g = f.select(&idx);
                prop_assert_eq!(g.len(), rows);
                prop_assert_eq!(g.row(0)[0], (rows - 1) as f32);
            }
        }
    }
}
