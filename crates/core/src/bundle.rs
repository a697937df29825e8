//! Deployable model bundles: the artifact the paper's platform ships.
//!
//! A scoring service needs the GBDT feature extractor and the LR head
//! together, versioned, with enough metadata to audit which world and
//! hyper-parameters produced them. [`ModelBundle`] serializes the pair to
//! a single JSON document and checks versions on load.
//!
//! Two robustness layers live here:
//!
//! - **Durable persistence** — [`ModelBundle::save_to_path`] writes a
//!   CRC-32-checksummed envelope atomically (`tmp` + rename), and
//!   [`ModelBundle::load_from_path`] verifies length and checksum before
//!   parsing, mapping truncation and bit rot to [`BundleError::Corrupt`]
//!   instead of a confusing parse error (or, worse, a silent success).
//! - **Input quarantine** — [`ModelBundle::score_batch_quarantined`]
//!   splits non-finite / out-of-range rows out of a batch, scores the
//!   clean remainder bit-identically to an all-clean batch, and reports
//!   per-row verdicts, so one bad row cannot poison its neighbors.

use std::path::Path;

use lightmirm_gbdt::Gbdt;
use serde::{Deserialize, Serialize};

use crate::failpoint;

use crate::sparse::MultiHotMatrix;
use crate::trainers::TrainedModel;

/// Format version of the bundle layout.
pub const BUNDLE_VERSION: u32 = 1;

/// Free-form provenance recorded with a bundle.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct BundleMetadata {
    /// Trainer name, e.g. `"LightMIRM(L=5,g=0.9)"`.
    pub trainer: String,
    /// World/train seed.
    pub seed: u64,
    /// Free-form notes (dataset description, validation metrics, …).
    pub notes: String,
}

/// Evenly-spaced quantile sketch of a one-dimensional sample.
///
/// `points[k]` is the `k/(len-1)` quantile of the summarized sample, so
/// the points form an equi-probable pseudo-sample of the distribution:
/// feeding them to [`lightmirm_metrics::drift::psi`] as the `expected`
/// side reconstructs the baseline bucket shares without shipping the raw
/// training data inside the bundle.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct QuantileSketch {
    /// Quantile points, ascending.
    pub points: Vec<f64>,
    /// Number of finite samples the sketch summarizes.
    pub count: u64,
}

impl QuantileSketch {
    /// Sketch `samples` with `n_points` evenly spaced quantiles.
    /// Non-finite samples (e.g. quarantined-row fallback scores) are
    /// skipped. Returns `None` when nothing finite remains or
    /// `n_points < 2`.
    pub fn from_samples(samples: &[f64], n_points: usize) -> Option<Self> {
        if n_points < 2 {
            return None;
        }
        let mut finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return None;
        }
        finite.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = finite.len();
        let points = (0..n_points)
            .map(|k| {
                let q = k as f64 / (n_points - 1) as f64;
                finite[((q * (n - 1) as f64).round()) as usize]
            })
            .collect();
        Some(QuantileSketch {
            points,
            count: n as u64,
        })
    }
}

/// Baseline sketch of one monitored feature column.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct FeatureBaseline {
    /// Raw feature column index.
    pub column: u32,
    /// Sketch of the column's training-time distribution.
    pub sketch: QuantileSketch,
}

/// Training-time distributions for one environment.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct EnvBaseline {
    /// Environment id the sketches describe.
    pub env_id: u16,
    /// Sketch of the model score distribution.
    pub scores: QuantileSketch,
    /// Sketches of the monitored feature columns (aligned with
    /// [`DriftBaseline::columns`]; a column that was all-NaN in this
    /// environment is absent).
    pub features: Vec<FeatureBaseline>,
}

/// Train-time drift baseline stored inside a [`ModelBundle`].
///
/// Captured once at train time and carried in the versioned bundle
/// payload (the CRC envelope covers it); legacy bundles simply have no
/// baseline and load with `None`. The serve-side drift sentinel
/// compares live sliding windows against these sketches with windowed
/// PSI.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct DriftBaseline {
    /// Monitored raw feature columns (top-k by extractor split gain).
    pub columns: Vec<u32>,
    /// Per-environment baselines, sorted by `env_id`.
    pub envs: Vec<EnvBaseline>,
}

impl DriftBaseline {
    /// Pick the top-`k` columns by split-gain importance (ties broken by
    /// lower column index), skipping zero-importance columns.
    pub fn top_k_columns(importance: &[f64], k: usize) -> Vec<u32> {
        let mut ranked: Vec<usize> = (0..importance.len())
            .filter(|&c| importance[c] > 0.0)
            .collect();
        ranked.sort_by(|&a, &b| {
            importance[b]
                .partial_cmp(&importance[a])
                .expect("finite gain")
                .then(a.cmp(&b))
        });
        ranked.truncate(k);
        ranked.sort_unstable();
        ranked.into_iter().map(|c| c as u32).collect()
    }

    /// Capture per-environment sketches of model scores and the given
    /// feature columns from a training set. `features` is row-major with
    /// `n_features` values per row, aligned with `scores`/`env_ids`.
    ///
    /// # Panics
    ///
    /// Panics when `scores`, `env_ids`, and `features` disagree on the
    /// row count or a requested column is out of range.
    pub fn capture(
        scores: &[f64],
        env_ids: &[u16],
        features: &[f32],
        n_features: usize,
        columns: &[u32],
        sketch_points: usize,
    ) -> Self {
        assert_eq!(scores.len(), env_ids.len(), "one score per row");
        assert_eq!(
            features.len(),
            env_ids.len() * n_features,
            "features must hold n_features values per row"
        );
        assert!(
            columns.iter().all(|&c| (c as usize) < n_features),
            "monitored column out of range"
        );
        let mut env_rows: std::collections::BTreeMap<u16, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (r, &e) in env_ids.iter().enumerate() {
            env_rows.entry(e).or_default().push(r);
        }
        let envs = env_rows
            .into_iter()
            .filter_map(|(env_id, rows)| {
                let env_scores: Vec<f64> = rows.iter().map(|&r| scores[r]).collect();
                let score_sketch = QuantileSketch::from_samples(&env_scores, sketch_points)?;
                let feats = columns
                    .iter()
                    .filter_map(|&c| {
                        let vals: Vec<f64> = rows
                            .iter()
                            .map(|&r| f64::from(features[r * n_features + c as usize]))
                            .collect();
                        QuantileSketch::from_samples(&vals, sketch_points)
                            .map(|sketch| FeatureBaseline { column: c, sketch })
                    })
                    .collect();
                Some(EnvBaseline {
                    env_id,
                    scores: score_sketch,
                    features: feats,
                })
            })
            .collect();
        DriftBaseline {
            columns: columns.to_vec(),
            envs,
        }
    }

    /// The baseline for `env_id`, when captured.
    pub fn env(&self, env_id: u16) -> Option<&EnvBaseline> {
        self.envs.iter().find(|e| e.env_id == env_id)
    }
}

/// Provenance of an online-adapted bundle: which champion it descends
/// from, what drift triggered the retrain, and how much labeled data fed
/// it. Carried inside the CRC envelope so lineage survives (and is
/// integrity-checked with) the payload.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct BundleLineage {
    /// CRC-32 of the parent bundle's JSON payload
    /// ([`ModelBundle::payload_crc32`]) — the adapted bundle's ancestry
    /// pointer.
    pub parent_crc32: u32,
    /// Environment whose drift escalation triggered the retrain.
    pub trigger_env: u16,
    /// The PSI value that crossed the Major band.
    pub trigger_psi: f64,
    /// Labeled rows consumed by the warm-started retrain.
    pub rows_used: u64,
    /// Adaptation generation: the shipped champion is 0, each promoted
    /// challenger increments.
    pub generation: u32,
}

/// The deployable artifact: extractor + head + provenance.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct ModelBundle {
    version: u32,
    /// The GBDT feature extractor (raw features → leaf indices).
    pub extractor: Gbdt,
    /// The trained LR head over the leaf space.
    pub model: TrainedModel,
    /// Provenance.
    pub metadata: BundleMetadata,
    /// Train-time drift baseline for the serve-side sentinel. `None` on
    /// legacy bundles (the field deserializes to `None` when absent) and
    /// on bundles built without baseline capture.
    pub baseline: Option<DriftBaseline>,
    /// Adaptation lineage. `None` on train-time bundles and on legacy
    /// bundles (absent field deserializes to `None`); `Some` on bundles
    /// produced by the serve-side adaptation loop.
    pub lineage: Option<BundleLineage>,
}

/// Errors from bundle persistence.
#[derive(Debug)]
pub enum BundleError {
    /// The JSON did not parse.
    Malformed(serde_json::Error),
    /// The format version is unsupported.
    VersionMismatch { found: u32, supported: u32 },
    /// Extractor and head disagree on the leaf-space dimension.
    DimensionMismatch { leaves: usize, weights: usize },
    /// The checksummed envelope failed verification: truncated payload,
    /// bit-flipped bytes, or a malformed header.
    Corrupt(String),
    /// Reading or writing the bundle file failed.
    Io(std::io::Error),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Malformed(e) => write!(f, "malformed bundle: {e}"),
            BundleError::VersionMismatch { found, supported } => {
                write!(f, "bundle version {found}, supported {supported}")
            }
            BundleError::DimensionMismatch { leaves, weights } => write!(
                f,
                "extractor has {leaves} leaves but head has {weights} weights"
            ),
            BundleError::Corrupt(detail) => write!(f, "corrupt bundle: {detail}"),
            BundleError::Io(e) => write!(f, "bundle io: {e}"),
        }
    }
}

impl std::error::Error for BundleError {}

impl From<std::io::Error> for BundleError {
    fn from(e: std::io::Error) -> Self {
        BundleError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected), the envelope checksum. Table-driven;
/// the table is built at compile time.
fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = TABLE[((crc ^ u32::from(b)) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

/// First token of the checksummed on-disk envelope.
const ENVELOPE_MAGIC: &str = "LMIRM-BUNDLE";

/// What to do with a quarantined row's score slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuarantineFallback {
    /// Leave `f64::NAN` in the slot; the caller must consult the
    /// verdicts (a serving layer typically turns this into a structured
    /// per-request error).
    Error,
    /// Substitute this prior default probability (e.g. the environment's
    /// base rate) so downstream consumers keep a usable, clearly
    /// conservative score.
    PriorScore(f64),
}

/// Validation policy for [`ModelBundle::score_batch_quarantined`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantinePolicy {
    /// Quarantine rows with any `|feature| > max_abs` (non-finite values
    /// are always quarantined regardless).
    pub max_abs: Option<f32>,
    /// Score slot treatment for quarantined rows.
    pub fallback: QuarantineFallback,
}

impl Default for QuarantinePolicy {
    fn default() -> Self {
        QuarantinePolicy {
            max_abs: None,
            fallback: QuarantineFallback::Error,
        }
    }
}

/// Why a row was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueFault {
    /// NaN or ±infinity.
    NonFinite,
    /// Magnitude above the policy's `max_abs` bound.
    OutOfRange,
}

/// One quarantined row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowQuarantine {
    /// Row index within the scored batch.
    pub row: u32,
    /// First offending feature column.
    pub col: u32,
    /// What was wrong with it.
    pub fault: ValueFault,
}

/// Result of a quarantining batch score: position-aligned scores plus
/// the verdicts for every quarantined row (sorted by row).
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedScores {
    /// One score per input row. Quarantined rows hold the policy's
    /// fallback value ([`QuarantineFallback::Error`] leaves `f64::NAN`).
    pub scores: Vec<f64>,
    /// Verdicts for the quarantined rows; empty means the batch was
    /// clean and scored on the ordinary fast path.
    pub quarantined: Vec<RowQuarantine>,
}

/// Every head — the base and each per-environment copy — must span the
/// extractor's leaf space, or scoring its environment would panic.
fn check_head_widths(leaves: usize, model: &TrainedModel) -> Result<(), BundleError> {
    let (base, per_env) = match model {
        TrainedModel::Global(m) => (m, &[][..]),
        TrainedModel::PerEnv { base, per_env } => (base, per_env.as_slice()),
    };
    for head in std::iter::once(base).chain(per_env.iter().flatten()) {
        if head.weights.len() != leaves {
            return Err(BundleError::DimensionMismatch {
                leaves,
                weights: head.weights.len(),
            });
        }
    }
    Ok(())
}

impl ModelBundle {
    /// Assemble a bundle.
    ///
    /// # Errors
    ///
    /// Returns [`BundleError::DimensionMismatch`] when a head's weight
    /// vector — the base's or any per-environment copy's — does not match
    /// the extractor's leaf count.
    pub fn new(
        extractor: Gbdt,
        model: &TrainedModel,
        metadata: BundleMetadata,
    ) -> Result<Self, BundleError> {
        check_head_widths(extractor.total_leaves(), model)?;
        Ok(ModelBundle {
            version: BUNDLE_VERSION,
            extractor,
            model: model.clone(),
            metadata,
            baseline: None,
            lineage: None,
        })
    }

    /// Attach a train-time drift baseline (builder style).
    #[must_use]
    pub fn with_baseline(mut self, baseline: DriftBaseline) -> Self {
        self.baseline = Some(baseline);
        self
    }

    /// Attach an adaptation lineage record (builder style).
    #[must_use]
    pub fn with_lineage(mut self, lineage: BundleLineage) -> Self {
        self.lineage = Some(lineage);
        self
    }

    /// CRC-32 of this bundle's JSON payload — the same checksum the
    /// on-disk envelope header carries, usable as a stable identity for
    /// lineage records ([`BundleLineage::parent_crc32`]).
    pub fn payload_crc32(&self) -> u32 {
        crc32(self.to_json().as_bytes())
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bundle types serialize infallibly")
    }

    /// Parse and validate a bundle.
    ///
    /// # Errors
    ///
    /// See [`BundleError`].
    pub fn from_json(text: &str) -> Result<Self, BundleError> {
        let bundle: ModelBundle = serde_json::from_str(text).map_err(BundleError::Malformed)?;
        if bundle.version != BUNDLE_VERSION {
            return Err(BundleError::VersionMismatch {
                found: bundle.version,
                supported: BUNDLE_VERSION,
            });
        }
        check_head_widths(bundle.extractor.total_leaves(), &bundle.model)?;
        Ok(bundle)
    }

    /// Number of raw input features the extractor expects per row.
    pub fn n_features(&self) -> usize {
        self.extractor.n_features()
    }

    /// Score a batch of raw rows end to end on the kernel batch path:
    /// one GBDT leaf transform over the whole batch, then the
    /// chunk-parallel [`crate::kernels::predict_rows_into`] per head.
    ///
    /// `features` is row-major with [`ModelBundle::n_features`] values per
    /// row; `env_ids[k]` selects the per-environment head for row `k` when
    /// present. Scoring is purely elementwise per row, so the returned
    /// values are bit-identical to calling [`ModelBundle::score`] row by
    /// row — and independent of how a stream is split into batches, which
    /// is the serving engine's determinism guarantee.
    ///
    /// # Panics
    ///
    /// Panics when `features.len() != env_ids.len() * n_features`, or
    /// when any feature value is non-finite — a NaN input would
    /// otherwise propagate silently into the sigmoid output. Callers
    /// scoring untrusted rows should use
    /// [`ModelBundle::score_batch_quarantined`], which isolates bad rows
    /// instead of panicking.
    pub fn score_batch(&self, features: &[f32], env_ids: &[u16]) -> Vec<f64> {
        let nf = self.n_features();
        assert_eq!(
            features.len(),
            env_ids.len() * nf,
            "features must hold n_features values per env_id"
        );
        if let Some(i) = features.iter().position(|v| !v.is_finite()) {
            panic!(
                "non-finite feature at row {}, column {}: \
                 quarantine inputs via score_batch_quarantined",
                i / nf.max(1),
                i % nf.max(1)
            );
        }
        let n = env_ids.len();
        if n == 0 {
            return Vec::new();
        }
        let indices = self.extractor.transform_batch(features);
        let x = MultiHotMatrix::new(
            indices,
            self.extractor.n_trees(),
            self.extractor.total_leaves(),
        )
        .expect("extractor produces well-formed leaf indices");
        let mut out = vec![0.0; n];
        match &self.model {
            TrainedModel::Global(m) => {
                let rows: Vec<u32> = (0..n as u32).collect();
                crate::kernels::predict_rows_into(&m.weights, &x, &rows, &mut out);
            }
            TrainedModel::PerEnv { .. } => {
                // Group the batch rows by head so each head runs one
                // batched kernel call over its rows.
                let mut by_env: std::collections::BTreeMap<u16, Vec<u32>> =
                    std::collections::BTreeMap::new();
                for (k, &e) in env_ids.iter().enumerate() {
                    by_env.entry(e).or_default().push(k as u32);
                }
                let mut scores = Vec::new();
                for (&e, rows) in &by_env {
                    let head = self.model.head(e);
                    scores.resize(rows.len(), 0.0);
                    crate::kernels::predict_rows_into(&head.weights, &x, rows, &mut scores);
                    for (&r, &s) in rows.iter().zip(&scores) {
                        out[r as usize] = s;
                    }
                }
            }
        }
        out
    }

    /// Validation-first batch scoring: split out rows the policy
    /// quarantines (non-finite always; `|x| > max_abs` when bounded),
    /// score the clean remainder, and report per-row verdicts.
    ///
    /// Scoring is elementwise per row, so the clean rows' scores are
    /// **bit-identical** to scoring an all-clean batch (or each row
    /// individually) — a bad row never perturbs its batch neighbors.
    /// Quarantined rows receive the policy's fallback value.
    ///
    /// # Panics
    ///
    /// Panics when `features.len() != env_ids.len() * n_features`.
    pub fn score_batch_quarantined(
        &self,
        features: &[f32],
        env_ids: &[u16],
        policy: &QuarantinePolicy,
    ) -> QuarantinedScores {
        let nf = self.n_features();
        assert_eq!(
            features.len(),
            env_ids.len() * nf,
            "features must hold n_features values per env_id"
        );
        let n = env_ids.len();
        let mut quarantined = Vec::new();
        for r in 0..n {
            let row = &features[r * nf..(r + 1) * nf];
            let fault = row.iter().enumerate().find_map(|(c, &v)| {
                if !v.is_finite() {
                    Some((c, ValueFault::NonFinite))
                } else if policy.max_abs.is_some_and(|bound| v.abs() > bound) {
                    Some((c, ValueFault::OutOfRange))
                } else {
                    None
                }
            });
            if let Some((col, fault)) = fault {
                quarantined.push(RowQuarantine {
                    row: r as u32,
                    col: col as u32,
                    fault,
                });
            }
        }
        if quarantined.is_empty() {
            return QuarantinedScores {
                scores: self.score_batch(features, env_ids),
                quarantined,
            };
        }
        // Pack the clean rows, score them, scatter the results back.
        let mut bad = vec![false; n];
        for q in &quarantined {
            bad[q.row as usize] = true;
        }
        let clean_n = n - quarantined.len();
        let mut clean_features = Vec::with_capacity(clean_n * nf);
        let mut clean_envs = Vec::with_capacity(clean_n);
        let mut clean_rows = Vec::with_capacity(clean_n);
        for r in 0..n {
            if !bad[r] {
                clean_features.extend_from_slice(&features[r * nf..(r + 1) * nf]);
                clean_envs.push(env_ids[r]);
                clean_rows.push(r);
            }
        }
        let clean_scores = self.score_batch(&clean_features, &clean_envs);
        let fallback = match policy.fallback {
            QuarantineFallback::Error => f64::NAN,
            QuarantineFallback::PriorScore(p) => p,
        };
        let mut scores = vec![fallback; n];
        for (r, s) in clean_rows.into_iter().zip(clean_scores) {
            scores[r] = s;
        }
        QuarantinedScores {
            scores,
            quarantined,
        }
    }

    /// Serialize to the durable on-disk envelope: a header line carrying
    /// the format version, payload CRC-32, and payload length, followed
    /// by the JSON document. [`ModelBundle::from_envelope`] verifies all
    /// three before parsing.
    pub fn to_envelope(&self) -> String {
        let payload = self.to_json();
        let crc = crc32(payload.as_bytes());
        format!(
            "{ENVELOPE_MAGIC} v{BUNDLE_VERSION} crc32={crc:08x} len={}\n{payload}",
            payload.len()
        )
    }

    /// Parse either the checksummed envelope or (for backward
    /// compatibility) a bare JSON bundle document.
    ///
    /// # Errors
    ///
    /// [`BundleError::Corrupt`] when the envelope header is malformed,
    /// the payload is truncated, or the checksum does not match; the
    /// [`ModelBundle::from_json`] errors otherwise.
    pub fn from_envelope(text: &str) -> Result<Self, BundleError> {
        let Some(rest) = text.strip_prefix(ENVELOPE_MAGIC) else {
            // Legacy bare-JSON bundle: no integrity metadata to check.
            return Self::from_json(text);
        };
        let (header, payload) = rest
            .split_once('\n')
            .ok_or_else(|| BundleError::Corrupt("envelope has no payload line".into()))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        let [version, crc_field, len_field] = fields[..] else {
            return Err(BundleError::Corrupt(format!(
                "envelope header has {} fields, expected 3",
                fields.len()
            )));
        };
        let found_version: u32 = version
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| BundleError::Corrupt(format!("bad envelope version {version:?}")))?;
        if found_version != BUNDLE_VERSION {
            return Err(BundleError::VersionMismatch {
                found: found_version,
                supported: BUNDLE_VERSION,
            });
        }
        let expected_crc = crc_field
            .strip_prefix("crc32=")
            .and_then(|v| u32::from_str_radix(v, 16).ok())
            .ok_or_else(|| BundleError::Corrupt(format!("bad checksum field {crc_field:?}")))?;
        let expected_len: usize = len_field
            .strip_prefix("len=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| BundleError::Corrupt(format!("bad length field {len_field:?}")))?;
        if payload.len() != expected_len {
            return Err(BundleError::Corrupt(format!(
                "payload truncated: {} bytes, header says {expected_len}",
                payload.len()
            )));
        }
        let found_crc = crc32(payload.as_bytes());
        if found_crc != expected_crc {
            return Err(BundleError::Corrupt(format!(
                "checksum mismatch: payload crc32 {found_crc:08x}, header says {expected_crc:08x}"
            )));
        }
        Self::from_json(payload)
    }

    /// Write the checksummed envelope atomically and durably: the bytes
    /// go to a `<path>.tmp` sibling first, the tmp file is fsynced, and
    /// only then is it renamed into place — so a crash mid-write never
    /// leaves a truncated bundle at `path` (the incumbent file survives
    /// intact), and a power loss just after the rename cannot surface a
    /// correctly-named file with unflushed contents. The parent
    /// directory is fsynced after the rename so the directory entry
    /// itself is durable.
    ///
    /// # Errors
    ///
    /// [`BundleError::Io`] on filesystem failure.
    pub fn save_to_path(&self, path: &Path) -> Result<(), BundleError> {
        use std::io::Write;
        let data = self.to_envelope();
        let bytes = data.as_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        // Failpoint: simulate a crash partway through the write — the
        // tmp file is left truncated and the rename never happens.
        let cut = match failpoint::fire("bundle::partial_write") {
            Some(failpoint::Fault::IoError) => bytes.len() / 2,
            _ => bytes.len(),
        };
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes[..cut])?;
        if cut < bytes.len() {
            return Err(BundleError::Io(std::io::Error::other(
                "injected partial write",
            )));
        }
        // Flush file contents to stable storage *before* the rename:
        // rename-then-sync can expose a durable name pointing at
        // not-yet-durable bytes after a crash.
        failpoint::io_point("bundle::fsync")?;
        file.sync_all()?;
        drop(file);
        failpoint::io_point("bundle::rename")?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable: fsync the parent directory so
        // the new directory entry survives a crash.
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        failpoint::io_point("bundle::dir_sync")?;
        std::fs::File::open(parent)?.sync_all()?;
        Ok(())
    }

    /// Read and verify a bundle written by [`ModelBundle::save_to_path`]
    /// (or a legacy bare-JSON file).
    ///
    /// # Errors
    ///
    /// [`BundleError::Io`] on read failure; the
    /// [`ModelBundle::from_envelope`] errors otherwise.
    pub fn load_from_path(path: &Path) -> Result<Self, BundleError> {
        failpoint::io_point("bundle::read")?;
        let text = std::fs::read_to_string(path)?;
        Self::from_envelope(&text)
    }

    /// Score one raw feature row end to end (extract leaves, apply the
    /// head). `env_id` selects the per-environment head when present.
    pub fn score(&self, raw_row: &[f32], env_id: u16) -> f64 {
        let mut leaf_buf = Vec::new();
        self.extractor.transform_row(raw_row, &mut leaf_buf);
        let head = self.model.head(env_id);
        let z: f64 = leaf_buf.iter().map(|&i| head.weights[i as usize]).sum();
        crate::lr::sigmoid(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr::LrModel;
    use lightmirm_gbdt::{GbdtConfig, GrowConfig};

    fn demo_parts() -> (Gbdt, Vec<f32>, Vec<u8>) {
        let n = 400;
        let mut feats = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let x = (i % 100) as f32 / 100.0;
            feats.extend_from_slice(&[x, (i % 7) as f32]);
            labels.push((x > 0.5) as u8);
        }
        let gbdt = Gbdt::fit(
            &feats,
            2,
            &labels,
            &GbdtConfig {
                n_trees: 4,
                learning_rate: 0.3,
                max_bins: 16,
                grow: GrowConfig {
                    max_leaves: 4,
                    min_data_in_leaf: 10,
                    lambda_l2: 1.0,
                    min_gain: 1e-6,
                },
            },
        )
        .expect("toy fits");
        (gbdt, feats, labels)
    }

    fn demo_bundle() -> (ModelBundle, Vec<f32>) {
        let (gbdt, feats, _) = demo_parts();
        let model = TrainedModel::Global(LrModel {
            weights: (0..gbdt.total_leaves())
                .map(|i| (i as f64) * 0.1 - 0.5)
                .collect(),
        });
        let bundle = ModelBundle::new(
            gbdt,
            &model,
            BundleMetadata {
                trainer: "test".into(),
                seed: 1,
                notes: "demo".into(),
            },
        )
        .expect("dimensions match");
        (bundle, feats)
    }

    #[test]
    fn json_round_trip_preserves_scores() {
        let (bundle, feats) = demo_bundle();
        let json = bundle.to_json();
        let back = ModelBundle::from_json(&json).expect("valid bundle");
        assert_eq!(bundle, back);
        for row in feats.chunks_exact(2).take(20) {
            assert_eq!(bundle.score(row, 0), back.score(row, 0));
        }
    }

    #[test]
    fn scores_are_probabilities() {
        let (bundle, feats) = demo_bundle();
        for row in feats.chunks_exact(2) {
            let p = bundle.score(row, 3);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn rejects_dimension_mismatch_on_build() {
        let (gbdt, _, _) = demo_parts();
        let model = TrainedModel::Global(LrModel {
            weights: vec![0.0; 3],
        });
        assert!(matches!(
            ModelBundle::new(gbdt, &model, BundleMetadata::default()),
            Err(BundleError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_version_mismatch_on_load() {
        let (bundle, _) = demo_bundle();
        let json = bundle.to_json().replace("\"version\":1", "\"version\":99");
        assert!(matches!(
            ModelBundle::from_json(&json),
            Err(BundleError::VersionMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            ModelBundle::from_json("not json"),
            Err(BundleError::Malformed(_))
        ));
    }

    #[test]
    fn score_batch_is_bit_identical_to_per_row_score() {
        let (bundle, feats) = demo_bundle();
        let n = feats.len() / 2;
        let env_ids: Vec<u16> = (0..n).map(|i| (i % 3) as u16).collect();
        let batch = bundle.score_batch(&feats, &env_ids);
        assert_eq!(batch.len(), n);
        for (k, row) in feats.chunks_exact(2).enumerate() {
            assert_eq!(batch[k], bundle.score(row, env_ids[k]));
        }
        // Splitting the same stream differently cannot change the values.
        let (a, b) = feats.split_at(2 * (n / 3));
        let mut split = bundle.score_batch(a, &env_ids[..n / 3]);
        split.extend(bundle.score_batch(b, &env_ids[n / 3..]));
        assert_eq!(batch, split);
        assert!(bundle.score_batch(&[], &[]).is_empty());
    }

    #[test]
    fn score_batch_routes_per_env_heads() {
        let (gbdt, feats, _) = demo_parts();
        let dim = gbdt.total_leaves();
        let model = TrainedModel::PerEnv {
            base: LrModel {
                weights: vec![0.0; dim],
            },
            per_env: vec![Some(LrModel {
                weights: vec![10.0; dim],
            })],
        };
        let bundle = ModelBundle::new(gbdt, &model, BundleMetadata::default()).expect("ok");
        let n = feats.len() / 2;
        let env_ids: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
        let batch = bundle.score_batch(&feats, &env_ids);
        for (k, row) in feats.chunks_exact(2).enumerate() {
            assert_eq!(batch[k], bundle.score(row, env_ids[k]));
        }
    }

    #[test]
    #[should_panic(expected = "n_features")]
    fn score_batch_rejects_misaligned_features() {
        let (bundle, feats) = demo_bundle();
        let _ = bundle.score_batch(&feats[..3], &[0]);
    }

    #[test]
    #[should_panic(expected = "non-finite feature at row 1, column 0")]
    fn score_batch_panics_on_nan_instead_of_propagating() {
        let (bundle, feats) = demo_bundle();
        let mut feats = feats[..8].to_vec();
        feats[2] = f32::NAN;
        let _ = bundle.score_batch(&feats, &[0, 0, 0, 0]);
    }

    #[test]
    fn quarantine_isolates_bad_rows_and_keeps_clean_rows_bit_identical() {
        let (bundle, feats) = demo_bundle();
        let n = 32;
        let clean = feats[..n * 2].to_vec();
        let env_ids: Vec<u16> = (0..n).map(|i| (i % 3) as u16).collect();
        let all_clean = bundle.score_batch(&clean, &env_ids);

        // Poison rows 3 (NaN), 10 (+inf), 20 (-inf) in a copy.
        let mut mixed = clean.clone();
        mixed[3 * 2] = f32::NAN;
        mixed[10 * 2 + 1] = f32::INFINITY;
        mixed[20 * 2] = f32::NEG_INFINITY;
        let out = bundle.score_batch_quarantined(&mixed, &env_ids, &QuarantinePolicy::default());
        let bad_rows: Vec<u32> = out.quarantined.iter().map(|q| q.row).collect();
        assert_eq!(bad_rows, [3, 10, 20]);
        assert!(out
            .quarantined
            .iter()
            .all(|q| q.fault == ValueFault::NonFinite));
        for (r, reference) in all_clean.iter().enumerate() {
            if bad_rows.contains(&(r as u32)) {
                assert!(out.scores[r].is_nan(), "fallback Error leaves NaN at {r}");
            } else {
                // The regression guarantee: a bad neighbor cannot change
                // a clean row's score by even one ULP.
                assert_eq!(
                    out.scores[r].to_bits(),
                    reference.to_bits(),
                    "clean row {r} drifted next to quarantined rows"
                );
            }
        }

        // PriorScore fallback substitutes the configured prior.
        let prior = bundle.score_batch_quarantined(
            &mixed,
            &env_ids,
            &QuarantinePolicy {
                fallback: QuarantineFallback::PriorScore(0.03),
                ..QuarantinePolicy::default()
            },
        );
        assert_eq!(prior.scores[3], 0.03);
        assert_eq!(prior.scores[4].to_bits(), all_clean[4].to_bits());
    }

    #[test]
    fn quarantine_max_abs_bound_flags_out_of_range() {
        let (bundle, feats) = demo_bundle();
        let mut rows = feats[..8].to_vec();
        rows[5] = 1e9;
        let out = bundle.score_batch_quarantined(
            &rows,
            &[0, 0, 0, 0],
            &QuarantinePolicy {
                max_abs: Some(1e6),
                fallback: QuarantineFallback::Error,
            },
        );
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].row, 2);
        assert_eq!(out.quarantined[0].col, 1);
        assert_eq!(out.quarantined[0].fault, ValueFault::OutOfRange);
    }

    #[test]
    fn quarantine_of_clean_batch_is_fast_path_identical() {
        let (bundle, feats) = demo_bundle();
        let env_ids: Vec<u16> = (0..feats.len() / 2).map(|i| (i % 2) as u16).collect();
        let plain = bundle.score_batch(&feats, &env_ids);
        let checked =
            bundle.score_batch_quarantined(&feats, &env_ids, &QuarantinePolicy::default());
        assert!(checked.quarantined.is_empty());
        assert_eq!(plain, checked.scores);
    }

    #[test]
    fn envelope_round_trips_and_detects_tampering() {
        let (bundle, _) = demo_bundle();
        let env = bundle.to_envelope();
        assert!(env.starts_with("LMIRM-BUNDLE v1 crc32="));
        let back = ModelBundle::from_envelope(&env).expect("valid envelope");
        assert_eq!(bundle, back);
        // Legacy bare JSON still loads.
        let legacy = ModelBundle::from_envelope(&bundle.to_json()).expect("legacy");
        assert_eq!(bundle, legacy);
        // One flipped payload byte trips the checksum.
        let mut bytes = env.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let tampered = String::from_utf8(bytes).expect("still utf8");
        assert!(matches!(
            ModelBundle::from_envelope(&tampered),
            Err(BundleError::Corrupt(_))
        ));
    }

    #[test]
    fn quantile_sketch_is_sorted_and_skips_non_finite() {
        let mut samples: Vec<f64> = (0..500).map(|i| f64::from(i % 97) / 97.0).collect();
        samples.push(f64::NAN);
        samples.push(f64::INFINITY);
        let sketch = QuantileSketch::from_samples(&samples, 32).expect("sketch");
        assert_eq!(sketch.points.len(), 32);
        assert_eq!(sketch.count, 500);
        assert!(sketch.points.windows(2).all(|w| w[0] <= w[1]));
        assert!(sketch.points.iter().all(|p| p.is_finite()));
        assert!(QuantileSketch::from_samples(&[f64::NAN], 8).is_none());
        assert!(QuantileSketch::from_samples(&[1.0, 2.0], 1).is_none());
    }

    #[test]
    fn top_k_columns_ranks_by_gain() {
        let imp = [0.0, 5.0, 1.0, 5.0, 3.0];
        assert_eq!(DriftBaseline::top_k_columns(&imp, 3), vec![1, 3, 4]);
        // Zero-importance columns never make the cut, even with room.
        assert_eq!(DriftBaseline::top_k_columns(&imp, 10), vec![1, 2, 3, 4]);
    }

    #[test]
    fn baseline_capture_sketches_each_env() {
        let n = 300;
        let env_ids: Vec<u16> = (0..n).map(|i| (i % 3) as u16).collect();
        let scores: Vec<f64> = (0..n).map(|i| f64::from(i as u32) / n as f64).collect();
        let features: Vec<f32> = (0..n * 2).map(|i| (i % 13) as f32).collect();
        let baseline = DriftBaseline::capture(&scores, &env_ids, &features, 2, &[0, 1], 16);
        assert_eq!(baseline.envs.len(), 3);
        for env in 0..3u16 {
            let eb = baseline.env(env).expect("env captured");
            assert_eq!(eb.scores.count, 100);
            assert_eq!(eb.features.len(), 2);
        }
        assert!(baseline.env(9).is_none());
    }

    #[test]
    fn bundle_baseline_round_trips_through_envelope() {
        let (bundle, feats) = demo_bundle();
        let n = feats.len() / 2;
        let env_ids: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
        let scores = bundle.score_batch(&feats, &env_ids);
        let baseline = DriftBaseline::capture(&scores, &env_ids, &feats, 2, &[0, 1], 24);
        let bundle = bundle.with_baseline(baseline.clone());
        let back = ModelBundle::from_envelope(&bundle.to_envelope()).expect("valid");
        assert_eq!(back.baseline.as_ref(), Some(&baseline));
        assert_eq!(bundle, back);
    }

    #[test]
    fn lineage_round_trips_through_envelope() {
        let (bundle, _) = demo_bundle();
        let parent_crc32 = bundle.payload_crc32();
        let lineage = BundleLineage {
            parent_crc32,
            trigger_env: 7,
            trigger_psi: 0.31,
            rows_used: 4096,
            generation: 2,
        };
        let adapted = bundle.clone().with_lineage(lineage.clone());
        // Lineage changes the payload, and therefore the identity hash.
        assert_ne!(adapted.payload_crc32(), parent_crc32);
        let back = ModelBundle::from_envelope(&adapted.to_envelope()).expect("valid");
        assert_eq!(back.lineage.as_ref(), Some(&lineage));
        assert_eq!(adapted, back);
    }

    #[test]
    fn legacy_bundle_without_lineage_field_loads_as_none() {
        let (bundle, _) = demo_bundle();
        let json = bundle.to_json();
        // A pre-lineage bundle document has no such key at all.
        let legacy = json.replace(",\"lineage\":null", "");
        assert_ne!(json, legacy, "lineage field should serialize");
        let back = ModelBundle::from_json(&legacy).expect("legacy bundle loads");
        assert_eq!(back.lineage, None);
        assert_eq!(bundle, back);
    }

    #[test]
    fn legacy_bundle_without_baseline_field_loads_as_none() {
        let (bundle, _) = demo_bundle();
        let json = bundle.to_json();
        // A pre-baseline bundle document has no such key at all.
        let legacy = json.replace(",\"baseline\":null", "");
        assert_ne!(json, legacy, "baseline field should serialize last");
        let back = ModelBundle::from_json(&legacy).expect("legacy bundle loads");
        assert_eq!(back.baseline, None);
        assert_eq!(bundle, back);
    }

    #[test]
    fn per_env_bundle_routes_heads() {
        let (gbdt, feats, _) = demo_parts();
        let dim = gbdt.total_leaves();
        let base = LrModel {
            weights: vec![0.0; dim],
        };
        let hot = LrModel {
            weights: vec![10.0; dim],
        };
        let model = TrainedModel::PerEnv {
            base: base.clone(),
            per_env: vec![Some(hot), None],
        };
        let bundle = ModelBundle::new(gbdt, &model, BundleMetadata::default()).expect("ok");
        let row = &feats[0..2];
        assert!(bundle.score(row, 0) > 0.99); // env 0: hot head
        assert!((bundle.score(row, 1) - 0.5).abs() < 1e-12); // env 1: base
        assert!((bundle.score(row, 42) - 0.5).abs() < 1e-12); // unknown env
    }
}
