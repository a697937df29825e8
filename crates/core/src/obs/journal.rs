//! `obs::journal` — the unified, versioned operations journal.
//!
//! Before this module the serving stack's operational record was
//! scattered across three incompatible streams: the adaptation event
//! log (`serve::adapt`), drift escalations in the trace ring, and
//! shed/deadline/failpoint evidence living only in metric counters.
//! The journal absorbs all of them under **one JSONL schema** with
//! monotone sequence numbers, so `lightmirm ops-report` (and any
//! downstream collector) can replay a single stream.
//!
//! # Schema (version 1)
//!
//! One JSON object per line:
//!
//! ```json
//! {"v":1,"seq":3,"kind":"shard_stats","fields":{...},"obs":{...}}
//! ```
//!
//! - `v` — the journal schema version ([`JOURNAL_VERSION`]). Bumped on
//!   any incompatible change; readers must reject unknown versions.
//! - `seq` — monotone sequence number, assigned at record time.
//! - `kind` — the record type (free-form, lower_snake_case by
//!   convention: `journal_meta`, `replay_summary`, `shard_stats`,
//!   `slo_eval`, `drift_state`, `adapt`, `failpoint_fired`, …).
//! - `fields` — the **deterministic** payload: values that are a pure
//!   function of the configuration and the input stream (routing
//!   counts, score digests, spec strings, environment ids).
//! - `obs` — the **measured** payload: wall-clock durations, latency
//!   quantiles, shed/expiry/panic counts, burn rates — anything that
//!   may legitimately differ between two runs of the same input.
//!
//! The split is the determinism contract: [`Journal::to_jsonl_normalized`]
//! drops every `obs` object, and the remainder must be byte-identical
//! across thread counts, shard submitter interleavings, and tracing
//! on/off — CI enforces this by diffing normalized journals from
//! `RAYON_NUM_THREADS=1` and `=4` runs. Events that *exist* only
//! because of timing (a shed, a breach) therefore never appear as
//! per-occurrence records; they are folded into always-emitted summary
//! records whose counts live in `obs`.

use serde::value::{Map, Value};
use serde::Serialize;

/// Current journal schema version; readers reject anything newer.
pub const JOURNAL_VERSION: u64 = 1;

/// One journal record. See the module docs for the `fields` / `obs`
/// determinism split.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Monotone sequence number within the journal.
    pub seq: u64,
    /// Record type tag.
    pub kind: String,
    /// Deterministic payload.
    pub fields: Map,
    /// Measured (timing-dependent) payload.
    pub obs: Map,
}

impl JournalRecord {
    /// Add a deterministic field. Chainable.
    pub fn field(&mut self, key: &str, value: impl Serialize) -> &mut Self {
        self.fields.insert(key.to_string(), value.to_value());
        self
    }

    /// Add a measured observation. Chainable.
    pub fn obs(&mut self, key: &str, value: impl Serialize) -> &mut Self {
        self.obs.insert(key.to_string(), value.to_value());
        self
    }

    fn to_value(&self, include_obs: bool) -> Value {
        let mut m = Map::new();
        m.insert("v".into(), Value::UInt(JOURNAL_VERSION));
        m.insert("seq".into(), Value::UInt(self.seq));
        m.insert("kind".into(), Value::String(self.kind.clone()));
        m.insert("fields".into(), Value::Object(self.fields.clone()));
        if include_obs {
            m.insert("obs".into(), Value::Object(self.obs.clone()));
        }
        Value::Object(m)
    }
}

/// An in-memory journal: records accumulate in causal order and render
/// as JSONL. Single-writer by construction (`&mut` API); concurrent
/// producers hand their records to the owner, which keeps sequence
/// numbers monotone without locking.
#[derive(Debug, Default)]
pub struct Journal {
    records: Vec<JournalRecord>,
}

impl Journal {
    /// An empty journal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record of `kind` and return it for field population.
    /// The sequence number is assigned here and never reused.
    pub fn record(&mut self, kind: &str) -> &mut JournalRecord {
        let seq = self.records.len() as u64;
        self.records.push(JournalRecord {
            seq,
            kind: kind.to_string(),
            fields: Map::new(),
            obs: Map::new(),
        });
        self.records.last_mut().expect("just pushed")
    }

    /// All records, in sequence order.
    #[must_use]
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// Full JSONL: one record per line, `obs` included.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.render(true)
    }

    /// Normalized JSONL: `obs` objects dropped, leaving only the
    /// deterministic `v`/`seq`/`kind`/`fields` projection. Two runs of
    /// the same input must produce byte-identical normalized journals.
    #[must_use]
    pub fn to_jsonl_normalized(&self) -> String {
        self.render(false)
    }

    fn render(&self, include_obs: bool) -> String {
        let mut out = String::new();
        for rec in &self.records {
            out.push_str(&rec.to_value(include_obs).to_string());
            out.push('\n');
        }
        out
    }

    /// Write the full JSONL to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Parse a journal back from JSONL text (full or normalized form).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed JSON, a
    /// missing required key, or an unsupported schema version.
    pub fn parse(text: &str) -> Result<Journal, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v: Value =
                serde_json::from_str(line).map_err(|e| format!("journal line {}: {e}", i + 1))?;
            let version = v
                .get("v")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("journal line {}: missing \"v\"", i + 1))?;
            if version > JOURNAL_VERSION {
                return Err(format!(
                    "journal line {}: schema version {version} is newer than supported {JOURNAL_VERSION}",
                    i + 1
                ));
            }
            let seq = v
                .get("seq")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("journal line {}: missing \"seq\"", i + 1))?;
            let kind = v
                .get("kind")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("journal line {}: missing \"kind\"", i + 1))?
                .to_string();
            let fields = v
                .get("fields")
                .and_then(Value::as_object)
                .cloned()
                .unwrap_or_default();
            let obs = v
                .get("obs")
                .and_then(Value::as_object)
                .cloned()
                .unwrap_or_default();
            records.push(JournalRecord {
                seq,
                kind,
                fields,
                obs,
            });
        }
        Ok(Journal { records })
    }

    /// Records of one `kind`, in sequence order.
    #[must_use]
    pub fn of_kind(&self, kind: &str) -> Vec<&JournalRecord> {
        self.records.iter().filter(|r| r.kind == kind).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_numbers_are_monotone_from_zero() {
        let mut j = Journal::new();
        j.record("a");
        j.record("b").field("x", 1u64);
        j.record("a");
        let seqs: Vec<u64> = j.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn jsonl_roundtrips_through_parse() {
        let mut j = Journal::new();
        j.record("replay_summary")
            .field("rows", 640u64)
            .field("digest", "abc123")
            .obs("secs", 0.25f64);
        j.record("shard_stats")
            .field("shard", 0u64)
            .obs("sheds", 2u64);
        let parsed = Journal::parse(&j.to_jsonl()).unwrap();
        assert_eq!(parsed.records(), j.records());
    }

    #[test]
    fn normalized_output_strips_obs_but_keeps_fields() {
        let mut j = Journal::new();
        j.record("slo_eval")
            .field("objective", "p99<=5ms")
            .obs("burn", 0.4f64);
        let norm = j.to_jsonl_normalized();
        assert!(norm.contains("\"objective\""), "{norm}");
        assert!(!norm.contains("burn"), "{norm}");
        // The normalized projection still parses as a journal.
        let parsed = Journal::parse(&norm).unwrap();
        assert_eq!(parsed.records()[0].kind, "slo_eval");
        assert!(parsed.records()[0].obs.is_empty());
    }

    #[test]
    fn parse_rejects_future_schema_versions() {
        let line = format!(
            "{{\"v\":{},\"seq\":0,\"kind\":\"x\",\"fields\":{{}}}}",
            JOURNAL_VERSION + 1
        );
        let err = Journal::parse(&line).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
    }

    #[test]
    fn parse_names_the_offending_line() {
        let err = Journal::parse("{\"v\":1,\"seq\":0,\"kind\":\"ok\",\"fields\":{}}\nnot json")
            .unwrap_err();
        assert!(err.starts_with("journal line 2"), "{err}");
    }

    #[test]
    fn a_record_nested_a_million_deep_is_an_error_not_a_stack_overflow() {
        let line = format!(
            "{{\"v\":1,\"seq\":0,\"kind\":\"x\",\"fields\":{{\"a\":{}",
            "[".repeat(1_000_000)
        );
        let err = Journal::parse(&line).unwrap_err();
        assert!(
            err.starts_with("journal line 1: nesting deeper than"),
            "{err}"
        );
    }
}
