//! `obs::slo` — service-level objectives and burn-rate evaluation.
//!
//! An SLO spec is parsed from a compact CLI grammar (the `--slo` flag),
//! evaluated against one or more observation windows, and the verdicts
//! are journaled as `slo_eval` records.
//!
//! # Spec grammar
//!
//! Comma-separated objectives, each optionally scope-prefixed:
//!
//! ```text
//! p99=5ms,p999=20ms,avail=0.999
//! low:p99=50ms,high:p99=2ms,avail=0.9999
//! ```
//!
//! - `p<digits>=<duration>` — a latency objective: the given quantile of
//!   enqueue-to-reply latency must not exceed the target. `p99` reads as
//!   the 0.99 quantile, `p999` as 0.999, `p50` as 0.5. Durations take
//!   `ns`/`us`/`ms`/`s` suffixes (fractional values allowed).
//! - `avail=<fraction>` — an availability objective: at least this
//!   fraction of accepted requests must be answered with scores (sheds,
//!   deadline expiries and poisoned batches all count against it).
//! - `scope:` — an optional priority scope (`all` when omitted). An
//!   `all` objective is evaluated against every window; a scoped one
//!   only against windows carrying the same scope.
//!
//! # Burn rate
//!
//! Every objective implies an **error budget**: the allowed fraction of
//! bad events (`1 − q` for a latency objective, `1 − target` for
//! availability). The burn rate of a window is
//!
//! ```text
//! burn = observed_bad_fraction / error_budget
//! ```
//!
//! so `burn == 1.0` means the window consumed its budget exactly and
//! `burn > 1.0` is a breach. Multi-window evaluation (the classic
//! long-window + short-window alerting pair) falls out of passing
//! several [`SloWindow`]s: the long window catches slow burns, the
//! short window catches fast ones. Latency bad-event counts come from
//! [`Histogram::count_above`], which estimates each observation at its
//! bucket's clamped upper bound — identical to the quantile estimator,
//! so burn verdicts and reported percentiles can never contradict each
//! other by more than one power-of-two bucket.

use super::journal::Journal;
use crate::timing::Histogram;

/// One parsed objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Priority scope: `all` or a specific priority name.
    pub scope: String,
    /// The original spec token (used as the stable journal label).
    pub raw: String,
    /// What is being promised.
    pub kind: ObjectiveKind,
}

/// The promise an [`Objective`] makes.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveKind {
    /// `quantile` of latency must not exceed `target_ns`.
    LatencyQuantile {
        /// Quantile in `(0, 1)`.
        quantile: f64,
        /// Target latency, nanoseconds.
        target_ns: u64,
    },
    /// At least `target` of accepted requests must succeed.
    Availability {
        /// Required success fraction in `(0, 1)`.
        target: f64,
    },
}

impl Objective {
    /// The allowed bad-event fraction (the error budget).
    #[must_use]
    pub fn budget(&self) -> f64 {
        match self.kind {
            ObjectiveKind::LatencyQuantile { quantile, .. } => 1.0 - quantile,
            ObjectiveKind::Availability { target } => 1.0 - target,
        }
    }
}

/// A parsed `--slo` spec: one or more objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Objectives in spec order.
    pub objectives: Vec<Objective>,
}

impl SloSpec {
    /// Parse the CLI grammar described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending token on any malformed
    /// objective, quantile, duration, or fraction.
    pub fn parse(spec: &str) -> Result<SloSpec, String> {
        let mut objectives = Vec::new();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (scope, body) = match token.split_once(':') {
                Some((s, b)) => (s.trim().to_string(), b.trim()),
                None => ("all".to_string(), token),
            };
            let (key, value) = body
                .split_once('=')
                .ok_or_else(|| format!("slo objective {token:?}: expected key=value"))?;
            let kind = if key == "avail" {
                let target: f64 = value
                    .parse()
                    .map_err(|_| format!("slo objective {token:?}: bad fraction {value:?}"))?;
                if !(0.0..1.0).contains(&target) {
                    return Err(format!(
                        "slo objective {token:?}: availability must be in [0, 1)"
                    ));
                }
                ObjectiveKind::Availability { target }
            } else if let Some(digits) = key.strip_prefix('p') {
                if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(format!("slo objective {token:?}: bad quantile {key:?}"));
                }
                let quantile: f64 = format!("0.{digits}")
                    .parse()
                    .map_err(|_| format!("slo objective {token:?}: bad quantile {key:?}"))?;
                if quantile <= 0.0 || quantile >= 1.0 {
                    return Err(format!(
                        "slo objective {token:?}: quantile must be in (0, 1)"
                    ));
                }
                ObjectiveKind::LatencyQuantile {
                    quantile,
                    target_ns: parse_duration_ns(value).ok_or_else(|| {
                        format!("slo objective {token:?}: bad duration {value:?}")
                    })?,
                }
            } else {
                return Err(format!(
                    "slo objective {token:?}: unknown key {key:?} (expected p<digits> or avail)"
                ));
            };
            objectives.push(Objective {
                scope,
                raw: token.to_string(),
                kind,
            });
        }
        if objectives.is_empty() {
            return Err("slo spec is empty".to_string());
        }
        Ok(SloSpec { objectives })
    }
}

/// Parse `5ms` / `250us` / `1.5s` / `800ns` / bare-nanosecond digits.
/// `None` when the text does not parse, is negative, or names 2⁶⁴ ns
/// (about 584 years) or more.
#[must_use]
pub fn parse_duration_ns(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, scale) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.trim().parse().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    let ns = (v * scale).round();
    // `u64::MAX as f64` is 2⁶⁴; `as u64` would saturate anything at or
    // past it to u64::MAX.
    (ns < u64::MAX as f64).then_some(ns as u64)
}

/// One observation window to evaluate objectives against.
pub struct SloWindow<'a> {
    /// Window label (`run`, `tail`, …) — journaled verbatim.
    pub name: String,
    /// Priority scope this window covers (`all` for merged traffic).
    pub scope: String,
    /// Latency distribution of successful requests, nanoseconds.
    pub latency_ns: &'a Histogram,
    /// Accepted requests in the window.
    pub total: u64,
    /// Requests answered with an error (shed, expired, poisoned, …).
    pub errors: u64,
}

/// The verdict of one (objective, window) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnEntry {
    /// The objective's original spec token.
    pub objective: String,
    /// The window's label.
    pub window: String,
    /// The objective's error budget (allowed bad fraction).
    pub budget: f64,
    /// Bad events observed in the window.
    pub bad: u64,
    /// Total events considered.
    pub total: u64,
    /// `bad / total` (0 when the window is empty).
    pub bad_fraction: f64,
    /// `bad_fraction / budget`.
    pub burn: f64,
    /// `burn > 1.0`.
    pub breached: bool,
}

/// Evaluate every objective against every scope-matching window.
#[must_use]
pub fn evaluate(spec: &SloSpec, windows: &[SloWindow]) -> Vec<BurnEntry> {
    let mut entries = Vec::new();
    for obj in &spec.objectives {
        for w in windows {
            if obj.scope != "all" && obj.scope != w.scope {
                continue;
            }
            let (bad, total) = match obj.kind {
                ObjectiveKind::LatencyQuantile { target_ns, .. } => {
                    (w.latency_ns.count_above(target_ns), w.latency_ns.count())
                }
                ObjectiveKind::Availability { .. } => (w.errors, w.total),
            };
            let bad_fraction = if total == 0 {
                0.0
            } else {
                bad as f64 / total as f64
            };
            let budget = obj.budget();
            let burn = if budget > 0.0 {
                bad_fraction / budget
            } else {
                0.0
            };
            entries.push(BurnEntry {
                objective: obj.raw.clone(),
                window: w.name.clone(),
                budget,
                bad,
                total,
                bad_fraction,
                burn,
                breached: burn > 1.0,
            });
        }
    }
    entries
}

/// Journal the verdicts: one `slo_eval` record per entry. The objective
/// token, window name, and budget are pure functions of the spec, so
/// they go in `fields`; everything measured (counts, burn, the breach
/// verdict itself) goes in `obs` so normalized journals stay
/// deterministic across runs with different timing.
pub fn record_into(journal: &mut Journal, entries: &[BurnEntry]) {
    for e in entries {
        journal
            .record("slo_eval")
            .field("objective", e.objective.as_str())
            .field("window", e.window.as_str())
            .field("budget", e.budget)
            .obs("bad", e.bad)
            .obs("total", e.total)
            .obs("bad_fraction", e.bad_fraction)
            .obs("burn", e.burn)
            .obs("breached", e.breached);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn parses_the_full_grammar() {
        let spec = SloSpec::parse("p99=5ms, p999=20ms, avail=0.999, low:p50=1s").unwrap();
        assert_eq!(spec.objectives.len(), 4);
        assert_eq!(
            spec.objectives[0].kind,
            ObjectiveKind::LatencyQuantile {
                quantile: 0.99,
                target_ns: 5_000_000
            }
        );
        assert_eq!(
            spec.objectives[1].kind,
            ObjectiveKind::LatencyQuantile {
                quantile: 0.999,
                target_ns: 20_000_000
            }
        );
        assert_eq!(
            spec.objectives[2].kind,
            ObjectiveKind::Availability { target: 0.999 }
        );
        assert_eq!(spec.objectives[3].scope, "low");
        assert!((spec.objectives[0].budget() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "p99",
            "p=5ms",
            "pxx=5ms",
            "p99=fast",
            "avail=1.5",
            "latency=5ms",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duration_suffixes_scale_correctly() {
        assert_eq!(parse_duration_ns("800ns"), Some(800));
        assert_eq!(parse_duration_ns("250us"), Some(250_000));
        assert_eq!(parse_duration_ns("5ms"), Some(5_000_000));
        assert_eq!(parse_duration_ns("1.5s"), Some(1_500_000_000));
        assert_eq!(parse_duration_ns("1234"), Some(1234));
        assert_eq!(parse_duration_ns("-1ms"), None);
        assert_eq!(parse_duration_ns("soon"), None);
    }

    #[test]
    fn durations_past_u64_nanoseconds_are_rejected_not_saturated() {
        for huge in ["1e11s", "1e300s", "2e19"] {
            assert_eq!(parse_duration_ns(huge), None, "{huge}");
        }
        assert_eq!(parse_duration_ns("5ms"), Some(5_000_000));
        let err = SloSpec::parse("p99=1e11s").unwrap_err();
        assert!(err.contains("1e11s"), "{err}");
    }

    #[test]
    fn burn_is_bad_fraction_over_budget() {
        // 100 samples at ~1ms, 2 at ~100ms: 2% above a 5ms target.
        let mut values = vec![1_000_000u64; 100];
        values.extend([100_000_000, 100_000_000]);
        let h = hist(&values);
        let spec = SloSpec::parse("p99=5ms,avail=0.99").unwrap();
        let windows = [SloWindow {
            name: "run".into(),
            scope: "all".into(),
            latency_ns: &h,
            total: 102,
            errors: 0,
        }];
        let entries = evaluate(&spec, &windows);
        assert_eq!(entries.len(), 2);
        let lat = &entries[0];
        assert_eq!((lat.bad, lat.total), (2, 102));
        // 2/102 ≈ 1.96% bad against a 1% budget: roughly 2× burn.
        assert!(lat.burn > 1.5 && lat.burn < 2.5, "burn {}", lat.burn);
        assert!(lat.breached);
        let avail = &entries[1];
        assert_eq!(avail.bad, 0);
        assert!(!avail.breached);
    }

    #[test]
    fn scoped_objectives_only_match_their_windows() {
        let h = hist(&[1_000]);
        let spec = SloSpec::parse("low:p50=1ms").unwrap();
        let windows = [
            SloWindow {
                name: "run".into(),
                scope: "all".into(),
                latency_ns: &h,
                total: 1,
                errors: 0,
            },
            SloWindow {
                name: "run_low".into(),
                scope: "low".into(),
                latency_ns: &h,
                total: 1,
                errors: 0,
            },
        ];
        let entries = evaluate(&spec, &windows);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].window, "run_low");
    }

    #[test]
    fn empty_windows_never_breach() {
        let h = Histogram::new();
        let spec = SloSpec::parse("p99=1ms,avail=0.999").unwrap();
        let windows = [SloWindow {
            name: "tail".into(),
            scope: "all".into(),
            latency_ns: &h,
            total: 0,
            errors: 0,
        }];
        for e in evaluate(&spec, &windows) {
            assert_eq!(e.bad_fraction, 0.0);
            assert!(!e.breached);
        }
    }

    #[test]
    fn journal_records_put_verdicts_in_obs() {
        let h = hist(&[1_000_000; 10]);
        let spec = SloSpec::parse("p99=5ms").unwrap();
        let entries = evaluate(
            &spec,
            &[SloWindow {
                name: "run".into(),
                scope: "all".into(),
                latency_ns: &h,
                total: 10,
                errors: 0,
            }],
        );
        let mut j = Journal::new();
        record_into(&mut j, &entries);
        let recs = j.of_kind("slo_eval");
        assert_eq!(recs.len(), 1);
        assert!(recs[0].fields.contains_key("objective"));
        assert!(recs[0].obs.contains_key("burn"));
        // Normalized output carries no measured verdicts.
        let norm = j.to_jsonl_normalized();
        assert!(
            !norm.contains("burn") && !norm.contains("breached"),
            "{norm}"
        );
    }
}
