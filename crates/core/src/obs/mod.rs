//! `core::obs` — zero-dependency observability: metrics, tracing, export.
//!
//! Three pieces:
//!
//! - [`metrics`]: a [`MetricsRegistry`] of counters, gauges and
//!   [`crate::timing::Histogram`]s, read out as sorted, mergeable
//!   [`MetricsSnapshot`]s;
//! - [`trace`]: `span!`/`event!` macros feeding a bounded ring buffer
//!   and pluggable sinks (JSON-lines file, no-op); every span records
//!   its parent's id, also across parallel workers;
//! - [`export`]: Prometheus-text and JSON renderers for snapshots.
//!
//! Two ops-facing layers sit on top:
//!
//! - [`journal`]: the unified versioned JSONL operations journal
//!   (adaptation, drift, reload, shed/deadline, failpoint and SLO
//!   records under one schema with monotone sequence numbers);
//! - [`slo`]: latency/availability objectives, error budgets, and
//!   multi-window burn-rate evaluation feeding the journal.
//!
//! # Feature gating and the determinism guarantee
//!
//! The types here always compile, so exporters, the serve engine, and
//! tests can name them unconditionally. What the `obs` cargo feature
//! controls is [`enabled()`] — a `const fn` the instrumented call sites
//! in the trainers, kernels, and scoring engine branch on. With the
//! feature off, `enabled()` is `const false`, the branches fold away,
//! and instrumentation costs nothing.
//!
//! Instrumentation is **observation only**: metric and trace values are
//! derived from the computation (and from wall-clock time), but no code
//! path ever reads them back to make a decision. Model outputs are
//! therefore bit-identical with `obs` on or off, and with any trace
//! sink attached — `crates/core/tests/obs_determinism.rs` proves it the
//! same way `parallel_determinism.rs` proves thread-count independence.
//!
//! # Quick use
//!
//! ```
//! use lightmirm_core::obs;
//!
//! // Handles are resolved once, then recorded through cheaply.
//! let hits = obs::registry().counter("mrq_hits_total", &[("env", "3")]);
//! hits.inc();
//!
//! // Spans bracket a scope; recording is on only with the `obs` feature.
//! {
//!     let _span = lightmirm_core::span!("inner_step", env = 3);
//!     // ... work ...
//! }
//!
//! let text = obs::export::to_prometheus_text(&obs::registry().snapshot());
//! assert!(text.contains("mrq_hits_total"));
//! ```

pub mod export;
pub mod journal;
pub mod metrics;
pub mod profile;
pub mod request;
pub mod slo;
pub mod trace;

pub use journal::{Journal, JournalRecord, JOURNAL_VERSION};
pub use metrics::{
    Counter, Gauge, HistogramHandle, MetricEntry, MetricKey, MetricValue, MetricsRegistry,
    MetricsSnapshot,
};
pub use profile::{escape_frame, Profile, ProfileEdge, SiteProfile, StackPath};
pub use request::{RequestTrace, TailSampler, N_STAGES, STAGE_NAMES};
pub use slo::{BurnEntry, Objective, ObjectiveKind, SloSpec, SloWindow};
pub use trace::{JsonLinesSink, NoopSink, SpanCtx, SpanGuard, TraceEvent, TraceSink};

use std::sync::OnceLock;

/// Whether the `obs` cargo feature is compiled in. `const`, so
/// `if obs::enabled() { ... }` folds away entirely when off.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-global metrics registry.
pub fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// The process-global tracer (re-exported from [`trace`]).
pub fn tracer() -> &'static trace::Tracer {
    trace::tracer()
}
