//! `lightmirm-serve` — the embeddable online scoring engine.
//!
//! The offline pipeline ends in a [`lightmirm_core::bundle::ModelBundle`];
//! this crate is what a scoring service wraps around one. Requests (one or
//! more raw feature rows plus their province ids) enter a **bounded
//! micro-batching work queue**: they accumulate until `max_batch` rows are
//! waiting or the oldest request has aged past `max_wait`, are scored by a
//! worker pool riding the batched kernel path
//! ([`ModelBundle::score_batch`] → `core::kernels::predict_rows_into`),
//! and the scores fan back out to each caller. Each engine's queue is one
//! mutex-guarded intake, and the scoring workers and blocked submitters
//! wait on condvars of that same mutex; the crate has no `unsafe` code.
//!
//! Guarantees:
//!
//! - **Determinism** — scoring is elementwise per row, so the returned
//!   probabilities are bit-identical to offline
//!   `TrainedModel::predict_rows`, regardless of how the stream is split
//!   into requests, how requests coalesce into micro-batches, or how many
//!   workers run (verified in `tests/serve_equivalence.rs`).
//! - **Backpressure** — the queue is bounded in rows. There is one
//!   submit call, [`ScoringEngine::submit`], and it parks on a full
//!   queue until a dispatch frees room. Above the configurable
//!   `shed_watermark`, [`Priority::Low`] traffic is refused at once with
//!   [`SubmitError::Shed`] before the queue hard-fills.
//! - **One front end** — [`ShardedEngine`] routes requests over N ≥ 1
//!   independent engine shards and is what every serving command drives
//!   (one shard reproduces a lone engine bit for bit);
//!   [`ScoringEngine`] is the per-shard engine it is built from.
//! - **Fault isolation** — every accepted request is answered exactly
//!   once with scores or a structured [`ScoreError`]: scoring panics are
//!   caught and retried up to `max_attempts` (then
//!   [`ScoreError::Poisoned`]), dead workers are respawned, locks recover
//!   from poisoning, expired batches answer
//!   [`ScoreError::DeadlineExceeded`], and non-finite input rows are
//!   quarantined per [`lightmirm_core::bundle::QuarantinePolicy`] without
//!   perturbing their batch neighbors. The `failpoints`-gated chaos suite
//!   (`tests/chaos.rs`) injects panics, delays, and I/O errors to verify
//!   the no-hang / no-silent-corruption contract deterministically.
//! - **Hot reload** — [`ScoringEngine::reload`] validates a candidate
//!   bundle on a probe batch and swaps it atomically; a failed candidate
//!   is rolled back with the incumbent still serving and no in-flight
//!   disruption.
//! - **Graceful drain** — [`ScoringEngine::shutdown`] (and `Drop`) stops
//!   intake, flushes every queued request, and joins the workers
//!   (including respawned ones); no accepted request is ever dropped.
//! - **Telemetry** — per-request latency (both queue-admission → reply
//!   and submit-call → reply, the latter including submit-side blocking),
//!   pure per-batch score time, queue depth and micro-batch size
//!   histograms, plus fault counters (panics, retries, poisoned, shed,
//!   expired, quarantined, respawns, reloads). Flattened percentiles come
//!   from [`ScoringEngine::stats`]; the full bucket shape, exportable as
//!   Prometheus text or JSON through [`lightmirm_core::obs::export`],
//!   from [`ScoringEngine::metrics_snapshot`]. With the `obs` feature the
//!   engine additionally emits `process_batch` spans to the global
//!   tracer.
//! - **Drift sentinel** — with [`EngineConfig::monitor`] set and a
//!   bundle carrying a train-time
//!   [`DriftBaseline`](lightmirm_core::bundle::DriftBaseline), a
//!   [`DriftMonitor`] watches per-environment sliding windows of scores
//!   and monitored feature columns, periodically computing windowed PSI
//!   against the baseline: `drift_psi{env,signal}` gauges,
//!   `drift_escalation` trace events on band rises, and a
//!   [`ScoringEngine::drift_report`] snapshot. Strictly observation-only
//!   — scores are bit-identical with the sentinel armed or absent
//!   (`tests/monitor.rs`); hot reload rearms it against the incoming
//!   bundle's baseline.

//! - **Online adaptation** — [`adapt`] closes the drift loop: a
//!   [`LabelFeed`] buffers recent labeled rows per province (watermarked,
//!   byte-budgeted eviction), and a [`PromotionController`] turns a
//!   Major drift escalation into a warm-started LightMIRM retrain of the
//!   LR head (leaf transform frozen), validated through the probe-batch
//!   reload path and a golden-metric canary guard before promotion —
//!   with automatic bit-identical rollback to the pristine champion,
//!   retry-with-backoff on failed retrains, cooldown against flapping,
//!   and a lineage record persisted in the adapted bundle's CRC
//!   envelope.
//! - **Request tracing** — with [`EngineConfig::trace_requests`] on, every
//!   request carries a [`lightmirm_core::obs::RequestTrace`]: a
//!   splitmix64-derived request id plus a seven-stage telescoping latency
//!   decomposition (admission, park/wake, ring residency, batch
//!   formation, quarantine, score, reply) whose stage sum equals the
//!   measured enqueue-to-reply latency exactly. The engine keeps the k
//!   slowest traces in a deterministic-selection
//!   [`lightmirm_core::obs::TailSampler`] (merged across shards by
//!   [`ShardedEngine::tail_sampler`]) and per-stage histograms in the
//!   metrics snapshot. Observation only: scores stay bit-identical with
//!   tracing on or off, and the disabled path costs one `Option` check
//!   per request.

#![forbid(unsafe_code)]

pub mod adapt;
mod engine;
pub mod loadgen;
pub mod monitor;
pub mod shard;

pub use adapt::{
    AdaptConfig, AdaptEvent, AdaptOutcome, FeedConfig, FeedSnapshot, LabelFeed,
    PromotionController, RollbackReason,
};
pub use engine::{
    scoped_failpoint_site, EngineConfig, EngineStats, PendingScores, Priority, ReloadError,
    ScoreError, ScoredResponse, ScoringEngine, SubmitError, SubmitOptions,
};
pub use monitor::{DriftMonitor, DriftReport, EnvDrift, MonitorConfig, SignalDrift};
pub use shard::{ShardConfig, ShardedEngine};
// Re-export the quarantine vocabulary so engine embedders need not
// depend on `lightmirm-core` directly for configuration.
pub use lightmirm_core::bundle::{QuarantineFallback, QuarantinePolicy};
// Ditto the snapshot type `metrics_snapshot()` returns.
pub use lightmirm_core::obs::MetricsSnapshot;
