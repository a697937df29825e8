//! The micro-batched scoring engine.
//!
//! Architecture: one mutex guards each engine's intake — the request
//! queue, the count of rows admitted but not yet dispatched, the
//! forming-batch flag, the parked-submitter count and the shutdown flag.
//! Workers wait on `not_empty` and blocked submitters on `not_full`,
//! both with that mutex, and every predicate a parked thread tests
//! changes only under it, so no wakeup is lost. Admission is one
//! critical section: check, reserve rows and push.
//!
//! A thread is signalled only when the signal changes what it does. At
//! most one worker holds the forming micro-batch: it takes the queued
//! requests, sleeps to the oldest one's `max_wait` deadline, then takes
//! what arrived meanwhile, up to `max_batch` rows — whole requests only,
//! a request is never split across micro-batches. A worker that frees
//! up meanwhile goes idle rather than open a second batch from the same
//! queue. A submit wakes one idle worker only when its push made the
//! queue non-empty and no batch is forming, and every worker only when
//! the rows admitted but not yet dispatched reach `max_batch`; otherwise
//! it only pushes. Rows are released when a batch seals (not when a
//! request leaves the queue), so backpressure and the shed watermark see
//! coalescing batches as still queued, and a seal signals `not_full`
//! only when a submitter is parked. Each batch is scored in one
//! [`ModelBundle::score_batch_quarantined`] call and the scores are
//! fanned back out through per-request channels.
//!
//! Fault tolerance (the contract the chaos suite verifies): every
//! accepted request is answered **exactly once**, with either its scores
//! or a structured [`ScoreError`] — never a hang, never a silently wrong
//! score.
//!
//! - A panic while scoring is caught with `catch_unwind`; the batch's
//!   requests are requeued with bumped attempt counts and retried up to
//!   `max_attempts` times, after which each fails with
//!   [`ScoreError::Poisoned`].
//! - A worker thread that dies outside the scoring guard is respawned by
//!   its drop guard, so the pool never shrinks to zero.
//! - All internal locks recover from poisoning (`PoisonError::into_inner`)
//!   instead of cascading panics across threads.
//! - Per-request deadlines: a dispatched batch whose every request has
//!   already expired is dropped (each request answers
//!   [`ScoreError::DeadlineExceeded`]); a batch with any live request is
//!   scored whole.
//! - Load shedding: above the `shed_watermark` fraction of queue
//!   capacity, [`Priority::Low`] submissions are rejected with
//!   [`SubmitError::Shed`] before the queue hard-fills.
//! - Input quarantine: non-finite (or out-of-range) rows are split out
//!   per the configured [`QuarantinePolicy`]; clean rows in the same
//!   batch score bit-identically to an all-clean batch.
//! - Hot reload: [`ScoringEngine::reload`] validates a candidate bundle
//!   on a probe batch and swaps it in atomically; a failed validation
//!   leaves the incumbent serving with no in-flight disruption.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lightmirm_core::bundle::{ModelBundle, QuarantineFallback, QuarantinePolicy};
use lightmirm_core::failpoint;
use lightmirm_core::framing::frame_request_id;
use lightmirm_core::obs::request::{RequestTrace, TailSampler, N_STAGES, STAGE_NAMES};
use lightmirm_core::obs::MetricsSnapshot;
use lightmirm_core::timing::Histogram;

/// Lock with poison recovery: a panicked holder degrades to "the state
/// is whatever the panicking thread left" rather than wedging every
/// other thread. Nothing that can panic runs under the intake lock, so
/// its invariants (see [`Intake`]) hold regardless.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of the engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Rows per micro-batch: a worker dispatches as soon as this many rows
    /// are queued (a single larger request still dispatches whole).
    pub max_batch: usize,
    /// Deadline for partial batches: the oldest queued request never waits
    /// longer than this for more rows to coalesce with.
    pub max_wait: Duration,
    /// Queue bound in rows; the backpressure threshold.
    pub queue_capacity: usize,
    /// Scoring worker threads.
    pub workers: usize,
    /// Scoring attempts per request before it fails with
    /// [`ScoreError::Poisoned`] (a request is retried when a worker
    /// panics mid-batch).
    pub max_attempts: u32,
    /// Fraction of `queue_capacity` at which [`Priority::Low`]
    /// submissions are shed with [`SubmitError::Shed`]. `1.0` disables
    /// shedding below the hard bound.
    pub shed_watermark: f64,
    /// Input validation applied to every dispatched batch.
    pub quarantine: QuarantinePolicy,
    /// Online drift sentinel configuration. `Some` arms the sentinel
    /// when the served bundle carries a train-time
    /// [`DriftBaseline`](lightmirm_core::bundle::DriftBaseline); a
    /// baseline-less bundle serves unmonitored either way. Strictly
    /// observation-only — scores are bit-identical with the sentinel on
    /// or off (`tests/monitor.rs` proves it).
    pub monitor: Option<crate::monitor::MonitorConfig>,
    /// Failpoint scope label. `None` keeps the historical global site
    /// names (`serve::score_batch`, …); `Some("shard0")` suffixes every
    /// site (`serve::score_batch#shard0`) so chaos tests can target one
    /// shard of a [`crate::shard::ShardedEngine`] without touching its
    /// siblings. See [`scoped_failpoint_site`].
    pub chaos_scope: Option<String>,
    /// Request-scoped tracing: when `true`, every accepted request
    /// carries a [`RequestTrace`] context — a splitmix64-derived id plus
    /// per-stage timestamp slots — and completed requests feed per-stage
    /// latency histograms and the tail sampler. Strictly observation-only
    /// (scores are bit-identical on or off); when `false` the only cost
    /// is an `Option` check per request — no extra clock reads anywhere.
    pub trace_requests: bool,
    /// Tail-sampler retention: keep this many of the slowest fully
    /// traced requests (by enqueue-to-reply latency, ties broken by
    /// request id). Only meaningful with `trace_requests`.
    pub tail_samples: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_batch: 256,
            max_wait: Duration::from_millis(2),
            queue_capacity: 4096,
            workers: 2,
            max_attempts: 3,
            shed_watermark: 1.0,
            quarantine: QuarantinePolicy::default(),
            monitor: None,
            chaos_scope: None,
            trace_requests: false,
            tail_samples: 8,
        }
    }
}

/// The failpoint site name a scoped engine fires for `base`:
/// `base#scope`. Chaos tests targeting one shard build the site name
/// with this instead of hard-coding the separator.
pub fn scoped_failpoint_site(base: &str, scope: &str) -> String {
    format!("{base}#{scope}")
}

/// Precomputed failpoint site names, so the hot path never formats a
/// string. With no scope these are the historical global names.
struct FailSites {
    worker_loop: String,
    dispatch_delay: String,
    score_batch: String,
    reload_probe: String,
    reply: String,
}

impl FailSites {
    fn new(scope: Option<&str>) -> Self {
        let site = |base: &str| match scope {
            None => base.to_string(),
            Some(sc) => scoped_failpoint_site(base, sc),
        };
        FailSites {
            worker_loop: site("serve::worker_loop"),
            dispatch_delay: site("serve::dispatch_delay"),
            score_batch: site("serve::score_batch"),
            reload_probe: site("serve::reload_probe"),
            reply: site("serve::reply"),
        }
    }
}

/// Request priority for load shedding: under pressure (queue above the
/// shed watermark) `Low` traffic is rejected first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Sheddable (e.g. speculative or batch-refresh traffic).
    Low,
    /// Ordinary traffic; only rejected when the queue hard-fills.
    #[default]
    Normal,
    /// Latency-critical traffic; never shed below the hard bound.
    High,
}

/// Per-request submission options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Answer-by budget measured from submission. A dispatched batch
    /// whose every request has expired is dropped and each request
    /// answers [`ScoreError::DeadlineExceeded`]; `None` never expires.
    pub deadline: Option<Duration>,
    /// Shedding class.
    pub priority: Priority,
    /// Caller-supplied trace id (e.g.
    /// [`frame_request_id`] of the frame's stream position), so a
    /// replayed stream tags the same logical request identically across
    /// runs. `None` lets the engine derive one from an internal counter.
    /// Ignored unless [`EngineConfig::trace_requests`] is on.
    pub request_id: Option<u64>,
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is above the shed watermark and the request is
    /// [`Priority::Low`].
    Shed,
    /// The engine is draining; no new requests are accepted.
    ShuttingDown,
    /// `features.len()` is not `env_ids.len() × n_features`.
    Malformed { features: usize, expected: usize },
    /// The request alone exceeds `queue_capacity` rows and could never be
    /// admitted.
    RequestTooLarge { rows: usize, capacity: usize },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Shed => write!(f, "low-priority request shed at the queue watermark"),
            SubmitError::ShuttingDown => write!(f, "engine is shutting down"),
            SubmitError::Malformed { features, expected } => {
                write!(f, "{features} feature values, expected {expected}")
            }
            SubmitError::RequestTooLarge { rows, capacity } => {
                write!(
                    f,
                    "request of {rows} rows exceeds queue capacity {capacity}"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Structured outcome for an accepted-but-unanswerable request. Every
/// accepted request terminates in scores or exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreError {
    /// The engine closed before the request was scored (its worker pool
    /// is gone and cannot be respawned).
    Closed,
    /// Scoring this request panicked on `attempts` consecutive tries —
    /// the request (or a batch neighbor) is presumed poisonous.
    Poisoned {
        /// Scoring attempts made before giving up.
        attempts: u32,
    },
    /// The request's deadline expired before a worker could score it.
    DeadlineExceeded,
    /// The request contains quarantined rows and the engine's policy is
    /// [`QuarantineFallback::Error`].
    Quarantined {
        /// Request-relative indices of the offending rows.
        rows: Vec<u32>,
    },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::Closed => write!(f, "engine closed before the request was scored"),
            ScoreError::Poisoned { attempts } => {
                write!(f, "request poisoned a batch on {attempts} scoring attempts")
            }
            ScoreError::DeadlineExceeded => write!(f, "request deadline expired unscored"),
            ScoreError::Quarantined { rows } => {
                write!(f, "{} row(s) quarantined by input validation", rows.len())
            }
        }
    }
}

impl std::error::Error for ScoreError {}

/// A scored request, with any quarantine verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredResponse {
    /// One score per submitted row. Under
    /// [`QuarantineFallback::PriorScore`], quarantined rows hold the
    /// prior (their indices are in `quarantined`).
    pub scores: Vec<f64>,
    /// Request-relative indices of quarantined rows (empty when the
    /// request was clean).
    pub quarantined: Vec<u32>,
}

/// Handle to an accepted request's future scores.
#[derive(Debug)]
pub struct PendingScores {
    rx: mpsc::Receiver<Result<ScoredResponse, ScoreError>>,
    rows: usize,
}

impl PendingScores {
    /// Block until the request's scores arrive (request order preserved:
    /// scores are position-aligned with the submitted rows).
    ///
    /// # Errors
    ///
    /// A structured [`ScoreError`]; see its variants. Graceful shutdown
    /// drains every accepted request first.
    pub fn wait(self) -> Result<Vec<f64>, ScoreError> {
        self.wait_detailed().map(|r| r.scores)
    }

    /// Like [`PendingScores::wait`] but keeps the per-row quarantine
    /// verdicts.
    ///
    /// # Errors
    ///
    /// See [`ScoreError`].
    pub fn wait_detailed(self) -> Result<ScoredResponse, ScoreError> {
        match self.rx.recv() {
            Ok(outcome) => outcome,
            // Senders dropped without answering: the engine died.
            Err(_) => Err(ScoreError::Closed),
        }
    }

    /// Rows this request holds.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// One queued scoring request.
struct Request {
    features: Vec<f32>,
    env_ids: Vec<u16>,
    /// When the submit call entered the engine — before any blocking
    /// wait for queue space, so `submitted_at → reply` covers the
    /// submit-side queuing that `enqueued_at → reply` misses.
    submitted_at: Instant,
    enqueued_at: Instant,
    /// Absolute expiry instant, from [`SubmitOptions::deadline`].
    expires_at: Option<Instant>,
    /// Scoring attempts so far (bumped when a batch panic requeues it).
    attempts: u32,
    responder: mpsc::Sender<Result<ScoredResponse, ScoreError>>,
    /// Trace context, present only under [`EngineConfig::trace_requests`]
    /// — its absence is what makes disabled tracing near-free.
    trace: Option<TraceCtx>,
}

/// The in-flight half of a request trace: submit-side stage latencies
/// measured before the push, plus the slot for the moment the request
/// joined its batch. The remaining stages are computed from the batch
/// timeline at fan-out.
struct TraceCtx {
    request_id: u64,
    /// Submit entry → push, minus park time: validation and taking the
    /// intake lock.
    admission_ns: u64,
    /// Blocked in the not-full condvar wait.
    park_ns: u64,
    /// Stage boundary t1, the end of the `ring` stage (the wait in the
    /// intake queue): the later of the push and the opening of the batch
    /// that takes the request. A request pushed while a batch is forming
    /// stays queued until the batch seals, but that wait is coalescing,
    /// so it counts as `batch` and its `ring` stage is 0. Stamped in
    /// `fill`, and again if the request is requeued and taken by a later
    /// batch.
    joined_at: Option<Instant>,
}

impl Request {
    fn expired(&self, now: Instant) -> bool {
        self.expires_at.is_some_and(|t| t <= now)
    }

    fn answer(self, outcome: Result<ScoredResponse, ScoreError>) {
        // A dropped receiver is fine — the caller abandoned the request.
        let _ = self.responder.send(outcome);
    }
}

/// The engine's intake: the request queue and every predicate a parked
/// thread waits on, behind one mutex (`Shared::intake`). Workers wait on
/// `Shared::not_empty` and submitters on `Shared::not_full`, both with
/// that mutex, and each predicate they test changes only under it, so no
/// wakeup is lost: a change lands either before a waiter's check or
/// after its wait began. Nothing that can panic runs under the lock, and
/// no other lock is taken while it is held.
///
/// Invariants (the basis of the drain and capacity proofs):
/// - `queued_rows` counts rows **admitted but not yet dispatched**: the
///   rows in `queue` plus those of the forming batch. Admission adds a
///   request's rows with its push, and a sealing batch releases its rows
///   as it takes its last requests, so the shed watermark and capacity
///   bound see coalescing rows as still queued, and `queued_rows == 0`
///   proves nothing is left to score.
/// - Panic retries and row-budget push-backs go to the *front* of
///   `queue`, so requeued requests run first and FIFO order survives
///   both panics and row-budget boundaries.
/// - At most one worker holds the forming batch (`forming`).
#[derive(Default)]
struct Intake {
    /// Admitted requests not yet taken into a batch, oldest first.
    queue: VecDeque<Request>,
    /// Rows admitted and not yet dispatched (the backpressure quantity).
    queued_rows: usize,
    /// Whether a worker holds the forming micro-batch.
    forming: bool,
    /// Submitters parked on `not_full`, waiting for freed rows.
    parked_submitters: usize,
    /// Intake cutoff: set once by `begin_shutdown`.
    shutdown: bool,
    /// Times a submitter parked on `not_full`.
    submitter_parks: u64,
    /// Times a worker parked on `not_empty`.
    worker_parks: u64,
    /// Signals the wake policy sent (the drain's broadcasts aside).
    wakeups: u64,
}

impl Intake {
    /// Queue an admitted request and return the submit's signal to
    /// `not_empty`: every worker when the rows admitted but not yet
    /// dispatched reach `max_batch` (the forming batch seals now, and idle
    /// siblings may take what it leaves); one idle worker when this push
    /// made the queue non-empty and no batch is forming (it opens one);
    /// otherwise none — a forming batch takes the request when it seals,
    /// and a non-empty queue with no batch forming already had its
    /// worker signalled.
    fn admit(&mut self, req: Request, max_batch: usize) -> Wake {
        let opens = self.queue.is_empty() && !self.forming;
        self.queued_rows += req.env_ids.len();
        self.queue.push_back(req);
        self.signal(if self.queued_rows >= max_batch {
            Wake::All
        } else if opens {
            Wake::One
        } else {
            Wake::None
        })
    }

    /// Put panic retries back at the front of the queue, in their batch
    /// order, re-admitting their rows.
    fn requeue(&mut self, retries: Vec<Request>) {
        for req in retries.into_iter().rev() {
            self.queued_rows += req.env_ids.len();
            self.queue.push_front(req);
        }
    }

    /// Take whole requests from the queue front into `batch`, opened at
    /// `opened`, until it holds `max_batch` rows. Never splits a request;
    /// an oversized request starting a batch dispatches alone; a request
    /// that would overflow a non-empty batch stays at the queue front.
    /// Returns `true` when the row budget is met (caller dispatches
    /// immediately), `false` when the queue ran dry first.
    fn fill(
        &mut self,
        batch: &mut Vec<Request>,
        rows: &mut usize,
        max_batch: usize,
        opened: Instant,
    ) -> bool {
        while *rows < max_batch {
            let Some(mut req) = self.queue.pop_front() else {
                return false;
            };
            let next = req.env_ids.len();
            if !batch.is_empty() && *rows + next > max_batch {
                self.queue.push_front(req);
                return true;
            }
            // Stamp stage boundary t1 (see `TraceCtx::joined_at`). A
            // requeued request is stamped again by the batch that
            // delivers it.
            if let Some(t) = req.trace.as_mut() {
                t.joined_at = Some(opened.max(req.enqueued_at));
            }
            *rows += next;
            batch.push(req);
        }
        true
    }

    /// Close the forming batch, release its `rows`, and return the
    /// signals for `not_empty` and `not_full`. A full batch can leave
    /// requests behind whose submits saw it forming: one idle sibling
    /// takes them now rather than after this batch is scored. A draining
    /// engine wakes every worker, whose exit test reads the released
    /// rows. Only a parked submitter waits for freed rows.
    fn seal(&mut self, rows: usize) -> (Wake, Wake) {
        self.forming = false;
        self.queued_rows -= rows;
        let siblings = if self.shutdown {
            Wake::All
        } else {
            self.signal(if self.queue.is_empty() {
                Wake::None
            } else {
                Wake::One
            })
        };
        let submitters = self.signal(if self.parked_submitters > 0 {
            Wake::All
        } else {
            Wake::None
        });
        (siblings, submitters)
    }

    /// Count a signal decided under the lock; the caller sends it once
    /// the lock is released.
    fn signal(&mut self, wake: Wake) -> Wake {
        if wake != Wake::None {
            self.wakeups += 1;
        }
        wake
    }
}

/// Which of a condvar's waiters a state change wakes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Wake {
    None,
    One,
    All,
}

impl Wake {
    fn send(self, cv: &Condvar) {
        match self {
            Wake::None => {}
            Wake::One => cv.notify_one(),
            Wake::All => cv.notify_all(),
        }
    }
}

/// Serving telemetry, updated by submitters and workers.
#[derive(Default)]
struct Metrics {
    /// Per-request latency, queue admission → scores sent, in
    /// nanoseconds. Starts at `enqueued_at`, so submit-side blocking on
    /// a full queue is excluded — see `enqueue_to_reply_ns` for the
    /// caller-observed figure.
    latency_ns: Histogram,
    /// Per-request latency, submit-call entry → scores sent, in
    /// nanoseconds. Includes any blocking wait for queue space, so under
    /// backpressure this is the latency a caller actually experiences.
    enqueue_to_reply_ns: Histogram,
    /// Pure scoring time per delivered batch (the
    /// `score_batch_quarantined` call alone), in nanoseconds.
    score_ns: Histogram,
    /// Queue depth in rows observed at each submit (after the push).
    queue_depth: Histogram,
    /// Rows per dispatched micro-batch.
    batch_rows: Histogram,
    /// Per-stage request latency, indexed by
    /// [`STAGE_NAMES`] — populated only
    /// under [`EngineConfig::trace_requests`].
    stage_ns: [Histogram; N_STAGES],
    requests: u64,
    rows_scored: u64,
    shed_low_priority: u64,
    expired: u64,
    worker_panics: u64,
    retried_requests: u64,
    poisoned_requests: u64,
    quarantined_rows: u64,
    workers_respawned: u64,
    reloads: u64,
    reload_rejected: u64,
}

/// A point-in-time snapshot of the engine's histograms and counters.
#[derive(Debug, Clone, serde::Serialize)]
pub struct EngineStats {
    /// Requests answered or in flight.
    pub requests: u64,
    /// Rows scored so far.
    pub rows_scored: u64,
    /// Low-priority submissions shed at the watermark.
    pub shed_low_priority: u64,
    /// Requests answered [`ScoreError::DeadlineExceeded`] from dropped
    /// all-expired batches.
    pub expired: u64,
    /// Worker panics caught while scoring a batch.
    pub worker_panics: u64,
    /// Requests requeued for another scoring attempt after a panic.
    pub retried_requests: u64,
    /// Requests that exhausted `max_attempts` and answered
    /// [`ScoreError::Poisoned`].
    pub poisoned_requests: u64,
    /// Rows quarantined by input validation.
    pub quarantined_rows: u64,
    /// Dead worker threads replaced by their respawn guard.
    pub workers_respawned: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Hot reloads rejected by probe validation (incumbent kept).
    pub reload_rejected: u64,
    /// Median queue-admission → response latency, nanoseconds. Measured
    /// from `enqueued_at`, so blocking in `submit` on a full queue is
    /// **excluded** — compare with `enqueue_to_reply_p50_ns`.
    pub latency_p50_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub latency_p99_ns: u64,
    /// Mean request latency, nanoseconds.
    pub latency_mean_ns: f64,
    /// Worst observed request latency, nanoseconds.
    pub latency_max_ns: u64,
    /// Median submit-call → response latency, nanoseconds. Includes any
    /// blocking wait for queue space: the latency a caller experiences.
    pub enqueue_to_reply_p50_ns: u64,
    /// 99th-percentile submit-call → response latency, nanoseconds.
    pub enqueue_to_reply_p99_ns: u64,
    /// Mean submit-call → response latency, nanoseconds.
    pub enqueue_to_reply_mean_ns: f64,
    /// Worst submit-call → response latency, nanoseconds.
    pub enqueue_to_reply_max_ns: u64,
    /// Median pure scoring time per delivered batch, nanoseconds.
    pub score_p50_ns: u64,
    /// 99th-percentile pure scoring time per batch, nanoseconds.
    pub score_p99_ns: u64,
    /// Mean pure scoring time per batch, nanoseconds.
    pub score_mean_ns: f64,
    /// Median queue depth in rows seen at submit time.
    pub queue_depth_p50: u64,
    /// Worst queue depth in rows seen at submit time.
    pub queue_depth_max: u64,
    /// Mean rows per dispatched micro-batch.
    pub batch_rows_mean: f64,
    /// Largest dispatched micro-batch, rows.
    pub batch_rows_max: u64,
}

/// Why a hot reload was rejected (the incumbent bundle keeps serving).
#[derive(Debug)]
pub enum ReloadError {
    /// The candidate expects a different raw feature width than the
    /// incumbent; queued requests would be misrouted.
    FeatureMismatch { incumbent: usize, candidate: usize },
    /// The probe batch is malformed for the candidate.
    ProbeMalformed { features: usize, expected: usize },
    /// Scoring the probe batch panicked.
    ProbePanicked,
    /// The probe batch produced a non-finite score.
    ProbeNonFinite { row: usize },
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::FeatureMismatch {
                incumbent,
                candidate,
            } => write!(
                f,
                "candidate expects {candidate} features, incumbent serves {incumbent}"
            ),
            ReloadError::ProbeMalformed { features, expected } => {
                write!(
                    f,
                    "probe has {features} feature values, expected {expected}"
                )
            }
            ReloadError::ProbePanicked => write!(f, "candidate panicked on the probe batch"),
            ReloadError::ProbeNonFinite { row } => {
                write!(f, "candidate scored probe row {row} non-finite")
            }
        }
    }
}

impl std::error::Error for ReloadError {}

struct Shared {
    /// The served bundle, swappable by hot reload; workers clone the
    /// `Arc` once per batch so a swap never affects an in-flight batch.
    bundle: Mutex<Arc<ModelBundle>>,
    /// Raw feature width — fixed for the engine's lifetime (reload
    /// enforces it), so submit validation needs no bundle lock.
    n_features: usize,
    cfg: EngineConfig,
    /// The queue and the state parked threads wait on (see [`Intake`]).
    intake: Mutex<Intake>,
    /// Workers wait here with the intake lock: idle ones for work, the
    /// forming batch's worker for its deadline or a full batch.
    not_empty: Condvar,
    /// Submitters wait here with the intake lock for freed rows.
    not_full: Condvar,
    /// Precomputed (possibly shard-scoped) failpoint site names.
    sites: FailSites,
    metrics: Mutex<Metrics>,
    /// Join handles of workers respawned after a thread death.
    respawned: Mutex<Vec<JoinHandle<()>>>,
    /// The drift sentinel, present when the config arms it and the
    /// served bundle carries a baseline; swapped alongside the bundle on
    /// hot reload. Strictly observation-only.
    monitor: Mutex<Option<Arc<crate::monitor::DriftMonitor>>>,
    /// Reload token: serializes whole [`ScoringEngine::reload`] calls
    /// (probe + monitor rearm + bundle swap) so a probe never validates
    /// a candidate while another caller swaps the served bundle
    /// mid-probe — adaptation promotions and manual `--reload-model`
    /// both funnel through it.
    reload_gate: Mutex<()>,
    /// The k-slowest-request sampler; only fed under
    /// [`EngineConfig::trace_requests`].
    tail: Mutex<TailSampler>,
    /// Fallback request-id counter for traced submits that bring no id.
    trace_seq: AtomicU64,
}

impl Shared {
    fn current_bundle(&self) -> Arc<ModelBundle> {
        Arc::clone(&lock(&self.bundle))
    }

    fn current_monitor(&self) -> Option<Arc<crate::monitor::DriftMonitor>> {
        lock(&self.monitor).clone()
    }
}

/// Wait on `cv` with the intake lock, recovering it from poisoning.
fn wait<'a>(cv: &Condvar, intake: MutexGuard<'a, Intake>) -> MutexGuard<'a, Intake> {
    cv.wait(intake).unwrap_or_else(PoisonError::into_inner)
}

/// The sentinel for a bundle, when both config and baseline allow one.
fn build_monitor(
    cfg: &EngineConfig,
    bundle: &ModelBundle,
) -> Option<Arc<crate::monitor::DriftMonitor>> {
    let mon_cfg = cfg.monitor.clone()?;
    let baseline = bundle.baseline.clone()?;
    Some(Arc::new(crate::monitor::DriftMonitor::new(
        baseline, mon_cfg,
    )))
}

/// The embeddable scoring engine. `&self` methods are thread-safe; wrap
/// in an `Arc` (or scoped threads) to share between submitters.
pub struct ScoringEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ScoringEngine {
    /// Spin up the worker pool around a loaded bundle.
    ///
    /// # Panics
    ///
    /// Panics on a zero `max_batch`, `queue_capacity`, `workers`, or
    /// `max_attempts`, or a `shed_watermark` outside `(0, 1]` —
    /// configuration errors, not runtime conditions.
    pub fn new(bundle: ModelBundle, cfg: EngineConfig) -> Self {
        assert!(cfg.max_batch >= 1, "max_batch must be positive");
        assert!(cfg.queue_capacity >= 1, "queue_capacity must be positive");
        assert!(cfg.workers >= 1, "workers must be positive");
        assert!(cfg.max_attempts >= 1, "max_attempts must be positive");
        assert!(
            cfg.shed_watermark > 0.0 && cfg.shed_watermark <= 1.0,
            "shed_watermark must be in (0, 1]"
        );
        let n_features = bundle.n_features();
        let monitor = build_monitor(&cfg, &bundle);
        let sites = FailSites::new(cfg.chaos_scope.as_deref());
        let shared = Arc::new(Shared {
            bundle: Mutex::new(Arc::new(bundle)),
            n_features,
            cfg: cfg.clone(),
            intake: Mutex::new(Intake::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            sites,
            metrics: Mutex::new(Metrics::default()),
            respawned: Mutex::new(Vec::new()),
            monitor: Mutex::new(monitor),
            reload_gate: Mutex::new(()),
            tail: Mutex::new(TailSampler::new(cfg.tail_samples)),
            trace_seq: AtomicU64::new(0),
        });
        let workers = (0..cfg.workers)
            .map(|i| spawn_worker(Arc::clone(&shared), i))
            .collect();
        ScoringEngine { shared, workers }
    }

    /// The currently served bundle (a snapshot: hot reload may swap the
    /// engine's copy afterwards).
    pub fn bundle(&self) -> Arc<ModelBundle> {
        self.shared.current_bundle()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// Enqueue a scoring request. Returns a [`PendingScores`] handle;
    /// scores come back position-aligned with the submitted rows. When
    /// the queue lacks room for the request, the call parks until a
    /// dispatch frees enough rows (backpressure); only
    /// [`Priority::Low`] traffic above the shed watermark and a draining
    /// engine are refused without waiting.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(
        &self,
        features: Vec<f32>,
        env_ids: Vec<u16>,
        opts: SubmitOptions,
    ) -> Result<PendingScores, SubmitError> {
        let submitted_at = Instant::now();
        let expected = env_ids.len() * self.shared.n_features;
        if features.len() != expected {
            return Err(SubmitError::Malformed {
                features: features.len(),
                expected,
            });
        }
        let rows = env_ids.len();
        let (tx, rx) = mpsc::channel();
        if rows == 0 {
            // Nothing to score: answer immediately without queueing.
            let _ = tx.send(Ok(ScoredResponse {
                scores: Vec::new(),
                quarantined: Vec::new(),
            }));
            lock(&self.shared.metrics).requests += 1;
            return Ok(PendingScores { rx, rows });
        }
        if rows > self.shared.cfg.queue_capacity {
            return Err(SubmitError::RequestTooLarge {
                rows,
                capacity: self.shared.cfg.queue_capacity,
            });
        }
        let shared = &*self.shared;
        let capacity = shared.cfg.queue_capacity;
        // Low-priority traffic sheds at the watermark, before the hard
        // bound, so critical traffic keeps headroom under pressure.
        let shed_rows = ((capacity as f64) * shared.cfg.shed_watermark).ceil() as usize;
        // Submit-side stage accounting: park time is accumulated across
        // not-full waits; everything else before the push is admission.
        let trace_on = shared.cfg.trace_requests;
        let mut park_ns: u64 = 0;
        let mut intake = lock(&shared.intake);
        loop {
            if intake.shutdown {
                return Err(SubmitError::ShuttingDown);
            }
            let cur = intake.queued_rows;
            if opts.priority == Priority::Low && cur + rows > shed_rows {
                drop(intake);
                lock(&shared.metrics).shed_low_priority += 1;
                return Err(SubmitError::Shed);
            }
            if cur + rows <= capacity {
                break;
            }
            // Park until a dispatch frees rows or the engine drains.
            intake.submitter_parks += 1;
            intake.parked_submitters += 1;
            let park_start = trace_on.then(Instant::now);
            intake = wait(&shared.not_full, intake);
            intake.parked_submitters -= 1;
            if let Some(t) = park_start {
                park_ns += t.elapsed().as_nanos() as u64;
            }
        }
        let now = Instant::now();
        // Stage boundary t0. Admission is defined as everything between
        // submit entry and the push that is not park time, so
        // `admission + park == enqueued_at − submitted_at` exactly and
        // the full decomposition telescopes to enqueue-to-reply.
        let trace = trace_on.then(|| TraceCtx {
            request_id: opts.request_id.unwrap_or_else(|| {
                frame_request_id(
                    u64::from_le_bytes(*b"lmrq-eng"),
                    shared.trace_seq.fetch_add(1, Ordering::Relaxed),
                )
            }),
            admission_ns: ((now - submitted_at).as_nanos() as u64).saturating_sub(park_ns),
            park_ns,
            joined_at: None,
        });
        let request = Request {
            features,
            env_ids,
            submitted_at,
            enqueued_at: now,
            expires_at: opts.deadline.map(|d| now + d),
            attempts: 0,
            responder: tx,
            trace,
        };
        let wake = intake.admit(request, shared.cfg.max_batch);
        let depth = intake.queued_rows;
        drop(intake);
        wake.send(&shared.not_empty);
        let mut m = lock(&shared.metrics);
        m.requests += 1;
        m.queue_depth.record(depth as u64);
        Ok(PendingScores { rx, rows })
    }

    /// Validate `candidate` on a probe batch, and atomically swap it in
    /// as the served bundle when it passes. On any failure the incumbent
    /// keeps serving — in-flight and queued requests are unaffected
    /// either way, because workers pin the bundle per batch.
    ///
    /// An empty probe validates dimensions only.
    ///
    /// Concurrent callers serialize through a single reload token held
    /// across probe *and* swap, so the bundle a probe validated is the
    /// bundle state the swap replaces — a second reload can never slip a
    /// different bundle in mid-probe.
    ///
    /// # Errors
    ///
    /// See [`ReloadError`]; on error the swap did not happen.
    pub fn reload(
        &self,
        candidate: ModelBundle,
        probe_features: &[f32],
        probe_env_ids: &[u16],
    ) -> Result<(), ReloadError> {
        let _token = lock(&self.shared.reload_gate);
        let reject = |e: ReloadError| {
            lock(&self.shared.metrics).reload_rejected += 1;
            Err(e)
        };
        if candidate.n_features() != self.shared.n_features {
            return reject(ReloadError::FeatureMismatch {
                incumbent: self.shared.n_features,
                candidate: candidate.n_features(),
            });
        }
        let expected = probe_env_ids.len() * candidate.n_features();
        if probe_features.len() != expected {
            return reject(ReloadError::ProbeMalformed {
                features: probe_features.len(),
                expected,
            });
        }
        if !probe_env_ids.is_empty() {
            let scores = match catch_unwind(AssertUnwindSafe(|| {
                // Failpoint: stall (Delay) to widen the probe window for
                // race tests, or panic to model probe divergence.
                failpoint::pause_or_panic(&self.shared.sites.reload_probe);
                candidate.score_batch(probe_features, probe_env_ids)
            })) {
                Ok(scores) => scores,
                Err(_) => return reject(ReloadError::ProbePanicked),
            };
            if let Some(row) = scores.iter().position(|s| !s.is_finite()) {
                return reject(ReloadError::ProbeNonFinite { row });
            }
        }
        // Rearm the sentinel against the candidate's baseline before the
        // swap, so no batch is ever checked against a stale baseline.
        *lock(&self.shared.monitor) = build_monitor(&self.shared.cfg, &candidate);
        *lock(&self.shared.bundle) = Arc::new(candidate);
        lock(&self.shared.metrics).reloads += 1;
        Ok(())
    }

    /// The drift sentinel, when armed (config has a
    /// [`crate::monitor::MonitorConfig`] and the served bundle carries a
    /// baseline).
    pub fn drift_monitor(&self) -> Option<Arc<crate::monitor::DriftMonitor>> {
        self.shared.current_monitor()
    }

    /// Snapshot the sentinel's latest per-environment drift state.
    /// `None` when the sentinel is not armed.
    pub fn drift_report(&self) -> Option<crate::monitor::DriftReport> {
        self.shared.current_monitor().map(|m| m.drift_report())
    }

    /// Snapshot the telemetry histograms and counters.
    pub fn stats(&self) -> EngineStats {
        let m = lock(&self.shared.metrics);
        EngineStats {
            requests: m.requests,
            rows_scored: m.rows_scored,
            shed_low_priority: m.shed_low_priority,
            expired: m.expired,
            worker_panics: m.worker_panics,
            retried_requests: m.retried_requests,
            poisoned_requests: m.poisoned_requests,
            quarantined_rows: m.quarantined_rows,
            workers_respawned: m.workers_respawned,
            reloads: m.reloads,
            reload_rejected: m.reload_rejected,
            latency_p50_ns: m.latency_ns.quantile(0.5),
            latency_p99_ns: m.latency_ns.quantile(0.99),
            latency_mean_ns: m.latency_ns.mean(),
            latency_max_ns: m.latency_ns.max(),
            enqueue_to_reply_p50_ns: m.enqueue_to_reply_ns.quantile(0.5),
            enqueue_to_reply_p99_ns: m.enqueue_to_reply_ns.quantile(0.99),
            enqueue_to_reply_mean_ns: m.enqueue_to_reply_ns.mean(),
            enqueue_to_reply_max_ns: m.enqueue_to_reply_ns.max(),
            score_p50_ns: m.score_ns.quantile(0.5),
            score_p99_ns: m.score_ns.quantile(0.99),
            score_mean_ns: m.score_ns.mean(),
            queue_depth_p50: m.queue_depth.quantile(0.5),
            queue_depth_max: m.queue_depth.max(),
            batch_rows_mean: m.batch_rows.mean(),
            batch_rows_max: m.batch_rows.max(),
        }
    }

    /// Snapshot the engine's telemetry as a [`MetricsSnapshot`] with
    /// `serve_*` metric names — the exportable superset of
    /// [`ScoringEngine::stats`]. Unlike the flattened percentiles there,
    /// histograms keep their full bucket shape, so snapshots can be
    /// merged across engines and rendered as Prometheus text or JSON via
    /// [`lightmirm_core::obs::export`]. Works with or without the `obs`
    /// feature: it reads the engine's own always-on telemetry, not the
    /// global registry.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        use lightmirm_core::obs::{MetricEntry, MetricKey, MetricValue};
        let counter = |name: &str, v: u64| MetricEntry {
            key: MetricKey::new(name, &[]),
            value: MetricValue::Counter(v),
        };
        let histogram = |name: &str, h: &Histogram| MetricEntry {
            key: MetricKey::new(name, &[]),
            value: MetricValue::Histogram(Box::new(h.clone())),
        };
        let gauge = |name: &str, v: f64| MetricEntry {
            key: MetricKey::new(name, &[]),
            value: MetricValue::Gauge(v),
        };
        let m = lock(&self.shared.metrics);
        let mut metrics = vec![
            counter("serve_requests_total", m.requests),
            counter("serve_rows_scored_total", m.rows_scored),
            counter("serve_shed_total", m.shed_low_priority),
            counter("serve_deadline_expired_total", m.expired),
            counter("serve_worker_panics_total", m.worker_panics),
            counter("serve_retried_total", m.retried_requests),
            counter("serve_poisoned_total", m.poisoned_requests),
            counter("serve_quarantined_rows_total", m.quarantined_rows),
            counter("serve_workers_respawned_total", m.workers_respawned),
            counter("serve_reloads_total", m.reloads),
            counter("serve_reload_rejected_total", m.reload_rejected),
            histogram("serve_request_latency_ns", &m.latency_ns),
            histogram("serve_enqueue_to_reply_ns", &m.enqueue_to_reply_ns),
            histogram("serve_queue_depth_rows", &m.queue_depth),
            histogram("serve_batch_rows", &m.batch_rows),
            histogram("serve_score_ns", &m.score_ns),
        ];
        // Stage-decomposition histograms, one labeled series per stage
        // (all empty unless request tracing is on).
        for (name, h) in STAGE_NAMES.iter().zip(&m.stage_ns) {
            metrics.push(MetricEntry {
                key: MetricKey::new("serve_request_stage_ns", &[("stage", name)]),
                value: MetricValue::Histogram(Box::new(h.clone())),
            });
        }
        drop(m);
        // Liveness gauges: requests queued but not yet in a batch, plus
        // the intake's park/wake traffic.
        let (sub_parks, worker_parks, wakeups) = self.park_wake_counts();
        metrics.push(gauge("serve_ring_occupancy", self.ring_occupancy() as f64));
        metrics.push(gauge("serve_submitter_parks", sub_parks as f64));
        metrics.push(gauge("serve_worker_parks", worker_parks as f64));
        metrics.push(gauge("serve_wakeups", wakeups as f64));
        metrics.sort_by(|a, b| a.key.cmp(&b.key));
        MetricsSnapshot { metrics }
    }

    /// Clone of the submit-call-entry → reply latency histogram. Unlike
    /// the flattened [`EngineStats`] percentiles this keeps the bucket
    /// shape, so a sharded front end can merge shards and read p99/p99.9
    /// from the aggregate.
    pub fn enqueue_to_reply_histogram(&self) -> Histogram {
        lock(&self.shared.metrics).enqueue_to_reply_ns.clone()
    }

    /// A clone of the engine's tail sampler (retention bound included),
    /// for cross-shard merging and export.
    pub fn tail_sampler(&self) -> TailSampler {
        lock(&self.shared.tail).clone()
    }

    /// Per-stage request-latency histograms, indexed by
    /// [`STAGE_NAMES`] (all empty unless
    /// [`EngineConfig::trace_requests`] is on).
    pub fn stage_histograms(&self) -> [Histogram; N_STAGES] {
        lock(&self.shared.metrics).stage_ns.clone()
    }

    /// Queued requests not yet taken into a batch. It counts requests,
    /// not rows, and leaves out the requests a forming batch has already
    /// taken; requests that arrive while a batch forms stay queued until
    /// it seals.
    pub fn ring_occupancy(&self) -> usize {
        lock(&self.shared.intake).queue.len()
    }

    /// Lifetime park/wake counts: `(submitter_parks, worker_parks,
    /// wakeups)` — how often a submitter blocked on the not-full
    /// condvar, a worker on the not-empty condvar, and how many signals
    /// the wake policy sent (the drain's broadcasts aside).
    pub fn park_wake_counts(&self) -> (u64, u64, u64) {
        let intake = lock(&self.shared.intake);
        (intake.submitter_parks, intake.worker_parks, intake.wakeups)
    }

    /// Stop intake without joining the workers: subsequent submissions
    /// fail with [`SubmitError::ShuttingDown`] while already-accepted
    /// requests keep draining. Callable from any thread holding a shared
    /// reference — the drain-from-shared-context half of
    /// [`ScoringEngine::shutdown`].
    pub fn begin_shutdown(&self) {
        lock(&self.shared.intake).shutdown = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Stop intake, score every queued request, join the workers, and
    /// return the final telemetry. Pending [`PendingScores`] handles all
    /// receive their scores (or structured errors) before this returns.
    pub fn shutdown(mut self) -> EngineStats {
        self.begin_shutdown_and_join();
        self.stats()
    }

    fn begin_shutdown_and_join(&mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // Workers respawned after thread deaths register here; keep
        // joining until the pool is fully quiescent (a joining worker can
        // itself die and respawn a successor).
        loop {
            let handles: Vec<JoinHandle<()>> = {
                let mut r = lock(&self.shared.respawned);
                r.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for ScoringEngine {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.begin_shutdown_and_join();
        }
    }
}

fn spawn_worker(shared: Arc<Shared>, id: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lightmirm-score-{id}"))
        .spawn(move || worker_entry(shared, id))
        .expect("spawn scoring worker")
}

/// Respawns a replacement worker if the thread dies by panic, so the
/// pool never shrinks. Registered handles are joined at shutdown.
struct RespawnGuard {
    shared: Arc<Shared>,
    id: usize,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return; // normal worker exit (shutdown drain complete)
        }
        lock(&self.shared.metrics).workers_respawned += 1;
        let shared = Arc::clone(&self.shared);
        let id = self.id;
        if let Ok(h) = std::thread::Builder::new()
            .name(format!("lightmirm-score-{id}r"))
            .spawn(move || worker_entry(shared, id))
        {
            lock(&self.shared.respawned).push(h);
        }
    }
}

fn worker_entry(shared: Arc<Shared>, id: usize) {
    let _guard = RespawnGuard {
        shared: Arc::clone(&shared),
        id,
    };
    worker_loop(&shared);
}

/// Pull micro-batches until shutdown drains the queue.
fn worker_loop(shared: &Shared) {
    loop {
        // Chaos site: a panic here escapes the scoring guard and kills
        // the thread, exercising the respawn path.
        failpoint::pause_or_panic(&shared.sites.worker_loop);
        let Some(batch) = next_batch(shared) else {
            return;
        };
        process_batch(shared, batch);
    }
}

/// Block until a micro-batch is ready, or return `None` once shut down
/// with every admitted row dispatched. A worker opens a batch only when
/// the queue holds work and no sibling is forming one; otherwise it
/// stays idle, parked until a submit, a sealing sibling or the drain
/// signals it.
fn next_batch(shared: &Shared) -> Option<Vec<Request>> {
    let mut intake = lock(&shared.intake);
    loop {
        if !intake.forming && !intake.queue.is_empty() {
            return Some(form_batch(shared, intake));
        }
        // `queued_rows == 0` after the cutoff proves nothing is left.
        if intake.shutdown && intake.queued_rows == 0 {
            return None;
        }
        // Work queued while a sibling forms a batch is that sibling's.
        intake.worker_parks += 1;
        intake = wait(&shared.not_empty, intake);
    }
}

/// Open a batch on the locked intake, whose queue holds work and has no
/// batch forming. Take the queued requests, up to `max_batch` rows, then
/// sleep to the oldest one's `max_wait` deadline unless the rows admitted
/// but not yet dispatched reach `max_batch` or the engine drains first;
/// requests that arrive meanwhile wait in the queue. Then seal in one
/// critical section: take what fits, close the batch, release its rows,
/// and decide who to wake.
fn form_batch(shared: &Shared, mut intake: MutexGuard<'_, Intake>) -> Vec<Request> {
    let cfg = &shared.cfg;
    intake.forming = true;
    let opened = Instant::now();
    let mut batch: Vec<Request> = Vec::new();
    let mut rows = 0usize;
    let full = intake.fill(&mut batch, &mut rows, cfg.max_batch, opened);
    let oldest = batch.first().map_or(opened, |r| r.enqueued_at);
    // The submit that makes the batch ready wakes every worker.
    while !full && !intake.shutdown && intake.queued_rows < cfg.max_batch {
        let age = oldest.elapsed();
        if age >= cfg.max_wait {
            break;
        }
        intake.worker_parks += 1;
        intake = shared
            .not_empty
            .wait_timeout(intake, cfg.max_wait - age)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
    if !full {
        intake.fill(&mut batch, &mut rows, cfg.max_batch, opened);
    }
    let (siblings, submitters) = intake.seal(rows);
    drop(intake);
    siblings.send(&shared.not_empty);
    submitters.send(&shared.not_full);
    batch
}

/// Handle one dispatched micro-batch: deadline triage, quarantining
/// score under a panic guard, and fan-out (or requeue on panic).
fn process_batch(shared: &Shared, batch: Vec<Request>) {
    let now = Instant::now();
    // Deadline triage: a batch with no live request is dropped whole. A
    // mixed batch scores whole — expired members still get their scores,
    // since the work is done anyway.
    if batch.iter().all(|r| r.expired(now)) {
        lock(&shared.metrics).expired += batch.len() as u64;
        for req in batch {
            req.answer(Err(ScoreError::DeadlineExceeded));
        }
        return;
    }
    // Chaos site: stall a dispatch without corrupting it.
    failpoint::pause_or_panic(&shared.sites.dispatch_delay);

    let total_rows: usize = batch.iter().map(|r| r.env_ids.len()).sum();
    let _span = lightmirm_core::span!("process_batch", rows = total_rows, requests = batch.len());
    let bundle = shared.current_bundle();
    let mut features = Vec::with_capacity(total_rows * bundle.n_features());
    let mut env_ids = Vec::with_capacity(total_rows);
    for req in &batch {
        features.extend_from_slice(&req.features);
        env_ids.extend_from_slice(&req.env_ids);
    }
    // The panic guard: a poisoned batch (bug, bad model arithmetic, or
    // injected fault) must not take the worker — or the engine — down.
    let score_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        failpoint::pause_or_panic(&shared.sites.score_batch);
        bundle.score_batch_quarantined(&features, &env_ids, &shared.cfg.quarantine)
    }));
    // Panicked batches don't record a score time: the batch was not
    // scored, and its requests will be timed on the retry that delivers.
    let score_end = Instant::now();
    match outcome {
        Ok(scored) => {
            // Feed the drift sentinel before fan-out. Observation-only:
            // the monitor reads the finished scores and inputs, never
            // writes anything scoring reads back.
            if let Some(monitor) = shared.current_monitor() {
                monitor.observe(&scored.scores, &env_ids, &features, bundle.n_features());
            }
            let timeline = BatchTimeline {
                dispatched: now,
                score_start,
                score_end,
            };
            fan_out(shared, batch, scored, timeline);
        }
        Err(_) => requeue_or_poison(shared, batch),
    }
}

/// The batch-side timestamps of the stage decomposition: t2 (dispatch),
/// t3 (score start), t4 (score end). Shared by every request in the
/// batch; per-request boundaries (t0 push, t1 pop, t5 reply) come from
/// the request itself.
#[derive(Clone, Copy)]
struct BatchTimeline {
    dispatched: Instant,
    score_start: Instant,
    score_end: Instant,
}

/// Deliver a scored batch: record metrics, then slice per request and
/// map quarantine verdicts to the configured fallback.
fn fan_out(
    shared: &Shared,
    batch: Vec<Request>,
    scored: lightmirm_core::bundle::QuarantinedScores,
    timeline: BatchTimeline,
) {
    let total_rows: usize = batch.iter().map(|r| r.env_ids.len()).sum();
    debug_assert_eq!(scored.scores.len(), total_rows);

    // Complete traces against one shared reply timestamp (t5), so each
    // trace's stage sum telescopes to exactly its recorded total. Only
    // taken when the batch carries traced requests.
    let reply_now = batch.iter().any(|r| r.trace.is_some()).then(Instant::now);
    let mut completed: Vec<RequestTrace> = Vec::new();

    // Record metrics before fanning out, so a caller who has received its
    // scores always sees them reflected in a subsequent `stats()` call.
    {
        let mut m = lock(&shared.metrics);
        m.rows_scored += total_rows as u64;
        m.batch_rows.record(total_rows as u64);
        m.score_ns
            .record_duration(timeline.score_end - timeline.score_start);
        m.quarantined_rows += scored.quarantined.len() as u64;
        for req in &batch {
            m.latency_ns.record_duration(req.enqueued_at.elapsed());
            m.enqueue_to_reply_ns
                .record_duration(req.submitted_at.elapsed());
            if let (Some(t), Some(now)) = (req.trace.as_ref(), reply_now) {
                let joined = t.joined_at.unwrap_or(timeline.dispatched);
                let ns = |d: Duration| d.as_nanos() as u64;
                let stages_ns = [
                    t.admission_ns,
                    t.park_ns,
                    ns(joined - req.enqueued_at),
                    ns(timeline.dispatched - joined),
                    ns(timeline.score_start - timeline.dispatched),
                    ns(timeline.score_end - timeline.score_start),
                    ns(now - timeline.score_end),
                ];
                for (h, &v) in m.stage_ns.iter_mut().zip(&stages_ns) {
                    h.record(v);
                }
                completed.push(RequestTrace {
                    request_id: t.request_id,
                    shard: 0,
                    stages_ns,
                    // `admission + park == enqueued − submitted` by
                    // construction, so this equals the stage sum.
                    enqueue_to_reply_ns: stages_ns.iter().sum(),
                });
            }
        }
    }
    if !completed.is_empty() {
        let mut tail = lock(&shared.tail);
        for t in completed {
            tail.offer(t);
        }
    }
    // Chaos site: stall (or kill) the reply path. Fired OUTSIDE every
    // engine lock — the shutdown-under-full-queue regression test pins
    // this down: a blocked producer must be able to observe shutdown
    // while replies are stalled here.
    failpoint::pause_or_panic(&shared.sites.reply);
    let mut bad_iter = scored.quarantined.iter().peekable();
    let mut offset = 0u32;
    for req in batch {
        let n = req.env_ids.len() as u32;
        let scores = scored.scores[offset as usize..(offset + n) as usize].to_vec();
        let mut quarantined = Vec::new();
        while let Some(q) = bad_iter.peek() {
            if q.row < offset + n {
                quarantined.push(q.row - offset);
                bad_iter.next();
            } else {
                break;
            }
        }
        offset += n;
        let errors = matches!(shared.cfg.quarantine.fallback, QuarantineFallback::Error);
        if errors && !quarantined.is_empty() {
            req.answer(Err(ScoreError::Quarantined { rows: quarantined }));
        } else {
            req.answer(Ok(ScoredResponse {
                scores,
                quarantined,
            }));
        }
    }
}

/// A batch panicked while scoring: requeue each request for another
/// attempt, or answer [`ScoreError::Poisoned`] once its attempts are
/// exhausted. The requeue may transiently overshoot `queue_capacity` by
/// one batch; backpressure reasserts as the queue drains.
fn requeue_or_poison(shared: &Shared, batch: Vec<Request>) {
    let (mut retries, mut poisoned) = (Vec::new(), Vec::new());
    for mut req in batch {
        req.attempts += 1;
        if req.attempts >= shared.cfg.max_attempts {
            poisoned.push(req);
        } else {
            retries.push(req);
        }
    }
    {
        let mut m = lock(&shared.metrics);
        m.worker_panics += 1;
        m.retried_requests += retries.len() as u64;
        m.poisoned_requests += poisoned.len() as u64;
    }
    if !retries.is_empty() {
        // Every worker: an idle one opens a batch for the retries unless
        // one is forming, whose worker takes them first when it seals.
        let mut intake = lock(&shared.intake);
        intake.requeue(retries);
        let wake = intake.signal(Wake::All);
        drop(intake);
        wake.send(&shared.not_empty);
    }
    for req in poisoned {
        let attempts = req.attempts;
        req.answer(Err(ScoreError::Poisoned { attempts }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(rows: usize) -> Request {
        let (tx, _rx) = mpsc::channel();
        Request {
            features: vec![0.0; rows],
            env_ids: vec![0; rows],
            submitted_at: Instant::now(),
            enqueued_at: Instant::now(),
            expires_at: None,
            attempts: 0,
            responder: tx,
            trace: None,
        }
    }

    fn queue_of(reqs: Vec<Request>) -> Intake {
        let mut intake = Intake::default();
        for r in reqs {
            intake.admit(r, usize::MAX);
        }
        intake
    }

    fn fill(intake: &mut Intake, max_batch: usize) -> Vec<Request> {
        let mut batch = Vec::new();
        let mut rows = 0;
        intake.fill(&mut batch, &mut rows, max_batch, Instant::now());
        batch
    }

    fn sizes(batch: &[Request]) -> Vec<usize> {
        batch.iter().map(|r| r.env_ids.len()).collect()
    }

    #[test]
    fn take_batch_respects_row_budget_but_never_splits_requests() {
        let mut intake = queue_of(vec![req(3), req(3), req(3)]);
        let batch = fill(&mut intake, 6);
        assert_eq!(batch.len(), 2); // 3 + 3 = 6 rows exactly
        let batch = fill(&mut intake, 6);
        assert_eq!(batch.len(), 1);
        assert!(intake.queue.is_empty());
    }

    #[test]
    fn take_batch_dispatches_oversized_requests_alone() {
        let mut intake = queue_of(vec![req(100), req(1)]);
        let batch = fill(&mut intake, 8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].env_ids.len(), 100);
        assert_eq!(intake.queue.len(), 1, "the 1-row request stays queued");
    }

    #[test]
    fn take_batch_stops_before_overflowing() {
        let mut intake = queue_of(vec![req(5), req(4)]);
        let batch = fill(&mut intake, 8);
        assert_eq!(batch.len(), 1); // 5 + 4 would exceed 8
                                    // The overflowing request stayed at the queue head untouched
                                    // and leads the next batch (FIFO across the budget boundary).
        let batch = fill(&mut intake, 8);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].env_ids.len(), 4);
    }

    #[test]
    fn requeued_requests_run_first() {
        let mut intake = queue_of(vec![req(1), req(2)]);
        intake.requeue(vec![req(7), req(3)]); // a panicked batch
        assert_eq!(intake.queued_rows, 13, "retries re-admit their rows");
        let batch = fill(&mut intake, 100);
        assert_eq!(sizes(&batch), [7, 3, 1, 2], "retries first, in batch order");
    }

    #[test]
    fn interleaved_priority_classes_from_one_submitter_leave_in_submit_order() {
        // Priority decides shedding only: the intake is one FIFO, so a
        // submitter's High, Normal and Low requests (tagged here by row
        // count) leave in the order it submitted them, across batches.
        let classes = [3, 1, 2, 1, 1, 3, 2, 3, 1, 2, 2, 3];
        let mut intake = queue_of(classes.iter().map(|&c| req(c)).collect());
        let mut left = Vec::new();
        while !intake.queue.is_empty() {
            left.extend(sizes(&fill(&mut intake, 4)));
        }
        assert_eq!(left, classes);
    }

    #[test]
    fn scoped_failpoint_sites_are_suffixed() {
        let sites = FailSites::new(Some("shard3"));
        assert_eq!(sites.score_batch, "serve::score_batch#shard3");
        assert_eq!(
            sites.score_batch,
            scoped_failpoint_site("serve::score_batch", "shard3")
        );
        let global = FailSites::new(None);
        assert_eq!(global.score_batch, "serve::score_batch");
        assert_eq!(global.reply, "serve::reply");
    }

    #[test]
    fn expiry_is_absolute_and_none_never_expires() {
        let now = Instant::now();
        let live = req(1);
        assert!(!live.expired(now + Duration::from_secs(3600)));
        let mut dead = req(1);
        dead.expires_at = Some(now);
        assert!(dead.expired(now));
        assert!(!dead.expired(now - Duration::from_millis(1)));
    }

    #[test]
    fn mixed_batches_score_whole_only_all_expired_batches_drop() {
        let now = Instant::now();
        let mut expired = req(1);
        expired.expires_at = Some(now - Duration::from_millis(1));
        let live = req(1);
        let batch = [expired, live];
        assert!(!batch.iter().all(|r| r.expired(now)), "mixed batch is live");
        let mut both = req(1);
        both.expires_at = Some(now - Duration::from_millis(1));
        let mut other = req(2);
        other.expires_at = Some(now);
        let batch = [both, other];
        assert!(batch.iter().all(|r| r.expired(now)), "all expired drops");
    }
}
