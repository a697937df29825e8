//! Online adaptation: turn [`DriftLevel::Major`] into recovery.
//!
//! The drift sentinel (PR 5) *notices* a province shifting out of
//! distribution; this module *responds*. Three pieces close the loop:
//!
//! - [`LabelFeed`] — a bounded per-province streaming buffer of recent
//!   labeled rows with a global watermark sequence and byte-budgeted
//!   eviction, the supervised signal an adaptation step trains on.
//! - a **warm-started LightMIRM retrain** of the LR head: the GBDT leaf
//!   transform stays frozen (the champion's extractor re-encodes the
//!   buffered rows), and [`LightMirmTrainer::fit_warm`] starts from the
//!   champion's weights so a few epochs over a small buffer suffice —
//!   *Continual Invariant Risk Minimization*'s warm-start insight.
//! - [`PromotionController`] — a champion/challenger state machine,
//!   `Observe → Retrain → Probe → Canary → Promote | Rollback`, driven
//!   one deterministic [`PromotionController::step`] at a time by the
//!   replay loop. Promotion is gated: the candidate must pass the
//!   engine's probe-batch reload validation *and* a golden-metric canary
//!   guard (challenger AUC on held-out labeled rows must beat the
//!   champion's by a configurable margin). Any failure rolls the serving
//!   bundle back to the pristine champion — bit-identical scores, since
//!   the rollback reloads an exact clone — and failed retrains retry
//!   with exponential backoff before a cooldown stops drift flapping
//!   from thrashing the model.
//!
//! Every transition lands in the controller's event log (exportable as
//! JSONL for the CI artifact), is mirrored to `core::obs` counters and
//! `adapt_transition` trace events, and the failure modes are injectable
//! through `core::failpoint` (`adapt::retrain` panics the retrain,
//! `adapt::bad_retrain` corrupts the candidate head so only the canary
//! guard can catch it, `bundle::*` sites fail persistence, and
//! `serve::reload_probe` widens or breaks the probe window).
//!
//! A promoted bundle carries a [`BundleLineage`] record — parent payload
//! CRC-32, trigger environment and PSI, labeled rows consumed, and the
//! adaptation generation — persisted through the CRC envelope via
//! [`ModelBundle::save_to_path`] when a save path is configured.
//! Promotion *requires* durable persistence: a failed save rolls back.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use lightmirm_core::bundle::{BundleLineage, DriftBaseline, ModelBundle};
use lightmirm_core::env::EnvDataset;
use lightmirm_core::failpoint;
use lightmirm_core::obs;
use lightmirm_core::sparse::MultiHotMatrix;
use lightmirm_core::trainers::{LightMirmTrainer, TrainConfig, TrainedModel};
use lightmirm_metrics::drift::DriftLevel;
use lightmirm_metrics::rank::auc;
use serde::Serialize;

use crate::engine::ScoringEngine;

/// Bounds of the [`LabelFeed`].
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// Per-environment row cap; the oldest row of the same environment
    /// is evicted when a push would exceed it.
    pub max_rows_per_env: usize,
    /// Global byte budget across all environments; when exceeded, the
    /// oldest row of the largest environment is evicted until the
    /// buffer fits again.
    pub max_bytes: usize,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            max_rows_per_env: 4096,
            max_bytes: 8 << 20,
        }
    }
}

/// One buffered labeled observation.
struct LabeledRow {
    /// Global watermark sequence number (monotone across environments).
    seq: u64,
    features: Vec<f32>,
    label: u8,
}

fn row_bytes(n_features: usize) -> usize {
    n_features * std::mem::size_of::<f32>() + std::mem::size_of::<u64>() + std::mem::size_of::<u8>()
}

struct FeedState {
    next_seq: u64,
    total_bytes: usize,
    evicted_rows: u64,
    envs: BTreeMap<u16, VecDeque<LabeledRow>>,
}

/// Flattened snapshot of the feed's current contents, ordered by
/// environment id then arrival sequence — a deterministic training view.
#[derive(Debug, Clone)]
pub struct FeedSnapshot {
    /// Row-major features, `n_features` per row.
    pub features: Vec<f32>,
    /// One label per row.
    pub labels: Vec<u8>,
    /// One environment (province) id per row.
    pub env_ids: Vec<u16>,
    /// Feature width.
    pub n_features: usize,
}

impl FeedSnapshot {
    /// Number of rows in the snapshot.
    pub fn n_rows(&self) -> usize {
        self.env_ids.len()
    }
}

/// Bounded per-province buffer of recent labeled rows.
///
/// Thread-safe: the serving loop pushes labels as they arrive while the
/// controller snapshots for retraining. Rows carry a global monotone
/// watermark sequence; eviction (per-env row cap, then global byte
/// budget) always drops the *oldest* rows first, so the buffer converges
/// to the freshest labeled window of each province.
pub struct LabelFeed {
    n_features: usize,
    cfg: FeedConfig,
    state: Mutex<FeedState>,
}

impl LabelFeed {
    /// An empty feed for rows of `n_features` features.
    ///
    /// # Panics
    ///
    /// Panics on a zero `n_features` or zero capacity bounds —
    /// configuration errors, not runtime conditions.
    pub fn new(n_features: usize, cfg: FeedConfig) -> Self {
        assert!(n_features >= 1, "n_features must be positive");
        assert!(
            cfg.max_rows_per_env >= 1,
            "max_rows_per_env must be positive"
        );
        assert!(
            cfg.max_bytes >= row_bytes(n_features),
            "max_bytes must fit at least one row"
        );
        LabelFeed {
            n_features,
            cfg,
            state: Mutex::new(FeedState {
                next_seq: 0,
                total_bytes: 0,
                evicted_rows: 0,
                envs: BTreeMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FeedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Buffer one labeled row and return its watermark sequence number.
    /// Rows of the wrong width or with non-finite features are rejected
    /// (`None`) — a poisoned feature must never reach a retrain.
    pub fn push(&self, env: u16, features: &[f32], label: u8) -> Option<u64> {
        if features.len() != self.n_features || !features.iter().all(|v| v.is_finite()) {
            return None;
        }
        let bytes = row_bytes(self.n_features);
        let mut st = self.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let buf = st.envs.entry(env).or_default();
        buf.push_back(LabeledRow {
            seq,
            features: features.to_vec(),
            label,
        });
        st.total_bytes += bytes;
        // Per-environment row cap: oldest of the same province goes.
        if st.envs[&env].len() > self.cfg.max_rows_per_env {
            st.envs.get_mut(&env).expect("just inserted").pop_front();
            st.total_bytes -= bytes;
            st.evicted_rows += 1;
        }
        // Global byte budget: shrink the largest environment first (ties
        // break toward the lowest env id), oldest row of it each round.
        while st.total_bytes > self.cfg.max_bytes {
            let Some((&victim, _)) = st
                .envs
                .iter()
                .filter(|(_, b)| !b.is_empty())
                .max_by_key(|(&e, b)| (b.len(), std::cmp::Reverse(e)))
            else {
                break;
            };
            let remaining: usize = st.envs.values().map(VecDeque::len).sum();
            if remaining <= 1 {
                break; // never evict the sole remaining row
            }
            st.envs
                .get_mut(&victim)
                .expect("key just listed")
                .pop_front();
            st.total_bytes -= bytes;
            st.evicted_rows += 1;
        }
        Some(seq)
    }

    /// Buffered rows for one environment.
    pub fn rows(&self, env: u16) -> usize {
        self.lock().envs.get(&env).map_or(0, VecDeque::len)
    }

    /// Total buffered rows across environments.
    pub fn total_rows(&self) -> usize {
        self.lock().envs.values().map(VecDeque::len).sum()
    }

    /// Current buffer size in (accounted) bytes.
    pub fn total_bytes(&self) -> usize {
        self.lock().total_bytes
    }

    /// Rows evicted so far (row cap + byte budget).
    pub fn evicted_rows(&self) -> u64 {
        self.lock().evicted_rows
    }

    /// Global high watermark: the sequence number the *next* accepted
    /// push will get — equivalently, rows accepted so far.
    pub fn watermark(&self) -> u64 {
        self.lock().next_seq
    }

    /// The newest buffered sequence number for one environment, when
    /// any of its rows survive eviction.
    pub fn env_watermark(&self, env: u16) -> Option<u64> {
        self.lock()
            .envs
            .get(&env)
            .and_then(|b| b.back().map(|r| r.seq))
    }

    /// Snapshot the entire buffer for training (env id order, then
    /// arrival order within each environment).
    pub fn snapshot(&self) -> FeedSnapshot {
        let st = self.lock();
        let n: usize = st.envs.values().map(VecDeque::len).sum();
        let mut features = Vec::with_capacity(n * self.n_features);
        let mut labels = Vec::with_capacity(n);
        let mut env_ids = Vec::with_capacity(n);
        for (&env, buf) in &st.envs {
            for row in buf {
                features.extend_from_slice(&row.features);
                labels.push(row.label);
                env_ids.push(env);
            }
        }
        FeedSnapshot {
            features,
            labels,
            env_ids,
            n_features: self.n_features,
        }
    }
}

/// Why an adaptation round rolled the serving bundle back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RollbackReason {
    /// The challenger failed the golden-metric guard on the canary
    /// slice (or tied below the required margin).
    GuardFailed,
    /// The canary AUC could not be computed (e.g. one-class labels) —
    /// an unverifiable challenger never ships.
    CanaryInconclusive,
    /// The adapted bundle could not be durably persisted; promotion
    /// requires a durable artifact, so the champion keeps serving.
    PersistFailed,
}

/// What one [`PromotionController::step`] did.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AdaptOutcome {
    /// No drift sentinel is armed (legacy bundle without a baseline, or
    /// monitoring disabled) — adaptation is gracefully inert.
    Disabled,
    /// No environment is in the Major band.
    Stable,
    /// A recent promotion or rollback holds the controller quiet.
    Cooldown { remaining: u64 },
    /// A failed retrain holds the controller in backoff.
    Backoff { remaining: u64 },
    /// Major drift seen, but the feed has too few labeled rows.
    AwaitingData {
        env: u16,
        rows: usize,
        needed: usize,
    },
    /// The warm-started retrain panicked or produced no usable model.
    RetrainFailed { env: u16, retries: u32 },
    /// The engine's probe-batch validation rejected the candidate.
    ProbeRejected { env: u16, detail: String },
    /// The challenger was rejected after probe; the pristine champion
    /// is serving again, bit-identical.
    RolledBack {
        env: u16,
        reason: RollbackReason,
        champion_auc: f64,
        challenger_auc: f64,
    },
    /// The challenger passed probe + canary and is now the champion.
    Promoted {
        env: u16,
        generation: u32,
        champion_auc: f64,
        challenger_auc: f64,
    },
}

/// One entry of the adaptation event log (JSONL-exportable).
#[derive(Debug, Clone, Serialize)]
pub struct AdaptEvent {
    /// Controller step counter at emission.
    pub step: u64,
    /// Stage label: `observe`, `retrain`, `probe`, `canary`, `promote`,
    /// `rollback`, `backoff`, `cooldown`, `disabled`.
    pub stage: &'static str,
    /// Trigger environment, when one is in play.
    pub env: Option<u16>,
    /// Trigger PSI, when one is in play.
    pub psi: Option<f64>,
    /// Champion generation at emission.
    pub generation: u32,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// Tuning knobs of the adaptation loop.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Labeled rows the trigger environment must have buffered before a
    /// retrain is attempted.
    pub min_rows: usize,
    /// Warm-started retrain hyper-parameters (few epochs suffice).
    pub train: TrainConfig,
    /// MRQ length for the retrain (paper default 5).
    pub mrq_len: usize,
    /// MRQ decay γ for the retrain (paper default 0.9).
    pub gamma: f64,
    /// Probe-batch rows drawn from the trigger environment's buffer for
    /// the engine's reload validation.
    pub probe_rows: usize,
    /// Golden-metric guard: the challenger's canary AUC must be at
    /// least the champion's plus this margin, else rollback.
    pub guard_min_auc_gain: f64,
    /// Failed retrains retried at most this many times before cooldown.
    pub max_retries: u32,
    /// Backoff after the k-th consecutive retrain failure, in
    /// controller steps: `backoff_steps << (k-1)` (exponential).
    pub backoff_steps: u64,
    /// Steps the controller stays quiet after a promotion or rollback,
    /// so flapping drift cannot thrash the model.
    pub cooldown_steps: u64,
    /// Quantile points per sketch when capturing the candidate's fresh
    /// drift baseline.
    pub sketch_points: usize,
    /// When set, a promoted bundle is persisted here through the CRC
    /// envelope *before* the promotion commits; a failed save rolls
    /// back.
    pub save_path: Option<PathBuf>,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            min_rows: 256,
            train: TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
            mrq_len: 5,
            gamma: 0.9,
            probe_rows: 64,
            guard_min_auc_gain: 0.0,
            max_retries: 2,
            backoff_steps: 2,
            cooldown_steps: 8,
            sketch_points: 64,
            save_path: None,
        }
    }
}

/// The champion/challenger promotion state machine.
///
/// Owns the *pristine champion* — an [`Arc`] of the bundle that last
/// passed validation — so a rollback restores bit-identical scoring no
/// matter what the failed challenger did in between. Driven
/// synchronously by the replay loop: one [`PromotionController::step`]
/// observes drift and, when warranted, runs the full
/// retrain → probe → canary → promote-or-rollback chain. All pacing
/// (cooldown, backoff) is counted in controller steps, not wall clock,
/// so the whole loop is deterministic and replayable.
pub struct PromotionController {
    cfg: AdaptConfig,
    champion: Arc<ModelBundle>,
    generation: u32,
    steps: u64,
    cooldown_remaining: u64,
    backoff_remaining: u64,
    retries: u32,
    events: Vec<AdaptEvent>,
}

impl PromotionController {
    /// Build around the currently served champion.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `min_rows`/`probe_rows`/`sketch_points`,
    /// an `mrq_len` of zero, or `gamma` outside `(0, 1]`.
    pub fn new(champion: Arc<ModelBundle>, cfg: AdaptConfig) -> Self {
        assert!(cfg.min_rows >= 1, "min_rows must be positive");
        assert!(cfg.probe_rows >= 1, "probe_rows must be positive");
        assert!(cfg.sketch_points >= 2, "sketch_points must be at least 2");
        assert!(cfg.mrq_len >= 1, "mrq_len must be positive");
        assert!(
            cfg.gamma > 0.0 && cfg.gamma <= 1.0,
            "gamma must be in (0, 1]"
        );
        let generation = champion.lineage.as_ref().map_or(0, |l| l.generation);
        PromotionController {
            cfg,
            champion,
            generation,
            steps: 0,
            cooldown_remaining: 0,
            backoff_remaining: 0,
            retries: 0,
            events: Vec::new(),
        }
    }

    /// The pristine champion a rollback restores.
    pub fn champion(&self) -> Arc<ModelBundle> {
        Arc::clone(&self.champion)
    }

    /// Adaptation generation of the current champion.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The transition log accumulated so far.
    pub fn events(&self) -> &[AdaptEvent] {
        &self.events
    }

    /// Write the transition log as JSONL (one event per line).
    ///
    /// # Errors
    ///
    /// I/O errors from creating or writing the file.
    pub fn write_event_log(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&serde_json::to_string(ev).expect("event serializes infallibly"));
            out.push('\n');
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())
    }

    /// Append the transition log to an ops journal as `adapt_event`
    /// records, one per transition. The controller's walk is a pure
    /// function of the stream and its config (steps fire on a chunk
    /// cadence, triggers on deterministic PSI), so `step`, `stage`,
    /// `generation`, and the trigger environment are deterministic
    /// `fields`; the trigger PSI magnitude and free-form detail line
    /// are measured `obs`.
    pub fn journal_events(&self, journal: &mut obs::Journal, shard: u32) {
        for ev in &self.events {
            let rec = journal.record("adapt_event");
            rec.field("shard", u64::from(shard))
                .field("step", ev.step)
                .field("stage", ev.stage)
                .field("generation", u64::from(ev.generation));
            if let Some(env) = ev.env {
                rec.field("env", u64::from(env));
            }
            if let Some(psi) = ev.psi {
                rec.obs("psi", psi);
            }
            rec.obs("detail", ev.detail.as_str());
        }
    }

    fn emit(&mut self, stage: &'static str, env: Option<u16>, psi: Option<f64>, detail: String) {
        let env_label = env.map_or_else(|| "-".to_string(), |e| e.to_string());
        let gen_label = self.generation.to_string();
        lightmirm_core::event!(
            "adapt_transition",
            stage = stage,
            env = env_label,
            generation = gen_label,
            detail = detail,
        );
        self.events.push(AdaptEvent {
            step: self.steps,
            stage,
            env,
            psi,
            generation: self.generation,
            detail,
        });
    }

    /// Run one deterministic adaptation step against the engine's drift
    /// report and the labeled feed. See the module docs for the state
    /// machine; the returned [`AdaptOutcome`] says which arm ran.
    pub fn step(&mut self, engine: &ScoringEngine, feed: &LabelFeed) -> AdaptOutcome {
        self.steps += 1;
        if self.cooldown_remaining > 0 {
            self.cooldown_remaining -= 1;
            return AdaptOutcome::Cooldown {
                remaining: self.cooldown_remaining,
            };
        }
        if self.backoff_remaining > 0 {
            self.backoff_remaining -= 1;
            return AdaptOutcome::Backoff {
                remaining: self.backoff_remaining,
            };
        }

        // ---- Observe ----------------------------------------------------
        let Some(report) = engine.drift_report() else {
            // No sentinel: legacy bundle without a baseline, or
            // monitoring off. Adaptation is inert, not an error.
            if self.steps == 1 {
                self.emit("disabled", None, None, "no drift sentinel armed".into());
            }
            return AdaptOutcome::Disabled;
        };
        // Worst Major environment by its highest signal PSI.
        let trigger = report
            .envs
            .iter()
            .filter(|e| e.level() == DriftLevel::Major)
            .map(|e| {
                let psi = e
                    .signals
                    .iter()
                    .map(|s| s.psi)
                    .fold(f64::NEG_INFINITY, f64::max);
                (e.env_id, psi)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite psi"));
        let Some((trigger_env, trigger_psi)) = trigger else {
            return AdaptOutcome::Stable;
        };

        let rows = feed.rows(trigger_env);
        if rows < self.cfg.min_rows {
            self.emit(
                "observe",
                Some(trigger_env),
                Some(trigger_psi),
                format!(
                    "major drift, awaiting labels: {rows}/{} rows",
                    self.cfg.min_rows
                ),
            );
            return AdaptOutcome::AwaitingData {
                env: trigger_env,
                rows,
                needed: self.cfg.min_rows,
            };
        }

        // ---- Retrain ----------------------------------------------------
        self.emit(
            "retrain",
            Some(trigger_env),
            Some(trigger_psi),
            format!(
                "warm-started retrain over {} buffered rows",
                feed.total_rows()
            ),
        );
        obs::registry().counter("adapt_retrains_total", &[]).inc();
        let snapshot = feed.snapshot();
        let rows_used = snapshot.n_rows() as u64;
        let candidate = match self.retrain(&snapshot, trigger_env, trigger_psi) {
            Some(c) => c,
            None => {
                self.retries += 1;
                obs::registry()
                    .counter("adapt_retrain_failures_total", &[])
                    .inc();
                if self.retries > self.cfg.max_retries {
                    let detail =
                        format!("retrain failed {} times, entering cooldown", self.retries);
                    self.emit("cooldown", Some(trigger_env), Some(trigger_psi), detail);
                    let failed = self.retries;
                    self.retries = 0;
                    self.cooldown_remaining = self.cfg.cooldown_steps;
                    return AdaptOutcome::RetrainFailed {
                        env: trigger_env,
                        retries: failed,
                    };
                }
                self.backoff_remaining = self.cfg.backoff_steps << (self.retries - 1);
                self.emit(
                    "backoff",
                    Some(trigger_env),
                    Some(trigger_psi),
                    format!(
                        "retrain failed (attempt {}), backing off {} steps",
                        self.retries, self.backoff_remaining
                    ),
                );
                return AdaptOutcome::RetrainFailed {
                    env: trigger_env,
                    retries: self.retries,
                };
            }
        };
        let _ = rows_used; // recorded in the candidate's lineage

        // ---- Probe ------------------------------------------------------
        // Validate through the engine's reload path: serialized by the
        // reload token, probe-batch checked, monitor rearmed against the
        // candidate's fresh baseline. On success the challenger serves.
        let (probe_feats, probe_envs) = probe_batch(&snapshot, trigger_env, self.cfg.probe_rows);
        self.emit(
            "probe",
            Some(trigger_env),
            Some(trigger_psi),
            format!("reload candidate with {}-row probe", probe_envs.len()),
        );
        if let Err(e) = engine.reload(candidate.clone(), &probe_feats, &probe_envs) {
            self.retries += 1;
            obs::registry()
                .counter("adapt_retrain_failures_total", &[])
                .inc();
            self.backoff_remaining = self.cfg.backoff_steps << (self.retries - 1).min(8);
            self.emit(
                "backoff",
                Some(trigger_env),
                Some(trigger_psi),
                format!("probe rejected candidate: {e}"),
            );
            return AdaptOutcome::ProbeRejected {
                env: trigger_env,
                detail: e.to_string(),
            };
        }

        // ---- Canary -----------------------------------------------------
        // Golden-metric guard on the trigger environment's held-out
        // labeled rows, scored directly by both bundles — deterministic,
        // independent of live traffic.
        let (canary_feats, canary_envs, canary_labels) = env_slice(&snapshot, trigger_env);
        let champ_scores = self.champion.score_batch(&canary_feats, &canary_envs);
        let chall_scores = candidate.score_batch(&canary_feats, &canary_envs);
        let aucs = auc(&champ_scores, &canary_labels)
            .and_then(|a| auc(&chall_scores, &canary_labels).map(|b| (a, b)));
        let (champion_auc, challenger_auc, guard_passed, reason) = match aucs {
            Ok((a, b)) => (
                a,
                b,
                b >= a + self.cfg.guard_min_auc_gain,
                RollbackReason::GuardFailed,
            ),
            Err(_) => (
                f64::NAN,
                f64::NAN,
                false,
                RollbackReason::CanaryInconclusive,
            ),
        };
        self.emit(
            "canary",
            Some(trigger_env),
            Some(trigger_psi),
            format!(
                "champion auc {champion_auc:.4}, challenger auc {challenger_auc:.4}, \
                 guard margin {:.4}: {}",
                self.cfg.guard_min_auc_gain,
                if guard_passed { "pass" } else { "fail" }
            ),
        );
        if !guard_passed {
            return self.rollback(
                engine,
                trigger_env,
                trigger_psi,
                reason,
                champion_auc,
                challenger_auc,
            );
        }

        // ---- Promote ----------------------------------------------------
        // Durable persistence gates the commit: an adapted model that
        // cannot be saved would be lost on restart, so it never ships.
        if let Some(path) = self.cfg.save_path.clone() {
            if let Err(e) = candidate.save_to_path(&path) {
                self.emit(
                    "rollback",
                    Some(trigger_env),
                    Some(trigger_psi),
                    format!("persist failed: {e}"),
                );
                return self.rollback(
                    engine,
                    trigger_env,
                    trigger_psi,
                    RollbackReason::PersistFailed,
                    champion_auc,
                    challenger_auc,
                );
            }
        }
        self.champion = Arc::new(candidate);
        self.generation += 1;
        self.retries = 0;
        self.cooldown_remaining = self.cfg.cooldown_steps;
        obs::registry().counter("adapt_promotions_total", &[]).inc();
        obs::registry()
            .gauge("adapt_generation", &[])
            .set(f64::from(self.generation));
        self.emit(
            "promote",
            Some(trigger_env),
            Some(trigger_psi),
            format!(
                "challenger promoted to generation {} (auc {challenger_auc:.4} vs {champion_auc:.4})",
                self.generation
            ),
        );
        AdaptOutcome::Promoted {
            env: trigger_env,
            generation: self.generation,
            champion_auc,
            challenger_auc,
        }
    }

    /// Restore the pristine champion as the served bundle (empty probe:
    /// an exact clone needs no re-validation) and enter cooldown.
    fn rollback(
        &mut self,
        engine: &ScoringEngine,
        env: u16,
        psi: f64,
        reason: RollbackReason,
        champion_auc: f64,
        challenger_auc: f64,
    ) -> AdaptOutcome {
        engine
            .reload((*self.champion).clone(), &[], &[])
            .expect("rollback reload cannot fail: dimensions match and the probe is empty");
        self.cooldown_remaining = self.cfg.cooldown_steps;
        obs::registry().counter("adapt_rollbacks_total", &[]).inc();
        self.emit(
            "rollback",
            Some(env),
            Some(psi),
            format!("champion restored bit-identically ({reason:?})"),
        );
        AdaptOutcome::RolledBack {
            env,
            reason,
            champion_auc,
            challenger_auc,
        }
    }

    /// Warm-started LightMIRM retrain of the LR head over the buffered
    /// rows, with the champion's GBDT leaf transform frozen. Returns the
    /// assembled candidate bundle (fresh baseline + lineage), or `None`
    /// when the retrain panicked or produced an unusable model.
    fn retrain(
        &self,
        snapshot: &FeedSnapshot,
        trigger_env: u16,
        trigger_psi: f64,
    ) -> Option<ModelBundle> {
        let parent = &self.champion;
        let parent_baseline = parent.baseline.as_ref()?;
        if snapshot.n_features != parent.n_features() {
            return None;
        }

        // Frozen leaf transform: the champion's extractor re-encodes the
        // buffered rows into the leaf space its head was trained on.
        let indices = parent.extractor.transform_batch(&snapshot.features);
        let x = MultiHotMatrix::new(
            indices,
            parent.extractor.n_trees(),
            parent.extractor.total_leaves(),
        )
        .ok()?;

        // Compact the sparse province ids into dense environment
        // indices for the trainer (BTreeMap order: deterministic).
        let mut compact: BTreeMap<u16, u16> = BTreeMap::new();
        for &e in &snapshot.env_ids {
            let next = compact.len() as u16;
            compact.entry(e).or_insert(next);
        }
        let env_names: Vec<String> = compact.keys().map(|e| format!("province_{e}")).collect();
        let dense_ids: Vec<u16> = snapshot.env_ids.iter().map(|e| compact[e]).collect();
        let data = EnvDataset::new(x, snapshot.labels.clone(), dense_ids, env_names).ok()?;

        // Warm start from the champion's global head.
        let init = parent.model.global().clone();
        let trainer =
            LightMirmTrainer::with_mrq(self.cfg.train.clone(), self.cfg.mrq_len, self.cfg.gamma);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Failpoint: a retrain that dies mid-flight (bad memory, a
            // poisoned batch, …) — the controller must retry/backoff.
            failpoint::pause_or_panic("adapt::retrain");
            trainer.fit_warm(&data, init, None)
        }))
        .ok()?;
        let mut model = match out.model {
            TrainedModel::Global(m) => m,
            TrainedModel::PerEnv { base, .. } => base,
        };
        if !model.weights.iter().all(|w| w.is_finite()) {
            return None;
        }
        // Failpoint: a *silently* bad retrain — weights that score
        // finite probabilities (so the probe passes) but rank inversely.
        // Only the canary's golden-metric guard can catch this one.
        if failpoint::fire("adapt::bad_retrain").is_some() {
            for w in &mut model.weights {
                *w = -*w;
            }
        }

        // Assemble the candidate: frozen extractor + retrained head,
        // fresh drift baseline captured from the candidate's own scores
        // on the buffered rows (same monitored columns as the parent, so
        // the sentinel rearms against the *new* bundle's world), and a
        // lineage record tying it to the champion.
        let trained = TrainedModel::Global(model);
        let metadata = lightmirm_core::bundle::BundleMetadata {
            trainer: format!(
                "{}+adapt(gen={})",
                parent.metadata.trainer,
                self.generation + 1
            ),
            seed: self.cfg.train.seed,
            notes: format!(
                "warm-started adaptation of crc32={:08x}, trigger env {trigger_env} psi {trigger_psi:.4}",
                parent.payload_crc32()
            ),
        };
        let candidate = ModelBundle::new(parent.extractor.clone(), &trained, metadata).ok()?;
        let scores = candidate.score_batch(&snapshot.features, &snapshot.env_ids);
        let baseline = DriftBaseline::capture(
            &scores,
            &snapshot.env_ids,
            &snapshot.features,
            snapshot.n_features,
            &parent_baseline.columns,
            self.cfg.sketch_points,
        );
        let lineage = BundleLineage {
            parent_crc32: parent.payload_crc32(),
            trigger_env,
            trigger_psi,
            rows_used: snapshot.n_rows() as u64,
            generation: self.generation + 1,
        };
        Some(candidate.with_baseline(baseline).with_lineage(lineage))
    }
}

/// Up to `max_rows` of `env`'s rows from the snapshot, as a probe batch.
fn probe_batch(snapshot: &FeedSnapshot, env: u16, max_rows: usize) -> (Vec<f32>, Vec<u16>) {
    let nf = snapshot.n_features;
    let mut feats = Vec::new();
    let mut envs = Vec::new();
    for (r, &e) in snapshot.env_ids.iter().enumerate() {
        if e == env {
            feats.extend_from_slice(&snapshot.features[r * nf..(r + 1) * nf]);
            envs.push(e);
            if envs.len() >= max_rows {
                break;
            }
        }
    }
    (feats, envs)
}

/// All of `env`'s rows from the snapshot: features, env ids, labels.
fn env_slice(snapshot: &FeedSnapshot, env: u16) -> (Vec<f32>, Vec<u16>, Vec<u8>) {
    let nf = snapshot.n_features;
    let mut feats = Vec::new();
    let mut envs = Vec::new();
    let mut labels = Vec::new();
    for (r, &e) in snapshot.env_ids.iter().enumerate() {
        if e == env {
            feats.extend_from_slice(&snapshot.features[r * nf..(r + 1) * nf]);
            envs.push(e);
            labels.push(snapshot.labels[r]);
        }
    }
    (feats, envs, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(cap: usize, bytes: usize) -> LabelFeed {
        LabelFeed::new(
            2,
            FeedConfig {
                max_rows_per_env: cap,
                max_bytes: bytes,
            },
        )
    }

    #[test]
    fn push_assigns_monotone_watermarks() {
        let f = feed(16, 1 << 20);
        assert_eq!(f.push(3, &[1.0, 2.0], 1), Some(0));
        assert_eq!(f.push(5, &[1.0, 2.0], 0), Some(1));
        assert_eq!(f.push(3, &[1.0, 2.0], 1), Some(2));
        assert_eq!(f.watermark(), 3);
        assert_eq!(f.env_watermark(3), Some(2));
        assert_eq!(f.env_watermark(5), Some(1));
        assert_eq!(f.env_watermark(9), None);
        assert_eq!(f.rows(3), 2);
        assert_eq!(f.total_rows(), 3);
    }

    #[test]
    fn malformed_and_non_finite_rows_are_rejected() {
        let f = feed(16, 1 << 20);
        assert_eq!(f.push(0, &[1.0], 1), None, "wrong width");
        assert_eq!(f.push(0, &[1.0, f32::NAN], 1), None, "non-finite");
        assert_eq!(f.push(0, &[1.0, f32::INFINITY], 1), None);
        assert_eq!(f.watermark(), 0, "rejected rows take no sequence number");
        assert_eq!(f.total_rows(), 0);
    }

    #[test]
    fn per_env_cap_evicts_oldest_first() {
        let f = feed(3, 1 << 20);
        for i in 0..5 {
            f.push(1, &[i as f32, 0.0], (i % 2) as u8);
        }
        assert_eq!(f.rows(1), 3);
        assert_eq!(f.evicted_rows(), 2);
        let snap = f.snapshot();
        // Oldest two (0, 1) evicted; 2, 3, 4 survive in arrival order.
        let firsts: Vec<f32> = snap.features.chunks(2).map(|c| c[0]).collect();
        assert_eq!(firsts, [2.0, 3.0, 4.0]);
        // Watermark survives eviction: it counts accepted pushes.
        assert_eq!(f.watermark(), 5);
        assert_eq!(f.env_watermark(1), Some(4));
    }

    #[test]
    fn byte_budget_shrinks_largest_env() {
        let per_row = row_bytes(2);
        // Room for exactly 4 rows.
        let f = feed(100, per_row * 4);
        for i in 0..3 {
            f.push(7, &[i as f32, 0.0], 0);
        }
        f.push(8, &[10.0, 0.0], 1);
        assert_eq!(f.total_rows(), 4);
        assert_eq!(f.total_bytes(), per_row * 4);
        // The fifth row overflows the budget: the largest env (7) loses
        // its oldest row, not the small env 8.
        f.push(8, &[11.0, 0.0], 1);
        assert_eq!(f.total_rows(), 4);
        assert_eq!(f.rows(7), 2);
        assert_eq!(f.rows(8), 2);
        assert_eq!(f.evicted_rows(), 1);
        let snap = f.snapshot();
        let firsts: Vec<f32> = snap.features.chunks(2).map(|c| c[0]).collect();
        assert_eq!(firsts, [1.0, 2.0, 10.0, 11.0]);
    }

    #[test]
    fn snapshot_orders_by_env_then_arrival() {
        let f = feed(16, 1 << 20);
        f.push(5, &[50.0, 0.0], 1);
        f.push(1, &[10.0, 0.0], 0);
        f.push(5, &[51.0, 0.0], 1);
        let snap = f.snapshot();
        assert_eq!(snap.env_ids, [1, 5, 5]);
        assert_eq!(snap.labels, [0, 1, 1]);
        let firsts: Vec<f32> = snap.features.chunks(2).map(|c| c[0]).collect();
        assert_eq!(firsts, [10.0, 50.0, 51.0]);
        assert_eq!(snap.n_rows(), 3);
    }

    #[test]
    fn probe_and_canary_slices_select_the_trigger_env() {
        let f = feed(16, 1 << 20);
        for i in 0..6 {
            f.push((i % 2) as u16, &[i as f32, 0.0], (i % 2) as u8);
        }
        let snap = f.snapshot();
        let (pf, pe) = probe_batch(&snap, 1, 2);
        assert_eq!(pe, [1, 1]);
        assert_eq!(pf.len(), 4);
        let (cf, ce, cl) = env_slice(&snap, 1);
        assert_eq!(ce, [1, 1, 1]);
        assert_eq!(cl, [1, 1, 1]);
        assert_eq!(
            cf.chunks(2).map(|c| c[0]).collect::<Vec<_>>(),
            [1.0, 3.0, 5.0]
        );
    }

    #[test]
    #[should_panic(expected = "max_bytes")]
    fn feed_rejects_budget_below_one_row() {
        let _ = LabelFeed::new(
            1024,
            FeedConfig {
                max_rows_per_env: 4,
                max_bytes: 8,
            },
        );
    }
}
