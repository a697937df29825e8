//! Sharded serving front end: N independent [`ScoringEngine`]s behind a
//! stable-hash [`ShardRouter`].
//!
//! Each shard is a full engine — its own lock-free intake ring, worker
//! pool, drift monitor, and hot-reload gate — so shards share no mutable
//! state and a flood (or a chaos-killed worker pool) on one shard cannot
//! stall its siblings. Routing is by an opaque `u16` key (tenant or
//! province id): the router hashes the key with splitmix64 and takes it
//! modulo the shard count, with an explicit pinning table overriding the
//! hash per key. The hash has **no runtime state**, so the same key maps
//! to the same shard across restarts; routes change only on explicit
//! resharding ([`ShardRouter::resharded`]) or pin edits.
//!
//! Correctness does not depend on routing: scoring is elementwise per
//! row, so any shard scores any row bit-identically
//! (`tests/shard_routing.rs` proves sharded == single-engine ==
//! offline). Routing is a locality/isolation policy, which is what lets
//! [`OverflowPolicy::Redirect`] bounce traffic off a full or draining
//! shard without changing a single score.

use std::collections::BTreeMap;

use lightmirm_core::bundle::ModelBundle;
use lightmirm_core::hash;
use lightmirm_core::obs::request::{RequestTrace, TailSampler, N_STAGES};
use lightmirm_core::obs::{MetricEntry, MetricKey, MetricValue, MetricsSnapshot};
use lightmirm_core::timing::Histogram;

use crate::engine::{
    Admission, EngineConfig, EngineStats, PendingScores, Rejected, ReloadError, ScoringEngine,
    SubmitError, SubmitOptions,
};

/// The router's stateless key hash: the first splitmix64 output of the
/// stream seeded with `key`. The spec is part of the routing contract
/// (DESIGN.md §5k); the constants live in [`lightmirm_core::hash`].
fn route_hash(key: u16) -> u64 {
    hash::splitmix64(u64::from(key).wrapping_add(hash::GOLDEN_GAMMA))
}

/// Stable key → shard mapping: pinning table first, splitmix64 hash
/// modulo the shard count otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
    pinned: BTreeMap<u16, usize>,
}

impl ShardRouter {
    /// A hash-only router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics on zero shards — a configuration error.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "router needs at least one shard");
        ShardRouter {
            shards,
            pinned: BTreeMap::new(),
        }
    }

    /// A router with an explicit pinning table overriding the hash.
    ///
    /// # Panics
    ///
    /// Panics on zero shards or a pin targeting a shard that does not
    /// exist.
    pub fn with_pinning(shards: usize, pinned: BTreeMap<u16, usize>) -> Self {
        let mut router = ShardRouter::new(shards);
        for (key, shard) in pinned {
            router.pin(key, shard);
        }
        router
    }

    /// Shards this router spreads over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard serving `key`.
    pub fn route(&self, key: u16) -> usize {
        match self.pinned.get(&key) {
            Some(&shard) => shard,
            None => (route_hash(key) % self.shards as u64) as usize,
        }
    }

    /// Pin `key` to `shard`, overriding the hash.
    ///
    /// # Panics
    ///
    /// Panics when `shard` does not exist.
    pub fn pin(&mut self, key: u16, shard: usize) {
        assert!(shard < self.shards, "pin target {shard} out of range");
        self.pinned.insert(key, shard);
    }

    /// Drop the pin for `key` (back to the hash route).
    pub fn unpin(&mut self, key: u16) {
        self.pinned.remove(&key);
    }

    /// The pinning table.
    pub fn pinned(&self) -> &BTreeMap<u16, usize> {
        &self.pinned
    }

    /// Explicit resharding: the ONLY operation that changes hash routes.
    /// Pins whose target still exists are kept; pins beyond the new
    /// shard count are dropped.
    pub fn resharded(&self, shards: usize) -> ShardRouter {
        assert!(shards >= 1, "router needs at least one shard");
        ShardRouter {
            shards,
            pinned: self
                .pinned
                .iter()
                .filter(|&(_, &s)| s < shards)
                .map(|(&k, &s)| (k, s))
                .collect(),
        }
    }
}

/// What a shard does with traffic its intake rejects (full, shed, or
/// draining).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Surface the primary shard's rejection to the caller (strict
    /// isolation: one tenant's flood stays that tenant's problem).
    #[default]
    Reject,
    /// Walk the remaining shards in ring order and enqueue on the first
    /// that accepts; only when every shard rejects does the caller see
    /// an error. Scores are routing-invariant, so a redirect never
    /// changes a result — it only moves the queueing.
    Redirect,
}

/// Configuration of the sharded front end.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of independent engine shards.
    pub shards: usize,
    /// Per-shard engine configuration. `chaos_scope` is overwritten per
    /// shard (`shard0`, `shard1`, …) so failpoints can target one shard.
    pub engine: EngineConfig,
    /// Overflow policy for rejected submissions.
    pub overflow: OverflowPolicy,
    /// Routing pins, key → shard.
    pub pinned: BTreeMap<u16, usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            engine: EngineConfig::default(),
            overflow: OverflowPolicy::default(),
            pinned: BTreeMap::new(),
        }
    }
}

/// N independent [`ScoringEngine`] shards behind a [`ShardRouter`].
pub struct ShardedEngine {
    shards: Vec<ScoringEngine>,
    router: ShardRouter,
    overflow: OverflowPolicy,
}

impl ShardedEngine {
    /// Build `cfg.shards` engines, each serving a clone of `bundle`.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (zero shards, out-of-range pins,
    /// or an invalid [`EngineConfig`]).
    pub fn new(bundle: &ModelBundle, cfg: &ShardConfig) -> Self {
        let router = ShardRouter::with_pinning(cfg.shards, cfg.pinned.clone());
        let shards = (0..cfg.shards)
            .map(|i| {
                let mut engine_cfg = cfg.engine.clone();
                engine_cfg.chaos_scope = Some(format!("shard{i}"));
                ScoringEngine::new(bundle.clone(), engine_cfg)
            })
            .collect();
        ShardedEngine {
            shards,
            router,
            overflow: cfg.overflow,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Direct handle to shard `i` (chaos tests and per-shard adaptation
    /// drive shards through this).
    pub fn shard(&self, i: usize) -> &ScoringEngine {
        &self.shards[i]
    }

    /// The router (read-only; routes are fixed for the engine's life —
    /// resharding means building a new front end).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Route `key` and submit, blocking on the target shard's
    /// backpressure. Returns the shard that accepted alongside the
    /// pending scores.
    ///
    /// Under [`OverflowPolicy::Redirect`], a rejecting primary
    /// (full/shed/draining) redirects with [`Admission::Try`] through the
    /// remaining shards in ring order; if every shard rejects, the call
    /// blocks on the first non-draining shard, and only errs when all
    /// shards are draining (or the request itself is invalid).
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(
        &self,
        key: u16,
        features: Vec<f32>,
        env_ids: Vec<u16>,
        opts: SubmitOptions,
    ) -> Result<(usize, PendingScores), SubmitError> {
        let primary = self.router.route(key);
        let n = self.shards.len();
        // Primary attempt: non-blocking under Redirect (so an overflow
        // walks instead of waiting), blocking under Reject.
        let admission = match self.overflow {
            OverflowPolicy::Reject => Admission::Block,
            OverflowPolicy::Redirect => Admission::Try,
        };
        let mut rejected = match self.shards[primary].submit(features, env_ids, opts, admission) {
            Ok(pending) => return Ok((primary, pending)),
            Err(rejected) => rejected,
        };
        let redirectable = matches!(
            rejected.error,
            SubmitError::QueueFull | SubmitError::Shed | SubmitError::ShuttingDown
        );
        if self.overflow == OverflowPolicy::Reject || !redirectable {
            return Err(rejected.error);
        }
        // Redirect walk, ring order from the primary's successor.
        for step in 1..n {
            let shard = (primary + step) % n;
            let Rejected {
                features, env_ids, ..
            } = rejected;
            match self.shards[shard].submit(features, env_ids, opts, Admission::Try) {
                Ok(pending) => return Ok((shard, pending)),
                Err(again) => rejected = again,
            }
        }
        // Everything rejected non-blocking: park on the first shard
        // still taking traffic (ring order keeps this deterministic).
        for step in 0..n {
            let shard = (primary + step) % n;
            if self.shards[shard].is_draining() {
                continue;
            }
            let Rejected {
                features, env_ids, ..
            } = rejected;
            match self.shards[shard].submit(features, env_ids, opts, Admission::Block) {
                Ok(pending) => return Ok((shard, pending)),
                // A shard that started draining mid-wait: move on.
                Err(again) if again.error == SubmitError::ShuttingDown => rejected = again,
                Err(again) => return Err(again.error),
            }
        }
        Err(SubmitError::ShuttingDown)
    }

    /// Probe-validate `candidate` and swap it into every shard. Shards
    /// reload independently (each holds its own reload gate and rearms
    /// its own drift monitor); on a rejection the failing shard and
    /// every shard after it keep their incumbent, and the error names
    /// the shard.
    ///
    /// # Errors
    ///
    /// The first failing shard's index and [`ReloadError`].
    pub fn reload_all(
        &self,
        candidate: &ModelBundle,
        probe_features: &[f32],
        probe_env_ids: &[u16],
    ) -> Result<(), (usize, ReloadError)> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .reload(candidate.clone(), probe_features, probe_env_ids)
                .map_err(|e| (i, e))?;
        }
        Ok(())
    }

    /// Per-shard telemetry snapshots, indexed by shard.
    pub fn stats(&self) -> Vec<EngineStats> {
        self.shards.iter().map(ScoringEngine::stats).collect()
    }

    /// All shards' submit-entry → reply latency merged into one
    /// histogram (bucket-level merge, so p99/p99.9 of the aggregate are
    /// well-defined).
    pub fn merged_enqueue_to_reply(&self) -> Histogram {
        let mut merged = Histogram::new();
        for shard in &self.shards {
            merged.merge(&shard.enqueue_to_reply_histogram());
        }
        merged
    }

    /// The global k-slowest request traces: every shard's tail sampler,
    /// each trace stamped with the shard that scored it, merged by
    /// re-selecting the top-k (empty unless
    /// [`EngineConfig::trace_requests`] is on).
    pub fn tail_sampler(&self) -> TailSampler {
        let mut merged = TailSampler::new(0);
        for (i, shard) in self.shards.iter().enumerate() {
            let local = shard.tail_sampler();
            let mut stamped = TailSampler::new(local.k());
            for t in local.traces() {
                let mut t = t.clone();
                t.shard = i as u32;
                stamped.offer(t);
            }
            merged.merge(&stamped);
        }
        merged
    }

    /// The merged tail traces, slowest first (see
    /// [`ShardedEngine::tail_sampler`]).
    pub fn tail_traces(&self) -> Vec<RequestTrace> {
        self.tail_sampler().traces().to_vec()
    }

    /// All shards' per-stage request-latency histograms, bucket-merged,
    /// indexed by [`lightmirm_core::obs::STAGE_NAMES`].
    pub fn stage_histograms(&self) -> [Histogram; N_STAGES] {
        let mut merged: [Histogram; N_STAGES] = Default::default();
        for shard in &self.shards {
            for (m, h) in merged.iter_mut().zip(shard.stage_histograms().iter()) {
                m.merge(h);
            }
        }
        merged
    }

    /// Merged metrics: every engine series summed/bucket-merged across
    /// shards, plus per-shard `{shard="i"}`-labeled liveness gauges
    /// (ring occupancy, park and wake counts). Aggregate liveness
    /// gauges are fleet sums, not last-shard-wins.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot {
            metrics: Vec::new(),
        };
        let (mut occupancy, mut sub, mut work, mut wake) = (0usize, 0u64, 0u64, 0u64);
        for (i, shard) in self.shards.iter().enumerate() {
            merged.merge(&shard.metrics_snapshot());
            let (s, w, k) = shard.park_wake_counts();
            let occ = shard.ring_occupancy();
            occupancy += occ;
            sub += s;
            work += w;
            wake += k;
            let idx = i.to_string();
            let gauge = |name: &str, v: f64| MetricEntry {
                key: MetricKey::new(name, &[("shard", idx.as_str())]),
                value: MetricValue::Gauge(v),
            };
            merged.merge(&MetricsSnapshot {
                metrics: vec![
                    gauge("serve_ring_occupancy", occ as f64),
                    gauge("serve_submitter_parks", s as f64),
                    gauge("serve_worker_parks", w as f64),
                    gauge("serve_wakeups", k as f64),
                ],
            });
        }
        // Gauge merge semantics are last-wins; overwrite the label-less
        // aggregates with the fleet sums.
        let gauge = |name: &str, v: f64| MetricEntry {
            key: MetricKey::new(name, &[]),
            value: MetricValue::Gauge(v),
        };
        merged.merge(&MetricsSnapshot {
            metrics: vec![
                gauge("serve_ring_occupancy", occupancy as f64),
                gauge("serve_submitter_parks", sub as f64),
                gauge("serve_worker_parks", work as f64),
                gauge("serve_wakeups", wake as f64),
            ],
        });
        merged
    }

    /// Stop intake on one shard while its siblings keep serving — the
    /// chaos suite's "kill a shard" lever, and the first half of an
    /// explicit per-shard drain.
    pub fn begin_shutdown_shard(&self, i: usize) {
        self.shards[i].begin_shutdown();
    }

    /// Stop intake everywhere, drain every shard, and return the final
    /// per-shard telemetry.
    pub fn shutdown(self) -> Vec<EngineStats> {
        // Cut intake on all shards first so no drain waits behind a
        // sibling still accepting.
        for shard in &self.shards {
            shard.begin_shutdown();
        }
        self.shards
            .into_iter()
            .map(ScoringEngine::shutdown)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_stable_and_cover_all_shards() {
        let router = ShardRouter::new(4);
        let again = ShardRouter::new(4); // a "restart": no shared state
        let mut seen = [false; 4];
        for key in 0u16..256 {
            let shard = router.route(key);
            assert!(shard < 4);
            assert_eq!(shard, again.route(key), "route must not depend on instance");
            seen[shard] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "256 keys should touch all 4 shards"
        );
    }

    #[test]
    fn pinning_overrides_the_hash_and_unpin_restores_it() {
        let mut router = ShardRouter::new(4);
        let key = 31u16;
        let hashed = router.route(key);
        let pinned_to = (hashed + 1) % 4;
        router.pin(key, pinned_to);
        assert_eq!(router.route(key), pinned_to);
        assert_eq!(
            router.route(key.wrapping_add(1)),
            ShardRouter::new(4).route(key.wrapping_add(1))
        );
        router.unpin(key);
        assert_eq!(router.route(key), hashed);
    }

    #[test]
    fn resharding_is_the_only_route_change() {
        let mut router = ShardRouter::new(4);
        router.pin(7, 3);
        router.pin(9, 1);
        let wider = router.resharded(8);
        assert_eq!(wider.pinned().len(), 2, "valid pins survive resharding");
        let narrower = router.resharded(2);
        assert_eq!(
            narrower.pinned().get(&9),
            Some(&1),
            "in-range pin survives shrinking"
        );
        assert_eq!(
            narrower.pinned().get(&7),
            None,
            "out-of-range pin is dropped"
        );
        // And the hash route for an unpinned key is a pure function of
        // (key, shard count).
        for key in 0u16..64 {
            assert_eq!(
                wider.route(key.wrapping_add(100)),
                ShardRouter::new(8).route(key.wrapping_add(100))
            );
        }
    }

    #[test]
    #[should_panic(expected = "pin target")]
    fn out_of_range_pin_is_rejected() {
        ShardRouter::new(2).pin(0, 2);
    }
}
