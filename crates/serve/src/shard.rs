//! Sharded serving front end: N independent [`ScoringEngine`]s behind a
//! stable-hash [`route`].
//!
//! Each shard is a full engine — its own intake queue and lock, worker
//! pool, drift monitor, and hot-reload gate — so shards share no mutable
//! state and a flood (or a chaos-killed worker pool) on one shard cannot
//! stall its siblings. Routing is by an opaque `u16` key (the province
//! id): [`route`] hashes the key with splitmix64 and takes it modulo the
//! shard count. A route is a **pure function of `(key, shards)`**, so
//! the same key maps to the same shard across restarts. A shard that
//! refuses a request (shed, or draining) returns that error to the
//! caller; no request ever moves to a sibling.
//!
//! Correctness does not depend on routing: scoring is elementwise per
//! row, so any shard scores any row bit-identically
//! (`tests/shard_routing.rs` proves sharded == single-engine ==
//! offline). Routing is a locality/isolation policy only.

use lightmirm_core::bundle::ModelBundle;
use lightmirm_core::hash;
use lightmirm_core::obs::request::{TailSampler, N_STAGES};
use lightmirm_core::obs::{MetricEntry, MetricKey, MetricValue, MetricsSnapshot};
use lightmirm_core::timing::Histogram;

use crate::engine::{
    EngineConfig, EngineStats, PendingScores, ReloadError, ScoringEngine, SubmitError,
    SubmitOptions,
};

/// The shard serving `key` among `shards`: the first splitmix64 output
/// of the stream seeded with `key`, modulo the shard count. The spec is
/// part of the routing contract (DESIGN.md §5k); the constants live in
/// [`lightmirm_core::hash`].
///
/// # Panics
///
/// Panics on zero shards.
pub fn route(key: u16, shards: usize) -> usize {
    (hash::splitmix64(u64::from(key).wrapping_add(hash::GOLDEN_GAMMA)) % shards as u64) as usize
}

/// Configuration of the sharded front end.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of independent engine shards.
    pub shards: usize,
    /// Per-shard engine configuration. `chaos_scope` is overwritten per
    /// shard (`shard0`, `shard1`, …) so failpoints can target one shard.
    pub engine: EngineConfig,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 4,
            engine: EngineConfig::default(),
        }
    }
}

/// N independent [`ScoringEngine`] shards behind [`route`].
pub struct ShardedEngine {
    shards: Vec<ScoringEngine>,
}

impl ShardedEngine {
    /// Build `cfg.shards` engines, each serving a clone of `bundle`.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration (zero shards or an invalid
    /// [`EngineConfig`]).
    pub fn new(bundle: &ModelBundle, cfg: &ShardConfig) -> Self {
        assert!(cfg.shards >= 1, "front end needs at least one shard");
        let shards = (0..cfg.shards)
            .map(|i| {
                let mut engine_cfg = cfg.engine.clone();
                engine_cfg.chaos_scope = Some(format!("shard{i}"));
                ScoringEngine::new(bundle.clone(), engine_cfg)
            })
            .collect();
        ShardedEngine { shards }
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

    /// Submit to the shard [`route`] picks for `key`, blocking on its
    /// backpressure (see [`ScoringEngine::submit`]). Returns that
    /// shard's index alongside the pending scores.
    ///
    /// # Errors
    ///
    /// The routed shard's [`SubmitError`].
    pub fn submit(
        &self,
        key: u16,
        features: Vec<f32>,
        env_ids: Vec<u16>,
        opts: SubmitOptions,
    ) -> Result<(usize, PendingScores), SubmitError> {
        let shard = route(key, self.shards.len());
        let pending = self.shards[shard].submit(features, env_ids, opts)?;
        Ok((shard, pending))
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
        // Known answers of the splitmix64 spec: persisted routes must
        // not move across releases.
        let first: Vec<usize> = (0u16..16).map(|key| route(key, 4)).collect();
        assert_eq!(first, [3, 1, 2, 1, 2, 2, 0, 3, 2, 0, 2, 1, 3, 3, 2, 1]);
        let mut seen = [false; 4];
        for key in 0u16..256 {
            let shard = route(key, 4);
            assert!(shard < 4);
            seen[shard] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "256 keys should touch all 4 shards"
        );
    }
}
