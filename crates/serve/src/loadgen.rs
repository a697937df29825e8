//! Deterministic load generation for the sharded serving front end.
//!
//! A trace is synthesized from a seed into a framed byte buffer
//! ([`lightmirm_core::framing`]) — the same wire format a network front
//! end would read — then replayed against a [`ShardedEngine`] by a pool
//! of submitter threads. Everything about the trace (keys, row counts,
//! priorities, feature values) is a pure function of
//! `(pattern, seed, index)` via splitmix64 counter hashing: no RNG
//! state, no time dependence, so the same config always produces the
//! same bytes and — because scoring is elementwise and
//! routing-invariant — the same reply stream, regardless of submitter
//! count, worker count, or shard count.
//!
//! Four patterns cover the regimes the paper's deployment worries
//! about: `diurnal` (triangle ramp, the daily cycle), `flash-crowd`
//! (an 8× burst over one tenth of the trace), `mixed-priority`
//! (Low/Normal/High interleave exercising the shed watermark), and
//! `skewed` (80% of traffic on 20% of the key space — one hot
//! province).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use lightmirm_core::framing::{encode_frame, frame_request_id, Frame, FrameError, FrameReader};
use lightmirm_core::hash;

use crate::engine::{PendingScores, Priority, SubmitError, SubmitOptions};
use crate::shard::ShardedEngine;

/// Request-id seed for replayed frames ("LMRQ"): ids are a pure
/// function of the frame's position in the trace, so a sampled tail
/// trace names the same logical request across runs and shard counts.
const REQUEST_ID_SEED: u64 = 0x4c4d_5251;

/// splitmix64 at counter `counter` of the stream seeded with `seed` —
/// the trace's only source of pseudo-randomness.
fn mix(seed: u64, counter: u64) -> u64 {
    hash::splitmix64(
        seed.wrapping_add(counter.wrapping_mul(hash::GOLDEN_GAMMA))
            .wrapping_add(hash::GOLDEN_GAMMA),
    )
}

/// The traffic shapes a trace can replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePattern {
    /// Triangle ramp between 1× and 4× the base row count — the daily
    /// load cycle compressed into one trace.
    Diurnal,
    /// Steady base load with an 8× burst over the middle tenth of the
    /// trace, concentrated on a small hot key set.
    FlashCrowd,
    /// Uniform load with Low/Normal/High priorities interleaved
    /// (roughly 25% / 60% / 15%), exercising the shed watermark.
    MixedPriority,
    /// 80% of events on the bottom 20% of the key space — one hot
    /// province hammering its shard while the rest idle.
    Skewed,
}

impl TracePattern {
    /// Every pattern, in canonical order.
    pub const ALL: [TracePattern; 4] = [
        TracePattern::Diurnal,
        TracePattern::FlashCrowd,
        TracePattern::MixedPriority,
        TracePattern::Skewed,
    ];

    /// The CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            TracePattern::Diurnal => "diurnal",
            TracePattern::FlashCrowd => "flash-crowd",
            TracePattern::MixedPriority => "mixed-priority",
            TracePattern::Skewed => "skewed",
        }
    }

    /// Parse a CLI/report name.
    pub fn parse(name: &str) -> Option<TracePattern> {
        TracePattern::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Trace synthesis parameters.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Traffic shape.
    pub pattern: TracePattern,
    /// Seed of the splitmix64 counter stream.
    pub seed: u64,
    /// Requests in the trace.
    pub events: usize,
    /// Routing key space: keys are drawn from `0..keys`.
    pub keys: u16,
    /// Environment-id space of the served bundle; each event's rows
    /// carry `key % envs`.
    pub envs: u16,
    /// Feature width of the served bundle.
    pub n_features: u32,
    /// Base rows per event; patterns scale around this.
    pub base_rows: usize,
}

impl TraceConfig {
    /// A small default sized for tests and smoke runs.
    pub fn quick(pattern: TracePattern, n_features: u32, envs: u16) -> Self {
        TraceConfig {
            pattern,
            seed: 7,
            events: 400,
            keys: 64,
            envs,
            n_features,
            base_rows: 16,
        }
    }
}

fn event_priority(pattern: TracePattern, h: u64) -> u8 {
    match pattern {
        TracePattern::MixedPriority => match h % 20 {
            0..=4 => 0,  // Low
            5..=16 => 1, // Normal
            _ => 2,      // High
        },
        _ => 1,
    }
}

fn event_rows(cfg: &TraceConfig, i: usize, h: u64) -> usize {
    let base = cfg.base_rows.max(1);
    match cfg.pattern {
        TracePattern::Diurnal => {
            // Integer triangle wave over the trace: factor 1..=4.
            let period = (cfg.events / 2).max(2);
            let phase = i % period;
            let half = period / 2;
            let tri = if phase < half { phase } else { period - phase };
            base * (1 + (3 * tri) / half.max(1))
        }
        TracePattern::FlashCrowd => {
            let crowd = i >= (cfg.events * 2) / 5 && i < cfg.events / 2;
            if crowd {
                base * 8
            } else {
                base
            }
        }
        TracePattern::MixedPriority => base + (h % base as u64) as usize,
        TracePattern::Skewed => base + (h % (base as u64 + 1)) as usize,
    }
}

fn event_key(cfg: &TraceConfig, i: usize, h: u64) -> u16 {
    let keys = u64::from(cfg.keys.max(1));
    match cfg.pattern {
        TracePattern::FlashCrowd => {
            let crowd = i >= (cfg.events * 2) / 5 && i < cfg.events / 2;
            if crowd {
                (h % (keys / 8).max(1)) as u16
            } else {
                (h % keys) as u16
            }
        }
        TracePattern::Skewed => {
            if h % 10 < 8 {
                ((h >> 8) % (keys / 5).max(1)) as u16
            } else {
                ((h >> 8) % keys) as u16
            }
        }
        _ => (h % keys) as u16,
    }
}

/// Synthesize the framed trace bytes for `cfg`. Pure function of the
/// config — byte-identical across runs, machines, and thread counts.
pub fn synthesize_trace(cfg: &TraceConfig) -> Bytes {
    let mut buf = BytesMut::new();
    let mut env_ids: Vec<u16> = Vec::new();
    let mut features: Vec<f32> = Vec::new();
    for i in 0..cfg.events {
        let h = mix(cfg.seed, i as u64);
        let rows = event_rows(cfg, i, h);
        let key = event_key(cfg, i, h);
        let priority = event_priority(cfg.pattern, h >> 32);
        let env = key % cfg.envs.max(1);
        env_ids.clear();
        env_ids.resize(rows, env);
        features.clear();
        for r in 0..rows * cfg.n_features as usize {
            let draw = mix(cfg.seed ^ 0xfeed_beef, ((i as u64) << 20) | r as u64);
            // Map to [-3, 3); f32-exact by construction.
            let unit = (draw >> 40) as f32 / (1u64 << 24) as f32;
            features.push(unit * 6.0 - 3.0);
        }
        encode_frame(
            &mut buf,
            priority,
            key,
            0,
            cfg.n_features,
            &env_ids,
            &features,
        );
    }
    buf.freeze()
}

/// What a replay produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Events replayed.
    pub events: usize,
    /// Rows scored.
    pub rows: u64,
    /// Low-priority events shed at the watermark and retried as Normal
    /// (the replay guarantees every event a reply, so the score stream
    /// stays deterministic even under shedding).
    pub retried_sheds: u64,
    /// Wall-clock of the replay (submission start → last reply).
    pub elapsed: Duration,
    /// Per-event scores, in trace order — the reply stream. Scores are
    /// routing-invariant, so this is byte-identical across submitter,
    /// worker, and shard counts.
    pub scores: Vec<Vec<f64>>,
}

impl ReplayOutcome {
    /// Aggregate throughput in rows per second.
    pub fn rows_per_sec(&self) -> f64 {
        self.rows as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// FNV-1a digest of the reply stream's little-endian bytes — the
    /// determinism tests' one-number fingerprint.
    pub fn score_digest(&self) -> u64 {
        self.scores
            .iter()
            .flatten()
            .fold(hash::FNV1A_OFFSET, |h, s| {
                hash::fnv1a_extend(h, &s.to_le_bytes())
            })
    }
}

fn priority_of(byte: u8) -> Priority {
    match byte {
        0 => Priority::Low,
        2 => Priority::High,
        _ => Priority::Normal,
    }
}

/// Replay a framed trace against `engine` with `submitters` threads
/// striding the frames. Blocking submits; a shed Low-priority event is
/// retried once at Normal so every event is answered.
///
/// # Errors
///
/// A malformed trace surfaces its [`FrameError`].
///
/// # Panics
///
/// Panics when the engine rejects a well-formed submission for any
/// reason other than shedding, or drops a reply — both are engine
/// contract violations, not load conditions.
pub fn replay(
    engine: &ShardedEngine,
    trace: Bytes,
    submitters: usize,
) -> Result<ReplayOutcome, FrameError> {
    let frames: Vec<Frame> = FrameReader::new(trace).collect::<Result<_, _>>()?;
    let events = frames.len();
    let submitters = submitters.max(1);
    let retried_sheds = AtomicU64::new(0);
    let started = Instant::now();
    let mut per_thread: Vec<Vec<(usize, Vec<f64>)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|t| {
                let frames = &frames;
                let retried_sheds = &retried_sheds;
                scope.spawn(move || {
                    let mut out: Vec<(usize, Vec<f64>)> = Vec::new();
                    let mut window: VecDeque<(usize, PendingScores)> = VecDeque::new();
                    for idx in (t..frames.len()).step_by(submitters) {
                        let frame = &frames[idx];
                        let pending = submit_frame(engine, frame, idx, retried_sheds);
                        window.push_back((idx, pending));
                        if window.len() >= 64 {
                            let (i, p) = window.pop_front().expect("window non-empty");
                            out.push((i, p.wait().expect("loadgen reply")));
                        }
                    }
                    for (i, p) in window {
                        out.push((i, p.wait().expect("loadgen reply")));
                    }
                    out
                })
            })
            .collect();
        per_thread = handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect();
    });
    let elapsed = started.elapsed();
    let mut scores: Vec<Vec<f64>> = vec![Vec::new(); events];
    let mut rows = 0u64;
    for (idx, s) in per_thread.into_iter().flatten() {
        rows += s.len() as u64;
        scores[idx] = s;
    }
    Ok(ReplayOutcome {
        events,
        rows,
        retried_sheds: retried_sheds.load(Ordering::SeqCst),
        elapsed,
        scores,
    })
}

fn submit_frame(
    engine: &ShardedEngine,
    frame: &Frame,
    idx: usize,
    retried_sheds: &AtomicU64,
) -> PendingScores {
    // Typed buffers materialize only here, at the submit boundary; the
    // frame held zero-copy slices of the trace until now.
    let request_id = Some(frame_request_id(REQUEST_ID_SEED, idx as u64));
    let opts = SubmitOptions {
        deadline: None,
        priority: priority_of(frame.header.priority),
        request_id,
    };
    match engine.submit(
        frame.header.route_key,
        frame.features(),
        frame.env_ids(),
        opts,
    ) {
        Ok((_, pending)) => pending,
        Err(SubmitError::Shed) => {
            retried_sheds.fetch_add(1, Ordering::SeqCst);
            let retry = SubmitOptions {
                deadline: None,
                priority: Priority::Normal,
                request_id,
            };
            engine
                .submit(
                    frame.header.route_key,
                    frame.features(),
                    frame.env_ids(),
                    retry,
                )
                .map(|(_, p)| p)
                .expect("shed retry at Normal priority")
        }
        Err(e) => panic!("loadgen submit rejected: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_synthesis_is_a_pure_function_of_config() {
        for pattern in TracePattern::ALL {
            let cfg = TraceConfig::quick(pattern, 4, 5);
            let a = synthesize_trace(&cfg);
            let b = synthesize_trace(&cfg);
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "{} not deterministic",
                pattern.name()
            );
            let mut other = cfg.clone();
            other.seed ^= 1;
            assert_ne!(
                synthesize_trace(&other).as_slice(),
                a.as_slice(),
                "{} ignores its seed",
                pattern.name()
            );
        }
    }

    #[test]
    fn flash_crowd_bursts_and_concentrates_keys() {
        let cfg = TraceConfig::quick(TracePattern::FlashCrowd, 2, 5);
        let frames: Vec<Frame> = FrameReader::new(synthesize_trace(&cfg))
            .collect::<Result<_, _>>()
            .expect("trace decodes");
        let crowd_start = (cfg.events * 2) / 5;
        let crowd_end = cfg.events / 2;
        for (i, f) in frames.iter().enumerate() {
            if i >= crowd_start && i < crowd_end {
                assert_eq!(
                    f.header.rows as usize,
                    cfg.base_rows * 8,
                    "burst rows at {i}"
                );
                assert!(f.header.route_key < cfg.keys / 8, "burst key spread at {i}");
            } else {
                assert_eq!(f.header.rows as usize, cfg.base_rows);
            }
        }
    }

    #[test]
    fn mixed_priority_traces_carry_all_three_classes() {
        let cfg = TraceConfig::quick(TracePattern::MixedPriority, 2, 5);
        let mut counts = [0usize; 3];
        for f in FrameReader::new(synthesize_trace(&cfg)) {
            counts[f.expect("frame").header.priority as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "priority mix {counts:?}");
        assert!(
            counts[1] > counts[0] && counts[1] > counts[2],
            "Normal dominates"
        );
    }

    #[test]
    fn pattern_names_round_trip() {
        for p in TracePattern::ALL {
            assert_eq!(TracePattern::parse(p.name()), Some(p));
        }
        assert_eq!(TracePattern::parse("nope"), None);
    }
}
