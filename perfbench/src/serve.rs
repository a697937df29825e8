//! Load generation against `ShardedEngine`: an open loop (paced sender,
//! reply collector) and a closed loop (fixed requests in flight).
//!
//! Requests are pre-encoded `core::framing` frames of labelled 2020 rows,
//! in an order drawn from the run seed. Each request is decoded and
//! submitted by the sender thread; the collector thread waits for its
//! reply, checks every served score bit-for-bit against offline
//! `ModelBundle::score_batch` on the same rows, and keeps the first full
//! pass of served scores for wAUC. The calling thread cuts the traffic
//! into [`SLICE`]s, reading the process CPU clock at each boundary.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use lightmirm_core::bundle::ModelBundle;
use lightmirm_core::framing::{decode_frame, encode_frame, frame_request_id};
use lightmirm_serve::{
    EngineConfig, MonitorConfig, PendingScores, ShardConfig, ShardedEngine, SubmitOptions,
};
use loansim::LoanFrame;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::report::Tally;
use crate::stats::median;
use crate::trace::{Guard, Tracer};
use crate::world::{digest, same_bits};
use crate::Slice;

/// Frame priority byte for `Priority::Normal`.
const NORMAL: u8 = 1;
/// Length of one traffic sample: long enough for thousands of
/// `serve-online` requests, short against the host's speed phases.
pub const SLICE: Duration = Duration::from_millis(250);

/// One pre-encoded request: its frame and the test rows it carries.
pub struct Request {
    pub frame: Bytes,
    pub rows: Vec<u32>,
}

/// A seed-drawn permutation of the test rows: the order of one pass.
pub fn pass_order(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed));
    order
}

fn encode(test: &LoanFrame, rows: &[u32]) -> Bytes {
    let nf = test.n_features();
    let mut env_ids = Vec::with_capacity(rows.len());
    let mut features = Vec::with_capacity(rows.len() * nf);
    for &r in rows {
        env_ids.push(test.province[r as usize]);
        features.extend_from_slice(test.row(r as usize));
    }
    let mut buf = BytesMut::new();
    encode_frame(
        &mut buf, NORMAL, env_ids[0], 0, nf as u32, &env_ids, &features,
    );
    buf.freeze()
}

/// Requests of `size` consecutive rows of `order`, wrapping around, so one
/// cycle through them serves every row at least once.
pub fn encode_requests(test: &LoanFrame, order: &[u32], size: usize) -> Vec<Request> {
    (0..order.len().div_ceil(size))
        .map(|k| {
            let rows: Vec<u32> = (0..size)
                .map(|j| order[(k * size + j) % order.len()])
                .collect();
            Request {
                frame: encode(test, &rows),
                rows,
            }
        })
        .collect()
}

/// The CLI's engine defaults (`lightmirm serve-replay --shards 1`): one
/// shard, `EngineConfig::default()`, the drift monitor armed.
pub fn engine_config(trace_requests: bool) -> ShardConfig {
    let defaults = EngineConfig::default();
    ShardConfig {
        shards: 1,
        engine: EngineConfig {
            trace_requests,
            queue_capacity: defaults.queue_capacity.max(defaults.max_batch),
            monitor: Some(MonitorConfig::default()),
            ..defaults
        },
        ..ShardConfig::default()
    }
}

/// The periodic hot reload: a byte-identical copy of the served bundle,
/// loaded from disk and swapped into every shard.
pub struct Reload {
    pub path: PathBuf,
    pub every: Duration,
    pub probe_features: Vec<f32>,
    pub probe_env_ids: Vec<u16>,
}

/// What one stretch of traffic produced.
#[derive(Default)]
pub struct Traffic {
    /// Per answered request: intended send (open loop) or send (closed
    /// loop) to reply.
    pub latency_ms: Vec<f64>,
    /// Per answered request, in reply order: seconds from the start to
    /// the reply, and the rows it carried.
    pub done_s: Vec<f64>,
    pub reply_rows: Vec<u32>,
    /// `(seconds from the start, process CPU seconds)` at every slice
    /// boundary.
    pub marks: Vec<(f64, f64)>,
    /// How late the generator sent each request: past its scheduled time
    /// (open loop), or past the reply that freed its slot (closed loop).
    pub late_us: Vec<f64>,
    /// Time inside `ShardedEngine::submit` (traced runs only).
    pub submit_us: Vec<f64>,
    pub reload_ms: Vec<f64>,
    pub tally: Tally,
    /// Served score of each test row from the first full pass (NaN until
    /// served).
    pub first_pass: Vec<f64>,
}

impl Traffic {
    /// The traffic cut at its CPU marks: per slice, the rows answered, the
    /// process CPU spent, and the median latency of its replies.
    pub fn slices(&self) -> Vec<Slice> {
        let mut out = Vec::new();
        let mut j = 0;
        for w in self.marks.windows(2) {
            let ((t0, c0), (t1, c1)) = (w[0], w[1]);
            let mut lat = Vec::new();
            let mut rows = 0u64;
            while j < self.done_s.len() && self.done_s[j] < t1 {
                if self.done_s[j] >= t0 {
                    lat.push(self.latency_ms[j]);
                    rows += u64::from(self.reply_rows[j]);
                }
                j += 1;
            }
            if rows > 0 {
                out.push(Slice {
                    rows,
                    wall_s: t1 - t0,
                    cpu_s: c1 - c0,
                    p50_ms: median(&lat),
                });
            }
        }
        out
    }

    /// Check the first pass is complete and its digest equals the
    /// offline digest.
    pub fn check_first_pass(&mut self, reference: &[f64]) {
        if self.first_pass.iter().any(|s| s.is_nan()) {
            self.tally
                .fail("the run ended before one full pass was served".into());
        } else if digest(&self.first_pass) != digest(reference) {
            self.tally
                .fail("served score digest differs from offline score_batch".into());
        }
    }
}

struct InFlight<'t> {
    idx: u64,
    req: usize,
    due: Instant,
    pending: PendingScores,
    span: Guard<'t>,
}

/// Where the sender's pacing comes from.
pub enum Pacing {
    /// Poisson arrivals at this many requests per second, drawn from the
    /// seed; latency is timed from each request's intended send time.
    Open { rate: f64 },
    /// This many requests in flight; each reply frees the next send.
    Closed { in_flight: usize },
}

/// Drive `engine` with `reqs` for `duration`, one sender and one
/// collector thread, while the calling thread marks slice boundaries and
/// performs `reload` (if any).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    engine: &ShardedEngine,
    reqs: &[Request],
    reference: &[f64],
    pacing: &Pacing,
    duration: Duration,
    seed: u64,
    reload: Option<&Reload>,
    tr: &Tracer,
) -> Traffic {
    let first_pass_reqs = reqs.len() as u64;
    let (tx, rx) = mpsc::channel::<InFlight<'_>>();
    let slots = match *pacing {
        Pacing::Closed { in_flight } => in_flight.max(1),
        Pacing::Open { .. } => 1,
    };
    let (slot_tx, slot_rx) = mpsc::sync_channel::<Instant>(slots);
    let cpu0 = crate::sys::process_cpu().as_secs_f64();
    let start = Instant::now();
    let end = start + duration;
    for _ in 0..slots {
        slot_tx
            .send(start)
            .expect("slot channel has room for every slot");
    }
    let closed = matches!(pacing, Pacing::Closed { .. });

    let (sent, collected, marks, reload_ms, reload_failures) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut out = Traffic::default();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xa5a5_5a5a);
            let mut t = 0.0f64;
            let mut idx = 0u64;
            loop {
                let due = match *pacing {
                    Pacing::Open { rate } => {
                        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
                        let due = start + Duration::from_secs_f64(t);
                        if due >= end {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        due
                    }
                    Pacing::Closed { .. } => {
                        let Ok(freed) = slot_rx.recv() else { break };
                        if Instant::now() >= end {
                            break;
                        }
                        freed
                    }
                };
                let sent_at = Instant::now();
                out.late_us.push((sent_at - due).as_secs_f64() * 1e6);
                let k = (idx % reqs.len() as u64) as usize;
                let span = tr.span("request", 0, idx);
                let mut buf = reqs[k].frame.clone();
                let decoded = tr.time("framing::decode_frame", span.id, idx, |_| {
                    decode_frame(&mut buf).map(|f| (f.header.route_key, f.features(), f.env_ids()))
                });
                out.tally.attempted += 1;
                let (key, features, env_ids) = match decoded {
                    Ok(parts) => parts,
                    Err(e) => {
                        out.tally.fail(format!("request {idx}: frame decode: {e}"));
                        idx += 1;
                        continue;
                    }
                };
                let opts = SubmitOptions {
                    request_id: tr.on().then(|| frame_request_id(seed, idx)),
                    ..SubmitOptions::default()
                };
                let submitted = {
                    let _g = tr.span("ShardedEngine::submit", span.id, idx);
                    let t0 = Instant::now();
                    let r = engine.submit(key, features, env_ids, opts);
                    if tr.on() {
                        out.submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    r
                };
                match submitted {
                    Ok((_, pending)) => {
                        let msg = InFlight {
                            idx,
                            req: k,
                            due: if closed { sent_at } else { due },
                            pending,
                            span,
                        };
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                    Err(e) => out.tally.fail(format!("request {idx}: refused: {e}")),
                }
                idx += 1;
            }
            drop(tx);
            out
        });
        let collector = s.spawn(move || {
            let mut out = Traffic {
                first_pass: vec![f64::NAN; reference.len()],
                ..Traffic::default()
            };
            for msg in rx {
                let waited = tr.time("PendingScores::wait", msg.span.id, msg.idx, |_| {
                    msg.pending.wait()
                });
                let done = Instant::now();
                // The slot frees when the reply lands; a closed send is
                // late by however long the sender takes to notice.
                if closed {
                    let _ = slot_tx.try_send(done);
                }
                let rows = &reqs[msg.req].rows;
                match waited {
                    Ok(scores) => {
                        let want: Vec<f64> = rows.iter().map(|&r| reference[r as usize]).collect();
                        if !same_bits(&scores, &want) {
                            out.tally.fail(format!(
                                "request {}: served scores differ from offline score_batch",
                                msg.idx
                            ));
                            continue;
                        }
                        if msg.idx < first_pass_reqs {
                            for (&r, &s) in rows.iter().zip(&scores) {
                                out.first_pass[r as usize] = s;
                            }
                        }
                        out.latency_ms.push((done - msg.due).as_secs_f64() * 1e3);
                        out.done_s.push((done - start).as_secs_f64());
                        out.reply_rows.push(rows.len() as u32);
                    }
                    Err(e) => out.tally.fail(format!("request {}: {e}", msg.idx)),
                }
            }
            out
        });
        let mut marks = vec![(0.0, cpu0)];
        let mut reload_ms = Vec::new();
        let mut reload_failures = Vec::new();
        let mut next_mark = start + SLICE;
        let mut next_reload = reload.map(|r| start + r.every);
        while next_mark <= end {
            let reload_due = next_reload.filter(|&r| r < next_mark && r < end);
            std::thread::sleep(
                reload_due
                    .unwrap_or(next_mark)
                    .saturating_duration_since(Instant::now()),
            );
            if let (Some(due), Some(reload)) = (reload_due, reload) {
                next_reload = Some(due + reload.every);
                let t0 = Instant::now();
                let outcome = tr.time("reload", 0, 0, |id| {
                    let bundle = tr
                        .time("ModelBundle::load_from_path", id, 0, |_| {
                            ModelBundle::load_from_path(&reload.path)
                        })
                        .map_err(|e| format!("reload: load: {e}"))?;
                    tr.time("ShardedEngine::reload_all", id, 0, |_| {
                        engine.reload_all(&bundle, &reload.probe_features, &reload.probe_env_ids)
                    })
                    .map_err(|(shard, e)| format!("reload: shard {shard}: {e}"))
                });
                reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = outcome {
                    reload_failures.push(e);
                }
            } else {
                let now = Instant::now();
                marks.push((
                    (now - start).as_secs_f64(),
                    crate::sys::process_cpu().as_secs_f64(),
                ));
                next_mark += SLICE;
            }
        }
        (
            sender.join().expect("sender thread panicked"),
            collector.join().expect("collector thread panicked"),
            marks,
            reload_ms,
            reload_failures,
        )
    });

    let mut traffic = collected;
    traffic.marks = marks;
    traffic.late_us = sent.late_us;
    traffic.submit_us = sent.submit_us;
    traffic.tally.absorb(&sent.tally);
    traffic.tally.attempted += reload_ms.len() as u64;
    for e in reload_failures {
        traffic.tally.fail(e);
    }
    traffic.reload_ms = reload_ms;
    traffic.check_first_pass(reference);
    traffic
}

/// Engine-side layer figures read from the engine's own telemetry:
/// per-stage means (exact `sum / count` of the stage histograms), mean
/// batch rows, and park/wake traffic per thousand requests.
pub struct EngineLayer {
    pub stage_us: [f64; lightmirm_core::obs::N_STAGES],
    pub batch_rows_mean: f64,
    pub parks_per_1k_req: f64,
    pub wakeups_per_1k_req: f64,
}

pub fn engine_layer(engine: &ShardedEngine) -> EngineLayer {
    let hists = engine.stage_histograms();
    let stage_us = std::array::from_fn(|i| {
        let h = &hists[i];
        if h.count() == 0 {
            0.0
        } else {
            h.sum() as f64 / h.count() as f64 / 1e3
        }
    });
    // The benchmark's engines have one shard.
    let shard = engine.shard(0);
    let stats = shard.stats();
    let (submitter_parks, worker_parks, wakeups) = shard.park_wake_counts();
    let per_1k = |n: u64| n as f64 * 1e3 / stats.requests.max(1) as f64;
    EngineLayer {
        stage_us,
        batch_rows_mean: stats.batch_rows_mean,
        parks_per_1k_req: per_1k(submitter_parks + worker_parks),
        wakeups_per_1k_req: per_1k(wakeups),
    }
}
