//! End-to-end and per-layer benchmark of LightMIRM scoring and training.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-online|serve-bulk|train-pipeline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints diagnostics on stderr and, as the
//! last stdout line, one JSON object: `correct`, `attempted`, `failed`,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `perfbench/README.md` for what each number means.

mod layers;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod train;
mod world;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lightmirm_core::bundle::ModelBundle;
use lightmirm_core::timing::Step;
use lightmirm_serve::ShardedEngine;

use report::{Report, Tally, END_TO_END, PER_LAYER};
use serve::{
    drive, encode_requests, engine_config, engine_layer, pass_order, Pacing, Reload, Request,
    Traffic,
};
use stats::{after_warmup, iqr_share, low, median, quantile_sorted, sorted};
use trace::Tracer;
use train::TrainRun;
use world::{cli_train_config, fit_pipeline, TimedFit, World};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Offered load of `serve-online` (Poisson arrivals, single-row requests):
/// a quarter of the ~80k req/s the load generator reaches closed-loop on
/// the reference host, so a 2 ms coalescing window holds ~40 rows, far
/// below `max_batch`.
const ONLINE_RATE: f64 = 20_000.0;
/// Rows per `serve-bulk` request, and requests it keeps in flight.
const BULK_ROWS: usize = 512;
const BULK_IN_FLIGHT: usize = 4;
/// `serve-online` hot-reloads the served bundle this often.
const RELOAD_EVERY: Duration = Duration::from_secs(3);
/// Engine warm-up traffic in each serve set-up, and for the traced run's
/// traced engine.
const WARMUP: Duration = Duration::from_millis(300);
/// Traced train runs drive their bundle open-loop this long for the
/// engine layers.
const ENGINE_PROBE: Duration = Duration::from_millis(1500);
/// Length of each untraced or traced stretch of serve traffic in the
/// traced run.
const TRACE_SLICE: Duration = Duration::from_secs(1);
/// The backpressure probe: enough 512-row requests in flight to fill the
/// 4096-row queue, so submitters park.
const BACKPRESSURE_IN_FLIGHT: usize = 12;
const BACKPRESSURE: Duration = Duration::from_millis(300);
/// Rows of the reload probe batch.
const RELOAD_PROBE_ROWS: usize = 16;
/// Epochs per head of a reference round (see [`reference_round`]).
const REFERENCE_ROUND: train::Round = train::Round {
    lightmirm: 20,
    meta_irm: 12,
};
/// Threads of the data-parallel runtime on the training thread. The
/// vendored rayon spawns OS threads for every parallel phase; on a shared
/// 2-vCPU host the cross-CPU wake-ups made two-thread epochs slower and
/// their run-to-run spread far wider than one thread's, so gated training
/// figures run on one thread and the traced run prices the parallel
/// runtime separately (`rayon.nproc_lightmirm_epoch_ms`).
const TRAIN_THREADS: usize = 1;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeOnline,
    ServeBulk,
    TrainPipeline,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeOnline,
        Workload::ServeBulk,
        Workload::TrainPipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeOnline => "serve-online",
            Workload::ServeBulk => "serve-bulk",
            Workload::TrainPipeline => "train-pipeline",
        }
    }

    fn serves(self) -> bool {
        matches!(self, Workload::ServeOnline | Workload::ServeBulk)
    }

    fn pacing(self) -> Pacing {
        match self {
            Workload::ServeBulk => Pacing::Closed {
                in_flight: BULK_IN_FLIGHT,
            },
            _ => Pacing::Open { rate: ONLINE_RATE },
        }
    }

    fn request_rows(self) -> usize {
        match self {
            Workload::ServeBulk => BULK_ROWS,
            _ => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |flag: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("{flag} {v:?} is not a whole number"))
    };
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} must be 0 or 1")),
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch directory for bundles, under the build directory so it stays
/// inside the checkout: `$CARGO_TARGET_DIR` when set, else
/// `perfbench/target`.
fn out_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-run")
}

/// A serve workload's engine and its pre-encoded traffic.
struct Serving {
    engine: ShardedEngine,
    reqs: Vec<Request>,
    reload: Reload,
}

/// One set-up: the world, the fit, and for serve workloads a warmed-up
/// engine.
struct Setup {
    world: World,
    fitted: world::Fitted,
    serving: Option<Serving>,
    warmup: Option<Traffic>,
}

fn reload_for(bundle_path: &Path, dir: &Path, world: &World) -> Result<Reload, String> {
    let path = dir.join("served-copy.bundle");
    std::fs::copy(bundle_path, &path).map_err(|e| format!("copy bundle: {e}"))?;
    let n = RELOAD_PROBE_ROWS.min(world.test.len());
    Ok(Reload {
        path,
        every: RELOAD_EVERY,
        probe_features: world.test.feature_matrix()[..n * world.test.n_features()].to_vec(),
        probe_env_ids: world.test.province[..n].to_vec(),
    })
}

fn setup(args: &Args, dir: &Path, tr: &Tracer, k: u64) -> Result<Setup, String> {
    tr.time("setup", 0, k, |id| {
        let world = World::generate(tr, id);
        let bundle_path = dir.join("model.bundle");
        let fitted = fit_pipeline(&world.frame, &bundle_path, tr, id, k)?;
        let (serving, warmup) = if args.workload.serves() {
            let order = pass_order(world.test.len(), args.seed);
            let reqs = encode_requests(&world.test, &order, args.workload.request_rows());
            let engine = ShardedEngine::new(&fitted.bundle, &engine_config(false));
            let warm = drive(
                &engine,
                &reqs,
                &fitted.test_scores,
                &args.workload.pacing(),
                WARMUP,
                args.seed,
                None,
                &Tracer::new(false),
            );
            let reload = reload_for(&bundle_path, dir, &world)?;
            (
                Some(Serving {
                    engine,
                    reqs,
                    reload,
                }),
                Some(warm),
            )
        } else {
            (None, None)
        };
        Ok(Setup {
            world,
            fitted,
            serving,
            warmup,
        })
    })
}

/// Every epoch of `fits` but each fit's first, at the reference host
/// speed ([`TimedFit::scaled_epoch_ms`]).
fn epoch_samples(fits: &[TimedFit]) -> Vec<f64> {
    fits.iter().flat_map(TimedFit::scaled_epoch_ms).collect()
}

/// The same epochs as measured, for the stderr diagnostics.
fn raw_epoch_samples(fits: &[TimedFit]) -> Vec<f64> {
    fits.iter()
        .flat_map(|f| after_warmup(&f.epoch_ms, 1).iter().copied())
        .collect()
}

/// Median per-epoch milliseconds charged to a Table III step.
fn step_ms(fits: &[TimedFit], step: Step) -> f64 {
    let per_fit: Vec<f64> = fits
        .iter()
        .map(|f| f.out.timer.total(step).as_secs_f64() * 1e3 / f.out.epochs_run as f64)
        .collect();
    median(&per_fit)
}

/// Within-run spread of a sampled figure, on stderr, for tuning.
fn diag(label: &str, samples: &[f64]) {
    if samples.len() >= 2 {
        eprintln!(
            "perfbench:   {label}: p5 {:.6} median {:.6} iqr/median {:.4} n {}",
            low(samples),
            median(samples),
            iqr_share(samples),
            samples.len()
        );
    }
}

/// Samples taken outside the timed stretches: the set-ups' own, and the
/// reference rounds' (see [`reference_round`]).
#[derive(Default)]
struct SetupStats {
    setup_s: Vec<f64>,
    /// Set-up fits at the reference host speed, and as measured.
    fit_s: Vec<f64>,
    raw_fit_s: Vec<f64>,
    heads: Vec<TimedFit>,
    metas: Vec<TimedFit>,
}

/// One sample of a timed phase: a [`serve::SLICE`] of traffic, or one
/// training fit or round.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub rows: u64,
    pub wall_s: f64,
    /// Process CPU (all threads) over the slice.
    pub cpu_s: f64,
    /// Median latency of the slice's requests; a fit's or round's own
    /// time.
    pub p50_ms: f64,
}

/// Everything a timed phase yields that feeds the metrics.
#[derive(Default)]
struct Timed {
    slices: Vec<Slice>,
    wauc: f64,
    /// `train-pipeline`'s fits at the reference host speed, and as
    /// measured.
    fit_s: Vec<f64>,
    raw_fit_s: Vec<f64>,
    lightmirm: Vec<TimedFit>,
    tally: Tally,
    traffic: Vec<Traffic>,
}

impl Timed {
    fn from_traffic(mut t: Traffic, test: &loansim::LoanFrame) -> Timed {
        let mut tally = std::mem::take(&mut t.tally);
        let wauc = world::worst_env_auc(&t.first_pass, test).unwrap_or_else(|e| {
            tally.fail(e);
            f64::NAN
        });
        Timed {
            slices: t.slices(),
            wauc,
            tally,
            traffic: vec![t],
            ..Timed::default()
        }
    }

    fn from_train(r: TrainRun) -> Timed {
        Timed {
            slices: r.slices,
            wauc: r.wauc,
            fit_s: r.fit_s,
            raw_fit_s: r.raw_fit_s,
            lightmirm: r.lightmirm,
            tally: r.tally,
            traffic: Vec::new(),
        }
    }

    /// Several timed stretches as one: their samples pooled.
    fn pooled(parts: Vec<Timed>) -> Timed {
        let mut out = Timed::default();
        for p in parts {
            out.slices.extend(p.slices);
            out.wauc = p.wauc;
            out.fit_s.extend(p.fit_s);
            out.raw_fit_s.extend(p.raw_fit_s);
            out.lightmirm.extend(p.lightmirm);
            out.tally.absorb(&p.tally);
            out.traffic.extend(p.traffic);
        }
        out
    }

    fn per_slice(&self, f: impl Fn(&Slice) -> f64) -> Vec<f64> {
        self.slices.iter().map(f).collect()
    }

    fn cpu_us_per_row(&self) -> f64 {
        median(&self.per_slice(|s| s.cpu_s * 1e6 / s.rows as f64))
    }

    /// The open loop's latency is read at the fast end of its slices: a
    /// host stall delays every request behind it, and the median slice
    /// moved with how many stalls a run met (its run-to-run spread reached
    /// 1.1, against 0.09 for the fast end).
    fn p50_ms(&self, w: Workload) -> f64 {
        let per_slice = self.per_slice(|s| s.p50_ms);
        if w == Workload::ServeOnline {
            low(&per_slice)
        } else {
            median(&per_slice)
        }
    }

    /// Rows per second: per CPU-second for the open loop, whose offered
    /// rate fixes rows per wall second (so this is `1e6 / cpu_us_per_row`);
    /// per wall second otherwise.
    fn rows_per_s(&self, w: Workload) -> f64 {
        match w {
            Workload::ServeOnline => 1e6 / self.cpu_us_per_row(),
            _ => 1.0 / median(&self.per_slice(|s| s.wall_s / s.rows as f64)),
        }
    }

    /// All of one kind of traffic sample, pooled over the stretches.
    fn samples(&self, pick: impl Fn(&Traffic) -> &Vec<f64>) -> Vec<f64> {
        self.traffic
            .iter()
            .flat_map(|t| pick(t).iter().copied())
            .collect()
    }
}

/// Run the workload's timed phase for `duration`; serve workloads drive
/// `engine`.
fn timed_phase(
    args: &Args,
    s: &Setup,
    engine: Option<&ShardedEngine>,
    dir: &Path,
    duration: Duration,
    tr: &Tracer,
) -> Timed {
    match args.workload {
        Workload::ServeOnline | Workload::ServeBulk => {
            let serving = s.serving.as_ref().expect("serve set-up builds an engine");
            let reload = (args.workload == Workload::ServeOnline).then_some(&serving.reload);
            let t = drive(
                engine.unwrap_or(&serving.engine),
                &serving.reqs,
                &s.fitted.test_scores,
                &args.workload.pacing(),
                duration,
                args.seed,
                reload,
                tr,
            );
            Timed::from_traffic(t, &s.world.test)
        }
        Workload::TrainPipeline => Timed::from_train(train::pipeline_loop(
            &s.world.frame,
            s.world.train.len(),
            s.fitted.wauc,
            dir,
            duration,
            tr,
        )),
    }
}

/// The LightMIRM and meta-IRM fits whose epochs a workload reports:
/// `train-pipeline`'s own timed fits for LightMIRM, else those of the
/// set-ups and reference rounds.
fn head_fits(w: Workload, t: &Timed, st: &SetupStats) -> (Vec<TimedFit>, Vec<TimedFit>) {
    let light = if w.serves() {
        st.heads.clone()
    } else {
        t.lightmirm.clone()
    };
    (light, st.metas.clone())
}

/// The end-to-end metrics of one timed phase (all but `setup_s` and
/// `peak_rss_mb`): the median of their samples — traffic slices, and
/// fits and epochs rescaled to the reference host speed — except the open
/// loop's `p50_ms` (see [`Timed::p50_ms`]).
fn end_to_end(w: Workload, t: &Timed, st: &SetupStats, report: &mut Report) {
    let (light, meta) = head_fits(w, t, st);
    let (fit_s, raw_fit_s) = if w.serves() {
        (&st.fit_s, &st.raw_fit_s)
    } else {
        (&t.fit_s, &t.raw_fit_s)
    };
    diag("setup_s", &st.setup_s);
    diag(
        "cpu_us_per_row",
        &t.per_slice(|s| s.cpu_s * 1e6 / s.rows as f64),
    );
    diag("p50_ms", &t.per_slice(|s| s.p50_ms));
    diag("fit_s", fit_s);
    diag("fit_s as measured", raw_fit_s);
    diag("lightmirm_epoch_ms", &epoch_samples(&light));
    diag("lightmirm_epoch_ms as measured", &raw_epoch_samples(&light));
    diag("meta_irm_epoch_ms", &epoch_samples(&meta));
    diag("meta_irm_epoch_ms as measured", &raw_epoch_samples(&meta));
    diag(
        "yardstick pass us",
        &light
            .iter()
            .flat_map(|f| f.pass_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    if w == Workload::ServeOnline {
        diag("bench.gen_late_us", &t.samples(|t| &t.late_us));
    }
    report.set("cpu_us_per_row", t.cpu_us_per_row());
    report.set("worst_env_auc", t.wauc);
    report.set("p50_ms", t.p50_ms(w));
    report.set("rows_per_s", t.rows_per_s(w));
    report.set("fit_s", median(fit_s));
    report.set("lightmirm_epoch_ms", median(&epoch_samples(&light)));
    report.set("meta_irm_epoch_ms", median(&epoch_samples(&meta)));
}

fn run(args: &Args) -> Result<Report, String> {
    let dir = out_root().join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Set-ups and timed stretches alternate, so that samples of every figure
/// — the set-up fits' included — spread over the whole run rather than
/// bunching at its start: the reference host's slow phases last seconds.
fn run_in(args: &Args, dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let tr = Tracer::new(args.trace);
    let stretch = Duration::from_secs_f64(args.seconds as f64 / SETUPS as f64);
    let mut st = SetupStats::default();
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut traced_engine: Option<ShardedEngine> = None;
    let mut kept: Option<Setup> = None;
    for k in 0..SETUPS {
        // Shut the previous engine down before timing the next set-up.
        drop(kept.take());
        let t0 = Instant::now();
        let s = setup(args, dir, &tr, k as u64)?;
        st.setup_s.push(t0.elapsed().as_secs_f64());
        st.fit_s.push(s.fitted.scaled_s());
        st.raw_fit_s.push(s.fitted.wall_s);
        st.heads.push(s.fitted.head.clone());
        tally.attempted += 1;
        if let Some(warm) = &s.warmup {
            tally.absorb(&warm.tally);
        }
        reference_round(&s, &mut st, &mut tally);
        if args.trace {
            let engine = match traced_engine {
                Some(ref e) => e,
                None => traced_engine.insert(warmed_traced_engine(args, &s, &mut tally)),
            };
            let (a, b) = alternate(args, &s, engine, dir, &tr, stretch);
            plain.push(a);
            traced.push(b);
        } else {
            plain.push(timed_phase(args, &s, None, dir, stretch, &tr));
        }
        reference_round(&s, &mut st, &mut tally);
        kept = Some(s);
    }
    let s = kept.expect("at least one set-up");
    let plain = Timed::pooled(plain);
    tally.absorb(&plain.tally);
    eprintln!(
        "perfbench: {} seed {}: set-up median {:.3}s, wAUC {:.6}, {} train / {} test rows",
        w.name(),
        args.seed,
        median(&st.setup_s),
        s.fitted.wauc,
        s.world.train.len(),
        s.world.test.len()
    );
    let mut report = Report::default();
    if let Some(traced_engine) = traced_engine {
        let traced = Timed::pooled(traced);
        tally.absorb(&traced.tally);
        report.set(
            "bench.trace_overhead_frac",
            primary(w, &traced) / primary(w, &plain) - 1.0,
        );
        per_layer(
            args,
            &s,
            dir,
            &tr,
            &st,
            (plain, traced),
            &traced_engine,
            &mut report,
            &mut tally,
        )?;
        let trace_dir = out_root().join("traces");
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
        let path = trace_dir.join(format!("{}-{}.jsonl", w.name(), args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
    } else {
        end_to_end(w, &plain, &st, &mut report);
        report.set("setup_s", median(&st.setup_s));
        report.set("peak_rss_mb", sys::peak_rss_mb());
    }
    for e in &tally.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    report.correct = tally.failed == 0;
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    Ok(report)
}

/// One Table III round on the set-up's `EnvDataset`, before and after
/// each timed stretch: no workload trains meta-IRM in its timed
/// stretches, and the serve workloads train LightMIRM only in their
/// set-ups, so the epoch figures sample ten more points of the run than
/// the set-ups alone give.
fn reference_round(s: &Setup, st: &mut SetupStats, tally: &mut Tally) {
    let (light, meta) =
        train::reference_round(&s.fitted.env, &cli_train_config(), REFERENCE_ROUND, tally);
    st.heads.push(light);
    st.metas.push(meta);
}

/// The traced run's traced engine, warmed as a set-up warms its untraced
/// one.
fn warmed_traced_engine(args: &Args, s: &Setup, tally: &mut Tally) -> ShardedEngine {
    let engine = ShardedEngine::new(&s.fitted.bundle, &engine_config(true));
    let single;
    let reqs = match &s.serving {
        Some(sv) => &sv.reqs,
        None => {
            single = encode_requests(&s.world.test, &pass_order(s.world.test.len(), args.seed), 1);
            &single
        }
    };
    let warm = drive(
        &engine,
        reqs,
        &s.fitted.test_scores,
        &args.workload.pacing(),
        WARMUP,
        args.seed,
        None,
        &Tracer::new(false),
    );
    tally.absorb(&warm.tally);
    engine
}

/// The workload's headline figure, lower is better: the one the cost of
/// observing is read on.
fn primary(w: Workload, t: &Timed) -> f64 {
    match w {
        Workload::ServeOnline => t.cpu_us_per_row(),
        Workload::ServeBulk => 1.0 / t.rows_per_s(w),
        Workload::TrainPipeline => median(&t.fit_s),
    }
}

/// A timed stretch of `length` as alternating untraced and traced pieces
/// — a [`TRACE_SLICE`] of traffic, or one fit or round — on equally
/// warmed engines, so host drift falls on both sides alike. Returns the
/// untraced and the traced side, each pooled.
fn alternate(
    args: &Args,
    s: &Setup,
    traced_engine: &ShardedEngine,
    dir: &Path,
    tr: &Tracer,
    length: Duration,
) -> (Timed, Timed) {
    let quiet = Tracer::new(false);
    let piece = if args.workload.serves() {
        TRACE_SLICE
    } else {
        Duration::ZERO
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed() < length || k < 2 {
        for on in [k % 2 == 1, k % 2 == 0] {
            if on {
                traced.push(timed_phase(args, s, Some(traced_engine), dir, piece, tr));
            } else {
                plain.push(timed_phase(args, s, None, dir, piece, &quiet));
            }
        }
        k += 1;
    }
    (Timed::pooled(plain), Timed::pooled(traced))
}

/// The traced run's per-layer figures: from its untraced and traced
/// stretches `(a, b)`, then the engine and inner-layer probes, all on the
/// workload's own inputs.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    s: &Setup,
    dir: &Path,
    tr: &Tracer,
    st: &SetupStats,
    (a, b): (Timed, Timed),
    traced_engine: &ShardedEngine,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(), String> {
    let w = args.workload;
    let order = pass_order(s.world.test.len(), args.seed);
    let single = encode_requests(&s.world.test, &order, 1);

    // Engine traffic: the workload's own traced stretches (serve), or an
    // open-loop probe of the workload's bundle at the serve-online rate
    // (train).
    let traffic = if w.serves() {
        b
    } else {
        let probe = drive(
            traced_engine,
            &single,
            &s.fitted.test_scores,
            &Pacing::Open { rate: ONLINE_RATE },
            ENGINE_PROBE,
            args.seed,
            None,
            tr,
        );
        tally.absorb(&probe.tally);
        Timed::pooled(vec![b, Timed::from_traffic(probe, &s.world.test)])
    };
    let layer = engine_layer(traced_engine);
    let stages = [
        "engine.stage.admission_us",
        "engine.stage.park_wake_us",
        "engine.stage.ring_us",
        "engine.stage.batch_us",
        "engine.stage.quarantine_us",
        "engine.stage.score_us",
        "engine.stage.reply_us",
    ];
    for (name, us) in stages.into_iter().zip(layer.stage_us) {
        report.set(name, us);
    }
    report.set("engine.batch_rows_mean", layer.batch_rows_mean);
    report.set("engine.parks_per_1k_req", layer.parks_per_1k_req);
    report.set("engine.wakeups_per_1k_req", layer.wakeups_per_1k_req);
    report.set(
        "engine.submit_us",
        median(&traffic.samples(|t| &t.submit_us)),
    );
    let lat = sorted(&traffic.samples(|t| &t.latency_ms));
    let p999 = quantile_sorted(&lat, 0.999);
    report.set("bench.p99_ms", quantile_sorted(&lat, 0.99));
    report.set("bench.p999_ms", p999);
    report.set(
        "bench.tail_samples",
        lat.iter().filter(|&&l| l > p999).count() as f64,
    );
    let late = sorted(&traffic.samples(|t| &t.late_us));
    report.set("bench.gen_late_p50_us", quantile_sorted(&late, 0.5));
    report.set("bench.gen_late_p99_us", quantile_sorted(&late, 0.99));

    // Backpressure probe: submitters park only when the queue is full,
    // which no workload's own traffic reaches.
    let parked_engine = ShardedEngine::new(&s.fitted.bundle, &engine_config(true));
    let bp = drive(
        &parked_engine,
        &encode_requests(&s.world.test, &order, BULK_ROWS),
        &s.fitted.test_scores,
        &Pacing::Closed {
            in_flight: BACKPRESSURE_IN_FLIGHT,
        },
        BACKPRESSURE,
        args.seed,
        None,
        tr,
    );
    tally.absorb(&bp.tally);
    report.set(
        "engine.stage.park_wake_us",
        engine_layer(&parked_engine).stage_us[1],
    );
    drop(parked_engine);

    // Hot reload of a byte-identical copy, three more times.
    let reload = reload_for(&dir.join("model.bundle"), dir, &s.world)?;
    let mut reload_ms = traffic.samples(|t| &t.reload_ms);
    for _ in 0..3 {
        let t0 = Instant::now();
        let outcome = ModelBundle::load_from_path(&reload.path)
            .map_err(|e| e.to_string())
            .and_then(|bundle| {
                tr.time("ShardedEngine::reload_all", 0, 0, |_| {
                    traced_engine.reload_all(&bundle, &reload.probe_features, &reload.probe_env_ids)
                })
                .map_err(|(i, e)| format!("shard {i}: {e}"))
            });
        reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tally.attempted += 1;
        if let Err(e) = outcome {
            tally.fail(format!("reload probe: {e}"));
        }
    }
    report.set("engine.reload_ms", median(&reload_ms));

    // Inner layers, on the workload's own data.
    let frames: &[Request] = s.serving.as_ref().map_or(&single, |sv| &sv.reqs);
    let batch = layer.batch_rows_mean.round() as usize;
    for (name, v) in layers::probe(&s.world, &s.fitted, batch, frames, tr) {
        report.set(name, v);
    }

    // Layers timed by spans around the workload's own calls.
    let span_median = |name: &str| median(&tr.durations_s(name));
    report.set("loansim.generate_s", span_median("loansim::generate"));
    report.set("gbdt.fit_s", span_median("FeatureExtractor::fit"));
    report.set(
        "pipeline.env_dataset_s",
        span_median("FeatureExtractor::to_env_dataset"),
    );
    report.set(
        "bundle.save_ms",
        span_median("ModelBundle::save_to_path") * 1e3,
    );
    report.set(
        "bundle.load_ms",
        span_median("ModelBundle::load_from_path") * 1e3,
    );
    report.set("bundle.bytes", s.fitted.bundle_bytes as f64);
    report.set(
        "metrics.evaluate_ms",
        span_median("FairnessSummary::compute") * 1e3,
    );

    // Trainers: Table III step times and §III-F op counts per epoch.
    let (light, meta) = head_fits(w, &Timed::pooled(vec![a, traffic]), st);
    let heads = [
        (
            &light,
            [
                "trainers.lightmirm.inner_ms",
                "trainers.lightmirm.meta_loss_ms",
                "trainers.lightmirm.backward_ms",
                "trainers.lightmirm.env_loss_ops_per_epoch",
                "trainers.lightmirm.hvp_ops_per_epoch",
            ],
        ),
        (
            &meta,
            [
                "trainers.meta_irm.inner_ms",
                "trainers.meta_irm.meta_loss_ms",
                "trainers.meta_irm.backward_ms",
                "trainers.meta_irm.env_loss_ops_per_epoch",
                "trainers.meta_irm.hvp_ops_per_epoch",
            ],
        ),
    ];
    for (fits, [inner, meta_loss, backward, env_ops, hvp_ops]) in heads {
        report.set(inner, step_ms(fits, Step::InnerOptimization));
        report.set(meta_loss, step_ms(fits, Step::MetaLoss));
        report.set(backward, step_ms(fits, Step::Backward));
        let f = &fits[0];
        let epochs = f.out.epochs_run as f64;
        report.set(env_ops, f.out.ops.total() as f64 / epochs);
        report.set(hvp_ops, f.out.ops.hvp as f64 / epochs);
    }
    report.set(
        "trainers.epoch_speedup",
        median(&epoch_samples(&meta)) / median(&epoch_samples(&light)),
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} CPUs, training on {TRAIN_THREADS} thread; world {} rows (seed {}); \
         engine 1 shard, {} workers",
        sys::nproc(),
        world::WORLD_ROWS,
        world::WORLD_SEED,
        lightmirm_serve::EngineConfig::default().workers
    );
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(TRAIN_THREADS)
        .build()
        .expect("the thread-count override always builds");
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match pool.install(|| run(&args)).and_then(|r| r.to_json(table)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
