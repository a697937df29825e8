//! Subcommand implementations, written as functions over parsed args so
//! unit tests drive them without spawning processes.

use std::path::{Path, PathBuf};

use lightmirm_core::bundle::DriftBaseline;
use lightmirm_core::obs;
use lightmirm_core::obs::{Journal, SloSpec, SloWindow, TailSampler, STAGE_NAMES};
use lightmirm_core::prelude::*;
use lightmirm_core::timing::Histogram;
use lightmirm_core::trainers::TrainConfig;
use lightmirm_metrics::{auc, ks, lift_table, psi, DriftLevel};
use lightmirm_serve::loadgen::{
    replay as replay_trace, synthesize_trace, TraceConfig, TracePattern,
};
use lightmirm_serve::{
    AdaptConfig, DriftReport, EngineConfig, EngineStats, FeedConfig, LabelFeed, MonitorConfig,
    PendingScores, Priority, PromotionController, ReloadError, ScoreError, ShardConfig,
    ShardedEngine, SubmitError, SubmitOptions,
};
use loansim::{generate, temporal_split, GeneratorConfig, LoanFrame, ProvinceCatalog, Schema};

use crate::args::{ArgError, ParsedArgs};

/// Top-level CLI errors.
#[derive(Debug)]
pub enum CliError {
    Args(ArgError),
    Io(std::io::Error),
    Data(String),
    UnknownCommand(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io: {e}"),
            CliError::Data(msg) => write!(f, "{msg}"),
            CliError::UnknownCommand(cmd) => write!(
                f,
                "unknown command {cmd:?}; expected generate | train | score | serve-replay | evaluate | audit | explain | stress-lab | ops-report"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Dispatch a parsed command line. `out` receives human-readable output
/// (stdout in production, a buffer in tests).
///
/// Every subcommand honors three observability flags: `--trace-out
/// p.jsonl` streams spans and events to a JSON-lines file for the
/// command's duration, `--metrics-out p` writes a final snapshot of the
/// global [`lightmirm_core::obs`] registry (Prometheus text, or JSON when
/// the path ends in `.json`), and `--profile-out p` aggregates the trace
/// ring into a span profile (JSON for `.json` paths, flamegraph-collapsed
/// text otherwise). Commands that run a scoring engine fold its `serve_*`
/// telemetry into the registry before the snapshot.
///
/// # Errors
///
/// Returns [`CliError`] for argument, IO, and data problems.
pub fn run(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let trace_sink = match args.optional("trace-out") {
        Some(path) => {
            let sink = obs::JsonLinesSink::create(Path::new(path))?;
            Some(obs::tracer().add_sink(std::sync::Arc::new(sink)))
        }
        None => None,
    };
    let result = dispatch(args, out);
    if let Some(id) = trace_sink {
        // Detaching flushes the sink's buffered lines.
        obs::tracer().remove_sink(id);
    }
    if result.is_ok() {
        if let Some(path) = args.optional("metrics-out") {
            obs::export::write_snapshot(Path::new(path), &obs::registry().snapshot())?;
        }
        if let Some(path) = args.optional("profile-out") {
            obs::Profile::from_ring().write(Path::new(path))?;
        }
    }
    result
}

fn dispatch(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    match args.command.as_str() {
        "generate" => cmd_generate(args, out),
        "train" => cmd_train(args, out),
        "score" => cmd_score(args, out),
        "serve-replay" => cmd_serve_replay(args, out),
        "evaluate" => cmd_evaluate(args, out),
        "audit" => cmd_audit(args, out),
        "explain" => cmd_explain(args, out),
        "stress-lab" => cmd_stress_lab(args, out),
        "ops-report" => cmd_ops_report(args, out),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn load_frame(path: &str) -> Result<LoanFrame, CliError> {
    let raw = std::fs::read(path)?;
    if path.ends_with(".csv") {
        loansim::from_csv(
            std::str::from_utf8(&raw).map_err(|e| CliError::Data(format!("{path}: {e}")))?,
        )
        .map_err(|e| CliError::Data(format!("{path}: {e}")))
    } else {
        LoanFrame::from_bytes(bytes::Bytes::from(raw))
            .map_err(|e| CliError::Data(format!("{path}: {e}")))
    }
}

fn save_frame(frame: &LoanFrame, path: &str) -> Result<(), CliError> {
    if path.ends_with(".csv") {
        std::fs::write(path, loansim::to_csv(frame, &Schema::standard()))?;
    } else {
        std::fs::write(path, frame.to_bytes())?;
    }
    Ok(())
}

fn load_bundle(path: &str) -> Result<ModelBundle, CliError> {
    ModelBundle::load_from_path(Path::new(path)).map_err(|e| match e {
        BundleError::Io(io) => CliError::Io(io),
        other => CliError::Data(format!("{path}: {other}")),
    })
}

/// `generate --out world.bin [--rows N] [--seed S]` — synthesize a world.
/// A `.csv` suffix writes CSV instead of the binary format.
fn cmd_generate(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let path = args.required("out")?;
    let rows = args.get_or("rows", 50_000usize)?;
    let seed = args.get_or("seed", 7u64)?;
    let frame = generate(&GeneratorConfig {
        rows,
        seed,
        ..Default::default()
    });
    save_frame(&frame, path)?;
    writeln!(
        out,
        "wrote {} rows x {} features to {path} (default rate {:.2}%)",
        frame.len(),
        frame.n_features(),
        frame.default_rate() * 100.0
    )?;
    Ok(())
}

fn parse_train_config(args: &ParsedArgs) -> Result<TrainConfig, ArgError> {
    Ok(TrainConfig {
        epochs: args.get_or("epochs", 60)?,
        inner_lr: args.get_or("inner-lr", 0.1)?,
        outer_lr: args.get_or("outer-lr", 0.3)?,
        lambda: args.get_or("lambda", 0.5)?,
        reg: args.get_or("reg", 1e-4)?,
        momentum: args.get_or("momentum", 0.0)?,
        seed: args.get_or("seed", 7)?,
    })
}

/// `train --data world.bin --out model.json [--method lightmirm|meta-irm|erm]
/// [--trees N] [--epochs N] [--mrq-len L] [--gamma G] [--batch-size B] …`
/// — fit the GBDT extractor on pre-2020 rows and the chosen LR head
/// (mini-batch SGD for ERM when `--batch-size` is set), and write a
/// bundle.
fn cmd_train(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let data_path = args.required("data")?;
    let model_path = args.required("out")?;
    let method = args.optional("method").unwrap_or("lightmirm").to_string();
    let trees = args.get_or("trees", 64usize)?;
    let frame = load_frame(data_path)?;
    let split = temporal_split(&frame, 2020);
    if split.train.is_empty() {
        return Err(CliError::Data("no pre-2020 training rows in data".into()));
    }

    let mut fe = FeatureExtractorConfig::default();
    fe.gbdt.n_trees = trees;
    let extractor = FeatureExtractor::fit(&split.train, &fe)
        .map_err(|e| CliError::Data(format!("GBDT: {e}")))?;
    let names = ProvinceCatalog::standard().names();
    let train = extractor
        .to_env_dataset(&split.train, names, None)
        .map_err(|e| CliError::Data(format!("transform: {e}")))?;

    let tc = parse_train_config(args)?;
    let output = match method.as_str() {
        "erm" => {
            let erm_tc = TrainConfig {
                outer_lr: args.get_or("outer-lr", 0.05)?,
                momentum: args.get_or("momentum", 0.9)?,
                ..tc.clone()
            };
            match args.get_or("batch-size", 0usize)? {
                0 => ErmTrainer::new(erm_tc).fit(&train, None),
                b => ErmTrainer::with_batch_size(erm_tc, b).fit(&train, None),
            }
        }
        "meta-irm" => MetaIrmTrainer::new(tc.clone()).fit(&train, None),
        "lightmirm" => {
            let mrq_len = args.get_or("mrq-len", 5usize)?;
            let gamma = args.get_or("gamma", 0.9f64)?;
            LightMirmTrainer::with_mrq(tc.clone(), mrq_len, gamma).fit(&train, None)
        }
        other => {
            return Err(CliError::Data(format!(
                "unknown method {other:?}; expected erm | meta-irm | lightmirm"
            )))
        }
    };

    let bundle = ModelBundle::new(
        extractor.gbdt().clone(),
        &output.model,
        BundleMetadata {
            trainer: method.clone(),
            seed: tc.seed,
            notes: format!(
                "trained on {} rows from {data_path}; {} env-loss ops",
                split.train.len(),
                output.ops.total()
            ),
        },
    )
    .map_err(|e| CliError::Data(e.to_string()))?;
    // Drift baseline for the serve-side sentinel: per-province quantile
    // sketches of the bundle's own training-row scores plus the
    // `--baseline-cols` highest-gain feature columns (0 disables).
    let baseline_cols = args.get_or("baseline-cols", 4usize)?;
    let nf = bundle.n_features();
    let mut feats = Vec::with_capacity(split.train.len() * nf);
    let mut envs = Vec::with_capacity(split.train.len());
    for r in 0..split.train.len() {
        feats.extend_from_slice(split.train.row(r));
        envs.push(split.train.province[r]);
    }
    let train_scores = bundle.score_batch(&feats, &envs);
    let columns =
        DriftBaseline::top_k_columns(extractor.gbdt().feature_importance(), baseline_cols);
    let baseline = DriftBaseline::capture(&train_scores, &envs, &feats, nf, &columns, 64);
    let n_baseline_envs = baseline.envs.len();
    let bundle = bundle.with_baseline(baseline);
    // Checksummed + atomic: a crash mid-write cannot leave a truncated
    // bundle where a scoring service would pick it up.
    bundle
        .save_to_path(Path::new(model_path))
        .map_err(|e| CliError::Data(format!("{model_path}: {e}")))?;
    writeln!(
        out,
        "trained {method} on {} rows ({} env-loss ops); bundle at {model_path}",
        split.train.len(),
        output.ops.total()
    )?;
    writeln!(
        out,
        "drift baseline: {n_baseline_envs} provinces, {} monitored columns",
        columns.len()
    )?;
    Ok(())
}

/// Parse the common engine flags (`--batch` / `--workers` /
/// `--deadline-ms` / `--shed-watermark` / `--max-attempts` /
/// `--priority`, plus `--shards` for commands that take it) into the
/// sharded front end's [`ShardConfig`] and per-request submit options.
/// `default_shards` is `None` for commands without a `--shards` flag;
/// they run one shard. A zero or out-of-range value is a data error
/// naming its flag.
fn engine_config_from_flags(
    args: &ParsedArgs,
    default_shards: Option<usize>,
) -> Result<(ShardConfig, SubmitOptions), CliError> {
    let defaults = EngineConfig::default();
    let max_batch = args.get_or("batch", defaults.max_batch)?;
    let workers = args.get_or("workers", defaults.workers)?;
    let shards = match default_shards {
        Some(default) => args.get_or("shards", default)?,
        None => 1,
    };
    let shed_watermark = args.get_or("shed-watermark", defaults.shed_watermark)?;
    let max_attempts = args.get_or("max-attempts", defaults.max_attempts)?;
    for (flag, value) in [
        ("batch", max_batch),
        ("workers", workers),
        ("shards", shards),
    ] {
        if value == 0 {
            return Err(CliError::Data(format!("--{flag} must be positive")));
        }
    }
    if !(shed_watermark > 0.0 && shed_watermark <= 1.0) {
        return Err(CliError::Data(format!(
            "--shed-watermark {shed_watermark} must be in (0, 1]"
        )));
    }
    if max_attempts == 0 {
        return Err(CliError::Data("--max-attempts must be positive".into()));
    }
    let deadline_ms = args.get_or("deadline-ms", 0u64)?;
    let priority = match args.optional("priority").unwrap_or("normal") {
        "low" => Priority::Low,
        "normal" => Priority::Normal,
        "high" => Priority::High,
        other => {
            return Err(CliError::Data(format!(
                "--priority {other:?} must be low | normal | high"
            )))
        }
    };
    let opts = SubmitOptions {
        deadline: (deadline_ms > 0).then(|| std::time::Duration::from_millis(deadline_ms)),
        priority,
        request_id: None,
    };
    // Request tracing turns on whenever any consumer of per-request
    // traces is requested; it is observation-only (scores stay
    // bit-identical) and costs one Option check per request when off.
    let trace_requests = args.optional("trace-requests-out").is_some()
        || args.optional("journal-out").is_some()
        || args.optional("slo").is_some()
        || args.command == "ops-report";
    let engine = EngineConfig {
        max_batch,
        workers,
        shed_watermark,
        max_attempts,
        trace_requests,
        tail_samples: args.get_or("tail-samples", defaults.tail_samples)?,
        queue_capacity: defaults.queue_capacity.max(max_batch),
        // Arm the drift sentinel; it stays dormant for bundles
        // without a train-time baseline. Observation-only, so
        // scores are unaffected either way.
        monitor: Some(MonitorConfig::default()),
        ..defaults
    };
    let cfg = ShardConfig { shards, engine };
    Ok((cfg, opts))
}

/// Build the sharded front end, the one engine every serving command
/// drives, from the common engine flags (see
/// [`engine_config_from_flags`]).
fn sharded_from_flags(
    args: &ParsedArgs,
    bundle: &ModelBundle,
    default_shards: Option<usize>,
) -> Result<(ShardedEngine, SubmitOptions), CliError> {
    let (cfg, opts) = engine_config_from_flags(args, default_shards)?;
    Ok((ShardedEngine::new(bundle, &cfg), opts))
}

/// What a serving command writes depends on its shard count only here.
/// One shard keeps the historical single-engine shapes: an `engine`
/// stats object, a top-level `{"envs": …}` drift report,
/// `--adapt-out`/`--adapt-log` paths without a suffix, `engine:` and
/// `adaptation:` console lines, and the plain reload messages. Several
/// shards report per shard: `shards` plus `shard_engines`, a
/// `{"shards": […]}` drift report, `.shard<i>` path suffixes, and
/// `shard i` labels.
#[derive(Debug, Clone, Copy)]
struct OutputShape {
    shards: usize,
}

impl OutputShape {
    fn of(sharded: &ShardedEngine) -> Self {
        OutputShape {
            shards: sharded.shards(),
        }
    }

    fn single(self) -> bool {
        self.shards == 1
    }

    /// Console label of shard `i`'s engine summary.
    fn engine_label(self, i: usize) -> String {
        if self.single() {
            "engine".into()
        } else {
            format!("shard {i}")
        }
    }

    /// Infix of shard `i`'s `adaptation…:` console line.
    fn adapt_label(self, i: usize) -> String {
        if self.single() {
            String::new()
        } else {
            format!(" (shard {i})")
        }
    }

    /// Shard `i`'s copy of a per-shard output path, so shards never
    /// clobber each other's files.
    fn shard_path(self, path: &Path, i: usize) -> PathBuf {
        if self.single() {
            path.to_path_buf()
        } else {
            path.with_extension(format!("shard{i}"))
        }
    }

    /// Per-shard JSON blocks as one value: the lone block, or an array.
    fn per_shard(self, mut blocks: Vec<serde_json::Value>) -> serde_json::Value {
        if self.single() {
            blocks.pop().expect("one block per shard")
        } else {
            serde_json::Value::Array(blocks)
        }
    }

    /// The replay report's engine-stats fields.
    fn stats_fields(self, stats: &[EngineStats]) -> Vec<(&'static str, serde_json::Value)> {
        if self.single() {
            vec![("engine", serde_json::json!(&stats[0]))]
        } else {
            vec![
                ("shards", serde_json::json!(self.shards)),
                ("shard_engines", serde_json::json!(stats)),
            ]
        }
    }

    /// The console line for a mid-stream reload's outcome.
    fn reload_message(self, path: &str, outcome: Result<(), (usize, ReloadError)>) -> String {
        match outcome {
            Ok(()) if self.single() => format!("hot-reloaded bundle from {path}"),
            Ok(()) => format!(
                "hot-reloaded bundle from {path} on all {} shards",
                self.shards
            ),
            Err((_, e)) if self.single() => {
                format!("reload of {path} rejected ({e}); incumbent keeps serving")
            }
            Err((i, e)) => format!(
                "reload of {path} rejected by shard {i} ({e}); shards {i}.. keep their incumbent"
            ),
        }
    }

    /// The `--drift-out` file body and its console line, from each
    /// shard's report (`None` where the bundle carries no baseline).
    fn drift_report(self, reports: &[Option<DriftReport>], path: &str) -> (String, String) {
        if self.single() {
            return match &reports[0] {
                Some(report) => (
                    serde_json::to_string_pretty(report).expect("drift report serializes"),
                    format!("drift report ({} provinces) at {path}", report.envs.len()),
                ),
                None => (
                    "{\"envs\":[]}\n".into(),
                    format!("bundle carries no drift baseline; empty drift report at {path}"),
                ),
            };
        }
        let reports: Vec<serde_json::Value> = reports
            .iter()
            .map(|report| match report {
                Some(report) => serde_json::to_value(report),
                None => serde_json::json!({ "envs": Vec::<serde_json::Value>::new() }),
            })
            .collect();
        (
            serde_json::to_string_pretty(&serde_json::json!({ "shards": reports }))
                .expect("drift report serializes"),
            format!("per-shard drift report ({} shards) at {path}", self.shards),
        )
    }
}

/// Honor `--drift-out p.json`: force a final PSI check on every shard's
/// sentinel with enough window samples and write the per-environment
/// reports (score drift plus per-signal breakdown) as JSON. Each shard
/// reports only the slice routed to it.
fn write_drift_report(
    args: &ParsedArgs,
    sharded: &ShardedEngine,
    out: &mut dyn std::io::Write,
) -> Result<(), CliError> {
    let Some(path) = args.optional("drift-out") else {
        return Ok(());
    };
    let reports: Vec<Option<DriftReport>> = (0..sharded.shards())
        .map(|i| {
            sharded.shard(i).drift_monitor().map(|monitor| {
                monitor.check_now();
                monitor.drift_report()
            })
        })
        .collect();
    let (text, message) = OutputShape::of(sharded).drift_report(&reports, path);
    std::fs::write(Path::new(path), text)?;
    writeln!(out, "{message}")?;
    Ok(())
}

/// Fold every shard's `serve_*` telemetry into the global registry, so a
/// trailing `--metrics-out` snapshot carries it, honor `--drift-out`,
/// then drain the front end and return its per-shard stats.
fn drain_engine(
    args: &ParsedArgs,
    sharded: ShardedEngine,
    out: &mut dyn std::io::Write,
) -> Result<Vec<EngineStats>, CliError> {
    for i in 0..sharded.shards() {
        obs::registry().merge_snapshot(&sharded.shard(i).metrics_snapshot());
    }
    write_drift_report(args, &sharded, out)?;
    Ok(sharded.shutdown())
}

/// Slice one `n`-row request starting at `r` out of `frame`.
fn chunk_rows(frame: &LoanFrame, nf: usize, r: usize, n: usize) -> (Vec<f32>, Vec<u16>) {
    let mut features = Vec::with_capacity(n * nf);
    let mut env_ids = Vec::with_capacity(n);
    for k in r..r + n {
        features.extend_from_slice(frame.row(k));
        env_ids.push(frame.province[k]);
    }
    (features, env_ids)
}

/// Route the `n`-row chunk at row `r` through the front end by its first
/// row's province. A [`SubmitError::Shed`] low-priority chunk is
/// resubmitted at [`Priority::Normal`]: the replay must deliver every
/// row, and the engine's shed counter still records the pressure.
/// Returns the shard that accepted the chunk alongside the pending
/// scores.
fn submit_chunk(
    sharded: &ShardedEngine,
    frame: &LoanFrame,
    nf: usize,
    r: usize,
    n: usize,
    opts: SubmitOptions,
) -> Result<(usize, PendingScores), CliError> {
    let key = frame.province[r];
    let (features, env_ids) = chunk_rows(frame, nf, r, n);
    let submitted = match sharded.submit(key, features, env_ids, opts) {
        Err(SubmitError::Shed) => {
            let (features, env_ids) = chunk_rows(frame, nf, r, n);
            let normal = SubmitOptions {
                priority: Priority::Normal,
                ..opts
            };
            sharded.submit(key, features, env_ids, normal)
        }
        other => other,
    };
    submitted.map_err(|e| CliError::Data(format!("submit of rows {r}..{}: {e}", r + n)))
}

/// Wait for the scores of the `n`-row chunk at row `r`. A chunk whose
/// deadline lapsed while queued ([`ScoreError::DeadlineExceeded`]) is
/// rescored without one, so the output stays complete; hard failures
/// (poisoning, quarantine, engine death) surface as [`CliError::Data`]
/// instead of panicking.
fn wait_chunk(
    sharded: &ShardedEngine,
    frame: &LoanFrame,
    nf: usize,
    r: usize,
    n: usize,
    pending: PendingScores,
) -> Result<Vec<f64>, CliError> {
    match pending.wait() {
        Ok(got) => Ok(got),
        Err(ScoreError::DeadlineExceeded) => {
            let patient = SubmitOptions {
                deadline: None,
                priority: Priority::Normal,
                request_id: None,
            };
            let (_, retry) = submit_chunk(sharded, frame, nf, r, n, patient)?;
            retry
                .wait()
                .map_err(|e| CliError::Data(format!("deadline retry of row {r}: {e}")))
        }
        Err(e) => Err(CliError::Data(format!("request at row {r}: {e}"))),
    }
}

/// Push `frame` through the front end as requests of `chunk` rows and
/// return the scores in row order. Chunks are pre-submitted for
/// pipelining; blocking submits provide the backpressure, so the whole
/// frame never sits in memory twice. Every shard serves the same
/// bundle, so the scores are bit-identical for any shard count.
fn score_through(
    sharded: &ShardedEngine,
    frame: &LoanFrame,
    chunk: usize,
    opts: SubmitOptions,
) -> Result<Vec<f64>, CliError> {
    let nf = sharded.shard(0).bundle().n_features();
    let chunk = chunk.max(1).min(sharded.shard(0).config().queue_capacity);
    let mut pending = Vec::with_capacity(frame.len().div_ceil(chunk));
    let mut r = 0usize;
    while r < frame.len() {
        let n = chunk.min(frame.len() - r);
        let (_, p) = submit_chunk(sharded, frame, nf, r, n, opts)?;
        pending.push((r, n, p));
        r += n;
    }
    let mut scores = Vec::with_capacity(frame.len());
    for (start, n, p) in pending {
        scores.extend(wait_chunk(sharded, frame, nf, start, n, p)?);
    }
    Ok(scores)
}

/// Parse the `--adapt` knobs into the controller and label-feed
/// configurations plus the controller step cadence in chunks.
fn parse_adapt_flags(args: &ParsedArgs) -> Result<(AdaptConfig, FeedConfig, usize), CliError> {
    let d = AdaptConfig::default();
    let cfg = AdaptConfig {
        min_rows: args.get_or("adapt-min-rows", d.min_rows)?,
        train: TrainConfig {
            epochs: args.get_or("adapt-epochs", d.train.epochs)?,
            seed: args.get_or("seed", d.train.seed)?,
            ..d.train.clone()
        },
        guard_min_auc_gain: args.get_or("adapt-guard", d.guard_min_auc_gain)?,
        cooldown_steps: args.get_or("adapt-cooldown", d.cooldown_steps)?,
        save_path: args.optional("adapt-out").map(PathBuf::from),
        ..d
    };
    let fd = FeedConfig::default();
    let feed_cfg = FeedConfig {
        max_rows_per_env: args.get_or("feed-rows", fd.max_rows_per_env)?,
        max_bytes: args.get_or("feed-bytes", fd.max_bytes)?,
    };
    let step_every = args.get_or("adapt-every", 1usize)?.max(1);
    Ok((cfg, feed_cfg, step_every))
}

/// The `--adapt` serving loop: score the stream chunk by chunk, feed each
/// answered chunk's now-observed labels into its shard's [`LabelFeed`],
/// and step that shard's [`PromotionController`] every `--adapt-every`
/// chunks — so a Major drift escalation mid-stream can trigger a warm
/// retrain, probe + canary validation, and hot promotion (or rollback)
/// while the replay is still running. Unlike [`score_through`], the
/// stream cannot be pre-submitted: adaptation reacts to labels that only
/// "arrive" once a chunk has been served. Every shard owns its feed and
/// controller, fed only by the chunks it served, so a drift on one
/// shard's traffic retrains and promotes on that shard alone; with
/// `--adapt-out p`, each controller persists its promoted bundle to its
/// [`OutputShape::shard_path`] of `p`.
fn serve_adaptively(
    args: &ParsedArgs,
    sharded: &ShardedEngine,
    stream: &LoanFrame,
    chunk: usize,
    opts: SubmitOptions,
) -> Result<(Vec<f64>, Vec<PromotionController>), CliError> {
    let (cfg, feed_cfg, step_every) = parse_adapt_flags(args)?;
    let shape = OutputShape::of(sharded);
    let nf = sharded.shard(0).bundle().n_features();
    let feeds: Vec<LabelFeed> = (0..shape.shards)
        .map(|_| LabelFeed::new(nf, feed_cfg.clone()))
        .collect();
    let mut controllers: Vec<PromotionController> = (0..shape.shards)
        .map(|i| {
            let cfg = AdaptConfig {
                save_path: cfg.save_path.as_deref().map(|p| shape.shard_path(p, i)),
                ..cfg.clone()
            };
            PromotionController::new(sharded.shard(i).bundle(), cfg)
        })
        .collect();

    let chunk = chunk.max(1).min(sharded.shard(0).config().queue_capacity);
    let mut scores = Vec::with_capacity(stream.len());
    let mut r = 0usize;
    let mut chunks = 0usize;
    while r < stream.len() {
        let n = chunk.min(stream.len() - r);
        let (shard, p) = submit_chunk(sharded, stream, nf, r, n, opts)?;
        scores.extend(wait_chunk(sharded, stream, nf, r, n, p)?);
        for k in r..r + n {
            feeds[shard].push(stream.province[k], stream.row(k), stream.label[k]);
        }
        chunks += 1;
        if chunks.is_multiple_of(step_every) {
            controllers[shard].step(sharded.shard(shard), &feeds[shard]);
        }
        r += n;
    }
    Ok((scores, controllers))
}

/// Write one controller's adaptation summary (optional event log,
/// human-readable line) and return its JSON block. `label` is the
/// [`OutputShape::adapt_label`] of the controller's shard.
fn adapt_summary(
    controller: &PromotionController,
    label: &str,
    log_path: Option<&Path>,
    out: &mut dyn std::io::Write,
) -> Result<serde_json::Value, CliError> {
    if let Some(path) = log_path {
        controller.write_event_log(path)?;
        writeln!(
            out,
            "adaptation event log ({} events) at {}",
            controller.events().len(),
            path.display()
        )?;
    }
    let count = |stage: &str| {
        controller
            .events()
            .iter()
            .filter(|e| e.stage == stage)
            .count()
    };
    let (promotions, rollbacks) = (count("promote"), count("rollback"));
    writeln!(
        out,
        "adaptation{label}: {} steps, generation {}, {promotions} promotion(s), \
         {rollbacks} rollback(s)",
        controller.steps(),
        controller.generation()
    )?;
    Ok(serde_json::json!({
        "steps": controller.steps(),
        "generation": controller.generation(),
        "promotions": promotions,
        "rollbacks": rollbacks,
        "events": controller.events().len(),
    }))
}

/// One summary line per shard, labeled by [`OutputShape::engine_label`].
fn write_engine_summary(
    out: &mut dyn std::io::Write,
    shape: OutputShape,
    stats: &[EngineStats],
) -> std::io::Result<()> {
    for (i, stats) in stats.iter().enumerate() {
        writeln!(
            out,
            "{}: {} requests, mean batch {:.1} rows, latency p50 {:.1}us p99 {:.1}us \
             (enqueue-to-reply p50 {:.1}us p99 {:.1}us, score p50 {:.1}us/batch)",
            shape.engine_label(i),
            stats.requests,
            stats.batch_rows_mean,
            stats.latency_p50_ns as f64 / 1_000.0,
            stats.latency_p99_ns as f64 / 1_000.0,
            stats.enqueue_to_reply_p50_ns as f64 / 1_000.0,
            stats.enqueue_to_reply_p99_ns as f64 / 1_000.0,
            stats.score_p50_ns as f64 / 1_000.0
        )?;
    }
    Ok(())
}

/// `score --model model.json --data world.bin --out scores.csv
/// [--batch 256] [--workers 2] [--deadline-ms D] [--shed-watermark W]
/// [--priority low|normal|high] [--metrics-out M] [--trace-out T]
/// [--drift-out D]` — batch scoring through the micro-batched engine
/// (the sharded front end with one shard). Scores are bit-identical for
/// any `--batch`/`--workers` choice; `--drift-out` writes the drift
/// sentinel's final per-province PSI report as JSON.
fn cmd_score(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let bundle = load_bundle(args.required("model")?)?;
    let frame = load_frame(args.required("data")?)?;
    let out_path = args.required("out")?;
    let (sharded, opts) = sharded_from_flags(args, &bundle, None)?;
    let shape = OutputShape::of(&sharded);
    let scores = score_through(&sharded, &frame, sharded.shard(0).config().max_batch, opts)?;
    let stats = drain_engine(args, sharded, out)?;
    let mut text = String::from("row,province,score\n");
    for (r, score) in scores.iter().enumerate() {
        text.push_str(&format!("{r},{},{score:.6}\n", frame.province[r]));
    }
    std::fs::write(Path::new(out_path), text)?;
    writeln!(out, "scored {} rows into {out_path}", frame.len())?;
    write_engine_summary(out, shape, &stats)?;
    Ok(())
}

/// `serve-replay --model model.json --data world.bin --out replay.json
/// [--batch 256] [--workers 2] [--chunk 1] [--grid 40] [--shards 1]
/// [--deadline-ms D] [--shed-watermark W] [--reload-model new.json]
/// [--drift-out D]` —
/// the Fig. 5 online companion sweep with the companion scored live
/// through the serving engine: the held-out 2020 stream arrives as
/// `--chunk`-row requests, the incumbent (the raw GBDT scorer) approves
/// below the 70th percentile of its own scores, and the companion's veto
/// threshold is swept over a `--grid`-point curve. With `--reload-model`
/// the engine hot-reloads that bundle halfway through the stream after
/// probe validation; a corrupt or invalid candidate is rejected and the
/// incumbent keeps serving.
///
/// With `--adapt` the supervised adaptation loop runs alongside the
/// replay: each served chunk's labels feed a bounded per-province
/// [`LabelFeed`], and a [`PromotionController`] steps once per chunk —
/// Major drift triggers a warm-started LightMIRM retrain of the LR head
/// (leaf transform frozen), validated through the probe-batch reload
/// path and an AUC canary guard before promotion, with automatic
/// rollback to the pristine champion otherwise. Knobs:
/// `--adapt-min-rows N` (labeled rows required before retraining),
/// `--adapt-epochs E`, `--adapt-guard G` (minimum challenger AUC gain),
/// `--adapt-cooldown S`, `--adapt-every K` (controller step cadence in
/// chunks), `--feed-rows R` / `--feed-bytes B` (buffer caps),
/// `--adapt-out path` (persist the promoted bundle + lineage), and
/// `--adapt-log path` (transition event JSONL). Mutually exclusive with
/// `--reload-model`. `--journal-out path` additionally absorbs the
/// transition log into the unified ops journal as `adapt_event`
/// records (see `obs::journal`).
///
/// The stream runs through the sharded front end with `--shards N`
/// shards (default 1): chunks route by province, `--reload-model`
/// pushes to every shard, and `--adapt` runs one controller per shard
/// (see [`serve_adaptively`]). Scores are bit-identical for any shard
/// count; [`OutputShape`] decides how the report reads at one shard
/// versus several. `--loadgen-trace PATTERN` switches to synthetic trace
/// replay entirely (see [`cmd_loadgen_replay`]).
fn cmd_serve_replay(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    // `--loadgen-trace` switches to synthetic-trace replay: no `--data`
    // stream, no Fig. 5 curve — throughput and tail latency instead.
    if args.optional("loadgen-trace").is_some() {
        return cmd_loadgen_replay(args, out);
    }
    let bundle = load_bundle(args.required("model")?)?;
    let frame = load_frame(args.required("data")?)?;
    let out_path = args.required("out")?;
    let chunk = args.get_or("chunk", 1usize)?;
    let grid_points = args.get_or("grid", 40usize)?.max(1);

    let stream_rows = frame.filter_rows(|y, _, _| y == 2020);
    if stream_rows.is_empty() {
        return Err(CliError::Data("no 2020 rows to replay".into()));
    }
    let stream = frame.select(&stream_rows);

    // The incumbent: the platform's existing scorer, stood in by the raw
    // GBDT extractor, approving below the 70th percentile of its scores.
    let incumbent = bundle
        .extractor
        .predict_proba_batch(stream.feature_matrix());
    let mut sorted = incumbent.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let incumbent_threshold = sorted[(sorted.len() as f64 * 0.70) as usize];

    let adapt = args.switch("adapt");
    let reload_model = args.optional("reload-model");
    if adapt && reload_model.is_some() {
        return Err(CliError::Data(
            "--adapt and --reload-model are mutually exclusive".into(),
        ));
    }

    // The companion: the bundle served live through the sharded front
    // end, chunks routed by their first row's province.
    let (sharded, opts) = sharded_from_flags(args, &bundle, Some(1))?;
    let shape = OutputShape::of(&sharded);
    let (companion, controllers) = if adapt {
        serve_adaptively(args, &sharded, &stream, chunk, opts)?
    } else if let Some(reload_path) = reload_model {
        // Serve the first half, hot-reload every shard mid-stream, serve
        // the rest.
        let half = stream.len() / 2;
        let first: Vec<usize> = (0..half).collect();
        let rest: Vec<usize> = (half..stream.len()).collect();
        let mut scores = score_through(&sharded, &stream.select(&first), chunk, opts)?;
        let probe_features = stream.row(0).to_vec();
        let probe_envs = vec![stream.province[0]];
        let message = match ModelBundle::load_from_path(Path::new(reload_path)) {
            Ok(candidate) => shape.reload_message(
                reload_path,
                sharded.reload_all(&candidate, &probe_features, &probe_envs),
            ),
            Err(e) => format!("reload of {reload_path} refused ({e}); incumbent keeps serving"),
        };
        writeln!(out, "{message}")?;
        scores.extend(score_through(&sharded, &stream.select(&rest), chunk, opts)?);
        (scores, Vec::new())
    } else {
        (score_through(&sharded, &stream, chunk, opts)?, Vec::new())
    };
    let stats = drain_engine(args, sharded, out)?;
    let adapt_log = args.optional("adapt-log").map(Path::new);
    let mut adapt_blocks = Vec::with_capacity(controllers.len());
    for (i, controller) in controllers.iter().enumerate() {
        let log = adapt_log.map(|p| shape.shard_path(p, i));
        adapt_blocks.push(adapt_summary(
            controller,
            &shape.adapt_label(i),
            log.as_deref(),
            out,
        )?);
    }

    // `--journal-out` on the stream path: absorb the adaptation
    // transition log (and fired failpoints) into the unified ops
    // journal, one `adapt_event` record per transition per shard —
    // the same schema `ops-report` and the loadgen path speak.
    if let Some(path) = args.optional("journal-out") {
        let mut journal = Journal::new();
        journal
            .record("journal_meta")
            .field("command", "serve-replay")
            .field("source", "stream")
            .field("rows", stream.len() as u64)
            .field("shards", shape.shards as u64)
            .field("adapt", adapt);
        for (i, controller) in controllers.iter().enumerate() {
            controller.journal_events(&mut journal, i as u32);
        }
        let fired = lightmirm_core::failpoint::fired_log();
        journal
            .record("failpoints")
            .obs("fired", fired.len() as u64)
            .obs("sites", &fired);
        journal.write(Path::new(path))?;
        writeln!(
            out,
            "ops journal ({} records) written to {path}",
            journal.records().len()
        )?;
    }

    let grid: Vec<f64> = (0..=grid_points)
        .map(|i| i as f64 / grid_points as f64)
        .collect();
    let replayed = replay(
        &incumbent,
        &companion,
        &stream.label,
        incumbent_threshold,
        &grid,
    )
    .map_err(|e| CliError::Data(e.to_string()))?;

    let mut report = serde_json::json!({
        "rows": stream.len(),
        "incumbent_threshold": incumbent_threshold,
        "incumbent_bad_debt": replayed.incumbent_bad_debt,
        "curve": replayed.curve,
    });
    if let serde_json::Value::Object(map) = &mut report {
        for (key, value) in shape.stats_fields(&stats) {
            map.insert(key.into(), value);
        }
        // Only present under `--adapt`, keeping the default report unchanged.
        if adapt {
            map.insert("adapt".into(), shape.per_shard(adapt_blocks));
        }
    }
    std::fs::write(
        Path::new(out_path),
        serde_json::to_string_pretty(&report).expect("replay output serializes"),
    )?;

    writeln!(
        out,
        "served {} rows in {}-row requests; incumbent bad debt {:.2}%",
        stream.len(),
        chunk.max(1),
        replayed.incumbent_bad_debt * 100.0
    )?;
    let best = replayed
        .curve
        .iter()
        .min_by(|a, b| a.bad_debt_rate.total_cmp(&b.bad_debt_rate))
        .expect("nonempty grid");
    writeln!(
        out,
        "best companion point: tau={:.3} bad debt {:.2}% (FPR {:.1}%, veto {:.1}%)",
        best.threshold,
        best.bad_debt_rate * 100.0,
        best.false_positive_rate * 100.0,
        best.veto_rate * 100.0
    )?;
    write_engine_summary(out, shape, &stats)?;
    writeln!(out, "curve written to {out_path}")?;
    Ok(())
}

/// Everything one synthetic-trace replay produced, shared by
/// `serve-replay --loadgen-trace` and the live `ops-report` path.
struct LoadgenRun {
    pattern: TracePattern,
    seed: u64,
    shards: usize,
    submitters: usize,
    events: usize,
    rows: u64,
    retried_sheds: u64,
    secs: f64,
    rows_per_sec: f64,
    digest: u64,
    p99_us: f64,
    p999_us: f64,
    stats: Vec<EngineStats>,
    sampler: TailSampler,
    journal: Journal,
}

/// Run the synthetic-trace replay and assemble the ops journal: one
/// causally-ordered record stream covering the replay summary, the
/// per-stage latency decomposition, per-shard engine stats and liveness,
/// drift state, fired failpoints, sampled tail traces, and (with
/// `--slo`) burn-rate verdicts. Record kinds and `fields` are pure
/// functions of the configuration — every measured value lives in `obs`
/// so normalized journals diff clean across thread counts.
fn run_loadgen_replay(args: &ParsedArgs) -> Result<LoadgenRun, CliError> {
    let pattern_name = args.required("loadgen-trace")?;
    let pattern = TracePattern::parse(pattern_name).ok_or_else(|| {
        CliError::Data(format!(
            "--loadgen-trace {pattern_name:?} must be diurnal | flash-crowd | \
             mixed-priority | skewed"
        ))
    })?;
    let bundle = load_bundle(args.required("model")?)?;
    let submitters = args.get_or("submitters", 2usize)?.max(1);
    let envs = ProvinceCatalog::standard().names().len() as u16;
    let mut tc = TraceConfig::quick(pattern, bundle.n_features() as u32, envs);
    tc.events = args.get_or("loadgen-events", tc.events)?;
    tc.seed = args.get_or("loadgen-seed", tc.seed)?;
    let slo_spec = args
        .optional("slo")
        .map(|s| SloSpec::parse(s).map_err(CliError::Data))
        .transpose()?;
    let trace = synthesize_trace(&tc);

    let (sharded, _) = sharded_from_flags(args, &bundle, Some(4))?;
    let shards = sharded.shards();
    let outcome = replay_trace(&sharded, trace, submitters)
        .map_err(|e| CliError::Data(format!("trace replay: {e}")))?;
    let tail = sharded.merged_enqueue_to_reply();
    let p99_us = tail.quantile(0.99) as f64 / 1_000.0;
    let p999_us = tail.quantile(0.999) as f64 / 1_000.0;
    let sampler = sharded.tail_sampler();
    let stage_hists = sharded.stage_histograms();
    // Liveness and drift are read before shutdown tears the shards down.
    let liveness: Vec<(usize, u64, u64, u64)> = (0..shards)
        .map(|i| {
            let e = sharded.shard(i);
            let (s, w, k) = e.park_wake_counts();
            (e.ring_occupancy(), s, w, k)
        })
        .collect();
    let drift: Vec<Option<_>> = (0..shards)
        .map(|i| {
            sharded.shard(i).drift_monitor().map(|m| {
                m.check_now();
                m.drift_report()
            })
        })
        .collect();
    let stats = sharded.shutdown();
    let digest = outcome.score_digest();

    let mut journal = Journal::new();
    journal
        .record("journal_meta")
        .field("command", "serve-replay")
        .field("pattern", pattern.name())
        .field("seed", tc.seed)
        .field("events", tc.events as u64)
        .field("shards", shards as u64)
        .field("submitters", submitters as u64)
        .field("tail_k", sampler.k() as u64)
        .field("slo", args.optional("slo").unwrap_or(""));
    journal
        .record("replay_summary")
        // Events and rows are pure functions of the trace config (every
        // event is answered, shed-or-not), as is the score digest.
        .field("events", outcome.events as u64)
        .field("rows", outcome.rows)
        .field("score_digest", format!("{digest:016x}"))
        .obs("secs", outcome.elapsed.as_secs_f64())
        .obs("rows_per_sec", outcome.rows_per_sec())
        .obs("retried_sheds", outcome.retried_sheds)
        .obs("enqueue_to_reply_p99_us", p99_us)
        .obs("enqueue_to_reply_p999_us", p999_us);
    for (i, (name, h)) in STAGE_NAMES.iter().zip(&stage_hists).enumerate() {
        journal
            .record("stage_summary")
            .field("stage", *name)
            .field("index", i as u64)
            .obs("count", h.count())
            .obs("p50_ns", h.quantile(0.5))
            .obs("p99_ns", h.quantile(0.99))
            .obs("p999_ns", h.quantile(0.999))
            .obs("max_ns", h.max());
    }
    for (i, s) in stats.iter().enumerate() {
        let (occ, subp, wp, wk) = liveness[i];
        journal
            .record("shard_stats")
            .field("shard", i as u64)
            .obs("requests", s.requests)
            .obs("rows_scored", s.rows_scored)
            .obs("shed_low_priority", s.shed_low_priority)
            .obs("expired", s.expired)
            .obs("worker_panics", s.worker_panics)
            .obs("poisoned_requests", s.poisoned_requests)
            .obs(
                "enqueue_to_reply_p99_us",
                s.enqueue_to_reply_p99_ns as f64 / 1_000.0,
            )
            .obs("ring_occupancy", occ as u64)
            .obs("submitter_parks", subp)
            .obs("worker_parks", wp)
            .obs("wakeups", wk);
    }
    for (i, report) in drift.iter().enumerate() {
        let rec = journal.record("drift_state");
        rec.field("shard", i as u64)
            .field("armed", report.is_some());
        if let Some(r) = report {
            let count = |lvl: DriftLevel| r.envs.iter().filter(|e| e.level() == lvl).count() as u64;
            rec.obs("envs", r.envs.len() as u64)
                .obs("stable", count(DriftLevel::Stable))
                .obs("moderate", count(DriftLevel::Moderate))
                .obs("major", count(DriftLevel::Major));
        }
    }
    // Fired failpoints fold into ONE always-emitted record (which sites
    // fire can be timing-dependent, so the list itself is `obs`).
    let fired = lightmirm_core::failpoint::fired_log();
    journal
        .record("failpoints")
        .obs("fired", fired.len() as u64)
        .obs("sites", &fired);
    for (rank, t) in sampler.traces().iter().enumerate() {
        let rec = journal.record("tail_trace");
        // Which requests are slowest is measured, so only the rank is a
        // field; the identity and decomposition are observations.
        rec.field("rank", rank as u64);
        rec.obs("request_id", format!("{:016x}", t.request_id))
            .obs("shard", u64::from(t.shard))
            .obs(
                "enqueue_to_reply_us",
                t.enqueue_to_reply_ns as f64 / 1_000.0,
            );
        for (name, &ns) in STAGE_NAMES.iter().zip(&t.stages_ns) {
            rec.obs(&format!("{name}_ns"), ns);
        }
    }
    if let Some(spec) = &slo_spec {
        let mut tail_lat = Histogram::new();
        for t in sampler.traces() {
            tail_lat.record(t.enqueue_to_reply_ns);
        }
        let errors: u64 = stats.iter().map(|s| s.expired + s.poisoned_requests).sum();
        let total: u64 = stats.iter().map(|s| s.requests).sum();
        let windows = [
            SloWindow {
                name: "run".into(),
                scope: "all".into(),
                latency_ns: &tail,
                total,
                errors,
            },
            SloWindow {
                name: "tail".into(),
                scope: "all".into(),
                latency_ns: &tail_lat,
                total: tail_lat.count(),
                errors: 0,
            },
        ];
        let entries = obs::slo::evaluate(spec, &windows);
        obs::slo::record_into(&mut journal, &entries);
    }

    Ok(LoadgenRun {
        pattern,
        seed: tc.seed,
        shards,
        submitters,
        events: outcome.events,
        rows: outcome.rows,
        retried_sheds: outcome.retried_sheds,
        secs: outcome.elapsed.as_secs_f64(),
        rows_per_sec: outcome.rows_per_sec(),
        digest,
        p99_us,
        p999_us,
        stats,
        sampler,
        journal,
    })
}

/// `serve-replay --loadgen-trace diurnal|flash-crowd|mixed-priority|skewed
/// --model model.json --out report.json [--shards N] [--submitters T]
/// [--loadgen-events E] [--loadgen-seed S] [--trace-requests-out P]
/// [--journal-out P] [--slo SPEC] [--tail-samples K]` — replay a
/// deterministic synthetic trace (`serve::loadgen::synthesize_trace`)
/// through the sharded front end and write aggregate throughput, p99 /
/// p99.9 enqueue-to-reply latency, and the replay's score digest. The
/// digest is a pure function of trace and bundle — identical across
/// shard, worker, and submitter counts, and with request tracing on or
/// off — so two runs can be diffed for determinism from the report
/// alone.
///
/// `--trace-requests-out` writes the K slowest requests' stage
/// decompositions (JSON for `.json` paths, flamegraph-collapsed text
/// otherwise), `--journal-out` writes the unified ops journal (versioned
/// JSONL; see `obs::journal`), and `--slo "p99=5ms,avail=0.999"`
/// evaluates burn rates into the journal and the console. Any of the
/// three switches request tracing on.
fn cmd_loadgen_replay(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let out_path = args.required("out")?;
    let run = run_loadgen_replay(args)?;

    let report = serde_json::json!({
        "pattern": run.pattern.name(),
        "seed": run.seed,
        "shards": run.shards,
        "submitters": run.submitters,
        "events": run.events,
        "rows": run.rows,
        "retried_sheds": run.retried_sheds,
        "secs": run.secs,
        "aggregate_rows_per_sec": run.rows_per_sec,
        "enqueue_to_reply_p99_us": run.p99_us,
        "enqueue_to_reply_p999_us": run.p999_us,
        "score_digest": format!("{:016x}", run.digest),
        "shard_engines": &run.stats,
    });
    std::fs::write(
        Path::new(out_path),
        serde_json::to_string_pretty(&report).expect("report serializes"),
    )?;
    if let Some(path) = args.optional("trace-requests-out") {
        run.sampler.write(Path::new(path))?;
        writeln!(
            out,
            "sampled {} tail trace(s) written to {path}",
            run.sampler.traces().len()
        )?;
    }
    if let Some(path) = args.optional("journal-out") {
        run.journal.write(Path::new(path))?;
        writeln!(
            out,
            "ops journal ({} records) written to {path}",
            run.journal.records().len()
        )?;
    }
    for rec in run.journal.of_kind("slo_eval") {
        let get_s = |m: &serde_json::Map, k: &str| {
            m.get(k)
                .and_then(serde_json::Value::as_str)
                .unwrap_or("?")
                .to_string()
        };
        let burn = rec
            .obs
            .get("burn")
            .and_then(serde_json::Value::as_f64)
            .unwrap_or(0.0);
        let breached = rec
            .obs
            .get("breached")
            .and_then(serde_json::Value::as_bool)
            .unwrap_or(false);
        writeln!(
            out,
            "slo {} [{}]: burn {burn:.2}{}",
            get_s(&rec.fields, "objective"),
            get_s(&rec.fields, "window"),
            if breached { "  BREACHED" } else { "" }
        )?;
    }
    writeln!(
        out,
        "replayed {} trace: {} rows over {} events across {} shard(s), \
         {:.0} rows/s, p99 {:.1}us, p99.9 {:.1}us, digest {:016x}",
        run.pattern.name(),
        run.rows,
        run.events,
        run.shards,
        run.rows_per_sec,
        run.p99_us,
        run.p999_us,
        run.digest
    )?;
    writeln!(out, "trace report written to {out_path}")?;
    Ok(())
}

/// `ops-report --journal j.jsonl` (render a saved journal) or
/// `ops-report --loadgen-trace P --model m.json [...]` (run a live
/// synthetic-trace replay, then render its journal) — the operator's
/// one-page snapshot: shard table, stage waterfall with per-stage p99.9
/// attribution, sampled tail traces, SLO burn, and drift state.
fn cmd_ops_report(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let journal = match args.optional("journal") {
        Some(path) => {
            Journal::parse(&std::fs::read_to_string(Path::new(path))?).map_err(CliError::Data)?
        }
        None => run_loadgen_replay(args)?.journal,
    };
    render_ops_report(&journal, out)
}

/// Render the `ops-report` snapshot from a journal (live or parsed).
fn render_ops_report(journal: &Journal, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use serde_json::{Map, Value};
    let s = |m: &Map, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("?").to_string();
    let u = |m: &Map, k: &str| m.get(k).and_then(Value::as_u64).unwrap_or(0);
    let f = |m: &Map, k: &str| m.get(k).and_then(Value::as_f64).unwrap_or(0.0);

    if let Some(meta) = journal.of_kind("journal_meta").first() {
        writeln!(
            out,
            "ops report — {} trace, seed {}, {} shard(s), {} submitter(s)",
            s(&meta.fields, "pattern"),
            u(&meta.fields, "seed"),
            u(&meta.fields, "shards"),
            u(&meta.fields, "submitters")
        )?;
    } else {
        writeln!(out, "ops report — {} record(s)", journal.records().len())?;
    }
    if let Some(r) = journal.of_kind("replay_summary").first() {
        writeln!(
            out,
            "replay: {} rows / {} events in {:.3}s ({:.0} rows/s), \
             p99 {:.1}us p99.9 {:.1}us, digest {}",
            u(&r.fields, "rows"),
            u(&r.fields, "events"),
            f(&r.obs, "secs"),
            f(&r.obs, "rows_per_sec"),
            f(&r.obs, "enqueue_to_reply_p99_us"),
            f(&r.obs, "enqueue_to_reply_p999_us"),
            s(&r.fields, "score_digest")
        )?;
    }

    let shard_recs = journal.of_kind("shard_stats");
    if !shard_recs.is_empty() {
        writeln!(out, "\nshards:")?;
        writeln!(
            out,
            "  {:>5} {:>9} {:>10} {:>6} {:>7} {:>9} {:>6} {:>7} {:>7}",
            "shard", "requests", "rows", "sheds", "expired", "p99_us", "ring", "parks", "wakes"
        )?;
        for r in &shard_recs {
            writeln!(
                out,
                "  {:>5} {:>9} {:>10} {:>6} {:>7} {:>9.1} {:>6} {:>7} {:>7}",
                u(&r.fields, "shard"),
                u(&r.obs, "requests"),
                u(&r.obs, "rows_scored"),
                u(&r.obs, "shed_low_priority"),
                u(&r.obs, "expired"),
                f(&r.obs, "enqueue_to_reply_p99_us"),
                u(&r.obs, "ring_occupancy"),
                u(&r.obs, "submitter_parks") + u(&r.obs, "worker_parks"),
                u(&r.obs, "wakeups")
            )?;
        }
    }

    let stages = journal.of_kind("stage_summary");
    if stages.iter().any(|r| u(&r.obs, "count") > 0) {
        let total_p999: u64 = stages.iter().map(|r| u(&r.obs, "p999_ns")).sum();
        writeln!(out, "\nstage waterfall (p99.9 attribution):")?;
        for r in &stages {
            let p999 = u(&r.obs, "p999_ns");
            let share = if total_p999 > 0 {
                p999 as f64 * 100.0 / total_p999 as f64
            } else {
                0.0
            };
            writeln!(
                out,
                "  {:<10} p50 {:>9.1}us  p99 {:>9.1}us  p99.9 {:>9.1}us  {:>5.1}%",
                s(&r.fields, "stage"),
                u(&r.obs, "p50_ns") as f64 / 1_000.0,
                u(&r.obs, "p99_ns") as f64 / 1_000.0,
                p999 as f64 / 1_000.0,
                share
            )?;
        }
    }

    let tails = journal.of_kind("tail_trace");
    if !tails.is_empty() {
        writeln!(out, "\nslowest sampled requests:")?;
        for r in &tails {
            // The dominant stage is the tail's one-word diagnosis.
            let (worst, worst_ns) = STAGE_NAMES
                .iter()
                .map(|n| (*n, u(&r.obs, &format!("{n}_ns"))))
                .max_by_key(|&(_, ns)| ns)
                .unwrap_or(("?", 0));
            writeln!(
                out,
                "  #{:<2} req {} shard {}: {:>9.1}us ({} {:.1}us)",
                u(&r.fields, "rank"),
                s(&r.obs, "request_id"),
                u(&r.obs, "shard"),
                f(&r.obs, "enqueue_to_reply_us"),
                worst,
                worst_ns as f64 / 1_000.0
            )?;
        }
    }

    let slo = journal.of_kind("slo_eval");
    if !slo.is_empty() {
        writeln!(out, "\nslo burn:")?;
        for r in &slo {
            let breached = r
                .obs
                .get("breached")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            writeln!(
                out,
                "  {:<20} [{:<4}] budget {:>7.4}  burn {:>6.2}{}",
                s(&r.fields, "objective"),
                s(&r.fields, "window"),
                f(&r.fields, "budget"),
                f(&r.obs, "burn"),
                if breached { "  BREACHED" } else { "" }
            )?;
        }
    }

    let drift = journal.of_kind("drift_state");
    if !drift.is_empty() {
        writeln!(out, "\ndrift:")?;
        for r in &drift {
            let armed = r
                .fields
                .get("armed")
                .and_then(Value::as_bool)
                .unwrap_or(false);
            if armed {
                writeln!(
                    out,
                    "  shard {}: {} env(s) — {} stable / {} moderate / {} major",
                    u(&r.fields, "shard"),
                    u(&r.obs, "envs"),
                    u(&r.obs, "stable"),
                    u(&r.obs, "moderate"),
                    u(&r.obs, "major")
                )?;
            } else {
                writeln!(
                    out,
                    "  shard {}: sentinel disarmed (no drift baseline)",
                    u(&r.fields, "shard")
                )?;
            }
        }
    }
    Ok(())
}

/// `evaluate --model model.json --data world.bin [--min-rows N]` — the
/// paper's mKS/wKS/mAUC/wAUC per-province summary on the 2020 slice.
fn cmd_evaluate(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let bundle = load_bundle(args.required("model")?)?;
    let frame = load_frame(args.required("data")?)?;
    let min_rows = args.get_or("min-rows", 50usize)?;
    let test_rows = frame.filter_rows(|y, _, _| y == 2020);
    if test_rows.is_empty() {
        return Err(CliError::Data("no 2020 rows to evaluate".into()));
    }
    let test = frame.select(&test_rows);
    // Row by row: `score_batch` panics on the NaN features a CSV world
    // can carry, while `score` routes a NaN right at every split.
    let scores: Vec<f64> = (0..test.len())
        .map(|r| bundle.score(test.row(r), test.province[r]))
        .collect();
    let catalog = ProvinceCatalog::standard();
    let mut buckets: Vec<lightmirm_metrics::EnvScores> = catalog
        .names()
        .into_iter()
        .map(lightmirm_metrics::EnvScores::new)
        .collect();
    for (r, &score) in scores.iter().enumerate() {
        buckets[test.province[r] as usize].push(score, test.label[r]);
    }
    buckets.retain(|b| b.len() >= min_rows);
    let summary = lightmirm_metrics::FairnessSummary::compute(&buckets)
        .map_err(|e| CliError::Data(e.to_string()))?;
    writeln!(
        out,
        "provinces evaluated: {} (>= {min_rows} rows each)",
        summary.envs.len()
    )?;
    writeln!(
        out,
        "mKS {:.4}  wKS {:.4} ({})  mAUC {:.4}  wAUC {:.4} ({})",
        summary.m_ks,
        summary.w_ks,
        summary.worst_ks_env,
        summary.m_auc,
        summary.w_auc,
        summary.worst_auc_env
    )?;

    // Pooled decile lift table (the standard model-documentation view).
    if let Ok(table) = lift_table(&scores, &test.label, 10) {
        writeln!(out, "\ndecile lift (1 = riskiest):")?;
        for b in &table {
            writeln!(
                out,
                "  {:>2}: rate {:>6.2}%  lift {:>5.2}  cum.capture {:>5.1}%",
                b.rank,
                b.rate * 100.0,
                b.lift,
                b.cumulative_capture * 100.0
            )?;
        }
    }
    Ok(())
}

/// `audit --model model.json --baseline base.bin --current cur.bin` —
/// score-drift PSI plus discrimination on both slices.
fn cmd_audit(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let bundle = load_bundle(args.required("model")?)?;
    let baseline = load_frame(args.required("baseline")?)?;
    let current = load_frame(args.required("current")?)?;
    let score_all = |frame: &LoanFrame| -> Vec<f64> {
        (0..frame.len())
            .map(|r| bundle.score(frame.row(r), frame.province[r]))
            .collect()
    };
    let base_scores = score_all(&baseline);
    let cur_scores = score_all(&current);
    let drift = psi(&base_scores, &cur_scores, 10).map_err(|e| CliError::Data(e.to_string()))?;
    writeln!(out, "score PSI: {:.4} ({:?})", drift.psi, drift.level())?;
    for (name, scores, frame) in [
        ("baseline", &base_scores, &baseline),
        ("current", &cur_scores, &current),
    ] {
        match (ks(scores, &frame.label), auc(scores, &frame.label)) {
            (Ok(k), Ok(a)) => writeln!(
                out,
                "{name}: KS {k:.4} AUC {a:.4} over {} rows",
                frame.len()
            )?,
            _ => writeln!(out, "{name}: discrimination unscorable (single class?)")?,
        }
    }
    Ok(())
}

/// `explain --model model.json --data world.bin --row N [--top K]` —
/// additive reason codes for one application's score (the adverse-action
/// explanation lending regulations require).
fn cmd_explain(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let bundle = load_bundle(args.required("model")?)?;
    let frame = load_frame(args.required("data")?)?;
    let row = args.get_or("row", 0usize)?;
    let top = args.get_or("top", 5usize)?;
    if row >= frame.len() {
        return Err(CliError::Data(format!(
            "row {row} out of range ({} rows)",
            frame.len()
        )));
    }
    let head = bundle.model.head(frame.province[row]);
    let ex = lightmirm_core::explain::explain_row(&bundle.extractor, head, frame.row(row));
    let schema = Schema::standard();
    let catalog = ProvinceCatalog::standard();
    writeln!(
        out,
        "row {row} ({}, {}): default probability {:.2}% (logit {:+.4}), actual label {}",
        catalog.get(frame.province[row]).name,
        frame.year[row],
        ex.probability * 100.0,
        ex.logit,
        frame.label[row]
    )?;
    let reasons = ex.top_risk_features(top);
    if reasons.is_empty() {
        writeln!(
            out,
            "no positive risk drivers (all attributions pull toward approval)"
        )?;
    } else {
        writeln!(out, "top risk drivers (reason codes):")?;
        for (f, attribution) in reasons {
            let name = schema
                .features()
                .get(f as usize)
                .map(|d| d.name.as_str())
                .unwrap_or("?");
            writeln!(out, "  {name:<24} {attribution:+.4}")?;
        }
    }
    Ok(())
}

/// `stress-lab`: run the IRM stress-lab scenario grid from
/// `lightmirm_experiments::stresslab` and write the per-trainer
/// scorecard (`scorecard.json`) plus a human-readable verdict table.
///
/// Flags: `--quick` (default) or `--full` selects the grid;
/// `--out DIR` overrides the output directory. The quick grid is the
/// regression-gated one pinned at `results/stresslab/scorecard.json`.
fn cmd_stress_lab(args: &ParsedArgs, out: &mut dyn std::io::Write) -> Result<(), CliError> {
    use lightmirm_experiments::stresslab::{self, Grid};
    if args.switch("quick") && args.switch("full") {
        return Err(CliError::Data(
            "choose one of --quick / --full, not both".into(),
        ));
    }
    let grid = if args.switch("full") {
        Grid::Full
    } else {
        Grid::Quick
    };
    let out_dir = args.get_or("out", "results/stresslab".to_string())?;
    let card = stresslab::compute_scorecard(grid);
    std::fs::create_dir_all(&out_dir)?;
    let path = Path::new(&out_dir).join("scorecard.json");
    let text = serde_json::to_string_pretty(&card)
        .map_err(|e| CliError::Data(format!("serialize scorecard: {e}")))?;
    std::fs::write(&path, text + "\n")?;
    let n_scenarios = card["scenarios"].as_array().map_or(0, Vec::len);
    writeln!(
        out,
        "stress-lab: {} grid, {} scenarios -> {}",
        grid.name(),
        n_scenarios,
        path.display()
    )?;
    for t in card["trainers"]
        .as_array()
        .ok_or_else(|| CliError::Data("scorecard has no trainers".into()))?
    {
        let verdicts: String = t["cells"]
            .as_array()
            .map(|cells| {
                cells
                    .iter()
                    .map(|c| if c["pass"] == true { 'P' } else { 'F' })
                    .collect()
            })
            .unwrap_or_default();
        writeln!(
            out,
            "  {:<14} pass {}/{n_scenarios} [{verdicts}]  crossover_n {}",
            t["name"].as_str().unwrap_or("?"),
            t["n_pass"].as_u64().unwrap_or(0),
            t["crossover"]["crossover_n"]
                .as_u64()
                .map_or("never".to_string(), |n| n.to_string()),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("lightmirm-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    fn run_line(line: &str) -> Result<String, CliError> {
        let args = ParsedArgs::parse(line.split_whitespace().map(String::from)).expect("parses");
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn full_workflow_generate_train_score_evaluate_audit() {
        let data = tmp("world.bin");
        let model = tmp("model.json");
        let scores = tmp("scores.csv");

        let msg = run_line(&format!("generate --out {data} --rows 6000 --seed 3")).unwrap();
        assert!(msg.contains("6000 rows"));

        let msg = run_line(&format!(
            "train --data {data} --out {model} --method lightmirm --trees 8 --epochs 15"
        ))
        .unwrap();
        assert!(msg.contains("lightmirm"), "{msg}");

        let msg = run_line(&format!(
            "score --model {model} --data {data} --out {scores}"
        ))
        .unwrap();
        assert!(msg.contains("scored 6000 rows"));
        let written = std::fs::read_to_string(&scores).unwrap();
        assert!(written.starts_with("row,province,score\n"));
        assert_eq!(written.lines().count(), 6001);

        let msg = run_line(&format!(
            "evaluate --model {model} --data {data} --min-rows 20"
        ))
        .unwrap();
        assert!(msg.contains("mKS"), "{msg}");

        let msg = run_line(&format!(
            "audit --model {model} --baseline {data} --current {data}"
        ))
        .unwrap();
        assert!(msg.contains("score PSI: 0.0000"), "{msg}");

        // Explain the riskiest loan: the top-scoring row must have at
        // least one positive attribution driving its score up.
        let riskiest = written
            .lines()
            .skip(1)
            .max_by(|a, b| {
                let score = |l: &str| l.rsplit(',').next().unwrap().parse::<f64>().unwrap();
                score(a).total_cmp(&score(b))
            })
            .and_then(|l| l.split(',').next())
            .unwrap()
            .to_string();
        let msg = run_line(&format!(
            "explain --model {model} --data {data} --row {riskiest} --top 4"
        ))
        .unwrap();
        assert!(msg.contains("default probability"), "{msg}");
        assert!(msg.contains("reason codes"), "{msg}");
    }

    #[test]
    fn score_is_identical_for_any_batch_and_worker_count() {
        let data = tmp("world_det.bin");
        let model = tmp("model_det.json");
        run_line(&format!("generate --out {data} --rows 4000 --seed 11")).unwrap();
        run_line(&format!(
            "train --data {data} --out {model} --method erm --trees 6 --epochs 5"
        ))
        .unwrap();
        let mut outputs = Vec::new();
        for (batch, workers) in [(1, 1), (64, 2), (256, 4)] {
            let scores = tmp(&format!("scores_b{batch}_w{workers}.csv"));
            run_line(&format!(
                "score --model {model} --data {data} --out {scores} \
                 --batch {batch} --workers {workers}"
            ))
            .unwrap();
            outputs.push(std::fs::read_to_string(&scores).unwrap());
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn serve_replay_writes_curve_and_engine_stats() {
        let data = tmp("world_replay.bin");
        let model = tmp("model_replay.json");
        let replay_out = tmp("replay.json");
        run_line(&format!("generate --out {data} --rows 6000 --seed 13")).unwrap();
        run_line(&format!(
            "train --data {data} --out {model} --method lightmirm --trees 8 --epochs 10"
        ))
        .unwrap();
        let msg = run_line(&format!(
            "serve-replay --model {model} --data {data} --out {replay_out} \
             --chunk 3 --workers 2 --grid 10"
        ))
        .unwrap();
        assert!(msg.contains("incumbent bad debt"), "{msg}");
        assert!(msg.contains("engine:"), "{msg}");
        let json: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&replay_out).unwrap()).unwrap();
        assert_eq!(json["curve"].as_array().unwrap().len(), 11);
        let served = json["engine"]["rows_scored"].as_u64().unwrap();
        assert_eq!(served, json["rows"].as_u64().unwrap());
        // τ = 0 vetoes every approval: the leftmost curve point is total.
        assert_eq!(json["curve"][0]["veto_rate"].as_f64().unwrap(), 1.0);
    }

    #[test]
    fn generate_csv_round_trips_through_train() {
        let data = tmp("world.csv");
        let model = tmp("model2.json");
        run_line(&format!("generate --out {data} --rows 3000 --seed 5")).unwrap();
        let msg = run_line(&format!(
            "train --data {data} --out {model} --method erm --trees 6 --epochs 5"
        ))
        .unwrap();
        assert!(msg.contains("erm"));
    }

    #[test]
    fn unknown_command_and_method_error() {
        assert!(matches!(
            run_line("frobnicate --x 1"),
            Err(CliError::UnknownCommand(_))
        ));
        let data = tmp("world3.bin");
        run_line(&format!("generate --out {data} --rows 2000 --seed 1")).unwrap();
        let model = tmp("model3.json");
        let err =
            run_line(&format!("train --data {data} --out {model} --method magic")).unwrap_err();
        assert!(matches!(err, CliError::Data(_)));
    }

    #[test]
    fn stress_lab_writes_a_conformant_scorecard() {
        let out_dir = tmp("stresslab");
        let msg = run_line(&format!("stress-lab --quick --out {out_dir}")).unwrap();
        assert!(msg.contains("stress-lab: quick grid"), "{msg}");
        assert!(msg.contains("LightMIRM"), "{msg}");
        // The CLI must emit exactly the pinned scorecard: same grid,
        // same deterministic numbers as the experiments bin.
        let written: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(std::path::Path::new(&out_dir).join("scorecard.json"))
                .unwrap(),
        )
        .unwrap();
        let pinned: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../results/stresslab/scorecard.json"
            ))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            written, pinned,
            "CLI scorecard must match the pinned snapshot"
        );
        // Both grid switches at once is a user error.
        assert!(matches!(
            run_line(&format!("stress-lab --quick --full --out {out_dir}")),
            Err(CliError::Data(_))
        ));
    }

    #[test]
    fn missing_files_surface_io_errors() {
        assert!(matches!(
            run_line("score --model /nonexistent.json --data /nonexistent.bin --out /tmp/x"),
            Err(CliError::Io(_))
        ));
    }
}
