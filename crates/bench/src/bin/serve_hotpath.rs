//! Serving-engine throughput harness.
//!
//! Drives a synthetic request stream through the `lightmirm-serve`
//! micro-batching engine across a grid of micro-batch sizes and worker
//! counts, then writes `results/BENCH_serve.json` with rows/sec and the
//! engine's own latency distributions for each configuration — the
//! numbers behind the serving section of DESIGN.md.
//!
//! Three latency views are reported per run, because they answer
//! different questions and conflating them overstated queueing cost:
//!
//! - `latency_*`: queued-to-reply, clocked from the moment the request
//!   entered the queue. Excludes submit-side blocking, so it isolates
//!   batching + scoring from backpressure.
//! - `enqueue_to_reply_*`: clocked from `submit()` entry, *including*
//!   any wait for queue space. This is what a caller experiences.
//! - `score_*`: pure `score_batch` kernel time per dispatched batch —
//!   the floor the other two sit on.
//!
//! Usage: `cargo run --release -p lightmirm-bench --bin serve_hotpath
//! [-- --quick] [--out path.json] [--trajectory path.jsonl]`. `--quick`
//! shrinks the stream and the sweep for CI smoke runs; numbers from it
//! are not meaningful, only the schema. Besides the snapshot JSON, every
//! run appends a commit-stamped record per configuration to the perf
//! trajectory (`results/BENCH_trajectory.jsonl` by default) for the
//! longitudinal regression gate (`scripts/check_bench_regression.sh`).

use lightmirm_core::bundle::{BundleMetadata, ModelBundle};
use lightmirm_core::lr::LrModel;
use lightmirm_core::trainers::TrainedModel;
use lightmirm_serve::{Admission, EngineConfig, ScoringEngine, SubmitOptions};
use loansim::{generate, GeneratorConfig};
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scenario {
    /// Rows in the synthetic application stream.
    rows: usize,
    /// GBDT trees in the extractor (leaf transform cost per row).
    trees: usize,
    /// Rows per submitted request.
    chunk: usize,
    /// Concurrent submitter threads.
    submitters: usize,
    batch_sizes: Vec<usize>,
    worker_counts: Vec<usize>,
}

/// A bundle with a quickly-fit GBDT extractor and a synthetic LR head:
/// the serving cost is in the leaf transform + dot product, not in how
/// the weights were obtained.
fn synthetic_bundle(frame: &loansim::LoanFrame, trees: usize) -> ModelBundle {
    let cfg = lightmirm_gbdt::GbdtConfig {
        n_trees: trees,
        ..Default::default()
    };
    let gbdt = lightmirm_gbdt::Gbdt::fit(
        frame.feature_matrix(),
        frame.n_features(),
        &frame.label,
        &cfg,
    )
    .expect("GBDT fits the synthetic frame");
    let weights: Vec<f64> = (0..gbdt.total_leaves())
        .map(|i| ((i % 17) as f64 - 8.0) * 0.03)
        .collect();
    ModelBundle::new(
        gbdt,
        &TrainedModel::Global(LrModel { weights }),
        BundleMetadata {
            trainer: "synthetic".into(),
            seed: 0,
            notes: "serve_hotpath bench head".into(),
        },
    )
    .expect("dimensions match by construction")
}

/// Score the whole stream through one engine configuration from
/// `submitters` concurrent threads and report wall-clock seconds plus the
/// engine's final stats.
fn run_config(
    bundle: &ModelBundle,
    frame: &Arc<loansim::LoanFrame>,
    sc: &Scenario,
    max_batch: usize,
    workers: usize,
) -> (f64, lightmirm_serve::EngineStats) {
    let engine = Arc::new(ScoringEngine::new(
        bundle.clone(),
        EngineConfig {
            max_batch,
            max_wait: Duration::from_micros(500),
            queue_capacity: (4 * max_batch).max(4096),
            workers,
            ..EngineConfig::default()
        },
    ));
    let started = Instant::now();
    let handles: Vec<_> = (0..sc.submitters)
        .map(|t| {
            let engine = Arc::clone(&engine);
            let frame = Arc::clone(frame);
            let chunk = sc.chunk;
            let submitters = sc.submitters;
            std::thread::spawn(move || {
                let nf = frame.n_features();
                // Submitter t owns every t-th chunk of the stream.
                let mut pending = Vec::new();
                let mut start = t * chunk;
                while start < frame.len() {
                    let n = chunk.min(frame.len() - start);
                    let mut features = Vec::with_capacity(n * nf);
                    let mut env_ids = Vec::with_capacity(n);
                    for k in start..start + n {
                        features.extend_from_slice(frame.row(k));
                        env_ids.push(frame.province[k]);
                    }
                    pending.push(
                        engine
                            .submit(
                                features,
                                env_ids,
                                SubmitOptions::default(),
                                Admission::Block,
                            )
                            .expect("accepted"),
                    );
                    start += submitters * chunk;
                }
                for p in pending {
                    let scores = p.wait().expect("scored");
                    assert!(scores.iter().all(|s| s.is_finite()));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter thread");
    }
    let secs = started.elapsed().as_secs_f64();
    let engine = Arc::into_inner(engine).expect("all submitters joined");
    let stats = engine.shutdown();
    assert_eq!(stats.rows_scored as usize, frame.len());
    (secs, stats)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_serve.json".to_string());
    let trajectory_path = args
        .iter()
        .position(|a| a == "--trajectory")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results/BENCH_trajectory.jsonl".to_string());

    let sc = if quick {
        Scenario {
            rows: 10_000,
            trees: 16,
            chunk: 4,
            submitters: 2,
            batch_sizes: vec![64, 256],
            worker_counts: vec![1, 2],
        }
    } else {
        Scenario {
            rows: 60_000,
            trees: 64,
            chunk: 4,
            submitters: 4,
            batch_sizes: vec![16, 64, 256, 1024],
            worker_counts: vec![1, 2, 4],
        }
    };

    let frame = Arc::new(generate(&GeneratorConfig::small(sc.rows, 41)));
    let bundle = synthetic_bundle(&frame, sc.trees);
    eprintln!(
        "serve_hotpath: {} rows, {} trees, {}-row requests from {} submitters",
        frame.len(),
        sc.trees,
        sc.chunk,
        sc.submitters
    );

    let mut runs = Vec::new();
    let mut traj_metrics: Vec<(String, f64)> = Vec::new();
    for &workers in &sc.worker_counts {
        for &max_batch in &sc.batch_sizes {
            let (secs, stats) = run_config(&bundle, &frame, &sc, max_batch, workers);
            let rows_per_sec = frame.len() as f64 / secs;
            traj_metrics.push((
                format!("w{workers}_b{max_batch}_rows_per_sec"),
                rows_per_sec,
            ));
            traj_metrics.push((
                format!("w{workers}_b{max_batch}_score_p50_us"),
                stats.score_p50_ns as f64 / 1_000.0,
            ));
            eprintln!(
                "workers {workers} batch {max_batch:>5}: {rows_per_sec:>9.0} rows/s, \
                 queued p50 {:>6.1}us p99 {:>7.1}us, e2e p50 {:>6.1}us p99 {:>7.1}us, \
                 score p50 {:>6.1}us/batch, mean dispatch {:.1} rows",
                stats.latency_p50_ns as f64 / 1_000.0,
                stats.latency_p99_ns as f64 / 1_000.0,
                stats.enqueue_to_reply_p50_ns as f64 / 1_000.0,
                stats.enqueue_to_reply_p99_ns as f64 / 1_000.0,
                stats.score_p50_ns as f64 / 1_000.0,
                stats.batch_rows_mean
            );
            runs.push(json!({
                "workers": workers,
                "max_batch": max_batch,
                "secs": secs,
                "rows_per_sec": rows_per_sec,
                // Queued-to-reply: excludes submit-side blocking.
                "latency_p50_us": stats.latency_p50_ns as f64 / 1_000.0,
                "latency_p99_us": stats.latency_p99_ns as f64 / 1_000.0,
                "latency_mean_us": stats.latency_mean_ns / 1_000.0,
                // Enqueue-to-reply: includes any wait for queue space.
                "enqueue_to_reply_p50_us": stats.enqueue_to_reply_p50_ns as f64 / 1_000.0,
                "enqueue_to_reply_p99_us": stats.enqueue_to_reply_p99_ns as f64 / 1_000.0,
                "enqueue_to_reply_mean_us": stats.enqueue_to_reply_mean_ns / 1_000.0,
                "enqueue_to_reply_max_us": stats.enqueue_to_reply_max_ns as f64 / 1_000.0,
                // Pure score_batch time per dispatched batch.
                "score_p50_us": stats.score_p50_ns as f64 / 1_000.0,
                "score_p99_us": stats.score_p99_ns as f64 / 1_000.0,
                "score_mean_us": stats.score_mean_ns / 1_000.0,
                "mean_dispatch_rows": stats.batch_rows_mean,
                "max_dispatch_rows": stats.batch_rows_max,
                "queue_depth_p50": stats.queue_depth_p50,
                "queue_depth_max": stats.queue_depth_max,
            }));
        }
    }

    let report = json!({
        "bench": "serve",
        "quick": quick,
        "hardware": json!({
            "logical_cpus": std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            "kernel_backend": lightmirm_core::simd::backend().name(),
        }),
        "stream": json!({
            "rows": sc.rows,
            "gbdt_trees": sc.trees,
            "request_rows": sc.chunk,
            "submitters": sc.submitters,
            "n_raw_features": frame.n_features(),
            "leaf_features": bundle.extractor.total_leaves(),
        }),
        "runs": runs,
    });

    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("output directory");
    }
    std::fs::write(&out_path, text + "\n").expect("write report");
    eprintln!("wrote {out_path}");

    // Longitudinal record: rows/sec and p50 kernel time per (workers,
    // batch) configuration, commit-stamped for the regression gate.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let record =
        lightmirm_bench::trajectory::TrajectoryRecord::now("serve", quick, threads, traj_metrics);
    let tp = std::path::Path::new(&trajectory_path);
    record.append(tp).expect("append trajectory");
    eprintln!(
        "appended {} ({}) to {trajectory_path}",
        record.commit, record.bench
    );
}
