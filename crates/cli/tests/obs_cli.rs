//! End-to-end checks for the CLI's observability surface: `--metrics-out`
//! and `--trace-out` on `train` and `serve-replay`, driven through the
//! real binary (`CARGO_BIN_EXE_lightmirm`), plus the degraded-mode flags
//! (`--deadline-ms`, `--shed-watermark`/`--priority`) that must leave
//! nonzero fault counters behind, the engine geometry flags
//! (`--shards` changes the report's shape but no score; zero
//! `--batch`/`--workers`/`--shards` are data errors, not panics).

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lightmirm"))
}

fn tdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("lightmirm-obs-cli").join(name);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn lightmirm");
    assert!(
        out.status.success(),
        "lightmirm {:?} failed:\nstdout: {}\nstderr: {}",
        args,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// Generate a small world and train a bundle. 1000 rows keeps the 2020
/// replay stream (~1/5 of rows) well under the engine's 256-row default
/// batch, which the deadline test below relies on.
fn world_and_model(dir: &std::path::Path) -> (String, String) {
    let world = dir.join("world.bin").to_string_lossy().into_owned();
    let model = dir.join("model.json").to_string_lossy().into_owned();
    run_ok(&["generate", "--out", &world, "--rows", "1000", "--seed", "9"]);
    run_ok(&[
        "train",
        "--data",
        &world,
        "--out",
        &model,
        "--method",
        "lightmirm",
        "--trees",
        "6",
        "--epochs",
        "8",
    ]);
    (world, model)
}

/// A permissive Prometheus text-format check: every line is a comment or
/// `name[{labels}] value` with a numeric value.
fn assert_parses_as_prometheus(text: &str) {
    assert!(!text.trim().is_empty(), "empty exposition");
    for line in text.lines() {
        if line.starts_with('#') {
            assert!(
                line.starts_with("# TYPE ") || line.starts_with("# HELP "),
                "bad comment line: {line}"
            );
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("sample line has no value: {line}");
        });
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "unparseable value {value:?} in line: {line}"
        );
        let name_part = series.split('{').next().unwrap();
        assert!(
            name_part
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name in line: {line}"
        );
    }
}

/// Every line of a `--trace-out` file must be a standalone JSON object
/// with the span schema.
fn parse_trace(path: &std::path::Path) -> Vec<serde_json::Value> {
    let text = std::fs::read_to_string(path).expect("trace file");
    assert!(!text.trim().is_empty(), "empty trace");
    text.lines()
        .map(|line| {
            let v: serde_json::Value =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("bad trace line {line}: {e}"));
            assert!(
                v["name"].as_str().is_some(),
                "trace event without name: {line}"
            );
            assert!(
                v["thread"].as_u64().is_some(),
                "trace event without thread: {line}"
            );
            assert!(v["id"].as_u64().is_some(), "trace event without id: {line}");
            v
        })
        .collect()
}

#[test]
fn train_metrics_out_emits_prometheus_text_and_trace_jsonl() {
    let dir = tdir("train");
    let world = dir.join("world.bin").to_string_lossy().into_owned();
    let model = dir.join("model.json").to_string_lossy().into_owned();
    let metrics = dir.join("train.prom");
    let trace = dir.join("train.jsonl");
    run_ok(&["generate", "--out", &world, "--rows", "1000", "--seed", "9"]);
    run_ok(&[
        "train",
        "--data",
        &world,
        "--out",
        &model,
        "--method",
        "lightmirm",
        "--trees",
        "6",
        "--epochs",
        "8",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);

    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    assert_parses_as_prometheus(&text);
    // Per-env inner-step latency histograms with trainer/env labels.
    assert!(
        text.contains("# TYPE train_inner_step_ns histogram"),
        "missing inner-step histogram TYPE line:\n{text}"
    );
    assert!(text.contains("train_inner_step_ns_bucket{"), "{text}");
    assert!(text.contains("trainer=\"lightmirm\""), "{text}");
    assert!(text.contains("le=\"+Inf\""), "{text}");
    // MRQ counters, epoch counter, outer-step histogram, kernel timings.
    for name in [
        "train_mrq_push_total",
        "train_mrq_replay_total",
        "train_sampled_env_total",
        "train_outer_step_ns",
        "train_epochs_total",
        "train_meta_loss_sigma",
        "kernel_reduce_ns_bucket",
        "kernel_reduce_chunks_total",
    ] {
        assert!(text.contains(name), "metrics missing {name}:\n{text}");
    }

    let events = parse_trace(&trace);
    let names: Vec<&str> = events.iter().filter_map(|e| e["name"].as_str()).collect();
    assert!(names.contains(&"train_epoch"), "no train_epoch span");
    assert!(names.contains(&"inner_step"), "no inner_step span");
    // Every inner step — also one a parallel worker ran — is a child of
    // a train_epoch span, one level below it.
    let by_id: std::collections::HashMap<u64, &serde_json::Value> = events
        .iter()
        .map(|e| (e["id"].as_u64().unwrap(), e))
        .collect();
    for inner in events.iter().filter(|e| e["name"] == "inner_step") {
        assert!(
            inner["dur_ns"].as_u64().is_some(),
            "span without duration: {inner}"
        );
        let parent = inner["parent"]
            .as_u64()
            .and_then(|p| by_id.get(&p))
            .unwrap_or_else(|| panic!("inner_step without a recorded parent: {inner}"));
        assert_eq!(parent["name"], "train_epoch", "inner_step under {parent}");
        assert_eq!(
            inner["depth"].as_u64(),
            parent["depth"].as_u64().map(|d| d + 1),
            "inner_step depth under {parent}"
        );
    }
}

#[test]
fn serve_replay_shed_watermark_leaves_nonzero_counters() {
    let dir = tdir("shed");
    let (world, model) = world_and_model(&dir);
    let replay = dir.join("replay.json").to_string_lossy().into_owned();
    let metrics = dir.join("serve.json");
    let trace = dir.join("serve.jsonl");
    // shed_rows = ceil(4096 × 0.0002) = 1 < any 2-row chunk, so every
    // low-priority submission sheds deterministically; the CLI escalates
    // each to Normal and the replay still completes.
    run_ok(&[
        "serve-replay",
        "--model",
        &model,
        "--data",
        &world,
        "--out",
        &replay,
        "--chunk",
        "2",
        "--grid",
        "5",
        "--priority",
        "low",
        "--shed-watermark",
        "0.0002",
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);

    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).expect("metrics"))
            .expect("metrics JSON");
    let entries = snap["metrics"].as_array().expect("metrics array");
    let counter = |name: &str| -> u64 {
        entries
            .iter()
            .find(|e| e["name"] == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))["value"]
            .as_u64()
            .unwrap_or_else(|| panic!("metric {name} is not a counter"))
    };
    assert!(counter("serve_shed_total") > 0, "no sheds recorded");
    assert!(counter("serve_requests_total") > 0);
    assert!(counter("serve_rows_scored_total") > 0);
    // The histogram families the issue names must be present in full
    // bucket form.
    for name in [
        "serve_queue_depth_rows",
        "serve_batch_rows",
        "serve_request_latency_ns",
        "serve_enqueue_to_reply_ns",
        "serve_score_ns",
    ] {
        let h = entries
            .iter()
            .find(|e| e["name"] == name)
            .unwrap_or_else(|| panic!("histogram {name} missing"));
        assert_eq!(h["type"], "histogram", "{name} is not a histogram");
        assert!(h["buckets"].as_array().is_some(), "{name} lost its buckets");
    }
    // Engine spans made it to the trace.
    let events = parse_trace(&trace);
    assert!(
        events.iter().any(|e| e["name"] == "process_batch"),
        "no process_batch spans in serve trace"
    );
    // The replay output itself is still complete and well-formed.
    let replayed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&replay).expect("replay")).unwrap();
    assert_eq!(replayed["curve"].as_array().unwrap().len(), 6);
}

#[test]
fn loadgen_replay_tracing_journal_slo_and_ops_report() {
    let dir = tdir("tracing");
    let (_world, model) = world_and_model(&dir);
    let report = dir.join("rep.json").to_string_lossy().into_owned();
    let journal_path = dir.join("ops.jsonl").to_string_lossy().into_owned();
    let traces_path = dir.join("tails.json").to_string_lossy().into_owned();
    let traced = [
        "serve-replay",
        "--loadgen-trace",
        "flash-crowd",
        "--model",
        &model,
        "--out",
        &report,
        "--shards",
        "2",
        "--submitters",
        "2",
        "--loadgen-events",
        "120",
        "--journal-out",
        &journal_path,
        "--trace-requests-out",
        &traces_path,
        "--slo",
        "p99=5s,avail=0.5",
    ];
    let msg = run_ok(&traced);
    assert!(msg.contains("ops journal"), "{msg}");
    assert!(msg.contains("slo p99=5s [run]"), "{msg}");

    // The journal is versioned JSONL with monotone sequence numbers and
    // absorbs every record family under one schema.
    let text = std::fs::read_to_string(&journal_path).expect("journal");
    let journal = lightmirm_core::obs::Journal::parse(&text).expect("journal parses");
    let seqs: Vec<u64> = journal.records().iter().map(|r| r.seq).collect();
    assert_eq!(seqs, (0..seqs.len() as u64).collect::<Vec<_>>());
    for kind in [
        "journal_meta",
        "replay_summary",
        "stage_summary",
        "shard_stats",
        "drift_state",
        "failpoints",
        "tail_trace",
        "slo_eval",
    ] {
        assert!(
            !journal.of_kind(kind).is_empty(),
            "journal missing kind {kind}"
        );
    }

    // >= K sampled tails (default K = 8), each with a stage
    // decomposition that sums exactly to its enqueue-to-reply latency.
    let tails: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&traces_path).expect("tails")).unwrap();
    let arr = tails["traces"].as_array().expect("traces array");
    assert!(arr.len() >= 8, "only {} tail traces sampled", arr.len());
    for t in arr {
        let total = t["enqueue_to_reply_ns"].as_u64().expect("total");
        let sum: u64 = t["stages_ns"]
            .as_object()
            .expect("stages object")
            .iter()
            .map(|(_, v)| v.as_u64().expect("stage ns"))
            .sum();
        assert_eq!(sum, total, "stage decomposition must telescope");
        assert!(total > 0, "zero-latency tail trace");
    }

    // Tracing is observation-only: a tracing-off replay of the same
    // trace produces a bit-identical score digest.
    let report_off = dir.join("rep_off.json").to_string_lossy().into_owned();
    run_ok(&[
        "serve-replay",
        "--loadgen-trace",
        "flash-crowd",
        "--model",
        &model,
        "--out",
        &report_off,
        "--shards",
        "2",
        "--submitters",
        "2",
        "--loadgen-events",
        "120",
    ]);
    let digest = |p: &str| -> String {
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(p).expect("report")).unwrap();
        v["score_digest"].as_str().expect("digest").to_string()
    };
    assert_eq!(
        digest(&report),
        digest(&report_off),
        "request tracing changed the scores"
    );

    // Normalized journals are deterministic: a rerun with identical
    // flags (different wall-clock, shed timing, tail selection) must be
    // byte-identical once `obs` is stripped.
    let journal2_path = dir.join("ops2.jsonl").to_string_lossy().into_owned();
    let rep2 = dir.join("rep2.json").to_string_lossy().into_owned();
    let mut rerun: Vec<&str> = traced.to_vec();
    rerun[14] = &journal2_path; // --journal-out value
    rerun[6] = &rep2; // --out value
    run_ok(&rerun);
    let journal2 =
        lightmirm_core::obs::Journal::parse(&std::fs::read_to_string(&journal2_path).unwrap())
            .expect("second journal parses");
    assert_eq!(
        journal.to_jsonl_normalized(),
        journal2.to_jsonl_normalized(),
        "normalized journal must be run-to-run deterministic"
    );

    // ops-report renders the snapshot from the saved journal.
    let snapshot = run_ok(&["ops-report", "--journal", &journal_path]);
    for section in [
        "ops report",
        "shards:",
        "stage waterfall (p99.9 attribution):",
        "slowest sampled requests:",
        "slo burn:",
        "drift:",
    ] {
        assert!(
            snapshot.contains(section),
            "ops-report missing {section:?}:\n{snapshot}"
        );
    }
}

#[test]
fn serve_replay_stream_shard_count_changes_shape_not_scores() {
    let dir = tdir("stream-shards");
    let (world, model) = world_and_model(&dir);
    let candidate = dir.join("candidate.json").to_string_lossy().into_owned();
    run_ok(&[
        "train", "--data", &world, "--out", &candidate, "--method", "erm", "--trees", "4",
        "--epochs", "3",
    ]);
    let replay = |shards: &str, reload: bool| -> (serde_json::Value, String) {
        let out = dir
            .join(format!("replay-s{shards}-r{reload}.json"))
            .to_string_lossy()
            .into_owned();
        let mut args = vec![
            "serve-replay",
            "--model",
            &model,
            "--data",
            &world,
            "--out",
            &out,
            "--chunk",
            "3",
            "--grid",
            "8",
            "--shards",
            shards,
        ];
        if reload {
            args.extend(["--reload-model", candidate.as_str()]);
        }
        let msg = run_ok(&args);
        let json = serde_json::from_str(&std::fs::read_to_string(&out).expect("replay")).unwrap();
        (json, msg)
    };
    for reload in [false, true] {
        let (one, one_msg) = replay("1", reload);
        let (three, three_msg) = replay("3", reload);
        assert_eq!(
            one["curve"], three["curve"],
            "shard count changed the companion scores (reload: {reload})"
        );
        assert_eq!(one["rows"], three["rows"]);
        // One shard keeps the historical single-engine shape.
        assert!(one["engine"].as_object().is_some(), "{one}");
        assert!(one.get("shards").is_none() && one.get("shard_engines").is_none());
        assert!(one_msg.contains("engine: "), "{one_msg}");
        // More shards report per shard.
        assert_eq!(three["shards"].as_u64(), Some(3));
        assert_eq!(three["shard_engines"].as_array().map(Vec::len), Some(3));
        assert!(three.get("engine").is_none());
        assert!(three_msg.contains("shard 2: "), "{three_msg}");
        if reload {
            assert!(one_msg.contains("hot-reloaded bundle from"), "{one_msg}");
            assert!(three_msg.contains("on all 3 shards"), "{three_msg}");
        }
    }
}

#[test]
fn zero_engine_flags_exit_one_naming_the_flag() {
    let dir = tdir("zero-flags");
    let (world, model) = world_and_model(&dir);
    let out = dir.join("out.json").to_string_lossy().into_owned();
    let stream = ["--model", &model, "--data", &world, "--out", &out];
    let loadgen = [
        "--model",
        &model,
        "--loadgen-trace",
        "diurnal",
        "--out",
        &out,
    ];
    for (command, inputs, flag) in [
        ("score", &stream, "--batch"),
        ("score", &stream, "--workers"),
        ("serve-replay", &stream, "--batch"),
        ("serve-replay", &stream, "--workers"),
        ("serve-replay", &stream, "--shards"),
        ("serve-replay", &loadgen, "--workers"),
        ("serve-replay", &loadgen, "--shards"),
    ] {
        let run = bin()
            .arg(command)
            .args(inputs)
            .args([flag, "0"])
            .output()
            .expect("spawn lightmirm");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(
            run.status.code(),
            Some(1),
            "{command} {inputs:?} {flag} 0 must fail as a data error:\n{stderr}"
        );
        assert!(stderr.contains(flag), "{command} {flag} 0:\n{stderr}");
    }
}

#[test]
fn serve_replay_deadline_expiry_is_counted_and_recovered() {
    let dir = tdir("deadline");
    let (world, model) = world_and_model(&dir);
    let replay = dir.join("replay.json").to_string_lossy().into_owned();
    let metrics = dir.join("deadline.prom");
    // The ~200-row 2020 stream never fills the 256-row default batch, so
    // the first dispatch waits out the full 2ms `max_wait`; a 1ms
    // deadline is then already gone and the batch drops whole. The CLI
    // rescores every expired chunk without a deadline, so the replay
    // still completes while `serve_deadline_expired_total` records the
    // pressure.
    run_ok(&[
        "serve-replay",
        "--model",
        &model,
        "--data",
        &world,
        "--out",
        &replay,
        "--chunk",
        "2",
        "--grid",
        "5",
        "--deadline-ms",
        "1",
        "--metrics-out",
        metrics.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    assert_parses_as_prometheus(&text);
    // The full serve_* family must appear in the text exposition: fault
    // counters (zero or not) and the occupancy/latency histograms.
    for name in [
        "serve_shed_total",
        "serve_deadline_expired_total",
        "serve_quarantined_rows_total",
        "serve_poisoned_total",
        "serve_worker_panics_total",
        "serve_reloads_total",
        "serve_queue_depth_rows_bucket",
        "serve_batch_rows_bucket",
        "serve_enqueue_to_reply_ns_bucket",
        "serve_score_ns_bucket",
    ] {
        assert!(text.contains(name), "metrics missing {name}:\n{text}");
    }
    let expired = text
        .lines()
        .find_map(|l| l.strip_prefix("serve_deadline_expired_total "))
        .expect("serve_deadline_expired_total missing")
        .parse::<f64>()
        .expect("numeric counter");
    assert!(expired > 0.0, "deadline counter stayed zero:\n{text}");
    // Recovery: the written curve is intact despite the expiries.
    let replayed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&replay).expect("replay")).unwrap();
    assert_eq!(replayed["curve"].as_array().unwrap().len(), 6);
    assert!(replayed["rows"].as_u64().unwrap() > 0);
}
