//! The metric registry and the one-line JSON result.
//!
//! Every name and unit the benchmark can emit is declared here, and a
//! result is refused unless it carries exactly the declared set — so a
//! metric cannot go missing silently. A test checks these tables
//! against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write;

/// `(name, unit)` of the end-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_row", "us"),
    ("worst_env_auc", "AUC"),
    ("p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
    ("fit_s", "s"),
    ("lightmirm_epoch_ms", "ms"),
    ("meta_irm_epoch_ms", "ms"),
];

/// `(name, unit)` of the per-layer metrics (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 50] = [
    ("loansim.generate_s", "s"),
    ("gbdt.bin_s", "s"),
    ("gbdt.fit_s", "s"),
    ("gbdt.tree_ms", "ms"),
    ("gbdt.hist_build_ms", "ms"),
    ("gbdt.split_search_us", "us"),
    ("gbdt.transform_ns_per_row", "ns"),
    ("pipeline.env_dataset_s", "s"),
    ("kernels.loss_grad_ns_per_row", "ns"),
    ("kernels.loss_ns_per_row", "ns"),
    ("kernels.grad_ns_per_row", "ns"),
    ("kernels.hvp_ns_per_row", "ns"),
    ("kernels.predict_ns_per_row", "ns"),
    ("trainers.lightmirm.inner_ms", "ms"),
    ("trainers.lightmirm.meta_loss_ms", "ms"),
    ("trainers.lightmirm.backward_ms", "ms"),
    ("trainers.meta_irm.inner_ms", "ms"),
    ("trainers.meta_irm.meta_loss_ms", "ms"),
    ("trainers.meta_irm.backward_ms", "ms"),
    ("trainers.lightmirm.env_loss_ops_per_epoch", "count"),
    ("trainers.lightmirm.hvp_ops_per_epoch", "count"),
    ("trainers.meta_irm.env_loss_ops_per_epoch", "count"),
    ("trainers.meta_irm.hvp_ops_per_epoch", "count"),
    ("trainers.epoch_speedup", "ratio"),
    ("rayon.nproc_lightmirm_epoch_ms", "ms"),
    ("bundle.score_ns_per_row", "ns"),
    ("bundle.save_ms", "ms"),
    ("bundle.load_ms", "ms"),
    ("bundle.bytes", "bytes"),
    ("framing.decode_ns_per_frame", "ns"),
    ("engine.submit_us", "us"),
    ("engine.stage.admission_us", "us"),
    ("engine.stage.park_wake_us", "us"),
    ("engine.stage.ring_us", "us"),
    ("engine.stage.batch_us", "us"),
    ("engine.stage.quarantine_us", "us"),
    ("engine.stage.score_us", "us"),
    ("engine.stage.reply_us", "us"),
    ("engine.batch_rows_mean", "rows"),
    ("engine.parks_per_1k_req", "count"),
    ("engine.wakeups_per_1k_req", "count"),
    ("engine.reload_ms", "ms"),
    ("monitor.observe_ns_per_row", "ns"),
    ("metrics.evaluate_ms", "ms"),
    ("bench.gen_late_p50_us", "us"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.p99_ms", "ms"),
    ("bench.p999_ms", "ms"),
    ("bench.tail_samples", "count"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors.iter().take(5).cloned());
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: exactly the metrics of `table`, each finite.
    ///
    /// # Errors
    ///
    /// A declared metric is missing, an undeclared one is present, or a
    /// value is not finite.
    pub fn to_json(&self, table: &[(&'static str, &'static str)]) -> Result<String, String> {
        let declared: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
        if let Some(extra) = self.values.keys().find(|k| !declared.contains(k)) {
            return Err(format!("metric {extra} is not declared for this run"));
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_names_and_units_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn a_missing_or_extra_metric_is_refused() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.to_json(&END_TO_END).expect("complete report");
        let parsed: Value = serde_json::from_str(&line).expect("valid JSON");
        let metrics = parsed
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.iter().count(), END_TO_END.len());
        assert!(
            r.to_json(&PER_LAYER).is_err(),
            "end-to-end names are not per-layer"
        );
        let mut partial = Report::default();
        partial.set("setup_s", 1.0);
        assert!(partial.to_json(&END_TO_END).is_err());
        let mut nan = Report::default();
        for (name, _) in END_TO_END {
            nan.set(name, f64::NAN);
        }
        assert!(nan.to_json(&END_TO_END).is_err());
    }

    #[test]
    fn values_keep_every_digit() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.set(name, 0.1 + 0.2);
        }
        assert!(r
            .to_json(&END_TO_END)
            .expect("ok")
            .contains("0.30000000000000004"));
    }
}
