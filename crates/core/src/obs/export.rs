//! Snapshot exporters: Prometheus text exposition + JSON.
//!
//! The Prometheus renderer follows the text exposition format:
//! a `# TYPE` line per metric family, then one sample line per series
//! (`name{labels} value`). Histograms render as cumulative
//! `_bucket{le="..."}` series over the power-of-two bucket upper bounds
//! (`le` is inclusive, so bucket `b`'s bound is `2^b − 1`), a final
//! `le="+Inf"`, plus `_sum` and `_count`. Snapshots are sorted, so the
//! rendered text is deterministic for a given snapshot.

use super::metrics::{MetricEntry, MetricValue, MetricsSnapshot};
use crate::timing::Histogram;
use std::fmt::Write as _;

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `{k1="v1",k2="v2"}` (empty string when no labels).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Format a gauge value the way Prometheus expects.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, entry: &MetricEntry, h: &Histogram) {
    let name = &entry.key.name;
    let labels = &entry.key.labels;
    let buckets = h.bucket_counts();
    let mut cumulative = 0u64;
    let highest = buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
    for (b, &n) in buckets.iter().enumerate().take(highest + 1) {
        cumulative += n;
        let le = match b {
            0 => "0".to_string(),
            64 => fmt_f64(u64::MAX as f64),
            _ => format!("{}", (1u64 << b) - 1),
        };
        let lb = label_block(labels, Some(("le", &le)));
        let _ = writeln!(out, "{name}_bucket{lb} {cumulative}");
    }
    let lb = label_block(labels, Some(("le", "+Inf")));
    let _ = writeln!(out, "{name}_bucket{lb} {}", h.count());
    let lb = label_block(labels, None);
    let _ = writeln!(out, "{name}_sum{lb} {}", h.sum());
    let _ = writeln!(out, "{name}_count{lb} {}", h.count());
}

/// Render a snapshot in the Prometheus text exposition format.
pub fn to_prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for entry in &snap.metrics {
        let name = entry.key.name.as_str();
        if last_name != Some(name) {
            let kind = match &entry.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = Some(name);
        }
        match &entry.value {
            MetricValue::Counter(v) => {
                let lb = label_block(&entry.key.labels, None);
                let _ = writeln!(out, "{name}{lb} {v}");
            }
            MetricValue::Gauge(v) => {
                let lb = label_block(&entry.key.labels, None);
                let _ = writeln!(out, "{name}{lb} {}", fmt_f64(*v));
            }
            MetricValue::Histogram(h) => render_histogram(&mut out, entry, h),
        }
    }
    out
}

/// Render a snapshot as pretty-printed JSON.
pub fn to_json(snap: &MetricsSnapshot) -> String {
    serde_json::to_string_pretty(snap).unwrap_or_default()
}

/// Write a snapshot to `path`: JSON when the extension is `.json`,
/// Prometheus text otherwise.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_snapshot(path: &std::path::Path, snap: &MetricsSnapshot) -> std::io::Result<()> {
    let text = if path.extension().is_some_and(|e| e == "json") {
        to_json(snap)
    } else {
        to_prometheus_text(snap)
    };
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::metrics::MetricsRegistry;

    #[test]
    fn prometheus_text_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("requests_total", &[("env", "a")]).add(3);
        reg.gauge("sigma", &[]).set(0.25);
        let h = reg.histogram("latency_ns", &[]);
        h.record(0);
        h.record(5);
        h.record(1000);
        let text = to_prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE requests_total counter"), "{text}");
        assert!(text.contains("requests_total{env=\"a\"} 3"), "{text}");
        assert!(text.contains("# TYPE sigma gauge"), "{text}");
        assert!(text.contains("sigma 0.25"), "{text}");
        assert!(text.contains("# TYPE latency_ns histogram"), "{text}");
        // Cumulative buckets: le="0" sees the zero, le="7" adds the 5,
        // le="1023" adds the 1000; +Inf equals the total count.
        assert!(text.contains("latency_ns_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("latency_ns_bucket{le=\"7\"} 2"), "{text}");
        assert!(text.contains("latency_ns_bucket{le=\"1023\"} 3"), "{text}");
        assert!(text.contains("latency_ns_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("latency_ns_sum 1005"), "{text}");
        assert!(text.contains("latency_ns_count 3"), "{text}");
    }

    #[test]
    fn type_line_emitted_once_per_family() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total", &[("env", "0")]).inc();
        reg.counter("x_total", &[("env", "1")]).inc();
        let text = to_prometheus_text(&reg.snapshot());
        assert_eq!(text.matches("# TYPE x_total counter").count(), 1, "{text}");
        assert_eq!(text.matches("x_total{env=").count(), 2, "{text}");
    }

    #[test]
    fn json_roundtrips_counter_values() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", &[("k", "v")]).add(7);
        let h = reg.histogram("h_ns", &[]);
        h.record(5);
        h.record(1000);
        let _idle = reg.histogram("idle_ns", &[]);
        let json = to_json(&reg.snapshot());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let metrics = v["metrics"].as_array().unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(metrics[0]["name"], "c_total");
        assert_eq!(metrics[0]["labels"]["k"], "v");
        assert_eq!(metrics[0]["type"], "counter");
        assert_eq!(metrics[0]["value"], 7u64);
        // Bucket `b` holds [2^(b−1), 2^b): 5 lands in 3, 1000 in 10.
        let h = &metrics[1];
        assert_eq!(h["name"], "h_ns");
        assert_eq!(h["type"], "histogram");
        let buckets = h["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), 65);
        assert_eq!(buckets[3], 1u64);
        assert_eq!(buckets[10], 1u64);
        assert_eq!(buckets.iter().filter(|b| **b != 0u64).count(), 2);
        for (field, want) in [("count", 2u64), ("sum", 1005), ("min", 5), ("max", 1000)] {
            assert_eq!(h[field], want, "{field}");
        }
        // An empty histogram exports min 0, not its internal sentinel.
        let idle = &metrics[2];
        assert_eq!(idle["name"], "idle_ns");
        for field in ["count", "sum", "min", "max"] {
            assert_eq!(idle[field], 0u64, "{field}");
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("c", &[("p", "a\"b\\c")]).inc();
        let text = to_prometheus_text(&reg.snapshot());
        assert!(text.contains(r#"c{p="a\"b\\c"} 1"#), "{text}");
    }
}
