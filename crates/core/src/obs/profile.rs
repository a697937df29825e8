//! Span profiler: aggregate the trace ring into per-site profiles.
//!
//! The flight recorder ([`crate::obs::trace`]) keeps the newest ~64k
//! spans/events. This module folds that ring into actionable hot-path
//! attribution: per-site call counts, total and self wall time, p50/p99
//! from [`crate::timing::Histogram`], parent→child call edges, and
//! flamegraph-collapsed stack lines (`a;b;c <self_us>`, one per stack
//! path) that feed straight into `inferno`/`flamegraph.pl`/speedscope.
//!
//! Every span records its own id and its parent's, so the call forest is
//! linked by id, across threads: an `inner_step` a parallel worker ran
//! is a child of the `train_epoch` that launched it. Spans whose parents
//! never closed inside the ring window (truncation, still-open spans)
//! are kept as roots. Children that ran in parallel can add up past
//! their parent's wall time; the parent's self time then reads 0.

use super::trace::{EventKind, TraceEvent};
use crate::timing::Histogram;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};

/// Aggregated statistics for one `span!` site (by name).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SiteProfile {
    /// The span name.
    pub name: String,
    /// Number of recorded (closed) spans.
    pub count: u64,
    /// Total wall time across all closures, nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to child spans, nanoseconds.
    pub self_ns: u64,
    /// Median span duration (power-of-two bucket resolution).
    pub p50_ns: u64,
    /// 99th-percentile span duration.
    pub p99_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

/// One aggregated parent→child call edge.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileEdge {
    /// Parent site name.
    pub parent: String,
    /// Child site name.
    pub child: String,
    /// Number of child closures under this parent.
    pub count: u64,
    /// Total child wall time under this parent, nanoseconds.
    pub total_ns: u64,
}

/// One collapsed stack path (for flamegraphs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StackPath {
    /// `;`-joined site names, root first.
    pub path: String,
    /// Self time accumulated on this exact path, microseconds.
    pub self_us: u64,
}

/// The aggregated profile of a span ring.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Profile {
    /// Number of span records aggregated.
    pub spans: u64,
    /// Per-site statistics, sorted by name.
    pub sites: Vec<SiteProfile>,
    /// Parent→child edges, sorted by (parent, child).
    pub edges: Vec<ProfileEdge>,
    /// Collapsed stack paths, sorted by path.
    pub paths: Vec<StackPath>,
    /// Instant-event counts by name, sorted.
    pub events: Vec<(String, u64)>,
}

/// Sanitize a span/site name for the flamegraph-collapsed format.
///
/// The collapsed format gives `;` and whitespace structural meaning
/// (`;` separates stack frames, the final space separates the path from
/// its sample count), so a span name containing either would corrupt
/// the line for every downstream consumer (`flamegraph.pl`, inferno,
/// speedscope). There is no escape sequence in the format, so we
/// substitute: `;` becomes `:` and any whitespace becomes `_`. The
/// mapping is lossy but stable, and names without hostile characters
/// pass through unchanged.
#[must_use]
pub fn escape_frame(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' {
                ':'
            } else if c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// One reconstructed span occurrence in the call forest.
struct Node {
    name: String,
    dur_ns: u64,
    parent: Option<u64>,
    children: Vec<usize>,
}

#[derive(Default)]
struct SiteAcc {
    count: u64,
    total_ns: u64,
    child_ns: u64,
    max_ns: u64,
    hist: Histogram,
}

impl Profile {
    /// Aggregate a slice of trace records (e.g. a
    /// [`ring_snapshot`](crate::obs::trace::Tracer::ring_snapshot)), in
    /// any order.
    pub fn build(records: &[TraceEvent]) -> Profile {
        let mut nodes: Vec<Node> = Vec::new();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();

        for ev in records {
            if ev.kind == EventKind::Event {
                *event_counts.entry(ev.name.clone()).or_insert(0) += 1;
                continue;
            }
            by_id.insert(ev.id, nodes.len());
            nodes.push(Node {
                name: ev.name.clone(),
                dur_ns: ev.dur_ns,
                parent: ev.parent,
                children: Vec::new(),
            });
        }
        let mut roots = Vec::new();
        for idx in 0..nodes.len() {
            match nodes[idx].parent.and_then(|p| by_id.get(&p)) {
                Some(&p) => nodes[p].children.push(idx),
                None => roots.push(idx),
            }
        }

        // Per-site accumulation.
        let mut sites: BTreeMap<String, SiteAcc> = BTreeMap::new();
        let mut edges: BTreeMap<(String, String), (u64, u64)> = BTreeMap::new();
        for node in &nodes {
            let acc = sites.entry(node.name.clone()).or_default();
            acc.count += 1;
            acc.total_ns += node.dur_ns;
            acc.max_ns = acc.max_ns.max(node.dur_ns);
            acc.hist.record(node.dur_ns);
            for &c in &node.children {
                let child = &nodes[c];
                sites.entry(node.name.clone()).or_default().child_ns += child.dur_ns;
                let e = edges
                    .entry((node.name.clone(), child.name.clone()))
                    .or_insert((0, 0));
                e.0 += 1;
                e.1 += child.dur_ns;
            }
        }

        // Collapsed stacks: depth-first from the roots.
        let mut paths: BTreeMap<String, u64> = BTreeMap::new();
        let mut stack: Vec<(usize, String)> = roots
            .iter()
            .map(|&r| (r, escape_frame(&nodes[r].name)))
            .collect();
        while let Some((idx, path)) = stack.pop() {
            let node = &nodes[idx];
            let child_ns: u64 = node.children.iter().map(|&c| nodes[c].dur_ns).sum();
            let self_ns = node.dur_ns.saturating_sub(child_ns);
            *paths.entry(path.clone()).or_insert(0) += self_ns / 1_000;
            for &c in &node.children {
                stack.push((c, format!("{path};{}", escape_frame(&nodes[c].name))));
            }
        }

        Profile {
            spans: nodes.len() as u64,
            sites: sites
                .into_iter()
                .map(|(name, acc)| SiteProfile {
                    name,
                    count: acc.count,
                    total_ns: acc.total_ns,
                    self_ns: acc.total_ns.saturating_sub(acc.child_ns),
                    p50_ns: acc.hist.quantile(0.5),
                    p99_ns: acc.hist.quantile(0.99),
                    max_ns: acc.max_ns,
                })
                .collect(),
            edges: edges
                .into_iter()
                .map(|((parent, child), (count, total_ns))| ProfileEdge {
                    parent,
                    child,
                    count,
                    total_ns,
                })
                .collect(),
            paths: paths
                .into_iter()
                .map(|(path, self_us)| StackPath { path, self_us })
                .collect(),
            events: event_counts.into_iter().collect(),
        }
    }

    /// Aggregate the global tracer's current ring.
    pub fn from_ring() -> Profile {
        Profile::build(&super::tracer().ring_snapshot())
    }

    /// Flamegraph-collapsed text: one `path self_us` line per stack
    /// path, sorted — the input format of `flamegraph.pl --collapsed`
    /// and speedscope.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            out.push_str(&p.path);
            out.push(' ');
            out.push_str(&p.self_us.to_string());
            out.push('\n');
        }
        out
    }

    /// Pretty-printed JSON of the whole profile.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_default()
    }

    /// Write the profile to `path`: JSON when the extension is `.json`,
    /// flamegraph-collapsed text otherwise (the same convention as
    /// [`super::export::write_snapshot`]).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let text = if path.extension().is_some_and(|e| e == "json") {
            self.to_json()
        } else {
            self.to_collapsed()
        };
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span record. `Profile::build` links by id and never reads
    /// `depth`, so it is left at 0.
    fn span(
        seq: u64,
        thread: u64,
        id: u64,
        parent: Option<u64>,
        name: &str,
        dur_ns: u64,
    ) -> TraceEvent {
        TraceEvent {
            seq,
            id,
            parent,
            thread,
            depth: 0,
            kind: EventKind::Span,
            name: name.to_string(),
            fields: vec![],
            dur_ns,
        }
    }

    fn instant(seq: u64, thread: u64, id: u64, name: &str) -> TraceEvent {
        TraceEvent {
            seq,
            id,
            parent: None,
            thread,
            depth: 0,
            kind: EventKind::Event,
            name: name.to_string(),
            fields: vec![],
            dur_ns: 0,
        }
    }

    /// Two `outer` calls, each with one `inner` child, plus an instant.
    fn demo_ring() -> Vec<TraceEvent> {
        vec![
            span(0, 0, 1, Some(0), "inner", 300),
            span(1, 0, 0, None, "outer", 1_000),
            instant(2, 0, 2, "tick"),
            span(3, 0, 4, Some(3), "inner", 500),
            span(4, 0, 3, None, "outer", 2_000),
        ]
    }

    #[test]
    fn profile_aggregates_sites_and_edges() {
        let p = Profile::build(&demo_ring());
        assert_eq!(p.spans, 4);
        let outer = p.sites.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.count, 2);
        assert_eq!(outer.total_ns, 3_000);
        assert_eq!(outer.self_ns, 3_000 - 800);
        assert_eq!(outer.max_ns, 2_000);
        let inner = p.sites.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.count, 2);
        assert_eq!(inner.total_ns, 800);
        assert_eq!(inner.self_ns, 800, "leaf spans keep all their time");
        assert_eq!(p.edges.len(), 1);
        assert_eq!(p.edges[0].parent, "outer");
        assert_eq!(p.edges[0].child, "inner");
        assert_eq!(p.edges[0].count, 2);
        assert_eq!(p.edges[0].total_ns, 800);
        assert_eq!(p.events, vec![("tick".to_string(), 1)]);
    }

    #[test]
    fn site_totals_reconcile_with_ring_durations() {
        let ring = demo_ring();
        let p = Profile::build(&ring);
        for site in &p.sites {
            let expect: u64 = ring
                .iter()
                .filter(|e| e.kind == EventKind::Span && e.name == site.name)
                .map(|e| e.dur_ns)
                .sum();
            assert_eq!(site.total_ns, expect, "site {}", site.name);
        }
        // All wall time is attributed exactly once as self time.
        let total_self: u64 = p.sites.iter().map(|s| s.self_ns).sum();
        let total_root: u64 = ring
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.parent.is_none())
            .map(|e| e.dur_ns)
            .sum();
        assert_eq!(total_self, total_root);
    }

    #[test]
    fn threads_are_reconstructed_independently() {
        // Identical shapes on two threads, interleaved in seq order.
        let ring = vec![
            span(0, 0, 1, Some(0), "inner", 100_000),
            span(1, 1, 3, Some(2), "inner", 200_000),
            span(2, 1, 2, None, "outer", 1_000_000),
            span(3, 0, 0, None, "outer", 1_000_000),
        ];
        let p = Profile::build(&ring);
        let edge = &p.edges[0];
        assert_eq!((edge.count, edge.total_ns), (2, 300_000));
        // One shared path per site, both threads' self time folded in.
        assert_eq!(p.paths.len(), 2);
        let outer_path = p.paths.iter().find(|s| s.path == "outer").unwrap();
        assert_eq!(outer_path.self_us, 900 + 800);
    }

    #[test]
    fn children_on_worker_threads_link_to_their_parent() {
        // One epoch on thread 0 whose two inner steps ran on threads 1
        // and 2 at once: both are its children, and their summed time
        // (past the epoch's wall time) leaves it no self time.
        let ring = vec![
            span(0, 2, 11, Some(10), "inner", 700),
            span(1, 1, 12, Some(10), "inner", 600),
            span(2, 0, 10, None, "epoch", 1_000),
        ];
        let p = Profile::build(&ring);
        assert_eq!(p.edges.len(), 1);
        assert_eq!((p.edges[0].count, p.edges[0].total_ns), (2, 1_300));
        let epoch = p.sites.iter().find(|s| s.name == "epoch").unwrap();
        assert_eq!(epoch.self_ns, 0);
        let paths: Vec<&str> = p.paths.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["epoch", "epoch;inner"]);
    }

    #[test]
    fn orphans_survive_ring_truncation_as_roots() {
        // The parent's close fell off the ring: the child is a root.
        let ring = vec![span(0, 0, 3, Some(2), "deep", 400)];
        let p = Profile::build(&ring);
        assert_eq!(p.paths.len(), 1);
        assert_eq!(p.paths[0].path, "deep");
        assert_eq!(p.sites[0].self_ns, 400);
    }

    #[test]
    fn collapsed_output_parses_as_path_space_integer() {
        let p = Profile::build(&demo_ring());
        let text = p.to_collapsed();
        assert!(!text.is_empty());
        for line in text.lines() {
            let (path, n) = line.rsplit_once(' ').expect("space separator");
            assert!(!path.is_empty() && !path.contains(' '), "path {path:?}");
            let _: u64 = n.parse().expect("integer self_us");
            for frame in path.split(';') {
                assert!(!frame.is_empty(), "empty frame in {path:?}");
            }
        }
        // The nested path is present with ';' separators.
        assert!(
            text.lines().any(|l| l.starts_with("outer;inner ")),
            "{text}"
        );
    }

    #[test]
    fn hostile_span_names_cannot_corrupt_collapsed_lines() {
        // A name abusing both structural characters of the collapsed
        // format: ';' (frame separator) and whitespace (count
        // separator), at both depths.
        let ring = vec![
            span(0, 0, 1, Some(0), "inner;evil frame\tname", 300),
            span(1, 0, 0, None, "outer; rm -rf", 1_000),
        ];
        let p = Profile::build(&ring);
        let text = p.to_collapsed();
        for line in text.lines() {
            let (path, n) = line.rsplit_once(' ').expect("space separator");
            assert!(!path.contains(' ') && !path.contains('\t'), "path {path:?}");
            let _: u64 = n.parse().expect("integer self_us");
            for frame in path.split(';') {
                assert!(!frame.is_empty(), "empty frame in {path:?}");
            }
        }
        // Exactly two frames survive, with hostile characters mapped.
        assert!(
            text.lines()
                .any(|l| l.starts_with("outer:_rm_-rf;inner:evil_frame_name ")),
            "{text}"
        );
    }

    #[test]
    fn escape_frame_passes_clean_names_through() {
        assert_eq!(escape_frame("process_batch"), "process_batch");
        assert_eq!(escape_frame("a;b c\nd"), "a:b_c_d");
    }

    #[test]
    fn profile_json_is_well_formed() {
        let p = Profile::build(&demo_ring());
        let v: serde_json::Value = serde_json::from_str(&p.to_json()).unwrap();
        assert_eq!(v["spans"], 4u64);
        assert!(v["sites"].as_array().is_some_and(|s| s.len() == 2));
        assert!(v["edges"].as_array().is_some_and(|e| e.len() == 1));
    }
}
