//! Property tests for the observability primitives: the power-of-two
//! [`Histogram`] behind every latency metric, and the
//! [`MetricsRegistry`] / [`MetricsSnapshot`] merge algebra the exporters
//! and the CLI's cross-engine folding rely on.

use lightmirm_core::obs::{MetricValue, MetricsRegistry};
use lightmirm_core::timing::Histogram;
use proptest::prelude::*;

fn from_values(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The exact bucket a value must land in: 0 for zero, else
/// `64 − leading_zeros` so bucket `b` covers `[2^(b−1), 2^b)`.
fn expected_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

proptest! {
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..1 << 40, 0..50),
        b in proptest::collection::vec(0u64..1 << 40, 0..50),
        c in proptest::collection::vec(0u64..1 << 40, 0..50),
    ) {
        let (ha, hb, hc) = (from_values(&a), from_values(&b), from_values(&c));
        // (a ⊕ b) ⊕ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        // a ⊕ (b ⊕ c)
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn histogram_merge_equals_recording_concatenation(
        a in proptest::collection::vec(0u64..1 << 40, 0..60),
        b in proptest::collection::vec(0u64..1 << 40, 0..60),
    ) {
        let mut merged = from_values(&a);
        merged.merge(&from_values(&b));
        let concat: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged, from_values(&concat));
    }

    #[test]
    fn power_of_two_boundaries_land_exactly(k in 1u32..63) {
        // 2^k − 1 is the last value of bucket k; 2^k the first of k+1.
        let below = (1u64 << k) - 1;
        let at = 1u64 << k;
        let h = from_values(&[below, at]);
        prop_assert_eq!(h.bucket_counts()[k as usize], 1);
        prop_assert_eq!(h.bucket_counts()[k as usize + 1], 1);
        prop_assert_eq!(expected_bucket(below), k as usize);
        prop_assert_eq!(expected_bucket(at), k as usize + 1);
    }

    #[test]
    fn every_value_lands_in_its_derived_bucket(v in 0u64..u64::MAX) {
        let h = from_values(&[v]);
        prop_assert_eq!(h.bucket_counts()[expected_bucket(v)], 1);
        prop_assert_eq!(h.count(), 1);
        // A single observation pins every quantile to itself.
        prop_assert_eq!(h.quantile(0.0), v);
        prop_assert_eq!(h.quantile(1.0), v);
    }

    #[test]
    fn quantiles_are_bracketed_by_min_and_max(
        values in proptest::collection::vec(0u64..1 << 30, 1..80),
        q in 0.0f64..1.0,
    ) {
        let h = from_values(&values);
        let est = h.quantile(q);
        prop_assert!(est >= h.min());
        prop_assert!(est <= h.max());
    }

    #[test]
    fn snapshot_after_merge_equals_merge_after_snapshot(
        a in proptest::collection::vec((0usize..4, 1u64..1000), 0..40),
        b in proptest::collection::vec((0usize..4, 1u64..1000), 0..40),
    ) {
        // Names 0/1 are counters, 2/3 histograms, spread across shards.
        let names = ["alpha_total", "beta_total", "gamma_ns", "delta_ns"];
        let fill = |ops: &[(usize, u64)]| {
            let reg = MetricsRegistry::new();
            for &(which, v) in ops {
                match which {
                    0 | 1 => reg.counter(names[which], &[]).add(v),
                    _ => reg.histogram(names[which], &[]).record(v),
                }
            }
            reg
        };
        let (ra, rb) = (fill(&a), fill(&b));
        let (sa, sb) = (ra.snapshot(), rb.snapshot());

        // merge-after-snapshot: fold both snapshots into a live registry.
        let live = MetricsRegistry::new();
        live.merge_snapshot(&sa);
        live.merge_snapshot(&sb);

        // snapshot-after-merge: merge the two frozen snapshots.
        let mut frozen = sa.clone();
        frozen.merge(&sb);

        prop_assert_eq!(live.snapshot(), frozen);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_bucket_counts(
        a in proptest::collection::vec(1u64..1000, 0..40),
        b in proptest::collection::vec(1u64..1000, 0..40),
    ) {
        let reg_a = MetricsRegistry::new();
        let reg_b = MetricsRegistry::new();
        for &v in &a {
            reg_a.counter("n_total", &[]).add(v);
            reg_a.histogram("lat_ns", &[]).record(v);
        }
        for &v in &b {
            reg_b.counter("n_total", &[]).add(v);
            reg_b.histogram("lat_ns", &[]).record(v);
        }
        let mut merged = reg_a.snapshot();
        merged.merge(&reg_b.snapshot());
        let total: u64 = a.iter().chain(&b).sum();
        match merged.get("n_total", &[]) {
            Some(MetricValue::Counter(v)) => prop_assert_eq!(*v, total),
            other => prop_assert!(false, "expected counter, got {:?}", other),
        }
        match merged.get("lat_ns", &[]) {
            Some(MetricValue::Histogram(h)) => {
                prop_assert_eq!(h.count(), (a.len() + b.len()) as u64);
                prop_assert_eq!(h.sum(), total);
            }
            other => prop_assert!(false, "expected histogram, got {:?}", other),
        }
    }

    /// Merge is lossless for count/sum and keeps the tail quantiles
    /// honest: `quantile(q)` on a merged histogram lands within one
    /// power-of-two bucket of the exact order statistic computed from
    /// the sorted concatenation of the raw samples. This is the
    /// contract the stage-waterfall p99/p99.9 attribution in
    /// `ops-report` leans on when it folds per-shard histograms.
    #[test]
    fn merge_preserves_count_sum_and_brackets_tail_quantiles(
        a in proptest::collection::vec(1u64..1 << 40, 1..120),
        b in proptest::collection::vec(1u64..1 << 40, 1..120),
    ) {
        let mut merged = from_values(&a);
        merged.merge(&from_values(&b));
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(merged.count(), all.len() as u64);
        prop_assert_eq!(merged.sum(), all.iter().sum::<u64>());
        all.sort_unstable();
        for q in [0.99f64, 0.999] {
            // Same rank convention as `Histogram::quantile`: the
            // ceil(q·n)-th smallest sample, 1-indexed.
            let rank = (((q * all.len() as f64).ceil()) as usize).max(1);
            let exact = all[rank - 1];
            let est = merged.quantile(q);
            // The estimate is the exact sample's bucket upper bound
            // clamped to the observed [min, max]: never below the true
            // order statistic, never 2x or more above it.
            prop_assert!(
                est >= exact,
                "q={} estimate {} below exact order statistic {}",
                q, est, exact
            );
            prop_assert!(
                est < exact.saturating_mul(2),
                "q={} estimate {} escaped exact {}'s power-of-two bucket",
                q, est, exact
            );
        }
    }

    /// `count_above` agrees with a per-sample oracle that applies the
    /// same bucket-upper-bound estimate (clamped to the observed range)
    /// to each raw value — the SLO burn-rate math counts "bad" requests
    /// through exactly this lens.
    #[test]
    fn count_above_matches_per_value_bucket_estimates(
        values in proptest::collection::vec(0u64..1 << 40, 1..80),
        threshold in 0u64..1 << 41,
    ) {
        let h = from_values(&values);
        let estimate = |v: u64| -> u64 {
            let b = expected_bucket(v);
            let upper = match b {
                0 => 0,
                64 => u64::MAX,
                _ => (1u64 << b) - 1,
            };
            upper.clamp(h.min(), h.max())
        };
        let expect = values.iter().filter(|&&v| estimate(v) > threshold).count() as u64;
        prop_assert_eq!(h.count_above(threshold), expect);
    }
}

#[test]
fn counters_are_monotone_under_concurrent_increments() {
    let reg = MetricsRegistry::new();
    let counter = reg.counter("spins_total", &[]);
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let c = counter.clone();
            s.spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            });
        }
        // Reader thread: every observed value must be >= the previous.
        let c = counter.clone();
        s.spawn(move || {
            let mut last = 0u64;
            for _ in 0..1_000 {
                let now = c.get();
                assert!(now >= last, "counter went backwards: {last} -> {now}");
                last = now;
            }
        });
    });
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}
