//! Step-level timing and operation accounting.
//!
//! Table III of the paper breaks one training epoch into five steps —
//! loading data, transforming the format, inner optimization, calculating
//! the meta-losses, backward propagation — and §III-F counts "atomic
//! env-loss operations" (one forward or backward pass over one
//! environment). [`StepTimer`] reproduces the former, [`OpCounter`] the
//! latter; the complexity claims (O(2M²) vs O(4M)) are asserted on
//! [`OpCounter`] in tests so they hold exactly, not just in wall-clock.

use std::time::{Duration, Instant};

/// The five steps of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum Step {
    /// Loading the (already materialized) environment batches.
    LoadData,
    /// Transforming raw features into the multi-hot format.
    TransformFormat,
    /// Inner-loop optimization (per-env loss + gradient + step).
    InnerOptimization,
    /// Calculating the meta-losses.
    MetaLoss,
    /// The outer backward propagation and parameter update.
    Backward,
}

impl Step {
    /// All steps in Table III order.
    pub const ALL: [Step; 5] = [
        Step::LoadData,
        Step::TransformFormat,
        Step::InnerOptimization,
        Step::MetaLoss,
        Step::Backward,
    ];

    /// Table III row label.
    pub fn label(self) -> &'static str {
        match self {
            Step::LoadData => "loading data",
            Step::TransformFormat => "transforming the format",
            Step::InnerOptimization => "inner optimization",
            Step::MetaLoss => "calculating the meta-losses",
            Step::Backward => "backward propagation",
        }
    }
}

/// Accumulates wall-clock time per step.
#[derive(Debug, Clone, Default)]
pub struct StepTimer {
    totals: [Duration; 5],
    epoch_total: Duration,
}

impl StepTimer {
    /// Fresh timer with all steps at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure and charge it to `step`.
    pub fn time<T>(&mut self, step: Step, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed();
        self.totals[step_index(step)] += dt;
        self.epoch_total += dt;
        out
    }

    /// Total time charged to a step.
    pub fn total(&self, step: Step) -> Duration {
        self.totals[step_index(step)]
    }

    /// Sum of all charged time (the "whole epoch" row).
    pub fn epoch_total(&self) -> Duration {
        self.epoch_total
    }

    /// Merge another timer's accumulations into this one.
    pub fn merge(&mut self, other: &StepTimer) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += *b;
        }
        self.epoch_total += other.epoch_total;
    }
}

fn step_index(step: Step) -> usize {
    Step::ALL
        .iter()
        .position(|&s| s == step)
        .expect("step in ALL")
}

/// Counts atomic env-loss operations exactly as the paper's §III-F does:
/// one unit per forward (loss) or backward (gradient) pass over one
/// environment. The paper's per-iteration totals — `2M²` for meta-IRM,
/// `4M` for LightMIRM — are `forward + backward` here; Hessian-vector
/// products (the second-order cost the paper mentions but leaves out of
/// its operation count) are tracked separately in `hvp`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct OpCounter {
    /// Forward passes (env losses).
    pub forward: u64,
    /// Backward passes (env gradients).
    pub backward: u64,
    /// Hessian-vector products (second-order backward passes).
    pub hvp: u64,
}

impl OpCounter {
    /// Fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` forward passes.
    pub fn add_forward(&mut self, n: u64) {
        self.forward += n;
    }

    /// Record `n` backward passes.
    pub fn add_backward(&mut self, n: u64) {
        self.backward += n;
    }

    /// Record `n` Hessian-vector products.
    pub fn add_hvp(&mut self, n: u64) {
        self.hvp += n;
    }

    /// First-order atomic operations — the quantity §III-F counts.
    pub fn total(&self) -> u64 {
        self.forward + self.backward
    }
}

/// A fixed-footprint power-of-two histogram for serving telemetry
/// (request latencies in nanoseconds, queue depths in requests).
///
/// Values are binned by bit length: bucket `b` covers `[2^(b−1), 2^b)`
/// (bucket 0 holds exactly zero). 64 buckets cover the full `u64` range,
/// so recording never saturates or allocates — cheap enough to sit inside
/// the scoring engine's request path. Quantiles are resolved to the upper
/// bound of the containing bucket, i.e. within 2× of the true value,
/// which is the precision latency percentiles are quoted at.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        let bucket = 64 - value.leading_zeros() as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Record a [`Duration`] in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The quantile `q ∈ [0, 1]`, resolved to the upper bound of the
    /// bucket containing it, clamped to the recorded min/max. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// How many observations exceed `threshold`, at bucket resolution.
    ///
    /// Each observation is estimated at the upper bound of its bucket
    /// clamped to `[min, max]` — the same estimate [`quantile`](Self::quantile)
    /// uses — so the two stay consistent: `count_above(quantile(q))`
    /// never exceeds `(1 − q) · count` by more than one bucket's worth.
    /// The SLO burn-rate engine uses this as its bad-event counter.
    pub fn count_above(&self, threshold: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let mut above = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let upper = match b {
                0 => 0,
                64 => u64::MAX,
                _ => (1u64 << b) - 1,
            };
            if upper.clamp(self.min, self.max) > threshold {
                above += n;
            }
        }
        above
    }

    /// The raw per-bucket counts (65 power-of-two buckets; see type docs).
    pub fn bucket_counts(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Merge another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_accumulates_per_step() {
        let mut t = StepTimer::new();
        let v = t.time(Step::MetaLoss, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        t.time(Step::InnerOptimization, || {
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(t.total(Step::MetaLoss) >= Duration::from_millis(5));
        assert!(t.total(Step::LoadData).is_zero());
        assert!(t.epoch_total() >= t.total(Step::MetaLoss));
    }

    #[test]
    fn merge_adds_totals() {
        let mut a = StepTimer::new();
        a.time(Step::MetaLoss, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let mut b = StepTimer::new();
        b.time(Step::MetaLoss, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        let before = a.total(Step::MetaLoss);
        a.merge(&b);
        assert!(a.total(Step::MetaLoss) > before);
    }

    #[test]
    fn op_counter_totals() {
        let mut c = OpCounter::new();
        c.add_forward(3);
        c.add_backward(2);
        assert_eq!(c.total(), 5);
        assert_eq!(c.forward, 3);
        assert_eq!(c.backward, 2);
    }

    #[test]
    fn step_labels_match_table_iii() {
        assert_eq!(Step::MetaLoss.label(), "calculating the meta-losses");
        assert_eq!(Step::ALL.len(), 5);
    }

    #[test]
    fn histogram_empty_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // p50's true value is 500; the bucket upper bound is 511.
        let p50 = h.quantile(0.5);
        assert!((500..=1023).contains(&p50), "p50 {p50}");
        // p99 true value 990, bucket upper bound 1023 clamped to max 1000.
        let p99 = h.quantile(0.99);
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        // Quantiles never move backwards.
        assert!(h.quantile(0.99) >= h.quantile(0.5));
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_merge_combines_counts() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1000);
        b.record_duration(Duration::from_nanos(3));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), 3);
        assert_eq!(a.max(), 1000);
    }
}
