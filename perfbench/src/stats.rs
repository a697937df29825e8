//! Order statistics over the benchmark's own samples.
//!
//! Every percentile the benchmark reports comes from here, computed on
//! its own sorted samples — never from the engine's power-of-two
//! histogram buckets, whose quantiles are bucket upper bounds.

/// Ascending copy of `values` (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` of an ascending sample, interpolating linearly between
/// the closest ranks at position `q · (n − 1)`.
///
/// # Panics
///
/// Panics on an empty sample or `q` outside `[0, 1]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The fast end a sample is read at where its median follows the host's
/// stalls (the open loop's latency): its 5th percentile, near the
/// undisturbed value without resting on the single luckiest sample.
pub const GATE_Q: f64 = 0.05;

/// [`GATE_Q`] quantile of a "lower is better" sample.
pub fn low(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), GATE_Q)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// "exclusive" method, which extrapolates for two-element samples), so
/// the benchmark's spread figures match the acceptance check's.
///
/// # Panics
///
/// Panics on fewer than two values, as Python does.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, cut) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median — the spread
/// statistic the benchmark's bounds are written against.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The same samples with the first `skip` removed (warm-up), or all of
/// them when that would leave nothing.
pub fn after_warmup(values: &[f64], skip: usize) -> &[f64] {
    if values.len() > skip {
        &values[skip..]
    } else {
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Reference median by definition: the middle element of a sorted
    /// copy, or the mean of the middle two.
    fn oracle_median(values: &[f64]) -> f64 {
        let s = sorted(values);
        let n = s.len();
        if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        }
    }

    /// Reference quantile: for every rank `k` the sorted sample's
    /// `k`-th value sits at quantile `k/(n−1)`; interpolate between the
    /// two ranks bracketing `q`.
    fn oracle_quantile(values: &[f64], q: f64) -> f64 {
        let s = sorted(values);
        if s.len() == 1 {
            return s[0];
        }
        let step = 1.0 / (s.len() - 1) as f64;
        let mut k = 0;
        while k + 1 < s.len() - 1 && (k + 1) as f64 * step <= q {
            k += 1;
        }
        let w = ((q - k as f64 * step) / step).clamp(0.0, 1.0);
        s[k] * (1.0 - w) + s[k + 1] * w
    }

    /// Reference quartiles for `n ≥ 3`: the value at 1-based position
    /// `p · (n + 1)`, interpolated.
    fn oracle_quartiles(values: &[f64]) -> [f64; 3] {
        let s = sorted(values);
        let n = s.len();
        [0.25, 0.5, 0.75].map(|p| {
            let pos = p * (n + 1) as f64;
            let lo = (pos.floor() as usize).clamp(1, n);
            let hi = (lo + 1).min(n);
            s[lo - 1] + (s[hi - 1] - s[lo - 1]) * (pos - lo as f64)
        })
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn helpers_match_sorted_reference_oracles_on_random_samples() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for case in 0..2000 {
            // Tiny samples, odd and even, then larger ones.
            let n = if case < 1000 {
                1 + case % 8
            } else {
                rng.gen_range(9..300)
            };
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_range(0..4) == 0 {
                        // Ties.
                        f64::from(rng.gen_range(0..3u32))
                    } else {
                        rng.gen_range(-1e3..1e3)
                    }
                })
                .collect();
            assert!(close(median(&values), oracle_median(&values)), "{values:?}");
            assert!(close(low(&values), oracle_quantile(&values, GATE_Q)));
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let got = quantile_sorted(&sorted(&values), q);
                let want = oracle_quantile(&values, q);
                assert!(close(got, want), "q={q} {values:?}: {got} vs {want}");
            }
            if n >= 3 {
                let got = quartiles(&values);
                let want = oracle_quartiles(&values);
                for (g, w) in got.iter().zip(&want) {
                    assert!(close(*g, *w), "{values:?}: {got:?} vs {want:?}");
                }
            }
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values printed by CPython's
        // `statistics.quantiles(data, n=4)`.
        let cases: [(&[f64], [f64; 3]); 6] = [
            (&[1.0, 2.0], [0.75, 1.5, 2.25]),
            (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
            (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [1.75, 3.5, 5.25]),
            (&[2.5, -1.0, 7.0, 3.0, 3.0, 9.0, 0.5], [0.5, 3.0, 7.0]),
        ];
        for (data, want) in cases {
            let got = quartiles(data);
            for (g, w) in got.iter().zip(&want) {
                assert!(close(*g, *w), "{data:?}: {got:?} vs {want:?}");
            }
        }
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v = [9.0, 10.0, 10.0, 10.0, 11.0, 10.0, 10.0];
        assert!(iqr_share(&v) < 0.05);
        assert!(close(iqr_share(&[1.0, 2.0, 3.0, 4.0]), 2.5 / 2.5));
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_quantile_panics() {
        quantile_sorted(&[], 0.5);
    }
}
