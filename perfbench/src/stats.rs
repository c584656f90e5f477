//! Order statistics for step-time samples, and the metric-name grammar.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The tail percentile every run reports (`step_wall_ms_p90`).
pub const TAIL_PERCENTILE: u32 = 90;

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the benchmark's own figures and the acceptance check agree.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of
/// the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `1..=100`.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    assert!((1..=100).contains(&p), "percentile {p} out of range");
    let s = sorted(values);
    let rank = (p as usize * s.len()).div_ceil(100);
    s[rank - 1]
}

/// The highest whole percentile that still has at least
/// [`TAIL_SAMPLES`] samples beyond it among `n`, or `None` if `n` is too
/// small for any. A run may report percentile `p` only if this is ≥ `p`.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    // Samples beyond the p-th percentile: n − ⌈p·n/100⌉ ≥ TAIL_SAMPLES.
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub((p as usize * n).div_ceil(100)) >= TAIL_SAMPLES)
}

/// Fewest samples for which [`TAIL_PERCENTILE`] is supported.
pub fn min_samples_for_tail() -> usize {
    (1..)
        .find(|&n| highest_supported_percentile(n).is_some_and(|p| p >= TAIL_PERCENTILE))
        .expect("some sample count supports the tail percentile")
}

/// One line describing a step-time sample: count, quartiles, median and
/// the tail percentile.
pub fn describe(values: &[f64]) -> String {
    let (q1, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (values[0], values[0])
    };
    format!(
        "n {}, q1 {q1:.4}, median {:.4}, q3 {q3:.4}, p{TAIL_PERCENTILE} {:.4}",
        values.len(),
        median(values),
        percentile(values, TAIL_PERCENTILE)
    )
}

/// Whether `name` is a valid metric name: non-empty, at most 64
/// characters of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of no samples");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), (1.5, 8.0));
        // statistics.quantiles([2, 4], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[2.0, 4.0]), (1.5, 4.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50), 5.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(11), Some(9));
        assert_eq!(highest_supported_percentile(99), Some(89));
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(min_samples_for_tail(), 100);
        // The rule's promise, checked directly on the reported sample.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&v, 90);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "step_wall_ms_p50",
            "nn.forward_ms",
            "comm.wire_beta_ms_per_elem",
            "0x-1",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "ünï",
            "a/b",
            "x:y",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
