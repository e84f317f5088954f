//! Sample statistics and process CPU accounting.

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of all samples at or below it. `None` when fewer
/// than [`TAIL_SAMPLES`] samples lie beyond that rank, so a reported
/// tail always rests on at least ten observations past it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of an ascending slice of whole-unit samples, interpolated
/// within the unit bin it falls in (the grouped-data median): with `b`
/// samples below the median bin `m` and `e` in it, `m - 1/2 + (n/2 - b)/e`.
/// `None` when fewer than [`TAIL_SAMPLES`] samples lie beyond the median.
pub fn interpolated_median(sorted: &[u64]) -> Option<f64> {
    let m = percentile(sorted, 50.0)?;
    let below = sorted.partition_point(|&v| v < m);
    let equal = sorted.partition_point(|&v| v <= m) - below;
    let half = sorted.len() as f64 / 2.0;
    Some(m as f64 - 0.5 + (half - below as f64) / equal as f64)
}

/// Median of a non-empty set of measurements (mean of the middle two
/// for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Process CPU time in microseconds: user + system time summed over
/// every thread, including threads that already exited. This is the
/// `utime + stime` of `/proc/self/stat`, read through the process CPU
/// clock because `/proc` counts in 10 ms ticks, too coarse for a
/// per-op cost over a few seconds.
pub fn process_cpu_us() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout of
    // 64-bit Linux; clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as u64 * 1_000_000 + ts.tv_nsec as u64 / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), Some(50));
        assert_eq!(percentile(&s, 90.0), Some(90));
        assert_eq!(percentile(&s, 0.0), Some(1));
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 99.0), Some(990));
        assert_eq!(percentile(&s, 50.5), Some(505));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&s, 99.0), None, "only 9 samples past rank 990");
        let s: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&s, 99.0).is_some(), "exactly 10 past rank 990");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7; 10], 50.0), None);
        assert_eq!(percentile(&[7; 20], 50.0), Some(7));
    }

    #[test]
    fn interpolated_median_splits_the_median_bin() {
        // 10 samples of 1, 30 of 2, 20 of 3: the median (30th of 60)
        // lies 20/30 of the way through the bin of 2.
        let mut s = vec![1u64; 10];
        s.extend([2; 30]);
        s.extend([3; 20]);
        let m = interpolated_median(&s).expect("enough samples");
        assert!((m - (1.5 + 20.0 / 30.0)).abs() < 1e-12, "{m}");
        let distinct: Vec<u64> = (1..=41).collect();
        assert_eq!(interpolated_median(&distinct), Some(21.0));
        assert_eq!(interpolated_median(&[5; 15]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let (t0, c0) = (Instant::now(), process_cpu_us());
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let cpu = process_cpu_us() - c0;
        assert!(
            cpu >= 20_000,
            "a 60 ms busy loop shows CPU time, got {cpu} µs"
        );
    }
}
