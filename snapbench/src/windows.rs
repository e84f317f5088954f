//! Sub-windows and latency percentiles. A measured window is cut into
//! equal sub-windows; a rate or cost is computed per sub-window and
//! reported as the median over them, so a burst of interference from
//! outside the process moves the figure only if it covers half the
//! window. Latency percentiles are pooled over the whole window.

use crate::report::Outcome;
use crate::stats::{median, percentile, process_cpu_us};
use std::time::{Duration, Instant};

/// Readings taken across a window (the window is `MARKS` intervals).
pub const MARKS: u32 = 40;
/// Sub-windows a rate is taken over; divides `MARKS`.
const SUB_WINDOWS: u32 = 20;

/// One reading of the window's counters.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// When it was taken.
    pub at: Instant,
    /// Process CPU µs.
    pub cpu_us: u64,
    /// Operations completed so far.
    pub ops: u64,
}

impl Mark {
    /// A reading now.
    pub fn now(ops: u64) -> Mark {
        Mark {
            at: Instant::now(),
            cpu_us: process_cpu_us(),
            ops,
        }
    }
}

/// Takes `MARKS + 1` readings, the first now and then every
/// `window / MARKS` (on absolute deadlines), reading the op count from
/// `ops`.
pub fn mark_window(window: Duration, ops: impl Fn() -> u64) -> Vec<Mark> {
    let first = Mark::now(ops());
    let step = window / MARKS;
    let mut marks = vec![first];
    for k in 1..=MARKS {
        let due = first.at + step * k;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        marks.push(Mark::now(ops()));
    }
    marks
}

/// Per sub-window of `stride` mark intervals: operations per wall
/// second and CPU µs per operation.
pub fn rates(marks: &[Mark], stride: usize) -> (Vec<f64>, Vec<f64>) {
    marks
        .windows(stride + 1)
        .step_by(stride)
        .map(|w| {
            let (a, b) = (w[0], w[stride]);
            let ops = (b.ops - a.ops).max(1) as f64;
            (
                ops / (b.at - a.at).as_secs_f64(),
                (b.cpu_us - a.cpu_us) as f64 / ops,
            )
        })
        .unzip()
}

/// Records `cpu_us_per_op`, and `ops_per_s` unless the caller measures it
/// otherwise, as medians over the sub-windows.
pub fn report_rates(out: &mut Outcome, marks: &[Mark], with_ops_per_s: bool) {
    let (per_s, cpu) = rates(marks, (MARKS / SUB_WINDOWS) as usize);
    let ops = Some(marks[marks.len() - 1].ops - marks[0].ops);
    if with_ops_per_s {
        out.e2e("ops_per_s", median(&per_s), ops);
    }
    out.e2e("cpu_us_per_op", median(&cpu), ops);
}

/// Records the p50 and p99 of the latencies `lat_ns`, pooled over the
/// whole window, under the given names, each with its sample count.
pub fn report_latency(out: &mut Outcome, lat_ns: &[u64], p50: &'static str, p99: &'static str) {
    let mut sorted = lat_ns.to_vec();
    sorted.sort_unstable();
    for (name, p) in [(p50, 50.0), (p99, 99.0)] {
        if let Some(v) = percentile(&sorted, p) {
            out.e2e(name, v as f64 / 1e3, Some(sorted.len() as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marks(t0: Instant, ops_per_mark: u64) -> Vec<Mark> {
        (0..=MARKS as u64)
            .map(|k| Mark {
                at: t0 + Duration::from_millis(100 * k),
                cpu_us: 1_000 * k,
                ops: ops_per_mark * k,
            })
            .collect()
    }

    #[test]
    fn rates_are_taken_per_sub_window() {
        let m = marks(Instant::now(), 50);
        let mut out = Outcome::default();
        report_rates(&mut out, &m, true);
        assert_eq!(out.e2e[0].value, 500.0, "50 ops per 100 ms");
        assert_eq!(out.e2e[1].value, 20.0, "1000 µs CPU per 50 ops");
    }

    #[test]
    fn latency_percentiles_are_pooled_over_the_window() {
        // A stall in one stretch of the window shows in the pooled p99.
        let mut lat: Vec<u64> = (0..1970).map(|i| 1_000 + i % 7).collect();
        lat.extend([500_000; 30]);
        let mut out = Outcome::default();
        report_latency(&mut out, &lat, "p50", "p99");
        assert_eq!(out.e2e[0].value, 1.003);
        assert_eq!(out.e2e[0].samples, Some(2000));
        assert_eq!(
            out.e2e[1].value, 500.0,
            "the 30 stalled samples hold the p99"
        );
        let mut none = Outcome::default();
        report_latency(&mut none, &lat[..500], "p50", "p99");
        assert_eq!(none.e2e.len(), 1, "500 samples carry a p50 but no p99");
    }
}
