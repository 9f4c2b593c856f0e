//! Exact sample statistics and phase clocks.
//!
//! Latencies are kept as exact nanosecond samples in plain vectors; the
//! engine's `telemetry::Histogram` rounds to power-of-two buckets, which
//! would turn an 8 µs median into 12 % steps.

use std::time::Instant;

/// Percentiles the reports choose from, ascending, in per mille so that
/// the sample arithmetic is exact.
const REPORTABLE_PER_MILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// A percentile is reported only when at least this many samples lie
/// beyond it.
const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0–100) of an ascending slice, interpolating
/// linearly between the two nearest ranks. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of unsorted values. `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values), 50.0)
}

/// First quartile, median and third quartile of unsorted values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values);
    Some((
        percentile(&s, 25.0)?,
        percentile(&s, 50.0)?,
        percentile(&s, 75.0)?,
    ))
}

/// The highest reportable percentile that still has at least ten of `n`
/// samples beyond it; `None` when even the median does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    REPORTABLE_PER_MILLE
        .iter()
        .rev()
        .find(|&&per_mille| n * (1000 - per_mille) / 1000 >= MIN_BEYOND)
        .map(|&per_mille| per_mille as f64 / 10.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Exact latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, nanos: u64) {
        self.0.push(nanos);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total_nanos(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn max_nanos(&self) -> u64 {
        self.0.iter().copied().max().unwrap_or(0)
    }

    pub fn micros(&self) -> Vec<f64> {
        self.0.iter().map(|&n| n as f64 / 1e3).collect()
    }

    /// The given percentiles in microseconds, from one sort (0 when there
    /// are no samples).
    pub fn percentiles_us<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        let mut s = self.micros();
        s.sort_by(f64::total_cmp);
        ps.map(|p| percentile(&s, p).unwrap_or(0.0))
    }

    pub fn median_us(&self) -> f64 {
        self.percentiles_us([50.0])[0]
    }
}

/// Time `f`, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Process CPU time (user + system, all threads) in seconds, read from
/// `/proc/self/stat`. `None` where that file is missing or malformed.
pub fn process_cpu_seconds() -> Option<f64> {
    /// `sysconf(_SC_CLK_TCK)` is 100 on every Linux the benchmark targets.
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Wall and process-CPU time of one phase. A CPU/wall ratio far from the
/// phase's usual one flags a run disturbed by other load.
pub struct PhaseClock {
    wall: Instant,
    cpu: Option<f64>,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            wall: Instant::now(),
            cpu: process_cpu_seconds(),
        }
    }

    pub fn wall_seconds(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// `(wall seconds, cpu seconds)`; the CPU part is `None` where
    /// `/proc/self/stat` is unreadable.
    pub fn finish(self) -> (f64, Option<f64>) {
        let cpu = match (self.cpu, process_cpu_seconds()) {
            (Some(before), Some(after)) => Some(after - before),
            _ => None,
        };
        (self.wall.elapsed().as_secs_f64(), cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 50.0), Some(2.5));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn quartiles_of_unsorted_values() {
        let (q1, q2, q3) = quartiles(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
        assert!(quartiles(&[]).is_none());
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn samples_report_microseconds() {
        let mut s = Samples::default();
        for n in [1_000, 3_000, 2_000] {
            s.push(n);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_nanos(), 6_000);
        assert_eq!(s.max_nanos(), 3_000);
        assert_eq!(s.percentiles_us([0.0, 50.0, 100.0]), [1.0, 2.0, 3.0]);
        assert_eq!(Samples::default().median_us(), 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let clock = PhaseClock::start();
        let mut x = 0u64;
        while clock.wall_seconds() < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (wall, cpu) = clock.finish();
        assert!(wall >= 0.05);
        // Tick granularity is 10 ms, so only a loose lower bound holds.
        assert!(cpu.expect("/proc/self/stat is readable on Linux") >= 0.02);
    }
}
