//! The benchmark's statistics: medians, quartiles, the tail percentile and
//! request accounting.

/// Percentiles the tail is chosen from, highest last.  Decades of nines
/// only: between two of them a growing sample count adds samples beyond
/// the tail, which steadies it, instead of moving the tail further out.
const TAIL_CANDIDATES: [f64; 3] = [50.0, 90.0, 99.0];

/// Samples that must lie beyond a percentile before it may serve as the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the same "exclusive" interpolation
/// Python's `statistics.quantiles(values, n=4)` uses, so a figure the
/// benchmark prints can be checked against the standard library.  Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// A latency tail: the highest candidate percentile with at least
/// [`TAIL_MIN_BEYOND`] samples strictly above its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen, e.g. `99.0`.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
    /// All samples.
    pub samples: usize,
}

/// The tail of `values`, or `None` when fewer than `2 × TAIL_MIN_BEYOND`
/// samples leave even the median without enough samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    TAIL_CANDIDATES
        .iter()
        .rev()
        .map(|&p| (p, nearest_rank(n, p)))
        .find(|&(_, rank)| n >= rank && n - rank >= TAIL_MIN_BEYOND)
        .map(|(percentile, rank)| Tail {
            percentile,
            value: sorted[rank - 1],
            beyond: n - rank,
            samples: n,
        })
}

/// Counts per second in each whole `window_s` window of a `wall_s` run:
/// each span's `count` is spread evenly over its (start, end) interval, in
/// seconds since the run began, and every window sums what falls into it.
pub fn window_rates(spans: &[(f64, f64, usize)], wall_s: f64, window_s: f64) -> Vec<f64> {
    let windows = (wall_s / window_s).floor() as usize;
    let mut counts = vec![0.0; windows];
    for &(start, end, count) in spans {
        let length = end - start;
        if length <= 0.0 {
            if let Some(slot) = counts.get_mut((end / window_s) as usize) {
                *slot += count as f64;
            }
            continue;
        }
        let first = (start / window_s).floor() as usize;
        let last = (end / window_s).floor() as usize;
        for (w, slot) in counts.iter_mut().enumerate().take(last + 1).skip(first) {
            let lo = start.max(w as f64 * window_s);
            let hi = end.min((w + 1) as f64 * window_s);
            if hi > lo {
                *slot += count as f64 * (hi - lo) / length;
            }
        }
    }
    counts.iter().map(|c| c / window_s).collect()
}

/// Share of the machine's CPU time stolen by the hypervisor in each of
/// `windows` windows, from cumulative `(seconds, steal ticks, total ticks)`
/// samples taken through the run.  A window takes the last sample at or
/// before its start and the first at or after its end; a window the samples
/// do not bracket reads 0.
pub fn window_steal(samples: &[(f64, u64, u64)], windows: usize, window_s: f64) -> Vec<f64> {
    (0..windows)
        .map(|w| {
            let (lo, hi) = (w as f64 * window_s, (w + 1) as f64 * window_s);
            let before = samples.iter().rev().find(|s| s.0 <= lo);
            let after = samples.iter().find(|s| s.0 >= hi);
            match (before, after) {
                (Some(a), Some(b)) if b.2 > a.2 => {
                    b.1.saturating_sub(a.1) as f64 / (b.2 - a.2) as f64
                }
                _ => 0.0,
            }
        })
        .collect()
}

/// Which windows count: those whose stolen share is at most `max_steal`,
/// or, when fewer than half qualify, the quieter half (steal at most the
/// median), so a run contended throughout still counts half its windows.
pub fn quiet_windows(steal: &[f64], max_steal: f64) -> Vec<bool> {
    let below = steal.iter().filter(|&&s| s <= max_steal).count();
    let cutoff = if 2 * below >= steal.len() {
        max_steal
    } else {
        median(steal).unwrap_or(max_steal)
    };
    steal.iter().map(|&s| s <= cutoff).collect()
}

/// Whether the window holding time `t` (seconds since the run began) is
/// quiet; time past the last whole window takes that window's verdict.  A
/// request is judged by the window it ends in alone, so how likely it is to
/// be left out does not depend on how long it took.
pub fn quiet_at(t: f64, quiet: &[bool], window_s: f64) -> bool {
    let Some(last) = quiet.len().checked_sub(1) else {
        return true;
    };
    quiet[((t / window_s).floor() as usize).min(last)]
}

/// How one request ended, from the caller's side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The full report arrived.
    Completed,
    /// The service refused the request at admission (REJECTED).
    Rejected,
    /// The request failed after admission (an ERROR frame, a transport
    /// fault or an in-process error).
    Failed,
}

/// Attempted and failed request counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests started.
    pub attempted: usize,
    /// Requests that did not deliver a report; a rejection counts.
    pub failed: usize,
}

impl Tally {
    /// Records one request.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Completed {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Self) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Completed ÷ attempted: `1 − failed_ratio`.
    pub fn completed_ratio(&self) -> f64 {
        1.0 - self.failed_ratio()
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 1-based nearest rank of percentile `p`, in exact integer arithmetic on
/// tenths of a percent so that e.g. p99.9 of 10 000 samples is rank 9990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), Some([4.0, 7.0, 10.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p99 only 1.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        // 99 samples: p90 ranks 90th and leaves 9, so the median is the tail.
        let t = tail(&ramp(99)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 50.0, 49));
        // 999 samples stay at p90; 1000 reach p99, and more samples add
        // samples beyond it.
        assert_eq!(tail(&ramp(999)).unwrap().percentile, 90.0);
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(20_000)).unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 200));
        // 20 samples: only the median qualifies; 19 leave nothing.
        assert_eq!(tail(&ramp(20)).unwrap().percentile, 50.0);
        assert_eq!(tail(&ramp(19)), None);
    }

    #[test]
    fn window_rates_spread_requests_over_their_duration() {
        // Back-to-back requests of 10 cells every 0.4 s: 25 cells/s in
        // every window, although no window holds a whole number of them.
        let steady: Vec<_> = (0..25)
            .map(|i| (i as f64 * 0.4, (i + 1) as f64 * 0.4, 10))
            .collect();
        let rates = window_rates(&steady, 10.0, 1.0);
        assert_eq!(rates.len(), 10);
        assert!(rates.iter().all(|r| (r - 25.0).abs() < 1e-9), "{rates:?}");
        // One request stretched over 2 s: two slow windows, median unmoved.
        let mut stalled = steady[..5].to_vec();
        stalled.push((2.0, 4.0, 10));
        stalled.extend(steady[6..].iter().map(|&(a, b, c)| (a + 1.6, b + 1.6, c)));
        let rates = window_rates(&stalled, 10.0, 1.0);
        assert!((rates[2] - 5.0).abs() < 1e-9 && (rates[3] - 5.0).abs() < 1e-9);
        assert!((median(&rates).unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn steal_marks_contended_windows() {
        // Samples every 0.5 s; 100 ticks per second, of which window 2
        // loses 40 to other tenants and the rest lose 1.
        let mut samples = Vec::new();
        let (mut steal, mut total) = (0, 0);
        for i in 0..=10u64 {
            samples.push((i as f64 * 0.5, steal, total));
            steal += if i / 2 == 2 { 20 } else { 0 } + u64::from(i % 2 == 0);
            total += 50;
        }
        let shares = window_steal(&samples, 5, 1.0);
        assert!((shares[2] - 0.41).abs() < 1e-9, "{shares:?}");
        assert!((shares[0] - 0.01).abs() < 1e-9, "{shares:?}");
        let quiet = quiet_windows(&shares, 0.05);
        assert_eq!(quiet, [true, true, false, true, true]);
        assert!(quiet_at(1.9, &quiet, 1.0));
        assert!(!quiet_at(2.1, &quiet, 1.0));
        assert!(quiet_at(3.0, &quiet, 1.0));
        assert!(quiet_at(5.7, &quiet, 1.0));
        assert!(quiet_at(0.5, &[], 1.0));
        // Mostly contended: the quieter half counts.
        assert_eq!(
            quiet_windows(&[0.3, 0.1, 0.2, 0.0], 0.05),
            [false, true, false, true]
        );
        assert_eq!(quiet_windows(&[0.3, 0.3, 0.0], 0.05), [true, true, true]);
        // Samples that do not bracket a window read 0.
        assert_eq!(window_steal(&samples[..2], 2, 1.0), [0.0, 0.0]);
    }

    #[test]
    fn a_rejection_counts_as_failed() {
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Completed,
            Outcome::Rejected,
            Outcome::Completed,
            Outcome::Failed,
        ] {
            tally.record(outcome);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        assert_eq!(tally.failed_ratio(), 0.5);
        assert_eq!(tally.completed_ratio(), 0.5);
        let mut only_rejected = Tally::default();
        only_rejected.record(Outcome::Rejected);
        assert_eq!(only_rejected.failed_ratio(), 1.0);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
