//! Sample statistics of the benchmark: nearest-rank percentiles over
//! latency samples in which a failed or shed session counts as a miss.

/// Latencies of every attempted session of one group (a QoS class, or
/// the workload's primary sessions). A session that failed or was shed
/// is a **miss**: it ranks above every completed session, so it misses
/// any latency limit a percentile is compared against.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    completed: Vec<f64>,
    misses: usize,
}

impl Latencies {
    /// Records one attempted session: `Some(seconds)` when it completed,
    /// `None` when it failed or was shed.
    pub fn record(&mut self, latency_s: Option<f64>) {
        match latency_s {
            Some(s) => self.completed.push(s),
            None => self.misses += 1,
        }
    }

    /// Sessions attempted.
    pub fn attempted(&self) -> usize {
        self.completed.len() + self.misses
    }

    /// Sessions that failed or were shed.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Completed latencies, in recording order.
    pub fn completed(&self) -> &[f64] {
        &self.completed
    }

    /// Nearest-rank percentile `q` (in `0..=1`) over every attempted
    /// session, in seconds. Returns `f64::INFINITY` when the rank falls on
    /// a miss and `0.0` when nothing was attempted.
    pub fn percentile(&self, q: f64) -> f64 {
        let n = self.attempted();
        if n == 0 {
            return 0.0;
        }
        let rank = nearest_rank(n, q);
        if rank > self.completed.len() {
            return f64::INFINITY;
        }
        let mut sorted = self.completed.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[rank - 1]
    }

    /// Samples ranked above percentile `q`: the percentile is worth
    /// reporting only when this is at least ten.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.attempted();
        if n == 0 {
            0
        } else {
            n - nearest_rank(n, q)
        }
    }
}

/// The median over windows of each window's percentile `q` (windows with
/// no attempts are skipped): a typical-window percentile that a few
/// slow seconds in one part of a run cannot move.
pub fn windowed_percentile(windows: &[Latencies], q: f64) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .filter(|w| w.attempted() > 0)
        .map(|w| w.percentile(q))
        .collect();
    median(&per_window)
}

/// Tail percentile `q` of a run cut into `slices`: the median of the
/// slices' percentiles when every slice holds at least ten samples beyond
/// its percentile, else the percentile over the `whole` run. Returns the
/// value and how many slices it came from.
pub fn tail_percentile(slices: &[Latencies], whole: &Latencies, q: f64) -> (f64, usize) {
    if slices.len() > 1 && slices.iter().all(|s| s.beyond(q) >= 10) {
        (windowed_percentile(slices, q), slices.len())
    } else {
        (whole.percentile(q), 1)
    }
}

/// 1-based nearest rank of percentile `q` among `n > 0` samples.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Arithmetic mean (`0.0` for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median by nearest rank (`0.0` for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), 0.5) - 1]
}

/// `part / whole`, or `0.0` when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(values: &[f64], misses: usize) -> Latencies {
        let mut l = Latencies::default();
        for &v in values {
            l.record(Some(v));
        }
        for _ in 0..misses {
            l.record(None);
        }
        l
    }

    #[test]
    fn nearest_rank_percentiles() {
        let l = set(&[5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0], 0);
        assert_eq!(l.percentile(0.5), 5.0);
        assert_eq!(l.percentile(0.9), 9.0);
        assert_eq!(l.percentile(0.99), 10.0);
        assert_eq!(l.percentile(0.0), 1.0);
        assert_eq!(l.percentile(1.0), 10.0);
        assert_eq!(l.beyond(0.5), 5);
        assert_eq!(l.beyond(0.9), 1);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = set(&values, 0);
        assert_eq!(l.percentile(0.99), 990.0);
        assert_eq!(l.beyond(0.99), 10);
        assert_eq!(set(&values[..999], 0).beyond(0.99), 9);
    }

    #[test]
    fn failures_count_as_misses_in_percentiles() {
        // Nine fast sessions and one failure: the failure occupies the top
        // rank, so p90 is still a completed latency but p99 is a miss.
        let l = set(&[1.0; 9], 1);
        assert_eq!(l.attempted(), 10);
        assert_eq!(l.misses(), 1);
        assert_eq!(l.percentile(0.9), 1.0);
        assert_eq!(l.percentile(0.99), f64::INFINITY);
        // Half the sessions shed: the median itself misses.
        let l = set(&[1.0, 2.0], 3);
        assert_eq!(l.percentile(0.5), f64::INFINITY);
        assert_eq!(l.completed(), &[1.0, 2.0]);
    }

    #[test]
    fn windowed_median_ignores_one_slow_window() {
        let windows = [
            set(&[1.0, 2.0, 3.0], 0),
            set(&[2.0, 2.0, 2.0], 0),
            set(&[40.0, 50.0, 60.0], 0),
            Latencies::default(),
        ];
        assert_eq!(windowed_percentile(&windows, 0.5), 2.0);
        // A window whose median session failed is a miss like any other.
        let windows = [set(&[1.0], 2), set(&[1.0], 2), set(&[3.0], 0)];
        assert_eq!(windowed_percentile(&windows, 0.5), f64::INFINITY);
    }

    #[test]
    fn tail_percentile_slices_only_with_ten_beyond_each() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let slices = [
            set(&values, 0),
            set(&values, 0),
            set(&values.iter().map(|v| v * 10.0).collect::<Vec<_>>(), 0),
        ];
        let mut whole = Latencies::default();
        for s in &slices {
            for &v in s.completed() {
                whole.record(Some(v));
            }
        }
        // Ten beyond p99 in every slice: the slow slice is outvoted.
        assert_eq!(tail_percentile(&slices, &whole, 0.99), (990.0, 3));
        // Nine beyond p99 in a slice: the whole run decides.
        let short = [set(&values[..999], 0), set(&values, 0), set(&values, 0)];
        let (value, from) = tail_percentile(&short, &whole, 0.99);
        assert_eq!(from, 1);
        assert_eq!(value, whole.percentile(0.99));
    }

    #[test]
    fn empty_sets_are_zero() {
        let l = Latencies::default();
        assert_eq!(l.percentile(0.5), 0.0);
        assert_eq!(l.beyond(0.5), 0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
