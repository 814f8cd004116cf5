//! The estimators: position-wise minima over replays of one fixed
//! request sequence, and what is derived from them.
//!
//! A replay times the same `N` requests in the same order, so sample
//! `t[i][r]` (position `i`, replay `r`) always measures the same work.
//! Host noise on a shared VM only ever *adds* time, so `min_r t[i][r]`
//! converges on the quiet-machine cost of request `i`; the mean of the
//! minima repeats within a few percent where a mean or median of wall
//! time swings by 20–50 % (see the README for the figures).

/// All samples of one timed pass: `replays × positions` nanoseconds,
/// allocated once up front so recording never allocates mid-run.
pub struct Samples {
    positions: usize,
    ns: Vec<u32>,
    replays: usize,
}

impl Samples {
    /// Room for `replays` replays of `positions` requests.
    pub fn new(positions: usize, replays: usize) -> Samples {
        assert!(positions > 0, "a pass times at least one request");
        Samples {
            positions,
            ns: vec![0; positions * replays],
            replays: 0,
        }
    }

    /// The slot for the next replay's samples; fill every position.
    pub fn next_replay(&mut self) -> &mut [u32] {
        let start = self.replays * self.positions;
        self.replays += 1;
        &mut self.ns[start..start + self.positions]
    }

    fn recorded(&self) -> &[u32] {
        &self.ns[..self.replays * self.positions]
    }

    /// `min_r t[i][r]` for every position `i`.
    pub fn position_mins(&self) -> Vec<u32> {
        let mut mins = vec![u32::MAX; self.positions];
        for replay in self.recorded().chunks_exact(self.positions) {
            for (m, &t) in mins.iter_mut().zip(replay) {
                *m = (*m).min(t);
            }
        }
        mins
    }

    /// Share of samples more than `factor ×` their position's minimum —
    /// how noisy the host was while this pass ran.
    pub fn noisy_share(&self, factor: f64) -> f64 {
        let mins = self.position_mins();
        let recorded = self.recorded();
        if recorded.is_empty() {
            return 0.0;
        }
        let noisy = recorded
            .chunks_exact(self.positions)
            .flat_map(|replay| replay.iter().zip(&mins))
            .filter(|(&t, &m)| f64::from(t) > factor * f64::from(m))
            .count();
        noisy as f64 / recorded.len() as f64
    }
}

/// Clamp a nanosecond reading into a sample slot.
pub fn sample_ns(elapsed: std::time::Duration) -> u32 {
    u32::try_from(elapsed.as_nanos()).unwrap_or(u32::MAX)
}

/// Σ of the per-position minima, nanoseconds.
pub fn sum_ns(mins: &[u32]) -> u64 {
    mins.iter().map(|&m| u64::from(m)).sum()
}

/// Mean of the per-position minima, microseconds (0 when empty).
pub fn mean_us(mins: &[u32]) -> f64 {
    if mins.is_empty() {
        return 0.0;
    }
    sum_ns(mins) as f64 / mins.len() as f64 / 1_000.0
}

/// Nearest-rank percentile *across positions* of the per-position
/// minima, microseconds: the tail across request kinds, not across
/// host noise.
pub fn percentile_us(mins: &[u32], q: f64) -> f64 {
    if mins.is_empty() {
        return 0.0;
    }
    let mut sorted = mins.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    f64::from(sorted[rank.min(sorted.len() - 1)]) / 1_000.0
}

/// Relative difference of `b` against `a` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    }
}

/// `VmHWM` (peak resident set) in KiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// Steal ticks of the aggregate `cpu` line of `/proc/stat` text (the
/// eighth value): time the hypervisor ran someone else.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    stat.lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|rest| rest.split_whitespace().nth(7))
        .and_then(|ticks| ticks.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(replays: &[&[u32]]) -> Samples {
        let mut s = Samples::new(replays[0].len(), replays.len());
        for r in replays {
            s.next_replay().copy_from_slice(r);
        }
        s
    }

    #[test]
    fn position_wise_min_ignores_noisy_replays() {
        let s = samples(&[&[10, 200, 30], &[90, 20, 31], &[11, 21, 500]]);
        assert_eq!(s.position_mins(), vec![10, 20, 30]);
        assert_eq!(sum_ns(&s.position_mins()), 60);
        assert!((mean_us(&s.position_mins()) - 0.02).abs() < 1e-12);
        // 200, 90 and 500 are more than 1.5x their position minimum.
        assert!((s.noisy_share(1.5) - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn unfilled_replays_do_not_count() {
        let mut s = Samples::new(2, 5);
        s.next_replay().copy_from_slice(&[7, 9]);
        assert_eq!(s.position_mins(), vec![7, 9]);
    }

    #[test]
    fn percentile_is_across_positions() {
        let mins: Vec<u32> = (1..=100).map(|v| v * 1_000).collect();
        assert_eq!(percentile_us(&mins, 0.95), 95.0);
        assert_eq!(percentile_us(&mins, 0.0), 1.0);
        assert_eq!(percentile_us(&mins, 1.0), 100.0);
        assert_eq!(percentile_us(&[], 0.95), 0.0);
    }

    #[test]
    fn relative_difference() {
        assert_eq!(rel_diff(100.0, 110.0), 0.1);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0) > 1.0);
    }

    #[test]
    fn proc_parsers() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(12_345));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        let stat = "cpu  1 2 3 4 5 6 7 88 9 10\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(88));
        assert_eq!(parse_steal_ticks("intr 1 2\n"), None);
    }
}
