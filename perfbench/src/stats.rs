//! The benchmark's own arithmetic: percentiles, the capacity search,
//! backlog detection and counter reconciliation. Everything here is pure so
//! the unit tests below can pin it on synthetic inputs.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Mean of a sample (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// An ascending copy of `values` (`NaN`s sort last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// `stat` of each of `windows` consecutive, equal-count chunks of `values`
/// (in arrival order), and the median of those. One stalled window moves
/// the result far less than it moves the statistic of the whole sample.
pub fn windowed_median(values: &[f64], windows: usize, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let per = values.len().div_ceil(windows.max(1)).max(1);
    median(&values.chunks(per).map(stat).collect::<Vec<_>>())
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// A tail latency with the percentile the sample could support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, in `(0, cap]`.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile, at most `cap`, that leaves at least
/// [`TAIL_SAMPLES_BEYOND`] samples beyond it, on a 0.1-percent grid.
/// `None` when the sample is too small for any tail (at most 10 samples).
pub fn supported_tail(values: &[f64], cap: f64) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_SAMPLES_BEYOND {
        return None;
    }
    let s = sorted(values);
    // Nearest rank of the percentile `tenths / 10`, in integers so the grid
    // has no rounding error: ceil(tenths * n / 1000).
    let rank = |tenths: usize| (tenths * n).div_ceil(1000).clamp(1, n);
    let mut tenths = (cap * 10.0).round() as usize;
    while tenths > 1 && n - rank(tenths) < TAIL_SAMPLES_BEYOND {
        tenths -= 1;
    }
    Some(Tail { percentile: tenths as f64 / 10.0, value: s[rank(tenths) - 1], samples: n })
}

/// Share of a probe's requests that must be answered within the p99 limit:
/// meeting it is meeting the limit at p99, with failed requests counted as
/// missing it.
pub const GOOD_TARGET: f64 = 0.99;

/// One probe of the offered-rate search, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Offered rate, requests per second.
    pub offered_rps: f64,
    /// Share of requests answered within the p99 limit; a failed request
    /// never is.
    pub good_frac: f64,
    /// Failed requests over offered requests.
    pub failed_frac: f64,
    /// Whether latency kept growing through the probe.
    pub backlog_growing: bool,
}

impl Probe {
    /// Whether the probe meets the p99 limit with no growing backlog and
    /// the failure share under its limit.
    pub fn passes(&self, failed_limit: f64) -> bool {
        self.good_frac >= GOOD_TARGET && self.failed_frac <= failed_limit && !self.backlog_growing
    }
}

/// Probes sorted by rate, and how many from the bottom pass in a row.
fn bracket(probes: &[Probe], failed_limit: f64) -> (Vec<Probe>, usize) {
    let mut sorted = probes.to_vec();
    sorted.sort_by(|a, b| a.offered_rps.total_cmp(&b.offered_rps));
    let passing = sorted.iter().take_while(|r| r.passes(failed_limit)).count();
    (sorted, passing)
}

/// The highest offered rate meeting the limits.
///
/// Walks up the probes from the lowest rate while they pass. Between the
/// last passing probe and the first failing one the rate is interpolated
/// linearly on the good share to where it crosses [`GOOD_TARGET`], so the
/// figure moves smoothly with the latency curve instead of jumping between
/// probes; a failing probe that still meets the target (it failed on
/// shedding or backlog) adds nothing. When even the lowest probe fails, its
/// rate is scaled down by its good share over the target.
pub fn sustained_rps(probes: &[Probe], failed_limit: f64) -> f64 {
    let (sorted, passing) = bracket(probes, failed_limit);
    let Some(first) = sorted.first() else {
        return f64::NAN;
    };
    if passing == 0 {
        return first.offered_rps * (first.good_frac / GOOD_TARGET).clamp(0.0, 1.0);
    }
    let last = sorted[passing - 1];
    let Some(next) = sorted.get(passing) else {
        return last.offered_rps;
    };
    if next.good_frac >= GOOD_TARGET {
        return last.offered_rps;
    }
    let t = (last.good_frac - GOOD_TARGET) / (last.good_frac - next.good_frac);
    last.offered_rps + t.clamp(0.0, 1.0) * (next.offered_rps - last.offered_rps)
}

/// The next rate to probe: the midpoint between the last passing probe and
/// the first failing one, while they are more than `resolution` apart.
/// `None` when every probe passes, none does, or the bracket is narrow.
pub fn bisect_probe(probes: &[Probe], failed_limit: f64, resolution: f64) -> Option<f64> {
    let (sorted, passing) = bracket(probes, failed_limit);
    let (lo, hi) = (sorted.get(passing.checked_sub(1)?)?, sorted.get(passing)?);
    (hi.offered_rps - lo.offered_rps > resolution).then(|| (lo.offered_rps + hi.offered_rps) / 2.0)
}

/// Whether latencies (in submission order) kept growing: the median of the
/// last quarter exceeds the first quarter's by more than `growth_ms`. A
/// queue that keeps up has the same latency early and late; one offered a
/// few percent over capacity grows by that share of the elapsed time, which
/// over seconds is far more than any transient stall.
pub fn backlog_growing(latencies_ms: &[f64], growth_ms: f64) -> bool {
    let n = latencies_ms.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let early = median(&latencies_ms[..q]);
    let late = median(&latencies_ms[n - q..]);
    let growth = late - early;
    growth.is_nan() || growth > growth_ms
}

/// Request outcomes, counted on one side of the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Requests the generator offered.
    pub offered: u64,
    /// Answered with an output (computed, cache hit or coalesced).
    pub completed: u64,
    /// Shed at admission (queue full).
    pub shed: u64,
    /// Answered deadline-exceeded.
    pub deadline: u64,
    /// Refused or answered pod-down.
    pub pod_down: u64,
    /// Refused by ingress QoS.
    pub throttled: u64,
    /// Rejected for any other reason.
    pub rejected: u64,
}

impl Ledger {
    /// Every outcome that is not a completed output.
    pub fn failures(&self) -> u64 {
        self.shed + self.deadline + self.pod_down + self.throttled + self.rejected
    }

    /// Checks offered = completed + every failure outcome.
    pub fn reconcile(&self) -> Result<(), String> {
        let accounted = self.completed + self.failures();
        if accounted == self.offered {
            Ok(())
        } else {
            Err(format!(
                "offered {} != completed {} + shed {} + deadline {} + pod_down {} + throttled {} \
                 + rejected {} (= {accounted})",
                self.offered,
                self.completed,
                self.shed,
                self.deadline,
                self.pod_down,
                self.throttled,
                self.rejected
            ))
        }
    }
}

impl std::ops::AddAssign for Ledger {
    fn add_assign(&mut self, o: Ledger) {
        self.offered += o.offered;
        self.completed += o.completed;
        self.shed += o.shed;
        self.deadline += o.deadline;
        self.pod_down += o.pod_down;
        self.throttled += o.throttled;
        self.rejected += o.rejected;
    }
}

/// Checks that two counts of the same thing agree.
pub fn cross_check(what: &str, client: u64, server: u64) -> Result<(), String> {
    if client == server {
        Ok(())
    } else {
        Err(format!("{what}: client counted {client}, server counted {server}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_median_shrugs_off_one_stalled_window() {
        let mut v = vec![1.0; 300];
        v[150..200].fill(50.0);
        let max = |w: &[f64]| w.iter().copied().fold(f64::MIN, f64::max);
        assert_eq!(max(&v), 50.0);
        assert_eq!(windowed_median(&v, 6, max), 1.0);
        assert_eq!(windowed_median(&[1.0, 2.0, 3.0], 6, |w| w[0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1000 samples support p99 exactly: 10 lie beyond rank 990.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = supported_tail(&v, 99.0).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples do not: the rule steps down to p98.9 (rank 989 of
        // 999 leaves exactly 10 beyond).
        let t = supported_tail(&v[..999], 99.0).unwrap();
        assert_eq!(t.percentile, 98.9);
        assert_eq!(t.value, 989.0);
        // 100 samples: p90 leaves 10 beyond, p90.1 leaves 9.
        let t = supported_tail(&v[..100], 99.0).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        // Ten samples support no tail at all.
        assert_eq!(supported_tail(&v[..10], 99.0), None);
        // A larger sample never reports above the cap.
        assert_eq!(
            supported_tail(&(0..100_000).map(f64::from).collect::<Vec<_>>(), 99.0)
                .unwrap()
                .percentile,
            99.0
        );
    }

    fn probe(rps: f64, good: f64) -> Probe {
        Probe { offered_rps: rps, good_frac: good, failed_frac: 0.0, backlog_growing: false }
    }

    #[test]
    fn sustained_interpolates_on_a_synthetic_latency_curve() {
        // Latency exponential with mean 1 / (1 - rho) ms, capacity 10k rps:
        // the share within a 10 ms limit is 1 - exp(-10 (1 - rho)), which
        // crosses 0.99 where 10 (1 - rho) = ln 100, at about 5.39k rps.
        let good = |rps: f64| 1.0 - (-10.0 * (1.0 - rps / 1e4)).exp();
        let probes: Vec<Probe> = [2e3, 4e3, 5e3, 7e3].iter().map(|&r| probe(r, good(r))).collect();
        let s = sustained_rps(&probes, 0.01);
        let exact = 1e4 * (1.0 - 100f64.ln() / 10.0);
        assert!(s > 5e3 && s < 7e3, "{s}");
        // Linear interpolation between (5k, g(5k)) and (7k, g(7k)).
        let t = (good(5e3) - 0.99) / (good(5e3) - good(7e3));
        assert!((s - (5e3 + t * 2e3)).abs() < 1e-6, "{s}");
        // Bisection narrows the bracket toward the exact crossing.
        let mut probes = probes;
        while let Some(r) = bisect_probe(&probes, 0.01, 100.0) {
            probes.push(probe(r, good(r)));
        }
        let s = sustained_rps(&probes, 0.01);
        assert!((s - exact).abs() < 100.0, "{s} vs {exact}");
        // Probes arriving out of order are sorted first.
        probes.reverse();
        assert_eq!(sustained_rps(&probes, 0.01), s);
    }

    #[test]
    fn sustained_stops_at_failures_backlog_and_ladder_top() {
        let mut ladder = vec![probe(1e3, 1.0), probe(2e3, 0.995), probe(3e3, 0.999)];
        // Every probe passes: the top rate is the answer.
        assert_eq!(sustained_rps(&ladder, 0.01), 3e3);
        assert_eq!(bisect_probe(&ladder, 0.01, 10.0), None);
        // A probe failing on shedding ends the walk; its good share still
        // places the crossing.
        ladder[2] = Probe { failed_frac: 0.2, ..probe(3e3, 0.795) };
        assert_eq!(sustained_rps(&ladder, 0.01), 2e3 + 1e3 * 0.005 / 0.2);
        assert_eq!(bisect_probe(&ladder, 0.01, 10.0), Some(2.5e3));
        assert_eq!(bisect_probe(&ladder, 0.01, 1e3), None);
        // A probe failing on backlog while meeting the target adds nothing.
        ladder[2] = Probe { backlog_growing: true, ..probe(3e3, 0.992) };
        assert_eq!(sustained_rps(&ladder, 0.01), 2e3);
        // A failing probe below a passing one ends the walk.
        let ladder = vec![probe(1e3, 1.0), probe(2e3, 0.98), probe(3e3, 1.0)];
        assert_eq!(sustained_rps(&ladder, 0.01), 1e3 + 1e3 * 0.01 / 0.02);
        // Even the lowest probe misses: scaled down, never above it.
        assert_eq!(sustained_rps(&[probe(1e3, 0.495)], 0.01), 500.0);
        assert_eq!(sustained_rps(&[probe(1e3, 0.0)], 0.01), 0.0);
        assert_eq!(bisect_probe(&[probe(1e3, 0.0)], 0.01, 10.0), None);
    }

    #[test]
    fn backlog_detection() {
        let flat: Vec<f64> = (0..100).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
        assert!(!backlog_growing(&flat, 1.0));
        let growing: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 * 0.5).collect();
        assert!(backlog_growing(&growing, 1.0));
        assert!(!backlog_growing(&growing, 50.0));
        // A stall in the middle is not a growing backlog.
        let mut stalled = flat.clone();
        stalled[40..60].fill(30.0);
        assert!(!backlog_growing(&stalled, 1.0));
    }

    #[test]
    fn reconciliation_fails_on_an_off_by_one_count() {
        let ledger = Ledger {
            offered: 1000,
            completed: 990,
            shed: 4,
            deadline: 3,
            pod_down: 1,
            throttled: 1,
            rejected: 1,
        };
        assert_eq!(ledger.reconcile(), Ok(()));
        assert_eq!(ledger.failures(), 10);
        for off_by_one in [
            Ledger { offered: 1001, ..ledger },
            Ledger { completed: 989, ..ledger },
            Ledger { shed: 5, ..ledger },
            Ledger { throttled: 0, ..ledger },
        ] {
            assert!(off_by_one.reconcile().is_err(), "{off_by_one:?}");
        }
        assert!(cross_check("completed", 990, 990).is_ok());
        assert!(cross_check("completed", 990, 991).is_err());
    }
}
