//! Elastic autoscaling: a control loop over windowed metrics.
//!
//! When [`crate::AutoscaleConfig`] is enabled the server builds its pod
//! with `max_replicas` simulated devices but enrolls only
//! `ServeConfig::replicas` of them, and spawns one controller thread that
//! every `interval`:
//!
//! 1. takes a metrics snapshot and condenses the window since the previous
//!    sample into [`ScaleSignals`]: backlog (admission + replica queues,
//!    gauges read from the newer snapshot) per enrolled replica, and the
//!    deadline-miss rate over the window's counters;
//! 2. asks the [`ScalePolicy`] for a decision — grow when the backlog or
//!    miss rate crosses its scale-up threshold, drain when the backlog sits
//!    below the scale-down threshold with a clean miss rate, hold
//!    otherwise. Every action arms a cooldown of `cooldown_windows`
//!    samples, and the up/down thresholds are separated by construction
//!    (validated as a hysteresis band), so the controller cannot flap on a
//!    noisy signal;
//! 3. applies the decision through `Pod::grow` / `Pod::drain` — the same
//!    transitions deterministic tests drive via `FaultKind::Grow` /
//!    `FaultKind::Drain` — and logs it to the [`AutoscaleReport`].
//!
//! Scale-up is recovery of a cold replica: the grown standby pays the
//! priced weight load on first touch (unless the warm pool pre-paid it),
//! so `ReplicaStats::weight_load_us` *is* the time-to-healthy — the
//! quantity the autoscale bench compares across factorizations. Scale-down
//! is the crash path minus the crash: stranded batches refund and re-route,
//! nothing is lost, and no crash is counted.
//!
//! The policy itself is a pure function of its signals (plus the cooldown
//! counter), so the decision logic is unit-tested without a server.

use crate::config::AutoscaleConfig;
use crate::metrics::ServeSnapshot;
use serde::Serialize;

/// What the controller measured over one sampling window.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSignals {
    /// Requests waiting in admission queues plus batches routed but not
    /// yet settled, per enrolled replica — the backlog signal.
    pub backlog_per_replica: f64,
    /// Deadline misses over completions in the window.
    pub miss_rate: f64,
    /// Enrolled replicas at sampling time.
    pub enrolled: usize,
}

impl ScaleSignals {
    /// Condenses the window between two snapshots of the same server. The
    /// backlog gauges (admission queues plus batches routed but not yet
    /// settled) come from `now`; the miss rate is deadline misses over
    /// completions *within* the window. Those two counters are differenced
    /// per model, matched by name (a model unknown to `prev` counts from
    /// zero), with saturating subtraction so a mismatched `prev` degrades
    /// to zero instead of wrapping. Observation counters are never thinned
    /// (only the latency histograms' retained samples are), so the window
    /// math stays exact on long runs.
    pub(crate) fn window(prev: &ServeSnapshot, now: &ServeSnapshot, enrolled: usize) -> Self {
        let (mut completed, mut missed) = (0u64, 0u64);
        for m in &now.models {
            let p = prev.models.iter().find(|p| p.model == m.model);
            completed += m.completed.saturating_sub(p.map_or(0, |p| p.completed));
            missed += m.deadline_exceeded.saturating_sub(p.map_or(0, |p| p.deadline_exceeded));
        }
        let queued: usize = now.models.iter().map(|m| m.queue_depth).sum();
        let inflight: usize = now.replicas.iter().map(|r| r.queue_depth).sum();
        Self {
            backlog_per_replica: (queued + inflight) as f64 / enrolled.max(1) as f64,
            miss_rate: if completed == 0 { 0.0 } else { missed as f64 / completed as f64 },
            enrolled,
        }
    }
}

/// One decision of the control loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ScaleDecision {
    /// Enroll a standby (elastic scale-up).
    Grow,
    /// Gracefully drain the most recent replica (elastic scale-down).
    Drain,
    /// No action this window.
    Hold,
}

/// The hysteresis'd threshold policy: pure decision logic over
/// [`ScaleSignals`], shared by the live controller thread and the unit
/// tests.
#[derive(Debug)]
pub struct ScalePolicy {
    config: AutoscaleConfig,
    /// Windows left before another action may fire.
    cooldown: u32,
}

impl ScalePolicy {
    /// A fresh policy (no cooldown armed).
    pub fn new(config: AutoscaleConfig) -> Self {
        Self { config, cooldown: 0 }
    }

    /// Decides this window's action. Arms the cooldown when the decision
    /// is not [`ScaleDecision::Hold`].
    pub fn decide(&mut self, signals: ScaleSignals) -> ScaleDecision {
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return ScaleDecision::Hold;
        }
        let c = &self.config;
        let decision = if signals.enrolled < c.max_replicas
            && (signals.backlog_per_replica > c.scale_up_queue_depth
                || signals.miss_rate > c.scale_up_miss_rate)
        {
            ScaleDecision::Grow
        } else if signals.enrolled > c.min_replicas
            && signals.backlog_per_replica < c.scale_down_queue_depth
            && signals.miss_rate <= c.scale_up_miss_rate
        {
            ScaleDecision::Drain
        } else {
            ScaleDecision::Hold
        };
        if decision != ScaleDecision::Hold {
            self.cooldown = c.cooldown_windows;
        }
        decision
    }
}

/// One applied scale action, as recorded in the [`AutoscaleReport`].
#[derive(Debug, Clone, Serialize)]
pub struct AutoscaleEvent {
    /// Server uptime (seconds, wall clock) when the action was applied.
    pub at_s: f64,
    /// What fired (never `Hold` — holds are not recorded).
    pub decision: ScaleDecision,
    /// The replica that was grown or drained.
    pub replica: usize,
    /// Enrolled replicas after the action.
    pub enrolled_after: usize,
    /// The backlog signal that triggered the action.
    pub backlog_per_replica: f64,
    /// The windowed deadline-miss rate that triggered the action.
    pub miss_rate: f64,
}

/// The controller's action log, exportable as JSON next to the metrics
/// snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct AutoscaleReport {
    /// Whether the autoscaler was enabled at all.
    pub enabled: bool,
    /// Sampling windows the controller evaluated.
    pub samples: u64,
    /// Every applied action, in firing order.
    pub events: Vec<AutoscaleEvent>,
}

impl AutoscaleReport {
    /// The report of a server running without an autoscaler.
    pub fn disabled() -> Self {
        Self { enabled: false, samples: 0, events: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{
        CacheStats, IngressStats, MethodDeviceStats, ModelMetrics, ModelStats, ResidencySummary,
        MAX_SAMPLES,
    };
    use crate::request::{ServedFrom, Timing};
    use std::sync::atomic::Ordering;

    fn signals(backlog: f64, miss: f64, enrolled: usize) -> ScaleSignals {
        ScaleSignals { backlog_per_replica: backlog, miss_rate: miss, enrolled }
    }

    fn policy(min: usize, max: usize, cooldown: u32) -> ScalePolicy {
        ScalePolicy::new(AutoscaleConfig {
            cooldown_windows: cooldown,
            ..AutoscaleConfig::bounded(min, max)
        })
    }

    #[test]
    fn backlog_above_threshold_grows_until_the_ceiling() {
        let mut p = policy(1, 3, 0);
        assert_eq!(p.decide(signals(5.0, 0.0, 1)), ScaleDecision::Grow);
        assert_eq!(p.decide(signals(5.0, 0.0, 2)), ScaleDecision::Grow);
        assert_eq!(p.decide(signals(5.0, 0.0, 3)), ScaleDecision::Hold, "at max_replicas");
    }

    #[test]
    fn miss_rate_alone_triggers_growth() {
        let mut p = policy(1, 2, 0);
        assert_eq!(p.decide(signals(0.0, 0.5, 1)), ScaleDecision::Grow);
    }

    #[test]
    fn idle_pod_drains_to_the_floor_but_not_past_it() {
        let mut p = policy(1, 4, 0);
        assert_eq!(p.decide(signals(0.0, 0.0, 3)), ScaleDecision::Drain);
        assert_eq!(p.decide(signals(0.0, 0.0, 2)), ScaleDecision::Drain);
        assert_eq!(p.decide(signals(0.0, 0.0, 1)), ScaleDecision::Hold, "at min_replicas");
    }

    #[test]
    fn missing_deadlines_blocks_scale_down() {
        let mut p = policy(1, 4, 0);
        assert_eq!(p.decide(signals(0.0, 0.5, 3)), ScaleDecision::Grow, "misses mean grow");
    }

    #[test]
    fn hysteresis_band_holds_between_the_thresholds() {
        let mut p = policy(1, 4, 0);
        // Default band is (0.25, 2.0): a backlog of 1.0 is neither high
        // enough to grow nor low enough to drain.
        assert_eq!(p.decide(signals(1.0, 0.0, 2)), ScaleDecision::Hold);
    }

    #[test]
    fn cooldown_suppresses_consecutive_actions() {
        let mut p = policy(1, 4, 2);
        assert_eq!(p.decide(signals(9.0, 0.0, 1)), ScaleDecision::Grow);
        assert_eq!(p.decide(signals(9.0, 0.0, 2)), ScaleDecision::Hold, "cooldown window 1");
        assert_eq!(p.decide(signals(9.0, 0.0, 2)), ScaleDecision::Hold, "cooldown window 2");
        assert_eq!(p.decide(signals(9.0, 0.0, 2)), ScaleDecision::Grow, "cooldown expired");
    }

    fn wrap_snapshot(elapsed_s: f64, models: Vec<ModelStats>) -> ServeSnapshot {
        let total_device_us = models.iter().map(|m| m.device_us).sum();
        let methods = MethodDeviceStats::rollup(&models);
        ServeSnapshot {
            elapsed_s,
            models,
            methods,
            shards: vec![],
            replicas: vec![],
            total_device_us,
            pod_makespan_us: 0.0,
            cache: CacheStats::disabled(),
            ingress: IngressStats::disabled(),
            residency: ResidencySummary::from_replicas(None, "lru", vec![], &[]),
        }
    }

    fn timing(source: ServedFrom) -> Timing {
        Timing {
            queue_us: 5,
            service_us: 10,
            total_us: 15,
            batch_size: 2,
            ipu_batch_us: None,
            gpu_batch_us: None,
            sim_batch_us: None,
            source,
            replica: Some(0),
        }
    }

    /// One model's stats as a snapshot at `elapsed_s` with admission-queue
    /// depth `queue_depth`.
    fn snap(m: &ModelMetrics, name: &str, elapsed_s: f64, queue_depth: usize) -> ServeSnapshot {
        let stats = m.snapshot(name, "t", "Butterfly", 0, elapsed_s, queue_depth, 0, 0, (0, 0, 0));
        wrap_snapshot(elapsed_s, vec![stats])
    }

    #[test]
    fn window_counts_only_its_own_responses_and_reads_backlog_from_the_newer_snapshot() {
        let m = ModelMetrics::default();
        m.admitted.fetch_add(4, Ordering::Relaxed);
        m.record_response(&timing(ServedFrom::Compute));
        m.record_response(&timing(ServedFrom::Compute));
        m.record_response(&timing(ServedFrom::DeadlineExceeded));
        let prev = snap(&m, "x", 1.0, 7);

        m.admitted.fetch_add(6, Ordering::Relaxed);
        m.shed.fetch_add(2, Ordering::Relaxed);
        m.record_response(&timing(ServedFrom::Compute));
        m.record_response(&timing(ServedFrom::DeadlineExceeded));
        m.record_response(&timing(ServedFrom::DeadlineExceeded));
        m.record_response(&timing(ServedFrom::PodDown));
        let now = snap(&m, "x", 3.0, 9);

        let s = ScaleSignals::window(&prev, &now, 3);
        assert_eq!(s.miss_rate, 0.5, "2 misses in the window's 4 responses, not 3 in 7");
        assert_eq!(s.backlog_per_replica, 3.0, "queue gauge 9 from the newer snapshot / 3");
        assert_eq!(s.enrolled, 3);
        let s = ScaleSignals::window(&prev, &now, 0);
        assert_eq!(s.backlog_per_replica, 9.0, "an empty pod divides by one, not zero");
    }

    #[test]
    fn window_counter_math_stays_exact_across_histogram_thinning() {
        // Push the latency histogram through thinning between the two
        // snapshots: retained samples shrink, but the observation counters
        // the window differences are never thinned, so the rate stays exact.
        let m = ModelMetrics::default();
        for _ in 0..10 {
            m.record_response(&timing(ServedFrom::Compute));
        }
        let prev = snap(&m, "x", 1.0, 0);

        let during = (MAX_SAMPLES as u64) * 3;
        for i in 0..during {
            let source =
                if i % 4 == 0 { ServedFrom::DeadlineExceeded } else { ServedFrom::Compute };
            m.record_response(&timing(source));
        }
        assert!(m.latency_us.retained() < m.latency_us.count() as usize, "thinning engaged");
        assert!(m.latency_us.retained() <= MAX_SAMPLES);
        let now = snap(&m, "x", 2.0, 0);

        assert_eq!(ScaleSignals::window(&prev, &now, 1).miss_rate, 0.25);
    }

    #[test]
    fn window_against_a_mismatched_prev_saturates_to_zero() {
        let m = ModelMetrics::default();
        for _ in 0..3 {
            m.record_response(&timing(ServedFrom::DeadlineExceeded));
        }
        let bigger = snap(&m, "x", 1.0, 0);
        let smaller = snap(&ModelMetrics::default(), "x", 2.0, 0);
        // `smaller` has lower counters than `bigger`: subtraction saturates
        // to an empty window instead of wrapping into a huge miss count.
        assert_eq!(ScaleSignals::window(&bigger, &smaller, 1).miss_rate, 0.0);
        // A model unknown to `prev` is differenced against a zero baseline.
        let fresh = ModelMetrics::default();
        fresh.record_response(&timing(ServedFrom::Compute));
        fresh.record_response(&timing(ServedFrom::DeadlineExceeded));
        let unseen = snap(&fresh, "new", 3.0, 0);
        assert_eq!(ScaleSignals::window(&bigger, &unseen, 1).miss_rate, 0.5);
    }

    #[test]
    fn disabled_report_is_empty() {
        let r = AutoscaleReport::disabled();
        assert!(!r.enabled && r.events.is_empty() && r.samples == 0);
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(json.contains("\"enabled\":false"));
    }
}
