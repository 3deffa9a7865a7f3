//! Serving metrics: latency/queue histograms, throughput, shed accounting,
//! batch-size distribution, cache hit/miss/coalesce counters, per-shard
//! queue depth, and a `serde`-exportable snapshot.

use crate::request::{ServedFrom, Timing};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on retained samples per histogram; beyond it the recorder
/// keeps every k-th sample so long runs stay bounded without losing the
/// distribution's shape.
pub(crate) const MAX_SAMPLES: usize = 1 << 17;

/// An exact-sample histogram with percentile queries.
///
/// Samples are stored raw (bounded by [`MAX_SAMPLES`] with systematic
/// thinning) and sorted on demand at snapshot time — serving benches record
/// at most a few hundred thousand samples, where exactness beats bucketing.
#[derive(Default)]
pub struct Histogram {
    state: Mutex<HistogramState>,
}

#[derive(Default)]
struct HistogramState {
    samples: Vec<u64>,
    /// Total observations (exceeds `samples.len()` once thinning kicks in).
    count: u64,
    sum: u64,
    stride: u64,
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let mut s = self.state.lock();
        s.count += 1;
        s.sum = s.sum.saturating_add(value);
        if s.stride == 0 {
            s.stride = 1;
        }
        if s.samples.len() >= MAX_SAMPLES {
            // Halve resolution — keep every other retained sample — *before*
            // deciding whether this sample is retained, so the retention
            // test below uses the stride that actually applies to it (testing
            // against the old stride and pushing after doubling would bias
            // the retained set's phase).
            let kept: Vec<u64> = s.samples.iter().copied().step_by(2).collect();
            s.samples = kept;
            s.stride *= 2;
        }
        if s.count.is_multiple_of(s.stride) {
            s.samples.push(value);
        }
    }

    /// Samples currently retained (at most [`MAX_SAMPLES`]).
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.state.lock().samples.len()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.state.lock().count
    }

    /// Mean of all observations (not just retained samples).
    pub fn mean(&self) -> f64 {
        let s = self.state.lock();
        if s.count == 0 {
            0.0
        } else {
            s.sum as f64 / s.count as f64
        }
    }

    /// The `q`-quantile over retained samples.
    ///
    /// Edge cases are pinned: an empty histogram returns 0 for every `q`;
    /// `q = 0.0` is the minimum retained sample; `q = 1.0` the maximum;
    /// out-of-range or non-finite `q` is clamped into `[0.0, 1.0]` (NaN
    /// clamps to 0.0) rather than indexing out of bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        let s = self.state.lock();
        if s.samples.is_empty() {
            return 0;
        }
        let mut sorted = s.samples.clone();
        sorted.sort_unstable();
        sorted[quantile_rank(q, sorted.len())]
    }
}

/// Index of the `q`-quantile in a sorted slice of `len > 0` samples, using
/// the ceiling-rank convention (`q = 0` → index 0, `q = 1` → `len - 1`).
pub(crate) fn quantile_rank(q: f64, len: usize) -> usize {
    debug_assert!(len > 0, "quantile_rank needs a non-empty sample set");
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
    rank - 1
}

/// Live counters for one served model.
#[derive(Default)]
pub struct ModelMetrics {
    /// Requests accepted into the admission queue (cache hits and coalesced
    /// requests never enter the queue and are counted separately).
    pub admitted: AtomicU64,
    /// Requests rejected because the queue was full.
    pub shed: AtomicU64,
    /// Responses delivered (computed + cache hits + coalesced).
    pub completed: AtomicU64,
    /// Responses served straight from the content-addressed cache.
    pub cache_hits: AtomicU64,
    /// Responses coalesced onto another request's in-flight forward.
    pub cache_coalesced: AtomicU64,
    /// Requests that missed the cache and were admitted to compute.
    pub cache_misses: AtomicU64,
    /// Requests answered [`ServedFrom::DeadlineExceeded`] (never computed).
    pub deadline_exceeded: AtomicU64,
    /// Requests answered [`ServedFrom::PodDown`] (never computed).
    pub pod_down: AtomicU64,
    /// End-to-end latency (admission -> response), microseconds.
    pub latency_us: Histogram,
    /// Queueing + batch-formation delay, microseconds.
    pub queue_us: Histogram,
    /// Micro-batch sizes dispatched.
    pub batch_size: Histogram,
}

impl ModelMetrics {
    /// Records one dispatched batch.
    pub fn record_batch(&self, size: usize) {
        self.batch_size.record(size as u64);
    }

    /// Records one delivered response. Failure responses (deadline
    /// exceeded, pod down) count toward `completed` and their own counters
    /// but stay out of the latency histograms, so the percentiles keep
    /// describing served traffic rather than fast failures.
    pub fn record_response(&self, timing: &Timing) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        match timing.source {
            ServedFrom::DeadlineExceeded => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            ServedFrom::PodDown => {
                self.pod_down.fetch_add(1, Ordering::Relaxed);
            }
            // Ingress-side refusals never reach a model's metrics (they are
            // synthesized before admission and tallied per tenant by
            // [`IngressMetrics`]); if one ever did, it must stay out of the
            // latency histograms like any other failure.
            ServedFrom::Throttled | ServedFrom::Rejected => {}
            _ => {
                self.latency_us.record(timing.total_us);
                self.queue_us.record(timing.queue_us);
            }
        }
    }

    /// Builds the serializable view. `device_ns` is this model's settled
    /// device tally and `residency` its (hits, misses, paged bytes)
    /// counters, both read from the pod's critical section (where they are
    /// updated atomically with the per-replica clocks) rather than tracked
    /// here — that is what keeps the replica-vs-model cross-check exact.
    #[allow(clippy::too_many_arguments)]
    pub fn snapshot(
        &self,
        name: &str,
        tenant: &str,
        method: &str,
        weight_bytes: u64,
        elapsed_s: f64,
        queue_depth: usize,
        memoized_estimates: usize,
        device_ns: u64,
        residency: (u64, u64, u64),
    ) -> ModelStats {
        let (residency_hits, residency_misses, paged_in_bytes) = residency;
        let admitted = self.admitted.load(Ordering::Relaxed);
        let shed = self.shed.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        let cache_hits = self.cache_hits.load(Ordering::Relaxed);
        let cache_coalesced = self.cache_coalesced.load(Ordering::Relaxed);
        let cache_misses = self.cache_misses.load(Ordering::Relaxed);
        let offered = admitted + cache_hits + cache_coalesced + shed;
        let cache_looked = cache_hits + cache_coalesced + cache_misses;
        let touches = residency_hits + residency_misses;
        ModelStats {
            model: name.to_string(),
            tenant: tenant.to_string(),
            method: method.to_string(),
            weight_bytes,
            admitted,
            shed,
            completed,
            shed_rate: if offered == 0 { 0.0 } else { shed as f64 / offered as f64 },
            throughput_rps: if elapsed_s > 0.0 { completed as f64 / elapsed_s } else { 0.0 },
            latency_p50_us: self.latency_us.quantile(0.50),
            latency_p95_us: self.latency_us.quantile(0.95),
            latency_p99_us: self.latency_us.quantile(0.99),
            latency_mean_us: self.latency_us.mean(),
            queue_mean_us: self.queue_us.mean(),
            mean_batch: self.batch_size.mean(),
            batches: self.batch_size.count(),
            queue_depth,
            cache_hits,
            cache_coalesced,
            cache_misses,
            cache_hit_rate: if cache_looked == 0 {
                0.0
            } else {
                cache_hits as f64 / cache_looked as f64
            },
            memoized_estimates,
            device_us: device_ns as f64 / 1e3,
            residency_hits,
            residency_misses,
            residency_hit_rate: if touches == 0 {
                0.0
            } else {
                residency_hits as f64 / touches as f64
            },
            paged_in_bytes,
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            pod_down: self.pod_down.load(Ordering::Relaxed),
        }
    }
}

/// Serializable per-model statistics.
#[derive(Debug, Clone, Serialize)]
pub struct ModelStats {
    /// Model name (registry key).
    pub model: String,
    /// Owning tenant (what residency quotas group by).
    pub tenant: String,
    /// Compression method label (the Table 4 name, e.g. `"Butterfly"`,
    /// `"Pixelfly"`) — what [`MethodDeviceStats`] groups device time by.
    pub method: String,
    /// Resident weight footprint, bytes (butterfly O(n log n) vs dense
    /// ~n²·4 — the paper's compression gap as a serving quantity).
    pub weight_bytes: u64,
    /// Requests accepted into the admission queue.
    pub admitted: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Responses delivered (computed + cache hits + coalesced).
    pub completed: u64,
    /// shed / (admitted + cache hits + coalesced + shed).
    pub shed_rate: f64,
    /// Completed requests per second over the snapshot window.
    pub throughput_rps: f64,
    /// Median end-to-end latency, microseconds.
    pub latency_p50_us: u64,
    /// 95th-percentile end-to-end latency, microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub latency_p99_us: u64,
    /// Mean end-to-end latency, microseconds.
    pub latency_mean_us: f64,
    /// Mean queueing delay, microseconds.
    pub queue_mean_us: f64,
    /// Mean dispatched micro-batch size.
    pub mean_batch: f64,
    /// Number of dispatched batches.
    pub batches: u64,
    /// Admission-queue depth at snapshot time.
    pub queue_depth: usize,
    /// Responses served straight from the response cache (0 device-µs).
    pub cache_hits: u64,
    /// Responses coalesced onto an in-flight identical request.
    pub cache_coalesced: u64,
    /// Cache lookups that fell through to a computed forward.
    pub cache_misses: u64,
    /// cache_hits / (cache_hits + cache_coalesced + cache_misses).
    pub cache_hit_rate: f64,
    /// Batch sizes priced so far in the model's device-estimate memo
    /// (warm-up indicator: stops growing once every batch size was seen).
    pub memoized_estimates: usize,
    /// Simulated device µs retired for this model's batches (compute plus
    /// cold weight loads), counted once per batch.
    pub device_us: f64,
    /// Batches that found this model's weights already in SRAM, summed
    /// across replicas.
    pub residency_hits: u64,
    /// Batches that paid a weight transfer (cold load or page-in).
    pub residency_misses: u64,
    /// residency_hits / (residency_hits + residency_misses).
    pub residency_hit_rate: f64,
    /// Bytes paged in over the streaming link for this model, all replicas.
    pub paged_in_bytes: u64,
    /// Requests answered `DeadlineExceeded` instead of computed.
    pub deadline_exceeded: u64,
    /// Requests answered `PodDown` instead of computed.
    pub pod_down: u64,
}

/// Per-replica serving statistics of the simulated pod.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaStats {
    /// Replica index in the pod.
    pub replica: usize,
    /// Batches this replica retired.
    pub batches: u64,
    /// Requests inside those batches.
    pub requests: u64,
    /// Batches routed to this replica but not yet retired, at snapshot time.
    pub queue_depth: usize,
    /// Simulated device µs retired on this replica's occupancy clock
    /// (compute estimates plus cold weight loads).
    pub device_us: f64,
    /// Portion of `device_us` that was weight transfer (IPU-Link cold
    /// loads plus streaming page-ins), net of crash refunds.
    pub weight_load_us: f64,
    /// First-time IPU-Link weight loads this replica paid.
    pub cold_loads: u64,
    /// Batches whose model was already resident in this replica's SRAM.
    pub residency_hits: u64,
    /// Batches that paid a weight transfer (cold load or page-in).
    pub residency_misses: u64,
    /// Models evicted from SRAM under budget or quota pressure.
    pub evictions: u64,
    /// Bytes paged in over the streaming link (reloads after eviction).
    pub paged_in_bytes: u64,
    /// Simulated µs spent on streaming page-ins (subset of weight_load_us).
    pub paging_us: f64,
    /// Weight bytes resident in SRAM at snapshot time.
    pub resident_bytes: u64,
    /// Models resident in SRAM at snapshot time.
    pub resident_models: usize,
    /// `device_us` over the pod's simulated makespan (the busiest replica's
    /// clock): 1.0 means this replica was the critical path.
    pub utilization: f64,
    /// Crash faults this replica suffered.
    pub crashes: u64,
    /// Recovery faults that brought it back (always cold).
    pub recoveries: u64,
    /// Stranded batches this replica adopted from crashed peers.
    pub retried_batches: u64,
    /// Whether the replica was healthy at snapshot time.
    pub up: bool,
    /// Whether the replica was enrolled for routing at snapshot time
    /// (standbys and drained replicas are healthy but not enrolled).
    pub enrolled: bool,
    /// Elastic scale-ups that enrolled this replica (plan-driven or live
    /// autoscaler).
    pub scale_ups: u64,
    /// Graceful drains that returned this replica to standby.
    pub drains: u64,
}

/// Serializable whole-cache statistics.
#[derive(Debug, Clone, Serialize)]
pub struct CacheStats {
    /// Whether the response cache was enabled for this server.
    pub enabled: bool,
    /// Configured total entry capacity (0 = dedup-only).
    pub capacity: usize,
    /// Number of lock-striped cache shards.
    pub shards: usize,
    /// Entries currently memoized.
    pub entries: usize,
    /// In-flight (pending) computations at snapshot time.
    pub in_flight: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that admitted a computation.
    pub misses: u64,
    /// Lookups that joined an in-flight computation.
    pub coalesced: u64,
    /// hits / (hits + misses + coalesced).
    pub hit_rate: f64,
    /// Results memoized.
    pub insertions: u64,
    /// Entries evicted by LRU pressure.
    pub evictions: u64,
}

impl CacheStats {
    /// The all-zero snapshot reported when the cache is configured off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            capacity: 0,
            shards: 0,
            entries: 0,
            in_flight: 0,
            hits: 0,
            misses: 0,
            coalesced: 0,
            hit_rate: 0.0,
            insertions: 0,
            evictions: 0,
        }
    }
}

/// Live counters of the framed-ingress front door (`crate::ingress`): wire
/// traffic per connection plus per-tenant QoS accounting. Registered into
/// the server by `IngressServer::start` so `ServeSnapshot::to_json` exports
/// it next to the serving metrics.
#[derive(Default)]
pub struct IngressMetrics {
    /// Connections accepted over the transport.
    pub connections: AtomicU64,
    /// Request frames decoded successfully.
    pub frames: AtomicU64,
    /// Frames (or streams) rejected by the codec: bad magic/version/kind,
    /// oversized or inconsistent lengths, checksum mismatch, truncation.
    pub decode_errors: AtomicU64,
    /// Requests the weighted-fair scheduler dispatched from the interactive
    /// class queue.
    pub interactive_dispatched: AtomicU64,
    /// Requests dispatched from the batch class queue.
    pub batch_dispatched: AtomicU64,
    tenants: Mutex<BTreeMap<String, TenantCounters>>,
}

#[derive(Default, Clone, Copy)]
struct TenantCounters {
    admitted: u64,
    throttled: u64,
    deferred: u64,
}

impl IngressMetrics {
    fn with_tenant(&self, tenant: &str, f: impl FnOnce(&mut TenantCounters)) {
        let mut map = self.tenants.lock();
        match map.get_mut(tenant) {
            Some(t) => f(t),
            None => f(map.entry(tenant.to_string()).or_default()),
        }
    }

    /// The tenant's request was submitted into the serving runtime.
    pub fn record_admitted(&self, tenant: &str) {
        self.with_tenant(tenant, |t| t.admitted += 1);
    }

    /// The tenant's request was refused by its token bucket (or a full
    /// class queue) and answered [`ServedFrom::Throttled`] — counted, never
    /// silently dropped.
    pub fn record_throttled(&self, tenant: &str) {
        self.with_tenant(tenant, |t| t.throttled += 1);
    }

    /// The tenant's request waited behind other queued work (or was pushed
    /// back by server backpressure) before dispatch.
    pub fn record_deferred(&self, tenant: &str) {
        self.with_tenant(tenant, |t| t.deferred += 1);
    }

    /// Serializable snapshot of every counter.
    pub fn stats(&self) -> IngressStats {
        IngressStats {
            enabled: true,
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            interactive_dispatched: self.interactive_dispatched.load(Ordering::Relaxed),
            batch_dispatched: self.batch_dispatched.load(Ordering::Relaxed),
            tenants: self
                .tenants
                .lock()
                .iter()
                .map(|(tenant, t)| TenantIngressStats {
                    tenant: tenant.clone(),
                    admitted: t.admitted,
                    throttled: t.throttled,
                    deferred: t.deferred,
                })
                .collect(),
        }
    }
}

/// Per-tenant QoS accounting of the ingress front door.
#[derive(Debug, Clone, Serialize)]
pub struct TenantIngressStats {
    /// Tenant name from the wire frames.
    pub tenant: String,
    /// Requests submitted into the serving runtime.
    pub admitted: u64,
    /// Requests refused by the token bucket or a full class queue, each
    /// answered `Throttled` on its connection.
    pub throttled: u64,
    /// Requests that waited behind queued work or were pushed back by
    /// server backpressure before dispatching.
    pub deferred: u64,
}

/// Serializable ingress statistics (all zero / empty when no framed-ingress
/// front door is attached — the default).
#[derive(Debug, Clone, Serialize)]
pub struct IngressStats {
    /// Whether an ingress front door was attached to this server.
    pub enabled: bool,
    /// Connections accepted.
    pub connections: u64,
    /// Request frames decoded.
    pub frames: u64,
    /// Codec rejections (bad magic/version/length/checksum/truncation).
    pub decode_errors: u64,
    /// Dispatches from the interactive class queue.
    pub interactive_dispatched: u64,
    /// Dispatches from the batch class queue.
    pub batch_dispatched: u64,
    /// Per-tenant admitted/throttled/deferred counters, tenant-sorted.
    pub tenants: Vec<TenantIngressStats>,
}

impl IngressStats {
    /// The empty snapshot reported when no ingress is attached.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            connections: 0,
            frames: 0,
            decode_errors: 0,
            interactive_dispatched: 0,
            batch_dispatched: 0,
            tenants: Vec::new(),
        }
    }
}

/// Pod-wide residency summary: the configured budget/policy plus the
/// per-replica counters summed (point-in-time resident set included).
#[derive(Debug, Clone, Serialize)]
pub struct ResidencySummary {
    /// Configured per-replica SRAM budget, bytes (`null` = unbounded).
    pub sram_budget_bytes: Option<u64>,
    /// Eviction policy label (`"lru"` / `"cost-aware"`).
    pub policy: String,
    /// Configured tenant quotas, `(tenant, resident_bytes)` pairs.
    pub tenant_quotas: Vec<(String, u64)>,
    /// Residency hits across all replicas.
    pub hits: u64,
    /// Residency misses (cold loads + page-ins) across all replicas.
    pub misses: u64,
    /// hits / (hits + misses).
    pub hit_rate: f64,
    /// Evictions across all replicas.
    pub evictions: u64,
    /// First-time IPU-Link cold loads across all replicas.
    pub cold_loads: u64,
    /// Bytes paged in over the streaming link across all replicas.
    pub paged_in_bytes: u64,
    /// Simulated µs of streaming page-ins across all replicas.
    pub paging_us: f64,
    /// Weight bytes resident across all replicas at snapshot time.
    pub resident_bytes: u64,
    /// Resident (replica, model) pairs at snapshot time.
    pub resident_models: usize,
}

impl ResidencySummary {
    /// Sums the per-replica counters under the given configuration echo.
    pub fn from_replicas(
        sram_budget_bytes: Option<u64>,
        policy: &str,
        tenant_quotas: Vec<(String, u64)>,
        replicas: &[ReplicaStats],
    ) -> Self {
        let hits: u64 = replicas.iter().map(|r| r.residency_hits).sum();
        let misses: u64 = replicas.iter().map(|r| r.residency_misses).sum();
        Self {
            sram_budget_bytes,
            policy: policy.to_string(),
            tenant_quotas,
            hits,
            misses,
            hit_rate: if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
            evictions: replicas.iter().map(|r| r.evictions).sum(),
            cold_loads: replicas.iter().map(|r| r.cold_loads).sum(),
            paged_in_bytes: replicas.iter().map(|r| r.paged_in_bytes).sum(),
            paging_us: replicas.iter().map(|r| r.paging_us).sum(),
            resident_bytes: replicas.iter().map(|r| r.resident_bytes).sum(),
            resident_models: replicas.iter().map(|r| r.resident_models).sum(),
        }
    }
}

/// Per-method rollup of simulated device time: how many device-µs each
/// compression method (butterfly / dense baseline / pixelfly / ...) retired
/// across all of its registered models. Answers "where does pod time go by
/// *method*?" directly from the snapshot, without re-aggregating models.
#[derive(Debug, Clone, Serialize)]
pub struct MethodDeviceStats {
    /// Method label (`Method::label()`, e.g. `"Butterfly"`, `"Pixelfly"`).
    pub method: String,
    /// Registered models using this method.
    pub models: usize,
    /// Responses delivered across those models.
    pub completed: u64,
    /// Micro-batches dispatched across those models.
    pub batches: u64,
    /// Simulated device µs retired (compute + cold weight loads).
    pub device_us: f64,
    /// This method's share of the pod's total device time, in [0, 1]
    /// (0 when nothing has been computed yet).
    pub device_share: f64,
}

impl MethodDeviceStats {
    /// Groups the per-model stats by method label, preserving first-seen
    /// (registration) order. The per-method `device_us` values sum to the
    /// same total as the per-model and per-replica tallies.
    pub fn rollup(models: &[ModelStats]) -> Vec<MethodDeviceStats> {
        let total: f64 = models.iter().map(|m| m.device_us).sum();
        let mut out: Vec<MethodDeviceStats> = Vec::new();
        for m in models {
            let slot = match out.iter_mut().find(|s| s.method == m.method) {
                Some(slot) => slot,
                None => {
                    out.push(MethodDeviceStats {
                        method: m.method.clone(),
                        models: 0,
                        completed: 0,
                        batches: 0,
                        device_us: 0.0,
                        device_share: 0.0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            slot.models += 1;
            slot.completed += m.completed;
            slot.batches += m.batches;
            slot.device_us += m.device_us;
        }
        if total > 0.0 {
            for s in &mut out {
                s.device_share = s.device_us / total;
            }
        }
        out
    }
}

/// Per-registry-shard aggregate view.
#[derive(Debug, Clone, Serialize)]
pub struct RegistryShardStats {
    /// Shard index.
    pub shard: usize,
    /// Models registered in this shard.
    pub models: usize,
    /// Summed admission-queue depth of this shard's models at snapshot time.
    pub queue_depth: usize,
}

/// Serializable whole-server snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSnapshot {
    /// Seconds since the server started.
    pub elapsed_s: f64,
    /// Per-model statistics, in registration order.
    pub models: Vec<ModelStats>,
    /// Per-method device-time breakdown (grouped from `models` by the
    /// compression method label, registration order preserved).
    pub methods: Vec<MethodDeviceStats>,
    /// Per-registry-shard queue depths and membership.
    pub shards: Vec<RegistryShardStats>,
    /// Per-replica occupancy, residency and utilization of the simulated pod.
    pub replicas: Vec<ReplicaStats>,
    /// Simulated device µs retired across all models (model-side tally; the
    /// per-replica `device_us` values sum to the same total).
    pub total_device_us: f64,
    /// The pod's simulated makespan: the busiest replica's occupancy clock,
    /// µs. Device-time throughput is `completed compute requests / makespan`.
    pub pod_makespan_us: f64,
    /// Response-cache statistics (counters all zero when disabled).
    pub cache: CacheStats,
    /// Framed-ingress front door statistics (zero/empty unless an
    /// [`crate::ingress::IngressServer`] is attached).
    pub ingress: IngressStats,
    /// Pod-wide weight-residency summary (budget, policy, hit/eviction/
    /// paging totals).
    pub residency: ResidencySummary,
}

impl ServeSnapshot {
    /// Pretty-printed JSON export.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServedFrom;

    #[test]
    fn quantiles_of_known_distribution() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 50);
        assert_eq!(h.quantile(0.95), 95);
        assert_eq!(h.quantile(1.0), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases_are_pinned() {
        // Empty histogram: every q yields 0, including the edges.
        let empty = Histogram::default();
        for q in [0.0, 0.5, 1.0, -1.0, 2.0, f64::NAN] {
            assert_eq!(empty.quantile(q), 0, "empty histogram, q={q}");
        }
        // Single sample: every q yields it.
        let single = Histogram::default();
        single.record(7);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(single.quantile(q), 7, "single sample, q={q}");
        }
        // q=0 is the minimum, q=1 the maximum; out-of-range q clamps.
        let h = Histogram::default();
        for v in [30, 10, 20] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 10);
        assert_eq!(h.quantile(1.0), 30);
        assert_eq!(h.quantile(-0.5), 10, "q below range clamps to the minimum");
        assert_eq!(h.quantile(1.5), 30, "q above range clamps to the maximum");
        assert_eq!(h.quantile(f64::NAN), 10, "NaN q clamps to the minimum");
    }

    #[test]
    fn histogram_thins_but_keeps_count() {
        let h = Histogram::default();
        let n = (MAX_SAMPLES as u64) * 2 + 10;
        for v in 0..n {
            h.record(v);
        }
        assert_eq!(h.count(), n);
        let s = h.state.lock();
        assert!(s.samples.len() <= MAX_SAMPLES, "retained set stays within the bound");
        assert!(s.stride > 1, "thinning engaged");
    }

    #[test]
    fn histogram_quantiles_stay_sane_across_several_halvings() {
        // A uniform 0..n ramp: after any number of stride halvings the
        // retained set still samples the ramp systematically, so quantiles
        // must stay close to q*n and the bound must hold throughout.
        let h = Histogram::default();
        let n = (MAX_SAMPLES as u64) * 5; // three halvings (stride reaches 8)
        for v in 0..n {
            h.record(v);
        }
        assert_eq!(h.count(), n);
        {
            let s = h.state.lock();
            assert!(s.samples.len() <= MAX_SAMPLES);
            assert!(s.stride >= 8, "several halvings engaged, stride {}", s.stride);
            for w in s.samples.windows(2) {
                assert!(w[0] < w[1], "retained ramp samples stay ordered — no phase bias");
            }
        }
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let got = h.quantile(q) as f64;
            let want = q * n as f64;
            assert!((got - want).abs() < n as f64 * 0.02, "q={q}: got {got}, want ~{want}");
        }
    }

    #[test]
    fn histogram_sum_saturates_instead_of_overflowing() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!((h.mean() - u64::MAX as f64 / 2.0).abs() <= u64::MAX as f64 / 2.0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = ModelMetrics::default();
        m.admitted.fetch_add(10, Ordering::Relaxed);
        m.shed.fetch_add(2, Ordering::Relaxed);
        m.cache_hits.fetch_add(5, Ordering::Relaxed);
        m.record_batch(4);
        let t = Timing {
            queue_us: 10,
            service_us: 20,
            total_us: 30,
            batch_size: 4,
            ipu_batch_us: None,
            gpu_batch_us: None,
            sim_batch_us: Some(12.5),
            source: ServedFrom::Compute,
            replica: Some(1),
        };
        m.record_response(&t);
        let replicas = vec![ReplicaStats {
            replica: 0,
            batches: 1,
            requests: 4,
            queue_depth: 0,
            device_us: 12.5,
            weight_load_us: 0.0,
            cold_loads: 0,
            residency_hits: 1,
            residency_misses: 0,
            evictions: 0,
            paged_in_bytes: 0,
            paging_us: 0.0,
            resident_bytes: 4_096,
            resident_models: 1,
            utilization: 1.0,
            crashes: 0,
            recoveries: 0,
            retried_batches: 0,
            up: true,
            enrolled: true,
            scale_ups: 0,
            drains: 0,
        }];
        let residency = ResidencySummary::from_replicas(Some(1 << 20), "lru", vec![], &replicas);
        let models = vec![m.snapshot(
            "butterfly",
            "default",
            "Butterfly",
            4_096,
            1.0,
            3,
            2,
            12_500,
            (1, 0, 0),
        )];
        let methods = MethodDeviceStats::rollup(&models);
        let snap = ServeSnapshot {
            elapsed_s: 1.0,
            models,
            methods,
            shards: vec![RegistryShardStats { shard: 0, models: 1, queue_depth: 3 }],
            replicas,
            total_device_us: 12.5,
            pod_makespan_us: 12.5,
            cache: CacheStats::disabled(),
            ingress: IngressStats::disabled(),
            residency,
        };
        let json = snap.to_json();
        assert!(json.contains("\"model\": \"butterfly\""), "{json}");
        assert!(json.contains("\"tenant\": \"default\""), "{json}");
        assert!(json.contains("\"weight_bytes\": 4096"), "{json}");
        assert!(json.contains("\"sram_budget_bytes\": 1048576"), "{json}");
        assert!(json.contains("\"policy\": \"lru\""), "{json}");
        assert!(json.contains("\"resident_models\": 1"), "{json}");
        assert_eq!(snap.residency.hit_rate, 1.0);
        assert!(json.contains("\"shed\": 2"), "{json}");
        assert!(json.contains("\"queue_depth\": 3"), "{json}");
        assert!(json.contains("\"cache_hits\": 5"), "{json}");
        assert!(json.contains("\"memoized_estimates\": 2"), "{json}");
        assert!(json.contains("\"shards\""), "{json}");
        assert!(json.contains("\"replicas\""), "{json}");
        assert!(json.contains("\"utilization\": 1.0"), "{json}");
        assert!(json.contains("\"total_device_us\": 12.5"), "{json}");
        assert!(json.contains("\"crashes\": 0"), "{json}");
        assert!(json.contains("\"up\": true"), "{json}");
        assert!(json.contains("\"deadline_exceeded\": 0"), "{json}");
        assert!(json.contains("\"ingress\""), "{json}");
        assert!(!snap.ingress.enabled, "no ingress attached in this snapshot");
        assert!(json.contains("\"method\": \"Butterfly\""), "{json}");
        assert!(json.contains("\"device_share\": 1.0"), "{json}");
        assert_eq!(snap.models[0].device_us, 12.5, "ns tally exports as µs");
        assert_eq!(snap.methods.len(), 1);
        assert_eq!(snap.methods[0].device_us, 12.5, "method rollup carries the model tally");
    }

    #[test]
    fn failure_responses_count_but_stay_out_of_latency() {
        let m = ModelMetrics::default();
        let base = Timing {
            queue_us: 10,
            service_us: 0,
            total_us: 999,
            batch_size: 1,
            ipu_batch_us: Some(0.0),
            gpu_batch_us: Some(0.0),
            sim_batch_us: Some(0.0),
            source: ServedFrom::DeadlineExceeded,
            replica: None,
        };
        m.record_response(&base);
        m.record_response(&Timing { source: ServedFrom::PodDown, ..base });
        m.record_response(&Timing { source: ServedFrom::Compute, total_us: 30, ..base });
        let s = m.snapshot("x", "t", "Butterfly", 0, 1.0, 0, 0, 0, (0, 0, 0));
        assert_eq!(s.completed, 3);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.pod_down, 1);
        assert_eq!(m.latency_us.count(), 1, "only the computed response is timed");
        assert_eq!(s.latency_p99_us, 30);
    }

    #[test]
    fn ingress_metrics_tally_per_tenant() {
        let m = IngressMetrics::default();
        m.connections.fetch_add(2, Ordering::Relaxed);
        m.frames.fetch_add(5, Ordering::Relaxed);
        m.record_admitted("acme");
        m.record_admitted("acme");
        m.record_throttled("acme");
        m.record_deferred("zeta");
        let s = m.stats();
        assert!(s.enabled);
        assert_eq!(s.connections, 2);
        assert_eq!(s.frames, 5);
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].tenant, "acme", "tenant-sorted export");
        assert_eq!(s.tenants[0].admitted, 2);
        assert_eq!(s.tenants[0].throttled, 1);
        assert_eq!(s.tenants[1].tenant, "zeta");
        assert_eq!(s.tenants[1].deferred, 1);
        let disabled = IngressStats::disabled();
        assert!(!disabled.enabled);
        assert!(disabled.tenants.is_empty());
    }

    #[test]
    fn shed_rate_is_fraction_of_offered() {
        let m = ModelMetrics::default();
        m.admitted.fetch_add(3, Ordering::Relaxed);
        m.shed.fetch_add(1, Ordering::Relaxed);
        let s = m.snapshot("x", "t", "Butterfly", 0, 1.0, 0, 0, 0, (0, 0, 0));
        assert!((s.shed_rate - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cache_hit_rate_counts_all_lookups() {
        let m = ModelMetrics::default();
        m.cache_hits.fetch_add(6, Ordering::Relaxed);
        m.cache_coalesced.fetch_add(2, Ordering::Relaxed);
        m.cache_misses.fetch_add(4, Ordering::Relaxed);
        let s = m.snapshot("x", "t", "Butterfly", 0, 1.0, 0, 0, 0, (0, 0, 0));
        assert!((s.cache_hit_rate - 0.5).abs() < 1e-12);
        assert_eq!(s.cache_hits, 6);
        assert_eq!(s.cache_coalesced, 2);
        assert_eq!(s.cache_misses, 4);
    }
}
