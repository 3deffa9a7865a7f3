//! bench_multitenant — multi-tenant weight residency under an SRAM budget.
//!
//! The paper's butterfly factorization shrinks a model's weight footprint
//! from ~n²·4 bytes to O(n log n); this bench restates that as *tenant
//! density*: how many models stay resident in one replica's SRAM budget,
//! and what happens to the simulated tail when a fleet outgrows it. For
//! each fleet size the same seeded Zipf-skewed trace (a few hot models, a
//! long cold tail, spread over `tenants` tenants round-robin) is offered
//! to a butterfly fleet and a dense-baseline fleet at the *same* budget:
//!
//! - the butterfly fleet keeps many times more models resident, so the
//!   residency hit rate stays high and `sim p99` stays near pure compute;
//! - the dense fleet thrashes once the working set exceeds the budget —
//!   every touch becomes a streaming page-in (bytes / streaming bandwidth
//!   plus the collective launch), and the hit-rate and p99 fall off a
//!   cliff together.
//!
//! Environment knobs: BFLY_MT_DIM (default 256), BFLY_MT_BUDGET_KB
//! (per-replica SRAM budget, default 1024), BFLY_MT_TENANTS (default 4),
//! BFLY_MT_ZIPF (popularity exponent, default 1.0), BFLY_MT_CLIENTS
//! (default 8), BFLY_MT_PER_CLIENT (default 150), BFLY_MT_POLICY (lru |
//! cost-aware, default lru), BFLY_MT_TRACE (pre-sampled trace length,
//! default 512).
//!
//! `--smoke` (or BFLY_BENCH_SMOKE=1) runs a tiny sweep for CI and skips the
//! JSON write so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{env_f64, env_u64, env_usize, host_cores, smoke_run};
use bfly_core::Method;
use bfly_serve::{
    closed_loop, CacheConfig, ModelSpec, ResidencyConfig, ResidencyPolicy, ServeConfig, Server,
    ZipfSampler,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct RunStats {
    method: String,
    /// Registered fleet size (models, spread round-robin over tenants).
    models: usize,
    /// Per-model weight footprint, bytes (all models in a run share one
    /// method, so one number describes the fleet).
    weight_bytes_per_model: u64,
    completed: u64,
    /// Models resident on the (single) replica when the run ended — the
    /// tenant-density number the butterfly factorization buys.
    resident_models: usize,
    resident_bytes: u64,
    /// Distinct tenants with at least one resident model at the end.
    resident_tenants: usize,
    residency_hits: u64,
    residency_misses: u64,
    residency_hit_rate: f64,
    evictions: u64,
    cold_loads: u64,
    /// Bytes re-fetched over the streaming link after evictions.
    paged_in_bytes: u64,
    /// Simulated µs spent streaming those bytes back in.
    paging_us: f64,
    /// Simulated per-batch latency quantiles, µs: compute plus whatever
    /// weight transfer each batch's residency miss charged.
    sim_p50_us: f64,
    sim_p99_us: f64,
    wall_throughput_rps: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    host_cores: usize,
    dim: usize,
    classes: usize,
    sram_budget_bytes: u64,
    policy: String,
    tenants: usize,
    zipf_exponent: f64,
    clients: u64,
    per_client: u64,
    trace_len: usize,
    fleet_sizes: Vec<usize>,
    results: Vec<RunStats>,
}

struct Workload {
    dim: usize,
    budget: u64,
    policy: ResidencyPolicy,
    tenants: usize,
    zipf: f64,
    clients: u64,
    per_client: u64,
    trace_len: usize,
}

/// One fleet at one budget: `models` instances of `method`, tenants
/// assigned round-robin, loaded with a seeded Zipf-skewed trace.
fn run_once(w: &Workload, method: Method, models: usize) -> RunStats {
    let specs: Vec<ModelSpec> = (0..models)
        .map(|i| ModelSpec::named(&format!("m{i:03}"), method, &format!("tenant{}", i % w.tenants)))
        .collect();
    let config = ServeConfig {
        dim: w.dim,
        classes: 10,
        seed: 0x7E4A,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
        queue_capacity: (w.clients as usize * 4).max(256),
        workers: 2,
        // Cache off: every request computes and touches the residency
        // manager, so hit rates and paged bytes reflect the weight working
        // set, not response memoization.
        cache: CacheConfig::disabled(),
        // One replica: density and thrash are per-SRAM-budget phenomena;
        // more replicas would just replicate the same curve.
        replicas: 1,
        residency: ResidencyConfig { policy: w.policy, ..ResidencyConfig::with_budget(w.budget) },
        ..Default::default()
    };
    let server = Server::start_fleet(config, &specs, Vec::new()).expect("valid fleet");

    // Pre-sample the Zipf-skewed model trace once, seeded, so butterfly and
    // dense fleets of the same size see the *identical* popularity pattern.
    let sampler = ZipfSampler::new(models, w.zipf);
    let mut rng = ChaCha8Rng::seed_from_u64(0x21F5);
    let names: Vec<String> =
        (0..w.trace_len).map(|_| format!("m{:03}", sampler.sample(&mut rng))).collect();
    let trace: Vec<&str> = names.iter().map(String::as_str).collect();

    let report = closed_loop(&server, &trace, w.clients, w.per_client, 0xFEED, 64);
    let snapshot = server.shutdown();
    let res = &snapshot.residency;
    let resident_tenants = {
        // A tenant is "resident" when at least one of its models ended the
        // run in SRAM: misses < touches means the model was resident at
        // some point, but the end-state count comes from per-model stats.
        let mut seen = vec![false; w.tenants];
        for (i, m) in snapshot.models.iter().enumerate() {
            // End-of-run residency is not exported per model; approximate
            // by "hit at least once", which a never-resident (stream-through
            // or never-touched) model cannot satisfy.
            if m.residency_hits > 0 {
                seen[i % w.tenants] = true;
            }
        }
        seen.iter().filter(|&&s| s).count()
    };
    RunStats {
        method: method.label().to_lowercase(),
        models,
        weight_bytes_per_model: snapshot.models.first().map_or(0, |m| m.weight_bytes),
        completed: report.completed,
        resident_models: res.resident_models,
        resident_bytes: res.resident_bytes,
        resident_tenants,
        residency_hits: res.hits,
        residency_misses: res.misses,
        residency_hit_rate: res.hit_rate,
        evictions: res.evictions,
        cold_loads: res.cold_loads,
        paged_in_bytes: res.paged_in_bytes,
        paging_us: res.paging_us,
        sim_p50_us: report.sim_p50_us,
        sim_p99_us: report.sim_p99_us,
        wall_throughput_rps: report.throughput_rps,
    }
}

fn main() {
    let smoke = smoke_run();
    let workload = Workload {
        dim: env_usize("BFLY_MT_DIM", 256),
        budget: env_u64("BFLY_MT_BUDGET_KB", 1024) * 1024,
        policy: match std::env::var("BFLY_MT_POLICY").as_deref() {
            Ok("cost-aware") => ResidencyPolicy::CostAware,
            _ => ResidencyPolicy::Lru,
        },
        tenants: env_usize("BFLY_MT_TENANTS", 4),
        zipf: env_f64("BFLY_MT_ZIPF", 1.0),
        clients: env_u64("BFLY_MT_CLIENTS", if smoke { 4 } else { 8 }),
        per_client: env_u64("BFLY_MT_PER_CLIENT", if smoke { 20 } else { 150 }),
        trace_len: env_usize("BFLY_MT_TRACE", 512),
    };
    let fleet_sizes: Vec<usize> = if smoke { vec![4, 8] } else { vec![8, 32, 96] };

    println!(
        "bench_multitenant: dim {}, budget {} KiB, policy {}, {} tenants, zipf {}, \
         {} clients x {} requests{}\n",
        workload.dim,
        workload.budget / 1024,
        workload.policy.label(),
        workload.tenants,
        workload.zipf,
        workload.clients,
        workload.per_client,
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>10} {:>6} {:>10} {:>9} {:>8} {:>9} {:>10} {:>12} {:>12} {:>12}",
        "method",
        "fleet",
        "bytes/mdl",
        "resident",
        "tenants",
        "hit rate",
        "evictions",
        "paged KiB",
        "sim p50 us",
        "sim p99 us"
    );

    let mut results = Vec::new();
    for &models in &fleet_sizes {
        for &method in &[Method::Butterfly, Method::Baseline] {
            let stats = run_once(&workload, method, models);
            println!(
                "{:>10} {:>6} {:>10} {:>9} {:>8} {:>9.3} {:>10} {:>12.0} {:>12.2} {:>12.2}",
                stats.method,
                stats.models,
                stats.weight_bytes_per_model,
                stats.resident_models,
                stats.resident_tenants,
                stats.residency_hit_rate,
                stats.evictions,
                stats.paged_in_bytes as f64 / 1024.0,
                stats.sim_p50_us,
                stats.sim_p99_us,
            );
            results.push(stats);
        }
    }

    let output = BenchOutput {
        host_cores: host_cores(),
        dim: workload.dim,
        classes: 10,
        sram_budget_bytes: workload.budget,
        policy: workload.policy.label().to_string(),
        tenants: workload.tenants,
        zipf_exponent: workload.zipf,
        clients: workload.clients,
        per_client: workload.per_client,
        trace_len: workload.trace_len,
        fleet_sizes,
        results,
    };
    println!();
    write_bench_json("multitenant", &output, smoke);
}
