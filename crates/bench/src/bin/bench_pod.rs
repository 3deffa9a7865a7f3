//! bench_pod — pod-parallel serving scaling across a simulated multi-IPU
//! pod (`bfly-serve`'s replica scheduler).
//!
//! For each pod size the closed-loop generator offers an identical seeded
//! saturating workload (cache off, so every request computes), and the
//! server routes micro-batches across the pod's replica occupancy clocks.
//! Host execution is unchanged — what scales is *simulated device
//! throughput*: completed requests over the pod's simulated makespan (the
//! maximum replica clock, µs). A perfectly balanced router makes the
//! makespan shrink like 1/replicas, so the `scaling` column approaches the
//! pod size; imbalance and one-time weight loads eat into it. Butterfly and
//! dense baseline models are swept side by side: a butterfly model's
//! weights replicate across the pod's IPU-Links almost for free, while the
//! dense baseline pays ~n²·4 bytes per cold replica — the paper's
//! compression argument restated as deployment elasticity. Pixelfly (fused
//! block-sparse + low-rank) rides the same sweep now that its serve path
//! is allocation-free.
//!
//! Environment knobs: BFLY_POD_DIM (default 256), BFLY_POD_CLIENTS (default
//! 16), BFLY_POD_PER_CLIENT (default 250), BFLY_POD_WORKERS (default 2),
//! BFLY_POD_BATCH (default 32), BFLY_POD_POOL (input-reuse pool size,
//! default 64), BFLY_POD_ROUTING (rr | p2c | jsq, default p2c).
//!
//! `--smoke` (or BFLY_BENCH_SMOKE=1) runs a tiny sweep for CI and skips the
//! JSON write so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{env_u64, env_usize, host_cores, smoke_run};
use bfly_core::{Method, PixelflyConfig};
use bfly_serve::{
    closed_loop, CacheConfig, LoadReport, ReplicaStats, Routing, ServeConfig, Server,
};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct RunStats {
    method: String,
    replicas: usize,
    /// Completed compute requests (cache is off: every request computes).
    completed: u64,
    /// Simulated pod makespan: the maximum replica occupancy clock, µs.
    pod_makespan_us: f64,
    /// Total simulated device time retired across the pod, µs.
    total_device_us: f64,
    /// Completed requests per simulated device second: completed /
    /// (makespan µs / 1e6). The number that scales with the pod.
    sim_throughput_rps: f64,
    /// sim_throughput over the same method's pod=1 run.
    scaling: f64,
    /// Host-side wall-clock throughput (unchanged by the pod: replicas are
    /// simulated devices, the worker pool is the same).
    wall_throughput_rps: f64,
    latency_p99_us: u64,
    mean_batch: f64,
    /// One-time simulated weight-load µs paid across all cold replicas.
    weight_load_us: f64,
    cold_loads: u64,
    replicas_detail: Vec<ReplicaStats>,
}

#[derive(Serialize)]
struct BenchOutput {
    dim: usize,
    classes: usize,
    workers: usize,
    host_cores: usize,
    clients: u64,
    per_client: u64,
    max_batch: usize,
    input_pool: usize,
    routing: String,
    pod_sizes: Vec<usize>,
    results: Vec<RunStats>,
}

struct Workload {
    dim: usize,
    workers: usize,
    max_batch: usize,
    clients: u64,
    per_client: u64,
    pool: usize,
    routing: Routing,
}

fn run_once(w: &Workload, method: Method, replicas: usize) -> (LoadReport, RunStats) {
    let config = ServeConfig {
        dim: w.dim,
        classes: 10,
        seed: 0xB0D5,
        max_batch: w.max_batch,
        max_wait: Duration::from_micros(200),
        // Deep enough that the closed loop never spins on sheds.
        queue_capacity: (w.clients as usize * 4).max(256),
        workers: w.workers,
        tensor_cores: false,
        // Cache off: every request must compute, so completed requests map
        // 1:1 onto simulated device work and the scaling number is honest.
        cache: CacheConfig::disabled(),
        replicas,
        routing: w.routing,
        ..Default::default()
    };
    let name = method.label().to_lowercase();
    let server = Server::start(config, &[method]).expect("dim must fit the method");
    let report = closed_loop(&server, &[name.as_str()], w.clients, w.per_client, 0xBEE5, w.pool);
    let snapshot = server.shutdown();
    let makespan_us = snapshot.pod_makespan_us;
    let sim_throughput =
        if makespan_us > 0.0 { report.completed as f64 / (makespan_us / 1e6) } else { 0.0 };
    let stats = RunStats {
        method: name,
        replicas,
        completed: report.completed,
        pod_makespan_us: makespan_us,
        total_device_us: snapshot.total_device_us,
        sim_throughput_rps: sim_throughput,
        scaling: 1.0, // filled in against the pod=1 run by the sweep
        wall_throughput_rps: report.throughput_rps,
        latency_p99_us: report.latency_p99_us,
        mean_batch: report.mean_batch,
        weight_load_us: snapshot.replicas.iter().map(|r| r.weight_load_us).sum(),
        cold_loads: snapshot.replicas.iter().map(|r| r.cold_loads).sum(),
        replicas_detail: snapshot.replicas,
    };
    (report, stats)
}

fn main() {
    let smoke = smoke_run();
    let workload = Workload {
        dim: env_usize("BFLY_POD_DIM", 256),
        workers: env_usize("BFLY_POD_WORKERS", 2),
        max_batch: env_usize("BFLY_POD_BATCH", 32),
        clients: env_u64("BFLY_POD_CLIENTS", if smoke { 4 } else { 16 }),
        per_client: env_u64("BFLY_POD_PER_CLIENT", if smoke { 25 } else { 250 }),
        pool: env_usize("BFLY_POD_POOL", 64),
        routing: std::env::var("BFLY_POD_ROUTING")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_default(),
    };
    let host_cores = host_cores();
    let pod_sizes: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };

    println!(
        "bench_pod: dim {}, {} clients x {} requests, batch {}, {} workers, \
         routing {}, host cores {}{}\n",
        workload.dim,
        workload.clients,
        workload.per_client,
        workload.max_batch,
        workload.workers,
        workload.routing.label(),
        host_cores,
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>10} {:>4} {:>9} {:>14} {:>14} {:>8} {:>12} {:>10} {:>6}",
        "method",
        "pod",
        "requests",
        "makespan us",
        "sim rps",
        "scaling",
        "load us",
        "min util",
        "cold"
    );

    let mut results = Vec::new();
    let methods =
        [Method::Butterfly, Method::Baseline, Method::Pixelfly(PixelflyConfig::paper_default())];
    for &method in &methods {
        let mut base_throughput = 0.0f64;
        for &replicas in &pod_sizes {
            let (_, mut stats) = run_once(&workload, method, replicas);
            if replicas == 1 {
                base_throughput = stats.sim_throughput_rps;
            }
            stats.scaling = if base_throughput > 0.0 {
                stats.sim_throughput_rps / base_throughput
            } else {
                0.0
            };
            let min_util =
                stats.replicas_detail.iter().map(|r| r.utilization).fold(f64::INFINITY, f64::min);
            println!(
                "{:>10} {:>4} {:>9} {:>14.0} {:>14.0} {:>7.2}x {:>12.1} {:>10.3} {:>6}",
                stats.method,
                replicas,
                stats.completed,
                stats.pod_makespan_us,
                stats.sim_throughput_rps,
                stats.scaling,
                stats.weight_load_us,
                min_util,
                stats.cold_loads,
            );
            results.push(stats);
        }
    }

    println!();
    let output = BenchOutput {
        dim: workload.dim,
        classes: 10,
        workers: workload.workers,
        host_cores,
        clients: workload.clients,
        per_client: workload.per_client,
        max_batch: workload.max_batch,
        input_pool: workload.pool,
        routing: workload.routing.label().to_string(),
        pod_sizes,
        results,
    };
    write_bench_json("pod", &output, smoke);
}
