//! bench_chaos — serving throughput under injected replica faults
//! (`bfly-serve`'s deterministic fault plans).
//!
//! A calibration run first measures the fault-free simulated device work of
//! the workload on the pod; seeded crash/recovery schedules are then placed
//! at fractions of that horizon so the faults land *inside* the run
//! whatever the host machine's speed. For each crash count the same seeded
//! closed-loop workload replays and the sweep records what degraded
//! serving costs: completed vs failed requests, batches stranded by
//! crashes and retried on survivors, the cold weight loads recovered
//! replicas re-pay, and simulated throughput relative to the fault-free
//! run. Butterfly and dense baseline models are swept side by side — a
//! recovered butterfly replica re-warms its factorized weights orders of
//! magnitude cheaper than the dense baseline's ~n²·4-byte reload, so
//! compression shows up again as *recovery* elasticity, not just capacity.
//!
//! Environment knobs: BFLY_CHAOS_DIM (default 256), BFLY_CHAOS_CLIENTS
//! (default 16), BFLY_CHAOS_PER_CLIENT (default 250), BFLY_CHAOS_WORKERS
//! (default 2), BFLY_CHAOS_BATCH (default 32), BFLY_CHAOS_POOL (default
//! 64), BFLY_CHAOS_REPLICAS (default 4), BFLY_CHAOS_ROUTING (rr | p2c |
//! jsq, default p2c), BFLY_CHAOS_SEED (fault-plan seed, default 7).
//!
//! `--smoke` (or BFLY_BENCH_SMOKE=1) runs a tiny sweep for CI and skips the
//! JSON write so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{env_u64, env_usize, host_cores, smoke_run};
use bfly_core::Method;
use bfly_serve::{
    closed_loop, CacheConfig, FaultPlan, LoadReport, ReplicaStats, Routing, ServeConfig, Server,
};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize, Clone)]
struct RunStats {
    method: String,
    /// Crash/recovery pairs injected (0 = the fault-free calibration run).
    faults: usize,
    replicas: usize,
    /// Responses received, successes and failures alike.
    completed: u64,
    /// Requests answered or refused PodDown (whole pod transiently dark).
    pod_down: u64,
    /// Batches stranded by a crash and re-run on a survivor.
    retried_batches: u64,
    crashes: u64,
    recoveries: u64,
    /// Cold weight loads paid, including every re-warm after a recovery.
    cold_loads: u64,
    /// Simulated µs spent re-loading weights across the run.
    weight_load_us: f64,
    /// Simulated pod makespan: the maximum replica occupancy clock, µs.
    pod_makespan_us: f64,
    /// Successful requests per simulated device second.
    sim_throughput_rps: f64,
    /// sim_throughput over the same method's fault-free run: what the
    /// injected faults cost.
    vs_fault_free: f64,
    wall_throughput_rps: f64,
    latency_p99_us: u64,
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
    replicas: usize,
    routing: String,
    fault_seed: u64,
    /// Fault-free simulated device work the schedules were calibrated
    /// against, µs per method.
    calibration_horizon_us: Vec<(String, f64)>,
    fault_counts: Vec<usize>,
    results: Vec<RunStats>,
}

struct Workload {
    dim: usize,
    workers: usize,
    max_batch: usize,
    clients: u64,
    per_client: u64,
    pool: usize,
    replicas: usize,
    routing: Routing,
    fault_seed: u64,
}

fn run_once(
    w: &Workload,
    method: Method,
    faults: usize,
    plan: FaultPlan,
) -> (LoadReport, RunStats) {
    let config = ServeConfig {
        dim: w.dim,
        classes: 10,
        seed: 0xB0D5,
        max_batch: w.max_batch,
        max_wait: Duration::from_micros(200),
        queue_capacity: (w.clients as usize * 4).max(256),
        workers: w.workers,
        tensor_cores: false,
        // Cache off: every request must compute, so completed requests map
        // 1:1 onto simulated device work and the degradation is honest.
        cache: CacheConfig::disabled(),
        replicas: w.replicas,
        routing: w.routing,
        fault_plan: plan,
        ..Default::default()
    };
    let name = method.label().to_lowercase();
    let server = Server::start(config, &[method]).expect("dim must fit the method");
    let report = closed_loop(&server, &[name.as_str()], w.clients, w.per_client, 0xBEE5, w.pool);
    let snapshot = server.shutdown();
    let makespan_us = snapshot.pod_makespan_us;
    let succeeded = report.completed - report.pod_down - report.deadline_exceeded;
    let sim_throughput =
        if makespan_us > 0.0 { succeeded as f64 / (makespan_us / 1e6) } else { 0.0 };
    let stats = RunStats {
        method: name,
        faults,
        replicas: w.replicas,
        completed: report.completed,
        pod_down: report.pod_down,
        retried_batches: snapshot.replicas.iter().map(|r| r.retried_batches).sum(),
        crashes: snapshot.replicas.iter().map(|r| r.crashes).sum(),
        recoveries: snapshot.replicas.iter().map(|r| r.recoveries).sum(),
        cold_loads: snapshot.replicas.iter().map(|r| r.cold_loads).sum(),
        weight_load_us: snapshot.replicas.iter().map(|r| r.weight_load_us).sum(),
        pod_makespan_us: makespan_us,
        sim_throughput_rps: sim_throughput,
        vs_fault_free: 1.0, // filled in against the faults=0 run by the sweep
        wall_throughput_rps: report.throughput_rps,
        latency_p99_us: report.latency_p99_us,
        replicas_detail: snapshot.replicas,
    };
    (report, stats)
}

fn main() {
    let smoke = smoke_run();
    let workload = Workload {
        dim: env_usize("BFLY_CHAOS_DIM", 256),
        workers: env_usize("BFLY_CHAOS_WORKERS", 2),
        max_batch: env_usize("BFLY_CHAOS_BATCH", 32),
        clients: env_u64("BFLY_CHAOS_CLIENTS", if smoke { 4 } else { 16 }),
        per_client: env_u64("BFLY_CHAOS_PER_CLIENT", if smoke { 25 } else { 250 }),
        pool: env_usize("BFLY_CHAOS_POOL", 64),
        replicas: env_usize("BFLY_CHAOS_REPLICAS", if smoke { 2 } else { 4 }),
        routing: std::env::var("BFLY_CHAOS_ROUTING")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_default(),
        fault_seed: env_u64("BFLY_CHAOS_SEED", 7),
    };
    let host_cores = host_cores();
    let fault_counts: Vec<usize> = if smoke { vec![0, 2] } else { vec![0, 2, 4, 8] };

    println!(
        "bench_chaos: dim {}, {} clients x {} requests, batch {}, {} workers, \
         pod {}, routing {}, fault seed {}, host cores {}{}\n",
        workload.dim,
        workload.clients,
        workload.per_client,
        workload.max_batch,
        workload.workers,
        workload.replicas,
        workload.routing.label(),
        workload.fault_seed,
        host_cores,
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>10} {:>7} {:>9} {:>8} {:>8} {:>8} {:>6} {:>12} {:>14} {:>9}",
        "method",
        "faults",
        "requests",
        "pod_down",
        "retried",
        "crashes",
        "cold",
        "load us",
        "sim rps",
        "vs clean"
    );

    let mut calibration = Vec::new();
    let mut results = Vec::new();
    for &method in &[Method::Butterfly, Method::Baseline] {
        // Calibration: the fault-free run both anchors vs_fault_free and
        // measures the simulated-work horizon the crash schedules target.
        let (_, clean) = run_once(&workload, method, 0, FaultPlan::none());
        let horizon_us = clean.total_presented_us();
        calibration.push((clean.method.clone(), horizon_us));
        let clean_throughput = clean.sim_throughput_rps;
        for &faults in &fault_counts {
            let stats = if faults == 0 {
                // Reuse the calibration run rather than re-measuring it.
                let mut s = clean.clone();
                s.vs_fault_free = 1.0;
                s
            } else {
                // Crashes at fractions of the measured horizon, so they
                // fire mid-run on any host.
                let plan = FaultPlan::seeded(
                    workload.fault_seed,
                    workload.replicas,
                    horizon_us * 0.8,
                    faults,
                );
                let (_, mut s) = run_once(&workload, method, faults, plan);
                s.vs_fault_free = if clean_throughput > 0.0 {
                    s.sim_throughput_rps / clean_throughput
                } else {
                    0.0
                };
                s
            };
            println!(
                "{:>10} {:>7} {:>9} {:>8} {:>8} {:>8} {:>6} {:>12.1} {:>14.0} {:>8.2}x",
                stats.method,
                stats.faults,
                stats.completed,
                stats.pod_down,
                stats.retried_batches,
                stats.crashes,
                stats.cold_loads,
                stats.weight_load_us,
                stats.sim_throughput_rps,
                stats.vs_fault_free,
            );
            results.push(stats);
        }
        println!();
    }

    let output = BenchOutput {
        dim: workload.dim,
        classes: 10,
        workers: workload.workers,
        host_cores,
        clients: workload.clients,
        per_client: workload.per_client,
        max_batch: workload.max_batch,
        input_pool: workload.pool,
        replicas: workload.replicas,
        routing: workload.routing.label().to_string(),
        fault_seed: workload.fault_seed,
        calibration_horizon_us: calibration,
        fault_counts,
        results,
    };
    write_bench_json("chaos", &output, smoke);
}

impl RunStats {
    /// The simulated compute the run *presented* to the pod: what the
    /// fault plan's clock counts, i.e. retired work net of weight loads.
    fn total_presented_us(&self) -> f64 {
        let retired: f64 = self.replicas_detail.iter().map(|r| r.device_us).sum();
        (retired - self.weight_load_us).max(0.0)
    }
}
