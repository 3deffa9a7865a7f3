//! bench_cache — quantifies the content-addressed response cache of
//! `bfly-serve`.
//!
//! The generator offers the identical seeded workload twice — once with the
//! cache disabled, once enabled — at each point of an input-reuse sweep:
//! the open-loop driver cycles through a pool of `p` distinct inputs across
//! `n` requests, so the fraction `1 - p/n` of the offered load is repeated
//! content. With the cache off every request computes; with it on, repeats
//! are served from the memo (or coalesce onto an in-flight forward) without
//! touching the batcher. Queues are sized to never shed, so both runs
//! complete the same `n` requests and the comparison is at equal offered
//! load; the cache's win shows up as wall-clock (throughput) and tail
//! latency. Results are printed as a table and written to
//! `BENCH_cache.json`.
//!
//! Environment knobs: BFLY_CACHE_DIM (default 256), BFLY_CACHE_REQUESTS
//! (default 4000), BFLY_CACHE_RATE (offered rps, default 1e6 ~ burst),
//! BFLY_CACHE_WORKERS (default 2), BFLY_CACHE_BATCH (default 32).
//!
//! `--smoke` (or BFLY_BENCH_SMOKE=1) runs a tiny sweep for CI and skips the
//! JSON write so checked-in numbers always come from a full run.

use bfly_bench::json::write_bench_json;
use bfly_bench::{env_f64, env_usize, host_cores, smoke_run};
use bfly_core::Method;
use bfly_serve::{open_loop, CacheConfig, LoadReport, ServeConfig, Server};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct RunStats {
    cache_enabled: bool,
    throughput_rps: f64,
    latency_p50_us: u64,
    latency_p95_us: u64,
    latency_p99_us: u64,
    latency_mean_us: f64,
    completed: u64,
    shed: u64,
    /// Server-side cache accounting for this run (all zero when disabled).
    cache_hits: u64,
    cache_coalesced: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    /// Fraction of lookups served without a dedicated forward (memo hits
    /// plus coalesced riders) — the share of offered load the cache
    /// absorbed. Under a burst most repeats coalesce onto the in-flight
    /// leader rather than hit the memo, so this is the honest "cached"
    /// number.
    cache_served_rate: f64,
}

#[derive(Serialize)]
struct SweepPoint {
    /// Distinct inputs the generator cycled through.
    pool_size: usize,
    /// Fraction of offered requests whose input was a repeat: `1 - p/n`.
    reuse_frac: f64,
    cache_off: RunStats,
    cache_on: RunStats,
    /// cache-on throughput over cache-off throughput at equal offered load.
    throughput_speedup: f64,
    /// cache-off p99 over cache-on p99 (>1 means the cache cut the tail).
    p99_reduction: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    host_cores: usize,
    dim: usize,
    classes: usize,
    workers: usize,
    requests: u64,
    offered_rate_rps: f64,
    max_batch: usize,
    cache_capacity: usize,
    cache_shards: usize,
    results: Vec<SweepPoint>,
}

#[allow(clippy::too_many_arguments)]
fn run_once(
    dim: usize,
    workers: usize,
    max_batch: usize,
    requests: u64,
    rate: f64,
    pool_size: usize,
    cache: CacheConfig,
) -> RunStats {
    let enabled = cache.enabled;
    let config = ServeConfig {
        dim,
        classes: 10,
        seed: 0xCACE,
        max_batch,
        max_wait: Duration::from_micros(200),
        // Deep enough that nothing sheds: both runs then complete the same
        // offered load and throughput compares wall-clock, not drop rate.
        queue_capacity: (requests as usize).max(256),
        workers,
        tensor_cores: false,
        cache,
        ..Default::default()
    };
    let server = Server::start(config, &[Method::Butterfly]).expect("dim must fit butterfly");
    let report: LoadReport = open_loop(&server, "butterfly", rate, requests, 0xBEE5, pool_size);
    let snapshot = server.shutdown();
    let m = &snapshot.models[0];
    RunStats {
        cache_enabled: enabled,
        throughput_rps: report.throughput_rps,
        latency_p50_us: report.latency_p50_us,
        latency_p95_us: report.latency_p95_us,
        latency_p99_us: report.latency_p99_us,
        latency_mean_us: report.latency_mean_us,
        completed: report.completed,
        shed: report.shed,
        cache_hits: m.cache_hits,
        cache_coalesced: m.cache_coalesced,
        cache_misses: m.cache_misses,
        cache_hit_rate: m.cache_hit_rate,
        cache_served_rate: {
            let looked = m.cache_hits + m.cache_coalesced + m.cache_misses;
            if looked == 0 {
                0.0
            } else {
                (m.cache_hits + m.cache_coalesced) as f64 / looked as f64
            }
        },
    }
}

fn main() {
    let smoke = smoke_run();
    let dim = env_usize("BFLY_CACHE_DIM", 256);
    let requests = env_usize("BFLY_CACHE_REQUESTS", if smoke { 300 } else { 4000 }) as u64;
    let rate = env_f64("BFLY_CACHE_RATE", 1e6);
    let workers = env_usize("BFLY_CACHE_WORKERS", 2);
    let max_batch = env_usize("BFLY_CACHE_BATCH", 32);
    let cache_config = CacheConfig::default();

    // Reuse sweep: pool of n distinct inputs = 0% repeats, down to a pool
    // of n/100 = 99% repeats.
    let divisors: &[(u64, &str)] = if smoke {
        &[(1, "0%"), (2, "50%"), (10, "90%")]
    } else {
        &[(1, "0%"), (4, "75%"), (2, "50%"), (10, "90%"), (100, "99%")]
    };

    println!(
        "bench_cache: dim {dim}, {requests} requests offered at {rate:.0} rps, \
         batch {max_batch}, {workers} workers, cache capacity {} x {} shards{}\n",
        cache_config.capacity,
        cache_config.shards,
        if smoke { " [smoke]" } else { "" }
    );
    println!(
        "{:>6} {:>6} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "reuse", "pool", "off rps", "on rps", "speedup", "off p99", "on p99", "p99 cut", "cached"
    );

    let mut results = Vec::new();
    for &(divisor, label) in divisors {
        let pool_size = ((requests / divisor).max(1)) as usize;
        let reuse_frac = 1.0 - pool_size as f64 / requests as f64;
        let off =
            run_once(dim, workers, max_batch, requests, rate, pool_size, CacheConfig::disabled());
        let on = run_once(dim, workers, max_batch, requests, rate, pool_size, cache_config.clone());
        let throughput_speedup =
            if off.throughput_rps > 0.0 { on.throughput_rps / off.throughput_rps } else { 0.0 };
        let p99_reduction = if on.latency_p99_us > 0 {
            off.latency_p99_us as f64 / on.latency_p99_us as f64
        } else {
            f64::INFINITY
        };
        println!(
            "{:>6} {:>6} {:>12.0} {:>12.0} {:>7.2}x {:>10} {:>10} {:>7.2}x {:>7.1}%",
            label,
            pool_size,
            off.throughput_rps,
            on.throughput_rps,
            throughput_speedup,
            off.latency_p99_us,
            on.latency_p99_us,
            p99_reduction,
            100.0 * on.cache_served_rate,
        );
        results.push(SweepPoint {
            pool_size,
            reuse_frac,
            cache_off: off,
            cache_on: on,
            throughput_speedup,
            p99_reduction,
        });
    }

    let output = BenchOutput {
        host_cores: host_cores(),
        dim,
        classes: 10,
        workers,
        requests,
        offered_rate_rps: rate,
        max_batch,
        cache_capacity: cache_config.capacity,
        cache_shards: cache_config.shards,
        results,
    };
    println!();
    write_bench_json("cache", &output, smoke);
}
