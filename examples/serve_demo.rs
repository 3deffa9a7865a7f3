//! Serving demo: a multi-model inference server with dynamic batching.
//!
//! Run with: `cargo run --release --example serve_demo`
//!
//! Starts a `bfly-serve` server holding a dense baseline and a butterfly
//! SHL model (both forward-only — no gradient or momentum memory) on a
//! simulated 4-IPU pod *with a fault plan*: one replica crashes partway
//! into the run and recovers later, so the demo shows health-aware routing
//! riding out the outage — stranded batches retried on survivors, the
//! recovered replica re-paying its cold weight load — while a burst of
//! concurrent requests (one under an aggressive deadline) flows through.
//! Every response carries the class scores, the micro-batch the request
//! was coalesced into, the pod replica that served it, and the predicted
//! IPU/GPU device time next to measured wall time. The demo then drives a
//! short *flash-crowd ramp* through the elastic autoscaler — butterfly vs
//! the dense baseline at dim 1024 — and prints each method's
//! time-to-healthy: the simulated weight load a newly grown replica pays
//! before it can serve, where butterfly's O(n log n) factors replicate in
//! a fraction of the dense ~n²·4-byte warm-up. Ends with a graceful
//! shutdown and the final metrics snapshot as JSON.

use bfly_core::Method;
use bfly_data::TrafficTrace;
use bfly_serve::{
    closed_loop, trace_loop, AutoscaleConfig, CacheConfig, FaultPlan, Routing, ScaleDecision,
    ServeConfig, ServedFrom, Server,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// The autoscale demo's fixed-pod starting point: one replica, cache off
/// so every request computes and the backlog signal is honest.
fn flash_crowd_config() -> ServeConfig {
    ServeConfig {
        dim: 1024,
        classes: 10,
        seed: 0xD310,
        max_batch: 32,
        max_wait: Duration::from_micros(200),
        queue_capacity: 512,
        workers: 2,
        cache: CacheConfig::disabled(),
        replicas: 1,
        routing: Routing::PowerOfTwoChoices,
        ..Default::default()
    }
}

/// Calibrates a method's steady one-replica capacity, then replays a flash
/// crowd spiking to 3x that capacity against an elastic pod (1 -> 3
/// replicas). Returns the grown replica's time-to-healthy, simulated µs.
fn flash_crowd_ramp(method: Method) -> Option<f64> {
    let name = method.label().to_lowercase();
    let probe = Server::start(flash_crowd_config(), &[method]).expect("dim 1024 fits");
    let capacity = closed_loop(&probe, &[name.as_str()], 16, 40, 0xBEE5, 64).throughput_rps;
    probe.shutdown();

    // Quiet at half capacity, a 0.6 s spike at 3x, then back down.
    let trace = TrafficTrace::flash_crowd(capacity * 0.5, 6.0, 1.5, 0.3, 0.6);
    let arrivals = trace.arrivals(&mut ChaCha8Rng::seed_from_u64(17));
    let config = ServeConfig {
        autoscale: AutoscaleConfig {
            interval: Duration::from_millis(10),
            scale_up_queue_depth: 1.0,
            cooldown_windows: 1,
            ..AutoscaleConfig::bounded(1, 3)
        },
        ..flash_crowd_config()
    };
    let server = Server::start(config, &[method]).expect("dim 1024 fits");
    let report = trace_loop(&server, &name, &arrivals, 0xBEE5, 64, None);
    let scale = server.autoscale_report();
    let snapshot = server.shutdown();
    let healthy = scale.events.iter().find(|e| e.decision == ScaleDecision::Grow).map(|e| {
        let r = &snapshot.replicas[e.replica];
        if r.cold_loads > 0 {
            r.weight_load_us / r.cold_loads as f64
        } else {
            0.0
        }
    });
    let scale_ups: u64 = snapshot.replicas.iter().map(|r| r.scale_ups).sum();
    let drains: u64 = snapshot.replicas.iter().map(|r| r.drains).sum();
    println!(
        "{name:>9}: steady {capacity:>6.0} rps, {} arrivals offered, {} served, \
         {scale_ups} scale-ups, {drains} drains, time-to-healthy {}",
        arrivals.len(),
        report.completed - report.pod_down - report.deadline_exceeded,
        healthy.map_or("- (never grew)".into(), |us| format!("{us:.1} sim us")),
    );
    healthy
}

fn main() {
    let config = ServeConfig {
        dim: 256,
        classes: 10,
        seed: 0xD310,
        max_batch: 16,
        max_wait: Duration::from_micros(300),
        queue_capacity: 256,
        workers: 2,
        tensor_cores: false,
        replicas: 4,
        routing: Routing::PowerOfTwoChoices,
        // Replica 2 crashes once the pod has been presented 400 µs of
        // simulated compute and comes back at 1200 µs; between the two it
        // is invisible to routing, and on recovery it re-pays its weight
        // loads (its SRAM came back empty).
        fault_plan: FaultPlan::none().crash_at(400.0, 2).recover_at(1200.0, 2),
        ..Default::default()
    };
    let dim = config.dim;
    let server = Server::start(config, &[Method::Baseline, Method::Butterfly])
        .expect("dim 256 fits both methods");

    println!("serving models: {:?}\n", server.model_names());

    // A burst of requests from 4 client threads, alternating models — the
    // batchers coalesce each model's stream independently while the fault
    // plan plays out against the pod's simulated clock.
    std::thread::scope(|scope| {
        for client in 0..4u64 {
            let server = &server;
            scope.spawn(move || {
                let model = if client % 2 == 0 { "baseline" } else { "butterfly" };
                for seq in 0..50u64 {
                    let input: Vec<f32> =
                        (0..dim).map(|i| ((client + seq + i as u64) as f32 * 0.1).sin()).collect();
                    let handle = server.submit(model, client, seq, input).expect("admitted");
                    let r = handle.wait().expect("answered");
                    if seq == 49 {
                        println!(
                            "client {client} ({model:<9}): top score {:+.3}, served in a \
                             batch of {:>2} on replica {}, wall {:>4} us, predicted IPU \
                             {:>6.1} us, GPU {:>6.1} us",
                            r.output.iter().cloned().fold(f32::NEG_INFINITY, f32::max),
                            r.timing.batch_size,
                            r.timing.replica.map_or("-".into(), |p| p.to_string()),
                            r.timing.total_us,
                            r.timing.ipu_batch_us.unwrap_or(f64::NAN),
                            r.timing.gpu_batch_us.unwrap_or(f64::NAN),
                        );
                    }
                }
            });
        }
    });

    // A per-request deadline override: zero means "already expired", so
    // the runtime answers DeadlineExceeded instead of computing.
    let doomed = server
        .submit_with_deadline("butterfly", 9, 0, vec![0.25; dim], Some(Duration::ZERO))
        .expect("admitted");
    let r = doomed.wait().expect("failures are answered, never dropped");
    assert_eq!(r.timing.source, ServedFrom::DeadlineExceeded);
    println!(
        "\ndeadline demo: client 9 seq 0 answered {:?} with empty output ({} scores)",
        r.timing.source,
        r.output.len()
    );

    // A flash-crowd ramp through the elastic autoscaler: the controller
    // grows the pod when the spike's backlog crosses its threshold, and
    // the grown replica's priced weight load *is* the time-to-healthy —
    // tiny for butterfly's factors, ~n²·4 bytes over IPU-Link for dense.
    println!("\nflash-crowd autoscale demo (dim 1024, pod 1 -> 3):");
    let butterfly_healthy = flash_crowd_ramp(Method::Butterfly);
    let baseline_healthy = flash_crowd_ramp(Method::Baseline);
    if let (Some(b), Some(d)) = (butterfly_healthy, baseline_healthy) {
        if d > 0.0 {
            println!(
                "a butterfly replica becomes healthy in {:.2}x the dense baseline's time",
                b / d
            );
        }
    }

    println!("\nfinal metrics snapshot:");
    let snapshot = server.shutdown();
    for replica in &snapshot.replicas {
        println!(
            "replica {}: up={}, crashes={}, recoveries={}, retried_batches={}, cold_loads={}",
            replica.replica,
            replica.up,
            replica.crashes,
            replica.recoveries,
            replica.retried_batches,
            replica.cold_loads
        );
    }
    println!("{}", snapshot.to_json());
}
