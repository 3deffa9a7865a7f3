//! Load generators: seeded open-loop (Poisson arrivals) and closed-loop
//! (fixed concurrency) drivers, with client-side latency accounting.

use crate::payload::Payload;
use crate::request::{ResponseHandle, ServedFrom, SubmitError};
use crate::server::Server;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// A conventional number of distinct random input vectors for a generator
/// to cycle through (pre-generated so the submission path measures the
/// server, not the RNG). Every generator takes its pool size explicitly:
/// the pool is the *input-reuse knob* — with the response cache on, a pool
/// of `p` against `n ≫ p` requests yields a steady-state hit rate of about
/// `1 - p/n`, so sweeping `p` sweeps the cache's effectiveness.
pub const DEFAULT_INPUT_POOL: usize = 32;

/// Client-side result of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests the generator attempted to submit.
    pub offered: u64,
    /// Requests admitted by the server.
    pub accepted: u64,
    /// Requests shed at admission ([`SubmitError::Overloaded`]).
    pub shed: u64,
    /// Responses received (successes and failures alike).
    pub completed: u64,
    /// Responses answered [`ServedFrom::DeadlineExceeded`].
    pub deadline_exceeded: u64,
    /// Requests refused ([`SubmitError::PodDown`]) or answered
    /// [`ServedFrom::PodDown`] because no replica was healthy.
    pub pod_down: u64,
    /// Seconds from first submission to last response.
    pub elapsed_s: f64,
    /// Offered request rate over the submission window.
    pub offered_rps: f64,
    /// Completed responses per second over the whole run.
    pub throughput_rps: f64,
    /// Median end-to-end latency, microseconds (server-attributed).
    pub latency_p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub latency_p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub latency_p99_us: u64,
    /// Mean latency, microseconds.
    pub latency_mean_us: f64,
    /// Mean micro-batch size the responses were served in.
    pub mean_batch: f64,
    /// Median *simulated* per-batch latency, microseconds: what each
    /// response's batch reserved on its replica's occupancy clock (routed
    /// compute plus any residency weight transfer). Cache hits and
    /// coalesced followers contribute their honest 0.
    pub sim_p50_us: f64,
    /// 95th-percentile simulated per-batch latency, microseconds.
    pub sim_p95_us: f64,
    /// 99th-percentile simulated per-batch latency, microseconds — the
    /// tail that collapses when a working set outgrows the SRAM budget and
    /// every touch becomes a streaming page-in.
    pub sim_p99_us: f64,
    /// Mean simulated per-batch latency, microseconds.
    pub sim_mean_us: f64,
    /// Simulated-latency SLO the run was scored against, microseconds
    /// (0.0 when the generator was not given one).
    pub slo_sim_us: f64,
    /// Successful responses whose simulated batch latency exceeded
    /// `slo_sim_us` — the SLO-miss count of the autoscale bench, measured
    /// in the simulated domain where weight loads and queueing live.
    pub sim_slo_misses: u64,
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn quantile_f64(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Seeded Zipf(s) sampler over `n` items: item `i` is drawn with
/// probability proportional to `1 / (i + 1)^s`. The skewed-popularity
/// workload of the multi-tenant bench — a handful of hot models plus a
/// long cold tail is exactly the traffic shape that makes an SRAM budget
/// either hold (butterfly working set fits) or thrash (dense does not).
///
/// The CDF is precomputed at construction; sampling is one uniform draw
/// plus a binary search, so the generator's submit path stays cheap.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    /// Cumulative probabilities; `cdf[n - 1] == 1.0`.
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler. `exponent` 0.0 is the uniform distribution;
    /// larger exponents concentrate mass on the low ranks (classic web
    /// traffic is near 1.0).
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "zipf sampler needs at least one item");
        assert!(exponent >= 0.0, "zipf exponent must be non-negative");
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        cdf[n - 1] = 1.0;
        Self { cdf }
    }

    /// Number of items the sampler draws from.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler has exactly one item (which it then always
    /// returns).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one item index in `0..len()`.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        // First index whose cumulative probability covers the draw.
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Classified client-side outcomes of one generator run: failure responses
/// are tallied but kept out of the latency and batch-size samples (a
/// deadline miss answered in ~0 µs would otherwise *improve* the reported
/// tail).
#[derive(Default)]
struct Outcomes {
    deadline_exceeded: u64,
    pod_down: u64,
    /// Ingress-only failure verdicts ([`ServedFrom::Throttled`] /
    /// [`ServedFrom::Rejected`]): the in-process generators never receive
    /// them, but a driver replaying responses from the framed front door
    /// must not let their ~0 µs answers fake a fast tail.
    refused: u64,
    latencies: Vec<u64>,
    batch_sizes: Vec<usize>,
    /// Simulated per-batch µs of successful responses ([`Timing::sim_batch_us`]).
    sim_latencies: Vec<f64>,
}

impl Outcomes {
    fn absorb(&mut self, response: &crate::request::InferResponse) {
        match response.timing.source {
            ServedFrom::DeadlineExceeded => self.deadline_exceeded += 1,
            ServedFrom::PodDown => self.pod_down += 1,
            ServedFrom::Throttled | ServedFrom::Rejected => self.refused += 1,
            _ => {
                self.latencies.push(response.timing.total_us);
                self.batch_sizes.push(response.timing.batch_size);
                if let Some(sim_us) = response.timing.sim_batch_us {
                    self.sim_latencies.push(sim_us);
                }
            }
        }
    }

    fn completed(&self) -> u64 {
        self.deadline_exceeded + self.pod_down + self.refused + self.latencies.len() as u64
    }
}

#[allow(clippy::too_many_arguments)]
fn report(
    offered: u64,
    accepted: u64,
    shed: u64,
    refused_pod_down: u64,
    outcomes: Outcomes,
    elapsed_s: f64,
    submit_window_s: f64,
    slo_sim_us: Option<f64>,
) -> LoadReport {
    let completed = outcomes.completed();
    let Outcomes {
        deadline_exceeded,
        pod_down,
        refused: _,
        mut latencies,
        batch_sizes,
        mut sim_latencies,
    } = outcomes;
    let pod_down = pod_down + refused_pod_down;
    latencies.sort_unstable();
    sim_latencies.sort_unstable_by(f64::total_cmp);
    let sim_mean = if sim_latencies.is_empty() {
        0.0
    } else {
        sim_latencies.iter().sum::<f64>() / sim_latencies.len() as f64
    };
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64
    };
    let mean_batch = if batch_sizes.is_empty() {
        0.0
    } else {
        batch_sizes.iter().sum::<usize>() as f64 / batch_sizes.len() as f64
    };
    LoadReport {
        offered,
        accepted,
        shed,
        completed,
        deadline_exceeded,
        pod_down,
        elapsed_s,
        offered_rps: if submit_window_s > 0.0 { offered as f64 / submit_window_s } else { 0.0 },
        throughput_rps: if elapsed_s > 0.0 { completed as f64 / elapsed_s } else { 0.0 },
        latency_p50_us: quantile(&latencies, 0.50),
        latency_p95_us: quantile(&latencies, 0.95),
        latency_p99_us: quantile(&latencies, 0.99),
        latency_mean_us: mean,
        mean_batch,
        sim_p50_us: quantile_f64(&sim_latencies, 0.50),
        sim_p95_us: quantile_f64(&sim_latencies, 0.95),
        sim_p99_us: quantile_f64(&sim_latencies, 0.99),
        sim_mean_us: sim_mean,
        slo_sim_us: slo_sim_us.unwrap_or(0.0),
        sim_slo_misses: match slo_sim_us {
            Some(slo) => sim_latencies.iter().filter(|&&v| v > slo).count() as u64,
            None => 0,
        },
    }
}

/// Pre-generates `pool_size` seeded random input rows of width `dim`.
///
/// Shared by every load generator so two runs with the same seed and pool
/// size offer byte-identical inputs — which is what makes cache-on vs
/// cache-off comparisons at equal offered load meaningful.
///
/// Entries are shared [`Payload`]s: every submission of a pool row is a
/// reference-count bump on the one allocation made here, so the generators
/// measure the server's admission path, not their own memcpys.
pub fn input_pool(dim: usize, pool_size: usize, rng: &mut ChaCha8Rng) -> Vec<Payload> {
    assert!(pool_size > 0, "input pool must be non-empty");
    (0..pool_size)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<f32>>().into())
        .collect()
}

/// Open-loop generator: submits `total` requests with seeded Poisson
/// arrivals at `rate_hz`, never waiting for responses during the submission
/// window (arrivals are independent of service — the generator that can
/// overload the server and exercise shedding). Cycles through `pool_size`
/// distinct inputs (the input-reuse knob: smaller pools mean more repeated
/// inputs, i.e. more cache hits).
pub fn open_loop(
    server: &Server,
    model: &str,
    rate_hz: f64,
    total: u64,
    seed: u64,
    pool_size: usize,
) -> LoadReport {
    assert!(rate_hz > 0.0, "open_loop needs a positive rate");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let inputs = input_pool(server.config().dim, pool_size, &mut rng);
    let mut next_arrival: Option<Instant> = None;
    let due = |start: Instant, _: usize| {
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = rng.gen();
        let at = next_arrival.get_or_insert(start);
        *at += Duration::from_secs_f64(-(1.0 - u).ln() / rate_hz);
        *at
    };
    replay(server, model, &inputs, total, due, None)
}

/// Trace-driven open-loop generator: replays a pre-computed arrival
/// schedule (`arrivals[i]` = seconds after the run starts at which request
/// `i` is offered, ascending — e.g. `bfly_data::TrafficTrace::arrivals` for
/// diurnal/flash-crowd/Pareto shapes) against the server, never waiting for
/// responses during the window. Taking raw offsets keeps this crate
/// decoupled from the trace builder and makes any replayed schedule —
/// seeded, recorded, or hand-written — drivable through the same path.
///
/// `slo_sim_us`, when given, scores every successful response against a
/// *simulated*-latency SLO: a response whose batch reserved more than this
/// many simulated µs on its replica (queued compute plus any cold weight
/// load) counts as an SLO miss. The autoscale bench uses this to count
/// misses during a flash-crowd ramp — in the domain where the weight-load
/// asymmetry between factorizations actually lives.
pub fn trace_loop(
    server: &Server,
    model: &str,
    arrivals: &[f64],
    seed: u64,
    pool_size: usize,
    slo_sim_us: Option<f64>,
) -> LoadReport {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let inputs = input_pool(server.config().dim, pool_size, &mut rng);
    let due = |start: Instant, i: usize| start + Duration::from_secs_f64(arrivals[i].max(0.0));
    replay(server, model, &inputs, arrivals.len() as u64, due, slo_sim_us)
}

/// The open-loop core of [`open_loop`] and [`trace_loop`]: offers request
/// `i` at `due(start, i)`, cycling through `inputs`, then waits for every
/// admitted response.
fn replay(
    server: &Server,
    model: &str,
    inputs: &[Payload],
    offered: u64,
    mut due: impl FnMut(Instant, usize) -> Instant,
    slo_sim_us: Option<f64>,
) -> LoadReport {
    let mut handles: Vec<ResponseHandle> = Vec::with_capacity(offered as usize);
    let mut shed = 0u64;
    let mut refused_pod_down = 0u64;
    let start = Instant::now();
    for i in 0..offered {
        let due = due(start, i as usize);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        match server.submit(model, i, i, inputs[(i as usize) % inputs.len()].clone()) {
            Ok(handle) => handles.push(handle),
            Err(SubmitError::Overloaded) => shed += 1,
            // A dead pod refuses everything; keep offering so the report
            // still reflects the intended load.
            Err(SubmitError::PodDown) => refused_pod_down += 1,
            Err(e) => panic!("open-loop submit failed: {e}"),
        }
    }
    let submit_window_s = start.elapsed().as_secs_f64();

    let accepted = handles.len() as u64;
    let mut outcomes = Outcomes::default();
    for handle in handles {
        let response = handle.wait().expect("admitted requests are always answered");
        outcomes.absorb(&response);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    report(
        offered,
        accepted,
        shed,
        refused_pod_down,
        outcomes,
        elapsed_s,
        submit_window_s,
        slo_sim_us,
    )
}

/// Closed-loop generator over a *target model list*: `clients` threads each
/// keep exactly one request in flight for `per_client` iterations
/// (throughput is admission-controlled by construction; sheds are retried,
/// not dropped). Every client cycles through `models`, starting at an
/// offset of its client id, so a multi-model (replicated) deployment is
/// loaded on every model at once — what a pod bench needs to warm weight
/// residency for several models. Inputs come from one shared seeded pool
/// of `pool_size` rows (the reuse knob, as in [`open_loop`]), so
/// cross-client coalescing is also exercised.
pub fn closed_loop(
    server: &Server,
    models: &[&str],
    clients: u64,
    per_client: u64,
    seed: u64,
    pool_size: usize,
) -> LoadReport {
    assert!(!models.is_empty(), "closed loop needs at least one target model");
    let dim = server.config().dim;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let inputs = input_pool(dim, pool_size, &mut rng);
    let start = Instant::now();
    let results: Vec<(u64, u64, u64, Outcomes)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|c| {
                let inputs = &inputs;
                scope.spawn(move || {
                    let mut sheds = 0u64;
                    let mut accepted = 0u64;
                    let mut refused_pod_down = 0u64;
                    let mut outcomes = Outcomes::default();
                    'client: for s in 0..per_client {
                        // Offset by client id so clients walk the shared
                        // pool (and the model list) out of phase: exercises
                        // cross-client coalescing without every thread
                        // hammering the same key in lockstep.
                        let input = inputs[(c as usize + s as usize) % inputs.len()].clone();
                        let model = models[(c as usize + s as usize) % models.len()];
                        let handle = loop {
                            match server.submit(model, c, s, input.clone()) {
                                Ok(handle) => break handle,
                                Err(SubmitError::Overloaded) => {
                                    sheds += 1;
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Err(SubmitError::PodDown) => {
                                    // Unrecoverable: retrying would spin
                                    // forever, so the client gives up on
                                    // its remaining iterations.
                                    refused_pod_down += 1;
                                    break 'client;
                                }
                                Err(e) => panic!("closed_loop submit failed: {e}"),
                            }
                        };
                        accepted += 1;
                        let response =
                            handle.wait().expect("admitted requests are always answered");
                        assert_eq!(response.seq, s, "closed-loop response out of order");
                        outcomes.absorb(&response);
                    }
                    (sheds, accepted, refused_pod_down, outcomes)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().expect("client thread panicked")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let mut shed = 0u64;
    let mut accepted = 0u64;
    let mut refused_pod_down = 0u64;
    let mut outcomes = Outcomes::default();
    for (s, a, refused, o) in results {
        shed += s;
        accepted += a;
        refused_pod_down += refused;
        outcomes.deadline_exceeded += o.deadline_exceeded;
        outcomes.pod_down += o.pod_down;
        outcomes.refused += o.refused;
        outcomes.latencies.extend(o.latencies);
        outcomes.batch_sizes.extend(o.batch_sizes);
        outcomes.sim_latencies.extend(o.sim_latencies);
    }
    let offered = accepted + shed + refused_pod_down;
    report(offered, accepted, shed, refused_pod_down, outcomes, elapsed_s, elapsed_s, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use bfly_core::Method;

    fn test_server(max_batch: usize) -> Server {
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            ..Default::default()
        };
        Server::start(config, &[Method::Butterfly]).expect("valid")
    }

    #[test]
    fn open_loop_completes_all_accepted() {
        let server = test_server(8);
        let report = open_loop(&server, "butterfly", 2000.0, 200, 3, DEFAULT_INPUT_POOL);
        assert_eq!(report.offered, 200);
        assert_eq!(report.accepted + report.shed, 200);
        assert_eq!(report.completed, report.accepted);
        assert!(report.latency_p50_us <= report.latency_p99_us);
        server.shutdown();
    }

    #[test]
    fn closed_loop_keeps_every_request() {
        let server = test_server(4);
        let report = closed_loop(&server, &["butterfly"], 4, 25, 9, DEFAULT_INPUT_POOL);
        assert_eq!(report.completed, 100);
        assert!(report.throughput_rps > 0.0);
        server.shutdown();
    }

    #[test]
    fn closed_loop_spreads_load_over_the_target_model_list() {
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Baseline, Method::Butterfly]).expect("valid");
        let report = closed_loop(&server, &["baseline", "butterfly"], 3, 10, 9, 8);
        assert_eq!(report.completed, 30);
        let snapshot = server.shutdown();
        for m in &snapshot.models {
            assert!(m.completed > 0, "model {} must receive closed-loop traffic", m.model);
        }
        let total: u64 = snapshot.models.iter().map(|m| m.completed).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn input_pool_is_seeded_and_sized() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        let pa = input_pool(16, 7, &mut a);
        let pb = input_pool(16, 7, &mut b);
        assert_eq!(pa.len(), 7);
        assert_eq!(pa, pb, "same seed, same pool");
        let mut c = ChaCha8Rng::seed_from_u64(6);
        assert_ne!(pa, input_pool(16, 7, &mut c), "different seed, different pool");
    }

    #[test]
    fn single_input_pool_turns_repeats_into_cache_traffic() {
        let server = test_server(8);
        let report = open_loop(&server, "butterfly", 5000.0, 100, 11, 1);
        assert_eq!(report.completed, report.accepted);
        let snapshot = server.shutdown();
        let m = &snapshot.models[0];
        assert_eq!(m.cache_misses, 1, "one distinct input computes once");
        assert_eq!(m.cache_hits + m.cache_coalesced, 99, "repeats never recompute");
    }

    #[test]
    fn failures_are_counted_but_kept_out_of_the_latency_samples() {
        // Every request carries an already-expired deadline: the report
        // must count them all as deadline_exceeded while the latency
        // quantiles stay empty (a ~0 µs failure must not fake a fast tail).
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            cache: crate::config::CacheConfig::disabled(),
            default_deadline: Some(Duration::ZERO),
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let report = closed_loop(&server, &["butterfly"], 3, 10, 9, DEFAULT_INPUT_POOL);
        assert_eq!(report.completed, 30);
        assert_eq!(report.deadline_exceeded, 30);
        assert_eq!(report.pod_down, 0);
        assert_eq!(report.latency_p99_us, 0, "no successes, no latency samples");
        assert_eq!(report.mean_batch, 0.0);
        server.shutdown();
    }

    #[test]
    fn trace_loop_replays_the_schedule_and_scores_the_sim_slo() {
        // Cache off so every response is a computation with positive
        // simulated latency; an impossible SLO of 0 µs must then flag every
        // success, and an unbounded one must flag none.
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 256,
            workers: 2,
            cache: crate::config::CacheConfig::disabled(),
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let arrivals: Vec<f64> = (0..60).map(|i| i as f64 * 2e-4).collect();
        let report = trace_loop(&server, "butterfly", &arrivals, 3, 8, Some(0.0));
        assert_eq!(report.offered, 60);
        assert_eq!(report.completed, report.accepted);
        assert_eq!(report.slo_sim_us, 0.0);
        assert_eq!(
            report.sim_slo_misses,
            report.completed - report.deadline_exceeded - report.pod_down,
            "a 0 µs SLO flags every success"
        );
        let generous = trace_loop(&server, "butterfly", &arrivals, 3, 8, Some(f64::INFINITY));
        assert_eq!(generous.sim_slo_misses, 0, "an unbounded SLO flags nothing");
        let unscored = trace_loop(&server, "butterfly", &arrivals, 3, 8, None);
        assert_eq!((unscored.slo_sim_us, unscored.sim_slo_misses), (0.0, 0));
        server.shutdown();
    }

    #[test]
    fn quantile_edges() {
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.5), 7);
        assert_eq!(quantile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(quantile(&[1, 2, 3, 4], 1.0), 4);
        assert_eq!(quantile_f64(&[], 0.99), 0.0);
        assert_eq!(quantile_f64(&[1.5, 2.5], 0.5), 1.5);
    }

    #[test]
    fn zipf_sampler_is_seeded_and_skewed() {
        let z = ZipfSampler::new(16, 1.0);
        assert_eq!(z.len(), 16);
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let draws_a: Vec<usize> = (0..512).map(|_| z.sample(&mut a)).collect();
        let draws_b: Vec<usize> = (0..512).map(|_| z.sample(&mut b)).collect();
        assert_eq!(draws_a, draws_b, "same seed, same trace");
        assert!(draws_a.iter().all(|&d| d < 16), "every draw in range");
        let mut counts = [0usize; 16];
        for &d in &draws_a {
            counts[d] += 1;
        }
        assert!(counts[0] > counts[8], "rank 0 must beat the mid-tail under zipf(1): {counts:?}");
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!(
                (c as f64 - 1000.0).abs() < 150.0,
                "exponent 0 should be near-uniform: {counts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipf_over_nothing_is_rejected() {
        ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn computed_responses_carry_simulated_latency() {
        // Cache off so every response is a genuine computation with a
        // positive simulated reservation on its replica's clock.
        let config = ServeConfig {
            dim: 64,
            classes: 10,
            seed: 21,
            max_batch: 4,
            max_wait: Duration::from_micros(300),
            queue_capacity: 128,
            workers: 2,
            cache: crate::config::CacheConfig::disabled(),
            ..Default::default()
        };
        let server = Server::start(config, &[Method::Butterfly]).expect("valid");
        let report = closed_loop(&server, &["butterfly"], 2, 20, 13, DEFAULT_INPUT_POOL);
        assert_eq!(report.completed, 40);
        assert!(report.sim_p50_us > 0.0, "computed batches reserve simulated time");
        assert!(report.sim_p50_us <= report.sim_p95_us);
        assert!(report.sim_p95_us <= report.sim_p99_us);
        assert!(report.sim_mean_us > 0.0);
        server.shutdown();
    }
}
