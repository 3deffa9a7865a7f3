//! The serving workloads: an open loop of independent users sending seeded
//! Poisson arrivals to the butterfly and pixelfly SHL models at dim 1024.
//!
//! - `serve_unique` submits in process to a 4-replica pod; every input is
//!   fresh, so the response cache never hits.
//! - `serve_wire_zipf` sends framed requests over loopback TCP through the
//!   ingress front door to a 1-replica pod; inputs are drawn Zipf-skewed
//!   from a small pool, so most requests hit the cache or coalesce.
//!
//! Both use `ServeConfig::default()` outside the fields that define them.
//! A run warms up, holds the nominal rate (latency, device time,
//! correctness), then climbs a fixed ladder of rates until one misses the
//! p99 limit and bisects the bracket (sustained rate).

use crate::report::{Outcome, SERVED, SHL_LAYERS};
use crate::stats::{
    backlog_growing, bisect_probe, cross_check, median, quantile, sorted, supported_tail,
    sustained_rps, windowed_median, Ledger, Probe,
};
use crate::trace::{self_times, Span, Tracer};
use bfly_core::{build_shl_inference, Method, PixelflyConfig};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_serve::ingress::{
    encode_request, transport::tcp_connect, Frame, FrameDecoder, FrameWrite, IngressServer,
    QosClass, ReadEvent, RequestFrame, TcpIngressListener, WireStatus,
};
use bfly_serve::{
    IngressConfig, ModelRegistry, ModelSpec, Payload, ServeConfig, ServeSnapshot, ServedFrom,
    Server, SubmitError, Timing, ZipfSampler,
};
use bfly_tensor::{derived_rng, Matrix, Scratch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const DIM: usize = 1024;
/// Set-ups timed per run; the median is reported.
const SETUP_REPEATS: usize = 25;
/// Shares of the run's seconds: warm-up, nominal rate, rate ladder.
const WARMUP_SHARE: f64 = 0.05;
const NOMINAL_SHARE: f64 = 0.4;
/// Windows the nominal phase and each search probe are split into; latency
/// percentiles and good shares are the median over windows.
const NOMINAL_WINDOWS: usize = 12;
const PROBE_WINDOWS: usize = 5;
/// Failure share a search probe may have and still pass.
const PROBE_FAILED_LIMIT: f64 = 0.001;
/// How late the generator may run (p99 at the nominal rate) before the run
/// is invalid. Lateness is charged to latency anyway (it is measured from
/// the due time); the bound catches a generator that cannot hold the
/// schedule at all.
const LATE_P99_BOUND_MS: f64 = 20.0;
/// One request in this many at the nominal rate is checked bit for bit
/// against the twin registry.
const CHECK_EVERY: u64 = 16;
/// Whether request `seq`'s output is kept for the bit-for-bit check.
fn checked(seq: u64) -> bool {
    seq.is_multiple_of(CHECK_EVERY)
}
/// Most requests one search probe sends: faster servers get shorter probes,
/// so the client's per-request records (and peak memory) stay bounded.
const PROBE_MAX_REQUESTS: f64 = 60_000.0;
/// Longest wait for a phase's outstanding answers.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Rate latency and device time are measured at, requests/s: light load
/// (a few percent of capacity), so the latency is the server's own path and
/// not the queue a stolen vCPU leaves on a shared host.
const NOMINAL_RPS: f64 = 1_000.0;
/// The p99 limit the sustained rate must meet, ms.
const P99_LIMIT_MS: f64 = 25.0;
/// Offered rates climbed for the sustained rate, requests/s: 4k steps up to
/// past the 2-core host's knee, wider above it so a faster server still
/// finds its limit.
const LADDER: &[f64] = &[10e3, 14e3, 18e3, 22e3, 26e3, 30e3, 36e3, 44e3, 52e3, 60e3];
/// Bisection probes after the climb, and the bracket width they stop at.
const BISECT_STEPS: usize = 2;
const BISECT_RESOLUTION: f64 = 500.0;
/// Probes the search time is divided by: a climb to the knee on the 2-core
/// host (four rungs) plus the bisection probes. A faster server climbs
/// further, up to `MAX_PROBES` in all.
const SEARCH_PROBES: f64 = 6.0;
const MAX_PROBES: u64 = 9;

/// What defines a serving workload.
struct Workload {
    name: &'static str,
    /// Framed TCP ingress instead of in-process submit.
    wire: bool,
    replicas: usize,
    /// `(pool size, Zipf exponent)` of reused inputs; `None` makes every
    /// input fresh. A pool twice the default cache capacity keeps a steady
    /// trickle of misses (and evictions) behind the hits.
    zipf: Option<(usize, f64)>,
}

const UNIQUE: Workload = Workload { name: "serve_unique", wire: false, replicas: 4, zipf: None };

const WIRE_ZIPF: Workload =
    Workload { name: "serve_wire_zipf", wire: true, replicas: 1, zipf: Some((8192, 1.1)) };

fn methods() -> [Method; 2] {
    [Method::Butterfly, Method::Pixelfly(PixelflyConfig::paper_default())]
}

fn config(w: &Workload) -> ServeConfig {
    let ingress = if w.wire { IngressConfig::enabled() } else { IngressConfig::default() };
    ServeConfig { dim: DIM, replicas: w.replicas, ingress, ..ServeConfig::default() }
}

/// How a request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Compute,
    CacheHit,
    Coalesced,
    Deadline,
    PodDown,
    Throttled,
    Rejected,
    /// Refused at submit with `Overloaded`.
    Shed,
}

impl Status {
    fn completed(self) -> bool {
        matches!(self, Status::Compute | Status::CacheHit | Status::Coalesced)
    }

    fn of_served(s: ServedFrom) -> Status {
        match s {
            ServedFrom::Compute => Status::Compute,
            ServedFrom::CacheHit => Status::CacheHit,
            ServedFrom::Coalesced => Status::Coalesced,
            ServedFrom::DeadlineExceeded => Status::Deadline,
            ServedFrom::PodDown => Status::PodDown,
            ServedFrom::Throttled => Status::Throttled,
            ServedFrom::Rejected => Status::Rejected,
        }
    }

    fn of_wire(s: WireStatus) -> Status {
        match s {
            WireStatus::Compute => Status::Compute,
            WireStatus::CacheHit => Status::CacheHit,
            WireStatus::Coalesced => Status::Coalesced,
            WireStatus::DeadlineExceeded => Status::Deadline,
            WireStatus::PodDown => Status::PodDown,
            WireStatus::Throttled => Status::Throttled,
            WireStatus::Rejected => Status::Rejected,
        }
    }
}

/// An answer as it reached the client.
struct Receipt {
    seq: u64,
    at: Instant,
    status: Status,
    /// The answer, kept for requests whose output is checked.
    output: Option<Vec<f32>>,
    /// Per-response timing; only the in-process path carries it.
    timing: Option<Timing>,
    /// µs spent decoding this frame (wire only).
    decode_us: f64,
}

/// One request as the generator sent it.
struct Sent {
    seq: u64,
    model: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    /// µs encoding the frame (wire only).
    encode_us: f64,
    /// The input, kept for requests whose output is checked.
    input: Option<Vec<f32>>,
    refused: Option<Status>,
}

/// A request in flight to an in-process collector.
struct Pending {
    seq: u64,
    handle: bfly_serve::ResponseHandle,
}

/// The running system under test plus the client threads that collect its
/// answers.
struct Session {
    server: Arc<Server>,
    ingress: Option<IngressServer>,
    /// In process: one collector queue per model. On the wire: one
    /// connection per model.
    pending: Vec<mpsc::Sender<Pending>>,
    writers: Vec<Box<dyn FrameWrite>>,
    receipts: mpsc::Receiver<Receipt>,
    threads: Vec<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    /// Wire only: response frames decoded and payloads copied by the
    /// client decoders, summed at shutdown.
    decoded: Arc<std::sync::Mutex<(u64, u64)>>,
}

impl Session {
    fn start(w: &Workload) -> Session {
        let server = Arc::new(Server::start(config(w), &methods()).expect("valid SHL fleet"));
        let (tx, receipts) = mpsc::channel();
        let stop = Arc::new(AtomicBool::new(false));
        let decoded = Arc::new(std::sync::Mutex::new((0, 0)));
        let mut session = Session {
            server,
            ingress: None,
            pending: Vec::new(),
            writers: Vec::new(),
            receipts,
            threads: Vec::new(),
            stop: stop.clone(),
            decoded: decoded.clone(),
        };
        if w.wire {
            let listener = TcpIngressListener::bind("127.0.0.1:0").expect("bind loopback");
            let addr = listener.local_addr().expect("bound address");
            session.ingress =
                Some(IngressServer::start(session.server.clone(), Box::new(listener)));
            for _ in SERVED {
                let conn = tcp_connect(addr).expect("connect to the ingress");
                session.writers.push(conn.writer);
                let (tx, stop, decoded) = (tx.clone(), stop.clone(), decoded.clone());
                let mut reader = conn.reader;
                session.threads.push(std::thread::spawn(move || {
                    let mut decoder = FrameDecoder::new(1 << 24);
                    let mut frames = 0u64;
                    loop {
                        match reader.read_segment_timeout(64 << 10, Duration::from_millis(20)) {
                            Ok(ReadEvent::Data(seg)) => decoder.push(seg),
                            Ok(ReadEvent::TimedOut) if !stop.load(Ordering::SeqCst) => continue,
                            _ => break,
                        }
                        loop {
                            let t0 = Instant::now();
                            let Ok(Some(Frame::Response(r))) = decoder.next_frame() else {
                                break;
                            };
                            let at = Instant::now();
                            frames += 1;
                            let _ = tx.send(Receipt {
                                seq: r.seq,
                                at,
                                status: Status::of_wire(r.status),
                                output: checked(r.seq).then(|| r.payload.to_vec()),
                                timing: None,
                                decode_us: (at - t0).as_secs_f64() * 1e6,
                            });
                        }
                    }
                    let mut d = decoded.lock().expect("decoder tally");
                    d.0 += frames;
                    d.1 += decoder.payload_copies();
                }));
            }
        } else {
            for _ in SERVED {
                let (ptx, prx) = mpsc::channel::<Pending>();
                session.pending.push(ptx);
                let tx = tx.clone();
                session.threads.push(std::thread::spawn(move || {
                    for p in prx {
                        let Some(r) = p.handle.wait() else { continue };
                        let _ = tx.send(Receipt {
                            seq: p.seq,
                            at: Instant::now(),
                            status: Status::of_served(r.timing.source),
                            output: checked(p.seq).then_some(r.output),
                            timing: Some(r.timing),
                            decode_us: 0.0,
                        });
                    }
                }));
            }
        }
        session
    }

    /// Sends one request; returns the refusal status when it never entered.
    fn send(
        &mut self,
        seq: u64,
        model: usize,
        input: Payload,
        encode_us: &mut f64,
    ) -> Option<Status> {
        if self.writers.is_empty() {
            return match self.server.submit(SERVED[model], 0, seq, input) {
                Ok(handle) => {
                    self.pending[model].send(Pending { seq, handle }).expect("collector alive");
                    None
                }
                Err(SubmitError::Overloaded) => Some(Status::Shed),
                Err(SubmitError::PodDown) => Some(Status::PodDown),
                Err(_) => Some(Status::Rejected),
            };
        }
        let frame = RequestFrame {
            class: QosClass::Interactive,
            model: SERVED[model].to_string(),
            tenant: "default".to_string(),
            client: model as u64,
            seq,
            deadline_us: 0,
            payload: input,
        };
        let t0 = Instant::now();
        let bytes = encode_request(&frame);
        *encode_us = t0.elapsed().as_secs_f64() * 1e6;
        self.writers[model].write_all_bytes(&bytes).expect("loopback write");
        None
    }

    /// Stops the client threads and the system, returning the final
    /// snapshot and the client decoders' `(frames, payload copies)`.
    fn shutdown(mut self) -> (ServeSnapshot, (u64, u64)) {
        self.pending.clear();
        self.writers.clear();
        if let Some(ingress) = self.ingress.take() {
            ingress.shutdown();
        }
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            t.join().expect("client thread");
        }
        let server = Arc::try_unwrap(self.server).ok().expect("sole owner after ingress stops");
        let decoded = *self.decoded.lock().expect("decoder tally");
        (server.shutdown(), decoded)
    }
}

/// Makes request inputs from the seed. Input `i` is one of 64 seeded base
/// rows with `i` stamped into its first two elements, so distinct `i` give
/// distinct inputs and equal `i` equal ones. Fresh inputs use the sequence
/// number; reused ones draw `i` Zipf-skewed from a pool.
struct Inputs {
    base: Vec<Vec<f32>>,
    zipf: Option<ZipfSampler>,
}

impl Inputs {
    fn new(w: &Workload, seed: u64) -> Inputs {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1F);
        let base =
            (0..64).map(|_| (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        Inputs { base, zipf: w.zipf.map(|(n, s)| ZipfSampler::new(n, s)) }
    }

    fn next(&self, seq: u64, rng: &mut ChaCha8Rng) -> Payload {
        let i = match &self.zipf {
            Some(sampler) => sampler.sample(rng) as u64,
            None => seq,
        };
        let mut x = self.base[(i % 64) as usize].clone();
        x[0] = (i & 0xFF_FFFF) as f32 / 16_777_216.0 - 1.5;
        x[1] = (i >> 24) as f32 - 1.5;
        x.into()
    }
}

/// Everything one phase measured, request by request.
struct Phase {
    sent: Vec<Sent>,
    receipts: Vec<Option<Receipt>>,
    offered_rps: f64,
}

impl Phase {
    fn status(&self, i: usize) -> Status {
        self.sent[i]
            .refused
            .unwrap_or_else(|| self.receipts[i].as_ref().map_or(Status::Rejected, |r| r.status))
    }

    /// Latency from the due time, ms; failed requests are infinitely late.
    fn due_latency_ms(&self, i: usize) -> f64 {
        match (&self.receipts[i], self.status(i).completed()) {
            (Some(r), true) => (r.at - self.sent[i].due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    fn ledger(&self) -> Ledger {
        let mut l = Ledger { offered: self.sent.len() as u64, ..Ledger::default() };
        for i in 0..self.sent.len() {
            match self.status(i) {
                s if s.completed() => l.completed += 1,
                Status::Shed => l.shed += 1,
                Status::Deadline => l.deadline += 1,
                Status::PodDown => l.pod_down += 1,
                Status::Throttled => l.throttled += 1,
                _ => l.rejected += 1,
            }
        }
        l
    }

    /// Due-time latencies of `model`'s requests (all models if `None`), in
    /// submission order.
    fn latencies(&self, model: Option<usize>) -> Vec<f64> {
        (0..self.sent.len())
            .filter(|&i| model.is_none_or(|m| self.sent[i].model == m))
            .map(|i| self.due_latency_ms(i))
            .collect()
    }

    fn probe(&self, model: Option<usize>, share: f64, p99_limit_ms: f64) -> Probe {
        let lat = self.latencies(model);
        let failed = lat.iter().filter(|l| !l.is_finite()).count();
        let good =
            |w: &[f64]| w.iter().filter(|&&l| l <= p99_limit_ms).count() as f64 / w.len() as f64;
        Probe {
            offered_rps: self.offered_rps * share,
            good_frac: windowed_median(&lat, PROBE_WINDOWS, good),
            failed_frac: failed as f64 / lat.len().max(1) as f64,
            backlog_growing: backlog_growing(&lat, p99_limit_ms),
        }
    }
}

/// p99 (or the highest supported percentile) of a latency sample, ms;
/// infinite when the sample supports no tail.
fn tail_ms(lat: &[f64]) -> f64 {
    supported_tail(lat, 99.0).map_or(f64::INFINITY, |t| t.value)
}

/// Calls `send(i, due)` for each arrival at `due = start + offsets[i]`,
/// never early. A send that overruns delays the ones after it: they go out
/// late, and their latency, measured from the due time, is charged for the
/// wait.
fn pace(start: Instant, offsets: &[Duration], mut send: impl FnMut(usize, Instant)) {
    for (i, offset) in offsets.iter().enumerate() {
        let due = start + *offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        send(i, due);
    }
}

/// Drives an open loop at `rate` for `seconds`: seeded Poisson arrivals,
/// each sent at its due time, then waits for every answer.
#[allow(clippy::too_many_arguments)]
fn drive(
    session: &mut Session,
    inputs: &Inputs,
    rate: f64,
    seconds: f64,
    seed: u64,
    first_seq: u64,
    keep_inputs: bool,
    out: &mut Outcome,
) -> Phase {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut offsets = Vec::new();
    let mut offset = 0.0;
    loop {
        let u: f64 = rng.gen();
        offset += -(1.0 - u).ln() / rate;
        if offset > seconds {
            break;
        }
        offsets.push(Duration::from_secs_f64(offset));
    }
    let mut sent = Vec::with_capacity(offsets.len());
    pace(Instant::now() + Duration::from_millis(2), &offsets, |i, due| {
        let seq = first_seq + i as u64;
        let model = rng.gen_range(0..SERVED.len());
        let input = inputs.next(seq, &mut rng);
        let kept = (keep_inputs && checked(seq)).then(|| input.to_vec());
        let mut encode_us = 0.0;
        let start = Instant::now();
        let refused = session.send(seq, model, input, &mut encode_us);
        let end = Instant::now();
        sent.push(Sent { seq, model, due, start, end, encode_us, input: kept, refused });
    });
    let mut receipts: Vec<Option<Receipt>> = (0..sent.len()).map(|_| None).collect();
    let mut waiting = sent.iter().filter(|s| s.refused.is_none()).count();
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while waiting > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        match session.receipts.recv_timeout(left) {
            Ok(r) => {
                let i = (r.seq - first_seq) as usize;
                if i < receipts.len() && receipts[i].is_none() {
                    receipts[i] = Some(r);
                    waiting -= 1;
                } else {
                    out.fail(format!("unexpected or duplicate answer for request {}", r.seq));
                }
            }
            Err(_) => {
                out.fail(format!("{waiting} requests unanswered after {DRAIN_TIMEOUT:?}"));
                break;
            }
        }
    }
    Phase { sent, receipts, offered_rps: rate }
}

/// Per-model counters of a snapshot, summed.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    admitted: u64,
    shed: u64,
    completed: u64,
    hits: u64,
    coalesced: u64,
    misses: u64,
    device_us: f64,
    batches: u64,
    batch_sum: f64,
}

fn totals(s: &ServeSnapshot) -> Totals {
    let mut t = Totals::default();
    for m in &s.models {
        t.admitted += m.admitted;
        t.shed += m.shed;
        t.completed += m.completed;
        t.hits += m.cache_hits;
        t.coalesced += m.cache_coalesced;
        t.misses += m.cache_misses;
        t.device_us += m.device_us;
        t.batches += m.batches;
        t.batch_sum += m.mean_batch * m.batches as f64;
    }
    t
}

/// Runs the named serving workload for `seconds`.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let w = if name == UNIQUE.name { &UNIQUE } else { &WIRE_ZIPF };
    out.note("generator_threads", 1);
    out.note("connections", if w.wire { SERVED.len() } else { 0 });
    out.note("replicas", w.replicas);
    out.note("nominal_rps", NOMINAL_RPS);
    out.note("p99_limit_ms", P99_LIMIT_MS);

    // Set-up: start through the first answer of each model, several times.
    let inputs = Inputs::new(w, seed);
    let mut setup_s = Vec::new();
    let mut seq = 0u64;
    let mut session = None;
    let mut ledger = Ledger::default();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut s = Session::start(w);
        let mut first = Ledger::default();
        for model in 0..SERVED.len() {
            let mut enc = 0.0;
            let refused =
                s.send(seq, model, inputs.next(seq, &mut ChaCha8Rng::seed_from_u64(seq)), &mut enc);
            first.offered += 1;
            match refused {
                Some(st) => out.fail(format!("set-up request refused: {st:?}")),
                None => match s.receipts.recv_timeout(DRAIN_TIMEOUT) {
                    Ok(r) if r.status.completed() => first.completed += 1,
                    Ok(r) => out.fail(format!("set-up request answered {:?}", r.status)),
                    Err(_) => out.fail("set-up request unanswered"),
                },
            }
            seq += 1;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(old) = session.replace(s) {
            old.shutdown();
        }
        ledger = first;
    }
    out.set("setup_s", median(&setup_s));
    let mut session = session.expect("at least one set-up");
    let fleet_bytes: u64 = session.server.snapshot().models.iter().map(|m| m.weight_bytes).sum();
    out.set("model_mib", fleet_bytes as f64 / (1 << 20) as f64);

    // Warm-up.
    let warm = drive(
        &mut session,
        &inputs,
        NOMINAL_RPS,
        seconds * WARMUP_SHARE,
        seed ^ 0xA,
        seq,
        false,
        out,
    );
    seq += warm.sent.len() as u64;
    ledger += warm.ledger();

    // Nominal rate.
    let before = totals(&session.server.snapshot());
    let nominal = drive(
        &mut session,
        &inputs,
        NOMINAL_RPS,
        seconds * NOMINAL_SHARE,
        seed ^ 0xB,
        seq,
        true,
        out,
    );
    seq += nominal.sent.len() as u64;
    ledger += nominal.ledger();
    let after = totals(&session.server.snapshot());
    nominal_metrics(w, &nominal, &before, &after, out);
    // Peak memory under the nominal load, before the search's overloaded
    // probes queue up requests.
    out.set("peak_rss_mib", crate::peak_rss_mib());
    let twin = twin_registry(session.server.config());
    check_outputs(&twin, &nominal, out);
    if traced {
        // Before the search, so the snapshot still describes this window.
        trace_metrics(w, &session, &twin, &nominal, seed, out);
    }
    let nl = nominal.ledger();
    out.failed += nl.failures();
    out.set("failed_frac", nl.failures() as f64 / nl.offered.max(1) as f64);

    // The sustained rate: climb the ladder to the first failing probe, then
    // bisect the bracket it leaves.
    let probe_s = seconds * (1.0 - WARMUP_SHARE - NOMINAL_SHARE) / SEARCH_PROBES;
    let mut pooled: Vec<Probe> = Vec::new();
    let mut per_model: Vec<Vec<Probe>> = vec![Vec::new(); SERVED.len()];
    let (mut ladder, mut bisections) = (LADDER.iter().copied(), 0);
    for k in 0..MAX_PROBES {
        let rate = if pooled.iter().all(|r| r.passes(PROBE_FAILED_LIMIT)) {
            ladder.next()
        } else if bisections < BISECT_STEPS {
            bisections += 1;
            bisect_probe(&pooled, PROBE_FAILED_LIMIT, BISECT_RESOLUTION)
        } else {
            None
        };
        let Some(rate) = rate else { break };
        let secs = probe_s.min(PROBE_MAX_REQUESTS / rate);
        let p = drive(&mut session, &inputs, rate, secs, seed ^ (0x100 + k), seq, false, out);
        seq += p.sent.len() as u64;
        ledger += p.ledger();
        let probe = p.probe(None, 1.0, P99_LIMIT_MS);
        let p99 = windowed_median(&p.latencies(None), PROBE_WINDOWS, tail_ms);
        let (good, failed, backlog) = (probe.good_frac, probe.failed_frac, probe.backlog_growing);
        out.note(
            &format!("probe.{rate}"),
            format!("p99 {p99:.3} ms, good {good:.4}, failed {failed:.4}, backlog {backlog}"),
        );
        pooled.push(probe);
        for (m, probes) in per_model.iter_mut().enumerate() {
            probes.push(p.probe(Some(m), 1.0 / SERVED.len() as f64, P99_LIMIT_MS));
        }
    }
    out.set("sustained_rps", sustained_rps(&pooled, PROBE_FAILED_LIMIT));
    for (m, probes) in per_model.iter().enumerate() {
        out.set(&format!("sps.{}", SERVED[m]), sustained_rps(probes, PROBE_FAILED_LIMIT));
    }
    out.attempted = ledger.offered;

    // Reconcile the client's counts with the server's, whole session.
    let ingress = session.server.snapshot().ingress;
    let (snapshot, (frames, copies)) = session.shutdown();
    out.check(ledger.reconcile());
    let t = totals(&snapshot);
    let answered = ledger.completed + ledger.deadline + ledger.pod_down;
    if w.wire {
        out.check(cross_check("frames", ledger.offered, ingress.frames));
        let throttled: u64 = ingress.tenants.iter().map(|t| t.throttled).sum();
        let admitted: u64 = ingress.tenants.iter().map(|t| t.admitted).sum();
        out.check(cross_check("throttled", ledger.throttled, throttled));
        out.check(cross_check("admitted by ingress", ledger.offered - ledger.throttled, admitted));
        let dispatched = ingress.interactive_dispatched + ingress.batch_dispatched;
        out.check(cross_check("dispatched", dispatched, t.admitted + t.hits + t.coalesced));
        out.check(cross_check("answered by models", answered, t.completed));
        out.set("ingress.zero_copy_frac", 1.0 - copies as f64 / frames.max(1) as f64);
    } else {
        out.check(cross_check(
            "offered",
            ledger.offered,
            t.admitted + t.hits + t.coalesced + t.shed,
        ));
        out.check(cross_check("shed", ledger.shed, t.shed));
        out.check(cross_check("answered", answered, t.completed));
    }
    let util_min = snapshot.replicas.iter().map(|r| r.utilization).fold(f64::INFINITY, f64::min);
    out.set("replica.util_min", util_min);
    out.set(
        "replica.cold_loads",
        snapshot.replicas.iter().map(|r| r.cold_loads).sum::<u64>() as f64,
    );
}

/// End-to-end latency and device time at the nominal rate, plus the
/// cache and batching outcomes over the same window.
fn nominal_metrics(w: &Workload, p: &Phase, before: &Totals, after: &Totals, out: &mut Outcome) {
    let lat = p.latencies(None);
    let windowed = |q: f64| windowed_median(&lat, NOMINAL_WINDOWS, |w| quantile(&sorted(w), q));
    out.set("client.latency_p50_ms", windowed(0.5));
    out.set("client.latency_p90_ms", windowed(0.9));
    out.set("client.latency_p99_ms", windowed_median(&lat, NOMINAL_WINDOWS, tail_ms));
    out.note("latency_samples", format!("{} requests, {NOMINAL_WINDOWS} windows", lat.len()));
    let late: Vec<f64> = p
        .sent
        .iter()
        .map(|s| s.start.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    let late_p99 = supported_tail(&late, 99.0).map_or(f64::NAN, |t| t.value);
    out.set("loadgen.late_p99_ms", late_p99);
    if late_p99.is_nan() || late_p99 > LATE_P99_BOUND_MS {
        out.fail(format!("generator ran late: p99 {late_p99:.3} ms over {LATE_P99_BOUND_MS} ms"));
    }

    let completed = (after.completed - before.completed).max(1) as f64;
    let looked = (after.hits + after.misses + after.coalesced)
        - (before.hits + before.misses + before.coalesced);
    out.set("cache.hit_ratio", (after.hits - before.hits) as f64 / looked.max(1) as f64);
    out.set(
        "cache.coalesced_ratio",
        (after.coalesced - before.coalesced) as f64 / looked.max(1) as f64,
    );
    let batches = (after.batches - before.batches).max(1) as f64;
    out.set("server.batch_mean", (after.batch_sum - before.batch_sum) / batches);
    if w.wire {
        // No per-response timing crosses the wire: device time comes from
        // the snapshot's settled per-model tally.
        out.set("ipu_sim_us_per_req", (after.device_us - before.device_us) / completed);
    } else {
        let ipu: f64 = p
            .receipts
            .iter()
            .flatten()
            .filter_map(|r| r.timing)
            .filter(|t| !t.source.is_failure())
            .map(|t| t.ipu_batch_us.unwrap_or(0.0) / t.batch_size.max(1) as f64)
            .sum();
        let n = p.receipts.iter().flatten().filter(|r| r.status.completed()).count();
        out.set("ipu_sim_us_per_req", ipu / n.max(1) as f64);
    }
}

/// A registry built as the server built its own: same models, seed and
/// shards, so the same weights.
fn twin_registry(config: &ServeConfig) -> ModelRegistry {
    let specs: Vec<ModelSpec> = methods().iter().map(|&m| ModelSpec::of_method(m)).collect();
    ModelRegistry::build_fleet(DIM, config.classes, config.seed, &specs, config.registry_shards)
        .expect("valid SHL fleet")
}

/// A seeded sample of answers must equal the twin registry's forward bit
/// for bit.
fn check_outputs(twin: &ModelRegistry, p: &Phase, out: &mut Outcome) {
    let mut scratch = Scratch::new();
    let mut count = 0u64;
    for (s, r) in p.sent.iter().zip(&p.receipts) {
        let (Some(input), Some(r)) = (&s.input, r) else { continue };
        if !r.status.completed() {
            continue;
        }
        let want =
            twin.entries()[s.model].forward(&Matrix::from_vec(1, DIM, input.clone()), &mut scratch);
        let got = r.output.as_deref().unwrap_or_default();
        count += 1;
        let same = want.as_slice().len() == got.len()
            && want.as_slice().iter().zip(got).all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            out.failed += 1;
            out.fail(format!("request {}: output differs from the twin registry", s.seq));
        }
    }
    out.note("outputs_checked", count);
    if count == 0 {
        out.fail("no output was checked");
    }
}

/// Per-layer metrics of the nominal phase, the layer replay through a
/// twin of the served models, and the trace file.
fn trace_metrics(
    w: &Workload,
    session: &Session,
    twin: &ModelRegistry,
    p: &Phase,
    seed: u64,
    out: &mut Outcome,
) {
    let origin = p.sent.first().map_or_else(Instant::now, |s| s.due);
    let mut tracer = Tracer::new(origin);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    // Parts of each traced, computed request's latency from its send. In
    // process they tile it: the server's queue, service and post-forward
    // time (the rest of its total, up to emitting the response) plus the
    // reply hop, which is receipt minus submit start minus that total and so
    // also holds the part of the submit call before admission. On the wire:
    // the send call, then everything after it.
    let (mut submit, mut queue, mut service, mut post, mut reply) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut encode, mut decode, mut wire_lat, mut closed) = (vec![], vec![], vec![], vec![]);
    let (mut lat_traced, mut lat_untraced) = (Vec::new(), Vec::new());
    for (i, (s, r)) in p.sent.iter().zip(&p.receipts).enumerate() {
        let Some(r) = r else { continue };
        if !r.status.completed() {
            continue;
        }
        let latency = us(r.at - s.due);
        // Every other request is traced: the untraced half measures the
        // tracing overhead on the same run.
        if i % 2 == 1 {
            lat_untraced.push(latency);
            continue;
        }
        lat_traced.push(latency);
        submit.push(us(s.end - s.start));
        encode.push(s.encode_us);
        decode.push(r.decode_us);
        let track = s.model as u32;
        let req = tracer.record("request", s.due, r.at, None, s.seq, track);
        tracer.record("loadgen.late", s.due, s.start, Some(req), s.seq, track);
        let send = if w.wire { "ingress.send" } else { "server.submit" };
        tracer.record(send, s.start, s.end, Some(req), s.seq, track);
        match r.timing {
            Some(t) if t.source == ServedFrom::Compute => {
                let admit = tracer.us(s.start);
                let (q, sv, tot) = (t.queue_us as f64, t.service_us as f64, t.total_us as f64);
                queue.push(q);
                service.push(sv);
                post.push(tot - q - sv);
                reply.push(us(r.at - s.start) - tot);
                closed.push(us(r.at - s.start));
                let span = |name: &str, a: f64, b: f64| Span {
                    name: name.into(),
                    start_us: a,
                    end_us: b,
                    parent: Some(req),
                    id: s.seq,
                    track,
                };
                tracer.push(span("server.queue", admit, admit + q));
                tracer.push(span("server.service", admit + q, admit + q + sv));
                tracer.push(span("server.reply", admit + tot, tracer.us(r.at)));
            }
            Some(_) => {}
            None => {
                wire_lat.push(us(r.at - s.end));
                closed.push(us(r.at - s.start));
                tracer.record("ingress.server_and_wire", s.end, r.at, Some(req), s.seq, track);
            }
        }
    }
    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    out.set("server.submit_us_p50", med(&submit));
    out.set("server.submit_us_p99", supported_tail(&submit, 99.0).map_or(0.0, |t| t.value));
    out.set("trace.overhead_frac", med(&lat_traced) / med(&lat_untraced) - 1.0);
    // How closely the parts' medians add up to the median latency of the
    // same requests, measured from their send.
    let split = if w.wire {
        med(&submit) + med(&wire_lat)
    } else {
        med(&queue) + med(&service) + med(&post) + med(&reply)
    };
    out.set("trace.latency_closure", split / med(&closed));
    if w.wire {
        // Queue and server latency come from the snapshot (no per-response
        // timing on the wire); the rest of the client latency is the wire.
        let snap = session.server.snapshot();
        let n: f64 = snap.models.iter().map(|m| m.completed as f64).sum::<f64>().max(1.0);
        let weighted = |f: &dyn Fn(&bfly_serve::ModelStats) -> f64| {
            snap.models.iter().map(|m| f(m) * m.completed as f64).sum::<f64>() / n
        };
        let queue_mean = weighted(&|m| m.queue_mean_us);
        let server_p50 = weighted(&|m| m.latency_p50_us as f64);
        out.set("server.queue_us_p50", queue_mean);
        out.set("server.service_us_p50", (server_p50 - queue_mean).max(0.0));
        out.set("ingress.encode_us", med(&encode));
        out.set("ingress.decode_us", med(&decode));
        out.set("ingress.wire_overhead_us_p50", med(&wire_lat) - server_p50);
        out.note("server_timing_source", "snapshot means (no per-response timing on the wire)");
    } else {
        out.set("server.queue_us_p50", med(&queue));
        out.set("server.service_us_p50", med(&service));
        out.set("server.post_us_p50", med(&post));
        out.set("server.reply_us_p50", med(&reply));
    }

    // Replay the observed batch sizes through a twin of the served models.
    let sizes: Vec<usize> = p
        .receipts
        .iter()
        .flatten()
        .filter_map(|r| r.timing)
        .filter(|t| t.source == ServedFrom::Compute)
        .map(|t| t.batch_size)
        .collect();
    let mean_batch = out.metrics.get("server.batch_mean").copied().unwrap_or(1.0);
    let config = session.server.config();
    replay_layers(twin, config, &sizes, mean_batch.round().max(1.0) as usize, seed, out);

    let own = self_times(tracer.spans());
    let unattributed: f64 =
        tracer.spans().iter().zip(&own).filter(|(s, _)| s.parent.is_none()).map(|(_, o)| o).sum();
    out.note("trace_unattributed_us", unattributed);
    crate::write_trace(&tracer, w.name, seed, out);
}

/// Replays batch sizes drawn from the run through the twin registry's
/// `ModelEntry::forward` and each layer's `forward_inference`, and prices
/// them on the simulated IPU.
fn replay_layers(
    twin: &ModelRegistry,
    config: &ServeConfig,
    sizes: &[usize],
    fallback: usize,
    seed: u64,
    out: &mut Outcome,
) {
    let (ipu, gpu) = (IpuDevice::gc200(), GpuDevice::a30());
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC);
    let mut scratch = Scratch::new();
    for (m, method) in methods().into_iter().enumerate() {
        // The same weights the registry built: model `m` of the fleet.
        let stack = build_shl_inference(
            method,
            DIM,
            config.classes,
            &mut derived_rng(config.seed, m as u64),
        )
        .expect("valid SHL model");
        let entry = &twin.entries()[m];
        let (mut rows, mut whole_us, mut sim_us) = (0usize, 0.0, 0.0);
        let mut layer_us = [0.0f64; 3];
        let mut calls = 0usize;
        let budget = Instant::now() + Duration::from_millis(400);
        while Instant::now() < budget || calls < 8 {
            let b = if sizes.is_empty() { fallback } else { sizes[rng.gen_range(0..sizes.len())] };
            let x = Matrix::random_uniform(b, DIM, 1.0, &mut rng);
            let t0 = Instant::now();
            let y = entry.forward(&x, &mut scratch);
            whole_us += t0.elapsed().as_secs_f64() * 1e6;
            let mut h = x;
            for (l, layer) in stack.layers().iter().enumerate() {
                let t0 = Instant::now();
                h = layer.forward_inference(&h, &mut scratch);
                layer_us[l] += t0.elapsed().as_secs_f64() * 1e6;
            }
            if h.as_slice() != y.as_slice() {
                out.fail(format!("{}: layer-by-layer twin differs from the registry", SERVED[m]));
            }
            sim_us += entry.device_estimate(b, &ipu, &gpu, false).ipu_us.unwrap_or(f64::NAN);
            rows += b;
            calls += 1;
        }
        out.set(&format!("kernels.infer_us_per_row.{}", SERVED[m]), whole_us / rows as f64);
        out.set(&format!("ipu.sim_us_per_row.{}", SERVED[m]), sim_us / rows as f64);
        for (l, name) in SHL_LAYERS.iter().enumerate() {
            out.set(&format!("layer.infer_us.{}.{name}", SERVED[m]), layer_us[l] / calls as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_time_latency_charges_a_stall_to_later_requests() {
        // Requests due every 2 ms; the fourth send blocks its caller for
        // 30 ms, until about 36 ms in.
        let offsets: Vec<Duration> = (0..20).map(|i| Duration::from_millis(2 * i)).collect();
        let mut log = Vec::new();
        pace(Instant::now(), &offsets, |i, due| {
            let sent = Instant::now();
            if i == 3 {
                std::thread::sleep(Duration::from_millis(30));
            }
            log.push((due, sent, Instant::now()));
        });
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let (due, sent, answered) = log[3];
        assert!(ms(answered - due) >= 30.0 && sent >= due);
        // Requests due during the stall went out after it, and their
        // latency from the due time carries the wait they never caused;
        // timed from their own send, it would not.
        for (i, &(due, sent, answered)) in log.iter().enumerate().take(16).skip(4) {
            let waited = 36.0 - 2.0 * i as f64 - 1.0;
            assert!(ms(sent - due) >= waited, "request {i} sent {} ms late", ms(sent - due));
            assert!(ms(answered - due) >= ms(answered - sent) + waited);
        }
    }
}
