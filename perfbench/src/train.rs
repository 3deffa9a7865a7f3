//! `train_shl`: closed batch training of the paper's SHL network (§4.2,
//! Table 3: batch 50, SGD lr 0.001, momentum 0.9) on seeded CIFAR-10-like
//! data at dim 1024, for butterfly, pixelfly and the dense baseline, each in
//! its own timed section.

use crate::report::{Outcome, SHL_LAYERS, TRAINED};
use crate::stats::{self, mean, median, supported_tail};
use crate::trace::{self_times, Tracer};
use bfly_core::{ButterflyLayer, Method, PixelflyConfig, PixelflyLayer};
use bfly_data::{generate, shuffled_batches, split, Batch, Dataset, Split, SynthSpec};
use bfly_gpu::GpuDevice;
use bfly_ipu::IpuDevice;
use bfly_nn::{accuracy, softmax_cross_entropy, Dense, Layer, Relu, Sgd};
use bfly_tensor::{derived_rng, LinOp, Matrix};
use std::time::{Duration, Instant};

const DIM: usize = 1024;
const CLASSES: usize = 10;
const BATCH: usize = 50;
const LR: f32 = 0.001;
const MOMENTUM: f32 = 0.9;
/// Generated samples: 2040 train, 360 validation, 600 test after the
/// Table 4 harness's 20 % test / 15 % validation split.
const SAMPLES: usize = 3000;
/// Set-ups timed per run; the median is reported.
const SETUP_REPEATS: usize = 9;
/// Share of the run's step time each method gets, in `TRAINED` order.
/// Butterfly and pixelfly carry the bounded `sps.*` metrics, so they get
/// most of the run; dense (~20x butterfly's step cost) still trains ~100
/// steps, enough for its per-layer medians.
const SECTION_SHARE: [f64; 3] = [0.4, 0.4, 0.2];
/// Rounds the sections are cut into and interleaved over.
const ROUNDS: usize = 20;
/// Step-time quantile the bounded `sps.*` rates are taken at.
const STEADY_QUANTILE: f64 = 0.9;

/// Reference first-epoch outcome per method (same order as `TRAINED`):
/// mean training loss and test accuracy after one epoch from the seeded
/// initialisation, each `(mean, tolerance)`. The means are over seeds 1–10
/// and 201–216; each tolerance is 1.5x the widest deviation among those
/// seeds, since the data itself changes with the seed. A broken gradient
/// leaves the loss near its initial ln 10 ≈ 2.30 and the accuracy near
/// chance (0.1), outside every band.
const REFERENCE: [[(f64, f64); 2]; 3] = [
    [(2.106, 0.13), (0.598, 0.15)],
    [(2.222, 0.045), (0.462, 0.12)],
    [(2.151, 0.07), (0.642, 0.18)],
];

fn method(name: &str) -> Method {
    match name {
        "butterfly" => Method::Butterfly,
        "pixelfly" => Method::Pixelfly(PixelflyConfig::paper_default()),
        _ => Method::Baseline,
    }
}

/// The SHL stack as separate layers, initialised exactly as
/// `bfly_core::build_shl` does from the same RNG state, so the benchmark can
/// time each layer's `forward` and `backward`.
pub fn build_stack(method: Method, dim: usize, rng: &mut impl rand::Rng) -> Vec<Box<dyn Layer>> {
    let hidden: Box<dyn Layer> = match method {
        Method::Butterfly => Box::new(ButterflyLayer::new(dim, dim, rng)),
        Method::Pixelfly(config) => {
            Box::new(PixelflyLayer::new(dim, dim, config, rng).expect("power-of-two dim"))
        }
        _ => Box::new(Dense::new(dim, dim, rng)),
    };
    vec![hidden, Box::new(Relu::new()), Box::new(Dense::new(dim, CLASSES, rng))]
}

struct Setup {
    data: Split,
    stacks: Vec<Vec<Box<dyn Layer>>>,
}

fn setup(seed: u64) -> Setup {
    let raw = generate(&SynthSpec::cifar10_like(SAMPLES, seed));
    let mut rng = derived_rng(seed, 1);
    let data = split(raw, 0.2, 0.15, &mut rng);
    let stacks = TRAINED
        .iter()
        .enumerate()
        .map(|(i, m)| build_stack(method(m), DIM, &mut derived_rng(seed, 10 + i as u64)))
        .collect();
    Setup { data, stacks }
}

/// Timestamps of one traced step, in call order.
#[derive(Default)]
struct StepMarks {
    zero_grad: (Option<Instant>, Option<Instant>),
    fwd: [(Option<Instant>, Option<Instant>); 3],
    loss: (Option<Instant>, Option<Instant>),
    bwd: [(Option<Instant>, Option<Instant>); 3],
    sgd: (Option<Instant>, Option<Instant>),
}

fn now_if(traced: bool) -> Option<Instant> {
    traced.then(Instant::now)
}

/// One SGD step with the arithmetic of `bfly_nn::fit`; returns the batch
/// loss. With `marks`, every call into a layer is timestamped.
fn step(
    layers: &mut [Box<dyn Layer>],
    opt: &Sgd,
    batch: &Batch,
    marks: Option<&mut StepMarks>,
) -> f64 {
    let traced = marks.is_some();
    let mut m = StepMarks::default();
    m.zero_grad.0 = now_if(traced);
    for l in layers.iter_mut() {
        l.zero_grad();
    }
    m.zero_grad.1 = now_if(traced);
    let mut x = batch.features.clone();
    for (i, l) in layers.iter_mut().enumerate() {
        m.fwd[i].0 = now_if(traced);
        x = l.forward(&x, true);
        m.fwd[i].1 = now_if(traced);
    }
    m.loss.0 = now_if(traced);
    let out = softmax_cross_entropy(&x, &batch.labels);
    m.loss.1 = now_if(traced);
    let mut g = out.grad;
    for (i, l) in layers.iter_mut().enumerate().rev() {
        m.bwd[i].0 = now_if(traced);
        g = l.backward(&g);
        m.bwd[i].1 = now_if(traced);
    }
    m.sgd.0 = now_if(traced);
    let mut params: Vec<_> = layers.iter_mut().flat_map(|l| l.params()).collect();
    opt.step(&mut params);
    m.sgd.1 = now_if(traced);
    if let Some(marks) = marks {
        *marks = m;
    }
    out.loss
}

fn test_accuracy(layers: &mut [Box<dyn Layer>], data: &Dataset) -> f64 {
    let mut correct = 0.0;
    let mut r = 0;
    while r < data.len() {
        let end = (r + 256).min(data.len());
        let mut x = Matrix::zeros(end - r, data.dim());
        for (dst, src) in (r..end).enumerate() {
            x.row_mut(dst).copy_from_slice(data.features.row(src));
        }
        for l in layers.iter_mut() {
            x = l.forward(&x, false);
        }
        correct += accuracy(&x, &data.labels[r..end]) * (end - r) as f64;
        r = end;
    }
    correct / data.len() as f64
}

/// One method's training state and measurements.
struct Trainer<'a> {
    layers: &'a mut [Box<dyn Layer>],
    data: &'a Split,
    opt: Sgd,
    shuffle: bfly_tensor::WorkspaceRng,
    batches: Vec<Batch>,
    next: usize,
    epoch: usize,
    loss_sum: f64,
    steps: u64,
    /// Wall seconds of every untraced step, in order.
    step_s: Vec<f64>,
    /// Traced steps' wall seconds.
    traced_step_s: Vec<f64>,
    first_epoch: Option<(f64, f64)>,
    /// µs per batch spent building shuffled batches, one per epoch.
    batch_us: Vec<f64>,
}

impl<'a> Trainer<'a> {
    fn new(layers: &'a mut [Box<dyn Layer>], data: &'a Split, seed: u64) -> Self {
        Trainer {
            layers,
            data,
            opt: Sgd::new(LR, MOMENTUM),
            shuffle: derived_rng(seed, 1000),
            batches: Vec::new(),
            next: 0,
            epoch: 0,
            loss_sum: 0.0,
            steps: 0,
            step_s: Vec::new(),
            traced_step_s: Vec::new(),
            first_epoch: None,
            batch_us: Vec::new(),
        }
    }

    /// Trains for `budget` of step time, ending mid-epoch if it runs out.
    /// When `tracer` is given, every other step is traced, so the untraced
    /// steps in between measure the tracing overhead on the same run.
    fn train_for(&mut self, budget: Duration, mut tracer: Option<(&mut Tracer, u32)>) {
        let mut spent = Duration::ZERO;
        while spent < budget {
            if self.next == self.batches.len() {
                self.end_epoch();
            }
            let trace_this = tracer.is_some() && self.steps.is_multiple_of(2);
            let mut marks = StepMarks::default();
            let start = Instant::now();
            let batch = &self.batches[self.next];
            let loss = step(self.layers, &self.opt, batch, trace_this.then_some(&mut marks));
            let end = Instant::now();
            spent += end - start;
            self.loss_sum += loss * batch.labels.len() as f64;
            self.next += 1;
            if trace_this {
                self.traced_step_s.push((end - start).as_secs_f64());
                if let Some((t, track)) = tracer.as_mut() {
                    record_step(t, *track, self.steps, start, end, &marks);
                }
            } else {
                self.step_s.push((end - start).as_secs_f64());
            }
            self.steps += 1;
        }
    }

    /// Closes the epoch in progress (the first one is checked against the
    /// reference outside any timing) and shuffles the next.
    fn end_epoch(&mut self) {
        if !self.batches.is_empty() {
            if self.epoch == 0 {
                let loss = self.loss_sum / self.data.train.len() as f64;
                self.first_epoch = Some((loss, test_accuracy(self.layers, &self.data.test)));
            }
            self.epoch += 1;
        }
        let t0 = Instant::now();
        self.batches = shuffled_batches(&self.data.train, BATCH, &mut self.shuffle);
        self.batch_us.push(t0.elapsed().as_secs_f64() * 1e6 / self.batches.len() as f64);
        self.next = 0;
        self.loss_sum = 0.0;
    }

    /// Finishes the first epoch if the timed rounds ended inside it.
    fn finish_first_epoch(&mut self) {
        while self.first_epoch.is_none() {
            self.train_for(Duration::from_millis(100), None);
            if self.next == self.batches.len() {
                self.end_epoch();
            }
        }
    }
}

fn record_step(t: &mut Tracer, track: u32, id: u64, start: Instant, end: Instant, m: &StepMarks) {
    let step = t.record("step", start, end, None, id, track);
    let mut child = |name: &str, (a, b): (Option<Instant>, Option<Instant>)| {
        if let (Some(a), Some(b)) = (a, b) {
            t.record(name, a, b, Some(step), id, track);
        }
    };
    child("nn.zero_grad", m.zero_grad);
    for (i, l) in SHL_LAYERS.iter().enumerate() {
        child(&format!("layer.fwd.{l}"), m.fwd[i]);
    }
    child("nn.loss", m.loss);
    for (i, l) in SHL_LAYERS.iter().enumerate().rev() {
        child(&format!("layer.bwd.{l}"), m.bwd[i]);
    }
    child("nn.sgd", m.sgd);
}

/// Simulated IPU and GPU µs of a forward trace.
fn simulate(trace: &[LinOp]) -> (f64, f64) {
    let ipu = IpuDevice::gc200();
    let gpu = GpuDevice::a30();
    let ipu_us = ipu.run(trace).map(|r| r.seconds(ipu.spec()) * 1e6).unwrap_or(f64::NAN);
    let gpu_us = gpu.run(trace, false).map(|r| r.seconds() * 1e6).unwrap_or(f64::NAN);
    (ipu_us, gpu_us)
}

/// Runs the workload for `seconds` of training.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let s = setup(seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let Setup { data, mut stacks } = ready.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    let state_bytes: usize =
        stacks.iter_mut().flat_map(|s| s.iter_mut()).map(|l| l.train_state_bytes()).sum();
    out.set("model_mib", state_bytes as f64 / (1 << 20) as f64);
    out.note("train_samples", data.train.len());
    out.note("test_samples", data.test.len());

    let mut tracer = Tracer::new(Instant::now());
    let mut trainers: Vec<Trainer> =
        stacks.iter_mut().map(|layers| Trainer::new(layers, &data, seed)).collect();
    // Each method's section is cut into rounds that interleave with the
    // others', so its steps sample the whole run: on a shared host the
    // speed drifts over seconds.
    for _ in 0..ROUNDS {
        for (i, t) in trainers.iter_mut().enumerate() {
            let chunk = Duration::from_secs_f64(seconds * SECTION_SHARE[i] / ROUNDS as f64);
            t.train_for(chunk, traced.then_some((&mut tracer, i as u32)));
        }
    }
    let mut p50_sum = 0.0;
    let mut tail_sum = 0.0;
    let mut p99_sum = 0.0;
    let mut mean_step_sum = 0.0;
    let mut ipu_per_sample = 0.0;
    let mut batch_us = Vec::new();
    let (mut traced_total, mut untraced_total) = (0.0, 0.0);
    for (i, (name, t)) in TRAINED.iter().zip(&mut trainers).enumerate() {
        t.finish_first_epoch();
        out.attempted += t.steps;
        batch_us.extend(t.batch_us.iter().copied());

        let (loss, accuracy) = t.first_epoch.expect("first epoch finished");
        out.note(&format!("first_epoch_loss.{name}"), loss);
        out.note(&format!("first_epoch_test_accuracy.{name}"), accuracy);
        for (what, got, (want, tol)) in
            [("loss", loss, REFERENCE[i][0]), ("test accuracy", accuracy, REFERENCE[i][1])]
        {
            if (got - want).abs() > tol {
                out.failed += 1;
                out.fail(format!(
                    "{name}: first-epoch {what} {got:.4} outside reference {want} ± {tol}"
                ));
            }
        }

        let ms: Vec<f64> = t.step_s.iter().map(|s| s * 1e3).collect();
        let tail = supported_tail(&ms, 90.0);
        p50_sum += median(&ms);
        tail_sum += tail.map_or(f64::NAN, |t| t.value);
        let p99 = supported_tail(&ms, 99.0);
        p99_sum += p99.map_or(f64::NAN, |t| t.value);
        if let Some(t) = p99 {
            out.note(
                &format!("step_tail.{name}"),
                format!("p{} of {} steps", t.percentile, t.samples),
            );
        }
        mean_step_sum += mean(&t.step_s);
        // The bounded rate is taken at the p90 step time. On a shared host
        // the step time is bimodal: the core runs ~1.4x faster for seconds
        // at a time. The median and the mean move with the share of the run
        // spent in the fast phase, which differs from run to run; the p90
        // step lies in the slow phase, which nearly every run has.
        if *name != "dense" {
            let p90 = stats::quantile(&stats::sorted(&t.step_s), STEADY_QUANTILE);
            out.set(&format!("sps.{name}"), BATCH as f64 / p90);
        }
        // Samples trained over the time spent training them.
        out.set(&format!("train_sps.{name}"), BATCH as f64 / mean(&t.step_s));

        let layers = &t.layers;
        let hidden_trace = layers[0].trace(BATCH);
        let (ipu_us, gpu_us) = simulate(&hidden_trace);
        let forward: Vec<LinOp> = layers.iter().flat_map(|l| l.trace(BATCH)).collect();
        // Forward plus backward priced as three forward passes, as the
        // Table 4 harness does.
        ipu_per_sample += 3.0 * simulate(&forward).0 / BATCH as f64;
        out.set(
            &format!("kernels.flops.{name}.hidden"),
            bfly_tensor::ops::trace_flops(&hidden_trace),
        );
        out.set(
            &format!("kernels.bytes.{name}.hidden"),
            bfly_tensor::ops::trace_bytes(&hidden_trace) as f64,
        );
        out.set(&format!("ipu.sim_us.{name}.hidden"), ipu_us);
        out.set(&format!("gpu.sim_us.{name}.hidden"), gpu_us);
        if traced {
            traced_total += median(&t.traced_step_s);
            untraced_total += median(&t.step_s);
        }
    }
    out.set("client.latency_p50_ms", p50_sum);
    out.set("client.latency_p90_ms", tail_sum);
    out.set("client.latency_p99_ms", p99_sum);
    out.set("sustained_rps", (TRAINED.len() * BATCH) as f64 / mean_step_sum);
    out.set("ipu_sim_us_per_req", ipu_per_sample);
    out.set("data.batch_us", median(&batch_us));

    if traced {
        layer_metrics(&tracer, out);
        out.set("trace.overhead_frac", traced_total / untraced_total - 1.0);
        crate::write_trace(&tracer, "train_shl", seed, out);
    }
}

/// Per-layer medians and the attributed share of the step spans.
fn layer_metrics(tracer: &Tracer, out: &mut Outcome) {
    let spans = tracer.spans();
    let own = self_times(spans);
    let (mut step_total, mut attributed) = (0.0, 0.0);
    let mut per: std::collections::BTreeMap<(u32, String), Vec<f64>> = Default::default();
    for (s, own) in spans.iter().zip(&own) {
        if s.parent.is_none() {
            step_total += s.dur_us();
            attributed += s.dur_us() - own;
        } else {
            per.entry((s.track, s.name.clone())).or_default().push(*own);
        }
    }
    for ((track, name), v) in per {
        let m = TRAINED[track as usize];
        let key = match name.split_once('.') {
            Some(("layer", rest)) => {
                let (dir, layer) = rest.split_once('.').expect("layer.<dir>.<layer>");
                format!("layer.{dir}_us.{m}.{layer}")
            }
            Some(("nn", "loss")) => format!("nn.loss_us.{m}"),
            Some(("nn", "sgd")) => format!("nn.sgd_us.{m}"),
            _ => continue,
        };
        out.set(&key, stats::median(&v));
    }
    out.set("trace.step_attributed_frac", attributed / step_total);
    if attributed / step_total < 0.9 {
        out.fail(format!(
            "per-layer self times cover {:.3} of the step spans, under 0.9",
            attributed / step_total
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_core::build_shl;
    use bfly_tensor::seeded_rng;

    /// The layer-by-layer stack is `build_shl`'s model, bit for bit.
    #[test]
    fn stack_matches_build_shl() {
        for m in TRAINED {
            let stack = build_stack(method(m), 256, &mut seeded_rng(3));
            let mut model = build_shl(method(m), 256, CLASSES, &mut seeded_rng(3)).unwrap();
            let x = Matrix::random_uniform(4, 256, 1.0, &mut seeded_rng(4));
            let mut layers = stack;
            let mut y = x.clone();
            for l in layers.iter_mut() {
                y = l.forward(&y, false);
            }
            assert_eq!(y.as_slice(), model.forward(&x, false).as_slice(), "{m}");
            let params: usize = layers.iter().map(|l| l.param_count()).sum();
            assert_eq!(params, model.param_count());
        }
    }
}
