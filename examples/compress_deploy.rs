//! The compress → deploy → serve pipeline: bring a trained dense model,
//! serve it compressed.
//!
//! Run with: `cargo run --release --example compress_deploy`
//!
//! 1. **Train** a deep dense MLP classifier on the synthetic task.
//! 2. **Compress** it offline with the whole-model driver: every hidden
//!    affine layer is fitted by the deterministic hierarchical sweep under
//!    a per-layer error budget; the narrow classifier head stays dense
//!    because a butterfly would not save parameters there.
//! 3. **Fine-tune** the compressed stack briefly — an arbitrary trained
//!    dense weight has little butterfly structure to identify (see
//!    `compress_layer`), so a few epochs of fine-tuning recover the
//!    end-task accuracy the projection loses, at the compressed parameter
//!    count.
//! 4. **Deploy** both stacks — the dense original and its compressed twin,
//!    with their exact weights — into the serving fleet as prebuilt models
//!    and drive identical closed-loop load at each over the simulated pod.

use bfly_core::{compress_model, Method, ModelCompressConfig};
use bfly_data::{generate, split, SynthSpec};
use bfly_nn::{build_dense_mlp, evaluate, fit, Layer, TrainConfig};
use bfly_serve::{closed_loop, CacheConfig, PrebuiltModel, ServeConfig, Server};
use bfly_tensor::seeded_rng;
use std::time::Duration;

fn main() {
    let dim = 256usize;
    let classes = 10usize;
    let spec = SynthSpec {
        dim,
        num_classes: classes,
        samples: 2400,
        latent_dim: 24,
        latent_noise: 1.2,
        pixel_noise: 0.2,
        seed: 52,
    };
    let data = generate(&spec);
    let mut rng = seeded_rng(53);
    let s = split(data, 0.2, 0.15, &mut rng);

    // 1. Train the dense MLP the user "brings".
    println!("1) training a dense MLP {dim} -> {dim} -> {dim} -> {classes}...");
    let mut dense = build_dense_mlp(dim, &[dim, dim], classes, &mut rng);
    let dense_params = dense.param_count();
    let report =
        fit(&mut dense, &s, &TrainConfig { epochs: 10, seed: 54, ..TrainConfig::default() });
    let dense_acc = report.test_accuracy;
    println!("   dense accuracy {:.2}%  ({dense_params} parameters)", dense_acc * 100.0);

    // 2. Offline compression: hierarchical sweep, default budget.
    println!("2) compressing layer-by-layer (hierarchical identification sweep)...");
    let result = compress_model(&dense, &ModelCompressConfig::default(), &mut rng)
        .expect("dense MLP stacks are supported");
    for layer in &result.layers {
        println!(
            "   layer {:>2} {:<10} {:?}: operator error {:.3}, {} -> {} params",
            layer.index,
            layer.name,
            layer.decision,
            layer.operator_error,
            layer.dense_params,
            layer.compressed_params
        );
    }
    let ratio = result.compression_ratio();
    println!(
        "   whole model: {} -> {} params ({:.1}x compression)",
        result.dense_params, result.compressed_params, ratio
    );

    // 3. Fine-tune the compressed stack to recover end-task accuracy.
    let mut compressed = result.model;
    let before = evaluate(&mut compressed, &s.test);
    println!("3) accuracy after projection, before fine-tune: {:.2}%", before * 100.0);
    let ft = fit(
        &mut compressed,
        &s,
        &TrainConfig { epochs: 30, lr: 0.01, seed: 55, ..TrainConfig::default() },
    );
    let compressed_acc = ft.test_accuracy;
    println!(
        "   accuracy after fine-tune: {:.2}%  (delta vs dense {:+.2} pts at {:.1}x fewer params)",
        compressed_acc * 100.0,
        (compressed_acc - dense_acc) * 100.0,
        ratio
    );

    // 4. Deploy both stacks into the fleet with their exact weights.
    println!("4) serving dense vs compressed over the pod...");
    let compressed_params = compressed.param_count();
    let config = ServeConfig {
        dim,
        classes,
        seed: 56,
        max_batch: 16,
        max_wait: Duration::from_micros(300),
        queue_capacity: 256,
        workers: 2,
        cache: CacheConfig::disabled(),
        replicas: 4,
        ..Default::default()
    };
    let server = Server::start_fleet(
        config,
        &[],
        vec![
            PrebuiltModel::new("mlp-dense", Method::Baseline, dense),
            PrebuiltModel::new("mlp-butterfly", Method::Butterfly, compressed),
        ],
    )
    .expect("prebuilt fleet");
    println!(
        "   resident weights: mlp-dense {} KiB, mlp-butterfly {} KiB",
        4 * dense_params / 1024,
        4 * compressed_params / 1024
    );
    for name in ["mlp-dense", "mlp-butterfly"] {
        let load = closed_loop(&server, &[name], 8, 40, 57, 64);
        println!(
            "   {name:<14} {:>7.0} rps, p50 {:>5} us, p99 {:>5} us, mean batch {:.1}",
            load.throughput_rps, load.latency_p50_us, load.latency_p99_us, load.mean_batch
        );
    }
    let snapshot = server.shutdown();
    println!(
        "\nserved {} requests; the compressed model answers the same traffic at {:.1}x fewer \
         resident bytes.",
        snapshot.models.iter().map(|m| m.completed).sum::<u64>(),
        dense_params as f64 / compressed_params as f64
    );
}
