//! Criterion benchmarks of sparse kernels: CSR vs COO SpMM (paper Note 2:
//! "on both GPU and IPU, CSR shows better performance"), the
//! sparsity-level scaling that underlies Table 2's sparse columns, and
//! pixelfly's hidden layer at the paper-default shape.

use bfly_core::{
    flat_butterfly_mask, fused_block_backward, fused_block_forward_train, BlockGrads,
    BlockSparseMatrix, LowRankRef, PixelflyConfig, PixelflyLayer,
};
use bfly_nn::Layer;
use bfly_tensor::{seeded_rng, Csr, Matrix, Scratch};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_csr_vs_coo(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr_vs_coo_spmm");
    let n = 1024usize;
    for &density in &[0.01f64, 0.10] {
        let mut rng = seeded_rng(1);
        let csr = Csr::random(n, n, density, &mut rng);
        let coo = csr.to_coo();
        let dense = Matrix::random_uniform(n, 64, 1.0, &mut rng);
        let label = format!("{:.0}%_sparse", (1.0 - density) * 100.0);
        group.throughput(Throughput::Elements(csr.nnz() as u64));
        group.bench_with_input(BenchmarkId::new("csr", &label), &label, |b, _| {
            b.iter(|| csr.spmm(&dense))
        });
        group.bench_with_input(BenchmarkId::new("coo", &label), &label, |b, _| {
            b.iter(|| coo.spmm(&dense))
        });
    }
    group.finish();
}

fn bench_sparse_vs_dense_crossover(c: &mut Criterion) {
    // Where does exploiting sparsity beat the dense kernel on the host?
    let mut group = c.benchmark_group("sparse_vs_dense_crossover");
    let n = 512usize;
    for &density in &[0.01f64, 0.05, 0.25] {
        let mut rng = seeded_rng(2);
        let csr = Csr::random(n, n, density, &mut rng);
        let as_dense = csr.to_dense();
        let rhs = Matrix::random_uniform(n, n, 1.0, &mut rng);
        let label = format!("density_{density}");
        group.bench_with_input(BenchmarkId::new("spmm", &label), &label, |b, _| {
            b.iter(|| csr.spmm(&rhs))
        });
        group.bench_with_input(BenchmarkId::new("dense_mm", &label), &label, |b, _| {
            b.iter(|| bfly_tensor::matmul(&as_dense, &rhs))
        });
    }
    group.finish();
}

/// Pixelfly's hidden layer at the paper-default shape (n = 1024, block 32,
/// butterfly size 8, rank 128): the training forward and the fused backward
/// at the SHL batch of 50, and the served forward at batches 1 and 2.
fn bench_pixelfly_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("pixelfly_step");
    let (n, batch) = (1024usize, 50usize);
    let config = PixelflyConfig::paper_default();
    let mut rng = seeded_rng(3);
    let mut layer = PixelflyLayer::new(n, n, config, &mut rng).expect("power-of-two dim");
    let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    group.bench_function(BenchmarkId::new("forward_train", batch), |b| {
        b.iter(|| layer.forward(&x, true))
    });

    // The backward as the layer runs it: payload, U and V gradients plus dX
    // from the cached Vx, upstream gradient ReLU-masked as in the SHL net.
    let mask = flat_butterfly_mask(n / config.block_size, config.butterfly_size);
    let w = BlockSparseMatrix::random(n, n, config.block_size, mask, &mut rng);
    let csr = w.csr();
    let (u, v) = (
        Matrix::random_uniform(n, config.rank, 0.05, &mut rng),
        Matrix::random_uniform(config.rank, n, 0.05, &mut rng),
    );
    let lr = LowRankRef { u: u.as_slice(), v: v.as_slice(), rank: config.rank };
    let mut scratch = Scratch::new();
    let (_, vx) = fused_block_forward_train(&csr, w.data(), Some(lr), None, &x, &mut scratch);
    let vx = vx.expect("rank > 0 returns Vx");
    let mut g = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    g.map_in_place(|v| v.max(0.0));
    let (mut gp, mut gu, mut gv) = (vec![0.0; w.nnz()], vec![0.0; u.len()], vec![0.0; v.len()]);
    group.bench_function(BenchmarkId::new("backward", batch), |b| {
        b.iter(|| {
            let grads = BlockGrads { payload: &mut gp, u: &mut gu, v: &mut gv };
            fused_block_backward(&csr, w.data(), Some(lr), &x, Some(&vx), &g, grads, &mut scratch)
        })
    });

    for rows in [1usize, 2] {
        let xr = Matrix::random_uniform(rows, n, 1.0, &mut rng);
        group.bench_function(BenchmarkId::new("forward_inference", rows), |b| {
            b.iter(|| layer.forward_inference(&xr, &mut scratch))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_csr_vs_coo, bench_sparse_vs_dense_crossover, bench_pixelfly_step
}
criterion_main!(benches);
