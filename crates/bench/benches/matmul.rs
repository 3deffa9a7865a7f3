//! Criterion benchmarks of the three dense matmul kernel tiers (the host
//! analogues of Table 2's naive / blocked / library tiers), plus the SHL
//! dense layer shapes the training step runs.

use bfly_tensor::matmul::{matmul, matmul_a_bt, matmul_blocked, matmul_naive};
use bfly_tensor::{seeded_rng, Matrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_matmul_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_tiers");
    for &n in &[128usize, 512] {
        let mut rng = seeded_rng(1);
        let a = Matrix::random_uniform(n, n, 1.0, &mut rng);
        let b = Matrix::random_uniform(n, n, 1.0, &mut rng);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| matmul_naive(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| matmul_blocked(&a, &b))
        });
        group.bench_with_input(BenchmarkId::new("parallel", n), &n, |bch, _| {
            bch.iter(|| matmul(&a, &b))
        });
    }
    group.finish();
}

fn bench_skewed_shapes(c: &mut Criterion) {
    // Host-side analogue of Fig 4: same FLOPs, different aspect ratios.
    let mut group = c.benchmark_group("matmul_skew");
    let base = 256usize;
    for &(m, k) in &[(base, base), (base * 4, base / 4), (base / 4, base * 4)] {
        let mut rng = seeded_rng(2);
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, base, 1.0, &mut rng);
        let label = format!("{m}x{k}x{base}");
        group.bench_with_input(BenchmarkId::new("parallel", &label), &label, |bch, _| {
            bch.iter(|| matmul(&a, &b))
        });
    }
    group.finish();
}

fn bench_shl_shapes(c: &mut Criterion) {
    // `Dense::forward` at batch 50: the 1024 -> 1024 hidden layer and the
    // 1024 -> 10 classifier, both `X W^T`.
    let mut group = c.benchmark_group("matmul_shl");
    let (batch, dim) = (50usize, 1024usize);
    for &out in &[dim, 10] {
        let mut rng = seeded_rng(3);
        let x = Matrix::random_uniform(batch, dim, 1.0, &mut rng);
        let w = Matrix::random_uniform(out, dim, 1.0, &mut rng);
        group.throughput(Throughput::Elements((2 * batch * dim * out) as u64));
        let label = format!("{batch}x{dim}x{out}");
        group.bench_with_input(BenchmarkId::new("a_bt", &label), &label, |bch, _| {
            bch.iter(|| matmul_a_bt(&x, &w))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = bench_matmul_tiers, bench_skewed_shapes, bench_shl_shapes
}
criterion_main!(benches);
