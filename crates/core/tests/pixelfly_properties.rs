//! Layer-level invariants of `PixelflyLayer`, whose forward runs the
//! low-rank term on the dense GEMMs and the block-sparse term on a payload
//! packed once per weight update:
//!
//! - the training forward, the eval forward and `forward_inference` give the
//!   same bits, before and after an optimizer step;
//! - every row of a batch equals that row run alone, bit for bit;
//! - after an optimizer step the forward uses the new weights;
//! - at the paper-default shape, every gradient matches the dense formulas.

use bfly_core::{flat_butterfly_mask, PixelflyConfig, PixelflyLayer};
use bfly_nn::{Layer, Sgd};
use bfly_tensor::matmul::{matmul, matmul_a_bt, matmul_at_b};
use bfly_tensor::{seeded_rng, Matrix, Scratch};
use proptest::{prop_assert_eq, proptest, ProptestConfig};

/// One SGD step from a seeded upstream gradient, so that every parameter
/// (blocks, U, V, bias) moves.
fn train_step(layer: &mut PixelflyLayer, x: &Matrix, seed: u64) {
    let mut rng = seeded_rng(seed);
    for p in layer.params() {
        p.zero_grad();
    }
    let y = layer.forward(x, true);
    let g = Matrix::random_uniform(y.rows(), y.cols(), 1.0, &mut rng);
    layer.backward(&g);
    Sgd::new(0.05, 0.9).step(&mut layer.params());
}

/// `x W_effᵀ + bias` through the dense weight, from the current parameters.
fn dense_reference(layer: &mut PixelflyLayer, x: &Matrix) -> Matrix {
    let mut y = matmul_a_bt(x, &layer.effective_weight());
    let bias = layer.params().last().expect("bias is the last parameter").value.clone();
    for r in 0..y.rows() {
        for (o, b) in y.row_mut(r).iter_mut().zip(&bias) {
            *o += b;
        }
    }
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Training forward ≡ eval forward ≡ `forward_inference`, and each row
    /// of a ragged batch ≡ the row alone — on the initial weights and again
    /// after an SGD step has re-packed the payload.
    #[test]
    fn forward_paths_and_rows_are_bit_identical(
        bexp in 0usize..4,       // block 4, 8, 16, 32
        gexp in 1usize..4,       // grid 2, 4, 8 blocks
        rank in 1usize..17,
        batch in 1usize..71,
        seed in 0u64..1_000_000,
    ) {
        let block = 4usize << bexp;
        let grid = 1usize << gexp;
        let dim = block * grid;
        let config = PixelflyConfig { block_size: block, butterfly_size: grid, rank };
        let mut rng = seeded_rng(seed);
        let mut layer = PixelflyLayer::new(dim, dim, config, &mut rng).expect("valid config");
        let x = Matrix::random_uniform(batch, dim, 1.0, &mut rng);
        for stage in ["initial", "after an SGD step"] {
            let train = layer.forward(&x, true);
            let eval = layer.forward(&x, false);
            let mut scratch = Scratch::new();
            let infer = layer.forward_inference(&x, &mut scratch);
            prop_assert_eq!(train.as_slice(), eval.as_slice(), "train vs eval, {}", stage);
            prop_assert_eq!(eval.as_slice(), infer.as_slice(), "eval vs inference, {}", stage);
            for r in 0..batch {
                let alone = layer.forward_inference(&Matrix::from_rows(&[x.row(r)]), &mut scratch);
                prop_assert_eq!(alone.as_slice(), infer.row(r), "row {} of {}, {}", r, batch, stage);
            }
            train_step(&mut layer, &x, seed ^ 0x51);
        }
    }
}

/// Regression: an optimizer step changes the parameters, and the next
/// forward must compute with them, not with a stale packed copy.
#[test]
fn forward_after_sgd_step_uses_the_new_weights() {
    for (block, dim) in [(4usize, 32usize), (8, 64), (32, 128), (2, 16)] {
        let config = PixelflyConfig { block_size: block, butterfly_size: 2, rank: 3 };
        let mut rng = seeded_rng(block as u64);
        let mut layer = PixelflyLayer::new(dim, dim, config, &mut rng).expect("valid config");
        let x = Matrix::random_uniform(6, dim, 1.0, &mut rng);
        let before = layer.forward(&x, false);
        for step in 0..3 {
            train_step(&mut layer, &x, 90 + step);
            let y = layer.forward(&x, false);
            let expect = dense_reference(&mut layer, &x);
            assert!(
                y.relative_error(&expect) < 1e-4,
                "block {block}, step {step}: error {}",
                y.relative_error(&expect)
            );
        }
        assert!(layer.forward(&x, false).relative_error(&before) > 1e-3, "steps must move y");
    }
}

/// Every gradient of the paper-default layer (n = 1024, b = 32, butterfly
/// size 8, rank 128) at batch 50 against the dense formulas:
/// `dX = dY W_eff`, `db = Σ_s dY`, `dU = dYᵀ (X Vᵀ)`, `dV = (dY U)ᵀ X`, and
/// the payload gradient `dYᵀ X` sampled at the stored blocks.
#[test]
fn paper_default_backward_matches_dense_formulas() {
    let (n, batch) = (1024usize, 50usize);
    let config = PixelflyConfig::paper_default();
    let (b, rank) = (config.block_size, config.rank);
    let mut rng = seeded_rng(2024);
    let mut layer = PixelflyLayer::new(n, n, config, &mut rng).expect("valid config");
    let x = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    // ReLU-like upstream gradient: about half the entries are exactly zero.
    let mut g = Matrix::random_uniform(batch, n, 1.0, &mut rng);
    g.map_in_place(|v| v.max(0.0));
    for p in layer.params() {
        p.zero_grad();
    }
    layer.forward(&x, true);
    let gx = layer.backward(&g);

    let w_eff = layer.effective_weight();
    let params = layer.params();
    let [blocks, u, v, bias] = &params[..] else { panic!("blocks, U, V and bias expected") };
    let u_m = Matrix::from_vec(n, rank, u.value.clone());
    let v_m = Matrix::from_vec(rank, n, v.value.clone());
    let close = |got: &[f32], expect: &Matrix, what: &str| {
        let got = Matrix::from_vec(expect.rows(), expect.cols(), got.to_vec());
        let err = got.relative_error(expect);
        assert!(err < 1e-4, "{what}: relative error {err}");
    };

    close(gx.as_slice(), &matmul(&g, &w_eff), "dX");
    let db: Vec<f32> = (0..n).map(|j| (0..batch).map(|s| g[(s, j)]).sum()).collect();
    close(&bias.grad, &Matrix::from_vec(1, n, db), "bias");
    let vx = matmul_a_bt(&x, &v_m);
    close(&u.grad, &matmul_at_b(&g, &vx), "dU");
    close(&v.grad, &matmul_at_b(&matmul(&g, &u_m), &x), "dV");
    // Payload gradient: the dense dW = dYᵀ X at each stored block, in the
    // layer's CSR order (sorted block coordinates, row-major per block).
    let dw = matmul_at_b(&g, &x);
    let mut expect = Vec::with_capacity(blocks.grad.len());
    for (bi, bj) in flat_butterfly_mask(n / b, config.butterfly_size) {
        let (bi, bj) = (bi as usize, bj as usize);
        for r in 0..b {
            expect.extend_from_slice(&dw.row(bi * b + r)[bj * b..(bj + 1) * b]);
        }
    }
    close(&blocks.grad, &Matrix::from_vec(1, expect.len(), expect), "payload");
}
