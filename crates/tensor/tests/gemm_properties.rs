//! Properties of the tuned dense GEMMs (`matmul`, `matmul_at_b`,
//! `matmul_a_bt` and their slice variants) over random shapes: ragged `k`
//! (not a multiple of the 16 dot lanes), ragged `n` (not a multiple of the
//! 4-row `A·Bᵀ` block or the 128-column axpy tile), odd batch sizes and
//! empty dimensions.

use bfly_tensor::matmul::{
    matmul, matmul_a_bt, matmul_a_bt_slice, matmul_at_b, matmul_naive, matmul_slice,
};
use bfly_tensor::{seeded_rng, Matrix};
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use rand::Rng;

/// Uniform `[-1, 1]` entries with about `zero_pct`% exact zeros, so the
/// zero-skipping accumulation is exercised.
fn random(rows: usize, cols: usize, zero_pct: u32, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    let data = (0..rows * cols)
        .map(|_| {
            let v = rng.gen_range(-1.0f32..=1.0);
            if rng.gen_range(0u32..100) < zero_pct {
                0.0
            } else {
                v
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The row-by-row axpy accumulation `matmul` has always computed: each
/// output sums `A[i][kk] * B[kk][j]` over ascending `kk`, skipping zero
/// entries of `A`.
fn axpy_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for kk in 0..k {
            let a_ik = a[(i, kk)];
            if a_ik == 0.0 {
                continue;
            }
            for (c_ij, &b_kj) in c.row_mut(i).iter_mut().zip(b.row(kk)) {
                *c_ij += a_ik * b_kj;
            }
        }
    }
    c
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_match_naive(
        m in 0usize..11,
        k in 0usize..90,
        n in 0usize..300,
        zero_pct in 0u32..60,
        seed in 0u64..1_000_000,
    ) {
        let a = random(m, k, zero_pct, seed);
        let b = random(k, n, zero_pct, seed ^ 1);
        let reference = matmul_naive(&a, &b);
        prop_assert!(matmul(&a, &b).relative_error(&reference) < 1e-5);
        prop_assert!(matmul_at_b(&a.transpose(), &b).relative_error(&reference) < 1e-5);
        prop_assert!(matmul_a_bt(&a, &b.transpose()).relative_error(&reference) < 1e-5);
    }

    #[test]
    fn a_bt_rows_are_batch_invariant(
        m in 1usize..11,
        k in 0usize..90,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = random(m, k, 0, seed);
        let b = random(n, k, 0, seed ^ 2);
        let batched = matmul_a_bt(&a, &b);
        for i in 0..m {
            let alone = matmul_a_bt(&Matrix::from_vec(1, k, a.row(i).to_vec()), &b);
            let row_bits: Vec<u32> = batched.row(i).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(row_bits, bits(&alone), "row {} of {}", i, m);
        }
    }

    #[test]
    fn axpy_kernels_are_bit_equal_to_the_axpy_loop(
        m in 0usize..11,
        k in 0usize..90,
        n in 0usize..300,
        zero_pct in 0u32..60,
        seed in 0u64..1_000_000,
    ) {
        let a = random(m, k, zero_pct, seed);
        let b = random(k, n, 0, seed ^ 3);
        let expected = bits(&axpy_reference(&a, &b));
        prop_assert_eq!(bits(&matmul(&a, &b)), expected.clone());
        prop_assert_eq!(bits(&matmul_slice(&a, b.as_slice(), n)), expected.clone());
        prop_assert_eq!(bits(&matmul_at_b(&a.transpose(), &b)), expected);
    }

    #[test]
    fn slice_variants_are_bit_equal_to_matrix_variants(
        m in 0usize..11,
        k in 0usize..90,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let a = random(m, k, 20, seed);
        let b = random(n, k, 0, seed ^ 4);
        prop_assert_eq!(bits(&matmul_a_bt_slice(&a, b.as_slice(), n)), bits(&matmul_a_bt(&a, &b)));
    }
}

#[test]
fn empty_dimensions_give_zero_filled_shapes() {
    for (m, k, n) in [(0, 5, 3), (4, 0, 3), (4, 5, 0), (0, 0, 0)] {
        let a = random(m, k, 0, 7);
        let b = random(k, n, 0, 8);
        for c in [matmul(&a, &b), matmul_at_b(&a.transpose(), &b), matmul_a_bt(&a, &b.transpose())]
        {
            assert_eq!(c.shape(), (m, n));
            assert!(c.as_slice().iter().all(|&v| v == 0.0));
        }
    }
}

#[test]
fn shl_shapes_match_naive() {
    // The SHL hidden and classifier layers at batch 50.
    let x = random(50, 1024, 0, 9);
    for out in [1024, 10] {
        let w = random(out, 1024, 0, 10 + out as u64);
        let y = matmul_a_bt(&x, &w);
        assert!(y.relative_error(&matmul_naive(&x, &w.transpose())) < 1e-5);
        let dy = random(50, out, 50, 11);
        assert_eq!(bits(&matmul(&dy, &w)), bits(&axpy_reference(&dy, &w)));
        assert_eq!(bits(&matmul_at_b(&dy, &x)), bits(&axpy_reference(&dy.transpose(), &x)));
    }
}
