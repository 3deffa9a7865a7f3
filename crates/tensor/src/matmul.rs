//! Dense matrix-multiplication kernels.
//!
//! Three tiers mirror the implementation tiers the paper benchmarks on both
//! devices (Table 2): a `naive` triple loop, a cache-`blocked` loop, and the
//! tuned kernel [`matmul`], the default used throughout the workspace. The
//! tuned family — [`matmul`], [`matmul_at_b`], [`matmul_a_bt`] and their
//! slice-borrowing variants — runs on the calling thread. Each kernel is
//! cache-tiled, and its generic body is dispatched at run time to an
//! AVX-512F or AVX2 instantiation ([`crate::dispatch_wide`]) that is
//! bit-identical to it. `A: m x k`, `B: k x n` unless a name says otherwise.
//!
//! Summation order, which fixes every result bit:
//!
//! - `A·B` and `Aᵀ·B` accumulate each output as an axpy over ascending `k`,
//!   skipping zero entries of `A`: the textbook `i-k-j` order. The `j` and
//!   `k` tiles change only which outputs are in flight.
//! - `A·Bᵀ` gives each output 16 lane-wise partial sums over `k`, folds them
//!   in a fixed order and adds the `k`-tail in sequence. An output depends
//!   only on its own row of `A` and row of `B`, so each row of a batched
//!   product is bit-equal to the same row computed alone.

use crate::matrix::Matrix;

/// Kernel selector, mirroring the paper's implementation tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulKind {
    /// Textbook `i-j-k` triple loop ("GPU naive" / "IPU naive" tier).
    Naive,
    /// Cache-blocked `i-k-j` loop ("GPU shmem" / "IPU blocked" tier).
    Blocked,
    /// The tuned [`matmul`] kernel ("cublas" / "poplin" tier). Despite the
    /// name it runs on one thread; see the module doc.
    Parallel,
}

/// `C = A * B` with the selected kernel.
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul_with(kind: MatmulKind, a: &Matrix, b: &Matrix) -> Matrix {
    match kind {
        MatmulKind::Naive => matmul_naive(a, b),
        MatmulKind::Blocked => matmul_blocked(a, b),
        MatmulKind::Parallel => matmul(a, b),
    }
}

/// Default multiply `C = A * B`: the tuned tier (see the module doc for its
/// tiling and summation order).
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "matmul inner dimension mismatch: {:?} x {:?}",
        a.shape(),
        b.shape()
    );
    matmul_slice(a, b.as_slice(), b.cols())
}

/// `C = A * B` with `B` given as a row-major slice of `A.cols()` rows of
/// width `b_cols`.
///
/// The borrow-the-weights variant of [`matmul`], bit-identical to it: layers
/// that keep their weights in a flat `Param` value multiply against them
/// directly instead of cloning into a `Matrix` first.
///
/// # Panics
/// Panics if `b.len() != A.cols() * b_cols`.
pub fn matmul_slice(a: &Matrix, b: &[f32], b_cols: usize) -> Matrix {
    let (m, k) = a.shape();
    assert_eq!(b.len(), k * b_cols, "matmul_slice dimension mismatch");
    let mut c = Matrix::zeros(m, b_cols);
    if m > 0 && k > 0 && b_cols > 0 {
        axpy_gemm(a.as_slice(), k, 1, b, b_cols, c.as_mut_slice());
    }
    c
}

/// Textbook triple loop, kept for benchmarking and cross-checking.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[(i, kk)] * b[(kk, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Single-threaded cache-blocked kernel (`i-k-j` order, 64-wide tiles).
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimension mismatch");
    const T: usize = 64;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    let b_data = b.as_slice();
    for ib in (0..m).step_by(T) {
        for kb in (0..k).step_by(T) {
            for jb in (0..n).step_by(T) {
                let i_end = (ib + T).min(m);
                let k_end = (kb + T).min(k);
                let j_end = (jb + T).min(n);
                for i in ib..i_end {
                    let a_row = a.row(i);
                    let c_row = c.row_mut(i);
                    for kk in kb..k_end {
                        let a_ik = a_row[kk];
                        if a_ik == 0.0 {
                            continue;
                        }
                        let b_row = &b_data[kk * n..kk * n + n];
                        for j in jb..j_end {
                            c_row[j] += a_ik * b_row[j];
                        }
                    }
                }
            }
        }
    }
    c
}

/// Matrix-vector product `y = A x`.
///
/// # Panics
/// Panics if `x.len() != A.cols()`.
pub fn matvec(a: &Matrix, x: &[f32]) -> Vec<f32> {
    assert_eq!(a.cols(), x.len(), "matvec dimension mismatch");
    a.rows_iter().map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum()).collect()
}

/// `C = A^T * B` without materialising the transpose; same kernel and
/// summation order as [`matmul`] applied to an explicit `A^T`.
///
/// # Panics
/// Panics if `A` and `B` have different row counts.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_at_b dimension mismatch");
    let (k, m) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    if m > 0 && k > 0 && n > 0 {
        axpy_gemm(a.as_slice(), 1, m, b.as_slice(), n, c.as_mut_slice());
    }
    c
}

/// `C = A * B^T` without materialising the transpose.
///
/// # Panics
/// Panics if `A` and `B` have different column counts.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_a_bt dimension mismatch");
    matmul_a_bt_slice(a, b.as_slice(), b.rows())
}

/// `C = A * B^T` with `B` given as a row-major slice of `b_rows` rows of
/// width `A.cols()`.
///
/// This is the borrow-the-weights variant used by the lock-free inference
/// path: layers that keep their weights in a flat `Param` value can multiply
/// against them directly instead of cloning into a `Matrix` first. It runs
/// the same kernel as [`matmul_a_bt`], so results are bit-identical.
///
/// # Panics
/// Panics if `b.len() != b_rows * A.cols()`.
pub fn matmul_a_bt_slice(a: &Matrix, b: &[f32], b_rows: usize) -> Matrix {
    let k = a.cols();
    assert_eq!(b.len(), b_rows * k, "matmul_a_bt_slice dimension mismatch");
    let mut c = Matrix::zeros(a.rows(), b_rows);
    if a.rows() > 0 && k > 0 && b_rows > 0 {
        dot_gemm(a.as_slice(), b, k, c.as_mut_slice());
    }
    c
}

/// Output columns per axpy register tile: eight AVX-512 registers per row
/// of `C`, two rows at a time.
const AXPY_COLS: usize = 128;
/// Rows of `B` per k-tile of the axpy kernel. The packed `AXPY_DEPTH x
/// AXPY_COLS` block of `B` (16 KiB) stays in L1 while every row of `A`
/// sweeps it.
const AXPY_DEPTH: usize = 32;
/// Lane-wise partial sums per `A·Bᵀ` dot product: one AVX-512 register.
const DOT_LANES: usize = 16;
/// Rows of `B` per `A·Bᵀ` block (16 KiB at k = 1024). The block stays in L1
/// while every row of `A` sweeps it.
const DOT_ROWS: usize = 4;

/// `C += A * B` for a strided `A` (`A[i][kk] = a[i * a_rs + kk * a_cs]`),
/// row-major `B` of width `n` and zeroed row-major `C`. All extents must be
/// non-zero.
fn axpy_gemm(a: &[f32], a_rs: usize, a_cs: usize, b: &[f32], n: usize, c: &mut [f32]) {
    crate::dispatch_wide!(axpy_avx512, axpy_avx2, axpy_gemm_impl, a, a_rs, a_cs, b, n, c)
}

/// Generic body of [`axpy_gemm`]. Each output accumulates `A[i][kk] *
/// B[kk][j]` over ascending `kk`, skipping zero `A` entries; the tiles only
/// decide which outputs are in flight. Per k-tile, the non-zero entries of
/// every row of `A` are listed once, without branching on data. Per `(k, j)`
/// tile, the block of `B` is packed contiguously (rows of `B` a large
/// power-of-two stride apart alias in L1) and every row of `A` sweeps it.
#[inline(always)]
fn axpy_gemm_impl(a: &[f32], a_rs: usize, a_cs: usize, b: &[f32], n: usize, c: &mut [f32]) {
    let k = b.len() / n;
    let m = c.len() / n;
    let mut tile = vec![0.0f32; AXPY_DEPTH * AXPY_COLS];
    // `(row of the tile, A value)` per non-zero entry, row after row of A;
    // row `i`'s entries are `terms[starts[i]..starts[i + 1]]`.
    let mut terms = vec![(0usize, 0.0f32); m * AXPY_DEPTH.min(k)];
    let mut starts = vec![0usize; m + 1];
    for kb in (0..k).step_by(AXPY_DEPTH) {
        let depth = AXPY_DEPTH.min(k - kb);
        let mut len = 0;
        for (i, end) in starts[1..].iter_mut().enumerate() {
            for r in 0..depth {
                let x = a[i * a_rs + (kb + r) * a_cs];
                terms[len] = (r, x);
                len += usize::from(x != 0.0);
            }
            *end = len;
        }
        let row_terms = |i: usize| &terms[starts[i]..starts[i + 1]];
        for jb in (0..n).step_by(AXPY_COLS) {
            let width = AXPY_COLS.min(n - jb);
            let tile = &mut tile[..depth * width];
            for (dst, kk) in tile.chunks_exact_mut(width).zip(kb..) {
                dst.copy_from_slice(&b[kk * n + jb..kk * n + jb + width]);
            }
            if width < AXPY_COLS {
                for (i, c_row) in c.chunks_exact_mut(n).enumerate() {
                    let c_seg = &mut c_row[jb..jb + width];
                    for &(r, x) in row_terms(i) {
                        for (c_j, b_j) in c_seg.iter_mut().zip(&tile[r * width..(r + 1) * width]) {
                            *c_j += x * b_j;
                        }
                    }
                }
                continue;
            }
            let mut pairs = c.chunks_exact_mut(2 * n);
            for (p, c_pair) in (&mut pairs).enumerate() {
                let (c0, c1) = c_pair.split_at_mut(n);
                axpy_tile_pair(
                    tile,
                    [row_terms(2 * p), row_terms(2 * p + 1)],
                    [col_tile(c0, jb), col_tile(c1, jb)],
                );
            }
            let rest = pairs.into_remainder();
            if !rest.is_empty() {
                let acc = col_tile(rest, jb);
                let mut sums = *acc;
                axpy_tile(tile, row_terms(m - 1), &mut sums);
                *acc = sums;
            }
        }
    }
}

/// The `AXPY_COLS` outputs of row segment `c_row[jb..]`.
#[inline(always)]
fn col_tile(c_row: &mut [f32], jb: usize) -> &mut [f32; AXPY_COLS] {
    (&mut c_row[jb..jb + AXPY_COLS]).try_into().expect("range is AXPY_COLS long")
}

/// `acc += x * tile[r]` for each `(r, x)` of `terms`, in order.
#[inline(always)]
fn axpy_tile(tile: &[f32], terms: &[(usize, f32)], acc: &mut [f32; AXPY_COLS]) {
    for &(r, x) in terms {
        let b_row: &[f32; AXPY_COLS] = tile[r * AXPY_COLS..(r + 1) * AXPY_COLS]
            .try_into()
            .expect("tile rows are AXPY_COLS long");
        for (acc_j, b_j) in acc.iter_mut().zip(b_row) {
            *acc_j += x * b_j;
        }
    }
}

/// [`axpy_tile`] for two rows of `C` at once: stepping both term lists in
/// lockstep doubles the independent add chains in flight; each row's own
/// order is unchanged.
#[inline(always)]
fn axpy_tile_pair(tile: &[f32], terms: [&[(usize, f32)]; 2], out: [&mut [f32; AXPY_COLS]; 2]) {
    let [t0, t1] = terms;
    let [out0, out1] = out;
    let (mut acc0, mut acc1) = (*out0, *out1);
    let common = t0.len().min(t1.len());
    for (&(r0, x0), &(r1, x1)) in t0[..common].iter().zip(&t1[..common]) {
        let b0: &[f32; AXPY_COLS] = tile[r0 * AXPY_COLS..(r0 + 1) * AXPY_COLS]
            .try_into()
            .expect("tile rows are AXPY_COLS long");
        let b1: &[f32; AXPY_COLS] = tile[r1 * AXPY_COLS..(r1 + 1) * AXPY_COLS]
            .try_into()
            .expect("tile rows are AXPY_COLS long");
        for ((s0, s1), (v0, v1)) in acc0.iter_mut().zip(acc1.iter_mut()).zip(b0.iter().zip(b1)) {
            *s0 += x0 * v0;
            *s1 += x1 * v1;
        }
    }
    axpy_tile(tile, &t0[common..], &mut acc0);
    axpy_tile(tile, &t1[common..], &mut acc1);
    *out0 = acc0;
    *out1 = acc1;
}

/// `C = A * B^T` for row-major `A` and `B` of width `k` and zeroed
/// row-major `C`. All extents must be non-zero.
fn dot_gemm(a: &[f32], b: &[f32], k: usize, c: &mut [f32]) {
    crate::dispatch_wide!(dot_avx512, dot_avx2, dot_gemm_impl, a, b, k, c)
}

/// Generic body of [`dot_gemm`]: the rows of `A`, two at a time, sweep one
/// `DOT_ROWS`-row block of `B` before the next block is touched. A ragged
/// edge repeats its last row of `A` or `B` to fill the register tile and
/// discards the repeats' results, so every product runs the same code.
#[inline(always)]
fn dot_gemm_impl(a: &[f32], b: &[f32], k: usize, c: &mut [f32]) {
    let m = a.len() / k;
    let n = b.len() / k;
    let row = |i: usize| &a[i * k..(i + 1) * k];
    for (t, block) in b.chunks(DOT_ROWS * k).enumerate() {
        let jb = t * DOT_ROWS;
        let rows = block.len() / k;
        let mut w = [&block[(rows - 1) * k..]; DOT_ROWS];
        for (w_r, w_row) in w.iter_mut().zip(block.chunks_exact(k)) {
            *w_r = w_row;
        }
        for i in (0..m).step_by(2) {
            let pair = [i, (i + 1).min(m - 1)];
            let sums = dot_block(pair.map(row), w);
            for (s, ii) in sums.iter().zip(pair) {
                c[ii * n + jb..ii * n + jb + rows].copy_from_slice(&s[..rows]);
            }
        }
    }
}

/// Dot products of each of two rows `x` with each of the `DOT_ROWS` rows
/// `w`. Every product takes the same path: lane `l` of 16 partial sums
/// accumulates `x[kk] * w[kk]` for `kk ≡ l (mod 16)` over the whole
/// 16-chunks in ascending order, then [`fold_lanes`] finishes it.
#[inline(always)]
fn dot_block(x: [&[f32]; 2], w: [&[f32]; DOT_ROWS]) -> [[f32; DOT_ROWS]; 2] {
    let [x0, x1] = x;
    let whole = x0.len() - x0.len() % DOT_LANES;
    let mut acc0 = [[0.0f32; DOT_LANES]; DOT_ROWS];
    let mut acc1 = [[0.0f32; DOT_LANES]; DOT_ROWS];
    let chunks = x0[..whole].chunks_exact(DOT_LANES).zip(x1[..whole].chunks_exact(DOT_LANES));
    for (t, (xs0, xs1)) in chunks.enumerate() {
        let off = t * DOT_LANES;
        for ((a0, a1), w_r) in acc0.iter_mut().zip(acc1.iter_mut()).zip(&w) {
            let ws: &[f32; DOT_LANES] =
                w_r[off..off + DOT_LANES].try_into().expect("range is DOT_LANES long");
            for (((s0, s1), (v0, v1)), wv) in
                a0.iter_mut().zip(a1.iter_mut()).zip(xs0.iter().zip(xs1)).zip(ws)
            {
                *s0 += v0 * wv;
                *s1 += v1 * wv;
            }
        }
    }
    let mut sums = [[0.0f32; DOT_ROWS]; 2];
    for ((sums_i, acc), x_i) in sums.iter_mut().zip([acc0, acc1]).zip(x) {
        for ((sum, lanes), w_r) in sums_i.iter_mut().zip(acc).zip(w) {
            *sum = fold_lanes(lanes, x_i, w_r);
        }
    }
    sums
}

/// Finishes one dot product of [`dot_block`]: folds its 16 lanes in a fixed
/// halving tree, then adds the k-tail past the whole 16-chunks in sequence.
#[inline(always)]
fn fold_lanes(mut lanes: [f32; DOT_LANES], x: &[f32], w: &[f32]) -> f32 {
    let mut half = DOT_LANES / 2;
    while half > 0 {
        for l in 0..half {
            lanes[l] += lanes[l + half];
        }
        half /= 2;
    }
    let whole = x.len() - x.len() % DOT_LANES;
    let mut sum = lanes[0];
    for (xv, wv) in x[whole..].iter().zip(&w[whole..]) {
        sum += xv * wv;
    }
    sum
}

/// AVX-512F / AVX2 instantiations of the GEMM bodies (see
/// [`crate::dispatch_wide`]).
#[cfg(target_arch = "x86_64")]
mod wide {
    crate::wide_pair!(
        axpy_avx512,
        axpy_avx2,
        axpy_gemm_impl,
        (a: &[f32], a_rs: usize, a_cs: usize, b: &[f32], n: usize, c: &mut [f32])
    );
    crate::wide_pair!(dot_avx512, dot_avx2, dot_gemm_impl, (a: &[f32], b: &[f32], k: usize, c: &mut [f32]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        Matrix::random_uniform(m, n, 1.0, &mut rng)
    }

    #[test]
    fn all_kernels_agree() {
        let a = random(33, 47, 1);
        let b = random(47, 29, 2);
        let reference = matmul_naive(&a, &b);
        assert!(matmul_blocked(&a, &b).relative_error(&reference) < 1e-5);
        assert!(matmul(&a, &b).relative_error(&reference) < 1e-5);
        assert!(matmul_with(MatmulKind::Parallel, &a, &b).relative_error(&reference) < 1e-5);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random(16, 16, 3);
        let i = Matrix::identity(16);
        assert!(matmul(&a, &i).relative_error(&a) < 1e-6);
        assert!(matmul(&i, &a).relative_error(&a) < 1e-6);
    }

    #[test]
    fn skewed_shapes_work() {
        // Extreme aspect ratios like the Fig 4 sweep.
        let a = random(256, 4, 4);
        let b = random(4, 8, 5);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (256, 8));
        assert!(c.relative_error(&matmul_naive(&a, &b)) < 1e-5);
    }

    #[test]
    fn empty_dims_yield_zeros() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(matmul(&a, &b).shape(), (0, 3));
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), (4, 3));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = random(12, 9, 6);
        let x: Vec<f32> = (0..9).map(|i| i as f32 * 0.1).collect();
        let xm = Matrix::from_vec(9, 1, x.clone());
        let via_mm = matmul(&a, &xm);
        let via_mv = matvec(&a, &x);
        for (i, v) in via_mv.iter().enumerate() {
            assert!((v - via_mm[(i, 0)]).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = random(21, 13, 7);
        let b = random(21, 17, 8);
        let expected = matmul(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).relative_error(&expected) < 1e-5);

        let a2 = random(11, 19, 9);
        let b2 = random(23, 19, 10);
        let expected2 = matmul(&a2, &b2.transpose());
        assert!(matmul_a_bt(&a2, &b2).relative_error(&expected2) < 1e-5);
    }

    #[test]
    fn slice_variant_is_bit_identical_to_matrix_variant() {
        let a = random(13, 21, 13);
        let b = random(9, 21, 14);
        let via_matrix = matmul_a_bt(&a, &b);
        let via_slice = matmul_a_bt_slice(&a, b.as_slice(), b.rows());
        assert_eq!(via_matrix.as_slice(), via_slice.as_slice());
    }

    /// Every instantiation of both GEMM bodies the host can run, each on
    /// its own zeroed output.
    fn per_isa(run: impl Fn(usize, &mut [f32]), len: usize) -> Vec<Vec<u32>> {
        let isas: &[usize] = if cfg!(target_arch = "x86_64") { &[0, 1, 2] } else { &[0] };
        let mut outs = Vec::new();
        for &isa in isas {
            #[cfg(target_arch = "x86_64")]
            {
                let supported = match isa {
                    1 => std::arch::is_x86_feature_detected!("avx2"),
                    2 => std::arch::is_x86_feature_detected!("avx512f"),
                    _ => true,
                };
                if !supported {
                    continue;
                }
            }
            let mut c = vec![0.0f32; len];
            run(isa, &mut c);
            outs.push(c.iter().map(|v| v.to_bits()).collect());
        }
        outs
    }

    fn axpy_on(
        isa: usize,
        a: &[f32],
        a_rs: usize,
        a_cs: usize,
        b: &[f32],
        n: usize,
        c: &mut [f32],
    ) {
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `per_isa` only passes ISAs the host supports.
            1 => unsafe { wide::axpy_avx2(a, a_rs, a_cs, b, n, c) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            2 => unsafe { wide::axpy_avx512(a, a_rs, a_cs, b, n, c) },
            _ => axpy_gemm_impl(a, a_rs, a_cs, b, n, c),
        }
    }

    fn dot_on(isa: usize, a: &[f32], b: &[f32], k: usize, c: &mut [f32]) {
        match isa {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `per_isa` only passes ISAs the host supports.
            1 => unsafe { wide::dot_avx2(a, b, k, c) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            2 => unsafe { wide::dot_avx512(a, b, k, c) },
            _ => dot_gemm_impl(a, b, k, c),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn isa_instantiations_are_bit_equal(
            m in 1usize..11,
            k in 1usize..90,
            n in 1usize..300,
            seed in 0u64..1_000_000,
        ) {
            let mut a = random(m, k, seed);
            for v in a.as_mut_slice().iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = random(k, n, seed ^ 1);
            let at = a.transpose();
            let bt = b.transpose();
            let runs = [
                per_isa(|isa, c| axpy_on(isa, a.as_slice(), k, 1, b.as_slice(), n, c), m * n),
                per_isa(|isa, c| axpy_on(isa, at.as_slice(), 1, m, b.as_slice(), n, c), m * n),
                per_isa(|isa, c| dot_on(isa, a.as_slice(), bt.as_slice(), k, c), m * n),
            ];
            for outs in runs {
                for other in &outs[1..] {
                    proptest::prop_assert_eq!(&outs[0], other);
                }
            }
        }
    }

    #[test]
    fn matmul_at_b_large_path_matches() {
        // A wide output (m * n > 2^16), which once took a transpose path.
        let a = random(8, 300, 11);
        let b = random(8, 300, 12);
        let expected = matmul(&a.transpose(), &b);
        assert!(matmul_at_b(&a, &b).relative_error(&expected) < 1e-5);
    }
}
