//! Fused SIMD block-sparse kernels — the pixelfly serving hot path.
//!
//! Pixelfly's forward is `y = W x + U (V x) + bias` with `W` block-sparse
//! (paper §2.3.2). The naive path walks the flat sorted `(block-row,
//! block-col)` coordinate list once per *term*: a scalar matmul per block, a
//! dense matmul pair for the low-rank correction (each allocating a full
//! matrix), and a final bias sweep — three full passes over the activations
//! plus allocator churn, exactly the shape the butterfly stages had before
//! they were fused.
//!
//! The kernels here give the block-sparse term the same treatment:
//!
//! - **CSR-of-blocks** ([`BlockCsr`]): per-block-row prefix offsets replace
//!   the coordinate list on the hot path. Because the coordinate list is
//!   sorted lexicographically, the payloads are *already* in CSR order — the
//!   view is built once with no payload movement.
//! - **One pass over row blocks** (written against the `rayon` API; the
//!   vendored `rayon` shim runs it sequentially): each batch row computes
//!   its sparse product, low-rank correction and bias while it stays
//!   cache-resident;
//!   the only allocation is the returned output matrix (working buffers come
//!   from a caller-owned [`Scratch`]).
//! - **Lane-parallel microkernels** for `b ∈ {4, 8, 16, 32}` with a generic
//!   fallback, behind runtime AVX2/AVX-512 dispatch. The specialized kernels
//!   vectorize *across the block's output rows*: payloads are repacked
//!   column-major once per call, and each lane `r` accumulates
//!   `acc[r] += w[r][c] * x[c]` in ascending-`c` order — the exact FLOP
//!   sequence of the scalar dot, so results are **bit-identical** to
//!   [`BlockSparseMatrix::matmul_batch`](crate::BlockSparseMatrix::matmul_batch)
//!   whichever branch runs.
//!
//! The low-rank term uses a fixed eight-lane dot ([`DOT_LANES`]) with an
//! explicit reduction tree; its operation order is part of the kernel's
//! contract (identical on every ISA), which is what keeps the layer's
//! training forward, eval forward and `forward_inference` bit-identical to
//! each other.

use bfly_tensor::{Matrix, Scratch};
use rayon::prelude::*;

/// Rows per unit of parallel work (same granularity as the butterfly
/// kernels).
const ROW_BLOCK: usize = 32;

/// Lanes of the fixed-shape low-rank dot product. Eight f32 lanes fill one
/// AVX2 register (two SSE, half an AVX-512); the explicit lane accumulators
/// plus a fixed reduction tree make the result independent of the ISA the
/// dispatch picks.
const DOT_LANES: usize = 8;

/// Minimum batch for the column-major payload repack. The repack touches the
/// whole payload once per call, so tiny batches can't amortize it — below
/// this the specialized sizes run the generic row-major kernel instead.
/// Both kernels are bit-identical to the naive reference, so the switch
/// cannot change results.
const REPACK_MIN_BATCH: usize = 8;

/// CSR-of-blocks view of a block-sparse pattern: per-block-row prefix
/// offsets into the (payload, block-column) arrays.
///
/// Built from a lexicographically sorted coordinate list, whose order equals
/// CSR order — so `row_ptr[bi]..row_ptr[bi + 1]` indexes both the block
/// columns *and* the payload slots of block row `bi` without any payload
/// reshuffle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCsr {
    block: usize,
    rows: usize,
    cols: usize,
    /// `block_rows + 1` prefix offsets into `cols`.
    row_ptr: Vec<u32>,
    /// Block-row per stored block (CSR order) — the payload-parallel
    /// backward needs the inverse of `row_ptr` per entry.
    block_row: Vec<u32>,
    /// Block-column per stored block (CSR order).
    block_col: Vec<u32>,
}

impl BlockCsr {
    /// Builds the CSR view from a **sorted, unique, in-range** coordinate
    /// list (the invariant [`BlockSparseMatrix`](crate::BlockSparseMatrix)
    /// maintains).
    ///
    /// # Panics
    /// Panics if dimensions are not multiples of `block` or the coordinate
    /// list violates the sortedness/range invariant.
    pub fn from_coords(rows: usize, cols: usize, block: usize, coords: &[(u32, u32)]) -> Self {
        assert!(block >= 1, "block size must be >= 1");
        assert_eq!(rows % block, 0, "rows {rows} not a multiple of block {block}");
        assert_eq!(cols % block, 0, "cols {cols} not a multiple of block {block}");
        let (br, bc) = (rows / block, cols / block);
        let mut row_ptr = vec![0u32; br + 1];
        let mut block_row = Vec::with_capacity(coords.len());
        let mut block_col = Vec::with_capacity(coords.len());
        for w in coords.windows(2) {
            assert!(w[0] < w[1], "block coordinates must be sorted and unique");
        }
        for &(bi, bj) in coords {
            assert!((bi as usize) < br && (bj as usize) < bc, "block ({bi},{bj}) out of range");
            row_ptr[bi as usize + 1] += 1;
            block_row.push(bi);
            block_col.push(bj);
        }
        for i in 0..br {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self { block, rows, cols, row_ptr, block_row, block_col }
    }

    /// Block side length.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Logical output width (`rows` of the `out x in` weight).
    pub fn out_dim(&self) -> usize {
        self.rows
    }

    /// Logical input width.
    pub fn in_dim(&self) -> usize {
        self.cols
    }

    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.block_col.len()
    }

    /// The per-block-row prefix offsets (`block_rows + 1` entries).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Block column of each stored block, CSR order.
    pub fn block_cols(&self) -> &[u32] {
        &self.block_col
    }

    /// Whether this block size has a lane-specialized microkernel (and the
    /// forward therefore runs on the column-major payload repack).
    pub fn specialized(&self) -> bool {
        matches!(self.block, 4 | 8 | 16 | 32)
    }
}

/// Borrowed low-rank correction factors: `u` is `out_dim x rank` and `v` is
/// `rank x in_dim`, both row-major — straight from flat parameter storage,
/// so the `&self` inference path never clones weights.
#[derive(Debug, Clone, Copy)]
pub struct LowRankRef<'a> {
    /// `out_dim x rank` row-major factor.
    pub u: &'a [f32],
    /// `rank x in_dim` row-major factor.
    pub v: &'a [f32],
    /// Rank of the correction (`> 0`; pass `None` instead of rank 0).
    pub rank: usize,
}

/// Gradient accumulators for [`fused_block_backward`]; every slice is
/// *accumulated into* (callers pass zeroed buffers for plain gradients).
#[derive(Debug)]
pub struct BlockGrads<'a> {
    /// dL/d payload, row-major per block in CSR order.
    pub payload: &'a mut [f32],
    /// dL/dU (`out_dim x rank`); empty when there is no low-rank term.
    pub u: &'a mut [f32],
    /// dL/dV (`rank x in_dim`); empty when there is no low-rank term.
    pub v: &'a mut [f32],
}

/// Transposes each `block x block` payload to column-major
/// (`dst[c * block + r] = src[r * block + c]`), the layout the
/// lane-specialized microkernels read. Runs once per batched call and is
/// amortised over every row.
pub fn repack_blocks_colmajor(block: usize, data: &[f32], dst: &mut [f32]) {
    assert_eq!(data.len(), dst.len(), "colmajor repack length mismatch");
    let bb = block * block;
    for (src, d) in data.chunks_exact(bb).zip(dst.chunks_exact_mut(bb)) {
        for r in 0..block {
            for c in 0..block {
                d[c * block + r] = src[r * block + c];
            }
        }
    }
}

/// Wide-vector re-instantiations of the row-block workers for x86-64,
/// selected at run time by [`bfly_tensor::dispatch_wide!`] and bit-identical
/// to the generic bodies.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{BlockCsr, LowRankRef};

    bfly_tensor::wide_pair!(
        forward_avx512,
        forward_avx2,
        forward_rows_impl,
        (
            csr: &BlockCsr,
            w: &[f32],
            colmajor: bool,
            lowrank: Option<LowRankRef<'_>>,
            bias: Option<&[f32]>,
            iblock: &[f32],
            oblock: &mut [f32],
            vxblock: &mut [f32]
        )
    );
    bfly_tensor::wide_pair!(
        backward_avx512,
        backward_avx2,
        backward_rows_impl,
        (
            csr: &BlockCsr,
            w: &[f32],
            lowrank: Option<LowRankRef<'_>>,
            gblock: &[f32],
            dvxblock: &mut [f32],
            gxblock: &mut [f32]
        )
    );
}

/// Fused batched forward `Y = X W^T [+ (X V^T) U^T] [+ bias]` in one
/// parallel pass over row blocks.
///
/// `payload` is the row-major-per-block CSR-order payload array (exactly
/// [`BlockSparseMatrix::data`](crate::BlockSparseMatrix::data)). With no
/// low-rank term and no bias the result is bit-identical to
/// [`BlockSparseMatrix::matmul_batch`](crate::BlockSparseMatrix::matmul_batch).
/// The only allocation is the returned matrix; working buffers come from
/// `scratch`.
pub fn fused_block_forward(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
) -> Matrix {
    forward_inner(csr, payload, lowrank, bias, input, scratch, false).0
}

/// [`fused_block_forward`] that additionally returns the low-rank
/// intermediate `Vx` (`batch x rank`) the backward pass needs; `None` when
/// there is no low-rank term. Outputs are bit-identical to the inference
/// variant — same worker, same operation order.
pub fn fused_block_forward_train(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
) -> (Matrix, Option<Matrix>) {
    forward_inner(csr, payload, lowrank, bias, input, scratch, true)
}

fn forward_inner(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
    keep_vx: bool,
) -> (Matrix, Option<Matrix>) {
    let b = csr.block;
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    let batch = input.rows();
    assert_eq!(payload.len(), csr.nnz_blocks() * b * b, "payload length mismatch");
    assert_eq!(input.cols(), in_dim, "fused block forward input width mismatch");
    let rank = lowrank.map_or(0, |lr| lr.rank);
    if let Some(lr) = lowrank {
        assert!(lr.rank > 0, "pass None instead of a rank-0 low-rank term");
        assert_eq!(lr.u.len(), out_dim * lr.rank, "low-rank U shape mismatch");
        assert_eq!(lr.v.len(), lr.rank * in_dim, "low-rank V shape mismatch");
    }
    if let Some(bs) = bias {
        assert_eq!(bs.len(), out_dim, "bias length mismatch");
    }
    let mut out = Matrix::zeros(batch, out_dim);
    if batch == 0 {
        return (out, (keep_vx && rank > 0).then(|| Matrix::zeros(0, rank)));
    }
    // Column-major payload repack for the lane microkernels; generic block
    // sizes — and batches too small to amortize the repack — run the scalar
    // kernel on the row-major payload directly (bit-identical either way).
    let colmajor = csr.specialized() && batch >= REPACK_MIN_BATCH;
    let wt = if colmajor {
        let mut wt = scratch.take(payload.len());
        repack_blocks_colmajor(b, payload, &mut wt);
        wt
    } else {
        scratch.take(0)
    };
    let w: &[f32] = if colmajor { &wt } else { payload };
    // A handful of rows is one unit of work; skipping the thread-pool
    // hand-off there keeps single-row serving latency flat. Rows are
    // independent, so serial vs parallel cannot change any row's bits.
    let serial = batch < REPACK_MIN_BATCH;
    if rank == 0 {
        if serial {
            out.as_mut_slice()
                .chunks_mut(ROW_BLOCK * out_dim)
                .zip(input.as_slice().chunks(ROW_BLOCK * in_dim))
                .for_each(|(oblock, iblock)| {
                    forward_rows(csr, w, colmajor, None, bias, iblock, oblock, &mut []);
                });
        } else {
            out.as_mut_slice()
                .par_chunks_mut(ROW_BLOCK * out_dim)
                .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
                .for_each(|(oblock, iblock)| {
                    forward_rows(csr, w, colmajor, None, bias, iblock, oblock, &mut []);
                });
        }
        scratch.put(wt);
        return (out, None);
    }
    let mut vx = scratch.take(batch * rank);
    if serial {
        out.as_mut_slice()
            .chunks_mut(ROW_BLOCK * out_dim)
            .zip(input.as_slice().chunks(ROW_BLOCK * in_dim))
            .zip(vx.chunks_mut(ROW_BLOCK * rank))
            .for_each(|((oblock, iblock), vxblock)| {
                forward_rows(csr, w, colmajor, lowrank, bias, iblock, oblock, vxblock);
            });
    } else {
        out.as_mut_slice()
            .par_chunks_mut(ROW_BLOCK * out_dim)
            .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
            .zip(vx.par_chunks_mut(ROW_BLOCK * rank))
            .for_each(|((oblock, iblock), vxblock)| {
                forward_rows(csr, w, colmajor, lowrank, bias, iblock, oblock, vxblock);
            });
    }
    scratch.put(wt);
    if keep_vx {
        (out, Some(Matrix::from_vec(batch, rank, vx)))
    } else {
        scratch.put(vx);
        (out, None)
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn forward_rows(
    csr: &BlockCsr,
    w: &[f32],
    colmajor: bool,
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    iblock: &[f32],
    oblock: &mut [f32],
    vxblock: &mut [f32],
) {
    bfly_tensor::dispatch_wide!(
        forward_avx512,
        forward_avx2,
        forward_rows_impl,
        csr,
        w,
        colmajor,
        lowrank,
        bias,
        iblock,
        oblock,
        vxblock
    )
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn forward_rows_impl(
    csr: &BlockCsr,
    w: &[f32],
    colmajor: bool,
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    iblock: &[f32],
    oblock: &mut [f32],
    vxblock: &mut [f32],
) {
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    let rank = lowrank.map_or(0, |lr| lr.rank);
    for (r, (orow, irow)) in oblock.chunks_mut(out_dim).zip(iblock.chunks(in_dim)).enumerate() {
        sparse_row(csr, w, colmajor, irow, orow);
        if let Some(lr) = lowrank {
            let vxrow = &mut vxblock[r * rank..(r + 1) * rank];
            for (j, vx_j) in vxrow.iter_mut().enumerate() {
                *vx_j = dot_lanes(&lr.v[j * in_dim..(j + 1) * in_dim], irow);
            }
            for (i, o) in orow.iter_mut().enumerate() {
                *o += dot_lanes(&lr.u[i * rank..(i + 1) * rank], vxrow);
            }
        }
        if let Some(bs) = bias {
            for (o, bv) in orow.iter_mut().zip(bs) {
                *o += bv;
            }
        }
    }
}

/// One row's block-sparse product `y += W x`, dispatched to the block-size
/// specialization. `w` is column-major per block when `colmajor` is set
/// (the lane microkernels' layout), row-major otherwise (generic sizes and
/// repack-skipping small batches).
#[inline(always)]
fn sparse_row(csr: &BlockCsr, w: &[f32], colmajor: bool, x: &[f32], y: &mut [f32]) {
    if !colmajor {
        return sparse_row_generic(csr, w, x, y);
    }
    match csr.block {
        4 => sparse_row_lanes::<4>(csr, w, x, y),
        8 => sparse_row_lanes::<8>(csr, w, x, y),
        16 => sparse_row_lanes::<16>(csr, w, x, y),
        32 => sparse_row_lanes::<32>(csr, w, x, y),
        _ => sparse_row_generic(csr, w, x, y),
    }
}

/// Lane-parallel microkernel: one accumulator lane per output row of the
/// block, walking the column-major payload in ascending input order. Lane
/// `r` performs `w[r][0]*x[0] + w[r][1]*x[1] + ...` — the scalar dot's exact
/// operation order — and each block's accumulator is added to `y` before the
/// next block's, matching the naive per-block loop bit for bit.
#[inline(always)]
fn sparse_row_lanes<const B: usize>(csr: &BlockCsr, wt: &[f32], x: &[f32], y: &mut [f32]) {
    for (bi, ys) in y.chunks_exact_mut(B).enumerate() {
        let (lo, hi) = (csr.row_ptr[bi] as usize, csr.row_ptr[bi + 1] as usize);
        for idx in lo..hi {
            let bj = csr.block_col[idx] as usize;
            let xs = &x[bj * B..(bj + 1) * B];
            let blk = &wt[idx * B * B..(idx + 1) * B * B];
            let mut acc = [0.0f32; B];
            for (col, xv) in blk.chunks_exact(B).zip(xs) {
                for (a, wv) in acc.iter_mut().zip(col) {
                    *a += wv * xv;
                }
            }
            for (o, a) in ys.iter_mut().zip(acc) {
                *o += a;
            }
        }
    }
}

/// Generic fallback for unspecialized block sizes: the naive scalar order on
/// the row-major payload (trivially bit-identical to `matmul_batch`).
#[inline(always)]
fn sparse_row_generic(csr: &BlockCsr, w: &[f32], x: &[f32], y: &mut [f32]) {
    let b = csr.block;
    let bb = b * b;
    for (bi, ys) in y.chunks_exact_mut(b).enumerate() {
        let (lo, hi) = (csr.row_ptr[bi] as usize, csr.row_ptr[bi + 1] as usize);
        for idx in lo..hi {
            let bj = csr.block_col[idx] as usize;
            let xs = &x[bj * b..(bj + 1) * b];
            let blk = &w[idx * bb..(idx + 1) * bb];
            for (row, o) in blk.chunks_exact(b).zip(ys.iter_mut()) {
                let mut acc = 0.0f32;
                for (wv, xv) in row.iter().zip(xs) {
                    acc += wv * xv;
                }
                *o += acc;
            }
        }
    }
}

/// Fixed-shape dot product: eight lane accumulators, a fixed reduction tree,
/// then the scalar tail. The operation order is explicit and identical on
/// every ISA (the wide recompiles only change vector width, not the
/// arithmetic), so results are deterministic across dispatch branches.
#[inline(always)]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; DOT_LANES];
    let mut ac = a.chunks_exact(DOT_LANES);
    let mut bc = b.chunks_exact(DOT_LANES);
    for (aa, bb) in ac.by_ref().zip(bc.by_ref()) {
        for l in 0..DOT_LANES {
            acc[l] += aa[l] * bb[l];
        }
    }
    let mut sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (av, bv) in ac.remainder().iter().zip(bc.remainder()) {
        sum += av * bv;
    }
    sum
}

/// Fused backward for [`fused_block_forward_train`]: accumulates the payload
/// and low-rank factor gradients into `grads` and returns dL/d input.
///
/// `vx` is the cached `batch x rank` intermediate returned by the training
/// forward (required iff `lowrank` is `Some`). The bias gradient is the
/// caller's — a column sum independent of this kernel. Three parallel
/// passes, each deterministic: rows for `dVx` + `dX` (per-sample,
/// independent), stored blocks for the payload gradient (each block's
/// accumulator sums samples in ascending order), and factor rows for
/// `dU` / `dV`.
#[allow(clippy::too_many_arguments)]
pub fn fused_block_backward(
    csr: &BlockCsr,
    payload: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    input: &Matrix,
    vx: Option<&Matrix>,
    grad_out: &Matrix,
    grads: BlockGrads<'_>,
    scratch: &mut Scratch,
) -> Matrix {
    let b = csr.block;
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    let batch = input.rows();
    assert_eq!(grad_out.rows(), batch, "grad batch mismatch");
    assert_eq!(grad_out.cols(), out_dim, "grad width mismatch");
    assert_eq!(input.cols(), in_dim, "input width mismatch");
    assert_eq!(grads.payload.len(), payload.len(), "payload gradient length mismatch");
    let rank = lowrank.map_or(0, |lr| lr.rank);
    if let Some(lr) = lowrank {
        let vx = vx.expect("low-rank backward requires the cached Vx");
        assert_eq!((vx.rows(), vx.cols()), (batch, lr.rank), "cached Vx shape mismatch");
        assert_eq!(grads.u.len(), lr.u.len(), "U gradient length mismatch");
        assert_eq!(grads.v.len(), lr.v.len(), "V gradient length mismatch");
    }

    // Pass 1 — per sample row: dVx = dY U, then dX = dY-through-blocks +
    // dVx V.
    let mut grad_in = Matrix::zeros(batch, in_dim);
    let mut dvx = scratch.take(batch * rank);
    if batch > 0 {
        if rank == 0 {
            // No dVx to produce: a zero-length dvx would truncate a
            // three-way zip to nothing, so drive the rows without it.
            grad_in
                .as_mut_slice()
                .par_chunks_mut(ROW_BLOCK * in_dim)
                .zip(grad_out.as_slice().par_chunks(ROW_BLOCK * out_dim))
                .for_each(|(gxblock, gblock)| {
                    backward_rows(csr, payload, lowrank, gblock, &mut [], gxblock);
                });
        } else {
            let dvx_chunk = ROW_BLOCK * rank;
            grad_in
                .as_mut_slice()
                .par_chunks_mut(ROW_BLOCK * in_dim)
                .zip(grad_out.as_slice().par_chunks(ROW_BLOCK * out_dim))
                .zip(dvx.par_chunks_mut(dvx_chunk))
                .for_each(|((gxblock, gblock), dvxblock)| {
                    backward_rows(csr, payload, lowrank, gblock, dvxblock, gxblock);
                });
        }
    }

    // Pass 2 — per stored block: dW[r][c] += Σ_s dY[s][r] * X[s][c],
    // samples in ascending order per accumulator.
    let bb = b * b;
    grads.payload.par_chunks_mut(bb).enumerate().for_each(|(idx, gp)| {
        let bi = csr.block_row[idx] as usize;
        let bj = csr.block_col[idx] as usize;
        for s in 0..batch {
            let gys = &grad_out.row(s)[bi * b..(bi + 1) * b];
            let xs = &input.row(s)[bj * b..(bj + 1) * b];
            for (g, gprow) in gys.iter().zip(gp.chunks_exact_mut(b)) {
                if *g == 0.0 {
                    continue;
                }
                for (d, xv) in gprow.iter_mut().zip(xs) {
                    *d += g * xv;
                }
            }
        }
    });

    // Pass 3 — low-rank factor gradients, one parallel sweep per factor.
    if let Some(lr) = lowrank {
        let vx = vx.expect("checked above");
        grads.u.par_chunks_mut(lr.rank).enumerate().for_each(|(i, gu)| {
            for s in 0..batch {
                let g = grad_out.row(s)[i];
                for (d, vv) in gu.iter_mut().zip(vx.row(s)) {
                    *d += g * vv;
                }
            }
        });
        let dvx_ref: &[f32] = &dvx;
        grads.v.par_chunks_mut(in_dim).enumerate().for_each(|(j, gv)| {
            for s in 0..batch {
                let d = dvx_ref[s * rank + j];
                for (dst, xv) in gv.iter_mut().zip(input.row(s)) {
                    *dst += d * xv;
                }
            }
        });
    }
    scratch.put(dvx);
    grad_in
}

#[inline]
fn backward_rows(
    csr: &BlockCsr,
    w: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    gblock: &[f32],
    dvxblock: &mut [f32],
    gxblock: &mut [f32],
) {
    bfly_tensor::dispatch_wide!(
        backward_avx512,
        backward_avx2,
        backward_rows_impl,
        csr,
        w,
        lowrank,
        gblock,
        dvxblock,
        gxblock
    )
}

#[inline(always)]
fn backward_rows_impl(
    csr: &BlockCsr,
    w: &[f32],
    lowrank: Option<LowRankRef<'_>>,
    gblock: &[f32],
    dvxblock: &mut [f32],
    gxblock: &mut [f32],
) {
    let b = csr.block;
    let bb = b * b;
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    let rank = lowrank.map_or(0, |lr| lr.rank);
    for (r, (gxrow, grow)) in gxblock.chunks_mut(in_dim).zip(gblock.chunks(out_dim)).enumerate() {
        // Sparse term: dX[bj*b + c] += Σ_r dY[bi*b + r] * W[r][c].
        for bi in 0..csr.row_ptr.len() - 1 {
            let gys = &grow[bi * b..(bi + 1) * b];
            for idx in csr.row_ptr[bi] as usize..csr.row_ptr[bi + 1] as usize {
                let bj = csr.block_col[idx] as usize;
                let gxs = &mut gxrow[bj * b..(bj + 1) * b];
                let blk = &w[idx * bb..(idx + 1) * bb];
                for (g, wrow) in gys.iter().zip(blk.chunks_exact(b)) {
                    if *g == 0.0 {
                        continue;
                    }
                    for (d, wv) in gxs.iter_mut().zip(wrow) {
                        *d += g * wv;
                    }
                }
            }
        }
        if let Some(lr) = lowrank {
            // dVx = dY U, then dX += dVx V.
            let dvxrow = &mut dvxblock[r * rank..(r + 1) * rank];
            dvxrow.fill(0.0);
            for (g, urow) in grow.iter().zip(lr.u.chunks_exact(lr.rank)) {
                for (d, uv) in dvxrow.iter_mut().zip(urow) {
                    *d += g * uv;
                }
            }
            for (d, vrow) in dvxrow.iter().zip(lr.v.chunks_exact(in_dim)) {
                for (dst, vv) in gxrow.iter_mut().zip(vrow) {
                    *dst += d * vv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_sparse::BlockSparseMatrix;
    use bfly_tensor::matmul::{matmul, matmul_a_bt_slice, matmul_at_b};
    use bfly_tensor::seeded_rng;
    use rand::Rng;

    fn sample(b: usize, grid_r: usize, grid_c: usize, keep: f64, seed: u64) -> BlockSparseMatrix {
        let mut rng = seeded_rng(seed);
        let mut coords = Vec::new();
        for i in 0..grid_r as u32 {
            for j in 0..grid_c as u32 {
                if i == j || rng.gen_bool(keep) {
                    coords.push((i, j));
                }
            }
        }
        BlockSparseMatrix::random(grid_r * b, grid_c * b, b, coords, &mut rng)
    }

    #[test]
    fn csr_prefix_offsets_match_coords() {
        let w = sample(4, 6, 6, 0.3, 91);
        let csr = w.csr();
        assert_eq!(csr.nnz_blocks(), w.nnz_blocks());
        assert_eq!(csr.row_ptr().len(), 7);
        let mut idx = 0;
        for bi in 0..6usize {
            for k in csr.row_ptr()[bi] as usize..csr.row_ptr()[bi + 1] as usize {
                assert_eq!(w.block_coords()[idx], (bi as u32, csr.block_cols()[k]));
                idx += 1;
            }
        }
        assert_eq!(idx, w.nnz_blocks());
    }

    #[test]
    fn sparse_only_is_bit_identical_to_naive_all_specializations() {
        for (b, seed) in [(4usize, 1u64), (8, 2), (16, 3), (32, 4)] {
            let w = sample(b, 4, 4, 0.4, 90 + seed);
            let mut rng = seeded_rng(seed);
            let x = Matrix::random_uniform(37, w.shape().1, 1.0, &mut rng);
            let naive = w.matmul_batch(&x);
            let mut scratch = Scratch::new();
            let fused = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
            assert_eq!(naive.as_slice(), fused.as_slice(), "block size {b}");
        }
    }

    #[test]
    fn generic_fallback_is_bit_identical_to_naive() {
        for b in [2usize, 6, 64] {
            let w = sample(b, 3, 5, 0.5, 40 + b as u64);
            let mut rng = seeded_rng(b as u64);
            let x = Matrix::random_uniform(9, w.shape().1, 1.0, &mut rng);
            let naive = w.matmul_batch(&x);
            let mut scratch = Scratch::new();
            let fused = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
            assert_eq!(naive.as_slice(), fused.as_slice(), "block size {b}");
        }
    }

    #[test]
    fn lowrank_and_bias_match_reference_arithmetic() {
        let mut rng = seeded_rng(77);
        let w = sample(8, 4, 4, 0.4, 78);
        let (out_dim, in_dim) = w.shape();
        let rank = 5;
        let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let bias: Vec<f32> = (0..out_dim).map(|i| i as f32 * 0.01).collect();
        let x = Matrix::random_uniform(13, in_dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let fused = fused_block_forward(
            &w.csr(),
            w.data(),
            Some(LowRankRef { u: &u, v: &v, rank }),
            Some(&bias),
            &x,
            &mut scratch,
        );
        let mut expect = w.matmul_batch(&x);
        let vx = matmul_a_bt_slice(&x, &v, rank);
        expect.axpy(1.0, &matmul_a_bt_slice(&vx, &u, out_dim));
        for r in 0..expect.rows() {
            for (o, bv) in expect.row_mut(r).iter_mut().zip(&bias) {
                *o += bv;
            }
        }
        assert!(fused.relative_error(&expect) < 1e-5);
    }

    #[test]
    fn train_variant_is_bit_identical_and_returns_vx() {
        let mut rng = seeded_rng(79);
        let w = sample(4, 8, 8, 0.3, 80);
        let (out_dim, in_dim) = w.shape();
        let rank = 3;
        let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let lr = LowRankRef { u: &u, v: &v, rank };
        let x = Matrix::random_uniform(11, in_dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let infer = fused_block_forward(&w.csr(), w.data(), Some(lr), None, &x, &mut scratch);
        let (train, vx) =
            fused_block_forward_train(&w.csr(), w.data(), Some(lr), None, &x, &mut scratch);
        assert_eq!(infer.as_slice(), train.as_slice());
        let vx = vx.expect("low-rank training forward returns Vx");
        let expect_vx = matmul_a_bt_slice(&x, &v, rank);
        assert!(vx.relative_error(&expect_vx) < 1e-5);
    }

    #[test]
    fn backward_matches_naive_and_dense_formulas() {
        let mut rng = seeded_rng(81);
        let w = sample(8, 4, 4, 0.5, 82);
        let (out_dim, in_dim) = w.shape();
        let rank = 4;
        let u: Vec<f32> = (0..out_dim * rank).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let v: Vec<f32> = (0..rank * in_dim).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let lr = LowRankRef { u: &u, v: &v, rank };
        let x = Matrix::random_uniform(7, in_dim, 1.0, &mut rng);
        let g = Matrix::random_uniform(7, out_dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let (_, vx) =
            fused_block_forward_train(&w.csr(), w.data(), Some(lr), None, &x, &mut scratch);
        let vx = vx.expect("vx");

        let mut gp = vec![0.0f32; w.data().len()];
        let mut gu = vec![0.0f32; u.len()];
        let mut gv = vec![0.0f32; v.len()];
        let gx = fused_block_backward(
            &w.csr(),
            w.data(),
            Some(lr),
            &x,
            Some(&vx),
            &g,
            BlockGrads { payload: &mut gp, u: &mut gu, v: &mut gv },
            &mut scratch,
        );

        // Payload + sparse dX against the naive reference.
        let mut gp_ref = vec![0.0f32; w.data().len()];
        let gx_sparse_ref = w.backward_batch(&x, &g, &mut gp_ref);
        for (a, e) in gp.iter().zip(&gp_ref) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
        // dX = sparse dX + (dY U) V.
        let um = Matrix::from_vec(out_dim, rank, u.clone());
        let vm = Matrix::from_vec(rank, in_dim, v.clone());
        let dvx = matmul(&g, &um);
        let mut gx_ref = gx_sparse_ref;
        gx_ref.axpy(1.0, &matmul(&dvx, &vm));
        assert!(gx.relative_error(&gx_ref) < 1e-4);
        // dU = dY^T Vx ; dV = (dY U)^T X.
        let du_ref = matmul_at_b(&g, &vx);
        let dv_ref = matmul_at_b(&dvx, &x);
        for (a, e) in gu.iter().zip(du_ref.as_slice()) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
        for (a, e) in gv.iter().zip(dv_ref.as_slice()) {
            assert!((a - e).abs() < 1e-4, "{a} vs {e}");
        }
    }

    #[test]
    fn backward_without_lowrank_matches_naive() {
        // Regression: at rank 0 the dVx scratch is zero-length and must not
        // truncate the row sweep (which would silently zero grad_in).
        let mut rng = seeded_rng(83);
        let w = sample(8, 4, 4, 0.5, 84);
        let (out_dim, in_dim) = w.shape();
        let x = Matrix::random_uniform(7, in_dim, 1.0, &mut rng);
        let g = Matrix::random_uniform(7, out_dim, 1.0, &mut rng);
        let mut scratch = Scratch::new();

        let mut gp = vec![0.0f32; w.data().len()];
        let gx = fused_block_backward(
            &w.csr(),
            w.data(),
            None,
            &x,
            None,
            &g,
            BlockGrads { payload: &mut gp, u: &mut [], v: &mut [] },
            &mut scratch,
        );

        let mut gp_ref = vec![0.0f32; w.data().len()];
        let gx_ref = w.backward_batch(&x, &g, &mut gp_ref);
        assert!(gx_ref.as_slice().iter().any(|v| *v != 0.0), "degenerate reference");
        assert_eq!(gx.as_slice(), gx_ref.as_slice());
        assert_eq!(gp.as_slice(), gp_ref.as_slice());
    }

    #[test]
    fn empty_batch_and_empty_pattern_are_fine() {
        let w = BlockSparseMatrix::zeros(16, 16, 4, vec![]);
        let x = Matrix::zeros(0, 16);
        let mut scratch = Scratch::new();
        let y = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
        assert_eq!((y.rows(), y.cols()), (0, 16));
        let x = Matrix::zeros(3, 16);
        let y = fused_block_forward(&w.csr(), w.data(), None, None, &x, &mut scratch);
        assert_eq!(y.as_slice(), vec![0.0; 48].as_slice());
    }
}
