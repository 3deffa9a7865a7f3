//! Block-sparse kernels — pixelfly's hidden layer on the host.
//!
//! Pixelfly's forward is `y = W x + U (V x) + bias` with `W` block-sparse
//! (paper §2.3.2). Pixelated butterfly is built so that both terms map onto
//! dense-GEMM hardware, and the kernels here follow that split. Everything
//! runs on the calling thread.
//!
//! - **The low-rank term runs on the tiled GEMMs** of [`bfly_tensor::matmul`].
//!   Forward: `Vx = X Vᵀ`, then `U Vx`, both with [`matmul_a_bt_slice`],
//!   which is batch-invariant, so a served row is bit-identical to the same
//!   row inside any batch. Backward: `dVx = dY U` and `dX += dVx V` with
//!   [`matmul_slice_acc`]; `dU += dYᵀ Vx` and `dV += dVxᵀ X` with
//!   [`matmul_at_b_acc`], straight into the caller's gradient buffers.
//! - **CSR-of-blocks** ([`BlockCsr`]): per-block-row prefix offsets replace
//!   the coordinate list. The sorted coordinate list is already in CSR
//!   order, so no payload moves. The input-gradient pass groups the blocks
//!   by block column once per call.
//! - **A payload packed once per weight update** ([`PackedBlocks`]). The
//!   forward microkernels for `b ∈ {4, 8, 16, 32}` vectorise across a
//!   block's output rows and read each block column-major. A layer keeps the
//!   packed copy and refreshes it when its weights change; a caller that
//!   passes the row-major payload ([`Blocks::RowMajor`]) gets a per-call
//!   pack into its [`Scratch`]. Other block sizes read the row-major payload.
//! - **Register tiles across samples.** The forward sweeps each stored block
//!   once per [`SAMPLE_TILE`] rows, so every payload column it loads feeds
//!   that many rows' accumulators. The backward lists the non-zero entries
//!   of `dY` once per call (so zero gradients are skipped without a branch
//!   per entry). The payload-gradient pass then keeps [`ROW_TILE`] rows of a
//!   block's gradient in registers while it walks their samples, and the
//!   input-gradient pass keeps [`SAMPLE_TILE`] samples' `dX` segments in
//!   registers while it walks a block column.
//!
//! Every sparse-term accumulator keeps the naive reference's order:
//! ascending input column within a block, then blocks in CSR order, in the
//! forward; ascending sample for the payload gradient; ascending block row,
//! then row within the block, for `dX`; zero `dY` entries skipped. So the
//! block-sparse term is **bit-identical** to
//! [`BlockSparseMatrix::matmul_batch`](crate::BlockSparseMatrix::matmul_batch)
//! and [`backward_batch`](crate::BlockSparseMatrix::backward_batch) on every
//! ISA and block size, and the training forward, the eval forward and
//! `forward_inference` of a layer share one code path.

use bfly_tensor::matmul::{matmul_a_bt_slice, matmul_at_b_acc, matmul_slice_acc};
use bfly_tensor::{Matrix, Scratch};

/// Batch rows per forward register tile, and samples per input-gradient
/// register tile. With `b = 32` a tile is eight AVX-512 accumulators.
const SAMPLE_TILE: usize = 4;

/// Payload-gradient rows per register tile (divides every specialised block
/// size).
const ROW_TILE: usize = 4;

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
    /// `block_rows + 1` prefix offsets into `block_col`.
    row_ptr: Vec<u32>,
    /// Block row per stored block (CSR order).
    block_row: Vec<u32>,
    /// Block column per stored block (CSR order).
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

    /// Whether this block size has lane-specialised forward microkernels,
    /// which read the column-major [`PackedBlocks`] layout.
    pub fn specialized(&self) -> bool {
        matches!(self.block, 4 | 8 | 16 | 32)
    }
}

/// The stored blocks grouped by block column, ascending block row within a
/// column: block column `bj` holds `blocks[starts[bj]..starts[bj + 1]]`
/// (indices in CSR order). Built per backward call; the pattern is small.
#[derive(Debug)]
struct BlockColumns {
    starts: Vec<usize>,
    blocks: Vec<u32>,
}

impl BlockColumns {
    fn new(csr: &BlockCsr) -> Self {
        let mut starts = vec![0usize; csr.cols / csr.block + 1];
        for &bj in &csr.block_col {
            starts[bj as usize + 1] += 1;
        }
        for j in 1..starts.len() {
            starts[j] += starts[j - 1];
        }
        // A counting sort; CSR order visits block rows in ascending order.
        let mut next = starts.clone();
        let mut blocks = vec![0u32; csr.block_col.len()];
        for (idx, &bj) in csr.block_col.iter().enumerate() {
            blocks[next[bj as usize]] = idx as u32;
            next[bj as usize] += 1;
        }
        Self { starts, blocks }
    }

    /// Stored-block indices of block column `bj`, ascending block row.
    fn column(&self, bj: usize) -> &[u32] {
        &self.blocks[self.starts[bj]..self.starts[bj + 1]]
    }
}

/// A block payload in the layout the forward microkernels read: each
/// `b x b` block column-major (`packed[c * b + r] = w[r][c]`) for the
/// lane-specialised sizes, a row-major copy for the rest. Pack it once per
/// weight update ([`PackedBlocks::repack`]); every forward until the next
/// update reads it as is.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedBlocks {
    block: usize,
    colmajor: bool,
    data: Vec<f32>,
}

impl PackedBlocks {
    /// Packs a row-major, CSR-order payload (exactly
    /// [`BlockSparseMatrix::data`](crate::BlockSparseMatrix::data)) of the
    /// pattern `csr`, in place: the buffer becomes the packed copy.
    ///
    /// # Panics
    /// Panics if the payload length does not match the pattern.
    pub fn new(csr: &BlockCsr, mut payload: Vec<f32>) -> Self {
        let b = csr.block;
        assert_eq!(payload.len(), csr.nnz_blocks() * b * b, "payload length mismatch");
        let colmajor = csr.specialized();
        if colmajor {
            transpose_blocks(b, &mut payload);
        }
        Self { block: b, colmajor, data: payload }
    }

    /// Re-packs in place from an updated row-major payload of the same
    /// pattern.
    ///
    /// # Panics
    /// Panics if the payload length differs from the packed one.
    pub fn repack(&mut self, payload: &[f32]) {
        assert_eq!(payload.len(), self.data.len(), "payload length mismatch");
        self.data.copy_from_slice(payload);
        if self.colmajor {
            transpose_blocks(self.block, &mut self.data);
        }
    }
}

/// Transposes each `block x block` payload of `data` in place, so a
/// row-major block becomes column-major (`w[r][c]` moves to `c * block + r`).
fn transpose_blocks(block: usize, data: &mut [f32]) {
    for blk in data.chunks_exact_mut(block * block) {
        for r in 0..block {
            for c in r + 1..block {
                blk.swap(r * block + c, c * block + r);
            }
        }
    }
}

/// The block payload a forward call reads.
#[derive(Debug, Clone, Copy)]
pub enum Blocks<'a> {
    /// Row-major per block in CSR order (exactly
    /// [`BlockSparseMatrix::data`](crate::BlockSparseMatrix::data)).
    /// Lane-specialised block sizes pack it into scratch for the call.
    RowMajor(&'a [f32]),
    /// Packed ahead of time; the call reads it as is.
    Packed(&'a PackedBlocks),
}

impl<'a> From<&'a [f32]> for Blocks<'a> {
    fn from(payload: &'a [f32]) -> Self {
        Blocks::RowMajor(payload)
    }
}

impl<'a> From<&'a PackedBlocks> for Blocks<'a> {
    fn from(packed: &'a PackedBlocks) -> Self {
        Blocks::Packed(packed)
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
/// *accumulated into*, so a layer passes its parameters' gradient buffers
/// directly.
#[derive(Debug)]
pub struct BlockGrads<'a> {
    /// dL/d payload, row-major per block in CSR order.
    pub payload: &'a mut [f32],
    /// dL/dU (`out_dim x rank`); empty when there is no low-rank term.
    pub u: &'a mut [f32],
    /// dL/dV (`rank x in_dim`); empty when there is no low-rank term.
    pub v: &'a mut [f32],
}

/// AVX-512F / AVX2 instantiations of the sparse-term bodies (see
/// [`bfly_tensor::dispatch_wide!`]), bit-identical to the generic ones.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{BlockColumns, BlockCsr, GradNonZeros};

    bfly_tensor::wide_pair!(
        forward_avx512,
        forward_avx2,
        sparse_forward_impl,
        (csr: &BlockCsr, w: &[f32], colmajor: bool, x: &[f32], y: &mut [f32])
    );
    bfly_tensor::wide_pair!(
        backward_avx512,
        backward_avx2,
        sparse_backward_impl,
        (
            csr: &BlockCsr,
            w: &[f32],
            x: &[f32],
            nz: &GradNonZeros,
            cols: &BlockColumns,
            gp: &mut [f32],
            gx: &mut [f32]
        )
    );
}

/// Fused batched forward `Y = X W^T [+ (X V^T) U^T] [+ bias]`.
///
/// `payload` is the packed payload ([`PackedBlocks`]) or the row-major
/// CSR-order one (exactly
/// [`BlockSparseMatrix::data`](crate::BlockSparseMatrix::data)); both give
/// the same bits. With no low-rank term and no bias the result is
/// bit-identical to
/// [`BlockSparseMatrix::matmul_batch`](crate::BlockSparseMatrix::matmul_batch).
/// `scratch` holds the per-call pack of a row-major payload.
pub fn fused_block_forward<'a>(
    csr: &BlockCsr,
    payload: impl Into<Blocks<'a>>,
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
) -> Matrix {
    forward_inner(csr, payload.into(), lowrank, bias, input, scratch).0
}

/// [`fused_block_forward`] that additionally returns the low-rank
/// intermediate `Vx` (`batch x rank`) the backward pass needs; `None` when
/// there is no low-rank term. Outputs are bit-identical to the inference
/// variant — it is the same computation.
pub fn fused_block_forward_train<'a>(
    csr: &BlockCsr,
    payload: impl Into<Blocks<'a>>,
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
) -> (Matrix, Option<Matrix>) {
    forward_inner(csr, payload.into(), lowrank, bias, input, scratch)
}

fn forward_inner(
    csr: &BlockCsr,
    payload: Blocks<'_>,
    lowrank: Option<LowRankRef<'_>>,
    bias: Option<&[f32]>,
    input: &Matrix,
    scratch: &mut Scratch,
) -> (Matrix, Option<Matrix>) {
    let b = csr.block;
    let (out_dim, in_dim) = (csr.out_dim(), csr.in_dim());
    let batch = input.rows();
    assert_eq!(input.cols(), in_dim, "fused block forward input width mismatch");
    if let Some(lr) = lowrank {
        assert!(lr.rank > 0, "pass None instead of a rank-0 low-rank term");
        assert_eq!(lr.u.len(), out_dim * lr.rank, "low-rank U shape mismatch");
        assert_eq!(lr.v.len(), lr.rank * in_dim, "low-rank V shape mismatch");
    }
    if let Some(bs) = bias {
        assert_eq!(bs.len(), out_dim, "bias length mismatch");
    }
    // The low-rank term first, on the GEMMs: the output starts as U (V x).
    let (mut out, vx) = match lowrank {
        Some(lr) => {
            let vx = matmul_a_bt_slice(input, lr.v, lr.rank);
            (matmul_a_bt_slice(&vx, lr.u, out_dim), Some(vx))
        }
        None => (Matrix::zeros(batch, out_dim), None),
    };
    let (x, y) = (input.as_slice(), out.as_mut_slice());
    match payload {
        Blocks::Packed(p) => {
            assert_eq!(p.block, b, "packed payload block size mismatch");
            assert_eq!(p.data.len(), csr.nnz_blocks() * b * b, "payload length mismatch");
            sparse_forward(csr, &p.data, p.colmajor, x, y);
        }
        Blocks::RowMajor(w) if csr.specialized() => {
            assert_eq!(w.len(), csr.nnz_blocks() * b * b, "payload length mismatch");
            let mut wt = scratch.take(w.len());
            wt.copy_from_slice(w);
            transpose_blocks(b, &mut wt);
            sparse_forward(csr, &wt, true, x, y);
            scratch.put(wt);
        }
        Blocks::RowMajor(w) => {
            assert_eq!(w.len(), csr.nnz_blocks() * b * b, "payload length mismatch");
            sparse_forward(csr, w, false, x, y);
        }
    }
    if let Some(bs) = bias {
        for row in y.chunks_exact_mut(out_dim) {
            for (o, bv) in row.iter_mut().zip(bs) {
                *o += bv;
            }
        }
    }
    (out, vx)
}

/// `Y += X Wᵀ` for the block-sparse term, every row of the batch. `w` is
/// column-major per block when `colmajor` (the lane microkernels' layout),
/// row-major otherwise.
fn sparse_forward(csr: &BlockCsr, w: &[f32], colmajor: bool, x: &[f32], y: &mut [f32]) {
    if x.is_empty() || y.is_empty() || csr.nnz_blocks() == 0 {
        return;
    }
    bfly_tensor::dispatch_wide!(
        forward_avx512,
        forward_avx2,
        sparse_forward_impl,
        csr,
        w,
        colmajor,
        x,
        y
    )
}

#[inline(always)]
fn sparse_forward_impl(csr: &BlockCsr, w: &[f32], colmajor: bool, x: &[f32], y: &mut [f32]) {
    match (colmajor, csr.block) {
        (true, 4) => forward_lanes::<4>(csr, w, x, y),
        (true, 8) => forward_lanes::<8>(csr, w, x, y),
        (true, 16) => forward_lanes::<16>(csr, w, x, y),
        (true, 32) => forward_lanes::<32>(csr, w, x, y),
        (true, b) => unreachable!("column-major payload for unspecialised block size {b}"),
        (false, _) => forward_generic(csr, w, x, y),
    }
}

/// The lane microkernel over the batch: [`SAMPLE_TILE`] rows at a time, then
/// the remaining rows one by one. Each row's arithmetic is the same either
/// way, so a row's bits do not depend on the batch around it.
#[inline(always)]
fn forward_lanes<const B: usize>(csr: &BlockCsr, wt: &[f32], x: &[f32], y: &mut [f32]) {
    let (out_dim, in_dim) = (csr.rows, csr.cols);
    let mut x_tiles = x.chunks_exact(SAMPLE_TILE * in_dim);
    let mut y_tiles = y.chunks_exact_mut(SAMPLE_TILE * out_dim);
    for (xt, yt) in (&mut x_tiles).zip(&mut y_tiles) {
        forward_tile::<B, SAMPLE_TILE>(csr, wt, xt, yt);
    }
    let rest = x_tiles.remainder().chunks_exact(in_dim);
    for (xr, yr) in rest.zip(y_tiles.into_remainder().chunks_exact_mut(out_dim)) {
        forward_tile::<B, 1>(csr, wt, xr, yr);
    }
}

/// One register tile of `T` rows. Per stored block, lane `r` of row `t`
/// accumulates `w[r][c] * x[t][c]` over ascending `c` — the scalar dot's
/// order — and the block's sums are added to `y` before the next block's:
/// the naive per-block loop, bit for bit. Each payload column is loaded once
/// for all `T` rows.
#[inline(always)]
fn forward_tile<const B: usize, const T: usize>(
    csr: &BlockCsr,
    wt: &[f32],
    x: &[f32],
    y: &mut [f32],
) {
    let (out_dim, in_dim) = (csr.rows, csr.cols);
    for bi in 0..csr.row_ptr.len() - 1 {
        for idx in csr.row_ptr[bi] as usize..csr.row_ptr[bi + 1] as usize {
            let bj = csr.block_col[idx] as usize;
            let xs: [&[f32; B]; T] = std::array::from_fn(|t| lane_row(x, t * in_dim + bj * B));
            let mut acc = [[0.0f32; B]; T];
            for (c, col) in wt[idx * B * B..(idx + 1) * B * B].chunks_exact(B).enumerate() {
                for (acc_t, xs_t) in acc.iter_mut().zip(&xs) {
                    let xv = xs_t[c];
                    for (a, wv) in acc_t.iter_mut().zip(col) {
                        *a += wv * xv;
                    }
                }
            }
            for (t, acc_t) in acc.iter().enumerate() {
                let ys = &mut y[t * out_dim + bi * B..t * out_dim + (bi + 1) * B];
                for (o, a) in ys.iter_mut().zip(acc_t) {
                    *o += a;
                }
            }
        }
    }
}

/// The `B` floats of `v` starting at `at`.
#[inline(always)]
fn lane_row<const B: usize>(v: &[f32], at: usize) -> &[f32; B] {
    v[at..at + B].try_into().expect("range is B long")
}

/// Forward for unspecialised block sizes: the naive scalar order on the
/// row-major payload, row by row.
#[inline(always)]
fn forward_generic(csr: &BlockCsr, w: &[f32], x: &[f32], y: &mut [f32]) {
    let b = csr.block;
    let bb = b * b;
    for (xrow, yrow) in x.chunks_exact(csr.cols).zip(y.chunks_exact_mut(csr.rows)) {
        for (bi, ys) in yrow.chunks_exact_mut(b).enumerate() {
            for idx in csr.row_ptr[bi] as usize..csr.row_ptr[bi + 1] as usize {
                let bj = csr.block_col[idx] as usize;
                let xs = &xrow[bj * b..(bj + 1) * b];
                for (row, o) in w[idx * bb..(idx + 1) * bb].chunks_exact(b).zip(ys.iter_mut()) {
                    let mut acc = 0.0f32;
                    for (wv, xv) in row.iter().zip(xs) {
                        acc += wv * xv;
                    }
                    *o += acc;
                }
            }
        }
    }
}

/// Fused backward for [`fused_block_forward_train`]: accumulates the payload
/// and low-rank factor gradients into `grads` and returns dL/d input.
///
/// `payload` is the row-major CSR-order payload and `vx` the cached
/// `batch x rank` intermediate returned by the training forward (required
/// iff `lowrank` is `Some`). The bias gradient is the caller's — a column
/// sum independent of this kernel. The sparse term runs first (payload
/// gradient and `dX`, bit-identical to
/// [`BlockSparseMatrix::backward_batch`](crate::BlockSparseMatrix::backward_batch)),
/// then the low-rank term on the GEMMs; `scratch` holds `dVx`.
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
    assert_eq!(payload.len(), csr.nnz_blocks() * b * b, "payload length mismatch");
    assert_eq!(grads.payload.len(), payload.len(), "payload gradient length mismatch");
    if let Some(lr) = lowrank {
        let vx = vx.expect("low-rank backward requires the cached Vx");
        assert_eq!((vx.rows(), vx.cols()), (batch, lr.rank), "cached Vx shape mismatch");
        assert_eq!(lr.u.len(), out_dim * lr.rank, "low-rank U shape mismatch");
        assert_eq!(lr.v.len(), lr.rank * in_dim, "low-rank V shape mismatch");
        assert_eq!(grads.u.len(), lr.u.len(), "U gradient length mismatch");
        assert_eq!(grads.v.len(), lr.v.len(), "V gradient length mismatch");
    }

    let mut grad_in = Matrix::zeros(batch, in_dim);
    if batch > 0 && csr.nnz_blocks() > 0 {
        let (nz, cols) = (GradNonZeros::new(grad_out, b), BlockColumns::new(csr));
        let (x, gx) = (input.as_slice(), grad_in.as_mut_slice());
        sparse_backward(csr, payload, x, &nz, &cols, grads.payload, gx);
    }
    if let Some(lr) = lowrank {
        let vx = vx.expect("checked above");
        let mut dvx = Matrix::from_vec(batch, lr.rank, scratch.take(batch * lr.rank));
        dvx.as_mut_slice().fill(0.0);
        matmul_slice_acc(grad_out, lr.u, lr.rank, dvx.as_mut_slice());
        matmul_slice_acc(&dvx, lr.v, in_dim, grad_in.as_mut_slice());
        matmul_at_b_acc(grad_out, vx, grads.u);
        matmul_at_b_acc(&dvx, input, grads.v);
        scratch.put(dvx.into_vec());
    }
    grad_in
}

/// The non-zero entries of `dY`, listed once per backward call so that the
/// sparse passes skip zero gradients without a data-dependent branch per
/// entry. Both lists use fixed-size slots, filled branch-free.
#[derive(Debug)]
struct GradNonZeros {
    block: usize,
    block_rows: usize,
    batch: usize,
    /// Slot `(s * block_rows + bi) * block ..`: `(row within the block,
    /// value)` of sample `s`'s non-zeros in block row `bi`, ascending row.
    by_row: Vec<(u32, f32)>,
    /// Entries used in each `by_row` slot.
    row_len: Vec<u32>,
    /// Slot `i * batch ..`: `(sample, value)` of output column `i`'s
    /// non-zeros, ascending sample.
    by_col: Vec<(u32, f32)>,
    /// Entries used in each `by_col` slot.
    col_len: Vec<u32>,
}

impl GradNonZeros {
    fn new(g: &Matrix, block: usize) -> Self {
        let (batch, out_dim) = g.shape();
        let mut by_row = vec![(0u32, 0.0f32); batch * out_dim];
        let mut row_len = vec![0u32; batch * (out_dim / block)];
        let mut by_col = vec![(0u32, 0.0f32); out_dim * batch];
        let mut col_len = vec![0u32; out_dim];
        // Every entry is written to the next free slot position, which only
        // advances past a non-zero, so a zero is overwritten or left unused.
        let segments = g.as_slice().chunks_exact(block).zip(by_row.chunks_exact_mut(block));
        for (seg_idx, ((seg, slot), len)) in segments.zip(row_len.iter_mut()).enumerate() {
            let s = (seg_idx * block) / out_dim;
            let col0 = (seg_idx * block) % out_dim;
            let mut used = 0usize;
            for (r, &v) in seg.iter().enumerate() {
                let keep = v != 0.0;
                slot[used] = (r as u32, v);
                used += usize::from(keep);
                let i = col0 + r;
                by_col[i * batch + col_len[i] as usize] = (s as u32, v);
                col_len[i] += u32::from(keep);
            }
            *len = used as u32;
        }
        Self { block, block_rows: out_dim / block, batch, by_row, row_len, by_col, col_len }
    }

    /// Non-zeros of sample `s` in block row `bi`, as `(row within the
    /// block, value)`.
    #[inline(always)]
    fn row(&self, s: usize, bi: usize) -> &[(u32, f32)] {
        let seg = s * self.block_rows + bi;
        let start = seg * self.block;
        &self.by_row[start..start + self.row_len[seg] as usize]
    }

    /// Non-zeros of output column `i`, as `(sample, value)`.
    #[inline(always)]
    fn col(&self, i: usize) -> &[(u32, f32)] {
        let start = i * self.batch;
        &self.by_col[start..start + self.col_len[i] as usize]
    }
}

/// The block-sparse term's backward: payload gradient into `gp`, input
/// gradient into `gx` (both accumulated). `w` is the row-major payload.
fn sparse_backward(
    csr: &BlockCsr,
    w: &[f32],
    x: &[f32],
    nz: &GradNonZeros,
    cols: &BlockColumns,
    gp: &mut [f32],
    gx: &mut [f32],
) {
    bfly_tensor::dispatch_wide!(
        backward_avx512,
        backward_avx2,
        sparse_backward_impl,
        csr,
        w,
        x,
        nz,
        cols,
        gp,
        gx
    )
}

#[inline(always)]
fn sparse_backward_impl(
    csr: &BlockCsr,
    w: &[f32],
    x: &[f32],
    nz: &GradNonZeros,
    cols: &BlockColumns,
    gp: &mut [f32],
    gx: &mut [f32],
) {
    match csr.block {
        4 => backward_lanes::<4>(csr, w, x, nz, cols, gp, gx),
        8 => backward_lanes::<8>(csr, w, x, nz, cols, gp, gx),
        16 => backward_lanes::<16>(csr, w, x, nz, cols, gp, gx),
        32 => backward_lanes::<32>(csr, w, x, nz, cols, gp, gx),
        _ => backward_generic(csr, w, x, nz, cols, gp, gx),
    }
}

/// Register-tiled sparse backward for a specialised block size.
///
/// Payload gradient: per stored block `(bi, bj)`, [`ROW_TILE`] rows `r` of
/// its gradient stay in registers while each walks its own list of
/// `(s, dY[s][bi·B + r])` — ascending samples, zeros skipped — adding
/// `dY[s][..] * X[s][bj·B ..]`. Input gradient: per block column `bj`,
/// [`SAMPLE_TILE`] samples' `dX[s][bj·B ..]` stay in registers while the
/// column's blocks are walked in ascending block row, each adding
/// `dY[s][bi·B + r] * W[r][..]` over its non-zero rows `r`, ascending.
#[inline(always)]
fn backward_lanes<const B: usize>(
    csr: &BlockCsr,
    w: &[f32],
    x: &[f32],
    nz: &GradNonZeros,
    cols: &BlockColumns,
    gp: &mut [f32],
    gx: &mut [f32],
) {
    let in_dim = csr.cols;
    for (idx, gblk) in gp.chunks_exact_mut(B * B).enumerate() {
        let (bi, bj) = (csr.block_row[idx] as usize, csr.block_col[idx] as usize);
        for (rt, grows) in gblk.chunks_exact_mut(ROW_TILE * B).enumerate() {
            let mut acc: [[f32; B]; ROW_TILE] = std::array::from_fn(|t| *lane_row(grows, t * B));
            let lists = std::array::from_fn(|t| nz.col(bi * B + rt * ROW_TILE + t));
            axpy_lists(&mut acc, lists, |s| lane_row(x, s * in_dim + bj * B));
            for (dst, a) in grows.chunks_exact_mut(B).zip(&acc) {
                dst.copy_from_slice(a);
            }
        }
    }

    let batch = nz.batch;
    for bj in 0..csr.cols / B {
        let blocks = cols.column(bj);
        if blocks.is_empty() {
            continue;
        }
        let mut s0 = 0;
        while s0 + SAMPLE_TILE <= batch {
            dx_tile::<B, SAMPLE_TILE>(csr, w, nz, blocks, bj, s0, gx);
            s0 += SAMPLE_TILE;
        }
        for s in s0..batch {
            dx_tile::<B, 1>(csr, w, nz, blocks, bj, s, gx);
        }
    }
}

/// `dX[s0 + t][bj·B ..]` for `T` samples, kept in registers across the
/// blocks of column `bj` (see [`backward_lanes`]).
#[inline(always)]
fn dx_tile<const B: usize, const T: usize>(
    csr: &BlockCsr,
    w: &[f32],
    nz: &GradNonZeros,
    blocks: &[u32],
    bj: usize,
    s0: usize,
    gx: &mut [f32],
) {
    let in_dim = csr.cols;
    let at = |t: usize| (s0 + t) * in_dim + bj * B;
    let mut acc: [[f32; B]; T] = std::array::from_fn(|t| *lane_row(gx, at(t)));
    for &idx in blocks {
        let idx = idx as usize;
        let bi = csr.block_row[idx] as usize;
        let blk = &w[idx * B * B..(idx + 1) * B * B];
        let lists = std::array::from_fn(|t| nz.row(s0 + t, bi));
        axpy_lists(&mut acc, lists, |r| lane_row(blk, r * B));
    }
    for (t, a) in acc.iter().enumerate() {
        gx[at(t)..at(t) + B].copy_from_slice(a);
    }
}

/// `acc[t] += v * row(j)` for each `(j, v)` of `lists[t]`, in list order.
/// The `T` lists are stepped together while all last — `T` independent add
/// chains in flight — and their tails one by one after; each accumulator's
/// own order is its list's.
#[inline(always)]
fn axpy_lists<'a, const B: usize, const T: usize>(
    acc: &mut [[f32; B]; T],
    lists: [&[(u32, f32)]; T],
    row: impl Fn(usize) -> &'a [f32; B],
) {
    let common = lists.iter().map(|l| l.len()).min().unwrap_or(0);
    for k in 0..common {
        for (acc_t, list) in acc.iter_mut().zip(&lists) {
            let (j, v) = list[k];
            for (a, rv) in acc_t.iter_mut().zip(row(j as usize)) {
                *a += v * rv;
            }
        }
    }
    for (acc_t, list) in acc.iter_mut().zip(&lists) {
        for &(j, v) in &list[common..] {
            for (a, rv) in acc_t.iter_mut().zip(row(j as usize)) {
                *a += v * rv;
            }
        }
    }
}

/// Sparse backward for unspecialised block sizes: the same lists and the
/// same per-accumulator order as [`backward_lanes`], one row or sample at a
/// time.
#[inline(always)]
fn backward_generic(
    csr: &BlockCsr,
    w: &[f32],
    x: &[f32],
    nz: &GradNonZeros,
    cols: &BlockColumns,
    gp: &mut [f32],
    gx: &mut [f32],
) {
    let (b, in_dim) = (csr.block, csr.cols);
    for (idx, gblk) in gp.chunks_exact_mut(b * b).enumerate() {
        let (bi, bj) = (csr.block_row[idx] as usize, csr.block_col[idx] as usize);
        for (r, grow) in gblk.chunks_exact_mut(b).enumerate() {
            for &(s, g) in nz.col(bi * b + r) {
                let xs = &x[s as usize * in_dim + bj * b..][..b];
                for (d, xv) in grow.iter_mut().zip(xs) {
                    *d += g * xv;
                }
            }
        }
    }
    for (s, gxrow) in gx.chunks_exact_mut(in_dim).enumerate() {
        for (bj, gxs) in gxrow.chunks_exact_mut(b).enumerate() {
            for &idx in cols.column(bj) {
                let idx = idx as usize;
                let blk = &w[idx * b * b..(idx + 1) * b * b];
                for &(r, g) in nz.row(s, csr.block_row[idx] as usize) {
                    for (d, wv) in gxs.iter_mut().zip(&blk[r as usize * b..][..b]) {
                        *d += g * wv;
                    }
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
        // truncate the row sweep (which would silently zero grad_in). Block 8
        // runs the register-tiled kernel, 2 and 6 the generic one; the
        // ReLU-style gradient exercises the zero skip.
        for (b, relu) in [(8usize, false), (8, true), (2, true), (6, true)] {
            let mut rng = seeded_rng(83);
            let w = sample(b, 4, 4, 0.5, 84);
            let (out_dim, in_dim) = w.shape();
            let x = Matrix::random_uniform(7, in_dim, 1.0, &mut rng);
            let mut g = Matrix::random_uniform(7, out_dim, 1.0, &mut rng);
            if relu {
                g.map_in_place(|v| v.max(0.0));
            }
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
            assert_eq!(gx.as_slice(), gx_ref.as_slice(), "block {b}");
            assert_eq!(gp.as_slice(), gp_ref.as_slice(), "block {b}");
        }
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
