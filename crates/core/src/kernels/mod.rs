//! Fused, allocation-free host kernels for butterfly-style layers.
//!
//! The structured layers all share one execution shape: zero-pad the input to
//! the transform width `n`, apply a fixed permutation, run `log2 n` in-place
//! stages, then crop to the output width and add a bias. The naive
//! implementation walks the whole activation matrix once *per step* (a pad
//! copy, a permute copy, one parallel dispatch per stage, a crop copy) and
//! clones the activations once per stage in training mode — `O(stages)`
//! full-matrix traffic that throws away the paper's `O(n log n)` advantage on
//! allocator churn and cache misses.
//!
//! The kernels here instead make **one** pass over row blocks (written
//! against the `rayon` API; the vendored `rayon` shim runs it sequentially):
//! each row is gathered through the permutation (with implicit zero-padding)
//! straight into a scratch row, every stage runs on it while it stays
//! cache-resident, and the crop + bias writes it to the output. Batched calls
//! first repack each stage's parameters into planar (structure-of-arrays)
//! scratch once, so the per-row pair loops read contiguous coefficient
//! streams — and rotation stages pay their `sin_cos` once per call, not once
//! per row. Training mode is the same pass but records each stage's input
//! into a caller-owned arena (`[row block][stage][row][n]`, reused across
//! steps) instead of per-stage matrix clones. The only allocation in steady
//! state is the returned output matrix.

use crate::butterfly::ButterflyFactor;
use crate::ortho::OrthoFactor;
use bfly_tensor::{Matrix, Permutation, Scratch};
use rayon::prelude::*;

pub mod block;

pub use block::{
    fused_block_backward, fused_block_forward, fused_block_forward_train, BlockCsr, BlockGrads,
    LowRankRef,
};

/// Rows per unit of parallel work. Small enough to spread a modest batch
/// over cores, large enough that one scratch row per block amortises.
const ROW_BLOCK: usize = 32;

/// Minimum batch for the planar parameter repack: below this the
/// once-per-call deinterleave (a full sweep of every stage's parameters)
/// costs as much as it saves, so small batches use the canonical layout.
const PLANAR_MIN_BATCH: usize = 8;

/// Applies one flat-twiddle butterfly stage in place to a transform-width
/// row. `twiddles` holds `[a, b, c, d]` quadruples (see
/// [`ButterflyFactor::twiddles`]); free function so both owned factors and
/// borrowed parameter slices share the exact same arithmetic.
#[inline]
pub fn apply_twiddle_stage(block_size: usize, twiddles: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let mut quads = twiddles.chunks_exact(4);
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for ((xp, xq), quad) in lo.iter_mut().zip(hi.iter_mut()).zip(quads.by_ref()) {
            let (a, b, c, d) = (quad[0], quad[1], quad[2], quad[3]);
            let p = *xp;
            let q = *xq;
            *xp = a * p + b * q;
            *xq = c * p + d * q;
        }
    }
}

/// Out-of-place variant of [`apply_twiddle_stage`]: reads the stage input
/// from `src` and writes the stage output to `dst` (every position of `dst`
/// is written — the pairs tile the row). Same arithmetic, so results are
/// bit-identical to copying `src` into `dst` and applying in place; the
/// training path uses it to advance one arena slot to the next without a
/// separate copy pass.
#[inline]
pub fn apply_twiddle_stage_into(block_size: usize, twiddles: &[f32], src: &[f32], dst: &mut [f32]) {
    let half = block_size / 2;
    let mut quads = twiddles.chunks_exact(4);
    for (sblock, dblock) in src.chunks_exact(block_size).zip(dst.chunks_exact_mut(block_size)) {
        let (slo, shi) = sblock.split_at(half);
        let (dlo, dhi) = dblock.split_at_mut(half);
        for ((((sp, sq), dp), dq), quad) in
            slo.iter().zip(shi).zip(dlo.iter_mut()).zip(dhi.iter_mut()).zip(quads.by_ref())
        {
            let (a, b, c, d) = (quad[0], quad[1], quad[2], quad[3]);
            *dp = a * sp + b * sq;
            *dq = c * sp + d * sq;
        }
    }
}

/// Applies one Givens-rotation stage in place to a transform-width row
/// (the [`OrthoFactor`] parametrization: one angle per mixed pair).
#[inline]
pub fn apply_rotation_stage(block_size: usize, angles: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let mut angles = angles.iter();
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for ((xp, xq), theta) in lo.iter_mut().zip(hi.iter_mut()).zip(angles.by_ref()) {
            let (s, c) = theta.sin_cos();
            let p = *xp;
            let q = *xq;
            *xp = c * p - s * q;
            *xq = s * p + c * q;
        }
    }
}

/// Out-of-place variant of [`apply_rotation_stage`]; see
/// [`apply_twiddle_stage_into`] for the contract.
#[inline]
pub fn apply_rotation_stage_into(block_size: usize, angles: &[f32], src: &[f32], dst: &mut [f32]) {
    let half = block_size / 2;
    let mut angles = angles.iter();
    for (sblock, dblock) in src.chunks_exact(block_size).zip(dst.chunks_exact_mut(block_size)) {
        let (slo, shi) = sblock.split_at(half);
        let (dlo, dhi) = dblock.split_at_mut(half);
        for ((((sp, sq), dp), dq), theta) in
            slo.iter().zip(shi).zip(dlo.iter_mut()).zip(dhi.iter_mut()).zip(angles.by_ref())
        {
            let (s, c) = theta.sin_cos();
            *dp = c * sp - s * sq;
            *dq = s * sp + c * sq;
        }
    }
}

/// Deinterleaves `[a, b, c, d]` twiddle quadruples into four planes
/// `[a..][b..][c..][d..]` (`dst.len() == twiddles.len()`). The planar form
/// lets the stage loop read each coefficient stream contiguously, which the
/// interleaved quads deny the vectorizer; the repack runs once per batch
/// call and is amortised over every row.
#[inline]
pub fn repack_twiddles_planar(twiddles: &[f32], dst: &mut [f32]) {
    let pairs = twiddles.len() / 4;
    let (a, rest) = dst.split_at_mut(pairs);
    let (b, rest) = rest.split_at_mut(pairs);
    let (c, d) = rest.split_at_mut(pairs);
    for ((((quad, a), b), c), d) in twiddles.chunks_exact(4).zip(a).zip(b).zip(c).zip(d.iter_mut())
    {
        *a = quad[0];
        *b = quad[1];
        *c = quad[2];
        *d = quad[3];
    }
}

/// Evaluates each angle's `sin_cos` once into two planes `[sin..][cos..]`
/// (`dst.len() == 2 * angles.len()`), so a batched rotation stage pays the
/// transcendentals once per call instead of once per row.
#[inline]
pub fn repack_angles_planar(angles: &[f32], dst: &mut [f32]) {
    let pairs = angles.len();
    let (sines, cosines) = dst.split_at_mut(pairs);
    for ((theta, sv), cv) in angles.iter().zip(sines).zip(cosines.iter_mut()) {
        let (s, c) = theta.sin_cos();
        *sv = s;
        *cv = c;
    }
}

/// Wide-vector re-instantiations of the planar stage loops for x86-64: the
/// baseline build only assumes SSE2, so without them the planar loops
/// vectorize at four lanes. Selected at run time by
/// [`bfly_tensor::dispatch_wide!`], bit-identical to the generic bodies.
#[cfg(target_arch = "x86_64")]
mod wide {
    bfly_tensor::wide_pair!(
        twiddle_avx512,
        twiddle_avx2,
        twiddle_stage_planar_impl,
        (block_size: usize, planar: &[f32], x: &mut [f32])
    );
    bfly_tensor::wide_pair!(
        rotation_avx512,
        rotation_avx2,
        rotation_stage_planar_impl,
        (block_size: usize, planar: &[f32], x: &mut [f32])
    );
}

/// [`apply_twiddle_stage`] reading coefficients from the planar repack of
/// [`repack_twiddles_planar`]. Same values, same per-pair arithmetic and
/// order — bit-identical — but every stream is contiguous, so the pair loop
/// vectorizes for any block half of a few lanes or more.
#[inline]
pub fn apply_twiddle_stage_planar(block_size: usize, planar: &[f32], x: &mut [f32]) {
    bfly_tensor::dispatch_wide!(
        twiddle_avx512,
        twiddle_avx2,
        twiddle_stage_planar_impl,
        block_size,
        planar,
        x
    )
}

#[inline(always)]
fn twiddle_stage_planar_impl(block_size: usize, planar: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let pairs = planar.len() / 4;
    let (a_all, rest) = planar.split_at(pairs);
    let (b_all, rest) = rest.split_at(pairs);
    let (c_all, d_all) = rest.split_at(pairs);
    let mut t = 0usize;
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for ((((xp, xq), a), b), (c, d)) in lo
            .iter_mut()
            .zip(hi.iter_mut())
            .zip(&a_all[t..t + half])
            .zip(&b_all[t..t + half])
            .zip(c_all[t..t + half].iter().zip(&d_all[t..t + half]))
        {
            let p = *xp;
            let q = *xq;
            *xp = a * p + b * q;
            *xq = c * p + d * q;
        }
        t += half;
    }
}

/// Out-of-place variant of [`apply_twiddle_stage_planar`].
#[inline]
pub fn apply_twiddle_stage_into_planar(
    block_size: usize,
    planar: &[f32],
    src: &[f32],
    dst: &mut [f32],
) {
    // Not ISA-dispatched: this variant inlines into the training stage
    // chain, where the call boundary a `#[target_feature]` wrapper imposes
    // costs more than wider vectors recover (measured ~30% slower).
    twiddle_stage_into_planar_impl(block_size, planar, src, dst)
}

#[inline(always)]
fn twiddle_stage_into_planar_impl(block_size: usize, planar: &[f32], src: &[f32], dst: &mut [f32]) {
    let half = block_size / 2;
    let pairs = planar.len() / 4;
    let (a_all, rest) = planar.split_at(pairs);
    let (b_all, rest) = rest.split_at(pairs);
    let (c_all, d_all) = rest.split_at(pairs);
    let mut t = 0usize;
    for (sblock, dblock) in src.chunks_exact(block_size).zip(dst.chunks_exact_mut(block_size)) {
        let (slo, shi) = sblock.split_at(half);
        let (dlo, dhi) = dblock.split_at_mut(half);
        for (((((sp, sq), dp), dq), a), (b, (c, d))) in slo
            .iter()
            .zip(shi)
            .zip(dlo.iter_mut())
            .zip(dhi.iter_mut())
            .zip(&a_all[t..t + half])
            .zip(b_all[t..t + half].iter().zip(c_all[t..t + half].iter().zip(&d_all[t..t + half])))
        {
            *dp = a * sp + b * sq;
            *dq = c * sp + d * sq;
        }
        t += half;
    }
}

/// [`apply_rotation_stage`] reading the precomputed `[sin..][cos..]` planes
/// of [`repack_angles_planar`]: no per-row transcendentals, contiguous
/// streams, bit-identical results.
#[inline]
pub fn apply_rotation_stage_planar(block_size: usize, planar: &[f32], x: &mut [f32]) {
    bfly_tensor::dispatch_wide!(
        rotation_avx512,
        rotation_avx2,
        rotation_stage_planar_impl,
        block_size,
        planar,
        x
    )
}

#[inline(always)]
fn rotation_stage_planar_impl(block_size: usize, planar: &[f32], x: &mut [f32]) {
    let half = block_size / 2;
    let pairs = planar.len() / 2;
    let (s_all, c_all) = planar.split_at(pairs);
    let mut t = 0usize;
    for block in x.chunks_exact_mut(block_size) {
        let (lo, hi) = block.split_at_mut(half);
        for (((xp, xq), s), c) in
            lo.iter_mut().zip(hi.iter_mut()).zip(&s_all[t..t + half]).zip(&c_all[t..t + half])
        {
            let p = *xp;
            let q = *xq;
            *xp = c * p - s * q;
            *xq = s * p + c * q;
        }
        t += half;
    }
}

/// Out-of-place variant of [`apply_rotation_stage_planar`].
#[inline]
pub fn apply_rotation_stage_into_planar(
    block_size: usize,
    planar: &[f32],
    src: &[f32],
    dst: &mut [f32],
) {
    // Not ISA-dispatched, for the same reason as
    // `apply_twiddle_stage_into_planar`.
    rotation_stage_into_planar_impl(block_size, planar, src, dst)
}

#[inline(always)]
fn rotation_stage_into_planar_impl(
    block_size: usize,
    planar: &[f32],
    src: &[f32],
    dst: &mut [f32],
) {
    let half = block_size / 2;
    let pairs = planar.len() / 2;
    let (s_all, c_all) = planar.split_at(pairs);
    let mut t = 0usize;
    for (sblock, dblock) in src.chunks_exact(block_size).zip(dst.chunks_exact_mut(block_size)) {
        let (slo, shi) = sblock.split_at(half);
        let (dlo, dhi) = dblock.split_at_mut(half);
        for ((((sp, sq), dp), dq), (s, c)) in slo
            .iter()
            .zip(shi)
            .zip(dlo.iter_mut())
            .zip(dhi.iter_mut())
            .zip(s_all[t..t + half].iter().zip(&c_all[t..t + half]))
        {
            *dp = c * sp - s * sq;
            *dq = s * sp + c * sq;
        }
        t += half;
    }
}

/// One in-place butterfly stage, as seen by the fused kernels.
///
/// Implemented by owned factors ([`ButterflyFactor`], [`OrthoFactor`]) and by
/// the borrowed views ([`TwiddleStage`], [`AngleStage`]) that the `&self`
/// inference path builds directly over parameter slices.
pub trait StageKernel: Sync {
    /// Applies the stage in place to one transform-width row.
    fn apply_row(&self, row: &mut [f32]);

    /// Applies the stage out of place: reads the input from `src`, writes
    /// the output to `dst` (every position written). Must be bit-identical
    /// to copying `src` into `dst` and calling [`StageKernel::apply_row`] —
    /// which is exactly what the default does; stage types override it to
    /// skip the copy.
    #[inline]
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]) {
        dst.copy_from_slice(src);
        self.apply_row(dst);
    }

    /// Scratch floats this stage's planar repack needs; `0` means the stage
    /// has no planar fast path and the `*_planar` methods fall back to the
    /// canonical storage.
    #[inline]
    fn planar_len(&self) -> usize {
        0
    }

    /// Writes the planar repack consumed by [`StageKernel::apply_row_planar`]
    /// into `dst` (`dst.len() == self.planar_len()`). Batched callers run
    /// this once per call so the per-row loops read contiguous coefficient
    /// planes (and rotation stages pay their `sin_cos` once, not per row).
    #[inline]
    fn repack_planar(&self, _dst: &mut [f32]) {}

    /// [`StageKernel::apply_row`] reading parameters from the planar repack;
    /// must be bit-identical to it.
    #[inline]
    fn apply_row_planar(&self, _planar: &[f32], row: &mut [f32]) {
        self.apply_row(row);
    }

    /// [`StageKernel::apply_row_into`] reading parameters from the planar
    /// repack; must be bit-identical to it.
    #[inline]
    fn apply_row_into_planar(&self, _planar: &[f32], src: &[f32], dst: &mut [f32]) {
        self.apply_row_into(src, dst);
    }
}

/// A stage that can also backpropagate, for the fused training path.
pub trait StageBackward: StageKernel {
    /// Length of the flat per-stage parameter-gradient accumulator.
    fn grad_len(&self) -> usize;
    /// Backward through the stage for one row: `x` is the cached stage
    /// input, `grad` is dL/d output on entry and dL/d input on exit,
    /// `grad_accum` accumulates flat parameter gradients.
    fn backward_row(&self, x: &[f32], grad: &mut [f32], grad_accum: &mut [f32]);
}

impl StageKernel for ButterflyFactor {
    #[inline]
    fn apply_row(&self, row: &mut [f32]) {
        apply_twiddle_stage(self.block_size, &self.twiddles, row);
    }
    #[inline]
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]) {
        apply_twiddle_stage_into(self.block_size, &self.twiddles, src, dst);
    }
    #[inline]
    fn planar_len(&self) -> usize {
        self.twiddles.len()
    }
    #[inline]
    fn repack_planar(&self, dst: &mut [f32]) {
        repack_twiddles_planar(&self.twiddles, dst);
    }
    #[inline]
    fn apply_row_planar(&self, planar: &[f32], row: &mut [f32]) {
        apply_twiddle_stage_planar(self.block_size, planar, row);
    }
    #[inline]
    fn apply_row_into_planar(&self, planar: &[f32], src: &[f32], dst: &mut [f32]) {
        apply_twiddle_stage_into_planar(self.block_size, planar, src, dst);
    }
}

impl StageBackward for ButterflyFactor {
    #[inline]
    fn grad_len(&self) -> usize {
        self.twiddles.len()
    }
    #[inline]
    fn backward_row(&self, x: &[f32], grad: &mut [f32], grad_accum: &mut [f32]) {
        self.backward_in_place(x, grad, grad_accum);
    }
}

impl StageKernel for OrthoFactor {
    #[inline]
    fn apply_row(&self, row: &mut [f32]) {
        apply_rotation_stage(self.block_size, &self.angles, row);
    }
    #[inline]
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]) {
        apply_rotation_stage_into(self.block_size, &self.angles, src, dst);
    }
    #[inline]
    fn planar_len(&self) -> usize {
        2 * self.angles.len()
    }
    #[inline]
    fn repack_planar(&self, dst: &mut [f32]) {
        repack_angles_planar(&self.angles, dst);
    }
    #[inline]
    fn apply_row_planar(&self, planar: &[f32], row: &mut [f32]) {
        apply_rotation_stage_planar(self.block_size, planar, row);
    }
    #[inline]
    fn apply_row_into_planar(&self, planar: &[f32], src: &[f32], dst: &mut [f32]) {
        apply_rotation_stage_into_planar(self.block_size, planar, src, dst);
    }
}

impl StageBackward for OrthoFactor {
    #[inline]
    fn grad_len(&self) -> usize {
        self.angles.len()
    }
    #[inline]
    fn backward_row(&self, x: &[f32], grad: &mut [f32], grad_accum: &mut [f32]) {
        self.backward_in_place(x, grad, grad_accum);
    }
}

/// A butterfly stage borrowing its flat twiddles straight from a parameter
/// slice — what lets `forward_inference(&self)` skip factor sync entirely.
pub struct TwiddleStage<'a> {
    /// Block width of the stage.
    pub block_size: usize,
    /// Borrowed flat twiddles (layout of [`ButterflyFactor::twiddles`]).
    pub twiddles: &'a [f32],
}

impl StageKernel for TwiddleStage<'_> {
    #[inline]
    fn apply_row(&self, row: &mut [f32]) {
        apply_twiddle_stage(self.block_size, self.twiddles, row);
    }
    #[inline]
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]) {
        apply_twiddle_stage_into(self.block_size, self.twiddles, src, dst);
    }
    #[inline]
    fn planar_len(&self) -> usize {
        self.twiddles.len()
    }
    #[inline]
    fn repack_planar(&self, dst: &mut [f32]) {
        repack_twiddles_planar(self.twiddles, dst);
    }
    #[inline]
    fn apply_row_planar(&self, planar: &[f32], row: &mut [f32]) {
        apply_twiddle_stage_planar(self.block_size, planar, row);
    }
    #[inline]
    fn apply_row_into_planar(&self, planar: &[f32], src: &[f32], dst: &mut [f32]) {
        apply_twiddle_stage_into_planar(self.block_size, planar, src, dst);
    }
}

/// A rotation stage borrowing its angles straight from a parameter slice.
pub struct AngleStage<'a> {
    /// Block width of the stage.
    pub block_size: usize,
    /// Borrowed rotation angles (one per mixed pair).
    pub angles: &'a [f32],
}

impl StageKernel for AngleStage<'_> {
    #[inline]
    fn apply_row(&self, row: &mut [f32]) {
        apply_rotation_stage(self.block_size, self.angles, row);
    }
    #[inline]
    fn apply_row_into(&self, src: &[f32], dst: &mut [f32]) {
        apply_rotation_stage_into(self.block_size, self.angles, src, dst);
    }
    #[inline]
    fn planar_len(&self) -> usize {
        2 * self.angles.len()
    }
    #[inline]
    fn repack_planar(&self, dst: &mut [f32]) {
        repack_angles_planar(self.angles, dst);
    }
    #[inline]
    fn apply_row_planar(&self, planar: &[f32], row: &mut [f32]) {
        apply_rotation_stage_planar(self.block_size, planar, row);
    }
    #[inline]
    fn apply_row_into_planar(&self, planar: &[f32], src: &[f32], dst: &mut [f32]) {
        apply_rotation_stage_into_planar(self.block_size, planar, src, dst);
    }
}

/// Gathers `src` through the permutation into `dst`, zero-filling positions
/// that map past the input width. Bit-identical to zero-padding to width
/// `dst.len()` and then permuting, without materialising the padded row.
#[inline]
fn load_permuted(dst: &mut [f32], src: &[f32], map: &[u32]) {
    let in_dim = src.len();
    for (d, &j) in dst.iter_mut().zip(map) {
        let j = j as usize;
        *d = if j < in_dim { src[j] } else { 0.0 };
    }
}

/// Repacks every stage's planar coefficients into one scratch buffer
/// (stage slices packed back to back in stage order; walk with
/// [`StageKernel::planar_len`]). Return the buffer with `scratch.put`.
fn repack_stages<S: StageKernel>(stages: &[S], scratch: &mut Scratch) -> Vec<f32> {
    let total: usize = stages.iter().map(|s| s.planar_len()).sum();
    let mut planar = scratch.take(total);
    let mut off = 0;
    for stage in stages {
        let l = stage.planar_len();
        stage.repack_planar(&mut planar[off..off + l]);
        off += l;
    }
    planar
}

/// Fused inference forward: pad → permute → stages → crop + bias in one
/// parallel pass over row blocks.
///
/// `input` is `batch x in_dim` with `in_dim <= perm.len()`; `bias` has the
/// output width. The only allocation is the returned matrix — the working
/// rows come from (and return to) `scratch`.
pub fn fused_forward<S: StageKernel>(
    input: &Matrix,
    perm: &Permutation,
    stages: &[S],
    bias: &[f32],
    scratch: &mut Scratch,
) -> Matrix {
    let n = perm.len();
    let in_dim = input.cols();
    let out_dim = bias.len();
    let batch = input.rows();
    assert!(in_dim <= n && out_dim <= n, "transform width must cover both layer widths");
    let map = perm.map();
    let mut out = Matrix::zeros(batch, out_dim);
    if batch == 0 {
        return out;
    }
    let nblocks = batch.div_ceil(ROW_BLOCK);
    let mut work = scratch.take(nblocks * n);
    let use_planar = batch >= PLANAR_MIN_BATCH;
    let planar = if use_planar { repack_stages(stages, scratch) } else { scratch.take(0) };
    let planar_ref: &[f32] = &planar;
    out.as_mut_slice()
        .par_chunks_mut(ROW_BLOCK * out_dim)
        .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
        .zip(work.par_chunks_mut(n))
        .for_each(|((oblock, iblock), row)| {
            for (orow, irow) in oblock.chunks_mut(out_dim).zip(iblock.chunks(in_dim)) {
                load_permuted(row, irow, map);
                if use_planar {
                    let mut off = 0;
                    for stage in stages {
                        let l = stage.planar_len();
                        stage.apply_row_planar(&planar_ref[off..off + l], row);
                        off += l;
                    }
                } else {
                    for stage in stages {
                        stage.apply_row(row);
                    }
                }
                for ((o, v), b) in orow.iter_mut().zip(row.iter()).zip(bias) {
                    *o = v + b;
                }
            }
        });
    scratch.put(planar);
    scratch.put(work);
    out
}

/// Fused training forward: same single pass as [`fused_forward`], but each
/// stage's *input* row is recorded into `arena` for the backward pass.
///
/// `arena` is caller-owned and laid out `[row block][stage][row][n]`: each
/// `ROW_BLOCK`-row block owns a contiguous chunk holding one slab per stage,
/// so the backward pass can sweep a stage's cached inputs contiguously. It
/// is resized in place, so across steps of equal batch size it is written
/// without reallocating — this replaces the per-stage full-matrix `clone()`
/// of the unfused path.
pub fn fused_forward_train<S: StageKernel>(
    input: &Matrix,
    perm: &Permutation,
    stages: &[S],
    bias: &[f32],
    arena: &mut Vec<f32>,
    scratch: &mut Scratch,
) -> Matrix {
    let n = perm.len();
    let in_dim = input.cols();
    let out_dim = bias.len();
    let batch = input.rows();
    let nstages = stages.len();
    assert!(in_dim <= n && out_dim <= n, "transform width must cover both layer widths");
    assert!(nstages >= 1, "butterfly transforms have at least one stage");
    let map = perm.map();
    let mut out = Matrix::zeros(batch, out_dim);
    arena.resize(batch * nstages * n, 0.0);
    if batch == 0 {
        return out;
    }
    let nblocks = batch.div_ceil(ROW_BLOCK);
    let mut work = scratch.take(nblocks * n);
    let use_planar = batch >= PLANAR_MIN_BATCH;
    let planar = if use_planar { repack_stages(stages, scratch) } else { scratch.take(0) };
    let planar_ref: &[f32] = &planar;
    out.as_mut_slice()
        .par_chunks_mut(ROW_BLOCK * out_dim)
        .zip(input.as_slice().par_chunks(ROW_BLOCK * in_dim))
        .zip(arena.as_mut_slice().par_chunks_mut(ROW_BLOCK * nstages * n))
        .zip(work.par_chunks_mut(n))
        .for_each(|(((oblock, iblock), ablock), row)| {
            let brows = ablock.len() / (nstages * n);
            for (r, (orow, irow)) in
                oblock.chunks_mut(out_dim).zip(iblock.chunks(in_dim)).enumerate()
            {
                let base = r * n;
                load_permuted(&mut ablock[base..base + n], irow, map);
                // Stage slab s of this block holds the inputs to stage s:
                // each stage reads its row from slab s and writes straight
                // into slab s+1 (no separate copy pass). The final stage
                // writes to the scratch row so its cached input survives
                // for backward.
                let last = nstages - 1;
                let mut off = 0;
                for (s, stage) in stages.iter().enumerate() {
                    let slab = s * brows * n + base;
                    if s < last {
                        let (head, tail) = ablock.split_at_mut((s + 1) * brows * n);
                        let (src, dst) = (&head[slab..slab + n], &mut tail[base..base + n]);
                        if use_planar {
                            let l = stage.planar_len();
                            stage.apply_row_into_planar(&planar_ref[off..off + l], src, dst);
                            off += l;
                        } else {
                            stage.apply_row_into(src, dst);
                        }
                    } else if use_planar {
                        let l = stage.planar_len();
                        stage.apply_row_into_planar(
                            &planar_ref[off..off + l],
                            &ablock[slab..slab + n],
                            row,
                        );
                    } else {
                        stage.apply_row_into(&ablock[slab..slab + n], row);
                    }
                }
                for ((o, v), b) in orow.iter_mut().zip(row.iter()).zip(bias) {
                    *o = v + b;
                }
            }
        });
    scratch.put(planar);
    scratch.put(work);
    out
}

/// Fused backward through the stages and permutation, consuming the arena
/// written by [`fused_forward_train`].
///
/// `grad_output` is dL/d(cropped output); the bias gradient is the caller's
/// (a column sum, independent of the stages). Per-stage flat parameter
/// gradients are handed to `accumulate(stage_index, flat_grads)` in reverse
/// stage order; the return value is dL/d input (`batch x in_dim`).
///
/// The sweep is stage-major *within each row block*: a stage's cached
/// inputs sit in one contiguous arena slab, the block's grad rows stay
/// cache-resident across the `log n` stages, and the stage's flat
/// accumulator stays L1-hot through the inner row loop. Rows are
/// independent, and each stage's accumulator receives its row contributions
/// in ascending row order (blocks are walked in order), so the result is
/// bit-identical to the whole-matrix stage-major order of the unfused
/// implementation.
pub fn fused_backward<S: StageBackward>(
    grad_output: &Matrix,
    perm: &Permutation,
    stages: &[S],
    arena: &[f32],
    in_dim: usize,
    mut accumulate: impl FnMut(usize, &[f32]),
) -> Matrix {
    let n = perm.len();
    let nstages = stages.len();
    let batch = grad_output.rows();
    assert_eq!(arena.len(), batch * nstages * n, "arena does not match this batch");
    let mut g = grad_output.zero_pad(batch, n);
    // One flat accumulator per stage, packed back to back.
    let offsets: Vec<usize> = stages
        .iter()
        .scan(0usize, |acc, s| {
            let o = *acc;
            *acc += s.grad_len();
            Some(o)
        })
        .collect();
    let total: usize = stages.iter().map(|s| s.grad_len()).sum();
    let mut gt = vec![0.0f32; total];
    for (gblock, ablock) in
        g.as_mut_slice().chunks_mut(ROW_BLOCK * n).zip(arena.chunks(ROW_BLOCK * nstages * n))
    {
        let brows = ablock.len() / (nstages * n);
        for (s, stage) in stages.iter().enumerate().rev() {
            let gl = stage.grad_len();
            let slab = &ablock[s * brows * n..(s + 1) * brows * n];
            let gts = &mut gt[offsets[s]..offsets[s] + gl];
            for (grow, xrow) in gblock.chunks_mut(n).zip(slab.chunks(n)) {
                stage.backward_row(xrow, grow, gts);
            }
        }
    }
    for (s, stage) in stages.iter().enumerate().rev() {
        accumulate(s, &gt[offsets[s]..offsets[s] + stage.grad_len()]);
    }
    let g = perm.inverse().apply_to_rows(&g);
    g.submatrix(0, 0, batch, in_dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butterfly::Butterfly;
    use bfly_tensor::seeded_rng;

    /// The fused pass must reproduce the step-by-step reference exactly:
    /// pad, permute, per-stage apply, crop + bias.
    fn reference_forward(b: &Butterfly, input: &Matrix, bias: &[f32]) -> Matrix {
        let n = b.n();
        let batch = input.rows();
        let padded = input.zero_pad(batch, n);
        let mut y = b.perm.apply_to_rows(&padded);
        for f in &b.factors {
            y.as_mut_slice().chunks_mut(n).for_each(|row| f.apply_in_place(row));
        }
        let mut out = Matrix::zeros(batch, bias.len());
        for r in 0..batch {
            for (o, (v, bb)) in out.row_mut(r).iter_mut().zip(y.row(r).iter().zip(bias)) {
                *o = v + bb;
            }
        }
        out
    }

    #[test]
    fn fused_forward_is_bit_identical_to_reference() {
        let mut rng = seeded_rng(71);
        let b = Butterfly::random(16, &mut rng);
        let bias: Vec<f32> = (0..7).map(|i| i as f32 * 0.1).collect();
        // Ragged: 11 input columns, 7 outputs, batch crossing a block edge.
        let x = Matrix::random_uniform(37, 11, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let fused = fused_forward(&x, &b.perm, &b.factors, &bias, &mut scratch);
        let reference = reference_forward(&b, &x, &bias);
        assert_eq!(fused.as_slice(), reference.as_slice());
    }

    #[test]
    fn train_variant_matches_inference_and_fills_arena() {
        let mut rng = seeded_rng(72);
        let b = Butterfly::random(8, &mut rng);
        let bias = vec![0.0f32; 8];
        let x = Matrix::random_uniform(5, 8, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let mut arena = Vec::new();
        let via_train =
            fused_forward_train(&x, &b.perm, &b.factors, &bias, &mut arena, &mut scratch);
        let via_infer = fused_forward(&x, &b.perm, &b.factors, &bias, &mut scratch);
        assert_eq!(via_train.as_slice(), via_infer.as_slice());
        assert_eq!(arena.len(), 5 * b.stages() * 8);
        // Arena slot 0 of row 0 must be the permuted input row.
        let expect: Vec<f32> = b.perm.map().iter().map(|&j| x.row(0)[j as usize]).collect();
        assert_eq!(&arena[..8], expect.as_slice());
    }

    #[test]
    fn fused_backward_matches_cached_reference() {
        let mut rng = seeded_rng(73);
        let b = Butterfly::random(8, &mut rng);
        let bias = vec![0.0f32; 8];
        let x = Matrix::random_uniform(3, 8, 1.0, &mut rng);
        let mut scratch = Scratch::new();
        let mut arena = Vec::new();
        let y = fused_forward_train(&x, &b.perm, &b.factors, &bias, &mut arena, &mut scratch);

        let mut fused_gt: Vec<Vec<f32>> =
            b.factors.iter().map(|f| vec![0.0f32; f.twiddles.len()]).collect();
        let gx = fused_backward(&y, &b.perm, &b.factors, &arena, 8, |s, flat| {
            for (acc, v) in fused_gt[s].iter_mut().zip(flat) {
                *acc += v;
            }
        });

        // Reference: per-row forward_cached / backward_cached.
        let mut ref_gt: Vec<Vec<f32>> =
            b.factors.iter().map(|f| vec![0.0f32; f.twiddles.len()]).collect();
        for r in 0..3 {
            let (_, cache) = b.forward_cached(x.row(r));
            let gx_row = b.backward_cached(&cache, y.row(r), &mut ref_gt);
            for (a, e) in gx.row(r).iter().zip(&gx_row) {
                assert!((a - e).abs() < 1e-5, "{a} vs {e}");
            }
        }
        for (f_gt, r_gt) in fused_gt.iter().zip(&ref_gt) {
            for (a, e) in f_gt.iter().zip(r_gt) {
                assert!((a - e).abs() < 1e-4, "{a} vs {e}");
            }
        }
    }
}
