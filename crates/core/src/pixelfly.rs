//! Pixelated butterfly ("pixelfly", paper §2.3.2, after Chen et al. 2021).
//!
//! Pixelfly approximates the butterfly *product* by a *sum* of butterfly
//! factors (flat butterfly — one fused sparse matrix instead of `log n`
//! dependent stages), aligns the sparsity pattern to `b x b` blocks (block
//! butterfly — matching a dense accelerator's block data access), and adds a
//! low-rank correction term:
//!
//! `y = W_flat-block x + U (V x) + bias`
//!
//! Configuration mirrors the paper's Table 5 sweep: block size, butterfly
//! size (how many butterfly factors the flattened support includes), and
//! low-rank size.

use crate::block_sparse::BlockSparseMatrix;
use crate::kernels::block::{
    fused_block_backward, fused_block_forward, fused_block_forward_train, BlockCsr, BlockGrads,
    LowRankRef, PackedBlocks,
};
use bfly_nn::{Layer, Param};
use bfly_tensor::matmul::matmul;
use bfly_tensor::{LinOp, Matrix, Scratch};
use rand::Rng;
use std::fmt;

/// Pixelfly hyperparameters (paper §2.3.2: "the size for the low-rank
/// decomposition, the block size and the butterfly size").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelflyConfig {
    /// Side length of the dense blocks the pattern is aligned to.
    pub block_size: usize,
    /// Butterfly size: the flattened support includes `log2(butterfly_size)`
    /// butterfly factors (2 = nearest-neighbour only, up to `n / block_size`).
    pub butterfly_size: usize,
    /// Rank of the additive low-rank term (0 disables it).
    pub rank: usize,
}

impl PixelflyConfig {
    /// The configuration used for the Table 4 comparison. Decoded from the
    /// paper's reported N_Params = 404,490 at n = 1024, which factors
    /// *exactly* as `32*(1 + log2 8)` blocks of `32 x 32` (131,072) plus a
    /// rank-128 term (262,144) plus bias (1,024) plus the 1024 -> 10
    /// classifier (10,250): block size 32, butterfly size 8, rank 128.
    /// The maximal rank also matches §5's recommendation to "set the low
    /// rank size to the maximum" for accuracy.
    pub fn paper_default() -> Self {
        Self { block_size: 32, butterfly_size: 8, rank: 128 }
    }
}

/// Construction-time errors. `NotPowerOfTwo` reproduces the paper's
/// observation that "the pixelfly approach did not work on the MNIST dataset
/// due to the requirements of the matrix sizes being a power of two".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PixelflyError {
    /// The layer dimension is not a power of two.
    NotPowerOfTwo {
        /// The offending dimension.
        dim: usize,
    },
    /// Pixelfly requires a square layer.
    NotSquare {
        /// Input dimension.
        in_dim: usize,
        /// Output dimension.
        out_dim: usize,
    },
    /// Block size must divide the dimension and be a power of two.
    BadBlockSize {
        /// The offending block size.
        block_size: usize,
        /// The layer dimension.
        dim: usize,
    },
    /// Butterfly size must be a power of two in `[2, dim / block_size]`.
    BadButterflySize {
        /// The offending butterfly size.
        butterfly_size: usize,
        /// Number of blocks per side.
        grid: usize,
    },
}

impl fmt::Display for PixelflyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PixelflyError::NotPowerOfTwo { dim } => {
                write!(f, "pixelfly requires a power-of-two dimension, got {dim}")
            }
            PixelflyError::NotSquare { in_dim, out_dim } => {
                write!(f, "pixelfly requires a square layer, got {in_dim} -> {out_dim}")
            }
            PixelflyError::BadBlockSize { block_size, dim } => {
                write!(f, "block size {block_size} invalid for dimension {dim}")
            }
            PixelflyError::BadButterflySize { butterfly_size, grid } => {
                write!(f, "butterfly size {butterfly_size} invalid for a {grid}-block grid")
            }
        }
    }
}

impl std::error::Error for PixelflyError {}

/// Builds the flat-block-butterfly block support on a `grid x grid` block
/// grid: the diagonal plus, for each included butterfly factor `t`, the
/// pairs `(i, i XOR 2^t)`. Returned sorted and duplicate-free.
pub fn flat_butterfly_mask(grid: usize, butterfly_size: usize) -> Vec<(u32, u32)> {
    assert!(grid.is_power_of_two() && grid >= 1);
    assert!(butterfly_size.is_power_of_two() && butterfly_size >= 2 && butterfly_size <= grid);
    let stages = butterfly_size.trailing_zeros();
    let mut blocks = Vec::with_capacity(grid * (1 + stages as usize));
    for i in 0..grid as u32 {
        blocks.push((i, i));
        for t in 0..stages {
            blocks.push((i, i ^ (1 << t)));
        }
    }
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

/// The pixelfly layer: flat block butterfly + low-rank + bias.
pub struct PixelflyLayer {
    dim: usize,
    config: PixelflyConfig,
    /// The sorted block coordinates of the (static) sparsity pattern.
    coords: Vec<(u32, u32)>,
    /// CSR-of-blocks view of the pattern, built once at construction — the
    /// fused kernels' hot-path layout.
    csr: BlockCsr,
    /// The block payload (row-major per block, CSR order); the backward
    /// reads it directly.
    sparse_param: Param,
    /// `sparse_param`'s values in the forward kernels' layout, re-packed
    /// once per weight update (see [`PixelflyLayer::sync_sparse`]).
    packed: PackedBlocks,
    /// Low-rank factors; `u` is `dim x rank`, `v` is `rank x dim`.
    u: Param,
    v: Param,
    bias: Param,
    cached_input: Option<Matrix>,
    cached_vx: Option<Matrix>,
    /// Scratch for the owned (`&mut self`) forward/backward paths; the
    /// `&self` inference path uses the caller's.
    scratch: Scratch,
}

impl fmt::Debug for PixelflyLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PixelflyLayer")
            .field("dim", &self.dim)
            .field("config", &self.config)
            .field("nnz_blocks", &self.csr.nnz_blocks())
            .finish_non_exhaustive()
    }
}

impl PixelflyLayer {
    /// Creates a pixelfly layer, validating the power-of-two and square
    /// requirements the paper documents.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        config: PixelflyConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, PixelflyError> {
        if in_dim != out_dim {
            return Err(PixelflyError::NotSquare { in_dim, out_dim });
        }
        let dim = in_dim;
        if !dim.is_power_of_two() {
            return Err(PixelflyError::NotPowerOfTwo { dim });
        }
        let b = config.block_size;
        if b == 0 || !b.is_power_of_two() || b > dim {
            return Err(PixelflyError::BadBlockSize { block_size: b, dim });
        }
        let grid = dim / b;
        if !config.butterfly_size.is_power_of_two()
            || config.butterfly_size < 2
            || config.butterfly_size > grid
        {
            return Err(PixelflyError::BadButterflySize {
                butterfly_size: config.butterfly_size,
                grid,
            });
        }
        let blocks = flat_butterfly_mask(grid, config.butterfly_size);
        let sparse = BlockSparseMatrix::random(dim, dim, b, blocks, rng);
        let csr = sparse.csr();
        let sparse_param = Param::new("pixelfly.blocks", sparse.data().to_vec());
        let r = config.rank;
        let lr_scale = if r > 0 { 1.0 / ((dim * r) as f32).sqrt() } else { 0.0 };
        let u: Vec<f32> = (0..dim * r).map(|_| rng.gen_range(-lr_scale..=lr_scale)).collect();
        let v: Vec<f32> = (0..r * dim).map(|_| rng.gen_range(-lr_scale..=lr_scale)).collect();
        // The matrix's own payload buffer becomes the packed copy.
        let (coords, payload) = sparse.into_parts();
        let packed = PackedBlocks::new(&csr, payload);
        Ok(Self {
            dim,
            config,
            coords,
            csr,
            sparse_param,
            packed,
            u: Param::new("pixelfly.u", u),
            v: Param::new("pixelfly.v", v),
            bias: Param::new("pixelfly.bias", vec![0.0; dim]),
            cached_input: None,
            cached_vx: None,
            scratch: Scratch::new(),
        })
    }

    /// The layer configuration.
    pub fn config(&self) -> PixelflyConfig {
        self.config
    }

    /// Number of stored blocks in the flat-block-butterfly term.
    pub fn nnz_blocks(&self) -> usize {
        self.csr.nnz_blocks()
    }

    /// Materialises the effective dense weight (block-sparse + low-rank)
    /// from the current parameter values.
    pub fn effective_weight(&self) -> Matrix {
        let b = self.config.block_size;
        let mut sparse = BlockSparseMatrix::zeros(self.dim, self.dim, b, self.coords.clone());
        sparse.data_mut().copy_from_slice(&self.sparse_param.value);
        let mut w = sparse.to_dense();
        if self.config.rank > 0 {
            let u = Matrix::from_vec(self.dim, self.config.rank, self.u.value.clone());
            let v = Matrix::from_vec(self.config.rank, self.dim, self.v.value.clone());
            w.axpy(1.0, &matmul(&u, &v));
        }
        w
    }

    /// Dirty-gated re-pack of the flat block parameter into the forward
    /// kernels' layout: once per weight update, not once per call.
    fn sync_sparse(&mut self) {
        if self.sparse_param.take_dirty() {
            self.packed.repack(&self.sparse_param.value);
        }
    }

    /// Borrowed low-rank factors for the fused kernels (`None` at rank 0).
    fn lowrank(&self) -> Option<LowRankRef<'_>> {
        (self.config.rank > 0).then(|| LowRankRef {
            u: &self.u.value,
            v: &self.v.value,
            rank: self.config.rank,
        })
    }

    /// The shared inference arithmetic: one fused block-sparse + low-rank +
    /// bias pass. Reads `u` / `v` / `bias` straight from parameter storage
    /// and assumes `packed` is already in sync (true at construction and
    /// after any `forward`).
    fn affine(&self, input: &Matrix, scratch: &mut Scratch) -> Matrix {
        fused_block_forward(
            &self.csr,
            &self.packed,
            self.lowrank(),
            Some(&self.bias.value),
            input,
            scratch,
        )
    }
}

impl Layer for PixelflyLayer {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        assert_eq!(input.cols(), self.dim, "PixelflyLayer input dim mismatch");
        self.sync_sparse();
        let mut scratch = std::mem::take(&mut self.scratch);
        if !train {
            let y = self.affine(input, &mut scratch);
            self.scratch = scratch;
            return y;
        }
        let (y, vx) = fused_block_forward_train(
            &self.csr,
            &self.packed,
            self.lowrank(),
            Some(&self.bias.value),
            input,
            &mut scratch,
        );
        self.scratch = scratch;
        self.cached_vx = vx;
        self.cached_input = Some(input.clone());
        y
    }

    fn forward_inference(&self, input: &Matrix, scratch: &mut Scratch) -> Matrix {
        assert_eq!(input.cols(), self.dim, "PixelflyLayer input dim mismatch");
        self.affine(input, scratch)
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .take()
            .expect("PixelflyLayer::backward called without a training-mode forward");
        assert_eq!(grad_output.cols(), self.dim, "PixelflyLayer grad dim mismatch");
        assert!(!self.bias.is_frozen(), "PixelflyLayer::backward on frozen parameters");
        // Every gradient accumulates straight into its parameter's buffer.
        for row in grad_output.rows_iter() {
            for (d, g) in self.bias.grad.iter_mut().zip(row) {
                *d += g;
            }
        }
        // Fused block-sparse + low-rank backward: payload, U and V
        // gradients plus dX in one call.
        let lowrank = (self.config.rank > 0).then(|| LowRankRef {
            u: &self.u.value,
            v: &self.v.value,
            rank: self.config.rank,
        });
        let vx = self.cached_vx.take();
        fused_block_backward(
            &self.csr,
            &self.sparse_param.value,
            lowrank,
            &input,
            vx.as_ref(),
            grad_output,
            BlockGrads {
                payload: &mut self.sparse_param.grad,
                u: &mut self.u.grad,
                v: &mut self.v.grad,
            },
            &mut self.scratch,
        )
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![&mut self.sparse_param];
        if self.config.rank > 0 {
            ps.push(&mut self.u);
            ps.push(&mut self.v);
        }
        ps.push(&mut self.bias);
        ps
    }

    fn param_count(&self) -> usize {
        self.sparse_param.len()
            + if self.config.rank > 0 { self.u.len() + self.v.len() } else { 0 }
            + self.bias.len()
    }

    fn name(&self) -> &str {
        "pixelfly"
    }

    fn trace(&self, batch: usize) -> Vec<LinOp> {
        let mut ops = vec![LinOp::BlockSpMM {
            m: self.dim,
            k: self.dim,
            n: batch,
            block: self.config.block_size,
            nnz_blocks: self.csr.nnz_blocks(),
        }];
        if self.config.rank > 0 {
            // Two dense matmuls for the low-rank term plus the residual add.
            ops.push(LinOp::MatMul { m: batch, k: self.dim, n: self.config.rank });
            ops.push(LinOp::MatMul { m: batch, k: self.config.rank, n: self.dim });
            ops.push(LinOp::Elementwise { n: batch * self.dim, flops_per_elem: 1 });
        }
        ops.push(LinOp::Elementwise { n: batch * self.dim, flops_per_elem: 1 });
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_tensor::matmul::matmul_a_bt;
    use bfly_tensor::seeded_rng;

    #[test]
    fn mask_includes_diagonal_and_neighbours() {
        let mask = flat_butterfly_mask(8, 4);
        // stages = 2 -> neighbours at XOR 1 and XOR 2.
        assert!(mask.contains(&(0, 0)));
        assert!(mask.contains(&(0, 1)));
        assert!(mask.contains(&(0, 2)));
        assert!(!mask.contains(&(0, 4)));
        assert_eq!(mask.len(), 8 * 3); // diagonal + 2 off-diagonals per row
    }

    #[test]
    fn mask_is_symmetric() {
        let mask = flat_butterfly_mask(16, 8);
        for &(i, j) in &mask {
            assert!(mask.contains(&(j, i)), "({i},{j}) present but not mirrored");
        }
    }

    #[test]
    fn full_butterfly_size_connects_all_xor_powers() {
        let mask = flat_butterfly_mask(8, 8);
        assert_eq!(mask.len(), 8 * 4); // diagonal + log2(8)=3 neighbours
        assert!(mask.contains(&(0, 4)));
    }

    #[test]
    fn rejects_non_power_of_two_dimension() {
        let mut rng = seeded_rng(51);
        // 784 = the MNIST case from the paper.
        let err = PixelflyLayer::new(784, 784, PixelflyConfig::paper_default(), &mut rng)
            .expect_err("must reject");
        assert_eq!(err, PixelflyError::NotPowerOfTwo { dim: 784 });
    }

    #[test]
    fn rejects_rectangular_layers() {
        let mut rng = seeded_rng(52);
        let err = PixelflyLayer::new(64, 128, PixelflyConfig::paper_default(), &mut rng)
            .expect_err("must reject");
        assert!(matches!(err, PixelflyError::NotSquare { .. }));
    }

    #[test]
    fn rejects_bad_butterfly_size() {
        let mut rng = seeded_rng(53);
        let config = PixelflyConfig { block_size: 16, butterfly_size: 64, rank: 4 };
        // grid = 64/16 = 4 < butterfly_size 64.
        let err = PixelflyLayer::new(64, 64, config, &mut rng).expect_err("must reject");
        assert!(matches!(err, PixelflyError::BadButterflySize { .. }));
    }

    #[test]
    fn forward_matches_effective_weight() {
        let mut rng = seeded_rng(54);
        let config = PixelflyConfig { block_size: 4, butterfly_size: 4, rank: 3 };
        let mut layer = PixelflyLayer::new(32, 32, config, &mut rng).expect("valid");
        let x = Matrix::random_uniform(5, 32, 1.0, &mut rng);
        let y = layer.forward(&x, false);
        let w = layer.effective_weight();
        let expect = matmul_a_bt(&x, &w);
        assert!(y.relative_error(&expect) < 1e-4);
    }

    #[test]
    fn param_count_formula() {
        let mut rng = seeded_rng(55);
        let config = PixelflyConfig { block_size: 16, butterfly_size: 16, rank: 128 };
        let layer = PixelflyLayer::new(1024, 1024, config, &mut rng).expect("valid");
        let grid = 1024 / 16;
        let nnz_blocks = grid * (1 + 4); // log2(16) = 4 factors
        let expect = nnz_blocks * 16 * 16 + 2 * 1024 * 128 + 1024;
        assert_eq!(layer.param_count(), expect);
        assert_eq!(layer.nnz_blocks(), nnz_blocks);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = seeded_rng(56);
        let config = PixelflyConfig { block_size: 2, butterfly_size: 2, rank: 2 };
        let mut layer = PixelflyLayer::new(8, 8, config, &mut rng).expect("valid");
        let x = Matrix::random_uniform(3, 8, 1.0, &mut rng);
        let y = layer.forward(&x, true);
        let gx = layer.backward(&y.clone());
        // Input gradient against the dense formula.
        let w = layer.effective_weight();
        let expect_gx = matmul(&y, &w);
        assert!(gx.relative_error(&expect_gx) < 1e-4);
        // Parameter grads (blocks, u, v, bias) numerically.
        bfly_nn::check_gradients(&mut layer, &x, 1e-3, 3e-2);
    }

    #[test]
    fn inference_path_is_bit_identical_to_eval_forward() {
        let mut rng = seeded_rng(58);
        let config = PixelflyConfig { block_size: 4, butterfly_size: 4, rank: 3 };
        let mut layer = PixelflyLayer::new(32, 32, config, &mut rng).expect("valid");
        let x = Matrix::random_uniform(5, 32, 1.0, &mut rng);
        let via_eval = layer.forward(&x, false);
        let mut scratch = Scratch::new();
        let via_inference = layer.forward_inference(&x, &mut scratch);
        assert_eq!(via_eval.as_slice(), via_inference.as_slice());
    }

    #[test]
    fn rank_zero_disables_low_rank_term() {
        let mut rng = seeded_rng(57);
        let config = PixelflyConfig { block_size: 4, butterfly_size: 4, rank: 0 };
        let mut layer = PixelflyLayer::new(16, 16, config, &mut rng).expect("valid");
        assert_eq!(layer.params().len(), 2); // blocks + bias
        let x = Matrix::random_uniform(2, 16, 1.0, &mut rng);
        let y = layer.forward(&x, true);
        // Rank-0 training must still propagate gradients: dX = dY W.
        let gx = layer.backward(&y.clone());
        let expect_gx = matmul(&y, &layer.effective_weight());
        assert!(expect_gx.as_slice().iter().any(|v| *v != 0.0), "degenerate reference");
        assert!(gx.relative_error(&expect_gx) < 1e-4);
        bfly_nn::check_gradients(&mut layer, &x, 1e-3, 3e-2);
    }
}
