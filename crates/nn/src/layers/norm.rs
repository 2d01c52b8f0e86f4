//! Layer normalization.

use crate::{Module, Param, Tape, Var};
use heatvit_tensor::{mean_var, Tensor};
use std::ops::Range;

/// Layer normalization over the channel (last) dimension with a learnable
/// affine transform.
///
/// In the HeatViT accelerator this is the one component executed on the ARM
/// CPU rather than the FPGA fabric ("less time consuming but more complex to
/// implement", paper Section V); the simulator charges it accordingly.
///
/// # Examples
///
/// ```
/// use heatvit_nn::layers::LayerNorm;
/// use heatvit_tensor::Tensor;
///
/// let ln = LayerNorm::new(4);
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
/// let y = ln.infer(&x);
/// // Unit-affine LayerNorm output has zero mean and unit variance per row.
/// assert!(y.mean_all().abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
    dim: usize,
}

impl LayerNorm {
    /// Default variance stabilizer, matching PyTorch's `LayerNorm`.
    pub const DEFAULT_EPS: f32 = 1e-5;

    /// Creates a layer with `gamma = 1`, `beta = 0`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(format!("layernorm[{dim}].gamma"), Tensor::ones(&[dim])),
            beta: Param::new(format!("layernorm[{dim}].beta"), Tensor::zeros(&[dim])),
            eps: Self::DEFAULT_EPS,
            dim,
        }
    }

    /// Normalized width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Differentiable forward.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]`.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        assert_eq!(tape.dims(x)[1], self.dim, "layernorm width mismatch");
        let g = tape.param(&self.gamma);
        let b = tape.param(&self.beta);
        tape.layer_norm(x, g, b, self.eps)
    }

    /// Inference forward (no tape).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]`.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        self.infer_into(x, &mut out);
        out
    }

    /// [`LayerNorm::infer`] writing into a caller-provided output tensor
    /// (reshaped in place, values bit-identical to the allocating path).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]`.
    pub fn infer_into(&self, x: &Tensor, out: &mut Tensor) {
        self.infer_rows_into(x, 0..x.dim(0), out);
    }

    /// [`LayerNorm::infer_into`] of the rows `rows` of `x` alone, into `out`
    /// `[rows.len(), dim]`. The norm is row-wise, so each row has the bits
    /// the whole-matrix path gives it.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]` or `rows` reaches past row `N`.
    pub fn infer_rows_into(&self, x: &Tensor, rows: Range<usize>, out: &mut Tensor) {
        assert_eq!(x.dim(1), self.dim, "layernorm width mismatch");
        out.reset_unspecified(&[rows.len(), self.dim]);
        for (o, r) in rows.enumerate() {
            self.normalize_row(x.row(r), out.row_mut(o));
        }
    }

    /// One row of [`LayerNorm::infer_into`]: the arithmetic every inference
    /// path shares.
    fn normalize_row(&self, x: &[f32], out: &mut [f32]) {
        let (mean, var) = mean_var(x);
        let inv_std = 1.0 / (var + self.eps).sqrt();
        let g = self.gamma.value().data();
        let b = self.beta.value().data();
        for (((o, &v), &g), &b) in out.iter_mut().zip(x).zip(g).zip(b) {
            *o = (v - mean) * inv_std * g + b;
        }
    }

    /// Streams the normalized rows of `x` through `consume` in tiles of up
    /// to `rows_per_tile` rows, without materializing the full `[N, dim]`
    /// output.
    ///
    /// `consume(r0, nr, tile)` receives the first row index, the number of
    /// rows in this tile, and `nr` contiguous normalized rows. `tile_buf` is
    /// the staging buffer (resized in place, reused across calls). The
    /// per-element arithmetic is exactly that of [`LayerNorm::infer_into`],
    /// so fused consumers see bit-identical values — this is the entry point
    /// of the fused layer-norm + projection paths, which feed each tile
    /// straight into the packed GEMM microkernel instead of round-tripping
    /// the normalized activations through a `[N, dim]` temporary.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]` or `rows_per_tile` is zero.
    pub fn infer_tiles<F>(
        &self,
        x: &Tensor,
        rows_per_tile: usize,
        tile_buf: &mut Vec<f32>,
        mut consume: F,
    ) where
        F: FnMut(usize, usize, &[f32]),
    {
        assert_eq!(x.dim(1), self.dim, "layernorm width mismatch");
        assert!(rows_per_tile > 0, "tile height must be positive");
        let (rows, cols) = (x.dim(0), x.dim(1));
        tile_buf.resize(rows_per_tile * cols, 0.0);
        for r0 in (0..rows).step_by(rows_per_tile) {
            let nr = rows_per_tile.min(rows - r0);
            for (r, trow) in tile_buf.chunks_exact_mut(cols).take(nr).enumerate() {
                self.normalize_row(x.row(r0 + r), trow);
            }
            consume(r0, nr, &tile_buf[..nr * cols]);
        }
    }
}

impl Module for LayerNorm {
    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_rows() {
        let ln = LayerNorm::new(8);
        let x = Tensor::from_fn(&[3, 8], |ix| (ix[0] * 8 + ix[1]) as f32);
        let y = ln.infer(&x);
        for r in 0..3 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-3);
        }
    }

    #[test]
    fn forward_matches_infer() {
        let ln = LayerNorm::new(5);
        let x = Tensor::from_fn(&[2, 5], |ix| ix[1] as f32 * 0.7 - 1.0);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = ln.forward(&mut tape, xv);
        assert!(tape.value(y).allclose(&ln.infer(&x), 1e-6));
    }

    #[test]
    fn constant_row_maps_to_beta() {
        let ln = LayerNorm::new(4);
        let x = Tensor::full(&[1, 4], 5.0);
        let y = ln.infer(&x);
        // Zero variance → x̂ = 0 → output = beta = 0.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-2));
    }

    #[test]
    fn infer_tiles_is_bitwise_identical_to_infer_into() {
        let mut ln = LayerNorm::new(7);
        // Non-trivial affine so gamma/beta actually participate.
        for (j, v) in ln.params_mut()[0]
            .value_mut()
            .data_mut()
            .iter_mut()
            .enumerate()
        {
            *v = 0.5 + j as f32 * 0.25;
        }
        let x = Tensor::from_fn(&[9, 7], |ix| (ix[0] * 7 + ix[1]) as f32 * 0.3 - 5.0);
        let expect = ln.infer(&x);
        for tile_rows in [1, 2, 4, 9, 16] {
            let mut buf = Vec::new();
            let mut got = vec![0.0f32; 0];
            ln.infer_tiles(&x, tile_rows, &mut buf, |_r0, _nr, tile| {
                got.extend_from_slice(tile);
            });
            assert_eq!(got, expect.data(), "tile height {tile_rows}");
        }
    }

    #[test]
    fn has_two_parameter_tensors() {
        let ln = LayerNorm::new(16);
        assert_eq!(ln.params().len(), 2);
        assert_eq!(ln.num_parameters(), 32);
    }
}
