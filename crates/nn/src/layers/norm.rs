//! Layer normalization.

use crate::{Module, Param, Tape, Var};
use heatvit_tensor::{mean_var, Tensor};
use std::ops::Range;

/// Rows whose serial statistics chains advance together, hiding add latency.
const GROUP: usize = 8;

/// [`mean_var`] of each `dim`-wide row of `x`, bit for bit: each row is its
/// own ascending chain from `-0.0` (as `Iterator::sum` starts).
fn group_mean_var(x: &[f32], dim: usize) -> [(f32, f32); GROUP] {
    let rows: [&[f32]; GROUP] = std::array::from_fn(|r| &x[r * dim..][..dim]);
    let n = dim as f32;
    let mut sum = [-0.0f32; GROUP];
    for j in 0..dim {
        for (s, row) in sum.iter_mut().zip(rows) {
            *s += row[j];
        }
    }
    let mean = sum.map(|s| s / n);
    let mut sq = [-0.0f32; GROUP];
    for j in 0..dim {
        for ((s, row), m) in sq.iter_mut().zip(rows).zip(mean) {
            *s += (row[j] - m) * (row[j] - m);
        }
    }
    std::array::from_fn(|r| (mean[r], sq[r] / n))
}

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
        let x = &x.data()[rows.start * self.dim..rows.end * self.dim];
        self.normalize_rows(x, out.data_mut());
    }

    /// The `dim`-wide rows of `x` normalized into `out`: the arithmetic
    /// every inference path shares. Statistics go [`GROUP`] rows at a time;
    /// the rows after the last whole group take [`mean_var`], the same bits.
    fn normalize_rows(&self, x: &[f32], out: &mut [f32]) {
        // A zero-width norm has no values: any chunk size visits none.
        let dim = self.dim.max(1);
        let grouped = x.len() / (GROUP * dim) * GROUP;
        let mut stats = [(0.0, 0.0); GROUP];
        let rows = x.chunks_exact(dim).zip(out.chunks_exact_mut(dim));
        for (r, (xr, or)) in rows.enumerate() {
            if r >= grouped {
                stats[r % GROUP] = mean_var(xr);
            } else if r % GROUP == 0 {
                stats = group_mean_var(&x[r * dim..(r + GROUP) * dim], dim);
            }
            self.normalize_row(xr, stats[r % GROUP], or);
        }
    }

    /// One row, given its mean and variance.
    fn normalize_row(&self, x: &[f32], (mean, var): (f32, f32), out: &mut [f32]) {
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
            let tile = &mut tile_buf[..nr * cols];
            self.normalize_rows(&x.data()[r0 * cols..(r0 + nr) * cols], tile);
            consume(r0, nr, tile);
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
        assert!(tape.value(y).max_abs_diff(&ln.infer(&x)) <= 1e-6);
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
    fn group_statistics_are_bitwise_the_serial_ones() {
        for width in [1usize, 7, 192] {
            for rows in 1..=20 {
                let mut x = Tensor::from_fn(&[rows, width], |ix| {
                    let v = (ix[0] * 31 + ix[1] * 17) % 23;
                    (v as f32 - 11.0) * 0.37 + 1e-3 * ix[1] as f32
                });
                // An all-negative-zero row sums to -0.0 only from a -0.0 start.
                x.row_mut(rows / 2).fill(-0.0);
                let mut ln = LayerNorm::new(width);
                ln.eps = 0.0;
                let y = ln.infer(&x);
                for r in 0..rows {
                    let (mean, var) = mean_var(x.row(r));
                    let mut want = vec![0.0; width];
                    ln.normalize_row(x.row(r), (mean, var), &mut want);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(y.row(r)), bits(&want), "{rows}x{width} row {r}");
                }
                for (g, group) in x.data().chunks_exact(GROUP * width).enumerate() {
                    for (r, (mean, var)) in group_mean_var(group, width).into_iter().enumerate() {
                        let (m, v) = mean_var(x.row(g * GROUP + r));
                        assert_eq!((mean.to_bits(), var.to_bits()), (m.to_bits(), v.to_bits()));
                    }
                }
            }
        }
    }

    #[test]
    fn has_two_parameter_tensors() {
        let ln = LayerNorm::new(16);
        assert_eq!(ln.params().len(), 2);
        assert_eq!(ln.num_parameters(), 32);
    }
}
