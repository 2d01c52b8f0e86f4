//! Elementwise arithmetic, broadcasting helpers, and structural ops
//! (concatenation, slicing, gathering) used throughout the ViT stack.
//!
//! Gathering and concatenation are load-bearing for HeatViT: after the token
//! selector classifies tokens, the informative rows are *gathered* and the
//! package token *concatenated* to form a smaller dense matrix — the software
//! mirror of the accelerator's dense-repacking flow (paper Fig. 9).

use crate::Tensor;

impl Tensor {
    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }

    /// Elementwise sum in place: `self ← self + rhs` (the values of
    /// [`Tensor::add`] without its allocation).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(
            self.dims(),
            rhs.dims(),
            "add_assign requires identical shapes"
        );
        for (a, &b) in self.data_mut().iter_mut().zip(rhs.data()) {
            *a += b;
        }
    }

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a * b)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Adds a rank-1 `bias` to every row of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `bias.len() != self.dim(1)`.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "add_row_broadcast requires rank 2");
        assert_eq!(bias.rank(), 1, "bias must be rank 1");
        assert_eq!(bias.dim(0), self.dim(1), "bias length must match columns");
        let n = self.dim(1);
        let mut out = self.clone();
        for row in out.data_mut().chunks_mut(n) {
            for (o, &b) in row.iter_mut().zip(bias.data().iter()) {
                *o += b;
            }
        }
        out
    }

    /// Multiplies each row `i` of a rank-2 tensor by `weights[i]`.
    ///
    /// Used by the token packager to weight non-informative tokens by their
    /// keep score before averaging (paper Eq. 10).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not rank 2 or `weights.len() != self.dim(0)`.
    pub fn scale_rows(&self, weights: &[f32]) -> Tensor {
        assert_eq!(self.rank(), 2, "scale_rows requires rank 2");
        assert_eq!(weights.len(), self.dim(0), "one weight per row required");
        let n = self.dim(1);
        let mut out = self.clone();
        for (row, &w) in out.data_mut().chunks_mut(n).zip(weights.iter()) {
            for o in row.iter_mut() {
                *o *= w;
            }
        }
        out
    }

    /// Concatenates rank-2 tensors along rows (axis 0).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not rank 2, or column counts
    /// differ.
    pub fn concat_rows(parts: &[&Tensor]) -> Tensor {
        let mut out = Tensor::default();
        Self::concat_rows_into(parts, &mut out);
        out
    }

    /// Concatenates rank-2 tensors along columns (axis 1).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not rank 2, or row counts
    /// differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        let mut out = Tensor::default();
        Self::concat_cols_into(parts, &mut out);
        out
    }

    /// Copies rows `[start, end)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range is out of bounds.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let mut out = Tensor::default();
        self.slice_rows_into(start, end, &mut out);
        out
    }

    /// [`Tensor::slice_rows`] writing into a caller-provided output tensor
    /// (see [`Tensor::gather_rows_into`] for the reuse contract).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::slice_rows`].
    pub fn slice_rows_into(&self, start: usize, end: usize, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "slice_rows requires rank 2");
        assert!(
            start <= end && end <= self.dim(0),
            "row range out of bounds"
        );
        let cols = self.dim(1);
        out.reset_unspecified(&[end - start, cols]);
        out.data_mut()
            .copy_from_slice(&self.data()[start * cols..end * cols]);
    }

    /// Copies columns `[start, end)` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or the range is out of bounds.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert_eq!(self.rank(), 2, "slice_cols requires rank 2");
        assert!(
            start <= end && end <= self.dim(1),
            "column range out of bounds"
        );
        let rows = self.dim(0);
        let mut data = Vec::with_capacity(rows * (end - start));
        for r in 0..rows {
            data.extend_from_slice(&self.row(r)[start..end]);
        }
        Tensor::from_vec(data, &[rows, end - start])
    }

    /// [`Tensor::slice_cols`] writing into a caller-provided output tensor
    /// (see [`Tensor::gather_rows_into`] for the reuse contract).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::slice_cols`].
    pub fn slice_cols_into(&self, start: usize, end: usize, out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "slice_cols requires rank 2");
        assert!(
            start <= end && end <= self.dim(1),
            "column range out of bounds"
        );
        let rows = self.dim(0);
        let width = end - start;
        out.reset_unspecified(&[rows, width]);
        for r in 0..rows {
            out.data_mut()[r * width..(r + 1) * width].copy_from_slice(&self.row(r)[start..end]);
        }
    }

    /// Gathers rows of a rank-2 tensor by index, in order.
    ///
    /// This is the dense-repacking primitive: informative token rows are
    /// gathered into a new, smaller matrix so downstream GEMMs stay dense.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::default();
        self.gather_rows_into(indices, &mut out);
        out
    }

    /// [`Tensor::gather_rows`] writing into a caller-provided output tensor.
    ///
    /// `out` is reshaped (reusing its allocation) and overwritten — the
    /// allocation-free form of the dense-repacking primitive used by the
    /// batched engine.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::gather_rows`].
    pub fn gather_rows_into(&self, indices: &[usize], out: &mut Tensor) {
        assert_eq!(self.rank(), 2, "gather_rows requires rank 2");
        let cols = self.dim(1);
        out.reset_unspecified(&[indices.len(), cols]);
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < self.dim(0), "gather index {i} out of bounds");
            out.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(self.row(i));
        }
    }

    /// [`Tensor::concat_rows`] writing into a caller-provided output tensor
    /// (see [`Tensor::gather_rows_into`] for the reuse contract).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::concat_rows`].
    pub fn concat_rows_into(parts: &[&Tensor], out: &mut Tensor) {
        assert!(!parts.is_empty(), "concat_rows requires at least one part");
        let cols = parts[0].dim(1);
        let mut rows = 0;
        for p in parts {
            assert_eq!(p.rank(), 2, "concat_rows parts must be rank 2");
            assert_eq!(p.dim(1), cols, "concat_rows parts must share columns");
            rows += p.dim(0);
        }
        out.reset_unspecified(&[rows, cols]);
        let mut offset = 0;
        for p in parts {
            out.data_mut()[offset..offset + p.numel()].copy_from_slice(p.data());
            offset += p.numel();
        }
    }

    /// [`Tensor::concat_cols`] writing into a caller-provided output tensor
    /// (see [`Tensor::gather_rows_into`] for the reuse contract).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Tensor::concat_cols`].
    fn concat_cols_into(parts: &[&Tensor], out: &mut Tensor) {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let rows = parts[0].dim(0);
        let total_cols: usize = parts
            .iter()
            .map(|p| {
                assert_eq!(p.rank(), 2, "concat_cols parts must be rank 2");
                assert_eq!(p.dim(0), rows, "concat_cols parts must share rows");
                p.dim(1)
            })
            .sum();
        out.reset_unspecified(&[rows, total_cols]);
        for r in 0..rows {
            let mut offset = r * total_cols;
            for p in parts {
                let w = p.dim(1);
                out.data_mut()[offset..offset + w].copy_from_slice(p.row(r));
                offset += w;
            }
        }
    }

    /// Scatters `src` rows back into a zero tensor of `rows` rows at
    /// `indices` — the adjoint of [`Tensor::gather_rows`], used by autograd.
    ///
    /// # Panics
    ///
    /// Panics if `src.dim(0) != indices.len()` or any index is out of bounds.
    pub fn scatter_rows(src: &Tensor, indices: &[usize], rows: usize) -> Tensor {
        assert_eq!(src.rank(), 2, "scatter_rows requires rank 2");
        assert_eq!(src.dim(0), indices.len(), "one index per source row");
        let cols = src.dim(1);
        let mut out = Tensor::zeros(&[rows, cols]);
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < rows, "scatter index {i} out of bounds");
            let dst = &mut out.data_mut()[i * cols..(i + 1) * cols];
            for (d, &s) in dst.iter_mut().zip(src.row(r).iter()) {
                *d += s;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::full(&[2, 2], 2.0);
        assert_eq!(a.add(&b).sub(&b).data(), a.data());
        assert_eq!(a.scale(2.0).data(), a.add(&a).data());
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), a.add(&b).data());
    }

    #[test]
    fn row_broadcast() {
        let a = Tensor::zeros(&[3, 2]);
        let bias = Tensor::from_vec(vec![1.0, -1.0], &[2]);
        let out = a.add_row_broadcast(&bias);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn scale_rows_weights_each_row() {
        let a = Tensor::ones(&[2, 3]);
        let out = a.scale_rows(&[2.0, 0.5]);
        assert_eq!(out.row(0), &[2.0; 3]);
        assert_eq!(out.row(1), &[0.5; 3]);
    }

    #[test]
    fn concat_then_slice_roundtrip() {
        let a = Tensor::from_fn(&[2, 3], |ix| ix[1] as f32);
        let b = Tensor::from_fn(&[1, 3], |_| 9.0);
        let c = Tensor::concat_rows(&[&a, &b]);
        assert_eq!(c.dims(), &[3, 3]);
        assert!(c.slice_rows(0, 2).max_abs_diff(&a) <= 0.0);
        assert!(c.slice_rows(2, 3).max_abs_diff(&b) <= 0.0);
    }

    #[test]
    fn concat_cols_interleaves_rows() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.row(0), &[1.0, 3.0]);
        assert_eq!(c.row(1), &[2.0, 4.0]);
    }

    #[test]
    fn slice_cols_extracts_range() {
        let a = Tensor::from_fn(&[2, 4], |ix| (ix[0] * 4 + ix[1]) as f32);
        let s = a.slice_cols(1, 3);
        assert_eq!(s.row(0), &[1.0, 2.0]);
        assert_eq!(s.row(1), &[5.0, 6.0]);
    }

    #[test]
    fn slice_cols_into_matches_allocating_path() {
        let a = Tensor::from_fn(&[3, 5], |ix| (ix[0] * 5 + ix[1]) as f32);
        // A stale, differently-shaped buffer must be reshaped and overwritten.
        let mut out = Tensor::full(&[2, 2], 7.0);
        a.slice_cols_into(1, 4, &mut out);
        assert!(out.max_abs_diff(&a.slice_cols(1, 4)) <= 0.0);
        a.slice_cols_into(0, 0, &mut out);
        assert_eq!(out.dims(), &[3, 0]);
    }

    #[test]
    fn gather_scatter_adjoint() {
        // scatter(gather(x, idx), idx) preserves the gathered rows and zeros
        // the rest — exactly the gradient flow the selector needs.
        let x = Tensor::from_fn(&[4, 2], |ix| (ix[0] * 2 + ix[1]) as f32);
        let idx = [2usize, 0];
        let g = x.gather_rows(&idx);
        assert_eq!(g.row(0), x.row(2));
        assert_eq!(g.row(1), x.row(0));
        let s = Tensor::scatter_rows(&g, &idx, 4);
        assert_eq!(s.row(0), x.row(0));
        assert_eq!(s.row(2), x.row(2));
        assert_eq!(s.row(1), &[0.0, 0.0]);
        assert_eq!(s.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_accumulates_duplicate_indices() {
        let src = Tensor::ones(&[2, 1]);
        let out = Tensor::scatter_rows(&src, &[1, 1], 3);
        assert_eq!(out.row(1), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "share columns")]
    fn concat_rows_checks_columns() {
        Tensor::concat_rows(&[&Tensor::zeros(&[1, 2]), &Tensor::zeros(&[1, 3])]);
    }

    #[test]
    fn into_variants_match_allocating_structural_ops() {
        let x = Tensor::from_fn(&[5, 3], |ix| (ix[0] * 3 + ix[1]) as f32);
        let y = Tensor::from_fn(&[5, 2], |ix| -(ix[1] as f32));
        let mut out = Tensor::full(&[2, 2], f32::NAN);

        x.gather_rows_into(&[4, 0, 2], &mut out);
        assert_eq!(out.data(), x.gather_rows(&[4, 0, 2]).data());
        assert_eq!(out.dims(), &[3, 3]);

        Tensor::concat_rows_into(&[&x, &x], &mut out);
        assert_eq!(out.data(), Tensor::concat_rows(&[&x, &x]).data());

        Tensor::concat_cols_into(&[&x, &y], &mut out);
        assert_eq!(out.data(), Tensor::concat_cols(&[&x, &y]).data());
        assert_eq!(out.dims(), &[5, 5]);
    }

    #[test]
    fn gather_empty_produces_zero_rows() {
        let x = Tensor::ones(&[3, 2]);
        let g = x.gather_rows(&[]);
        assert_eq!(g.dims(), &[0, 2]);
    }
}
