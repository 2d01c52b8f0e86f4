//! Reductions and row-wise normalizations (softmax, log-sum-exp, argmax).

use crate::scalar::exp_nonpos;
use crate::Tensor;

/// Independent partial sums a softmax row is reduced in: one 16-lane
/// vector's worth, so the pass vectorizes with a fixed, target-independent
/// order of additions.
const LANES: usize = 16;

/// Softmax's numerators of one row, in place: `rowᵢ ← exp(rowᵢ − max)`,
/// returning their sum. The one row order every softmax here shares; the
/// caller passes its exponential and normalizes.
///
/// The row is walked in blocks of 16 values: lane `i` sums every whole
/// block's `i`-th exponential, the lanes are added left to right, then the
/// values past the last whole block. That order is fixed, so the result is
/// the same on every target and for every caller. A row shorter than 32
/// values is thereby summed in plain left-to-right order. An empty row is
/// left alone and sums to `0.0`.
#[inline]
pub fn softmax_numerators(row: &mut [f32], exp: impl Fn(f32) -> f32) -> f32 {
    // The maximum does not depend on the order it is taken in; sixteen
    // running maxima vectorize where one would be a serial chain.
    let larger = |m: f32, v: f32| if v > m { v } else { m };
    let mut maxima = [f32::NEG_INFINITY; LANES];
    let mut blocks = row.chunks_exact(LANES);
    for block in &mut blocks {
        for (m, &v) in maxima.iter_mut().zip(block) {
            *m = larger(*m, v);
        }
    }
    let tail_max = blocks
        .remainder()
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, larger);
    let max = maxima.into_iter().fold(tail_max, larger);

    let mut lanes = [0.0f32; LANES];
    let mut blocks = row.chunks_exact_mut(LANES);
    for block in &mut blocks {
        for (sum, v) in lanes.iter_mut().zip(block) {
            *v = exp(*v - max);
            *sum += *v;
        }
    }
    let mut sum = lanes.iter().sum::<f32>();
    for v in blocks.into_remainder() {
        *v = exp(*v - max);
        sum += *v;
    }
    sum
}

/// Softmax of one row, in place: `rowᵢ ← e^{rowᵢ − max} / Σⱼ e^{rowⱼ − max}`.
///
/// The exponential is [`exp_nonpos`] (so an entry more than ≈ 87 below the
/// maximum — a masked attention score — becomes exactly `0.0`), summed in
/// [`softmax_numerators`]' fixed 16-lane order. An empty row is left alone.
pub fn softmax_inplace(row: &mut [f32]) {
    let sum = softmax_numerators(row, exp_nonpos);
    for v in row.iter_mut() {
        *v /= sum;
    }
}

/// Mean and (population) variance of one row — the statistics of
/// [`Tensor::row_mean_var`] without its two vectors, for callers that
/// normalize row by row.
pub fn mean_var(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, var)
}

impl Tensor {
    /// Sum of all elements.
    pub fn sum_all(&self) -> f32 {
        self.data().iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean_all(&self) -> f32 {
        if self.numel() == 0 {
            0.0
        } else {
            self.sum_all() / self.numel() as f32
        }
    }

    /// Row sums of a rank-2 tensor, shaped `[rows]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "sum_rows requires rank 2");
        let data = (0..self.dim(0)).map(|r| self.row(r).iter().sum()).collect();
        Tensor::from_vec(data, &[self.dim(0)])
    }

    /// Row means of a rank-2 tensor, shaped `[rows]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn mean_rows(&self) -> Tensor {
        let n = self.dim(1).max(1) as f32;
        self.sum_rows().scale(1.0 / n)
    }

    /// Column means of a rank-2 tensor, shaped `[cols]`.
    ///
    /// Used for the global receptive field of the token classifier
    /// (paper Eq. 4: average over the token axis).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn mean_cols(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "mean_cols requires rank 2");
        let (rows, cols) = (self.dim(0), self.dim(1));
        let mut out = vec![0.0f32; cols];
        for r in 0..rows {
            for (o, &v) in out.iter_mut().zip(self.row(r).iter()) {
                *o += v;
            }
        }
        let denom = rows.max(1) as f32;
        Tensor::from_vec(out.into_iter().map(|v| v / denom).collect(), &[cols])
    }

    /// Index of the maximum element in each row of a rank-2 tensor.
    ///
    /// Ties resolve to the first maximum.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.rank(), 2, "argmax_rows requires rank 2");
        assert!(self.dim(1) > 0, "argmax of zero-length rows is undefined");
        (0..self.dim(0))
            .map(|r| {
                let row = self.row(r);
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Numerically-stable softmax over each row of a rank-2 tensor.
    ///
    /// Subtracts the row maximum before exponentiation, exactly the trick
    /// the paper's hardware Softmax uses for stability (Eq. 13 uses
    /// `x̃ᵢ = xᵢ − x_max`). See [`softmax_inplace`] for the arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        let mut out = self.clone();
        out.softmax_rows_inplace();
        out
    }

    /// [`Tensor::softmax_rows`] overwriting the tensor with its softmax.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    fn softmax_rows_inplace(&mut self) {
        assert_eq!(self.rank(), 2, "softmax_rows requires rank 2");
        let cols = self.dim(1).max(1);
        self.data_mut()
            .chunks_exact_mut(cols)
            .for_each(softmax_inplace);
    }

    /// Per-row mean and (population) variance of a rank-2 tensor.
    ///
    /// The building block of layer normalization.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn row_mean_var(&self) -> (Vec<f32>, Vec<f32>) {
        assert_eq!(self.rank(), 2, "row_mean_var requires rank 2");
        let cols = self.dim(1);
        assert!(cols > 0, "row_mean_var of zero columns is undefined");
        let mut means = Vec::with_capacity(self.dim(0));
        let mut vars = Vec::with_capacity(self.dim(0));
        for r in 0..self.dim(0) {
            let (mean, var) = mean_var(self.row(r));
            means.push(mean);
            vars.push(var);
        }
        (means, vars)
    }

    /// Frobenius norm (L2 over all elements).
    pub fn norm(&self) -> f32 {
        self.data().iter().map(|&v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_and_means() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum_all(), 10.0);
        assert_eq!(t.mean_all(), 2.5);
        assert_eq!(t.sum_rows().data(), &[3.0, 7.0]);
        assert_eq!(t.mean_rows().data(), &[1.5, 3.5]);
        assert_eq!(t.mean_cols().data(), &[2.0, 3.0]);
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = t.softmax_rows();
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&v| v > 0.0));
        }
        // Softmax is monotone in its inputs.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0, 1002.0], &[1, 3]);
        let s = t.softmax_rows();
        assert!(!s.has_non_finite());
        let shifted = t.add_scalar(-1000.0).softmax_rows();
        assert!(s.max_abs_diff(&shifted) <= 1e-6);
    }

    #[test]
    fn argmax_first_tie_wins() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 5.0, 0.0], &[1, 4]);
        assert_eq!(t.argmax_rows(), vec![1]);
    }

    #[test]
    fn mean_var_of_constant_row() {
        let t = Tensor::full(&[1, 8], 3.0);
        let (m, v) = t.row_mean_var();
        assert_eq!(m[0], 3.0);
        assert_eq!(v[0], 0.0);
    }

    #[test]
    fn norm_of_unit_vectors() {
        let t = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }
}
