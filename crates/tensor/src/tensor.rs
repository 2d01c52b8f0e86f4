//! The dense row-major `f32` tensor type.

use crate::{align_start, Shape, TensorError};
use std::fmt;

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// `Tensor` is the numeric substrate of the HeatViT reproduction: activations,
/// weights, attention maps and token scores are all `Tensor`s. The type is
/// deliberately simple — owned contiguous storage, derived strides, no views —
/// which keeps the GEMM kernels and the autograd tape easy to reason about.
///
/// # Examples
///
/// ```
/// use heatvit_tensor::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = Tensor::eye(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.data(), a.data());
/// ```
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    /// The values are `data[start..]`, after padding to a cache line.
    data: Vec<f32>,
    start: usize,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data() == other.data()
    }
}

// The parallel engine shares `&Tensor` across worker threads and moves owned
// tensors between them; a future `Rc`/raw-pointer field must fail to build
// here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tensor>();
};

impl Tensor {
    fn unpadded(shape: Shape, data: Vec<f32>) -> Self {
        Self {
            shape,
            data,
            start: 0,
        }
    }

    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Self::unpadded(shape, data)
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Self::unpadded(shape, data)
    }

    /// Creates a tensor from a flat `Vec` in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`. Use
    /// [`Tensor::try_from_vec`] to recover instead.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Self::try_from_vec(data, dims).expect("element count must match shape")
    }

    /// Creates a tensor from a flat `Vec`, validating the element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] if the data length does
    /// not match the shape, or [`TensorError::InvalidShape`] for an empty
    /// dimension list.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::try_new(dims)?;
        if data.len() != shape.numel() {
            return Err(TensorError::ElementCountMismatch {
                provided: data.len(),
                expected: shape.numel(),
            });
        }
        Ok(Self::unpadded(shape, data))
    }

    /// Creates a tensor by evaluating `f` at every multi-index, in row-major
    /// order.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Self {
        let shape = Shape::new(dims);
        let n = shape.numel();
        let mut data = Vec::with_capacity(n);
        let mut index = vec![0usize; shape.rank()];
        for _ in 0..n {
            data.push(f(&index));
            // Row-major increment.
            for axis in (0..index.len()).rev() {
                index[axis] += 1;
                if index[axis] < shape.dim(axis) {
                    break;
                }
                index[axis] = 0;
            }
        }
        Self::unpadded(shape, data)
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a 1-D tensor with values `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Self::from_vec((0..n).map(|i| i as f32).collect(), &[n])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimension list (shorthand for `shape().dims()`).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len() - self.start
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.shape.dim(axis)
    }

    /// Read-only view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data[self.start..]
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data[self.start..]
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.data.drain(..self.start);
        self.data
    }

    /// Reads the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data()[self.shape.offset(index)]
    }

    /// Writes the element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data_mut()[off] = value;
    }

    /// Returns a copy with a new shape holding the same elements.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {} to {} changes element count",
            self.shape,
            shape
        );
        Self::unpadded(shape, self.data().to_vec())
    }

    /// Borrows row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.dim(1);
        &self.data()[i * cols..(i + 1) * cols]
    }

    /// Mutably borrows row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.dim(1);
        &mut self.data_mut()[i * cols..(i + 1) * cols]
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Self {
        let data = self.data().iter().map(|&x| f(x)).collect();
        Self::unpadded(self.shape.clone(), data)
    }

    /// Applies `f` elementwise in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for x in self.data_mut() {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip_map requires identical shapes ({} vs {})",
            self.shape, other.shape
        );
        let data = self.data().iter().zip(other.data());
        Self::unpadded(self.shape.clone(), data.map(|(&a, &b)| f(a, b)).collect())
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.data_mut().fill(value);
    }

    /// Reshapes the tensor in place to `dims` and zeroes every element,
    /// reusing the existing allocation when it is large enough.
    ///
    /// This is the scratch-buffer primitive behind the batched inference
    /// path: output tensors owned by a reusable workspace are `reset_zeroed`
    /// instead of freshly allocated, so steady-state batches perform no
    /// per-image heap allocation for activations. Storage that must grow is
    /// regrown on a cache line (see [`crate::align_start`]).
    pub fn reset_zeroed(&mut self, dims: &[usize]) {
        self.reset_unspecified(dims);
        self.data_mut().fill(0.0);
    }

    /// Reshapes the tensor in place to `dims` **without** clearing the
    /// storage: element values are unspecified (stale or zero) and every one
    /// must be overwritten by the caller.
    ///
    /// The cheaper sibling of [`Tensor::reset_zeroed`] for operations that
    /// fully overwrite their output (copies, gathers, concatenations),
    /// avoiding a redundant zeroing pass over the scratch buffers on the
    /// batched engine's hot path. Accumulating kernels (GEMM) must use
    /// [`Tensor::reset_zeroed`] instead.
    pub fn reset_unspecified(&mut self, dims: &[usize]) {
        self.shape.assign(dims);
        let numel = self.shape.numel();
        if self.start + numel > self.data.capacity() {
            self.start = align_start(&mut self.data, numel);
        }
        self.data.resize(self.start + numel, 0.0);
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data().iter().any(|x| !x.is_finite())
    }

    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "max_abs_diff requires same shapes");
        self.data()
            .iter()
            .zip(other.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// `true` if all elements are within `tol` of `other`'s.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn allclose(&self, other: &Self, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, v) in self.data().iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.numel() > PREVIEW {
            write!(f, ", … {} more", self.numel() - PREVIEW)?;
        }
        write!(f, "]")
    }
}

impl Default for Tensor {
    /// A single zero scalar, shaped `[1]`.
    fn default() -> Self {
        Tensor::zeros(&[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_row_major_order() {
        let t = Tensor::from_fn(&[2, 3], |ix| (ix[0] * 10 + ix[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn eye_is_identity() {
        let t = Tensor::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.at(&[i, j]), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn set_then_at() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set(&[1, 0, 1], 7.5);
        assert_eq!(t.at(&[1, 0, 1]), 7.5);
        assert_eq!(t.data()[5], 7.5);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6).reshape(&[2, 3]);
        assert_eq!(t.at(&[1, 2]), 5.0);
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_rejects_bad_count() {
        Tensor::arange(6).reshape(&[4, 2]);
    }

    #[test]
    fn rows_are_contiguous() {
        let t = Tensor::from_fn(&[3, 4], |ix| ix[0] as f32);
        assert_eq!(t.row(2), &[2.0; 4]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let b = a.map(f32::abs);
        assert_eq!(b.data(), &[1.0, 2.0]);
        let c = a.zip_map(&b, |x, y| x + y);
        assert_eq!(c.data(), &[2.0, 0.0]);
    }

    #[test]
    fn allclose_tolerance() {
        let a = Tensor::full(&[3], 1.0);
        let b = Tensor::full(&[3], 1.0 + 1e-6);
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-8));
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.set(&[0], f32::NAN);
        assert!(t.has_non_finite());
    }

    #[test]
    fn reset_zeroed_reshapes_and_clears() {
        let mut t = Tensor::full(&[4, 4], 7.0);
        t.reset_zeroed(&[2, 3]);
        assert_eq!(t.dims(), &[2, 3]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        // Growing past the previous size must also be fully zeroed.
        t.reset_zeroed(&[5, 5]);
        assert_eq!(t.numel(), 25);
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_grown_reset_buffer_starts_on_a_cache_line() {
        let mut t = Tensor::default();
        for dims in [[3, 5], [197, 192], [197, 768]] {
            t.reset_unspecified(&dims);
            assert_eq!(t.dims(), &dims);
            assert_eq!(t.numel(), dims[0] * dims[1]);
            assert!(t.data().as_ptr().addr().is_multiple_of(crate::CACHE_LINE));
        }
        t.reset_zeroed(&[200, 800]);
        assert!(t.data().as_ptr().addr().is_multiple_of(crate::CACHE_LINE));
        assert!(t.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn padding_before_the_values_is_invisible() {
        let values = vec![1.5, -2.0, 0.25, 8.0, -0.0, 3.0];
        let built = Tensor::from_vec(values.clone(), &[2, 3]);
        let mut data = vec![9.0; 5];
        data.extend_from_slice(&values);
        let padded = Tensor {
            shape: Shape::new(&[2, 3]),
            data,
            start: 5,
        };
        assert_eq!(padded, built);
        assert_eq!(padded.numel(), 6);
        assert_eq!(padded.row(1), built.row(1));
        assert_eq!(padded.clone(), built);
        assert_eq!(padded.into_vec(), values);
    }

    #[test]
    fn debug_is_nonempty_and_bounded() {
        let t = Tensor::zeros(&[100]);
        let s = format!("{t:?}");
        assert!(s.contains("more"));
        assert!(s.len() < 200);
    }
}
