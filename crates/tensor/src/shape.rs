//! Shape and stride bookkeeping for row-major dense tensors.

use crate::TensorError;
use std::fmt;

/// The shape of a dense row-major tensor.
///
/// A thin wrapper over a dimension list that provides element counting and
/// row-major stride computation. Tensors in this crate are always contiguous,
/// so strides are derived rather than stored.
///
/// # Examples
///
/// ```
/// use heatvit_tensor::Shape;
///
/// let s = Shape::new(&[2, 3, 4]);
/// assert_eq!(s.numel(), 24);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from a dimension list.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty. Zero-length dimensions are allowed (an
    /// empty tensor), mirroring `ndarray` semantics.
    pub fn new(dims: &[usize]) -> Self {
        Self::try_new(dims).expect("shape must have at least one dimension")
    }

    /// Creates a shape, returning an error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidShape`] if `dims` is empty.
    pub fn try_new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.is_empty() {
            return Err(TensorError::InvalidShape {
                reason: "shape must have at least one dimension".to_string(),
            });
        }
        Ok(Self {
            dims: dims.to_vec(),
        })
    }

    /// Overwrites the dimension list in place, keeping its allocation — what
    /// lets a scratch tensor be reshaped on the hot path without touching
    /// the heap.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty.
    pub(crate) fn assign(&mut self, dims: &[usize]) {
        assert!(!dims.is_empty(), "shape must have at least one dimension");
        self.dims.clear();
        self.dims.extend_from_slice(dims);
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Row-major strides (in elements, not bytes).
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Flattens a multi-dimensional index into a linear offset.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or any coordinate is out of
    /// bounds.
    pub fn offset(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.rank(),
            "index rank {} does not match shape rank {}",
            index.len(),
            self.rank()
        );
        // Horner form of Σ index[a]·stride[a]: no stride vector is built, so
        // `Tensor::at` in a per-element loop does not touch the heap.
        let mut off = 0;
        for (axis, (&i, &d)) in index.iter().zip(self.dims.iter()).enumerate() {
            assert!(
                i < d,
                "index {i} out of bounds for axis {axis} with length {d}"
            );
            off = off * d + i;
        }
        off
    }

    /// Interprets this shape as a matrix `(rows, cols)` by folding all
    /// leading dimensions into the row count.
    ///
    /// This is the canonical view used by the GEMM kernels: a `[B, N, D]`
    /// activation tensor multiplies a `[D, D']` weight as a `(B*N, D)`
    /// matrix.
    pub fn as_matrix(&self) -> (usize, usize) {
        let cols = *self.dims.last().expect("shape is non-empty");
        let rows = self.numel() / cols.max(1);
        (rows, cols)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(&dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl AsRef<[usize]> for Shape {
    fn as_ref(&self) -> &[usize] {
        &self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(&[4, 5, 6]);
        assert_eq!(s.strides(), vec![30, 6, 1]);
    }

    #[test]
    fn offset_roundtrip() {
        let s = Shape::new(&[3, 4]);
        let mut seen = [false; 12];
        for i in 0..3 {
            for j in 0..4 {
                let off = s.offset(&[i, j]);
                assert_eq!(off, i * 4 + j, "offsets are row-major");
                assert!(!seen[off], "offsets must be unique");
                seen[off] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        // Higher ranks agree with the stride definition.
        let s = Shape::new(&[4, 5, 6]);
        let strides = s.strides();
        let index = [3, 2, 5];
        let expect: usize = index.iter().zip(&strides).map(|(i, st)| i * st).sum();
        assert_eq!(s.offset(&index), expect);
    }

    #[test]
    fn numel_of_zero_dim_is_zero() {
        assert_eq!(Shape::new(&[3, 0, 2]).numel(), 0);
    }

    #[test]
    fn empty_shape_rejected() {
        assert!(Shape::try_new(&[]).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn offset_checks_bounds() {
        Shape::new(&[2, 2]).offset(&[2, 0]);
    }

    #[test]
    fn as_matrix_folds_leading_dims() {
        assert_eq!(Shape::new(&[2, 3, 4]).as_matrix(), (6, 4));
        assert_eq!(Shape::new(&[5]).as_matrix(), (1, 5));
    }
}
