//! Error types for tensor operations.

use std::error::Error;
use std::fmt;

/// Error produced by fallible tensor operations.
///
/// Most tensor methods in this crate validate shapes eagerly and panic with a
/// descriptive message (the conventional choice for numeric kernels, matching
/// `ndarray`); the `try_*` constructors and conversions return this type
/// instead so callers building tensors from untrusted input can recover.
///
/// # Examples
///
/// ```
/// use heatvit_tensor::{Shape, TensorError};
///
/// let err = Shape::try_new(&[]).unwrap_err();
/// assert!(matches!(err, TensorError::InvalidShape { .. }));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The number of provided elements does not match the requested shape.
    ElementCountMismatch {
        /// Number of elements supplied by the caller.
        provided: usize,
        /// Number of elements the requested shape requires.
        expected: usize,
    },
    /// Two operand shapes are incompatible for the attempted operation.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
    },
    /// A shape with zero dimensions (or other invalid layout) was supplied.
    InvalidShape {
        /// Human-readable reason the shape was rejected.
        reason: String,
    },
    /// An index was outside the bounds of the tensor.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The length of the dimension that was indexed.
        len: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ElementCountMismatch { provided, expected } => write!(
                f,
                "element count mismatch: {provided} elements provided but shape requires {expected}"
            ),
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in `{op}`: lhs {lhs:?} vs rhs {rhs:?}")
            }
            TensorError::InvalidShape { reason } => write!(f, "invalid shape: {reason}"),
            TensorError::IndexOutOfBounds { index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for dimension of length {len}"
                )
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: vec![2, 3],
            rhs: vec![4, 5],
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("[2, 3]"));
        assert!(msg.starts_with(char::is_lowercase));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn debug_is_nonempty() {
        let err = TensorError::InvalidShape {
            reason: "empty".into(),
        };
        assert!(!format!("{err:?}").is_empty());
    }
}
