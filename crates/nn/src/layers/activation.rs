//! Activation functions as a pluggable layer.

use crate::{Tape, Var};
use heatvit_tensor::{scalar, Tensor};

/// The activation functions used across HeatViT.
///
/// The paper's selector ablation (Fig. 12) compares GELU against ReLU and
/// Hardswish inside the token classifier, so the activation is a first-class
/// configuration value rather than a hard-coded call.
///
/// # Examples
///
/// ```
/// use heatvit_nn::layers::Activation;
/// use heatvit_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[1, 3]);
/// let y = Activation::Relu.infer(&x);
/// assert_eq!(y.data(), &[0.0, 0.0, 1.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Exact GELU (ViT default).
    #[default]
    Gelu,
    /// Rectified linear unit.
    Relu,
    /// Hardswish (MobileNetV3).
    Hardswish,
    /// Logistic sigmoid.
    Sigmoid,
    /// Pass-through.
    Identity,
}

impl Activation {
    /// Differentiable forward.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Gelu => tape.gelu(x),
            Activation::Relu => tape.relu(x),
            Activation::Hardswish => tape.hardswish(x),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Inference forward (no tape).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        match self {
            Activation::Gelu => x.map(scalar::gelu),
            Activation::Relu => x.map(scalar::relu),
            Activation::Hardswish => x.map(scalar::hardswish),
            Activation::Sigmoid => x.map(scalar::sigmoid),
            Activation::Identity => x.clone(),
        }
    }

    /// Applies the activation elementwise in place (the allocation-free
    /// variant of [`Activation::infer`], bit-identical values). The variant
    /// is matched once, outside the element loop, so each loop is over one
    /// branch-free function and vectorizes.
    pub fn apply_inplace(&self, x: &mut Tensor) {
        match self {
            Activation::Gelu => x.map_inplace(scalar::gelu),
            Activation::Relu => x.map_inplace(scalar::relu),
            Activation::Hardswish => x.map_inplace(scalar::hardswish),
            Activation::Sigmoid => x.map_inplace(scalar::sigmoid),
            Activation::Identity => {}
        }
    }

    /// Scalar application (used by the quantizer's lookup construction).
    pub fn apply(&self, x: f32) -> f32 {
        match self {
            Activation::Gelu => scalar::gelu(x),
            Activation::Relu => scalar::relu(x),
            Activation::Hardswish => scalar::hardswish(x),
            Activation::Sigmoid => scalar::sigmoid(x),
            Activation::Identity => x,
        }
    }

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Activation::Gelu => "GELU",
            Activation::Relu => "ReLU",
            Activation::Hardswish => "Hardswish",
            Activation::Sigmoid => "Sigmoid",
            Activation::Identity => "Identity",
        }
    }
}

impl std::fmt::Display for Activation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_matches_tape_forward() {
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[1, 5]);
        for act in [
            Activation::Gelu,
            Activation::Relu,
            Activation::Hardswish,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = act.forward(&mut tape, xv);
            assert!(
                tape.value(y).allclose(&act.infer(&x), 1e-6),
                "mismatch for {act}"
            );
        }
    }

    #[test]
    fn apply_matches_infer() {
        for act in [Activation::Gelu, Activation::Sigmoid, Activation::Hardswish] {
            let x = Tensor::from_vec(vec![0.3], &[1, 1]);
            assert!((act.apply(0.3) - act.infer(&x).data()[0]).abs() < 1e-7);
        }
    }

    #[test]
    fn default_is_gelu() {
        assert_eq!(Activation::default(), Activation::Gelu);
    }

    #[test]
    fn display_names() {
        assert_eq!(Activation::Gelu.to_string(), "GELU");
        assert_eq!(Activation::Hardswish.to_string(), "Hardswish");
    }
}
