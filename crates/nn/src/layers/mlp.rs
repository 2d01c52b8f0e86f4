//! Two-layer perceptron (the ViT FFN shape).

use crate::layers::{layer_norm_project_into, Activation, LayerNorm, Linear};
use crate::{Module, Param, Tape, Var};
use heatvit_tensor::{GemmScratch, Tensor};
use rand::Rng;

/// A two-layer MLP `x → act(x·W₁ + b₁)·W₂ + b₂`.
///
/// This is both the ViT feed-forward network (hidden = 4×dim) and the basic
/// building block of the token classifier's local/global feature extractors.
///
/// # Examples
///
/// ```
/// use heatvit_nn::layers::{Activation, Mlp};
/// use heatvit_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mlp = Mlp::new(16, 64, 16, Activation::Gelu, &mut rng);
/// let y = mlp.infer(&Tensor::ones(&[2, 16]));
/// assert_eq!(y.dims(), &[2, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    fc1: Linear,
    fc2: Linear,
    act: Activation,
}

impl Mlp {
    /// Creates an MLP with the given widths and activation.
    pub fn new(
        in_features: usize,
        hidden_features: usize,
        out_features: usize,
        act: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            fc1: Linear::new(in_features, hidden_features, true, rng),
            fc2: Linear::new(hidden_features, out_features, true, rng),
            act,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.fc1.in_features()
    }

    /// Hidden width.
    pub fn hidden_features(&self) -> usize {
        self.fc1.out_features()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.fc2.out_features()
    }

    /// The configured activation.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// First linear layer.
    pub fn fc1(&self) -> &Linear {
        &self.fc1
    }

    /// Second linear layer.
    pub fn fc2(&self) -> &Linear {
        &self.fc2
    }

    /// Differentiable forward.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        let h = self.fc1.forward(tape, x);
        let h = self.act.forward(tape, h);
        self.fc2.forward(tape, h)
    }

    /// Inference forward (no tape).
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let h = self.act.infer(&self.fc1.infer(x));
        self.fc2.infer(&h)
    }

    /// [`Mlp::infer`] reusing a caller-provided hidden buffer and writing
    /// the result into `out` (both reshaped in place; values bit-identical
    /// to the allocating path).
    ///
    /// The `[N, hidden]` intermediate is the largest activation in a ViT
    /// block, so reusing it across a batch is the biggest single win of the
    /// engine's scratch workspace.
    pub fn infer_into(&self, x: &Tensor, hidden: &mut Tensor, out: &mut Tensor) {
        self.fc1.infer_into(x, hidden);
        self.act.apply_inplace(hidden);
        self.fc2.infer_into(hidden, out);
    }

    /// Computes `self.infer(ln.infer(x))` with the layer norm fused into the
    /// first projection: normalized row tiles stream straight into the packed
    /// GEMM microkernel, so the normalized `[N, dim]` activations never
    /// materialize. Bit-identical to the unfused two-step path.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, ln.dim()]` or `ln.dim() != in_features`.
    pub fn infer_fused_ln_with(
        &self,
        ln: &LayerNorm,
        x: &Tensor,
        gs: &mut GemmScratch,
        hidden: &mut Tensor,
        out: &mut Tensor,
    ) {
        layer_norm_project_into(ln, &[&self.fc1], x, gs, &mut [hidden]);
        self.act.apply_inplace(hidden);
        self.fc2.infer_into(hidden, out);
    }

    /// Multiply–accumulate count for `n` input rows.
    pub fn macs(&self, n: usize) -> u64 {
        self.fc1.macs(n) + self.fc2.macs(n)
    }
}

impl Module for Mlp {
    fn params(&self) -> Vec<&Param> {
        let mut v = self.fc1.params();
        v.extend(self.fc2.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.fc1.params_mut();
        v.extend(self.fc2.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(8, 32, 4, Activation::Gelu, &mut rng);
        assert_eq!(mlp.num_parameters(), 8 * 32 + 32 + 32 * 4 + 4);
        assert_eq!(mlp.infer(&Tensor::ones(&[5, 8])).dims(), &[5, 4]);
    }

    #[test]
    fn forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(6, 12, 6, Activation::Hardswish, &mut rng);
        let x = Tensor::rand_normal(&[3, 6], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = mlp.forward(&mut tape, xv);
        assert!(tape.value(y).allclose(&mlp.infer(&x), 1e-5));
    }

    #[test]
    fn macs_sum_both_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(10, 40, 10, Activation::Gelu, &mut rng);
        assert_eq!(mlp.macs(7), 7 * (10 * 40 + 40 * 10));
    }

    #[test]
    fn scratch_and_fused_ln_paths_are_bitwise_identical() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(12, 48, 12, Activation::Gelu, &mut rng);
        let ln = LayerNorm::new(12);
        let x = Tensor::rand_normal(&[9, 12], 0.0, 1.0, &mut rng);
        let normed = ln.infer(&x);
        let want = mlp.infer(&normed);

        let mut gs = GemmScratch::default();
        let (mut hidden, mut out) = (Tensor::default(), Tensor::default());
        mlp.infer_into(&normed, &mut hidden, &mut out);
        assert_eq!(out.data(), want.data());

        mlp.infer_fused_ln_with(&ln, &x, &mut gs, &mut hidden, &mut out);
        assert_eq!(out.data(), want.data());
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(4, 8, 2, Activation::Relu, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng));
        let y = mlp.forward(&mut tape, x);
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        tape.write_grads(&grads, mlp.params_mut());
        for p in mlp.params() {
            assert!(p.grad().is_some(), "missing grad for {}", p.name());
        }
    }
}
