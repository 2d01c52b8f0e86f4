//! The transformer encoder block (MSA + FFN with pre-norm residuals).

use crate::attention::{AttentionMaps, MultiHeadAttention};
use crate::scratch::InferScratch;
use crate::ViTConfig;
use heatvit_nn::layers::{Activation, LayerNorm, Mlp};
use heatvit_nn::{Module, Param, Tape, Var};
use heatvit_tensor::Tensor;
use rand::Rng;

/// One ViT encoder block (paper Eq. 1):
///
/// ```text
/// x' = MSA(LN(x)) + x
/// y  = FFN(LN(x')) + x'
/// ```
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ffn: Mlp,
}

impl EncoderBlock {
    /// Creates a block for the given configuration.
    pub fn new(config: &ViTConfig, rng: &mut impl Rng) -> Self {
        Self {
            ln1: LayerNorm::new(config.embed_dim),
            attn: MultiHeadAttention::new(config.embed_dim, config.num_heads, rng),
            ln2: LayerNorm::new(config.embed_dim),
            ffn: Mlp::new(
                config.embed_dim,
                config.ffn_hidden(),
                config.embed_dim,
                Activation::Gelu,
                rng,
            ),
        }
    }

    /// The attention sub-module.
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attn
    }

    /// The feed-forward sub-module.
    pub fn ffn(&self) -> &Mlp {
        &self.ffn
    }

    /// The pre-attention layer norm.
    pub fn ln1(&self) -> &LayerNorm {
        &self.ln1
    }

    /// The pre-FFN layer norm.
    pub fn ln2(&self) -> &LayerNorm {
        &self.ln2
    }

    /// Differentiable forward with optional key mask and map capture.
    pub fn forward(
        &self,
        tape: &mut Tape,
        x: Var,
        key_mask: Option<&[f32]>,
        capture_maps: bool,
    ) -> (Var, Option<AttentionMaps>) {
        let normed = self.ln1.forward(tape, x);
        let (attn_out, maps) = self.attn.forward(tape, normed, key_mask, capture_maps);
        let x = tape.add(attn_out, x);
        let normed = self.ln2.forward(tape, x);
        let ffn_out = self.ffn.forward(tape, normed);
        (tape.add(ffn_out, x), maps)
    }

    /// Inference forward (no tape); always returns the attention maps.
    pub fn infer(&self, x: &Tensor, key_mask: Option<&[f32]>) -> (Tensor, AttentionMaps) {
        self.infer_with(x, key_mask, &mut InferScratch::default())
    }

    /// [`EncoderBlock::infer`] reusing a caller-provided scratch workspace
    /// for the layer-norm, attention, and FFN intermediates.
    ///
    /// Bit-identical to the allocating path. One [`InferScratch`] serves all
    /// blocks of a model and all images of a batch: the buffers reshape in
    /// place as the token count shrinks under pruning.
    pub fn infer_with(
        &self,
        x: &Tensor,
        key_mask: Option<&[f32]>,
        scratch: &mut InferScratch,
    ) -> (Tensor, AttentionMaps) {
        // Both layer norms are fused into their downstream projections:
        // blocks of normalized rows go straight into the packed GEMM instead
        // of round-tripping through a `[N, dim]` temporary. The residuals are
        // added in place, so the attention output is the only tensor the
        // block allocates besides the maps.
        let (mut x1, maps) = self
            .attn
            .infer_ln_with(&self.ln1, x, key_mask, &mut scratch.attn);
        x1.add_assign(x);
        self.ffn.infer_fused_ln_with(
            &self.ln2,
            &x1,
            &mut scratch.gs,
            &mut scratch.ffn_hidden,
            &mut scratch.ffn_out,
        );
        x1.add_assign(&scratch.ffn_out);
        (x1, maps)
    }

    /// Multiply–accumulate count for `n` tokens (linear + attention parts).
    pub fn macs(&self, n: usize) -> u64 {
        let (linear, attention) = self.attn.macs(n);
        linear + attention + self.ffn.macs(n)
    }
}

impl Module for EncoderBlock {
    fn params(&self) -> Vec<&Param> {
        let mut v = self.ln1.params();
        v.extend(self.attn.params());
        v.extend(self.ln2.params());
        v.extend(self.ffn.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.ln1.params_mut();
        v.extend(self.attn.params_mut());
        v.extend(self.ln2.params_mut());
        v.extend(self.ffn.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block() -> (EncoderBlock, StdRng) {
        let cfg = ViTConfig::test_tiny(4);
        let mut rng = StdRng::seed_from_u64(0);
        let b = EncoderBlock::new(&cfg, &mut rng);
        (b, rng)
    }

    #[test]
    fn forward_matches_infer() {
        let (b, mut rng) = block();
        let x = Tensor::rand_normal(&[5, 24], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let (y, _) = b.forward(&mut tape, xv, None, false);
        let (y2, _) = b.infer(&x, None);
        assert!(tape.value(y).max_abs_diff(&y2) <= 1e-4);
    }

    #[test]
    fn preserves_token_shape() {
        let (b, mut rng) = block();
        let x = Tensor::rand_normal(&[7, 24], 0.0, 1.0, &mut rng);
        let (y, maps) = b.infer(&x, None);
        assert_eq!(y.dims(), x.dims());
        assert_eq!(maps.len(), 2);
        assert_eq!(maps[0].dims(), &[7, 7]);
    }

    #[test]
    fn residual_keeps_input_influence() {
        // Zeroing all block weights must reduce the block to identity
        // (residual connections dominate).
        let (mut b, mut rng) = block();
        for p in b.params_mut() {
            p.value_mut().fill(0.0);
        }
        let x = Tensor::rand_normal(&[4, 24], 0.0, 1.0, &mut rng);
        let (y, _) = b.infer(&x, None);
        assert!(y.max_abs_diff(&x) <= 1e-5);
    }

    #[test]
    fn macs_scale_between_linear_and_quadratic() {
        let (b, _) = block();
        let m1 = b.macs(10) as f64;
        let m2 = b.macs(20) as f64;
        let ratio = m2 / m1;
        assert!(
            ratio > 2.0 && ratio < 4.0,
            "token MACs must grow superlinearly but subquadratically, got {ratio}"
        );
    }
}
