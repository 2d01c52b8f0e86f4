//! The Vision Transformer model.

use crate::attention::AttentionMaps;
use crate::block::EncoderBlock;
use crate::patch_embed::PatchEmbed;
use crate::policy::BlockDomain;
use crate::scratch::InferScratch;
use crate::ViTConfig;
use heatvit_nn::layers::{LayerNorm, Linear};
use heatvit_nn::{Module, Param, Tape, Var};
use heatvit_tensor::Tensor;
use rand::Rng;

/// Everything captured by a traced inference pass.
#[derive(Debug, Clone)]
pub struct InferenceTrace {
    /// Classification logits `[1, num_classes]`.
    pub logits: Tensor,
    /// Token matrix after each block, `depth + 1` entries (index 0 is the
    /// embedding output).
    pub block_tokens: Vec<Tensor>,
    /// Per-block, per-head attention maps.
    pub attention: Vec<AttentionMaps>,
}

/// A Vision Transformer backbone (DeiT-style).
///
/// The model exposes its sub-components (`patch_embed`, `blocks`,
/// `classify_tokens`) so that `heatvit-selector` can interleave token
/// selectors between blocks without this crate knowing about pruning.
///
/// # Examples
///
/// ```
/// use heatvit_vit::{ViTConfig, VisionTransformer};
/// use heatvit_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
/// let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
/// let logits = model.infer(&image);
/// assert_eq!(logits.dims(), &[1, 4]);
/// ```
#[derive(Debug, Clone)]
pub struct VisionTransformer {
    config: ViTConfig,
    patch_embed: PatchEmbed,
    blocks: Vec<EncoderBlock>,
    norm: LayerNorm,
    head: Linear,
}

// A serving worker pool owns models and moves them across threads; a future
// non-`Send`/`Sync` field (an `Rc`, a raw pointer cache) must fail to build
// here, not at the distant engine or server spawn site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VisionTransformer>();
};

impl VisionTransformer {
    /// Canonical variant label this backend registers in engine and serving
    /// report tables.
    pub const VARIANT: &'static str = "dense";

    /// Creates a randomly-initialized model.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ViTConfig, rng: &mut impl Rng) -> Self {
        config.validate();
        let patch_embed = PatchEmbed::new(&config, rng);
        let blocks = (0..config.depth)
            .map(|_| EncoderBlock::new(&config, rng))
            .collect();
        let norm = LayerNorm::new(config.embed_dim);
        let head = Linear::new(config.embed_dim, config.num_classes, true, rng);
        Self {
            config,
            patch_embed,
            blocks,
            norm,
            head,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ViTConfig {
        &self.config
    }

    /// The patch embedding stage.
    pub fn patch_embed(&self) -> &PatchEmbed {
        &self.patch_embed
    }

    /// The encoder blocks, in order.
    pub fn blocks(&self) -> &[EncoderBlock] {
        &self.blocks
    }

    /// The final layer norm.
    pub fn norm(&self) -> &LayerNorm {
        &self.norm
    }

    /// The classification head.
    pub fn head(&self) -> &Linear {
        &self.head
    }

    /// Differentiable end-to-end forward: image → logits `[1, classes]`.
    pub fn forward(&self, tape: &mut Tape, image: &Tensor) -> Var {
        let mut tokens = self.patch_embed.forward(tape, image);
        for block in &self.blocks {
            let (out, _) = block.forward(tape, tokens, None, false);
            tokens = out;
        }
        self.classify_tokens(tape, tokens)
    }

    /// Differentiable classification head: final LN, take the class token,
    /// project to logits. Exposed for pruned-model wrappers.
    pub fn classify_tokens(&self, tape: &mut Tape, tokens: Var) -> Var {
        let normed = self.norm.forward(tape, tokens);
        let cls = tape.slice_rows(normed, 0, 1);
        self.head.forward(tape, cls)
    }

    /// Inference: image → logits `[1, classes]`.
    pub fn infer(&self, image: &Tensor) -> Tensor {
        self.infer_with(image, &mut InferScratch::default())
    }

    /// [`VisionTransformer::infer`] reusing a caller-provided scratch
    /// workspace (bit-identical results; see [`InferScratch`]).
    pub fn infer_with(&self, image: &Tensor, scratch: &mut InferScratch) -> Tensor {
        let mut tokens = self.patch_embed.infer(image);
        for block in &self.blocks {
            let (out, _) = block.infer_with(&tokens, None, scratch);
            tokens = out;
        }
        self.classify_tokens_infer(&tokens)
    }

    /// Runs a batch of images through one shared scratch workspace,
    /// returning per-image logits. Equivalent to mapping
    /// [`VisionTransformer::infer`] over `images`, but after the first image
    /// the activation buffers are warm and reused.
    pub fn infer_batch(&self, images: &[Tensor]) -> Vec<Tensor> {
        let mut scratch = InferScratch::default();
        images
            .iter()
            .map(|image| self.infer_with(image, &mut scratch))
            .collect()
    }

    /// Inference classification head (no tape).
    pub fn classify_tokens_infer(&self, tokens: &Tensor) -> Tensor {
        let mut cls = Tensor::default();
        self.norm.infer_rows_into(tokens, 0..1, &mut cls);
        self.head.infer(&cls)
    }

    /// Traced inference capturing per-block tokens and attention maps
    /// (used by the CKA and receptive-field analyses, paper Figs. 5–6).
    pub fn infer_traced(&self, image: &Tensor) -> InferenceTrace {
        let mut tokens = self.patch_embed.infer(image);
        let mut block_tokens = vec![tokens.clone()];
        let mut attention = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (out, maps) = block.infer(&tokens, None);
            tokens = out;
            block_tokens.push(tokens.clone());
            attention.push(maps);
        }
        InferenceTrace {
            logits: self.classify_tokens_infer(&tokens),
            block_tokens,
            attention,
        }
    }

    /// Predicted class for one image.
    pub fn predict(&self, image: &Tensor) -> usize {
        self.infer(image).argmax_rows()[0]
    }

    /// Total multiply–accumulate count for one image with the full token
    /// count in every block.
    pub fn macs(&self) -> u64 {
        self.dense_raw_macs()
    }
}

/// The f32 datapath of the [`crate::TokenPolicy`] loop.
impl BlockDomain for VisionTransformer {
    type Scratch = InferScratch;

    fn config(&self) -> &ViTConfig {
        &self.config
    }

    fn embed(&self, image: &Tensor, tokens: &mut Tensor, _ws: &mut InferScratch) {
        *tokens = self.patch_embed.infer(image);
    }

    fn run_block(&self, index: usize, tokens: &mut Tensor, ws: &mut InferScratch) {
        let (out, maps) = self.blocks[index].infer_with(tokens, None, ws);
        *tokens = out;
        ws.cls_attn.clear();
        ws.cls_attn.resize(tokens.dim(0) - 1, 0.0);
        for map in &maps {
            for (a, &p) in ws.cls_attn.iter_mut().zip(&map.row(0)[1..]) {
                *a += p;
            }
        }
        for a in &mut ws.cls_attn {
            *a /= maps.len() as f32;
        }
    }

    fn cls_attention(ws: &InferScratch) -> &[f32] {
        &ws.cls_attn
    }

    fn classify(&self, cls: &Tensor, _ws: &mut InferScratch) -> Tensor {
        self.classify_tokens_infer(cls)
    }

    fn raw_macs(&self, tokens_per_block: impl IntoIterator<Item = usize>) -> u64 {
        let blocks = self.blocks.iter().zip(tokens_per_block);
        self.patch_embed.macs() + blocks.map(|(b, n)| b.macs(n)).sum::<u64>() + self.head.macs(1)
    }
}

impl Module for VisionTransformer {
    fn params(&self) -> Vec<&Param> {
        let mut v = self.patch_embed.params();
        for b in &self.blocks {
            v.extend(b.params());
        }
        v.extend(self.norm.params());
        v.extend(self.head.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.patch_embed.params_mut();
        for b in &mut self.blocks {
            v.extend(b.params_mut());
        }
        v.extend(self.norm.params_mut());
        v.extend(self.head.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> (VisionTransformer, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let m = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        (m, rng)
    }

    #[test]
    fn forward_matches_infer() {
        let (m, mut rng) = model();
        let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let logits = m.forward(&mut tape, &image);
        assert!(tape.value(logits).allclose(&m.infer(&image), 1e-4));
    }

    #[test]
    fn trace_has_expected_structure() {
        let (m, mut rng) = model();
        let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
        let trace = m.infer_traced(&image);
        assert_eq!(trace.block_tokens.len(), 3); // embed + 2 blocks
        assert_eq!(trace.attention.len(), 2);
        assert_eq!(trace.attention[0].len(), 2); // heads
        assert_eq!(trace.logits.dims(), &[1, 4]);
    }

    #[test]
    fn parameter_count_is_plausible() {
        let (m, _) = model();
        let cfg = m.config();
        // Patch embed + 2 blocks + norm + head, each block dominated by
        // 4 D² attention weights and 2·ratio·D² FFN weights.
        let d = cfg.embed_dim;
        let approx_block = 4 * d * d + 2 * cfg.mlp_ratio * d * d;
        let total = m.num_parameters();
        assert!(total > 2 * approx_block);
        assert!(total < 4 * approx_block + 10_000);
    }

    #[test]
    fn one_training_step_reduces_loss() {
        use heatvit_nn::optim::{Optimizer, Sgd};
        let (mut m, mut rng) = model();
        let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
        let loss_of = |m: &VisionTransformer| {
            let mut tape = Tape::new();
            let logits = m.forward(&mut tape, &image);
            let loss = tape.cross_entropy(logits, &[2]);
            (tape, loss)
        };
        let (tape, loss) = loss_of(&m);
        let before = tape.value(loss).data()[0];
        let grads = tape.backward(loss);
        tape.write_grads(&grads, m.params_mut());
        let mut opt = Sgd::new(0.05);
        opt.step(m.params_mut());
        let (tape, loss) = loss_of(&m);
        let after = tape.value(loss).data()[0];
        assert!(after < before, "loss should drop: {before} -> {after}");
    }

    #[test]
    fn macs_match_config_formula() {
        let (m, _) = model();
        let cfg = m.config();
        let n = cfg.num_tokens() as u64;
        let d = cfg.embed_dim as u64;
        let block = 4 * n * d * d + 2 * n * n * d + 2 * n * d * (cfg.mlp_ratio as u64 * d);
        let expect = cfg.num_patches() as u64 * cfg.patch_dim() as u64 * d
            + cfg.depth as u64 * block
            + d * cfg.num_classes as u64;
        assert_eq!(m.macs(), expect);
    }
}
