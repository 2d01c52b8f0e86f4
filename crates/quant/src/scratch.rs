//! Reusable buffers for the int8 inference path.
//!
//! [`QuantScratch`] is the integer-pipeline counterpart of `heatvit-vit`'s
//! `InferScratch`: it owns every intermediate the quantized blocks touch —
//! float activation buffers, int8 staging buffers for activation
//! quantization, and the token-repacking buffers of the adaptive pruning
//! stages — so a batched engine allocates them once per batch instead of
//! once per image. Like the float scratch it is deliberately cheap to
//! construct, and the scratch and non-scratch paths execute identical
//! arithmetic (bit-identical results).

use crate::qtensor::QTensor;
use heatvit_tensor::Tensor;

/// Workspace for the [`crate::QuantizedViT`] hot path.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    /// The token matrix `[N, D]` the blocks and pruning stages update in
    /// place.
    pub(crate) tokens: Tensor,
    /// Flattened image patches `[N-1, P²·C]` entering the embedding.
    pub(crate) image_patches: Tensor,
    /// Embedded patches `[N-1, D]` before the class token joins them.
    pub(crate) embedded: Tensor,
    /// Layer-norm output, reused for both pre-MSA and pre-FFN norms.
    pub(crate) normed: Tensor,
    /// Full-width query projection `[N, D]`.
    pub(crate) q: Tensor,
    /// Full-width key projection `[N, D]`.
    pub(crate) k: Tensor,
    /// Full-width value projection `[N, D]`.
    pub(crate) v: Tensor,
    /// Per-head float slice of `q` `[N, D/h]`.
    pub(crate) qh: Tensor,
    /// Per-head float slice of `k` `[N, D/h]`.
    pub(crate) kh: Tensor,
    /// Per-head float slice of `v` `[N, D/h]`.
    pub(crate) vh: Tensor,
    /// Attention scores / probabilities `[N, N]` (softmaxed in place).
    pub(crate) scores: Tensor,
    /// One head's context output `[N, D/h]`.
    pub(crate) head_out: Tensor,
    /// Concatenated per-head outputs `[N, D]`.
    pub(crate) heads: Tensor,
    /// Attention output projection `[N, D]`.
    pub(crate) attn_out: Tensor,
    /// FFN hidden activation `[N, hidden]` — the largest buffer.
    pub(crate) ffn_hidden: Tensor,
    /// FFN output `[N, D]`.
    pub(crate) ffn_out: Tensor,
    /// Int8 staging buffer for the left GEMM operand.
    pub(crate) qa: QTensor,
    /// Int8 staging buffer for the right GEMM operand.
    pub(crate) qb: QTensor,
    /// Class-token row `[1, D]` (pruning stages and the classifier head).
    pub(crate) cls: Tensor,
    /// Patch-token rows `[N-1, D]` (pruning stages).
    pub(crate) patches: Tensor,
    /// Gathered informative rows `[K, D]`.
    pub(crate) kept_rows: Tensor,
    /// A pruning stage's package token `[1, D]`.
    pub(crate) package: Tensor,
    /// The repacked token matrix handed to the next block.
    pub(crate) repacked: Tensor,
    /// Indices of kept patch tokens.
    pub(crate) kept: Vec<usize>,
    /// Indices of pruned patch tokens.
    pub(crate) pruned: Vec<usize>,
    /// Mean class-token attention per patch token from the previous block.
    pub(crate) cls_attn: Vec<f32>,
    /// Packed panels of the per-head `K`/`V` operands (weights are packed
    /// once, inside their `QLinear`).
    pub(crate) pack: Vec<i8>,
    /// Staging buffer for fused layer-norm + quantize tiles.
    pub(crate) ln_tile: Vec<f32>,
}

// Each engine worker thread owns one scratch (inside its `PruneScratch`); a
// future non-`Send` field must fail to build here, not at the distant
// thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<QuantScratch>();
};
