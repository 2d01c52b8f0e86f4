//! Reusable buffers for the int8 inference path.
//!
//! [`QuantScratch`] is the integer-pipeline counterpart of `heatvit-vit`'s
//! `InferScratch`: it owns every intermediate the quantized blocks touch —
//! float activation buffers and int8 staging buffers for activation
//! quantization — so a batched engine allocates them once per batch instead
//! of once per image. The token matrix and the pruning stages' repack
//! buffers are the `TokenPolicy` loop's (`heatvit_vit::PolicyScratch`). Like
//! the float scratch it is deliberately cheap to construct, and the scratch
//! and non-scratch paths execute identical arithmetic (bit-identical
//! results).

use crate::qtensor::QTensor;
use crate::qvit::ModelCalib;
use heatvit_tensor::Tensor;

/// Workspace for the [`crate::QuantizedViT`] hot path.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
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
    /// The last block's class-token attention per patch token, averaged
    /// over heads.
    pub(crate) cls_attn: Vec<f32>,
    /// Packed panels of the per-head `K`/`V` operands (weights are packed
    /// once, inside their `QLinear`).
    pub(crate) pack: Vec<i8>,
    /// Staging buffer for fused layer-norm + quantize tiles.
    pub(crate) ln_tile: Vec<f32>,
    /// Per-site max-abs accumulators while [`crate::QuantizedViT::calibrate`]
    /// runs images through the loop.
    pub(crate) calib: Option<ModelCalib>,
}

// Each engine worker thread owns one scratch (inside its `PruneScratch`); a
// future non-`Send` field must fail to build here, not at the distant
// thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<QuantScratch>();
};
