//! The reusable workspace of the training-free pruning paths.

use heatvit_tensor::Tensor;
use heatvit_vit::InferScratch;

/// Workspace for CLS-attention scoring, token repacking/merging, and the
/// backbone blocks — everything a training-free pruned inference touches,
/// so a batched engine allocates once per worker instead of once per image.
///
/// Cheap to construct; the single-image convenience paths build a fresh
/// one, which keeps the scratch and non-scratch paths executing identical
/// arithmetic (bit-identical results).
#[derive(Debug, Clone, Default)]
pub struct TfScratch {
    /// Backbone (per-block) activation buffers.
    pub vit: InferScratch,
    /// Layer-normed tokens the scoring projections read `[N, D]`.
    pub(crate) normed: Tensor,
    /// The normed class-token row `[1, D]` (query input).
    pub(crate) cls_normed: Tensor,
    /// The class token's query `[1, D]`.
    pub(crate) q_cls: Tensor,
    /// Key projection of every token `[N, D]`.
    pub(crate) k_proj: Tensor,
    /// Value projection of every token `[N, D]` (top-k scoring only).
    pub(crate) v_proj: Tensor,
    /// Patch-token rows of the *original* (un-normed) tokens `[N-1, D]`.
    pub(crate) patches: Tensor,
    /// The original class-token row `[1, D]`.
    pub(crate) cls: Tensor,
    /// Gathered (and, for mergence, merged-into) kept rows `[K, D]`.
    pub(crate) kept_rows: Tensor,
    /// The repacked token matrix handed to the next block.
    pub(crate) repacked: Tensor,
    /// Mean-over-heads CLS-attention probability per token (index 0 is the
    /// class token's self-attention mass).
    pub(crate) scores: Vec<f32>,
    /// One head's attention logits/probabilities during scoring.
    pub(crate) head_row: Vec<f32>,
    /// Patch indices in descending score order (`[..k]` kept, `[k..]`
    /// pruned).
    pub(crate) order: Vec<usize>,
    /// Kept patch indices, restored to block order.
    pub(crate) kept: Vec<usize>,
    /// Accumulated merge weight per kept row (mergence only).
    pub(crate) merge_weight: Vec<f32>,
    /// Whether a kept row has absorbed at least one pruned token (mergence
    /// only; untouched rows pass through bit-identical to the hard drop).
    pub(crate) merged: Vec<bool>,
}

// Each engine worker thread owns one scratch; a future non-`Send` field
// must fail to build here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<TfScratch>();
};
