//! Reusable activation buffers for the tape-free inference path.
//!
//! A ViT forward pass allocates the same set of intermediate tensors for
//! every image: the Q/K/V projections, the concatenated head outputs, the
//! layer-norm output and the FFN hidden/output activations. When a batch of
//! images is pushed through one model, those buffers can be reused — after
//! the first image the workspace is warm and the hot path performs no
//! per-image heap allocation for them. This is the software mirror of the
//! accelerator's statically-sized on-chip buffers (paper Fig. 8): the GEMM
//! engine writes into fixed BRAM regions regardless of which image is in
//! flight.
//!
//! [`InferScratch`] is deliberately cheap to construct (every buffer starts
//! as a 1-element tensor), so the single-image convenience paths simply
//! build a fresh one — the allocating and scratch paths execute the exact
//! same arithmetic and produce bit-identical results.

use heatvit_tensor::{GemmScratch, Tensor};

/// Buffers reused by [`crate::MultiHeadAttention::infer_with`].
#[derive(Debug, Clone, Default)]
pub struct AttnScratch {
    /// Query projection `[N, D]`.
    pub(crate) q: Tensor,
    /// Key projection `[N, D]`.
    pub(crate) k: Tensor,
    /// Value projection `[N, D]`.
    pub(crate) v: Tensor,
    /// Concatenated per-head outputs `[N, D]`.
    pub(crate) heads: Tensor,
    /// Additive score penalty per key column when a key mask is given.
    pub(crate) penalty: Vec<f32>,
    /// Packed-GEMM workspace (per-head `Kᵀ`/`V` panels + fused layer-norm
    /// blocks).
    pub(crate) gs: GemmScratch,
}

/// Buffers reused by the block- and model-level inference paths.
///
/// One `InferScratch` serves every block of a model (the buffers are
/// reshaped in place as token counts shrink under pruning) and every image
/// of a batch.
#[derive(Debug, Clone, Default)]
pub struct InferScratch {
    /// Attention-internal buffers.
    pub(crate) attn: AttnScratch,
    /// FFN hidden activation `[N, hidden]` — the largest buffer.
    pub(crate) ffn_hidden: Tensor,
    /// FFN output `[N, D]`.
    pub(crate) ffn_out: Tensor,
    /// Staging for the FFN's fused layer-norm blocks.
    pub(crate) gs: GemmScratch,
}

// Each engine worker thread owns one scratch; a future non-`Send` field must
// fail to build here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<InferScratch>();
};
