//! Reusable activation buffers for the tape-free inference path.
//!
//! A ViT forward pass allocates the same set of intermediate tensors for
//! every image: the Q/K/V projections, the concatenated head outputs, the
//! layer-norm output and the FFN hidden/output activations; a pruned pass
//! adds the repacked token matrices between blocks and whatever its token
//! policy scores with ([`PolicyScratch`], shared by the f32 and int8 block
//! domains). When a batch of images is pushed through one model,
//! those buffers can be reused — after the first image the workspace is warm
//! and the hot path performs no per-image heap allocation for them. This is
//! the software mirror of the accelerator's statically-sized on-chip buffers
//! (paper Fig. 8): the GEMM engine writes into fixed BRAM regions regardless
//! of which image is in flight.
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

/// Buffers reused by the block- and model-level inference paths: the f32
/// block domain's workspace.
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
    /// The last block's class-token attention to each patch row, averaged
    /// over heads.
    pub(crate) cls_attn: Vec<f32>,
}

/// The workspace of the [`crate::TokenPolicy`] loop: its token matrix, the
/// dense repack between blocks, the stage's buffers and record, around the
/// block domain's own buffers `B`.
#[derive(Debug, Clone, Default)]
pub struct PolicyScratch<B> {
    /// The block domain's buffers ([`InferScratch`] for f32).
    pub blocks: B,
    /// The current token matrix `[1 + N, D]`, class token first.
    pub(crate) tokens: Tensor,
    /// Patch-token rows (class token excluded) `[N, D]` at a stage.
    pub(crate) patches: Tensor,
    /// The class-token row `[1, D]`.
    pub(crate) cls: Tensor,
    /// Gathered surviving rows `[K, D]`.
    pub(crate) kept_rows: Tensor,
    /// The repacked token matrix handed to the next block.
    pub(crate) repacked: Tensor,
    /// Original patch-grid index of each current row (`None` = class or
    /// appended token).
    pub(crate) origin: Vec<Option<usize>>,
    /// Staging for the post-repack `origin`.
    pub(crate) new_origin: Vec<Option<usize>>,
    /// What a token policy's stage writes, and the buffers it scores with.
    pub(crate) stage: StageScratch,
    /// Each stage's kept share of its incoming patch rows, for the last
    /// image.
    pub(crate) keep_fractions: Vec<f32>,
    /// The original patch indices that survived each stage (the first
    /// `keep_fractions.len()` entries are the last image's).
    pub(crate) surviving: Vec<Vec<usize>>,
}

/// The buffers a [`crate::TokenPolicy`] stage works in: its answer
/// (`kept`) and what the workspace's policies rank, score and fold with.
#[derive(Debug, Clone, Default)]
pub struct StageScratch {
    /// The stage's answer: surviving patch rows, ascending.
    pub kept: Vec<usize>,
    /// Patch rows in ranking order, or the pruned complement of `kept`.
    pub order: Vec<usize>,
    /// The scores the policy ranked by.
    pub scores: Vec<f32>,
    /// Per-row weights: the pruned rows' keep scores a package token is
    /// averaged with, or the weights kept rows accumulate under mergence.
    pub weights: Vec<f32>,
    /// Whether each kept row has absorbed a pruned one (mergence).
    pub merged: Vec<bool>,
    /// The token a stage appends after the kept rows (the package token).
    pub package: Tensor,
    /// The upcoming block's layer-normed tokens (attention-probing scorers).
    pub normed: Tensor,
    /// The class token's normed row, the query's input.
    pub cls_normed: Tensor,
    /// The class token's query.
    pub query: Tensor,
    /// Key projection of every token.
    pub keys: Tensor,
    /// Value projection of every token.
    pub values: Tensor,
    /// One head's attention row while scoring.
    pub head_row: Vec<f32>,
}

// Each engine worker thread owns one scratch; a future non-`Send` field must
// fail to build here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PolicyScratch<InferScratch>>();
};
