//! # heatvit-tfprune
//!
//! Training-free token pruning over the shared ViT backbone: three
//! inference-only backends that need **no selector training**, giving the
//! learned HeatViT schedule in-repo baselines to beat.
//!
//! All three rank tokens with the same cheap statistic, computed *before*
//! the block's full attention expansion: the class token's attention
//! distribution. Only the upcoming block's `LayerNorm → W_q` row for the
//! class token and `W_k` for every token are evaluated — `≈ N·D²` MACs, a
//! small fraction of the `2N²·D + 4N·D²` the full block would spend — then
//! `softmax(q_cls · Kᵀ / √d)` is averaged over heads. Tokens the class
//! token barely attends to are the ones the classification head will barely
//! read, so they can be removed *before* paying for the block.
//!
//! The three backends differ only in what they do with the ranking:
//!
//! * [`ClsAttnPrunedViT`] — hard drop: keep the top fraction of patch
//!   tokens per configured stage (the Adaptive Sparse ViT recipe).
//! * [`TokenMergeViT`] — mergence: same stages, but each pruned token is
//!   folded into its most similar kept token by a score-weighted average
//!   (Multi-Scale Token Mergence), preserving information at the same
//!   downstream MAC budget as the hard drop.
//! * [`TopKPrunedViT`] — fixed-layer top-k: static keep *counts* at fixed
//!   depths, ranked by CLS attention plus each token's value-vector norm
//!   (attention says where the class token looks, the value norm says how
//!   much a token injects when looked at).
//!
//! Every model is input-agnostic in its *token counts* (which tokens
//! survive varies per image, how many never does), so cost profiles are
//! exact: the planned per-block schedule is the schedule every image
//! executes, and a latency model over it predicts real work. Each is a
//! [`heatvit_vit::TokenPolicy`], so all three run the backbone's one
//! pruning loop and workspace.

#![warn(missing_docs)]

mod cls_attn;
mod merge;
mod scoring;
mod topk;

pub use cls_attn::ClsAttnPrunedViT;
pub use merge::TokenMergeViT;
pub use topk::{TopKPrunedViT, TopKStage};

/// One training-free ratio stage: in front of `block`, keep
/// `ceil(keep_ratio · N)` of the `N` current patch tokens (the class token
/// is never counted and never pruned). Scores come from the block's own
/// `W_q`/`W_k`, so a stage in front of block 0 is well-defined.
pub type TfStage = heatvit_vit::RatioStage;
