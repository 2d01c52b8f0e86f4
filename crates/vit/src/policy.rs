//! One pruning loop for every token policy, on either datapath.
//!
//! HeatViT's token-selection flow (paper Fig. 9) is the same step between
//! blocks whatever decides it: score the tokens, repack the survivors into a
//! smaller dense matrix (class token first), and optionally append one token
//! that consolidates the pruned ones. A [`BlockDomain`] runs the blocks — the
//! f32 [`crate::VisionTransformer`] or the int8 backbone — and a [`TokenPolicy`]
//! supplies only the decision: which patches survive, what (if anything)
//! the pruned ones fold into, how many tokens it plans for, and what its
//! scoring costs. [`TokenPolicy::infer_with`] runs patch embedding →
//! \[stage → dense repack\] → block → … → head for all of them, tracking
//! where every row came from.

use crate::config::ViTConfig;
use crate::scratch::{PolicyScratch, StageScratch};
use heatvit_tensor::Tensor;

/// The blocks a [`TokenPolicy`] runs between: how one datapath embeds an
/// image, runs an encoder block, classifies and counts its MACs.
pub trait BlockDomain: Send + Sync {
    /// The buffers the blocks run in.
    type Scratch: Default + Send;

    /// Whether the blocks run the int8 datapath.
    const QUANTIZED: bool = false;

    /// The backbone architecture configuration.
    fn config(&self) -> &ViTConfig;

    /// Embeds `image` into `tokens` `[1 + N, D]`, class token first.
    fn embed(&self, image: &Tensor, tokens: &mut Tensor, ws: &mut Self::Scratch);

    /// Runs block `index` on `tokens` in place, leaving in `ws` the block's
    /// class-token attention to each patch row, summed over heads in head
    /// order and then divided by the head count.
    fn run_block(&self, index: usize, tokens: &mut Tensor, ws: &mut Self::Scratch);

    /// The row the last [`BlockDomain::run_block`] left in `ws`.
    fn cls_attention(ws: &Self::Scratch) -> &[f32];

    /// Logits `[1, classes]` of the final class-token row `cls` `[1, D]`.
    fn classify(&self, cls: &Tensor, ws: &mut Self::Scratch) -> Tensor;

    /// Raw multiply–accumulates of one inference: the embedding, the head,
    /// and each block at its token count.
    fn raw_macs(&self, tokens_per_block: impl IntoIterator<Item = usize>) -> u64;

    /// The MACs an inference of `raw` raw MACs is charged: the raw count,
    /// unless the datapath packs several MACs per multiplier.
    fn charged_macs(&self, raw: u64) -> u64 {
        raw
    }

    /// [`BlockDomain::raw_macs`] with the full token count in every block.
    fn dense_raw_macs(&self) -> u64 {
        let config = self.config();
        self.raw_macs(std::iter::repeat_n(config.num_tokens(), config.depth))
    }
}

/// The workspace a policy's loop runs in: the loop's buffers around its
/// domain's.
pub type PolicyWorkspace<P> = PolicyScratch<<<P as TokenPolicy>::Domain as BlockDomain>::Scratch>;

/// What a stage sees in front of block `index`.
#[derive(Debug, Clone, Copy)]
pub struct StageInput<'a> {
    /// Index of the block the stage precedes.
    pub index: usize,
    /// The current token matrix `[1 + N, D]`, class token first.
    pub tokens: &'a Tensor,
    /// Its patch rows `[N, D]` (every row after the class token, an earlier
    /// stage's appended token included).
    pub patches: &'a Tensor,
    /// The previous block's class-token attention to each row of `patches`,
    /// averaged over heads (`None` in front of block 0).
    pub cls_attn: Option<&'a [f32]>,
}

/// Inference result of a token-pruned ViT.
#[derive(Debug, Clone)]
pub struct PrunedInference {
    /// Classification logits `[1, classes]`.
    pub logits: Tensor,
    /// Token count entering each block (class and appended tokens
    /// included).
    pub tokens_per_block: Vec<usize>,
    /// Fraction of its incoming patch rows each stage kept, in block order.
    pub keep_fractions: Vec<f32>,
    /// For each stage, the original patch-grid indices that survived it
    /// (class and appended tokens excluded) — the Fig. 4 visualization's
    /// input.
    pub surviving_patches: Vec<Vec<usize>>,
}

/// A between-block token-pruning decision over a backbone.
///
/// Implementors say where their stages sit and what each one keeps; the
/// provided methods run the shared loop and account for its cost, so every
/// policy repacks, counts and charges its tokens the same way, in f32 or
/// int8 alike.
///
/// `Send + Sync` because serving worker pools share and move models across
/// threads: a field that is neither fails to build at the policy's own impl,
/// not at a distant spawn site.
pub trait TokenPolicy: Send + Sync {
    /// The datapath the blocks run on.
    type Domain: BlockDomain;

    /// The backbone the stages run between.
    fn backbone(&self) -> &Self::Domain;

    /// Whether a stage runs in front of block `block`.
    fn has_stage(&self, block: usize) -> bool;

    /// Decides the stage in front of `stage.index`: writes the indices of
    /// the surviving rows of `stage.patches`, ascending, to `ws.kept`. The
    /// other buffers of `ws` are the policy's own.
    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch);

    /// Folds the pruned patches into the survivors once the loop has
    /// gathered the kept rows into `kept_rows` (rows of `stage.patches`
    /// listed in `ws.kept`). Returns `true` if it wrote a `[1, D]` token to
    /// `ws.package` to append after them. The default drops them.
    fn consolidate(
        &self,
        _stage: &StageInput<'_>,
        _kept_rows: &mut Tensor,
        _ws: &mut StageScratch,
    ) -> bool {
        false
    }

    /// Tokens leaving the stage in front of `block` when `tokens` enter it
    /// (class and appended tokens included): what every image executes for
    /// input-agnostic policies, the declared expectation otherwise.
    fn stage_tokens(&self, block: usize, tokens: usize) -> usize;

    /// Whether [`TokenPolicy::planned_tokens_per_block`] is what every
    /// image executes, rather than an expectation.
    fn plan_is_exact(&self) -> bool {
        true
    }

    /// Raw multiply–accumulates the stage in front of `block` spends on top
    /// of the blocks, given the tokens entering and leaving it.
    fn stage_macs(&self, _block: usize, _tokens_in: usize, _tokens_out: usize) -> u64 {
        0
    }

    /// Inference with dense token repacking.
    fn infer(&self, image: &Tensor) -> PrunedInference {
        self.infer_with(image, &mut PolicyScratch::default())
    }

    /// [`TokenPolicy::infer`] reusing a caller-provided workspace for the
    /// blocks, the repack and the stages' own buffers; bit-identical to the
    /// fresh-workspace path — the software mirror of the accelerator's
    /// token-selection pipeline writing into fixed on-chip buffers.
    fn infer_with(&self, image: &Tensor, ws: &mut PolicyWorkspace<Self>) -> PrunedInference {
        let (logits, tokens_per_block) = self.run_with(image, ws);
        PrunedInference {
            logits,
            tokens_per_block,
            keep_fractions: ws.keep_fractions.clone(),
            surviving_patches: ws.surviving[..ws.keep_fractions.len()].to_vec(),
        }
    }

    /// The loop itself: the logits and the token count entering each block.
    /// What each stage kept stays in `ws`, so a warm workspace adds no heap
    /// request for it; [`TokenPolicy::infer_with`] copies it out.
    fn run_with(&self, image: &Tensor, ws: &mut PolicyWorkspace<Self>) -> (Tensor, Vec<usize>) {
        let domain = self.backbone();
        let depth = domain.config().depth;
        domain.embed(image, &mut ws.tokens, &mut ws.blocks);
        ws.origin.clear();
        ws.origin.push(None);
        ws.origin.extend((0..ws.tokens.dim(0) - 1).map(Some));
        ws.keep_fractions.clear();
        let mut tokens_per_block = Vec::with_capacity(depth);
        for index in 0..depth {
            if self.has_stage(index) {
                let n = ws.tokens.dim(0);
                ws.tokens.slice_rows_into(1, n, &mut ws.patches);
                ws.tokens.slice_rows_into(0, 1, &mut ws.cls);
                let stage = StageInput {
                    index,
                    tokens: &ws.tokens,
                    patches: &ws.patches,
                    cls_attn: (index > 0).then(|| Self::Domain::cls_attention(&ws.blocks)),
                };
                self.select(&stage, &mut ws.stage);
                let kept = &ws.stage.kept;
                let done = ws.keep_fractions.len();
                if ws.surviving.len() == done {
                    ws.surviving.push(Vec::new());
                }
                ws.surviving[done].clear();
                ws.surviving[done].extend(kept.iter().filter_map(|&i| ws.origin[i + 1]));
                ws.keep_fractions.push(kept.len() as f32 / (n - 1) as f32);
                ws.new_origin.clear();
                ws.new_origin.push(None);
                ws.new_origin.extend(kept.iter().map(|&i| ws.origin[i + 1]));
                ws.patches.gather_rows_into(kept, &mut ws.kept_rows);
                if self.consolidate(&stage, &mut ws.kept_rows, &mut ws.stage) {
                    let parts = [&ws.cls, &ws.kept_rows, &ws.stage.package];
                    Tensor::concat_rows_into(&parts, &mut ws.repacked);
                    ws.new_origin.push(None);
                } else {
                    Tensor::concat_rows_into(&[&ws.cls, &ws.kept_rows], &mut ws.repacked);
                }
                // The repacked matrix becomes the tokens; the old token
                // storage becomes the next stage's repack buffer.
                std::mem::swap(&mut ws.tokens, &mut ws.repacked);
                std::mem::swap(&mut ws.origin, &mut ws.new_origin);
            }
            tokens_per_block.push(ws.tokens.dim(0));
            domain.run_block(index, &mut ws.tokens, &mut ws.blocks);
        }
        ws.tokens.slice_rows_into(0, 1, &mut ws.cls);
        (domain.classify(&ws.cls, &mut ws.blocks), tokens_per_block)
    }

    /// Runs a batch of images through one shared workspace; equivalent to
    /// mapping [`TokenPolicy::infer`] over `images`.
    fn infer_batch(&self, images: &[Tensor]) -> Vec<PrunedInference> {
        let mut ws = PolicyScratch::default();
        images
            .iter()
            .map(|image| self.infer_with(image, &mut ws))
            .collect()
    }

    /// The token count entering each block, computed without running
    /// inference from [`TokenPolicy::stage_tokens`].
    fn planned_tokens_per_block(&self) -> Vec<usize> {
        let config = self.backbone().config();
        let mut tokens = config.num_tokens();
        (0..config.depth)
            .map(|block| {
                if self.has_stage(block) {
                    tokens = self.stage_tokens(block, tokens);
                }
                tokens
            })
            .collect()
    }

    /// Multiply–accumulate count of one inference at a per-block token
    /// schedule, stage overhead included, as the domain charges it — an
    /// inference's own `tokens_per_block`, or
    /// [`TokenPolicy::planned_tokens_per_block`] for cost prediction.
    fn macs_for_tokens(&self, tokens_per_block: &[usize]) -> u64 {
        let domain = self.backbone();
        let mut stages = 0;
        let mut tokens_in = domain.config().num_tokens();
        for (index, &tokens) in tokens_per_block.iter().enumerate() {
            if self.has_stage(index) {
                stages += self.stage_macs(index, tokens_in, tokens);
            }
            tokens_in = tokens;
        }
        domain.charged_macs(domain.raw_macs(tokens_per_block.iter().copied()) + stages)
    }
}

/// The package token of paper Eq. 10: rows `rows` of `patches` averaged
/// with weights `scores[row] / Σ scores` (uniform when the scores sum to
/// at most `1e-12`), written to `out` as `[1, D]`; `false`, leaving `out`
/// alone, when `rows` is empty. Each column is summed in row order, divided
/// by the row count and multiplied back by it, as every pinned output was.
///
/// # Panics
///
/// Panics if a row or its score is out of bounds.
pub fn package_tokens_into(
    patches: &Tensor,
    rows: &[usize],
    scores: &[f32],
    out: &mut Tensor,
) -> bool {
    if rows.is_empty() {
        return false;
    }
    let count = rows.len() as f32;
    let total: f32 = rows.iter().map(|&r| scores[r]).sum();
    out.reset_zeroed(&[1, patches.dim(1)]);
    for &r in rows {
        let weight = if total <= 1e-12 {
            1.0 / count
        } else {
            scores[r] / total
        };
        for (o, &x) in out.data_mut().iter_mut().zip(patches.row(r)) {
            *o += x * weight;
        }
    }
    for o in out.data_mut() {
        *o = *o / count * count;
    }
    true
}

/// A stage that keeps a fraction of the patch tokens entering it.
#[derive(Debug, Clone, Copy)]
pub struct RatioStage {
    /// Block index the stage precedes.
    pub block: usize,
    /// Fraction of current patch tokens to keep, in `(0, 1]`.
    pub keep_ratio: f32,
}

impl RatioStage {
    /// `ceil(keep_ratio · patches)`, and at least one patch.
    pub fn keep(&self, patches: usize) -> usize {
        keep_count(self.keep_ratio, patches)
    }

    /// Validates a ratio schedule against a backbone depth.
    ///
    /// # Panics
    ///
    /// Panics as [`validate_stage_blocks`] does, or if a ratio is outside
    /// `(0, 1]`.
    pub fn validate(stages: &[RatioStage], depth: usize) {
        validate_stage_blocks(stages.iter().map(|s| s.block), depth);
        for s in stages {
            assert!(
                s.keep_ratio > 0.0 && s.keep_ratio <= 1.0,
                "keep ratio must be in (0, 1]"
            );
        }
    }
}

/// Checks that stage blocks are in range and strictly increasing: one stage
/// per block, so a schedule cannot list a block twice.
///
/// # Panics
///
/// Panics if a block is `>= depth` or not greater than the one before it.
pub fn validate_stage_blocks(blocks: impl IntoIterator<Item = usize>, depth: usize) {
    let mut first_free = 0;
    for block in blocks {
        assert!(block < depth, "stage block out of range");
        assert!(
            block >= first_free,
            "stages must be in strictly increasing block order"
        );
        first_free = block + 1;
    }
}

/// Tokens entering a block when a nominal `keep` share of the original
/// `patches` survives: the kept patches, the class token, and a
/// consolidated token once pruning has begun if `consolidated`.
pub fn nominal_tokens(keep: f32, patches: usize, consolidated: bool) -> usize {
    keep_count(keep, patches) + 1 + usize::from(keep < 1.0 && consolidated)
}

/// `ceil(share · patches)`, clamped to `1..=patches`.
fn keep_count(share: f32, patches: usize) -> usize {
    ((share * patches as f32).ceil() as usize).clamp(1, patches)
}

/// Ranks `scores` descending (ties toward the earlier index) into `order`
/// and puts the top `k` indices, ascending, in `kept`.
pub fn select_top(k: usize, scores: &[f32], order: &mut Vec<usize>, kept: &mut Vec<usize>) {
    order.clear();
    order.extend(0..scores.len());
    order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
    kept.clear();
    kept.extend_from_slice(&order[..k]);
    kept.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_breaks_ties_toward_the_earlier_index() {
        let (mut order, mut kept) = (Vec::new(), Vec::new());
        select_top(2, &[0.5, 0.9, 0.5, 0.5], &mut order, &mut kept);
        assert_eq!(order, [1, 0, 2, 3]);
        assert_eq!(kept, [0, 1]);
    }

    #[test]
    fn nominal_tokens_add_the_package_only_once_pruning_began() {
        assert_eq!(nominal_tokens(1.0, 16, true), 17);
        assert_eq!(nominal_tokens(0.7, 16, true), 12 + 2);
        assert_eq!(nominal_tokens(0.7, 16, false), 12 + 1);
    }
}
