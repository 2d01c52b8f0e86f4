//! One pruning loop for every token policy.
//!
//! HeatViT's token-selection flow (paper Fig. 9) is the same step between
//! blocks whatever decides it: score the tokens, repack the survivors into a
//! smaller dense matrix (class token first), and optionally append one token
//! that consolidates the pruned ones. A [`TokenPolicy`] supplies only the
//! decision — which patches survive, what (if anything) the pruned ones fold
//! into, how many tokens it plans for, and what its scoring costs — and
//! [`TokenPolicy::infer_with`] runs patch embedding → \[stage → dense
//! repack\] → block → … → head for all of them, tracking where every row
//! came from.

use crate::attention::AttentionMaps;
use crate::block::EncoderBlock;
use crate::model::VisionTransformer;
use crate::scratch::{InferScratch, StageScratch};
use heatvit_tensor::Tensor;

/// What a stage sees in front of block `index`.
#[derive(Debug, Clone, Copy)]
pub struct StageInput<'a> {
    /// Index of the block the stage precedes.
    pub index: usize,
    /// The block the stage precedes (its projections are the upcoming
    /// attention's).
    pub block: &'a EncoderBlock,
    /// The current token matrix `[1 + N, D]`, class token first.
    pub tokens: &'a Tensor,
    /// Its patch rows `[N, D]` (every row after the class token, an earlier
    /// stage's appended token included).
    pub patches: &'a Tensor,
    /// The previous block's attention maps, lent for this stage (`None` in
    /// front of block 0).
    pub maps: Option<&'a AttentionMaps>,
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
/// policy repacks, counts and charges its tokens the same way.
///
/// `Send + Sync` because serving worker pools share and move models across
/// threads: a field that is neither fails to build at the policy's own impl,
/// not at a distant spawn site.
pub trait TokenPolicy: Send + Sync {
    /// The backbone the stages run between.
    fn backbone(&self) -> &VisionTransformer;

    /// Whether a stage runs in front of block `block`.
    fn has_stage(&self, block: usize) -> bool;

    /// Decides the stage in front of `stage.index`: writes the indices of
    /// the surviving rows of `stage.patches`, ascending, to `ws.kept`. The
    /// other buffers of `ws` are the policy's own.
    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch);

    /// Folds the pruned patches into the survivors once the loop has
    /// gathered the kept rows into `kept_rows` (rows of `patches` listed in
    /// `ws.kept`), and returns a `[1, D]` token to append after them, if the
    /// policy consolidates that way. The default drops them.
    fn consolidate(
        &self,
        _patches: &Tensor,
        _kept_rows: &mut Tensor,
        _ws: &mut StageScratch,
    ) -> Option<Tensor> {
        None
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

    /// Multiply–accumulates the stage in front of `block` spends on top of
    /// the blocks, given the tokens entering and leaving it.
    fn stage_macs(&self, _block: usize, _tokens_in: usize, _tokens_out: usize) -> u64 {
        0
    }

    /// Inference with dense token repacking.
    fn infer(&self, image: &Tensor) -> PrunedInference {
        self.infer_with(image, &mut InferScratch::default())
    }

    /// [`TokenPolicy::infer`] reusing a caller-provided workspace for the
    /// blocks, the repack and the stages' own buffers; bit-identical to the
    /// fresh-workspace path — the software mirror of the accelerator's
    /// token-selection pipeline writing into fixed on-chip buffers.
    fn infer_with(&self, image: &Tensor, ws: &mut InferScratch) -> PrunedInference {
        let backbone = self.backbone();
        let mut tokens = backbone.patch_embed().infer(image);
        ws.origin.clear();
        ws.origin.push(None);
        ws.origin.extend((0..tokens.dim(0) - 1).map(Some));
        let mut tokens_per_block = Vec::with_capacity(backbone.config().depth);
        let mut keep_fractions = Vec::new();
        let mut surviving_patches = Vec::new();
        let mut maps = None;
        for (index, block) in backbone.blocks().iter().enumerate() {
            if self.has_stage(index) {
                let n = tokens.dim(0);
                tokens.slice_rows_into(1, n, &mut ws.patches);
                let stage = StageInput {
                    index,
                    block,
                    tokens: &tokens,
                    patches: &ws.patches,
                    maps: maps.as_ref(),
                };
                self.select(&stage, &mut ws.stage);
                let kept = &ws.stage.kept;
                keep_fractions.push(kept.len() as f32 / (n - 1) as f32);
                surviving_patches.push(kept.iter().filter_map(|&i| ws.origin[i + 1]).collect());
                ws.new_origin.clear();
                ws.new_origin.push(None);
                ws.new_origin.extend(kept.iter().map(|&i| ws.origin[i + 1]));
                tokens.slice_rows_into(0, 1, &mut ws.cls);
                ws.patches.gather_rows_into(kept, &mut ws.kept_rows);
                match self.consolidate(&ws.patches, &mut ws.kept_rows, &mut ws.stage) {
                    Some(token) => {
                        let parts = [&ws.cls, &ws.kept_rows, &token];
                        Tensor::concat_rows_into(&parts, &mut ws.repacked);
                        ws.new_origin.push(None);
                    }
                    None => Tensor::concat_rows_into(&[&ws.cls, &ws.kept_rows], &mut ws.repacked),
                }
                // The repacked matrix becomes the tokens; the old token
                // storage becomes the next stage's repack buffer.
                std::mem::swap(&mut tokens, &mut ws.repacked);
                std::mem::swap(&mut ws.origin, &mut ws.new_origin);
            }
            tokens_per_block.push(tokens.dim(0));
            let (out, block_maps) = block.infer_with(&tokens, None, ws);
            tokens = out;
            maps = self.has_stage(index + 1).then_some(block_maps);
        }
        PrunedInference {
            logits: backbone.classify_tokens_infer(&tokens),
            tokens_per_block,
            keep_fractions,
            surviving_patches,
        }
    }

    /// Runs a batch of images through one shared workspace; equivalent to
    /// mapping [`TokenPolicy::infer`] over `images`.
    fn infer_batch(&self, images: &[Tensor]) -> Vec<PrunedInference> {
        let mut ws = InferScratch::default();
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
    /// schedule, stage overhead included — an inference's own
    /// `tokens_per_block`, or [`TokenPolicy::planned_tokens_per_block`] for
    /// cost prediction.
    fn macs_for_tokens(&self, tokens_per_block: &[usize]) -> u64 {
        let backbone = self.backbone();
        let mut total = backbone.patch_embed().macs() + backbone.head().macs(1);
        let mut tokens_in = backbone.config().num_tokens();
        for (index, (block, &tokens)) in backbone.blocks().iter().zip(tokens_per_block).enumerate()
        {
            if self.has_stage(index) {
                total += self.stage_macs(index, tokens_in, tokens);
            }
            total += block.macs(tokens);
            tokens_in = tokens;
        }
        total
    }
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
