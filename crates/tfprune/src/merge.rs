//! Token mergence: prune by folding, not dropping (Multi-Scale Token
//! Mergence).

use crate::{scoring, ClsAttnPrunedViT, TfStage};
use heatvit_tensor::Tensor;
use heatvit_vit::{StageInput, StageScratch, TokenPolicy, VisionTransformer};

/// A backbone with training-free token *mergence*: stages and CLS-attention
/// ranking identical to [`ClsAttnPrunedViT`], but instead of discarding the
/// low-scored tokens, each one is folded into its most cosine-similar kept
/// token by a score-weighted average (the class token is always kept and
/// never merged into).
///
/// Downstream blocks see exactly the hard drop's token counts — the same
/// MAC budget — but the kept rows still carry a weighted trace of what was
/// removed, which is what preserves the accuracy hard dropping loses.
///
/// `Clone` so a serving deployment can stamp out per-server replicas,
/// matching the other backend types.
#[derive(Debug, Clone)]
pub struct TokenMergeViT {
    /// The hard drop whose ranking and schedule mergence shares.
    drop: ClsAttnPrunedViT,
}

impl TokenMergeViT {
    /// Canonical variant label this backend registers in engine and serving
    /// report tables.
    pub const VARIANT: &'static str = "token-merge";

    /// Wraps a backbone with the given ratio stages.
    ///
    /// # Panics
    ///
    /// Panics as [`ClsAttnPrunedViT::new`] does.
    pub fn new(backbone: VisionTransformer, stages: Vec<TfStage>) -> Self {
        Self {
            drop: ClsAttnPrunedViT::new(backbone, stages),
        }
    }
}

impl TokenPolicy for TokenMergeViT {
    type Domain = VisionTransformer;

    fn backbone(&self) -> &VisionTransformer {
        self.drop.backbone()
    }

    fn has_stage(&self, block: usize) -> bool {
        self.drop.has_stage(block)
    }

    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch) {
        self.drop.select(stage, ws);
    }

    fn consolidate(
        &self,
        stage: &StageInput<'_>,
        kept_rows: &mut Tensor,
        ws: &mut StageScratch,
    ) -> bool {
        scoring::fold_into_nearest(stage.patches, kept_rows, ws);
        false
    }

    /// The hard drop's: mergence changes token *content*, never token
    /// counts.
    fn stage_tokens(&self, block: usize, tokens: usize) -> usize {
        self.drop.stage_tokens(block, tokens)
    }

    /// The hard drop's scoring pass plus the pruned-to-kept
    /// cosine-similarity products (`pruned · kept · D`); the remaining merge
    /// arithmetic is `O((pruned + kept) · D)` element-wise work, in the same
    /// class as the residual adds the MAC model already leaves to the vector
    /// units.
    fn stage_macs(&self, block: usize, tokens_in: usize, tokens_out: usize) -> u64 {
        let (kept, pruned) = (tokens_out - 1, tokens_in - tokens_out);
        let dim = self.backbone().config().embed_dim;
        self.drop.stage_macs(block, tokens_in, tokens_out) + (pruned * kept * dim) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_vit::ViTConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backbone(seed: u64) -> (VisionTransformer, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
        (b, rng)
    }

    fn stages() -> Vec<TfStage> {
        vec![
            TfStage {
                block: 1,
                keep_ratio: 0.7,
            },
            TfStage {
                block: 3,
                keep_ratio: 0.5,
            },
        ]
    }

    #[test]
    fn token_counts_match_the_hard_drop_exactly() {
        let (b, mut rng) = backbone(0);
        let merge = TokenMergeViT::new(b.clone(), stages());
        let drop = ClsAttnPrunedViT::new(b, stages());
        assert_eq!(
            merge.planned_tokens_per_block(),
            drop.planned_tokens_per_block()
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(
            merge.infer(&image).tokens_per_block,
            drop.infer(&image).tokens_per_block
        );
    }

    #[test]
    fn merged_logits_differ_from_hard_dropped_logits() {
        // If they didn't, the fold was a no-op and nothing was preserved.
        let (b, mut rng) = backbone(1);
        let merge = TokenMergeViT::new(b.clone(), stages());
        let drop = ClsAttnPrunedViT::new(b, stages());
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_ne!(
            merge.infer(&image).logits.data(),
            drop.infer(&image).logits.data()
        );
    }

    #[test]
    fn full_keep_stage_is_a_numerical_no_op() {
        // With nothing pruned there is nothing to fold: mergence at ratio 1
        // must reproduce the dense backbone bitwise (the merge normalizes
        // each kept row by its own weight, w·x/w = x exactly in floats
        // only when untouched — this pins the kept-row passthrough).
        let (b, mut rng) = backbone(2);
        let merge = TokenMergeViT::new(
            b.clone(),
            vec![TfStage {
                block: 2,
                keep_ratio: 1.0,
            }],
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(merge.infer(&image).logits.data(), b.infer(&image).data());
    }

    #[test]
    fn mergence_charges_more_macs_than_the_hard_drop() {
        let (b, _) = backbone(4);
        let merge = TokenMergeViT::new(b.clone(), stages());
        let drop = ClsAttnPrunedViT::new(b, stages());
        assert!(
            merge.macs_for_tokens(&merge.planned_tokens_per_block())
                > drop.macs_for_tokens(&drop.planned_tokens_per_block()),
            "the similarity products must be charged"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stage_depth_is_validated() {
        let (b, _) = backbone(5);
        TokenMergeViT::new(
            b,
            vec![TfStage {
                block: 9,
                keep_ratio: 0.5,
            }],
        );
    }
}
