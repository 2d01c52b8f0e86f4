//! Fixed-layer top-k pruning: static keep *counts* at fixed depths, ranked
//! by CLS attention plus value-vector norm.

use crate::scoring;
use heatvit_vit::{
    validate_stage_blocks, StageInput, StageScratch, TokenPolicy, VisionTransformer,
};

/// One top-k stage: in front of `block`, keep the `keep` highest-scored
/// patch tokens (the class token is never counted and never pruned).
#[derive(Debug, Clone, Copy)]
pub struct TopKStage {
    /// Block index the stage precedes.
    pub block: usize,
    /// Number of patch tokens to keep (clamped to the tokens present).
    pub keep: usize,
}

/// A backbone with fixed-layer top-k scorer pruning: at each configured
/// depth, tokens are ranked by the sum of their mean CLS-attention
/// probability and their value-norm share (`‖W_v·x‖` normalized across
/// tokens), and a *static count* survives. The two summands are
/// complementary: attention says where the class token looks, the value
/// norm says how much a token injects into the mix when looked at.
///
/// `Clone` so a serving deployment can stamp out per-server replicas,
/// matching the other backend types.
#[derive(Debug, Clone)]
pub struct TopKPrunedViT {
    backbone: VisionTransformer,
    stages: Vec<TopKStage>,
}

impl TopKPrunedViT {
    /// Canonical variant label this backend registers in engine and serving
    /// report tables.
    pub const VARIANT: &'static str = "topk-attn";

    /// Wraps a backbone with the given top-k stages.
    ///
    /// # Panics
    ///
    /// Panics if any stage is out of range, not strictly after the one
    /// before it, or has a zero keep count.
    pub fn new(backbone: VisionTransformer, stages: Vec<TopKStage>) -> Self {
        validate_stage_blocks(stages.iter().map(|s| s.block), backbone.config().depth);
        assert!(
            stages.iter().all(|s| s.keep > 0),
            "keep count must be positive"
        );
        Self { backbone, stages }
    }

    /// Patch tokens the stage in front of `block` keeps of `patches`.
    fn keep(&self, block: usize, patches: usize) -> usize {
        let stage = self.stages.iter().find(|s| s.block == block);
        stage.expect("stage exists").keep.min(patches)
    }
}

impl TokenPolicy for TopKPrunedViT {
    type Domain = VisionTransformer;

    fn backbone(&self) -> &VisionTransformer {
        &self.backbone
    }

    fn has_stage(&self, block: usize) -> bool {
        self.stages.iter().any(|s| s.block == block)
    }

    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch) {
        let keep = self.keep(stage.index, stage.patches.dim(0));
        let block = &self.backbone.blocks()[stage.index];
        scoring::select(block, stage, keep, true, ws);
    }

    /// Exact: the keep counts are literal.
    fn stage_tokens(&self, block: usize, tokens: usize) -> usize {
        self.keep(block, tokens - 1) + 1
    }

    /// The scoring pass (query row, key *and* value projections, dots and
    /// norms), run on the tokens entering the stage.
    fn stage_macs(&self, block: usize, tokens_in: usize, _tokens_out: usize) -> u64 {
        scoring::scoring_macs(&self.backbone.blocks()[block], tokens_in, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_tensor::Tensor;
    use heatvit_vit::{StageScratch, ViTConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backbone(seed: u64) -> (VisionTransformer, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
        (b, rng)
    }

    fn stages() -> Vec<TopKStage> {
        vec![
            TopKStage { block: 2, keep: 10 },
            TopKStage { block: 4, keep: 5 },
        ]
    }

    #[test]
    fn keeps_literal_counts() {
        let (b, mut rng) = backbone(0);
        let model = TopKPrunedViT::new(b, stages());
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block, vec![17, 17, 11, 11, 6, 6]);
    }

    #[test]
    fn oversized_keep_is_clamped_to_the_tokens_present() {
        let (b, mut rng) = backbone(1);
        let model = TopKPrunedViT::new(
            b,
            vec![
                TopKStage { block: 1, keep: 4 },
                TopKStage {
                    block: 3,
                    keep: 100,
                },
            ],
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block, vec![17, 5, 5, 5, 5, 5]);
        assert_eq!(out.tokens_per_block, model.planned_tokens_per_block());
    }

    #[test]
    fn value_norms_change_the_ranking() {
        // The top-k criterion must actually differ from pure CLS attention
        // for at least some input, otherwise the value-norm term is dead
        // code. Checked on the scoring level: score vectors diverge.
        let (b, mut rng) = backbone(3);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let tokens = b.patch_embed().infer(&image);
        let mut s = StageScratch::default();
        crate::scoring::cls_attention_scores(&b.blocks()[0], &tokens, &mut s);
        let attn_only = s.scores.clone();
        crate::scoring::add_value_norm_scores(&b.blocks()[0], &mut s);
        assert_ne!(attn_only, s.scores);
        // Both summands are probability-mass-like: each sums to ~1.
        let sum: f32 = s.scores.iter().sum();
        assert!((sum - 2.0).abs() < 1e-4, "score mass {sum}");
    }

    #[test]
    #[should_panic(expected = "block order")]
    fn stages_must_be_ordered() {
        // One stage per block: a repeated block would run once yet be
        // listed, and so charged, twice.
        let (b, _) = backbone(5);
        TopKPrunedViT::new(
            b,
            vec![
                TopKStage { block: 2, keep: 8 },
                TopKStage { block: 2, keep: 4 },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "keep count must be positive")]
    fn zero_keep_rejected() {
        let (b, _) = backbone(4);
        TopKPrunedViT::new(b, vec![TopKStage { block: 1, keep: 0 }]);
    }
}
