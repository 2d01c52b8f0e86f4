//! Hard-drop CLS-attention pruning (the Adaptive Sparse ViT recipe).

use crate::{scoring, TfStage};
use heatvit_vit::{RatioStage, StageInput, StageScratch, TokenPolicy, VisionTransformer};

/// A backbone with training-free CLS-attention token pruning: in front of
/// each configured stage, the class token's attention distribution (from
/// that block's own `W_q`/`W_k`, computed *before* the block runs) ranks
/// the patch tokens, and only the top fraction survives.
///
/// No parameters beyond the backbone's own — the pruning policy is a pure
/// function of weights the model already has, so any pretrained dense
/// checkpoint becomes a pruned variant for free.
///
/// `Clone` so a serving deployment can stamp out per-server replicas,
/// matching the other backend types.
#[derive(Debug, Clone)]
pub struct ClsAttnPrunedViT {
    backbone: VisionTransformer,
    stages: Vec<TfStage>,
}

impl ClsAttnPrunedViT {
    /// Canonical variant label this backend registers in engine and serving
    /// report tables.
    pub const VARIANT: &'static str = "cls-attn";

    /// Wraps a backbone with the given ratio stages.
    ///
    /// # Panics
    ///
    /// Panics if any stage is out of range, not strictly after the one
    /// before it, or has a ratio outside `(0, 1]`.
    pub fn new(backbone: VisionTransformer, stages: Vec<TfStage>) -> Self {
        RatioStage::validate(&stages, backbone.config().depth);
        Self { backbone, stages }
    }

    fn stage(&self, block: usize) -> Option<&TfStage> {
        self.stages.iter().find(|s| s.block == block)
    }
}

impl TokenPolicy for ClsAttnPrunedViT {
    type Domain = VisionTransformer;

    fn backbone(&self) -> &VisionTransformer {
        &self.backbone
    }

    fn has_stage(&self, block: usize) -> bool {
        self.stage(block).is_some()
    }

    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch) {
        let keep = self
            .stage(stage.index)
            .expect("stage exists")
            .keep(stage.patches.dim(0));
        let block = &self.backbone.blocks()[stage.index];
        scoring::select(block, stage, keep, false, ws);
    }

    /// Exact: the keep arithmetic is input-agnostic.
    fn stage_tokens(&self, block: usize, tokens: usize) -> usize {
        self.stage(block).expect("stage exists").keep(tokens - 1) + 1
    }

    /// The scoring pass, run on the tokens entering the stage.
    fn stage_macs(&self, block: usize, tokens_in: usize, _tokens_out: usize) -> u64 {
        scoring::scoring_macs(&self.backbone.blocks()[block], tokens_in, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_tensor::Tensor;
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
    fn keeps_exactly_the_requested_counts() {
        let (b, mut rng) = backbone(0);
        let model = ClsAttnPrunedViT::new(b, stages());
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        // ceil(0.7·16)=12 then ceil(0.5·12)=6, plus the class token.
        assert_eq!(out.tokens_per_block, vec![17, 13, 13, 7, 7, 7]);
    }

    #[test]
    fn stage_in_front_of_block_zero_is_well_defined() {
        // Unlike the attention-reuse baselines, the scorer uses the
        // *upcoming* block's projections, so no fallback rule is needed.
        let (b, mut rng) = backbone(1);
        let model = ClsAttnPrunedViT::new(
            b,
            vec![TfStage {
                block: 0,
                keep_ratio: 0.5,
            }],
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        assert_eq!(model.infer(&image).tokens_per_block[0], 9);
    }

    #[test]
    fn scoring_overhead_is_charged() {
        let (b, _) = backbone(4);
        let dense_macs = b.macs();
        let unpruned = ClsAttnPrunedViT::new(
            b,
            vec![TfStage {
                block: 2,
                keep_ratio: 1.0,
            }],
        );
        // Keeping everything still pays for the stage's scoring pass.
        let planned = unpruned.planned_tokens_per_block();
        assert!(unpruned.macs_for_tokens(&planned) > dense_macs);
    }

    #[test]
    #[should_panic(expected = "block order")]
    fn stages_must_be_ordered() {
        // One stage per block: a repeated block would run once yet be
        // listed, and so charged, twice.
        let (b, _) = backbone(5);
        ClsAttnPrunedViT::new(
            b,
            vec![
                TfStage {
                    block: 2,
                    keep_ratio: 0.5,
                },
                TfStage {
                    block: 2,
                    keep_ratio: 0.5,
                },
            ],
        );
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn ratio_must_be_valid() {
        let (b, _) = backbone(6);
        ClsAttnPrunedViT::new(
            b,
            vec![TfStage {
                block: 1,
                keep_ratio: 0.0,
            }],
        );
    }
}
