//! Static token-pruning baselines (paper Section II-D).
//!
//! Static pruning removes a *fixed* fraction of tokens for every image,
//! ignoring per-image information content. Three rules are provided:
//!
//! * [`StaticRule::CliffAttention`] — keep the top-k tokens by class-token
//!   attention (the EViT/ATS family of criteria);
//! * [`StaticRule::TokenNorm`] — keep the top-k tokens by embedding norm;
//! * [`StaticRule::Random`] — random keep (lower bound).
//!
//! These baselines run the adaptive model's [`TokenPolicy`] loop, so Fig.
//! 2/Fig. 4 comparisons isolate exactly the decision policy.

use heatvit_tensor::Tensor;
use heatvit_vit::{
    select_top, RatioStage, StageInput, StageScratch, TokenPolicy, VisionTransformer,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The static keep criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaticRule {
    /// Rank tokens by mean class-token attention from the previous block.
    CliffAttention,
    /// Rank tokens by their embedding L2 norm.
    TokenNorm,
    /// Keep a uniformly random subset (seeded).
    Random,
}

/// One static pruning stage: in front of `block`, keep `ceil(ratio · N)`
/// tokens of the `N` current patch tokens.
pub type StaticStage = RatioStage;

/// A backbone with static (input-agnostic) token pruning.
///
/// `Clone` so a serving deployment can stamp out per-server replicas of one
/// configured baseline, matching the other backend types.
#[derive(Debug, Clone)]
pub struct StaticPrunedViT {
    backbone: VisionTransformer,
    stages: Vec<StaticStage>,
    rule: StaticRule,
    seed: u64,
}

impl StaticPrunedViT {
    /// Canonical variant label this backend registers in engine and serving
    /// report tables.
    pub const VARIANT: &'static str = "static-pruned";

    /// Wraps a backbone with the given stages and rule.
    ///
    /// # Panics
    ///
    /// Panics if any stage is out of range, not strictly after the one
    /// before it, or has an invalid ratio.
    pub fn new(
        backbone: VisionTransformer,
        stages: Vec<StaticStage>,
        rule: StaticRule,
        seed: u64,
    ) -> Self {
        RatioStage::validate(&stages, backbone.config().depth);
        Self {
            backbone,
            stages,
            rule,
            seed,
        }
    }

    fn stage(&self, block: usize) -> Option<&StaticStage> {
        self.stages.iter().find(|s| s.block == block)
    }
}

impl TokenPolicy for StaticPrunedViT {
    type Domain = VisionTransformer;

    fn backbone(&self) -> &VisionTransformer {
        &self.backbone
    }

    fn has_stage(&self, block: usize) -> bool {
        self.stage(block).is_some()
    }

    /// Ranks the patches by the rule (higher = more informative) and keeps
    /// the stage's fixed count.
    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch) {
        let patches = stage.patches;
        let n = patches.dim(0);
        ws.scores.clear();
        match (self.rule, stage.cls_attn) {
            // Class-token attention to each patch, averaged over heads.
            (StaticRule::CliffAttention, Some(attn)) => ws.scores.extend_from_slice(attn),
            // One seeded stream per image: replay the earlier stages'
            // shuffles (their sizes are fixed by the schedule), then rank
            // by position in this stage's shuffle.
            (StaticRule::Random, _) => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                let mut entering = self.backbone.config().num_patches();
                for s in self.stages.iter().take_while(|s| s.block < stage.index) {
                    shuffled(entering, &mut rng, &mut ws.order);
                    entering = s.keep(entering);
                }
                shuffled(n, &mut rng, &mut ws.order);
                ws.scores.resize(n, 0.0);
                for (rank, &i) in ws.order.iter().enumerate() {
                    ws.scores[i] = rank as f32;
                }
            }
            // Token norms; also the attention rule's fallback in front of
            // block 0, where no attention exists yet.
            _ => ws.scores.extend((0..n).map(|r| row_norm(patches, r))),
        }
        let keep = self.stage(stage.index).expect("stage exists").keep(n);
        select_top(keep, &ws.scores, &mut ws.order, &mut ws.kept);
    }

    /// Exact: the keep count depends on the schedule, never on the image.
    fn stage_tokens(&self, block: usize, tokens: usize) -> usize {
        self.stage(block).expect("stage exists").keep(tokens - 1) + 1
    }
}

/// `0..n` in `rng`'s shuffled order, written to `out`.
fn shuffled(n: usize, rng: &mut StdRng, out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..n);
    out.shuffle(rng);
}

fn row_norm(t: &Tensor, r: usize) -> f32 {
    t.row(r).iter().map(|&v| v * v).sum::<f32>().sqrt()
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

    #[test]
    fn keeps_exactly_the_requested_count() {
        let (b, mut rng) = backbone(0);
        let model = StaticPrunedViT::new(
            b,
            vec![StaticStage {
                block: 2,
                keep_ratio: 0.5,
            }],
            StaticRule::TokenNorm,
            0,
        );
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block[0], 17);
        assert_eq!(out.tokens_per_block[2], 9); // ceil(0.5·16) + cls
    }

    #[test]
    fn same_count_for_every_image() {
        // The defining property of static pruning (paper Fig. 4 left).
        let (b, mut rng) = backbone(1);
        let model = StaticPrunedViT::new(
            b,
            vec![StaticStage {
                block: 1,
                keep_ratio: 0.6,
            }],
            StaticRule::CliffAttention,
            0,
        );
        let mut counts = Vec::new();
        for _ in 0..4 {
            let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
            counts.push(model.infer(&image).tokens_per_block[1]);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn attention_rule_uses_previous_block_maps() {
        let (b, mut rng) = backbone(2);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        // Stage after block 0 → attention data available.
        let model = StaticPrunedViT::new(
            b,
            vec![StaticStage {
                block: 1,
                keep_ratio: 0.4,
            }],
            StaticRule::CliffAttention,
            0,
        );
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block[1], 8); // ceil(0.4·16)=7 +1 cls
    }

    #[test]
    fn random_rule_is_seed_deterministic() {
        let (b1, mut rng) = backbone(3);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let (b2, _) = backbone(3);
        let stage = vec![StaticStage {
            block: 2,
            keep_ratio: 0.5,
        }];
        let m1 = StaticPrunedViT::new(b1, stage.clone(), StaticRule::Random, 7);
        let m2 = StaticPrunedViT::new(b2, stage, StaticRule::Random, 7);
        assert!(
            m1.infer(&image)
                .logits
                .max_abs_diff(&m2.infer(&image).logits)
                <= 0.0
        );
    }

    #[test]
    #[should_panic(expected = "block order")]
    fn stages_must_be_ordered() {
        // One stage per block: the loop runs a repeated block's stage once,
        // so its second listing would be a stage that never runs.
        let (b, _) = backbone(4);
        StaticPrunedViT::new(
            b,
            vec![
                StaticStage {
                    block: 2,
                    keep_ratio: 0.5,
                },
                StaticStage {
                    block: 2,
                    keep_ratio: 0.5,
                },
            ],
            StaticRule::TokenNorm,
            0,
        );
    }
}
