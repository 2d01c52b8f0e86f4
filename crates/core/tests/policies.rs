//! One table over every f32 pruning policy. They all run the backbone's
//! shared `TokenPolicy` loop, so each must charge the MACs its token counts
//! imply, plan exactly what it runs when it claims an exact plan, repeat
//! itself bit for bit on a warm workspace, and refuse a stage schedule whose
//! blocks do not strictly increase.

use heatvit::InferenceModel;
use heatvit_selector::{PruneScratch, PrunedViT, StaticPrunedViT, StaticRule, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{ClsAttnPrunedViT, TokenMergeViT, TopKPrunedViT, TopKStage};
use heatvit_vit::{RatioStage, TokenPolicy, ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::catch_unwind;

/// What the table needs of a model: the engine's view and the policy's.
trait Policy: TokenPolicy + InferenceModel {}
impl<P: TokenPolicy + InferenceModel> Policy for P {}

fn backbone() -> VisionTransformer {
    VisionTransformer::new(ViTConfig::micro(4), &mut StdRng::seed_from_u64(2))
}

fn ratios(blocks: [usize; 2]) -> Vec<RatioStage> {
    vec![
        RatioStage {
            block: blocks[0],
            keep_ratio: 0.7,
        },
        RatioStage {
            block: blocks[1],
            keep_ratio: 0.5,
        },
    ]
}

fn policies() -> Vec<Box<dyn Policy>> {
    let mut adaptive = PrunedViT::new(backbone());
    let mut rng = StdRng::seed_from_u64(3);
    for (block, keep) in [(1, 0.7), (3, 0.4)] {
        adaptive.insert_selector(block, TokenSelector::new(48, 3, &mut rng));
        adaptive.set_nominal_keep(block, keep);
    }
    let topk = [(2, 10), (4, 5)].map(|(block, keep)| TopKStage { block, keep });
    vec![
        Box::new(adaptive),
        Box::new(StaticPrunedViT::new(
            backbone(),
            ratios([1, 3]),
            StaticRule::CliffAttention,
            0,
        )),
        Box::new(ClsAttnPrunedViT::new(backbone(), ratios([1, 3]))),
        Box::new(TokenMergeViT::new(backbone(), ratios([1, 3]))),
        Box::new(TopKPrunedViT::new(backbone(), topk.to_vec())),
    ]
}

#[test]
fn every_policy_plans_what_it_runs_and_repeats_it_bitwise() {
    let mut rng = StdRng::seed_from_u64(4);
    let images: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    for model in policies() {
        let variant = model.variant();
        let planned = model.planned_tokens_per_block();
        let profile = model.cost_profile();
        assert_eq!(profile.tokens_per_block, planned, "{variant}");
        assert_eq!(profile.macs, model.macs_for_tokens(&planned), "{variant}");
        assert_eq!(profile.exact, model.plan_is_exact(), "{variant}");
        let mut warm = PruneScratch::default();
        for image in &images {
            let fresh = model.infer_one(image, &mut PruneScratch::default());
            let reused = model.infer_one(image, &mut warm);
            assert_eq!(fresh.logits.data(), reused.logits.data(), "{variant}");
            assert_eq!(fresh.tokens_per_block, reused.tokens_per_block, "{variant}");
            assert_eq!(fresh.macs, reused.macs, "{variant}");
            let tokens = &fresh.tokens_per_block;
            assert_eq!(fresh.macs, model.macs_for_tokens(tokens), "{variant}");
            if model.plan_is_exact() {
                assert_eq!(tokens, &planned, "{variant}");
            }
        }
    }
}

#[test]
fn every_stage_schedule_must_strictly_increase() {
    let schedules: [(&str, fn()); 4] = [
        ("static", || {
            StaticPrunedViT::new(backbone(), ratios([4, 2]), StaticRule::TokenNorm, 0);
        }),
        ("cls-attn", || {
            ClsAttnPrunedViT::new(backbone(), ratios([4, 2]));
        }),
        ("token-merge", || {
            TokenMergeViT::new(backbone(), ratios([4, 2]));
        }),
        ("topk", || {
            let stages = [(4, 8), (2, 4)].map(|(block, keep)| TopKStage { block, keep });
            TopKPrunedViT::new(backbone(), stages.to_vec());
        }),
    ];
    for (name, build) in schedules {
        let payload = catch_unwind(build).expect_err(name);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("block order"), "{name}: {message}");
    }
}
