//! One table over every pruning policy, f32 and int8. They all run the
//! shared `TokenPolicy` loop, so each must charge the MACs its token counts
//! imply (packed on the int8 datapath), plan exactly what it runs when it
//! claims an exact plan (as it must with no stage installed), report a keep
//! fraction per stage, repeat itself bit for bit on a warm workspace, and
//! refuse a stage schedule whose blocks do not strictly increase.

use heatvit::InferenceModel;
use heatvit_quant::{packed_macs, QuantPruneStage, QuantizedViT};
use heatvit_selector::{PruneScratch, PrunedViT, StaticPrunedViT, StaticRule, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{ClsAttnPrunedViT, TokenMergeViT, TopKPrunedViT, TopKStage};
use heatvit_vit::{BlockDomain, RatioStage, TokenPolicy, ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::catch_unwind;

/// What the table needs of a model: the engine's view, and the policy's
/// planner whatever the policy's block domain.
trait Policy: InferenceModel {
    fn planned(&self) -> Vec<usize>;
    fn macs(&self, tokens: &[usize]) -> u64;
    fn domain_raw_macs(&self, tokens: &[usize]) -> u64;
    fn exact(&self) -> bool;
    fn stages(&self) -> usize;
    fn keep_fractions(&self, image: &Tensor) -> Vec<f32>;
}

impl<P: TokenPolicy + InferenceModel> Policy for P {
    fn planned(&self) -> Vec<usize> {
        self.planned_tokens_per_block()
    }

    fn macs(&self, tokens: &[usize]) -> u64 {
        self.macs_for_tokens(tokens)
    }

    fn domain_raw_macs(&self, tokens: &[usize]) -> u64 {
        self.backbone().raw_macs(tokens.iter().copied())
    }

    fn exact(&self) -> bool {
        self.plan_is_exact()
    }

    fn stages(&self) -> usize {
        let depth = InferenceModel::config(self).depth;
        (0..depth).filter(|&block| self.has_stage(block)).count()
    }

    fn keep_fractions(&self, image: &Tensor) -> Vec<f32> {
        TokenPolicy::infer(self, image).keep_fractions
    }
}

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
    let int8_dense = QuantizedViT::from_float(&backbone());
    let stages = [2, 4].map(|block| QuantPruneStage {
        block,
        attn_frac: 0.9,
    });
    let mut int8_adaptive = int8_dense.clone().with_prune_stages(stages.to_vec());
    int8_adaptive.set_nominal_keep(&[0.7, 0.5]);
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
        Box::new(int8_dense),
        Box::new(int8_adaptive),
    ]
}

#[test]
fn every_policy_plans_what_it_runs_and_repeats_it_bitwise() {
    let mut rng = StdRng::seed_from_u64(4);
    let images: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    let mut variants = Vec::new();
    for model in policies() {
        let variant = model.variant();
        variants.push(variant.to_string());
        let planned = model.planned();
        let profile = model.cost_profile();
        assert_eq!(profile.tokens_per_block, planned, "{variant}");
        assert_eq!(profile.macs, model.macs(&planned), "{variant}");
        assert_eq!(profile.exact, model.exact(), "{variant}");
        assert!(model.stages() > 0 || model.exact(), "{variant}");
        let mut warm = PruneScratch::default();
        for image in &images {
            let fresh = model.infer_one(image, &mut PruneScratch::default());
            let reused = model.infer_one(image, &mut warm);
            assert_eq!(fresh.logits.data(), reused.logits.data(), "{variant}");
            assert_eq!(fresh.tokens_per_block, reused.tokens_per_block, "{variant}");
            assert_eq!(fresh.macs, reused.macs, "{variant}");
            let tokens = &fresh.tokens_per_block;
            assert_eq!(fresh.macs, model.macs(tokens), "{variant}");
            let raw = model.domain_raw_macs(tokens);
            if profile.quantized {
                assert_eq!(fresh.macs, packed_macs(raw), "{variant}");
            } else {
                assert!(fresh.macs >= raw, "{variant}");
            }
            if model.exact() {
                assert_eq!(tokens, &planned, "{variant}");
            }
            let fractions = model.keep_fractions(image);
            assert_eq!(fractions.len(), model.stages(), "{variant}");
            assert!(
                fractions.iter().all(|f| (0.0..=1.0).contains(f)),
                "{variant}"
            );
        }
    }
    assert!(variants.iter().any(|v| v == "int8-dense"), "{variants:?}");
    assert!(
        variants.iter().any(|v| v == "int8-adaptive"),
        "{variants:?}"
    );
}

#[test]
fn every_stage_schedule_must_strictly_increase() {
    let schedules: [(&str, fn()); 5] = [
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
        ("int8-adaptive", || {
            let stages = [4, 2].map(|block| QuantPruneStage {
                block,
                attn_frac: 0.9,
            });
            QuantizedViT::from_float(&backbone()).with_prune_stages(stages.to_vec());
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
