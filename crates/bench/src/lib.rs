//! Benchmark harness for the HeatViT reproduction.
//!
//! The criterion microbenches live in `benches/` (GEMM repacking, selector
//! scoring, int8 GEMM, nonlinearity approximations, end-to-end engine) and
//! the `run_all` binary prints the dense vs. adaptive-pruned vs.
//! static-pruned vs. int8-quantized throughput table over a synthetic
//! batch. This library provides the shared fixtures so every bench measures
//! the same models and data.

#![warn(missing_docs)]

pub use heatvit::telemetry::json;

use heatvit::{Backend, BackendKind};
use heatvit_data::{SyntheticConfig, SyntheticDataset};
use heatvit_quant::{QuantPruneStage, QuantizedViT};
use heatvit_selector::{PrunedViT, StaticPrunedViT, StaticRule, StaticStage, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{ClsAttnPrunedViT, TfStage, TokenMergeViT, TopKPrunedViT, TopKStage};
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of classes used by every benchmark fixture.
pub const BENCH_CLASSES: usize = 8;

/// The dense micro backbone (weights deterministic in `seed`).
pub fn micro_backbone(seed: u64) -> VisionTransformer {
    let mut rng = StdRng::seed_from_u64(seed);
    VisionTransformer::new(ViTConfig::micro(BENCH_CLASSES), &mut rng)
}

/// The adaptive-pruned variant over a given backbone: selectors in front of
/// blocks 1 and 3 (a two-stage schedule on the 6-block micro config).
pub fn adaptive_pruned(backbone: VisionTransformer, seed: u64) -> PrunedViT {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut model = PrunedViT::new(backbone);
    for &block in &DEMO_SELECTOR_BLOCKS {
        model.insert_selector(block, TokenSelector::new(dim, heads, &mut rng));
    }
    // Declare the schedule's keep targets so the model's cost profile (and
    // every latency model over it) sees the planned token counts instead of
    // a dense-shaped upper bound.
    for (&block, &keep) in DEMO_SELECTOR_BLOCKS.iter().zip(DEMO_STAGE_KEEPS.iter()) {
        model.set_nominal_keep(block, keep);
    }
    model
}

/// The static-pruned variant over a given backbone, with keep ratios
/// matched to a typical adaptive schedule (0.7 then 0.6).
pub fn static_pruned(backbone: VisionTransformer) -> StaticPrunedViT {
    StaticPrunedViT::new(
        backbone,
        DEMO_SELECTOR_BLOCKS
            .iter()
            .zip(DEMO_STAGE_KEEPS.iter())
            .map(|(&block, &keep_ratio)| StaticStage { block, keep_ratio })
            .collect(),
        StaticRule::CliffAttention,
        0,
    )
}

/// The ratio stages every training-free ratio variant shares: the demo
/// schedule's blocks and keeps, so cls-attn and token-merge run at exactly
/// the keep rate of the learned/static baselines (and of each other — the
/// mergence-vs-hard-drop agreement comparison is only meaningful at equal
/// keep rates).
pub fn tf_stages() -> Vec<TfStage> {
    DEMO_SELECTOR_BLOCKS
        .iter()
        .zip(DEMO_STAGE_KEEPS.iter())
        .map(|(&block, &keep_ratio)| TfStage { block, keep_ratio })
        .collect()
}

/// The training-free CLS-attention hard-drop variant over a given backbone,
/// at the demo schedule's stages.
pub fn cls_attn_pruned(backbone: VisionTransformer) -> ClsAttnPrunedViT {
    ClsAttnPrunedViT::new(backbone, tf_stages())
}

/// The training-free token-mergence variant over a given backbone — same
/// stages (and therefore the same token schedule and MAC budget, up to the
/// charged merge overhead) as [`cls_attn_pruned`].
pub fn token_merge(backbone: VisionTransformer) -> TokenMergeViT {
    TokenMergeViT::new(backbone, tf_stages())
}

/// Keep *counts* of the fixed-layer top-k demo schedule (12 then 7 of the
/// micro config's 16 patch tokens — close to the ratio family's 12/8, so
/// the report rows are comparable).
pub const DEMO_TOPK_KEEPS: [usize; 2] = [12, 7];

/// Blocks the fixed-layer top-k demo schedule prunes in front of (offset
/// from the ratio family's to exercise distinct depths).
pub const DEMO_TOPK_BLOCKS: [usize; 2] = [2, 4];

/// The training-free fixed-layer top-k variant over a given backbone:
/// static keep counts [`DEMO_TOPK_KEEPS`] at blocks [`DEMO_TOPK_BLOCKS`],
/// ranked by CLS attention plus value-norm share.
pub fn topk_pruned(backbone: VisionTransformer) -> TopKPrunedViT {
    TopKPrunedViT::new(
        backbone,
        DEMO_TOPK_BLOCKS
            .iter()
            .zip(DEMO_TOPK_KEEPS.iter())
            .map(|(&block, &keep)| TopKStage { block, keep })
            .collect(),
    )
}

/// Seed of the held-out calibration batch (disjoint from the bench batch).
pub const CALIBRATION_SEED: u64 = 0xCA11B;

/// The int8-dense variant: the backbone's weights quantized to int8, static
/// activation scales calibrated on a held-out synthetic batch.
pub fn quantized_dense(backbone: &VisionTransformer) -> QuantizedViT {
    let mut model = QuantizedViT::from_float(backbone);
    model.calibrate(&synthetic_batch(8, CALIBRATION_SEED));
    model
}

/// The int8-adaptive variant: the quantized backbone with attention-driven
/// token pruning in front of blocks 2 and 4 — a two-stage schedule on the
/// 6-block micro config, each stage pruning patch tokens whose class-token
/// attention falls below 0.9× the mean.
pub fn quantized_adaptive(backbone: &VisionTransformer) -> QuantizedViT {
    let mut model = QuantizedViT::from_float(backbone).with_prune_stages(vec![
        QuantPruneStage {
            block: 2,
            attn_frac: 0.9,
        },
        QuantPruneStage {
            block: 4,
            attn_frac: 0.9,
        },
    ]);
    // Nominal keep per attention-threshold stage for cost prediction (the
    // 0.9×-mean cut retains roughly the demo schedule's fraction; actual
    // counts are input-dependent, which the cost profile marks inexact).
    model.set_nominal_keep(&DEMO_STAGE_KEEPS);
    model.calibrate(&synthetic_batch(8, CALIBRATION_SEED));
    model
}

/// The canonical benchmark fixture for a [`BackendKind`]: the micro
/// backbone (seed 0) wrapped in the kind's pruning/quantization
/// configuration, type-erased into a [`Backend`] handle.
///
/// Every kind shares the same backbone weights, so cross-backend rows in
/// `run_all`/`serve_demo` compare pruning and quantization policy, not
/// initialization luck. Deterministic: two calls build bit-identical
/// models.
pub fn build_backend(kind: BackendKind) -> Backend {
    let backbone = micro_backbone(0);
    match kind {
        BackendKind::Dense => Backend::from(backbone),
        BackendKind::AdaptivePruned => Backend::from(adaptive_pruned(backbone, 0)),
        BackendKind::StaticPruned => Backend::from(static_pruned(backbone)),
        BackendKind::ClsAttn => Backend::from(cls_attn_pruned(backbone)),
        BackendKind::TokenMerge => Backend::from(token_merge(backbone)),
        BackendKind::TopK => Backend::from(topk_pruned(backbone)),
        BackendKind::Int8Dense => Backend::from(quantized_dense(&backbone)),
        BackendKind::Int8Adaptive => Backend::from(quantized_adaptive(&backbone)),
    }
}

/// A batch of synthetic 32×32 images matching the micro config.
pub fn synthetic_batch(count: usize, seed: u64) -> Vec<Tensor> {
    SyntheticDataset::generate(SyntheticConfig::micro(), count, seed)
        .iter()
        .map(|s| s.image.clone())
        .collect()
}

/// A deterministic `[n, d]` token matrix for layer-level benches.
pub fn token_matrix(n: usize, d: usize, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_normal(&[n, d], 0.0, 1.0, &mut rng)
}

/// Blocks the hand-placed two-stage demo schedule installs selectors in
/// front of (shared by [`adaptive_pruned`], [`static_pruned`], and the
/// `train_demo` students so every variant prunes at the same depths).
pub const DEMO_SELECTOR_BLOCKS: [usize; 2] = [1, 3];

/// Per-stage keep ratios of the hand-placed two-stage demo schedule
/// (each stage's fraction of *incoming* patch tokens, the convention
/// [`StaticStage::keep_ratio`] and the trainer's keep targets share).
pub const DEMO_STAGE_KEEPS: [f32; 2] = [0.7, 0.6];

/// The hand-placed two-stage schedule in the paper's *cumulative* notation:
/// the per-stage ratios of [`DEMO_STAGE_KEEPS`] at the
/// [`DEMO_SELECTOR_BLOCKS`] placements compound to 0.7 and 0.42 of the
/// original patch tokens. This is the baseline the learned block-to-stage
/// pipeline is compared against.
pub fn hand_placed_schedule() -> heatvit_selector::PruningSchedule {
    let mut cumulative = 1.0f32;
    heatvit_selector::PruningSchedule::new(
        DEMO_SELECTOR_BLOCKS
            .iter()
            .zip(DEMO_STAGE_KEEPS.iter())
            .map(|(&block, &keep)| {
                cumulative *= keep;
                heatvit_selector::SelectorPlacement {
                    block,
                    target_keep: cumulative,
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_vit::TokenPolicy;

    #[test]
    fn fixtures_are_deterministic_and_consistent() {
        let a = micro_backbone(1);
        let b = micro_backbone(1);
        let img = &synthetic_batch(1, 0)[0];
        assert_eq!(a.infer(img).data(), b.infer(img).data());
        assert_eq!(img.dims(), &[3, 32, 32]);

        let pruned = adaptive_pruned(a, 1);
        let out = pruned.infer(img);
        assert_eq!(out.tokens_per_block.len(), 6);

        let stat = static_pruned(b);
        assert_eq!(stat.infer(img).tokens_per_block.len(), 6);
    }

    #[test]
    fn hand_placed_schedule_compounds_the_stage_keeps() {
        let s = hand_placed_schedule();
        assert_eq!(s.len(), 2);
        assert_eq!(s.placements()[0].block, DEMO_SELECTOR_BLOCKS[0]);
        assert!((s.placements()[0].target_keep - 0.7).abs() < 1e-6);
        assert_eq!(s.placements()[1].block, DEMO_SELECTOR_BLOCKS[1]);
        assert!((s.placements()[1].target_keep - 0.42).abs() < 1e-6);
    }

    #[test]
    fn build_backend_registers_every_kind_under_its_label() {
        use heatvit::InferenceModel;
        for kind in BackendKind::ALL {
            let backend = build_backend(kind);
            assert_eq!(backend.kind(), kind);
            assert_eq!(backend.variant(), kind.label());
        }
        // Same weights per kind: two builds are bit-identical.
        let img = &synthetic_batch(1, 5)[0];
        let mut scratch = heatvit_selector::PruneScratch::default();
        let a = build_backend(BackendKind::AdaptivePruned).infer_one(img, &mut scratch);
        let b = build_backend(BackendKind::AdaptivePruned).infer_one(img, &mut scratch);
        assert_eq!(a.logits.data(), b.logits.data());
    }

    #[test]
    fn training_free_fixtures_share_the_demo_keep_rates() {
        let backbone = micro_backbone(1);
        let cls = cls_attn_pruned(backbone.clone());
        let merge = token_merge(backbone.clone());
        // Equal keep rates by construction: the mergence-vs-hard-drop
        // comparison is at identical token schedules.
        assert_eq!(
            cls.planned_tokens_per_block(),
            merge.planned_tokens_per_block()
        );
        // And they mirror the static baseline's schedule (same ceil
        // arithmetic over the same blocks/ratios).
        let stat = static_pruned(backbone.clone());
        assert_eq!(cls.planned_tokens_per_block(), {
            let img = &synthetic_batch(1, 7)[0];
            stat.infer(img).tokens_per_block
        });
        let topk = topk_pruned(backbone);
        assert_eq!(topk.planned_tokens_per_block(), vec![17, 17, 13, 13, 8, 8]);
    }

    #[test]
    fn quantized_fixtures_are_calibrated_and_named() {
        let backbone = micro_backbone(1);
        let dense = quantized_dense(&backbone);
        assert!(dense.is_calibrated());
        assert_eq!(dense.variant_name(), "int8-dense");
        let adaptive = quantized_adaptive(&backbone);
        assert!(adaptive.is_calibrated());
        assert_eq!(adaptive.variant_name(), "int8-adaptive");
        let img = &synthetic_batch(1, 3)[0];
        assert_eq!(dense.infer(img).tokens_per_block, vec![17; 6]);
        assert!(adaptive.infer(img).tokens_per_block[4] <= 18);
    }
}
