//! Models and images the DeiT workloads run on. Weights and the held-out
//! calibration images come from fixed seeds; only the measured images come
//! from `--seed`, so two runs differ in their inputs and in nothing else.

use crate::walk::{self, Tracer, WalkModel, WalkScratch, STAGES};
use heatvit_data::{SyntheticConfig, SyntheticDataset};
use heatvit_nn::Module;
use heatvit_quant::{QuantPruneStage, QuantizedViT};
use heatvit_selector::gumbel::GumbelConfig;
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the backbone weights.
const WEIGHT_SEED: u64 = 0;
/// Seed of the selector weights.
const SELECTOR_SEED: u64 = 0xA5A5;
/// Seed of the held-out images thresholds and int8 scales are calibrated on.
const HELD_OUT_SEED: u64 = 0xCA11B;
/// Seed of the probe images the golden logits were recorded on.
const PROBE_SEED: u64 = 0x601D;

/// Held-out images the selector thresholds are calibrated on.
const THRESHOLD_IMAGES: usize = 16;
/// Held-out images the int8 activation scales are calibrated on.
const INT8_IMAGES: usize = 8;
/// Probe images behind the golden file.
pub const PROBE_IMAGES: usize = 4;

/// Share of its incoming patch tokens each selector stage keeps, pooled over
/// the calibration images (cumulative 0.70 / 0.49 / 0.34).
pub const STAGE_KEEP: f64 = 0.70;

/// Images the keep gate's tolerance is stated for.
pub const KEEP_GATE_IMAGES: usize = 32;

/// Mean class-token attention fraction below which the int8-adaptive model
/// prunes a token (the repository's demo setting).
const INT8_ATTN_FRAC: f32 = 0.9;

/// The shape a DeiT workload runs at: the paper's, or a stand-in small
/// enough for debug-build unit tests. Everything else in the pipeline is
/// the same code.
#[derive(Debug, Clone)]
pub struct Geometry {
    /// Backbone architecture.
    pub config: ViTConfig,
    /// Image generator settings (side length matches `config`).
    pub data: SyntheticConfig,
    /// Blocks the three selectors sit in front of; also where stages 1..3
    /// start for the dense model's stage rows.
    pub selector_blocks: [usize; STAGES - 1],
    /// Committed dense logits of the probe images, if this geometry has a
    /// golden file.
    pub golden: Option<&'static str>,
    /// How far a stage's pooled keep share may sit from [`STAGE_KEEP`] when
    /// pooled over [`KEEP_GATE_IMAGES`] measured images or more (fewer
    /// images widen it as their standard error grows).
    pub keep_tolerance: f64,
    /// Ceiling on the pruned model's mean relative logit error against
    /// dense f32 (twice the value when the benchmark was defined).
    pub pruned_err_ceiling: f64,
    /// The same ceiling for int8-dense.
    pub int8_err_ceiling: f64,
}

impl Geometry {
    /// DeiT-T: 197 tokens, 192 wide, 12 blocks, selectors before blocks
    /// 3, 6 and 9.
    pub fn deit_tiny() -> Self {
        Self {
            config: ViTConfig::deit_tiny(),
            data: SyntheticConfig {
                image_size: 224,
                ..SyntheticConfig::micro()
            },
            selector_blocks: [3, 6, 9],
            golden: Some(include_str!("../golden/deit_tiny_dense_probe.txt")),
            keep_tolerance: 0.05,
            // 0.043-0.069 and 0.210-0.223 over six seeds when defined.
            pruned_err_ceiling: 0.10,
            int8_err_ceiling: 0.43,
        }
    }

    /// Four blocks of the unit-test config with a selector before each of
    /// blocks 1..3 — the same four-stage pipeline at toy size.
    #[cfg(test)]
    pub fn test_tiny() -> Self {
        Self {
            config: ViTConfig {
                depth: 4,
                ..ViTConfig::test_tiny(8)
            },
            data: SyntheticConfig {
                num_classes: 8,
                ..SyntheticConfig::tiny()
            },
            selector_blocks: [1, 2, 3],
            golden: None,
            // Four patches per image: one row is a quarter of a stage.
            keep_tolerance: 0.35,
            pruned_err_ceiling: f64::INFINITY,
            int8_err_ceiling: f64::INFINITY,
        }
    }

    /// `count` images from `seed` (the same seed gives the same images).
    pub fn images(&self, count: usize, seed: u64) -> Vec<Tensor> {
        SyntheticDataset::generate(self.data, count, seed)
            .iter()
            .map(|s| s.image.clone())
            .collect()
    }

    /// The fixed probe images behind the golden file.
    pub fn probe_images(&self) -> Vec<Tensor> {
        self.images(PROBE_IMAGES, PROBE_SEED)
    }

    /// The dense backbone (fixed weights).
    pub fn dense(&self) -> VisionTransformer {
        let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
        VisionTransformer::new(self.config.clone(), &mut rng)
    }

    /// Nominal share of the original patches in force from each selector
    /// on: `STAGE_KEEP`, its square, its cube.
    pub fn nominal_keep(&self) -> [f32; STAGES - 1] {
        let mut keep = 1.0f64;
        self.selector_blocks.map(|_| {
            keep *= STAGE_KEEP;
            keep as f32
        })
    }

    /// The pruned model: a selector before each of `selector_blocks`,
    /// package token on, thresholds calibrated stage by stage on held-out
    /// images so each stage keeps [`STAGE_KEEP`] of its incoming patches
    /// pooled, nominal keeps declared to match.
    pub fn pruned(&self, dense: &VisionTransformer) -> PrunedViT {
        let mut rng = StdRng::seed_from_u64(SELECTOR_SEED);
        let mut selectors: Vec<TokenSelector> = self
            .selector_blocks
            .iter()
            .map(|_| TokenSelector::new(self.config.embed_dim, self.config.num_heads, &mut rng))
            .collect();
        selectors.iter_mut().for_each(centre_on_image);
        let held_out = self.images(THRESHOLD_IMAGES, HELD_OUT_SEED);
        calibrate_thresholds(
            dense,
            &mut selectors,
            &self.selector_blocks,
            &held_out,
            STAGE_KEEP,
        );
        let mut model = PrunedViT::new(dense.clone());
        for (&block, selector) in self.selector_blocks.iter().zip(selectors) {
            model.insert_selector(block, selector);
        }
        for (&block, keep) in self.selector_blocks.iter().zip(self.nominal_keep()) {
            model.set_nominal_keep(block, keep);
        }
        model
    }

    /// The int8-dense model, activation scales calibrated on held-out
    /// images.
    pub fn int8(&self, dense: &VisionTransformer) -> QuantizedViT {
        let mut model = QuantizedViT::from_float(dense);
        model.calibrate(&self.images(INT8_IMAGES, HELD_OUT_SEED));
        model
    }

    /// The int8-adaptive model: attention-threshold pruning before the
    /// same blocks the selectors sit at.
    pub fn int8_adaptive(&self, dense: &VisionTransformer) -> QuantizedViT {
        let stages = self
            .selector_blocks
            .iter()
            .map(|&block| QuantPruneStage {
                block,
                attn_frac: INT8_ATTN_FRAC,
            })
            .collect();
        let mut model = QuantizedViT::from_float(dense).with_prune_stages(stages);
        model.set_nominal_keep(&self.nominal_keep());
        model.calibrate(&self.images(INT8_IMAGES, HELD_OUT_SEED));
        model
    }
}

/// Makes a selector score each token against its own image: the scorer's
/// weights on the image-mean features become the negative of its weights on
/// the token's own features, so it sees only their difference.
///
/// Selectors here are untrained, on an untrained backbone whose tokens drift
/// together with depth; left as initialised they decide per *image* (a later
/// stage keeps all of one image and nothing of the next), and no fixed
/// threshold gives the per-image keep rates of a trained HeatViT. Centred,
/// every image keeps 0.6–0.8 of its rows per stage, which is the regime the
/// paper's latency claim is about.
///
/// # Panics
///
/// Panics if the classifier's parameters are not laid out per head as
/// `feature_fc1, feature_fc2, scorer_fc1, scorer_fc2` (weight, bias each).
fn centre_on_image(selector: &mut TokenSelector) {
    let heads = selector.classifier().num_heads();
    let half = (selector.classifier().head_dim() / 2).max(1);
    let mut params = selector.params_mut();
    for h in 0..heads {
        let w = params[h * 8 + 4].value_mut();
        assert_eq!(w.dims(), &[2 * half, half], "scorer_fc1 weight expected");
        for r in 0..half {
            for c in 0..half {
                let v = w.at(&[r, c]);
                w.set(&[half + r, c], -v);
            }
        }
    }
}

/// Sets each selector's keep threshold, first stage first, so that it keeps
/// `keep` of the patch rows it sees pooled over `images`. Later stages are
/// calibrated on what the earlier, already calibrated stages let through.
/// Returns the pooled keep share each stage achieves on `images`.
pub fn calibrate_thresholds(
    backbone: &VisionTransformer,
    selectors: &mut [TokenSelector],
    blocks: &[usize],
    images: &[Tensor],
    keep: f64,
) -> Vec<f64> {
    assert_eq!(selectors.len(), blocks.len(), "one block per selector");
    let mut ws = WalkScratch::default();
    let mut tracer = Tracer::off();
    let mut tokens: Vec<Tensor> = images
        .iter()
        .map(|image| backbone.patch_embed().infer(image))
        .collect();
    let mut achieved = Vec::with_capacity(blocks.len());
    for (index, block) in backbone.blocks().iter().enumerate() {
        if let Some(stage) = blocks.iter().position(|&b| b == index) {
            let selector = &mut selectors[stage];
            let mut scores: Vec<f32> = Vec::new();
            for t in &tokens {
                let s = selector.classifier().infer(&t.slice_rows(1, t.dim(0)));
                scores.extend((0..s.dim(0)).map(|r| s.at(&[r, 0])));
            }
            scores.sort_by(|a, b| b.total_cmp(a));
            let kept = ((keep * scores.len() as f64).round() as usize).clamp(1, scores.len());
            selector.set_gumbel(GumbelConfig {
                threshold: scores[kept - 1],
                ..selector.gumbel()
            });
            let threshold = scores[kept - 1];
            let at_or_above = scores.iter().filter(|&&s| s >= threshold).count();
            achieved.push(at_or_above as f64 / scores.len() as f64);
            for t in &mut tokens {
                *t = walk::select_and_repack(selector, t, true, &mut tracer);
            }
        }
        for t in &mut tokens {
            *t = walk::block_forward(block, t, &mut ws, &mut tracer);
        }
    }
    achieved
}

/// The walk's view of a pruned model.
pub fn walk_model<'a>(model: &'a PrunedViT, stage_blocks: &'a [usize]) -> WalkModel<'a> {
    WalkModel {
        backbone: model.backbone(),
        selectors: model.selectors(),
        package: model.package_enabled(),
        stage_blocks,
    }
}

/// Kept and incoming patch rows of each selector stage, recovered from the
/// token counts a model reports (`tokens_per_block`). A stage whose count
/// did not change is read as "kept everything"; the other reading — exactly
/// one row pruned and one package row added — differs by a single row.
pub fn stage_rows(tokens_per_block: &[usize], selector_blocks: &[usize]) -> Vec<(usize, usize)> {
    selector_blocks
        .iter()
        .map(|&block| {
            let incoming = tokens_per_block[block - 1] - 1;
            let after = tokens_per_block[block] - 1;
            if after == incoming {
                (incoming, incoming)
            } else {
                (after - 1, incoming)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_calibration_hits_its_keep_target_on_test_tiny() {
        let geometry = Geometry::test_tiny();
        let dense = geometry.dense();
        let mut rng = StdRng::seed_from_u64(1);
        let mut selectors: Vec<TokenSelector> = (0..3)
            .map(|_| {
                TokenSelector::new(
                    geometry.config.embed_dim,
                    geometry.config.num_heads,
                    &mut rng,
                )
            })
            .collect();
        let images = geometry.images(32, 7);
        let achieved = calibrate_thresholds(
            &dense,
            &mut selectors,
            &geometry.selector_blocks,
            &images,
            STAGE_KEEP,
        );
        assert_eq!(achieved.len(), 3);
        for (stage, share) in achieved.iter().enumerate() {
            assert!(
                (share - STAGE_KEEP).abs() <= 0.05,
                "stage {stage} keeps {share}, wanted {STAGE_KEEP} +- 0.05"
            );
        }
    }

    #[test]
    fn pruned_fixture_is_deterministic_and_declares_its_schedule() {
        let geometry = Geometry::test_tiny();
        let dense = geometry.dense();
        let (a, b) = (geometry.pruned(&dense), geometry.pruned(&dense));
        assert_eq!(a.selector_blocks(), geometry.selector_blocks);
        let image = &geometry.images(1, 3)[0];
        assert_eq!(a.infer(image).logits.data(), b.infer(image).logits.data());
        let nominal = a.nominal_keep();
        assert!((nominal[1] - 0.7).abs() < 1e-6 && (nominal[3] - 0.343).abs() < 1e-6);
    }

    #[test]
    fn stage_rows_reads_kept_and_incoming_from_token_counts() {
        // 197 -> 139 (137 kept + cls + package) -> 139 (nothing pruned).
        let tokens = [197, 197, 139, 139, 139];
        assert_eq!(stage_rows(&tokens, &[2, 4]), vec![(137, 196), (138, 138)]);
    }
}
