//! Whole-loop determinism and the learned block-to-stage round trip.
//!
//! The training loop promises bitwise reproducibility: the loader shuffle,
//! Gumbel draws, and augmentation all derive from `TrainConfig::seed`, and
//! every step runs single-threaded. These tests pin that promise and the
//! `learned_schedule` → `merge_similar` pipeline on *measured* (not
//! hand-placed) keep rates.

use heatvit_data::{SyntheticConfig, SyntheticDataset};
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_train::{learned_schedule, TrainConfig, TrainRun, Trainer};
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn datasets() -> (SyntheticDataset, SyntheticDataset) {
    SyntheticDataset::generate(SyntheticConfig::tiny(), 16, 3).split(0.25)
}

fn student(seed: u64) -> PrunedViT {
    let mut rng = StdRng::seed_from_u64(seed);
    let backbone = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut model = PrunedViT::new(backbone);
    model.insert_selector(0, TokenSelector::new(dim, heads, &mut rng));
    model.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
    model
}

fn config() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        batch_size: 4,
        target_keep: vec![0.75, 0.6],
        distill_alpha: 0.0,
        augment_shift: 1,
        seed: 42,
        ..TrainConfig::default()
    }
}

fn fit_once(model_seed: u64) -> (PrunedViT, TrainRun) {
    let (train, val) = datasets();
    let mut model = student(model_seed);
    let run = Trainer::new(config()).fit(&mut model, None, &train, &val);
    (model, run)
}

#[test]
fn two_fits_from_the_same_seed_are_bitwise_identical() {
    let (mut model_a, run_a) = fit_once(9);
    let (mut model_b, run_b) = fit_once(9);

    // Every per-epoch report matches exactly — losses, accuracies, keep
    // rates, learning rates.
    assert_eq!(run_a, run_b);
    assert_eq!(run_a.reports.len(), 3);

    // Final selector weights are bitwise identical.
    let params_a = model_a.selector_params_mut();
    let params_b = model_b.selector_params_mut();
    assert_eq!(params_a.len(), params_b.len());
    assert!(!params_a.is_empty());
    for (a, b) in params_a.iter().zip(params_b.iter()) {
        assert_eq!(
            a.value().data(),
            b.value().data(),
            "selector param {} diverged between identical runs",
            a.name()
        );
    }

    // And so is a post-training inference.
    let (_, val) = datasets();
    let image = &val.sample(0).image;
    assert_eq!(
        model_a.infer(image).logits.data(),
        model_b.infer(image).logits.data()
    );
}

#[test]
fn different_seeds_actually_diverge() {
    // Guards the test above against vacuous equality (e.g. nothing being
    // trained at all).
    let (_, run_a) = fit_once(9);
    let (train, val) = datasets();
    let mut model = student(9);
    let run_c = Trainer::new(TrainConfig {
        seed: 43,
        ..config()
    })
    .fit(&mut model, None, &train, &val);
    assert_ne!(run_a, run_c, "changing the seed must change the run");
}

#[test]
fn learned_keep_rates_round_trip_through_merge_similar() {
    let (model, run) = fit_once(11);
    let measured = run.converged_keep(2);
    assert_eq!(measured.len(), 2);
    for &k in &measured {
        assert!(k > 0.0 && k <= 1.0, "measured keep {k} out of range");
    }

    // Learned (non-hand-placed) rates form a valid cumulative schedule at
    // the trained selector blocks.
    let learned = learned_schedule(&model.selector_blocks(), &measured);
    assert_eq!(learned.len(), 2);
    let blocks: Vec<usize> = learned.placements().iter().map(|p| p.block).collect();
    assert_eq!(blocks, model.selector_blocks());

    let tolerance = 0.085;
    let merged = learned.merge_similar(tolerance);
    assert!(merged.len() <= learned.len());
    assert!(!merged.is_empty());

    // Round trip: every merged placement is one of the learned placements
    // (merging only drops selectors, never invents or moves one)...
    for p in merged.placements() {
        assert!(
            learned.placements().contains(p),
            "merged placement {p:?} not in the learned schedule"
        );
    }
    // ...the first learned stage always survives as the run head...
    assert_eq!(merged.placements()[0], learned.placements()[0]);
    // ...and the merged schedule reproduces the learned per-block keep
    // ratios within the merge tolerance everywhere.
    let depth = 2;
    for (m, l) in merged
        .keep_per_block(depth)
        .iter()
        .zip(learned.keep_per_block(depth).iter())
    {
        assert!(
            (m - l).abs() < tolerance,
            "merged keep {m} drifted over tolerance from learned {l}"
        );
    }
}
