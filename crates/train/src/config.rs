//! Training hyper-parameters.

use crate::loss::LatencyWeights;

/// Hyper-parameters of one [`Trainer`](crate::Trainer) run.
///
/// The defaults mirror the DeiT fine-tuning recipe scaled down to the µDeiT
/// synthetic experiments: AdamW (weight decay 0.01) under a cosine
/// schedule with a 10 % linear warmup, reshuffling every epoch, a
/// distillation temperature of 2 with equal CE/KL weighting, and the Eq. 20
/// latency-sparsity penalty pulling every selector toward its per-stage keep
/// target.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (gradients are averaged over the batch before each
    /// optimizer step).
    pub batch_size: usize,
    /// Peak learning rate of the cosine schedule.
    pub peak_lr: f32,
    /// Floor the cosine schedule decays to.
    pub min_lr: f32,
    /// Distillation temperature `T` (teacher and student logits are softened
    /// by `1/T` inside the KL term).
    pub distill_temperature: f32,
    /// Weight `α` of the distillation KL: the task loss is
    /// `(1 − α)·CE + α·T²·KL`. `0` disables distillation entirely (no
    /// teacher forward is run).
    pub distill_alpha: f32,
    /// Per-stage keep-rate target for each installed selector, in block
    /// order. Each entry is the fraction of *incoming* patch tokens that
    /// stage should keep (the paper's per-stage keep ratio, not the
    /// cumulative one).
    pub target_keep: Vec<f32>,
    /// Weight `β` of the latency-sparsity penalty (Eq. 20).
    pub sparsity_weight: f32,
    /// How the penalty's per-selector weights are derived:
    /// [`LatencyWeights::MacShare`] (hardware-agnostic dense MAC share, the
    /// default) or [`LatencyWeights::FpgaCycles`] (predicted accelerator
    /// cycles at the keep-target-implied token schedule).
    pub latency_weights: LatencyWeights,
    /// Weight `λ` of the decisiveness regularizer inside the sparsity
    /// penalty: a per-token MSE toward the hard decision the keep budget
    /// currently implies (top `⌈target·N⌉` scores → 1, rest → 0). This
    /// bimodalizes the keep scores so the trained keep rate carries over to
    /// the deterministic 0.5-threshold inference path. `0` disables it
    /// (the pure Eq. 20 mean penalty).
    pub decisiveness_weight: f32,
    /// When `false` (the HeatViT selector-tuning phase) only selector
    /// parameters receive gradients and optimizer steps; the backbone stays
    /// frozen at its teacher weights. When `true` the whole student trains.
    pub train_backbone: bool,
    /// Maximum random translation (pixels) of the training augmentation;
    /// `0` disables augmentation.
    pub augment_shift: i32,
    /// Hard cap on optimizer steps; `None` runs all `epochs`. The smoke
    /// harness (`HEATVIT_TRAIN_STEPS`) uses this to bound CI time — training
    /// stops mid-epoch once the cap is hit and the partial epoch is still
    /// reported.
    pub max_steps: Option<u64>,
    /// Seed of the loader shuffle, the Gumbel draws, and any augmentation.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 8,
            batch_size: 8,
            peak_lr: 1e-2,
            min_lr: 1e-4,
            distill_temperature: 2.0,
            distill_alpha: 0.5,
            target_keep: Vec::new(),
            sparsity_weight: 4.0,
            latency_weights: LatencyWeights::MacShare,
            decisiveness_weight: 1.0,
            train_backbone: false,
            augment_shift: 0,
            max_steps: None,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Validates every field range.
    ///
    /// # Panics
    ///
    /// Panics if any hyper-parameter is out of range (zero epochs/batch,
    /// non-positive or inverted learning rates, non-positive temperature, `distill_alpha` outside `[0, 1]`,
    /// a keep target outside `(0, 1]`, or a negative sparsity weight).
    pub fn validate(&self) {
        assert!(self.epochs > 0, "epochs must be positive");
        assert!(self.batch_size > 0, "batch size must be positive");
        assert!(self.peak_lr > 0.0, "peak lr must be positive");
        assert!(
            self.min_lr >= 0.0 && self.min_lr <= self.peak_lr,
            "min lr must be in [0, peak_lr]"
        );
        assert!(
            self.distill_temperature > 0.0,
            "distillation temperature must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.distill_alpha),
            "distill alpha must be in [0, 1]"
        );
        for &t in &self.target_keep {
            assert!(t > 0.0 && t <= 1.0, "keep targets must be in (0, 1]");
        }
        assert!(
            self.sparsity_weight >= 0.0,
            "sparsity weight must be non-negative"
        );
        assert!(
            self.decisiveness_weight >= 0.0,
            "decisiveness weight must be non-negative"
        );
        assert!(
            self.augment_shift >= 0,
            "augment shift must be non-negative"
        );
        if let Some(cap) = self.max_steps {
            assert!(cap > 0, "max_steps cap must be positive when set");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        TrainConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "keep targets must be in (0, 1]")]
    fn rejects_zero_keep_target() {
        TrainConfig {
            target_keep: vec![0.7, 0.0],
            ..TrainConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "distill alpha must be in [0, 1]")]
    fn rejects_out_of_range_alpha() {
        TrainConfig {
            distill_alpha: 1.5,
            ..TrainConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "min lr must be in [0, peak_lr]")]
    fn rejects_inverted_lr_range() {
        TrainConfig {
            peak_lr: 1e-3,
            min_lr: 1e-2,
            ..TrainConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_steps cap must be positive")]
    fn rejects_zero_step_cap() {
        TrainConfig {
            max_steps: Some(0),
            ..TrainConfig::default()
        }
        .validate();
    }
}
