//! The epoch driver: distillation + latency-sparsity training over
//! `PrunedViT::forward_train`.

use crate::config::TrainConfig;
use crate::loss::{distillation_targets, LatencySparsityLoss};
use crate::report::{TrainReport, TrainRun};
use heatvit::{Engine, InferenceModel};
use heatvit_data::augment::random_augment;
use heatvit_data::{Loader, SyntheticDataset};
use heatvit_nn::optim::{AdamW, CosineSchedule, Optimizer};
use heatvit_nn::{Module, Tape};
use heatvit_selector::PrunedViT;
use heatvit_vit::{InferScratch, PolicyScratch, TokenPolicy, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed-domain separator so the Gumbel/augmentation stream never collides
/// with the loader shuffle stream derived from the same user seed.
const RNG_DOMAIN: u64 = 0x4755_4D42; // "GUMB"

/// Fraction of the total optimizer steps spent in linear warmup.
const WARMUP_FRACTION: f32 = 0.1;

/// AdamW decoupled weight decay.
const WEIGHT_DECAY: f32 = 0.01;

/// Every fit reshuffles the training set each epoch.
const SHUFFLE: bool = true;

/// Accumulates the per-term loss sums of one epoch.
#[derive(Debug, Default, Clone, Copy)]
struct EpochSums {
    loss: f64,
    ce: f64,
    distill: f64,
    sparsity: f64,
    correct: usize,
    samples: usize,
}

/// The HeatViT training driver (paper Section IV / Eq. 20).
///
/// One [`Trainer`] owns a validated [`TrainConfig`] and runs two kinds of
/// fits over `heatvit-data` loaders:
///
/// * [`Trainer::fit_dense`] — plain cross-entropy training of a dense
///   [`VisionTransformer`]; this is how the demo produces the frozen
///   teacher.
/// * [`Trainer::fit`] — selector tuning of a [`PrunedViT`] student with the
///   composed objective `(1 − α)·CE + α·T²·KL(teacher ‖ student) +
///   β·L_ratio`, stepping `heatvit-nn`'s AdamW under a warmup + cosine
///   schedule.
///
/// Both fits are bitwise deterministic in `(config, datasets, model
/// seed)` — the loader shuffle, Gumbel draws, and augmentation all derive
/// from [`TrainConfig::seed`], and every step runs on one thread.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`TrainConfig::validate`]).
    pub fn new(config: TrainConfig) -> Self {
        config.validate();
        Self { config }
    }

    /// The validated configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Total optimizer steps the run will execute (epochs × batches, capped
    /// by [`TrainConfig::max_steps`]).
    fn planned_steps(&self, train: &SyntheticDataset) -> u64 {
        let loader = Loader::new(train, self.config.batch_size, SHUFFLE, 0);
        let planned = (self.config.epochs * loader.batches_per_epoch()) as u64;
        self.config.max_steps.map_or(planned, |c| planned.min(c))
    }

    fn schedule(&self, total_steps: u64) -> CosineSchedule {
        let warmup = (WARMUP_FRACTION * total_steps as f32).round() as u64;
        CosineSchedule::new(
            self.config.peak_lr,
            self.config.min_lr,
            warmup.min(total_steps),
            total_steps.max(1),
        )
    }

    /// Trains the student's token selectors (and, with
    /// [`TrainConfig::train_backbone`], the backbone) against a frozen dense
    /// teacher. Pass `None` as the teacher only when
    /// [`TrainConfig::distill_alpha`] is 0.
    ///
    /// # Panics
    ///
    /// Panics if the keep-target count differs from the number of installed
    /// selectors, if distillation is enabled without a teacher, or if the
    /// teacher's class count differs from the student's.
    pub fn fit(
        &self,
        model: &mut PrunedViT,
        teacher: Option<&VisionTransformer>,
        train: &SyntheticDataset,
        val: &SyntheticDataset,
    ) -> TrainRun {
        let selector_blocks = model.selector_blocks();
        assert_eq!(
            selector_blocks.len(),
            self.config.target_keep.len(),
            "one keep target per installed selector required"
        );
        if self.config.distill_alpha > 0.0 {
            let teacher = teacher.expect("distill_alpha > 0 requires a teacher");
            assert_eq!(
                teacher.config().num_classes,
                model.backbone().config().num_classes,
                "teacher/student class counts must match"
            );
        }
        let sparsity = LatencySparsityLoss::with_latency_weights(
            model.backbone().config(),
            &selector_blocks,
            &self.config.target_keep,
            self.config.decisiveness_weight,
            self.config.latency_weights,
        );

        let loader = Loader::new(train, self.config.batch_size, SHUFFLE, self.config.seed);
        let total_steps = self.planned_steps(train);
        let planned_uncapped = (self.config.epochs * loader.batches_per_epoch()) as u64;
        let sched = self.schedule(total_steps);
        let mut opt = AdamW::with_config(self.config.peak_lr, 0.9, 0.999, 1e-8, WEIGHT_DECAY);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ RNG_DOMAIN);
        let mut teacher_scratch = InferScratch::default();

        // Selector-only training records the backbone weights as tape
        // constants: no weight-side vector-Jacobian products are computed
        // for them (gradients still flow *through* the blocks to the
        // selectors). Selector gradients are bitwise identical either way —
        // freezing skips work, it never changes arithmetic.
        let frozen_ids: Vec<u64> = if self.config.train_backbone {
            Vec::new()
        } else {
            model.backbone().params().iter().map(|p| p.id()).collect()
        };

        let alpha = self.config.distill_alpha;
        let beta = self.config.sparsity_weight;
        let mut reports = Vec::with_capacity(self.config.epochs);
        let mut step = 0u64;
        let mut capped = false;
        'epochs: for epoch in 0..self.config.epochs {
            let mut sums = EpochSums::default();
            let mut last_lr = sched.lr_at(step.min(total_steps.saturating_sub(1)));
            for batch in loader.iter_epoch(epoch as u64) {
                for sample in &batch.samples {
                    let augmented;
                    let image = if self.config.augment_shift > 0 {
                        augmented =
                            random_augment(&sample.image, self.config.augment_shift, &mut rng);
                        &augmented
                    } else {
                        &sample.image
                    };
                    let mut tape = Tape::new();
                    tape.freeze_params(frozen_ids.iter().copied());
                    let out = model.forward_train(&mut tape, image, &mut rng);

                    let ce = tape.cross_entropy(out.logits, &[sample.label]);
                    let mut loss = tape.scale(ce, 1.0 - alpha);
                    let mut distill_value = 0.0f32;
                    if alpha > 0.0 {
                        let teacher = teacher.expect("checked above");
                        let teacher_logits = teacher.infer_with(image, &mut teacher_scratch);
                        let probs =
                            distillation_targets(&teacher_logits, self.config.distill_temperature);
                        let kl =
                            tape.distill_kl(out.logits, probs, self.config.distill_temperature);
                        distill_value = tape.value(kl).data()[0];
                        let kl_scaled = tape.scale(kl, alpha);
                        loss = tape.add(loss, kl_scaled);
                    }
                    let mut sparsity_value = 0.0f32;
                    if beta > 0.0 && !sparsity.is_empty() {
                        let penalty = sparsity.penalty(&mut tape, &out.selector_keep_scores);
                        sparsity_value = tape.value(penalty).data()[0];
                        let penalty_scaled = tape.scale(penalty, beta);
                        loss = tape.add(loss, penalty_scaled);
                    }

                    sums.loss += f64::from(tape.value(loss).data()[0]);
                    sums.ce += f64::from(tape.value(ce).data()[0]);
                    sums.distill += f64::from(distill_value);
                    sums.sparsity += f64::from(sparsity_value);
                    sums.samples += 1;
                    if tape.value(out.logits).argmax_rows()[0] == sample.label {
                        sums.correct += 1;
                    }

                    // Average gradients over the batch: scaling the scalar
                    // loss scales every parameter gradient identically.
                    let grad_loss = tape.scale(loss, 1.0 / batch.len() as f32);
                    let grads = tape.backward(grad_loss);
                    if self.config.train_backbone {
                        tape.write_grads(&grads, model.params_mut());
                    } else {
                        tape.write_grads(&grads, model.selector_params_mut());
                    }
                }
                last_lr = sched.lr_at(step);
                sched.apply(&mut opt, step);
                if self.config.train_backbone {
                    opt.step(model.params_mut());
                } else {
                    opt.step(model.selector_params_mut());
                }
                step += 1;
                if step >= total_steps {
                    // Capped only when the max_steps cap actually truncated
                    // the run — a cap at or above the planned step count
                    // changes nothing and must not downgrade the caller's
                    // convergence gates.
                    capped = total_steps < planned_uncapped;
                    reports.push(self.report_epoch_pruned(model, val, epoch, step, last_lr, &sums));
                    break 'epochs;
                }
            }
            reports.push(self.report_epoch_pruned(model, val, epoch, step, last_lr, &sums));
        }
        TrainRun {
            reports,
            steps: step,
            capped,
        }
    }

    /// Builds one epoch report from the accumulated training sums plus a
    /// deterministic validation pass (hard pruning, no Gumbel noise).
    fn report_epoch_pruned(
        &self,
        model: &PrunedViT,
        val: &SyntheticDataset,
        epoch: usize,
        steps: u64,
        lr: f32,
        sums: &EpochSums,
    ) -> TrainReport {
        let selectors = model.selector_blocks().len();
        let mut scratch = PolicyScratch::default();
        let mut correct = 0usize;
        let mut keep_sums = vec![0.0f64; selectors];
        let mut final_tokens = 0.0f64;
        for sample in val.iter() {
            let out = model.infer_with(&sample.image, &mut scratch);
            if out.logits.argmax_rows()[0] == sample.label {
                correct += 1;
            }
            for (sum, &frac) in keep_sums.iter_mut().zip(out.keep_fractions.iter()) {
                *sum += f64::from(frac);
            }
            final_tokens += *out.tokens_per_block.last().unwrap_or(&0) as f64;
        }
        let n_val = val.len().max(1) as f64;
        TrainReport {
            epoch,
            steps,
            lr,
            loss: (sums.loss / sums.samples.max(1) as f64) as f32,
            ce: (sums.ce / sums.samples.max(1) as f64) as f32,
            distill: (sums.distill / sums.samples.max(1) as f64) as f32,
            sparsity: (sums.sparsity / sums.samples.max(1) as f64) as f32,
            train_top1: sums.correct as f32 / sums.samples.max(1) as f32,
            val_top1: correct as f32 / val.len().max(1) as f32,
            mean_keep: keep_sums.iter().map(|&s| (s / n_val) as f32).collect(),
            final_tokens: (final_tokens / n_val) as f32,
            val_images_per_sec: val_throughput(model, val, self.config.batch_size),
        }
    }

    /// Plain cross-entropy training of a dense backbone — how the demo
    /// produces the frozen distillation teacher. Ignores the distillation
    /// and sparsity knobs; every backbone parameter is trained.
    pub fn fit_dense(
        &self,
        model: &mut VisionTransformer,
        train: &SyntheticDataset,
        val: &SyntheticDataset,
    ) -> TrainRun {
        let loader = Loader::new(train, self.config.batch_size, SHUFFLE, self.config.seed);
        let total_steps = self.planned_steps(train);
        let planned_uncapped = (self.config.epochs * loader.batches_per_epoch()) as u64;
        let sched = self.schedule(total_steps);
        let mut opt = AdamW::with_config(self.config.peak_lr, 0.9, 0.999, 1e-8, WEIGHT_DECAY);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ RNG_DOMAIN);
        let mut reports = Vec::with_capacity(self.config.epochs);
        let mut step = 0u64;
        let mut capped = false;
        'epochs: for epoch in 0..self.config.epochs {
            let mut sums = EpochSums::default();
            let mut last_lr = sched.lr_at(step.min(total_steps.saturating_sub(1)));
            for batch in loader.iter_epoch(epoch as u64) {
                for sample in &batch.samples {
                    let augmented;
                    let image = if self.config.augment_shift > 0 {
                        augmented =
                            random_augment(&sample.image, self.config.augment_shift, &mut rng);
                        &augmented
                    } else {
                        &sample.image
                    };
                    let mut tape = Tape::new();
                    let logits = model.forward(&mut tape, image);
                    let loss = tape.cross_entropy(logits, &[sample.label]);
                    sums.loss += f64::from(tape.value(loss).data()[0]);
                    sums.ce = sums.loss;
                    sums.samples += 1;
                    if tape.value(logits).argmax_rows()[0] == sample.label {
                        sums.correct += 1;
                    }
                    let grad_loss = tape.scale(loss, 1.0 / batch.len() as f32);
                    let grads = tape.backward(grad_loss);
                    tape.write_grads(&grads, model.params_mut());
                }
                last_lr = sched.lr_at(step);
                sched.apply(&mut opt, step);
                opt.step(model.params_mut());
                step += 1;
                if step >= total_steps {
                    capped = total_steps < planned_uncapped;
                    reports.push(report_epoch_dense(model, val, epoch, step, last_lr, &sums));
                    break 'epochs;
                }
            }
            reports.push(report_epoch_dense(model, val, epoch, step, last_lr, &sums));
        }
        TrainRun {
            reports,
            steps: step,
            capped,
        }
    }
}

fn report_epoch_dense(
    model: &VisionTransformer,
    val: &SyntheticDataset,
    epoch: usize,
    steps: u64,
    lr: f32,
    sums: &EpochSums,
) -> TrainReport {
    let mut scratch = InferScratch::default();
    let correct = val
        .iter()
        .filter(|s| model.infer_with(&s.image, &mut scratch).argmax_rows()[0] == s.label)
        .count();
    TrainReport {
        epoch,
        steps,
        lr,
        loss: (sums.loss / sums.samples.max(1) as f64) as f32,
        ce: (sums.ce / sums.samples.max(1) as f64) as f32,
        distill: 0.0,
        sparsity: 0.0,
        train_top1: sums.correct as f32 / sums.samples.max(1) as f32,
        val_top1: correct as f32 / val.len().max(1) as f32,
        mean_keep: Vec::new(),
        final_tokens: model.config().num_tokens() as f32,
        val_images_per_sec: val_throughput(model, val, 8),
    }
}

/// Measured validation throughput: one sharded [`Engine::run_epoch`] pass
/// over the borrowed epoch model — wall-clock only, never part of report
/// equality (the engine's sharding is bitwise-identical to the sequential
/// path, so the extra pass cannot perturb any deterministic column).
fn val_throughput<M: InferenceModel>(model: &M, val: &SyntheticDataset, batch_size: usize) -> f64 {
    let loader = Loader::new(val, batch_size, false, 0);
    Engine::builder(model)
        .build()
        .run_epoch(&loader, 0)
        .images_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_data::SyntheticConfig;
    use heatvit_selector::TokenSelector;
    use heatvit_tensor::Tensor;
    use heatvit_vit::ViTConfig;

    fn tiny_data() -> (SyntheticDataset, SyntheticDataset) {
        let ds = SyntheticDataset::generate(SyntheticConfig::tiny(), 16, 0);
        ds.split(0.25)
    }

    fn tiny_student(seed: u64) -> PrunedViT {
        let mut rng = StdRng::seed_from_u64(seed);
        let backbone = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let dim = backbone.config().embed_dim;
        let heads = backbone.config().num_heads;
        let mut model = PrunedViT::new(backbone);
        model.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
        model
    }

    fn tiny_config() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            batch_size: 4,
            target_keep: vec![0.6],
            distill_alpha: 0.0,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn fit_produces_one_report_per_epoch_and_steps_the_selectors() {
        let (train, val) = tiny_data();
        let mut model = tiny_student(1);
        let before: Vec<Tensor> = model
            .selector_params_mut()
            .iter()
            .map(|p| p.value().clone())
            .collect();
        let backbone_before: Vec<Tensor> = model
            .backbone()
            .params()
            .iter()
            .map(|p| p.value().clone())
            .collect();
        let run = Trainer::new(tiny_config()).fit(&mut model, None, &train, &val);
        assert_eq!(run.reports.len(), 2);
        assert!(!run.capped);
        assert_eq!(run.steps, 2 * 3); // 12 samples / batch 4 = 3 batches
        let after: Vec<Tensor> = model
            .selector_params_mut()
            .iter()
            .map(|p| p.value().clone())
            .collect();
        assert!(
            before
                .iter()
                .zip(after.iter())
                .any(|(b, a)| b.data() != a.data()),
            "selector weights must move"
        );
        // Frozen backbone: bitwise untouched.
        for (b, a) in backbone_before.iter().zip(model.backbone().params()) {
            assert_eq!(b.data(), a.value().data());
        }
        assert_eq!(run.last().mean_keep.len(), 1);
        // The measured validation pass always runs: throughput is live.
        assert!(run.reports.iter().all(|r| r.val_images_per_sec > 0.0));
    }

    #[test]
    fn max_steps_caps_the_run_mid_epoch() {
        let (train, val) = tiny_data();
        let mut model = tiny_student(2);
        let config = TrainConfig {
            epochs: 10,
            max_steps: Some(2),
            ..tiny_config()
        };
        let run = Trainer::new(config).fit(&mut model, None, &train, &val);
        assert!(run.capped);
        assert_eq!(run.steps, 2);
        assert_eq!(run.reports.len(), 1);
    }

    #[test]
    fn cap_equal_to_planned_steps_is_not_a_truncation() {
        // 12 train samples / batch 4 = 3 batches; 2 epochs = 6 steps. A cap
        // of exactly 6 changes nothing and must not mark the run capped
        // (which would downgrade the demo's convergence gates).
        let (train, val) = tiny_data();
        let mut model = tiny_student(7);
        let config = TrainConfig {
            max_steps: Some(6),
            ..tiny_config()
        };
        let run = Trainer::new(config).fit(&mut model, None, &train, &val);
        assert!(!run.capped);
        assert_eq!(run.steps, 6);
        assert_eq!(run.reports.len(), 2);
    }

    #[test]
    fn distillation_requires_a_teacher() {
        let (train, val) = tiny_data();
        let mut model = tiny_student(3);
        let config = TrainConfig {
            distill_alpha: 0.5,
            ..tiny_config()
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Trainer::new(config).fit(&mut model, None, &train, &val);
        }));
        assert!(result.is_err(), "missing teacher must panic");
    }

    #[test]
    fn fit_dense_improves_training_loss() {
        let (train, val) = tiny_data();
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let config = TrainConfig {
            epochs: 4,
            batch_size: 4,
            peak_lr: 5e-3,
            distill_alpha: 0.0,
            target_keep: Vec::new(),
            ..TrainConfig::default()
        };
        let run = Trainer::new(config).fit_dense(&mut model, &train, &val);
        assert_eq!(run.reports.len(), 4);
        assert!(
            run.reports[0].loss > run.last().loss,
            "dense CE must decrease: {:?}",
            run.reports.iter().map(|r| r.loss).collect::<Vec<_>>()
        );
        assert!(run.last().mean_keep.is_empty());
    }

    #[test]
    #[should_panic(expected = "one keep target per installed selector")]
    fn fit_rejects_target_count_mismatch() {
        let (train, val) = tiny_data();
        let mut model = tiny_student(5);
        let config = TrainConfig {
            target_keep: vec![0.6, 0.5],
            ..tiny_config()
        };
        Trainer::new(config).fit(&mut model, None, &train, &val);
    }
}
