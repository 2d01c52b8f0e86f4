//! The training demo: distillation + latency-sparsity selector tuning on
//! synthetic data, ending in the learned block-to-stage schedule compared
//! against the hand-placed two-stage baseline and an accuracy-vs-keep-rate
//! table.
//!
//! ```text
//! cargo run --release -p heatvit-bench --bin train_demo [-- --quick] [-- --joint]
//! ```
//!
//! `--quick` shrinks the dataset, the epoch counts, and the keep-target
//! sweep for CI smoke runs; the `HEATVIT_TRAIN_STEPS` environment variable
//! additionally caps the optimizer steps of every training phase (it
//! composes with `--quick`).
//! `--joint` additionally trains a `train_backbone: true` student at the
//! primary keep targets — selector *and* backbone weights both receive
//! gradients, the paper's joint finetuning phase — and reports its accuracy
//! row next to the frozen-backbone students.
//!
//! The binary asserts (not just prints) the three claims the CI train-smoke
//! job greps for: the composed loss decreases over the primary student's
//! epochs, the measured mean keep-rate lands within 0.05 of the configured
//! target, and the learned schedule survives `merge_similar` into a stage
//! layout printed next to the hand-placed baseline.

use heatvit_bench::{
    hand_placed_schedule, micro_backbone, BENCH_CLASSES, DEMO_SELECTOR_BLOCKS, DEMO_STAGE_KEEPS,
};
use heatvit_data::{SyntheticConfig, SyntheticDataset};
use heatvit_selector::{PrunedViT, PruningSchedule, TokenSelector};
use heatvit_train::{learned_schedule, TrainConfig, TrainRun, Trainer};
use heatvit_vit::flops::ModelComplexity;
use heatvit_vit::VisionTransformer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Tolerance of the keep-rate acceptance gate (absolute, on the mean over
/// selectors of per-stage keep rates).
const KEEP_TOLERANCE: f32 = 0.05;
/// Epochs averaged into the converged keep-rate measurement.
const KEEP_WINDOW: usize = 3;
/// `merge_similar` tolerance — the paper's 8.5 % stage-consolidation
/// threshold.
const MERGE_TOLERANCE: f32 = 0.085;

struct DemoScale {
    samples: usize,
    teacher_epochs: usize,
    student_epochs: usize,
    /// Per-stage keep-target pairs swept for the accuracy-vs-keep-rate
    /// table. The pair equal to [`DEMO_STAGE_KEEPS`] is the primary student
    /// whose epoch table and gates are reported in full.
    target_sweep: Vec<[f32; 2]>,
}

impl DemoScale {
    fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Self {
                samples: 64,
                teacher_epochs: 14,
                student_epochs: 32,
                target_sweep: vec![DEMO_STAGE_KEEPS, [0.5, 0.5]],
            }
        } else {
            Self {
                samples: 128,
                teacher_epochs: 16,
                student_epochs: 32,
                target_sweep: vec![[0.9, 0.8], DEMO_STAGE_KEEPS, [0.5, 0.5]],
            }
        }
    }
}

/// `HEATVIT_TRAIN_STEPS`: optional per-phase optimizer-step cap.
fn step_cap() -> Option<u64> {
    let raw = std::env::var("HEATVIT_TRAIN_STEPS").ok()?;
    let n: u64 =
        raw.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            panic!("HEATVIT_TRAIN_STEPS must be a positive integer, got {raw:?}")
        });
    Some(n)
}

fn student_config(targets: &[f32; 2], epochs: usize, max_steps: Option<u64>) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 4,
        peak_lr: 1e-2,
        min_lr: 3e-3,
        target_keep: targets.to_vec(),
        sparsity_weight: 2.0,
        decisiveness_weight: 4.0,
        distill_alpha: 0.5,
        distill_temperature: 2.0,
        train_backbone: false,
        max_steps,
        seed: 7,
        ..TrainConfig::default()
    }
}

/// The joint-finetuning configuration (`--joint`): same objective as the
/// selector-tuning students, but the backbone unfreezes too, at a gentler
/// peak learning rate so the distilled backbone is refined rather than
/// re-initialized.
fn joint_config(targets: &[f32; 2], epochs: usize, max_steps: Option<u64>) -> TrainConfig {
    TrainConfig {
        peak_lr: 3e-3,
        min_lr: 1e-3,
        train_backbone: true,
        ..student_config(targets, epochs, max_steps)
    }
}

/// A fresh student: the frozen teacher backbone with untrained selectors at
/// the hand-placed demo blocks.
fn make_student(teacher: &VisionTransformer, seed: u64) -> PrunedViT {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = teacher.config().embed_dim;
    let heads = teacher.config().num_heads;
    let mut student = PrunedViT::new(teacher.clone());
    for &block in &DEMO_SELECTOR_BLOCKS {
        student.insert_selector(block, TokenSelector::new(dim, heads, &mut rng));
    }
    student
}

fn print_epoch_table(run: &TrainRun) {
    println!("{}", heatvit_train::TrainReport::table_header());
    println!("{}", "-".repeat(96));
    for r in &run.reports {
        println!("{r}");
    }
    if run.capped {
        println!("(stopped by HEATVIT_TRAIN_STEPS after {} steps)", run.steps);
    }
}

/// One row of the schedule-comparison table.
fn schedule_row(label: &str, schedule: &PruningSchedule, config: &heatvit_vit::ViTConfig) {
    let stages = if schedule.is_empty() {
        "none (dense)".to_string()
    } else {
        schedule
            .placements()
            .iter()
            .map(|p| format!("b{}@{:.2}", p.block, p.target_keep))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let macs = ModelComplexity::with_schedule(config, &schedule.tokens_per_block(config));
    let dense = ModelComplexity::dense(config);
    println!(
        "{:<16} {:<22} {:>10.3} {:>14.3} {:>11.2} {:>12.2}x",
        label,
        stages,
        schedule.mean_keep(config.depth),
        schedule.macs_weighted_keep(config),
        macs.total_macs() as f64 / 1e6,
        dense.total_macs() as f64 / macs.total_macs().max(1) as f64,
    );
}

fn main() {
    let scale = DemoScale::from_args();
    let cap = step_cap();
    let mut teacher = micro_backbone(0);
    let vit_config = teacher.config().clone();
    assert_eq!(vit_config.num_classes, BENCH_CLASSES);

    let dataset = SyntheticDataset::generate(SyntheticConfig::micro(), scale.samples, 11);
    let (train, val) = dataset.split(0.25);
    println!(
        "heatvit train_demo: {} train / {} val synthetic 32x32 images, µDeiT backbone\n",
        train.len(),
        val.len()
    );

    // Phase 1 — dense teacher (plain CE). The paper starts from a pretrained
    // backbone; here the pretraining is part of the demo.
    println!(
        "[1/3] dense teacher pretraining ({} epochs)",
        scale.teacher_epochs
    );
    let teacher_run = Trainer::new(TrainConfig {
        epochs: scale.teacher_epochs,
        batch_size: 4,
        peak_lr: 1e-2,
        min_lr: 1e-3,
        distill_alpha: 0.0,
        sparsity_weight: 0.0,
        train_backbone: true,
        max_steps: cap,
        seed: 3,
        ..TrainConfig::default()
    })
    .fit_dense(&mut teacher, &train, &val);
    print_epoch_table(&teacher_run);
    let teacher_top1 = teacher_run.last().val_top1;
    println!();

    // Phase 2 — selector tuning sweep: one student per keep-target pair,
    // each distilled against the frozen teacher under the Eq. 20 penalty.
    println!(
        "[2/3] selector tuning (distillation + latency-sparsity), {} target pair(s)",
        scale.target_sweep.len()
    );
    let mut sweep: Vec<([f32; 2], TrainRun, PrunedViT)> = Vec::new();
    for (i, targets) in scale.target_sweep.iter().enumerate() {
        let mut student = make_student(&teacher, 0xBEEF + i as u64);
        let run = Trainer::new(student_config(targets, scale.student_epochs, cap)).fit(
            &mut student,
            Some(&teacher),
            &train,
            &val,
        );
        if *targets == DEMO_STAGE_KEEPS {
            println!(
                "primary student (targets {:.2}/{:.2}):",
                targets[0], targets[1]
            );
            print_epoch_table(&run);
        }
        sweep.push((*targets, run, student));
    }
    println!();

    // Optional joint finetuning: the same objective with the backbone
    // unfrozen (`train_backbone: true`), at the primary keep targets.
    let joint = if std::env::args().any(|a| a == "--joint") {
        println!(
            "[2b/3] joint finetuning (--joint: backbone + selectors, targets {:.2}/{:.2})",
            DEMO_STAGE_KEEPS[0], DEMO_STAGE_KEEPS[1]
        );
        let mut student = make_student(&teacher, 0xD0E);
        let run = Trainer::new(joint_config(&DEMO_STAGE_KEEPS, scale.student_epochs, cap)).fit(
            &mut student,
            Some(&teacher),
            &train,
            &val,
        );
        print_epoch_table(&run);
        println!();
        Some((run, student))
    } else {
        None
    };

    let (primary_targets, primary_run, primary_student) = sweep
        .iter()
        .find(|(t, _, _)| *t == DEMO_STAGE_KEEPS)
        .expect("the sweep always contains the hand-placed targets");
    let first = primary_run.reports.first().expect("at least one epoch");
    let last = primary_run.last();
    // A HEATVIT_TRAIN_STEPS cap bounds wall-clock, not convergence — the
    // gates are reported but only enforced on uncapped runs.
    let gates_enforced = !primary_run.capped;
    if !gates_enforced {
        println!("step-capped run: convergence gates reported, not enforced");
    }

    // Gate 1 — the composed distillation + sparsity loss went down.
    let decreased = last.loss < first.loss;
    assert!(
        decreased || !gates_enforced,
        "composed loss must decrease: first {:.4}, last {:.4}",
        first.loss,
        last.loss
    );
    println!(
        "loss {} over training: {:.4} -> {:.4} (CE {:.4} -> {:.4}, \
         distill {:.4} -> {:.4}, sparsity {:.4} -> {:.4})",
        if decreased {
            "decreased"
        } else {
            "did not decrease"
        },
        first.loss,
        last.loss,
        first.ce,
        last.ce,
        first.distill,
        last.distill,
        first.sparsity,
        last.sparsity
    );

    // Gate 2 — measured keep rates reached the configured target. Averaged
    // over the final epochs: the rank targets keep jiggling boundary tokens
    // while the optimizer still steps, so one epoch is a noisy sample of
    // the converged policy.
    let measured_keep = primary_run.converged_keep(KEEP_WINDOW);
    let target_mean = (primary_targets[0] + primary_targets[1]) / 2.0;
    let measured_mean = measured_keep.iter().sum::<f32>() / measured_keep.len() as f32;
    let delta = (measured_mean - target_mean).abs();
    assert!(
        delta <= KEEP_TOLERANCE || !gates_enforced,
        "mean keep-rate {measured_mean:.3} missed target {target_mean:.3} by {delta:.3} \
         (> {KEEP_TOLERANCE})"
    );
    println!(
        "mean keep-rate {:.3} {} {:.2} of target {:.3} \
         (per-stage {} vs targets {:.2}/{:.2}, mean of final {KEEP_WINDOW} epochs)",
        measured_mean,
        if delta <= KEEP_TOLERANCE {
            "within"
        } else {
            "outside"
        },
        KEEP_TOLERANCE,
        target_mean,
        measured_keep
            .iter()
            .map(|k| format!("{k:.3}"))
            .collect::<Vec<_>>()
            .join("/"),
        primary_targets[0],
        primary_targets[1]
    );
    println!();

    // Phase 3 — block-to-stage pipeline: learned keep rates -> cumulative
    // schedule -> merge_similar, printed next to the hand-placed baseline.
    println!("[3/3] learned stage schedule vs hand-placed baseline");
    let learned = learned_schedule(&primary_student.selector_blocks(), &measured_keep);
    let merged = learned.merge_similar(MERGE_TOLERANCE);
    println!(
        "{:<16} {:<22} {:>10} {:>14} {:>11} {:>12}",
        "schedule", "stages (cumulative)", "mean-keep", "weighted-keep", "MMACs", "MAC-speedup"
    );
    println!("{}", "-".repeat(92));
    schedule_row("learned", &learned, &vit_config);
    schedule_row("learned-merged", &merged, &vit_config);
    schedule_row("hand-placed", &hand_placed_schedule(), &vit_config);
    println!(
        "merged {} learned stage(s) into {} (merge_similar tolerance {:.3})\n",
        learned.len(),
        merged.len(),
        MERGE_TOLERANCE
    );

    // The accuracy-vs-keep-rate table over the whole sweep.
    println!("accuracy vs keep-rate (validation, deterministic hard pruning):");
    println!(
        "{:<22} {:>13} {:>9} {:>12} {:>11} {:>12}",
        "variant", "measured-keep", "val-top1", "final-tokens", "MMACs", "MAC-speedup"
    );
    println!("{}", "-".repeat(84));
    let dense_macs = ModelComplexity::dense(&vit_config).total_macs() as f64;
    println!(
        "{:<22} {:>13.3} {:>8.1}% {:>12.1} {:>11.2} {:>11.2}x",
        "teacher (dense)",
        1.0,
        teacher_top1 * 100.0,
        vit_config.num_tokens() as f32,
        dense_macs / 1e6,
        1.0
    );
    let accuracy_row = |label: String, run: &TrainRun, student: &PrunedViT| {
        let r = run.last();
        let keep = run.converged_keep(KEEP_WINDOW);
        let sched = learned_schedule(&student.selector_blocks(), &keep);
        let macs = ModelComplexity::with_schedule(&vit_config, &sched.tokens_per_block(&vit_config))
            .total_macs() as f64;
        println!(
            "{:<22} {:>13.3} {:>8.1}% {:>12.1} {:>11.2} {:>11.2}x",
            label,
            keep.iter().sum::<f32>() / keep.len().max(1) as f32,
            r.val_top1 * 100.0,
            r.final_tokens,
            macs / 1e6,
            dense_macs / macs.max(1.0)
        );
    };
    for (targets, run, student) in &sweep {
        accuracy_row(
            format!("student {:.2}/{:.2}", targets[0], targets[1]),
            run,
            student,
        );
    }
    if let Some((run, student)) = &joint {
        accuracy_row(
            format!(
                "joint {:.2}/{:.2} (bb)",
                DEMO_STAGE_KEEPS[0], DEMO_STAGE_KEEPS[1]
            ),
            run,
            student,
        );
    }
    if gates_enforced {
        println!(
            "\nall gates passed: decreasing loss, keep-rate within {KEEP_TOLERANCE} of target, \
             merged stage schedule printed against the hand-placed baseline"
        );
    } else {
        println!("\nstep-capped run complete (gates reported above, not enforced)");
    }
}
