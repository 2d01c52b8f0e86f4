//! Per-epoch training telemetry.

use std::fmt;

/// Aggregated statistics of one training epoch.
///
/// Loss columns report *unweighted* per-sample means of each term; `loss` is
/// the composed objective actually differentiated
/// (`(1 − α)·ce + α·distill + β·sparsity`), so the composed column and the
/// raw terms can both be tracked across epochs.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Optimizer steps executed so far, across all epochs.
    pub steps: u64,
    /// Learning rate of the epoch's final optimizer step.
    pub lr: f32,
    /// Mean composed objective over the epoch's samples.
    pub loss: f32,
    /// Mean cross-entropy term (unweighted).
    pub ce: f32,
    /// Mean distillation KL term (unweighted; 0 when distillation is off).
    pub distill: f32,
    /// Mean latency-sparsity penalty (unweighted; 0 without selectors).
    pub sparsity: f32,
    /// Top-1 accuracy over the training samples (measured on the Gumbel
    /// training forward, so pruning noise is included).
    pub train_top1: f32,
    /// Top-1 accuracy over the validation set (deterministic inference
    /// path).
    pub val_top1: f32,
    /// Mean hard keep fraction per selector over the validation set, in
    /// block order (empty without selectors).
    pub mean_keep: Vec<f32>,
    /// Mean token count entering the final block on the validation set.
    pub final_tokens: f32,
    /// Validation inference throughput (images/s) measured by an
    /// [`heatvit::Engine::run_epoch`] pass over the epoch's model — the
    /// live counterpart of the MAC columns, so an epoch's accuracy cost can
    /// be read next to its measured speed. Wall-clock: excluded from
    /// equality (see the manual `PartialEq`), 0 when not measured.
    pub val_images_per_sec: f64,
}

/// Equality deliberately ignores `val_images_per_sec`: every other field is
/// a deterministic function of `(config, datasets, seed)` and the
/// determinism suite compares reports bitwise, while throughput is
/// wall-clock and never reproducible.
impl PartialEq for TrainReport {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch
            && self.steps == other.steps
            && self.lr == other.lr
            && self.loss == other.loss
            && self.ce == other.ce
            && self.distill == other.distill
            && self.sparsity == other.sparsity
            && self.train_top1 == other.train_top1
            && self.val_top1 == other.val_top1
            && self.mean_keep == other.mean_keep
            && self.final_tokens == other.final_tokens
    }
}

impl TrainReport {
    /// Header line matching [`TrainReport`]'s `Display` row format.
    pub fn table_header() -> String {
        format!(
            "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>18} {:>9}",
            "epoch",
            "lr",
            "loss",
            "ce",
            "distill",
            "sparsity",
            "train-top1",
            "val-top1",
            "keep-rate",
            "val-img/s"
        )
    }
}

impl fmt::Display for TrainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let keeps = if self.mean_keep.is_empty() {
            "dense".to_string()
        } else {
            self.mean_keep
                .iter()
                .map(|k| format!("{k:.3}"))
                .collect::<Vec<_>>()
                .join("/")
        };
        write!(
            f,
            "{:>5} {:>9.5} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.1}% {:>8.1}% {:>18} {:>9.1}",
            self.epoch,
            self.lr,
            self.loss,
            self.ce,
            self.distill,
            self.sparsity,
            self.train_top1 * 100.0,
            self.val_top1 * 100.0,
            keeps,
            self.val_images_per_sec
        )
    }
}

/// The full result of [`Trainer::fit`](crate::Trainer::fit): one report per
/// executed epoch plus run-level bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRun {
    /// Per-epoch reports, in order.
    pub reports: Vec<TrainReport>,
    /// Total optimizer steps executed.
    pub steps: u64,
    /// `true` when the `max_steps` cap stopped the run before all epochs.
    pub capped: bool,
}

impl TrainRun {
    /// The final epoch's report.
    ///
    /// # Panics
    ///
    /// Panics if the run produced no reports (never the case for a
    /// validated config).
    pub fn last(&self) -> &TrainReport {
        self.reports.last().expect("a fit produces >= 1 report")
    }

    /// Per-selector keep rate averaged over the final `window` epochs
    /// (clamped to the number of reports) — a lower-variance estimate of the
    /// converged keep policy than the last epoch alone, since the rank
    /// targets keep jiggling boundary tokens while the optimizer is still
    /// stepping.
    ///
    /// # Panics
    ///
    /// Panics if `window` is 0 or the run produced no reports.
    pub fn converged_keep(&self, window: usize) -> Vec<f32> {
        assert!(window > 0, "window must be positive");
        assert!(!self.reports.is_empty(), "a fit produces >= 1 report");
        let tail = &self.reports[self.reports.len().saturating_sub(window)..];
        let selectors = tail[0].mean_keep.len();
        (0..selectors)
            .map(|s| tail.iter().map(|r| r.mean_keep[s]).sum::<f32>() / tail.len() as f32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(epoch: usize, loss: f32, keeps: Vec<f32>) -> TrainReport {
        TrainReport {
            epoch,
            steps: epoch as u64 + 1,
            lr: 1e-3,
            loss,
            ce: loss * 0.5,
            distill: loss * 0.3,
            sparsity: loss * 0.2,
            train_top1: 0.5,
            val_top1: 0.5,
            mean_keep: keeps,
            final_tokens: 12.0,
            val_images_per_sec: 100.0,
        }
    }

    #[test]
    fn equality_ignores_wall_clock_throughput() {
        let a = report(0, 1.0, vec![0.7]);
        let mut b = a.clone();
        b.val_images_per_sec = 999.0;
        assert_eq!(a, b);
        b.loss = 2.0;
        assert_ne!(a, b);
    }

    #[test]
    fn display_row_lines_up_with_header() {
        let header = TrainReport::table_header();
        let row = format!("{}", report(3, 1.25, vec![0.71, 0.58]));
        assert!(header.contains("keep-rate"));
        assert!(row.contains("0.710/0.580"));
    }

    #[test]
    fn converged_keep_averages_the_final_window() {
        let run = TrainRun {
            reports: vec![
                report(0, 2.0, vec![1.0, 1.0]),
                report(1, 1.5, vec![0.8, 0.6]),
                report(2, 1.2, vec![0.6, 0.4]),
            ],
            steps: 3,
            capped: false,
        };
        let keep = run.converged_keep(2);
        assert!((keep[0] - 0.7).abs() < 1e-6);
        assert!((keep[1] - 0.5).abs() < 1e-6);
        // A window larger than the run falls back to all reports.
        assert!((run.converged_keep(10)[0] - 0.8).abs() < 1e-6);
    }
}
