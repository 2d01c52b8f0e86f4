//! Optimizers (SGD with momentum, AdamW) and learning-rate schedules.
//!
//! Optimizer state is keyed by [`Param::id`], so the same optimizer instance
//! can be reused across training phases even as the set of live parameters
//! changes — exactly what the block-to-stage pipeline needs when it inserts
//! new token selectors mid-training.

use crate::Param;
use heatvit_tensor::Tensor;
use std::collections::HashMap;

/// Shared interface of all optimizers.
pub trait Optimizer {
    /// Applies one update using each parameter's accumulated gradient, then
    /// clears the gradients. Parameters without a gradient are skipped.
    fn step(&mut self, params: Vec<&mut Param>);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with classical momentum and decoupled weight
/// decay.
///
/// # Examples
///
/// ```
/// use heatvit_nn::{optim::{Optimizer, Sgd}, Param};
/// use heatvit_tensor::Tensor;
///
/// let mut p = Param::new("w", Tensor::ones(&[1]));
/// p.accumulate_grad(&Tensor::ones(&[1]));
/// let mut opt = Sgd::new(0.5);
/// opt.step(vec![&mut p]);
/// assert_eq!(p.value().data(), &[0.5]);
/// assert!(p.grad().is_none()); // cleared by step
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<u64, Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Self::with_momentum(lr, 0.0, 0.0)
    }

    /// SGD with momentum and decoupled weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `momentum` is outside `[0, 1)`.
    fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: Vec<&mut Param>) {
        for p in params {
            let Some(grad) = p.grad().cloned() else {
                continue;
            };
            let update = if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(p.id())
                    .or_insert_with(|| Tensor::zeros(grad.dims()));
                *v = v.scale(self.momentum).add(&grad);
                v.clone()
            } else {
                grad
            };
            let mut new = p.value().sub(&update.scale(self.lr));
            if self.weight_decay > 0.0 {
                new = new.sub(&p.value().scale(self.lr * self.weight_decay));
            }
            *p.value_mut() = new;
            p.zero_grad();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// AdamW: Adam with decoupled weight decay (the DeiT training optimizer).
#[derive(Debug)]
pub struct AdamW {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    /// Per-parameter step counts (bias correction is per parameter so that
    /// parameters introduced mid-training start their own schedule).
    steps: HashMap<u64, u64>,
    first_moment: HashMap<u64, Tensor>,
    second_moment: HashMap<u64, Tensor>,
}

impl AdamW {
    /// AdamW with DeiT-style defaults (β₁=0.9, β₂=0.999, wd=0.05).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f32) -> Self {
        Self::with_config(lr, 0.9, 0.999, 1e-8, 0.05)
    }

    /// Fully-configured AdamW.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or either beta is outside `[0, 1)`.
    pub fn with_config(lr: f32, beta1: f32, beta2: f32, eps: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        Self {
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            steps: HashMap::new(),
            first_moment: HashMap::new(),
            second_moment: HashMap::new(),
        }
    }
}

impl Optimizer for AdamW {
    fn step(&mut self, params: Vec<&mut Param>) {
        for p in params {
            let Some(grad) = p.grad().cloned() else {
                continue;
            };
            let t = self.steps.entry(p.id()).or_insert(0);
            *t += 1;
            let t = *t as i32;
            let m = self
                .first_moment
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(grad.dims()));
            *m = m.scale(self.beta1).add(&grad.scale(1.0 - self.beta1));
            let m_hat = m.scale(1.0 / (1.0 - self.beta1.powi(t)));
            let v = self
                .second_moment
                .entry(p.id())
                .or_insert_with(|| Tensor::zeros(grad.dims()));
            *v = v
                .scale(self.beta2)
                .add(&grad.mul(&grad).scale(1.0 - self.beta2));
            let v_hat = v.scale(1.0 / (1.0 - self.beta2.powi(t)));
            let eps = self.eps;
            let update = m_hat.zip_map(&v_hat, |m, v| m / (v.sqrt() + eps));
            let mut new = p.value().sub(&update.scale(self.lr));
            if self.weight_decay > 0.0 {
                new = new.sub(&p.value().scale(self.lr * self.weight_decay));
            }
            *p.value_mut() = new;
            p.zero_grad();
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Cosine learning-rate schedule with linear warmup (the DeiT recipe).
///
/// Warmup is strictly increasing and anchored at both ends: step 0 runs at
/// `peak_lr / (warmup_steps + 1)` (never 0, so the first optimizer steps are
/// not wasted) and the peak is reached exactly once, at `step ==
/// warmup_steps`, where the cosine decay takes over. Past `total_steps` the
/// rate clamps to `min_lr` — it never decays below it.
///
/// # Examples
///
/// ```
/// use heatvit_nn::optim::CosineSchedule;
///
/// let sched = CosineSchedule::new(1.0, 0.1, 10, 100);
/// assert!(sched.lr_at(0) > 0.0);                    // never starts at 0
/// assert!(sched.lr_at(0) < sched.lr_at(9));         // warming up
/// assert!(sched.lr_at(9) < sched.lr_at(10));        // peak not hit early
/// assert!((sched.lr_at(10) - 1.0).abs() < 1e-6);    // peak after warmup
/// assert!((sched.lr_at(100) - 0.1).abs() < 1e-6);   // decayed to min
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CosineSchedule {
    peak_lr: f32,
    min_lr: f32,
    warmup_steps: u64,
    total_steps: u64,
}

impl CosineSchedule {
    /// Creates a schedule.
    ///
    /// # Panics
    ///
    /// Panics if `total_steps < warmup_steps` or `peak_lr < min_lr`.
    pub fn new(peak_lr: f32, min_lr: f32, warmup_steps: u64, total_steps: u64) -> Self {
        assert!(total_steps >= warmup_steps, "warmup exceeds total steps");
        assert!(peak_lr >= min_lr, "peak lr below min lr");
        Self {
            peak_lr,
            min_lr,
            warmup_steps,
            total_steps,
        }
    }

    /// Learning rate at `step` (clamped to the final value past the end).
    pub fn lr_at(&self, step: u64) -> f32 {
        if self.warmup_steps > 0 && step < self.warmup_steps {
            // `(step + 1) / (warmup + 1)` keeps warmup strictly below the
            // peak: the old `/ warmup` form already ran at `peak_lr` on step
            // `warmup - 1`, duplicating the peak and cutting warmup short.
            return self.peak_lr * (step + 1) as f32 / (self.warmup_steps + 1) as f32;
        }
        let progress = (step - self.warmup_steps) as f32
            / (self.total_steps - self.warmup_steps).max(1) as f32;
        let progress = progress.min(1.0);
        self.min_lr
            + 0.5 * (self.peak_lr - self.min_lr) * (1.0 + (std::f32::consts::PI * progress).cos())
    }

    /// Applies the scheduled rate for `step` to an optimizer.
    pub fn apply(&self, opt: &mut dyn Optimizer, step: u64) {
        opt.set_learning_rate(self.lr_at(step));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param() -> Param {
        // Minimize f(w) = ||w - 3||² starting from w = 0.
        Param::new("w", Tensor::zeros(&[4]))
    }

    fn grad_of(p: &Param) -> Tensor {
        p.value().map(|w| 2.0 * (w - 3.0))
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut p = quadratic_param();
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            let g = grad_of(&p);
            p.accumulate_grad(&g);
            opt.step(vec![&mut p]);
        }
        assert!(p.value().data().iter().all(|&w| (w - 3.0).abs() < 1e-3));
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f32| {
            let mut p = quadratic_param();
            let mut opt = Sgd::with_momentum(0.02, momentum, 0.0);
            for _ in 0..40 {
                let g = grad_of(&p);
                p.accumulate_grad(&g);
                opt.step(vec![&mut p]);
            }
            (p.value().data()[0] - 3.0).abs()
        };
        assert!(run(0.9) < run(0.0), "momentum should converge faster here");
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let mut p = quadratic_param();
        let mut opt = AdamW::with_config(0.3, 0.9, 0.999, 1e-8, 0.0);
        for _ in 0..300 {
            let g = grad_of(&p);
            p.accumulate_grad(&g);
            opt.step(vec![&mut p]);
        }
        assert!(
            p.value().data().iter().all(|&w| (w - 3.0).abs() < 1e-2),
            "got {:?}",
            p.value()
        );
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Param::new("w", Tensor::ones(&[1]));
        // Zero gradient but nonzero decay: step is skipped without a grad,
        // so provide a zero grad explicitly.
        p.accumulate_grad(&Tensor::zeros(&[1]));
        let mut opt = Sgd::with_momentum(0.1, 0.0, 0.5);
        opt.step(vec![&mut p]);
        assert!(p.value().data()[0] < 1.0);
    }

    #[test]
    fn step_skips_params_without_grad() {
        let mut p = Param::new("w", Tensor::ones(&[1]));
        let mut opt = Sgd::new(0.1);
        opt.step(vec![&mut p]);
        assert_eq!(p.value().data(), &[1.0]);
    }

    #[test]
    fn cosine_schedule_is_monotone_after_warmup() {
        let sched = CosineSchedule::new(1.0, 0.0, 5, 50);
        let mut last = f32::INFINITY;
        for step in 5..=50 {
            let lr = sched.lr_at(step);
            assert!(lr <= last + 1e-6);
            last = lr;
        }
    }

    #[test]
    fn cosine_schedule_pins_step0_warmup_end_and_final_step() {
        let (peak, min, warmup, total) = (0.8f32, 0.05f32, 10u64, 100u64);
        let sched = CosineSchedule::new(peak, min, warmup, total);
        // Step 0: one warmup increment above zero — the trainer must never
        // silently start at lr = 0.
        let lr0 = sched.lr_at(0);
        assert!(lr0 > 0.0);
        assert!((lr0 - peak / (warmup + 1) as f32).abs() < 1e-7);
        // Warmup stays strictly below the peak until the handoff step...
        for step in 0..warmup {
            assert!(sched.lr_at(step) < peak);
            assert!(sched.lr_at(step) < sched.lr_at(step + 1));
        }
        // ...and the peak is hit exactly at `warmup_steps`.
        assert_eq!(sched.lr_at(warmup), peak);
        // The final step decays to the floor, and the schedule clamps there
        // rather than overshooting below it.
        assert!((sched.lr_at(total) - min).abs() < 1e-6);
        assert!((sched.lr_at(total + 1_000) - min).abs() < 1e-6);
        for step in 0..=total + 10 {
            assert!(sched.lr_at(step) >= min - 1e-6);
            assert!(sched.lr_at(step) <= peak + 1e-6);
        }
    }

    #[test]
    fn cosine_schedule_without_warmup_starts_at_peak() {
        let sched = CosineSchedule::new(1.0, 0.1, 0, 40);
        assert_eq!(sched.lr_at(0), 1.0);
        assert!((sched.lr_at(40) - 0.1).abs() < 1e-6);
    }

    #[test]
    fn cosine_schedule_applies_to_optimizer() {
        let sched = CosineSchedule::new(1.0, 0.0, 4, 20);
        let mut opt = Sgd::new(0.5);
        sched.apply(&mut opt, 4);
        assert_eq!(opt.learning_rate(), 1.0);
        sched.apply(&mut opt, 20);
        assert!(opt.learning_rate().abs() < 1e-6);
    }
}
