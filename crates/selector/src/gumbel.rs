//! Gumbel-Softmax sampling and the straight-through keep mask (paper Eq. 9).

use heatvit_nn::{Tape, Var};
use heatvit_tensor::Tensor;
use rand::Rng;

/// Configuration of the Gumbel-Softmax relaxation.
#[derive(Debug, Clone, Copy)]
pub struct GumbelConfig {
    /// Relaxation temperature τ (lower = harder decisions).
    pub temperature: f32,
    /// Keep threshold on the (soft or exact) keep probability.
    pub threshold: f32,
}

impl Default for GumbelConfig {
    fn default() -> Self {
        Self {
            temperature: 1.0,
            threshold: 0.5,
        }
    }
}

/// One sample from the standard Gumbel distribution.
fn sample_gumbel(rng: &mut impl Rng) -> f32 {
    let u: f32 = rng.gen_range(1e-9..1.0f32);
    -(-u.ln()).ln()
}

/// Result of a straight-through Gumbel-Softmax draw over token keep/prune
/// probabilities.
#[derive(Debug)]
pub struct GumbelDecision {
    /// Soft keep probabilities `[N]` (differentiable).
    pub keep_soft: Var,
    /// Straight-through mask `[N]`: forwards the hard 0/1 decision, but
    /// gradients flow as if it were `keep_soft`.
    pub mask_st: Var,
    /// The hard decisions.
    pub keep_hard: Vec<bool>,
}

/// Applies straight-through Gumbel-Softmax to classifier scores.
///
/// `scores` must be `[N, 2]` row-stochastic (column 0 = keep). The relaxed
/// sample is `softmax((ln S̃ + g)/τ)` with i.i.d. Gumbel noise `g`; the hard
/// decision thresholds the relaxed keep probability. If every token would be
/// pruned, the single highest-scoring token is kept so downstream blocks
/// always receive at least one patch token.
///
/// # Panics
///
/// Panics if `scores` is not `[N, 2]`.
pub fn gumbel_softmax_st(
    tape: &mut Tape,
    scores: Var,
    config: GumbelConfig,
    rng: &mut impl Rng,
) -> GumbelDecision {
    let dims = tape.dims(scores).to_vec();
    assert_eq!(dims.len(), 2, "scores must be rank 2");
    assert_eq!(dims[1], 2, "scores must have keep/prune columns");
    let n = dims[0];
    let noise = Tensor::from_fn(&[n, 2], |_| sample_gumbel(rng));
    let logits = tape.ln(scores);
    let noised = tape.add_const(logits, noise);
    let scaled = tape.scale(noised, 1.0 / config.temperature);
    let relaxed = tape.softmax_rows(scaled);
    let keep_col = tape.slice_cols(relaxed, 0, 1);
    let keep_soft = tape.reshape(keep_col, &[n]);

    let soft_values = tape.value(keep_soft).clone();
    let mut keep_hard: Vec<bool> = soft_values
        .data()
        .iter()
        .map(|&p| p > config.threshold)
        .collect();
    if keep_hard.iter().all(|&k| !k) {
        let best = soft_values
            .data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        keep_hard[best] = true;
    }
    // Straight-through: forward = hard, backward = soft.
    let hard_minus_soft = Tensor::from_vec(
        keep_hard
            .iter()
            .zip(soft_values.data().iter())
            .map(|(&h, &s)| f32::from(h) - s)
            .collect(),
        &[n],
    );
    let mask_st = tape.add_const(keep_soft, hard_minus_soft);
    GumbelDecision {
        keep_soft,
        mask_st,
        keep_hard,
    }
}

/// Deterministic (inference) keep decision from exact scores `[N, 2]`:
/// keep where `S̃[:, 0] ≥ threshold`, with the same keep-at-least-one rule
/// as the training path.
///
/// # Panics
///
/// Panics if `scores` is not `[N, 2]`.
pub fn threshold_decision(scores: &Tensor, threshold: f32) -> Vec<bool> {
    assert_eq!(scores.rank(), 2, "scores must be rank 2");
    assert_eq!(scores.dim(1), 2, "scores must have keep/prune columns");
    let mut keep: Vec<bool> = (0..scores.dim(0))
        .map(|r| scores.at(&[r, 0]) >= threshold)
        .collect();
    if keep.iter().all(|&k| !k) && !keep.is_empty() {
        let best = (0..scores.dim(0))
            .max_by(|&a, &b| scores.at(&[a, 0]).total_cmp(&scores.at(&[b, 0])))
            .unwrap();
        keep[best] = true;
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scores_tensor(keeps: &[f32]) -> Tensor {
        let n = keeps.len();
        Tensor::from_fn(&[n, 2], |ix| {
            if ix[1] == 0 {
                keeps[ix[0]]
            } else {
                1.0 - keeps[ix[0]]
            }
        })
    }

    #[test]
    fn gumbel_samples_have_right_mean() {
        // Standard Gumbel mean is the Euler–Mascheroni constant ≈ 0.5772.
        let mut rng = StdRng::seed_from_u64(0);
        let mean: f32 = (0..50_000).map(|_| sample_gumbel(&mut rng)).sum::<f32>() / 50_000.0;
        assert!((mean - 0.5772).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn st_mask_forward_is_hard() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::new();
        let s = tape.leaf(scores_tensor(&[0.95, 0.05, 0.9, 0.1]));
        let d = gumbel_softmax_st(&mut tape, s, GumbelConfig::default(), &mut rng);
        for (i, &h) in d.keep_hard.iter().enumerate() {
            let v = tape.value(d.mask_st).data()[i];
            assert_eq!(v, f32::from(h), "mask value must be exactly 0/1");
        }
    }

    #[test]
    fn st_mask_gradient_is_soft() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tape = Tape::new();
        let s = tape.leaf(scores_tensor(&[0.8, 0.2]));
        let d = gumbel_softmax_st(&mut tape, s, GumbelConfig::default(), &mut rng);
        let loss = tape.sum_all(d.mask_st);
        let grads = tape.backward(loss);
        // Gradient reaches the scores despite the hard forward.
        let g = grads.get(s).expect("scores must receive gradient");
        assert!(g.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn strong_scores_survive_noise_mostly() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut kept = 0;
        let trials = 200;
        for _ in 0..trials {
            let mut tape = Tape::new();
            let s = tape.leaf(scores_tensor(&[0.99, 0.01]));
            let d = gumbel_softmax_st(&mut tape, s, GumbelConfig::default(), &mut rng);
            if d.keep_hard[0] {
                kept += 1;
            }
        }
        assert!(kept > trials * 8 / 10, "kept only {kept}/{trials}");
    }

    #[test]
    fn at_least_one_token_survives() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let mut tape = Tape::new();
            let s = tape.leaf(scores_tensor(&[0.01, 0.02, 0.01]));
            let d = gumbel_softmax_st(&mut tape, s, GumbelConfig::default(), &mut rng);
            assert!(d.keep_hard.iter().any(|&k| k));
        }
        assert_eq!(
            threshold_decision(&scores_tensor(&[0.1, 0.3, 0.2]), 0.5),
            vec![false, true, false]
        );
    }

    #[test]
    fn lower_temperature_sharpens_soft_mask() {
        let sharpness = |tau: f32| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut tape = Tape::new();
            let s = tape.leaf(scores_tensor(&[0.7, 0.3, 0.6, 0.4]));
            let cfg = GumbelConfig {
                temperature: tau,
                threshold: 0.5,
            };
            let d = gumbel_softmax_st(&mut tape, s, cfg, &mut rng);
            tape.value(d.keep_soft)
                .data()
                .iter()
                .map(|&p| (p - 0.5).abs())
                .sum::<f32>()
        };
        assert!(sharpness(0.1) > sharpness(10.0));
    }

    #[test]
    fn threshold_decision_is_deterministic() {
        let s = scores_tensor(&[0.9, 0.49, 0.51]);
        assert_eq!(threshold_decision(&s, 0.5), vec![true, false, true]);
        assert_eq!(threshold_decision(&s, 0.5), vec![true, false, true]);
    }
}
