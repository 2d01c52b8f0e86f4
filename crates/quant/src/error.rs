//! Quantization-error regularization analysis (paper Section V-E).
//!
//! The paper argues that scaling the approximated GELU and Softmax by
//! `δ < 1` *contracts* quantization noise: a perturbation `Δe` on the input
//! propagates to the output through the derivative, and both approximated
//! functions keep that derivative's aggregate magnitude below one
//! (Eqs. 15–17, Fig. 10). This module provides the machinery to verify the
//! claim empirically and to regenerate Fig. 10.

use crate::approx::{gelu_approx_derivative, softmax_approx_rows};
use heatvit_tensor::{scalar, Tensor};

/// One point of the Fig. 10 curve: derivative of original vs. approximated
/// GELU at `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DerivativePoint {
    /// Input location.
    pub x: f32,
    /// `d GELU(x) / dx` (original).
    pub original: f32,
    /// `d GELU_aprx(x) / dx` with the given δ₁.
    pub approximated: f32,
}

/// Samples the Fig. 10 derivative curves over `[lo, hi]`.
///
/// # Panics
///
/// Panics if `lo >= hi` or `points < 2`.
// Kept for ROADMAP item 4: the error budget checks Eqs. 15–17 with it.
pub fn gelu_derivative_curve(lo: f32, hi: f32, points: usize, delta1: f32) -> Vec<DerivativePoint> {
    assert!(lo < hi, "empty sample range");
    assert!(points >= 2, "need at least two samples");
    (0..points)
        .map(|i| {
            let x = lo + (hi - lo) * i as f32 / (points - 1) as f32;
            DerivativePoint {
                x,
                original: scalar::gelu_derivative(x),
                approximated: gelu_approx_derivative(x, delta1),
            }
        })
        .collect()
}

/// Empirical error-amplification factor of a scalar function: perturbs `x`
/// by `±Δe` and reports `|f(x+Δe) − f(x)| / Δe` maximized over the sampled
/// range — a direct check of Eq. 15.
// Kept for ROADMAP item 4: the error budget checks Eqs. 15–17 with it.
pub fn max_error_amplification(f: impl Fn(f32) -> f32, lo: f32, hi: f32, delta_e: f32) -> f32 {
    let mut worst = 0.0f32;
    let steps = 400;
    for i in 0..=steps {
        let x = lo + (hi - lo) * i as f32 / steps as f32;
        let amp = (f(x + delta_e) - f(x)).abs() / delta_e;
        worst = worst.max(amp);
    }
    worst
}

/// The Eq. 17 bound: for Softmax with regularization δ₂, a perturbation of
/// input `x₀` changes the outputs by at most `2·δ₂·A₀·(1−A₀)·|Δe| < |Δe|`.
/// Returns the worst observed total output change divided by `|Δe|` over
/// random rows — must stay below 1.
// Kept for ROADMAP item 4: the error budget checks Eqs. 15–17 with it.
pub fn softmax_error_amplification(rows: usize, cols: usize, delta2: f32, seed: u64) -> f32 {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let delta_e = 1e-2f32;
    let mut worst = 0.0f32;
    for _ in 0..rows {
        let x = Tensor::rand_normal(&[1, cols], 0.0, 2.0, &mut rng);
        let base = softmax_approx_rows(&x, delta2);
        let mut bumped = x.clone();
        bumped.data_mut()[0] += delta_e;
        let after = softmax_approx_rows(&bumped, delta2);
        let total_change: f32 = base
            .data()
            .iter()
            .zip(after.data().iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        worst = worst.max(total_change / delta_e);
    }
    worst
}

/// End-to-end check: quantization noise through GELU. Injects uniform noise
/// of magnitude `noise` on a tensor, passes both through `f`, and returns
/// `(mean input error, mean output error)` — regularized functions must not
/// amplify.
// Kept for ROADMAP item 4: the error budget checks Eqs. 15–17 with it.
pub fn noise_propagation(
    f: impl Fn(f32) -> f32,
    input: &Tensor,
    noise: f32,
    seed: u64,
) -> (f32, f32) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let noisy = input.map(|v| v + rng.gen_range(-noise..noise));
    let in_err = noisy.sub(input).map(f32::abs).mean_all();
    let out_clean = input.map(&f);
    let out_noisy = noisy.map(&f);
    let out_err = out_noisy.sub(&out_clean).map(f32::abs).mean_all();
    (in_err, out_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{gelu_approx, DEFAULT_DELTA1};

    #[test]
    fn fig10_regularized_derivative_stays_below_one() {
        let curve = gelu_derivative_curve(-4.0, 4.0, 200, DEFAULT_DELTA1);
        for p in &curve {
            assert!(
                p.approximated.abs() < 1.0,
                "x={}: approx derivative {}",
                p.x,
                p.approximated
            );
        }
        // The original GELU derivative *does* exceed 1 for x ≳ 1 — that is
        // the whole point of the figure.
        assert!(curve.iter().any(|p| p.original > 1.0));
    }

    #[test]
    fn amplification_matches_eq15() {
        let amp = max_error_amplification(|x| gelu_approx(x, DEFAULT_DELTA1), -4.0, 4.0, 1e-2);
        assert!(amp < 1.0, "regularized GELU amplifies noise: {amp}");
        let amp_orig = max_error_amplification(scalar::gelu, -4.0, 4.0, 1e-2);
        assert!(amp_orig > 1.0, "original GELU should exceed 1: {amp_orig}");
    }

    #[test]
    fn softmax_amplification_below_one_with_delta() {
        let amp = softmax_error_amplification(50, 8, 0.5, 0);
        assert!(amp < 1.0, "regularized softmax amplifies: {amp}");
        // δ₂ = 1 halves the margin: 2·A(1−A) ≤ 0.5 still < 1, so even the
        // unregularized form contracts — δ₂ just enlarges the margin
        // (Eq. 17 notes 2A₀(1−A₀) is *always* < 1).
        let amp1 = softmax_error_amplification(50, 8, 1.0, 0);
        assert!(amp > 0.0 && amp < amp1);
    }

    #[test]
    fn noise_through_regularized_gelu_contracts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_normal(&[64, 64], 0.0, 1.5, &mut rng);
        let (in_err, out_err) = noise_propagation(|v| gelu_approx(v, DEFAULT_DELTA1), &x, 0.05, 2);
        assert!(
            out_err < in_err,
            "quantization noise grew: {in_err} -> {out_err}"
        );
    }

    #[test]
    fn curve_is_deterministic_and_ordered() {
        let a = gelu_derivative_curve(-2.0, 2.0, 50, 0.5);
        let b = gelu_derivative_curve(-2.0, 2.0, 50, 0.5);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].x < w[1].x));
    }
}
