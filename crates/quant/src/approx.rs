//! Polynomial approximations of ViT nonlinear functions (paper Section V-D).
//!
//! The Vitis HLS math library implements `exp`/`erf` with deep pipelines that
//! burn hundreds of LUT/FF and several DSPs (paper Table III). HeatViT
//! replaces them with short polynomials — second-order for `erf` (Eq. 11,
//! after I-BERT) and for the softmax exponent (Eq. 14 plus a shift), and a
//! piecewise-linear sigmoid (PLAN) — and *deliberately scales the outputs by
//! regularization factors* `δ₁, δ₂ < 1` so downstream quantization error
//! shrinks (Section V-E).

use heatvit_tensor::{softmax_numerators, Tensor};

/// Coefficient `a` of the erf polynomial (Eq. 11).
pub const ERF_A: f32 = -0.2888;
/// Coefficient `b` of the erf polynomial (Eq. 11).
pub const ERF_B: f32 = -1.769;
/// Default regularization factor δ₁ for GELU (paper uses 0.5).
pub const DEFAULT_DELTA1: f32 = 0.5;
/// Default regularization factor δ₂ for Softmax (paper uses 0.5).
pub const DEFAULT_DELTA2: f32 = 0.5;

/// Second-order polynomial approximation of `erf` (paper Eq. 11):
///
/// `L_erf(x) = sign(x) · δ₁ · [a·(clip(|x|, max=−b) + b)² + 1]`
///
/// With `δ₁ = 1` this is the I-BERT approximation; HeatViT sets `δ₁ < 1`
/// to regularize quantization error.
#[inline]
fn erf_approx(x: f32, delta1: f32) -> f32 {
    let clipped = x.abs().min(-ERF_B);
    let val = ERF_A * (clipped + ERF_B) * (clipped + ERF_B) + 1.0;
    x.signum() * delta1 * val
}

/// Approximated GELU (paper Eq. 12):
/// `GELU_aprx(x) = x/2 · (1 + L_erf(x/√2))`.
#[inline]
pub fn gelu_approx(x: f32, delta1: f32) -> f32 {
    0.5 * x * (1.0 + erf_approx(x / std::f32::consts::SQRT_2, delta1))
}

/// Derivative of the approximated GELU (used by Fig. 10 and the Eq. 15
/// error argument). Derived analytically from Eqs. 11–12.
pub fn gelu_approx_derivative(x: f32, delta1: f32) -> f32 {
    let s = x / std::f32::consts::SQRT_2;
    let l = erf_approx(s, delta1);
    // d/dx [x/2·(1 + L(x/√2))] = (1 + L)/2 + x/2 · L'(x/√2) / √2
    let lprime = if s.abs() >= -ERF_B {
        0.0
    } else {
        // Inside the clip: L(s) = sign(s)·δ·[a(|s|+b)²+1]
        // dL/ds = δ·a·2(|s|+b)·sign(s)·d|s|/ds = 2δ·a·(|s|+b)
        2.0 * delta1 * ERF_A * (s.abs() + ERF_B)
    };
    0.5 * (1.0 + l) + 0.5 * x * lprime / std::f32::consts::SQRT_2
}

/// Polynomial approximation of `exp(p)` on `p ∈ (−ln2, 0]` (paper Eq. 14).
#[inline]
fn exp_poly(p: f32) -> f32 {
    0.3585 * (p + 1.353) * (p + 1.353) + 0.344
}

/// Largest shift count applied by `exp_shift`. Beyond 126 bits the true
/// `exp(x̃)` sits below `f32::MIN_POSITIVE` anyway, and `2⁻ᶻ` stops being a
/// normal `f32` at `z = 127` — so the result is flushed to exactly `0.0`.
pub const EXP_SHIFT_MAX: f32 = 126.0;

/// Inputs this far below the row max are flushed to exactly `0.0` by
/// [`softmax_approx_rows`] whatever `exp_shift` makes of them. The cutoff
/// is `ln(f32::MIN_POSITIVE) ≈ −87.3`: anything below contributes nothing to
/// a row sum that is always ≥ `exp̃(0) ≈ 1`, and masked attention scores
/// (`heatvit-vit`'s `MASK_PENALTY = −1e4`) land far past it.
pub const SOFTMAX_FLUSH: f32 = -87.0;

/// Shift-based approximation of `exp(x̃)` for `x̃ ≤ 0` (paper Section V-D):
/// decompose `x̃ = −ln2·z + p`, compute `exp(p)` with `exp_poly` and apply
/// the power of two as a right shift.
///
/// The hardware kernel is only defined on `x̃ ≤ 0` (softmax feeds it
/// `x − x_max`). Out-of-domain inputs are handled instead of producing
/// garbage: positive inputs clamp to the domain edge `exp̃(0)`, and inputs so
/// negative that the shift leaves the `f32` exponent range
/// ([`EXP_SHIFT_MAX`] bits) flush to exactly `0.0`.
///
/// Straight-line float code, so a loop over it vectorizes: `z = ⌊−x̃/ln2⌋`
/// is taken and clamped in float, the clamped shift's integer is read out
/// of its low mantissa bits to assemble `2⁻ᶻ`, and the flush is a select.
/// (A float-to-int `as` cast would saturate, which keeps such a loop
/// scalar.) Multiplying by the exact power of two `2⁻ᶻ` rounds like
/// dividing by `2ᶻ` does, so the result is bit-for-bit that of the
/// `floor`/`powi` definition (kept as the tests' reference) on every
/// `f32`.
#[inline]
fn exp_shift(x_tilde: f32) -> f32 {
    // Adding 1.5·2²³ to an integer in [0, 2²²) leaves that integer in the
    // low mantissa bits of the sum.
    const ROUND: f32 = 12_582_912.0;
    let x = x_tilde.min(0.0);
    // ≥ 0 (or +∞); `min` leaves a NaN out, so `x` is never NaN.
    let z = (-x / std::f32::consts::LN_2).floor();
    let shift = z.min(EXP_SHIFT_MAX);
    let p = x + shift * std::f32::consts::LN_2;
    // exp(p) >> shift
    let bits = (shift + ROUND).to_bits() & 0xFF;
    let pow = f32::from_bits((127 - bits) << 23);
    let y = exp_poly(p) * pow;
    if z > EXP_SHIFT_MAX {
        0.0
    } else {
        y
    }
}

/// Approximated softmax over each row (paper Eq. 13):
/// `Softmax_aprx(xᵢ) = δ₂ · exp̃(xᵢ − x_max) / Σⱼ exp̃(xⱼ − x_max)`.
///
/// Entries more than [`SOFTMAX_FLUSH`] below their row max — in particular
/// attention scores masked with a large negative constant — are flushed to
/// exactly `0.0` before normalization, so masked columns receive zero weight
/// and the row sum stays finite (the max entry always contributes
/// `exp̃(0) ≈ 1`, so no `0/0` is possible). The sum is taken in the exact
/// softmax's fixed 16-lane order ([`softmax_numerators`]). Rows of zero
/// columns are left alone.
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn softmax_approx_rows(x: &Tensor, delta2: f32) -> Tensor {
    let mut out = x.clone();
    softmax_approx_rows_inplace(&mut out, delta2);
    out
}

/// [`softmax_approx_rows`] overwriting `x` in place — the allocation-free
/// form used by the quantized engine's scratch workspace (values identical
/// to the allocating path).
///
/// # Panics
///
/// Panics if `x` is not rank 2.
pub fn softmax_approx_rows_inplace(x: &mut Tensor, delta2: f32) {
    assert_eq!(x.rank(), 2, "softmax_approx_rows requires rank 2");
    let cols = x.dim(1).max(1);
    let flushed = |shifted: f32| {
        let e = exp_shift(shifted);
        if shifted <= SOFTMAX_FLUSH {
            0.0
        } else {
            e
        }
    };
    for row in x.data_mut().chunks_exact_mut(cols) {
        let sum = softmax_numerators(row, flushed);
        for v in row.iter_mut() {
            *v = delta2 * *v / sum;
        }
    }
}

/// Piecewise-linear sigmoid (PLAN, Tsmots et al. — paper reference \[46\]).
#[inline]
// Kept for ROADMAP item 3: the 8-bit selector's head-importance sigmoid.
pub fn sigmoid_plan(x: f32) -> f32 {
    let a = x.abs();
    let y = if a >= 5.0 {
        1.0
    } else if a >= 2.375 {
        0.03125 * a + 0.84375
    } else if a >= 1.0 {
        0.125 * a + 0.625
    } else {
        0.25 * a + 0.5
    };
    if x >= 0.0 {
        y
    } else {
        1.0 - y
    }
}

/// Applies the approximated GELU elementwise, in place — the
/// allocation-free form used by the quantized engine's scratch workspace.
pub fn gelu_approx_inplace(x: &mut Tensor, delta1: f32) {
    x.map_inplace(|v| gelu_approx(v, delta1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_tensor::scalar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `exp_shift` as first written — `floor`, an early return and a
    /// `powi` division: the definition the branch-free form is pinned to.
    fn exp_shift_reference(x_tilde: f32) -> f32 {
        let x = x_tilde.min(0.0);
        let z = (-x / std::f32::consts::LN_2).floor();
        if z > EXP_SHIFT_MAX {
            return 0.0;
        }
        let p = x + z * std::f32::consts::LN_2;
        exp_poly(p) / (2.0f32).powi(z as i32)
    }

    /// The flushed reference exponentials of one row, before summing.
    fn reference_numerators(row: &[f32]) -> Vec<f32> {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        row.iter()
            .map(|&v| {
                let shifted = v - max;
                if shifted <= SOFTMAX_FLUSH {
                    0.0
                } else {
                    exp_shift_reference(shifted)
                }
            })
            .collect()
    }

    /// [`softmax_approx_rows_inplace`] written out on the reference
    /// exponent: value `j` of the whole 16-value blocks goes to partial
    /// sum `j mod 16`, the partials are added in lane order, then the
    /// values past the last whole block in column order.
    fn softmax_reference(x: &Tensor, delta2: f32) -> Tensor {
        let mut out = x.clone();
        let cols = out.dim(1);
        for row in out.data_mut().chunks_mut(cols) {
            let e = reference_numerators(row);
            let whole = e.len() / 16 * 16;
            let mut lanes = [0.0f32; 16];
            for (j, &v) in e[..whole].iter().enumerate() {
                lanes[j % 16] += v;
            }
            let mut sum = 0.0f32;
            for v in lanes.into_iter().chain(e[whole..].iter().copied()) {
                sum += v;
            }
            for (v, e) in row.iter_mut().zip(e) {
                *v = delta2 * e / sum;
            }
        }
        out
    }

    fn assert_same_bits(x: f32) {
        let (got, want) = (exp_shift(x), exp_shift_reference(x));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "x={x:e}: {got:e} vs {want:e}"
        );
    }

    #[test]
    fn exp_shift_is_bit_identical_to_its_floor_powi_definition() {
        // A dense sweep of the domain softmax feeds it, at a step that is
        // not a multiple of ln2 so every fractional position is visited...
        let mut x = 0.0f32;
        while x >= -100.0 {
            assert_same_bits(x);
            x -= 3.1e-5;
        }
        // ...every multiple of ln2 and its two neighbours, where z steps...
        for z in 0..=140 {
            let edge = -(z as f32) * std::f32::consts::LN_2;
            for x in [
                edge,
                f32::from_bits(edge.to_bits() + 1),
                f32::from_bits(edge.to_bits().saturating_sub(1)),
            ] {
                assert_same_bits(x);
            }
        }
        // ...and everything off the domain: positives clamp, the deeply
        // negative flush, NaN reads as the domain edge, as before.
        for x in [
            -0.0,
            1e-6,
            0.3,
            5.0,
            1e4,
            f32::MAX,
            f32::INFINITY,
            -87.0,
            -87.3,
            -88.0,
            -89.0,
            -200.0,
            -1e4,
            -1e10,
            f32::MIN,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ] {
            assert_same_bits(x);
        }
        assert_eq!(exp_shift(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_shift(f32::NAN), exp_shift(0.0));
    }

    /// Every `f32` bit pattern, not a sample: the claim the dense sweep
    /// above stands in for.
    #[test]
    #[ignore = "all 2³² inputs; run with `cargo test --release -- --ignored`"]
    fn exp_shift_is_bit_identical_on_every_f32() {
        let mismatch = (0..=u32::MAX)
            .map(f32::from_bits)
            .find(|&x| exp_shift(x).to_bits() != exp_shift_reference(x).to_bits());
        assert_eq!(mismatch, None);
    }

    #[test]
    fn softmax_approx_is_bit_identical_to_its_definition() {
        const MASK_PENALTY: f32 = -1e4; // mirrors crates/vit/src/attention.rs
        let mut rng = StdRng::seed_from_u64(40);
        // DeiT-T's score matrix shape, at scales from flat to peaked rows.
        for (scale, delta2) in [(0.1f32, 1.0f32), (1.0, 0.5), (8.0, 1.0), (40.0, 0.5)] {
            let x = Tensor::rand_normal(&[197, 197], 0.0, scale, &mut rng);
            let got = softmax_approx_rows(&x, delta2);
            let want = softmax_reference(&x, delta2);
            let same = got
                .data()
                .iter()
                .zip(want.data())
                .all(|(g, w)| g.to_bits() == w.to_bits());
            assert!(same, "scale {scale} δ₂ {delta2}");
        }
        // Masked columns, a fully masked row, and a row holding −∞.
        let masked = Tensor::from_vec(
            vec![
                0.4,
                1.0 + MASK_PENALTY,
                -0.2,
                0.1 + MASK_PENALTY,
                MASK_PENALTY,
                MASK_PENALTY,
                MASK_PENALTY,
                MASK_PENALTY,
                0.0,
                f32::NEG_INFINITY,
                -90.0,
                -86.9,
            ],
            &[3, 4],
        );
        for delta2 in [1.0f32, 0.5] {
            let got = softmax_approx_rows(&masked, delta2);
            let want = softmax_reference(&masked, delta2);
            for (g, w) in got.data().iter().zip(want.data()) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn softmax_approx_stays_near_delta2_times_the_exact_softmax() {
        // Measured: 3.9·10⁻⁴ at the peaked end. Each numerator is within
        // exp_shift's 3.1·10⁻³ relative error and the sum averages it.
        const MAX_ABS: f32 = 5e-4;
        let mut rng = StdRng::seed_from_u64(41);
        for scale in [0.1f32, 1.0, 3.0, 8.0, 40.0] {
            let x = Tensor::rand_normal(&[197, 197], 0.0, scale, &mut rng);
            let got = softmax_approx_rows(&x, DEFAULT_DELTA2);
            let exact = x.softmax_rows();
            let err = got
                .data()
                .iter()
                .zip(exact.data())
                .map(|(g, e)| (g - DEFAULT_DELTA2 * e).abs())
                .fold(0.0f32, f32::max);
            assert!(err < MAX_ABS, "scale {scale}: max |error| {err:e}");
        }
    }

    #[test]
    fn rows_shorter_than_32_sum_in_column_order() {
        // Every micro-config attention row (17 tokens) is one of these, so
        // the 16-lane order leaves the micro int8 outputs where they were.
        let mut rng = StdRng::seed_from_u64(42);
        for cols in 1..32 {
            let x = Tensor::rand_normal(&[8, cols], 0.0, 4.0, &mut rng);
            let got = softmax_approx_rows(&x, DEFAULT_DELTA2);
            for (r, row) in got.data().chunks_exact(cols).enumerate() {
                let e = reference_numerators(x.row(r));
                let sum = e.iter().fold(0.0f32, |acc, &v| acc + v);
                for (g, v) in row.iter().zip(e) {
                    let want = DEFAULT_DELTA2 * v / sum;
                    assert_eq!(g.to_bits(), want.to_bits(), "{cols} cols, row {r}");
                }
            }
        }
    }

    #[test]
    fn rows_of_32_or_more_stay_near_an_f64_sum() {
        // Measured: at most 3.4 ε relative, to a sum and quotient taken in
        // f64 over the same exponentials.
        const MAX_REL: f64 = 8.0 * f32::EPSILON as f64;
        let mut rng = StdRng::seed_from_u64(43);
        for cols in [32usize, 33, 64, 197, 384, 1000] {
            for scale in [0.1f32, 1.0, 8.0] {
                let x = Tensor::rand_normal(&[8, cols], 0.0, scale, &mut rng);
                let got = softmax_approx_rows(&x, 1.0);
                for (r, row) in got.data().chunks_exact(cols).enumerate() {
                    let e = reference_numerators(x.row(r));
                    let sum: f64 = e.iter().map(|&v| v as f64).sum();
                    for (&g, v) in row.iter().zip(e) {
                        let want = v as f64 / sum;
                        let rel = (g as f64 - want).abs() / want;
                        assert!(rel <= MAX_REL, "{cols} cols, row {r}: {rel:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_approx_leaves_zero_column_rows_alone() {
        // Regression: `chunks_mut(0)` used to panic on both shapes.
        for dims in [[0, 0], [3, 0]] {
            let x = Tensor::zeros(&dims);
            let s = softmax_approx_rows(&x, DEFAULT_DELTA2);
            assert_eq!(s.shape(), x.shape());
            assert!(s.data().is_empty());
        }
    }

    #[test]
    fn erf_approx_tracks_exact_erf_at_delta_one() {
        // I-BERT reports ~2e-2 max error for this polynomial.
        for i in -40..=40 {
            let x = i as f32 * 0.1;
            let err = (erf_approx(x, 1.0) - scalar::erf(x)).abs();
            assert!(err < 0.11, "x={x}: err={err}");
        }
    }

    #[test]
    fn gelu_approx_tracks_exact_gelu_at_delta_one() {
        for i in -40..=40 {
            let x = i as f32 * 0.1;
            let err = (gelu_approx(x, 1.0) - scalar::gelu(x)).abs();
            assert!(err < 0.06, "x={x}: err={err}");
        }
    }

    #[test]
    fn delta1_shrinks_the_output() {
        for i in 1..=30 {
            let x = i as f32 * 0.1;
            assert!(gelu_approx(x, 0.5) <= gelu_approx(x, 1.0) + 1e-7);
        }
    }

    #[test]
    fn exp_poly_matches_exp_on_segment() {
        // Eq. 14's quoted accuracy on (−ln2, 0].
        let mut p = -std::f32::consts::LN_2 + 1e-3;
        while p <= 0.0 {
            let err = (exp_poly(p) - p.exp()).abs();
            assert!(err < 0.02, "p={p}: err={err}");
            p += 0.01;
        }
    }

    #[test]
    fn exp_shift_matches_exp_for_negative_inputs() {
        // The shift by an exact power of two keeps Eq. 14's relative error
        // on (−ln2, 0], whose maximum is 3.097·10⁻³ (near p = −0.554), over
        // the whole range softmax feeds it.
        const MAX_REL: f64 = 3.2e-3;
        let mut x = 0.0f32;
        while x >= -87.0 {
            let exact = (x as f64).exp();
            let rel = (exp_shift(x) as f64 - exact).abs() / exact;
            assert!(rel < MAX_REL, "x={x}: {} vs {exact:e}", exp_shift(x));
            x -= 1.3e-4;
        }
    }

    #[test]
    fn exp_shift_clamps_positive_inputs_to_domain_edge() {
        // Regression: outside the debug-asserted domain the old kernel
        // evaluated exp_poly off its segment and *amplified* by 2^|z| in
        // release builds. Positive inputs now clamp to exp̃(0).
        let edge = exp_shift(0.0);
        assert!((edge - 1.0).abs() < 0.01, "exp̃(0) = {edge}");
        for x in [1e-6f32, 0.3, 5.0, 1e4, f32::MAX] {
            assert_eq!(exp_shift(x), edge, "x={x} must clamp to exp̃(0)");
        }
    }

    #[test]
    fn exp_shift_flushes_deeply_negative_inputs_to_zero() {
        // Regression: a deeply negative input used to push 2^z through powi
        // overflow. Beyond the f32 shift range the result is exactly 0.0.
        // The flush begins once z = ⌊−x/ln2⌋ exceeds 126, i.e. x < −127·ln2.
        for x in [-89.0f32, -200.0, -1e4, -1e10, f32::MIN] {
            let y = exp_shift(x);
            assert_eq!(y, 0.0, "x={x} gave {y}");
        }
        // Just inside the range the value is still a positive subnormal-ish
        // number, and the kernel stays monotone across the cutoff.
        let inside = exp_shift(-80.0);
        assert!(inside > 0.0 && inside < 1e-30, "exp̃(-80) = {inside}");
        assert!(exp_shift(-88.0) >= exp_shift(-89.0));
    }

    #[test]
    fn softmax_approx_rows_sum_to_delta2() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]);
        let s = softmax_approx_rows(&x, 0.5);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 0.5).abs() < 1e-3, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_approx_preserves_ranking() {
        let x = Tensor::from_vec(vec![0.2, 2.0, -1.0, 0.9], &[1, 4]);
        let exact = x.softmax_rows();
        let approx = softmax_approx_rows(&x, 1.0);
        let rank = |t: &Tensor| {
            let mut idx: Vec<usize> = (0..4).collect();
            idx.sort_by(|&a, &b| t.at(&[0, a]).total_cmp(&t.at(&[0, b])));
            idx
        };
        assert_eq!(rank(&exact), rank(&approx));
    }

    #[test]
    fn softmax_flushes_masked_entries_to_exact_zero() {
        // Regression: attention masks scores additively with −1e4
        // (heatvit-vit's MASK_PENALTY); that used to drive exp_shift through
        // powi overflow and could NaN the row. Masked entries must come out
        // exactly 0.0 and the row must still normalize to δ₂.
        const MASK_PENALTY: f32 = -1e4; // mirrors crates/vit/src/attention.rs
        let x = Tensor::from_vec(
            vec![0.4, 1.0 + MASK_PENALTY, -0.2, 0.1 + MASK_PENALTY],
            &[1, 4],
        );
        for delta2 in [1.0f32, 0.5] {
            let s = softmax_approx_rows(&x, delta2);
            assert_eq!(s.at(&[0, 1]), 0.0);
            assert_eq!(s.at(&[0, 3]), 0.0);
            assert!(s.data().iter().all(|v| v.is_finite()));
            let sum: f32 = s.row(0).iter().sum();
            assert!((sum - delta2).abs() < 1e-3, "row sums to {sum}");
            assert!(s.at(&[0, 0]) > s.at(&[0, 2]), "ranking preserved");
        }
        // A fully-masked row (every score = MASK_PENALTY) degrades to
        // uniform rather than NaN: max subtraction brings it back to 0.
        let all_masked = Tensor::full(&[1, 3], MASK_PENALTY);
        let s = softmax_approx_rows(&all_masked, 1.0);
        for v in s.row(0) {
            assert!((v - 1.0 / 3.0).abs() < 1e-3, "got {v}");
        }
    }

    #[test]
    fn softmax_inplace_and_gelu_inplace_match_allocating_paths() {
        let x = Tensor::from_vec(vec![0.3, -1.2, 2.0, 0.0, -0.4, 1.1], &[2, 3]);
        let mut s = x.clone();
        softmax_approx_rows_inplace(&mut s, 0.5);
        assert!(s.max_abs_diff(&softmax_approx_rows(&x, 0.5)) <= 0.0);
        let mut g = x.clone();
        gelu_approx_inplace(&mut g, 0.5);
        assert!(g.max_abs_diff(&x.map(|v| gelu_approx(v, 0.5))) <= 0.0);
    }

    #[test]
    fn sigmoid_plan_tracks_sigmoid() {
        // PLAN's published max error is ~0.0189.
        for i in -80..=80 {
            let x = i as f32 * 0.1;
            let err = (sigmoid_plan(x) - scalar::sigmoid(x)).abs();
            assert!(err < 0.02, "x={x}: err={err}");
        }
    }

    #[test]
    fn sigmoid_plan_is_monotone_and_bounded() {
        let mut last = -1.0f32;
        for i in -100..=100 {
            let y = sigmoid_plan(i as f32 * 0.07);
            assert!(y >= last - 1e-6, "non-monotone at {i}");
            assert!((0.0..=1.0).contains(&y));
            last = y;
        }
    }

    #[test]
    fn gelu_approx_derivative_matches_numeric() {
        for delta in [0.5f32, 1.0] {
            for i in -35..=35 {
                // Offset to dodge x = 0, where L_erf's sign(x) factor makes
                // the approximation non-differentiable (cf. the hardswish
                // test in heatvit-tensor, which avoids its kinks the same
                // way).
                let x = i as f32 * 0.11 + 0.005;
                let h = 1e-3;
                let numeric = (gelu_approx(x + h, delta) - gelu_approx(x - h, delta)) / (2.0 * h);
                let analytic = gelu_approx_derivative(x, delta);
                assert!(
                    (numeric - analytic).abs() < 5e-3,
                    "x={x} δ={delta}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn regularized_gelu_derivative_is_below_one() {
        // The Fig. 10 / Eq. 15 claim: with δ₁ = 0.5 the approximated GELU's
        // derivative magnitude stays below 1, so quantization error shrinks.
        for i in -400..=400 {
            let x = i as f32 * 0.01;
            let d = gelu_approx_derivative(x, DEFAULT_DELTA1).abs();
            assert!(d < 1.0, "x={x}: |dA/dx| = {d}");
        }
    }
}
