//! Scalar nonlinear functions and their derivatives.
//!
//! These are the *reference* ("original") implementations of the nonlinear
//! functions that appear in ViTs — GELU, Sigmoid, Hardswish, erf — against
//! which `heatvit-quant` validates its hardware-friendly polynomial
//! approximations (paper Section V-D). `f32::erf` is not in the standard
//! library, so a high-accuracy rational approximation is provided here.

/// `eˣ` for `x ≤ 0`, branch-free: the exponential under [`erf`]/[`gelu`]
/// (`e^{−x²}`) and under the softmax (`e^{xᵢ − max}`), written so a loop over
/// it vectorizes — no table, no library call, no data-dependent branch.
///
/// Cody–Waite range reduction (`x = n·ln2 + r` with `|r| ≤ ln2/2`, `ln2`
/// split in two so `n·ln2_hi` is exact), a degree-6 polynomial for `eʳ`, and
/// `2ⁿ` assembled from exponent bits. Relative error ≤ 4·10⁻⁷ on
/// `[−87, 0]`; `exp_nonpos(0.0) == 1.0` exactly; arguments below
/// [`EXP_FLUSH`] (where `eˣ` leaves the normal `f32` range) give exactly
/// `0.0`; NaN propagates. Positive arguments are outside the contract.
///
/// # Examples
///
/// ```
/// use heatvit_tensor::scalar::exp_nonpos;
/// assert_eq!(exp_nonpos(0.0), 1.0);
/// assert!((exp_nonpos(-1.0) - (-1.0f32).exp()).abs() < 1e-7);
/// assert_eq!(exp_nonpos(-1e4), 0.0);
/// ```
#[inline]
pub fn exp_nonpos(x: f32) -> f32 {
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln2 = LN2_HI + LN2_LO; LN2_HI is 355/512, fifteen trailing zero
    // bits, so its product with the integer n (|n| ≤ 126) is exact.
    const LN2_HI: f32 = 0.693_359_4;
    const _: () = assert!(LN2_HI.to_bits() == 0x3F31_8000);
    const LN2_LO: f32 = -2.121_944_4e-4;
    // Adding 1.5·2²³ rounds to the nearest integer, which is then the low
    // mantissa bits of the sum.
    const ROUND: f32 = 12_582_912.0;
    // eʳ ≈ 1 + r + r²·(C2 + C3·r + C4·r² + C5·r³ + C6·r⁴) on |r| ≤ ln2/2,
    // interpolated at Chebyshev nodes (error 1·10⁻⁸).
    const C2: f32 = 0.5;
    const C3: f32 = 0.166_665_78;
    const C4: f32 = 0.041_666_556;
    const C5: f32 = 0.008_363_173;
    const C6: f32 = 0.001_392_617_6;

    // `max` drops a NaN here, which only feeds `n`; `r` sees `x` itself.
    let shifted = x.max(EXP_FLUSH) * LOG2_E + ROUND;
    let n = shifted - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let poly = 1.0 + r + r * r * (C2 + r * (C3 + r * (C4 + r * (C5 + r * C6))));
    // n ∈ [−126, 0] sits in `shifted`'s low bits; biased, it is 2ⁿ's
    // exponent field.
    let two_n = f32::from_bits((shifted.to_bits() << 23).wrapping_add(127 << 23));
    if x < EXP_FLUSH {
        0.0
    } else {
        poly * two_n
    }
}

/// The flush point of [`exp_nonpos`]: `ln 2⁻¹²⁶`, below which `eˣ` is not a
/// normal `f32` and the function returns exactly `0.0`.
pub const EXP_FLUSH: f32 = -87.336_54;

/// Error function `erf(x)`.
///
/// Uses the Abramowitz–Stegun 7.1.26 rational approximation (max absolute
/// error ≈ 1.5·10⁻⁷), which is far below `f32` noise for our purposes, over
/// [`exp_nonpos`] — branch-free, so a loop over it vectorizes.
///
/// # Examples
///
/// ```
/// use heatvit_tensor::scalar::erf;
/// assert!((erf(0.0)).abs() < 1e-7);
/// assert!((erf(10.0) - 1.0).abs() < 1e-6);
/// assert!((erf(-1.0) + erf(1.0)).abs() < 1e-6); // odd function
/// ```
#[inline]
pub fn erf(x: f32) -> f32 {
    const A1: f32 = 0.254_829_6;
    const A2: f32 = -0.284_496_72;
    const A3: f32 = 1.421_413_8;
    const A4: f32 = -1.453_152_1;
    const A5: f32 = 1.061_405_4;
    const P: f32 = 0.3275911;
    let ax = x.abs();
    let t = 1.0 / (1.0 + P * ax);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * exp_nonpos(-ax * ax);
    y.copysign(x)
}

/// Exact GELU: `x/2 · (1 + erf(x/√2))`.
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + erf(x / std::f32::consts::SQRT_2))
}

/// Derivative of the exact GELU.
///
/// `GELU'(x) = Φ(x) + x·φ(x)` with `Φ` the standard-normal CDF and `φ` its
/// density. Referenced by the paper's quantization-error argument (Fig. 10):
/// for the *approximated* GELU this derivative is kept below one.
pub fn gelu_derivative(x: f32) -> f32 {
    let phi_cdf = 0.5 * (1.0 + erf(x / std::f32::consts::SQRT_2));
    let phi_pdf = (-0.5 * x * x).exp() / (2.0 * std::f32::consts::PI).sqrt();
    phi_cdf + x * phi_pdf
}

/// Logistic sigmoid `1 / (1 + e^{-x})`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Derivative of the sigmoid: `σ(x)·(1 − σ(x))`.
pub fn sigmoid_derivative(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 - s)
}

/// ReLU.
#[inline]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU (`0` at the kink).
pub fn relu_derivative(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Hardswish (MobileNetV3): `x · relu6(x+3) / 6`.
#[inline]
pub fn hardswish(x: f32) -> f32 {
    x * (x + 3.0).clamp(0.0, 6.0) / 6.0
}

/// Derivative of Hardswish.
pub fn hardswish_derivative(x: f32) -> f32 {
    if x <= -3.0 {
        0.0
    } else if x >= 3.0 {
        1.0
    } else {
        (2.0 * x + 3.0) / 6.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_derivative(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn erf_known_values() {
        // erf(1) = 0.8427007929..., erf(2) = 0.9953222650...
        assert!((erf(1.0) - 0.842_700_8).abs() < 1e-5);
        assert!((erf(2.0) - 0.995_322_3).abs() < 1e-5);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for i in -40..=40 {
            let x = i as f32 * 0.1;
            assert!((erf(x) + erf(-x)).abs() < 1e-6);
            assert!(erf(x).abs() <= 1.0);
        }
    }

    #[test]
    fn gelu_limits() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(10.0) - 10.0).abs() < 1e-4); // identity for large x
        assert!(gelu(-10.0).abs() < 1e-4); // zero for very negative x
                                           // GELU(x) − GELU(−x) == x (since Φ(x)+Φ(−x)=1)
        for i in -20..=20 {
            let x = i as f32 * 0.2;
            assert!((gelu(x) - gelu(-x) - x).abs() < 1e-5);
        }
    }

    #[test]
    fn gelu_derivative_matches_numeric() {
        for i in -30..=30 {
            let x = i as f32 * 0.1;
            let analytic = gelu_derivative(x);
            let numeric = numerical_derivative(gelu, x);
            assert!(
                (analytic - numeric).abs() < 2e-3,
                "x={x}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn sigmoid_properties() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(30.0) > 0.999_999);
        assert!(sigmoid(-30.0) < 1e-6);
        // σ(x) + σ(−x) = 1
        for i in -20..=20 {
            let x = i as f32 * 0.3;
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn sigmoid_derivative_matches_numeric() {
        for i in -20..=20 {
            let x = i as f32 * 0.2;
            let d = (sigmoid_derivative(x) - numerical_derivative(sigmoid, x)).abs();
            assert!(d < 1e-3);
        }
    }

    #[test]
    fn hardswish_matches_reference_points() {
        assert_eq!(hardswish(-4.0), 0.0);
        assert_eq!(hardswish(4.0), 4.0);
        assert_eq!(hardswish(0.0), 0.0);
        assert!((hardswish(-1.5) - (-1.5 * 1.5 / 6.0)).abs() < 1e-6);
    }

    #[test]
    fn hardswish_derivative_matches_numeric() {
        for i in -25..=25 {
            let x = i as f32 * 0.25 + 0.01; // avoid the exact kinks
            let d = (hardswish_derivative(x) - numerical_derivative(hardswish, x)).abs();
            assert!(d < 1e-3, "x={x}");
        }
    }

    #[test]
    fn relu_basics() {
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(2.0), 2.0);
        assert_eq!(relu_derivative(-1.0), 0.0);
        assert_eq!(relu_derivative(1.0), 1.0);
    }
}
