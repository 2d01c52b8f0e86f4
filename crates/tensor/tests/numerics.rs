//! The numerics contract of the f32 datapath, from outside the crate.
//!
//! * GEMM: every entry point computes each output element as the fused
//!   ascending-`k` chain `acc = fma(a, b, acc)` from `0.0`, bias added
//!   afterwards. The AVX-512 tile, the portable `mul_add` loop and the naive
//!   triple loop [`gemm`] agree **bit for bit** on every shape, on or off the
//!   tile grid; against an *unfused* `acc += a * b` loop (what this crate
//!   computed before the fused definition) the distance per element is at
//!   most `k·ε·Σ|aᵢbᵢ|`.
//! * `exp_nonpos`: relative error ≤ 4·10⁻⁷ on `[−87, 0]`, exactly `1` at `0`,
//!   exactly `0` below the flush point, NaN in → NaN out.
//! * `gelu`: no further from an `f64` erf-GELU than the libm-`exp`, branchy
//!   version it replaced, plus 1·10⁻⁷.
//! * softmax: masked entries exactly `0`, rows sum to `1 ± 10⁻⁶`.

use heatvit_tensor::scalar::{exp_nonpos, gelu, EXP_FLUSH};
use heatvit_tensor::{
    gemm, gemm_packed, gemm_packed_portable, pack_b, softmax_inplace, Tensor, MR, NR,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `a · b` by the definition: the naive fused triple loop.
fn by_definition(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = (a.dim(0), a.dim(1), b.dim(1));
    let mut c = Tensor::zeros(&[m, n]);
    gemm(a.data(), b.data(), c.data_mut(), m, k, n);
    c
}

fn add_bias(c: &Tensor, bias: &Tensor) -> Tensor {
    Tensor::from_fn(c.dims(), |ix| c.at(ix) + bias.at(&[ix[1]]))
}

/// Bit patterns, so that `-0.0 != 0.0` and a NaN would equal itself.
fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn both_kernels_equal_the_definition_bitwise_off_the_tile_grid() {
    let mut rng = StdRng::seed_from_u64(0xF3A);
    for k in [0, 1, 64, 197, 768] {
        for n in [1, NR / 2, NR - 1, NR, NR + 1, 2 * NR, 2 * NR + 5] {
            let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
            let bias = Tensor::rand_normal(&[n], 0.0, 1.0, &mut rng);
            let pack = pack_b(b.as_mat());
            for m in 1..=2 * MR + 3 {
                let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
                let plain = by_definition(&a, &b);
                let biased = add_bias(&plain, &bias);
                for (bias, want) in [(None, &plain), (Some(bias.data()), &biased)] {
                    let mut tile = Tensor::full(&[m, n], f32::NAN);
                    gemm_packed(a.as_mat(), &pack, bias, tile.as_mat_mut());
                    let mut portable = Tensor::full(&[m, n], f32::NAN);
                    gemm_packed_portable(a.as_mat(), &pack, bias, portable.as_mat_mut());
                    let what = format!("{m}x{k}x{n}, bias {}", bias.is_some());
                    assert_eq!(bits(&tile), bits(want), "dispatched kernel, {what}");
                    assert_eq!(bits(&portable), bits(want), "portable kernel, {what}");
                }
            }
        }
    }
}

#[test]
fn every_entry_point_equals_the_definition_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xF3B);
    for (m, k, n) in [
        (1, 1, 1),
        (MR + 1, 197, NR + 3),
        (19, 64, 2 * NR - 1),
        (5, 0, 7),
    ] {
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let bias = Tensor::rand_normal(&[n], 0.0, 1.0, &mut rng);
        let want = by_definition(&a, &b);
        let what = format!("{m}x{k}x{n}");
        assert_eq!(bits(&a.matmul(&b)), bits(&want), "matmul {what}");
        assert_eq!(
            bits(&a.matmul_transb(&b.transpose2())),
            bits(&want),
            "matmul_transb {what}"
        );
        assert_eq!(
            bits(&a.transpose2().matmul_transa(&b)),
            bits(&want),
            "matmul_transa {what}"
        );
        assert_eq!(
            bits(&a.matmul_bias(&b, &bias)),
            bits(&add_bias(&want, &bias)),
            "matmul_bias {what}"
        );
        let batched = Tensor::stack(&[&a, &a]).bmm(&Tensor::stack(&[&b, &b]));
        assert_eq!(bits(&batched.index_axis0(1)), bits(&want), "bmm {what}");
    }
    // Empty operands on either side.
    assert_eq!(
        Tensor::zeros(&[0, 3])
            .matmul(&Tensor::zeros(&[3, 4]))
            .dims(),
        &[0, 4]
    );
    assert_eq!(
        Tensor::zeros(&[2, 3])
            .matmul(&Tensor::zeros(&[3, 0]))
            .dims(),
        &[2, 0]
    );
}

#[test]
fn fused_is_within_the_rounding_bound_of_the_unfused_loop_at_deit_tiny_shapes() {
    // patch embedding, proj, fc1, fc2, scores, A·V.
    let shapes = [
        (196, 768, 192),
        (197, 192, 192),
        (197, 192, 768),
        (197, 768, 192),
        (197, 64, 197),
        (197, 197, 64),
    ];
    let mut rng = StdRng::seed_from_u64(0xF3C);
    for (m, k, n) in shapes {
        let a = Tensor::rand_normal(&[m, k], 0.0, 1.0, &mut rng);
        let b = Tensor::rand_normal(&[k, n], 0.0, 1.0, &mut rng);
        let fused = a.matmul(&b);
        let mut differing = 0usize;
        for i in 0..m {
            for j in 0..n {
                // The unfused reference: multiply, round, add, round.
                let (mut unfused, mut magnitude) = (0.0f32, 0.0f64);
                for p in 0..k {
                    let (av, bv) = (a.data()[i * k + p], b.data()[p * n + j]);
                    unfused += av * bv;
                    magnitude += (av as f64 * bv as f64).abs();
                }
                let got = fused.data()[i * n + j];
                let bound = k as f64 * f32::EPSILON as f64 * magnitude;
                assert!(
                    (got as f64 - unfused as f64).abs() <= bound,
                    "{m}x{k}x{n} [{i},{j}]: fused {got} vs unfused {unfused}, bound {bound:e}"
                );
                differing += usize::from(got != unfused);
            }
        }
        // The two definitions really are different numbers.
        assert!(
            differing > 0,
            "{m}x{k}x{n}: fused never differed from unfused"
        );
    }
}

#[test]
fn exp_nonpos_meets_its_error_bound_and_its_exact_points() {
    assert_eq!(exp_nonpos(0.0), 1.0);
    assert_eq!(exp_nonpos(-0.0), 1.0);
    let mut worst = 0.0f64;
    let steps = 400_000;
    for i in 0..=steps {
        let x = -87.0 * i as f32 / steps as f32;
        let (got, want) = (exp_nonpos(x) as f64, (x as f64).exp());
        worst = worst.max(((got - want) / want).abs());
    }
    assert!(worst <= 4e-7, "relative error {worst:e} on [-87, 0]");

    // At the flush point the value is still there (2⁻¹²⁶, the smallest
    // normal); one step below and everywhere further down it is exactly 0.
    assert!(exp_nonpos(EXP_FLUSH) > 0.0);
    for x in [
        EXP_FLUSH.next_down(),
        -88.0,
        -100.0,
        -1e4,
        -1e30,
        f32::NEG_INFINITY,
    ] {
        assert_eq!(exp_nonpos(x).to_bits(), 0.0f32.to_bits(), "exp({x})");
    }
    assert!(exp_nonpos(f32::NAN).is_nan());
    // Monotone across the reduction's interval boundaries.
    let mut previous = 0.0;
    for i in (0..=87_000).rev() {
        let value = exp_nonpos(-(i as f32) / 1000.0);
        assert!(
            value >= previous,
            "not monotone at {}",
            -(i as f32) / 1000.0
        );
        previous = value;
    }
}

/// `erf` in `f64`: composite Simpson on `2/√π · ∫₀ˣ e^{−t²} dt` (error far
/// below `f32` resolution at 2000 intervals on `|x| ≤ 7.1`).
fn erf64(x: f64) -> f64 {
    let intervals = 2000;
    let h = x / intervals as f64;
    let f = |t: f64| (-t * t).exp();
    let mut sum = f(0.0) + f(x);
    for i in 1..intervals {
        sum += f(i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 };
    }
    sum * h / 3.0 * 2.0 / std::f64::consts::PI.sqrt()
}

/// The GELU this crate shipped before `exp_nonpos`: the same rational `erf`
/// over libm's `exp`, with a sign branch. Kept here as the reference the new
/// one is measured against.
fn old_gelu(x: f32) -> f32 {
    const A: [f32; 5] = [
        0.254_829_6,
        -0.284_496_72,
        1.421_413_8,
        -1.453_152_1,
        1.061_405_4,
    ];
    let z = x / std::f32::consts::SQRT_2;
    let sign = if z < 0.0 { -1.0 } else { 1.0 };
    let z = z.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * z);
    let poly = ((((A[4] * t + A[3]) * t) + A[2]) * t + A[1]) * t + A[0];
    let erf = sign * (1.0 - poly * t * (-z * z).exp());
    0.5 * x * (1.0 + erf)
}

#[test]
fn gelu_is_as_close_to_an_f64_erf_gelu_as_the_one_it_replaced() {
    let (mut worst_new, mut worst_old) = (0.0f64, 0.0f64);
    for i in -1280..=1280 {
        let x = i as f32 / 128.0;
        let exact = 0.5 * x as f64 * (1.0 + erf64(x as f64 / std::f64::consts::SQRT_2));
        worst_new = worst_new.max((gelu(x) as f64 - exact).abs());
        worst_old = worst_old.max((old_gelu(x) as f64 - exact).abs());
        // And pointwise the two stay within the same margin of each other.
        assert!(
            (gelu(x) - old_gelu(x)).abs() <= 3e-7 * x.abs().max(1.0),
            "gelu({x}) = {} vs old {}",
            gelu(x),
            old_gelu(x)
        );
    }
    assert!(
        worst_new <= worst_old + 1e-7,
        "new GELU off by {worst_new:e}, old by {worst_old:e}"
    );
}

#[test]
fn softmax_zeroes_masked_entries_and_rows_sum_to_one() {
    // `heatvit_vit::MASK_PENALTY`, the additive score of a pruned key.
    const MASK_PENALTY: f32 = -1e4;
    let mut rng = StdRng::seed_from_u64(0xF3D);
    for cols in [1, 2, 15, 16, 17, 197] {
        let mut scores = Tensor::rand_normal(&[9, cols], 0.0, 3.0, &mut rng);
        for (r, row) in scores.data_mut().chunks_exact_mut(cols).enumerate() {
            // Mask every third column but keep column `r % cols` live.
            for (j, v) in row.iter_mut().enumerate() {
                if j % 3 == 0 && j != r % cols {
                    *v += MASK_PENALTY;
                }
            }
        }
        let soft = scores.softmax_rows();
        for (r, (row, raw)) in soft
            .data()
            .chunks_exact(cols)
            .zip(scores.data().chunks_exact(cols))
            .enumerate()
        {
            let sum: f64 = row.iter().map(|&v| v as f64).sum();
            assert!((sum - 1.0).abs() <= 1e-6, "{cols} cols, row {r}: sum {sum}");
            for (j, (&p, &s)) in row.iter().zip(raw).enumerate() {
                if s < MASK_PENALTY / 2.0 && row.len() > 1 {
                    assert_eq!(p.to_bits(), 0.0f32.to_bits(), "{cols} cols, [{r},{j}]");
                } else {
                    assert!(p > 0.0, "{cols} cols, [{r},{j}] = {p}");
                }
            }
            // The row function and the tensor method are the same numbers.
            let mut alone = raw.to_vec();
            softmax_inplace(&mut alone);
            assert_eq!(alone, row);
        }
    }
}
