//! Seeded random tensor construction and weight initializers.
//!
//! All experiments in the reproduction are deterministic given a seed, so
//! every random constructor takes an explicit `&mut impl Rng` rather than
//! using a thread-local generator.

use crate::Tensor;
use rand::Rng;

impl Tensor {
    /// A tensor with elements drawn uniformly from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    // Public for the tests and doc examples of every crate, which draw images with it.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut impl Rng) -> Tensor {
        assert!(lo < hi, "uniform range must be non-empty");
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = rng.gen_range(lo..hi);
        }
        t
    }

    /// A tensor with elements drawn from `N(mean, std²)` via Box–Muller.
    ///
    /// # Panics
    ///
    /// Panics if `std < 0`.
    pub fn rand_normal(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        assert!(std >= 0.0, "standard deviation must be non-negative");
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = mean + std * sample_standard_normal(rng);
        }
        t
    }

    /// A tensor from the truncated normal `N(mean, std²)` clipped to
    /// `mean ± 2·std` by rejection sampling — the initializer used for ViT
    /// token/position embeddings (as in the DeiT reference code).
    ///
    /// # Panics
    ///
    /// Panics if `std < 0`.
    pub fn rand_trunc_normal(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
        assert!(std >= 0.0, "standard deviation must be non-negative");
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = loop {
                let z = sample_standard_normal(rng);
                if z.abs() <= 2.0 {
                    break mean + std * z;
                }
            };
        }
        t
    }

    /// Xavier/Glorot-uniform initialization for a `[fan_in, fan_out]` weight.
    pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
        let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
        Tensor::rand_uniform(&[fan_in, fan_out], -bound, bound, rng)
    }
}

/// One sample from the standard normal distribution (Box–Muller transform).
pub fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_normal(&[20_000], 1.0, 2.0, &mut rng);
        let mean = t.mean_all();
        let var = t.map(|v| (v - mean) * (v - mean)).mean_all();
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn trunc_normal_clips_at_two_sigma() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::rand_trunc_normal(&[5000], 0.0, 0.02, &mut rng);
        assert!(t.data().iter().all(|&v| v.abs() <= 0.04 + 1e-7));
    }

    #[test]
    fn seeded_construction_is_deterministic() {
        let a = Tensor::rand_normal(&[64], 0.0, 1.0, &mut StdRng::seed_from_u64(7));
        let b = Tensor::rand_normal(&[64], 0.0, 1.0, &mut StdRng::seed_from_u64(7));
        assert!(a.max_abs_diff(&b) <= 0.0);
    }

    #[test]
    fn xavier_bound_shrinks_with_width() {
        let mut rng = StdRng::seed_from_u64(3);
        let wide = Tensor::xavier_uniform(1024, 1024, &mut rng);
        let bound = (6.0f32 / 2048.0).sqrt();
        assert!(wide.data().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn standard_normal_is_finite() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            assert!(sample_standard_normal(&mut rng).is_finite());
        }
    }
}
