//! Alternative token-selector structures for the Fig. 12 ablation.
//!
//! The paper compares the MLP-based multi-head selector against
//! convolution-based selectors at matched compute and finds the MLP design
//! both more accurate and cheaper on hardware (it reuses the GEMM engine).
//! The CONV variant here is a faithful strawman: a 3×3 convolution over the
//! patch-token grid, realized as nine shift matrices feeding a linear layer
//! so it runs on the same tensor substrate.

use crate::gumbel::{threshold_decision, GumbelConfig};
use heatvit_nn::layers::{Activation, Linear};
use heatvit_nn::{Module, Param, Tape, Var};
use heatvit_tensor::Tensor;
use rand::Rng;

/// Builds the `[N, N]` shift matrix that moves each grid token to its
/// neighbor at offset `(dy, dx)` (zero rows at the border).
///
/// `side` is the patch-grid side length (`N = side²`).
fn shift_matrix(side: usize, dy: i32, dx: i32) -> Tensor {
    let n = side * side;
    Tensor::from_fn(&[n, n], |ix| {
        let (dst, src) = (ix[0], ix[1]);
        let dr = (dst / side) as i32 + dy;
        let dc = (dst % side) as i32 + dx;
        if dr >= 0 && dr < side as i32 && dc >= 0 && dc < side as i32 {
            let neighbor = dr as usize * side + dc as usize;
            if neighbor == src {
                return 1.0;
            }
        }
        0.0
    })
}

/// A convolution-based token classifier (Fig. 12 "CONV" ablation).
///
/// Features for each token are the 3×3 neighborhood of per-token embeddings
/// (gathered by constant shift matrices), projected by a linear layer, then
/// scored keep/prune — single-head, no attention branch, mirroring the
/// CNN-style selectors the paper argues against.
#[derive(Debug, Clone)]
pub struct ConvTokenClassifier {
    feature: Linear,
    scorer: Linear,
    side: usize,
    dim: usize,
    act: Activation,
    shifts: Vec<Tensor>,
}

impl ConvTokenClassifier {
    /// Creates a classifier for a `side × side` patch grid of `dim`-wide
    /// tokens.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0` or `dim == 0`.
    pub fn new(side: usize, dim: usize, act: Activation, rng: &mut impl Rng) -> Self {
        assert!(side > 0 && dim > 0, "grid and width must be non-zero");
        let hidden = (dim / 2).max(2);
        let mut shifts = Vec::with_capacity(9);
        for dy in -1..=1 {
            for dx in -1..=1 {
                shifts.push(shift_matrix(side, dy, dx));
            }
        }
        Self {
            feature: Linear::new(9 * dim, hidden, true, rng),
            scorer: Linear::new(hidden, 2, true, rng),
            side,
            dim,
            act,
            shifts,
        }
    }

    /// The patch-grid side length.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Differentiable forward over patch tokens `[N, D]` (`N = side²`).
    ///
    /// # Panics
    ///
    /// Panics if the token count or width mismatch the configuration.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        assert_eq!(tape.dims(x)[0], self.side * self.side, "token count");
        assert_eq!(tape.dims(x)[1], self.dim, "token width");
        let mut neighborhood = Vec::with_capacity(9);
        for shift in &self.shifts {
            let s = tape.constant(shift.clone());
            neighborhood.push(tape.matmul(s, x));
        }
        let stacked = tape.concat_cols(&neighborhood);
        let f = self.feature.forward(tape, stacked);
        let f = self.act.forward(tape, f);
        let s = self.scorer.forward(tape, f);
        tape.softmax_rows(s)
    }

    /// Inference forward (no tape): `[N, 2]` keep/prune scores.
    ///
    /// # Panics
    ///
    /// Panics if the token count or width mismatch the configuration.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.dim(0), self.side * self.side, "token count");
        assert_eq!(x.dim(1), self.dim, "token width");
        let shifted: Vec<Tensor> = self.shifts.iter().map(|s| s.matmul(x)).collect();
        let refs: Vec<&Tensor> = shifted.iter().collect();
        let stacked = Tensor::concat_cols(&refs);
        let f = self.act.infer(&self.feature.infer(&stacked));
        self.scorer.infer(&f).softmax_rows()
    }

    /// Hard keep decision at the default 0.5 threshold.
    // Kept for ROADMAP item 5: the Fig. 12 CONV-selector ablation.
    pub fn decide(&self, x: &Tensor) -> Vec<bool> {
        threshold_decision(&self.infer(x), GumbelConfig::default().threshold)
    }

    /// Multiply–accumulate count for one grid of tokens, including the
    /// shift gathers charged as data movement (zero MACs) — matching how
    /// the FPGA would implement them.
    pub fn macs(&self) -> u64 {
        let n = self.side * self.side;
        self.feature.macs(n) + self.scorer.macs(n)
    }
}

impl Module for ConvTokenClassifier {
    fn params(&self) -> Vec<&Param> {
        let mut v = self.feature.params();
        v.extend(self.scorer.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.feature.params_mut();
        v.extend(self.scorer.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shift_matrix_moves_identity_grid() {
        // 2x2 grid: token layout [0 1; 2 3]. Shift (0, 1) pulls the right
        // neighbor: dst (0,0) <- src (0,1) = token 1.
        let s = shift_matrix(2, 0, 1);
        let x = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[4, 1]);
        let y = s.matmul(&x);
        assert_eq!(y.data(), &[20.0, 0.0, 40.0, 0.0]);
    }

    #[test]
    fn center_shift_is_identity() {
        let s = shift_matrix(3, 0, 0);
        let eye = Tensor::from_fn(&[9, 9], |ix| f32::from(u8::from(ix[0] == ix[1])));
        assert!(s.max_abs_diff(&eye) <= 0.0);
    }

    #[test]
    fn scores_are_distributions() {
        let mut rng = StdRng::seed_from_u64(0);
        let c = ConvTokenClassifier::new(4, 12, Activation::Gelu, &mut rng);
        let x = Tensor::rand_normal(&[16, 12], 0.0, 1.0, &mut rng);
        let s = c.infer(&x);
        assert_eq!(s.dims(), &[16, 2]);
        for r in 0..16 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = ConvTokenClassifier::new(3, 8, Activation::Relu, &mut rng);
        let x = Tensor::rand_normal(&[9, 8], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let out = c.forward(&mut tape, xv);
        assert!(tape.value(out).max_abs_diff(&c.infer(&x)) <= 1e-5);
    }

    #[test]
    fn conv_uses_neighborhood_context() {
        // Changing a neighbor token must be able to change a token's score;
        // for the MLP classifier it cannot (per-token scoring).
        let mut rng = StdRng::seed_from_u64(2);
        let c = ConvTokenClassifier::new(3, 8, Activation::Gelu, &mut rng);
        let x = Tensor::rand_normal(&[9, 8], 0.0, 1.0, &mut rng);
        let base = c.infer(&x);
        let mut x2 = x.clone();
        for v in x2.row_mut(1) {
            *v += 3.0; // perturb token 1 (a neighbor of token 0)
        }
        let bumped = c.infer(&x2);
        assert!(
            (base.at(&[0, 0]) - bumped.at(&[0, 0])).abs() > 1e-6,
            "neighbor perturbation must reach token 0"
        );
    }

    #[test]
    fn decide_keeps_at_least_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = ConvTokenClassifier::new(2, 4, Activation::Gelu, &mut rng);
        let x = Tensor::rand_normal(&[4, 4], 0.0, 1.0, &mut rng);
        assert!(c.decide(&x).iter().any(|&k| k));
    }
}
