//! The attention-based multi-head token classifier (paper Section IV-A).
//!
//! For each attention head `i`, the input tokens are split into per-head
//! subvectors and scored (Eqs. 3–5):
//!
//! ```text
//! E_local_i  = MLP(x_i)            ∈ R^{N×d/2}
//! E_global_i = Average(MLP(x_i))   ∈ R^{1×d/2}
//! s_i        = Softmax(MLP([E_local_i ; E_global_i × N])) ∈ R^{N×2}
//! ```
//!
//! A sigmoid attention branch weighs the heads per token (Eqs. 6–8):
//!
//! ```text
//! X̄ = Concat({mean_channel(x_i)})  ∈ R^{N×h}
//! A  = Sigmoid(MLP(X̄))             ∈ R^{N×h}
//! S̃  = Σᵢ sᵢ·aᵢ / Σᵢ aᵢ            ∈ R^{N×2}
//! ```
//!
//! Everything is built from linear layers so the FPGA GEMM engine executes
//! the classifier without new hardware (paper Section V).

use heatvit_nn::layers::{Activation, Linear};
use heatvit_nn::{Module, Param, Tape, Var};
use heatvit_tensor::Tensor;
use rand::Rng;

/// Per-head feature extractor + scorer widths, derived from the head width.
fn half(d: usize) -> usize {
    (d / 2).max(1)
}

/// The multi-head token classifier.
#[derive(Debug, Clone)]
pub struct MultiHeadTokenClassifier {
    /// Shared-architecture per-head feature MLPs (`d → d → d/2`).
    feature_fc1: Vec<Linear>,
    feature_fc2: Vec<Linear>,
    /// Per-head scorer MLPs (`d → d/2 → 2`).
    scorer_fc1: Vec<Linear>,
    scorer_fc2: Vec<Linear>,
    /// Attention branch (`h → 2h → h`).
    attn_fc1: Linear,
    attn_fc2: Linear,
    num_heads: usize,
    head_dim: usize,
    act: Activation,
}

/// Differentiable classifier outputs.
#[derive(Debug)]
pub struct ClassifierOutput {
    /// Combined token scores `S̃` `[N, 2]` (column 0 = keep probability).
    pub scores: Var,
    /// Per-head scores `sᵢ` `[N, 2]`.
    pub head_scores: Vec<Var>,
    /// Head-importance weights `A` `[N, h]`.
    pub head_weights: Var,
}

impl MultiHeadTokenClassifier {
    /// Creates a classifier for tokens of width `dim` split into
    /// `num_heads` heads, using `act` inside the MLPs (GELU in the paper;
    /// ReLU/Hardswish for the Fig. 12 ablation).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `num_heads`.
    pub fn new(dim: usize, num_heads: usize, act: Activation, rng: &mut impl Rng) -> Self {
        assert!(num_heads > 0, "at least one head required");
        assert_eq!(dim % num_heads, 0, "dim must divide evenly into heads");
        let d = dim / num_heads;
        let mut feature_fc1 = Vec::with_capacity(num_heads);
        let mut feature_fc2 = Vec::with_capacity(num_heads);
        let mut scorer_fc1 = Vec::with_capacity(num_heads);
        let mut scorer_fc2 = Vec::with_capacity(num_heads);
        for _ in 0..num_heads {
            feature_fc1.push(Linear::new(d, d, true, rng));
            feature_fc2.push(Linear::new(d, half(d), true, rng));
            scorer_fc1.push(Linear::new(2 * half(d), half(d), true, rng));
            scorer_fc2.push(Linear::new(half(d), 2, true, rng));
        }
        Self {
            feature_fc1,
            feature_fc2,
            scorer_fc1,
            scorer_fc2,
            attn_fc1: Linear::new(num_heads, 2 * num_heads, true, rng),
            attn_fc2: Linear::new(2 * num_heads, num_heads, true, rng),
            num_heads,
            head_dim: d,
            act,
        }
    }

    /// Number of heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head token width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The MLP activation in use.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Differentiable forward over patch tokens `x` `[N, h·d]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width or zero rows.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> ClassifierOutput {
        let n = tape.dims(x)[0];
        assert!(n > 0, "classifier needs at least one token");
        assert_eq!(
            tape.dims(x)[1],
            self.num_heads * self.head_dim,
            "classifier input width mismatch"
        );
        let mut head_scores = Vec::with_capacity(self.num_heads);
        let mut head_means = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let (lo, hi) = (h * self.head_dim, (h + 1) * self.head_dim);
            let xh = tape.slice_cols(x, lo, hi);
            // Eq. 3: local receptive field.
            let f = self.feature_fc1[h].forward(tape, xh);
            let f = self.act.forward(tape, f);
            let local = self.feature_fc2[h].forward(tape, f);
            let local = self.act.forward(tape, local);
            // Eq. 4: global receptive field (token-mean of the features).
            let global = tape.mean_cols_keep(local);
            let global = tape.repeat_rows(global, n);
            // Eq. 5: score from [local ; global].
            let e = tape.concat_cols(&[local, global]);
            let s = self.scorer_fc1[h].forward(tape, e);
            let s = self.act.forward(tape, s);
            let s = self.scorer_fc2[h].forward(tape, s);
            head_scores.push(tape.softmax_rows(s));
            // Eq. 6 ingredient: per-head channel mean.
            head_means.push(tape.mean_rows_keep(xh));
        }
        // Eqs. 6–7: head importance per token.
        let xbar = tape.concat_cols(&head_means);
        let a = self.attn_fc1.forward(tape, xbar);
        let a = self.act.forward(tape, a);
        let a = self.attn_fc2.forward(tape, a);
        let head_weights = tape.sigmoid(a);
        // Eq. 8: importance-weighted average of head scores.
        let mut numerator: Option<Var> = None;
        for (h, &s) in head_scores.iter().enumerate() {
            let ah = tape.slice_cols(head_weights, h, h + 1);
            let ah = tape.reshape(ah, &[n]);
            let weighted = tape.mul_col_broadcast(s, ah);
            numerator = Some(match numerator {
                Some(acc) => tape.add(acc, weighted),
                None => weighted,
            });
        }
        let weight_sum = tape.mean_rows_keep(head_weights);
        let weight_sum = tape.scale(weight_sum, self.num_heads as f32);
        let weight_sum = tape.reshape(weight_sum, &[n]);
        let scores = tape.div_col_broadcast(numerator.expect("at least one head"), weight_sum);
        ClassifierOutput {
            scores,
            head_scores,
            head_weights,
        }
    }

    /// Inference forward (no tape): returns `S̃` `[N, 2]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong width or zero rows.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let n = x.dim(0);
        assert!(n > 0, "classifier needs at least one token");
        assert_eq!(
            x.dim(1),
            self.num_heads * self.head_dim,
            "classifier input width mismatch"
        );
        let mut numerator = Tensor::zeros(&[n, 2]);
        let mut weight_sum = vec![0.0f32; n];
        // Head means for the attention branch.
        let mut xbar = Tensor::zeros(&[n, self.num_heads]);
        for h in 0..self.num_heads {
            let xh = x.slice_cols(h * self.head_dim, (h + 1) * self.head_dim);
            let means = xh.mean_rows();
            for r in 0..n {
                xbar.set(&[r, h], means.data()[r]);
            }
        }
        let a = self.attn_fc1.infer(&xbar);
        let a = self.act.infer(&a);
        let a = self.attn_fc2.infer(&a);
        let head_weights = a.map(heatvit_tensor::scalar::sigmoid);
        for h in 0..self.num_heads {
            let xh = x.slice_cols(h * self.head_dim, (h + 1) * self.head_dim);
            let f = self.act.infer(&self.feature_fc1[h].infer(&xh));
            let local = self.act.infer(&self.feature_fc2[h].infer(&f));
            let global = local.mean_cols();
            let mut e = Tensor::zeros(&[n, 2 * half(self.head_dim)]);
            for r in 0..n {
                let row = e.row_mut(r);
                row[..half(self.head_dim)].copy_from_slice(local.row(r));
                row[half(self.head_dim)..].copy_from_slice(global.data());
            }
            let s = self.act.infer(&self.scorer_fc1[h].infer(&e));
            let s = self.scorer_fc2[h].infer(&s).softmax_rows();
            for (r, ws) in weight_sum.iter_mut().enumerate() {
                let w = head_weights.at(&[r, h]);
                numerator.set(&[r, 0], numerator.at(&[r, 0]) + w * s.at(&[r, 0]));
                numerator.set(&[r, 1], numerator.at(&[r, 1]) + w * s.at(&[r, 1]));
                *ws += w;
            }
        }
        Tensor::from_fn(&[n, 2], |ix| {
            numerator.at(ix) / weight_sum[ix[0]].max(1e-12)
        })
    }

    /// Multiply–accumulate count for `n` tokens (selector overhead
    /// accounting; paper claims it is negligible vs. the backbone).
    pub fn macs(&self, n: usize) -> u64 {
        let per_head: u64 = [
            &self.feature_fc1[0],
            &self.feature_fc2[0],
            &self.scorer_fc1[0],
            &self.scorer_fc2[0],
        ]
        .iter()
        .map(|l| l.macs(n))
        .sum();
        per_head * self.num_heads as u64 + self.attn_fc1.macs(n) + self.attn_fc2.macs(n)
    }
}

impl Module for MultiHeadTokenClassifier {
    fn params(&self) -> Vec<&Param> {
        let mut v = Vec::new();
        for h in 0..self.num_heads {
            v.extend(self.feature_fc1[h].params());
            v.extend(self.feature_fc2[h].params());
            v.extend(self.scorer_fc1[h].params());
            v.extend(self.scorer_fc2[h].params());
        }
        v.extend(self.attn_fc1.params());
        v.extend(self.attn_fc2.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = Vec::new();
        let heads = self
            .feature_fc1
            .iter_mut()
            .zip(self.feature_fc2.iter_mut())
            .zip(self.scorer_fc1.iter_mut().zip(self.scorer_fc2.iter_mut()));
        for ((f1, f2), (s1, s2)) in heads {
            v.extend(f1.params_mut());
            v.extend(f2.params_mut());
            v.extend(s1.params_mut());
            v.extend(s2.params_mut());
        }
        v.extend(self.attn_fc1.params_mut());
        v.extend(self.attn_fc2.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn classifier() -> (MultiHeadTokenClassifier, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let c = MultiHeadTokenClassifier::new(24, 3, Activation::Gelu, &mut rng);
        (c, rng)
    }

    #[test]
    fn scores_are_row_distributions() {
        let (c, mut rng) = classifier();
        let x = Tensor::rand_normal(&[7, 24], 0.0, 1.0, &mut rng);
        let s = c.infer(&x);
        assert_eq!(s.dims(), &[7, 2]);
        for r in 0..7 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn forward_matches_infer() {
        let (c, mut rng) = classifier();
        let x = Tensor::rand_normal(&[5, 24], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let out = c.forward(&mut tape, xv);
        assert!(tape.value(out.scores).max_abs_diff(&c.infer(&x)) <= 1e-4);
        assert_eq!(out.head_scores.len(), 3);
        assert_eq!(tape.dims(out.head_weights), &[5, 3]);
    }

    #[test]
    fn head_weights_are_sigmoid_bounded() {
        let (c, mut rng) = classifier();
        let x = Tensor::rand_normal(&[4, 24], 0.0, 2.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x);
        let out = c.forward(&mut tape, xv);
        let w = tape.value(out.head_weights);
        assert!(w.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let (mut c, mut rng) = classifier();
        let x = Tensor::rand_normal(&[6, 24], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x);
        let out = c.forward(&mut tape, xv);
        let keep = tape.slice_cols(out.scores, 0, 1);
        let loss = tape.mean_all(keep);
        let grads = tape.backward(loss);
        tape.write_grads(&grads, c.params_mut());
        for p in c.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }

    #[test]
    fn macs_are_negligible_vs_backbone() {
        // Selector overhead on DeiT-S-like dims must stay below 2 % of one
        // encoder block (paper: "negligible computational overhead").
        let mut rng = StdRng::seed_from_u64(1);
        let c = MultiHeadTokenClassifier::new(384, 6, Activation::Gelu, &mut rng);
        let selector = c.macs(197);
        let block =
            heatvit_vit::flops::BlockComplexity::new(&heatvit_vit::ViTConfig::deit_small(), 197)
                .total();
        assert!(
            (selector as f64) < 0.05 * block as f64,
            "selector {selector} vs block {block}"
        );
    }

    #[test]
    fn different_tokens_get_different_scores() {
        let (c, mut rng) = classifier();
        let x = Tensor::rand_normal(&[10, 24], 0.0, 2.0, &mut rng);
        let s = c.infer(&x);
        let first = s.at(&[0, 0]);
        assert!(
            (0..10).any(|r| (s.at(&[r, 0]) - first).abs() > 1e-4),
            "classifier collapsed to a constant"
        );
    }
}
