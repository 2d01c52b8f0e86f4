//! The complete token selector: classifier + Gumbel decision.

use crate::classifier::MultiHeadTokenClassifier;
use crate::gumbel::{gumbel_softmax_st, threshold_decision, GumbelConfig, GumbelDecision};
use heatvit_nn::layers::Activation;
use heatvit_nn::{Module, Param, Tape, Var};
use heatvit_tensor::Tensor;
use rand::Rng;

/// Differentiable selector decision for one image.
#[derive(Debug)]
pub struct TrainDecision {
    /// Exact keep-probability column of `S̃` `[N]` (packager weights).
    pub keep_scores: Var,
    /// Gumbel-relaxed keep probabilities `[N]`.
    pub keep_soft: Var,
    /// Straight-through 0/1 mask `[N]`.
    pub mask_st: Var,
    /// Hard keep decisions.
    pub keep_hard: Vec<bool>,
}

/// Deterministic selector decision (inference).
#[derive(Debug, Clone)]
pub struct InferDecision {
    /// Hard keep decisions per token.
    pub keep: Vec<bool>,
    /// Exact keep probabilities `S̃[:, 0]`.
    pub keep_scores: Vec<f32>,
}

impl InferDecision {
    /// Indices of kept tokens.
    pub fn kept_indices(&self) -> Vec<usize> {
        self.keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| k.then_some(i))
            .collect()
    }

    /// Indices of pruned tokens.
    pub fn pruned_indices(&self) -> Vec<usize> {
        self.keep
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| (!k).then_some(i))
            .collect()
    }

    /// Fraction of tokens kept.
    pub fn keep_fraction(&self) -> f32 {
        if self.keep.is_empty() {
            return 1.0;
        }
        self.keep.iter().filter(|&&k| k).count() as f32 / self.keep.len() as f32
    }
}

/// An adaptive token selector (one classifier plus its decision rule).
///
/// # Examples
///
/// ```
/// use heatvit_selector::TokenSelector;
/// use heatvit_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let selector = TokenSelector::new(24, 3, &mut rng);
/// let tokens = Tensor::rand_normal(&[8, 24], 0.0, 1.0, &mut rng);
/// let decision = selector.infer(&tokens);
/// assert_eq!(decision.keep.len(), 8);
/// assert!(decision.keep.iter().any(|&k| k)); // never prunes everything
/// ```
#[derive(Debug, Clone)]
pub struct TokenSelector {
    classifier: MultiHeadTokenClassifier,
    gumbel: GumbelConfig,
}

impl TokenSelector {
    /// Creates a selector with GELU MLPs (the paper's configuration).
    pub fn new(dim: usize, num_heads: usize, rng: &mut impl Rng) -> Self {
        Self::with_activation(dim, num_heads, Activation::Gelu, rng)
    }

    /// Creates a selector with a custom classifier activation
    /// (ReLU / Hardswish for the Fig. 12 ablation).
    fn with_activation(dim: usize, num_heads: usize, act: Activation, rng: &mut impl Rng) -> Self {
        Self {
            classifier: MultiHeadTokenClassifier::new(dim, num_heads, act, rng),
            gumbel: GumbelConfig::default(),
        }
    }

    /// Overrides the Gumbel temperature/threshold.
    pub fn set_gumbel(&mut self, config: GumbelConfig) {
        self.gumbel = config;
    }

    /// The decision configuration.
    pub fn gumbel(&self) -> GumbelConfig {
        self.gumbel
    }

    /// The underlying classifier.
    pub fn classifier(&self) -> &MultiHeadTokenClassifier {
        &self.classifier
    }

    /// Differentiable decision over patch tokens `[N, D]` (class token
    /// excluded by the caller).
    pub fn forward_train(
        &self,
        tape: &mut Tape,
        patch_tokens: Var,
        rng: &mut impl Rng,
    ) -> TrainDecision {
        let n = tape.dims(patch_tokens)[0];
        let out = self.classifier.forward(tape, patch_tokens);
        let keep_col = tape.slice_cols(out.scores, 0, 1);
        let keep_scores = tape.reshape(keep_col, &[n]);
        let GumbelDecision {
            keep_soft,
            mask_st,
            keep_hard,
        } = gumbel_softmax_st(tape, out.scores, self.gumbel, rng);
        TrainDecision {
            keep_scores,
            keep_soft,
            mask_st,
            keep_hard,
        }
    }

    /// Deterministic decision over patch tokens `[N, D]`.
    pub fn infer(&self, patch_tokens: &Tensor) -> InferDecision {
        let scores = self.classifier.infer(patch_tokens);
        let keep = threshold_decision(&scores, self.gumbel.threshold);
        let keep_scores = (0..scores.dim(0)).map(|r| scores.at(&[r, 0])).collect();
        InferDecision { keep, keep_scores }
    }

    /// Classifier multiply–accumulate count for `n` tokens.
    pub fn macs(&self, n: usize) -> u64 {
        self.classifier.macs(n)
    }
}

impl Module for TokenSelector {
    fn params(&self) -> Vec<&Param> {
        self.classifier.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.classifier.params_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn train_and_infer_decisions_are_consistent_in_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let sel = TokenSelector::new(16, 2, &mut rng);
        let x = Tensor::rand_normal(&[6, 16], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let d = sel.forward_train(&mut tape, xv, &mut rng);
        assert_eq!(d.keep_hard.len(), 6);
        assert_eq!(tape.dims(d.keep_soft), &[6]);
        assert_eq!(tape.dims(d.mask_st), &[6]);
        let inf = sel.infer(&x);
        assert_eq!(inf.keep.len(), 6);
    }

    #[test]
    fn infer_keep_scores_match_classifier() {
        let mut rng = StdRng::seed_from_u64(1);
        let sel = TokenSelector::new(16, 2, &mut rng);
        let x = Tensor::rand_normal(&[5, 16], 0.0, 1.0, &mut rng);
        let inf = sel.infer(&x);
        let scores = sel.classifier().infer(&x);
        for (r, &s) in inf.keep_scores.iter().enumerate() {
            assert!((s - scores.at(&[r, 0])).abs() < 1e-6);
        }
    }

    #[test]
    fn kept_and_pruned_indices_partition() {
        let mut rng = StdRng::seed_from_u64(2);
        let sel = TokenSelector::new(16, 2, &mut rng);
        let x = Tensor::rand_normal(&[9, 16], 0.0, 1.0, &mut rng);
        let inf = sel.infer(&x);
        let mut all = inf.kept_indices();
        all.extend(inf.pruned_indices());
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        let frac = inf.keep_fraction();
        assert!((0.0..=1.0).contains(&frac));
    }
}
