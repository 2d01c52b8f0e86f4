//! The token packager (paper Section IV-B, Eq. 10).
//!
//! Non-informative tokens are not discarded: they are consolidated into a
//! single *package token* by keep-score-weighted averaging,
//!
//! ```text
//! P = Σₜ x̂ₜ · s̃ₜ[0]  /  Σₜ s̃ₜ[0]   ∈ R^{1×D}
//! ```
//!
//! so later blocks can still recover information from mistakenly pruned
//! tokens. The packaged token is concatenated with the informative ones to
//! keep every downstream GEMM dense (no sparse indexing on hardware).
//!
//! The inference arithmetic lives in `heatvit-vit`
//! ([`heatvit_vit::package_tokens_into`]), where every token policy of
//! either datapath calls it; this module adds the allocating form and the
//! differentiable training form.

use heatvit_nn::{Tape, Var};
use heatvit_tensor::Tensor;
use heatvit_vit::package_tokens_into;

/// Weighted-average package token from pruned rows (inference path): the
/// allocating form of [`package_tokens_into`], with every row of `pruned`
/// packaged.
///
/// `pruned` is `[T, D]`, `keep_scores` the corresponding `s̃ₜ[0]` values.
/// Returns `None` when `T == 0` (nothing was pruned, no token to append).
///
/// # Panics
///
/// Panics if `keep_scores.len() != pruned.dim(0)`.
pub fn package_tokens(pruned: &Tensor, keep_scores: &[f32]) -> Option<Tensor> {
    assert_eq!(
        pruned.dim(0),
        keep_scores.len(),
        "one keep score per pruned token required"
    );
    let rows: Vec<usize> = (0..pruned.dim(0)).collect();
    let mut token = Tensor::default();
    package_tokens_into(pruned, &rows, keep_scores, &mut token).then_some(token)
}

/// Differentiable package token (training path).
///
/// `tokens` is the full `[N, D]` token matrix on the tape; `pruned_indices`
/// selects the rows to consolidate and `keep_scores` is the `[N]` keep-score
/// column of the classifier output (gradients flow into both the token
/// embeddings and the scores). Returns `None` when nothing is pruned.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn package_tokens_tape(
    tape: &mut Tape,
    tokens: Var,
    keep_scores: Var,
    pruned_indices: &[usize],
) -> Option<Var> {
    if pruned_indices.is_empty() {
        return None;
    }
    let n = tape.dims(tokens)[0];
    for &i in pruned_indices {
        assert!(i < n, "pruned index {i} out of bounds");
    }
    let pruned = tape.gather_rows(tokens, pruned_indices);
    // Gather the matching scores by treating them as an [N, 1] matrix.
    let scores_mat = tape.reshape(keep_scores, &[n, 1]);
    let pruned_scores = tape.gather_rows(scores_mat, pruned_indices);
    let t = pruned_indices.len();
    let pruned_scores = tape.reshape(pruned_scores, &[t]);
    let weighted = tape.mul_col_broadcast(pruned, pruned_scores);
    // Column sums = T · column means.
    let summed = tape.mean_cols_keep(weighted);
    let summed = tape.scale(summed, t as f32);
    let score_sum = tape.sum_all(pruned_scores);
    // Guard against an all-zero score sum (matches the inference fallback).
    let score_sum = tape.add_scalar(score_sum, 1e-12);
    Some(tape.div_col_broadcast(summed, score_sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scores_give_plain_average() {
        let pruned = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let p = package_tokens(&pruned, &[0.5, 0.5]).unwrap();
        assert_eq!(p.dims(), &[1, 2]);
        assert_eq!(p.data(), &[2.0, 3.0]);
    }

    #[test]
    fn higher_scores_dominate_package() {
        let pruned = Tensor::from_vec(vec![0.0, 0.0, 10.0, 10.0], &[2, 2]);
        let p = package_tokens(&pruned, &[0.1, 0.9]).unwrap();
        assert!((p.data()[0] - 9.0).abs() < 1e-5);
    }

    #[test]
    fn empty_prune_set_yields_none() {
        let pruned = Tensor::zeros(&[0, 4]);
        assert!(package_tokens(&pruned, &[]).is_none());
    }

    #[test]
    fn zero_scores_fall_back_to_average() {
        let pruned = Tensor::from_vec(vec![2.0, 4.0], &[2, 1]);
        let p = package_tokens(&pruned, &[0.0, 0.0]).unwrap();
        assert!((p.data()[0] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn tape_path_matches_inference_path() {
        let tokens = Tensor::from_fn(&[5, 3], |ix| (ix[0] * 3 + ix[1]) as f32 * 0.3);
        let scores = Tensor::from_vec(vec![0.9, 0.2, 0.8, 0.1, 0.3], &[5]);
        let pruned_idx = [1usize, 3, 4];

        let mut tape = Tape::new();
        let tv = tape.constant(tokens.clone());
        let sv = tape.constant(scores.clone());
        let p = package_tokens_tape(&mut tape, tv, sv, &pruned_idx).unwrap();

        let pruned_rows = tokens.gather_rows(&pruned_idx);
        let pruned_scores: Vec<f32> = pruned_idx.iter().map(|&i| scores.data()[i]).collect();
        let expect = package_tokens(&pruned_rows, &pruned_scores).unwrap();
        assert!(tape.value(p).max_abs_diff(&expect) <= 1e-5);
    }

    #[test]
    fn gradients_flow_into_scores_and_tokens() {
        let tokens = Tensor::from_fn(&[4, 2], |ix| ix[0] as f32 + 1.0 + ix[1] as f32);
        let scores = Tensor::from_vec(vec![0.6, 0.4, 0.7, 0.2], &[4]);
        let mut tape = Tape::new();
        let tv = tape.leaf(tokens);
        let sv = tape.leaf(scores);
        let p = package_tokens_tape(&mut tape, tv, sv, &[0, 2]).unwrap();
        let loss = tape.sum_all(p);
        let grads = tape.backward(loss);
        assert!(grads.get(tv).unwrap().data().iter().any(|&g| g != 0.0));
        assert!(grads.get(sv).unwrap().data().iter().any(|&g| g != 0.0));
        // Kept rows get no token gradient through the packager.
        let gt = grads.get(tv).unwrap();
        assert_eq!(gt.row(1), &[0.0, 0.0]);
        assert_eq!(gt.row(3), &[0.0, 0.0]);
    }

    #[test]
    fn package_preserves_information_better_than_discard() {
        // The package token is a convex combination of the pruned tokens, so
        // it stays inside their value range — information is averaged, not
        // lost entirely.
        let pruned = Tensor::from_vec(vec![1.0, 5.0, 3.0], &[3, 1]);
        let p = package_tokens(&pruned, &[0.3, 0.3, 0.3]).unwrap();
        assert!(p.data()[0] >= 1.0 && p.data()[0] <= 5.0);
    }
}
