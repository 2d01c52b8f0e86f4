//! The shared CLS-attention scorer and the repacking primitives.
//!
//! The scorer runs *in front of* a block: it evaluates only the block's
//! `ln1 → W_q` row for the class token and `ln1 → W_k` for every token,
//! then averages `softmax(q_cls · Kᵀ / √d)` over heads — the first row of
//! the attention matrix the block is about to compute, at `≈ N·D²` MACs
//! instead of the block's full `4N·D² + 2N²·D`. The block then runs on the
//! repacked survivors, so the expensive quadratic work is only ever done on
//! kept tokens.

use crate::scratch::TfScratch;
use heatvit_tensor::Tensor;
use heatvit_vit::EncoderBlock;

/// Fills `scratch.scores` with the mean-over-heads CLS-attention
/// probability of every current token (index 0 is the class token's
/// self-attention mass; indices `1..N` are the patch tokens). Also leaves
/// the layer-normed tokens in `scratch.normed` for follow-up projections.
pub(crate) fn cls_attention_scores(block: &EncoderBlock, tokens: &Tensor, s: &mut TfScratch) {
    let attn = block.attention();
    let n = tokens.dim(0);
    let heads = attn.num_heads();
    let hd = attn.head_dim();
    let scale = 1.0 / (hd as f32).sqrt();
    block.ln1().infer_into(tokens, &mut s.normed);
    s.normed.slice_rows_into(0, 1, &mut s.cls_normed);
    attn.wq().infer_into(&s.cls_normed, &mut s.q_cls);
    attn.wk().infer_into(&s.normed, &mut s.k_proj);
    s.scores.clear();
    s.scores.resize(n, 0.0);
    for h in 0..heads {
        let base = h * hd;
        let q = &s.q_cls.row(0)[base..base + hd];
        s.head_row.clear();
        for j in 0..n {
            let k = &s.k_proj.row(j)[base..base + hd];
            s.head_row.push(dot(q, k) * scale);
        }
        softmax_in_place(&mut s.head_row);
        for (acc, &p) in s.scores.iter_mut().zip(&s.head_row) {
            *acc += p;
        }
    }
    for v in &mut s.scores {
        *v /= heads as f32;
    }
}

/// Adds each token's value-norm share to `scratch.scores` (the top-k
/// criterion: CLS attention says where the class token looks, the value
/// norm says how much a token injects when looked at). Norm shares are
/// normalized to sum 1 across tokens so both summands live on the same
/// scale. Requires [`cls_attention_scores`] to have run (reads
/// `scratch.normed`).
pub(crate) fn add_value_norm_scores(block: &EncoderBlock, s: &mut TfScratch) {
    let attn = block.attention();
    attn.wv().infer_into(&s.normed, &mut s.v_proj);
    let n = s.v_proj.dim(0);
    s.head_row.clear();
    for j in 0..n {
        s.head_row.push(norm(s.v_proj.row(j)));
    }
    let total: f32 = s.head_row.iter().sum();
    if total > 0.0 {
        for (acc, &v) in s.scores.iter_mut().zip(&s.head_row) {
            *acc += v / total;
        }
    }
}

/// Ranks the patch entries of `scratch.scores` (descending into
/// `scratch.order`) and selects the top `k` into `scratch.kept`, restored
/// to block order. Ties break toward the earlier patch, so selection is
/// deterministic.
pub(crate) fn select_top_patches(k: usize, s: &mut TfScratch) {
    let n_patches = s.scores.len() - 1;
    s.order.clear();
    s.order.extend(0..n_patches);
    let scores = &s.scores;
    s.order
        .sort_by(|&a, &b| scores[b + 1].total_cmp(&scores[a + 1]).then(a.cmp(&b)));
    s.kept.clear();
    s.kept.extend_from_slice(&s.order[..k]);
    s.kept.sort_unstable();
}

/// Repacks `tokens` to `[1 + kept, D]`: the class token followed by the
/// kept patch rows (block order), dropping the rest.
pub(crate) fn repack_hard(tokens: &mut Tensor, s: &mut TfScratch) {
    let n = tokens.dim(0);
    tokens.slice_rows_into(1, n, &mut s.patches);
    tokens.slice_rows_into(0, 1, &mut s.cls);
    s.patches.gather_rows_into(&s.kept, &mut s.kept_rows);
    Tensor::concat_rows_into(&[&s.cls, &s.kept_rows], &mut s.repacked);
    std::mem::swap(tokens, &mut s.repacked);
}

/// Repacks `tokens` like [`repack_hard`] but folds every pruned patch into
/// its most cosine-similar kept patch first: each kept row becomes the
/// score-weighted average of itself and the pruned rows assigned to it
/// (weights are the CLS-attention probabilities, so a near-discarded token
/// nudges its host only slightly). The class token passes through
/// untouched, and token counts match the hard drop exactly.
pub(crate) fn repack_merge(tokens: &mut Tensor, s: &mut TfScratch) {
    let n = tokens.dim(0);
    tokens.slice_rows_into(1, n, &mut s.patches);
    tokens.slice_rows_into(0, 1, &mut s.cls);
    s.patches.gather_rows_into(&s.kept, &mut s.kept_rows);
    let k = s.kept.len();

    // Seed each kept row's score weight; the row itself is premultiplied
    // *lazily* on first fold, so a kept token that absorbs nothing passes
    // through bit-identical to the hard drop.
    s.merge_weight.clear();
    s.merged.clear();
    for &i in &s.kept {
        s.merge_weight.push(weight(s.scores[i + 1]));
        s.merged.push(false);
    }
    // Fold every pruned patch into its nearest kept patch.
    for &p in &s.order[k..] {
        let pruned = s.patches.row(p);
        let pruned_norm = norm(pruned).max(1e-12);
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        for (j, &i) in s.kept.iter().enumerate() {
            let kept = s.patches.row(i);
            let sim = dot(pruned, kept) / (pruned_norm * norm(kept).max(1e-12));
            if sim > best_sim {
                best_sim = sim;
                best = j;
            }
        }
        if !s.merged[best] {
            s.merged[best] = true;
            let w = s.merge_weight[best];
            for v in s.kept_rows.row_mut(best) {
                *v *= w;
            }
        }
        let w = weight(s.scores[p + 1]);
        for (acc, &v) in s.kept_rows.row_mut(best).iter_mut().zip(pruned) {
            *acc += w * v;
        }
        s.merge_weight[best] += w;
    }
    // Normalize the folded rows back to a weighted average.
    for j in 0..k {
        if s.merged[j] {
            let w = s.merge_weight[j];
            for v in s.kept_rows.row_mut(j) {
                *v /= w;
            }
        }
    }
    Tensor::concat_rows_into(&[&s.cls, &s.kept_rows], &mut s.repacked);
    std::mem::swap(tokens, &mut s.repacked);
}

/// Multiply–accumulate cost of one scoring pass over `n` tokens: the class
/// token's query row (`D²`), the key projection (`n·D²`), and the
/// per-head attention dots (`n·D`); `with_values` adds the value
/// projection (`n·D²`) and the value norms (`n·D`) of the top-k criterion.
pub(crate) fn scoring_macs(block: &EncoderBlock, n: usize, with_values: bool) -> u64 {
    let attn = block.attention();
    let d = (attn.num_heads() * attn.head_dim()) as u64;
    let mut macs = attn.wq().macs(1) + attn.wk().macs(n) + n as u64 * d;
    if with_values {
        macs += attn.wv().macs(n) + n as u64 * d;
    }
    macs
}

/// A merge weight is never allowed to vanish: a zero-attention token still
/// averages in with a floor weight instead of dividing by zero.
fn weight(score: f32) -> f32 {
    score.max(1e-8)
}

pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

pub(crate) fn norm(v: &[f32]) -> f32 {
    dot(v, v).sqrt()
}

fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in row.iter_mut() {
        *v /= sum;
    }
}
