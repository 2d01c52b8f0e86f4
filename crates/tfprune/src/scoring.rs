//! The shared CLS-attention scorer and the mergence fold.
//!
//! The scorer runs *in front of* a block: it evaluates only the block's
//! `ln1 → W_q` row for the class token and `ln1 → W_k` for every token,
//! then averages `softmax(q_cls · Kᵀ / √d)` over heads — the first row of
//! the attention matrix the block is about to compute, at `≈ N·D²` MACs
//! instead of the block's full `4N·D² + 2N²·D`. The block then runs on the
//! repacked survivors, so the expensive quadratic work is only ever done on
//! kept tokens.

use heatvit_tensor::Tensor;
use heatvit_vit::{select_top, EncoderBlock, StageInput, StageScratch};

/// Ranks the stage's patches by CLS attention in `block`, the block the
/// stage precedes (plus the value-norm share when `with_values`), and keeps
/// the top `keep`: `ws.scores` holds every token's score (index 0 the class
/// token's), `ws.order` the patches in descending score order.
pub(crate) fn select(
    block: &EncoderBlock,
    stage: &StageInput<'_>,
    keep: usize,
    with_values: bool,
    ws: &mut StageScratch,
) {
    cls_attention_scores(block, stage.tokens, ws);
    if with_values {
        add_value_norm_scores(block, ws);
    }
    select_top(keep, &ws.scores[1..], &mut ws.order, &mut ws.kept);
}

/// Fills `ws.scores` with the mean-over-heads CLS-attention probability of
/// every current token (index 0 is the class token's self-attention mass;
/// indices `1..N` are the patch tokens). Also leaves the layer-normed
/// tokens in `ws.normed` for follow-up projections.
pub(crate) fn cls_attention_scores(block: &EncoderBlock, tokens: &Tensor, ws: &mut StageScratch) {
    let attn = block.attention();
    let n = tokens.dim(0);
    let heads = attn.num_heads();
    let hd = attn.head_dim();
    let scale = 1.0 / (hd as f32).sqrt();
    block.ln1().infer_into(tokens, &mut ws.normed);
    ws.normed.slice_rows_into(0, 1, &mut ws.cls_normed);
    attn.wq().infer_into(&ws.cls_normed, &mut ws.query);
    attn.wk().infer_into(&ws.normed, &mut ws.keys);
    ws.scores.clear();
    ws.scores.resize(n, 0.0);
    for h in 0..heads {
        let base = h * hd;
        let q = &ws.query.row(0)[base..base + hd];
        ws.head_row.clear();
        for j in 0..n {
            let k = &ws.keys.row(j)[base..base + hd];
            ws.head_row.push(dot(q, k) * scale);
        }
        softmax_in_place(&mut ws.head_row);
        for (acc, &p) in ws.scores.iter_mut().zip(&ws.head_row) {
            *acc += p;
        }
    }
    for v in &mut ws.scores {
        *v /= heads as f32;
    }
}

/// Adds each token's value-norm share to `ws.scores` (the top-k criterion:
/// CLS attention says where the class token looks, the value norm says how
/// much a token injects when looked at). Norm shares are normalized to sum 1
/// across tokens so both summands live on the same scale. Requires
/// [`cls_attention_scores`] to have run (reads `ws.normed`).
pub(crate) fn add_value_norm_scores(block: &EncoderBlock, ws: &mut StageScratch) {
    block
        .attention()
        .wv()
        .infer_into(&ws.normed, &mut ws.values);
    let n = ws.values.dim(0);
    ws.head_row.clear();
    for j in 0..n {
        ws.head_row.push(norm(ws.values.row(j)));
    }
    let total: f32 = ws.head_row.iter().sum();
    if total > 0.0 {
        for (acc, &v) in ws.scores.iter_mut().zip(&ws.head_row) {
            *acc += v / total;
        }
    }
}

/// Folds every pruned patch into its most cosine-similar kept patch: each
/// kept row of `kept_rows` becomes the score-weighted average of itself and
/// the pruned rows assigned to it (weights are the CLS-attention
/// probabilities, so a near-discarded token nudges its host only slightly).
/// Reads the ranking [`select`] left in `ws`; token counts match the hard
/// drop exactly.
pub(crate) fn fold_into_nearest(patches: &Tensor, kept_rows: &mut Tensor, ws: &mut StageScratch) {
    let k = ws.kept.len();
    // Seed each kept row's score weight; the row itself is premultiplied
    // *lazily* on first fold, so a kept token that absorbs nothing passes
    // through bit-identical to the hard drop.
    ws.weights.clear();
    ws.merged.clear();
    for &i in &ws.kept {
        ws.weights.push(weight(ws.scores[i + 1]));
        ws.merged.push(false);
    }
    for &p in &ws.order[k..] {
        let pruned = patches.row(p);
        let pruned_norm = norm(pruned).max(1e-12);
        let mut best = 0usize;
        let mut best_sim = f32::NEG_INFINITY;
        for (j, &i) in ws.kept.iter().enumerate() {
            let kept = patches.row(i);
            let sim = dot(pruned, kept) / (pruned_norm * norm(kept).max(1e-12));
            if sim > best_sim {
                best_sim = sim;
                best = j;
            }
        }
        if !ws.merged[best] {
            ws.merged[best] = true;
            let w = ws.weights[best];
            for v in kept_rows.row_mut(best) {
                *v *= w;
            }
        }
        let w = weight(ws.scores[p + 1]);
        for (acc, &v) in kept_rows.row_mut(best).iter_mut().zip(pruned) {
            *acc += w * v;
        }
        ws.weights[best] += w;
    }
    // Normalize the folded rows back to a weighted average.
    for j in 0..k {
        if ws.merged[j] {
            let w = ws.weights[j];
            for v in kept_rows.row_mut(j) {
                *v /= w;
            }
        }
    }
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

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn norm(v: &[f32]) -> f32 {
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
