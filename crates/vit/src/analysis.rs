//! Representation analysis: CKA similarity and per-head receptive fields.
//!
//! Backs the paper's two motivating observations (Section III-A):
//!
//! 1. different attention heads detect *different* information regions
//!    (Fig. 5) — quantified here by inter-head divergence of the class
//!    token's attention distribution;
//! 2. tokens align with the final class token only gradually across blocks
//!    (Fig. 6, measured with CKA) — so early blocks must prune cautiously.

use heatvit_tensor::Tensor;

/// Linear Centered Kernel Alignment between two representations with the
/// same number of rows (examples).
///
/// `CKA(X, Y) = ‖Yᶜᵀ·Xᶜ‖²_F / (‖Xᶜᵀ·Xᶜ‖_F · ‖Yᶜᵀ·Yᶜ‖_F)` with column-centered
/// `Xᶜ`, `Yᶜ` (Kornblith et al., 2019 — the paper’s reference \[28\]).
///
/// # Panics
///
/// Panics if the operands are not rank 2 or row counts differ.
///
/// # Examples
///
/// ```
/// use heatvit_vit::analysis::linear_cka;
/// use heatvit_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
/// // CKA is invariant to isotropic scaling.
/// let y = x.scale(3.0);
/// assert!((linear_cka(&x, &y) - 1.0).abs() < 1e-5);
/// ```
// Kept for ROADMAP item 5: `paper_report` prints the Fig. 5–6 claims with it.
pub fn linear_cka(x: &Tensor, y: &Tensor) -> f32 {
    assert_eq!(x.rank(), 2, "cka operands must be rank 2");
    assert_eq!(y.rank(), 2, "cka operands must be rank 2");
    assert_eq!(x.dim(0), y.dim(0), "cka operands must share rows");
    let center = |t: &Tensor| {
        let means = t.mean_cols();
        let cols = t.dim(1);
        Tensor::from_fn(t.dims(), |ix| t.at(ix) - means.data()[ix[1] % cols])
    };
    let xc = center(x);
    let yc = center(y);
    let cross = yc.transpose2().matmul(&xc).norm().powi(2);
    let xx = xc.transpose2().matmul(&xc).norm();
    let yy = yc.transpose2().matmul(&yc).norm();
    if xx == 0.0 || yy == 0.0 {
        return 0.0;
    }
    cross / (xx * yy)
}

/// CKA between each block's token matrix and the final class token
/// (paper Fig. 6): for every block output, each token row is compared with
/// the final CLS embedding replicated across rows.
///
/// `block_tokens` is the trace from
/// [`VisionTransformer::infer_traced`](crate::VisionTransformer::infer_traced);
/// the result has one entry per block output (entry 0 compares the embedding
/// output).
// Kept for ROADMAP item 5: `paper_report` prints the Fig. 5–6 claims with it.
pub fn cls_alignment_curve(block_tokens: &[Tensor]) -> Vec<f32> {
    assert!(!block_tokens.is_empty(), "empty trace");
    let last = block_tokens.last().unwrap();
    let final_cls = last.slice_rows(0, 1);
    let n = last.dim(0);
    let mut tiled = Vec::with_capacity(n * final_cls.dim(1));
    for _ in 0..n {
        tiled.extend_from_slice(final_cls.data());
    }
    let target = Tensor::from_vec(tiled, &[n, final_cls.dim(1)]);
    block_tokens
        .iter()
        .map(|tokens| {
            // Compare patch tokens (rows 1..) against the tiled final CLS.
            let patches = tokens.slice_rows(1, tokens.dim(0));
            let target_patches = target.slice_rows(1, n);
            linear_cka(&patches, &target_patches)
        })
        .collect()
}

/// The class token's attention distribution over patch tokens for one head:
/// row 0 of the head's attention map with the CLS column dropped,
/// renormalized to sum to one.
///
/// # Panics
///
/// Panics if `map` is not a square rank-2 tensor with at least 2 rows.
// Kept for ROADMAP item 5: `paper_report` prints the Fig. 5–6 claims with it.
pub fn cls_attention_over_patches(map: &Tensor) -> Vec<f32> {
    assert_eq!(map.rank(), 2, "attention map must be rank 2");
    assert_eq!(map.dim(0), map.dim(1), "attention map must be square");
    assert!(map.dim(0) >= 2, "need at least one patch token");
    let row = &map.row(0)[1..];
    let sum: f32 = row.iter().sum();
    if sum <= 0.0 {
        return vec![1.0 / row.len() as f32; row.len()];
    }
    row.iter().map(|&v| v / sum).collect()
}

/// Shannon entropy (nats) of a probability vector.
fn entropy(p: &[f32]) -> f32 {
    p.iter().filter(|&&v| v > 0.0).map(|&v| -v * v.ln()).sum()
}

/// Jensen–Shannon divergence between two probability vectors (nats).
///
/// # Panics
///
/// Panics if lengths differ.
// Kept for ROADMAP item 5: `paper_report` prints the Fig. 5–6 claims with it.
pub fn js_divergence(p: &[f32], q: &[f32]) -> f32 {
    assert_eq!(p.len(), q.len(), "distributions must share support");
    let kl = |a: &[f32], b: &[f32]| -> f32 {
        a.iter()
            .zip(b.iter())
            .filter(|(&x, _)| x > 0.0)
            .map(|(&x, &y)| x * (x / y.max(1e-12)).ln())
            .sum()
    };
    let m: Vec<f32> = p
        .iter()
        .zip(q.iter())
        .map(|(&a, &b)| 0.5 * (a + b))
        .collect();
    0.5 * kl(p, &m) + 0.5 * kl(q, &m)
}

/// Summary of how differently the heads of one block look at the image
/// (the quantitative form of paper Fig. 5).
#[derive(Debug, Clone)]
pub struct HeadDivergence {
    /// Mean pairwise Jensen–Shannon divergence between per-head CLS
    /// attention distributions.
    pub mean_pairwise_js: f32,
    /// Entropy of each head's CLS attention distribution.
    pub head_entropies: Vec<f32>,
    /// Patch index each head attends to most.
    pub head_argmax: Vec<usize>,
}

/// Computes [`HeadDivergence`] for one block's attention maps.
///
/// # Panics
///
/// Panics if `maps` is empty.
// Kept for ROADMAP item 5: `paper_report` prints the Fig. 5–6 claims with it.
pub fn head_divergence(maps: &[Tensor]) -> HeadDivergence {
    assert!(!maps.is_empty(), "no attention maps given");
    let dists: Vec<Vec<f32>> = maps.iter().map(cls_attention_over_patches).collect();
    let mut total = 0.0;
    let mut pairs = 0usize;
    for i in 0..dists.len() {
        for j in (i + 1)..dists.len() {
            total += js_divergence(&dists[i], &dists[j]);
            pairs += 1;
        }
    }
    HeadDivergence {
        mean_pairwise_js: if pairs == 0 {
            0.0
        } else {
            total / pairs as f32
        },
        head_entropies: dists.iter().map(|d| entropy(d)).collect(),
        head_argmax: dists
            .iter()
            .map(|d| {
                d.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cka_identity_is_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let x = Tensor::rand_normal(&[10, 5], 0.0, 1.0, &mut rng);
        assert!((linear_cka(&x, &x) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn cka_is_symmetric_and_bounded() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::rand_normal(&[12, 4], 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal(&[12, 6], 0.0, 1.0, &mut rng);
        let a = linear_cka(&x, &y);
        let b = linear_cka(&y, &x);
        assert!((a - b).abs() < 1e-5);
        assert!((0.0..=1.0 + 1e-5).contains(&a));
    }

    #[test]
    fn cka_detects_unrelated_representations() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::rand_normal(&[50, 8], 0.0, 1.0, &mut rng);
        let y = Tensor::rand_normal(&[50, 8], 0.0, 1.0, &mut rng);
        let related = linear_cka(&x, &x.scale(2.0));
        let unrelated = linear_cka(&x, &y);
        assert!(related > 0.99);
        assert!(unrelated < 0.5);
    }

    #[test]
    fn cls_attention_is_normalized() {
        let map = Tensor::from_vec(vec![0.2, 0.5, 0.3, 0.1, 0.8, 0.1, 0.3, 0.3, 0.4], &[3, 3]);
        let d = cls_attention_over_patches(&map);
        assert_eq!(d.len(), 2);
        assert!((d.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!((d[0] - 0.5 / 0.8).abs() < 1e-6);
    }

    #[test]
    fn entropy_extremes() {
        assert!(entropy(&[1.0, 0.0, 0.0]) < 1e-6);
        let uniform = entropy(&[0.25; 4]);
        assert!((uniform - (4.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn js_divergence_properties() {
        let p = [0.7, 0.2, 0.1];
        let q = [0.1, 0.2, 0.7];
        assert!(js_divergence(&p, &p) < 1e-6);
        let d = js_divergence(&p, &q);
        assert!(d > 0.0 && d <= (2.0f32).ln() + 1e-5);
        assert!((d - js_divergence(&q, &p)).abs() < 1e-6);
    }

    #[test]
    fn head_divergence_flags_distinct_heads() {
        // Two heads attending to disjoint patches → high divergence.
        let focused =
            |idx: usize| Tensor::from_fn(&[4, 4], |ix| if ix[1] == idx { 0.97 } else { 0.01 });
        let distinct = head_divergence(&[focused(1), focused(3)]);
        let same = head_divergence(&[focused(2), focused(2)]);
        assert!(distinct.mean_pairwise_js > 10.0 * same.mean_pairwise_js.max(1e-9));
        assert_eq!(distinct.head_argmax, vec![0, 2]);
    }

    #[test]
    fn alignment_curve_ends_near_one() {
        // The final entry compares the last block with itself.
        let mut rng = StdRng::seed_from_u64(3);
        let t0 = Tensor::rand_normal(&[6, 4], 0.0, 1.0, &mut rng);
        let t1 = Tensor::rand_normal(&[6, 4], 0.0, 1.0, &mut rng);
        let curve = cls_alignment_curve(&[t0, t1]);
        assert_eq!(curve.len(), 2);
        for v in &curve {
            assert!((0.0..=1.0 + 1e-5).contains(v));
        }
    }
}
