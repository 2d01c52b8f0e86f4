//! Multi-head self-attention (MSA).

use crate::scratch::AttnScratch;
use heatvit_nn::layers::{layer_norm_project_into, LayerNorm, Linear};
use heatvit_nn::{Module, Param, Tape, Var};
use heatvit_tensor::{matmul_transb_views, matmul_views, softmax_inplace, Tensor};
use rand::Rng;

/// Additive score penalty applied to masked-out key columns.
///
/// Large enough to zero the post-softmax probability in `f32` without
/// overflowing when summed with real scores. Public so downstream kernels
/// (e.g. `heatvit-quant`'s approximated softmax) can regression-test the
/// exact constant their flush-to-zero handling must absorb.
pub const MASK_PENALTY: f32 = -1e4;

/// Per-head attention maps of one MSA invocation: `maps[h]` is the `[N, N]`
/// row-stochastic attention matrix of head `h`.
pub type AttentionMaps = Vec<Tensor>;

/// Multi-head self-attention.
///
/// The projections are stored full-width (`D → D`) and sliced per head,
/// matching how the FPGA GEMM engine tiles the head dimension (`Th`) rather
/// than instantiating separate per-head matrices (paper Fig. 8b).
///
/// # Examples
///
/// ```
/// use heatvit_vit::MultiHeadAttention;
/// use heatvit_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let msa = MultiHeadAttention::new(16, 4, &mut rng);
/// let x = Tensor::rand_normal(&[5, 16], 0.0, 1.0, &mut rng);
/// let (out, maps) = msa.infer(&x, None);
/// assert_eq!(out.dims(), &[5, 16]);
/// assert_eq!(maps.len(), 4);
/// // Every attention row is a probability distribution.
/// let sum: f32 = maps[0].row(0).iter().sum();
/// assert!((sum - 1.0).abs() < 1e-5);
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    proj: Linear,
    num_heads: usize,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an MSA layer for width `dim` with `num_heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `num_heads`.
    pub fn new(dim: usize, num_heads: usize, rng: &mut impl Rng) -> Self {
        assert!(num_heads > 0, "at least one head required");
        assert_eq!(dim % num_heads, 0, "dim must divide evenly into heads");
        Self {
            wq: Linear::new(dim, dim, true, rng),
            wk: Linear::new(dim, dim, true, rng),
            wv: Linear::new(dim, dim, true, rng),
            proj: Linear::new(dim, dim, true, rng),
            num_heads,
            head_dim: dim / num_heads,
        }
    }

    /// Number of heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
    }

    /// Per-head width.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// The query projection.
    pub fn wq(&self) -> &Linear {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &Linear {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &Linear {
        &self.wv
    }

    /// The output projection.
    pub fn proj(&self) -> &Linear {
        &self.proj
    }

    /// Builds the `[N, N]` additive mask matrix for a key-side keep mask.
    ///
    /// Column `j` receives [`MASK_PENALTY`] when `keep[j] < 0.5`, except on
    /// the diagonal so a pruned token may still attend to itself (keeps the
    /// softmax well-defined for its own row).
    fn additive_mask(keep: &[f32]) -> Tensor {
        let n = keep.len();
        Tensor::from_fn(&[n, n], |ix| {
            if ix[0] != ix[1] && keep[ix[1]] < 0.5 {
                MASK_PENALTY
            } else {
                0.0
            }
        })
    }

    /// Differentiable forward.
    ///
    /// `key_mask`, when given, is a per-token keep indicator (`1.0` keep,
    /// `0.0` prune) applied additively to the attention scores so pruned
    /// tokens cannot be attended to. `capture_maps` additionally copies each
    /// head's attention matrix off the tape for analysis.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]` or the mask length is not `N`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        x: Var,
        key_mask: Option<&[f32]>,
        capture_maps: bool,
    ) -> (Var, Option<AttentionMaps>) {
        let n = tape.dims(x)[0];
        if let Some(m) = key_mask {
            assert_eq!(m.len(), n, "mask length must equal token count");
        }
        let q = self.wq.forward(tape, x);
        let k = self.wk.forward(tape, x);
        let v = self.wv.forward(tape, x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mask = key_mask.map(Self::additive_mask);
        let mut head_outputs = Vec::with_capacity(self.num_heads);
        let mut maps = capture_maps.then(Vec::new);
        for h in 0..self.num_heads {
            let (lo, hi) = (h * self.head_dim, (h + 1) * self.head_dim);
            let qh = tape.slice_cols(q, lo, hi);
            let kh = tape.slice_cols(k, lo, hi);
            let vh = tape.slice_cols(v, lo, hi);
            let kht = tape.transpose(kh);
            let scores = tape.matmul(qh, kht);
            let mut scores = tape.scale(scores, scale);
            if let Some(m) = &mask {
                scores = tape.add_const(scores, m.clone());
            }
            let attn = tape.softmax_rows(scores);
            if let Some(maps) = maps.as_mut() {
                maps.push(tape.value(attn).clone());
            }
            head_outputs.push(tape.matmul(attn, vh));
        }
        let concat = tape.concat_cols(&head_outputs);
        (self.proj.forward(tape, concat), maps)
    }

    /// Inference forward (no tape). Always returns the attention maps.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]` or the mask length is not `N`.
    pub fn infer(&self, x: &Tensor, key_mask: Option<&[f32]>) -> (Tensor, AttentionMaps) {
        self.infer_with(x, key_mask, &mut AttnScratch::default())
    }

    /// [`MultiHeadAttention::infer`] reusing a caller-provided scratch
    /// workspace for the Q/K/V projections and the head concatenation.
    ///
    /// Bit-identical to the allocating path; the batched engine holds one
    /// [`AttnScratch`] (inside [`crate::InferScratch`]) for a whole batch so
    /// the four largest per-call tensors are allocated once, not per image.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, dim]` or the mask length is not `N`.
    pub fn infer_with(
        &self,
        x: &Tensor,
        key_mask: Option<&[f32]>,
        scratch: &mut AttnScratch,
    ) -> (Tensor, AttentionMaps) {
        self.wq.infer_into(x, &mut scratch.q);
        self.wk.infer_into(x, &mut scratch.k);
        self.wv.infer_into(x, &mut scratch.v);
        self.attend_with(key_mask, scratch)
    }

    /// Computes `self.infer(ln.infer(x), key_mask)` with the layer norm
    /// fused into the Q/K/V projections via
    /// [`layer_norm_project_into`]: blocks of normalized rows go straight
    /// into the packed GEMM, so the normalized `[N, dim]` activations never
    /// materialize. Bit-identical to the unfused path.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, ln.dim()]`, `ln.dim()` differs from the
    /// attention width, or the mask length is not `N`.
    pub fn infer_ln_with(
        &self,
        ln: &LayerNorm,
        x: &Tensor,
        key_mask: Option<&[f32]>,
        scratch: &mut AttnScratch,
    ) -> (Tensor, AttentionMaps) {
        let AttnScratch { q, k, v, gs, .. } = scratch;
        layer_norm_project_into(ln, &[&self.wq, &self.wk, &self.wv], x, gs, &mut [q, k, v]);
        self.attend_with(key_mask, scratch)
    }

    /// The shared attention core: consumes the Q/K/V projections already
    /// staged in `scratch` and produces the projected output plus per-head
    /// maps.
    ///
    /// Each head reads its column range of Q/K/V in place and writes its
    /// output into its column range of `scratch.heads`; scale, additive
    /// mask and softmax run in place on the score buffer, which is then the
    /// returned map — the maps and the output are the only allocations.
    fn attend_with(
        &self,
        key_mask: Option<&[f32]>,
        scratch: &mut AttnScratch,
    ) -> (Tensor, AttentionMaps) {
        let AttnScratch {
            q,
            k,
            v,
            heads,
            penalty,
            gs,
        } = scratch;
        let n = q.dim(0);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // The penalty a key column adds to every row but its own (see
        // `additive_mask`); empty without a mask.
        penalty.clear();
        if let Some(m) = key_mask {
            assert_eq!(m.len(), n, "mask length must equal token count");
            penalty.extend(
                m.iter()
                    .map(|&keep| if keep < 0.5 { MASK_PENALTY } else { 0.0 }),
            );
        }
        heads.reset_unspecified(&[n, self.num_heads * self.head_dim]);
        let mut maps = Vec::with_capacity(self.num_heads);
        for h in 0..self.num_heads {
            let (lo, hi) = (h * self.head_dim, (h + 1) * self.head_dim);
            let mut attn = Tensor::zeros(&[n, n]);
            matmul_transb_views(
                q.col_range(lo, hi),
                k.col_range(lo, hi),
                &mut gs.pack,
                attn.as_mat_mut(),
            );
            for (i, row) in attn.data_mut().chunks_exact_mut(n.max(1)).enumerate() {
                if penalty.is_empty() {
                    row.iter_mut().for_each(|s| *s *= scale);
                } else {
                    let own = row[i] * scale;
                    for (s, &p) in row.iter_mut().zip(penalty.iter()) {
                        *s = *s * scale + p;
                    }
                    row[i] = own;
                }
                softmax_inplace(row);
            }
            matmul_views(
                attn.as_mat(),
                v.col_range(lo, hi),
                None,
                &mut gs.pack,
                heads.col_range_mut(lo, hi),
            );
            maps.push(attn);
        }
        (self.proj.infer(heads), maps)
    }

    /// Multiply–accumulate count for `n` tokens, split per paper Table II:
    /// `(QKV+proj, Q·Kᵀ + attn·V)`.
    pub fn macs(&self, n: usize) -> (u64, u64) {
        let dim = (self.num_heads * self.head_dim) as u64;
        let linear = 4 * n as u64 * dim * dim; // Wq, Wk, Wv, proj
        let attention = 2 * (n as u64) * (n as u64) * dim; // QKᵀ and (QKᵀ)V
        (linear, attention)
    }
}

impl Module for MultiHeadAttention {
    fn params(&self) -> Vec<&Param> {
        [&self.wq, &self.wk, &self.wv, &self.proj]
            .iter()
            .flat_map(|l| l.params())
            .collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.wq.params_mut();
        v.extend(self.wk.params_mut());
        v.extend(self.wv.params_mut());
        v.extend(self.proj.params_mut());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn msa(dim: usize, heads: usize, seed: u64) -> (MultiHeadAttention, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = MultiHeadAttention::new(dim, heads, &mut rng);
        (m, rng)
    }

    #[test]
    fn forward_matches_infer() {
        let (m, mut rng) = msa(12, 3, 0);
        let x = Tensor::rand_normal(&[6, 12], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let (out, maps) = m.forward(&mut tape, xv, None, true);
        let (out2, maps2) = m.infer(&x, None);
        assert!(tape.value(out).allclose(&out2, 1e-5));
        for (a, b) in maps.unwrap().iter().zip(maps2.iter()) {
            assert!(a.allclose(b, 1e-5));
        }
    }

    #[test]
    fn fused_ln_path_is_bitwise_identical_to_unfused() {
        use heatvit_nn::layers::LayerNorm;
        let (m, mut rng) = msa(12, 3, 6);
        let ln = LayerNorm::new(12);
        for n_tokens in [1usize, 5, 9] {
            let x = Tensor::rand_normal(&[n_tokens, 12], 0.0, 1.0, &mut rng);
            let keep: Vec<f32> = (0..n_tokens).map(|i| (i % 2) as f32).collect();
            for mask in [None, Some(keep.as_slice())] {
                let (want, want_maps) = m.infer(&ln.infer(&x), mask);
                let mut scratch = AttnScratch::default();
                let (got, got_maps) = m.infer_ln_with(&ln, &x, mask, &mut scratch);
                assert_eq!(got.data(), want.data(), "{n_tokens} tokens");
                for (a, b) in got_maps.iter().zip(want_maps.iter()) {
                    assert_eq!(a.data(), b.data());
                }
            }
        }
    }

    #[test]
    fn masked_tokens_receive_no_attention() {
        let (m, mut rng) = msa(8, 2, 1);
        let x = Tensor::rand_normal(&[4, 8], 0.0, 1.0, &mut rng);
        let keep = [1.0, 1.0, 0.0, 1.0];
        let (_, maps) = m.infer(&x, Some(&keep));
        for map in &maps {
            for r in 0..4 {
                if r != 2 {
                    assert_eq!(
                        map.at(&[r, 2]),
                        0.0,
                        "row {r} still attends to masked token"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_row_still_sums_to_one() {
        let (m, mut rng) = msa(8, 2, 2);
        let x = Tensor::rand_normal(&[4, 8], 0.0, 1.0, &mut rng);
        let keep = [1.0, 0.0, 0.0, 1.0];
        let (_, maps) = m.infer(&x, Some(&keep));
        for map in &maps {
            for r in 0..4 {
                let s: f32 = map.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn heads_differ() {
        let (m, mut rng) = msa(16, 4, 3);
        let x = Tensor::rand_normal(&[5, 16], 0.0, 1.0, &mut rng);
        let (_, maps) = m.infer(&x, None);
        // Random init should already give distinct per-head maps.
        assert!(maps[0].max_abs_diff(&maps[1]) > 1e-4);
    }

    #[test]
    fn macs_match_table2_formula() {
        let (m, _) = msa(192, 3, 4);
        let n = 197u64;
        let (linear, attn) = m.macs(197);
        assert_eq!(linear, 4 * n * 192 * 192);
        assert_eq!(attn, 2 * n * n * 192);
    }

    #[test]
    fn gradients_flow_through_all_projections() {
        let (mut m, mut rng) = msa(8, 2, 5);
        let x = Tensor::rand_normal(&[3, 8], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x);
        let (out, _) = m.forward(&mut tape, xv, None, false);
        let loss = tape.mean_all(out);
        let grads = tape.backward(loss);
        tape.write_grads(&grads, m.params_mut());
        for p in m.params() {
            assert!(p.grad().is_some(), "missing grad for {}", p.name());
        }
    }
}
