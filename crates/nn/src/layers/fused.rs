//! Fused layer-norm + projection.
//!
//! A ViT block normalizes its input and immediately feeds the normalized
//! activations into one or more linear projections (Q/K/V, or the FFN's
//! first layer). The unfused path materializes the normalized `[N, dim]`
//! matrix, writes it to memory, then reads it straight back for the GEMM.
//! [`layer_norm_project_into`] instead normalizes a block of rows at a time
//! into a small staging buffer and multiplies it with every projection's
//! packed weight while it is still in cache, so normalized activations never
//! round-trip through a full-size temporary.
//!
//! Both the layer-norm arithmetic and each output element's GEMM chain are
//! exactly those of the unfused entry points, so results are bit-identical —
//! the batched-vs-single and parallel-vs-sequential parity guarantees of the
//! inference engine are preserved for free.

use crate::layers::{LayerNorm, Linear};
use heatvit_tensor::{gemm_packed, GemmScratch, MatMut, MatRef, Tensor, MR};

/// Rows normalized per staging block: eight GEMM row tiles (36 KB at
/// `dim = 192`), which stay in L2 while every weight panel passes over them.
/// Measured at DeiT-T: blocks of one or two row tiles re-read the panels
/// often enough to cost 10 % of the fused Q/K/V time; from eight on the
/// curve is flat (48 and 66 rows time the same).
const BLOCK_ROWS: usize = 8 * MR;

/// Computes `outs[i] = projections[i].infer(ln.infer(x))` for every
/// projection without materializing `ln.infer(x)`.
///
/// Blocks of normalized rows are staged in `gs.tile` and multiplied with
/// each projection's packed weight (built once by the layer, see
/// [`Linear`]) in turn. Values are bit-identical to the unfused two-step
/// path.
///
/// # Panics
///
/// Panics if `x` is not `[N, ln.dim()]`, if any projection's input width
/// differs from `ln.dim()`, or if `projections.len() != outs.len()`.
pub fn layer_norm_project_into(
    ln: &LayerNorm,
    projections: &[&Linear],
    x: &Tensor,
    gs: &mut GemmScratch,
    outs: &mut [&mut Tensor],
) {
    assert_eq!(
        projections.len(),
        outs.len(),
        "one output tensor per projection"
    );
    assert_eq!(x.dim(1), ln.dim(), "layernorm width mismatch");
    let (rows, k) = (x.dim(0), x.dim(1));
    for (p, out) in projections.iter().zip(outs.iter_mut()) {
        assert_eq!(p.in_features(), k, "projection input width mismatch");
        out.reset_unspecified(&[rows, p.out_features()]);
    }

    ln.infer_tiles(x, BLOCK_ROWS, &mut gs.tile, |r0, nr, block| {
        for (p, out) in projections.iter().zip(outs.iter_mut()) {
            let n = p.out_features();
            gemm_packed(
                MatRef::new(block, nr, k, k),
                p.packed_weight(),
                p.bias().map(|b| b.value().data()),
                MatMut::new(&mut out.data_mut()[r0 * n..(r0 + nr) * n], nr, n, n),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fused_is_bitwise_identical_to_unfused() {
        let mut rng = StdRng::seed_from_u64(7);
        for (n_rows, dim) in [(1usize, 8usize), (5, 8), (9, 12), (197, 16)] {
            let mut ln = LayerNorm::new(dim);
            for (j, v) in ln.params_mut()[0]
                .value_mut()
                .data_mut()
                .iter_mut()
                .enumerate()
            {
                *v = 0.75 + j as f32 * 0.05;
            }
            let wq = Linear::new(dim, dim, true, &mut rng);
            let wk = Linear::new(dim, dim, true, &mut rng);
            let wv = Linear::new(dim, 2 * dim, false, &mut rng);
            let x = Tensor::rand_normal(&[n_rows, dim], 0.0, 1.0, &mut rng);

            let normed = ln.infer(&x);
            let want = [wq.infer(&normed), wk.infer(&normed), wv.infer(&normed)];

            let mut gs = GemmScratch::default();
            let (mut q, mut k, mut v) = (Tensor::default(), Tensor::default(), Tensor::default());
            layer_norm_project_into(
                &ln,
                &[&wq, &wk, &wv],
                &x,
                &mut gs,
                &mut [&mut q, &mut k, &mut v],
            );
            assert_eq!(q.dims(), want[0].dims());
            assert_eq!(q.data(), want[0].data(), "{n_rows}x{dim} q");
            assert_eq!(k.data(), want[1].data(), "{n_rows}x{dim} k");
            assert_eq!(v.data(), want[2].data(), "{n_rows}x{dim} v");
        }
    }

    #[test]
    fn single_projection_matches_linear_infer() {
        let mut rng = StdRng::seed_from_u64(11);
        let ln = LayerNorm::new(6);
        let fc = Linear::new(6, 24, true, &mut rng);
        let x = Tensor::rand_normal(&[4, 6], 0.0, 1.0, &mut rng);
        let mut gs = GemmScratch::default();
        let mut out = Tensor::default();
        layer_norm_project_into(&ln, &[&fc], &x, &mut gs, &mut [&mut out]);
        assert_eq!(out.data(), fc.infer(&ln.infer(&x)).data());
    }
}
