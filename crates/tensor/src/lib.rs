//! # heatvit-tensor
//!
//! Dense `f32` tensor substrate for the [HeatViT](https://arxiv.org/abs/2211.08110)
//! reproduction: contiguous row-major storage, blocked GEMM kernels, elementwise
//! and structural operations, reductions, and seeded random initializers.
//!
//! The crate is intentionally small and dependency-light (only `rand`): it
//! exists so that the rest of the workspace — the autograd tape in
//! `heatvit-nn`, the ViT backbone in `heatvit-vit`, the token selector in
//! `heatvit-selector` and the integer paths in `heatvit-quant` — can share one
//! well-tested numeric core whose operations map one-to-one onto the GEMM
//! engine modelled by `heatvit-fpga`.
//!
//! ## Example
//!
//! ```
//! use heatvit_tensor::Tensor;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // A toy "token matrix": 5 tokens, 8 channels.
//! let tokens = Tensor::rand_normal(&[5, 8], 0.0, 1.0, &mut rng);
//! let weight = Tensor::xavier_uniform(8, 4, &mut rng);
//! let out = tokens.matmul(&weight);
//! assert_eq!(out.dims(), &[5, 4]);
//!
//! // Dense repacking: keep tokens 0, 2 and 4 only.
//! let kept = out.gather_rows(&[0, 2, 4]);
//! assert_eq!(kept.dims(), &[3, 4]);
//! ```

#![warn(missing_docs)]

mod align;
mod error;
mod matmul;
mod ops;
mod random;
mod reduce;
pub mod scalar;
mod shape;
mod tensor;

pub use align::{align_start, CACHE_LINE};
pub use error::TensorError;
pub use matmul::{
    f32_kernel, gemm, gemm_packed, gemm_packed_portable, matmul_transb_views, matmul_views, pack_b,
    packed_len, GemmScratch, MatMut, MatRef, MR, NR,
};
pub use random::sample_standard_normal;
pub use reduce::{mean_var, softmax_inplace, softmax_numerators};
pub use shape::Shape;
pub use tensor::Tensor;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
        (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
            proptest::collection::vec(-10.0f32..10.0, m * n)
                .prop_map(move |data| Tensor::from_vec(data, &[m, n]))
        })
    }

    proptest! {
        #[test]
        fn matmul_identity_left_right(a in small_matrix(8)) {
            let (m, n) = (a.dim(0), a.dim(1));
            prop_assert!(Tensor::eye(m).matmul(&a).allclose(&a, 1e-4));
            prop_assert!(a.matmul(&Tensor::eye(n)).allclose(&a, 1e-4));
        }

        #[test]
        fn matmul_distributes_over_addition(
            seed in 0u64..1000, m in 1usize..6, k in 1usize..6, n in 1usize..6
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
            let c = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
            let lhs = a.matmul(&b.add(&c));
            let rhs = a.matmul(&b).add(&a.matmul(&c));
            prop_assert!(lhs.allclose(&rhs, 1e-3));
        }

        #[test]
        fn transpose_swaps_matmul_order(
            seed in 0u64..1000, m in 1usize..6, k in 1usize..6, n in 1usize..6
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Tensor::rand_uniform(&[m, k], -2.0, 2.0, &mut rng);
            let b = Tensor::rand_uniform(&[k, n], -2.0, 2.0, &mut rng);
            // (A·B)ᵀ = Bᵀ·Aᵀ
            let lhs = a.matmul(&b).transpose2();
            let rhs = b.transpose2().matmul(&a.transpose2());
            prop_assert!(lhs.allclose(&rhs, 1e-3));
        }

        #[test]
        fn softmax_rows_sum_to_one(a in small_matrix(8)) {
            let s = a.softmax_rows();
            for r in 0..s.dim(0) {
                let sum: f32 = s.row(r).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-4);
            }
        }

        #[test]
        fn gather_preserves_row_content(a in small_matrix(8), pick in proptest::collection::vec(0usize..8, 0..8)) {
            let idx: Vec<usize> = pick.into_iter().filter(|&i| i < a.dim(0)).collect();
            let g = a.gather_rows(&idx);
            for (r, &i) in idx.iter().enumerate() {
                prop_assert_eq!(g.row(r), a.row(i));
            }
        }

        #[test]
        fn concat_rows_length(a in small_matrix(6)) {
            let c = Tensor::concat_rows(&[&a, &a]);
            prop_assert_eq!(c.dim(0), 2 * a.dim(0));
            prop_assert_eq!(c.dim(1), a.dim(1));
        }
    }
}
