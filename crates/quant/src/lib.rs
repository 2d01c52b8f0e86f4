//! # heatvit-quant
//!
//! The 8-bit integer arithmetic path of the
//! [HeatViT](https://arxiv.org/abs/2211.08110) reproduction (paper
//! Section V):
//!
//! * [`QuantParams`] / [`QTensor`] — symmetric int8 fixed-point
//!   quantization with max-abs calibration, plus [`fake_quantize`] for
//!   accuracy studies without integer kernels;
//! * [`qmatmul`] / [`qmatmul_transb`] / [`QLinear`] — `i8 × i8 → i32` GEMM
//!   with float rescaling (plus allocation-free `_with` forms), the
//!   arithmetic the FPGA's DSP-packed GEMM engine performs;
//! * [`approx`] — polynomial replacements for `erf`/GELU (Eqs. 11–12),
//!   shift-based softmax exponentiation (Eqs. 13–14), and the PLAN sigmoid,
//!   all with the paper's `δ < 1` regularization factors;
//! * [`QuantizedViT`] — the whole backbone on the integer pipeline:
//!   [`QLinear`] projections, int8 attention products, approximated
//!   GELU/softmax, static-scale [`QuantizedViT::calibrate`] with dynamic
//!   max-abs fallback, optional adaptive token pruning through the shared
//!   `heatvit_vit::TokenPolicy` loop, and packed-DSP-equivalent MAC
//!   accounting ([`DSP_PACKING_FACTOR`]);
//! * [`error`] — the Section V-E quantization-error-contraction analysis
//!   (Eqs. 15–17, Fig. 10): machinery to verify that the regularized
//!   nonlinearities keep error amplification below one.
//!
//! ## Example
//!
//! ```
//! use heatvit_quant::{qmatmul, QTensor};
//! use heatvit_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
//! let q = qmatmul(&QTensor::quantize(&a), &QTensor::quantize(&b));
//! // Int8 roundtrip through an identity GEMM stays within one scale step.
//! assert!(q.max_abs_diff(&a) <= QTensor::quantize(&a).params().scale);
//! ```

#![warn(missing_docs)]

pub mod approx;
pub mod error;
mod qgemm;
mod qtensor;
mod qvit;
mod scratch;

pub use qgemm::{
    int8_kernel, qmatmul, qmatmul_transb, qmatmul_transb_with, qmatmul_with, qpack_b, qpack_b_t,
    qpacked_len, QLinear, QMR, QNR,
};
pub use qtensor::{fake_quantize, QTensor, QuantParams};
pub use qvit::{packed_macs, QuantPruneStage, QuantizedViT, DSP_PACKING_FACTOR};
pub use scratch::QuantScratch;
