//! Dense GEMM vs. pruned-repacked GEMM.
//!
//! The core hardware argument of HeatViT: after token pruning, gathering the
//! surviving rows into a smaller dense matrix keeps the GEMM engine fully
//! utilized (paper Fig. 9). This bench measures the DeiT-T-shaped QKV
//! projection GEMM at the full 197-token count, at a 60%-kept repacked
//! count, and the repack (gather) cost itself — plus the other hot ViT
//! shapes the packed microkernels target: the MLP fc1 expansion
//! (197×192 · 192×768), the per-head attention-score product Q·Kᵀ, and the
//! int8 counterparts of all three. `matmul`/`qmatmul_with` pack `B` on every
//! call; the two `pre-packed` entries run the fc1 product through a
//! `Linear`/`QLinear`, whose weight is packed once (what the models run).
//! The README's "Kernel performance" table is produced from these entries.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heatvit_bench::token_matrix;
use heatvit_nn::layers::Linear;
use heatvit_quant::{qmatmul_transb_with, qmatmul_with, QLinear, QTensor};
use heatvit_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

const TOKENS: usize = 197;
const DIM: usize = 192;
/// MLP hidden width of the DeiT-T-shaped block (4× expansion).
const HIDDEN: usize = 4 * DIM;
/// Per-head width of the attention-score product (192 / 3 heads).
const HEAD_DIM: usize = 64;

fn kept_indices(frac: f64) -> Vec<usize> {
    let kept = (TOKENS as f64 * frac) as usize;
    (0..kept).map(|i| i * TOKENS / kept).collect()
}

fn bench_dense_gemm(c: &mut Criterion) {
    let x = token_matrix(TOKENS, DIM, 0);
    let w = token_matrix(DIM, DIM, 1);
    c.bench_function("gemm/dense 197x192 . 192x192", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)))
    });
}

fn bench_repacked_gemm(c: &mut Criterion) {
    let x = token_matrix(TOKENS, DIM, 0);
    let w = token_matrix(DIM, DIM, 1);
    let keep = kept_indices(0.6);
    let repacked = x.gather_rows(&keep);
    c.bench_function("gemm/repacked 118x192 . 192x192", |b| {
        b.iter(|| black_box(&repacked).matmul(black_box(&w)))
    });
    c.bench_function("gemm/repack gather 197->118 rows", |b| {
        let mut out = Tensor::default();
        b.iter(|| {
            black_box(&x).gather_rows_into(black_box(&keep), &mut out);
        })
    });
}

fn bench_attention_scores(c: &mut Criterion) {
    let q = token_matrix(TOKENS, HEAD_DIM, 2);
    let k = token_matrix(TOKENS, HEAD_DIM, 3);
    c.bench_function("gemm/attention scores Q.K^T 197x64", |b| {
        b.iter(|| black_box(&q).matmul_transb(black_box(&k)))
    });
}

fn bench_mlp_fc1_gemm(c: &mut Criterion) {
    let x = token_matrix(TOKENS, DIM, 4);
    let w = token_matrix(DIM, HIDDEN, 5);
    c.bench_function("gemm/mlp fc1 197x192 . 192x768", |b| {
        b.iter(|| black_box(&x).matmul(black_box(&w)))
    });
    let fc1 = Linear::from_tensors(w, None);
    let mut out = Tensor::default();
    c.bench_function("gemm/linear fc1 pre-packed 197x192 . 192x768", |b| {
        b.iter(|| fc1.infer_into(black_box(&x), &mut out))
    });
}

fn bench_int8_gemm(c: &mut Criterion) {
    let x = QTensor::quantize(&token_matrix(TOKENS, DIM, 6));
    let w = QTensor::quantize(&token_matrix(DIM, DIM, 7));
    let w_fc1 = QTensor::quantize(&token_matrix(DIM, HIDDEN, 8));
    let q = QTensor::quantize(&token_matrix(TOKENS, HEAD_DIM, 9));
    let k = QTensor::quantize(&token_matrix(TOKENS, HEAD_DIM, 10));
    let mut pack = Vec::new();
    let mut out = Tensor::default();
    c.bench_function("gemm/int8 dense 197x192 . 192x192", |b| {
        b.iter(|| qmatmul_with(black_box(&x), black_box(&w), &mut pack, &mut out))
    });
    c.bench_function("gemm/int8 mlp fc1 197x192 . 192x768", |b| {
        b.iter(|| qmatmul_with(black_box(&x), black_box(&w_fc1), &mut pack, &mut out))
    });
    c.bench_function("gemm/int8 attn scores Q.K^T 197x64", |b| {
        b.iter(|| qmatmul_transb_with(black_box(&q), black_box(&k), &mut pack, &mut out))
    });
    let fc1 = QLinear::from_linear(&Linear::new(
        DIM,
        HIDDEN,
        false,
        &mut StdRng::seed_from_u64(11),
    ));
    c.bench_function("gemm/int8 qlinear fc1 pre-packed 197x192 . 192x768", |b| {
        b.iter(|| fc1.infer_quantized_into(black_box(&x), &mut out))
    });
}

criterion_group!(
    benches,
    bench_dense_gemm,
    bench_repacked_gemm,
    bench_attention_scores,
    bench_mlp_fc1_gemm,
    bench_int8_gemm,
);
criterion_main!(benches);
