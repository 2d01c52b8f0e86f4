//! Per-kernel rows of the traced run: each public kernel of `tensor`, `nn`,
//! `vit` and `quant` timed on its own at the workload's geometry, so a
//! stage's time can be set beside the rate its GEMMs reach in isolation.
//! Every figure is the minimum over a fixed number of calls, restated at the
//! reference speed (see `host`).

use crate::host;
use crate::report::Metrics;
use heatvit_nn::layers::{layer_norm_project_into, Activation};
use heatvit_quant::approx::{
    gelu_approx_inplace, softmax_approx_rows_inplace, DEFAULT_DELTA1, DEFAULT_DELTA2,
};
use heatvit_quant::{qmatmul_transb_with, qmatmul_with, QTensor, QuantParams};
use heatvit_tensor::{GemmScratch, Tensor};
use heatvit_vit::{AttnScratch, InferScratch, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Multiply-accumulates one GEMM row spends across its timed calls.
const GEMM_WORK: u64 = 100_000_000;
/// Elements one elementwise row touches across its timed calls.
const ELEM_WORK: u64 = 4_000_000;

/// The GEMM shapes of one encoder block at a token count.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Tokens entering the block (class/package included).
    pub tokens: usize,
    /// Embedding width.
    pub dim: usize,
    /// MLP hidden width.
    pub hidden: usize,
    /// Width of one attention head.
    pub head_dim: usize,
    /// Patch rows of the patch-embedding GEMM.
    pub patches: usize,
    /// Flattened patch length (its reduction dimension).
    pub patch_dim: usize,
}

impl Shapes {
    /// The shapes of `backbone`'s blocks at `tokens` tokens.
    pub fn of(backbone: &VisionTransformer, tokens: usize) -> Self {
        let config = backbone.config();
        Self {
            tokens,
            dim: config.embed_dim,
            hidden: config.ffn_hidden(),
            head_dim: config.head_dim(),
            patches: config.num_patches(),
            patch_dim: config.patch_dim(),
        }
    }
}

/// Seconds, at the reference speed, of the fastest of `calls` calls of `f`
/// (the calls together take tens of milliseconds: one host state).
fn best_of(calls: usize, mut f: impl FnMut()) -> f64 {
    let (fastest, _, factor) = host::timed(|| {
        (0..calls.max(1))
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    });
    fastest * factor
}

fn calls_for(work: u64, per_call: u64) -> usize {
    (work / per_call.max(1)).clamp(5, 2000) as usize
}

fn random(dims: &[usize], rng: &mut StdRng) -> Tensor {
    Tensor::rand_normal(dims, 0.0, 1.0, rng)
}

/// GMAC/s of `a · b` (`[m, k] · [k, n]`) through `Tensor::matmul_with`, or
/// with `transb` of `a · bᵀ` (`[m, k] · [n, k]ᵀ`, the attention-score shape)
/// through `Tensor::matmul_transb_with`.
fn gemm_rate(m: usize, k: usize, n: usize, transb: bool, rng: &mut StdRng) -> f64 {
    let a = random(&[m, k], rng);
    let b = random(&if transb { [n, k] } else { [k, n] }, rng);
    let (mut gs, mut out) = (GemmScratch::default(), Tensor::default());
    let macs = (m * k * n) as u64;
    let secs = best_of(calls_for(GEMM_WORK, macs), || {
        if transb {
            a.matmul_transb_with(black_box(&b), &mut gs, &mut out);
        } else {
            a.matmul_with(black_box(&b), &mut gs, &mut out);
        }
        black_box(&out);
    });
    macs as f64 / secs / 1e9
}

/// GMAC/s of the beat's loop (see `host::tile_loop`) at the reference speed:
/// the ceiling the GEMM rows are shares of. A constant by construction —
/// the beat restated by itself — so `tensor.gemm.fc1.peak_share` is really
/// "fc1's rate over the beat's rate, measured in the same moments".
fn peak_rate() -> f64 {
    host::tile_macs(host::BEAT_STEPS) as f64 / host::REFERENCE_BEAT / 1e9
}

/// Nanoseconds per element of `f` over a tensor of `elems` elements.
fn ns_per_elem(elems: usize, mut f: impl FnMut()) -> f64 {
    best_of(calls_for(ELEM_WORK, elems as u64), &mut f) * 1e9 / elems.max(1) as f64
}

/// The `tensor.*`, `nn.*` and isolated `vit.*` rows at `shapes`, timed on
/// block 0 of `backbone` and on `image`.
pub fn float_rows(backbone: &VisionTransformer, image: &Tensor, shapes: Shapes, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(0x6E44);
    let Shapes {
        tokens: n,
        dim: d,
        hidden,
        head_dim: hd,
        patches,
        patch_dim,
    } = shapes;
    m.set(
        "tensor.gemm.patch.gmacs_per_s",
        gemm_rate(patches, patch_dim, d, false, &mut rng),
    );
    m.set(
        "tensor.gemm.proj.gmacs_per_s",
        gemm_rate(n, d, d, false, &mut rng),
    );
    let fc1 = gemm_rate(n, d, hidden, false, &mut rng);
    m.set("tensor.gemm.fc1.gmacs_per_s", fc1);
    m.set(
        "tensor.gemm.fc2.gmacs_per_s",
        gemm_rate(n, hidden, d, false, &mut rng),
    );
    m.set(
        "tensor.gemm.scores.gmacs_per_s",
        gemm_rate(n, hd, n, true, &mut rng),
    );
    m.set(
        "tensor.gemm.av.gmacs_per_s",
        gemm_rate(n, n, hd, false, &mut rng),
    );
    let peak = peak_rate();
    m.set("tensor.gemm.peak_gmacs_per_s", peak);
    m.set("tensor.gemm.fc1.peak_share", fc1 / peak);

    let scores = random(&[n, n], &mut rng);
    m.set(
        "tensor.softmax_rows.ns_per_elem",
        ns_per_elem(n * n, || {
            black_box(black_box(&scores).softmax_rows());
        }),
    );
    let x = random(&[n, d], &mut rng);
    // What a 0.7-keep stage gathers: a fixed, spread-out 70 % of the rows.
    let kept: Vec<usize> = (0..n).filter(|i| i % 10 < 7).collect();
    let mut gathered = Tensor::default();
    m.set(
        "tensor.gather_rows.ns_per_elem",
        ns_per_elem(kept.len() * d, || {
            black_box(&x).gather_rows_into(&kept, &mut gathered);
            black_box(&gathered);
        }),
    );

    let block = &backbone.blocks()[0];
    let mut normed = Tensor::default();
    m.set(
        "nn.layernorm.ns_per_elem",
        ns_per_elem(n * d, || {
            block.ln1().infer_into(black_box(&x), &mut normed);
            black_box(&normed);
        }),
    );
    let wide = random(&[n, hidden], &mut rng);
    let mut act = wide.clone();
    m.set(
        "nn.gelu.ns_per_elem",
        ns_per_elem(n * hidden, || {
            act.data_mut().copy_from_slice(wide.data());
            Activation::Gelu.apply_inplace(black_box(&mut act));
        }),
    );
    let attn = block.attention();
    let (mut gs, mut q, mut k, mut v) = (
        GemmScratch::default(),
        Tensor::default(),
        Tensor::default(),
        Tensor::default(),
    );
    let block_calls = calls_for(GEMM_WORK, block.macs(n));
    let ln_qkv = best_of(block_calls * 3, || {
        layer_norm_project_into(
            block.ln1(),
            &[attn.wq(), attn.wk(), attn.wv()],
            black_box(&x),
            &mut gs,
            &mut [&mut q, &mut k, &mut v],
        );
    });
    m.set("nn.ln_qkv.us", ln_qkv * 1e6);
    let (mut hidden_buf, mut out) = (Tensor::default(), Tensor::default());
    let mlp = best_of(block_calls * 2, || {
        block.ffn().infer_fused_ln_with(
            block.ln2(),
            black_box(&x),
            &mut gs,
            &mut hidden_buf,
            &mut out,
        );
    });
    m.set("nn.mlp.us", mlp * 1e6);

    let mut attn_scratch = AttnScratch::default();
    let attention = best_of(block_calls * 2, || {
        black_box(attn.infer_ln_with(block.ln1(), black_box(&x), None, &mut attn_scratch));
    });
    m.set("vit.attention.us", attention * 1e6);
    let mut scratch = InferScratch::default();
    let whole = best_of(block_calls, || {
        black_box(block.infer_with(black_box(&x), None, &mut scratch));
    });
    m.set("vit.block.us", whole * 1e6);
    m.set("vit.block.self_us", (whole - attention - mlp) * 1e6);
    let embed_calls = calls_for(GEMM_WORK, backbone.patch_embed().macs());
    let embed = best_of(embed_calls, || {
        black_box(backbone.patch_embed().infer(black_box(image)));
    });
    m.set("vit.patch_embed.us_per_image", embed * 1e6);
    let head = best_of(embed_calls * 4, || {
        black_box(backbone.classify_tokens_infer(black_box(&x)));
    });
    m.set("vit.head.us_per_image", head * 1e6);
}

fn quantized(dims: &[usize], rng: &mut StdRng) -> QTensor {
    QTensor::quantize(&random(dims, rng))
}

/// GMAC/s of the int8 product `[m, k] · [k, n]` through `qmatmul_with`, or
/// with `transb` of `[m, k] · [n, k]ᵀ` through `qmatmul_transb_with`.
fn qgemm_rate(m: usize, k: usize, n: usize, transb: bool, rng: &mut StdRng) -> f64 {
    let a = quantized(&[m, k], rng);
    let b = quantized(&if transb { [n, k] } else { [k, n] }, rng);
    let (mut pack, mut out) = (Vec::new(), Tensor::default());
    let macs = (m * k * n) as u64;
    let secs = best_of(calls_for(GEMM_WORK, macs), || {
        if transb {
            qmatmul_transb_with(black_box(&a), black_box(&b), &mut pack, &mut out);
        } else {
            qmatmul_with(black_box(&a), black_box(&b), &mut pack, &mut out);
        }
        black_box(&out);
    });
    macs as f64 / secs / 1e9
}

/// The `quant.*` kernel rows at `shapes`; `f32_fc1` is the float fc1 rate
/// the int8 one is compared with.
pub fn quant_rows(shapes: Shapes, f32_fc1: f64, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(0x1278);
    let Shapes {
        tokens: n,
        dim: d,
        hidden,
        head_dim: hd,
        ..
    } = shapes;
    m.set(
        "quant.qgemm.proj.gmacs_per_s",
        qgemm_rate(n, d, d, false, &mut rng),
    );
    let fc1 = qgemm_rate(n, d, hidden, false, &mut rng);
    m.set("quant.qgemm.fc1.gmacs_per_s", fc1);
    m.set(
        "quant.qgemm.fc2.gmacs_per_s",
        qgemm_rate(n, hidden, d, false, &mut rng),
    );
    m.set(
        "quant.qgemm.scores.gmacs_per_s",
        qgemm_rate(n, hd, n, true, &mut rng),
    );
    m.set(
        "quant.qgemm.av.gmacs_per_s",
        qgemm_rate(n, n, hd, false, &mut rng),
    );
    m.set("quant.qgemm_vs_f32.fc1", fc1 / f32_fc1);

    let x = random(&[n, d], &mut rng);
    let params = QuantParams::observe(&x);
    let mut qx = QTensor::quantize(&x);
    m.set(
        "quant.quantize.ns_per_elem",
        ns_per_elem(n * d, || {
            QTensor::quantize_with_into(black_box(&x), params, &mut qx);
            black_box(&qx);
        }),
    );
    let wide = random(&[n, hidden], &mut rng);
    let mut act = wide.clone();
    m.set(
        "quant.gelu_approx.ns_per_elem",
        ns_per_elem(n * hidden, || {
            act.data_mut().copy_from_slice(wide.data());
            gelu_approx_inplace(black_box(&mut act), DEFAULT_DELTA1);
        }),
    );
    let scores = random(&[n, n], &mut rng);
    let mut soft = scores.clone();
    m.set(
        "quant.softmax_approx.ns_per_elem",
        ns_per_elem(n * n, || {
            soft.data_mut().copy_from_slice(scores.data());
            softmax_approx_rows_inplace(black_box(&mut soft), DEFAULT_DELTA2);
        }),
    );
}
