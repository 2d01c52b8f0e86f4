//! Pins what every backend kind computes on fixed weights and images: a hash
//! of the logits' bits, the token count entering each block and the MAC
//! count of every image, and the cost profile's planned tokens and MACs.
//!
//! The parity suites compare two paths through the *same* code, so a change
//! that moves both paths at once passes them; this file compares against
//! numbers committed before the change. When an intended change moves them,
//! the failure message prints the whole table as it now reads.

use heatvit::{Backend, BackendKind, InferenceModel};
use heatvit_quant::{QuantPruneStage, QuantizedViT};
use heatvit_selector::gumbel::GumbelConfig;
use heatvit_selector::{
    PruneScratch, PrunedViT, StaticPrunedViT, StaticRule, StaticStage, TokenSelector,
};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{ClsAttnPrunedViT, TfStage, TokenMergeViT, TopKPrunedViT, TopKStage};
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

const IMAGES: usize = 8;
const BLOCKS: [usize; 2] = [1, 3];
const KEEPS: [f32; 2] = [0.7, 0.6];

fn images(count: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect()
}

fn build(kind: BackendKind) -> Backend {
    let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut StdRng::seed_from_u64(3));
    let stages = BLOCKS.into_iter().zip(KEEPS);
    match kind {
        BackendKind::Dense => Backend::from(backbone),
        BackendKind::AdaptivePruned => {
            let mut rng = StdRng::seed_from_u64(4);
            let (dim, heads) = (backbone.config().embed_dim, backbone.config().num_heads);
            // Untrained selectors score every token alike; a threshold at
            // the median score the dense model's tokens of one held-out
            // image get makes them keep a share that varies per image.
            let trace = backbone.infer_traced(&images(1, 5)[0]);
            let mut model = PrunedViT::new(backbone);
            for (block, keep) in stages {
                let tokens = &trace.block_tokens[block];
                let patches = tokens.slice_rows(1, tokens.dim(0));
                let mut selector = TokenSelector::new(dim, heads, &mut rng);
                let mut scores = selector.infer(&patches).keep_scores;
                scores.sort_by(f32::total_cmp);
                selector.set_gumbel(GumbelConfig {
                    threshold: scores[scores.len() / 2],
                    ..selector.gumbel()
                });
                model.insert_selector(block, selector);
                model.set_nominal_keep(block, keep);
            }
            Backend::from(model)
        }
        BackendKind::StaticPruned => Backend::from(StaticPrunedViT::new(
            backbone,
            stages
                .map(|(block, keep_ratio)| StaticStage { block, keep_ratio })
                .collect(),
            StaticRule::CliffAttention,
            0,
        )),
        BackendKind::ClsAttn => Backend::from(ClsAttnPrunedViT::new(
            backbone,
            stages
                .map(|(block, keep_ratio)| TfStage { block, keep_ratio })
                .collect(),
        )),
        BackendKind::TokenMerge => Backend::from(TokenMergeViT::new(
            backbone,
            stages
                .map(|(block, keep_ratio)| TfStage { block, keep_ratio })
                .collect(),
        )),
        BackendKind::TopK => Backend::from(TopKPrunedViT::new(
            backbone,
            vec![
                TopKStage { block: 2, keep: 12 },
                TopKStage { block: 4, keep: 7 },
            ],
        )),
        BackendKind::Int8Dense => {
            let mut model = QuantizedViT::from_float(&backbone);
            model.calibrate(&images(IMAGES, 5));
            Backend::from(model)
        }
        BackendKind::Int8Adaptive => {
            let stages = [2, 4]
                .map(|block| QuantPruneStage {
                    block,
                    attn_frac: 0.9,
                })
                .to_vec();
            let mut model = QuantizedViT::from_float(&backbone).with_prune_stages(stages);
            model.set_nominal_keep(&KEEPS);
            model.calibrate(&images(IMAGES, 5));
            Backend::from(model)
        }
    }
}

/// FNV-1a over the little-endian bytes of every logit's bit pattern.
fn fnv1a(logits: &[Tensor]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for bits in logits.iter().flat_map(|t| t.data()).map(|v| v.to_bits()) {
        for byte in bits.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// One kind's pinned numbers, rendered the way the table below is written.
fn observe(kind: BackendKind) -> String {
    let model = build(kind);
    let mut scratch = PruneScratch::default();
    let outputs: Vec<_> = images(IMAGES, 6)
        .iter()
        .map(|image| model.infer_one(image, &mut scratch))
        .collect();
    let logits: Vec<Tensor> = outputs.iter().map(|o| o.logits.clone()).collect();
    let profile = model.cost_profile();
    let mut out = format!("{kind} logits {:#018x}\n", fnv1a(&logits));
    for o in &outputs {
        writeln!(out, "{kind} image {:?} {}", o.tokens_per_block, o.macs).unwrap();
    }
    writeln!(
        out,
        "{kind} profile {:?} {}",
        profile.tokens_per_block, profile.macs
    )
    .unwrap();
    out
}

const GOLDEN: &str = "\
dense logits 0x337a02b1f4b10890
dense image [17, 17, 17, 17, 17, 17] 2194176
dense image [17, 17, 17, 17, 17, 17] 2194176
dense image [17, 17, 17, 17, 17, 17] 2194176
dense image [17, 17, 17, 17, 17, 17] 2194176
dense image [17, 17, 17, 17, 17, 17] 2194176
dense image [17, 17, 17, 17, 17, 17] 2194176
dense image [17, 17, 17, 17, 17, 17] 2194176
dense image [17, 17, 17, 17, 17, 17] 2194176
dense profile [17, 17, 17, 17, 17, 17] 2194176
adaptive-pruned logits 0x81eba7dcb6044813
adaptive-pruned image [17, 12, 12, 3, 3, 3] 1148292
adaptive-pruned image [17, 5, 5, 5, 5, 5] 974496
adaptive-pruned image [17, 3, 3, 3, 3, 3] 776016
adaptive-pruned image [17, 7, 7, 5, 5, 5] 1056072
adaptive-pruned image [17, 6, 6, 3, 3, 3] 896652
adaptive-pruned image [17, 8, 8, 3, 3, 3] 978996
adaptive-pruned image [17, 3, 3, 3, 3, 3] 776016
adaptive-pruned image [17, 6, 6, 3, 3, 3] 896652
adaptive-pruned profile [17, 14, 14, 12, 12, 12] 1786368
static-pruned logits 0xf6015c4add2948ce
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned image [17, 13, 13, 9, 9, 9] 1521408
static-pruned profile [17, 13, 13, 9, 9, 9] 1521408
cls-attn logits 0x4f72b48fdeed545c
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn image [17, 13, 13, 9, 9, 9] 1596576
cls-attn profile [17, 13, 13, 9, 9, 9] 1596576
token-merge logits 0xd831fb5f7c39f16a
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge image [17, 13, 13, 9, 9, 9] 1600416
token-merge profile [17, 13, 13, 9, 9, 9] 1600416
topk-attn logits 0xb14510bf4ebbafec
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn image [17, 17, 13, 13, 8, 8] 1794432
topk-attn profile [17, 17, 13, 13, 8, 8] 1794432
int8-dense logits 0x2d33db59dd8c41a5
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense image [17, 17, 17, 17, 17, 17] 1154829
int8-dense profile [17, 17, 17, 17, 17, 17] 1154829
int8-adaptive logits 0x79579c2436860ad9
int8-adaptive image [17, 17, 13, 13, 12, 12] 953432
int8-adaptive image [17, 17, 15, 15, 12, 12] 997895
int8-adaptive image [17, 17, 14, 14, 13, 13] 997491
int8-adaptive image [17, 17, 14, 14, 13, 13] 997491
int8-adaptive image [17, 17, 12, 12, 12, 12] 931503
int8-adaptive image [17, 17, 13, 13, 12, 12] 953432
int8-adaptive image [17, 17, 12, 12, 10, 10] 888253
int8-adaptive image [17, 17, 16, 16, 15, 15] 1086821
int8-adaptive profile [17, 17, 14, 14, 12, 12] 975562
";

#[test]
fn every_kind_reproduces_its_committed_outputs() {
    let observed: String = BackendKind::ALL.into_iter().map(observe).collect();
    assert!(
        observed == GOLDEN,
        "outputs moved; they now read:\n{observed}"
    );
}
