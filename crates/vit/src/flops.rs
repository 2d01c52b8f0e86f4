//! Computational-complexity model of ViT blocks (paper Table II).
//!
//! The paper decomposes one encoder block into six GEMM-shaped layers and
//! derives `Total MACs = 4·N·D_ch·(h·D_attn) + 2·N²·(h·D_attn) + 8·N·D_ch·D_fc`
//! — the quantity every pruning decision trades against accuracy. This module
//! reproduces that accounting exactly and extends it to whole models with
//! per-block token counts (so pruned models can be costed).

use crate::ViTConfig;

/// The six layers of Table II, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockLayer {
    /// ① Q/K/V linear transformation: `N×D_ch → N×h·D_attn` (three GEMMs).
    LinearTransformation,
    /// ② Attention scores `Q·Kᵀ`: `N×h·D_attn → N×N` per head.
    QueryKey,
    /// ③ Attention context `(QKᵀ)·V`: `N×N → N×h·D_attn` per head.
    ScoreValue,
    /// ④ Output projection: `N×h·D_attn → N×D_ch`.
    Projection,
    /// ⑤ FFN expansion: `N×D_ch → N×4·D_fc`.
    FfnExpand,
    /// ⑥ FFN reduction: `N×4·D_fc → N×D_ch`.
    FfnReduce,
}

impl BlockLayer {
    /// All six layers in Table II order.
    pub const ALL: [BlockLayer; 6] = [
        BlockLayer::LinearTransformation,
        BlockLayer::QueryKey,
        BlockLayer::ScoreValue,
        BlockLayer::Projection,
        BlockLayer::FfnExpand,
        BlockLayer::FfnReduce,
    ];

    /// Display label matching the paper's row names.
    pub fn label(&self) -> &'static str {
        match self {
            BlockLayer::LinearTransformation => "Linear Transformation",
            BlockLayer::QueryKey => "Q x K^T",
            BlockLayer::ScoreValue => "QK^T x V",
            BlockLayer::Projection => "Projection",
            BlockLayer::FfnExpand => "FC Layer (expand)",
            BlockLayer::FfnReduce => "FC Layer (reduce)",
        }
    }
}

/// Geometry of one GEMM-shaped layer: `reps` independent products of an
/// `m × k` matrix with a `k × n` matrix.
///
/// This is the shape a tiled GEMM engine schedules (paper Fig. 8): the
/// attention layers run once per head (`reps = num_heads`), the projections
/// once per block. `reps · m · k · n` equals the corresponding
/// [`BlockComplexity`] MAC entry exactly, so a cycle model costed from these
/// shapes and the MAC model stay consistent by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmShape {
    /// Independent repetitions of the product (per-head layers repeat).
    pub reps: u64,
    /// Output rows.
    pub m: u64,
    /// Reduction depth.
    pub k: u64,
    /// Output columns.
    pub n: u64,
}

impl GemmShape {
    /// Total MACs of all `reps` products.
    pub fn macs(&self) -> u64 {
        self.reps * self.m * self.k * self.n
    }
}

impl BlockLayer {
    /// The GEMM geometry of this layer in a block processing `tokens`
    /// tokens (see [`GemmShape`]; `reps · m · k · n` matches
    /// [`BlockComplexity::layer`] exactly).
    pub fn gemm_shape(&self, config: &ViTConfig, tokens: usize) -> GemmShape {
        let n = tokens as u64;
        let dch = config.embed_dim as u64;
        let h = config.num_heads as u64;
        let dattn = config.head_dim() as u64;
        let hidden = config.ffn_hidden() as u64;
        match self {
            // Three projections (Q, K, V), each N×D_ch · D_ch×(h·D_attn).
            BlockLayer::LinearTransformation => GemmShape {
                reps: 3,
                m: n,
                k: dch,
                n: h * dattn,
            },
            // Per head: N×D_attn · D_attn×N.
            BlockLayer::QueryKey => GemmShape {
                reps: h,
                m: n,
                k: dattn,
                n,
            },
            // Per head: N×N · N×D_attn.
            BlockLayer::ScoreValue => GemmShape {
                reps: h,
                m: n,
                k: n,
                n: dattn,
            },
            BlockLayer::Projection => GemmShape {
                reps: 1,
                m: n,
                k: h * dattn,
                n: dch,
            },
            BlockLayer::FfnExpand => GemmShape {
                reps: 1,
                m: n,
                k: dch,
                n: hidden,
            },
            BlockLayer::FfnReduce => GemmShape {
                reps: 1,
                m: n,
                k: hidden,
                n: dch,
            },
        }
    }
}

/// The patch-embedding projection as a GEMM
/// (`num_patches × patch_dim · patch_dim × embed_dim`).
pub fn patch_embed_gemm(config: &ViTConfig) -> GemmShape {
    GemmShape {
        reps: 1,
        m: config.num_patches() as u64,
        k: config.patch_dim() as u64,
        n: config.embed_dim as u64,
    }
}

/// The classification head as a GEMM (`1 × embed_dim · embed_dim × classes`).
pub fn head_gemm(config: &ViTConfig) -> GemmShape {
    GemmShape {
        reps: 1,
        m: 1,
        k: config.embed_dim as u64,
        n: config.num_classes as u64,
    }
}

/// Per-layer MAC counts of one encoder block with `n` tokens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockComplexity {
    /// Token count the block was costed at.
    pub tokens: usize,
    /// MACs per [`BlockLayer`], in Table II order.
    pub layer_macs: [u64; 6],
}

impl BlockComplexity {
    /// Costs one block of `config` processing `n` tokens.
    pub fn new(config: &ViTConfig, n: usize) -> Self {
        let n = n as u64;
        let dch = config.embed_dim as u64;
        let h = config.num_heads as u64;
        let dattn = config.head_dim() as u64;
        // In DeiT D_fc = D_ch and the FFN hidden width is mlp_ratio·D_fc;
        // Table II assumes ratio 4, we keep the ratio explicit.
        let hidden = config.ffn_hidden() as u64;
        Self {
            tokens: n as usize,
            layer_macs: [
                3 * n * dch * (h * dattn), // ① three QKV projections
                n * n * (h * dattn),       // ②
                n * n * (h * dattn),       // ③
                n * (h * dattn) * dch,     // ④
                n * dch * hidden,          // ⑤
                n * hidden * dch,          // ⑥
            ],
        }
    }

    /// Total MACs of the block.
    pub fn total(&self) -> u64 {
        self.layer_macs.iter().sum()
    }

    /// MACs of one layer.
    pub fn layer(&self, layer: BlockLayer) -> u64 {
        let idx = BlockLayer::ALL.iter().position(|l| *l == layer).unwrap();
        self.layer_macs[idx]
    }

    /// The paper's closed form
    /// `4·N·D_ch·(h·D_attn) + 2·N²·(h·D_attn) + 2·N·D_ch·hidden`.
    pub fn closed_form(config: &ViTConfig, n: usize) -> u64 {
        let n = n as u64;
        let dch = config.embed_dim as u64;
        let hd = (config.num_heads * config.head_dim()) as u64;
        let hidden = config.ffn_hidden() as u64;
        4 * n * dch * hd + 2 * n * n * hd + 2 * n * dch * hidden
    }
}

/// Whole-model complexity with a per-block token schedule.
#[derive(Debug, Clone)]
pub struct ModelComplexity {
    /// The costed configuration.
    pub config: ViTConfig,
    /// One entry per block.
    pub blocks: Vec<BlockComplexity>,
    /// Patch-embedding MACs.
    pub patch_embed_macs: u64,
    /// Classification-head MACs.
    pub head_macs: u64,
}

impl ModelComplexity {
    /// Costs a model whose block `i` processes `tokens_per_block[i]` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `tokens_per_block.len() != config.depth`.
    pub fn with_schedule(config: &ViTConfig, tokens_per_block: &[usize]) -> Self {
        assert_eq!(
            tokens_per_block.len(),
            config.depth,
            "one token count per block required"
        );
        let blocks = tokens_per_block
            .iter()
            .map(|&n| BlockComplexity::new(config, n))
            .collect();
        Self {
            config: config.clone(),
            blocks,
            patch_embed_macs: (config.num_patches() * config.patch_dim() * config.embed_dim) as u64,
            head_macs: (config.embed_dim * config.num_classes) as u64,
        }
    }

    /// Costs the unpruned model (full tokens in every block).
    pub fn dense(config: &ViTConfig) -> Self {
        Self::with_schedule(config, &vec![config.num_tokens(); config.depth])
    }

    /// Costs a pruned model given per-stage keep ratios.
    ///
    /// `stage_keep` maps block index → cumulative keep ratio from that block
    /// on (the paper's `Keep Ratio (Stage 1/2/3)` notation: ratios apply from
    /// the stage's first block until the next stage). Block token counts are
    /// `ceil(keep · N_patches) + 1 + 1` — surviving patch tokens plus the
    /// class token plus the package token once pruning has begun.
    ///
    /// # Panics
    ///
    /// Panics if a stage index is out of range or a ratio is outside `(0, 1]`.
    #[cfg(test)]
    fn with_stage_keep_ratios(config: &ViTConfig, stage_keep: &[(usize, f32)]) -> Self {
        let mut keep = vec![1.0f32; config.depth];
        for &(block, ratio) in stage_keep {
            assert!(block < config.depth, "stage start block out of range");
            assert!(ratio > 0.0 && ratio <= 1.0, "keep ratio must be in (0, 1]");
            for k in keep.iter_mut().skip(block) {
                *k = ratio;
            }
        }
        let n_patches = config.num_patches() as f32;
        let tokens: Vec<usize> = keep
            .iter()
            .map(|&k| {
                let kept = (k * n_patches).ceil() as usize;
                let package = usize::from(k < 1.0);
                kept + 1 + package
            })
            .collect();
        Self::with_schedule(config, &tokens)
    }

    /// Total MACs across the whole model.
    pub fn total_macs(&self) -> u64 {
        self.patch_embed_macs + self.head_macs + self.blocks.iter().map(|b| b.total()).sum::<u64>()
    }

    /// Total in GMACs (the unit used throughout the paper).
    pub fn gmacs(&self) -> f64 {
        self.total_macs() as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_total_matches_closed_form() {
        for cfg in [
            ViTConfig::deit_tiny(),
            ViTConfig::deit_small(),
            ViTConfig::deit_base(),
        ] {
            for n in [50, 100, cfg.num_tokens()] {
                let b = BlockComplexity::new(&cfg, n);
                assert_eq!(
                    b.total(),
                    BlockComplexity::closed_form(&cfg, n),
                    "mismatch for {} at N={n}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn deit_models_match_published_gmacs() {
        // Published GMACs: DeiT-T 1.3, DeiT-S 4.6, DeiT-B 17.6 (paper Fig. 2
        // and Table VI report the same values).
        let cases = [
            (ViTConfig::deit_tiny(), 1.30),
            (ViTConfig::deit_small(), 4.60),
            (ViTConfig::deit_base(), 17.60),
        ];
        for (cfg, expect) in cases {
            let g = ModelComplexity::dense(&cfg).gmacs();
            let rel = (g - expect).abs() / expect;
            // Published numbers are rounded to two significant figures
            // (e.g. DeiT-T's exact MAC count is 1.254 G, reported as 1.3).
            assert!(
                rel < 0.05,
                "{}: model says {g:.3} GMACs, paper says {expect}",
                cfg.name
            );
        }
    }

    #[test]
    fn gemm_shapes_reproduce_layer_macs_exactly() {
        for cfg in [
            ViTConfig::deit_tiny(),
            ViTConfig::deit_small(),
            ViTConfig::deit_base(),
        ] {
            for n in [50, cfg.num_tokens()] {
                let b = BlockComplexity::new(&cfg, n);
                for layer in BlockLayer::ALL {
                    assert_eq!(
                        layer.gemm_shape(&cfg, n).macs(),
                        b.layer(layer),
                        "{} at N={n}: GEMM geometry diverged from the MAC model",
                        layer.label()
                    );
                }
            }
            let dense = ModelComplexity::dense(&cfg);
            assert_eq!(patch_embed_gemm(&cfg).macs(), dense.patch_embed_macs);
            assert_eq!(head_gemm(&cfg).macs(), dense.head_macs);
        }
    }

    #[test]
    fn attention_layers_scale_quadratically() {
        let cfg = ViTConfig::deit_small();
        let b1 = BlockComplexity::new(&cfg, 100);
        let b2 = BlockComplexity::new(&cfg, 200);
        assert_eq!(
            b2.layer(BlockLayer::QueryKey),
            4 * b1.layer(BlockLayer::QueryKey)
        );
        assert_eq!(
            b2.layer(BlockLayer::FfnExpand),
            2 * b1.layer(BlockLayer::FfnExpand)
        );
    }

    #[test]
    fn ffn_dominates_deit_block() {
        // Paper Section II-E: FFN is ~65% of total compute; heads contribute
        // less than 43%.
        let cfg = ViTConfig::deit_small();
        let b = BlockComplexity::new(&cfg, cfg.num_tokens());
        let ffn = b.layer(BlockLayer::FfnExpand) + b.layer(BlockLayer::FfnReduce);
        let frac = ffn as f64 / b.total() as f64;
        assert!(frac > 0.5 && frac < 0.75, "FFN fraction {frac}");
    }

    #[test]
    fn stage_ratios_reproduce_paper_pruned_gmacs() {
        // Table VI: DeiT-S at stage keep ratios 0.70/0.39/0.21 (stages begin
        // at blocks 3/6/9) is reported as 2.64 GMACs.
        let cfg = ViTConfig::deit_small();
        let pruned =
            ModelComplexity::with_stage_keep_ratios(&cfg, &[(3, 0.70), (6, 0.39), (9, 0.21)]);
        let g = pruned.gmacs();
        assert!(
            (g - 2.64).abs() / 2.64 < 0.08,
            "pruned DeiT-S expected ≈2.64 GMACs, got {g:.3}"
        );
    }

    #[test]
    fn pruning_reduces_cost_monotonically() {
        let cfg = ViTConfig::deit_tiny();
        let dense = ModelComplexity::dense(&cfg).total_macs();
        let mild = ModelComplexity::with_stage_keep_ratios(&cfg, &[(3, 0.9)]).total_macs();
        let heavy = ModelComplexity::with_stage_keep_ratios(&cfg, &[(3, 0.5)]).total_macs();
        assert!(dense > mild && mild > heavy);
    }

    #[test]
    #[should_panic(expected = "keep ratio")]
    fn invalid_ratio_rejected() {
        ModelComplexity::with_stage_keep_ratios(&ViTConfig::deit_tiny(), &[(3, 0.0)]);
    }
}
