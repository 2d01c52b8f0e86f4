//! The int8 Vision Transformer: every projection through [`QLinear`], every
//! attention product through the integer GEMM, every nonlinearity through
//! the paper's polynomial approximations (Section V, Eqs. 11–14).
//!
//! [`QuantizedViT`] is built *from* a float [`VisionTransformer`] — weights
//! are max-abs quantized once at construction — and mirrors the I-BERT-style
//! integer pipeline HeatViT inherits: `i8×i8→i32` GEMMs rescaled to float,
//! float layer norms and residuals (the components HeatViT leaves on the ARM
//! CPU), [`gelu_approx`](crate::approx::gelu_approx) in the MLP and
//! [`softmax_approx_rows`](crate::approx::softmax_approx_rows) in attention.
//!
//! Activation quantization is **dynamic** (per-tensor max-abs) out of the
//! box and **static** after [`QuantizedViT::calibrate`] records per-layer
//! ranges from a held-out batch — the deployment mode, where no float
//! reduction runs on the accelerator's datapath.
//!
//! The model is the int8 [`BlockDomain`] and its own [`TokenPolicy`]:
//! inference, adaptive pruning and calibration all run the one loop in
//! `heatvit-vit`, which embeds, repacks, appends the Eq. 10 package token and
//! classifies the same way for every variant. This module supplies the int8
//! blocks and the attention-threshold decision.
//!
//! MAC accounting is int8-aware: the domain charges *packed-DSP-equivalent*
//! MACs, raw divided by [`DSP_PACKING_FACTOR`] (~1.9×), because the FPGA
//! packs two int8 MACs into one DSP slice (paper Section V-C) — the number
//! the `heatvit-fpga` cycle model charges.

use crate::approx::{gelu_approx_inplace, softmax_approx_rows_inplace};
use crate::qgemm::{qmatmul_transb_with, qmatmul_with, QLinear};
use crate::qtensor::{QTensor, QuantParams};
use crate::scratch::QuantScratch;
use heatvit_nn::layers::LayerNorm;
use heatvit_tensor::Tensor;
use heatvit_vit::flops::BlockComplexity;
use heatvit_vit::{
    image_to_patches_into, nominal_tokens, package_tokens_into, validate_stage_blocks, BlockDomain,
    EncoderBlock, PolicyScratch, PrunedInference, StageInput, StageScratch, TokenPolicy, ViTConfig,
    VisionTransformer,
};

/// Effective int8 speedup from DSP packing: the accelerator fits two int8
/// MACs per DSP slice, for a measured ~1.9× throughput gain over fp16/fp32
/// MACs (paper Section V-C). The `heatvit-fpga` cycle model consumes the
/// same factor.
pub const DSP_PACKING_FACTOR: f64 = 1.9;

/// Converts a raw MAC count into packed-DSP-equivalent MACs — the cost an
/// int8 datapath is actually charged.
pub fn packed_macs(raw: u64) -> u64 {
    (raw as f64 / DSP_PACKING_FACTOR).round() as u64
}

/// One adaptive pruning stage of the quantized model.
///
/// In front of `block`, patch tokens whose mean class-token attention (from
/// the previous block's *approximated* softmax) falls below
/// `attn_frac × (row mean)` are pruned and consolidated into a package
/// token. The keep count is input-dependent — the quantized counterpart of
/// the selector-driven adaptive pruning, using the attention scores the int8
/// pipeline already produces instead of a float classifier.
#[derive(Debug, Clone, Copy)]
pub struct QuantPruneStage {
    /// Block index the stage precedes (must be ≥ 1: the rule consumes the
    /// previous block's class-token attention).
    pub block: usize,
    /// Pruning threshold as a fraction of the mean class-token attention,
    /// in `(0, 1]`. Smaller values prune fewer tokens.
    pub attn_frac: f32,
}

/// Running max-abs observer for one activation-quantization site.
#[derive(Debug, Clone, Copy, Default)]
struct AbsMax(f32);

impl AbsMax {
    fn observe(&mut self, t: &Tensor) {
        for &v in t.data() {
            self.0 = self.0.max(v.abs());
        }
    }

    fn params(self) -> QuantParams {
        QuantParams::from_abs_max(self.0)
    }
}

/// Calibration accumulators for one block's seven activation sites.
#[derive(Debug, Clone, Copy, Default)]
struct BlockCalib {
    qkv_in: AbsMax,
    q: AbsMax,
    k: AbsMax,
    v: AbsMax,
    proj_in: AbsMax,
    fc1_in: AbsMax,
    fc2_in: AbsMax,
}

/// Whole-model calibration accumulators.
#[derive(Debug, Clone)]
pub(crate) struct ModelCalib {
    patch_in: AbsMax,
    head_in: AbsMax,
    blocks: Vec<BlockCalib>,
}

impl ModelCalib {
    fn new(depth: usize) -> Self {
        Self {
            patch_in: AbsMax::default(),
            head_in: AbsMax::default(),
            blocks: vec![BlockCalib::default(); depth],
        }
    }
}

/// Static activation scales for the per-head attention operands, recorded
/// over the full `[N, D]` projection tensors during calibration.
#[derive(Debug, Clone, Copy)]
struct AttnActParams {
    q: QuantParams,
    k: QuantParams,
    v: QuantParams,
}

/// `dst += src`, elementwise: `Tensor::add` without the new tensor (each
/// element is the same `dst + src` sum).
///
/// # Panics
///
/// Panics if the shapes differ — for the position embeddings, an image that
/// does not match the model's patch grid.
fn add_in_place(dst: &mut Tensor, src: &Tensor) {
    assert_eq!(dst.dims(), src.dims(), "shapes must match to add");
    for (d, &s) in dst.data_mut().iter_mut().zip(src.data()) {
        *d += s;
    }
}

/// One encoder block on the integer pipeline.
#[derive(Debug, Clone)]
struct QuantizedBlock {
    ln1: LayerNorm,
    ln2: LayerNorm,
    wq: QLinear,
    wk: QLinear,
    wv: QLinear,
    proj: QLinear,
    fc1: QLinear,
    fc2: QLinear,
    num_heads: usize,
    head_dim: usize,
    attn_acts: Option<AttnActParams>,
}

impl QuantizedBlock {
    fn from_block(block: &EncoderBlock) -> Self {
        let attn = block.attention();
        Self {
            ln1: block.ln1().clone(),
            ln2: block.ln2().clone(),
            wq: QLinear::from_linear(attn.wq()),
            wk: QLinear::from_linear(attn.wk()),
            wv: QLinear::from_linear(attn.wv()),
            proj: QLinear::from_linear(attn.proj()),
            fc1: QLinear::from_linear(block.ffn().fc1()),
            fc2: QLinear::from_linear(block.ffn().fc2()),
            num_heads: attn.num_heads(),
            head_dim: attn.head_dim(),
            attn_acts: None,
        }
    }

    /// One block forward on the integer pipeline, in place on `tokens`.
    /// Leaves the block's mean class-token attention (per patch token,
    /// averaged over heads) in `scratch.cls_attn` for the adaptive pruning
    /// stages.
    fn infer_with(
        &self,
        delta1: f32,
        delta2: f32,
        tokens: &mut Tensor,
        scratch: &mut QuantScratch,
        mut calib: Option<&mut BlockCalib>,
    ) {
        let n = tokens.dim(0);
        let dim = self.num_heads * self.head_dim;
        // With calibrated activation scales (and no observer attached) the
        // layer norm fuses with quantization: normalized tiles are quantized
        // as they are produced, one int8 staging pass serves all three Q/K/V
        // GEMMs, and the normalized float activations never materialize.
        // Bit-identical to the unfused path — the per-element layer-norm and
        // quantize arithmetic is unchanged, only the staging differs.
        let qkv_static = (calib.is_none())
            .then(|| self.wq.activation_params())
            .flatten();
        if let Some(params) = qkv_static {
            debug_assert_eq!(Some(params), self.wk.activation_params());
            debug_assert_eq!(Some(params), self.wv.activation_params());
            let fill = scratch.qa.start_fill(&[n, dim], params);
            self.ln1
                .infer_tiles(tokens, 8, &mut scratch.ln_tile, |_r0, _nr, t| {
                    fill.extend(t.iter().map(|&v| params.quantize(v)));
                });
            self.wq.infer_quantized_into(&scratch.qa, &mut scratch.q);
            self.wk.infer_quantized_into(&scratch.qa, &mut scratch.k);
            self.wv.infer_quantized_into(&scratch.qa, &mut scratch.v);
        } else {
            self.ln1.infer_into(tokens, &mut scratch.normed);
            if let Some(c) = calib.as_deref_mut() {
                c.qkv_in.observe(&scratch.normed);
            }
            self.wq
                .infer_into(&scratch.normed, &mut scratch.qa, &mut scratch.q);
            self.wk
                .infer_into(&scratch.normed, &mut scratch.qa, &mut scratch.k);
            self.wv
                .infer_into(&scratch.normed, &mut scratch.qa, &mut scratch.v);
        }
        if let Some(c) = calib.as_deref_mut() {
            c.q.observe(&scratch.q);
            c.k.observe(&scratch.k);
            c.v.observe(&scratch.v);
        }
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // The approximated softmax output lives in [0, δ₂] by construction,
        // so its quantization scale is static even in dynamic mode.
        let attn_params = QuantParams::from_abs_max(delta2);
        scratch.heads.reset_unspecified(&[n, dim]);
        scratch.cls_attn.clear();
        scratch.cls_attn.resize(n.saturating_sub(1), 0.0);
        for h in 0..self.num_heads {
            let (lo, hi) = (h * self.head_dim, (h + 1) * self.head_dim);
            scratch.q.slice_cols_into(lo, hi, &mut scratch.qh);
            scratch.k.slice_cols_into(lo, hi, &mut scratch.kh);
            scratch.v.slice_cols_into(lo, hi, &mut scratch.vh);
            let (qp, kp, vp) = match &self.attn_acts {
                Some(a) => (a.q, a.k, a.v),
                None => (
                    QuantParams::observe(&scratch.qh),
                    QuantParams::observe(&scratch.kh),
                    QuantParams::observe(&scratch.vh),
                ),
            };
            // Scores: int8 Q·Kᵀ, rescaled, approximated softmax in place.
            QTensor::quantize_with_into(&scratch.qh, qp, &mut scratch.qa);
            QTensor::quantize_with_into(&scratch.kh, kp, &mut scratch.qb);
            qmatmul_transb_with(
                &scratch.qa,
                &scratch.qb,
                &mut scratch.pack,
                &mut scratch.scores,
            );
            for s in scratch.scores.data_mut() {
                *s *= scale;
            }
            softmax_approx_rows_inplace(&mut scratch.scores, delta2);
            let cls_row = &scratch.scores.row(0)[1..];
            for (a, &s) in scratch.cls_attn.iter_mut().zip(cls_row) {
                *a += s;
            }
            // Context: int8 attn·V, written into this head's column band.
            QTensor::quantize_with_into(&scratch.scores, attn_params, &mut scratch.qa);
            QTensor::quantize_with_into(&scratch.vh, vp, &mut scratch.qb);
            qmatmul_with(
                &scratch.qa,
                &scratch.qb,
                &mut scratch.pack,
                &mut scratch.head_out,
            );
            let (head_out, heads) = (&scratch.head_out, &mut scratch.heads);
            let width = self.head_dim;
            for r in 0..n {
                heads.data_mut()[r * dim + lo..r * dim + hi]
                    .copy_from_slice(&head_out.data()[r * width..(r + 1) * width]);
            }
        }
        for a in scratch.cls_attn.iter_mut() {
            *a /= self.num_heads as f32;
        }
        if let Some(c) = calib.as_deref_mut() {
            c.proj_in.observe(&scratch.heads);
        }
        self.proj
            .infer_into(&scratch.heads, &mut scratch.qa, &mut scratch.attn_out);
        // First residual, in place: `attn_out` becomes `x₁ = attn_out + x`.
        add_in_place(&mut scratch.attn_out, tokens);
        // Same fusion for the pre-FFN norm feeding fc1.
        let fc1_static = (calib.is_none())
            .then(|| self.fc1.activation_params())
            .flatten();
        if let Some(params) = fc1_static {
            let fill = scratch
                .qa
                .start_fill(&[n, self.fc1.weight().dim(0)], params);
            self.ln2
                .infer_tiles(&scratch.attn_out, 8, &mut scratch.ln_tile, |_r0, _nr, t| {
                    fill.extend(t.iter().map(|&v| params.quantize(v)));
                });
            self.fc1
                .infer_quantized_into(&scratch.qa, &mut scratch.ffn_hidden);
        } else {
            self.ln2.infer_into(&scratch.attn_out, &mut scratch.normed);
            if let Some(c) = calib.as_deref_mut() {
                c.fc1_in.observe(&scratch.normed);
            }
            self.fc1
                .infer_into(&scratch.normed, &mut scratch.qa, &mut scratch.ffn_hidden);
        }
        gelu_approx_inplace(&mut scratch.ffn_hidden, delta1);
        if let Some(c) = calib {
            c.fc2_in.observe(&scratch.ffn_hidden);
        }
        self.fc2
            .infer_into(&scratch.ffn_hidden, &mut scratch.qa, &mut scratch.ffn_out);
        // Second residual, into the token matrix: `ffn_out + x₁`.
        for ((t, &f), &x1) in tokens
            .data_mut()
            .iter_mut()
            .zip(scratch.ffn_out.data())
            .zip(scratch.attn_out.data())
        {
            *t = f + x1;
        }
    }

    fn apply_calibration(&mut self, c: &BlockCalib) {
        self.wq.set_activation_params(c.qkv_in.params());
        self.wk.set_activation_params(c.qkv_in.params());
        self.wv.set_activation_params(c.qkv_in.params());
        self.proj.set_activation_params(c.proj_in.params());
        self.fc1.set_activation_params(c.fc1_in.params());
        self.fc2.set_activation_params(c.fc2_in.params());
        self.attn_acts = Some(AttnActParams {
            q: c.q.params(),
            k: c.k.params(),
            v: c.v.params(),
        });
    }
}

/// The int8 patch embedding: quantized projection, float class token and
/// position embeddings (parameters, added once — no datapath GEMM).
#[derive(Debug, Clone)]
struct QPatchEmbed {
    proj: QLinear,
    cls_token: Tensor,
    pos_embed: Tensor,
    patch_size: usize,
}

/// An int8 implementation of the ViT family: [`QLinear`] projections,
/// integer attention products, approximated GELU/softmax, optional adaptive
/// token pruning, and packed-DSP MAC accounting.
///
/// # Examples
///
/// ```
/// use heatvit_quant::QuantizedViT;
/// use heatvit_tensor::Tensor;
/// use heatvit_vit::{ViTConfig, VisionTransformer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let float_model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
/// let qmodel = QuantizedViT::from_float(&float_model);
/// let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
/// let out = qmodel.infer(&image);
/// assert_eq!(out.logits.dims(), &[1, 4]);
/// // Packed-DSP accounting charges ~1/1.9 of the raw int8 MACs.
/// use heatvit_vit::{BlockDomain, TokenPolicy};
/// assert!(qmodel.macs_for_tokens(&out.tokens_per_block) < qmodel.dense_raw_macs());
/// ```
#[derive(Debug, Clone)]
pub struct QuantizedViT {
    config: ViTConfig,
    patch: QPatchEmbed,
    blocks: Vec<QuantizedBlock>,
    norm: LayerNorm,
    head: QLinear,
    delta1: f32,
    delta2: f32,
    stages: Vec<QuantPruneStage>,
    /// Nominal keep ratio per stage (fraction of original patch tokens
    /// expected to survive), for cost prediction only — empty means "treat
    /// every stage as keeping everything" (conservative). Same length as
    /// `stages` once declared.
    nominal_keep: Vec<f32>,
}

// Serving worker pools own models and move them across threads; a future
// non-`Send`/`Sync` field must fail to build here rather than at the spawn
// site.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QuantizedViT>();
};

impl QuantizedViT {
    /// Quantizes a float model's weights (max-abs, symmetric int8) into a
    /// dense int8 model with dynamic activation quantization.
    ///
    /// The regularization factors default to `δ₁ = δ₂ = 1`: the paper's
    /// `δ < 1` shrinks quantization error during quantization-aware
    /// fine-tuning, but applied post-hoc to weights that never trained with
    /// it, it would only skew the function away from the float reference.
    /// Use [`QuantizedViT::set_deltas`] to study the regularized kernels.
    pub fn from_float(model: &VisionTransformer) -> Self {
        let embed = model.patch_embed();
        Self {
            config: model.config().clone(),
            patch: QPatchEmbed {
                proj: QLinear::from_linear(embed.projection()),
                cls_token: embed.cls_token().value().clone(),
                pos_embed: embed.pos_embed().value().clone(),
                patch_size: embed.patch_size(),
            },
            blocks: model
                .blocks()
                .iter()
                .map(QuantizedBlock::from_block)
                .collect(),
            norm: model.norm().clone(),
            head: QLinear::from_linear(model.head()),
            delta1: 1.0,
            delta2: 1.0,
            stages: Vec::new(),
            nominal_keep: Vec::new(),
        }
    }

    /// Installs adaptive pruning stages, turning this into the
    /// `int8-adaptive` variant.
    ///
    /// # Panics
    ///
    /// Panics if stages are out of order, start before block 1, exceed the
    /// depth, or have thresholds outside `(0, 1]`.
    pub fn with_prune_stages(mut self, stages: Vec<QuantPruneStage>) -> Self {
        validate_stage_blocks(stages.iter().map(|s| s.block), self.config.depth);
        for s in &stages {
            assert!(s.block >= 1, "stage needs the previous block's attention");
            assert!(
                s.attn_frac > 0.0 && s.attn_frac <= 1.0,
                "attention threshold fraction must be in (0, 1]"
            );
        }
        self.stages = stages;
        self.nominal_keep.clear();
        self
    }

    /// [`QuantizedViT::variant_name`] of a model with no pruning stages.
    pub const VARIANT_DENSE: &'static str = "int8-dense";
    /// [`QuantizedViT::variant_name`] of a model with pruning stages.
    pub const VARIANT_ADAPTIVE: &'static str = "int8-adaptive";

    /// [`Self::VARIANT_DENSE`] or [`Self::VARIANT_ADAPTIVE`] depending on
    /// whether pruning stages are installed.
    pub fn variant_name(&self) -> &'static str {
        if self.stages.is_empty() {
            Self::VARIANT_DENSE
        } else {
            Self::VARIANT_ADAPTIVE
        }
    }

    /// The installed pruning stages (empty for the dense variant).
    pub fn prune_stages(&self) -> &[QuantPruneStage] {
        &self.stages
    }

    /// Declares the nominal keep ratio of each pruning stage (fraction of
    /// the *original* patch tokens expected to survive from that stage on),
    /// for cost prediction only. The attention-threshold stages still
    /// decide per image — this records what the thresholds were tuned for.
    ///
    /// # Panics
    ///
    /// Panics if `keeps` is not one ratio per installed stage or any ratio
    /// is outside `(0, 1]`.
    pub fn set_nominal_keep(&mut self, keeps: &[f32]) {
        assert_eq!(
            keeps.len(),
            self.stages.len(),
            "need one nominal keep ratio per pruning stage"
        );
        assert!(
            keeps.iter().all(|&k| k > 0.0 && k <= 1.0),
            "keep ratios must be in (0, 1]"
        );
        self.nominal_keep = keeps.to_vec();
    }

    /// Overrides the regularization factors `δ₁` (GELU) and `δ₂` (softmax).
    // Kept for ROADMAP item 7a: approximation-aware finetuning sets δ = 0.5.
    pub fn set_deltas(&mut self, delta1: f32, delta2: f32) {
        self.delta1 = delta1;
        self.delta2 = delta2;
    }

    /// Records static activation [`QuantParams`] for every quantization site
    /// from a held-out batch: each site's max-abs is accumulated across the
    /// whole batch, then frozen into per-layer scales. Until this runs every
    /// site falls back to dynamic per-tensor max-abs.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty.
    pub fn calibrate(&mut self, images: &[Tensor]) {
        assert!(!images.is_empty(), "calibration needs at least one image");
        let mut ws = PolicyScratch::<QuantScratch>::default();
        ws.blocks.calib = Some(ModelCalib::new(self.config.depth));
        for image in images {
            self.run_with(image, &mut ws);
        }
        let calib = ws.blocks.calib.expect("calibration accumulators");
        self.patch
            .proj
            .set_activation_params(calib.patch_in.params());
        self.head.set_activation_params(calib.head_in.params());
        for (block, c) in self.blocks.iter_mut().zip(calib.blocks.iter()) {
            block.apply_calibration(c);
        }
    }

    /// Classifies one image through the integer pipeline
    /// ([`TokenPolicy::infer`], kept inherent so callers need not import the
    /// trait).
    pub fn infer(&self, image: &Tensor) -> PrunedInference {
        TokenPolicy::infer(self, image)
    }

    fn stage(&self, block: usize) -> Option<(usize, &QuantPruneStage)> {
        self.stages
            .iter()
            .enumerate()
            .find(|(_, s)| s.block == block)
    }
}

/// The int8 datapath of the [`TokenPolicy`] loop: charged in
/// packed-DSP-equivalent MACs.
impl BlockDomain for QuantizedViT {
    type Scratch = QuantScratch;

    const QUANTIZED: bool = true;

    fn config(&self) -> &ViTConfig {
        &self.config
    }

    fn embed(&self, image: &Tensor, tokens: &mut Tensor, ws: &mut QuantScratch) {
        image_to_patches_into(image, self.patch.patch_size, &mut ws.image_patches);
        if let Some(c) = ws.calib.as_mut() {
            c.patch_in.observe(&ws.image_patches);
        }
        self.patch
            .proj
            .infer_into(&ws.image_patches, &mut ws.qa, &mut ws.embedded);
        Tensor::concat_rows_into(&[&self.patch.cls_token, &ws.embedded], tokens);
        add_in_place(tokens, &self.patch.pos_embed);
    }

    fn run_block(&self, index: usize, tokens: &mut Tensor, ws: &mut QuantScratch) {
        let mut calib = ws.calib.take();
        let block_calib = calib.as_mut().map(|c| &mut c.blocks[index]);
        self.blocks[index].infer_with(self.delta1, self.delta2, tokens, ws, block_calib);
        ws.calib = calib;
    }

    fn cls_attention(ws: &QuantScratch) -> &[f32] {
        &ws.cls_attn
    }

    fn classify(&self, cls: &Tensor, ws: &mut QuantScratch) -> Tensor {
        self.norm.infer_into(cls, &mut ws.normed);
        if let Some(c) = ws.calib.as_mut() {
            c.head_in.observe(&ws.normed);
        }
        let mut logits = Tensor::default();
        self.head.infer_into(&ws.normed, &mut ws.qa, &mut logits);
        logits
    }

    fn raw_macs(&self, tokens_per_block: impl IntoIterator<Item = usize>) -> u64 {
        let cfg = &self.config;
        let blocks = tokens_per_block.into_iter();
        let blocks: u64 = blocks.map(|n| BlockComplexity::closed_form(cfg, n)).sum();
        blocks
            + (cfg.num_patches() * cfg.patch_dim() + cfg.num_classes) as u64 * cfg.embed_dim as u64
    }

    /// Raw MACs divided by [`DSP_PACKING_FACTOR`].
    fn charged_macs(&self, raw: u64) -> u64 {
        packed_macs(raw)
    }
}

/// Attention-threshold pruning on the int8 datapath: each stage reads the
/// class-token attention the previous block's approximated softmax left,
/// and packages what it prunes (Eq. 10, weighted by that attention).
impl TokenPolicy for QuantizedViT {
    type Domain = Self;

    fn backbone(&self) -> &Self {
        self
    }

    fn has_stage(&self, block: usize) -> bool {
        self.stage(block).is_some()
    }

    /// Keeps the patches whose attention reaches `attn_frac ×` the row
    /// mean, and at least the most-attended one; `ws.order` receives the
    /// pruned rows.
    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch) {
        let attn = stage.cls_attn.expect("int8 stages follow a block");
        let (_, rule) = self.stage(stage.index).expect("stage exists");
        let mean = attn.iter().sum::<f32>() / attn.len().max(1) as f32;
        let threshold = rule.attn_frac * mean;
        // Whenever any patch reaches the threshold the most-attended one
        // does, so keeping it always only matters when none would survive.
        let best = (0..attn.len()).max_by(|&a, &b| attn[a].total_cmp(&attn[b]));
        ws.kept.clear();
        ws.order.clear();
        for (i, &a) in attn.iter().enumerate() {
            if a >= threshold || Some(i) == best {
                ws.kept.push(i);
            } else {
                ws.order.push(i);
            }
        }
    }

    fn consolidate(
        &self,
        stage: &StageInput<'_>,
        _kept_rows: &mut Tensor,
        ws: &mut StageScratch,
    ) -> bool {
        let attn = stage.cls_attn.expect("int8 stages follow a block");
        package_tokens_into(stage.patches, &ws.order, attn, &mut ws.package)
    }

    /// The declared nominal keep of the stage, and without a
    /// [`QuantizedViT::set_nominal_keep`] declaration every token — a
    /// conservative over-estimate. The package token counts once pruning
    /// has begun.
    fn stage_tokens(&self, block: usize, _tokens: usize) -> usize {
        let (i, _) = self.stage(block).expect("stage exists");
        let keep = self.nominal_keep.get(i).copied().unwrap_or(1.0);
        nominal_tokens(keep, self.config.num_patches(), true)
    }

    fn plan_is_exact(&self) -> bool {
        self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn float_and_quant(seed: u64) -> (VisionTransformer, QuantizedViT, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = VisionTransformer::new(ViTConfig::micro(8), &mut rng);
        let qmodel = QuantizedViT::from_float(&model);
        (model, qmodel, rng)
    }

    fn image(rng: &mut StdRng) -> Tensor {
        Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, rng)
    }

    #[test]
    fn dense_int8_tracks_float_logits() {
        let (model, qmodel, mut rng) = float_and_quant(0);
        let img = image(&mut rng);
        let exact = model.infer(&img);
        let quant = qmodel.infer(&img);
        let rel = quant.logits.sub(&exact).norm() / exact.norm().max(1e-9);
        assert!(rel < 0.25, "relative logit error {rel}");
        assert_eq!(quant.tokens_per_block, vec![17; 6]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (_, qmodel, mut rng) = float_and_quant(1);
        let imgs: Vec<Tensor> = (0..3).map(|_| image(&mut rng)).collect();
        let mut scratch = PolicyScratch::default();
        for img in &imgs {
            let warm = qmodel.infer_with(img, &mut scratch);
            let fresh = qmodel.infer(img);
            assert_eq!(warm.logits.data(), fresh.logits.data());
        }
    }

    #[test]
    fn calibration_freezes_static_scales() {
        let (_, mut qmodel, mut rng) = float_and_quant(2);
        let batch: Vec<Tensor> = (0..4).map(|_| image(&mut rng)).collect();
        qmodel.calibrate(&batch);
        // Calibrated inference is deterministic and still classifies.
        let img = image(&mut rng);
        let a = qmodel.infer(&img);
        let b = qmodel.infer(&img);
        assert_eq!(a.logits.data(), b.logits.data());
    }

    #[test]
    fn calibrated_and_dynamic_modes_agree_closely() {
        let (model, mut qmodel, mut rng) = float_and_quant(3);
        let batch: Vec<Tensor> = (0..4).map(|_| image(&mut rng)).collect();
        let img = image(&mut rng);
        let exact = model.infer(&img);
        let dynamic = qmodel.infer(&img);
        qmodel.calibrate(&batch);
        let calibrated = qmodel.infer(&img);
        for out in [&dynamic, &calibrated] {
            let rel = out.logits.sub(&exact).norm() / exact.norm().max(1e-9);
            assert!(rel < 0.3, "relative logit error {rel}");
        }
    }

    #[test]
    fn adaptive_stages_shrink_tokens_and_macs() {
        let (_, qmodel, mut rng) = float_and_quant(4);
        let dense_packed = packed_macs(qmodel.dense_raw_macs());
        let qmodel = qmodel.with_prune_stages(vec![
            QuantPruneStage {
                block: 2,
                attn_frac: 0.9,
            },
            QuantPruneStage {
                block: 4,
                attn_frac: 0.9,
            },
        ]);
        assert_eq!(qmodel.variant_name(), "int8-adaptive");
        let img = image(&mut rng);
        let out = qmodel.infer(&img);
        assert_eq!(out.tokens_per_block.len(), 6);
        assert_eq!(out.tokens_per_block[0], 17);
        // With package token the count after a stage is ≤ 17 + 1; it must
        // never grow across stages.
        assert!(out.tokens_per_block[2] <= 18);
        assert!(out.tokens_per_block[4] <= out.tokens_per_block[2] + 1);
        if out.tokens_per_block[2] < 17 {
            assert!(qmodel.macs_for_tokens(&out.tokens_per_block) < dense_packed);
        }
        assert!(out.logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn fused_static_ln_quantize_is_bitwise_identical_to_two_step() {
        let (_, mut qmodel, mut rng) = float_and_quant(9);
        let batch: Vec<Tensor> = (0..2).map(|_| image(&mut rng)).collect();
        qmodel.calibrate(&batch);
        let block = &qmodel.blocks[0];
        let dim = qmodel.config.embed_dim;
        let x = Tensor::rand_normal(&[9, dim], 0.0, 1.0, &mut rng);

        // Unfused reference: materialize LN output, quantize it whole.
        let normed = block.ln1.infer(&x);
        let params = block.wq.activation_params().expect("calibrated");
        let qx = QTensor::quantize_with(&normed, params);
        let mut want = Tensor::default();
        block.wq.infer_quantized_into(&qx, &mut want);

        // Fused path: run the block and inspect the staged Q projection
        // (scratch.q is written once, straight off the fused quantize).
        let (mut tokens, mut scratch) = (x, QuantScratch::default());
        block.infer_with(1.0, 1.0, &mut tokens, &mut scratch, None);
        assert_eq!(scratch.q.data(), want.data());
    }

    #[test]
    fn packed_macs_apply_the_dsp_factor() {
        let (_, qmodel, mut rng) = float_and_quant(5);
        let out = qmodel.infer(&image(&mut rng));
        let raw = qmodel.raw_macs(out.tokens_per_block.iter().copied());
        let macs = qmodel.macs_for_tokens(&out.tokens_per_block);
        let expect = (raw as f64 / DSP_PACKING_FACTOR).round() as u64;
        assert_eq!(macs, expect);
        // Dense int8 raw MACs equal the float dense baseline, so the packed
        // speedup is exactly the DSP factor.
        assert_eq!(raw, qmodel.dense_raw_macs());
        let speedup = qmodel.dense_raw_macs() as f64 / macs as f64;
        assert!((speedup - DSP_PACKING_FACTOR).abs() < 1e-3);
    }

    #[test]
    fn raw_macs_match_the_float_models_accounting() {
        let (model, qmodel, _) = float_and_quant(6);
        assert_eq!(qmodel.dense_raw_macs(), model.macs());
    }

    #[test]
    #[should_panic(expected = "previous block's attention")]
    fn stage_before_block_one_is_rejected() {
        let (_, qmodel, _) = float_and_quant(7);
        qmodel.with_prune_stages(vec![QuantPruneStage {
            block: 0,
            attn_frac: 0.5,
        }]);
    }

    #[test]
    fn delta_regularizers_shrink_activations() {
        let (_, mut qmodel, mut rng) = float_and_quant(8);
        let img = image(&mut rng);
        let plain = qmodel.infer(&img);
        qmodel.set_deltas(0.5, 0.5);
        let reg = qmodel.infer(&img);
        // δ < 1 is a different function — outputs must change but stay
        // finite (the Section V-E regularization study entry point).
        assert!(plain.logits.max_abs_diff(&reg.logits) > 0.0);
        assert!(reg.logits.data().iter().all(|v| v.is_finite()));
    }
}
