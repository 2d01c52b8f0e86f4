//! The layer walk: the forward pass replayed from outside, through the
//! public pieces of `heatvit-vit` and `heatvit-selector`, so each piece can
//! be timed between calls. Its logits must equal `infer_with`'s bit for bit
//! (the correctness gate checks it), which is what makes its spans a valid
//! account of where `infer_with` spends its time.

use crate::spans::Recorder;
use heatvit_selector::packager::package_tokens;
use heatvit_selector::TokenSelector;
use heatvit_tensor::{GemmScratch, Tensor};
use heatvit_vit::{AttnScratch, EncoderBlock, VisionTransformer};

/// Number of stages a pruning schedule splits the depth into (stage 0 runs
/// before the first selector, stage `s` after the `s`-th).
pub const STAGES: usize = 4;

/// Span names of the stages (`'static` so recording allocates nothing).
pub const STAGE_NAMES: [&str; STAGES] = ["stage0", "stage1", "stage2", "stage3"];

/// Buffers the walk reuses across blocks and images, as `InferScratch` does
/// for `infer_with`.
#[derive(Debug, Default)]
pub struct WalkScratch {
    attn: AttnScratch,
    gs: GemmScratch,
    hidden: Tensor,
    out: Tensor,
}

/// A model as the walk sees it: the backbone plus one optional selector in
/// front of each block (none for the dense model).
#[derive(Debug, Clone, Copy)]
pub struct WalkModel<'a> {
    /// The backbone.
    pub backbone: &'a VisionTransformer,
    /// One slot per block.
    pub selectors: &'a [Option<TokenSelector>],
    /// Whether pruned tokens are folded into a package token.
    pub package: bool,
    /// First block of stages 1.. (the geometry's selector positions, also
    /// for the dense model, so dense and pruned stage rows line up).
    pub stage_blocks: &'a [usize],
}

/// What one walk produced.
#[derive(Debug, Clone)]
pub struct WalkOutput {
    /// Logits `[1, classes]`.
    pub logits: Tensor,
    /// Tokens entering each block.
    pub tokens_per_block: Vec<usize>,
}

/// Where the walk records its spans: nowhere (the untraced replay the
/// correctness gate uses) or into a [`Recorder`], every span tagged `op`.
#[derive(Debug)]
pub struct Tracer<'a> {
    rec: Option<&'a mut Recorder>,
    op: u64,
}

impl<'a> Tracer<'a> {
    /// Records nothing.
    pub fn off() -> Self {
        Self { rec: None, op: 0 }
    }

    /// Records into `rec`, tagging every span with operation `op`.
    pub fn on(rec: &'a mut Recorder, op: u64) -> Self {
        Self { rec: Some(rec), op }
    }

    fn enter(&mut self, name: &'static str) -> Option<usize> {
        let op = self.op;
        self.rec.as_mut().map(|r| r.enter(name, op))
    }

    fn exit(&mut self, id: Option<usize>) {
        if let (Some(r), Some(id)) = (self.rec.as_mut(), id) {
            r.exit(id);
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }
}

/// The stage block `block` belongs to when stages 1.. start at
/// `stage_blocks`.
pub fn stage_of(block: usize, stage_blocks: &[usize]) -> usize {
    stage_blocks.iter().filter(|&&b| b <= block).count()
}

/// One selector stage: score the patch rows, partition them, gather the kept
/// rows, fold the pruned rows into a package token, concatenate. The same
/// operations in the same order as `PrunedViT::infer_with`.
pub fn select_and_repack(
    selector: &TokenSelector,
    tokens: &Tensor,
    package: bool,
    tracer: &mut Tracer<'_>,
) -> Tensor {
    let (patches, decision) = tracer.span("select", |_| {
        let patches = tokens.slice_rows(1, tokens.dim(0));
        let decision = selector.infer(&patches);
        (patches, decision)
    });
    tracer.span("repack", |_| {
        let cls = tokens.slice_rows(0, 1);
        let kept_rows = patches.gather_rows(&decision.kept_indices());
        let mut parts = vec![&cls, &kept_rows];
        let packaged;
        if package {
            let pruned = decision.pruned_indices();
            let pruned_rows = patches.gather_rows(&pruned);
            let scores: Vec<f32> = pruned.iter().map(|&i| decision.keep_scores[i]).collect();
            if let Some(p) = package_tokens(&pruned_rows, &scores) {
                packaged = p;
                parts.push(&packaged);
            }
        }
        Tensor::concat_rows(&parts)
    })
}

/// One encoder block through its public pieces: fused LN + attention,
/// residual, fused LN + MLP, residual.
pub fn block_forward(
    block: &EncoderBlock,
    x: &Tensor,
    ws: &mut WalkScratch,
    tracer: &mut Tracer<'_>,
) -> Tensor {
    let (attn_out, _) = tracer.span("attention", |_| {
        block
            .attention()
            .infer_ln_with(block.ln1(), x, None, &mut ws.attn)
    });
    let x = attn_out.add(x);
    tracer.span("mlp", |_| {
        block
            .ffn()
            .infer_fused_ln_with(block.ln2(), &x, &mut ws.gs, &mut ws.hidden, &mut ws.out)
    });
    ws.out.add(&x)
}

/// Walks one image through `model`, leaving the span tree `image →
/// {patch_embed, stageS → block → {select, repack, attention, mlp}, head}`
/// in the tracer's recorder.
pub fn walk(
    model: WalkModel<'_>,
    image: &Tensor,
    ws: &mut WalkScratch,
    tracer: &mut Tracer<'_>,
) -> WalkOutput {
    let backbone = model.backbone;
    let stage_blocks = model.stage_blocks;
    tracer.span("image", |tracer| {
        let mut tokens = tracer.span("patch_embed", |_| backbone.patch_embed().infer(image));
        let mut tokens_per_block = Vec::with_capacity(backbone.config().depth);
        let mut stage_span = None;
        for (index, (block, selector)) in backbone.blocks().iter().zip(model.selectors).enumerate()
        {
            let stage = stage_of(index, stage_blocks).min(STAGES - 1);
            if index == 0 || stage_of(index - 1, stage_blocks) != stage {
                tracer.exit(stage_span.take());
                stage_span = tracer.enter(STAGE_NAMES[stage]);
            }
            tracer.span("block", |tracer| {
                if let Some(selector) = selector {
                    tokens = select_and_repack(selector, &tokens, model.package, tracer);
                }
                tokens_per_block.push(tokens.dim(0));
                tokens = block_forward(block, &tokens, ws, tracer);
            });
        }
        tracer.exit(stage_span);
        let logits = tracer.span("head", |_| backbone.classify_tokens_infer(&tokens));
        WalkOutput {
            logits,
            tokens_per_block,
        }
    })
}
