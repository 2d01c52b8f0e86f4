//! A ViT backbone with token selectors interleaved between blocks.
//!
//! This is the model HeatViT deploys (paper Fig. 1): selectors progressively
//! shrink the token matrix, pruned tokens are consolidated into a package
//! token, and the surviving tokens are repacked *densely* so every downstream
//! GEMM runs on a smaller dense matrix — exactly the accelerator's token
//! selection flow (Fig. 9). The inference loop is the shared
//! [`TokenPolicy`] one; this module supplies the selector decision and the
//! package token, plus the differentiable training forward.

use crate::packager::package_tokens_tape;
use crate::selector::{InferDecision, TokenSelector, TrainDecision};
use heatvit_nn::{Module, Param, Tape, Var};
use heatvit_tensor::Tensor;
use heatvit_vit::{
    nominal_tokens, package_tokens_into, PrunedInference, StageInput, StageScratch, TokenPolicy,
    VisionTransformer,
};
use rand::Rng;

/// Differentiable forward result of a pruned ViT.
#[derive(Debug)]
pub struct PrunedTrainOutput {
    /// Classification logits `[1, classes]` on the tape.
    pub logits: Var,
    /// Mean Gumbel-soft keep probability per selector (`[1]` nodes) — the
    /// `D̂` term of the latency-sparsity loss (paper Eq. 20).
    pub selector_keep_means: Vec<Var>,
    /// Mean straight-through mask per selector (`[1]` nodes): the forward
    /// value is the *hard* keep fraction this Gumbel draw actually
    /// executed, while gradients flow through the soft relaxation. An
    /// observability output — the latency-sparsity penalty itself is built
    /// on [`PrunedTrainOutput::selector_keep_scores`].
    pub selector_mask_means: Vec<Var>,
    /// Exact keep-probability column per selector (`[N]` nodes, `N` = patch
    /// tokens entering that selector). The deterministic inference path
    /// thresholds these same scores at 0.5, so a loss built on them (the
    /// latency-sparsity ratio surrogate and the decisiveness regularizer)
    /// controls the keep rate the deployed model actually executes.
    pub selector_keep_scores: Vec<Var>,
    /// Hard keep fraction per selector for monitoring.
    pub selector_keep_fractions: Vec<f32>,
    /// Token count entering each block.
    pub tokens_per_block: Vec<usize>,
}

/// A backbone ViT plus per-block optional token selectors.
#[derive(Debug, Clone)]
pub struct PrunedViT {
    backbone: VisionTransformer,
    selectors: Vec<Option<TokenSelector>>,
    /// Nominal keep ratio in force from each block on (fraction of the
    /// original patch tokens), used for cost prediction only — the
    /// selectors decide the actual per-image keep set.
    nominal_keep: Vec<f32>,
}

impl PrunedViT {
    /// Canonical variant label this backend registers in engine and serving
    /// report tables.
    pub const VARIANT: &'static str = "adaptive-pruned";

    /// Wraps a backbone with no selectors installed.
    pub fn new(backbone: VisionTransformer) -> Self {
        let depth = backbone.config().depth;
        Self {
            backbone,
            selectors: (0..depth).map(|_| None).collect(),
            nominal_keep: vec![1.0; depth],
        }
    }

    /// The wrapped backbone.
    pub fn backbone(&self) -> &VisionTransformer {
        &self.backbone
    }

    /// Whether pruned tokens are packaged rather than discarded: always,
    /// the paper's Eq. 10 package token.
    pub fn package_enabled(&self) -> bool {
        true
    }

    /// Installs `selector` in front of block `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn insert_selector(&mut self, block: usize, selector: TokenSelector) {
        assert!(block < self.selectors.len(), "block index out of range");
        self.selectors[block] = Some(selector);
    }

    /// The selector slots, one per block.
    pub fn selectors(&self) -> &[Option<TokenSelector>] {
        &self.selectors
    }

    /// Blocks that currently have a selector installed.
    pub fn selector_blocks(&self) -> Vec<usize> {
        self.selectors
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect()
    }

    /// Mutable access to the selector parameters only, in block order (the
    /// backbone's are not included).
    pub fn selector_params_mut(&mut self) -> Vec<&mut Param> {
        self.selectors
            .iter_mut()
            .flatten()
            .flat_map(|s| s.params_mut())
            .collect()
    }

    /// Inference with dense token repacking ([`TokenPolicy::infer`], kept
    /// inherent so callers need not import the trait).
    pub fn infer(&self, image: &Tensor) -> PrunedInference {
        TokenPolicy::infer(self, image)
    }

    /// Differentiable forward with Gumbel-sampled hard pruning.
    ///
    /// Kept tokens are multiplied by their straight-through mask value
    /// (forward ×1, backward routes task gradients into the keep scores);
    /// pruned tokens reach later blocks only through the package token.
    pub fn forward_train(
        &self,
        tape: &mut Tape,
        image: &Tensor,
        rng: &mut impl Rng,
    ) -> PrunedTrainOutput {
        let mut tokens = self.backbone.patch_embed().forward(tape, image);
        let mut keep_means = Vec::new();
        let mut mask_means = Vec::new();
        let mut score_vars = Vec::new();
        let mut fractions = Vec::new();
        let mut tokens_per_block = Vec::with_capacity(self.backbone.config().depth);
        for (block, selector) in self.backbone.blocks().iter().zip(self.selectors.iter()) {
            if let Some(sel) = selector {
                let n = tape.dims(tokens)[0];
                let patches = tape.slice_rows(tokens, 1, n);
                let decision: TrainDecision = sel.forward_train(tape, patches, rng);
                let kept: Vec<usize> = decision
                    .keep_hard
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &k)| k.then_some(i))
                    .collect();
                let pruned: Vec<usize> = decision
                    .keep_hard
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &k)| (!k).then_some(i))
                    .collect();
                fractions.push(kept.len() as f32 / decision.keep_hard.len() as f32);
                keep_means.push(tape.mean_all(decision.keep_soft));
                mask_means.push(tape.mean_all(decision.mask_st));
                score_vars.push(decision.keep_scores);

                let cls = tape.slice_rows(tokens, 0, 1);
                let kept_tokens = tape.gather_rows(patches, &kept);
                // Straight-through weighting of the kept rows.
                let mask_mat = tape.reshape(decision.mask_st, &[n - 1, 1]);
                let kept_mask = tape.gather_rows(mask_mat, &kept);
                let kept_mask = tape.reshape(kept_mask, &[kept.len()]);
                let kept_tokens = tape.mul_col_broadcast(kept_tokens, kept_mask);
                let mut parts = vec![cls, kept_tokens];
                if let Some(p) = package_tokens_tape(tape, patches, decision.keep_scores, &pruned) {
                    parts.push(p);
                }
                tokens = tape.concat_rows(&parts);
            }
            tokens_per_block.push(tape.dims(tokens)[0]);
            let (out, _) = block.forward(tape, tokens, None, false);
            tokens = out;
        }
        PrunedTrainOutput {
            logits: self.backbone.classify_tokens(tape, tokens),
            selector_keep_means: keep_means,
            selector_mask_means: mask_means,
            selector_keep_scores: score_vars,
            selector_keep_fractions: fractions,
            tokens_per_block,
        }
    }

    /// Declares the nominal keep ratio of the selector at `block`: the
    /// fraction of the *original* patch tokens expected to survive from
    /// that block on (the schedule's target keep, paper Table I). Cost
    /// prediction only — the selector still decides per image.
    ///
    /// # Panics
    ///
    /// Panics if `block` has no selector installed or `keep` is outside
    /// `(0, 1]`.
    pub fn set_nominal_keep(&mut self, block: usize, keep: f32) {
        assert!(
            block < self.selectors.len() && self.selectors[block].is_some(),
            "no selector installed at block {block}"
        );
        assert!(keep > 0.0 && keep <= 1.0, "keep ratio must be in (0, 1]");
        for k in self.nominal_keep.iter_mut().skip(block) {
            *k = keep;
        }
    }

    /// Nominal keep ratio in force at each block (1.0 until a
    /// [`PrunedViT::set_nominal_keep`] declaration takes effect).
    pub fn nominal_keep(&self) -> &[f32] {
        &self.nominal_keep
    }
}

impl TokenPolicy for PrunedViT {
    type Domain = VisionTransformer;

    fn backbone(&self) -> &VisionTransformer {
        &self.backbone
    }

    fn has_stage(&self, block: usize) -> bool {
        self.selectors.get(block).is_some_and(Option::is_some)
    }

    /// The selector's deterministic decision; `order` receives the pruned
    /// rows and `scores` every row's keep score, the package token's input.
    fn select(&self, stage: &StageInput<'_>, ws: &mut StageScratch) {
        let selector = self.selectors[stage.index]
            .as_ref()
            .expect("stage has a selector");
        let InferDecision { keep, keep_scores } = selector.infer(stage.patches);
        ws.kept.clear();
        ws.order.clear();
        for (i, keep) in keep.into_iter().enumerate() {
            if keep {
                ws.kept.push(i);
            } else {
                ws.order.push(i);
            }
        }
        ws.scores = keep_scores;
    }

    /// Packages the pruned rows into one token (paper Eq. 10).
    fn consolidate(
        &self,
        stage: &StageInput<'_>,
        _kept_rows: &mut Tensor,
        ws: &mut StageScratch,
    ) -> bool {
        package_tokens_into(stage.patches, &ws.order, &ws.scores, &mut ws.package)
    }

    /// The declared nominal keep of `block` (the selectors decide per
    /// image, so this is an expectation: a dense-shaped over-estimate
    /// without declarations).
    fn stage_tokens(&self, block: usize, _tokens: usize) -> usize {
        let patches = self.backbone.config().num_patches();
        nominal_tokens(self.nominal_keep[block], patches, true)
    }

    fn plan_is_exact(&self) -> bool {
        self.selectors.iter().all(Option::is_none)
    }

    /// The classifier's MACs, charged at the patch rows *leaving* the stage
    /// (it scores the rows entering it) — the accounting every recorded MAC
    /// figure of this model uses.
    fn stage_macs(&self, block: usize, _tokens_in: usize, tokens_out: usize) -> u64 {
        self.selectors[block]
            .as_ref()
            .map_or(0, |s| s.macs(tokens_out.saturating_sub(1)))
    }
}

impl Module for PrunedViT {
    fn params(&self) -> Vec<&Param> {
        let mut v = self.backbone.params();
        for s in self.selectors.iter().flatten() {
            v.extend(s.params());
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.backbone.params_mut();
        for s in self.selectors.iter_mut().flatten() {
            v.extend(s.params_mut());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_vit::ViTConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pruned_model(seed: u64) -> (PrunedViT, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
        let mut model = PrunedViT::new(backbone);
        let dim = model.backbone().config().embed_dim;
        let heads = model.backbone().config().num_heads;
        model.insert_selector(2, TokenSelector::new(dim, heads, &mut rng));
        model.insert_selector(4, TokenSelector::new(dim, heads, &mut rng));
        (model, rng)
    }

    #[test]
    fn no_selectors_matches_backbone() {
        let mut rng = StdRng::seed_from_u64(0);
        let backbone = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
        let model = PrunedViT::new(backbone);
        let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert!(out.logits.max_abs_diff(&model.backbone().infer(&image)) <= 1e-5);
        assert!(out.keep_fractions.is_empty());
    }

    #[test]
    fn token_counts_shrink_after_selectors() {
        let (model, mut rng) = pruned_model(1);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        assert_eq!(out.tokens_per_block.len(), 6);
        // Before the first selector the full 17 tokens flow.
        assert_eq!(out.tokens_per_block[0], 17);
        // After a selector the count can only shrink or stay (plus package).
        assert!(out.tokens_per_block[2] <= 18);
        assert!(out.tokens_per_block[4] <= out.tokens_per_block[2] + 1);
        assert_eq!(out.keep_fractions.len(), 2);
    }

    #[test]
    fn surviving_patches_reference_original_grid() {
        let (model, mut rng) = pruned_model(2);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        for survivors in &out.surviving_patches {
            for &p in survivors {
                assert!(p < 16, "patch index {p} outside the 4x4 grid");
            }
        }
        // The second selector's survivors must be a subset of the first's.
        let first: std::collections::HashSet<_> =
            out.surviving_patches[0].iter().copied().collect();
        for p in &out.surviving_patches[1] {
            assert!(first.contains(p), "token {p} resurrected after pruning");
        }
    }

    #[test]
    fn forward_train_produces_ratio_terms() {
        let (model, mut rng) = pruned_model(3);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let out = model.forward_train(&mut tape, &image, &mut rng);
        assert_eq!(out.selector_keep_means.len(), 2);
        for &m in &out.selector_keep_means {
            let v = tape.value(m).data()[0];
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(tape.dims(out.logits), &[1, 4]);
    }

    #[test]
    fn mask_mean_forward_equals_hard_fraction() {
        let (model, mut rng) = pruned_model(7);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let out = model.forward_train(&mut tape, &image, &mut rng);
        assert_eq!(out.selector_mask_means.len(), 2);
        for (&m, &frac) in out
            .selector_mask_means
            .iter()
            .zip(out.selector_keep_fractions.iter())
        {
            let v = tape.value(m).data()[0];
            assert!(
                (v - frac).abs() < 1e-6,
                "ST mask mean {v} must forward the hard keep fraction {frac}"
            );
        }
    }

    #[test]
    fn selector_params_cover_exactly_the_installed_selectors() {
        let (mut model, _) = pruned_model(8);
        let expected: usize = model
            .selectors()
            .iter()
            .flatten()
            .map(|s| s.params().len())
            .sum();
        assert!(expected > 0);
        assert_eq!(model.selector_params_mut().len(), expected);
        // Selector params are disjoint from the backbone's.
        let backbone_ids: std::collections::HashSet<u64> =
            model.backbone().params().iter().map(|p| p.id()).collect();
        for p in model.selector_params_mut() {
            assert!(!backbone_ids.contains(&p.id()));
        }
    }

    #[test]
    fn gradients_reach_selector_parameters() {
        let (mut model, mut rng) = pruned_model(4);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let out = model.forward_train(&mut tape, &image, &mut rng);
        let ce = tape.cross_entropy(out.logits, &[1]);
        // Add the ratio term so keep_soft also receives gradient.
        let mut loss = ce;
        for &m in &out.selector_keep_means {
            let target = tape.scalar(0.7);
            let diff = tape.sub(m, target);
            let sq = tape.mul(diff, diff);
            loss = tape.add(loss, sq);
        }
        let grads = tape.backward(loss);
        tape.write_grads(&grads, model.params_mut());
        let blocks = model.selector_blocks();
        for b in blocks {
            let sel = model.selectors()[b].as_ref().unwrap();
            let with_grad = sel.params().iter().filter(|p| p.grad().is_some()).count();
            assert!(
                with_grad * 2 >= sel.params().len(),
                "selector at block {b}: only {with_grad}/{} params got grads",
                sel.params().len()
            );
        }
    }

    #[test]
    fn macs_reflect_token_reduction() {
        let (model, mut rng) = pruned_model(6);
        let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
        let out = model.infer(&image);
        let pruned_macs = model.macs_for_tokens(&out.tokens_per_block);
        let dense_macs = model.backbone().macs();
        if out.keep_fractions.iter().any(|&f| f < 0.9) {
            assert!(pruned_macs < dense_macs);
        }
    }
}
