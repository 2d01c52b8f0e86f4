//! The [`InferenceModel`] trait: one interface over the dense, adaptively
//! pruned, statically pruned, training-free pruned, and int8-quantized ViT
//! variants.
//!
//! The five pruned f32 variants and the int8 model are [`TokenPolicy`]
//! implementations that run the one pruning loop, on the f32 or the int8
//! [`BlockDomain`], so their `infer_one` and `cost_profile` are written once
//! (`policy_output`, `policy_profile`) and each impl delegates to them; only
//! the dense f32 backbone has a loop of its own.

use crate::latency::CostProfile;
use heatvit_quant::QuantizedViT;
use heatvit_selector::{PruneScratch, PrunedViT, StaticPrunedViT};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{ClsAttnPrunedViT, TokenMergeViT, TopKPrunedViT};
use heatvit_vit::{BlockDomain, PolicyWorkspace, TokenPolicy, ViTConfig, VisionTransformer};

/// Result of one image's inference through any model variant.
#[derive(Debug, Clone)]
pub struct ModelOutput {
    /// Classification logits `[1, num_classes]`.
    pub logits: Tensor,
    /// Token count entering each encoder block (class/package included).
    pub tokens_per_block: Vec<usize>,
    /// Multiply–accumulate estimate for this inference at its actual
    /// per-block token counts.
    pub macs: u64,
}

/// A model that can classify one image and account for its own cost.
///
/// Implemented by [`VisionTransformer`] (dense baseline), [`PrunedViT`]
/// (adaptive HeatViT pruning), [`StaticPrunedViT`] (input-agnostic pruning
/// baselines), the training-free family ([`ClsAttnPrunedViT`],
/// [`TokenMergeViT`], [`TopKPrunedViT`] — no learned selector), and
/// [`QuantizedViT`] (the int8 integer pipeline, dense or adaptively
/// pruned), so the [`crate::Engine`] can benchmark all of them under a
/// single harness — the comparison setup of paper Figs. 2 and 4 extended
/// with the Section V quantized backend and the training-free baselines.
///
/// `Send + Sync` are supertraits: [`infer_one`](InferenceModel::infer_one)
/// takes `&self`, the sharded engine shares that reference across scoped
/// worker threads (all mutable state lives in the per-worker
/// [`PruneScratch`]), and a serving worker pool (`heatvit-serve`) *owns*
/// the model on a spawned batcher thread, which requires `Send`. Every
/// workspace model is plain owned data, so the bounds cost implementors
/// nothing — each model crate carries a compile-time assertion.
///
/// The trait is object safe: heterogeneous model fleets can be held as
/// `Box<dyn InferenceModel>`, which implements the trait itself and can be
/// driven by an [`crate::Engine`] directly. For the workspace's own
/// variants, prefer the allocation-free [`crate::Backend`] enum.
pub trait InferenceModel: Send + Sync {
    /// Short human-readable variant name for report tables.
    fn variant(&self) -> &str;

    /// The backbone architecture configuration.
    fn config(&self) -> &ViTConfig;

    /// Classifies one image, reusing `scratch` for every intermediate
    /// buffer. Must be bit-identical to the variant's single-image `infer`
    /// path.
    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput;

    /// Multiply–accumulate count with the full token count in every block —
    /// the dense-cost baseline pruning is measured against.
    fn dense_macs(&self) -> u64;

    /// What one inference through this model is *expected* to compute,
    /// without running inference: the [`CostProfile`] a
    /// [`crate::LatencyModel`] turns into a predicted service time.
    ///
    /// The default is the dense profile (full tokens everywhere, float
    /// arithmetic) — correct for the dense baseline and a conservative
    /// over-estimate for anything else. Pruned and quantized variants
    /// override it with their planned/nominal token schedules and
    /// arithmetic family.
    fn cost_profile(&self) -> CostProfile {
        CostProfile::dense(self.variant(), self.config(), self.dense_macs())
    }
}

/// Borrowed models are models too (`M: Sync` comes with the supertraits),
/// so an [`crate::Engine`] can drive a model it does not own — e.g. a
/// training loop evaluating throughput on the model it is still updating
/// between epochs.
impl<M: InferenceModel + ?Sized> InferenceModel for &M {
    fn variant(&self) -> &str {
        (**self).variant()
    }

    fn config(&self) -> &ViTConfig {
        (**self).config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        (**self).infer_one(image, scratch)
    }

    fn dense_macs(&self) -> u64 {
        (**self).dense_macs()
    }

    fn cost_profile(&self) -> CostProfile {
        (**self).cost_profile()
    }
}

/// Boxed (and boxed-trait-object) models are models too, so an
/// `Engine<Box<dyn InferenceModel>>` can drive a fleet whose concrete
/// variant is chosen at runtime.
impl<M: InferenceModel + ?Sized> InferenceModel for Box<M> {
    fn variant(&self) -> &str {
        (**self).variant()
    }

    fn config(&self) -> &ViTConfig {
        (**self).config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        (**self).infer_one(image, scratch)
    }

    fn dense_macs(&self) -> u64 {
        (**self).dense_macs()
    }

    fn cost_profile(&self) -> CostProfile {
        (**self).cost_profile()
    }
}

impl InferenceModel for VisionTransformer {
    fn variant(&self) -> &str {
        Self::VARIANT
    }

    fn config(&self) -> &ViTConfig {
        self.config()
    }

    fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
        let logits = self.infer_with(image, &mut scratch.vit.blocks);
        ModelOutput {
            logits,
            tokens_per_block: vec![self.config().num_tokens(); self.config().depth],
            macs: self.macs(),
        }
    }

    fn dense_macs(&self) -> u64 {
        self.macs()
    }
}

/// One pruned inference as the engine reports it: the policy loop run in
/// its domain's compartment of the engine's scratch, its MACs stage overhead
/// included and charged as the domain charges them.
fn policy_output<P: TokenPolicy>(
    policy: &P,
    image: &Tensor,
    ws: &mut PolicyWorkspace<P>,
) -> ModelOutput {
    let (logits, tokens_per_block) = policy.run_with(image, ws);
    ModelOutput {
        macs: policy.macs_for_tokens(&tokens_per_block),
        logits,
        tokens_per_block,
    }
}

/// The planned token schedule and its MACs: exact for the input-agnostic
/// policies (*which* tokens survive varies per image, *how many* never
/// does), the declared nominal keep of the adaptive ones otherwise.
fn policy_profile<P: TokenPolicy + InferenceModel>(policy: &P) -> CostProfile {
    let tokens = policy.planned_tokens_per_block();
    CostProfile {
        variant: policy.variant().to_string(),
        config: InferenceModel::config(policy).clone(),
        exact: policy.plan_is_exact(),
        quantized: P::Domain::QUANTIZED,
        macs: policy.macs_for_tokens(&tokens),
        tokens_per_block: tokens,
    }
}

/// [`InferenceModel`] for each pruning policy, delegating to the
/// [`TokenPolicy`] loop in the `$compartment` of the engine's scratch. A
/// model's `variant` is its `VARIANT`, or what `$variant` returns for it.
/// `dense_macs` is the domain's raw count: for int8 the float-equivalent
/// baseline, so the engine's MAC-speedup column shows the DSP-packing gain
/// as well as the pruning gain.
macro_rules! token_policy_models {
    ($compartment:ident: $model:ty => $variant:expr) => {
        impl InferenceModel for $model {
            fn variant(&self) -> &str {
                ($variant)(self)
            }

            fn config(&self) -> &ViTConfig {
                BlockDomain::config(TokenPolicy::backbone(self))
            }

            fn infer_one(&self, image: &Tensor, scratch: &mut PruneScratch) -> ModelOutput {
                policy_output(self, image, &mut scratch.$compartment)
            }

            fn dense_macs(&self) -> u64 {
                TokenPolicy::backbone(self).dense_raw_macs()
            }

            fn cost_profile(&self) -> CostProfile {
                policy_profile(self)
            }
        }
    };
    ($compartment:ident: $($model:ty),+) => {$(
        token_policy_models!($compartment: $model => |_| <$model>::VARIANT);
    )+};
}

token_policy_models!(
    vit: PrunedViT,
    StaticPrunedViT,
    ClsAttnPrunedViT,
    TokenMergeViT,
    TopKPrunedViT
);
token_policy_models!(quant: QuantizedViT => QuantizedViT::variant_name);
