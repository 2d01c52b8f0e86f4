//! # heatvit-vit
//!
//! The Vision Transformer family for the
//! [HeatViT](https://arxiv.org/abs/2211.08110) reproduction: architecture
//! configurations ([`ViTConfig`] — DeiT-T/S/B, LV-ViT-S/M, the paper's
//! width-scaled baselines, and the reduced trainable µDeiT), the model itself
//! ([`VisionTransformer`] with both a differentiable `forward` and a
//! tape-free `infer` path), the one token-pruning loop every pruned variant
//! runs ([`TokenPolicy`]: a policy decides between blocks, the loop repacks
//! the survivors densely and accounts for the cost, over the f32 or int8
//! [`BlockDomain`]), the Table II
//! complexity model ([`flops::ModelComplexity`]), representation analysis
//! backing the paper's motivating observations ([`analysis`]: CKA curves and
//! per-head receptive fields), and binary weight checkpointing
//! ([`weights`]).
//!
//! ## Example
//!
//! ```
//! use heatvit_vit::{flops::ModelComplexity, ViTConfig, VisionTransformer};
//! use heatvit_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Full-size configs power the analytic experiments…
//! let deit_s = ViTConfig::deit_small();
//! let gmacs = ModelComplexity::dense(&deit_s).gmacs();
//! assert!((gmacs - 4.6).abs() < 0.2); // the published 4.6 GMACs
//!
//! // …while the reduced config actually runs on a laptop.
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
//! let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
//! assert_eq!(model.infer(&image).dims(), &[1, 4]);
//! ```

#![warn(missing_docs)]

pub mod analysis;
mod attention;
mod block;
mod config;
pub mod flops;
mod model;
mod patch_embed;
mod policy;
mod scratch;
pub mod weights;

pub use attention::{AttentionMaps, MultiHeadAttention, MASK_PENALTY};
pub use block::EncoderBlock;
pub use config::ViTConfig;
pub use model::{InferenceTrace, VisionTransformer};
pub use patch_embed::{image_to_patches, image_to_patches_into, PatchEmbed};
pub use policy::{
    nominal_tokens, package_tokens_into, select_top, validate_stage_blocks, BlockDomain,
    PolicyWorkspace, PrunedInference, RatioStage, StageInput, TokenPolicy,
};
pub use scratch::{AttnScratch, InferScratch, PolicyScratch, StageScratch};
