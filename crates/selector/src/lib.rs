//! # heatvit-selector
//!
//! The adaptive token-pruning module of
//! [HeatViT](https://arxiv.org/abs/2211.08110) — the paper's core
//! algorithmic contribution:
//!
//! * [`MultiHeadTokenClassifier`] — per-head local/global MLP scoring with a
//!   sigmoid attention branch that weighs heads per token (Eqs. 3–8);
//! * [`gumbel`] — straight-through Gumbel-Softmax keep/prune decisions
//!   (Eq. 9);
//! * [`packager`] — keep-score-weighted consolidation of pruned tokens into
//!   one package token (Eq. 10);
//! * [`PrunedViT`] — a backbone with selectors interleaved: the selector
//!   decision and package token as a [`heatvit_vit::TokenPolicy`], whose
//!   shared loop repacks the survivors *densely* so every downstream GEMM
//!   stays dense (the hardware token-selection flow of Fig. 9);
//! * [`StaticPrunedViT`] — the static-pruning baselines of Section II-D,
//!   the same loop under an input-agnostic policy;
//! * [`ConvTokenClassifier`] — the convolution-based strawman of Fig. 12;
//! * [`PruningSchedule`] — placement/keep-ratio bookkeeping with
//!   block-to-stage merging.
//!
//! ## Example
//!
//! ```
//! use heatvit_selector::{PrunedViT, TokenSelector};
//! use heatvit_vit::{ViTConfig, VisionTransformer};
//! use heatvit_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let backbone = VisionTransformer::new(ViTConfig::micro(8), &mut rng);
//! let mut model = PrunedViT::new(backbone);
//! model.insert_selector(3, TokenSelector::new(48, 3, &mut rng));
//!
//! let image = Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng);
//! let out = model.infer(&image);
//! assert_eq!(out.tokens_per_block.len(), 6);
//! assert!(out.tokens_per_block[3] <= out.tokens_per_block[0] + 1);
//! ```

#![warn(missing_docs)]

mod classifier;
pub mod gumbel;
pub mod packager;
mod pruned;
mod schedule;
mod scratch;
mod selector;
mod static_prune;
mod variants;

pub use classifier::{ClassifierOutput, MultiHeadTokenClassifier};
pub use pruned::{PrunedTrainOutput, PrunedViT};
pub use schedule::{PruningSchedule, SelectorPlacement};
pub use scratch::PruneScratch;
pub use selector::{InferDecision, TokenSelector, TrainDecision};
pub use static_prune::{StaticPrunedViT, StaticRule, StaticStage};
pub use variants::ConvTokenClassifier;
