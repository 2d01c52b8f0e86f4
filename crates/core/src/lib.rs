//! # heatvit
//!
//! The unifying layer of the [HeatViT](https://arxiv.org/abs/2211.08110)
//! reproduction workspace: one batched inference engine over every model
//! variant.
//!
//! The lower crates each own one concern — `heatvit-tensor` (dense `f32`
//! math), `heatvit-nn` (autograd + layers), `heatvit-vit` (the backbone),
//! `heatvit-selector` (adaptive and static token pruning),
//! `heatvit-tfprune` (training-free pruning: CLS-attention hard drop, token
//! mergence, fixed-layer top-k), `heatvit-quant` (int8 arithmetic),
//! `heatvit-data` (synthetic datasets) — but they expose *different*
//! single-image inference APIs. This crate folds them into one:
//!
//! * [`InferenceModel`] — implemented by `VisionTransformer`, `PrunedViT`,
//!   `StaticPrunedViT`, the training-free `ClsAttnPrunedViT` /
//!   `TokenMergeViT` / `TopKPrunedViT`, and the int8 `QuantizedViT` (dense
//!   or adaptively pruned): classify one image, report per-block token
//!   counts and a MAC estimate (packed-DSP-equivalent for the int8
//!   backend);
//! * [`Backend`] / [`BackendKind`] — the type-erased handle over those
//!   model types, so servers and table-driven harnesses run one
//!   `Engine<Backend>` whose concrete variant is chosen at runtime
//!   (iterate [`BackendKind::ALL`] instead of monomorphizing per variant);
//! * [`Engine`] — built via [`Engine::builder`] ([`EngineBuilder`]), drives
//!   an `InferenceModel` over batches with a checkout pool of persistent
//!   scratch workspaces (no per-image allocation of activations,
//!   keep-masks, or repacking buffers), sharding each batch across the
//!   configured scoped worker threads; every inference entry point takes
//!   `&self`, so concurrent submitters share one engine, and the merged
//!   [`BatchOutput`] logits are bit-identical to the per-image path at
//!   every thread count;
//! * [`Engine::run_epoch`] — the dataset-level harness reporting accuracy,
//!   throughput, and mean cost per variant, the substrate for every
//!   dense-vs-pruned comparison in the paper.
//!
//! The request/response serving front-end over this engine — dynamic
//! batching, deadlines, priorities — lives in the `heatvit-serve` crate.
//!
//! ## Example: comparing variants under one harness
//!
//! ```
//! use heatvit::{Engine, InferenceModel};
//! use heatvit_selector::{PrunedViT, TokenSelector};
//! use heatvit_tensor::Tensor;
//! use heatvit_vit::{ViTConfig, VisionTransformer};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let backbone = VisionTransformer::new(ViTConfig::micro(8), &mut rng);
//! let mut pruned = PrunedViT::new(backbone.clone());
//! pruned.insert_selector(3, TokenSelector::new(48, 3, &mut rng));
//!
//! let images: Vec<Tensor> = (0..4)
//!     .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
//!     .collect();
//!
//! let dense_out = Engine::builder(backbone).build().infer_batch(&images);
//! let pruned_out = Engine::builder(pruned).build().infer_batch(&images);
//! assert_eq!(dense_out.logits.dims(), pruned_out.logits.dims());
//! // The pruned variant never carries more than one extra (package) token.
//! let dense_tokens = dense_out.mean_tokens_per_block();
//! let pruned_tokens = pruned_out.mean_tokens_per_block();
//! for (p, d) in pruned_tokens.iter().zip(dense_tokens.iter()) {
//!     assert!(p <= &(d + 1.0));
//! }
//! ```

#![warn(missing_docs)]

mod backend;
mod engine;
mod latency;
mod model;

pub use backend::{Backend, BackendKind};
pub use engine::{BatchOutput, Engine, EngineBuilder, EngineReport};
pub use latency::{rank_by_predicted, CostProfile, LatencyModel, MacProxyModel, MeasuredEwma};
pub use model::{InferenceModel, ModelOutput};

// Re-export the workspace crates so `heatvit` works as a facade.
pub use heatvit_data as data;
pub use heatvit_nn as nn;
pub use heatvit_quant as quant;
pub use heatvit_selector as selector;
pub use heatvit_telemetry as telemetry;
pub use heatvit_tensor as tensor;
pub use heatvit_tfprune as tfprune;
pub use heatvit_vit as vit;
