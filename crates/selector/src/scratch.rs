//! The engine's per-worker workspace.
//!
//! Every f32 variant — dense or pruned by any [`heatvit_vit::TokenPolicy`] —
//! runs in one [`InferScratch`]: the backbone's activation buffers, the
//! dense repack between blocks, and the stages' scoring and consolidation
//! buffers. The int8 pipeline keeps its own [`QuantScratch`]. A batched
//! engine allocates both once per worker instead of once per image.

use heatvit_quant::QuantScratch;
use heatvit_vit::InferScratch;

/// Workspace for one image at a time through any workspace model.
///
/// Cheap to construct; the single-image convenience paths build a fresh one,
/// which makes the scratch and non-scratch paths execute identical
/// arithmetic (bit-identical results).
#[derive(Debug, Clone, Default)]
pub struct PruneScratch {
    /// Buffers of the f32 models: blocks, repack and token-policy stages.
    pub vit: InferScratch,
    /// Buffers of the int8 pipeline (`heatvit-quant`).
    pub quant: QuantScratch,
}

// Each engine worker thread owns one scratch; a future non-`Send` field must
// fail to build here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PruneScratch>();
};
