//! The engine's per-worker workspace.
//!
//! Every variant runs in one [`PolicyScratch`] per datapath: the blocks'
//! activation buffers ([`InferScratch`] for f32, [`QuantScratch`] for int8)
//! inside the [`heatvit_vit::TokenPolicy`] loop's token matrix, dense repack
//! and stage buffers. The dense f32 backbone uses only the blocks' part. A
//! batched engine allocates both once per worker instead of once per image.

use heatvit_quant::QuantScratch;
use heatvit_vit::{InferScratch, PolicyScratch};

/// Workspace for one image at a time through any workspace model.
///
/// Cheap to construct; the single-image convenience paths build a fresh one,
/// which makes the scratch and non-scratch paths execute identical
/// arithmetic (bit-identical results).
#[derive(Debug, Clone, Default)]
pub struct PruneScratch {
    /// Buffers of the f32 models: blocks, repack and token-policy stages.
    pub vit: PolicyScratch<InferScratch>,
    /// Buffers of the int8 models: blocks, repack and token-policy stages.
    pub quant: PolicyScratch<QuantScratch>,
}

// Each engine worker thread owns one scratch; a future non-`Send` field must
// fail to build here, not at the distant thread-spawn site.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PruneScratch>();
};
