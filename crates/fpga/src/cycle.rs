//! The tiled GEMM-engine cycle model (paper Fig. 8, Table III) and its
//! [`LatencyModel`] implementation.

use crate::resources::FpgaConfig;
use heatvit::{CostProfile, LatencyModel};
use heatvit_vit::flops::{head_gemm, patch_embed_gemm, BlockLayer, GemmShape};
use heatvit_vit::ViTConfig;
use std::time::Duration;

/// Arithmetic family a GEMM executes in on the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 32-bit float: one MAC per DSP-cascade per cycle.
    Float,
    /// Packed int8: `packing` MACs per DSP per cycle
    /// (`heatvit_quant::DSP_PACKING_FACTOR`).
    Int8,
}

/// Cycle breakdown of one GEMM on the tiled engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmCycles {
    /// Output tiles scheduled (`reps · ceil(m/tile_m) · ceil(n/tile_n)`).
    pub tiles: u64,
    /// Reduction beats across all tiles — the MAC-bound portion, and the
    /// part int8 packing shrinks.
    pub mac_cycles: u64,
    /// Pipeline fill/drain beats across all tiles.
    pub fill_cycles: u64,
}

impl GemmCycles {
    /// Total engine cycles for the GEMM.
    pub fn total(&self) -> u64 {
        self.mac_cycles + self.fill_cycles
    }
}

/// The FPGA cycle model: predicts accelerator cycles (and wall clock at the
/// configured accelerator clock) for any backend [`CostProfile`].
///
/// Every layer the profile implies is scheduled on one tiled MAC array —
/// `reps · ceil(m/tile_m) · ceil(n/tile_n)` output tiles, each streaming
/// the reduction dimension at one beat per element (float) or one beat per
/// `packing` elements (int8, paper Section V) — plus a vector-unit term for
/// the nonlinearities between GEMMs. Pruning enters through the profile's
/// per-block token counts: fewer tokens mean fewer and smaller tiles, which
/// is exactly the latency knob HeatViT's token selectors turn.
#[derive(Debug, Clone, Default)]
pub struct FpgaCycleModel {
    /// Engine geometry and clock.
    pub config: FpgaConfig,
}

impl FpgaCycleModel {
    /// A cycle model over the given engine geometry.
    pub fn new(config: FpgaConfig) -> Self {
        Self { config }
    }

    /// Cycle breakdown of one GEMM at the given precision.
    pub fn gemm_cycles(&self, shape: GemmShape, precision: Precision) -> GemmCycles {
        let tiles = shape.reps
            * shape.m.div_ceil(self.config.tile_m as u64)
            * shape.n.div_ceil(self.config.tile_n as u64);
        let k_beats = match precision {
            Precision::Float => shape.k,
            Precision::Int8 => (shape.k as f64 / self.config.packing).ceil() as u64,
        };
        GemmCycles {
            tiles,
            mac_cycles: tiles * k_beats,
            fill_cycles: tiles * self.config.pipeline_fill,
        }
    }

    /// Vector-unit cycles for the non-GEMM work of one block at `tokens`
    /// tokens: two layernorms and two residual adds over the token matrix,
    /// GELU over the FFN hidden activations, and softmax over the per-head
    /// attention maps.
    pub fn vector_cycles(&self, config: &ViTConfig, tokens: usize) -> u64 {
        let t = tokens as u64;
        let dch = config.embed_dim as u64;
        let h = config.num_heads as u64;
        let hidden = config.ffn_hidden() as u64;
        let elems = 4 * t * dch + t * hidden + h * t * t;
        elems.div_ceil(self.config.vector_lanes)
    }

    /// Total accelerator cycles for one inference of `profile`.
    pub fn model_cycles(&self, profile: &CostProfile) -> u64 {
        let precision = if profile.quantized {
            Precision::Int8
        } else {
            Precision::Float
        };
        let cfg = &profile.config;
        let mut cycles = self.gemm_cycles(patch_embed_gemm(cfg), precision).total()
            + self.gemm_cycles(head_gemm(cfg), precision).total();
        for &tokens in &profile.tokens_per_block {
            for layer in BlockLayer::ALL {
                cycles += self
                    .gemm_cycles(layer.gemm_shape(cfg, tokens), precision)
                    .total();
            }
            cycles += self.vector_cycles(cfg, tokens);
        }
        cycles
    }
}

impl LatencyModel for FpgaCycleModel {
    fn name(&self) -> &'static str {
        "fpga-cycles"
    }

    /// [`FpgaCycleModel::model_cycles`] at the configured accelerator
    /// clock.
    fn predict(&self, profile: &CostProfile) -> Duration {
        Duration::from_secs_f64(self.model_cycles(profile) as f64 / (self.config.clock_mhz * 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heatvit_quant::{packed_macs, DSP_PACKING_FACTOR};

    fn model() -> FpgaCycleModel {
        FpgaCycleModel::default()
    }

    /// The hot DeiT-T GEMM shapes at the full 197-token count: the QKV
    /// projection, per-head Q·Kᵀ, and the FFN expansion — the three layers
    /// that dominate Table II.
    fn hot_shapes() -> Vec<GemmShape> {
        let cfg = ViTConfig::deit_tiny();
        let n = cfg.num_tokens();
        vec![
            BlockLayer::LinearTransformation.gemm_shape(&cfg, n),
            BlockLayer::QueryKey.gemm_shape(&cfg, n),
            BlockLayer::FfnExpand.gemm_shape(&cfg, n),
        ]
    }

    #[test]
    fn int8_packing_gain_matches_qmatmul_packed_mac_accounting() {
        // The paper's ~1.9× DSP-packing claim, validated end to end: the
        // cycle model's float-vs-int8 MAC-beat ratio on the hot ViT GEMM
        // shapes must match `heatvit-quant`'s packed-MAC accounting
        // (`packed_macs = round(raw / DSP_PACKING_FACTOR)`, the numbers
        // `qmatmul` inferences report) — same constant, two independent
        // accountings, small integer-rounding slack only.
        let m = model();
        for shape in hot_shapes() {
            let float = m.gemm_cycles(shape, Precision::Float);
            let int8 = m.gemm_cycles(shape, Precision::Int8);
            let cycle_ratio = float.mac_cycles as f64 / int8.mac_cycles as f64;
            let mac_ratio = shape.macs() as f64 / packed_macs(shape.macs()) as f64;
            let rel = (cycle_ratio - mac_ratio).abs() / mac_ratio;
            assert!(
                rel < 0.02,
                "{shape:?}: cycle ratio {cycle_ratio:.3} vs packed-MAC ratio {mac_ratio:.3}"
            );
            let vs_claim = (cycle_ratio - DSP_PACKING_FACTOR).abs() / DSP_PACKING_FACTOR;
            assert!(
                vs_claim < 0.05,
                "{shape:?}: cycle ratio {cycle_ratio:.3} strays from the ~1.9× claim"
            );
        }
    }

    #[test]
    fn fewer_tokens_cost_fewer_cycles() {
        let m = model();
        let cfg = ViTConfig::deit_tiny();
        let dense = CostProfile::dense("dense", &cfg, 0);
        let mut pruned = dense.clone();
        pruned.tokens_per_block = vec![
            cfg.num_tokens(),
            120,
            120,
            80,
            80,
            80,
            80,
            50,
            50,
            50,
            50,
            50,
        ];
        assert!(m.model_cycles(&pruned) < m.model_cycles(&dense));
        assert!(m.predict(&pruned) < m.predict(&dense));
    }

    #[test]
    fn int8_is_faster_than_float_at_equal_tokens() {
        let m = model();
        let cfg = ViTConfig::deit_tiny();
        let float = CostProfile::dense("dense", &cfg, 0);
        let mut int8 = float.clone();
        int8.quantized = true;
        let speedup = m.model_cycles(&float) as f64 / m.model_cycles(&int8) as f64;
        // Fill and vector-unit cycles don't pack, so the whole-model gain
        // sits below the pure-MAC 1.9× but must stay well above 1.
        assert!(
            speedup > 1.4 && speedup < DSP_PACKING_FACTOR,
            "whole-model int8 speedup {speedup:.3}"
        );
    }

    #[test]
    fn predictions_are_positive_and_clock_scaled() {
        let cfg = ViTConfig::deit_tiny();
        let profile = CostProfile::dense("dense", &cfg, 0);
        let slow = FpgaCycleModel::new(FpgaConfig {
            clock_mhz: 75.0,
            ..FpgaConfig::default()
        });
        let fast = model();
        assert!(fast.predict(&profile) > Duration::ZERO);
        // Half the clock, twice the latency (same cycle count).
        let ratio = slow.predict(&profile).as_secs_f64() / fast.predict(&profile).as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gemm_cycle_breakdown_is_consistent() {
        let m = model();
        let shape = GemmShape {
            reps: 2,
            m: 100,
            k: 64,
            n: 40,
        };
        let c = m.gemm_cycles(shape, Precision::Float);
        // 2 reps · ceil(100/32) · ceil(40/32) = 2·4·2 = 16 tiles.
        assert_eq!(c.tiles, 16);
        assert_eq!(c.mac_cycles, 16 * 64);
        assert_eq!(c.fill_cycles, 16 * m.config.pipeline_fill);
        assert_eq!(c.total(), c.mac_cycles + c.fill_cycles);
    }
}
