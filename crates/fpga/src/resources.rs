//! Accelerator configuration and on-chip resource accounting
//! (paper Table IV: DSP and BRAM utilization on the ZCU102).

/// Geometry and budgets of the tiled GEMM engine.
///
/// The engine is a `tile_m × tile_n` MAC array: each cycle it consumes one
/// reduction element per output tile position, so a tile of the output
/// matrix takes `K` (float) or `ceil(K / packing)` (packed int8) beats plus
/// a fixed pipeline fill/drain. Input panels stream through double-buffered
/// `tile × tile_k` line buffers.
#[derive(Debug, Clone)]
pub struct FpgaConfig {
    /// Accelerator clock in MHz.
    pub clock_mhz: f64,
    /// MAC-array rows (output-tile rows).
    pub tile_m: usize,
    /// MAC-array columns (output-tile columns).
    pub tile_n: usize,
    /// Streaming-buffer depth along the reduction dimension (sizing only —
    /// the reduction streams, so it does not bound the cycle count).
    pub tile_k: usize,
    /// Pipeline fill + drain overhead per output tile, in cycles (adder
    /// tree depth plus output write-back).
    pub pipeline_fill: u64,
    /// How many elements per cycle the post-GEMM vector unit processes
    /// (layernorm, softmax, GELU, residual adds).
    pub vector_lanes: u64,
    /// int8 MACs per DSP slice per cycle relative to float
    /// (`heatvit_quant::DSP_PACKING_FACTOR`: two multiplies packed per
    /// DSP48, derated for the correction logic).
    pub packing: f64,
    /// DSP slices available on the device.
    pub dsp_budget: usize,
    /// 18 Kb BRAM blocks available on the device.
    pub bram18_budget: usize,
}

impl FpgaConfig {
    /// The paper's evaluation device: Xilinx ZCU102 (XCZU9EG — 2520 DSP
    /// slices, 1824 BRAM-18K blocks) at a 150 MHz accelerator clock.
    fn zcu102() -> Self {
        Self {
            clock_mhz: 150.0,
            tile_m: 32,
            tile_n: 32,
            tile_k: 64,
            pipeline_fill: 12,
            vector_lanes: 32,
            packing: heatvit_quant::DSP_PACKING_FACTOR,
            dsp_budget: 2520,
            bram18_budget: 1824,
        }
    }

    /// On-chip resources this geometry occupies.
    pub fn resources(&self) -> FpgaResources {
        let dsps = self.tile_m * self.tile_n;
        // Double-buffered A (tile_m × tile_k) and B (tile_k × tile_n)
        // panels plus the C accumulator tile (tile_m × tile_n), 4 bytes per
        // element (float path is the sizing worst case; int8 reuses the
        // same buffers).
        let bytes = 4
            * (2 * self.tile_m * self.tile_k
                + 2 * self.tile_k * self.tile_n
                + self.tile_m * self.tile_n);
        let bram18 = bytes.div_ceil(18 * 1024 / 8);
        FpgaResources { dsps, bram18 }
    }

    /// `true` when the geometry fits this configuration's own device
    /// budgets.
    #[cfg(test)]
    fn fits(&self) -> bool {
        let r = self.resources();
        r.dsps <= self.dsp_budget && r.bram18 <= self.bram18_budget
    }
}

impl Default for FpgaConfig {
    fn default() -> Self {
        Self::zcu102()
    }
}

/// On-chip resources occupied by a [`FpgaConfig`] geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaResources {
    /// DSP slices consumed by the MAC array.
    pub dsps: usize,
    /// 18 Kb BRAM blocks consumed by the streaming and accumulator
    /// buffers.
    pub bram18: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zcu102_geometry_fits_its_own_budgets() {
        let cfg = FpgaConfig::zcu102();
        let r = cfg.resources();
        assert!(cfg.fits(), "default geometry must fit the ZCU102: {r:?}");
        // Table IV reports ~66% DSP utilization at full scale; our single
        // 32×32 array is deliberately below budget.
        assert_eq!(r.dsps, 1024);
        assert!(r.bram18 > 0);
    }

    #[test]
    fn oversized_array_is_rejected() {
        let cfg = FpgaConfig {
            tile_m: 64,
            tile_n: 64, // 4096 DSPs > 2520
            ..FpgaConfig::zcu102()
        };
        assert!(!cfg.fits());
    }
}
