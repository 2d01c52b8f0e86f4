//! Selector placement schedules and stage merging.
//!
//! A [`PruningSchedule`] records where selectors sit and which cumulative
//! keep ratio each one targets — the paper's `Keep Ratio (Stage 1/2/3)`
//! notation from Table VI. The block-to-stage training pipeline produces one
//! of these by inserting selectors back-to-front and then merging adjacent
//! selectors with similar ratios (Algorithm 1, Step 2).

use heatvit_vit::ViTConfig;

/// One selector placement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectorPlacement {
    /// Block index the selector precedes.
    pub block: usize,
    /// Cumulative keep ratio (fraction of the *original* patch tokens that
    /// survive from this stage on), in `(0, 1]`.
    pub target_keep: f32,
}

/// A full placement schedule, sorted by block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PruningSchedule {
    placements: Vec<SelectorPlacement>,
}

impl PruningSchedule {
    /// Creates a schedule from placements.
    ///
    /// # Panics
    ///
    /// Panics if placements are unordered, duplicated, have ratios outside
    /// `(0, 1]`, or increase the keep ratio (tokens cannot be resurrected).
    pub fn new(placements: Vec<SelectorPlacement>) -> Self {
        let mut last_block = None;
        let mut last_ratio = 1.0f32;
        for p in &placements {
            assert!(
                p.target_keep > 0.0 && p.target_keep <= 1.0,
                "keep ratio must be in (0, 1]"
            );
            if let Some(lb) = last_block {
                assert!(p.block > lb, "placements must be strictly ordered");
            }
            assert!(
                p.target_keep <= last_ratio + 1e-6,
                "cumulative keep ratio cannot increase"
            );
            last_block = Some(p.block);
            last_ratio = p.target_keep;
        }
        Self { placements }
    }

    /// The placements, in block order.
    pub fn placements(&self) -> &[SelectorPlacement] {
        &self.placements
    }

    /// Number of selectors.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// `true` if no selectors are placed.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Cumulative keep ratio in force at each block.
    // Public for the tests in crates/train/tests/determinism.rs.
    pub fn keep_per_block(&self, depth: usize) -> Vec<f32> {
        let mut keep = vec![1.0f32; depth];
        for p in &self.placements {
            for k in keep.iter_mut().skip(p.block) {
                *k = p.target_keep;
            }
        }
        keep
    }

    /// Expected token count entering each block (kept patches + class token
    /// + package token once pruning has begun).
    pub fn tokens_per_block(&self, config: &ViTConfig) -> Vec<usize> {
        let n = config.num_patches() as f32;
        self.keep_per_block(config.depth)
            .iter()
            .map(|&k| {
                let kept = (k * n).ceil() as usize;
                kept + 1 + usize::from(k < 1.0)
            })
            .collect()
    }

    /// Merges adjacent placements whose ratios differ by less than
    /// `tolerance`, keeping the *first* selector of each run — Algorithm 1's
    /// stage consolidation (the paper uses an 8.5 % threshold).
    pub fn merge_similar(&self, tolerance: f32) -> Self {
        let mut merged: Vec<SelectorPlacement> = Vec::new();
        for p in &self.placements {
            match merged.last() {
                Some(prev) if (prev.target_keep - p.target_keep).abs() < tolerance => {
                    // Same stage: drop this selector.
                }
                _ => merged.push(*p),
            }
        }
        Self { placements: merged }
    }

    /// Unweighted mean of the per-block keep ratios (every block counts
    /// equally, regardless of how many MACs it runs at). For the
    /// compute-weighted summary used in experiment tables see
    /// [`PruningSchedule::macs_weighted_keep`].
    pub fn mean_keep(&self, depth: usize) -> f32 {
        let per_block = self.keep_per_block(depth);
        per_block.iter().sum::<f32>() / depth as f32
    }

    /// GMACs-weighted average keep ratio: each block's keep ratio weighted
    /// by the MACs that block actually executes under this schedule (the
    /// Table II flops model at the scheduled token counts). Heavily pruned
    /// blocks run fewer MACs, so they pull the average down less than in
    /// [`PruningSchedule::mean_keep`] — this is the honest "how much of the
    /// compute kept full tokens" number.
    pub fn macs_weighted_keep(&self, config: &ViTConfig) -> f32 {
        use heatvit_vit::flops::BlockComplexity;
        let keep = self.keep_per_block(config.depth);
        let tokens = self.tokens_per_block(config);
        let mut weighted = 0.0f64;
        let mut total = 0.0f64;
        for (k, n) in keep.iter().zip(tokens.iter()) {
            let macs = BlockComplexity::new(config, *n).total() as f64;
            weighted += *k as f64 * macs;
            total += macs;
        }
        if total == 0.0 {
            return 1.0;
        }
        (weighted / total) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Selectors at blocks 3, 6 and 9 of a 12-block model, the paper's
    /// three-stage layout, with the given cumulative keep ratios.
    fn three_stage(ratios: [f32; 3]) -> PruningSchedule {
        let place = |block, target_keep| SelectorPlacement { block, target_keep };
        PruningSchedule::new(vec![
            place(3, ratios[0]),
            place(6, ratios[1]),
            place(9, ratios[2]),
        ])
    }

    #[test]
    fn keep_per_block_is_step_function() {
        let s = three_stage([0.7, 0.39, 0.21]);
        let keep = s.keep_per_block(12);
        assert_eq!(keep[0], 1.0);
        assert_eq!(keep[3], 0.7);
        assert_eq!(keep[6], 0.39);
        assert_eq!(keep[11], 0.21);
    }

    #[test]
    fn tokens_match_table_vi_shape() {
        // DeiT-S, 0.70/0.39/0.21: first stage keeps ceil(0.7·196)+2 tokens.
        let cfg = heatvit_vit::ViTConfig::deit_small();
        let s = three_stage([0.7, 0.39, 0.21]);
        let t = s.tokens_per_block(&cfg);
        assert_eq!(t[0], 197);
        assert_eq!(t[3], 140); // ceil(137.2)=138 kept + cls + package
        assert_eq!(t[9], 44); // ceil(41.16)=42 kept + cls + package
    }

    #[test]
    fn merge_collapses_similar_ratios() {
        let s = PruningSchedule::new(vec![
            SelectorPlacement {
                block: 3,
                target_keep: 0.70,
            },
            SelectorPlacement {
                block: 4,
                target_keep: 0.68,
            },
            SelectorPlacement {
                block: 8,
                target_keep: 0.40,
            },
        ]);
        let merged = s.merge_similar(0.085);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.placements()[0].block, 3);
        assert_eq!(merged.placements()[1].block, 8);
    }

    #[test]
    fn merge_keeps_distinct_stages() {
        let s = three_stage([0.9, 0.6, 0.3]);
        assert_eq!(s.merge_similar(0.085).len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot increase")]
    fn ratios_must_be_non_increasing() {
        PruningSchedule::new(vec![
            SelectorPlacement {
                block: 3,
                target_keep: 0.5,
            },
            SelectorPlacement {
                block: 6,
                target_keep: 0.8,
            },
        ]);
    }

    #[test]
    fn mean_keep_is_the_unweighted_block_mean() {
        // Regression pin for the documented behavior: every block counts
        // equally — blocks 0–1 at 1.0 and blocks 2–3 at 0.5 average to 0.75.
        let s = PruningSchedule::new(vec![SelectorPlacement {
            block: 2,
            target_keep: 0.5,
        }]);
        assert!((s.mean_keep(4) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn macs_weighted_keep_discounts_pruned_blocks() {
        let cfg = heatvit_vit::ViTConfig::deit_small();
        let s = three_stage([0.7, 0.39, 0.21]);
        let unweighted = s.mean_keep(cfg.depth);
        let weighted = s.macs_weighted_keep(&cfg);
        // Pruned blocks execute fewer MACs, so they carry less weight and
        // the weighted average sits strictly above the unweighted one.
        assert!(
            weighted > unweighted,
            "weighted {weighted} vs unweighted {unweighted}"
        );
        assert!(weighted < 1.0);
        // An empty schedule keeps everything under both measures.
        let dense = PruningSchedule::default();
        assert!((dense.macs_weighted_keep(&cfg) - 1.0).abs() < 1e-6);
        assert!((dense.mean_keep(cfg.depth) - 1.0).abs() < 1e-6);
    }
}
