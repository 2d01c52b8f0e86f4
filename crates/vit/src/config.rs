//! Vision Transformer architecture configurations.
//!
//! The full-size presets match the models evaluated in the paper (DeiT-T/S/B
//! from Touvron et al., LV-ViT-S/M from Jiang et al., plus the width-scaled
//! DeiT baselines of Section VII-B). The `micro` preset is the reduced
//! trainable configuration used wherever gradient steps are needed on one
//! CPU core (see `DESIGN.md` §5).

/// Architecture hyperparameters of a ViT backbone.
///
/// # Examples
///
/// ```
/// use heatvit_vit::ViTConfig;
///
/// let cfg = ViTConfig::deit_tiny();
/// assert_eq!(cfg.num_patches(), 196);
/// assert_eq!(cfg.num_tokens(), 197);  // +1 class token
/// assert_eq!(cfg.head_dim(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViTConfig {
    /// Human-readable model name (used in experiment tables).
    pub name: String,
    /// Input image side length (square images).
    pub image_size: usize,
    /// Patch side length; `image_size` must be divisible by it.
    pub patch_size: usize,
    /// Input channels (3 for RGB).
    pub in_channels: usize,
    /// Token embedding width `D_ch`.
    pub embed_dim: usize,
    /// Number of transformer encoder blocks `L`.
    pub depth: usize,
    /// Number of attention heads `h`.
    pub num_heads: usize,
    /// FFN hidden width as a multiple of `embed_dim` (4 in DeiT).
    pub mlp_ratio: usize,
    /// Output classes.
    pub num_classes: usize,
}

impl ViTConfig {
    /// DeiT-tiny: 12 × (192, 3 heads), 224²/16 (paper Table V).
    pub fn deit_tiny() -> Self {
        Self::full_size("DeiT-T", 192, 12, 3)
    }

    /// DeiT-small: 12 × (384, 6 heads).
    // Kept for ROADMAP item 4: the FPGA envelope is checked at DeiT-T/S/B.
    pub fn deit_small() -> Self {
        Self::full_size("DeiT-S", 384, 12, 6)
    }

    /// DeiT-base: 12 × (768, 12 heads).
    // Kept for ROADMAP item 4: the FPGA envelope is checked at DeiT-T/S/B.
    pub fn deit_base() -> Self {
        Self::full_size("DeiT-B", 768, 12, 12)
    }

    fn full_size(name: impl Into<String>, embed_dim: usize, depth: usize, heads: usize) -> Self {
        Self {
            name: name.into(),
            image_size: 224,
            patch_size: 16,
            in_channels: 3,
            embed_dim,
            depth,
            num_heads: heads,
            mlp_ratio: 4,
            num_classes: 1000,
        }
    }

    /// The reduced trainable configuration ("µDeiT"): 32²/8 inputs
    /// (16 patches + class token), 6 × (48, 3 heads).
    pub fn micro(num_classes: usize) -> Self {
        Self {
            name: "uDeiT".to_string(),
            image_size: 32,
            patch_size: 8,
            in_channels: 3,
            embed_dim: 48,
            depth: 6,
            num_heads: 3,
            mlp_ratio: 2,
            num_classes,
        }
    }

    /// An even smaller configuration for unit tests (16²/8, depth 2).
    pub fn test_tiny(num_classes: usize) -> Self {
        Self {
            name: "test-tiny".to_string(),
            image_size: 16,
            patch_size: 8,
            in_channels: 3,
            embed_dim: 24,
            depth: 2,
            num_heads: 2,
            mlp_ratio: 2,
            num_classes,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the image is not patch-divisible, the embedding is not
    /// head-divisible, or any field is zero.
    pub fn validate(&self) {
        assert!(self.image_size > 0 && self.patch_size > 0, "zero size");
        assert_eq!(
            self.image_size % self.patch_size,
            0,
            "image size must be divisible by patch size"
        );
        assert!(self.embed_dim > 0 && self.depth > 0 && self.num_heads > 0);
        assert_eq!(
            self.embed_dim % self.num_heads,
            0,
            "embedding width must be divisible by head count"
        );
        assert!(self.mlp_ratio > 0 && self.num_classes > 0);
        assert!(matches!(self.in_channels, 1 | 3), "channels must be 1 or 3");
    }

    /// Number of image patches `N = (H/P)²`.
    pub fn num_patches(&self) -> usize {
        let side = self.image_size / self.patch_size;
        side * side
    }

    /// Number of tokens entering the encoder (patches + class token).
    pub fn num_tokens(&self) -> usize {
        self.num_patches() + 1
    }

    /// Per-head width `D_attn = D_ch / h`.
    pub fn head_dim(&self) -> usize {
        self.embed_dim / self.num_heads
    }

    /// FFN hidden width `4·D_fc` in the paper's notation.
    pub fn ffn_hidden(&self) -> usize {
        self.embed_dim * self.mlp_ratio
    }

    /// Flattened patch width `P²·C` (the patch-embedding input).
    pub fn patch_dim(&self) -> usize {
        self.patch_size * self.patch_size * self.in_channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_match_table_v() {
        // Paper Table V: heads / embed dim / depth.
        let t = ViTConfig::deit_tiny();
        assert_eq!((t.num_heads, t.embed_dim, t.depth), (3, 192, 12));
        let s = ViTConfig::deit_small();
        assert_eq!((s.num_heads, s.embed_dim, s.depth), (6, 384, 12));
        let b = ViTConfig::deit_base();
        assert_eq!((b.num_heads, b.embed_dim, b.depth), (12, 768, 12));
    }

    #[test]
    fn all_presets_validate() {
        for cfg in [
            ViTConfig::deit_tiny(),
            ViTConfig::deit_small(),
            ViTConfig::deit_base(),
        ] {
            cfg.validate();
        }
        ViTConfig::micro(8).validate();
        ViTConfig::test_tiny(4).validate();
    }

    #[test]
    fn token_counts() {
        assert_eq!(ViTConfig::deit_small().num_tokens(), 197);
        assert_eq!(ViTConfig::micro(8).num_tokens(), 17);
        assert_eq!(ViTConfig::test_tiny(4).num_tokens(), 5);
    }

    #[test]
    #[should_panic(expected = "divisible by head count")]
    fn head_divisibility_checked() {
        let mut cfg = ViTConfig::deit_tiny();
        cfg.num_heads = 5;
        cfg.validate();
    }

    #[test]
    fn patch_dim_matches() {
        assert_eq!(ViTConfig::deit_tiny().patch_dim(), 16 * 16 * 3);
        assert_eq!(ViTConfig::micro(8).patch_dim(), 8 * 8 * 3);
    }
}
