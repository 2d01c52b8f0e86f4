//! Patch extraction and linear patch embedding.

use crate::ViTConfig;
use heatvit_nn::{layers::Linear, Module, Param, Tape, Var};
use heatvit_tensor::Tensor;
use rand::Rng;

/// Reshapes a `[C, H, W]` image into flattened patches `[N, P²·C]`.
///
/// Row-major patch order (left-to-right, top-to-bottom), channel-major
/// within a patch — the same layout a ViT's convolutional stem produces
/// after flattening.
///
/// # Panics
///
/// Panics if `image` is not rank 3 or not divisible into `patch`-sized
/// tiles.
///
/// # Examples
///
/// ```
/// use heatvit_vit::image_to_patches;
/// use heatvit_tensor::Tensor;
///
/// let image = Tensor::from_fn(&[3, 4, 4], |ix| ix[1] as f32);
/// let patches = image_to_patches(&image, 2);
/// assert_eq!(patches.dims(), &[4, 12]); // 4 patches of 2·2·3 values
/// ```
pub fn image_to_patches(image: &Tensor, patch: usize) -> Tensor {
    let mut out = Tensor::default();
    image_to_patches_into(image, patch, &mut out);
    out
}

/// [`image_to_patches`] writing into a caller-provided tensor (reshaped in
/// place, every element overwritten; values identical to the allocating
/// path).
///
/// # Panics
///
/// Panics if `image` is not rank 3 or not divisible into `patch`-sized
/// tiles.
pub fn image_to_patches_into(image: &Tensor, patch: usize, out: &mut Tensor) {
    assert_eq!(image.rank(), 3, "expected [C, H, W]");
    let (c, h, w) = (image.dim(0), image.dim(1), image.dim(2));
    assert!(
        h % patch == 0 && w % patch == 0,
        "image {h}x{w} not divisible into {patch}x{patch} patches"
    );
    let (ph, pw) = (h / patch, w / patch);
    out.reset_unspecified(&[ph * pw, c * patch * patch]);
    // A patch row is `c·patch` runs of `patch` pixels, each contiguous in
    // the image: one `copy_from_slice` per run.
    let pixels = image.data();
    for pr in 0..ph {
        for pc in 0..pw {
            let runs = out.row_mut(pr * pw + pc).chunks_exact_mut(patch);
            for (run_index, run) in runs.enumerate() {
                let (ch, dy) = (run_index / patch, run_index % patch);
                let start = (ch * h + pr * patch + dy) * w + pc * patch;
                run.copy_from_slice(&pixels[start..start + patch]);
            }
        }
    }
}

/// Linear patch embedding plus class token and position embeddings.
///
/// Produces the encoder input `X₀ = [x_cls; x₁E; …; x_N·E] + E_pos`
/// (paper Section II-A).
#[derive(Debug, Clone)]
pub struct PatchEmbed {
    projection: Linear,
    cls_token: Param,
    pos_embed: Param,
    patch_size: usize,
}

impl PatchEmbed {
    /// Creates the embedding for a configuration.
    pub fn new(config: &ViTConfig, rng: &mut impl Rng) -> Self {
        config.validate();
        let projection = Linear::new(config.patch_dim(), config.embed_dim, true, rng);
        let cls_token = Param::new(
            "cls_token",
            Tensor::rand_trunc_normal(&[1, config.embed_dim], 0.0, 0.02, rng),
        );
        let pos_embed = Param::new(
            "pos_embed",
            Tensor::rand_trunc_normal(&[config.num_tokens(), config.embed_dim], 0.0, 0.02, rng),
        );
        Self {
            projection,
            cls_token,
            pos_embed,
            patch_size: config.patch_size,
        }
    }

    /// The linear projection applied to flattened patches.
    pub fn projection(&self) -> &Linear {
        &self.projection
    }

    /// The learnable class token `[1, D]`.
    pub fn cls_token(&self) -> &Param {
        &self.cls_token
    }

    /// The learnable position embeddings `[N+1, D]`.
    pub fn pos_embed(&self) -> &Param {
        &self.pos_embed
    }

    /// The patch side length.
    pub fn patch_size(&self) -> usize {
        self.patch_size
    }

    /// Differentiable forward: `[C,H,W]` image → `[N+1, D]` tokens.
    pub fn forward(&self, tape: &mut Tape, image: &Tensor) -> Var {
        let patches = image_to_patches(image, self.patch_size);
        let p = tape.constant(patches);
        let embedded = self.projection.forward(tape, p);
        let cls = tape.param(&self.cls_token);
        let tokens = tape.concat_rows(&[cls, embedded]);
        let pos = tape.param(&self.pos_embed);
        tape.add(tokens, pos)
    }

    /// Inference forward (no tape).
    pub fn infer(&self, image: &Tensor) -> Tensor {
        let patches = image_to_patches(image, self.patch_size);
        let embedded = self.projection.infer(&patches);
        let tokens = Tensor::concat_rows(&[self.cls_token.value(), &embedded]);
        tokens.add(self.pos_embed.value())
    }

    /// Multiply–accumulate count of the projection for one image.
    pub fn macs(&self) -> u64 {
        self.projection.macs(self.pos_embed.value().dim(0) - 1)
    }
}

impl Module for PatchEmbed {
    fn params(&self) -> Vec<&Param> {
        let mut v = self.projection.params();
        v.push(&self.cls_token);
        v.push(&self.pos_embed);
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = self.projection.params_mut();
        v.push(&mut self.cls_token);
        v.push(&mut self.pos_embed);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn patches_cover_image_exactly() {
        let image = Tensor::from_fn(&[1, 4, 4], |ix| (ix[1] * 4 + ix[2]) as f32);
        let patches = image_to_patches(&image, 2);
        // Patch 0 is the top-left 2x2 tile.
        assert_eq!(patches.row(0), &[0.0, 1.0, 4.0, 5.0]);
        // Patch 3 is the bottom-right tile.
        assert_eq!(patches.row(3), &[10.0, 11.0, 14.0, 15.0]);
        // Element multiset is preserved.
        let mut all: Vec<f32> = patches.data().to_vec();
        all.sort_by(f32::total_cmp);
        let mut orig: Vec<f32> = image.data().to_vec();
        orig.sort_by(f32::total_cmp);
        assert_eq!(all, orig);
    }

    #[test]
    fn run_copies_match_the_per_pixel_definition() {
        // The run-wise copy against the definition it replaced, written into
        // a stale buffer of another shape.
        let mut rng = StdRng::seed_from_u64(3);
        let (c, patch) = (3, 4);
        let image = Tensor::rand_uniform(&[c, 8, 12], 0.0, 1.0, &mut rng);
        let mut out = Tensor::full(&[5, 7], 9.0);
        image_to_patches_into(&image, patch, &mut out);
        assert_eq!(out.dims(), &[6, c * patch * patch]);
        for pr in 0..2 {
            for pc in 0..3 {
                let mut k = 0;
                for ch in 0..c {
                    for dy in 0..patch {
                        for dx in 0..patch {
                            let pixel = image.at(&[ch, pr * patch + dy, pc * patch + dx]);
                            assert_eq!(out.at(&[pr * 3 + pc, k]), pixel);
                            k += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn channels_are_contiguous_within_patch() {
        let image = Tensor::from_fn(&[2, 2, 2], |ix| ix[0] as f32 * 100.0);
        let patches = image_to_patches(&image, 2);
        assert_eq!(patches.dims(), &[1, 8]);
        assert_eq!(&patches.row(0)[..4], &[0.0; 4]);
        assert_eq!(&patches.row(0)[4..], &[100.0; 4]);
    }

    #[test]
    fn embed_output_shape_and_paths_agree() {
        let cfg = ViTConfig::test_tiny(4);
        let mut rng = StdRng::seed_from_u64(0);
        let embed = PatchEmbed::new(&cfg, &mut rng);
        let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
        let out = embed.infer(&image);
        assert_eq!(out.dims(), &[cfg.num_tokens(), cfg.embed_dim]);
        let mut tape = Tape::new();
        let v = embed.forward(&mut tape, &image);
        assert!(tape.value(v).allclose(&out, 1e-5));
    }

    #[test]
    fn cls_token_occupies_row_zero() {
        let cfg = ViTConfig::test_tiny(4);
        let mut rng = StdRng::seed_from_u64(1);
        let embed = PatchEmbed::new(&cfg, &mut rng);
        let image = Tensor::zeros(&[3, 16, 16]);
        let out = embed.infer(&image);
        // With a zero image, row 0 = cls_token + pos_embed[0].
        let expect: Vec<f32> = embed
            .cls_token
            .value()
            .row(0)
            .iter()
            .zip(embed.pos_embed.value().row(0))
            .map(|(a, b)| a + b)
            .collect();
        assert_eq!(out.row(0), &expect[..]);
    }

    #[test]
    fn gradients_reach_cls_and_pos() {
        let cfg = ViTConfig::test_tiny(4);
        let mut rng = StdRng::seed_from_u64(2);
        let mut embed = PatchEmbed::new(&cfg, &mut rng);
        let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let v = embed.forward(&mut tape, &image);
        let loss = tape.mean_all(v);
        let grads = tape.backward(loss);
        tape.write_grads(&grads, embed.params_mut());
        for p in embed.params() {
            assert!(p.grad().is_some(), "no grad for {}", p.name());
        }
    }
}
