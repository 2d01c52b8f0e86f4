//! Lightweight training-time augmentations.
//!
//! DeiT's heavy augmentation recipe (RandAugment, mixup, …) is overkill for
//! the synthetic dataset; horizontal flips and small translations are enough
//! to stop the µDeiT backbones from memorizing pixel positions, while
//! preserving the object-coverage statistics the pruning experiments rely on.

use heatvit_tensor::Tensor;
use rand::Rng;

/// Horizontally mirrors a `[C, H, W]` image.
///
/// # Panics
///
/// Panics if `image` is not rank 3.
fn hflip(image: &Tensor) -> Tensor {
    assert_eq!(image.rank(), 3, "expected [C, H, W]");
    let (c, h, w) = (image.dim(0), image.dim(1), image.dim(2));
    Tensor::from_fn(&[c, h, w], |ix| image.at(&[ix[0], ix[1], w - 1 - ix[2]]))
}

/// Translates a `[C, H, W]` image by `(dy, dx)` pixels, filling exposed
/// borders with the image mean.
///
/// # Panics
///
/// Panics if `image` is not rank 3.
fn translate(image: &Tensor, dy: i32, dx: i32) -> Tensor {
    assert_eq!(image.rank(), 3, "expected [C, H, W]");
    let (c, h, w) = (image.dim(0), image.dim(1), image.dim(2));
    let fill = image.mean_all();
    Tensor::from_fn(&[c, h, w], |ix| {
        let src_r = ix[1] as i32 - dy;
        let src_c = ix[2] as i32 - dx;
        if (0..h as i32).contains(&src_r) && (0..w as i32).contains(&src_c) {
            image.at(&[ix[0], src_r as usize, src_c as usize])
        } else {
            fill
        }
    })
}

/// Randomly applies a flip (p=0.5) and a jitter of up to ±`max_shift`
/// pixels in each direction.
pub fn random_augment(image: &Tensor, max_shift: i32, rng: &mut impl Rng) -> Tensor {
    let mut out = if rng.gen_bool(0.5) {
        hflip(image)
    } else {
        image.clone()
    };
    if max_shift > 0 {
        let dy = rng.gen_range(-max_shift..=max_shift);
        let dx = rng.gen_range(-max_shift..=max_shift);
        if dy != 0 || dx != 0 {
            out = translate(&out, dy, dx);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ramp() -> Tensor {
        Tensor::from_fn(&[1, 2, 4], |ix| (ix[1] * 4 + ix[2]) as f32)
    }

    #[test]
    fn hflip_mirrors_columns() {
        let img = ramp();
        let f = hflip(&img);
        assert_eq!(f.at(&[0, 0, 0]), img.at(&[0, 0, 3]));
        assert_eq!(f.at(&[0, 1, 3]), img.at(&[0, 1, 0]));
    }

    #[test]
    fn hflip_is_involution() {
        let img = ramp();
        assert!(hflip(&hflip(&img)).max_abs_diff(&img) <= 0.0);
    }

    #[test]
    fn translate_moves_content() {
        let img = ramp();
        let t = translate(&img, 0, 1);
        assert_eq!(t.at(&[0, 0, 1]), img.at(&[0, 0, 0]));
        // Exposed border takes the mean fill.
        assert_eq!(t.at(&[0, 0, 0]), img.mean_all());
    }

    #[test]
    fn zero_translate_is_identity() {
        let img = ramp();
        assert!(translate(&img, 0, 0).max_abs_diff(&img) <= 0.0);
    }

    #[test]
    fn random_augment_preserves_shape_and_range() {
        let mut rng = StdRng::seed_from_u64(0);
        let img = ramp();
        for _ in 0..10 {
            let out = random_augment(&img, 1, &mut rng);
            assert_eq!(out.dims(), img.dims());
            let max = |t: &Tensor| t.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
            assert!(max(&out) <= max(&img));
        }
    }
}
