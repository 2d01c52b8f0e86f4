//! Procedural image generator — the ImageNet-1K stand-in.
//!
//! HeatViT's token pruning exploits *spatial* redundancy: patches covering
//! the object carry the label, background patches are prunable, and the
//! object's size varies per image (which is exactly why image-adaptive
//! pruning beats static pruning, paper Fig. 4). This generator reproduces
//! those statistics synthetically: each class is a distinct geometric
//! texture, composited at a random location and scale over background
//! clutter. The object-coverage fraction is recorded per sample so
//! experiments can correlate learned keep rates with image content.

use heatvit_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The geometric texture family drawn for a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeFamily {
    /// Filled disk.
    Disk,
    /// Annulus (ring).
    Ring,
    /// Axis-aligned filled square.
    Square,
    /// Filled diamond (L1 ball).
    Diamond,
    /// Horizontal stripes inside the object disk.
    HStripes,
    /// Vertical stripes inside the object disk.
    VStripes,
    /// Checkerboard inside the object square.
    Checker,
    /// Plus / cross shape.
    Cross,
    /// Upward triangle.
    Triangle,
    /// Diagonal X shape.
    DiagCross,
}

impl ShapeFamily {
    /// All families, indexed by class id.
    pub const ALL: [ShapeFamily; 10] = [
        ShapeFamily::Disk,
        ShapeFamily::Ring,
        ShapeFamily::Square,
        ShapeFamily::Diamond,
        ShapeFamily::HStripes,
        ShapeFamily::VStripes,
        ShapeFamily::Checker,
        ShapeFamily::Cross,
        ShapeFamily::Triangle,
        ShapeFamily::DiagCross,
    ];

    /// Signed membership of a point in the shape, in object-local
    /// coordinates (`u`, `v` ∈ [-1, 1] inside the bounding box).
    fn contains(&self, u: f32, v: f32) -> bool {
        let r2 = u * u + v * v;
        match self {
            ShapeFamily::Disk => r2 <= 1.0,
            ShapeFamily::Ring => (0.36..=1.0).contains(&r2),
            ShapeFamily::Square => u.abs() <= 0.85 && v.abs() <= 0.85,
            ShapeFamily::Diamond => u.abs() + v.abs() <= 1.1,
            ShapeFamily::HStripes => r2 <= 1.0 && ((v + 1.0) * 3.0) as i32 % 2 == 0,
            ShapeFamily::VStripes => r2 <= 1.0 && ((u + 1.0) * 3.0) as i32 % 2 == 0,
            ShapeFamily::Checker => {
                u.abs() <= 0.9
                    && v.abs() <= 0.9
                    && (((u + 1.0) * 2.5) as i32 + ((v + 1.0) * 2.5) as i32) % 2 == 0
            }
            ShapeFamily::Cross => u.abs() <= 0.35 || v.abs() <= 0.35,
            ShapeFamily::Triangle => v >= -0.9 && u.abs() <= (1.0 - (v + 0.9) / 1.9),
            ShapeFamily::DiagCross => (u - v).abs() <= 0.4 || (u + v).abs() <= 0.4,
        }
    }
}

/// Configuration of the synthetic dataset.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Square image side length in pixels.
    pub image_size: usize,
    /// Number of channels (3 mirrors RGB; 1 for quick tests).
    pub channels: usize,
    /// Number of classes (≤ 10, one [`ShapeFamily`] each).
    pub num_classes: usize,
    /// Smallest object diameter as a fraction of the image side.
    pub min_object_scale: f32,
    /// Largest object diameter as a fraction of the image side.
    pub max_object_scale: f32,
    /// Standard deviation of the additive background/object noise.
    pub noise_std: f32,
}

impl SyntheticConfig {
    /// The configuration used by the trainable µDeiT experiments:
    /// 32×32 RGB, 8 classes, objects covering 25–90 % of the image side.
    pub fn micro() -> Self {
        Self {
            image_size: 32,
            channels: 3,
            num_classes: 8,
            min_object_scale: 0.25,
            max_object_scale: 0.9,
            noise_std: 0.25,
        }
    }

    /// A very small configuration for fast unit tests (16×16, 4 classes).
    pub fn tiny() -> Self {
        Self {
            image_size: 16,
            channels: 3,
            num_classes: 4,
            min_object_scale: 0.3,
            max_object_scale: 0.8,
            noise_std: 0.2,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if any field is out of range.
    pub fn validate(&self) {
        assert!(self.image_size >= 4, "image too small");
        assert!(matches!(self.channels, 1 | 3), "channels must be 1 or 3");
        assert!(
            (1..=ShapeFamily::ALL.len()).contains(&self.num_classes),
            "num_classes must be in 1..=10"
        );
        assert!(
            0.0 < self.min_object_scale && self.min_object_scale <= self.max_object_scale,
            "invalid object scale range"
        );
        assert!(self.max_object_scale <= 1.0, "object larger than image");
        assert!(self.noise_std >= 0.0, "negative noise");
    }
}

/// One labelled image.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Image tensor `[channels, H, W]`, values roughly in `[0, 1]`.
    pub image: Tensor,
    /// Class id in `0..num_classes`.
    pub label: usize,
    /// Fraction of pixels covered by the object (drives adaptive pruning).
    pub object_fraction: f32,
    /// Object bounding box `(row0, col0, row1, col1)`, half-open.
    pub bbox: (usize, usize, usize, usize),
}

/// Generates one sample for class `label`.
///
/// # Panics
///
/// Panics if `label >= config.num_classes` or the config is invalid.
pub fn generate_sample(config: &SyntheticConfig, label: usize, rng: &mut StdRng) -> Sample {
    config.validate();
    assert!(label < config.num_classes, "label out of range");
    let n = config.image_size;
    let family = ShapeFamily::ALL[label];

    // Background: low-frequency gradient clutter plus noise.
    let gx: f32 = rng.gen_range(-0.3..0.3);
    let gy: f32 = rng.gen_range(-0.3..0.3);
    let base: f32 = rng.gen_range(0.2..0.45);

    // Object placement.
    let diameter = rng.gen_range(config.min_object_scale..=config.max_object_scale) * n as f32;
    let radius = diameter / 2.0;
    let cx = rng.gen_range(radius..(n as f32 - radius).max(radius + 1e-3));
    let cy = rng.gen_range(radius..(n as f32 - radius).max(radius + 1e-3));
    // Per-channel object tint keeps channels informative but correlated.
    let tint: Vec<f32> = (0..config.channels)
        .map(|_| rng.gen_range(0.75..1.0))
        .collect();

    let mut image = Tensor::zeros(&[config.channels, n, n]);
    let mut object_pixels = 0usize;
    let (mut r0, mut c0, mut r1, mut c1) = (n, n, 0usize, 0usize);
    for row in 0..n {
        for col in 0..n {
            let u = (col as f32 - cx) / radius;
            let v = (row as f32 - cy) / radius;
            let inside = u.abs() <= 1.0 && v.abs() <= 1.0 && family.contains(u, v);
            if inside {
                object_pixels += 1;
                r0 = r0.min(row);
                c0 = c0.min(col);
                r1 = r1.max(row + 1);
                c1 = c1.max(col + 1);
            }
            for (ch, &tint_value) in tint.iter().enumerate() {
                let bg = base + gx * (col as f32 / n as f32) + gy * (row as f32 / n as f32);
                let value = if inside { tint_value } else { bg };
                let noise = config.noise_std * heatvit_tensor::sample_standard_normal(rng);
                image.set(&[ch, row, col], (value + noise).clamp(0.0, 1.0));
            }
        }
    }
    if object_pixels == 0 {
        // Degenerate draw (possible only for sliver-thin shapes at tiny
        // scales): mark an empty box at the center.
        r0 = n / 2;
        c0 = n / 2;
        r1 = n / 2;
        c1 = n / 2;
    }
    Sample {
        image,
        label,
        object_fraction: object_pixels as f32 / (n * n) as f32,
        bbox: (r0, c0, r1, c1),
    }
}

/// A fully materialized synthetic dataset with balanced classes.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    config: SyntheticConfig,
    samples: Vec<Sample>,
}

impl SyntheticDataset {
    /// Generates `len` samples with labels cycling through the classes.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid.
    pub fn generate(config: SyntheticConfig, len: usize, seed: u64) -> Self {
        config.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = (0..len)
            .map(|i| generate_sample(&config, i % config.num_classes, &mut rng))
            .collect();
        Self { config, samples }
    }

    /// The generation configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sample at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn sample(&self, index: usize) -> &Sample {
        &self.samples[index]
    }

    /// Iterates over all samples.
    pub fn iter(&self) -> std::slice::Iter<'_, Sample> {
        self.samples.iter()
    }

    /// Splits into `(train, val)` with `val_fraction` of samples held out.
    ///
    /// The stride is applied to each sample's occurrence index *within its
    /// class*, so both halves stay class-balanced for every fraction. (A
    /// positional stride would alias with the label cycle whenever the
    /// stride divides the class count — e.g. 8 classes at `val_fraction
    /// 0.25` would hold out only classes 3 and 7.)
    ///
    /// # Panics
    ///
    /// Panics if `val_fraction` is not within `(0, 1)`.
    pub fn split(&self, val_fraction: f32) -> (SyntheticDataset, SyntheticDataset) {
        assert!(
            (0.0..1.0).contains(&val_fraction) && val_fraction > 0.0,
            "val_fraction must be in (0, 1)"
        );
        let stride = (1.0 / val_fraction).round().max(2.0) as usize;
        let mut train = Vec::new();
        let mut val = Vec::new();
        let mut occurrence = vec![0usize; self.config.num_classes];
        for s in self.samples.iter() {
            let i = occurrence[s.label];
            occurrence[s.label] += 1;
            if i % stride == stride - 1 {
                val.push(s.clone());
            } else {
                train.push(s.clone());
            }
        }
        (
            SyntheticDataset {
                config: self.config,
                samples: train,
            },
            SyntheticDataset {
                config: self.config,
                samples: val,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticDataset::generate(SyntheticConfig::tiny(), 8, 5);
        let b = SyntheticDataset::generate(SyntheticConfig::tiny(), 8, 5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.image.max_abs_diff(&y.image) <= 0.0);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn labels_are_balanced() {
        let ds = SyntheticDataset::generate(SyntheticConfig::tiny(), 40, 0);
        let mut counts = [0usize; 4];
        for s in ds.iter() {
            counts[s.label] += 1;
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn pixel_range_is_clamped() {
        let ds = SyntheticDataset::generate(SyntheticConfig::tiny(), 4, 1);
        for s in ds.iter() {
            assert!(s.image.data().iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn object_fraction_tracks_scale() {
        let mut small_cfg = SyntheticConfig::micro();
        small_cfg.min_object_scale = 0.2;
        small_cfg.max_object_scale = 0.25;
        let mut big_cfg = SyntheticConfig::micro();
        big_cfg.min_object_scale = 0.85;
        big_cfg.max_object_scale = 0.9;
        let small = SyntheticDataset::generate(small_cfg, 16, 3);
        let big = SyntheticDataset::generate(big_cfg, 16, 3);
        let avg = |d: &SyntheticDataset| {
            d.iter().map(|s| s.object_fraction).sum::<f32>() / d.len() as f32
        };
        assert!(
            avg(&big) > 2.0 * avg(&small),
            "bigger objects must cover more pixels"
        );
    }

    #[test]
    fn bbox_contains_object() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = generate_sample(&SyntheticConfig::micro(), 0, &mut rng);
        let (r0, c0, r1, c1) = s.bbox;
        assert!(r0 < r1 && c0 < c1, "disk must have a non-empty bbox");
        let area = ((r1 - r0) * (c1 - c0)) as f32 / (32.0 * 32.0);
        // The bbox is at least as large as the object it encloses.
        assert!(area >= s.object_fraction * 0.9);
    }

    #[test]
    fn split_is_balanced_and_disjoint_in_size() {
        let ds = SyntheticDataset::generate(SyntheticConfig::tiny(), 40, 2);
        let (train, val) = ds.split(0.25);
        assert_eq!(train.len() + val.len(), 40);
        // 4 classes × 10 occurrences, every 4th occurrence per class held
        // out: 2 per class.
        assert_eq!(val.len(), 8);
    }

    #[test]
    fn split_holds_out_every_class_even_when_stride_divides_class_count() {
        // Regression: 8 cycling classes with a positional stride of 4 used
        // to put only classes 3 and 7 in the validation half.
        let mut cfg = SyntheticConfig::micro();
        cfg.num_classes = 8;
        let ds = SyntheticDataset::generate(cfg, 64, 0);
        let (train, val) = ds.split(0.25);
        for half in [&train, &val] {
            let mut counts = [0usize; 8];
            for s in half.iter() {
                counts[s.label] += 1;
            }
            assert!(
                counts.iter().all(|&c| c > 0),
                "every class must appear in both halves, got {counts:?}"
            );
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(max - min <= 1, "halves must stay balanced, got {counts:?}");
        }
    }

    #[test]
    fn classes_are_visually_distinct() {
        // Mean intra-class pixel distance should be smaller than mean
        // inter-class distance when objects are large and centered.
        let cfg = SyntheticConfig {
            image_size: 16,
            channels: 1,
            num_classes: 4,
            min_object_scale: 0.9,
            max_object_scale: 0.95,
            noise_std: 0.05,
        };
        let ds = SyntheticDataset::generate(cfg, 32, 7);
        let dist = |a: &Sample, b: &Sample| a.image.sub(&b.image).norm();
        let mut intra = (0.0, 0);
        let mut inter = (0.0, 0);
        for i in 0..ds.len() {
            for j in (i + 1)..ds.len() {
                let d = dist(ds.sample(i), ds.sample(j));
                if ds.sample(i).label == ds.sample(j).label {
                    intra = (intra.0 + d, intra.1 + 1);
                } else {
                    inter = (inter.0 + d, inter.1 + 1);
                }
            }
        }
        let intra = intra.0 / intra.1 as f32;
        let inter = inter.0 / inter.1 as f32;
        assert!(
            inter > intra,
            "classes not separable: intra {intra} inter {inter}"
        );
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn label_bounds_checked() {
        let mut rng = StdRng::seed_from_u64(0);
        generate_sample(&SyntheticConfig::tiny(), 4, &mut rng);
    }
}
