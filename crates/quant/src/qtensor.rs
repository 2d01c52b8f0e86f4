//! Quantized tensors and quantization parameters.

use heatvit_tensor::{align_start, Tensor};

/// Quantization parameters mapping `f32 ↔ int8`.
///
/// HeatViT uses symmetric 8-bit fixed-point quantization for weights and
/// activations (paper Section V), so the zero point is 0 and the mapping is
/// `q = clamp(round(x / scale), -127, 127)`.
///
/// # Examples
///
/// ```
/// use heatvit_quant::QuantParams;
///
/// let qp = QuantParams::from_abs_max(2.54);
/// assert!((qp.scale - 0.02).abs() < 1e-6);
/// assert_eq!(qp.quantize(1.0), 50);
/// assert!((qp.dequantize(50) - 1.0).abs() < qp.scale);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real value represented by one integer step.
    pub scale: f32,
}

impl QuantParams {
    /// The symmetric int8 quantization range limit.
    pub const QMAX: i32 = 127;

    /// Parameters covering the range `[-abs_max, abs_max]`.
    ///
    /// A degenerate `abs_max` of zero maps to a tiny positive scale so the
    /// quantizer stays well-defined for all-zero tensors.
    pub fn from_abs_max(abs_max: f32) -> Self {
        let abs_max = abs_max.abs().max(1e-8);
        Self {
            scale: abs_max / Self::QMAX as f32,
        }
    }

    /// Parameters calibrated from a tensor's max-abs value.
    pub fn observe(t: &Tensor) -> Self {
        let abs_max = t.data().iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        Self::from_abs_max(abs_max)
    }

    /// Quantizes one value.
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        // 1.5·2²³: in its binade an f32 has a unit in the last place of
        // exactly 1, so adding an integer of magnitude ≤ 127 to it is exact
        // and leaves that integer, in two's complement, in the low byte.
        const INT_IN_LOW_BITS: f32 = 12_582_912.0;
        let q = (x / self.scale)
            .round()
            .clamp(-(Self::QMAX as f32), Self::QMAX as f32);
        // Same value as `q as i8` for every input, NaN (→ 0) included, but
        // free of the saturating cast that keeps a loop over it scalar.
        if q.is_nan() {
            0
        } else {
            (q + INT_IN_LOW_BITS).to_bits() as i8
        }
    }

    /// Dequantizes one value.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }
}

/// An int8 tensor with its quantization parameters. Its values start on a
/// cache line ([`heatvit_tensor::align_start`]), clones included.
#[derive(Debug)]
pub struct QTensor {
    /// The values are `data[start..]`; `data[..start]` is padding.
    data: Vec<i8>,
    start: usize,
    dims: Vec<usize>,
    params: QuantParams,
}

impl Clone for QTensor {
    fn clone(&self) -> Self {
        let mut copy = Self::empty(self.params);
        copy.start_fill(&self.dims, self.params)
            .extend_from_slice(self.data());
        copy
    }
}

impl Default for QTensor {
    /// An empty staging buffer (shape `[0]`, unit scale) for use with
    /// [`QTensor::quantize_with_into`].
    fn default() -> Self {
        Self {
            dims: vec![0],
            ..Self::empty(QuantParams { scale: 1.0 })
        }
    }
}

impl QTensor {
    /// No storage and no shape: the start of an allocating constructor.
    fn empty(params: QuantParams) -> Self {
        Self {
            data: Vec::new(),
            start: 0,
            dims: Vec::new(),
            params,
        }
    }

    /// Quantizes a float tensor with max-abs calibration.
    pub fn quantize(t: &Tensor) -> Self {
        Self::quantize_with(t, QuantParams::observe(t))
    }

    /// Quantizes a float tensor with the given parameters.
    pub(crate) fn quantize_with(t: &Tensor, params: QuantParams) -> Self {
        let mut q = Self::empty(params);
        Self::quantize_with_into(t, params, &mut q);
        q
    }

    /// Quantizes `t` with `params` into a caller-provided buffer.
    ///
    /// `out`'s integer storage is reused (no allocation once warm) and its
    /// shape/parameters are overwritten — the int8 analogue of the float
    /// `_into` ops backing the engine's allocation-free hot path. Values are
    /// identical to the allocating path.
    pub fn quantize_with_into(t: &Tensor, params: QuantParams, out: &mut QTensor) {
        out.start_fill(t.dims(), params)
            .extend(t.data().iter().map(|&v| params.quantize(v)));
    }

    /// Begins an incremental refill: installs `dims` and `params`, empties
    /// the integer storage down to the padding that puts the next value on
    /// a cache line (keeping an allocation that fits), and hands the caller
    /// the backing buffer to push quantized values into — the entry point of
    /// the fused layer-norm + quantize path, which appends one normalized
    /// tile at a time instead of quantizing a materialized float tensor.
    ///
    /// The caller must push exactly `dims.iter().product()` values (each
    /// computed with `params.quantize`) before using the tensor; the kernels
    /// debug-assert the length and the alignment.
    pub fn start_fill(&mut self, dims: &[usize], params: QuantParams) -> &mut Vec<i8> {
        self.dims.clear();
        self.dims.extend_from_slice(dims);
        self.params = params;
        self.start = align_start(&mut self.data, dims.iter().product());
        &mut self.data
    }

    /// The integer data (row-major).
    pub fn data(&self) -> &[i8] {
        &self.data[self.start..]
    }

    /// The shape.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// The quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Size of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Reconstructs the float tensor (with quantization error).
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.data()
                .iter()
                .map(|&q| self.params.dequantize(q))
                .collect(),
            &self.dims,
        )
    }
}

/// Round-trips a tensor through int8 ("fake quantization") — the standard
/// way to measure accuracy impact without integer kernels.
pub fn fake_quantize(t: &Tensor) -> Tensor {
    QTensor::quantize(t).dequantize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::rand_normal(&[32, 32], 0.0, 1.0, &mut rng);
        let q = QTensor::quantize(&t);
        // Everything inside the calibrated range errs by ≤ scale/2.
        assert!(q.dequantize().max_abs_diff(&t) <= q.params().scale * 0.5 + 1e-7);
    }

    #[test]
    fn quantize_saturates_outliers() {
        let qp = QuantParams::from_abs_max(1.0);
        assert_eq!(qp.quantize(5.0), 127);
        assert_eq!(qp.quantize(-5.0), -127);
    }

    #[test]
    fn zero_tensor_is_stable() {
        let t = Tensor::zeros(&[4, 4]);
        let q = QTensor::quantize(&t);
        assert!(q.dequantize().max_abs_diff(&t) <= 0.0);
    }

    #[test]
    fn symmetric_range_is_symmetric() {
        let qp = QuantParams::from_abs_max(2.0);
        assert_eq!(qp.quantize(2.0), -qp.quantize(-2.0));
    }

    #[test]
    fn quantize_equals_the_saturating_cast_it_replaced() {
        let cast = |qp: &QuantParams, x: f32| {
            let q = (x / qp.scale).round();
            q.clamp(-(QuantParams::QMAX as f32), QuantParams::QMAX as f32) as i8
        };
        for scale in [1.0f32, 0.02, 7.874e-11, 3.0e4] {
            let qp = QuantParams { scale };
            // Every code, both sides of every rounding tie, and far outside.
            for step in -1100..=1100 {
                let x = step as f32 * 0.125 * scale;
                for x in [x, f32::from_bits(x.to_bits() + 1), -x] {
                    assert_eq!(qp.quantize(x), cast(&qp, x), "x={x:e} scale={scale:e}");
                }
            }
            for x in [
                0.0,
                -0.0,
                f32::MIN_POSITIVE,
                f32::MAX,
                f32::MIN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                -f32::NAN,
                f32::from_bits(0x7fc0_00ff),
            ] {
                assert_eq!(qp.quantize(x), cast(&qp, x), "x={x:e} scale={scale:e}");
            }
        }
    }

    #[test]
    fn fake_quantize_preserves_shape_and_signal() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Tensor::rand_normal(&[8, 8], 0.0, 2.0, &mut rng);
        let f = fake_quantize(&t);
        assert_eq!(f.dims(), t.dims());
        // SQNR should be high: int8 on a well-scaled signal ≈ 30+ dB.
        let noise = f.sub(&t).norm();
        let signal = t.norm();
        assert!(signal / noise.max(1e-9) > 30.0, "sqnr too low");
    }

    #[test]
    fn quantize_with_into_reuses_buffer_and_matches() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = Tensor::rand_normal(&[6, 6], 0.0, 1.0, &mut rng);
        let params = QuantParams::observe(&t);
        let mut buf = QTensor::default();
        QTensor::quantize_with_into(&t, params, &mut buf);
        let fresh = QTensor::quantize_with(&t, params);
        assert_eq!(buf.data(), fresh.data());
        assert_eq!(buf.dims(), fresh.dims());
        // Refilling with a smaller tensor reshapes without reallocating.
        let cap = buf.data.capacity();
        let small = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut rng);
        QTensor::quantize_with_into(&small, params, &mut buf);
        assert_eq!(buf.dims(), &[2, 3]);
        assert_eq!(buf.data.capacity(), cap);
    }

    #[test]
    fn start_fill_tiled_quantize_matches_whole_tensor() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor::rand_normal(&[9, 5], 0.0, 1.0, &mut rng);
        let params = QuantParams::observe(&t);
        let whole = QTensor::quantize_with(&t, params);
        let mut buf = QTensor::default();
        let fill = buf.start_fill(t.dims(), params);
        for chunk in t.data().chunks(2 * 5) {
            fill.extend(chunk.iter().map(|&v| params.quantize(v)));
        }
        assert_eq!(buf.data(), whole.data());
        assert_eq!(buf.dims(), whole.dims());
        assert_eq!(buf.params(), whole.params());
    }

    fn on_cache_line(q: &QTensor) -> bool {
        q.data()
            .as_ptr()
            .addr()
            .is_multiple_of(heatvit_tensor::CACHE_LINE)
    }

    #[test]
    fn storage_starts_on_a_cache_line() {
        let mut rng = StdRng::seed_from_u64(4);
        let params = QuantParams { scale: 0.05 };
        let mut buf = QTensor::default();
        for dims in [[1, 1], [197, 192], [3, 5], [197, 768], [197, 192]] {
            let t = Tensor::rand_normal(&dims, 0.0, 1.0, &mut rng);
            QTensor::quantize_with_into(&t, params, &mut buf);
            assert!(on_cache_line(&buf), "quantize_with_into {dims:?}");
            let whole = QTensor::quantize_with(&t, params);
            assert!(on_cache_line(&whole), "quantize_with {dims:?}");
            assert_eq!(buf.data(), whole.data());
            let fill = buf.start_fill(&dims, params);
            fill.extend(t.data().iter().map(|&v| params.quantize(v)));
            assert!(on_cache_line(&buf), "start_fill {dims:?}");
            assert_eq!(buf.data(), whole.data());
            let copy = buf.clone();
            assert!(on_cache_line(&copy), "clone {dims:?}");
            assert_eq!((copy.data(), copy.dims()), (buf.data(), buf.dims()));
        }
    }

    #[test]
    fn observe_matches_from_abs_max() {
        let t = Tensor::from_vec(vec![-3.0, 1.0, 2.0], &[3]);
        let a = QuantParams::observe(&t);
        let b = QuantParams::from_abs_max(3.0);
        assert_eq!(a, b);
    }
}
