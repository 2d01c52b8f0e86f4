//! Fully-connected (linear) layer.

use crate::{Module, Param, Tape, Var};
use heatvit_tensor::{gemm_packed, pack_b, Tensor};
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

/// A [`Linear`]'s weight in the GEMM's panel layout, built on the first
/// inference call and kept until the weight can have changed.
#[derive(Clone, Default)]
struct PackedWeight(OnceLock<Vec<f32>>);

impl fmt::Debug for PackedWeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            Some(panels) => write!(f, "PackedWeight({} floats)", panels.len()),
            None => f.write_str("PackedWeight(not built)"),
        }
    }
}

/// A fully-connected layer `y = x·W + b`.
///
/// Weights are stored `[in_features, out_features]` so the forward pass is a
/// single row-major GEMM — the exact shape the FPGA GEMM engine consumes.
/// HeatViT's token selector is built entirely from this layer (paper
/// Section IV: "we design our token selector with linear layers … to reuse
/// the GEMM hardware component").
///
/// The inference entry points multiply from a packed copy of the weight
/// that is built once, on first use (as `QLinear` packs its int8 weight),
/// not per call. [`Module::params_mut`] — the only mutable path to the
/// weight — drops that copy, so the next inference call packs the new
/// values.
///
/// # Examples
///
/// ```
/// use heatvit_nn::{layers::Linear, Tape, Module};
/// use heatvit_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let layer = Linear::new(8, 4, true, &mut rng);
/// assert_eq!(layer.num_parameters(), 8 * 4 + 4);
///
/// // Differentiable path:
/// let mut tape = Tape::new();
/// let x = tape.constant(Tensor::ones(&[3, 8]));
/// let y = layer.forward(&mut tape, x);
/// assert_eq!(tape.dims(y), &[3, 4]);
///
/// // Inference path (no tape):
/// let y2 = layer.infer(&Tensor::ones(&[3, 8]));
/// assert!(tape.value(y).max_abs_diff(&y2) <= 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Option<Param>,
    in_features: usize,
    out_features: usize,
    packed: PackedWeight,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut impl Rng) -> Self {
        let weight = Param::new(
            format!("linear[{in_features}x{out_features}].weight"),
            Tensor::xavier_uniform(in_features, out_features, rng),
        );
        let bias = bias.then(|| {
            Param::new(
                format!("linear[{in_features}x{out_features}].bias"),
                Tensor::zeros(&[out_features]),
            )
        });
        Self {
            weight,
            bias,
            in_features,
            out_features,
            packed: PackedWeight::default(),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// The bias parameter, if present.
    pub fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }

    /// Differentiable forward: records onto `tape`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in_features]`.
    pub fn forward(&self, tape: &mut Tape, x: Var) -> Var {
        assert_eq!(
            tape.dims(x)[1],
            self.in_features,
            "linear input width mismatch"
        );
        let w = tape.param(&self.weight);
        let y = tape.matmul(x, w);
        match &self.bias {
            Some(b) => {
                let bv = tape.param(b);
                tape.add_row_broadcast(y, bv)
            }
            None => y,
        }
    }

    /// The weight's packed panels, built on first use. Concurrent first
    /// callers block on one build and then share it.
    pub(crate) fn packed_weight(&self) -> &[f32] {
        self.packed
            .0
            .get_or_init(|| pack_b(self.weight.value().as_mat()))
    }

    /// Inference forward (no tape, no gradient).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in_features]`.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        // Born at its final shape: growing a default tensor costs two more
        // heap requests.
        let mut out = Tensor::zeros(&[x.dim(0), self.out_features]);
        self.infer_into(x, &mut out);
        out
    }

    /// [`Linear::infer`] writing into a caller-provided output tensor.
    ///
    /// `out` is reshaped in place (reusing its allocation) and overwritten
    /// with values bit-identical to `self.infer(x)` — the building block of
    /// the batched engine's allocation-free hot path.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[N, in_features]`.
    pub fn infer_into(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.dim(1), self.in_features, "linear input width mismatch");
        out.reset_unspecified(&[x.dim(0), self.out_features]);
        gemm_packed(
            x.as_mat(),
            self.packed_weight(),
            self.bias.as_ref().map(|b| b.value().data()),
            out.as_mat_mut(),
        );
    }

    /// Multiply–accumulate count for an input of `n` rows (used by the
    /// complexity model and the FPGA scheduler).
    pub fn macs(&self, n: usize) -> u64 {
        n as u64 * self.in_features as u64 * self.out_features as u64
    }
}

impl Module for Linear {
    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // The caller may rewrite the weight through the reference handed
        // out below; the packed copy is rebuilt on the next inference call.
        self.packed.0.take();
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_infer() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(5, 3, true, &mut rng);
        let x = Tensor::rand_normal(&[4, 5], 0.0, 1.0, &mut rng);
        let mut tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = layer.forward(&mut tape, xv);
        assert!(tape.value(y).max_abs_diff(&layer.infer(&x)) <= 1e-6);
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(4, 4, false, &mut rng);
        assert_eq!(layer.params().len(), 1);
        assert_eq!(layer.num_parameters(), 16);
    }

    #[test]
    fn gradients_flow_to_weight_and_bias() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(3, 2, true, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[2, 3]));
        let y = layer.forward(&mut tape, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        tape.write_grads(&grads, layer.params_mut());
        assert!(layer.weight().grad().is_some());
        assert!(layer.bias().unwrap().grad().is_some());
        // d(sum)/dW = xᵀ·1: every weight grad element equals #rows = 2.
        assert_eq!(layer.weight().grad().unwrap().data(), &[2.0; 6]);
        assert_eq!(layer.bias().unwrap().grad().unwrap().data(), &[2.0; 2]);
    }

    #[test]
    fn macs_formula() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Linear::new(192, 768, true, &mut rng);
        assert_eq!(layer.macs(197), 197 * 192 * 768);
    }

    #[test]
    fn packed_weight_is_rebuilt_after_params_mut() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = Linear::new(7, 40, true, &mut rng);
        let x = Tensor::rand_normal(&[9, 7], 0.0, 1.0, &mut rng);
        let before = layer.infer(&x);
        assert!(layer.packed.0.get().is_some(), "first use packs the weight");

        let new_weight = Tensor::rand_normal(&[7, 40], 0.0, 1.0, &mut rng);
        *layer.params_mut()[0].value_mut() = new_weight;
        assert!(layer.packed.0.get().is_none(), "params_mut drops the pack");

        // A clone taken before any repack holds the new weight and no pack.
        let fresh = layer.clone();
        let after = layer.infer(&x);
        assert_eq!(after.data(), fresh.infer(&x).data(), "bit for bit");
        assert_ne!(after.data(), before.data(), "the old panels are gone");
        // Every inference entry point reads the same, rebuilt, pack.
        let mut out = Tensor::default();
        layer.infer_into(&x, &mut out);
        assert_eq!(out.data(), after.data());
    }

    #[test]
    fn clone_carries_its_own_pack() {
        let mut rng = StdRng::seed_from_u64(6);
        let layer = Linear::new(5, 33, false, &mut rng);
        let x = Tensor::rand_normal(&[4, 5], 0.0, 1.0, &mut rng);
        let want = layer.infer(&x);

        // Cloned warm: the copy starts with the panels and gives the same
        // bits; rewriting the copy's weight leaves the original alone.
        let mut warm = layer.clone();
        assert!(warm.packed.0.get().is_some());
        assert_eq!(warm.infer(&x).data(), want.data());
        warm.params_mut()[0].value_mut().fill(0.0);
        assert!(warm.infer(&x).data().iter().all(|&v| v == 0.0));
        assert_eq!(layer.infer(&x).data(), want.data());

        // Cloned cold (after an update): the copy packs for itself.
        warm.params_mut();
        let cold = warm.clone();
        assert!(cold.packed.0.get().is_none());
        assert_eq!(cold.infer(&x).data(), warm.infer(&x).data());
    }

    #[test]
    fn concurrent_first_use_builds_one_consistent_pack() {
        let mut rng = StdRng::seed_from_u64(7);
        let layer = Linear::new(64, 96, true, &mut rng);
        let x = Tensor::rand_normal(&[13, 64], 0.0, 1.0, &mut rng);
        let want = layer.clone().infer(&x);
        // Both threads leave the barrier into a cold layer.
        let barrier = std::sync::Barrier::new(2);
        let results: Vec<(Tensor, usize)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let out = layer.infer(&x);
                        (out, layer.packed_weight().as_ptr() as usize)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });
        for (out, panels) in &results {
            assert_eq!(out.data(), want.data());
            assert_eq!(*panels, results[0].1, "one pack, shared");
        }
    }
}
