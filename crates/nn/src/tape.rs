//! The reverse-mode autograd tape.
//!
//! A [`Tape`] is a single-use computation graph: forward calls append nodes,
//! [`Tape::backward`] walks them in reverse. One tape is built per training
//! step and dropped afterwards, which sidesteps interior mutability entirely
//! — the idiomatic arena formulation of define-by-run autograd in Rust.

use crate::op::Op;
use crate::param::Param;
use heatvit_tensor::Tensor;

/// Lower clamp applied inside [`Tape::ln`] for numerical stability.
pub(crate) const LN_CLAMP: f32 = 1e-12;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

#[derive(Debug)]
struct Node {
    value: Tensor,
    op: Op,
    requires_grad: bool,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
#[derive(Debug)]
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// The gradient of the loss with respect to `v`, if `v` required one.
    pub fn get(&self, v: Var) -> Option<&Tensor> {
        self.grads.get(v.0).and_then(|g| g.as_ref())
    }
}

/// A define-by-run reverse-mode autodiff tape.
///
/// # Examples
///
/// Differentiate `mean((x·w)²)` with respect to `w`:
///
/// ```
/// use heatvit_nn::Tape;
/// use heatvit_tensor::Tensor;
///
/// let mut tape = Tape::new();
/// let x = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
/// let w = tape.leaf(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]));
/// let y = tape.matmul(x, w);       // [[11]]
/// let y2 = tape.mul(y, y);         // [[121]]
/// let loss = tape.mean_all(y2);
/// let grads = tape.backward(loss);
/// // d/dw mean((x·w)²) = 2(x·w)·xᵀ = [22, 44]
/// assert_eq!(grads.get(w).unwrap().data(), &[22.0, 44.0]);
/// ```
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// `(param id, leaf var)` pairs recorded by [`Tape::param`].
    bindings: Vec<(u64, Var)>,
    /// Parameter ids recorded as constants by [`Tape::param`] — the
    /// frozen-backbone fast path.
    frozen: std::collections::HashSet<u64>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Shape of a node's value.
    pub fn dims(&self, v: Var) -> &[usize] {
        self.nodes[v.0].value.dims()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        let requires_grad = op.parents().iter().any(|p| self.nodes[p.0].requires_grad);
        self.nodes.push(Node {
            value,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a differentiable input (a gradient will be computed for it).
    // Public for the tests in crates/nn/tests/gradcheck.rs and crates/selector, which record inputs with it.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.nodes.push(Node {
            value,
            op: Op::Leaf,
            requires_grad: true,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a non-differentiable input (no gradient flows into it).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.nodes.push(Node {
            value,
            op: Op::Leaf,
            requires_grad: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// Records a `[1]`-shaped scalar constant.
    pub fn scalar(&mut self, value: f32) -> Var {
        self.constant(Tensor::from_vec(vec![value], &[1]))
    }

    /// Records a parameter as a differentiable leaf and remembers the
    /// binding so [`Tape::write_grads`] can route its gradient back.
    ///
    /// Parameters frozen via [`Tape::freeze_params`] are recorded as
    /// constants instead: `requires_grad` stays false through everything
    /// computed from them, so [`Tape::backward`] skips their entire weight
    /// subgraph — the frozen-backbone fast path of selector-only training.
    pub fn param(&mut self, p: &Param) -> Var {
        if self.frozen.contains(&p.id()) {
            return self.constant(p.value().clone());
        }
        let v = self.leaf(p.value().clone());
        self.bindings.push((p.id(), v));
        v
    }

    /// Marks parameter ids as frozen: subsequent [`Tape::param`] calls for
    /// them record constants, so no gradients are computed or routed for
    /// them. Gradients still flow *through* ops that consume frozen
    /// parameters (activations keep their grads); only the weight-side
    /// vector-Jacobian products are skipped. Freezing affects only
    /// parameters recorded after the call.
    pub fn freeze_params(&mut self, ids: impl IntoIterator<Item = u64>) {
        self.frozen.extend(ids);
    }

    /// `true` if a gradient will be computed for this node.
    pub fn requires_grad(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    // ----- arithmetic -------------------------------------------------

    /// Elementwise sum.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        self.push(value, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        self.push(value, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).scale(s);
        self.push(value, Op::Scale(a, s))
    }

    /// Scalar offset.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let value = self.value(a).add_scalar(s);
        self.push(value, Op::AddScalar(a, s))
    }

    /// Adds rank-1 `bias` to every row of rank-2 `a`.
    pub fn add_row_broadcast(&mut self, a: Var, bias: Var) -> Var {
        let value = self.value(a).add_row_broadcast(self.value(bias));
        self.push(value, Op::AddRowBroadcast(a, bias))
    }

    /// Multiplies row `r` of rank-2 `a` by `m[r]` (`m` rank-1).
    ///
    /// This is how soft keep-masks modulate token embeddings during
    /// selector training.
    pub fn mul_col_broadcast(&mut self, a: Var, m: Var) -> Var {
        let value = self.value(a).scale_rows(self.value(m).data());
        self.push(value, Op::MulColBroadcast(a, m))
    }

    /// Divides row `r` of rank-2 `a` by `m[r]` (`m` rank-1).
    pub fn div_col_broadcast(&mut self, a: Var, m: Var) -> Var {
        let inv: Vec<f32> = self.value(m).data().iter().map(|&x| 1.0 / x).collect();
        let value = self.value(a).scale_rows(&inv);
        self.push(value, Op::DivColBroadcast(a, m))
    }

    /// Adds a constant tensor (no gradient to the constant) — e.g. an
    /// additive attention mask or Gumbel noise.
    pub fn add_const(&mut self, a: Var, c: Tensor) -> Var {
        let value = self.value(a).add(&c);
        self.push(value, Op::AddConst(a, c))
    }

    /// Multiplies by a constant tensor elementwise (no gradient to it).
    pub fn mul_const(&mut self, a: Var, c: Tensor) -> Var {
        let value = self.value(a).mul(&c);
        self.push(value, Op::MulConst(a, c))
    }

    // ----- linear algebra ---------------------------------------------

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Op::Matmul(a, b))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let value = self.value(a).transpose2();
        self.push(value, Op::Transpose(a))
    }

    /// Shape change preserving elements.
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Var {
        let in_dims = self.dims(a).to_vec();
        let value = self.value(a).reshape(dims);
        self.push(value, Op::Reshape(a, in_dims))
    }

    // ----- nonlinearities ----------------------------------------------

    /// Exact GELU.
    pub fn gelu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(heatvit_tensor::scalar::gelu);
        self.push(value, Op::Gelu(a))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        let value = self.value(a).map(heatvit_tensor::scalar::relu);
        self.push(value, Op::Relu(a))
    }

    /// Hardswish.
    pub fn hardswish(&mut self, a: Var) -> Var {
        let value = self.value(a).map(heatvit_tensor::scalar::hardswish);
        self.push(value, Op::Hardswish(a))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let value = self.value(a).map(heatvit_tensor::scalar::sigmoid);
        self.push(value, Op::Sigmoid(a))
    }

    /// Natural logarithm, with inputs clamped to `1e-12` for stability
    /// (the Gumbel-Softmax log-probability path).
    pub fn ln(&mut self, a: Var) -> Var {
        let value = self.value(a).map(|x| x.max(LN_CLAMP).ln());
        self.push(value, Op::Ln(a))
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let value = self.value(a).softmax_rows();
        self.push(value, Op::SoftmaxRows(a))
    }

    /// Layer normalization over each row with affine parameters.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let xv = self.value(x);
        let gv = self.value(gamma);
        let bv = self.value(beta);
        let (rows, cols) = (xv.dim(0), xv.dim(1));
        let (means, vars) = xv.row_mean_var();
        let mut out = Tensor::zeros(&[rows, cols]);
        for r in 0..rows {
            let inv_std = 1.0 / (vars[r] + eps).sqrt();
            let xrow = xv.row(r);
            let orow = out.row_mut(r);
            for j in 0..cols {
                orow[j] = (xrow[j] - means[r]) * inv_std * gv.data()[j] + bv.data()[j];
            }
        }
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
        )
    }

    // ----- reductions & structure ---------------------------------------

    /// Column means `[N,D] → [1,D]`.
    pub fn mean_cols_keep(&mut self, a: Var) -> Var {
        let m = self.value(a).mean_cols();
        let cols = m.dim(0);
        let value = m.reshape(&[1, cols]);
        self.push(value, Op::MeanColsKeep(a))
    }

    /// Row means `[N,D] → [N,1]`.
    pub fn mean_rows_keep(&mut self, a: Var) -> Var {
        let m = self.value(a).mean_rows();
        let rows = m.dim(0);
        let value = m.reshape(&[rows, 1]);
        self.push(value, Op::MeanRowsKeep(a))
    }

    /// Tiles a `[1,D]` row `n` times.
    pub fn repeat_rows(&mut self, a: Var, n: usize) -> Var {
        let av = self.value(a);
        assert_eq!(av.dim(0), 1, "repeat_rows expects a [1, D] input");
        let cols = av.dim(1);
        let mut data = Vec::with_capacity(n * cols);
        for _ in 0..n {
            data.extend_from_slice(av.data());
        }
        let value = Tensor::from_vec(data, &[n, cols]);
        self.push(value, Op::RepeatRows(a, n))
    }

    /// Concatenates along rows.
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat_rows(&tensors);
        self.push(value, Op::ConcatRows(parts.to_vec()))
    }

    /// Concatenates along columns.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        let tensors: Vec<&Tensor> = parts.iter().map(|&v| self.value(v)).collect();
        let value = Tensor::concat_cols(&tensors);
        self.push(value, Op::ConcatCols(parts.to_vec()))
    }

    /// Column slice `[start, end)`.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let value = self.value(a).slice_cols(start, end);
        self.push(value, Op::SliceCols(a, start, end))
    }

    /// Row slice `[start, end)`.
    pub fn slice_rows(&mut self, a: Var, start: usize, end: usize) -> Var {
        let value = self.value(a).slice_rows(start, end);
        self.push(value, Op::SliceRows(a, start, end))
    }

    /// Row gather (dense token repacking).
    pub fn gather_rows(&mut self, a: Var, indices: &[usize]) -> Var {
        let value = self.value(a).gather_rows(indices);
        self.push(value, Op::GatherRows(a, indices.to_vec()))
    }

    /// Mean of all elements `→ [1]`.
    pub fn mean_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(vec![self.value(a).mean_all()], &[1]);
        self.push(value, Op::MeanAll(a))
    }

    /// Sum of all elements `→ [1]`.
    pub fn sum_all(&mut self, a: Var) -> Var {
        let value = Tensor::from_vec(vec![self.value(a).sum_all()], &[1]);
        self.push(value, Op::SumAll(a))
    }

    // ----- losses --------------------------------------------------------

    /// Mean cross-entropy from logits `[B, C]` against integer targets.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() != logits.dim(0)` or a target is out of
    /// range.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lv = self.value(logits);
        assert_eq!(lv.dim(0), targets.len(), "one target per row required");
        let probs = lv.softmax_rows();
        let mut loss = 0.0f32;
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < lv.dim(1), "target class out of range");
            loss -= probs.at(&[r, t]).max(1e-12).ln();
        }
        loss /= targets.len() as f32;
        self.push(
            Tensor::from_vec(vec![loss], &[1]),
            Op::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    /// Distillation loss `T²·KL(teacher ‖ softmax(student/T))`, mean over
    /// rows (paper Eq. 21 uses the DeiT distillation term).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `temperature <= 0`.
    pub fn distill_kl(&mut self, student: Var, teacher_probs: Tensor, temperature: f32) -> Var {
        assert!(temperature > 0.0, "temperature must be positive");
        let sv = self.value(student);
        assert_eq!(sv.dims(), teacher_probs.dims(), "student/teacher shapes");
        let q = sv.scale(1.0 / temperature).softmax_rows();
        let batch = sv.dim(0) as f32;
        let mut loss = 0.0f32;
        for r in 0..sv.dim(0) {
            for (p, qv) in teacher_probs.row(r).iter().zip(q.row(r).iter()) {
                if *p > 0.0 {
                    loss += p * (p.max(1e-12).ln() - qv.max(1e-12).ln());
                }
            }
        }
        loss *= temperature * temperature / batch;
        self.push(
            Tensor::from_vec(vec![loss], &[1]),
            Op::DistillKl {
                student,
                teacher_probs,
                temperature,
                student_probs: q,
            },
        )
    }

    // ----- backward --------------------------------------------------------

    /// Runs reverse-mode differentiation from `loss` (a `[1]` node).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element node.
    pub fn backward(&self, loss: Var) -> Gradients {
        assert_eq!(
            self.value(loss).numel(),
            1,
            "backward expects a scalar loss node"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; self.nodes.len()];
        grads[loss.0] = Some(Tensor::from_vec(vec![1.0], &[1]));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].requires_grad {
                continue;
            }
            let Some(grad) = grads[i].clone() else {
                continue;
            };
            let node = &self.nodes[i];
            for (parent, g) in node.op.backward(self, &node.value, &grad) {
                if !self.nodes[parent.0].requires_grad {
                    continue;
                }
                match &mut grads[parent.0] {
                    Some(acc) => *acc = acc.add(&g),
                    slot => *slot = Some(g),
                }
            }
        }
        Gradients { grads }
    }

    /// Accumulates gradients into the matching parameters.
    ///
    /// Parameters not used on this tape are left untouched; a parameter used
    /// several times receives the sum of all its contributions.
    pub fn write_grads(&self, grads: &Gradients, params: Vec<&mut Param>) {
        for p in params {
            for (pid, var) in &self.bindings {
                if *pid == p.id() {
                    if let Some(g) = grads.get(*var) {
                        p.accumulate_grad(g);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_nodes_get_no_grad() {
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::ones(&[2]));
        let l = tape.leaf(Tensor::ones(&[2]));
        let s = tape.mul(c, l);
        let loss = tape.sum_all(s);
        let grads = tape.backward(loss);
        assert!(grads.get(c).is_none());
        assert_eq!(grads.get(l).unwrap().data(), &[1.0, 1.0]);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // loss = sum(x + x) → dx = 2
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[3]));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[2.0; 3]);
    }

    #[test]
    fn write_grads_routes_by_param_id() {
        let p = Param::new("w", Tensor::ones(&[2]));
        let mut q = Param::new("unused", Tensor::ones(&[2]));
        let mut tape = Tape::new();
        let w = tape.param(&p);
        let loss = tape.sum_all(w);
        let grads = tape.backward(loss);
        let mut p = p;
        tape.write_grads(&grads, vec![&mut p, &mut q]);
        assert_eq!(p.grad().unwrap().data(), &[1.0, 1.0]);
        assert!(q.grad().is_none());
    }

    #[test]
    fn frozen_param_is_recorded_as_constant() {
        let p = Param::new("backbone.w", Tensor::ones(&[2, 2]));
        let mut tape = Tape::new();
        tape.freeze_params([p.id()]);
        let w = tape.param(&p);
        assert!(!tape.requires_grad(w));
        let x = tape.leaf(Tensor::ones(&[1, 2]));
        let y = tape.matmul(x, w);
        let loss = tape.sum_all(y);
        let grads = tape.backward(loss);
        // No weight gradient, but the activation gradient still flows.
        assert!(grads.get(w).is_none());
        assert_eq!(grads.get(x).unwrap().data(), &[2.0, 2.0]);
        let mut p = p;
        tape.write_grads(&grads, vec![&mut p]);
        assert!(p.grad().is_none());
    }

    #[test]
    fn freezing_one_param_leaves_other_grads_bitwise_identical() {
        let w1 = Param::new(
            "selector.w",
            Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25], &[2, 2]),
        );
        let w2 = Param::new(
            "backbone.w",
            Tensor::from_vec(vec![1.5, 0.5, -0.5, 1.0], &[2, 2]),
        );
        let x = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], &[2, 2]);

        let run = |freeze: bool| {
            let mut tape = Tape::new();
            if freeze {
                tape.freeze_params([w2.id()]);
            }
            let xv = tape.constant(x.clone());
            let a = tape.param(&w1);
            let b = tape.param(&w2);
            let h = tape.matmul(xv, a);
            let h = tape.gelu(h);
            let y = tape.matmul(h, b);
            let loss = tape.mean_all(y);
            let grads = tape.backward(loss);
            (grads.get(a).cloned(), grads.get(b).cloned())
        };
        let (g1_full, g2_full) = run(false);
        let (g1_frozen, g2_frozen) = run(true);
        assert!(g2_full.is_some());
        assert!(g2_frozen.is_none(), "frozen weight must get no gradient");
        // The surviving gradient is bitwise identical — freezing only skips
        // work, it never changes arithmetic.
        assert_eq!(g1_frozen.unwrap().data(), g1_full.unwrap().data(),);
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut tape = Tape::new();
        let logits = tape.leaf(Tensor::from_vec(vec![2.0, 0.0, -1.0], &[1, 3]));
        let loss = tape.cross_entropy(logits, &[0]);
        let probs = Tensor::from_vec(vec![2.0, 0.0, -1.0], &[1, 3]).softmax_rows();
        let expect = -probs.at(&[0, 0]).ln();
        assert!((tape.value(loss).data()[0] - expect).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[2]));
        tape.backward(x);
    }
}
