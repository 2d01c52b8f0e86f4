//! The differentiable operation set and its backward rules.
//!
//! Each [`Op`] variant records the parent [`Var`]s plus whatever constants the
//! backward rule needs. The rules themselves live in [`Op::backward`], which
//! maps an upstream gradient to `(parent, gradient)` contributions. The set is
//! exactly what the HeatViT stack needs: GEMM-shaped linear algebra, the ViT
//! nonlinearities, row/column broadcasts for token masks and head weighting,
//! structural ops for head split/merge and token gathering, and fused losses.

use crate::tape::{Tape, Var};
use heatvit_tensor::{scalar, Tensor};

/// A recorded differentiable operation.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input node; `requires_grad` distinguishes parameters from constants.
    Leaf,
    /// Elementwise `a + b`.
    Add(Var, Var),
    /// Elementwise `a - b`.
    Sub(Var, Var),
    /// Elementwise `a * b`.
    Mul(Var, Var),
    /// `a * s` for scalar `s`.
    Scale(Var, f32),
    /// `a + s` for scalar `s`. The scalar is recorded for completeness of
    /// the op log only — the backward rule is identity, so it is never read.
    #[allow(dead_code)]
    AddScalar(Var, f32),
    /// `x[N,D] + bias[D]` broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// `x[N,D] * m[N]` broadcast over columns.
    MulColBroadcast(Var, Var),
    /// `x[N,D] / m[N]` broadcast over columns.
    DivColBroadcast(Var, Var),
    /// Matrix product `a · b`.
    Matmul(Var, Var),
    /// Matrix transpose.
    Transpose(Var),
    /// Shape change preserving elements; stores the *input* dims for backward.
    Reshape(Var, Vec<usize>),
    /// Exact GELU.
    Gelu(Var),
    /// ReLU.
    Relu(Var),
    /// Hardswish.
    Hardswish(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Natural logarithm of inputs clamped to `[LN_CLAMP, ∞)`.
    Ln(Var),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Fused layer normalization over rows with affine `gamma`/`beta`.
    LayerNorm {
        /// Normalized input `[N, D]`.
        x: Var,
        /// Scale `[D]`.
        gamma: Var,
        /// Shift `[D]`.
        beta: Var,
        /// Variance stabilizer.
        eps: f32,
    },
    /// Column means: `[N, D] → [1, D]`.
    MeanColsKeep(Var),
    /// Row means: `[N, D] → [N, 1]`.
    MeanRowsKeep(Var),
    /// Tile a `[1, D]` row `n` times: `→ [n, D]`.
    RepeatRows(Var, usize),
    /// Row-wise concatenation.
    ConcatRows(Vec<Var>),
    /// Column-wise concatenation.
    ConcatCols(Vec<Var>),
    /// Column slice `[start, end)`.
    SliceCols(Var, usize, usize),
    /// Row slice `[start, end)`.
    SliceRows(Var, usize, usize),
    /// Row gather by index (dense token repacking).
    GatherRows(Var, Vec<usize>),
    /// Mean over all elements `→ [1]`.
    MeanAll(Var),
    /// Sum over all elements `→ [1]`.
    SumAll(Var),
    /// `a + c` for a constant tensor `c` (no gradient to `c`). The constant
    /// is recorded for completeness of the op log only — the backward rule
    /// is identity, so it is never read.
    #[allow(dead_code)]
    AddConst(Var, Tensor),
    /// `a * c` elementwise for a constant tensor `c` (no gradient to `c`).
    MulConst(Var, Tensor),
    /// Fused mean cross-entropy from logits; saves the softmax for backward.
    CrossEntropy {
        /// Logits `[B, C]`.
        logits: Var,
        /// Target class per row.
        targets: Vec<usize>,
        /// Saved `softmax(logits)`.
        probs: Tensor,
    },
    /// Fused distillation loss `T²·KL(p ‖ softmax(s/T))`, mean over rows.
    DistillKl {
        /// Student logits `[B, C]`.
        student: Var,
        /// Constant teacher probabilities `[B, C]`.
        teacher_probs: Tensor,
        /// Distillation temperature.
        temperature: f32,
        /// Saved `softmax(student/T)`.
        student_probs: Tensor,
    },
}

impl Op {
    /// Parent variables of this operation.
    pub(crate) fn parents(&self) -> Vec<Var> {
        match self {
            Op::Leaf => vec![],
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => vec![*a, *b],
            Op::Scale(a, _) | Op::AddScalar(a, _) => vec![*a],
            Op::AddRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::DivColBroadcast(a, b)
            | Op::Matmul(a, b) => vec![*a, *b],
            Op::Transpose(a) | Op::Reshape(a, _) => vec![*a],
            Op::Gelu(a) | Op::Relu(a) | Op::Hardswish(a) | Op::Sigmoid(a) | Op::Ln(a) => {
                vec![*a]
            }
            Op::SoftmaxRows(a) => vec![*a],
            Op::LayerNorm { x, gamma, beta, .. } => vec![*x, *gamma, *beta],
            Op::MeanColsKeep(a) | Op::MeanRowsKeep(a) | Op::RepeatRows(a, _) => vec![*a],
            Op::ConcatRows(vs) | Op::ConcatCols(vs) => vs.clone(),
            Op::SliceCols(a, _, _) | Op::SliceRows(a, _, _) | Op::GatherRows(a, _) => vec![*a],
            Op::MeanAll(a) | Op::SumAll(a) => vec![*a],
            Op::AddConst(a, _) | Op::MulConst(a, _) => vec![*a],
            Op::CrossEntropy { logits, .. } => vec![*logits],
            Op::DistillKl { student, .. } => vec![*student],
        }
    }

    /// Computes `(parent, gradient)` contributions given the upstream
    /// gradient `grad` and this node's forward `value`.
    pub(crate) fn backward(
        &self,
        tape: &Tape,
        value: &Tensor,
        grad: &Tensor,
    ) -> Vec<(Var, Tensor)> {
        match self {
            Op::Leaf => vec![],
            Op::Add(a, b) => vec![(*a, grad.clone()), (*b, grad.clone())],
            Op::Sub(a, b) => vec![(*a, grad.clone()), (*b, grad.scale(-1.0))],
            Op::Mul(a, b) => {
                let mut out = Vec::with_capacity(2);
                if tape.requires_grad(*a) {
                    out.push((*a, grad.mul(tape.value(*b))));
                }
                if tape.requires_grad(*b) {
                    out.push((*b, grad.mul(tape.value(*a))));
                }
                out
            }
            Op::Scale(a, s) => vec![(*a, grad.scale(*s))],
            Op::AddScalar(a, _) => vec![(*a, grad.clone())],
            Op::AddRowBroadcast(a, b) => {
                let mut out = Vec::with_capacity(2);
                if tape.requires_grad(*a) {
                    out.push((*a, grad.clone()));
                }
                if tape.requires_grad(*b) {
                    let rows = grad.dim(0) as f32;
                    out.push((*b, grad.mean_cols().scale(rows)));
                }
                out
            }
            Op::MulColBroadcast(a, b) => {
                let av = tape.value(*a);
                let bv = tape.value(*b);
                let ga = grad.scale_rows(bv.data());
                let gb = grad.mul(av).sum_rows();
                vec![(*a, ga), (*b, gb)]
            }
            Op::DivColBroadcast(a, b) => {
                let av = tape.value(*a);
                let bv = tape.value(*b);
                let inv: Vec<f32> = bv.data().iter().map(|&m| 1.0 / m).collect();
                let ga = grad.scale_rows(&inv);
                let neg_inv_sq: Vec<f32> = bv.data().iter().map(|&m| -1.0 / (m * m)).collect();
                let gb_raw = grad.mul(av).sum_rows();
                let gb = Tensor::from_vec(
                    gb_raw
                        .data()
                        .iter()
                        .zip(neg_inv_sq.iter())
                        .map(|(&g, &c)| g * c)
                        .collect(),
                    gb_raw.dims(),
                );
                vec![(*a, ga), (*b, gb)]
            }
            Op::Matmul(a, b) => {
                // dA = G·Bᵀ, dB = Aᵀ·G. Each side is computed only when its
                // parent requires a gradient: with a frozen weight matrix the
                // expensive Aᵀ·G weight-gradient GEMM is skipped entirely,
                // and with a constant activation (e.g. the input batch) the
                // G·Bᵀ product is. Both run on the packed microkernel —
                // `matmul_transa` gathers A column tiles in place of an
                // explicit transpose, bit-identical to the two-step form.
                let av = tape.value(*a);
                let bv = tape.value(*b);
                let mut out = Vec::with_capacity(2);
                if tape.requires_grad(*a) {
                    out.push((*a, grad.matmul_transb(bv)));
                }
                if tape.requires_grad(*b) {
                    out.push((*b, av.matmul_transa(grad)));
                }
                out
            }
            Op::Transpose(a) => vec![(*a, grad.transpose2())],
            Op::Reshape(a, in_dims) => vec![(*a, grad.reshape(in_dims))],
            Op::Gelu(a) => {
                let av = tape.value(*a);
                let ga = grad.zip_map(av, |g, x| g * scalar::gelu_derivative(x));
                vec![(*a, ga)]
            }
            Op::Relu(a) => {
                let av = tape.value(*a);
                let ga = grad.zip_map(av, |g, x| g * scalar::relu_derivative(x));
                vec![(*a, ga)]
            }
            Op::Hardswish(a) => {
                let av = tape.value(*a);
                let ga = grad.zip_map(av, |g, x| g * scalar::hardswish_derivative(x));
                vec![(*a, ga)]
            }
            Op::Sigmoid(a) => {
                // σ' expressed from the saved output: σ(1−σ).
                let ga = grad.zip_map(value, |g, s| g * s * (1.0 - s));
                vec![(*a, ga)]
            }
            Op::Ln(a) => {
                let av = tape.value(*a);
                let ga = grad.zip_map(av, |g, x| g / x.max(crate::tape::LN_CLAMP));
                vec![(*a, ga)]
            }
            Op::SoftmaxRows(a) => {
                let s = value;
                let cols = s.dim(1);
                let mut gx = grad.mul(s);
                for r in 0..s.dim(0) {
                    let dot: f32 = gx.row(r).iter().sum();
                    let srow = s.row(r).to_vec();
                    let grow = gx.row_mut(r);
                    for j in 0..cols {
                        grow[j] -= dot * srow[j];
                    }
                }
                vec![(*a, gx)]
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let xv = tape.value(*x);
                let gv = tape.value(*gamma);
                let (rows, cols) = (xv.dim(0), xv.dim(1));
                let (means, vars) = xv.row_mean_var();
                // Skip the affine-parameter accumulations when gamma/beta
                // are frozen (the common case under frozen-backbone
                // training — gradients still flow through to `x`).
                let need_affine = tape.requires_grad(*gamma) || tape.requires_grad(*beta);
                let mut gx = Tensor::zeros(&[rows, cols]);
                let mut ggamma = vec![0.0f32; cols];
                let mut gbeta = vec![0.0f32; cols];
                for r in 0..rows {
                    let inv_std = 1.0 / (vars[r] + eps).sqrt();
                    let xrow = xv.row(r);
                    let grow = grad.row(r);
                    // x̂ and the two row means the dx formula needs.
                    let xhat: Vec<f32> = xrow.iter().map(|&v| (v - means[r]) * inv_std).collect();
                    let gg: Vec<f32> = grow
                        .iter()
                        .zip(gv.data().iter())
                        .map(|(&g, &gm)| g * gm)
                        .collect();
                    let mean_gg: f32 = gg.iter().sum::<f32>() / cols as f32;
                    let mean_gg_xhat: f32 = gg
                        .iter()
                        .zip(xhat.iter())
                        .map(|(&a, &b)| a * b)
                        .sum::<f32>()
                        / cols as f32;
                    let gxrow = gx.row_mut(r);
                    for j in 0..cols {
                        gxrow[j] = inv_std * (gg[j] - mean_gg - xhat[j] * mean_gg_xhat);
                    }
                    if need_affine {
                        for j in 0..cols {
                            ggamma[j] += grow[j] * xhat[j];
                            gbeta[j] += grow[j];
                        }
                    }
                }
                let mut out = vec![(*x, gx)];
                if need_affine {
                    out.push((*gamma, Tensor::from_vec(ggamma, &[cols])));
                    out.push((*beta, Tensor::from_vec(gbeta, &[cols])));
                }
                out
            }
            Op::MeanColsKeep(a) => {
                let rows = tape.value(*a).dim(0);
                let cols = grad.dim(1);
                let scaled = grad.scale(1.0 / rows as f32);
                let mut data = Vec::with_capacity(rows * cols);
                for _ in 0..rows {
                    data.extend_from_slice(scaled.data());
                }
                vec![(*a, Tensor::from_vec(data, &[rows, cols]))]
            }
            Op::MeanRowsKeep(a) => {
                let av = tape.value(*a);
                let (rows, cols) = (av.dim(0), av.dim(1));
                let g = Tensor::from_fn(&[rows, cols], |ix| grad.at(&[ix[0], 0]) / cols as f32);
                vec![(*a, g)]
            }
            Op::RepeatRows(a, n) => {
                let cols = grad.dim(1);
                let gsum = grad.mean_cols().scale(*n as f32);
                vec![(*a, gsum.reshape(&[1, cols]))]
            }
            Op::ConcatRows(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                let mut start = 0;
                for &p in parts {
                    let rows = tape.value(p).dim(0);
                    out.push((p, grad.slice_rows(start, start + rows)));
                    start += rows;
                }
                out
            }
            Op::ConcatCols(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                let mut start = 0;
                for &p in parts {
                    let cols = tape.value(p).dim(1);
                    out.push((p, grad.slice_cols(start, start + cols)));
                    start += cols;
                }
                out
            }
            Op::SliceCols(a, start, end) => {
                let av = tape.value(*a);
                let mut ga = Tensor::zeros(&[av.dim(0), av.dim(1)]);
                for r in 0..av.dim(0) {
                    let grow = grad.row(r).to_vec();
                    ga.row_mut(r)[*start..*end].copy_from_slice(&grow);
                }
                vec![(*a, ga)]
            }
            Op::SliceRows(a, start, _end) => {
                let av = tape.value(*a);
                let cols = av.dim(1);
                let mut ga = Tensor::zeros(&[av.dim(0), cols]);
                for r in 0..grad.dim(0) {
                    let grow = grad.row(r).to_vec();
                    ga.row_mut(start + r).copy_from_slice(&grow);
                }
                vec![(*a, ga)]
            }
            Op::GatherRows(a, indices) => {
                let rows = tape.value(*a).dim(0);
                vec![(*a, Tensor::scatter_rows(grad, indices, rows))]
            }
            Op::MeanAll(a) => {
                let av = tape.value(*a);
                let g0 = grad.data()[0] / av.numel() as f32;
                vec![(*a, Tensor::full(av.dims(), g0))]
            }
            Op::SumAll(a) => {
                let av = tape.value(*a);
                vec![(*a, Tensor::full(av.dims(), grad.data()[0]))]
            }
            Op::AddConst(a, _) => vec![(*a, grad.clone())],
            Op::MulConst(a, c) => vec![(*a, grad.mul(c))],
            Op::CrossEntropy {
                logits,
                targets,
                probs,
                ..
            } => {
                let batch = targets.len() as f32;
                let g0 = grad.data()[0];
                let mut glogits = probs.scale(g0 / batch);
                for (r, &t) in targets.iter().enumerate() {
                    let v = glogits.at(&[r, t]);
                    glogits.set(&[r, t], v - g0 / batch);
                }
                vec![(*logits, glogits)]
            }
            Op::DistillKl {
                student,
                teacher_probs,
                temperature,
                student_probs,
            } => {
                let batch = teacher_probs.dim(0) as f32;
                let g0 = grad.data()[0];
                // d/ds [T²·KL(p‖softmax(s/T))] = T·(q − p)
                let gs = student_probs
                    .sub(teacher_probs)
                    .scale(g0 * *temperature / batch);
                vec![(*student, gs)]
            }
        }
    }
}
