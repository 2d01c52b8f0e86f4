//! Finite-difference gradient checks for every differentiable operation.
//!
//! Each check builds the same scalar-valued computation twice: once through
//! the tape's backward pass (analytic gradient) and once via central
//! differences on perturbed inputs (numeric gradient). Agreement across the
//! whole op set is the strongest single piece of evidence that the training
//! results downstream (token-selector training, block-to-stage pipeline) are
//! trustworthy.

use heatvit_nn::{Tape, Var};
use heatvit_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Checks `d loss / d inputs` for `f` against central differences.
///
/// `f` must build a scalar (`[1]`) output from the leaf vars it is given.
fn gradcheck(name: &str, inputs: &[Tensor], f: impl Fn(&mut Tape, &[Var]) -> Var) {
    let eval = |tensors: &[Tensor]| -> f32 {
        let mut tape = Tape::new();
        let vars: Vec<Var> = tensors.iter().map(|t| tape.leaf(t.clone())).collect();
        let out = f(&mut tape, &vars);
        assert_eq!(tape.value(out).numel(), 1, "{name}: output must be scalar");
        tape.value(out).data()[0]
    };

    // Analytic gradients.
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let out = f(&mut tape, &vars);
    let grads = tape.backward(out);

    const H: f32 = 1e-2;
    const TOL: f32 = 3e-2;
    for (vi, input) in inputs.iter().enumerate() {
        let analytic = grads
            .get(vars[vi])
            .unwrap_or_else(|| panic!("{name}: missing grad for input {vi}"))
            .clone();
        for e in 0..input.numel() {
            let mut plus = inputs.to_vec();
            plus[vi].data_mut()[e] += H;
            let mut minus = inputs.to_vec();
            minus[vi].data_mut()[e] -= H;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * H);
            let a = analytic.data()[e];
            let denom = 1.0f32.max(a.abs()).max(numeric.abs());
            assert!(
                (a - numeric).abs() / denom < TOL,
                "{name}: input {vi} elem {e}: analytic {a} vs numeric {numeric}"
            );
        }
    }
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(42)
}

#[test]
fn gc_add_sub_mul() {
    let mut r = rng();
    let a = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut r);
    let b = Tensor::rand_normal(&[2, 3], 0.0, 1.0, &mut r);
    gradcheck("add", &[a.clone(), b.clone()], |t, v| {
        let s = t.add(v[0], v[1]);
        t.sum_all(s)
    });
    gradcheck("sub", &[a.clone(), b.clone()], |t, v| {
        let s = t.sub(v[0], v[1]);
        t.mean_all(s)
    });
    gradcheck("mul", &[a, b], |t, v| {
        let s = t.mul(v[0], v[1]);
        t.sum_all(s)
    });
}

#[test]
fn gc_scale_and_offsets() {
    let mut r = rng();
    let a = Tensor::rand_normal(&[3, 2], 0.0, 1.0, &mut r);
    gradcheck("scale", std::slice::from_ref(&a), |t, v| {
        let s = t.scale(v[0], -1.7);
        t.sum_all(s)
    });
    gradcheck("add_scalar", std::slice::from_ref(&a), |t, v| {
        let s = t.add_scalar(v[0], 0.3);
        t.mean_all(s)
    });
    gradcheck("add_const", std::slice::from_ref(&a), |t, v| {
        let s = t.add_const(v[0], Tensor::full(&[3, 2], 0.5));
        t.sum_all(s)
    });
    gradcheck("mul_const", &[a], |t, v| {
        let c = Tensor::from_fn(&[3, 2], |ix| ix[1] as f32 - 0.5);
        let s = t.mul_const(v[0], c);
        t.sum_all(s)
    });
}

#[test]
fn gc_broadcasts() {
    let mut r = rng();
    let x = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut r);
    let bias = Tensor::rand_normal(&[4], 0.0, 1.0, &mut r);
    gradcheck("add_row_broadcast", &[x.clone(), bias], |t, v| {
        let s = t.add_row_broadcast(v[0], v[1]);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
    let m = Tensor::rand_uniform(&[3], 0.5, 1.5, &mut r);
    gradcheck("mul_col_broadcast", &[x.clone(), m.clone()], |t, v| {
        let s = t.mul_col_broadcast(v[0], v[1]);
        let sq = t.mul(s, s);
        t.mean_all(sq)
    });
    gradcheck("div_col_broadcast", &[x, m], |t, v| {
        let s = t.div_col_broadcast(v[0], v[1]);
        t.sum_all(s)
    });
}

#[test]
fn gc_matmul_family() {
    let mut r = rng();
    let a = Tensor::rand_normal(&[3, 4], 0.0, 0.7, &mut r);
    let b = Tensor::rand_normal(&[4, 2], 0.0, 0.7, &mut r);
    gradcheck("matmul", &[a.clone(), b], |t, v| {
        let s = t.matmul(v[0], v[1]);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
    gradcheck("transpose", std::slice::from_ref(&a), |t, v| {
        let s = t.transpose(v[0]);
        let w = t.constant(Tensor::from_fn(&[3, 2], |ix| (ix[0] + ix[1]) as f32 * 0.2));
        let p = t.matmul(s, w);
        t.sum_all(p)
    });
    gradcheck("reshape", &[a], |t, v| {
        let s = t.reshape(v[0], &[2, 6]);
        let sq = t.mul(s, s);
        t.mean_all(sq)
    });
}

#[test]
fn gc_nonlinearities() {
    let mut r = rng();
    // Keep away from ReLU/Hardswish kinks for clean finite differences.
    let a = Tensor::rand_uniform(&[2, 5], 0.2, 2.0, &mut r);
    let b = Tensor::rand_uniform(&[2, 5], -2.0, -0.2, &mut r);
    type UnaryOp = fn(&mut Tape, Var) -> Var;
    let cases: [(&str, UnaryOp); 4] = [
        ("gelu", |t, v| t.gelu(v)),
        ("relu", |t, v| t.relu(v)),
        ("hardswish", |t, v| t.hardswish(v)),
        ("sigmoid", |t, v| t.sigmoid(v)),
    ];
    for (name, mk) in cases {
        gradcheck(name, std::slice::from_ref(&a), |t, v| {
            let s = mk(t, v[0]);
            t.sum_all(s)
        });
        gradcheck(name, std::slice::from_ref(&b), |t, v| {
            let s = mk(t, v[0]);
            t.sum_all(s)
        });
    }
}

#[test]
fn gc_softmax_rows() {
    let mut r = rng();
    let a = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut r);
    gradcheck("softmax_rows", &[a], |t, v| {
        let s = t.softmax_rows(v[0]);
        // A non-symmetric functional of the softmax output.
        let w = t.constant(Tensor::from_fn(&[3, 4], |ix| (ix[1] * ix[1]) as f32 * 0.3));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
}

#[test]
fn gc_layer_norm() {
    let mut r = rng();
    let x = Tensor::rand_normal(&[3, 6], 0.5, 1.5, &mut r);
    let gamma = Tensor::rand_uniform(&[6], 0.5, 1.5, &mut r);
    let beta = Tensor::rand_normal(&[6], 0.0, 0.5, &mut r);
    gradcheck("layer_norm", &[x, gamma, beta], |t, v| {
        let s = t.layer_norm(v[0], v[1], v[2], 1e-5);
        let w = t.constant(Tensor::from_fn(&[3, 6], |ix| {
            0.1 * (ix[0] as f32 + 1.0) * (ix[1] as f32 - 2.0)
        }));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
}

#[test]
fn gc_reductions_and_structure() {
    let mut r = rng();
    let a = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut r);
    gradcheck("mean_cols_keep", std::slice::from_ref(&a), |t, v| {
        let s = t.mean_cols_keep(v[0]);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
    gradcheck("mean_rows_keep", std::slice::from_ref(&a), |t, v| {
        let s = t.mean_rows_keep(v[0]);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
    let row = Tensor::rand_normal(&[1, 3], 0.0, 1.0, &mut r);
    gradcheck("repeat_rows", &[row], |t, v| {
        let s = t.repeat_rows(v[0], 5);
        let w = t.constant(Tensor::from_fn(&[5, 3], |ix| (ix[0] + ix[1]) as f32 * 0.1));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
    gradcheck("concat_rows", &[a.clone(), a.clone()], |t, v| {
        let s = t.concat_rows(&[v[0], v[1]]);
        let sq = t.mul(s, s);
        t.mean_all(sq)
    });
    gradcheck("concat_cols", &[a.clone(), a.clone()], |t, v| {
        let s = t.concat_cols(&[v[0], v[1]]);
        let w = t.constant(Tensor::from_fn(&[4, 6], |ix| ix[1] as f32 * 0.1));
        let p = t.mul(s, w);
        t.sum_all(p)
    });
    gradcheck("slice_cols", std::slice::from_ref(&a), |t, v| {
        let s = t.slice_cols(v[0], 1, 3);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
    gradcheck("slice_rows", std::slice::from_ref(&a), |t, v| {
        let s = t.slice_rows(v[0], 1, 4);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
    gradcheck("gather_rows", &[a], |t, v| {
        let s = t.gather_rows(v[0], &[2, 0, 2]);
        let sq = t.mul(s, s);
        t.sum_all(sq)
    });
}

#[test]
fn gc_losses() {
    let mut r = rng();
    let logits = Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut r);
    gradcheck("cross_entropy", std::slice::from_ref(&logits), |t, v| {
        t.cross_entropy(v[0], &[0, 2, 1, 0])
    });
    let teacher = Tensor::rand_uniform(&[4, 3], 0.1, 1.0, &mut r).softmax_rows();
    gradcheck("distill_kl", &[logits], |t, v| {
        t.distill_kl(v[0], teacher.clone(), 2.0)
    });
}

#[test]
fn gc_composite_attention_like_graph() {
    // A miniature single-head attention: softmax(QKᵀ/√d)·V built from the
    // primitive ops, differentiated through all three projections at once.
    let mut r = rng();
    let x = Tensor::rand_normal(&[4, 6], 0.0, 0.5, &mut r);
    let wq = Tensor::rand_normal(&[6, 6], 0.0, 0.3, &mut r);
    let wk = Tensor::rand_normal(&[6, 6], 0.0, 0.3, &mut r);
    let wv = Tensor::rand_normal(&[6, 6], 0.0, 0.3, &mut r);
    gradcheck("attention", &[x, wq, wk, wv], |t, v| {
        let q = t.matmul(v[0], v[1]);
        let k = t.matmul(v[0], v[2]);
        let val = t.matmul(v[0], v[3]);
        let kt = t.transpose(k);
        let scores = t.matmul(q, kt);
        let scaled = t.scale(scores, 1.0 / (6.0f32).sqrt());
        let attn = t.softmax_rows(scaled);
        let out = t.matmul(attn, val);
        let sq = t.mul(out, out);
        t.sum_all(sq)
    });
}

#[test]
fn gc_selector_like_graph() {
    // The token-classifier scoring pattern: per-head scores combined by a
    // sigmoid attention branch with normalization (paper Eqs. 5–8).
    let mut r = rng();
    let scores_h1 = Tensor::rand_normal(&[5, 2], 0.0, 1.0, &mut r);
    let scores_h2 = Tensor::rand_normal(&[5, 2], 0.0, 1.0, &mut r);
    let head_logits = Tensor::rand_normal(&[5, 2], 0.0, 1.0, &mut r);
    gradcheck(
        "selector_combine",
        &[scores_h1, scores_h2, head_logits],
        |t, v| {
            let s1 = t.softmax_rows(v[0]);
            let s2 = t.softmax_rows(v[1]);
            let a = t.sigmoid(v[2]); // [5, 2] head importances
            let a1 = t.slice_cols(v[2], 0, 1);
            let a1 = t.sigmoid(a1);
            let a1col = t.reshape(a1, &[5]);
            let a2 = t.slice_cols(v[2], 1, 2);
            let a2 = t.sigmoid(a2);
            let a2col = t.reshape(a2, &[5]);
            let w1 = t.mul_col_broadcast(s1, a1col);
            let w2 = t.mul_col_broadcast(s2, a2col);
            let num = t.add(w1, w2);
            let asum = t.mean_rows_keep(a); // [5,1] proportional to a1+a2
            let asum = t.reshape(asum, &[5]);
            let combined = t.div_col_broadcast(num, asum);
            let sq = t.mul(combined, combined);
            t.mean_all(sq)
        },
    );
}

#[test]
fn gc_ln() {
    let mut r = rng();
    let a = Tensor::rand_uniform(&[3, 3], 0.2, 3.0, &mut r);
    gradcheck("ln", &[a], |t, v| {
        let s = t.ln(v[0]);
        t.sum_all(s)
    });
}
