//! Int8 ↔ float agreement: the quantized backend must track the float
//! model closely enough that logits stay within a relative-Frobenius
//! tolerance and top-1 predictions agree on ≥95 % of a seeded synthetic
//! batch — in both dynamic and calibrated activation-quantization modes.

use heatvit::{Engine, InferenceModel};
use heatvit_data::{SyntheticConfig, SyntheticDataset};
use heatvit_quant::{QuantizedViT, DSP_PACKING_FACTOR};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EVAL_IMAGES: usize = 40;
const CALIB_IMAGES: usize = 8;
/// Maximum allowed `‖q − f‖_F / ‖f‖_F` over the stacked batch logits.
const REL_FROBENIUS_TOL: f32 = 0.35;
/// Minimum fraction of images whose top-1 prediction matches the float model.
const TOP1_AGREEMENT: f64 = 0.95;

fn float_model() -> VisionTransformer {
    let mut rng = StdRng::seed_from_u64(7);
    VisionTransformer::new(ViTConfig::micro(8), &mut rng)
}

fn batch(count: usize, seed: u64) -> Vec<Tensor> {
    SyntheticDataset::generate(SyntheticConfig::micro(), count, seed)
        .iter()
        .map(|s| s.image.clone())
        .collect()
}

/// Stacked logits + predictions of any `InferenceModel` over a batch.
fn run<M: InferenceModel>(model: M, images: &[Tensor]) -> (Tensor, Vec<usize>) {
    let engine = Engine::builder(model).build();
    let out = engine.infer_batch(images);
    let preds = out.predictions();
    (out.logits, preds)
}

fn assert_close(mode: &str, quant: &Tensor, float: &Tensor, qp: &[usize], fp: &[usize]) {
    let rel = quant.sub(float).norm() / float.norm().max(1e-9);
    assert!(
        rel < REL_FROBENIUS_TOL,
        "{mode}: relative Frobenius logit error {rel} ≥ {REL_FROBENIUS_TOL}"
    );
    let agree = qp.iter().zip(fp.iter()).filter(|(a, b)| a == b).count();
    let total = fp.len();
    let frac = agree as f64 / total as f64;
    assert!(
        frac >= TOP1_AGREEMENT,
        "{mode}: top-1 agreement {agree}/{total} = {frac:.3} < {TOP1_AGREEMENT}"
    );
}

#[test]
fn int8_dense_agrees_with_float_in_both_quant_modes() {
    let float = float_model();
    let images = batch(EVAL_IMAGES, 11);
    let (flogits, fpreds) = run(float.clone(), &images);

    // Dynamic per-tensor max-abs (uncalibrated fallback).
    let dynamic = QuantizedViT::from_float(&float);
    let (qlogits, qpreds) = run(dynamic, &images);
    assert_close("dynamic", &qlogits, &flogits, &qpreds, &fpreds);

    // Static scales calibrated on a held-out batch (different seed).
    let mut calibrated = QuantizedViT::from_float(&float);
    calibrated.calibrate(&batch(CALIB_IMAGES, 99));
    let (qlogits, qpreds) = run(calibrated, &images);
    assert_close("calibrated", &qlogits, &flogits, &qpreds, &fpreds);
}

#[test]
fn int8_adaptive_stays_close_to_float_under_mild_pruning() {
    let float = float_model();
    let images = batch(EVAL_IMAGES, 12);
    let (flogits, fpreds) = run(float.clone(), &images);

    let mut adaptive = QuantizedViT::from_float(&float).with_prune_stages(vec![
        heatvit_quant::QuantPruneStage {
            block: 2,
            attn_frac: 0.9,
        },
        heatvit_quant::QuantPruneStage {
            block: 4,
            attn_frac: 0.9,
        },
    ]);
    adaptive.calibrate(&batch(CALIB_IMAGES, 99));
    let (qlogits, qpreds) = run(adaptive, &images);
    assert_close("adaptive", &qlogits, &flogits, &qpreds, &fpreds);
}

#[test]
fn engine_batched_path_is_bit_identical_to_single_image_int8() {
    let float = float_model();
    let images = batch(6, 13);
    let qmodel = QuantizedViT::from_float(&float);
    let reference: Vec<Tensor> = images.iter().map(|i| qmodel.infer(i).logits).collect();
    let engine = Engine::builder(qmodel).build();
    let out = engine.infer_batch(&images);
    for (i, single) in reference.iter().enumerate() {
        assert_eq!(out.logits.row(i), single.data(), "image {i} diverged");
    }
    assert_eq!(engine.model().variant(), "int8-dense");
}

#[test]
fn engine_reports_packed_macs_for_int8() {
    let float = float_model();
    let images = batch(4, 14);
    let qmodel = QuantizedViT::from_float(&float);
    let dense_baseline = InferenceModel::dense_macs(&qmodel);
    let engine = Engine::builder(qmodel).build();
    let out = engine.infer_batch(&images);
    // Dense int8: every image costs the packed equivalent of the float
    // dense MACs — the ~1.9× DSP-packing claim surfaces in the report.
    for &m in &out.macs {
        let speedup = dense_baseline as f64 / m as f64;
        assert!(
            (speedup - DSP_PACKING_FACTOR).abs() < 1e-3,
            "packed speedup {speedup}"
        );
    }
}
