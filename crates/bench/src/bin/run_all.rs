//! The variant table: every [`BackendKind`] (dense, adaptive-pruned,
//! static-pruned, the training-free cls-attn / token-merge / topk-attn
//! family, int8-dense, int8-adaptive) driven as a type-erased
//! `Engine<Backend>` over the same synthetic batch, sequentially and
//! sharded across a 4-thread worker pool. One loop, eight rows — no
//! per-backend code.
//!
//! ```text
//! cargo run --release -p heatvit-bench --bin run_all [-- --quick]
//! ```
//!
//! `--quick` shrinks the batch for CI smoke runs. Nothing here reads a
//! clock: every column is a count or a model's prediction, so the table is
//! the same on every run of one host. Inference speed is measured by the
//! repository benchmark (`benchmark/`, per layer with `--trace 1`).
//!
//! The `fpga-ms` column is the `heatvit-fpga` cycle model's prediction for
//! one image on the paper's ZCU102 tiled-GEMM geometry — the accelerator
//! latency the cost profiles imply. The header's `int8 kernel:` and
//! `f32 kernel:` lines say whether the AVX-512 kernels or the portable
//! ones ran.
//!
//! The binary asserts batched/single parity for every variant and
//! sharded/sequential parity for the multi-threaded engine, so the table is
//! only printed for verified-identical arithmetic. The int8 rows report
//! packed-DSP-equivalent MACs (raw ÷ ~1.9, paper Section V-C) and must
//! agree with the float dense model on ≥95 % of top-1 predictions. The
//! training-free rows carry their own gate: cls-attn and token-merge are
//! held to the same 95 % agreement budget, and token mergence must
//! disagree with dense no more often than the hard drop at the identical
//! keep rate — all asserted, not just printed.

use heatvit::{BackendKind, Engine, InferenceModel, LatencyModel};
use heatvit_bench::{build_backend, synthetic_batch};
use heatvit_fpga::FpgaCycleModel;
use heatvit_tensor::Tensor;

const DEFAULT_BATCH: usize = 32;
const QUICK_BATCH: usize = 8;
/// Worker-pool size of the sharded parity check.
const PAR_THREADS: usize = 4;
/// Minimum top-1 agreement of the int8 rows against the float dense row.
/// Enforced in whole predictions — see [`allowed_mismatches`].
const INT8_MIN_AGREEMENT: f64 = 0.95;

/// The 95 % gate translated to a mismatch budget for the actual batch size,
/// always tolerating at least one disagreement so the `--quick` CI batch
/// doesn't silently demand bit-perfect agreement (at 8 images a single flip
/// is 87.5 %, which the fractional gate would reject).
fn allowed_mismatches(batch: usize) -> usize {
    ((batch as f64 * (1.0 - INT8_MIN_AGREEMENT)).floor() as usize).max(1)
}

struct Row {
    kind: BackendKind,
    mmacs: f64,
    mac_speedup: f64,
    final_tokens: f64,
    /// Predicted single-image latency on the paper's ZCU102 accelerator
    /// model (`FpgaCycleModel` over this backend's cost profile) — a cycle
    /// count at 150 MHz, not host wall-clock.
    fpga_ms: f64,
    predictions: Vec<usize>,
}

/// One kind's row: the type-erased backend run sequentially and through
/// the 4-thread shard, with batched/single and sharded/sequential parity
/// asserted before the row is reported.
fn measure(kind: BackendKind, images: &[Tensor]) -> Row {
    let model = build_backend(kind);
    let dense_macs = InferenceModel::dense_macs(&model) as f64;
    let fpga_ms = FpgaCycleModel::default()
        .predict(&model.cost_profile())
        .as_secs_f64()
        * 1e3;
    let engine = Engine::builder(model).build();

    // Parity gate: every batched row must equal the per-image path bitwise.
    let probe = engine.infer_batch(&images[..4.min(images.len())]);
    for (i, image) in images[..probe.len()].iter().enumerate() {
        let single = engine.infer_one(image);
        assert_eq!(
            probe.logits.row(i),
            single.logits.data(),
            "batched/single divergence in {kind}"
        );
    }
    let out = engine.infer_batch(images);

    // The sharded engine must merge to the exact sequential bits; it
    // reuses the same model instance.
    let par_engine = Engine::builder(engine.into_model())
        .threads(PAR_THREADS)
        .build();
    let par_out = par_engine.infer_batch(images);
    assert_eq!(
        par_out.logits.data(),
        out.logits.data(),
        "sharded/sequential divergence in {kind}"
    );
    assert_eq!(par_out.macs, out.macs);

    Row {
        kind,
        mmacs: out.mean_macs() / 1e6,
        mac_speedup: dense_macs / out.mean_macs().max(1.0),
        final_tokens: *out.mean_tokens_per_block().last().unwrap_or(&0.0),
        fpga_ms,
        predictions: out.predictions(),
    }
}

fn agreement(row: &Row, reference: &Row) -> f64 {
    let same = row
        .predictions
        .iter()
        .zip(reference.predictions.iter())
        .filter(|(a, b)| a == b)
        .count();
    same as f64 / reference.predictions.len().max(1) as f64
}

fn mismatches(row: &Row, reference: &Row) -> usize {
    row.predictions
        .iter()
        .zip(reference.predictions.iter())
        .filter(|(a, b)| a != b)
        .count()
}

fn main() {
    let batch = if std::env::args().any(|a| a == "--quick") {
        QUICK_BATCH
    } else {
        DEFAULT_BATCH
    };
    let images = synthetic_batch(batch, 0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "heatvit run_all: micro backbone, {} synthetic 32x32 images per batch, \
         {PAR_THREADS}-thread shard on {cores} hardware thread(s)",
        images.len()
    );
    println!("int8 kernel: {}", heatvit_quant::int8_kernel());
    println!("f32 kernel: {}\n", heatvit_tensor::f32_kernel());

    // The table rows ARE the kind registry: adding a backend to
    // `BackendKind::ALL` adds its row here with no further changes.
    let rows: Vec<Row> = BackendKind::ALL
        .into_iter()
        .map(|kind| measure(kind, &images))
        .collect();
    let reference = &rows[0];
    assert_eq!(
        reference.kind,
        BackendKind::Dense,
        "BackendKind::ALL must lead with the dense agreement reference"
    );

    println!(
        "{:<18} {:>12} {:>12} {:>14} {:>10} {:>12}",
        "variant", "MMACs/img", "MAC-speedup", "final tokens", "fpga-ms", "top1-vs-f32"
    );
    println!("{}", "-".repeat(83));
    for r in &rows {
        let agree = agreement(r, reference);
        println!(
            "{:<18} {:>12.2} {:>11.2}x {:>14.1} {:>10.3} {:>11.1}%",
            r.kind.label(),
            r.mmacs,
            r.mac_speedup,
            r.final_tokens,
            r.fpga_ms,
            agree * 100.0
        );
        if r.kind.is_quantized() || matches!(r.kind, BackendKind::ClsAttn | BackendKind::TokenMerge)
        {
            let missed = mismatches(r, reference);
            let allowed = allowed_mismatches(reference.predictions.len());
            assert!(
                missed <= allowed,
                "{}: {missed} top-1 disagreements vs. float dense exceed the \
                 {INT8_MIN_AGREEMENT} gate's budget of {allowed}",
                r.kind
            );
        }
    }

    // The paper's mergence claim, held at the table level: folding pruned
    // tokens into their nearest kept neighbour must not lose more top-1
    // agreement than discarding them outright at the identical keep rate.
    let by_kind = |kind| rows.iter().find(|r| r.kind == kind).expect("row exists");
    let cls_missed = mismatches(by_kind(BackendKind::ClsAttn), reference);
    let merge_missed = mismatches(by_kind(BackendKind::TokenMerge), reference);
    assert!(
        merge_missed <= cls_missed,
        "token mergence disagreed with dense {merge_missed} time(s) but the cls-attn \
         hard drop only {cls_missed} — mergence must preserve at least as much accuracy"
    );
    println!(
        "\nparity: batched logits bitwise-identical to per-image inference for all variants, \
         and the {PAR_THREADS}-thread sharded engine bitwise-identical to sequential"
    );
    println!(
        "fpga-ms: FpgaCycleModel prediction per image on the paper's ZCU102 geometry (tiled GEMM \
         cycles at 150 MHz, int8 rows DSP-packed) — accelerator latency, not host wall-clock"
    );
    println!(
        "int8 rows: packed-DSP-equivalent MACs (raw / {:.1}), top-1 agreement vs. float dense \
         asserted ({:.0}% gate = at most {} mismatch(es) in {} images)",
        heatvit_quant::DSP_PACKING_FACTOR,
        INT8_MIN_AGREEMENT * 100.0,
        allowed_mismatches(images.len()),
        images.len()
    );
    println!(
        "training-free rows: cls-attn and token-merge held to the same top-1 agreement \
         budget, and mergence asserted to disagree with dense no more often than the \
         hard drop ({merge_missed} vs {cls_missed} mismatch(es))"
    );
}
