//! Pins the int8 forward pass's heap traffic: with a warm workspace one
//! image through the engine's path (`TokenPolicy::run_with`) costs what its
//! *result* owns (logits, the per-block token counts) — not a request per
//! pixel, per attention score, per layer norm, per GEMM or per pruning
//! stage — and one warm GEMM at a DeiT-T shape costs nothing.
//!
//! A `#[global_allocator]` is process-wide, so this test lives in a binary of
//! its own and counts on the calling thread only.

use heatvit_nn::layers::Linear;
use heatvit_quant::{
    qmatmul_transb_with, qmatmul_with, QLinear, QTensor, QuantPruneStage, QuantizedViT,
};
use heatvit_tensor::Tensor;
use heatvit_vit::{PolicyScratch, TokenPolicy, ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `Some(n)` while this thread counts its heap requests.
    static REQUESTS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct Counting;

fn note() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when there is nothing left to count into.
    let _ = REQUESTS.try_with(|r| r.set(r.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's obligation, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap requests this thread makes while `f` runs.
fn requests_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    REQUESTS.with(|r| r.set(Some(0)));
    let out = f();
    let n = REQUESTS.with(|r| r.replace(None)).expect("counting was on");
    (out, n)
}

#[test]
fn warm_int8_inference_stays_within_its_heap_budget() {
    let mut rng = StdRng::seed_from_u64(0);
    let float_model = VisionTransformer::new(ViTConfig::micro(8), &mut rng);
    let images: Vec<Tensor> = (0..3)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect();
    let dense = QuantizedViT::from_float(&float_model);
    let mut calibrated = dense.clone();
    calibrated.calibrate(&images);
    let adaptive = dense.clone().with_prune_stages(vec![QuantPruneStage {
        block: 2,
        attn_frac: 0.9,
    }]);
    for (name, model) in [
        ("dynamic", &dense),
        ("calibrated", &calibrated),
        ("adaptive", &adaptive),
    ] {
        let mut scratch = PolicyScratch::default();
        for image in &images {
            model.run_with(image, &mut scratch);
        }
        let ((_, tokens_per_block), requests) =
            requests_during(|| model.run_with(&images[0], &mut scratch));
        assert!(!tokens_per_block.is_empty());
        // What is left: the result (logits, per-block token counts). The
        // 32×32 image alone has 3072 pixels and each block 3 × 16 class-row
        // scores: a request per element, or one per block, breaks the bound.
        let budget = 5;
        assert!(
            requests <= budget,
            "{name}: {requests} heap requests for one warm image (budget {budget})"
        );
    }
}

#[test]
fn warm_int8_gemms_at_deit_tiny_shapes_make_no_heap_request() {
    let mut rng = StdRng::seed_from_u64(1);
    let tokens = 197;
    let quantized = |rows, cols, rng: &mut StdRng| {
        QTensor::quantize(&Tensor::rand_normal(&[rows, cols], 0.0, 1.0, rng))
    };
    let (mut pack, mut out) = (Vec::new(), Tensor::default());
    // Each product twice: the first call sizes `pack` and `out`, the second
    // is counted. Projections and fc1 reduce over k = 192, fc2 over 768.
    for (k, n) in [(192, 192), (192, 768), (768, 192)] {
        let layer = QLinear::from_linear(&Linear::new(k, n, true, &mut rng));
        let qx = quantized(tokens, k, &mut rng);
        layer.infer_quantized_into(&qx, &mut out);
        let ((), requests) = requests_during(|| layer.infer_quantized_into(&qx, &mut out));
        assert_eq!(requests, 0, "QLinear {tokens}x{k}x{n}");
    }
    // Attention: Q·Kᵀ over one head's k = 64, then A·V over k = 197 tokens.
    let (q, keys) = (
        quantized(tokens, 64, &mut rng),
        quantized(tokens, 64, &mut rng),
    );
    qmatmul_transb_with(&q, &keys, &mut pack, &mut out);
    let ((), requests) = requests_during(|| qmatmul_transb_with(&q, &keys, &mut pack, &mut out));
    assert_eq!(requests, 0, "scores {tokens}x64x{tokens}");
    let (attn, values) = (
        quantized(tokens, tokens, &mut rng),
        quantized(tokens, 64, &mut rng),
    );
    qmatmul_with(&attn, &values, &mut pack, &mut out);
    let ((), requests) = requests_during(|| qmatmul_with(&attn, &values, &mut pack, &mut out));
    assert_eq!(requests, 0, "A·V {tokens}x{tokens}x64");
}
