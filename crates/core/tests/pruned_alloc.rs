//! Pins the adaptive-pruned f32 path's heap traffic: a warm DeiT-T
//! `PrunedViT` with three selectors may not make more heap requests per
//! image than the count below, so a refactor of the pruning loop cannot
//! quietly add any. The pruned twin of `crates/vit/tests/alloc.rs`.
//!
//! A `#[global_allocator]` is process-wide, so this test lives in a binary of
//! its own and counts on the calling thread only.

use heatvit::InferenceModel;
use heatvit_selector::gumbel::GumbelConfig;
use heatvit_selector::{PruneScratch, PrunedViT, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
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

/// Heap requests of one warm image: a ratchet — lower it when the loop gets
/// leaner, never raise it.
const BUDGET: u64 = 434;

#[test]
fn warm_pruned_deit_tiny_image_stays_within_its_heap_budget() {
    let mut rng = StdRng::seed_from_u64(0);
    let config = ViTConfig::deit_tiny();
    let (dim, heads) = (config.embed_dim, config.num_heads);
    let backbone = VisionTransformer::new(config, &mut rng);
    let image = Tensor::rand_uniform(&[3, 224, 224], 0.0, 1.0, &mut rng);
    // Thresholds at the median score the dense model's tokens get, so each
    // stage keeps about half its patches and packages the rest.
    let trace = backbone.infer_traced(&image);
    let mut model = PrunedViT::new(backbone);
    for block in [3, 6, 9] {
        let tokens = &trace.block_tokens[block];
        let mut selector = TokenSelector::new(dim, heads, &mut rng);
        let mut scores = selector
            .infer(&tokens.slice_rows(1, tokens.dim(0)))
            .keep_scores;
        scores.sort_by(f32::total_cmp);
        selector.set_gumbel(GumbelConfig {
            threshold: scores[scores.len() / 2],
            ..selector.gumbel()
        });
        model.insert_selector(block, selector);
    }
    let mut scratch = PruneScratch::default();
    // Warm: scratch buffers at their high-water mark, every weight packed.
    let first = model.infer_one(&image, &mut scratch);

    let (out, requests) = requests_during(|| model.infer_one(&image, &mut scratch));
    assert_eq!(
        out.logits.data(),
        first.logits.data(),
        "warm and cold runs must agree"
    );
    assert!(
        out.tokens_per_block[9] < out.tokens_per_block[0],
        "the selectors must prune: {:?}",
        out.tokens_per_block
    );
    assert!(
        requests <= BUDGET,
        "{requests} heap requests for one warm pruned DeiT-T image (budget {BUDGET})"
    );
}
