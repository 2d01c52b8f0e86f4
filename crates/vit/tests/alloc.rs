//! Pins the f32 forward pass's heap traffic: with a warm [`InferScratch`] a
//! dense DeiT-T image costs what the blocks' *results* own — the per-head
//! attention maps every block returns and its output tokens — plus a
//! constant for patch embedding and the head; not a request per head slice,
//! per score matrix or per packed weight.
//!
//! A `#[global_allocator]` is process-wide, so this test lives in a binary of
//! its own and counts on the calling thread only.

use heatvit_tensor::Tensor;
use heatvit_vit::{InferScratch, ViTConfig, VisionTransformer};
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
fn warm_dense_deit_tiny_image_stays_within_its_heap_budget() {
    let mut rng = StdRng::seed_from_u64(0);
    let config = ViTConfig::deit_tiny();
    let (depth, heads) = (config.depth as u64, config.num_heads as u64);
    let model = VisionTransformer::new(config, &mut rng);
    let image = Tensor::rand_uniform(&[3, 224, 224], 0.0, 1.0, &mut rng);
    let mut scratch = InferScratch::default();
    // Warm: scratch buffers at their high-water mark, every weight packed.
    let first = model.infer_with(&image, &mut scratch);

    let (logits, requests) = requests_during(|| model.infer_with(&image, &mut scratch));
    assert_eq!(logits.data(), first.data(), "warm and cold runs must agree");
    // What a block's API hands back is the floor: a `Vec` of `heads` maps and
    // its output tokens, a shape and a buffer each.
    let floor = depth * (1 + 2 * heads + 2);
    assert!(
        requests >= floor,
        "{requests} requests is below the {floor} the returned tensors own: miscounted"
    );
    assert!(
        requests <= 150,
        "{requests} heap requests for one warm dense DeiT-T image (budget 150, floor {floor})"
    );
}
