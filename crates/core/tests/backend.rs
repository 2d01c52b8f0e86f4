//! The type-erased [`Backend`] handle: dispatch must be bit-identical to
//! the concrete model, kinds/labels must round-trip, the builder-made
//! engine must serve concurrent submitters through `&self`, and the
//! deprecated constructor shims must keep working.

use heatvit::{Backend, BackendKind, Engine, InferenceModel, ThreadCount};
use heatvit_quant::{QuantPruneStage, QuantizedViT};
use heatvit_selector::{PrunedViT, StaticPrunedViT, StaticRule, StaticStage, TokenSelector};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn backbone(seed: u64) -> VisionTransformer {
    VisionTransformer::new(ViTConfig::micro(4), &mut StdRng::seed_from_u64(seed))
}

fn pruned(seed: u64) -> PrunedViT {
    let mut rng = StdRng::seed_from_u64(seed);
    let backbone = backbone(seed);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut model = PrunedViT::new(backbone);
    model.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
    model
}

fn static_pruned(seed: u64) -> StaticPrunedViT {
    StaticPrunedViT::new(
        backbone(seed),
        vec![StaticStage {
            block: 1,
            keep_ratio: 0.7,
        }],
        StaticRule::CliffAttention,
        0,
    )
}

fn quantized_adaptive(seed: u64) -> QuantizedViT {
    QuantizedViT::from_float(&backbone(seed)).with_prune_stages(vec![QuantPruneStage {
        block: 2,
        attn_frac: 0.9,
    }])
}

fn images(seed: u64, count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect()
}

/// One `Engine<Backend>` per kind must reproduce the concrete engine's
/// batch output bitwise.
fn assert_backend_matches_concrete<M>(concrete: M, erased: Backend, kind: BackendKind)
where
    M: InferenceModel,
{
    assert_eq!(erased.kind(), kind);
    assert_eq!(erased.variant(), kind.label());
    let imgs = images(99, 4);
    let direct = Engine::builder(concrete).build().infer_batch(&imgs);
    let via_backend = Engine::builder(erased)
        .threads(2)
        .build()
        .infer_batch(&imgs);
    assert_eq!(via_backend.logits.data(), direct.logits.data());
    assert_eq!(via_backend.tokens_per_block, direct.tokens_per_block);
    assert_eq!(via_backend.macs, direct.macs);
}

#[test]
fn backend_dense_dispatch_is_bitwise() {
    assert_backend_matches_concrete(backbone(1), Backend::from(backbone(1)), BackendKind::Dense);
}

#[test]
fn backend_adaptive_dispatch_is_bitwise() {
    assert_backend_matches_concrete(
        pruned(2),
        Backend::from(pruned(2)),
        BackendKind::AdaptivePruned,
    );
}

#[test]
fn backend_static_dispatch_is_bitwise() {
    assert_backend_matches_concrete(
        static_pruned(3),
        Backend::from(static_pruned(3)),
        BackendKind::StaticPruned,
    );
}

#[test]
fn backend_int8_dispatch_is_bitwise() {
    let dense = QuantizedViT::from_float(&backbone(4));
    assert_backend_matches_concrete(dense.clone(), Backend::from(dense), BackendKind::Int8Dense);
    assert_backend_matches_concrete(
        quantized_adaptive(4),
        Backend::from(quantized_adaptive(4)),
        BackendKind::Int8Adaptive,
    );
}

#[test]
fn backend_dense_macs_match_concrete() {
    let concrete = pruned(5);
    let expected = InferenceModel::dense_macs(&concrete);
    assert_eq!(
        InferenceModel::dense_macs(&Backend::from(concrete)),
        expected
    );
}

#[test]
fn cloned_backend_is_bitwise_identical() {
    let backend = Backend::from(static_pruned(6));
    let replica = backend.clone();
    let imgs = images(7, 2);
    let a = Engine::builder(backend).build().infer_batch(&imgs);
    let b = Engine::builder(replica).build().infer_batch(&imgs);
    assert_eq!(a.logits.data(), b.logits.data());
}

/// The whole point of the checkout pool: one engine, `&self`, shared across
/// submitter threads, each getting per-image results bit-identical to the
/// sequential reference.
#[test]
fn shared_engine_serves_concurrent_submitters() {
    let engine = Engine::builder(Backend::from(pruned(8))).threads(2).build();
    let imgs = images(9, 6);
    let reference = engine.infer_batch(&imgs);
    std::thread::scope(|scope| {
        for (i, img) in imgs.iter().enumerate() {
            let engine = &engine;
            let expect = reference.logits.row(i).to_vec();
            scope.spawn(move || {
                let out = engine.infer_one(img);
                assert_eq!(out.logits.data(), &expect[..], "submitter {i} diverged");
            });
        }
    });
}

#[test]
fn builder_resolves_auto_threads_at_build() {
    let engine = Engine::builder(backbone(10)).auto_threads().build();
    assert!(engine.threads() >= 1);
    assert!(engine.threads() <= heatvit::MAX_AUTO_THREADS);
    assert_eq!(engine.config().threads, ThreadCount::Auto);
}

#[test]
fn set_threads_reconfigures_in_place() {
    let mut engine = Engine::builder(backbone(11)).build();
    assert_eq!(engine.threads(), 1);
    engine.set_threads(3);
    assert_eq!(engine.threads(), 3);
    assert_eq!(engine.config().threads, ThreadCount::Fixed(3));
    let imgs = images(12, 4);
    let sharded = engine.infer_batch(&imgs);
    let sequential = Engine::builder(backbone(11)).build().infer_batch(&imgs);
    assert_eq!(sharded.logits.data(), sequential.logits.data());
}
