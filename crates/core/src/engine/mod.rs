//! The batched inference [`Engine`]: builder-configured, shared-reference
//! hot path over a scratch checkout pool ([`pool`]), thread-sharded
//! execution ([`parallel`]), and result types ([`report`]).

mod parallel;
mod pool;
mod report;

pub use report::{BatchOutput, EngineReport};

use crate::model::{InferenceModel, ModelOutput};
use heatvit_data::{Batch, Loader};
use heatvit_nn::accuracy;
use heatvit_telemetry::{Counter, Registry};
use heatvit_tensor::Tensor;
use pool::ScratchPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper clamp applied when [`ThreadCount::Auto`] resolves: even on very
/// wide machines the engine never auto-sizes past this many workers per
/// batch, because an engine worker is *cheap* — a scoped thread that lives
/// for one batch, owns one scratch, and runs pure compute over a disjoint
/// index range, so dozens of them amortize fine whenever the batch is wide
/// enough. Contrast `heatvit-serve`'s `MAX_AUTO_LANES` (8): a serving lane
/// is a long-lived batcher/executor OS thread with its own bounded queue,
/// condvars, and steal scanning, so auto-sizing caps lanes an order of
/// magnitude lower than batch workers. Micro-model shards stop amortizing
/// thread-spawn cost long before 64 anyway; an explicit
/// [`ThreadCount::Fixed`] can still go higher deliberately. The two caps
/// are pinned together in `crates/serve/tests/telemetry_parity.rs`.
pub const MAX_AUTO_THREADS: usize = 64;

/// Worker-count policy of an [`EngineConfig`].
///
/// `Auto` is *deferred*: the hardware is queried when an engine is built
/// ([`EngineBuilder::build`]), not when the configuration value is created,
/// so a config constructed on one machine (or serialized into a job spec)
/// resolves against the machine that actually runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadCount {
    /// Resolve to [`std::thread::available_parallelism`] at engine build
    /// time, clamped to `1..=`[`MAX_AUTO_THREADS`] (falling back to 1 when
    /// parallelism cannot be queried).
    Auto,
    /// Exactly this many workers. Must be positive.
    Fixed(usize),
}

impl ThreadCount {
    /// Resolves the policy to a concrete worker count on *this* machine.
    ///
    /// # Panics
    ///
    /// Panics on `Fixed(0)`.
    pub fn resolve(self) -> usize {
        match self {
            ThreadCount::Auto => {
                resolve_auto(std::thread::available_parallelism().ok().map(|n| n.get()))
            }
            ThreadCount::Fixed(n) => {
                assert!(n > 0, "engine thread count must be positive");
                n
            }
        }
    }
}

/// The pure clamp behind [`ThreadCount::Auto`]: `None` (parallelism not
/// queryable) falls back to a single worker; any reported width is clamped
/// to `1..=`[`MAX_AUTO_THREADS`].
fn resolve_auto(available: Option<usize>) -> usize {
    available.unwrap_or(1).clamp(1, MAX_AUTO_THREADS)
}

/// Execution configuration of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Worker policy used to shard each batch. A resolved count of `1` runs
    /// the classic sequential path; higher values fan disjoint index ranges
    /// out over `std::thread::scope` workers, one scratch per worker.
    /// Outputs are bitwise identical at every setting.
    pub threads: ThreadCount,
}

impl EngineConfig {
    /// A configuration running exactly `threads` workers per batch.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "engine thread count must be positive");
        Self {
            threads: ThreadCount::Fixed(threads),
        }
    }

    /// A configuration sized to whatever machine eventually builds the
    /// engine: [`ThreadCount::Auto`], resolved against
    /// `std::thread::available_parallelism` at [`EngineBuilder::build`]
    /// time (clamped to `1..=`[`MAX_AUTO_THREADS`], 1-worker fallback when
    /// the query fails).
    pub fn auto() -> Self {
        Self {
            threads: ThreadCount::Auto,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: ThreadCount::Fixed(1),
        }
    }
}

/// Step-by-step construction of an [`Engine`], replacing the former
/// `new`/`with_threads`/`with_config` constructor sprawl.
///
/// # Examples
///
/// ```
/// use heatvit::{Engine, EngineConfig};
/// use heatvit_vit::{ViTConfig, VisionTransformer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
/// let engine = Engine::builder(model).threads(2).build();
/// assert_eq!(engine.threads(), 2);
/// ```
#[derive(Debug)]
pub struct EngineBuilder<M: InferenceModel> {
    model: M,
    config: EngineConfig,
    retention: Option<usize>,
    registry: Option<Arc<Registry>>,
}

impl<M: InferenceModel> EngineBuilder<M> {
    /// Starts a builder over `model` with the default single-worker config.
    pub fn new(model: M) -> Self {
        Self {
            model,
            config: EngineConfig::default(),
            retention: None,
            registry: None,
        }
    }

    /// Uses exactly `threads` workers per batch.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config = EngineConfig::with_threads(threads);
        self
    }

    /// Sizes the worker pool to the building machine (deferred
    /// [`ThreadCount::Auto`] resolution — see [`EngineConfig::auto`]).
    pub fn auto_threads(mut self) -> Self {
        self.config = EngineConfig::auto();
        self
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Keeps up to `scratches` warm workspaces in the pool instead of the
    /// default (the resolved worker count). Useful when several callers
    /// share one engine concurrently — e.g. N serving lanes batching into
    /// the same backend — so each caller's checkout finds a warm scratch
    /// instead of allocating. Values below the worker count are raised to
    /// it at build time (retaining fewer than one scratch per worker would
    /// guarantee churn).
    ///
    /// # Panics
    ///
    /// Panics if `scratches == 0`.
    pub fn scratch_retention(mut self, scratches: usize) -> Self {
        assert!(scratches > 0, "scratch retention must be positive");
        self.retention = Some(scratches);
        self
    }

    /// Records this engine's telemetry — per-variant batch/image/timing
    /// counters and scratch-pool checkout/miss counts — into `registry`
    /// instead of a private one, so several engines (e.g. the service
    /// levels of one server) expose through a single snapshot. Metrics are
    /// labeled `variant=<model.variant()>`; two engines over the same
    /// variant in one registry share (aggregate into) the same counters.
    pub fn telemetry(mut self, registry: Arc<Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds the engine, resolving [`ThreadCount::Auto`] against this
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fixes a zero thread count.
    pub fn build(self) -> Engine<M> {
        let threads = self.config.threads.resolve();
        let registry = self.registry.unwrap_or_default();
        let metrics = EngineMetrics::new(registry, self.model.variant());
        Engine {
            model: self.model,
            config: self.config,
            threads,
            retention: self.retention,
            pool: ScratchPool::default(),
            metrics,
        }
    }
}

/// The engine's per-variant instrumentation: lock-free counter handles
/// into its [`Registry`]. Purely observational — recording never changes
/// inference arithmetic or scheduling.
#[derive(Debug)]
struct EngineMetrics {
    registry: Arc<Registry>,
    batches: Arc<Counter>,
    images: Arc<Counter>,
    inference_us: Arc<Counter>,
    scratch_checkouts: Arc<Counter>,
    scratch_misses: Arc<Counter>,
}

impl EngineMetrics {
    fn new(registry: Arc<Registry>, variant: &str) -> Self {
        let labels = &[("variant", variant)][..];
        let batches = registry.counter(
            "heatvit_engine_batches_total",
            labels,
            "Batches executed per backend variant.",
        );
        let images = registry.counter(
            "heatvit_engine_images_total",
            labels,
            "Images inferred per backend variant.",
        );
        let inference_us = registry.counter(
            "heatvit_engine_inference_us_total",
            labels,
            "Wall-clock microseconds spent inside batch inference per backend variant.",
        );
        let scratch_checkouts = registry.counter(
            "heatvit_engine_scratch_checkouts_total",
            labels,
            "Scratch workspaces checked out of the warm pool.",
        );
        let scratch_misses = registry.counter(
            "heatvit_engine_scratch_misses_total",
            labels,
            "Scratch checkouts that had to build a fresh workspace (pool ran dry).",
        );
        Self {
            registry,
            batches,
            images,
            inference_us,
            scratch_checkouts,
            scratch_misses,
        }
    }

    fn record_checkout(&self, scratches: usize, misses: usize) {
        self.scratch_checkouts.add(scratches as u64);
        self.scratch_misses.add(misses as u64);
    }

    fn record_batch(&self, images: usize, elapsed: Duration) {
        self.batches.inc();
        self.images.add(images as u64);
        self.inference_us.add(elapsed.as_micros() as u64);
    }
}

/// A batched inference engine: one model variant plus a checkout pool of
/// persistent scratch workspaces.
///
/// The engine amortizes dispatch over a batch — activation, repacking, and
/// keep-mask buffers are checked out of a warm pool and reused for every
/// image — and reports throughput alongside the per-image cost model. With
/// a resolved worker count `> 1` each batch is sharded into disjoint index
/// ranges executed by scoped worker threads that share the model immutably
/// and own one scratch each; every image writes its results into the slot
/// preassigned by its batch index, so batched outputs are bitwise identical
/// to the sequential per-image path at any thread count. Because every
/// variant implements [`InferenceModel`] through its own bit-exact `infer`
/// arithmetic, engine outputs are directly comparable across dense,
/// adaptive-pruned, static-pruned, and int8-quantized models.
///
/// Every inference entry point takes `&self`: scratch state lives in the
/// pool, not behind a mutable borrow, so one engine can serve concurrent
/// submitters (each in-flight batch checks out its own workspaces). This is
/// the substrate the `heatvit-serve` dynamic batcher fans requests into.
///
/// # Examples
///
/// ```
/// use heatvit::{Engine, InferenceModel};
/// use heatvit_tensor::Tensor;
/// use heatvit_vit::{ViTConfig, VisionTransformer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng);
/// let images: Vec<Tensor> = (0..3)
///     .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
///     .collect();
/// let engine = Engine::builder(model).threads(2).build();
/// let out = engine.infer_batch(&images); // note: &engine, not &mut
/// assert_eq!(out.logits.dims(), &[3, 4]);
/// // Sharded logits match the per-image path bitwise.
/// let single = engine.model().infer(&images[1]);
/// assert_eq!(out.logits.row(1), single.row(0));
/// ```
#[derive(Debug)]
pub struct Engine<M: InferenceModel> {
    model: M,
    config: EngineConfig,
    /// `config.threads` resolved at build time.
    threads: usize,
    /// Explicit warm-pool cap ([`EngineBuilder::scratch_retention`]);
    /// `None` tracks the worker count.
    retention: Option<usize>,
    /// Warm scratch workspaces, checked out per batch
    /// ([`Engine::scratch_retention`] retained).
    pool: ScratchPool,
    /// Per-variant counters ([`EngineBuilder::telemetry`], or a private
    /// registry by default).
    metrics: EngineMetrics,
}

impl<M: InferenceModel> Engine<M> {
    /// Starts an [`EngineBuilder`] over `model`.
    pub fn builder(model: M) -> EngineBuilder<M> {
        EngineBuilder::new(model)
    }

    /// The active execution configuration (as built).
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The resolved worker count ([`ThreadCount::Auto`] already applied).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many warm scratch workspaces the pool retains between batches:
    /// the explicit [`EngineBuilder::scratch_retention`] cap (never below
    /// the worker count), or the worker count itself by default.
    pub fn scratch_retention(&self) -> usize {
        self.retention.map_or(self.threads, |r| r.max(self.threads))
    }

    /// Reconfigures the worker count in place. Warm scratches beyond the
    /// new retention cap are released lazily at the next check-in.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn set_threads(&mut self, threads: usize) {
        self.config = EngineConfig::with_threads(threads);
        self.threads = threads;
    }

    /// The registry this engine's telemetry records into (the one passed
    /// to [`EngineBuilder::telemetry`], or the engine's own private
    /// registry). Snapshot it to read the per-variant batch/image/timing
    /// counters and scratch-pool checkout/miss counts.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Classifies one image through a checked-out scratch workspace.
    pub fn infer_one(&self, image: &Tensor) -> ModelOutput {
        let start = Instant::now();
        let (mut scratches, misses) = self.pool.checkout(1);
        self.metrics.record_checkout(1, misses);
        let out = self.model.infer_one(image, &mut scratches[0]);
        self.pool.checkin(scratches, self.scratch_retention());
        self.metrics.record_batch(1, start.elapsed());
        out
    }

    /// Pushes a batch of images through the model, sharding it across the
    /// configured worker threads (sequentially when the resolved count is
    /// 1). Each worker reuses its own scratch workspace across its whole
    /// shard.
    pub fn infer_batch(&self, images: &[Tensor]) -> BatchOutput {
        self.infer_batch_iter(images.iter())
    }

    /// [`Engine::infer_batch`] over any iterator of borrowed images (used
    /// directly by the loader integration, whose batches hold `&Sample`,
    /// and by the serving batcher, whose pending queue owns its tensors).
    ///
    /// The iterator is drained into a reference buffer up front so shards
    /// can index the batch (a handful of pointers — negligible next to one
    /// image's inference); the reported `elapsed` includes that drain.
    pub fn infer_batch_iter<'a>(&self, images: impl Iterator<Item = &'a Tensor>) -> BatchOutput {
        let start = Instant::now();
        let refs: Vec<&Tensor> = images.collect();
        self.infer_refs(&refs, start)
    }

    /// The shared batch core: preallocates one output slot per image, checks
    /// out one scratch per active worker, then runs the whole batch as one
    /// shard (sequential) or fans disjoint ranges out over scoped threads.
    /// Both paths execute [`parallel::run_shard`], so their outputs are
    /// bit-identical.
    fn infer_refs(&self, images: &[&Tensor], start: Instant) -> BatchOutput {
        let classes = self.model.config().num_classes;
        let batch = images.len();
        let mut logits_data = vec![0.0f32; batch * classes];
        let mut tokens_per_block: Vec<Vec<usize>> = vec![Vec::new(); batch];
        let mut macs = vec![0u64; batch];
        let workers = self.threads.min(batch).max(1);
        let (mut scratches, misses) = self.pool.checkout(workers);
        self.metrics.record_checkout(workers, misses);
        if workers == 1 {
            parallel::run_shard(
                &self.model,
                &mut scratches[0],
                images,
                classes,
                &mut logits_data,
                &mut tokens_per_block,
                &mut macs,
            );
        } else {
            parallel::infer_sharded(
                &self.model,
                &mut scratches,
                images,
                classes,
                &mut logits_data,
                &mut tokens_per_block,
                &mut macs,
            );
        }
        self.pool.checkin(scratches, self.scratch_retention());
        let elapsed = start.elapsed();
        self.metrics.record_batch(batch, elapsed);
        BatchOutput {
            logits: Tensor::from_vec(logits_data, &[batch, classes]),
            tokens_per_block,
            macs,
            elapsed,
        }
    }

    /// Classifies one loader batch (sharded like [`Engine::infer_batch`]).
    pub fn infer_samples(&self, batch: &Batch<'_>) -> BatchOutput {
        self.infer_batch_iter(batch.samples.iter().map(|s| &s.image))
    }

    /// Runs one full epoch of `loader` (no shuffling effect on results other
    /// than order), aggregating accuracy, throughput, and cost. Every batch
    /// is sharded across the configured worker threads, so a multi-threaded
    /// engine reports the same accuracy/cost numbers at higher
    /// `images_per_sec`.
    pub fn run_epoch(&self, loader: &Loader<'_>, epoch: u64) -> EngineReport {
        let mut images = 0usize;
        let mut batches = 0usize;
        let mut correct = 0.0f64;
        let mut inference_time = Duration::ZERO;
        let mut total_macs = 0u64;
        let mut final_tokens = 0u64;
        for batch in loader.iter_epoch(epoch) {
            let out = self.infer_samples(&batch);
            let labels = batch.labels();
            correct += accuracy(&out.logits, &labels) as f64 * labels.len() as f64;
            images += out.len();
            batches += 1;
            inference_time += out.elapsed;
            total_macs += out.macs.iter().sum::<u64>();
            final_tokens += out
                .tokens_per_block
                .iter()
                .map(|t| *t.last().unwrap_or(&0) as u64)
                .sum::<u64>();
        }
        EngineReport {
            images,
            batches,
            accuracy: if images == 0 {
                0.0
            } else {
                (correct / images as f64) as f32
            },
            images_per_sec: if images == 0 {
                0.0
            } else {
                images as f64 / inference_time.as_secs_f64().max(1e-12)
            },
            mean_macs: if images == 0 {
                0.0
            } else {
                total_macs as f64 / images as f64
            },
            mean_final_tokens: if images == 0 {
                0.0
            } else {
                final_tokens as f64 / images as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_config_defers_resolution() {
        // `auto()` must not bake a number in at construction time.
        assert_eq!(EngineConfig::auto().threads, ThreadCount::Auto);
    }

    #[test]
    fn resolve_auto_falls_back_to_one_core() {
        // The 1-core fallback: unqueryable parallelism and a single-core
        // report both resolve to one worker.
        assert_eq!(resolve_auto(None), 1);
        assert_eq!(resolve_auto(Some(1)), 1);
    }

    #[test]
    fn resolve_auto_clamps_wide_machines() {
        assert_eq!(resolve_auto(Some(4)), 4);
        assert_eq!(resolve_auto(Some(MAX_AUTO_THREADS)), MAX_AUTO_THREADS);
        assert_eq!(resolve_auto(Some(100_000)), MAX_AUTO_THREADS);
        // Degenerate zero report clamps up, never down to a zero-width pool.
        assert_eq!(resolve_auto(Some(0)), 1);
    }

    #[test]
    fn fixed_thread_count_resolves_to_itself() {
        assert_eq!(ThreadCount::Fixed(3).resolve(), 3);
        assert_eq!(EngineConfig::with_threads(5).threads, ThreadCount::Fixed(5));
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_fixed_threads_panics_at_resolution() {
        ThreadCount::Fixed(0).resolve();
    }

    #[test]
    #[should_panic(expected = "thread count must be positive")]
    fn zero_thread_config_panics_at_construction() {
        EngineConfig::with_threads(0);
    }

    #[test]
    fn scratch_retention_defaults_to_threads_and_never_drops_below() {
        use heatvit_vit::{ViTConfig, VisionTransformer};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
        let engine = Engine::builder(model).threads(3).build();
        assert_eq!(engine.scratch_retention(), 3);

        let mut rng = StdRng::seed_from_u64(0);
        let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
        // An explicit cap above the worker count is honored (the lane-shared
        // engine case: retention = workers × lanes)...
        let engine = Engine::builder(model)
            .threads(2)
            .scratch_retention(8)
            .build();
        assert_eq!(engine.scratch_retention(), 8);

        let mut rng = StdRng::seed_from_u64(0);
        let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
        // ...and a cap below it is raised to one scratch per worker.
        let engine = Engine::builder(model)
            .threads(4)
            .scratch_retention(1)
            .build();
        assert_eq!(engine.scratch_retention(), 4);
    }

    #[test]
    fn engine_telemetry_counts_batches_and_scratch_misses() {
        use heatvit_vit::{ViTConfig, VisionTransformer};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
        let registry = Registry::new();
        let engine = Engine::builder(model)
            .threads(2)
            .telemetry(Arc::clone(&registry))
            .build();
        let images: Vec<Tensor> = (0..3)
            .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
            .collect();
        engine.infer_batch(&images);
        engine.infer_batch(&images);
        let labels = &[("variant", "dense")][..];
        let snap = registry.snapshot();
        assert_eq!(snap.counter("heatvit_engine_batches_total", labels), 2);
        assert_eq!(snap.counter("heatvit_engine_images_total", labels), 6);
        // 2 workers per batch; the first batch builds both scratches
        // fresh, the second reuses the retained pair.
        assert_eq!(
            snap.counter("heatvit_engine_scratch_checkouts_total", labels),
            4
        );
        assert_eq!(
            snap.counter("heatvit_engine_scratch_misses_total", labels),
            2
        );
        assert!(snap.counter("heatvit_engine_inference_us_total", labels) > 0);
        // The engine's accessor exposes the same registry.
        assert!(Arc::ptr_eq(engine.telemetry(), &registry));
    }

    #[test]
    #[should_panic(expected = "scratch retention must be positive")]
    fn zero_scratch_retention_panics() {
        use heatvit_vit::{ViTConfig, VisionTransformer};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0);
        let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
        let _ = Engine::builder(model).scratch_retention(0);
    }
}
