//! Predicted per-request cost as a first-class signal: [`CostProfile`]
//! (what a backend expects to compute) and the [`LatencyModel`] trait
//! (how long that computation takes on some execution substrate).
//!
//! The serving layer admits, degrades, and sheds requests based on
//! *predicted* latency; the offline harnesses rank backends by it. Three
//! families of model implement the trait:
//!
//! * `FpgaCycleModel` (in `heatvit-fpga`) — the paper's tiled GEMM-engine
//!   cycle accounting (Fig. 8, Tables III–IV) with int8 DSP packing;
//! * [`MacProxyModel`] — latency proportional to the profile's MAC count
//!   plus a fixed per-image overhead; hardware-agnostic, exact on any
//!   machine whose per-MAC cost is roughly constant across backends;
//! * [`MeasuredEwma`] — an online model that starts from any prior
//!   [`LatencyModel`] and converges to the measured wall-clock of the
//!   machine actually serving, via an exponentially weighted moving
//!   average per backend variant.

use heatvit_vit::ViTConfig;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::Duration;

/// What one inference through a backend is *expected* to compute, exposed
/// without running inference: per-block token counts, the MAC estimate at
/// those counts, and which arithmetic family executes them.
///
/// Produced by [`crate::InferenceModel::cost_profile`]. For input-adaptive
/// backends the token counts are nominal expectations (`exact == false`);
/// for dense and statically pruned backends they are the counts every
/// image actually sees (`exact == true`).
#[derive(Debug, Clone)]
pub struct CostProfile {
    /// The backend variant label this profile describes (the
    /// [`crate::InferenceModel::variant`] string — latency models key
    /// online state by it).
    pub variant: String,
    /// The backbone architecture the tokens flow through.
    pub config: ViTConfig,
    /// Expected token count entering each encoder block.
    pub tokens_per_block: Vec<usize>,
    /// `true` when `tokens_per_block` is input-independent (dense, static
    /// pruning); `false` for nominal expectations of adaptive backends.
    pub exact: bool,
    /// `true` for the int8 integer pipeline (DSP packing applies on
    /// packed-arithmetic substrates).
    pub quantized: bool,
    /// MAC estimate at these token counts. Packed-DSP-equivalent for
    /// quantized profiles, matching what the backend itself reports.
    pub macs: u64,
}

impl CostProfile {
    /// A dense profile for `config`: full tokens in every block.
    pub fn dense(variant: &str, config: &ViTConfig, macs: u64) -> Self {
        Self {
            variant: variant.to_string(),
            config: config.clone(),
            tokens_per_block: vec![config.num_tokens(); config.depth],
            exact: true,
            quantized: false,
            macs,
        }
    }

    /// Mean token count across blocks as a fraction of the dense count —
    /// the accuracy *proxy* of this profile (1.0 = every block sees every
    /// token; lower = more aggressive pruning, typically lower accuracy).
    ///
    /// A proxy, not a measurement: it tracks how much evidence survives to
    /// the classifier, which is what token pruning trades accuracy for.
    pub fn keep_fraction(&self) -> f64 {
        if self.tokens_per_block.is_empty() {
            return 1.0;
        }
        let dense = (self.config.num_tokens() * self.tokens_per_block.len()) as f64;
        self.tokens_per_block.iter().sum::<usize>() as f64 / dense.max(1.0)
    }
}

/// Predicts how long one inference of a given [`CostProfile`] takes.
///
/// # Contract
///
/// * [`predict`](LatencyModel::predict) returns the expected *service* time
///   of one image (no queueing), strictly positive, and must be monotone in
///   cost: a profile with more work on the model's substrate never predicts
///   lower latency. It must be cheap (microseconds, no inference) — the
///   serving layer calls it on every admission under its queue lock.
/// * [`observe`](LatencyModel::observe) feeds a measured execution back:
///   `measured` wall-clock for a batch of `images` inferences of `profile`.
///   Offline models ignore it (the default); online models fold it in.
///   Takes `&self`: implementations needing state use interior mutability,
///   because servers share one model across submitter threads.
/// * [`predict_batch`](LatencyModel::predict_batch) scales the per-image
///   prediction to a batch executed across `threads` workers; the provided
///   implementation assumes per-image independence and ideal sharding,
///   which matches the engine's disjoint-range execution model.
pub trait LatencyModel: Send + Sync {
    /// Short model name for report tables (`"fpga-cycles"`, `"mac-proxy"`,
    /// `"measured-ewma"`).
    fn name(&self) -> &'static str;

    /// Expected service time of one image of this profile.
    fn predict(&self, profile: &CostProfile) -> Duration;

    /// Folds one measured execution (a batch of `images` inferences taking
    /// `measured` total) into the model. No-op by default.
    fn observe(&self, _profile: &CostProfile, _images: usize, _measured: Duration) {}

    /// Expected wall-clock of `batch` images of this profile sharded over
    /// `threads` engine workers (per-image independence, ideal sharding:
    /// the slowest worker runs `ceil(batch / threads)` images).
    fn predict_batch(&self, profile: &CostProfile, batch: usize, threads: usize) -> Duration {
        let per_worker = batch.div_ceil(threads.max(1)).max(1) as u32;
        self.predict(profile) * per_worker
    }
}

/// Blanket forward so `Box<dyn LatencyModel>` (and boxed concrete models)
/// are latency models themselves.
impl<L: LatencyModel + ?Sized> LatencyModel for Box<L> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn predict(&self, profile: &CostProfile) -> Duration {
        (**self).predict(profile)
    }

    fn observe(&self, profile: &CostProfile, images: usize, measured: Duration) {
        (**self).observe(profile, images, measured)
    }

    fn predict_batch(&self, profile: &CostProfile, batch: usize, threads: usize) -> Duration {
        (**self).predict_batch(profile, batch, threads)
    }
}

/// The simplest useful latency model: a fixed per-image overhead plus time
/// proportional to the profile's MAC count.
///
/// The MAC proxy is substrate-agnostic — it ranks backends by arithmetic
/// volume, which is what the paper's pruning schedule optimizes — but it is
/// blind to per-token bookkeeping (selector scoring, repacking,
/// quantize/dequantize staging), so on a host CPU it over-rewards backends
/// that trade many MACs for much bookkeeping. Use [`MeasuredEwma`] on top
/// when absolute host accuracy matters.
#[derive(Debug, Clone)]
pub struct MacProxyModel {
    /// Seconds per MAC (default `1e-10`, i.e. 10 GMAC/s — a reasonable
    /// single-core figure for the packed microkernels).
    pub secs_per_mac: f64,
    /// Fixed per-image overhead added to every prediction.
    pub overhead: Duration,
}

impl Default for MacProxyModel {
    fn default() -> Self {
        Self {
            secs_per_mac: 1e-10,
            overhead: Duration::from_micros(20),
        }
    }
}

impl LatencyModel for MacProxyModel {
    fn name(&self) -> &'static str {
        "mac-proxy"
    }

    fn predict(&self, profile: &CostProfile) -> Duration {
        self.overhead + Duration::from_secs_f64(profile.macs as f64 * self.secs_per_mac)
    }
}

/// Per-variant online state of a [`MeasuredEwma`]: the overall per-image
/// EWMA (every observation regardless of batch size) plus one EWMA per
/// observed batch size, because per-image cost is *not* batch-independent —
/// batch formation, scratch checkout, and shard fan-out amortize over the
/// batch, so a size-1 execution costs measurably more per image than a
/// size-8 one.
#[derive(Debug)]
struct VariantEwma {
    /// Per-image seconds over all observations (what
    /// [`LatencyModel::predict`] reports).
    overall: f64,
    /// Per-image seconds keyed by observed batch size (what
    /// [`LatencyModel::predict_batch`] interpolates from, nearest key).
    buckets: BTreeMap<usize, f64>,
}

/// Online measured-latency model: starts from a prior [`LatencyModel`] and
/// converges to this machine's wall-clock, one exponentially weighted
/// moving average of per-image service time per backend variant — plus one
/// EWMA per `(variant, batch size)` bucket, so batch-shape cost (formation,
/// scratch checkout, shard fan-out) is captured instead of smeared into a
/// single rate.
///
/// Until a variant has been observed, [`predict`](LatencyModel::predict)
/// delegates to the prior; after the first observation the EWMA takes over
/// entirely (the prior's role is cold-start, not fusion). `observe` divides
/// the measured batch wall-clock by the batch size, so batch executions and
/// single-image executions feed the same overall estimate; each observation
/// also lands in its batch-size bucket, and
/// [`predict_batch`](LatencyModel::predict_batch) answers from the bucket
/// nearest the requested size.
pub struct MeasuredEwma {
    prior: Box<dyn LatencyModel>,
    /// EWMA smoothing factor in `(0, 1]`: weight of the newest sample.
    alpha: f64,
    /// Per-variant EWMAs of per-image service seconds.
    state: Mutex<HashMap<String, VariantEwma>>,
}

impl std::fmt::Debug for MeasuredEwma {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeasuredEwma")
            .field("prior", &self.prior.name())
            .field("alpha", &self.alpha)
            .field("state", &self.state.lock().expect("ewma state poisoned"))
            .finish()
    }
}

impl MeasuredEwma {
    /// An EWMA model falling back to `prior` for unobserved variants.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(prior: impl LatencyModel + 'static, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        Self {
            prior: Box::new(prior),
            alpha,
            state: Mutex::new(HashMap::new()),
        }
    }

    /// The observed per-image EWMA for a variant, if any execution of it
    /// has been fed back yet (the overall estimate, across batch sizes).
    #[cfg(test)]
    fn observed(&self, variant: &str) -> Option<Duration> {
        self.state
            .lock()
            .expect("ewma state poisoned")
            .get(variant)
            .map(|v| Duration::from_secs_f64(v.overall))
    }

    /// The observed per-image EWMA of one exact `(variant, batch size)`
    /// bucket, if an execution of that size has been fed back yet.
    #[cfg(test)]
    fn observed_batch(&self, variant: &str, batch: usize) -> Option<Duration> {
        self.state
            .lock()
            .expect("ewma state poisoned")
            .get(variant)
            .and_then(|v| v.buckets.get(&batch))
            .map(|&s| Duration::from_secs_f64(s))
    }

    /// Per-image seconds from the bucket whose key is nearest `batch`
    /// (ties prefer the larger bucket — closer to asymptotic cost).
    fn nearest_bucket(buckets: &BTreeMap<usize, f64>, batch: usize) -> Option<f64> {
        let below = buckets.range(..=batch).next_back();
        let above = buckets.range(batch..).next();
        match (below, above) {
            (Some((&lo, &lo_secs)), Some((&hi, &hi_secs))) => Some(if batch - lo < hi - batch {
                lo_secs
            } else {
                hi_secs
            }),
            (Some((_, &secs)), None) | (None, Some((_, &secs))) => Some(secs),
            (None, None) => None,
        }
    }
}

impl Default for MeasuredEwma {
    /// MAC-proxy prior, `alpha = 0.2` (a new sample moves the estimate a
    /// fifth of the way — smooth under scheduler jitter, converged within
    /// ~10 batches).
    fn default() -> Self {
        Self::new(MacProxyModel::default(), 0.2)
    }
}

impl LatencyModel for MeasuredEwma {
    fn name(&self) -> &'static str {
        "measured-ewma"
    }

    fn predict(&self, profile: &CostProfile) -> Duration {
        let state = self.state.lock().expect("ewma state poisoned");
        match state.get(&profile.variant) {
            Some(v) => Duration::from_secs_f64(v.overall),
            None => {
                drop(state);
                self.prior.predict(profile)
            }
        }
    }

    fn observe(&self, profile: &CostProfile, images: usize, measured: Duration) {
        if images == 0 {
            return;
        }
        let sample = measured.as_secs_f64() / images as f64;
        let mut state = self.state.lock().expect("ewma state poisoned");
        let variant = state
            .entry(profile.variant.clone())
            .or_insert_with(|| VariantEwma {
                overall: sample,
                buckets: BTreeMap::new(),
            });
        variant.overall += self.alpha * (sample - variant.overall);
        variant
            .buckets
            .entry(images)
            .and_modify(|s| *s += self.alpha * (sample - *s))
            .or_insert(sample);
    }

    /// Batch prediction from the nearest observed `(variant, batch size)`
    /// bucket: per-image bucket seconds × batch. The bucket observations
    /// were measured on the executing engine's real substrate (its thread
    /// sharding included), so the `threads` argument only matters for the
    /// prior fallback on unobserved variants.
    fn predict_batch(&self, profile: &CostProfile, batch: usize, threads: usize) -> Duration {
        let state = self.state.lock().expect("ewma state poisoned");
        match state
            .get(&profile.variant)
            .and_then(|v| Self::nearest_bucket(&v.buckets, batch))
        {
            Some(per_image) => Duration::from_secs_f64(per_image * batch.max(1) as f64),
            None => {
                drop(state);
                self.prior.predict_batch(profile, batch, threads)
            }
        }
    }
}

/// Ranks profiles fastest-first under `model` (ties broken by input
/// order). The offline harnesses compare this predicted order against the
/// measured wall-clock order.
pub fn rank_by_predicted(model: &dyn LatencyModel, profiles: &[CostProfile]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..profiles.len()).collect();
    order.sort_by(|&a, &b| {
        model
            .predict(&profiles[a])
            .cmp(&model.predict(&profiles[b]))
            .then(a.cmp(&b))
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(variant: &str, macs: u64) -> CostProfile {
        CostProfile {
            variant: variant.to_string(),
            config: ViTConfig::micro(4),
            tokens_per_block: vec![17; 6],
            exact: true,
            quantized: false,
            macs,
        }
    }

    #[test]
    fn mac_proxy_is_monotone_in_macs() {
        let model = MacProxyModel::default();
        let small = model.predict(&profile("a", 1_000_000));
        let large = model.predict(&profile("b", 10_000_000));
        assert!(large > small);
        assert!(small > Duration::ZERO);
    }

    #[test]
    fn predict_batch_shards_ideally() {
        let model = MacProxyModel::default();
        let p = profile("a", 1_000_000);
        let one = model.predict(&p);
        assert_eq!(model.predict_batch(&p, 8, 1), one * 8);
        assert_eq!(model.predict_batch(&p, 8, 4), one * 2);
        // Partial shards round up; degenerate thread counts clamp to 1.
        assert_eq!(model.predict_batch(&p, 9, 4), one * 3);
        assert_eq!(model.predict_batch(&p, 3, 0), one * 3);
    }

    #[test]
    fn ewma_prefers_prior_until_observed_then_converges() {
        let model = MeasuredEwma::new(MacProxyModel::default(), 0.5);
        let p = profile("dense", 1_000_000);
        let prior = model.predict(&p);
        assert_eq!(model.observed("dense"), None);

        // First observation replaces the prior outright.
        model.observe(&p, 4, Duration::from_millis(8)); // 2 ms/image
        assert_eq!(model.predict(&p), Duration::from_millis(2));
        assert!(model.predict(&p) != prior || prior == Duration::from_millis(2));

        // Subsequent observations move alpha of the way.
        model.observe(&p, 1, Duration::from_millis(4));
        assert_eq!(model.predict(&p), Duration::from_millis(3));

        // Other variants still fall back to the prior.
        assert_eq!(model.predict(&profile("other", 1_000_000)), prior);
    }

    #[test]
    fn ewma_buckets_per_batch_size_and_answers_from_the_nearest() {
        let model = MeasuredEwma::new(MacProxyModel::default(), 0.5);
        let p = profile("dense", 1_000_000);
        // Unobserved: batch predictions come from the prior's sharding
        // model.
        let prior = MacProxyModel::default();
        assert_eq!(model.predict_batch(&p, 8, 2), prior.predict_batch(&p, 8, 2));

        // A size-1 execution costs 4 ms/image, a size-8 one 1 ms/image —
        // the batch-formation overhead this model exists to capture.
        model.observe(&p, 1, Duration::from_millis(4));
        model.observe(&p, 8, Duration::from_millis(8));
        assert_eq!(
            model.observed_batch("dense", 1),
            Some(Duration::from_millis(4))
        );
        assert_eq!(
            model.observed_batch("dense", 8),
            Some(Duration::from_millis(1))
        );
        assert_eq!(model.observed_batch("dense", 4), None);

        // Exact buckets answer exactly; in-between sizes use the nearest
        // bucket's per-image rate (ties prefer the larger bucket).
        assert_eq!(model.predict_batch(&p, 1, 1), Duration::from_millis(4));
        assert_eq!(model.predict_batch(&p, 8, 1), Duration::from_millis(8));
        assert_eq!(model.predict_batch(&p, 2, 1), Duration::from_millis(8)); // bucket 1
        assert_eq!(model.predict_batch(&p, 6, 1), Duration::from_millis(6)); // bucket 8
        assert_eq!(model.predict_batch(&p, 32, 1), Duration::from_millis(32)); // bucket 8

        // Bucket updates are EWMAs too, independent per size.
        model.observe(&p, 8, Duration::from_millis(24)); // 3 ms/img sample
        assert_eq!(
            model.observed_batch("dense", 8),
            Some(Duration::from_millis(2))
        );
        assert_eq!(
            model.observed_batch("dense", 1),
            Some(Duration::from_millis(4))
        );
    }

    #[test]
    fn ewma_bucket_ties_prefer_the_larger_batch() {
        let model = MeasuredEwma::new(MacProxyModel::default(), 0.5);
        let p = profile("dense", 1_000_000);
        model.observe(&p, 2, Duration::from_millis(8)); // 4 ms/img
        model.observe(&p, 4, Duration::from_millis(4)); // 1 ms/img

        // Batch 3 is equidistant from buckets 2 and 4: the larger wins.
        assert_eq!(model.predict_batch(&p, 3, 1), Duration::from_millis(3));
    }

    #[test]
    fn ewma_ignores_empty_batches() {
        let model = MeasuredEwma::default();
        let p = profile("dense", 1_000_000);
        model.observe(&p, 0, Duration::from_secs(10));
        assert_eq!(model.observed("dense"), None);
    }

    #[test]
    fn rank_by_predicted_orders_fastest_first() {
        let model = MacProxyModel::default();
        let profiles = vec![
            profile("slow", 30_000_000),
            profile("fast", 1_000_000),
            profile("mid", 10_000_000),
        ];
        assert_eq!(rank_by_predicted(&model, &profiles), vec![1, 2, 0]);
    }

    #[test]
    fn keep_fraction_is_one_for_dense_profiles() {
        let cfg = ViTConfig::micro(4);
        let p = CostProfile::dense("dense", &cfg, 1);
        assert!((p.keep_fraction() - 1.0).abs() < 1e-12);
        let mut pruned = p.clone();
        pruned.tokens_per_block = vec![17, 17, 9, 9, 9, 9];
        assert!(pruned.keep_fraction() < 0.75);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        MeasuredEwma::new(MacProxyModel::default(), 0.0);
    }
}
