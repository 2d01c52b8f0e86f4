//! The [`Server`]: a shared admission front-end feeding [`LaneCount`]
//! batcher/executor lanes, each draining its own bounded per-lane queue
//! into the shared per-level [`Engine`]s, with work stealing between idle
//! lanes.
//!
//! ## Request lifecycle
//!
//! 1. A client calls [`Server::submit`] from any thread. Admission consults
//!    the server's [`LatencyModel`]: the request's predicted completion
//!    (queued work ahead of it on its home lane plus its own service time
//!    at a candidate level) is compared against its deadline.
//!    [`Priority::High`] requests are pinned to the most accurate level and
//!    always admitted; [`Priority::Normal`] requests degrade down the level
//!    ladder until a level predicts an on-time completion, and — under
//!    [`SloPolicy::shed_normal`] — are refused with [`SubmitError::Shed`]
//!    when even the cheapest level predicts a miss. Each service level has
//!    a *home lane* ([`LaneAssignment`]); the admitted request enters that
//!    lane's bounded queue (blocking while full — the backpressure that
//!    makes closed-loop load generation drop-free) and the client gets a
//!    [`Ticket`] back immediately.
//! 2. Each lane thread accumulates its queued requests into per-level
//!    pending batches, high-priority first, and is *work-conserving*: a
//!    full level flushes as [`FlushReason::MaxBatch`], and otherwise the
//!    level holding the earliest deadline flushes at once, partial, as
//!    [`FlushReason::Idle`] — the lane was free, so nothing is gained by
//!    waiting. Requests that arrive while a batch executes queue up and form
//!    the next batch, so batch size grows with load and no timer is needed.
//!    A lane with nothing to do *steals*
//!    ([`StealPolicy`]): it scans the other lanes' queue depths, locks the
//!    deepest backlogged victim, takes up to one `max_batch` of requests
//!    off its front (scheduling order, leaving the victim a batch to form),
//!    and executes them itself — flushes tagged [`FlushReason::Steal`].
//! 3. The flushed batch runs through [`Engine::infer_batch_iter`] — the
//!    engines are shared across lanes (`&self` inference over a scratch
//!    checkout pool sized `workers × lanes`), so served logits are bitwise
//!    identical to `Engine::infer_batch` on the same images no matter which
//!    lane executes. The measured execution feeds back into the latency
//!    model ([`LatencyModel::observe`]) from every lane; admission reads
//!    the one merged model (per-lane observe, merged predict).
//! 4. Each request's [`Ticket`] resolves with its [`InferResponse`];
//!    latency, batch size, flush reason, serving level, serving lane, and
//!    deadline outcome land in the server's [`ServeReport`], broken out per
//!    SLO class and per lane.
//!
//! Shutdown closes every lane queue and *drains* them: every accepted
//! request is still served (flushes tagged [`FlushReason::Shutdown`], idle
//! lanes steal from draining ones), then the lane threads exit. Admission
//! can refuse, but nothing accepted is ever dropped.

use crate::metrics::{LaneMetrics, ServeMetrics};
use crate::report::{FlushReason, ServeReport};
use crate::request::{InferRequest, InferResponse, Priority, ResponseSlot, SubmitError, Ticket};
use heatvit::telemetry::{Gauge, Registry, SpanRecorder};
use heatvit::{CostProfile, Engine, InferenceModel, LatencyModel, MeasuredEwma};
use heatvit_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper clamp applied when [`LaneCount::Auto`] resolves: auto-sizing never
/// spawns more than this many lanes even on very wide machines (an explicit
/// [`LaneCount::Fixed`] can still go higher deliberately).
///
/// Deliberately far below `heatvit::MAX_AUTO_THREADS` (64): an engine
/// worker is a cheap scoped thread that lives for one batch, so
/// over-provisioning costs little, while each lane is a long-lived OS
/// thread owning a bounded queue, two condvars, and a steal-scan loop —
/// idle lanes still wake every [`StealPolicy::poll`] to scan the other
/// lanes' depths, so lane over-provisioning has a standing cost that
/// worker over-provisioning does not. The two caps are pinned together in
/// `crates/serve/tests/telemetry_parity.rs`.
pub const MAX_AUTO_LANES: usize = 8;

/// Lane-count policy of a [`ServeConfig`] — how many batcher/executor
/// threads the server runs.
///
/// Like `heatvit::ThreadCount`, `Auto` is *deferred*: the hardware is
/// queried when the server starts, not when the configuration value is
/// created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneCount {
    /// Resolve to [`std::thread::available_parallelism`] at server start,
    /// clamped to `1..=`[`MAX_AUTO_LANES`] (falling back to 1 when
    /// parallelism cannot be queried).
    Auto,
    /// Exactly this many lanes. Must be positive.
    Fixed(usize),
}

impl LaneCount {
    /// Resolves the policy to a concrete lane count on *this* machine.
    ///
    /// # Panics
    ///
    /// Panics on `Fixed(0)`.
    pub fn resolve(self) -> usize {
        match self {
            LaneCount::Auto => std::thread::available_parallelism()
                .ok()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, MAX_AUTO_LANES),
            LaneCount::Fixed(n) => {
                assert!(n > 0, "lane count must be positive");
                n
            }
        }
    }
}

/// How service levels map onto lanes — which lane is the *home* (admission
/// target) of each level's traffic.
///
/// Per-backend lane assignment is what keeps an int8 level and a float
/// level from serializing on one batcher: with at least as many lanes as
/// levels, every backend batches and executes independently, and work
/// stealing evens out imbalance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneAssignment {
    /// Level `i` homes on lane `i % lanes` — with `lanes >= levels` every
    /// backend gets its own lane.
    RoundRobin,
    /// `map[level]` is the home lane of `level`. Must name one lane per
    /// level, each within the resolved lane count.
    Explicit(Vec<usize>),
}

impl LaneAssignment {
    /// The level → home-lane map under `lanes` resolved lanes.
    ///
    /// # Panics
    ///
    /// Panics if an explicit map does not cover every level or names a lane
    /// out of range.
    fn home_map(&self, levels: usize, lanes: usize) -> Vec<usize> {
        match self {
            LaneAssignment::RoundRobin => (0..levels).map(|level| level % lanes).collect(),
            LaneAssignment::Explicit(map) => {
                assert_eq!(
                    map.len(),
                    levels,
                    "lane assignment must map every service level ({} levels, {} entries)",
                    levels,
                    map.len()
                );
                for (level, &lane) in map.iter().enumerate() {
                    assert!(
                        lane < lanes,
                        "level {level} assigned to lane {lane}, but only {lanes} lanes exist"
                    );
                }
                map.clone()
            }
        }
    }
}

/// Work-stealing policy between lanes: what an idle lane does about other
/// lanes' backlogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealPolicy {
    /// Enables stealing (on by default; irrelevant under one lane).
    pub enabled: bool,
    /// How often an idle lane re-scans the other lanes' queue depths for a
    /// backlog worth stealing.
    pub poll: Duration,
    /// A victim keeps at least this many queued requests — stealing only
    /// takes the surplus beyond it, so the victim can still form a full
    /// local batch. `None` (the default) keeps one `max_batch`.
    pub keep_local: Option<usize>,
}

impl Default for StealPolicy {
    fn default() -> Self {
        Self {
            enabled: true,
            poll: Duration::from_micros(200),
            keep_local: None,
        }
    }
}

/// Predictive-admission policy of a [`Server`] (the SLO-aware layer; off by
/// default so a plain server behaves like a simple bounded queue).
#[derive(Debug, Clone, Copy)]
pub struct SloPolicy {
    /// Enables latency-predictive admission: level selection for Normal
    /// requests and (optionally) shedding.
    pub enabled: bool,
    /// Admission headroom: a level is acceptable when predicted completion
    /// plus `admission_slack` is within the deadline, where the prediction
    /// is the queued work ahead on the level's home lane plus a full
    /// `max_batch` of the level's service time. Size the slack to cover
    /// batching delay plus prediction noise.
    pub admission_slack: Duration,
    /// Refuse Normal requests with [`SubmitError::Shed`] when every level
    /// predicts a miss; with `false` they are admitted at the cheapest
    /// level instead (best effort). High requests are never shed either
    /// way.
    pub shed_normal: bool,
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self {
            enabled: false,
            admission_slack: Duration::from_millis(2),
            shed_normal: true,
        }
    }
}

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Flush a pending batch as soon as it holds this many requests (also
    /// the hard cap on formed-batch size, stolen batches included).
    pub max_batch: usize,
    /// Bound of each lane's submission queue; blocking [`Server::submit`]
    /// waits for space on the request's home lane, [`Server::try_submit`]
    /// returns [`SubmitError::Full`].
    pub queue_capacity: usize,
    /// Deadline budget given to [`Server::submit_image`] conveniences.
    pub default_deadline: Duration,
    /// Worker policy of the underlying [`Engine`]s (how each formed batch
    /// is sharded across threads). The engines' warm scratch pools are
    /// sized `workers × lanes` so concurrent lanes never contend on
    /// allocation.
    pub engine: heatvit::EngineConfig,
    /// Predictive-admission policy (disabled by default).
    pub slo: SloPolicy,
    /// How many batcher/executor lanes to run (one by default — the
    /// single-batcher behavior of earlier versions).
    pub lanes: LaneCount,
    /// Which lane each service level's traffic homes on.
    pub assignment: LaneAssignment,
    /// Work stealing between idle and backlogged lanes.
    pub steal: StealPolicy,
    /// Capacity of the bounded request-trace ring ([`SpanRecorder`]): the
    /// newest spans are kept, the oldest evicted (counted as dropped).
    pub trace_capacity: usize,
    /// Telemetry registry the server records into; `None` builds a private
    /// one. Pass a shared registry to land serve and engine metrics in one
    /// exposition.
    pub telemetry: Option<Arc<Registry>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            queue_capacity: 64,
            default_deadline: Duration::from_millis(50),
            engine: heatvit::EngineConfig::default(),
            slo: SloPolicy::default(),
            lanes: LaneCount::Fixed(1),
            assignment: LaneAssignment::RoundRobin,
            steal: StealPolicy::default(),
            trace_capacity: 4096,
            telemetry: None,
        }
    }
}

impl ServeConfig {
    fn validate(&self) {
        assert!(self.max_batch > 0, "max_batch must be positive");
        assert!(self.queue_capacity > 0, "queue_capacity must be positive");
        assert!(self.trace_capacity > 0, "trace_capacity must be positive");
        if let LaneCount::Fixed(n) = self.lanes {
            assert!(n > 0, "lane count must be positive");
        }
        assert!(
            !self.steal.enabled || !self.steal.poll.is_zero(),
            "steal poll interval must be positive when stealing is enabled"
        );
    }
}

/// One service level: an engine over one backend, plus the cost profile
/// and accuracy proxy admission reasons about. Engines are shared across
/// lanes — inference takes `&self` over the scratch checkout pool.
struct Level<M: InferenceModel> {
    engine: Engine<M>,
    profile: CostProfile,
    /// Accuracy proxy: the profile's mean token keep fraction vs dense.
    keep: f64,
}

/// One queued request plus its bookkeeping.
struct Pending {
    image: Tensor,
    deadline: Instant,
    submitted: Instant,
    slot: Arc<ResponseSlot>,
    class: Priority,
    /// Service level admission chose (0 = most accurate).
    level: usize,
    /// Home lane whose in-flight ledger was charged (refunded there on
    /// completion even when another lane steals and executes the request).
    lane: usize,
    /// Admission-time predicted service cost of this request alone, µs
    /// (what the home lane's `inflight_us` was charged; refunded on
    /// completion).
    cost_us: u64,
    /// Admission-time predicted total latency (queue wait + service).
    predicted: Duration,
}

/// Everything behind one lane's queue mutex.
struct LaneQueue {
    high: VecDeque<Pending>,
    normal: VecDeque<Pending>,
    /// `false` once shutdown begins: submissions are refused, the lanes
    /// drain what remains.
    open: bool,
}

impl Default for LaneQueue {
    fn default() -> Self {
        Self {
            high: VecDeque::new(),
            normal: VecDeque::new(),
            open: true,
        }
    }
}

impl LaneQueue {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    /// Next request in scheduling order: queued high-priority requests
    /// first, FIFO within each class.
    fn pop_next(&mut self) -> Option<Pending> {
        self.high.pop_front().or_else(|| self.normal.pop_front())
    }

    /// Level of the request [`LaneQueue::pop_next`] would return.
    fn peek_next_level(&self) -> Option<usize> {
        self.high
            .front()
            .or_else(|| self.normal.front())
            .map(|p| p.level)
    }
}

/// One lane's shared state: its bounded queue plus the lock-free signals
/// other threads read — queue depth (steal victim selection, high-water
/// mark) and the predicted in-flight work ledger (admission wait
/// estimates). The signals are telemetry [`Gauge`]s: the exported
/// `heatvit_serve_lane_*` values and the coordination atomics are the
/// same cells, so the metrics cannot drift from the mechanism.
struct LaneShared {
    queue: Mutex<LaneQueue>,
    /// Signaled on every arrival to this lane and at shutdown; the lane
    /// thread waits here.
    arrived: Condvar,
    /// Signaled whenever this lane's queue space frees up (including by a
    /// steal); blocking submitters wait.
    space: Condvar,
    /// Mirror of the queue length, maintained under the queue lock but
    /// readable without it — thieves scan depths lock-free.
    depth: Arc<Gauge>,
    /// Highest queue depth ever observed on this lane.
    depth_hwm: Arc<Gauge>,
    /// Predicted service µs of every request admitted to this lane and not
    /// yet resolved — the queue-wait estimate admission adds to a
    /// candidate's own service time. Charged at admission, refunded when
    /// its batch resolves (wherever it executed), so it covers queued,
    /// pending, and currently executing work.
    inflight_us: Arc<Gauge>,
}

impl LaneShared {
    fn new(metrics: &LaneMetrics) -> Self {
        Self {
            queue: Mutex::new(LaneQueue::default()),
            arrived: Condvar::new(),
            space: Condvar::new(),
            depth: Arc::clone(&metrics.depth),
            depth_hwm: Arc::clone(&metrics.depth_hwm),
            inflight_us: Arc::clone(&metrics.inflight_us),
        }
    }
}

/// State shared between client threads and the lane threads.
struct Shared<M: InferenceModel> {
    /// Service levels, most accurate first; every server has at least one.
    levels: Vec<Level<M>>,
    /// Home lane of each level ([`LaneAssignment`] resolved).
    home: Vec<usize>,
    lanes: Vec<LaneShared>,
    latency: Arc<dyn LatencyModel>,
    config: ServeConfig,
    /// The telemetry surface every observation lands in — reports are
    /// materialized from its registry snapshots; no locked accumulator
    /// sits on the request path.
    metrics: ServeMetrics,
    /// Per level: `true` once its first batch has fed the latency model —
    /// before that, a prediction-error sample would only measure the
    /// prior's cold start. Shared across lanes (any lane can run a level's
    /// first batch).
    warmed: Vec<AtomicBool>,
}

/// A serving front-end over one or more model backends. See the module
/// docs for the request lifecycle.
///
/// The type parameter defaults to [`heatvit::Backend`], the type-erased
/// handle — `Server<Backend>` is the one type a deployment needs no matter
/// which model variants it loads.
///
/// # Examples
///
/// ```
/// use heatvit::Backend;
/// use heatvit_serve::{ServeConfig, Server};
/// use heatvit_tensor::Tensor;
/// use heatvit_vit::{ViTConfig, VisionTransformer};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = VisionTransformer::new(ViTConfig::test_tiny(3), &mut rng);
/// let server = Server::start(Backend::from(model), ServeConfig::default());
/// let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
/// let ticket = server.submit_image(image).unwrap();
/// let response = ticket.wait();
/// assert_eq!(response.logits.dims(), &[1, 3]);
/// let report = server.shutdown();
/// assert_eq!(report.completed(), 1);
/// ```
pub struct Server<M: InferenceModel + 'static = heatvit::Backend> {
    shared: Arc<Shared<M>>,
    lanes: Vec<JoinHandle<()>>,
}

impl<M: InferenceModel + 'static> Server<M> {
    /// Builds a single-level server (per `config.engine`) with an online
    /// measured-EWMA latency model and spawns the lane threads.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (zero `max_batch`, `queue_capacity`,
    /// or lane count; an explicit lane assignment that does not cover every
    /// level or names a lane out of range) or a lane thread cannot be
    /// spawned.
    pub fn start(model: M, config: ServeConfig) -> Self {
        Self::start_tiered(vec![model], config, Arc::new(MeasuredEwma::default()))
    }

    /// Builds a tiered server: one engine per model in `models`, ordered
    /// **most accurate first** (level 0 is what High-priority traffic and
    /// unloaded Normal traffic get; later levels are the cheaper keep-rate
    /// schedules / backends predictive admission degrades Normal traffic
    /// onto). `latency` predicts per-request cost at admission and is fed
    /// every measured batch execution — pass an online model (e.g.
    /// `heatvit::MeasuredEwma` over an `FpgaCycleModel` or MAC-proxy
    /// prior) so predictions converge to this machine. Every lane feeds the
    /// same model (per-lane observe, merged predict).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty, the models disagree on input shape or
    /// class count, `config` is invalid (see [`Server::start`]), or a lane
    /// thread cannot be spawned.
    pub fn start_tiered(
        models: Vec<M>,
        config: ServeConfig,
        latency: Arc<dyn LatencyModel>,
    ) -> Self {
        config.validate();
        assert!(!models.is_empty(), "a server needs at least one backend");
        let registry = config.telemetry.clone().unwrap_or_default();
        let lane_count = config.lanes.resolve();
        // Engines are shared across lanes; retain one warm scratch per
        // worker per lane so concurrent lanes batching into the same level
        // never contend on allocation.
        let retention = config.engine.threads.resolve() * lane_count;
        let levels: Vec<Level<M>> = models
            .into_iter()
            .map(|model| {
                let profile = model.cost_profile();
                let keep = profile.keep_fraction();
                Level {
                    engine: Engine::builder(model)
                        .config(config.engine)
                        .scratch_retention(retention)
                        .telemetry(Arc::clone(&registry))
                        .build(),
                    profile,
                    keep,
                }
            })
            .collect();
        let reference = levels[0].engine.model().config();
        for level in &levels[1..] {
            let cfg = level.engine.model().config();
            assert!(
                cfg.in_channels == reference.in_channels
                    && cfg.image_size == reference.image_size
                    && cfg.num_classes == reference.num_classes,
                "every service level must share input shape and class count"
            );
        }
        let level_count = levels.len();
        let home = config.assignment.home_map(level_count, lane_count);
        let variants: Vec<String> = levels
            .iter()
            .map(|level| level.engine.model().variant().to_string())
            .collect();
        let metrics = ServeMetrics::new(
            registry,
            config.trace_capacity,
            &variants,
            lane_count,
            config.max_batch,
        );
        let shared = Arc::new(Shared {
            levels,
            home,
            lanes: metrics.lanes.iter().map(LaneShared::new).collect(),
            latency,
            config,
            metrics,
            warmed: (0..level_count).map(|_| AtomicBool::new(false)).collect(),
        });
        let lanes = (0..lane_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("heatvit-serve-lane-{index}"))
                    .spawn(move || lane_loop(shared, index))
                    .expect("failed to spawn lane thread")
            })
            .collect();
        Self { shared, lanes }
    }

    /// Submits a request, blocking while its home lane's bounded queue is
    /// full. Returns the [`Ticket`] that will resolve with the response, or
    /// the request back if the server is closed (or, under
    /// [`SloPolicy::shed_normal`], shed).
    pub fn submit(&self, request: InferRequest) -> Result<Ticket, SubmitError> {
        self.enqueue(request, true)
    }

    /// Non-blocking [`Server::submit`]: refuses with [`SubmitError::Full`]
    /// instead of waiting for queue space.
    pub fn try_submit(&self, request: InferRequest) -> Result<Ticket, SubmitError> {
        self.enqueue(request, false)
    }

    /// Submits an image as a normal-priority request due
    /// [`ServeConfig::default_deadline`] from now (blocking while full).
    pub fn submit_image(&self, image: Tensor) -> Result<Ticket, SubmitError> {
        self.submit(InferRequest::with_budget(
            image,
            self.shared.config.default_deadline,
        ))
    }

    /// Picks the service level for an admitted request and its predicted
    /// latency `(level, service µs, total predicted)`; `Err(best)` means
    /// every level predicts a miss (shed candidate, with the cheapest
    /// level's prediction). Reads only the lanes' lock-free in-flight
    /// ledgers — no queue lock is held.
    fn choose_level(
        &self,
        request: &InferRequest,
        now: Instant,
    ) -> Result<(usize, u64, Duration), (u64, Duration)> {
        let shared = &*self.shared;
        let slo = shared.config.slo;
        let max_batch = shared.config.max_batch;
        // Completion estimate per level: queued work ahead on the level's
        // home lane, plus a full `max_batch` of the level's service time —
        // the request may ride a batch that is executed whole before its
        // response resolves, and the batch term is also what separates the
        // levels (per-image differences alone are small next to queue wait,
        // so admission would almost never find the degradation window).
        // The inflight charge stays per-image (the batch service time
        // amortized): the backlog drains one image at a time regardless of
        // batch shape.
        let predict = |index: usize| {
            let level = &shared.levels[index];
            let svc =
                shared
                    .latency
                    .predict_batch(&level.profile, max_batch, level.engine.threads());
            let wait = Duration::from_micros(shared.lanes[shared.home[index]].inflight_us.get());
            let cost = (svc.as_micros() as u64 / max_batch as u64).max(1);
            (cost, wait + svc)
        };
        // High is pinned to the most accurate level no matter the load;
        // disabled admission serves everyone there too.
        if request.priority == Priority::High || !slo.enabled {
            let (cost, predicted) = predict(0);
            return Ok((0, cost, predicted));
        }
        let mut cheapest = (0, Duration::ZERO);
        for index in 0..shared.levels.len() {
            let (cost, predicted) = predict(index);
            if now + predicted + slo.admission_slack <= request.deadline {
                return Ok((index, cost, predicted));
            }
            cheapest = (cost, predicted);
        }
        if slo.shed_normal {
            Err(cheapest)
        } else {
            let (cost, predicted) = cheapest;
            Ok((shared.levels.len() - 1, cost, predicted))
        }
    }

    fn enqueue(&self, request: InferRequest, block: bool) -> Result<Ticket, SubmitError> {
        let shared = &*self.shared;
        // Shape-check before accepting: a malformed image must be refused
        // here, at the submitter, not panic later inside a lane thread
        // (which would strand every in-flight ticket).
        let config = shared.levels[0].engine.model().config();
        let expected = [config.in_channels, config.image_size, config.image_size];
        if request.image.dims() != expected {
            return Err(SubmitError::BadImage { request, expected });
        }
        let now = Instant::now();
        // Level choice reads only the lock-free ledgers, so it runs before
        // any lane lock — it has to: the choice decides *which* lane's
        // queue the request enters.
        let choice = self.choose_level(&request, now);
        let (level, cost_us, predicted) = match choice {
            Ok(choice) => choice,
            Err((_, predicted)) => {
                // A closed server refuses with Closed, not Shed — check the
                // (arbitrary) first lane's flag before reporting the shed.
                let open = shared.lanes[0]
                    .queue
                    .lock()
                    .expect("lane queue poisoned")
                    .open;
                if !open {
                    return Err(SubmitError::Closed(request));
                }
                shared.metrics.record_shed(request.priority, predicted);
                return Err(SubmitError::Shed { request, predicted });
            }
        };
        let lane_index = shared.home[level];
        let lane = &shared.lanes[lane_index];
        let mut queue = lane.queue.lock().expect("lane queue poisoned");
        while queue.open && queue.len() >= shared.config.queue_capacity {
            if !block {
                return Err(SubmitError::Full(request));
            }
            queue = lane.space.wait(queue).expect("lane queue poisoned");
        }
        if !queue.open {
            return Err(SubmitError::Closed(request));
        }
        // Open the serving window before the request becomes visible to a
        // lane — otherwise a fast lane could record the first batch
        // completion as the window start, skewing throughput. Lock-free:
        // at most one submitter's CAS lands.
        shared.metrics.record_first_submit(now);
        shared.metrics.record_admission(level);
        let slot = Arc::new(ResponseSlot::default());
        let pending = Pending {
            image: request.image,
            deadline: request.deadline,
            submitted: now,
            slot: Arc::clone(&slot),
            class: request.priority,
            level,
            lane: lane_index,
            cost_us,
            predicted,
        };
        match request.priority {
            Priority::High => queue.high.push_back(pending),
            Priority::Normal => queue.normal.push_back(pending),
        }
        lane.inflight_us.add(cost_us);
        let depth = queue.len() as u64;
        lane.depth.set(depth);
        lane.depth_hwm.set_max(depth);
        drop(queue);
        lane.arrived.notify_all();
        Ok(Ticket { slot })
    }

    /// Stops accepting new requests; the lanes keep draining in the
    /// background. Safe to call more than once.
    pub fn close(&self) {
        for lane in &self.shared.lanes {
            let mut queue = lane.queue.lock().expect("lane queue poisoned");
            queue.open = false;
            drop(queue);
            lane.arrived.notify_all();
            lane.space.notify_all();
        }
    }

    /// Snapshot of everything served so far (callable while running) —
    /// materialized from the telemetry registry via
    /// [`ServeReport::from_snapshot`].
    pub fn report(&self) -> ServeReport {
        ServeReport::from_snapshot(&self.shared.metrics.registry().snapshot())
    }

    /// The telemetry registry every serve (and engine) observation lands
    /// in. Snapshot or expose it directly; [`Server::report`] is a view
    /// over the same data.
    pub fn telemetry(&self) -> &Arc<Registry> {
        self.shared.metrics.registry()
    }

    /// The bounded per-request/per-batch trace ring (capacity
    /// [`ServeConfig::trace_capacity`]).
    pub fn recorder(&self) -> &Arc<SpanRecorder> {
        self.shared.metrics.recorder()
    }

    /// The most accurate (level 0) model being served.
    pub fn model(&self) -> &M {
        self.shared.levels[0].engine.model()
    }

    /// Number of service levels.
    pub fn level_count(&self) -> usize {
        self.shared.levels.len()
    }

    /// Number of batcher/executor lanes ([`LaneCount::Auto`] already
    /// resolved).
    pub fn lane_count(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Home lane of service level `index` (per [`LaneAssignment`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn home_lane(&self, index: usize) -> usize {
        self.shared.home[index]
    }

    /// Closes the queues, waits for the drain to finish (every accepted
    /// ticket resolves first), and returns the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.close();
        for lane in self.lanes.drain(..) {
            lane.join().expect("lane thread panicked");
        }
        self.report()
    }
}

impl<M: InferenceModel + 'static> Drop for Server<M> {
    fn drop(&mut self) {
        self.close();
        for lane in self.lanes.drain(..) {
            // Re-raising a lane panic here could double-panic during an
            // unwind and abort, so the join error is swallowed; use
            // `shutdown()` to surface it. A lane panic is always a bug —
            // submissions are shape-checked before they reach the thread.
            let _ = lane.join();
        }
    }
}

/// Moves queued requests into their levels' pending batches (scheduling
/// order), stopping at the first request whose level batch is full —
/// head-of-line order is preserved and a full batch flushes immediately
/// anyway. Reports whether anything moved (so the lane can wake blocked
/// submitters).
fn top_up(queue: &mut LaneQueue, pending: &mut [Vec<Pending>], max_batch: usize) -> bool {
    let mut moved = false;
    while let Some(level) = queue.peek_next_level() {
        if pending[level].len() >= max_batch {
            break;
        }
        let request = queue.pop_next().expect("peeked request vanished");
        pending[level].push(request);
        moved = true;
    }
    moved
}

/// Index of the non-empty pending level holding the earliest deadline
/// (flush-urgency order), if any batch is non-empty.
fn most_urgent_level(pending: &[Vec<Pending>]) -> Option<usize> {
    pending
        .iter()
        .enumerate()
        .filter(|(_, batch)| !batch.is_empty())
        .min_by_key(|(_, batch)| batch.iter().map(|p| p.deadline).min())
        .map(|(i, _)| i)
}

/// What a lane decided to do after one pass over its queue and pending
/// batches.
enum Step {
    /// Flush this pending level for this reason.
    Flush(usize, FlushReason),
    /// Nothing local to do, still open: try stealing, then sleep.
    Idle,
    /// Closed and locally drained: try one last steal sweep, then exit.
    Drained,
}

/// Steals a batch from the deepest backlogged other lane, if any victim's
/// queue depth exceeds the keep-local threshold. Takes a contiguous run of
/// same-level requests off the victim's front in scheduling order (high
/// first, FIFO within class — exactly what the victim would have batched
/// next), capped at one `max_batch`. Holds only the victim's queue lock —
/// never two lane locks at once, so lanes cannot deadlock stealing from
/// each other.
fn try_steal<M: InferenceModel>(shared: &Shared<M>, thief: usize) -> Option<(usize, Vec<Pending>)> {
    let config = &shared.config;
    if !config.steal.enabled || shared.lanes.len() < 2 {
        return None;
    }
    let keep = config.steal.keep_local.unwrap_or(config.max_batch);
    let mut best: Option<(usize, usize)> = None;
    for (index, lane) in shared.lanes.iter().enumerate() {
        if index == thief {
            continue;
        }
        let depth = lane.depth.get() as usize;
        if depth > keep && best.is_none_or(|(_, d)| depth > d) {
            best = Some((index, depth));
        }
    }
    let (victim_index, _) = best?;
    let victim = &shared.lanes[victim_index];
    let mut queue = victim.queue.lock().expect("lane queue poisoned");
    // Re-check under the lock: the depth scan was advisory.
    let surplus = queue.len().saturating_sub(keep);
    let take = surplus.min(config.max_batch);
    if take == 0 {
        return None;
    }
    let level = queue.peek_next_level()?;
    let mut stolen = Vec::with_capacity(take);
    while stolen.len() < take && queue.peek_next_level() == Some(level) {
        stolen.push(queue.pop_next().expect("peeked request vanished"));
    }
    victim.depth.set(queue.len() as u64);
    drop(queue);
    victim.space.notify_all();
    Some((level, stolen))
}

/// One lane thread: gather → flush one level → resolve, stealing from
/// backlogged lanes whenever locally idle, until closed and drained.
fn lane_loop<M: InferenceModel + 'static>(shared: Arc<Shared<M>>, lane_index: usize) {
    let config = &shared.config;
    let lane = &shared.lanes[lane_index];
    let stealing = config.steal.enabled && shared.lanes.len() > 1;
    let mut pending: Vec<Vec<Pending>> = (0..shared.levels.len()).map(|_| Vec::new()).collect();
    loop {
        let step = {
            let mut queue = lane.queue.lock().expect("lane queue poisoned");
            if top_up(&mut queue, &mut pending, config.max_batch) {
                lane.depth.set(queue.len() as u64);
                lane.space.notify_all();
            }
            // Work-conserving: the lane is free right now, so a partial
            // batch flushes at once instead of waiting for company.
            match pending.iter().position(|b| b.len() >= config.max_batch) {
                Some(full) => Step::Flush(full, FlushReason::MaxBatch),
                None => match (most_urgent_level(&pending), queue.open) {
                    (Some(level), true) => Step::Flush(level, FlushReason::Idle),
                    (Some(level), false) => Step::Flush(level, FlushReason::Shutdown),
                    (None, true) => Step::Idle,
                    (None, false) => Step::Drained,
                },
            }
        };
        match step {
            Step::Flush(level, reason) => {
                execute_batch(&shared, &mut pending[level], level, reason, lane_index);
            }
            Step::Idle => {
                if let Some((level, mut stolen)) = try_steal(&shared, lane_index) {
                    execute_batch(&shared, &mut stolen, level, FlushReason::Steal, lane_index);
                    continue;
                }
                // Nothing to steal either: sleep until an arrival — or for
                // one steal-poll interval, so another lane's backlog is
                // noticed promptly. Re-check emptiness under the lock
                // first; an arrival between the steal attempt and here must
                // not be slept through.
                let queue = lane.queue.lock().expect("lane queue poisoned");
                if queue.len() == 0 && queue.open {
                    if stealing {
                        drop(
                            lane.arrived
                                .wait_timeout(queue, config.steal.poll)
                                .expect("lane queue poisoned"),
                        );
                    } else {
                        drop(lane.arrived.wait(queue).expect("lane queue poisoned"));
                    }
                }
            }
            Step::Drained => {
                // Help drain the other lanes' backlogs before exiting.
                if let Some((level, mut stolen)) = try_steal(&shared, lane_index) {
                    execute_batch(&shared, &mut stolen, level, FlushReason::Steal, lane_index);
                    continue;
                }
                return;
            }
        }
    }
}

/// Runs one formed batch through its level's engine (shared across lanes —
/// the sharded execution core), feeds the measured execution back into the
/// latency model, refunds the in-flight ledgers, and resolves every
/// member's response slot.
fn execute_batch<M: InferenceModel>(
    shared: &Shared<M>,
    pending: &mut Vec<Pending>,
    level_index: usize,
    reason: FlushReason,
    lane_index: usize,
) {
    debug_assert!(!pending.is_empty(), "flushed an empty batch");
    let level = &shared.levels[level_index];
    let batch_size = pending.len();
    let started = Instant::now();
    let out = level
        .engine
        .infer_batch_iter(pending.iter().map(|p| &p.image));
    let done = Instant::now();
    let measured = done.duration_since(started);

    // Judge the model on what it would have predicted for this batch, then
    // feed the measurement back (prediction before observation, or the
    // comparison is circular). The first batch per level only warms the
    // model up: scoring it would measure the prior's cold start.
    let predicted_batch =
        shared
            .latency
            .predict_batch(&level.profile, batch_size, level.engine.threads());
    let record_error = shared.warmed[level_index].swap(true, Ordering::Relaxed);
    shared.latency.observe(&level.profile, batch_size, measured);

    // Refund the predicted in-flight work this batch was charged with —
    // always against each request's *home* lane's ledger, which is the one
    // admission charged, even when this batch was stolen. Lock-free: the
    // ledgers are atomics.
    for request in pending.iter() {
        shared.lanes[request.lane]
            .inflight_us
            .sub_saturating(request.cost_us);
    }

    // Build every response (tensor copies included) before recording, and
    // resolve the tickets after: ticket waiters should never observe a
    // response whose telemetry has not landed yet.
    let classes = out.logits.dims()[1];
    let predictions = out.predictions();
    let mut tokens = out.tokens_per_block.into_iter();
    let resolved: Vec<(Arc<ResponseSlot>, InferResponse, Priority, usize)> = pending
        .drain(..)
        .enumerate()
        .map(|(i, request)| {
            let latency = done.duration_since(request.submitted);
            let response = InferResponse {
                logits: Tensor::from_vec(out.logits.row(i).to_vec(), &[1, classes]),
                prediction: predictions[i],
                tokens_per_block: tokens.next().expect("one token row per image"),
                macs: out.macs[i],
                queued: started.duration_since(request.submitted),
                latency,
                deadline_missed: done > request.deadline,
                batch_size,
                flush: reason,
                class: request.class,
                level: request.level,
                lane: lane_index,
                predicted: request.predicted,
            };
            (request.slot, response, request.class, request.level)
        })
        .collect();
    shared.metrics.record_batch(
        batch_size,
        reason,
        done,
        lane_index,
        level_index,
        predicted_batch,
        measured,
        record_error,
    );
    for (_, response, class, level_idx) in &resolved {
        shared.metrics.record_response(
            response.latency,
            response.queued,
            response.deadline_missed,
            *class,
            *level_idx,
            level.keep,
            lane_index,
            batch_size,
        );
    }
    for (slot, response, _, _) in resolved {
        slot.fill(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A placeholder request whose `tag` rides in the deadline offset so
    /// scheduling order is observable.
    fn pending(tag: u64) -> Pending {
        pending_at_level(tag, 0)
    }

    fn pending_at_level(tag: u64, level: usize) -> Pending {
        let now = Instant::now();
        Pending {
            image: Tensor::zeros(&[1]),
            deadline: now + Duration::from_secs(tag),
            submitted: now,
            slot: Arc::new(ResponseSlot::default()),
            class: Priority::Normal,
            level,
            lane: 0,
            cost_us: 0,
            predicted: Duration::ZERO,
        }
    }

    fn empty_queue() -> LaneQueue {
        LaneQueue::default()
    }

    impl Pending {
        fn tag(&self) -> u64 {
            self.deadline.duration_since(self.submitted).as_secs()
        }
    }

    #[test]
    fn pop_next_prefers_high_priority_fifo_within_class() {
        let mut queue = empty_queue();
        queue.normal.push_back(pending(1));
        queue.normal.push_back(pending(2));
        queue.high.push_back(pending(10));
        queue.high.push_back(pending(11));
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop_next())
            .map(|p| p.tag())
            .collect();
        assert_eq!(order, vec![10, 11, 1, 2]);
    }

    #[test]
    fn top_up_respects_max_batch_and_reports_movement() {
        let mut queue = empty_queue();
        queue.normal = (0..5).map(pending).collect();
        let mut pending_levels = vec![Vec::new()];
        assert!(top_up(&mut queue, &mut pending_levels, 3));
        assert_eq!(pending_levels[0].len(), 3);
        assert_eq!(queue.len(), 2);
        // Full batch: nothing moves, nothing reported.
        assert!(!top_up(&mut queue, &mut pending_levels, 3));
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn top_up_routes_requests_to_their_levels() {
        let mut queue = empty_queue();
        queue.normal.push_back(pending_at_level(1, 0));
        queue.normal.push_back(pending_at_level(2, 1));
        queue.normal.push_back(pending_at_level(3, 0));
        let mut pending_levels = vec![Vec::new(), Vec::new()];
        assert!(top_up(&mut queue, &mut pending_levels, 4));
        assert_eq!(pending_levels[0].len(), 2);
        assert_eq!(pending_levels[1].len(), 1);
        // Head-of-line at a full level stops the drain entirely (the full
        // batch flushes immediately anyway).
        queue.normal.push_back(pending_at_level(4, 1));
        queue.normal.push_back(pending_at_level(5, 0));
        let mut capped = vec![Vec::new(), vec![pending_at_level(9, 1)]];
        assert!(!top_up(&mut queue, &mut capped, 1));
        assert_eq!(queue.len(), 2);
    }

    #[test]
    fn most_urgent_level_picks_earliest_deadline() {
        let batches = vec![vec![pending(30)], Vec::new(), vec![pending(40), pending(5)]];
        assert_eq!(most_urgent_level(&batches), Some(2));
        assert_eq!(most_urgent_level(&[Vec::new(), Vec::new()]), None);
    }

    #[test]
    fn fixed_lane_count_resolves_to_itself() {
        assert_eq!(LaneCount::Fixed(3).resolve(), 3);
        assert_eq!(LaneCount::Fixed(1).resolve(), 1);
        // Auto resolves somewhere in the clamp range on any machine.
        let auto = LaneCount::Auto.resolve();
        assert!((1..=MAX_AUTO_LANES).contains(&auto));
    }

    #[test]
    #[should_panic(expected = "lane count must be positive")]
    fn zero_fixed_lanes_panics_at_resolution() {
        LaneCount::Fixed(0).resolve();
    }

    #[test]
    fn round_robin_homes_wrap_over_lanes() {
        assert_eq!(LaneAssignment::RoundRobin.home_map(3, 2), vec![0, 1, 0]);
        assert_eq!(LaneAssignment::RoundRobin.home_map(2, 4), vec![0, 1]);
        assert_eq!(LaneAssignment::RoundRobin.home_map(3, 1), vec![0, 0, 0]);
        assert_eq!(
            LaneAssignment::Explicit(vec![1, 1, 0]).home_map(3, 2),
            vec![1, 1, 0]
        );
    }

    #[test]
    #[should_panic(expected = "must map every service level")]
    fn explicit_assignment_must_cover_every_level() {
        LaneAssignment::Explicit(vec![0]).home_map(2, 2);
    }

    #[test]
    #[should_panic(expected = "only 2 lanes exist")]
    fn explicit_assignment_rejects_out_of_range_lanes() {
        LaneAssignment::Explicit(vec![0, 2]).home_map(2, 2);
    }

    #[test]
    fn steal_policy_defaults_keep_one_batch_local() {
        let policy = StealPolicy::default();
        assert!(policy.enabled);
        assert!(policy.keep_local.is_none());
        assert!(!policy.poll.is_zero());
    }
}
