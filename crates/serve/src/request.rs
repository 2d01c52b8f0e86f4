//! The request/response surface: [`InferRequest`] in, a [`Ticket`] back
//! immediately, an [`InferResponse`] out of the ticket once the dynamic
//! batcher has flushed the request through the engine.

use crate::report::FlushReason;
use heatvit_tensor::Tensor;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// SLO class of a request — both its scheduling priority and its service
/// guarantee under load.
///
/// Within one batch-formation pass the batcher drains every queued
/// [`Priority::High`] request before any [`Priority::Normal`] one;
/// ordering within a class stays FIFO. Under predictive admission
/// ([`crate::SloPolicy`]), the classes diverge further: `High` is pinned
/// to the most accurate service level and is never shed, while `Normal`
/// degrades to cheaper keep-rate schedules/backends when the latency model
/// predicts a deadline miss, and is shed only when even the cheapest level
/// cannot make the deadline. Neither class ever changes per-image
/// arithmetic at a given level — only which level serves it and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Default class: degradable under load, shed as a last resort.
    #[default]
    Normal,
    /// Latency-critical class: jumps the queue, keeps the most accurate
    /// level, never shed.
    High,
}

impl Priority {
    /// Dense index for per-class tables (`High` = 0, `Normal` = 1 — report
    /// order).
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
        }
    }

    /// Report-table label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One classification request submitted to a [`crate::Server`].
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// The image to classify (`[3, H, W]`, matching the model config).
    pub image: Tensor,
    /// Absolute completion deadline. Admission weighs it when choosing a
    /// service level, and a lane with no full batch flushes the pending
    /// level holding the earliest deadline first; responses report whether
    /// the deadline was met — a miss is recorded, never dropped.
    pub deadline: Instant,
    /// Scheduling class.
    pub priority: Priority,
}

impl InferRequest {
    /// A normal-priority request due `budget` from now.
    pub fn with_budget(image: Tensor, budget: Duration) -> Self {
        Self {
            image,
            deadline: Instant::now() + budget,
            priority: Priority::Normal,
        }
    }
}

/// The served result for one request.
#[derive(Debug, Clone)]
pub struct InferResponse {
    /// Classification logits `[1, num_classes]`, bitwise identical to what
    /// `Engine::infer_batch` produces for the same image.
    pub logits: Tensor,
    /// Argmax class of `logits`.
    pub prediction: usize,
    /// Token count entering each encoder block for this image.
    pub tokens_per_block: Vec<usize>,
    /// Multiply–accumulate estimate for this image.
    pub macs: u64,
    /// Time from submission until the batch containing this request began
    /// executing (queueing + batching delay).
    pub queued: Duration,
    /// Time from submission until the response was resolved.
    pub latency: Duration,
    /// `true` if the response resolved after the request's deadline.
    pub deadline_missed: bool,
    /// Size of the batch this request was served in.
    pub batch_size: usize,
    /// Why that batch was flushed.
    pub flush: FlushReason,
    /// The request's SLO class.
    pub class: Priority,
    /// Service level that served it (0 = the server's most accurate level;
    /// higher = degraded by predictive admission).
    pub level: usize,
    /// Lane whose thread executed the batch (the home lane of `level`
    /// unless a [`crate::FlushReason::Steal`] moved it to an idle lane).
    pub lane: usize,
    /// The latency the admission-time model predicted for this request
    /// (queued work ahead of it plus its own service time). Compare with
    /// `latency` to judge the model.
    pub predicted: Duration,
}

/// The one-shot slot a batch execution resolves into; shared between the
/// submitter's [`Ticket`] and the batcher.
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    response: Mutex<Option<InferResponse>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(crate) fn fill(&self, response: InferResponse) {
        let mut slot = self.response.lock().expect("response slot poisoned");
        debug_assert!(slot.is_none(), "response slot filled twice");
        *slot = Some(response);
        self.ready.notify_all();
    }
}

/// Receipt for a submitted request. Blocks on [`Ticket::wait`] until the
/// batcher resolves it; the server's shutdown drain guarantees every
/// accepted ticket resolves (no request is ever dropped).
#[derive(Debug)]
pub struct Ticket {
    pub(crate) slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// Blocks until the response is ready. Consuming the ticket is what
    /// removes the response from the slot; the borrowing accessors below
    /// only peek, so any call order of `try_take`/`wait_timeout` followed
    /// by `wait` observes the response instead of hanging.
    pub fn wait(self) -> InferResponse {
        let mut slot = self.slot.response.lock().expect("response slot poisoned");
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            slot = self.slot.ready.wait(slot).expect("response slot poisoned");
        }
    }

    /// Blocks up to `timeout` for a *peek* at the response (cloned; the
    /// ticket stays valid and [`Ticket::wait`] still resolves). `None` if
    /// the response is still pending when the timeout expires.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<InferResponse> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.response.lock().expect("response slot poisoned");
        loop {
            if let Some(response) = slot.as_ref() {
                return Some(response.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .slot
                .ready
                .wait_timeout(slot, deadline - now)
                .expect("response slot poisoned");
            slot = guard;
        }
    }

    /// Non-blocking peek (cloned, like [`Ticket::wait_timeout`]); `None`
    /// while the response is pending.
    pub fn try_take(&self) -> Option<InferResponse> {
        self.slot
            .response
            .lock()
            .expect("response slot poisoned")
            .as_ref()
            .cloned()
    }
}

/// Why a submission was refused. The request comes back to the caller
/// untouched, so it can be retried elsewhere.
#[derive(Debug)]
pub enum SubmitError {
    /// The server is shutting down and no longer accepts requests.
    Closed(InferRequest),
    /// Non-blocking submission found the bounded queue full
    /// ([`crate::Server::try_submit`] only; blocking submit waits instead).
    Full(InferRequest),
    /// The image's shape does not match the served model's expected
    /// `[channels, height, width]` — refused at submission so it can never
    /// panic the batcher thread and strand other requests.
    BadImage {
        /// The refused request, returned untouched.
        request: InferRequest,
        /// The `[channels, height, width]` the served model expects.
        expected: [usize; 3],
    },
    /// Predictive admission refused the request: the latency model
    /// predicted a deadline miss at *every* service level, including the
    /// cheapest ([`crate::SloPolicy::shed_normal`]; never raised for
    /// [`Priority::High`]). Shedding at the door beats accepting work that
    /// would miss — the client can retry with a looser deadline or another
    /// replica.
    Shed {
        /// The refused request, returned untouched.
        request: InferRequest,
        /// The best (cheapest-level) completion the model could predict,
        /// as a latency from submission.
        predicted: Duration,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed(_) => f.write_str("server is closed to new requests"),
            SubmitError::Full(_) => f.write_str("request queue is full"),
            SubmitError::BadImage { request, expected } => write!(
                f,
                "image shape {:?} does not match the served model's expected {expected:?}",
                request.image.dims()
            ),
            SubmitError::Shed { predicted, .. } => write!(
                f,
                "admission predicts a deadline miss at every service level \
                 (best predicted latency {predicted:?})"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}
