//! # heatvit-serve
//!
//! The request/response serving front-end over the
//! [HeatViT](https://arxiv.org/abs/2211.08110) inference engine.
//!
//! HeatViT's pitch is latency-*budgeted* inference: the hardware-aware
//! pruning schedule exists to hit a throughput target under real traffic.
//! This crate supplies the traffic side — individual requests with
//! deadlines and priorities, served by dynamic batching over the batched
//! [`heatvit::Engine`]:
//!
//! * [`Server`] — owns the shared per-level engines and [`LaneCount`]
//!   batcher/executor lane threads; clients on any thread
//!   [`Server::submit`] an [`InferRequest`] into the bounded queue of its
//!   level's home lane (backpressure, never drops) and get a [`Ticket`]
//!   that resolves to an [`InferResponse`];
//! * dynamic batching — lanes are work-conserving: a free lane flushes what
//!   it holds at once, a full batch as **max-batch** and a partial one as
//!   **idle** ([`FlushReason`]); requests that arrive while a batch runs
//!   form the next one, so batches grow with load and no timer is needed;
//!   shutdown *drains* — every accepted request is served;
//! * multi-lane scale-out — [`LaneAssignment`] homes each service level on
//!   a lane (int8 and float traffic batch independently instead of
//!   serializing on one batcher), and idle lanes *steal* surplus backlog
//!   from the deepest lane ([`StealPolicy`], flushes tagged
//!   [`FlushReason::Steal`]);
//! * telemetry — every observation lands lock-free in a
//!   `heatvit::telemetry` [`Registry`](heatvit::telemetry::Registry)
//!   ([`metrics::names`] is the stable name contract) with per-request
//!   spans in a bounded trace ring; [`ServeReport`] — p50/p95/max latency,
//!   batch-size histogram, per-policy flush counts ([`FlushCounts`]),
//!   deadline misses, throughput, per-SLO-class rows ([`ClassReport`]),
//!   per-lane served/stolen counts and queue-depth high-water marks, and
//!   the latency model's predicted-vs-measured error — is a *view*
//!   materialized from a registry snapshot
//!   ([`ServeReport::from_snapshot`]), and the same snapshot feeds the
//!   Prometheus-style and JSON expositions;
//! * SLO-aware admission — [`Server::start_tiered`] stacks service levels
//!   (most accurate first) behind one queue; a [`heatvit::LatencyModel`]
//!   predicts each request's completion at admission, [`Priority::High`]
//!   traffic is pinned to the best level and never shed, and
//!   [`Priority::Normal`] traffic degrades down the keep-rate ladder (or
//!   is shed, [`SubmitError::Shed`]) when predictions say its deadline
//!   cannot be met ([`SloPolicy`]).
//!
//! Served logits are **bitwise identical** to `Engine::infer_batch` on the
//! same images — batch composition never changes per-image arithmetic, and
//! the flush tests assert it. Everything is `std` synchronization (mutex,
//! condvar, scoped threads); no async runtime.
//!
//! ```
//! use heatvit::Backend;
//! use heatvit_serve::{InferRequest, Priority, ServeConfig, Server};
//! use heatvit_tensor::Tensor;
//! use heatvit_vit::{ViTConfig, VisionTransformer};
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::time::{Duration, Instant};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let model = VisionTransformer::new(ViTConfig::test_tiny(2), &mut rng);
//! let server = Server::start(Backend::from(model), ServeConfig::default());
//!
//! let tickets: Vec<_> = (0..4)
//!     .map(|_| {
//!         let image = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
//!         server
//!             .submit(InferRequest {
//!                 image,
//!                 deadline: Instant::now() + Duration::from_millis(100),
//!                 priority: Priority::Normal,
//!             })
//!             .expect("server accepts while open")
//!     })
//!     .collect();
//! for ticket in tickets {
//!     let response = ticket.wait();
//!     assert_eq!(response.logits.dims(), &[1, 2]);
//! }
//! let report = server.shutdown();
//! assert_eq!(report.completed(), 4);
//! assert!(report.flushes().total() >= 1);
//! ```

#![warn(missing_docs)]

pub mod metrics;
mod report;
mod request;
mod server;

#[doc(hidden)]
pub use report::Stats;
pub use report::{ClassReport, FlushCounts, FlushReason, ServeReport, MAX_LATENCY_SAMPLES};
pub use request::{InferRequest, InferResponse, Priority, SubmitError, Ticket};
pub use server::{
    LaneAssignment, LaneCount, ServeConfig, Server, SloPolicy, StealPolicy, MAX_AUTO_LANES,
};
