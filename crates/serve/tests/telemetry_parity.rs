//! The telemetry redesign's contract, asserted end to end: a
//! [`ServeReport`] materialized from a registry snapshot is **bitwise
//! identical** (wall-clock-derived fields excluded) to one produced by the
//! legacy locked `Stats` accumulator replaying the same request sequence —
//! recovered from the server's own span trace.

use heatvit::telemetry::TraceEvent;
use heatvit::{CostProfile, LatencyModel};
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_serve::{
    FlushReason, InferRequest, Priority, ServeConfig, Server, SloPolicy, Stats, SubmitError,
};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A latency model with a fixed prediction per variant name, so admission
/// decisions (degrade to level 1, shed impossible Normals) are exactly
/// reproducible.
#[derive(Debug)]
struct FixedLatency {
    per_variant: HashMap<&'static str, Duration>,
}

impl LatencyModel for FixedLatency {
    fn name(&self) -> &'static str {
        "fixed"
    }

    fn predict(&self, profile: &CostProfile) -> Duration {
        *self
            .per_variant
            .get(profile.variant.as_str())
            .expect("prediction for every served variant")
    }
}

/// Two-level ladder (dense above adaptive-pruned keep-0.6) on ONE lane —
/// single-lane execution makes every accumulation order deterministic, so
/// the replayed f64 sums must match bitwise, not just approximately.
fn tiered_server() -> Server {
    let mut rng = StdRng::seed_from_u64(7);
    let dense = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut pruned = PrunedViT::new(backbone);
    pruned.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
    pruned.set_nominal_keep(1, 0.6);
    let latency = Arc::new(FixedLatency {
        per_variant: [
            ("dense", Duration::from_millis(40)),
            ("adaptive-pruned", Duration::from_micros(1)),
        ]
        .into_iter()
        .collect(),
    });
    let config = ServeConfig {
        slo: SloPolicy {
            enabled: true,
            admission_slack: Duration::from_millis(1),
            shed_normal: true,
        },
        ..ServeConfig::default()
    };
    Server::start_tiered(vec![dense.into(), pruned.into()], config, latency)
}

fn image(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng)
}

fn class_from_index(index: usize) -> Priority {
    match index {
        0 => Priority::High,
        1 => Priority::Normal,
        other => panic!("unknown class index {other}"),
    }
}

/// Feeds the server's recorded span trace through the legacy `Stats`
/// accumulator in event order — the replay path the snapshot view is
/// measured against.
fn replay(events: &[TraceEvent], levels: usize, lanes: usize) -> Stats {
    let mut stats = Stats::new(levels, lanes);
    for event in events {
        match event {
            TraceEvent::Batch(b) => {
                let reason = FlushReason::ALL
                    .into_iter()
                    .find(|r| r.label() == b.reason)
                    .expect("known flush reason");
                // The `done` instant only feeds the throughput window,
                // which is wall-clock-derived and excluded from the
                // comparison — any instant works for the replay.
                stats.record_batch(b.size, reason, Instant::now(), b.lane);
                if b.scored {
                    stats.record_prediction_error(
                        Duration::from_micros(b.predicted_us),
                        Duration::from_micros(b.measured_us),
                    );
                }
            }
            TraceEvent::Request(r) => stats.record_response(
                Duration::from_micros(r.total_us),
                r.missed,
                class_from_index(r.class),
                r.level,
                r.keep,
                r.lane,
            ),
            TraceEvent::Shed(s) => stats.record_shed(class_from_index(s.class)),
        }
    }
    stats
}

/// Bitwise f64 comparison that treats NaN == NaN (the no-scored-batches
/// sentinel of `predicted_error_pct`).
#[track_caller]
fn assert_f64_bits(actual: f64, expected: f64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        expected.to_bits(),
        "{what}: snapshot {actual} vs replay {expected}"
    );
}

#[test]
fn snapshot_report_is_bitwise_identical_to_legacy_replay() {
    let server = tiered_server();
    let mut sheds = 0u64;
    for i in 0..24u64 {
        let (priority, budget) = match i % 6 {
            // High with a generous budget: pinned to level 0, on time.
            0 => (Priority::High, Duration::from_secs(5)),
            // High with an already-expired deadline: served, missed.
            3 => (Priority::High, Duration::ZERO),
            // Normal with an impossible budget: every level predicts a
            // miss, so predictive admission sheds it at the door.
            5 => (Priority::Normal, Duration::ZERO),
            // Normal inside level 1's prediction but not level 0's:
            // degrades down the ladder deterministically.
            _ => (Priority::Normal, Duration::from_millis(10)),
        };
        let request = InferRequest {
            image: image(i),
            deadline: Instant::now() + budget,
            priority,
        };
        // Submit-and-wait: the inflight refund lands before the ticket is
        // resolved, so admission for the next request always sees an empty
        // lane — the degrade/shed decisions depend only on the fixed model.
        match server.submit(request) {
            Ok(ticket) => {
                ticket.wait();
            }
            Err(SubmitError::Shed { .. }) => sheds += 1,
            Err(other) => panic!("unexpected refusal: {other}"),
        }
    }
    assert_eq!(sheds, 4, "every 6th submission is an impossible Normal");

    // `tiered_server` stacks two levels (dense, pruned) on its lanes.
    let levels = 2;
    let lanes = server.lane_count();
    let recorder = Arc::clone(server.recorder());
    let live = server.shutdown();
    assert_eq!(recorder.dropped(), 0, "trace ring must not evict this run");
    let replayed = replay(&recorder.take(), levels, lanes).report();

    // Everything except the two wall-clock-derived fields (throughput's
    // serving window and the lanes' queue HWMs live outside the trace).
    assert_eq!(live.completed(), replayed.completed());
    assert_eq!(live.batches(), replayed.batches());
    assert_eq!(live.deadline_misses(), replayed.deadline_misses());
    assert_eq!(live.flushes(), replayed.flushes());
    assert_eq!(live.batch_histogram(), replayed.batch_histogram());
    assert_f64_bits(live.mean_batch(), replayed.mean_batch(), "mean_batch");
    assert_f64_bits(live.p50_ms(), replayed.p50_ms(), "p50_ms");
    assert_f64_bits(live.p95_ms(), replayed.p95_ms(), "p95_ms");
    assert_f64_bits(live.max_ms(), replayed.max_ms(), "max_ms");
    assert_eq!(live.level_served(), replayed.level_served());
    assert_eq!(live.lane_served(), replayed.lane_served());
    assert_eq!(live.lane_steals(), replayed.lane_steals());
    assert_f64_bits(
        live.predicted_error_pct(),
        replayed.predicted_error_pct(),
        "predicted_error_pct",
    );
    for class in [Priority::High, Priority::Normal] {
        let l = live.class(class);
        let r = replayed.class(class);
        let label = class.label();
        assert_eq!(l.class(), r.class());
        assert_eq!(l.completed(), r.completed(), "completed[{label}]");
        assert_eq!(
            l.deadline_misses(),
            r.deadline_misses(),
            "deadline_misses[{label}]"
        );
        assert_eq!(l.sheds(), r.sheds(), "sheds[{label}]");
        assert_eq!(l.degraded(), r.degraded(), "degraded[{label}]");
        assert_f64_bits(l.p50_ms(), r.p50_ms(), "class p50_ms");
        assert_f64_bits(l.p95_ms(), r.p95_ms(), "class p95_ms");
        assert_f64_bits(l.max_ms(), r.max_ms(), "class max_ms");
        assert_f64_bits(l.mean_keep(), r.mean_keep(), "class mean_keep");
    }

    // The run exercised the interesting paths, so the parity above was not
    // vacuous: misses, sheds, degradations, and scored batches all landed.
    assert_eq!(live.completed(), 20);
    assert!(live.deadline_misses() >= 4);
    assert_eq!(live.class(Priority::Normal).sheds(), 4);
    assert_eq!(live.class(Priority::Normal).degraded(), 12);
    assert!(live.batches() >= 2);
}
