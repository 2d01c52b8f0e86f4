//! Multi-lane scheduling coverage: bitwise served-vs-engine parity at
//! 1/2/4 lanes, work-steal correctness (no request served twice, none
//! dropped on drain), and per-backend lane isolation under mixed traffic.
//!
//! The parity and steal tests run real inference (a µDeiT backbone) so the
//! lanes genuinely contend; the steal test builds its backlog behind a
//! gated batch, and the isolation test drives admission with a fixed
//! latency model, so neither depends on timing.

mod common;

use common::gated;
use heatvit::{Backend, CostProfile, Engine, LatencyModel};
use heatvit_quant::QuantizedViT;
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_serve::{
    FlushReason, InferRequest, LaneCount, Priority, ServeConfig, Server, SloPolicy,
};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FAR_FUTURE: Duration = Duration::from_secs(600);

fn pruned_model(seed: u64) -> Backend {
    let mut rng = StdRng::seed_from_u64(seed);
    let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut pruned = PrunedViT::new(backbone);
    pruned.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
    Backend::from(pruned)
}

fn images(seed: u64, count: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Tensor::rand_uniform(&[3, 32, 32], 0.0, 1.0, &mut rng))
        .collect()
}

fn request(image: &Tensor, budget: Duration, priority: Priority) -> InferRequest {
    InferRequest {
        image: image.clone(),
        deadline: Instant::now() + budget,
        priority,
    }
}

/// The satellite acceptance gate: served logits bitwise identical to
/// `Engine::infer_batch` at 1, 2, and 4 lanes. All traffic homes on lane 0
/// (single level), so at 2 and 4 lanes much of it is executed by thieves —
/// parity must hold no matter which lane runs the shared engine.
#[test]
fn served_outputs_are_bitwise_identical_at_1_2_and_4_lanes() {
    let imgs = images(21, 12);
    let reference = Engine::builder(pruned_model(22)).build().infer_batch(&imgs);
    for lanes in [1usize, 2, 4] {
        let config = ServeConfig {
            max_batch: 4,
            queue_capacity: 32,
            lanes: LaneCount::Fixed(lanes),
            ..ServeConfig::default()
        };
        let server = Server::start(pruned_model(22), config);
        assert_eq!(server.lane_count(), lanes);
        let tickets: Vec<_> = imgs
            .iter()
            .map(|img| {
                server
                    .submit(request(img, FAR_FUTURE, Priority::Normal))
                    .expect("open")
            })
            .collect();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let report = server.shutdown();
        assert_eq!(report.completed(), 12, "{lanes} lanes dropped requests");
        assert_eq!(report.lane_served().iter().sum::<u64>(), 12);
        for (i, response) in responses.iter().enumerate() {
            assert!(response.lane < lanes);
            assert_eq!(
                response.logits.data(),
                reference.logits.row(i),
                "served logits diverge from Engine::infer_batch for image {i} at {lanes} lanes"
            );
            assert_eq!(response.tokens_per_block, reference.tokens_per_block[i]);
            assert_eq!(response.macs, reference.macs[i]);
            assert_eq!(response.prediction, reference.predictions()[i]);
        }
    }
}

/// Work-steal correctness under a drain: a deep backlog on lane 0's queue,
/// built by holding lane 0's first batch at a gate, and lane 1 with nothing
/// homed on it. The gate opens only once lane 1 has stolen a batch too.
/// Every request resolves exactly once (the one-shot response slots
/// debug-assert against double fills) and none is dropped by the shutdown
/// drain.
#[test]
fn stealing_drains_a_backlogged_lane_without_loss_or_double_service() {
    let requests = 48usize;
    let config = ServeConfig {
        max_batch: 2,
        queue_capacity: requests,
        lanes: LaneCount::Fixed(2),
        ..ServeConfig::default()
    };
    let (served, gate) = gated(pruned_model(23));
    let server = Server::start(served, config);
    let imgs = images(24, requests);
    let tickets: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let ticket = server
                .submit(request(img, FAR_FUTURE, Priority::Normal))
                .expect("open");
            if i == 0 {
                // Lane 0 now holds a batch of one; the rest queue behind it.
                gate.wait_entered(1);
            }
            ticket
        })
        .collect();
    // The backlog exceeds the keep-local threshold, so lane 1 steals a
    // batch and parks at the gate as well.
    gate.wait_entered(2);
    gate.open();
    let report = server.shutdown();
    assert_eq!(
        report.completed(),
        requests as u64,
        "drain dropped requests"
    );
    assert_eq!(report.level_served(), vec![requests as u64]);
    assert_eq!(report.lane_served().iter().sum::<u64>(), requests as u64);
    // Lane 1 has no home traffic: anything it served, it stole.
    assert_eq!(report.lane_served()[1], report.lane_steals()[1]);
    assert_eq!(report.lane_steals()[0], 0, "lane 0 had nothing to steal");
    assert!(
        report.stolen() > 0,
        "lane 1 stole before the gate opened: {:?}",
        report.lane_served()
    );
    // Steal flushes carry at most max_batch (2) requests each.
    assert!(report.flushes().steal >= report.lane_steals()[1].div_ceil(2));
    // Every ticket resolved exactly once: `completed == submitted` rules
    // out drops, the slots' double-fill debug assertion rules out double
    // service, and each response is still present and well-formed.
    for ticket in tickets {
        let response = ticket
            .wait_timeout(Duration::ZERO)
            .expect("every ticket must resolve");
        assert_eq!(response.logits.dims(), &[1, 4]);
        if response.flush == FlushReason::Steal {
            assert_eq!(response.lane, 1, "only lane 1 can steal here");
        }
    }
    // The backlog's high-water mark is visible on the victim lane.
    assert!(report.lane_queue_hwm()[0] > 0);
}

/// A latency model with a fixed prediction per variant name, so admission
/// routing is exactly reproducible (same idiom as the SLO tests).
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

/// Per-backend lane isolation under mixed traffic: a float dense level
/// homed on lane 0 and an int8-dense level homed on lane 1. High traffic
/// pins to the dense level, tight-budget Normal traffic degrades to the
/// int8 level — and each backend batches and executes on its own lane,
/// with no steals (neither backlog ever exceeds the keep-local threshold).
#[test]
fn int8_and_float_levels_batch_on_their_own_lanes() {
    let mut rng = StdRng::seed_from_u64(27);
    let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let mut quantized = QuantizedViT::from_float(&backbone);
    quantized.calibrate(&images(28, 4));
    let latency = Arc::new(FixedLatency {
        per_variant: [
            ("dense", Duration::from_millis(40)),
            ("int8-dense", Duration::from_micros(1)),
        ]
        .into_iter()
        .collect(),
    });
    let config = ServeConfig {
        max_batch: 8,
        queue_capacity: 32,
        lanes: LaneCount::Fixed(2),
        slo: SloPolicy {
            enabled: true,
            admission_slack: Duration::from_millis(1),
            shed_normal: false,
        },
        ..ServeConfig::default()
    };
    let server = Server::start_tiered(
        vec![Backend::from(backbone), Backend::from(quantized)],
        config,
        latency,
    );
    assert_eq!(server.home_lane(0), 0);
    assert_eq!(server.home_lane(1), 1);
    let imgs = images(29, 12);
    let tickets: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| {
            // Alternate High (generous budget, pinned to dense) with
            // tight-budget Normal (10 ms: the fixed model predicts a 320 ms
            // dense batch, so admission degrades it to int8).
            let req = if i % 2 == 0 {
                request(img, FAR_FUTURE, Priority::High)
            } else {
                request(img, Duration::from_millis(10), Priority::Normal)
            };
            server.submit(req).expect("open")
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let response = ticket.wait();
        if i % 2 == 0 {
            assert_eq!(response.class, Priority::High);
            assert_eq!(response.level, 0, "High pins to the dense level");
            assert_eq!(response.lane, 0, "dense homes on lane 0");
        } else {
            assert_eq!(response.level, 1, "tight Normal degrades to int8");
            assert_eq!(response.lane, 1, "int8 homes on lane 1");
        }
    }
    let report = server.shutdown();
    assert_eq!(report.completed(), 12);
    assert_eq!(report.level_served(), vec![6, 6]);
    assert_eq!(report.lane_served(), vec![6, 6]);
    assert_eq!(
        report.stolen(),
        0,
        "sub-threshold backlogs must not trigger steals"
    );
}
