//! Batcher flush-policy coverage: lanes are work-conserving, so a free
//! lane flushes what it holds at once — full batches as `MaxBatch`, partial
//! ones as `Idle` — and shutdown drains every accepted request. Plus the
//! parity gate: served logits bitwise identical to `Engine::infer_batch`
//! on the same images.
//!
//! No test picks its flush policy by timing: where batch shape matters, a
//! gated model holds one batch inside the engine while the test queues
//! the next ones behind it.

mod common;

use common::gated;
use heatvit::{Backend, Engine};
use heatvit_selector::{PrunedViT, TokenSelector};
use heatvit_serve::{
    FlushReason, InferRequest, Priority, ServeConfig, Server, SubmitError, Ticket,
};
use heatvit_tensor::Tensor;
use heatvit_vit::{ViTConfig, VisionTransformer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const FAR_FUTURE: Duration = Duration::from_secs(600);

fn model(seed: u64) -> Backend {
    let mut rng = StdRng::seed_from_u64(seed);
    Backend::from(VisionTransformer::new(ViTConfig::test_tiny(4), &mut rng))
}

fn pruned_model(seed: u64) -> Backend {
    let mut rng = StdRng::seed_from_u64(seed);
    let backbone = VisionTransformer::new(ViTConfig::micro(4), &mut rng);
    let dim = backbone.config().embed_dim;
    let heads = backbone.config().num_heads;
    let mut pruned = PrunedViT::new(backbone);
    pruned.insert_selector(1, TokenSelector::new(dim, heads, &mut rng));
    Backend::from(pruned)
}

fn images(seed: u64, count: usize, side: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Tensor::rand_uniform(&[3, side, side], 0.0, 1.0, &mut rng))
        .collect()
}

fn request(image: &Tensor, budget: Duration) -> InferRequest {
    InferRequest {
        image: image.clone(),
        deadline: Instant::now() + budget,
        priority: Priority::Normal,
    }
}

/// The backlog that queues behind a running batch forms the next batches:
/// exactly `max_batch` first, High before Normal, flushed because it is
/// full, then the remainder at once because the lane is free again.
#[test]
fn max_batch_flushes_the_backlog_behind_a_running_batch() {
    let max_batch = 4;
    let config = ServeConfig {
        max_batch,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let (served, gate) = gated(model(1));
    let server = Server::start(served, config);
    let imgs = images(2, max_batch + 4, 16);
    let first = server.submit(request(&imgs[0], FAR_FUTURE)).expect("open");
    gate.wait_entered(1);
    // N H N H N H N: three High, four Normal, queued while the lane is busy.
    let backlog: Vec<_> = imgs[1..]
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let mut req = request(img, FAR_FUTURE);
            if i % 2 == 1 {
                req.priority = Priority::High;
            }
            server.submit(req).expect("open")
        })
        .collect();
    gate.open();

    let shape = |ticket: Ticket| {
        let response = ticket.wait();
        (response.batch_size, response.flush)
    };
    assert_eq!(shape(first), (1, FlushReason::Idle));
    // The full batch is the three High plus the oldest Normal.
    let full = (max_batch, FlushReason::MaxBatch);
    let rest = (3, FlushReason::Idle);
    let shapes: Vec<_> = backlog.into_iter().map(shape).collect();
    assert_eq!(shapes, vec![full, full, rest, full, rest, full, rest]);
    let report = server.shutdown();
    assert_eq!(report.completed(), max_batch as u64 + 4);
    assert_eq!(report.flushes().max_batch, 1);
    assert_eq!(report.flushes().idle, 2);
    assert_eq!(report.batch_histogram(), vec![(1, 1), (3, 1), (4, 1)]);
}

/// A lone request on a free lane is served at once, alone: there is no
/// timer to wait for and nothing else to batch with.
#[test]
fn idle_flush_serves_trickle_traffic() {
    let config = ServeConfig {
        max_batch: 64,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let server = Server::start(model(5), config);
    for img in &images(6, 3, 16) {
        let response = server
            .submit(request(img, FAR_FUTURE))
            .expect("open")
            .wait();
        assert_eq!(response.batch_size, 1);
        assert_eq!(response.flush, FlushReason::Idle);
    }
    let report = server.shutdown();
    assert_eq!(report.completed(), 3);
    assert_eq!(report.flushes().idle, 3);
    assert_eq!(report.flushes().total(), 3);
}

/// Shutdown while a batch is held: the backlog drains, a full batch as
/// `MaxBatch` and the remainder as `Shutdown`, and nothing is dropped.
#[test]
fn shutdown_drains_every_queued_request() {
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let (served, gate) = gated(model(7));
    let server = Server::start(served, config);
    let imgs = images(8, 7, 16);
    let tickets: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let ticket = server.submit(request(img, FAR_FUTURE)).expect("open");
            if i == 0 {
                gate.wait_entered(1);
            }
            ticket
        })
        .collect();
    server.close();
    gate.open();
    let report = server.shutdown();
    assert_eq!(report.completed(), 7, "shutdown dropped requests");
    assert_eq!(report.flushes().idle, 1);
    assert_eq!(report.flushes().max_batch, 1);
    assert_eq!(report.flushes().shutdown, 1);
    // Every ticket resolves even though shutdown already returned.
    let reasons: Vec<_> = tickets
        .into_iter()
        .map(|ticket| {
            let response = ticket.try_take().expect("drained response must be ready");
            (response.batch_size, response.flush)
        })
        .collect();
    let mut expected = vec![(1, FlushReason::Idle)];
    expected.extend([(4, FlushReason::MaxBatch); 4]);
    expected.extend([(2, FlushReason::Shutdown); 2]);
    assert_eq!(reasons, expected);
}

#[test]
fn malformed_images_are_refused_at_submission_not_in_the_batcher() {
    // test_tiny expects [3, 16, 16]; a wrong-shaped image must bounce at
    // submit instead of panicking the batcher and stranding other tickets.
    let server = Server::start(model(17), ServeConfig::default());
    let bad = Tensor::zeros(&[3, 8, 8]);
    match server.submit(request(&bad, FAR_FUTURE)) {
        Err(SubmitError::BadImage { request, expected }) => {
            assert_eq!(expected, [3, 16, 16]);
            assert_eq!(request.image.dims(), &[3, 8, 8], "request not returned");
        }
        other => panic!("expected BadImage, got {other:?}"),
    }
    // The server is still fully alive for well-formed traffic.
    let good = &images(18, 1, 16)[0];
    let response = server
        .submit(request(good, FAR_FUTURE))
        .expect("open")
        .wait();
    assert_eq!(response.logits.dims(), &[1, 4]);
    assert_eq!(server.shutdown().completed(), 1);
}

#[test]
fn submissions_after_close_are_refused_with_the_request_returned() {
    let server = Server::start(model(9), ServeConfig::default());
    server.close();
    let img = &images(10, 1, 16)[0];
    match server.submit(request(img, FAR_FUTURE)) {
        Err(SubmitError::Closed(returned)) => {
            assert_eq!(returned.image.data(), img.data(), "request not returned");
        }
        other => panic!("expected Closed, got {other:?}"),
    }
    let report = server.shutdown();
    assert_eq!(report.completed(), 0);
}

/// The acceptance gate: served outputs bitwise identical to
/// `Engine::infer_batch` on the same images — across mixed batch shapes
/// and a pruned (input-adaptive) backend.
#[test]
fn served_outputs_are_bitwise_identical_to_engine_infer_batch() {
    let imgs = images(11, 9, 32);
    let reference = Engine::builder(pruned_model(12)).build().infer_batch(&imgs);

    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let server = Server::start(pruned_model(12), config);
    let tickets: Vec<_> = imgs
        .iter()
        .map(|img| server.submit(request(img, FAR_FUTURE)).expect("open"))
        .collect();
    let responses: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let report = server.shutdown();
    assert_eq!(report.completed(), 9);

    for (i, response) in responses.iter().enumerate() {
        assert_eq!(
            response.logits.data(),
            reference.logits.row(i),
            "served logits diverge from Engine::infer_batch for image {i}"
        );
        assert_eq!(response.tokens_per_block, reference.tokens_per_block[i]);
        assert_eq!(response.macs, reference.macs[i]);
        assert_eq!(response.prediction, reference.predictions()[i]);
    }
}

#[test]
fn mixed_priorities_all_complete() {
    let config = ServeConfig {
        max_batch: 3,
        queue_capacity: 16,
        ..ServeConfig::default()
    };
    let server = Server::start(model(13), config);
    let imgs = images(14, 6, 16);
    let tickets: Vec<_> = imgs
        .iter()
        .enumerate()
        .map(|(i, img)| {
            let mut req = request(img, FAR_FUTURE);
            if i % 2 == 0 {
                req.priority = Priority::High;
            }
            server.submit(req).expect("open")
        })
        .collect();
    for ticket in tickets {
        ticket.wait();
    }
    assert_eq!(server.shutdown().completed(), 6);
}

#[test]
fn concurrent_submitters_share_one_server() {
    let config = ServeConfig {
        max_batch: 4,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let server = Server::start(model(15), config);
    let imgs = images(16, 4, 16);
    let reference = Engine::builder(model(15)).build().infer_batch(&imgs);
    std::thread::scope(|scope| {
        for (i, img) in imgs.iter().enumerate() {
            let server = &server;
            let expect = reference.logits.row(i).to_vec();
            scope.spawn(move || {
                let response = server
                    .submit(request(img, FAR_FUTURE))
                    .expect("open")
                    .wait();
                assert_eq!(response.logits.data(), &expect[..], "client {i} diverged");
            });
        }
    });
    assert_eq!(server.shutdown().completed(), 4);
}
