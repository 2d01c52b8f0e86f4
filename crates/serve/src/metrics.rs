//! The server's telemetry surface: every counter, gauge, histogram, and
//! latency series a [`crate::Server`] records, registered up front in one
//! [`Registry`], plus the bounded [`SpanRecorder`] request trace.
//!
//! [`crate::ServeReport`] is a *view* materialized from a registry
//! [`Snapshot`](heatvit::telemetry::Snapshot) — the metrics here are the
//! single source of truth; no separate locked accumulator exists on the
//! request path. Hot-path recording is lock-free (atomic handles), with
//! two deliberate exceptions documented in `heatvit-telemetry`: the exact
//! latency [`Series`] reservoirs and the trace ring take a short mutex.
//!
//! Every metric family is pre-registered at server start (all flush
//! reasons, both SLO classes, every batch size up to `max_batch`, every
//! level and lane), so expositions always show the full family — a lane
//! that served nothing still exports `heatvit_serve_lane_served{lane="1"} 0`
//! — and snapshot-derived reports read dense per-index vectors.

use crate::report::FlushReason;
use crate::request::Priority;
use heatvit::telemetry::{
    BatchSpan, Counter, FloatCounter, Gauge, Histogram, Registry, RequestSpan, Series, ShedSpan,
    SpanRecorder, TraceEvent,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bucket upper bounds (µs) of the serve latency histograms — spanning
/// sub-millisecond trickle service to the 1 s pathological tail.
pub const LATENCY_BUCKETS_US: [u64; 12] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
];

/// Registered metric names — the stable observability contract. CI greps
/// the Prometheus exposition for several of these; renaming one is a
/// breaking change to dashboards.
pub mod names {
    /// Counter: requests resolved.
    pub const COMPLETED: &str = "heatvit_serve_completed_total";
    /// Counter: responses resolved after their deadline.
    pub const DEADLINE_MISSES: &str = "heatvit_serve_deadline_misses_total";
    /// Counter family by `reason`: batches flushed per flush policy.
    pub const FLUSH: &str = "heatvit_serve_flush_total";
    /// Counter family by `size`: formed batches per batch size.
    pub const BATCH_SIZE: &str = "heatvit_serve_batch_size_total";
    /// Counter family by `decision` (`accept`/`degrade`/`shed`): admission
    /// outcomes.
    pub const ADMISSION: &str = "heatvit_serve_admission_total";
    /// Series: request latency reservoir, µs (exact percentiles).
    pub const LATENCY: &str = "heatvit_serve_latency_us";
    /// Histogram: request latency, µs (fixed buckets).
    pub const LATENCY_HIST: &str = "heatvit_serve_latency_us_hist";
    /// Counter family by `class`: requests resolved per SLO class.
    pub const CLASS_COMPLETED: &str = "heatvit_serve_class_completed_total";
    /// Counter family by `class`: deadline misses per SLO class.
    pub const CLASS_MISSES: &str = "heatvit_serve_class_deadline_misses_total";
    /// Counter family by `class`: admission sheds per SLO class.
    pub const CLASS_SHEDS: &str = "heatvit_serve_class_sheds_total";
    /// Counter family by `class`: requests served at a degraded level.
    pub const CLASS_DEGRADED: &str = "heatvit_serve_class_degraded_total";
    /// Float counter family by `class`: summed keep-fraction accuracy proxy.
    pub const CLASS_KEEP_SUM: &str = "heatvit_serve_class_keep_sum";
    /// Series family by `class`: per-class latency reservoir, µs.
    pub const CLASS_LATENCY: &str = "heatvit_serve_class_latency_us";
    /// Histogram family by `class`: per-class latency, µs (fixed buckets).
    pub const CLASS_LATENCY_HIST: &str = "heatvit_serve_class_latency_us_hist";
    /// Counter family by `level` (+ `variant`): requests served per level.
    pub const LEVEL_SERVED: &str = "heatvit_serve_level_served_total";
    /// Counter family by `lane`: requests executed per lane.
    pub const LANE_SERVED: &str = "heatvit_serve_lane_served";
    /// Counter family by `lane`: requests executed out of stolen batches.
    pub const LANE_STEALS: &str = "heatvit_serve_lane_steals_total";
    /// Gauge family by `lane`: current queue depth.
    pub const LANE_QUEUE_DEPTH: &str = "heatvit_serve_lane_queue_depth";
    /// Gauge family by `lane`: highest queue depth ever observed.
    pub const LANE_QUEUE_HWM: &str = "heatvit_serve_lane_queue_hwm";
    /// Gauge family by `lane`: predicted in-flight work ledger, µs.
    pub const LANE_INFLIGHT_US: &str = "heatvit_serve_lane_inflight_us";
    /// Float counter: summed relative batch prediction error.
    pub const PREDICTION_ERROR_SUM: &str = "heatvit_serve_prediction_error_sum";
    /// Counter: warmed-up batches scored for prediction error.
    pub const PREDICTION_BATCHES: &str = "heatvit_serve_prediction_batches_total";
    /// Gauge: serving-window start, µs since server start + 1 (0 = unset).
    pub const WINDOW_FIRST_US: &str = "heatvit_serve_window_first_us";
    /// Gauge: serving-window end, µs since server start + 1 (0 = unset).
    pub const WINDOW_LAST_US: &str = "heatvit_serve_window_last_us";
}

/// One lane's gauges and counters. The depth/HWM/in-flight gauges *are*
/// the lane's lock-free coordination signals (steal victim selection,
/// admission wait estimates) — instrumentation and mechanism are the same
/// atomics, so the exported values are honest by construction.
pub(crate) struct LaneMetrics {
    pub(crate) depth: Arc<Gauge>,
    pub(crate) depth_hwm: Arc<Gauge>,
    pub(crate) inflight_us: Arc<Gauge>,
    served: Arc<Counter>,
    steals: Arc<Counter>,
}

/// One SLO class's counters and latency reservoirs.
struct ClassMetrics {
    completed: Arc<Counter>,
    misses: Arc<Counter>,
    sheds: Arc<Counter>,
    degraded: Arc<Counter>,
    keep_sum: Arc<FloatCounter>,
    latency: Arc<Series>,
    latency_hist: Arc<Histogram>,
}

/// Every handle a [`crate::Server`] records into, plus the trace recorder.
///
/// Construction registers the full metric surface; recording methods
/// mirror the legacy `Stats` accumulator operation-for-operation (same µs
/// quantization, same f64 accumulation order per lane) so a report
/// materialized from a snapshot is bitwise identical to one replayed
/// through the legacy path — `crates/serve/tests/telemetry_parity.rs`
/// asserts exactly that.
pub(crate) struct ServeMetrics {
    registry: Arc<Registry>,
    recorder: Arc<SpanRecorder>,
    /// Server start: the time base of the window gauges and span offsets.
    epoch: Instant,
    completed: Arc<Counter>,
    misses: Arc<Counter>,
    latency: Arc<Series>,
    latency_hist: Arc<Histogram>,
    /// Indexed by [`FlushReason`] declaration order (see
    /// [`FlushReason::ALL`]).
    flush: Vec<Arc<Counter>>,
    /// Index `size - 1`, sizes `1..=max_batch` (a formed batch is never
    /// larger — stealing also caps at `max_batch`).
    batch_sizes: Vec<Arc<Counter>>,
    admission_accept: Arc<Counter>,
    admission_degrade: Arc<Counter>,
    admission_shed: Arc<Counter>,
    /// Indexed by [`Priority::index`].
    classes: [ClassMetrics; 2],
    level_served: Vec<Arc<Counter>>,
    pub(crate) lanes: Vec<LaneMetrics>,
    error_sum: Arc<FloatCounter>,
    error_batches: Arc<Counter>,
    window_first: Arc<Gauge>,
    window_last: Arc<Gauge>,
}

impl ServeMetrics {
    /// Registers the whole serve metric surface on `registry`.
    /// `variants[level]` labels each level's served counter with its
    /// backend variant.
    pub(crate) fn new(
        registry: Arc<Registry>,
        trace_capacity: usize,
        variants: &[String],
        lane_count: usize,
        max_batch: usize,
    ) -> Self {
        let flush = FlushReason::ALL
            .iter()
            .map(|reason| {
                registry.counter(
                    names::FLUSH,
                    &[("reason", reason.label())],
                    "Batches flushed, by flush policy.",
                )
            })
            .collect();
        let batch_sizes = (1..=max_batch)
            .map(|size| {
                registry.counter(
                    names::BATCH_SIZE,
                    &[("size", &size.to_string())],
                    "Formed batches, by batch size.",
                )
            })
            .collect();
        let class_metrics = |class: Priority| {
            let labels = &[("class", class.label())][..];
            ClassMetrics {
                completed: registry.counter(
                    names::CLASS_COMPLETED,
                    labels,
                    "Requests resolved, by SLO class.",
                ),
                misses: registry.counter(
                    names::CLASS_MISSES,
                    labels,
                    "Deadline misses, by SLO class.",
                ),
                sheds: registry.counter(
                    names::CLASS_SHEDS,
                    labels,
                    "Submissions refused by predictive admission, by SLO class.",
                ),
                degraded: registry.counter(
                    names::CLASS_DEGRADED,
                    labels,
                    "Requests served at a degraded level, by SLO class.",
                ),
                keep_sum: registry.float_counter(
                    names::CLASS_KEEP_SUM,
                    labels,
                    "Summed keep-fraction accuracy proxy of completed requests.",
                ),
                latency: registry.series(
                    names::CLASS_LATENCY,
                    labels,
                    "Request latency reservoir (µs), by SLO class.",
                ),
                latency_hist: registry.histogram(
                    names::CLASS_LATENCY_HIST,
                    labels,
                    "Request latency (µs), by SLO class.",
                    &LATENCY_BUCKETS_US,
                ),
            }
        };
        let level_served = variants
            .iter()
            .enumerate()
            .map(|(level, variant)| {
                registry.counter(
                    names::LEVEL_SERVED,
                    &[("level", &level.to_string()), ("variant", variant)],
                    "Requests served per service level (0 = most accurate).",
                )
            })
            .collect();
        let lanes = (0..lane_count)
            .map(|index| {
                let lane = index.to_string();
                let labels = &[("lane", lane.as_str())][..];
                LaneMetrics {
                    depth: registry.gauge(
                        names::LANE_QUEUE_DEPTH,
                        labels,
                        "Current queue depth of this lane.",
                    ),
                    depth_hwm: registry.gauge(
                        names::LANE_QUEUE_HWM,
                        labels,
                        "Highest queue depth this lane ever reached.",
                    ),
                    inflight_us: registry.gauge(
                        names::LANE_INFLIGHT_US,
                        labels,
                        "Predicted in-flight work charged to this lane (µs).",
                    ),
                    served: registry.counter(
                        names::LANE_SERVED,
                        labels,
                        "Requests executed by this lane (stolen batches count for the thief).",
                    ),
                    steals: registry.counter(
                        names::LANE_STEALS,
                        labels,
                        "Requests this lane executed out of stolen batches.",
                    ),
                }
            })
            .collect();
        Self {
            recorder: Arc::new(SpanRecorder::new(trace_capacity)),
            epoch: Instant::now(),
            completed: registry.counter(names::COMPLETED, &[], "Requests resolved."),
            misses: registry.counter(
                names::DEADLINE_MISSES,
                &[],
                "Responses resolved after their deadline.",
            ),
            latency: registry.series(names::LATENCY, &[], "Request latency reservoir (µs)."),
            latency_hist: registry.histogram(
                names::LATENCY_HIST,
                &[],
                "Request latency (µs).",
                &LATENCY_BUCKETS_US,
            ),
            flush,
            batch_sizes,
            admission_accept: registry.counter(
                names::ADMISSION,
                &[("decision", "accept")],
                "Admission outcomes.",
            ),
            admission_degrade: registry.counter(
                names::ADMISSION,
                &[("decision", "degrade")],
                "Admission outcomes.",
            ),
            admission_shed: registry.counter(
                names::ADMISSION,
                &[("decision", "shed")],
                "Admission outcomes.",
            ),
            classes: [
                class_metrics(Priority::High),
                class_metrics(Priority::Normal),
            ],
            level_served,
            lanes,
            error_sum: registry.float_counter(
                names::PREDICTION_ERROR_SUM,
                &[],
                "Summed relative batch execution-time prediction error.",
            ),
            error_batches: registry.counter(
                names::PREDICTION_BATCHES,
                &[],
                "Warmed-up batches scored for prediction error.",
            ),
            window_first: registry.gauge(
                names::WINDOW_FIRST_US,
                &[],
                "Serving-window start (µs since server start, +1; 0 = unset).",
            ),
            window_last: registry.gauge(
                names::WINDOW_LAST_US,
                &[],
                "Serving-window end (µs since server start, +1; 0 = unset).",
            ),
            registry,
        }
    }

    pub(crate) fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    pub(crate) fn recorder(&self) -> &Arc<SpanRecorder> {
        &self.recorder
    }

    /// Offset of `at` from the server epoch, µs, shifted by +1 so an unset
    /// window gauge (0) is distinguishable from "exactly at start".
    fn window_off(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64 + 1
    }

    /// Opens the serving window at the first submission (lock-free CAS; at
    /// most one submitter wins).
    pub(crate) fn record_first_submit(&self, at: Instant) {
        self.window_first.set_if_unset(self.window_off(at));
    }

    /// One accepted submission's admission outcome (`accept` at the best
    /// level, `degrade` below it).
    pub(crate) fn record_admission(&self, level: usize) {
        if level == 0 {
            self.admission_accept.inc();
        } else {
            self.admission_degrade.inc();
        }
    }

    /// One refused submission: admission predicted a miss at every level.
    pub(crate) fn record_shed(&self, class: Priority, predicted: Duration) {
        self.admission_shed.inc();
        self.classes[class.index()].sheds.inc();
        self.recorder.record(TraceEvent::Shed(ShedSpan {
            class: class.index(),
            predicted_us: predicted.as_micros() as u64,
        }));
    }

    /// One flushed batch. Mirrors the legacy `Stats::record_batch` +
    /// `record_prediction_error` pair: the error term is computed from
    /// µs-quantized durations so a trace replay reproduces the sum
    /// bitwise (sub-µs measurements are skipped, exactly as a µs-quantized
    /// legacy record would).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_batch(
        &self,
        size: usize,
        reason: FlushReason,
        done: Instant,
        lane: usize,
        level: usize,
        predicted: Duration,
        measured: Duration,
        scored: bool,
    ) {
        let predicted_us = predicted.as_micros() as u64;
        let measured_us = measured.as_micros() as u64;
        self.flush[reason.index()].inc();
        self.batch_sizes[size - 1].inc();
        if reason == FlushReason::Steal {
            self.lanes[lane].steals.add(size as u64);
        }
        let off = self.window_off(done);
        self.window_first.set_if_unset(off);
        self.window_last.set_max(off);
        if scored {
            let measured = Duration::from_micros(measured_us);
            if !measured.is_zero() {
                let predicted = Duration::from_micros(predicted_us);
                let rel = (predicted.as_secs_f64() - measured.as_secs_f64()).abs()
                    / measured.as_secs_f64();
                self.error_sum.add(rel);
                self.error_batches.inc();
            }
        }
        self.recorder.record(TraceEvent::Batch(BatchSpan {
            lane,
            level,
            size,
            reason: reason.label(),
            predicted_us,
            measured_us,
            scored,
            done_off_us: off - 1,
        }));
    }

    /// One resolved request. Mirrors the legacy `Stats::record_response`
    /// operation order (class keep-sum and latency reservoirs see values
    /// in the same sequence a single-lane legacy accumulator would).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_response(
        &self,
        latency: Duration,
        queued: Duration,
        missed: bool,
        class: Priority,
        level: usize,
        keep: f64,
        lane: usize,
        batch_size: usize,
    ) {
        let total_us = latency.as_micros() as u64;
        self.completed.inc();
        self.latency.record(total_us);
        self.latency_hist.observe(total_us);
        if missed {
            self.misses.inc();
        }
        let c = &self.classes[class.index()];
        c.completed.inc();
        c.latency.record(total_us);
        c.latency_hist.observe(total_us);
        c.keep_sum.add(keep);
        if missed {
            c.misses.inc();
        }
        if level > 0 {
            c.degraded.inc();
        }
        self.level_served[level].inc();
        self.lanes[lane].served.inc();
        self.recorder.record(TraceEvent::Request(RequestSpan {
            class: class.index(),
            level,
            lane,
            queued_us: queued.as_micros() as u64,
            total_us,
            missed,
            keep,
            batch_size,
        }));
    }
}

#[cfg(test)]
mod tests {
    //! The live report path on fixed inputs: each test replays one of the
    //! `Stats` reference tests' sequences (`report.rs`) through
    //! [`ServeMetrics`] and checks [`ServeReport::from_snapshot`] against
    //! that test's hand-computed values.

    use super::*;
    use crate::ServeReport;

    fn metrics(levels: usize, lanes: usize) -> ServeMetrics {
        let variants: Vec<String> = (0..levels).map(|l| format!("level-{l}")).collect();
        ServeMetrics::new(Registry::new(), 64, &variants, lanes, 4)
    }

    fn report(metrics: &ServeMetrics) -> ServeReport {
        ServeReport::from_snapshot(&metrics.registry().snapshot())
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// A served batch with no prediction-error score.
    fn batch(m: &ServeMetrics, size: usize, reason: FlushReason, done: Instant, lane: usize) {
        m.record_batch(size, reason, done, lane, 0, ms(1), ms(1), false);
    }

    /// A resolved request with no queueing time.
    fn respond(
        m: &ServeMetrics,
        latency: Duration,
        missed: bool,
        class: Priority,
        level: usize,
        keep: f64,
        lane: usize,
    ) {
        m.record_response(latency, Duration::ZERO, missed, class, level, keep, lane, 1);
    }

    #[test]
    fn live_report_aggregates_batches_and_responses() {
        let m = metrics(2, 1);
        let t0 = m.epoch;
        m.record_first_submit(t0);
        batch(&m, 2, FlushReason::MaxBatch, t0 + ms(10), 0);
        respond(&m, ms(4), false, Priority::High, 0, 1.0, 0);
        respond(&m, ms(8), true, Priority::Normal, 1, 0.7, 0);
        batch(&m, 1, FlushReason::Idle, t0 + ms(20), 0);
        respond(&m, ms(2), false, Priority::Normal, 0, 1.0, 0);
        let report = report(&m);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.batches(), 2);
        assert_eq!(report.deadline_misses(), 1);
        assert!((report.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.batch_histogram(), vec![(1, 1), (2, 1)]);
        assert!((report.mean_batch() - 1.5).abs() < 1e-12);
        assert_eq!(report.p50_ms(), 4.0);
        assert_eq!(report.max_ms(), 8.0);
        // Three requests over the 20 ms window from t0 to the last batch.
        assert!((report.throughput() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn live_report_splits_per_class_rows() {
        let m = metrics(2, 1);
        respond(&m, ms(1), false, Priority::High, 0, 1.0, 0);
        respond(&m, ms(9), true, Priority::Normal, 1, 0.6, 0);
        respond(&m, ms(3), false, Priority::Normal, 1, 0.8, 0);
        m.record_shed(Priority::Normal, ms(5));
        let report = report(&m);
        let high = report.class(Priority::High);
        assert_eq!(
            (
                high.completed(),
                high.deadline_misses(),
                high.sheds(),
                high.degraded()
            ),
            (1, 0, 0, 0)
        );
        assert!((high.mean_keep() - 1.0).abs() < 1e-12);
        let normal = report.class(Priority::Normal);
        assert_eq!(
            (
                normal.completed(),
                normal.deadline_misses(),
                normal.sheds(),
                normal.degraded()
            ),
            (2, 1, 1, 2)
        );
        assert!((normal.mean_keep() - 0.7).abs() < 1e-12);
        assert!((normal.miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(report.sheds(), 1);
        assert_eq!(report.level_served(), vec![1, 2]);
    }

    #[test]
    fn live_report_averages_prediction_error_over_scored_batches() {
        let m = metrics(1, 1);
        assert!(report(&m).predicted_error_pct().is_nan());
        let t0 = m.epoch;
        m.record_batch(1, FlushReason::Idle, t0, 0, 0, ms(11), ms(10), true);
        m.record_batch(1, FlushReason::Idle, t0, 0, 0, ms(9), ms(10), true);
        // An unscored (cold-start) batch does not enter the mean.
        m.record_batch(1, FlushReason::Idle, t0, 0, 0, ms(50), ms(10), false);
        assert!((report(&m).predicted_error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn live_report_splits_served_and_stolen_work_per_lane() {
        let m = metrics(1, 2);
        let t0 = m.epoch;
        // Lane 0 forms and executes a full batch of 3...
        batch(&m, 3, FlushReason::MaxBatch, t0 + ms(1), 0);
        for _ in 0..3 {
            respond(&m, ms(1), false, Priority::Normal, 0, 1.0, 0);
        }
        // ...and lane 1 steals and executes a batch of 2 off lane 0's queue.
        batch(&m, 2, FlushReason::Steal, t0 + ms(2), 1);
        for _ in 0..2 {
            respond(&m, ms(1), false, Priority::Normal, 0, 1.0, 1);
        }
        let report = report(&m);
        assert_eq!(report.lanes(), 2);
        assert_eq!(report.lane_served(), vec![3, 2]);
        assert_eq!(report.lane_steals(), vec![0, 2]);
        assert_eq!(report.stolen(), 2);
        assert_eq!(report.flushes().steal, 1);
        // Every stolen request still lands in the per-level row.
        assert_eq!(report.level_served(), vec![5]);
    }
}
