//! The aggregate [`ServeReport`] (latency percentiles, batch-size
//! histogram, deadline misses, flush-policy counts, throughput,
//! per-SLO-class and per-lane breakdowns, and predicted-vs-measured
//! latency error) — materialized as a *view* over a telemetry registry
//! [`Snapshot`] via [`ServeReport::from_snapshot`].
//!
//! The legacy [`Stats`] accumulator that used to sit behind a mutex on the
//! request path survives here as the *replay reference*: it is no longer
//! on any live path, but `crates/serve/tests/telemetry_parity.rs` replays
//! a recorded request trace through it and asserts the snapshot-derived
//! report is bitwise identical (wall-clock fields excluded).

use crate::metrics::names;
use crate::request::Priority;
use heatvit::telemetry::{MetricValue, Series, Snapshot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Why a lane flushed a pending batch into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushReason {
    /// The batch reached [`crate::ServeConfig::max_batch`] requests.
    MaxBatch,
    /// The lane was free: a partial batch flushes at once rather than wait
    /// for more arrivals (lanes are work-conserving).
    Idle,
    /// The server is draining at shutdown (no request is dropped).
    Shutdown,
    /// An idle lane stole this batch off a backlogged lane's queue (servers
    /// with two or more lanes).
    Steal,
}

/// Flush counts per [`FlushReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushCounts {
    /// Batches flushed because they filled up.
    pub max_batch: u64,
    /// Always 0: lanes no longer flush on deadline proximity. Kept so
    /// readers of the old count still build.
    pub deadline: u64,
    /// Partial batches flushed because the lane was free.
    pub idle: u64,
    /// Batches flushed by the shutdown drain.
    pub shutdown: u64,
    /// Batches executed by a lane that stole them from another lane.
    pub steal: u64,
}

impl FlushReason {
    /// Every reason, in declaration order — the index order of the
    /// `heatvit_serve_flush_total` counter family.
    pub const ALL: [FlushReason; 4] = [
        FlushReason::MaxBatch,
        FlushReason::Idle,
        FlushReason::Shutdown,
        FlushReason::Steal,
    ];

    /// Stable metric-label string of this reason (the `reason` label of
    /// `heatvit_serve_flush_total` and the tag on trace batch spans).
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::MaxBatch => "max_batch",
            FlushReason::Idle => "idle",
            FlushReason::Shutdown => "shutdown",
            FlushReason::Steal => "steal",
        }
    }

    /// Position in [`FlushReason::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

impl FlushCounts {
    pub(crate) fn bump(&mut self, reason: FlushReason) {
        match reason {
            FlushReason::MaxBatch => self.max_batch += 1,
            FlushReason::Idle => self.idle += 1,
            FlushReason::Shutdown => self.shutdown += 1,
            FlushReason::Steal => self.steal += 1,
        }
    }

    /// Total batches flushed.
    pub fn total(&self) -> u64 {
        self.max_batch + self.idle + self.shutdown + self.steal
    }
}

/// Per-SLO-class accumulator behind [`ClassReport`].
#[derive(Debug, Default)]
pub(crate) struct ClassStats {
    latencies: Series,
    completed: u64,
    deadline_misses: u64,
    sheds: u64,
    degraded: u64,
    /// Sum of the accuracy proxy (serving level's keep fraction) over
    /// completed requests.
    keep_sum: f64,
}

/// The legacy locked accumulator that used to sit behind every
/// [`ServeReport`] — retained (off every live path) as the replay
/// reference for the telemetry redesign: the parity test feeds a recorded
/// request trace through it and asserts the snapshot-derived report
/// matches bitwise. Not part of the supported API surface.
#[doc(hidden)]
#[derive(Debug)]
pub struct Stats {
    latencies: Series,
    completed: u64,
    deadline_misses: u64,
    batch_sizes: BTreeMap<usize, u64>,
    flushes: FlushCounts,
    first_start: Option<Instant>,
    last_done: Option<Instant>,
    /// Indexed by [`Priority::index`].
    classes: [ClassStats; 2],
    /// Requests served per service level (index 0 = most accurate).
    level_served: Vec<u64>,
    /// Requests served per executing lane.
    lane_served: Vec<u64>,
    /// Requests each lane executed out of batches it stole.
    lane_steals: Vec<u64>,
    /// Sum of per-batch `|predicted − measured| / measured` execution-time
    /// error over `error_batches` warmed-up batches.
    error_sum: f64,
    error_batches: u64,
}

impl Stats {
    pub fn new(levels: usize, lanes: usize) -> Self {
        Self {
            latencies: Series::default(),
            completed: 0,
            deadline_misses: 0,
            batch_sizes: BTreeMap::new(),
            flushes: FlushCounts::default(),
            first_start: None,
            last_done: None,
            classes: [ClassStats::default(), ClassStats::default()],
            level_served: vec![0; levels],
            lane_served: vec![0; lanes],
            lane_steals: vec![0; lanes],
            error_sum: 0.0,
            error_batches: 0,
        }
    }

    pub fn record_batch(&mut self, size: usize, reason: FlushReason, done: Instant, lane: usize) {
        self.flushes.bump(reason);
        *self.batch_sizes.entry(size).or_insert(0) += 1;
        if reason == FlushReason::Steal {
            self.lane_steals[lane] += size as u64;
        }
        if self.first_start.is_none() {
            self.first_start = Some(done);
        }
        self.last_done = Some(done);
    }

    pub fn record_first_submit(&mut self, at: Instant) {
        if self.first_start.is_none() {
            self.first_start = Some(at);
        }
    }

    pub fn record_response(
        &mut self,
        latency: Duration,
        missed: bool,
        class: Priority,
        level: usize,
        keep: f64,
        lane: usize,
    ) {
        let us = latency.as_micros() as u64;
        self.completed += 1;
        self.latencies.record(us);
        if missed {
            self.deadline_misses += 1;
        }
        let c = &mut self.classes[class.index()];
        c.completed += 1;
        c.latencies.record(us);
        c.keep_sum += keep;
        if missed {
            c.deadline_misses += 1;
        }
        if level > 0 {
            c.degraded += 1;
        }
        self.level_served[level] += 1;
        self.lane_served[lane] += 1;
    }

    pub fn record_shed(&mut self, class: Priority) {
        self.classes[class.index()].sheds += 1;
    }

    /// One warmed-up batch execution's relative prediction error
    /// (`|predicted − measured| / measured`).
    // Public for the tests in crates/serve/tests/telemetry_parity.rs (the `Stats` reference).
    pub fn record_prediction_error(&mut self, predicted: Duration, measured: Duration) {
        if measured.is_zero() {
            return;
        }
        let rel = (predicted.as_secs_f64() - measured.as_secs_f64()).abs() / measured.as_secs_f64();
        self.error_sum += rel;
        self.error_batches += 1;
    }

    pub fn report(&self) -> ServeReport {
        let completed = self.completed;
        let window = match (self.first_start, self.last_done) {
            (Some(start), Some(done)) => done.duration_since(start),
            _ => Duration::ZERO,
        };
        let total_in_batches: u64 = self.batch_sizes.iter().map(|(s, n)| (*s as u64) * n).sum();
        let (p50_ms, p95_ms, max_ms) = self.latencies.snapshot().percentiles_ms();
        let classes = [Priority::High, Priority::Normal].map(|class| {
            let c = &self.classes[class.index()];
            let (p50_ms, p95_ms, max_ms) = c.latencies.snapshot().percentiles_ms();
            ClassReport {
                class,
                completed: c.completed,
                deadline_misses: c.deadline_misses,
                sheds: c.sheds,
                degraded: c.degraded,
                p50_ms,
                p95_ms,
                max_ms,
                mean_keep: if c.completed == 0 {
                    0.0
                } else {
                    c.keep_sum / c.completed as f64
                },
            }
        });
        ServeReport {
            completed,
            batches: self.flushes.total(),
            deadline_misses: self.deadline_misses,
            flushes: self.flushes,
            batch_histogram: self.batch_sizes.iter().map(|(s, n)| (*s, *n)).collect(),
            mean_batch: if self.flushes.total() == 0 {
                0.0
            } else {
                total_in_batches as f64 / self.flushes.total() as f64
            },
            p50_ms,
            p95_ms,
            max_ms,
            throughput: if window.is_zero() {
                0.0
            } else {
                completed as f64 / window.as_secs_f64()
            },
            classes,
            level_served: self.level_served.clone(),
            lane_served: self.lane_served.clone(),
            lane_steals: self.lane_steals.clone(),
            // The server injects the real high-water marks (they live in
            // per-lane atomics, not under the stats lock).
            lane_queue_hwm: vec![0; self.lane_served.len()],
            predicted_error_pct: if self.error_batches == 0 {
                f64::NAN
            } else {
                100.0 * self.error_sum / self.error_batches as f64
            },
        }
    }
}

/// Per-SLO-class slice of a [`ServeReport`].
///
/// Reports are views materialized from a telemetry snapshot; read through
/// the accessor methods.
#[derive(Debug, Clone, Copy)]
pub struct ClassReport {
    /// The SLO class this row describes.
    class: Priority,
    /// Requests of this class resolved.
    completed: u64,
    /// Responses that resolved after their deadline.
    deadline_misses: u64,
    /// Submissions refused with [`crate::SubmitError::Shed`] (admission
    /// predicted a miss at every service level).
    sheds: u64,
    /// Requests served at a degraded level (level index > 0: a cheaper
    /// keep-rate schedule or backend than the class's best).
    degraded: u64,
    /// Median latency, milliseconds.
    p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    p95_ms: f64,
    /// Worst latency, milliseconds (exact).
    max_ms: f64,
    /// Mean accuracy proxy of the levels that served this class: the mean
    /// fraction of tokens kept relative to dense (1.0 = full accuracy
    /// budget; lower = degraded under load).
    mean_keep: f64,
}

impl ClassReport {
    /// The SLO class this row describes.
    pub fn class(&self) -> Priority {
        self.class
    }

    /// Requests of this class resolved.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Responses that resolved after their deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Submissions refused with [`crate::SubmitError::Shed`] (admission
    /// predicted a miss at every service level).
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Requests served at a degraded level (level index > 0).
    pub fn degraded(&self) -> u64 {
        self.degraded
    }

    /// Median latency, milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_ms
    }

    /// 95th-percentile latency, milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.p95_ms
    }

    /// Worst latency, milliseconds (exact).
    // Public for the tests in crates/serve/tests/telemetry_parity.rs.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Mean accuracy proxy of the levels that served this class.
    pub fn mean_keep(&self) -> f64 {
        self.mean_keep
    }

    /// Fraction of completed requests of this class that missed their
    /// deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.completed as f64
        }
    }
}

/// Aggregate statistics of everything a [`crate::Server`] has served.
///
/// A report is a *view* materialized from the server's telemetry registry
/// ([`ServeReport::from_snapshot`]); read through the accessor methods.
/// Latency percentiles come from a telemetry
/// [`Series`](heatvit::telemetry::Series): exact up to
/// [`MAX_SERIES_SAMPLES`](heatvit::telemetry::MAX_SERIES_SAMPLES) requests,
/// a deterministic even-spread sample beyond that; the maximum is always
/// exact.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests resolved.
    completed: u64,
    /// Batches flushed.
    batches: u64,
    /// Responses that resolved after their request's deadline.
    deadline_misses: u64,
    /// Flush counts per policy.
    flushes: FlushCounts,
    /// `(batch size, count)` pairs in ascending batch-size order.
    batch_histogram: Vec<(usize, u64)>,
    /// Mean formed-batch size.
    mean_batch: f64,
    /// Median request latency (submit → response), milliseconds (sampling
    /// bound in the type docs).
    p50_ms: f64,
    /// 95th-percentile request latency, milliseconds (nearest-rank; same
    /// sampling bound as `p50_ms`).
    p95_ms: f64,
    /// Worst request latency, milliseconds (always exact).
    max_ms: f64,
    /// Completed requests per second over the serving window (first
    /// submission to last resolved batch).
    throughput: f64,
    /// Per-SLO-class breakdown, [`Priority::High`] first.
    classes: [ClassReport; 2],
    /// Requests served per service level (index 0 = the most accurate
    /// level; a single-backend server has one entry).
    level_served: Vec<u64>,
    /// Requests served per executing lane (stolen batches count for the
    /// thief — this is who did the work, `level_served` is what model ran).
    lane_served: Vec<u64>,
    /// Requests each lane executed out of batches it stole from another
    /// lane's queue (a subset of `lane_served`).
    lane_steals: Vec<u64>,
    /// Highest queue depth each lane ever reached (its backlog high-water
    /// mark against [`crate::ServeConfig::queue_capacity`]).
    lane_queue_hwm: Vec<u64>,
    /// Mean `|predicted − measured| / measured` batch execution-time error
    /// of the server's latency model, percent, over warmed-up batches
    /// (each level's first batch is excluded as model cold start). `NaN`
    /// until a warmed-up batch completes.
    predicted_error_pct: f64,
}

impl ServeReport {
    /// Materializes a report from a telemetry registry snapshot — the one
    /// way live reports are built. Every column is read back from the
    /// `heatvit_serve_*` metric families (see [`crate::metrics::names`]);
    /// the parity test asserts the result is bitwise identical to the
    /// legacy locked-accumulator path on a replayed request trace
    /// (wall-clock fields excluded).
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        let counter_family = |name: &str, key: &str| -> Vec<u64> {
            snapshot
                .family_by(name, key)
                .into_iter()
                .map(|(_, m)| match m.value {
                    MetricValue::Counter(v) => v,
                    _ => 0,
                })
                .collect()
        };
        let flushes = FlushCounts {
            max_batch: snapshot.counter(names::FLUSH, &[("reason", "max_batch")]),
            deadline: 0,
            idle: snapshot.counter(names::FLUSH, &[("reason", "idle")]),
            shutdown: snapshot.counter(names::FLUSH, &[("reason", "shutdown")]),
            steal: snapshot.counter(names::FLUSH, &[("reason", "steal")]),
        };
        let batch_histogram: Vec<(usize, u64)> = snapshot
            .family_by(names::BATCH_SIZE, "size")
            .into_iter()
            .filter_map(|(size, m)| match m.value {
                MetricValue::Counter(n) if n > 0 => Some((size, n)),
                _ => None,
            })
            .collect();
        let total_in_batches: u64 = batch_histogram.iter().map(|(s, n)| (*s as u64) * n).sum();
        let percentiles = |name: &str, labels: &[(&str, &str)]| {
            snapshot
                .series(name, labels)
                .map(|s| s.percentiles_ms())
                .unwrap_or((0.0, 0.0, 0.0))
        };
        let (p50_ms, p95_ms, max_ms) = percentiles(names::LATENCY, &[]);
        let classes = [Priority::High, Priority::Normal].map(|class| {
            let labels = &[("class", class.label())][..];
            let completed = snapshot.counter(names::CLASS_COMPLETED, labels);
            let (p50_ms, p95_ms, max_ms) = percentiles(names::CLASS_LATENCY, labels);
            ClassReport {
                class,
                completed,
                deadline_misses: snapshot.counter(names::CLASS_MISSES, labels),
                sheds: snapshot.counter(names::CLASS_SHEDS, labels),
                degraded: snapshot.counter(names::CLASS_DEGRADED, labels),
                p50_ms,
                p95_ms,
                max_ms,
                mean_keep: if completed == 0 {
                    0.0
                } else {
                    snapshot.float_counter(names::CLASS_KEEP_SUM, labels) / completed as f64
                },
            }
        });
        let completed = snapshot.counter(names::COMPLETED, &[]);
        // Window gauges hold µs offsets + 1 (0 = unset); the +1 cancels in
        // the subtraction.
        let first = snapshot.gauge(names::WINDOW_FIRST_US, &[]);
        let last = snapshot.gauge(names::WINDOW_LAST_US, &[]);
        let window_us = if first == 0 || last == 0 {
            0
        } else {
            last.saturating_sub(first)
        };
        let error_batches = snapshot.counter(names::PREDICTION_BATCHES, &[]);
        ServeReport {
            completed,
            batches: flushes.total(),
            deadline_misses: snapshot.counter(names::DEADLINE_MISSES, &[]),
            flushes,
            batch_histogram,
            mean_batch: if flushes.total() == 0 {
                0.0
            } else {
                total_in_batches as f64 / flushes.total() as f64
            },
            p50_ms,
            p95_ms,
            max_ms,
            throughput: if window_us == 0 {
                0.0
            } else {
                completed as f64 / (window_us as f64 / 1e6)
            },
            classes,
            level_served: counter_family(names::LEVEL_SERVED, "level"),
            lane_served: counter_family(names::LANE_SERVED, "lane"),
            lane_steals: counter_family(names::LANE_STEALS, "lane"),
            lane_queue_hwm: snapshot
                .family_by(names::LANE_QUEUE_HWM, "lane")
                .into_iter()
                .map(|(_, m)| match m.value {
                    MetricValue::Gauge(v) => v,
                    _ => 0,
                })
                .collect(),
            predicted_error_pct: if error_batches == 0 {
                f64::NAN
            } else {
                100.0 * snapshot.float_counter(names::PREDICTION_ERROR_SUM, &[])
                    / error_batches as f64
            },
        }
    }

    /// Requests resolved.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Batches flushed.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Responses that resolved after their request's deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// Flush counts per policy.
    pub fn flushes(&self) -> FlushCounts {
        self.flushes
    }

    /// `(batch size, count)` pairs in ascending batch-size order.
    // Public for the tests in crates/serve/tests/{flush,telemetry_parity}.rs.
    pub fn batch_histogram(&self) -> &[(usize, u64)] {
        &self.batch_histogram
    }

    /// Mean formed-batch size.
    pub fn mean_batch(&self) -> f64 {
        self.mean_batch
    }

    /// Median request latency (submit → response), milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.p50_ms
    }

    /// 95th-percentile request latency, milliseconds.
    pub fn p95_ms(&self) -> f64 {
        self.p95_ms
    }

    /// Worst request latency, milliseconds (always exact).
    // Public for the tests in crates/serve/tests/telemetry_parity.rs.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Completed requests per second over the serving window.
    pub fn throughput(&self) -> f64 {
        self.throughput
    }

    /// Per-SLO-class breakdown, [`Priority::High`] first.
    pub fn classes(&self) -> &[ClassReport; 2] {
        &self.classes
    }

    /// Requests served per service level (index 0 = most accurate).
    pub fn level_served(&self) -> &[u64] {
        &self.level_served
    }

    /// Requests served per executing lane.
    pub fn lane_served(&self) -> &[u64] {
        &self.lane_served
    }

    /// Requests each lane executed out of stolen batches.
    pub fn lane_steals(&self) -> &[u64] {
        &self.lane_steals
    }

    /// Highest queue depth each lane ever reached.
    pub fn lane_queue_hwm(&self) -> &[u64] {
        &self.lane_queue_hwm
    }

    /// Mean relative batch execution-time prediction error, percent
    /// (`NaN` until a warmed-up batch completes).
    pub fn predicted_error_pct(&self) -> f64 {
        self.predicted_error_pct
    }

    /// Fraction of completed requests that missed their deadline.
    pub fn miss_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.completed as f64
        }
    }

    /// The [`ClassReport`] of one SLO class.
    pub fn class(&self, class: Priority) -> &ClassReport {
        &self.classes[if class == Priority::High { 0 } else { 1 }]
    }

    /// Total submissions refused by predictive admission across classes.
    pub fn sheds(&self) -> u64 {
        self.classes.iter().map(|c| c.sheds).sum()
    }

    /// Number of batcher/executor lanes this report covers.
    pub fn lanes(&self) -> usize {
        self.lane_served.len()
    }

    /// Total requests served out of stolen batches, across lanes.
    pub fn stolen(&self) -> u64 {
        self.lane_steals.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_counts_bump_and_total() {
        let mut counts = FlushCounts::default();
        counts.bump(FlushReason::MaxBatch);
        counts.bump(FlushReason::Idle);
        counts.bump(FlushReason::Idle);
        counts.bump(FlushReason::Shutdown);
        counts.bump(FlushReason::Steal);
        assert_eq!(counts.max_batch, 1);
        assert_eq!(counts.idle, 2);
        assert_eq!(counts.deadline, 0);
        assert_eq!(counts.steal, 1);
        assert_eq!(counts.total(), 5);
        for (i, reason) in FlushReason::ALL.into_iter().enumerate() {
            assert_eq!(reason.index(), i);
        }
    }

    #[test]
    fn stats_aggregate_into_a_report() {
        let mut stats = Stats::new(2, 1);
        let t0 = Instant::now();
        stats.record_first_submit(t0);
        stats.record_batch(2, FlushReason::MaxBatch, t0 + Duration::from_millis(10), 0);
        stats.record_response(Duration::from_millis(4), false, Priority::High, 0, 1.0, 0);
        stats.record_response(Duration::from_millis(8), true, Priority::Normal, 1, 0.7, 0);
        stats.record_batch(1, FlushReason::Idle, t0 + Duration::from_millis(20), 0);
        stats.record_response(Duration::from_millis(2), false, Priority::Normal, 0, 1.0, 0);
        let report = stats.report();
        assert_eq!(report.completed(), 3);
        assert_eq!(report.batches(), 2);
        assert_eq!(report.deadline_misses(), 1);
        assert!((report.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.batch_histogram(), vec![(1, 1), (2, 1)]);
        assert!((report.mean_batch() - 1.5).abs() < 1e-12);
        assert_eq!(report.p50_ms(), 4.0);
        assert_eq!(report.max_ms(), 8.0);
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn per_class_rows_split_correctly() {
        let mut stats = Stats::new(2, 1);
        stats.record_response(Duration::from_millis(1), false, Priority::High, 0, 1.0, 0);
        stats.record_response(Duration::from_millis(9), true, Priority::Normal, 1, 0.6, 0);
        stats.record_response(Duration::from_millis(3), false, Priority::Normal, 1, 0.8, 0);
        stats.record_shed(Priority::Normal);
        let report = stats.report();
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
    fn prediction_error_averages_over_batches() {
        let mut stats = Stats::new(1, 1);
        assert!(stats.report().predicted_error_pct().is_nan());
        stats.record_prediction_error(Duration::from_millis(11), Duration::from_millis(10));
        stats.record_prediction_error(Duration::from_millis(9), Duration::from_millis(10));
        let report = stats.report();
        assert!((report.predicted_error_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lane_rows_split_served_and_stolen_work() {
        let mut stats = Stats::new(1, 2);
        let t0 = Instant::now();
        // Lane 0 forms and executes a full batch of 3...
        stats.record_batch(3, FlushReason::MaxBatch, t0 + Duration::from_millis(1), 0);
        for _ in 0..3 {
            stats.record_response(Duration::from_millis(1), false, Priority::Normal, 0, 1.0, 0);
        }
        // ...and lane 1 steals and executes a batch of 2 off lane 0's queue.
        stats.record_batch(2, FlushReason::Steal, t0 + Duration::from_millis(2), 1);
        for _ in 0..2 {
            stats.record_response(Duration::from_millis(1), false, Priority::Normal, 0, 1.0, 1);
        }
        let report = stats.report();
        assert_eq!(report.lanes(), 2);
        assert_eq!(report.lane_served(), vec![3, 2]);
        assert_eq!(report.lane_steals(), vec![0, 2]);
        assert_eq!(report.stolen(), 2);
        assert_eq!(report.flushes().steal, 1);
        // Every stolen request still lands in the per-level row.
        assert_eq!(report.level_served(), vec![5]);
    }
}
