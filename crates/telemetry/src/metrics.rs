//! Metric primitives: atomic [`Counter`]/[`FloatCounter`]/[`Gauge`], the
//! fixed-boundary [`Histogram`], and the exact bounded-reservoir
//! [`Series`].
//!
//! Everything except [`Series`] records through plain atomics — no lock is
//! ever taken on a hot path. `Series` is the one deliberately-locked
//! metric: it retains an exact (then deterministically decimated) sample
//! reservoir so nearest-rank percentiles match offline computation
//! bit-for-bit, and its short critical section (one push, amortized
//! decimation) is the price of that exactness.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing `u64` counter (lock-free).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A monotonically increasing `f64` accumulator (lock-free: the value lives
/// as bits in an `AtomicU64`, added through a compare-and-swap loop).
///
/// Because floating-point addition is order-sensitive, concurrent adders
/// produce an order-dependent (though always consistent) sum; a
/// single-writer `FloatCounter` accumulates exactly the same bits as a
/// plain `f64 +=` sequence — which is what makes snapshot-derived means
/// bitwise comparable to a replayed reference implementation.
#[derive(Debug, Default)]
pub struct FloatCounter {
    bits: AtomicU64,
}

impl FloatCounter {
    /// Adds `v` to the running sum.
    pub fn add(&self, v: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Current sum.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A settable `u64` level (queue depth, high-water mark, ledger balance) —
/// lock-free, with the read-modify-write helpers the serving ledgers need.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Stores `v` (release ordering, so a subsequent acquire [`Gauge::get`]
    /// on another thread observes it — the queue-depth mirror relies on
    /// this).
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Release);
    }

    /// Current value (acquire ordering, pairing with [`Gauge::set`]).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Adds `n` (a ledger charge).
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (a ledger refund that must never
    /// wrap when charges and refunds race).
    pub fn sub_saturating(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Raises the gauge to `v` if above the current value (a high-water
    /// mark).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Stores `v` only if the gauge still holds zero (a write-once marker,
    /// e.g. a window-open timestamp). Returns whether this call set it.
    pub fn set_if_unset(&self, v: u64) -> bool {
        self.value
            .compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    }
}

/// A fixed-boundary histogram over microsecond observations (lock-free:
/// one atomic bucket increment plus count/sum/max updates per observation).
///
/// Bucket `i` counts observations `<= boundaries[i]` (Prometheus `le`
/// semantics, non-cumulative internally); one implicit overflow bucket
/// catches the rest. The exact maximum is tracked separately so the worst
/// case never hides inside the overflow bucket. Percentiles are
/// nearest-rank over bucket upper bounds — bounded-resolution by design;
/// pair the histogram with a [`Series`] where exact percentiles matter.
#[derive(Debug)]
pub struct Histogram {
    boundaries_us: Vec<u64>,
    /// `boundaries_us.len() + 1` buckets; the last is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// A histogram over ascending `boundaries_us` (strictly increasing,
    /// non-empty).
    ///
    /// # Panics
    ///
    /// Panics if the boundaries are empty or not strictly ascending.
    pub fn new(boundaries_us: &[u64]) -> Self {
        assert!(!boundaries_us.is_empty(), "histogram needs >= 1 boundary");
        assert!(
            boundaries_us.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly ascending"
        );
        Self {
            boundaries_us: boundaries_us.to_vec(),
            buckets: (0..=boundaries_us.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        let index = self
            .boundaries_us
            .partition_point(|&b| b < us)
            .min(self.boundaries_us.len());
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            boundaries_us: self.boundaries_us.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The histogram's ascending bucket boundaries (µs, `le` semantics).
    pub boundaries_us: Vec<u64>,
    /// Non-cumulative per-bucket counts, one extra overflow bucket at the
    /// end.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, µs.
    pub sum_us: u64,
    /// Exact maximum observation, µs.
    pub max_us: u64,
}

/// Hard cap on retained [`Series`] samples: when the reservoir fills, it is
/// decimated (every other sample kept) and the sampling stride doubles, so
/// memory stays bounded on a long-running server while percentiles remain
/// representative. Exact for the first 64k observations, a deterministic
/// 1-in-2ᵏ even spread thereafter; the maximum stays exact regardless.
pub const MAX_SERIES_SAMPLES: usize = 1 << 16;

/// The exact (bounded) sample reservoir behind a [`Series`].
#[derive(Debug)]
struct SeriesInner {
    samples_us: Vec<u64>,
    /// Record every `stride`-th observation (1 until the first decimation,
    /// then doubling).
    stride: u64,
    /// Observations seen, driving the stride phase.
    seen: u64,
    /// Exact worst observation.
    max_us: u64,
}

impl Default for SeriesInner {
    fn default() -> Self {
        Self {
            samples_us: Vec::new(),
            stride: 1,
            seen: 0,
            max_us: 0,
        }
    }
}

/// A bounded exact-sample series: every observation is retained (up to
/// [`MAX_SERIES_SAMPLES`], then a deterministic even-spread decimation), so
/// nearest-rank percentiles over a snapshot are *bitwise identical* to the
/// same computation over the raw observation stream. The one mutex-guarded
/// metric — see the module docs for why.
#[derive(Debug, Default)]
pub struct Series {
    inner: Mutex<SeriesInner>,
}

impl Series {
    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        let mut inner = self.inner.lock().expect("series poisoned");
        inner.max_us = inner.max_us.max(us);
        if inner.seen.is_multiple_of(inner.stride) {
            inner.samples_us.push(us);
            if inner.samples_us.len() >= MAX_SERIES_SAMPLES {
                // Decimate: keep every other retained sample and halve the
                // future sampling rate. Deterministic, bounded, and the
                // kept samples stay an even spread over the whole history.
                let mut index = 0usize;
                inner.samples_us.retain(|_| {
                    let keep = index.is_multiple_of(2);
                    index += 1;
                    keep
                });
                inner.stride *= 2;
            }
        }
        inner.seen += 1;
    }

    /// A point-in-time copy of the reservoir.
    pub fn snapshot(&self) -> SeriesSnapshot {
        let inner = self.inner.lock().expect("series poisoned");
        SeriesSnapshot {
            samples_us: inner.samples_us.clone(),
            seen: inner.seen,
            max_us: inner.max_us,
        }
    }
}

/// A point-in-time copy of a [`Series`] reservoir.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Retained samples in observation order (exact up to
    /// [`MAX_SERIES_SAMPLES`], then an even-spread decimation).
    pub samples_us: Vec<u64>,
    /// Total observations (exact through decimation).
    pub seen: u64,
    /// Exact worst observation, µs.
    pub max_us: u64,
}

impl SeriesSnapshot {
    /// `(p50_ms, p95_ms, max_ms)` over everything recorded — nearest-rank
    /// percentiles over the retained samples, the exact maximum.
    pub fn percentiles_ms(&self) -> (f64, f64, f64) {
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        (
            nearest_rank_us(&sorted, 0.50) as f64 / 1e3,
            nearest_rank_us(&sorted, 0.95) as f64 / 1e3,
            self.max_us as f64 / 1e3,
        )
    }
}

/// Nearest-rank percentile over an ascending-sorted slice of microsecond
/// observations (0 for an empty slice).
pub fn nearest_rank_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let counter = Counter::default();
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);

        let gauge = Gauge::default();
        gauge.set(7);
        gauge.add(3);
        gauge.sub_saturating(100);
        assert_eq!(gauge.get(), 0);
        gauge.set_max(9);
        gauge.set_max(4);
        assert_eq!(gauge.get(), 9);
    }

    #[test]
    fn gauge_set_if_unset_is_write_once() {
        let gauge = Gauge::default();
        assert!(gauge.set_if_unset(5));
        assert!(!gauge.set_if_unset(9));
        assert_eq!(gauge.get(), 5);
    }

    #[test]
    fn float_counter_matches_sequential_sum_bitwise() {
        let counter = FloatCounter::default();
        let mut reference = 0.0f64;
        for i in 0..100 {
            let v = (i as f64) * 0.3 + 0.1;
            counter.add(v);
            reference += v;
        }
        assert_eq!(counter.get().to_bits(), reference.to_bits());
    }

    #[test]
    fn concurrent_counter_increments_from_n_threads() {
        // The loom-style interleaving check from the issue: N scoped
        // threads hammer one counter, one float counter, and one gauge
        // ledger; no increment may be lost.
        let counter = Counter::default();
        let float = FloatCounter::default();
        let ledger = Gauge::default();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        counter.inc();
                        float.add(0.5);
                        ledger.add(2);
                        ledger.sub_saturating(1);
                    }
                });
            }
        });
        let total = THREADS as u64 * PER_THREAD;
        assert_eq!(counter.get(), total);
        assert_eq!(float.get(), total as f64 * 0.5);
        assert_eq!(ledger.get(), total);
    }

    #[test]
    fn histogram_bucket_boundaries_are_le_inclusive() {
        // The bucket-boundary coverage from the issue: observations on,
        // below, and above each boundary land in the right bucket.
        let hist = Histogram::new(&[10, 100, 1000]);
        hist.observe(0); // <= 10
        hist.observe(10); // == 10, still the first bucket (le semantics)
        hist.observe(11); // first value past the boundary
        hist.observe(100);
        hist.observe(500);
        hist.observe(1000);
        hist.observe(1001); // overflow bucket
        let snap = hist.snapshot();
        assert_eq!(snap.buckets, vec![2, 2, 2, 1]);
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum_us, 2622);
        assert_eq!(snap.max_us, 1001);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn histogram_rejects_unsorted_boundaries() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    fn concurrent_histogram_observations_lose_nothing() {
        let hist = Histogram::new(&[100, 10_000]);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 5_000;
        let hist = &hist;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        hist.observe((t as u64 * PER_THREAD + i) % 20_000);
                    }
                });
            }
        });
        let snap = hist.snapshot();
        assert_eq!(snap.count, THREADS as u64 * PER_THREAD);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    fn series_stays_bounded_and_keeps_exact_max() {
        let series = Series::default();
        let total = MAX_SERIES_SAMPLES * 4;
        for i in 0..total {
            series.record(i as u64 + 1);
        }
        let snap = series.snapshot();
        assert!(snap.samples_us.len() < MAX_SERIES_SAMPLES);
        assert_eq!(snap.seen, total as u64);
        assert_eq!(snap.max_us, total as u64);
        let (p50, _, max) = snap.percentiles_ms();
        assert_eq!(max, total as f64 / 1e3);
        let mid = total as f64 / 1e3 / 2.0;
        assert!((p50 - mid).abs() < mid * 0.05, "{p50}");
    }

    #[test]
    fn nearest_rank_matches_reference_points() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank_us(&v, 0.50), 50);
        assert_eq!(nearest_rank_us(&v, 0.95), 95);
        assert_eq!(nearest_rank_us(&v, 1.0), 100);
        assert_eq!(nearest_rank_us(&[7], 0.95), 7);
        assert_eq!(nearest_rank_us(&[], 0.95), 0);
        assert_eq!(nearest_rank_us(&[1, 2], 0.50), 1);
    }
}
