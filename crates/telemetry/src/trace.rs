//! Lightweight per-request span tracing: plain-numeric [`TraceEvent`]s
//! pushed into a bounded ring-buffer [`SpanRecorder`].
//!
//! Spans are deliberately *not* a metrics substitute — they are the raw
//! event stream: one [`BatchSpan`] per flushed batch, one [`RequestSpan`]
//! per resolved request, one [`ShedSpan`] per refused admission, in the
//! exact order the serving side recorded them. That ordering is load-
//! bearing: replaying the ring through a reference accumulator must
//! reproduce the live metrics bit-for-bit (the parity suite in
//! `heatvit-serve` does exactly that). When the ring fills, the oldest
//! events are dropped and counted — recording never blocks progress on
//! capacity.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One resolved request's span: what it was, where it ran, how long it
/// took. Durations are µs offsets/elapsed so events stay plain numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpan {
    /// SLO class index (`Priority::index()`: 0 = High, 1 = Normal).
    pub class: usize,
    /// Service level that executed it (0 = most accurate).
    pub level: usize,
    /// Lane that executed its batch.
    pub lane: usize,
    /// Submit → batch-start wait, µs.
    pub queued_us: u64,
    /// Submit → resolve latency, µs.
    pub total_us: u64,
    /// Whether it resolved after its deadline.
    pub missed: bool,
    /// The serving level's accuracy proxy (token keep fraction vs dense).
    pub keep: f64,
    /// Size of the batch it rode in.
    pub batch_size: usize,
}

/// One flushed batch's span.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpan {
    /// Lane that executed the batch.
    pub lane: usize,
    /// Service level the batch ran at.
    pub level: usize,
    /// Requests in the batch.
    pub size: usize,
    /// Flush policy label (`"max_batch"`, `"idle"`, `"shutdown"`,
    /// `"steal"`).
    pub reason: &'static str,
    /// The latency model's µs prediction for this batch (made before the
    /// measurement fed back).
    pub predicted_us: u64,
    /// Measured execution, µs.
    pub measured_us: u64,
    /// Whether this batch scored the prediction-error metric (false for
    /// each level's warm-up batch).
    pub scored: bool,
    /// Batch completion as a µs offset from server start.
    pub done_off_us: u64,
}

/// One refused admission's span.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedSpan {
    /// SLO class index of the refused request.
    pub class: usize,
    /// The cheapest level's predicted latency that still missed, µs.
    pub predicted_us: u64,
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A resolved request.
    Request(RequestSpan),
    /// A flushed batch.
    Batch(BatchSpan),
    /// A refused admission.
    Shed(ShedSpan),
}

#[derive(Debug)]
struct RecorderInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

/// A bounded ring buffer of [`TraceEvent`]s. Recording takes a short mutex
/// (one push, possibly one pop); when full, the oldest event is dropped
/// and counted rather than blocking the recorder.
#[derive(Debug)]
pub struct SpanRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
}

impl SpanRecorder {
    /// A recorder retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "span recorder capacity must be positive");
        Self {
            inner: Mutex::new(RecorderInner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                dropped: 0,
            }),
            capacity,
        }
    }

    /// Appends one event, evicting (and counting) the oldest when full.
    pub fn record(&self, event: TraceEvent) {
        let mut inner = self.inner.lock().expect("span recorder poisoned");
        if inner.events.len() >= self.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Drains the retained events, oldest first.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut inner = self.inner.lock().expect("span recorder poisoned");
        inner.events.drain(..).collect()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("span recorder poisoned").dropped
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("span recorder poisoned")
            .events
            .len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shed(class: usize) -> TraceEvent {
        TraceEvent::Shed(ShedSpan {
            class,
            predicted_us: 0,
        })
    }

    #[test]
    fn ring_preserves_order_and_bounds_memory() {
        let recorder = SpanRecorder::new(3);
        for class in 0..5 {
            recorder.record(shed(class));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.dropped(), 2);
        let classes: Vec<usize> = recorder
            .take()
            .iter()
            .map(|e| match e {
                TraceEvent::Shed(s) => s.class,
                _ => unreachable!(),
            })
            .collect();
        // Oldest two evicted, order preserved.
        assert_eq!(classes, vec![2, 3, 4]);
    }

    #[test]
    fn take_drains_without_resetting_the_drop_count() {
        let recorder = SpanRecorder::new(2);
        recorder.record(shed(0));
        recorder.record(shed(1));
        recorder.record(shed(2));
        assert_eq!(recorder.take().len(), 2);
        assert!(recorder.is_empty());
        assert_eq!(recorder.dropped(), 1);
        assert_eq!(recorder.capacity(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = SpanRecorder::new(0);
    }
}
