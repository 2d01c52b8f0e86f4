//! The benchmark's own span recorder: spans live in memory while a traced
//! run measures and are written out once, at exit, as Chrome trace-event
//! JSON (load in `chrome://tracing` or Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name (`image`, `stage2`, `attention`, `queued`, …).
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation (image or request).
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a stack of open spans for parent links.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds from the recorder's origin to `at` (0 if earlier).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Times `f` as a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name, op);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Records a span whose boundaries were observed elsewhere (a request's
    /// queue wait reported by the server, say). Returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Copies the spans of operation `op` from `other`, keeping their tree,
    /// placing them on this recorder's clock and stretching them by `scale`
    /// about the operation's first instant (how a traced run restates one
    /// operation's spans at the reference speed).
    pub fn adopt(&mut self, other: &Recorder, op: u64, scale: f64) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let of_op = || other.spans.iter().enumerate().filter(|(_, s)| s.op == op);
        let Some(first) = of_op().map(|(_, s)| s.start_ns).min() else {
            return;
        };
        let place = |ns: u64| first + shift + ((ns - first) as f64 * scale).round() as u64;
        let mut moved: Vec<(usize, usize)> = Vec::new();
        for (index, span) in of_op() {
            let parent = span
                .parent
                .and_then(|p| moved.iter().find(|(from, _)| *from == p).map(|(_, to)| *to));
            moved.push((index, self.spans.len()));
            self.spans.push(Span {
                start_ns: place(span.start_ns),
                end_ns: place(span.end_ns),
                parent,
                ..span.clone()
            });
        }
    }

    /// Every span recorded so far, in start order of `enter`/`push` calls.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur_ns() - covered
    }

    /// Total duration in nanoseconds of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Total self time in nanoseconds of every span named `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }

    /// Renders the spans as Chrome trace-event JSON: one complete (`"X"`)
    /// event per span, microsecond timestamps, one track (`tid`) per
    /// operation so concurrent requests do not overlap on a track.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn recorder_with(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::default();
        let t0 = r.origin;
        for &(name, a, b, parent) in spans {
            r.push(
                name,
                t0 + Duration::from_nanos(a),
                t0 + Duration::from_nanos(b),
                parent,
                0,
            );
        }
        r
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let r = recorder_with(&[
            ("block", 0, 100, None),
            ("attention", 10, 40, Some(0)),
            // Adjacent to the first child: no gap, no double counting.
            ("mlp", 40, 90, Some(0)),
            // A grandchild covers part of `mlp`, not of `block`.
            ("fc1", 50, 70, Some(2)),
        ]);
        assert_eq!(r.self_ns(0), 20);
        assert_eq!(r.self_ns(1), 30);
        assert_eq!(r.self_ns(2), 30);
        assert_eq!(r.self_ns(3), 20);
        assert_eq!(r.total_ns("block"), 100);
        assert_eq!(r.total_self_ns("mlp"), 30);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let r = recorder_with(&[
            ("request", 0, 100, None),
            ("queued", 10, 60, Some(0)),
            ("service", 50, 90, Some(0)),
            // Reaches past the parent: clipped to it.
            ("late", 95, 130, Some(0)),
        ]);
        assert_eq!(r.self_ns(0), 100 - 80 - 5);
    }

    #[test]
    fn adopt_keeps_one_operations_tree_and_stretches_it() {
        let mut from = recorder_with(&[
            ("image", 0, 50, None),
            ("image", 60, 100, None),
            ("block", 70, 90, Some(1)),
        ]);
        from.spans[1].op = 1;
        from.spans[2].op = 1;
        let mut to = recorder_with(&[("image", 0, 10, None)]);
        to.adopt(&from, 1, 0.5);
        assert_eq!(to.spans().len(), 3);
        assert_eq!(to.spans()[1].parent, None);
        assert_eq!(to.spans()[2].parent, Some(1));
        assert_eq!(to.spans()[1].dur_ns(), 20);
        assert_eq!(to.spans()[2].dur_ns(), 10);
        assert_eq!(to.spans()[2].start_ns - to.spans()[1].start_ns, 5);
        // An operation the other recorder never saw adds nothing.
        to.adopt(&from, 9, 1.0);
        assert_eq!(to.spans().len(), 3);
    }

    #[test]
    fn enter_exit_links_parents_and_renders_chrome_events() {
        let mut r = Recorder::default();
        let outer = r.enter("image", 7);
        r.scope("stage0", 7, |r| {
            let inner = r.enter("probe", 7);
            r.exit(inner);
        });
        r.exit(outer);
        assert_eq!(r.spans()[1].parent, Some(outer));
        assert_eq!(r.spans()[2].parent, Some(1));
        let json = r.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"name\":\"stage0\""));
        assert!(json.trim_end().ends_with("]}"));
    }
}
