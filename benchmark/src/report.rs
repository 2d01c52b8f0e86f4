//! What a run hands back and how it is printed.

use crate::catalogue::{self, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric values keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the catalogue has no metric `name` or it was already set —
    /// either is a bug in the benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        catalogue::unit_of(name);
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Whether every correctness gate held.
    pub correct: bool,
    /// Operations attempted (calls × rounds, or requests offered).
    pub attempted: u64,
    /// Operations that failed (see the README's failure accounting).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// One line per failed gate, and other remarks for the reader.
    pub notes: Vec<String>,
}

/// Records the failure of a correctness gate.
#[derive(Debug, Default)]
pub struct Gates {
    failures: Vec<String>,
}

impl Gates {
    /// Checks one gate: notes `what` as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Whether every gate checked so far held.
    pub fn all_held(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failed gates, one line each.
    pub fn into_notes(self) -> Vec<String> {
        self.failures
            .into_iter()
            .map(|f| format!("GATE FAILED: {f}"))
            .collect()
    }
}

/// Names the result line must carry for `workload` in this mode, with the
/// value to print when the run did not set one: per-layer metrics of a
/// layer the workload bypasses read `0`.
///
/// # Panics
///
/// Panics if the run left out a metric it owes, set one it does not
/// measure, or produced a non-finite value.
fn complete(workload: Workload, traced: bool, metrics: &Metrics) -> Vec<(&'static str, f64)> {
    let owed: Vec<(&'static str, bool)> = if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.measured_on(workload)))
            .collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, true)).collect()
    };
    let out: Vec<(&'static str, f64)> = owed
        .iter()
        .map(|&(name, measured)| match (metrics.get(name), measured) {
            (Some(v), true) => {
                assert!(v.is_finite(), "{name} is not finite on {}", workload.name());
                (name, v)
            }
            (None, false) => (name, 0.0),
            (None, true) => panic!("{} did not report {name}", workload.name()),
            (Some(_), false) => panic!(
                "{} reported {name}, which it does not measure",
                workload.name()
            ),
        })
        .collect();
    for name in metrics.0.keys() {
        assert!(
            owed.iter().any(|(n, _)| n == name),
            "{name} does not belong to this mode's result line"
        );
    }
    out
}

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(workload: Workload, traced: bool, result: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct,
        result.attempted.max(1),
        result.failed
    );
    for (i, (name, value)) in complete(workload, traced, &result.metrics)
        .into_iter()
        .enumerate()
    {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` on an f64 prints the shortest text that reads back exactly.
        write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            catalogue::unit_of(name)
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end() -> Metrics {
        let mut m = Metrics::default();
        for (i, e) in END_TO_END.iter().enumerate() {
            m.set(e.name, 1.5 + i as f64);
        }
        m
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let result = RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: end_to_end(),
            notes: Vec::new(),
        };
        let line = result_line(Workload::DeitDenseB1, false, &result);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"images_per_s\": {\"value\": 1.5, \"unit\": \"img/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 5.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n') && line.ends_with("}}"));
    }

    #[test]
    fn bypassed_layers_read_zero_in_a_traced_line() {
        let mut m = Metrics::default();
        for p in PER_LAYER
            .iter()
            .filter(|p| p.measured_on(Workload::DeitDenseB1))
        {
            m.set(p.name, 2.0);
        }
        let result = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: m,
            notes: Vec::new(),
        };
        let line = result_line(Workload::DeitDenseB1, true, &result);
        assert!(line.contains("\"serve.queue_wait_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(line.contains("\"vit.block.us\": {\"value\": 2, \"unit\": \"us\"}"));
        assert_eq!(line.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "did not report")]
    fn a_missing_owed_metric_is_a_bug() {
        let result = RunResult {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Metrics::default(),
            notes: Vec::new(),
        };
        result_line(Workload::DeitDenseB1, false, &result);
    }

    #[test]
    fn gates_collect_failures() {
        let mut gates = Gates::default();
        gates.check(true, || unreachable!());
        assert!(gates.all_held());
        gates.check(false, || "walk differs".to_string());
        assert!(!gates.all_held());
        assert_eq!(gates.into_notes(), vec!["GATE FAILED: walk differs"]);
    }
}
