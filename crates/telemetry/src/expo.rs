//! Exposition: rendering a [`Snapshot`] as Prometheus-style text
//! ([`render_prometheus`]) or as a JSON value ([`render_json`]) in the
//! workspace's no-serde dialect ([`crate::json`]).

use crate::json::{array, escape, fmt_f64, JsonObject};
use crate::registry::{MetricSnapshot, MetricValue, Snapshot};
use std::fmt::Write as _;

fn type_of(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) | MetricValue::FloatCounter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
        MetricValue::Series(_) => "summary",
    }
}

/// `{k="v",k2="v2"}` (empty string when unlabeled); `extra` appends one
/// more pair (the `le`/`quantile` slot).
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot as Prometheus-style text exposition: one
/// `# HELP`/`# TYPE` header per metric name (first-seen help text wins for
/// a labeled family), then one sample line per metric. Histograms emit
/// cumulative `_bucket{le=...}` lines plus `_sum`/`_count`; series emit
/// summary `{quantile=...}` lines (0.5, 0.95, and 1 — the exact maximum)
/// plus `_count` (total observations, exact through decimation).
pub fn render_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut seen: Vec<&str> = Vec::new();
    for metric in &snapshot.metrics {
        if !seen.contains(&metric.name.as_str()) {
            seen.push(&metric.name);
            let _ = writeln!(out, "# HELP {} {}", metric.name, metric.help);
            let _ = writeln!(out, "# TYPE {} {}", metric.name, type_of(&metric.value));
        }
        let name = &metric.name;
        match &metric.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name}{} {v}", label_block(&metric.labels, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name}{} {v}", label_block(&metric.labels, None));
            }
            MetricValue::FloatCounter(v) => {
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    label_block(&metric.labels, None),
                    prom_f64(*v)
                );
            }
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (index, count) in h.buckets.iter().enumerate() {
                    cumulative += count;
                    let le = if index < h.boundaries_us.len() {
                        h.boundaries_us[index].to_string()
                    } else {
                        "+Inf".to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {cumulative}",
                        label_block(&metric.labels, Some(("le", &le)))
                    );
                }
                let labels = label_block(&metric.labels, None);
                let _ = writeln!(out, "{name}_sum{labels} {}", h.sum_us);
                let _ = writeln!(out, "{name}_count{labels} {}", h.count);
            }
            MetricValue::Series(s) => {
                let mut sorted = s.samples_us.clone();
                sorted.sort_unstable();
                for (q, label) in [(0.50, "0.5"), (0.95, "0.95")] {
                    let _ = writeln!(
                        out,
                        "{name}{} {}",
                        label_block(&metric.labels, Some(("quantile", label))),
                        crate::metrics::nearest_rank_us(&sorted, q)
                    );
                }
                let _ = writeln!(
                    out,
                    "{name}{} {}",
                    label_block(&metric.labels, Some(("quantile", "1"))),
                    s.max_us
                );
                let _ = writeln!(
                    out,
                    "{name}_count{} {}",
                    label_block(&metric.labels, None),
                    s.seen
                );
            }
        }
    }
    out
}

fn json_labels(metric: &MetricSnapshot) -> String {
    let fields: Vec<String> = metric
        .labels
        .iter()
        .map(|(k, v)| format!("{}: {}", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Renders a snapshot as a JSON array of metric objects (`name`, `labels`,
/// `type`, and a type-appropriate `value`): histograms carry bucket
/// boundaries/counts plus `count`/`sum_us`/`max_us`; series are summarized
/// to `p50_us`/`p95_us`/`max_us`/`count` (the reservoir itself stays
/// internal).
pub fn render_json(snapshot: &Snapshot) -> String {
    array(snapshot.metrics.iter().map(|metric| {
        let base = JsonObject::new()
            .str("name", &metric.name)
            .raw("labels", json_labels(metric))
            .str("type", type_of(&metric.value));
        match &metric.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => base.int("value", *v),
            MetricValue::FloatCounter(v) => base.raw("value", fmt_f64(*v)),
            MetricValue::Histogram(h) => base.raw(
                "value",
                JsonObject::new()
                    .raw(
                        "boundaries_us",
                        format!(
                            "[{}]",
                            h.boundaries_us
                                .iter()
                                .map(u64::to_string)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                    .raw(
                        "buckets",
                        format!(
                            "[{}]",
                            h.buckets
                                .iter()
                                .map(u64::to_string)
                                .collect::<Vec<_>>()
                                .join(", ")
                        ),
                    )
                    .int("count", h.count)
                    .int("sum_us", h.sum_us)
                    .int("max_us", h.max_us)
                    .build(),
            ),
            MetricValue::Series(s) => {
                let mut sorted = s.samples_us.clone();
                sorted.sort_unstable();
                base.raw(
                    "value",
                    JsonObject::new()
                        .int("p50_us", crate::metrics::nearest_rank_us(&sorted, 0.50))
                        .int("p95_us", crate::metrics::nearest_rank_us(&sorted, 0.95))
                        .int("max_us", s.max_us)
                        .int("count", s.seen)
                        .build(),
                )
            }
        }
        .build()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn demo_snapshot() -> Snapshot {
        let registry = Registry::new();
        registry
            .counter(
                "heatvit_serve_lane_served",
                &[("lane", "0")],
                "requests per lane",
            )
            .add(12);
        registry
            .counter(
                "heatvit_serve_lane_served",
                &[("lane", "1")],
                "requests per lane",
            )
            .add(3);
        registry
            .gauge(
                "heatvit_serve_lane_queue_depth",
                &[("lane", "0")],
                "live depth",
            )
            .set(4);
        let hist = registry.histogram("heatvit_serve_latency", &[], "latency µs", &[100, 1000]);
        for us in [50, 150, 5000] {
            hist.observe(us);
        }
        let series = registry.series("heatvit_serve_latency_exact", &[], "exact latency µs");
        for us in [10, 20, 30, 40] {
            series.record(us);
        }
        registry
            .float_counter("heatvit_serve_keep_sum", &[], "keep sum")
            .add(1.5);
        registry.snapshot()
    }

    #[test]
    fn prometheus_text_has_headers_and_family_lines() {
        let text = render_prometheus(&demo_snapshot());
        assert!(text.contains("# HELP heatvit_serve_lane_served requests per lane"));
        assert!(text.contains("# TYPE heatvit_serve_lane_served counter"));
        assert!(text.contains("heatvit_serve_lane_served{lane=\"0\"} 12"));
        assert!(text.contains("heatvit_serve_lane_served{lane=\"1\"} 3"));
        // The HELP/TYPE header appears once for the whole family.
        assert_eq!(text.matches("# TYPE heatvit_serve_lane_served").count(), 1);
        assert!(text.contains("heatvit_serve_lane_queue_depth{lane=\"0\"} 4"));
        assert!(text.contains("heatvit_serve_keep_sum 1.5"));
    }

    #[test]
    fn prometheus_histograms_are_cumulative_with_inf_bucket() {
        let text = render_prometheus(&demo_snapshot());
        assert!(text.contains("heatvit_serve_latency_bucket{le=\"100\"} 1"));
        assert!(text.contains("heatvit_serve_latency_bucket{le=\"1000\"} 2"));
        assert!(text.contains("heatvit_serve_latency_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("heatvit_serve_latency_sum 5200"));
        assert!(text.contains("heatvit_serve_latency_count 3"));
    }

    #[test]
    fn prometheus_series_render_as_summaries() {
        let text = render_prometheus(&demo_snapshot());
        assert!(text.contains("heatvit_serve_latency_exact{quantile=\"0.5\"} 20"));
        assert!(text.contains("heatvit_serve_latency_exact{quantile=\"0.95\"} 40"));
        assert!(text.contains("heatvit_serve_latency_exact{quantile=\"1\"} 40"));
        assert!(text.contains("heatvit_serve_latency_exact_count 4"));
    }

    #[test]
    fn json_rendering_is_loadable_shape() {
        let json = render_json(&demo_snapshot());
        assert!(json.starts_with("[\n"));
        assert!(json.contains(r#""name": "heatvit_serve_lane_served""#));
        assert!(json.contains(r#""labels": {"lane": "0"}"#));
        assert!(json.contains(r#""type": "histogram""#));
        assert!(json.contains(r#""boundaries_us": [100, 1000]"#));
        assert!(json.contains(r#""p95_us": 40"#));
        // Balanced brackets: every open brace closes (cheap structural check).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
