//! Minimal hand-rolled JSON emission plus the [`Emitter`] behind
//! `serve_demo`'s report.
//!
//! The workspace deliberately carries no serialization dependency, and the
//! report is flat: a handful of metadata fields plus arrays of per-run
//! objects. This module provides just enough — an ordered [`JsonObject`]
//! builder, an [`array()`] joiner, and the [`Emitter`] that standardizes
//! the `--json <path>` protocol (leading `"bench"` key, file write,
//! `wrote <path>` confirmation) — to emit `BENCH_serve.json` without
//! pulling in serde. Numbers are written with
//! at most four decimals (trailing zeros trimmed) so committed reports
//! stay readable in diffs; non-finite floats become `null` rather than
//! invalid JSON.
//!
//! This module started life in `heatvit-bench`; it lives here so the
//! telemetry exposition ([`crate::expo`]) and the bench binaries share one
//! JSON dialect (`heatvit-bench` re-exports it as `bench::json`).

use crate::registry::Snapshot;

/// The `--json <path>` report destination from the process arguments, if
/// requested; panics if `--json` is present without a path.
fn path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--json" {
            let path = args
                .next()
                .unwrap_or_else(|| panic!("--json requires a path argument"));
            return Some(std::path::PathBuf::from(path));
        }
    }
    None
}

/// An ordered JSON object under construction. Keys are emitted in
/// insertion order; the builder does not deduplicate keys (callers pass
/// literals, so duplicates would be a bug at the call site).
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<String>,
}

impl JsonObject {
    /// An empty object builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a floating-point field (at most four decimals, `null` if
    /// non-finite).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.fields
            .push(format!("{}: {}", escape(key), fmt_f64(value)));
        self
    }

    /// Adds an integer field (emitted exactly, no decimal point).
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.fields.push(format!("{}: {value}", escape(key)));
        self
    }

    /// Adds a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.fields
            .push(format!("{}: {}", escape(key), escape(value)));
        self
    }

    /// Adds a pre-rendered JSON value (a nested object or array) verbatim.
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.fields.push(format!("{}: {value}", escape(key)));
        self
    }

    /// Renders the object as a single-line JSON value.
    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(", "))
    }
}

/// Joins pre-rendered JSON values into an array, one element per line so
/// committed reports diff by row.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().map(|i| format!("  {i}")).collect();
    if body.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n]", body.join(",\n"))
    }
}

/// A JSON string literal: quoted, with `"`, `\`, and control characters
/// escaped. Bench labels are ASCII, but escaping keeps the output valid
/// JSON for any input.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// At most four decimals, trailing zeros (and a bare trailing dot)
/// trimmed; non-finite values become `null`.
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v:.4}");
    let trimmed = s.trim_end_matches('0').trim_end_matches('.');
    if trimmed.is_empty() || trimmed == "-" || trimmed == "-0" {
        "0".to_string()
    } else {
        trimmed.to_string()
    }
}

/// The one JSON report pipeline both bench binaries run through: a
/// [`JsonObject`] whose first field is always `"bench": <name>`, a
/// [`Emitter::metrics`] hook that embeds a telemetry [`Snapshot`], and a
/// [`Emitter::write_if_requested`] terminal that honors the shared
/// `--json <path>` protocol (write the report plus trailing newline, print
/// `wrote <path>`).
#[derive(Debug)]
pub struct Emitter {
    object: JsonObject,
}

impl Emitter {
    /// Starts a report for the bench named `bench` (the leading key every
    /// committed `BENCH_*.json` carries).
    pub fn new(bench: &str) -> Self {
        Self {
            object: JsonObject::new().str("bench", bench),
        }
    }

    /// Adds a floating-point field.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.object = self.object.num(key, value);
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.object = self.object.int(key, value);
        self
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.object = self.object.str(key, value);
        self
    }

    /// Adds a pre-rendered JSON value verbatim.
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.object = self.object.raw(key, value);
        self
    }

    /// Embeds a telemetry snapshot under `key` (the scalar rendering from
    /// [`crate::expo::render_json`]).
    pub fn metrics(mut self, key: &str, snapshot: &Snapshot) -> Self {
        self.object = self.object.raw(key, crate::expo::render_json(snapshot));
        self
    }

    /// Renders the report as a single JSON line (no trailing newline).
    pub fn build(self) -> String {
        self.object.build()
    }

    /// Writes the report to the `--json <path>` destination if the process
    /// was given one (trailing newline included, `wrote <path>` printed);
    /// returns whether a file was written.
    ///
    /// # Panics
    ///
    /// Panics if the destination cannot be written.
    pub fn write_if_requested(self) -> bool {
        let Some(path) = path_from_args() else {
            return false;
        };
        let report = self.build();
        std::fs::write(&path, report + "\n")
            .unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
        println!("\nwrote {}", path.display());
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn object_renders_fields_in_insertion_order() {
        let obj = JsonObject::new()
            .str("variant", "dense")
            .num("images_per_s", 1790.125)
            .int("batch", 32)
            .build();
        assert_eq!(
            obj,
            r#"{"variant": "dense", "images_per_s": 1790.125, "batch": 32}"#
        );
    }

    #[test]
    fn floats_trim_trailing_zeros_and_handle_edge_values() {
        assert_eq!(fmt_f64(3.5), "3.5");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(-0.00001), "0");
        assert_eq!(fmt_f64(0.12344), "0.1234"); // at most four decimals
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(escape("plain"), r#""plain""#);
    }

    #[test]
    fn array_emits_one_element_per_line() {
        let arr = array(vec!["1".to_string(), "2".to_string()]);
        assert_eq!(arr, "[\n  1,\n  2\n]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }

    #[test]
    fn nested_raw_values_compose() {
        let inner = JsonObject::new().str("k", "v").build();
        let outer = JsonObject::new().raw("rows", array(vec![inner])).build();
        assert_eq!(outer, "{\"rows\": [\n  {\"k\": \"v\"}\n]}");
    }

    #[test]
    fn emitter_leads_with_the_bench_key_and_embeds_snapshots() {
        let registry = Registry::new();
        registry
            .counter("hits", &[("lane", "0")], "per-lane hits")
            .add(3);
        let report = Emitter::new("demo")
            .int("requests", 7)
            .metrics("telemetry", &registry.snapshot())
            .build();
        assert!(report.starts_with(r#"{"bench": "demo", "requests": 7"#));
        assert!(report.contains(r#""name": "hits""#));
        assert!(report.contains(r#""lane": "0""#));
    }
}
