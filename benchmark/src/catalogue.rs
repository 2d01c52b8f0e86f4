//! The one place that names workloads and metrics. `--list`, the result
//! line and `BENCHMARK.json` are all generated from these tables, so they
//! cannot drift apart (a unit test compares the committed `BENCHMARK.json`
//! with [`benchmark_json`]).

use std::fmt::Write as _;

/// Seconds one run measures at the catalogue's operation counts. `--seconds`
/// scales the counts in proportion; it never makes run length depend on
/// measured speed, so parent and change do identical work.
pub const RUN_SECONDS: u32 = 10;

/// The command `BENCHMARK.json` tells the driver to run from the repository
/// root (`--workload`, `--seed`, `--seconds`, `--trace` are appended).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The benchmark's own directory (the only entry of `paths`).
pub const PATHS: [&str; 1] = ["benchmark"];

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// DeiT-T dense f32, one image per call.
    DeitDenseB1,
    /// DeiT-T with three learned-selector stages, one image per call.
    DeitPrunedB1,
    /// DeiT-T int8-dense, one image per call.
    DeitInt8B1,
    /// The pruned model through `Engine::infer_batch`, 16 images, 2 threads.
    DeitPrunedB16T2,
    /// Micro ladder behind the server below saturation.
    ServeMicroNominal,
    /// The same server well above what it can resolve.
    ServeMicroOverload,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 6] = [
        Workload::DeitDenseB1,
        Workload::DeitPrunedB1,
        Workload::DeitInt8B1,
        Workload::DeitPrunedB16T2,
        Workload::ServeMicroNominal,
        Workload::ServeMicroOverload,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DeitDenseB1 => "deit_dense_b1",
            Workload::DeitPrunedB1 => "deit_pruned_b1",
            Workload::DeitInt8B1 => "deit_int8_b1",
            Workload::DeitPrunedB16T2 => "deit_pruned_b16_t2",
            Workload::ServeMicroNominal => "serve_micro_nominal",
            Workload::ServeMicroOverload => "serve_micro_overload",
        }
    }

    /// Why the workload exists: what it stresses and what it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DeitDenseB1 => {
                "DeiT-T dense f32 per image: all time in tensor/nn/vit kernels; selector, quant and \
                 serve are bypassed, so it is the reference every ratio is taken against"
            }
            Workload::DeitPrunedB1 => {
                "same backbone and images with three selector stages and package token: selector \
                 scoring, repacking and GEMMs at shrinking token counts; the MAC-vs-time gap"
            }
            Workload::DeitInt8B1 => {
                "int8-dense on the same images: quant does the work and the f32 GEMM is bypassed, \
                 so an f32-kernel change must not move it"
            }
            Workload::DeitPrunedB16T2 => {
                "the pruned model in batches of 16 on 2 engine threads: batch assembly, scratch \
                 pool and sharding, which the b1 workloads bypass"
            }
            Workload::ServeMicroNominal => {
                "micro ladder behind the server, open loop at a fixed rate below capacity: queue, \
                 flush timer, admission and telemetry dominate; latency is the sensitive number"
            }
            Workload::ServeMicroOverload => {
                "same server at a fixed rate well above what it can resolve: degradation ladder, \
                 shedding and batching under backlog; goodput is the sensitive number"
            }
        }
    }

    /// Looks a workload up by its `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// This workload's bit in a [`PerLayer::on`] mask.
    pub fn bit(self) -> u8 {
        1 << Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("every workload is in ALL")
    }

    /// Whether this is one of the two serving workloads.
    pub fn is_serve(self) -> bool {
        self.bit() & SERVE != 0
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see; every workload reports all of
/// them from its untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Definition, for `--list` and the README.
    pub what: &'static str,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "images_per_s",
        unit: "img/s",
        better: Better::Higher,
        bound: 0.15,
        what: "deit: images / sum of per-call medians over the rounds, at the reference speed; \
               serve: responses resolved inside their deadline / schedule seconds (refused or \
               late requests earn nothing), at the workload's rank among its rounds",
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        what: "deit: median over calls of the call's median over rounds (per batch on b16_t2); \
               serve: median due-to-completion time of the responses inside their deadline",
    },
    EndToEnd {
        name: "latency_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "the highest of p99/p95/p90/p75 of the same samples that has at least ten samples \
               beyond it (p75 of 40 calls on deit_pruned_b1, p99 on serve; p75 of the 4 to 28 \
               calls of the other deit workloads, where compute is the same for every call and \
               the tail only shows noise); image-adaptive tail on pruned, queueing tail on serve",
    },
    EndToEnd {
        name: "gmac_per_image",
        unit: "GMAC",
        better: Better::Lower,
        bound: 0.05,
        what: "mean multiply-accumulates executed per image (packed-DSP-equivalent on int8; on \
               serve, of the High requests, which run the most accurate level); moves only if \
               the arithmetic changed - guards 'faster by pruning harder'",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "image generation + model build + threshold/int8/EWMA calibration + warm-up, at \
               the reference speed; median of the set-ups spread through the run",
    },
];

/// Masks for [`PerLayer::on`].
pub const DENSE: u8 = 1;
/// See [`DENSE`].
pub const PRUNED: u8 = 2;
/// See [`DENSE`].
pub const INT8: u8 = 4;
/// See [`DENSE`].
pub const B16: u8 = 8;
/// See [`DENSE`].
pub const NOMINAL: u8 = 16;
/// See [`DENSE`].
pub const OVERLOAD: u8 = 32;
/// The workloads that run a `PrunedViT`.
pub const SELECT: u8 = PRUNED | B16;
/// The f32 DeiT workloads (the ones a layer walk can replay from outside).
pub const WALK: u8 = DENSE | PRUNED | B16;
/// Every DeiT workload.
pub const DEIT: u8 = WALK | INT8;
/// Both serving workloads.
pub const SERVE: u8 = NOMINAL | OVERLOAD;
/// Every workload.
pub const ALL: u8 = DEIT | SERVE;

/// A metric of one layer (the layers are the crate names), reported by the
/// traced run only and never bounded.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name; the part before the first `.` is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Workloads whose traced run measures it. The others bypass the layer
    /// (or cannot observe it from outside) and report `0`.
    pub on: u8,
}

const fn rate(name: &'static str, unit: &'static str, on: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        on,
    }
}

const fn cost(name: &'static str, unit: &'static str, on: u8) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        on,
    }
}

/// The per-layer metrics. Kernel rows (`tensor.*`, `nn.*`, `quant.qgemm.*`,
/// `vit.attention/block.*`) are timed at the workload's own geometry: 197
/// tokens on dense and int8, the final pruned stage's nominal token count on
/// the pruned workloads, the 17-token micro config on serve.
pub const PER_LAYER: [PerLayer; 110] = [
    // tensor
    rate("tensor.gemm.patch.gmacs_per_s", "GMAC/s", ALL),
    rate("tensor.gemm.proj.gmacs_per_s", "GMAC/s", ALL),
    rate("tensor.gemm.fc1.gmacs_per_s", "GMAC/s", ALL),
    rate("tensor.gemm.fc2.gmacs_per_s", "GMAC/s", ALL),
    rate("tensor.gemm.scores.gmacs_per_s", "GMAC/s", ALL),
    rate("tensor.gemm.av.gmacs_per_s", "GMAC/s", ALL),
    rate("tensor.gemm.peak_gmacs_per_s", "GMAC/s", ALL),
    rate("tensor.gemm.fc1.peak_share", "share", ALL),
    cost("tensor.softmax_rows.ns_per_elem", "ns", ALL),
    cost("tensor.gather_rows.ns_per_elem", "ns", ALL),
    // nn
    cost("nn.layernorm.ns_per_elem", "ns", ALL),
    cost("nn.gelu.ns_per_elem", "ns", ALL),
    cost("nn.ln_qkv.us", "us", ALL),
    cost("nn.mlp.us", "us", ALL),
    // vit
    cost("vit.patch_embed.us_per_image", "us", ALL),
    cost("vit.attention.us", "us", ALL),
    cost("vit.block.us", "us", ALL),
    cost("vit.block.self_us", "us", ALL),
    cost("vit.head.us_per_image", "us", ALL),
    cost("vit.stage0.us_per_image", "us", WALK),
    cost("vit.stage1.us_per_image", "us", WALK),
    cost("vit.stage2.us_per_image", "us", WALK),
    cost("vit.stage3.us_per_image", "us", WALK),
    cost("vit.stage0.gmac_per_image", "GMAC", WALK),
    cost("vit.stage1.gmac_per_image", "GMAC", WALK),
    cost("vit.stage2.gmac_per_image", "GMAC", WALK),
    cost("vit.stage3.gmac_per_image", "GMAC", WALK),
    cost("vit.walk_vs_infer_ratio", "ratio", WALK),
    // selector
    cost("selector.score.us_per_image", "us", SELECT),
    cost("selector.repack.us_per_image", "us", SELECT),
    cost("selector.time_share", "share", SELECT),
    cost("selector.keep_fraction.stage1", "share", SELECT),
    cost("selector.keep_fraction.stage2", "share", SELECT),
    cost("selector.keep_fraction.stage3", "share", SELECT),
    cost("selector.final_tokens_p50", "count", SELECT),
    cost("selector.final_tokens_p90", "count", SELECT),
    rate("selector.mac_speedup", "ratio", SELECT),
    rate("selector.time_speedup", "ratio", SELECT),
    rate("selector.mac_time_efficiency", "ratio", SELECT),
    cost("selector.logit_rel_err", "ratio", SELECT),
    cost("selector.static.ms_per_image", "ms", PRUNED),
    // tfprune
    cost("tfprune.cls_attn.ms_per_image", "ms", PRUNED),
    cost("tfprune.cls_attn.gmac_per_image", "GMAC", PRUNED),
    cost("tfprune.token_merge.ms_per_image", "ms", PRUNED),
    cost("tfprune.token_merge.gmac_per_image", "GMAC", PRUNED),
    cost("tfprune.topk.ms_per_image", "ms", PRUNED),
    cost("tfprune.topk.gmac_per_image", "GMAC", PRUNED),
    // quant
    rate("quant.qgemm.proj.gmacs_per_s", "GMAC/s", INT8),
    rate("quant.qgemm.fc1.gmacs_per_s", "GMAC/s", INT8),
    rate("quant.qgemm.fc2.gmacs_per_s", "GMAC/s", INT8),
    rate("quant.qgemm.scores.gmacs_per_s", "GMAC/s", INT8),
    rate("quant.qgemm.av.gmacs_per_s", "GMAC/s", INT8),
    rate("quant.qgemm_vs_f32.fc1", "ratio", INT8),
    cost("quant.quantize.ns_per_elem", "ns", INT8),
    cost("quant.gelu_approx.ns_per_elem", "ns", INT8),
    cost("quant.softmax_approx.ns_per_elem", "ns", INT8),
    cost("quant.int8_vs_f32.time_ratio", "ratio", INT8),
    cost("quant.logit_rel_err", "ratio", INT8),
    cost("quant.int8_adaptive.ms_per_image", "ms", INT8),
    cost("quant.int8_adaptive.gmac_per_image", "GMAC", INT8),
    cost("quant.int8_adaptive.logit_rel_err", "ratio", INT8),
    // fpga: simulated time, deterministic, unvalidated
    cost("fpga.predicted_ms", "ms", ALL),
    rate("fpga.predicted_speedup", "ratio", DEIT),
    cost("fpga.predicted_ms.int8_adaptive", "ms", INT8),
    cost("fpga.stage0.kcycles", "kcycles", WALK),
    cost("fpga.stage1.kcycles", "kcycles", WALK),
    cost("fpga.stage2.kcycles", "kcycles", WALK),
    cost("fpga.stage3.kcycles", "kcycles", WALK),
    cost("fpga.host_over_predicted", "ratio", DEIT),
    cost("fpga.predict.ns_per_call", "ns", ALL),
    // core
    cost("core.engine.overhead_us_per_image", "us", DEIT),
    cost("core.engine.batch_overhead_us", "us", B16),
    rate("core.engine.thread_scaling", "ratio", B16),
    cost("core.scratch.pool_miss_per_batch", "count", ALL),
    cost("core.alloc.count_per_image", "count", ALL),
    cost("core.alloc.bytes_per_image", "B", ALL),
    cost("core.latency.ewma_error_pct", "%", DEIT),
    // serve
    cost("serve.queue_wait_p50_ms", "ms", SERVE),
    cost("serve.queue_wait_p90_ms", "ms", SERVE),
    cost("serve.service_p50_ms", "ms", SERVE),
    rate("serve.batch_size_mean", "count", SERVE),
    rate("serve.flush_share.full", "share", SERVE),
    cost("serve.flush_share.idle", "share", SERVE),
    cost("serve.flush_share.deadline", "share", SERVE),
    cost("serve.submit.us_per_call", "us", SERVE),
    cost("serve.degraded_share", "share", SERVE),
    rate("serve.mean_keep", "share", SERVE),
    cost("serve.shed_share", "share", SERVE),
    cost("serve.shed_share.normal", "share", SERVE),
    cost("serve.shed_share.high", "share", SERVE),
    cost("serve.deadline_miss_share", "share", SERVE),
    cost("serve.predicted_error_pct", "%", SERVE),
    cost("serve.latency_p99_ms", "ms", SERVE),
    cost("serve.lane_busy_share", "share", SERVE),
    // telemetry
    cost("telemetry.counter_inc.ns", "ns", SERVE),
    cost("telemetry.histogram_observe.ns", "ns", SERVE),
    cost("telemetry.series_record.ns", "ns", SERVE),
    cost("telemetry.span_record.ns", "ns", SERVE),
    cost("telemetry.snapshot.us", "us", SERVE),
    cost("telemetry.spans_dropped", "count", SERVE),
    // train, data
    cost("train.step_ms.selector_micro", "ms", NOMINAL),
    rate("train.images_per_s.selector_micro", "img/s", NOMINAL),
    cost("data.generate.us_per_image", "us", ALL),
    // bench: the instrument's own health
    cost("bench.noise_ratio", "ratio", ALL),
    rate("bench.host_speed_share", "share", ALL),
    cost("bench.generator_late_p99_us", "us", SERVE),
    rate("bench.offered_rate_share", "share", SERVE),
    cost("bench.trace_overhead_share", "share", ALL),
    rate("bench.latency_samples", "count", ALL),
    rate("bench.tail_percentile", "count", ALL),
];

impl PerLayer {
    /// Whether `workload`'s traced run measures this metric.
    pub fn measured_on(&self, workload: Workload) -> bool {
        self.on & workload.bit() != 0
    }

    fn on_names(&self) -> String {
        if self.on == ALL {
            return "all".to_string();
        }
        let names: Vec<&str> = Workload::ALL
            .into_iter()
            .filter(|&w| self.measured_on(w))
            .map(Workload::name)
            .collect();
        names.join(" ")
    }
}

/// The unit of metric `name` in either table.
///
/// # Panics
///
/// Panics if no metric has that name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
        .1
}

/// Operation count at `seconds`: `base` is the catalogue count for
/// [`RUN_SECONDS`]; the result is proportional, at least `floor`.
pub fn scaled(base: usize, seconds: u32, floor: usize) -> usize {
    ((base as u64 * seconds as u64 + RUN_SECONDS as u64 / 2) / RUN_SECONDS as u64).max(floor as u64)
        as usize
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The exact text of the repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    writeln!(out, "  \"command\": [{}],", list(&COMMAND)).unwrap();
    writeln!(out, "  \"paths\": [{}],", list(&PATHS)).unwrap();
    writeln!(out, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(w.name()),
            json_str(w.why())
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.word()),
            m.bound
        )
        .unwrap();
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.word())
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

/// The text `--list` prints.
pub fn listing() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "workloads ({RUN_SECONDS} s each at the catalogue counts):"
    )
    .unwrap();
    for w in Workload::ALL {
        writeln!(out, "  {:<22} {}", w.name(), w.why()).unwrap();
    }
    writeln!(
        out,
        "\nend-to-end metrics (untraced run; every workload reports all):"
    )
    .unwrap();
    for m in &END_TO_END {
        writeln!(
            out,
            "  {:<18} {:<6} {:<7} bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.what
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nper-layer metrics (--trace 1 only, no bound; a workload outside 'measured on' reports 0):"
    )
    .unwrap();
    for m in &PER_LAYER {
        writeln!(
            out,
            "  {:<40} {:<8} {:<7} measured on: {}",
            m.name,
            m.unit,
            m.better.word(),
            m.on_names()
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        name.len() <= 64
            && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert!(seen.insert(w.name()));
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && COMMAND.len() <= 32);
        assert!(PER_LAYER.iter().all(|m| m.on != 0 && m.on & !ALL == 0));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark --benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn counts_scale_with_seconds_and_never_with_speed() {
        assert_eq!(scaled(48, RUN_SECONDS, 4), 48);
        assert_eq!(scaled(48, 5, 4), 24);
        assert_eq!(scaled(48, 1, 8), 8);
        assert_eq!(scaled(8, 20, 2), 16);
    }

    #[test]
    fn listing_names_every_workload_and_metric() {
        let text = listing();
        for w in Workload::ALL {
            assert!(text.contains(w.name()));
        }
        for m in &PER_LAYER {
            assert!(text.contains(m.name));
        }
        for m in &END_TO_END {
            assert!(text.contains(m.name));
        }
    }
}
