//! The four DeiT workloads: a fixed list of engine calls run for a fixed
//! number of rounds. Every call is timed between two beats of the host's
//! reference loop and restated at the reference speed (see `host`); a call's
//! figure is its median over the rounds (inference is deterministic per
//! image, so what differs between two runs of the same image is the host,
//! not the program), and percentiles are taken across calls.

use crate::alloc;
use crate::catalogue::{scaled, Workload};
use crate::fixtures::{self, Geometry, STAGE_KEEP};
use crate::host;
use crate::kernels::{self, Shapes};
use crate::report::{Gates, Metrics, RunResult};
use crate::spans::Recorder;
use crate::stats;
use crate::walk::{self, Tracer, WalkScratch, STAGES, STAGE_NAMES};
use heatvit::{Backend, CostProfile, Engine, InferenceModel, LatencyModel, MeasuredEwma};
use heatvit_fpga::FpgaCycleModel;
use heatvit_selector::{PruneScratch, StaticPrunedViT, StaticRule, StaticStage};
use heatvit_tensor::Tensor;
use heatvit_tfprune::{ClsAttnPrunedViT, TfStage, TokenMergeViT, TopKPrunedViT, TopKStage};
use heatvit_vit::VisionTransformer;
use std::time::{Duration, Instant};

/// Which model a DeiT workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Dense f32.
    Dense,
    /// Three learned-selector stages plus package token.
    Pruned,
    /// Int8-dense.
    Int8,
}

/// Everything that fixes a run's length and shape. Counts come from the
/// catalogue (scaled by `--seconds`), never from measured speed.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload this plan belongs to.
    pub workload: Workload,
    /// Model under test.
    pub variant: Variant,
    /// Images per engine call (1 = `infer_one`, else `infer_batch`).
    pub batch: usize,
    /// Engine worker threads.
    pub threads: usize,
    /// Engine calls per round.
    pub calls: usize,
    /// Rounds; each call keeps its median over them.
    pub rounds: usize,
    /// Set-ups timed for `setup_s`, spread evenly through the rounds (their
    /// median is reported).
    pub setups: usize,
    /// Images whose logits are compared with the dense f32 reference.
    pub compared: usize,
    /// Images the traced run walks.
    pub traced: usize,
}

impl Plan {
    /// The catalogue plan of `workload` for a run of `seconds` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `workload` is a serving workload.
    pub fn of(workload: Workload, seconds: u32) -> Plan {
        // Calls per round at RUN_SECONDS on the 2-core reference host, where
        // one image costs about 56 (dense), 39 (pruned) and 71 ms (int8) in
        // the host's fast state and a batch of 16 on two threads 0.4 s.
        let (variant, batch, threads, calls) = match workload {
            Workload::DeitDenseB1 => (Variant::Dense, 1, 1, 28),
            Workload::DeitPrunedB1 => (Variant::Pruned, 1, 1, 40),
            Workload::DeitInt8B1 => (Variant::Int8, 1, 1, 22),
            Workload::DeitPrunedB16T2 => (Variant::Pruned, 16, 2, 4),
            other => panic!("{} is not a DeiT workload", other.name()),
        };
        Plan {
            workload,
            variant,
            batch,
            threads,
            calls: scaled(calls, seconds, 2),
            rounds: 5,
            setups: 3,
            compared: 8,
            traced: 12,
        }
    }

    fn images(&self) -> usize {
        self.calls * self.batch
    }
}

/// One set-up's product.
struct Fixture {
    images: Vec<Tensor>,
    dense: VisionTransformer,
    engine: Engine<Backend>,
}

fn build_model(variant: Variant, geometry: &Geometry, dense: &VisionTransformer) -> Backend {
    match variant {
        Variant::Dense => Backend::from(dense.clone()),
        Variant::Pruned => Backend::from(geometry.pruned(dense)),
        Variant::Int8 => Backend::from(geometry.int8(dense)),
    }
}

/// Image generation, model build, calibration and one warm-up call.
fn set_up(plan: &Plan, geometry: &Geometry, seed: u64) -> Fixture {
    let images = geometry.images(plan.images(), seed);
    let dense = geometry.dense();
    let engine = Engine::builder(build_model(plan.variant, geometry, &dense))
        .threads(plan.threads)
        .build();
    engine.infer_batch(&images[..plan.batch]);
    Fixture {
        images,
        dense,
        engine,
    }
}

/// What the timed rounds produced.
struct Measured {
    /// Seconds of each call in each round at the reference speed,
    /// `[call][round]`.
    times: Vec<Vec<f64>>,
    /// The factor each call's time was restated by.
    factors: Vec<f64>,
    /// Wall-clock seconds of all calls together, as measured.
    wall: f64,
    /// Round-0 logits of every image, `[image][class]`.
    logits: Vec<Vec<f32>>,
    /// MACs of every image.
    macs: Vec<u64>,
    /// Tokens entering each block, per image.
    tokens: Vec<Vec<usize>>,
    /// Calls (in any round) with non-finite logits or logits that differ
    /// from the same call's round-0 logits.
    failed: u64,
}

impl Measured {
    /// Each call's median over the rounds.
    fn per_call(&self) -> Vec<f64> {
        self.times.iter().map(|t| stats::median(t)).collect()
    }

    /// Sum of the calls' medians over the sum of their minima: what is left
    /// of the host's unsteadiness after restating.
    fn noise_ratio(&self) -> f64 {
        let minima: f64 = self
            .times
            .iter()
            .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
            .sum();
        self.per_call().iter().sum::<f64>() / minima
    }

    /// Median share of the reference speed the host ran at.
    fn host_speed_share(&self) -> f64 {
        stats::median(&self.factors)
    }
}

/// Runs every call of `images` (in chunks of `batch`) for `rounds` rounds,
/// calling `after_round` between them (untimed).
fn measure(
    engine: &Engine<Backend>,
    images: &[Tensor],
    batch: usize,
    rounds: usize,
    mut after_round: impl FnMut(usize),
) -> Measured {
    let calls = images.len() / batch;
    let classes = engine.model().config().num_classes;
    let mut out = Measured {
        times: vec![Vec::with_capacity(rounds); calls],
        factors: Vec::with_capacity(rounds * calls),
        wall: 0.0,
        logits: Vec::with_capacity(images.len()),
        macs: Vec::with_capacity(images.len()),
        tokens: Vec::with_capacity(images.len()),
        failed: 0,
    };
    let mut beat = host::beat();
    for round in 0..rounds {
        for (call, chunk) in images.chunks_exact(batch).enumerate() {
            let start = Instant::now();
            let (logits, macs, tokens) = if batch == 1 {
                let o = engine.infer_one(&chunk[0]);
                (o.logits, vec![o.macs], vec![o.tokens_per_block])
            } else {
                let o = engine.infer_batch(chunk);
                (o.logits, o.macs, o.tokens_per_block)
            };
            let seconds = start.elapsed().as_secs_f64();
            // One beat between calls closes this call's bracket and opens
            // the next one's.
            let next = host::beat();
            let factor = host::factor(beat, next);
            beat = next;
            out.times[call].push(seconds * factor);
            out.factors.push(factor);
            out.wall += seconds;
            let rows = logits.data().chunks_exact(classes);
            if round == 0 {
                out.logits.extend(rows.map(<[f32]>::to_vec));
                out.macs.extend(macs);
                out.tokens.extend(tokens);
                if logits.has_non_finite() {
                    out.failed += 1;
                }
            } else {
                let first = &out.logits[call * batch..(call + 1) * batch];
                let same = rows.zip(first).all(|(now, then)| bitwise_eq(now, then));
                if !same || logits.has_non_finite() {
                    out.failed += 1;
                }
            }
        }
        after_round(round);
        beat = host::beat();
    }
    out
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `‖a − b‖₂ / ‖b‖₂`.
fn rel_err(a: &[f32], b: &[f32]) -> f64 {
    let diff: f64 = a.iter().zip(b).map(|(x, y)| ((x - y) as f64).powi(2)).sum();
    let norm: f64 = b.iter().map(|y| (*y as f64).powi(2)).sum();
    (diff / norm.max(1e-300)).sqrt()
}

fn l2(v: &[f32]) -> f64 {
    v.iter().map(|x| (*x as f64).powi(2)).sum::<f64>().sqrt()
}

/// Logits per probe image the golden file keeps (plus norm and argmax).
const GOLDEN_LOGITS: usize = 32;

/// The golden text for `dense` on the probe images: one line per image —
/// `l2 argmax logit0 .. logit31`.
pub fn golden_text(geometry: &Geometry, dense: &VisionTransformer) -> String {
    geometry
        .probe_images()
        .iter()
        .map(|image| {
            let logits = dense.infer(image);
            let head: Vec<String> = logits.data()[..GOLDEN_LOGITS.min(logits.numel())]
                .iter()
                .map(|v| format!("{v:e}"))
                .collect();
            format!(
                "{:e} {} {}\n",
                l2(logits.data()),
                logits.argmax_rows()[0],
                head.join(" ")
            )
        })
        .collect()
}

/// Checks `dense` against the committed golden logits (relative 1e-5).
fn check_golden(geometry: &Geometry, dense: &VisionTransformer, golden: &str, gates: &mut Gates) {
    let lines: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
    let probes = geometry.probe_images();
    gates.check(lines.len() == probes.len(), || {
        format!(
            "golden file has {} rows for {} probe images",
            lines.len(),
            probes.len()
        )
    });
    for (i, (image, line)) in probes.iter().zip(lines).enumerate() {
        let fields: Vec<f64> = line
            .split_whitespace()
            .map(|f| f.parse().expect("golden file holds numbers"))
            .collect();
        let (norm, argmax, head) = (fields[0], fields[1] as usize, &fields[2..]);
        let logits = dense.infer(image);
        let want: Vec<f32> = head.iter().map(|&v| v as f32).collect();
        let err = rel_err(&logits.data()[..want.len()], &want);
        let norm_err = (l2(logits.data()) - norm).abs() / norm;
        gates.check(
            err <= 1e-5 && norm_err <= 1e-5 && logits.argmax_rows()[0] == argmax,
            || {
                format!(
                    "probe {i}: dense logits off the golden file (rel {err:e}, norm {norm_err:e})"
                )
            },
        );
    }
}

/// `Engine::infer_one` ≡ the model called directly ≡ the `infer_batch` row,
/// bit for bit, on the first few images.
fn check_engine_parity(fixture: &Fixture, gates: &mut Gates) {
    let images = &fixture.images[..4.min(fixture.images.len())];
    let model = fixture.engine.model();
    let batched = fixture.engine.infer_batch(images);
    let mut scratch = PruneScratch::default();
    for (i, image) in images.iter().enumerate() {
        let direct = model.infer_one(image, &mut scratch);
        let single = fixture.engine.infer_one(image);
        gates.check(
            bitwise_eq(direct.logits.data(), single.logits.data())
                && bitwise_eq(direct.logits.data(), batched.logits.row(i)),
            || format!("image {i}: Engine::infer_one, direct model and infer_batch row differ"),
        );
    }
}

/// The f32 model under test as the walk sees it (`None` for int8, whose
/// blocks are private to `heatvit-quant`).
fn walkable<'a>(model: &'a Backend, geometry: &'a Geometry) -> Option<walk::WalkModel<'a>> {
    match model {
        Backend::Dense(dense) => Some(walk::WalkModel {
            backbone: dense,
            selectors: &NO_SELECTORS[..dense.config().depth],
            package: false,
            stage_blocks: &geometry.selector_blocks,
        }),
        Backend::AdaptivePruned(pruned) => {
            Some(fixtures::walk_model(pruned, &geometry.selector_blocks))
        }
        _ => None,
    }
}

/// Selector slots of a model without selectors (deeper than any config).
static NO_SELECTORS: [Option<heatvit_selector::TokenSelector>; 32] = [const { None }; 32];

/// The layer walk's logits equal the model's own, bit for bit.
fn check_walk(fixture: &Fixture, geometry: &Geometry, images: &[Tensor], gates: &mut Gates) {
    let Some(model) = walkable(fixture.engine.model(), geometry) else {
        return;
    };
    let mut ws = WalkScratch::default();
    let mut scratch = PruneScratch::default();
    for (i, image) in images.iter().enumerate() {
        let walked = walk::walk(model, image, &mut ws, &mut Tracer::off());
        let own = fixture.engine.model().infer_one(image, &mut scratch);
        gates.check(
            bitwise_eq(walked.logits.data(), own.logits.data())
                && walked.tokens_per_block == own.tokens_per_block,
            || format!("image {i}: layer walk differs from infer_with"),
        );
    }
}

/// Pooled share of incoming patch rows each selector stage kept.
fn pooled_keep(tokens: &[Vec<usize>], geometry: &Geometry) -> [f64; STAGES - 1] {
    let mut kept = [0usize; STAGES - 1];
    let mut seen = [0usize; STAGES - 1];
    for t in tokens {
        for (s, (k, n)) in fixtures::stage_rows(t, &geometry.selector_blocks)
            .into_iter()
            .enumerate()
        {
            kept[s] += k;
            seen[s] += n;
        }
    }
    std::array::from_fn(|s| kept[s] as f64 / seen[s].max(1) as f64)
}

/// Mean relative logit error of the first `count` measured images against
/// the dense f32 model run on the same images.
fn logit_rel_err(fixture: &Fixture, logits: &[Vec<f32>], count: usize) -> f64 {
    let count = count.min(logits.len());
    let errs: Vec<f64> = fixture.images[..count]
        .iter()
        .zip(logits)
        .map(|(image, got)| rel_err(got, fixture.dense.infer(image).data()))
        .collect();
    stats::mean(&errs)
}

/// Every gate of a DeiT run that does not need the trace.
fn verify(
    plan: &Plan,
    geometry: &Geometry,
    fixture: &Fixture,
    measured: &Measured,
    gates: &mut Gates,
) -> Option<f64> {
    if let Some(golden) = geometry.golden {
        check_golden(geometry, &fixture.dense, golden, gates);
    }
    check_engine_parity(fixture, gates);
    check_walk(
        fixture,
        geometry,
        &fixture.images[..2.min(fixture.images.len())],
        gates,
    );
    gates.check(measured.failed == 0, || {
        format!(
            "{} calls returned non-finite logits or differed between rounds",
            measured.failed
        )
    });
    if plan.variant == Variant::Pruned {
        // Per-image keep shares scatter by a few percent; their pooled mean
        // over fewer images scatters by more.
        let few = (fixtures::KEEP_GATE_IMAGES as f64 / measured.tokens.len() as f64).sqrt();
        let tolerance = geometry.keep_tolerance * few.max(1.0);
        for (s, share) in pooled_keep(&measured.tokens, geometry)
            .into_iter()
            .enumerate()
        {
            gates.check((share - STAGE_KEEP).abs() <= tolerance, || {
                format!(
                    "stage {} keeps {share:.3} of its patches pooled, outside {STAGE_KEEP} +- \
                     {tolerance:.3}",
                    s + 1
                )
            });
        }
    }
    let ceiling = match plan.variant {
        Variant::Dense => return None,
        Variant::Pruned => geometry.pruned_err_ceiling,
        Variant::Int8 => geometry.int8_err_ceiling,
    };
    let err = logit_rel_err(fixture, &measured.logits, plan.compared);
    gates.check(err <= ceiling, || {
        format!("logit_rel_err {err:.4} against dense f32 above its ceiling {ceiling}")
    });
    Some(err)
}

/// The untraced run: end-to-end metrics and the correctness gates.
pub fn run(plan: &Plan, geometry: &Geometry, seed: u64) -> RunResult {
    // Set-ups are timed at the start and at even steps through the rounds.
    let (fixture, first, _) = host::timed(|| set_up(plan, geometry, seed));
    let mut setups = vec![first];
    let extra = plan.setups.saturating_sub(1);
    let measured = measure(
        &fixture.engine,
        &fixture.images,
        plan.batch,
        plan.rounds,
        |round| {
            // After round r, as many extra set-ups as have come due.
            let due = |r: usize| r * extra / plan.rounds;
            for _ in due(round)..due(round + 1) {
                setups.push(host::timed(|| set_up(plan, geometry, seed)).1);
            }
        },
    );
    let mut gates = Gates::default();
    let err = verify(plan, geometry, &fixture, &measured, &mut gates);

    let per_call = stats::sorted(&measured.per_call());
    let mut metrics = Metrics::default();
    metrics.set(
        "images_per_s",
        plan.images() as f64 / per_call.iter().sum::<f64>(),
    );
    metrics.set("latency_p50_ms", stats::percentile(&per_call, 50.0) * 1e3);
    let tail = stats::tail_percentile(per_call.len());
    metrics.set("latency_tail_ms", stats::percentile(&per_call, tail) * 1e3);
    let macs: Vec<f64> = measured.macs.iter().map(|&m| m as f64).collect();
    metrics.set("gmac_per_image", stats::mean(&macs) / 1e9);
    metrics.set("setup_s", stats::median(&setups));

    let mut notes = vec![format!(
        "{} calls x {} rounds of batch {} on {} thread(s); latency_tail_ms is p{tail} of {} samples \
         ({} beyond); times restated at the reference speed, host ran at {:.2} of it (as measured: \
         {:.2} img/s, beat {:.3} ms); noise ratio (sum of medians / sum of minima) {:.3}",
        plan.calls,
        plan.rounds,
        plan.batch,
        plan.threads,
        per_call.len(),
        stats::samples_beyond(per_call.len(), tail),
        measured.host_speed_share(),
        (plan.images() * plan.rounds) as f64 / measured.wall,
        host::REFERENCE_BEAT / measured.host_speed_share() * 1e3,
        measured.noise_ratio()
    )];
    if let Some(err) = err {
        notes.push(format!(
            "logit_rel_err vs dense f32 on {} images: {err:.5}",
            plan.compared
        ));
    }
    if plan.variant == Variant::Pruned {
        notes.push(format!(
            "pooled stage keep: {:.3?}",
            pooled_keep(&measured.tokens, geometry)
        ));
    }
    let correct = gates.all_held();
    notes.extend(gates.into_notes());
    RunResult {
        correct,
        attempted: (plan.calls * plan.rounds) as u64,
        failed: measured.failed,
        metrics,
        notes,
    }
}

/// One way of running an image that a traced run times: called with the
/// pass, the image's index and the image.
type Subject<'a> = Box<dyn FnMut(usize, usize, &Tensor) + 'a>;

/// A subject's fastest pass over each image.
struct Fastest {
    /// Seconds at the reference speed, per image.
    seconds: Vec<f64>,
    /// The pass that was fastest, per image.
    pass: Vec<usize>,
    /// The factor that pass's time was restated by, per image.
    factor: Vec<f64>,
}

/// Times every subject on every image, image by image, for `passes` passes,
/// every call between two beats; a subject's time for an image is its
/// fastest at the reference speed. Interleaving puts the subjects of one
/// comparison in the same moments; the order rotates from pass to pass so
/// that none always runs on what another just warmed.
fn interleaved(images: &[Tensor], passes: usize, subjects: &mut [Subject<'_>]) -> Vec<Fastest> {
    let count = subjects.len();
    let mut best: Vec<Fastest> = (0..count)
        .map(|_| Fastest {
            seconds: vec![f64::INFINITY; images.len()],
            pass: vec![0; images.len()],
            factor: vec![1.0; images.len()],
        })
        .collect();
    let mut beat = host::beat();
    for pass in 0..passes {
        for (index, image) in images.iter().enumerate() {
            for turn in 0..count {
                let who = (turn + pass) % count;
                let start = Instant::now();
                subjects[who](pass, index, image);
                let seconds = start.elapsed().as_secs_f64();
                let next = host::beat();
                let factor = host::factor(beat, next);
                beat = next;
                if seconds * factor < best[who].seconds[index] {
                    best[who].seconds[index] = seconds * factor;
                    best[who].pass[index] = pass;
                    best[who].factor[index] = factor;
                }
            }
        }
    }
    best
}

/// What running a model over the traced images cost and produced.
struct Cost {
    /// Mean milliseconds per image (per-image minima).
    ms: f64,
    /// Mean GMAC per image.
    gmac: f64,
    /// Logits per image.
    logits: Vec<Vec<f32>>,
}

/// Runs each of `models` directly (warm scratch, no engine) over `images`,
/// interleaved so their times compare.
fn model_costs(models: &[&Backend], images: &[Tensor], passes: usize) -> Vec<Cost> {
    let mut outputs: Vec<Vec<heatvit::ModelOutput>> = models.iter().map(|_| Vec::new()).collect();
    let mut subjects: Vec<Subject<'_>> = models
        .iter()
        .zip(&mut outputs)
        .map(|(model, outputs)| {
            let mut scratch = PruneScratch::default();
            model.infer_one(&images[0], &mut scratch);
            Box::new(move |pass: usize, _: usize, image: &Tensor| {
                let out = model.infer_one(image, &mut scratch);
                if pass == 0 {
                    outputs.push(out);
                }
            }) as Subject<'_>
        })
        .collect();
    let times = interleaved(images, passes, &mut subjects);
    drop(subjects);
    times
        .iter()
        .zip(outputs)
        .map(|(times, outputs)| Cost {
            ms: stats::mean(&times.seconds) * 1e3,
            gmac: outputs.iter().map(|o| o.macs).sum::<u64>() as f64 / images.len() as f64 / 1e9,
            logits: outputs.into_iter().map(|o| o.logits.into_vec()).collect(),
        })
        .collect()
}

/// Mean relative error of `got` against `reference`, image by image.
fn mean_rel_err(got: &[Vec<f32>], reference: &[Vec<f32>]) -> f64 {
    let errs: Vec<f64> = got
        .iter()
        .zip(reference)
        .map(|(g, r)| rel_err(g, r))
        .collect();
    stats::mean(&errs)
}

/// FPGA kcycles of the blocks in `tokens` alone: the model's cycles for
/// those blocks minus its cycles for no blocks (patch embedding and head).
fn block_kcycles(fpga: &FpgaCycleModel, profile: &CostProfile, tokens: &[usize]) -> f64 {
    let with = CostProfile {
        tokens_per_block: tokens.to_vec(),
        ..profile.clone()
    };
    let without = CostProfile {
        tokens_per_block: Vec::new(),
        ..profile.clone()
    };
    (fpga.model_cycles(&with) - fpga.model_cycles(&without)) as f64 / 1e3
}

/// What the walk contributes to a traced run: stage rows (measured µs, GMAC
/// and FPGA kcycles side by side) and selector rows, from the spans in `rec`
/// and the token counts the walk saw.
fn walk_rows(
    model: &Backend,
    walk_model: walk::WalkModel<'_>,
    geometry: &Geometry,
    rec: &Recorder,
    tokens: &[Vec<usize>],
    m: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let n = tokens.len() as f64;
    let per_image_us = |name: &str| rec.total_ns(name) as f64 / 1e3 / n;
    let fpga = FpgaCycleModel::default();
    let profile = model.cost_profile();
    let backbone = walk_model.backbone;
    let names = [
        (
            "vit.stage0.us_per_image",
            "vit.stage0.gmac_per_image",
            "fpga.stage0.kcycles",
        ),
        (
            "vit.stage1.us_per_image",
            "vit.stage1.gmac_per_image",
            "fpga.stage1.kcycles",
        ),
        (
            "vit.stage2.us_per_image",
            "vit.stage2.gmac_per_image",
            "fpga.stage2.kcycles",
        ),
        (
            "vit.stage3.us_per_image",
            "vit.stage3.gmac_per_image",
            "fpga.stage3.kcycles",
        ),
    ];
    notes.push(format!(
        "{:<8} {:>6} {:>8} {:>12} {:>10} {:>13}",
        "stage", "blocks", "tokens", "measured us", "GMAC", "fpga kcycles"
    ));
    for (stage, (us_name, gmac_name, kcycles_name)) in names.into_iter().enumerate() {
        let members: Vec<usize> = (0..backbone.config().depth)
            .filter(|&b| walk::stage_of(b, walk_model.stage_blocks).min(STAGES - 1) == stage)
            .collect();
        let (mut macs, mut kcycles, mut entering) = (0u64, 0.0, 0usize);
        for t in tokens {
            let stage_tokens: Vec<usize> = members.iter().map(|&b| t[b]).collect();
            entering += stage_tokens[0];
            for &b in &members {
                // The model's own accounting: a block's MACs at the tokens
                // entering it, plus its selector's at the rows it scored.
                macs += backbone.blocks()[b].macs(t[b]);
                if let Some(selector) = &walk_model.selectors[b] {
                    macs += selector.macs(t[b].saturating_sub(1));
                }
            }
            kcycles += block_kcycles(&fpga, &profile, &stage_tokens);
        }
        let (us, gmac, kcycles) = (
            per_image_us(STAGE_NAMES[stage]),
            macs as f64 / n / 1e9,
            kcycles / n,
        );
        m.set(us_name, us);
        m.set(gmac_name, gmac);
        m.set(kcycles_name, kcycles);
        notes.push(format!(
            "{:<8} {:>6} {:>8.1} {:>12.1} {:>10.4} {:>13.1}",
            STAGE_NAMES[stage],
            members.len(),
            entering as f64 / n,
            us,
            gmac,
            kcycles
        ));
    }
    notes.push(format!(
        "per image: patch_embed {:.1} us, head {:.1} us, block self time (residual adds) {:.1} us",
        per_image_us("patch_embed"),
        per_image_us("head"),
        rec.total_self_ns("block") as f64 / 1e3 / n,
    ));

    if walk_model.selectors.iter().any(Option::is_some) {
        let (score, repack) = (per_image_us("select"), per_image_us("repack"));
        m.set("selector.score.us_per_image", score);
        m.set("selector.repack.us_per_image", repack);
        m.set(
            "selector.time_share",
            (score + repack) / per_image_us("image"),
        );
        let keep = pooled_keep(tokens, geometry);
        m.set("selector.keep_fraction.stage1", keep[0]);
        m.set("selector.keep_fraction.stage2", keep[1]);
        m.set("selector.keep_fraction.stage3", keep[2]);
        let finals: Vec<f64> = tokens
            .iter()
            .map(|t| *t.last().expect("depth > 0") as f64)
            .collect();
        let finals = stats::sorted(&finals);
        m.set(
            "selector.final_tokens_p50",
            stats::percentile(&finals, 50.0),
        );
        m.set(
            "selector.final_tokens_p90",
            stats::percentile(&finals, 90.0),
        );
    }
}

/// Rows that compare the pruned model with dense on the same images, and
/// with the other pruning policies at the same schedule.
fn selector_rows(
    plan: &Plan,
    geometry: &Geometry,
    fixture: &Fixture,
    images: &[Tensor],
    own: &Cost,
    dense: &Cost,
    m: &mut Metrics,
) {
    let mac_speedup = dense.gmac / own.gmac;
    let time_speedup = dense.ms / own.ms;
    m.set("selector.mac_speedup", mac_speedup);
    m.set("selector.time_speedup", time_speedup);
    m.set("selector.mac_time_efficiency", time_speedup / mac_speedup);
    m.set(
        "selector.logit_rel_err",
        mean_rel_err(&own.logits, &dense.logits),
    );

    if plan.workload != Workload::DeitPrunedB1 {
        return;
    }
    // The other pruning policies at the same blocks and keep ratios.
    let few = &images[..images.len().min(8)];
    let keep = STAGE_KEEP as f32;
    let backbone = || fixture.dense.clone();
    let static_stages = geometry
        .selector_blocks
        .map(|block| StaticStage {
            block,
            keep_ratio: keep,
        })
        .to_vec();
    let tf_stages = geometry
        .selector_blocks
        .map(|block| TfStage {
            block,
            keep_ratio: keep,
        })
        .to_vec();
    let patches = geometry.config.num_patches() as f32;
    let topk_stages = geometry
        .selector_blocks
        .iter()
        .zip(geometry.nominal_keep())
        .map(|(&block, keep)| TopKStage {
            block,
            keep: ((keep * patches).ceil() as usize).max(1),
        })
        .collect();
    let policies = [
        Backend::from(StaticPrunedViT::new(
            backbone(),
            static_stages,
            StaticRule::CliffAttention,
            0,
        )),
        Backend::from(ClsAttnPrunedViT::new(backbone(), tf_stages.clone())),
        Backend::from(TokenMergeViT::new(backbone(), tf_stages)),
        Backend::from(TopKPrunedViT::new(backbone(), topk_stages)),
    ];
    let costs = model_costs(&policies.each_ref(), few, 2);
    m.set("selector.static.ms_per_image", costs[0].ms);
    m.set("tfprune.cls_attn.ms_per_image", costs[1].ms);
    m.set("tfprune.cls_attn.gmac_per_image", costs[1].gmac);
    m.set("tfprune.token_merge.ms_per_image", costs[2].ms);
    m.set("tfprune.token_merge.gmac_per_image", costs[2].gmac);
    m.set("tfprune.topk.ms_per_image", costs[3].ms);
    m.set("tfprune.topk.gmac_per_image", costs[3].gmac);
}

/// Rows that compare int8 with f32 on the same images.
fn quant_rows(
    geometry: &Geometry,
    fixture: &Fixture,
    images: &[Tensor],
    own: &Cost,
    dense: &Cost,
    m: &mut Metrics,
) {
    m.set("quant.int8_vs_f32.time_ratio", own.ms / dense.ms);
    m.set(
        "quant.logit_rel_err",
        mean_rel_err(&own.logits, &dense.logits),
    );
    let few = images.len().min(8);
    let adaptive = Backend::from(geometry.int8_adaptive(&fixture.dense));
    let cost = &model_costs(&[&adaptive], &images[..few], 2)[0];
    m.set("quant.int8_adaptive.ms_per_image", cost.ms);
    m.set("quant.int8_adaptive.gmac_per_image", cost.gmac);
    m.set(
        "quant.int8_adaptive.logit_rel_err",
        mean_rel_err(&cost.logits, &dense.logits[..few]),
    );
    m.set(
        "fpga.predicted_ms.int8_adaptive",
        FpgaCycleModel::default()
            .predict(&adaptive.cost_profile())
            .as_secs_f64()
            * 1e3,
    );
}

/// Rounds of the workload itself in a traced run.
const TRACE_ROUNDS: usize = 3;

/// Passes of a two-sided comparison: each order once, so each side runs
/// once on what the other just warmed.
const PAIR_PASSES: usize = 2;

/// The model called directly on a warm scratch, as a subject.
fn direct_call<'a>(model: &'a Backend, scratch: &'a mut PruneScratch) -> Subject<'a> {
    Box::new(move |_, _, image| {
        model.infer_one(image, scratch);
    })
}

/// Two subjects interleaved over `images` in both orders.
fn versus(images: &[Tensor], a: Subject<'_>, b: Subject<'_>) -> [Fastest; 2] {
    let mut subjects = [a, b];
    let mut times = interleaved(images, PAIR_PASSES, &mut subjects).into_iter();
    [0, 1].map(|_| times.next().expect("two subjects were timed"))
}

/// The traced run: per-layer metrics, the stage table and the trace.
pub fn trace(plan: &Plan, geometry: &Geometry, seed: u64) -> (RunResult, Recorder) {
    let fixture = set_up(plan, geometry, seed);
    let model = fixture.engine.model();
    let mut m = Metrics::default();
    let mut gates = Gates::default();
    let mut notes = Vec::new();

    // The workload itself, untraced, on as many images as the walk gets
    // (whole calls): round-to-round noise and the gate on repeatability.
    let calls = plan.traced.div_ceil(plan.batch).min(plan.calls);
    let measured = measure(
        &fixture.engine,
        &fixture.images[..calls * plan.batch],
        plan.batch,
        TRACE_ROUNDS,
        |_| {},
    );
    m.set("bench.noise_ratio", measured.noise_ratio());
    m.set("bench.host_speed_share", measured.host_speed_share());
    m.set("bench.latency_samples", plan.calls as f64);
    m.set("bench.tail_percentile", stats::tail_percentile(plan.calls));
    gates.check(measured.failed == 0, || {
        format!(
            "{} calls returned non-finite logits or differed between rounds",
            measured.failed
        )
    });

    // Image by image and interleaved: the model called directly on a warm
    // scratch, the same through the engine, dense f32 on the same image,
    // and the traced replay (the layer walk, or one span per call for int8,
    // whose blocks are private to heatvit-quant).
    let images = &fixture.images[..plan.traced.min(fixture.images.len())];
    let n = images.len() as f64;
    let walk_model = walkable(model, geometry);
    if walk_model.is_some() {
        check_walk(
            &fixture,
            geometry,
            &images[..2.min(images.len())],
            &mut gates,
        );
    }
    // Three comparisons, each the model called directly on a warm scratch
    // against one other way of running the same image, the two interleaved
    // image by image in both orders.
    let macs = &measured.macs[..images.len()];
    let own_cost = |seconds: &[f64]| Cost {
        ms: stats::mean(seconds) * 1e3,
        gmac: macs.iter().sum::<u64>() as f64 / n / 1e9,
        logits: measured.logits[..images.len()].to_vec(),
    };
    let mut scratch = PruneScratch::default();
    model.infer_one(&images[0], &mut scratch);

    // (a) against the traced replay: the layer walk, or one span per call.
    let mut rec = Recorder::default();
    let mut passes: Vec<Recorder> = (0..PAIR_PASSES).map(|_| Recorder::default()).collect();
    let mut walked_tokens: Vec<Vec<usize>> = Vec::with_capacity(images.len());
    let (mut ws, mut spanned_scratch) = (WalkScratch::default(), PruneScratch::default());
    let replay: Subject<'_> = Box::new(|pass, index, image| match walk_model {
        Some(walk_model) => {
            let mut tracer = Tracer::on(&mut passes[pass], index as u64);
            let out = walk::walk(walk_model, image, &mut ws, &mut tracer);
            if pass == 0 {
                walked_tokens.push(out.tokens_per_block);
            }
        }
        None => passes[pass].scope("image", index as u64, |_| {
            model.infer_one(image, &mut spanned_scratch);
        }),
    });
    let [direct, traced] = versus(images, direct_call(model, &mut scratch), replay);
    // The trace keeps, for each image, the spans of its faster pass,
    // stretched to the reference speed like every other time.
    for op in 0..images.len() {
        rec.adopt(&passes[traced.pass[op]], op as u64, traced.factor[op]);
    }
    let own = own_cost(&direct.seconds);
    let traced_share = traced.seconds.iter().sum::<f64>() / direct.seconds.iter().sum::<f64>();
    m.set("bench.trace_overhead_share", traced_share - 1.0);
    if let Some(walk_model) = walk_model {
        walk_rows(
            model,
            walk_model,
            geometry,
            &rec,
            &walked_tokens,
            &mut m,
            &mut notes,
        );
        m.set("vit.walk_vs_infer_ratio", traced_share);
        if !(0.95..=1.05).contains(&traced_share) {
            notes.push(format!(
                "WARNING: walk/infer ratio {traced_share:.3} outside 0.95..1.05"
            ));
        }
    }

    // (b) against the same call through the engine.
    let through_engine: Subject<'_> = Box::new(|_, _, image| {
        fixture.engine.infer_one(image);
    });
    let [direct, engine] = versus(images, direct_call(model, &mut scratch), through_engine);
    m.set(
        "core.engine.overhead_us_per_image",
        (stats::mean(&engine.seconds) - stats::mean(&direct.seconds)) * 1e6,
    );
    m.set(
        "core.latency.ewma_error_pct",
        ewma_error_pct(&model.cost_profile(), &engine.seconds),
    );

    // (c) against dense f32 on the same image.
    let versus_dense = (plan.variant != Variant::Dense).then(|| {
        let dense_backend = Backend::from(fixture.dense.clone());
        let mut dense_scratch = PruneScratch::default();
        let mut logits: Vec<Vec<f32>> = Vec::with_capacity(images.len());
        let dense_call: Subject<'_> = Box::new(|pass, _, image| {
            let out = dense_backend.infer_one(image, &mut dense_scratch);
            if pass == 0 {
                logits.push(out.logits.into_vec());
            }
        });
        let [direct, dense] = versus(images, direct_call(model, &mut scratch), dense_call);
        let dense = Cost {
            ms: stats::mean(&dense.seconds) * 1e3,
            gmac: fixture.dense.macs() as f64 / 1e9,
            logits,
        };
        (own_cost(&direct.seconds), dense)
    });

    // Kernels at the workload's own geometry: the token count its last
    // stage runs at.
    let profile = model.cost_profile();
    let tokens = *profile.tokens_per_block.last().expect("depth > 0");
    let shapes = Shapes::of(&fixture.dense, tokens);
    kernels::float_rows(&fixture.dense, &images[0], shapes, &mut m);
    notes.push(format!("kernel rows timed at {tokens} tokens"));

    match (plan.variant, &versus_dense) {
        (Variant::Pruned, Some((own, dense))) => {
            selector_rows(plan, geometry, &fixture, images, own, dense, &mut m)
        }
        (Variant::Int8, Some((own, dense))) => {
            let fc1 = m
                .get("tensor.gemm.fc1.gmacs_per_s")
                .expect("float rows ran");
            kernels::quant_rows(shapes, fc1, &mut m);
            quant_rows(geometry, &fixture, images, own, dense, &mut m);
        }
        _ => {}
    }

    // fpga: simulated time of the model's nominal profile.
    let fpga = FpgaCycleModel::default();
    let predicted_ms = fpga.predict(&profile).as_secs_f64() * 1e3;
    let dense_profile = CostProfile::dense("dense", &geometry.config, fixture.dense.macs());
    m.set("fpga.predicted_ms", predicted_ms);
    m.set(
        "fpga.predicted_speedup",
        fpga.predict(&dense_profile).as_secs_f64() * 1e3 / predicted_ms,
    );
    m.set("fpga.host_over_predicted", own.ms / predicted_ms);
    m.set(
        "fpga.predict.ns_per_call",
        predict_ns_per_call(&fpga, &profile),
    );

    // core: what batching costs, what threads buy, what the engine allocates.
    if plan.batch > 1 {
        // Half a batch three ways, in rotating order: the images one after
        // the other through the model, together through a one-thread engine,
        // together through the workload's engine. (Half, and more passes:
        // the shorter a call, the less often it straddles a change of the
        // host's state.)
        let single_thread = Engine::builder(model).threads(1).build();
        let batch = &fixture.images[..(plan.batch / 2).max(plan.threads)];
        single_thread.infer_batch(batch);
        let mut ways: [Box<dyn FnMut() + '_>; 3] = [
            Box::new(|| {
                for image in batch {
                    model.infer_one(image, &mut scratch);
                }
            }),
            Box::new(|| {
                single_thread.infer_batch(batch);
            }),
            Box::new(|| {
                fixture.engine.infer_batch(batch);
            }),
        ];
        // Even so a call this long can straddle one, which its two beats
        // then misjudge either way: medians, not minima.
        let mut samples = [Vec::new(), Vec::new(), Vec::new()];
        for pass in 0..5 {
            for turn in 0..ways.len() {
                let who = (turn + pass) % ways.len();
                samples[who].push(host::timed(&mut ways[who]).1);
            }
        }
        drop(ways);
        let [singles, one_thread, threaded] = samples.map(|s| stats::median(&s));
        m.set(
            "core.engine.batch_overhead_us",
            (one_thread - singles) * 1e6,
        );
        m.set("core.engine.thread_scaling", one_thread / threaded);
    }
    let snapshot = fixture.engine.telemetry().snapshot();
    let labels = &[("variant", model.variant())][..];
    m.set(
        "core.scratch.pool_miss_per_batch",
        snapshot.counter("heatvit_engine_scratch_misses_total", labels) as f64
            / snapshot
                .counter("heatvit_engine_batches_total", labels)
                .max(1) as f64,
    );
    let ((), heap) = alloc::counted(|| {
        fixture.engine.infer_batch(&fixture.images[..plan.batch]);
    });
    m.set(
        "core.alloc.count_per_image",
        heap.calls as f64 / plan.batch as f64,
    );
    m.set(
        "core.alloc.bytes_per_image",
        heap.bytes as f64 / plan.batch as f64,
    );

    let (_, seconds, _) = host::timed(|| geometry.images(8, seed));
    m.set("data.generate.us_per_image", seconds / 8.0 * 1e6);

    let correct = gates.all_held();
    notes.extend(gates.into_notes());
    let result = RunResult {
        correct,
        attempted: (calls * TRACE_ROUNDS) as u64,
        failed: measured.failed,
        metrics: m,
        notes,
    };
    (result, rec)
}

/// Host nanoseconds one `FpgaCycleModel::predict` call takes (admission
/// pays it per request).
pub fn predict_ns_per_call(fpga: &FpgaCycleModel, profile: &CostProfile) -> f64 {
    const CALLS: usize = 20_000;
    let ((), seconds, _) = host::timed(|| {
        for _ in 0..CALLS {
            std::hint::black_box(fpga.predict(std::hint::black_box(profile)));
        }
    });
    seconds * 1e9 / CALLS as f64
}

/// How far a `MeasuredEwma` over the FPGA prior, fed the first half of
/// `times` (seconds per image), lands from the second half, in percent.
fn ewma_error_pct(profile: &CostProfile, times: &[f64]) -> f64 {
    let ewma = MeasuredEwma::new(FpgaCycleModel::default(), 0.2);
    let (seen, held_back) = times.split_at(times.len() / 2);
    for &t in seen {
        ewma.observe(profile, 1, Duration::from_secs_f64(t));
    }
    let predicted = ewma.predict(profile).as_secs_f64();
    let errors: Vec<f64> = held_back
        .iter()
        .map(|t| (predicted - t).abs() / t)
        .collect();
    stats::mean(&errors) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;

    /// The workload's plan cut down to four images of the toy geometry.
    fn tiny_plan(workload: Workload) -> Plan {
        let plan = Plan::of(workload, 1);
        let batch = plan.batch.min(2);
        Plan {
            batch,
            calls: 4 / batch,
            rounds: 2,
            setups: 2,
            compared: 2,
            traced: 4,
            ..plan
        }
    }

    const DEIT: [Workload; 4] = [
        Workload::DeitDenseB1,
        Workload::DeitPrunedB1,
        Workload::DeitInt8B1,
        Workload::DeitPrunedB16T2,
    ];

    #[test]
    fn every_deit_pipeline_runs_end_to_end_on_the_toy_geometry() {
        let geometry = Geometry::test_tiny();
        for workload in DEIT {
            let plan = tiny_plan(workload);
            let result = run(&plan, &geometry, 11);
            assert!(result.correct, "{}: {:?}", workload.name(), result.notes);
            assert_eq!(result.failed, 0);
            assert_eq!(result.attempted, (plan.calls * plan.rounds) as u64);
            // Panics if an end-to-end metric is missing or not finite.
            let line = result_line(workload, false, &result);
            assert!(line.contains("\"setup_s\""));
            for name in ["images_per_s", "latency_p50_ms", "gmac_per_image"] {
                assert!(result.metrics.get(name).unwrap() > 0.0, "{name}");
            }
        }
    }

    #[test]
    fn every_deit_trace_reports_the_metrics_it_owns() {
        let geometry = Geometry::test_tiny();
        for workload in DEIT {
            let (result, recorder) = trace(&tiny_plan(workload), &geometry, 11);
            assert!(result.correct, "{}: {:?}", workload.name(), result.notes);
            // Panics if a per-layer metric this workload owns is missing, or
            // one it does not own was set.
            result_line(workload, true, &result);
            assert_eq!(
                recorder
                    .spans()
                    .iter()
                    .filter(|s| s.name == "image")
                    .count(),
                4,
                "one image span per traced image"
            );
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_counts() {
        let geometry = Geometry::test_tiny();
        let plan = tiny_plan(Workload::DeitPrunedB1);
        let (a, b) = (run(&plan, &geometry, 5), run(&plan, &geometry, 5));
        assert_eq!(
            a.metrics.get("gmac_per_image"),
            b.metrics.get("gmac_per_image")
        );
    }

    #[test]
    fn the_walk_splits_blocks_into_the_geometrys_stages() {
        let blocks = Geometry::deit_tiny().selector_blocks;
        let stages: Vec<usize> = (0..12).map(|b| walk::stage_of(b, &blocks)).collect();
        assert_eq!(stages, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
    }
}
