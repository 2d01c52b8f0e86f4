//! The repository benchmark: four DeiT-T-scale inference workloads and two
//! micro serving workloads, measured from outside through public functions.
//! `README.md` beside `Cargo.toml` has the tables and the reasoning.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--repeat <n>]
//! benchmark --list
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it is a
//! summary with the host fingerprint and `"claim": null` — this benchmark
//! measures, it claims no gain.

mod alloc;
mod catalogue;
mod deit;
mod fixtures;
mod host;
mod kernels;
mod report;
mod serve;
mod spans;
mod stats;
mod walk;

use catalogue::{Workload, END_TO_END};
use fixtures::Geometry;
use report::RunResult;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    repeat: usize,
    list: bool,
    benchmark_json: bool,
    write_golden: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <name> --seed <n> [--seconds <1..60>] [--trace <0|1>] \
         [--repeat <n>]\n       benchmark --list | --benchmark-json | --write-golden\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 0,
        seconds: catalogue::RUN_SECONDS,
        trace: false,
        repeat: 1,
        list: false,
        benchmark_json: false,
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--repeat" => {
                out.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or("--repeat takes a whole number of at least 2")?
            }
            "--list" => out.list = true,
            "--benchmark-json" => out.benchmark_json = true,
            "--write-golden" => out.write_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.trace && out.repeat > 1 {
        return Err("--repeat runs the untraced workload; drop --trace 1".to_string());
    }
    Ok(out)
}

/// One run of `workload`; a traced run also writes its trace file.
fn run_once(workload: Workload, seed: u64, seconds: u32, trace: bool) -> RunResult {
    if workload.is_serve() {
        let plan = serve::Plan::of(workload, seconds);
        if trace {
            let (result, recorder) = serve::trace(&plan, seed);
            write_trace(workload, &recorder);
            result
        } else {
            serve::run(&plan, seed)
        }
    } else {
        let geometry = Geometry::deit_tiny();
        let plan = deit::Plan::of(workload, seconds);
        if trace {
            let (result, recorder) = deit::trace(&plan, &geometry, seed);
            write_trace(workload, &recorder);
            result
        } else {
            deit::run(&plan, &geometry, seed)
        }
    }
}

/// Writes the trace into the benchmark's own `out/` (which `.gitignore`
/// names) and says where.
fn write_trace(workload: Workload, recorder: &spans::Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{}.json", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, recorder.chrome_json()))
    {
        Ok(()) => println!(
            "trace: {} spans -> {}",
            recorder.spans().len(),
            path.display()
        ),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}

/// First line a command prints, or `"unknown"` (the checkout the driver runs
/// in is not a git repository, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the numbers depend on besides the code: recorded with every run.
fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"target_features\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\"}}",
        cpu.replace('"', "'"),
        features.join(" "),
        first_line_of("rustc", &["--version"]).replace('"', "'"),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// Runs the untraced workload `n` times in this process on the same seed and
/// prints, per end-to-end metric, min / median / max and the spread (distance
/// between the quartiles over the median) against the metric's bound. A
/// metric whose spread exceeds its bound cannot resolve a change of that
/// size: it is marked `unresolved`.
fn repeat(workload: Workload, args: &Args) -> RunResult {
    let runs: Vec<RunResult> = (0..args.repeat)
        .map(|_| run_once(workload, args.seed, args.seconds, false))
        .collect();
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>9} {:>7} {:>13}",
        "metric", "min", "median", "max", "spread", "bound", "spread/bound"
    );
    for metric in &END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .map(|r| r.metrics.get(metric.name).expect("every run reports it"))
            .collect();
        let sorted = stats::sorted(&values);
        let median = stats::median(&values);
        let (q1, q3) = stats::quartiles(&values);
        let spread = (q3 - q1) / median;
        println!(
            "{:<18} {:>12.5} {:>12.5} {:>12.5} {:>8.2}% {:>6.0}% {:>13.2}{}",
            metric.name,
            sorted[0],
            median,
            sorted[sorted.len() - 1],
            spread * 100.0,
            metric.bound * 100.0,
            spread / metric.bound,
            if spread > metric.bound {
                "  unresolved"
            } else {
                ""
            }
        );
    }
    let failed = runs.iter().find(|r| !r.correct || r.failed > 0);
    failed
        .or(runs.last())
        .cloned()
        .expect("--repeat takes at least two runs")
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", catalogue::listing());
        return ExitCode::SUCCESS;
    }
    if args.benchmark_json {
        print!("{}", catalogue::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.write_golden {
        let geometry = Geometry::deit_tiny();
        print!("{}", deit::golden_text(&geometry, &geometry.dense()));
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload.as_deref().and_then(Workload::from_name) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = if args.repeat > 1 {
        repeat(workload, &args)
    } else {
        run_once(workload, args.seed, args.seconds, args.trace)
    };
    for note in &result.notes {
        println!("{note}");
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"claim\": null}}",
        workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host_fingerprint()
    );
    println!("{}", report::result_line(workload, args.trace, &result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&strings(&[
            "--workload",
            "deit_dense_b1",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("deit_dense_b1"));
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.repeat),
            (42, 10, true, 1)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--seconds", "0"][..],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--repeat", "1"],
            &["--seed"],
            &["--frobnicate"],
            &["--trace", "1", "--repeat", "3"],
        ] {
            assert!(parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_fingerprint_is_one_json_object() {
        let host = host_fingerprint();
        assert!(host.starts_with("{\"nproc\": ") && host.ends_with('}'));
        assert!(!host.contains('\n'));
    }
}
