//! `ltgs-perfbench` — the layered benchmark of ltgs. `bench/run.sh`
//! builds it and hands its arguments through; `bench/README.md` says
//! what it measures and why.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is its JSON
//! run.sh [--seed N] [--seconds S] [--runs K] [--trace] [--smoke]
//!                                                        all four workloads → bench/out/BENCH.json
//! run.sh --bless [--seed N]                              write bench/expected/<workload>.<seed>.tsv
//! run.sh compare A.json B.json [more…]                   verdict per workload × metric
//! run.sh emit-benchmark-json                             print BENCHMARK.json from the tables
//! ```

mod compare;
mod json;
mod metrics;
mod pinned;
mod serve;
mod stats;
mod trace;
mod verify;
mod workloads;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Ctx, Outcome};

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub bless: bool,
    pub runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: pinned::DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        bless: false,
        runs: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--runs" => args.runs = value("--runs")?.parse().map_err(|_| "bad --runs")?,
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` / `--trace 1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// The directory holding `bench/` (the benchmark runs from the root of
/// a checkout).
pub fn bench_dir() -> PathBuf {
    PathBuf::from("bench")
}

fn json_line(trace: bool, outcome: &Outcome) -> Result<String, String> {
    let names: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut metrics = Vec::new();
    for name in names {
        // A layer the workload bypasses reports 0; an end-to-end metric
        // has a meaning on every workload and may not be missing.
        let value = match (outcome.values.get(name), trace) {
            (Some(v), _) => v,
            (None, true) => 0.0,
            (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number"));
        }
        let unit = metrics::unit_of(name).expect("name comes from the tables");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(", ")
    ))
}

/// One run of one workload in this process.
fn run_one(args: &Args, workload: &str, started: Instant) -> Result<bool, String> {
    if !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!(
            "unknown workload {workload:?} (have: {})",
            WORKLOADS.map(|(n, _)| n).join(", ")
        ));
    }
    let dir = bench_dir()
        .join("out")
        .join(format!("{workload}-{}", args.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let ltgs_bin = std::env::var_os("LTGS_BIN")
        .map(PathBuf::from)
        .ok_or("LTGS_BIN is not set (run through bench/run.sh)")?;
    let ctx = Ctx {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        ltgs_bin,
        dir,
        started,
    };
    serve::pin_to_cpu(serve::measured_cpu());
    let mut outcome = workloads::run(&ctx)?;
    pinned::check_digest(workload, args.seed, outcome.digest, &mut outcome.tally);

    println!(
        "# {workload} seed={} seconds={} trace={} digest={:016x}",
        args.seed, args.seconds, args.trace as u8, outcome.digest
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for (name, value) in &outcome.values.0 {
        let unit = metrics::unit_of(name).unwrap_or("");
        println!("{name:<40} {value:>16.4} {unit}");
    }
    // `@` lines: the workload's numbers under the names ISSUE 11 gave
    // them, with the samples behind each; `run_all` keeps them.
    let t = &outcome.tally;
    let failed_share = t.failed as f64 / t.attempted.max(1) as f64;
    for (name, value, unit, n) in &outcome.named {
        println!("@ {name} {value} {unit} n={n}");
    }
    println!("@ failed_share {failed_share} ratio n={}", t.attempted);
    println!(
        "ops_attempted {}  ops_failed {}  failed_share {failed_share:.6}",
        t.attempted, t.failed
    );
    for reason in &t.reasons {
        eprintln!("FAILED: {reason}");
    }
    println!("{}", json_line(args.trace, &outcome)?);
    Ok(t.failed == 0)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("emit-benchmark-json") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some("compare") => compare::run(&argv[1..]),
        _ => parse_args(&argv).and_then(|args| match (&args.workload, args.bless) {
            (_, true) => pinned::bless(&args),
            (Some(w), false) => run_one(&args, w, started),
            (None, false) => compare::run_all(&args),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
