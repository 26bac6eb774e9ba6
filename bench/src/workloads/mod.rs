//! The four workloads. Each runs in a process of its own.

pub mod batch_qa;
pub mod durable;
pub mod script;
pub mod served;
pub mod traced;
pub mod worlds;

use crate::metrics::Values;
use crate::verify::Tally;
use std::path::PathBuf;
use std::time::Instant;

/// What one run was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    pub trace: bool,
    /// A short run for CI wiring: the checks that need a full sample
    /// (percentile support, cache hit ratio) are skipped.
    pub smoke: bool,
    /// The `ltgs` binary the served workloads spawn.
    pub ltgs_bin: PathBuf,
    /// Scratch directory of this run (`bench/out/<workload>-<seed>`).
    pub dir: PathBuf,
    /// When the process started: set-up counts from here.
    pub started: Instant,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub values: Values,
    /// Human-readable lines printed above the metrics.
    pub notes: Vec<String>,
    /// What the workload measures under the names ISSUE 11 gave it:
    /// `(name, value, unit, samples behind it)`. Printed by every run
    /// and kept in `BENCH.json`; the result line carries the six
    /// metrics every workload has (`metrics::END_TO_END`).
    pub named: Vec<(&'static str, f64, &'static str, usize)>,
    /// FNV-1a digest of the run's rendered program and script.
    pub digest: u64,
}

/// Open-loop rates of pass B (the traced run), ops/s. Constants, set
/// once against the closed-loop throughput the seed commit reached on
/// the 2-core box this benchmark was sized on — 8 % of it on
/// `serve_query`, where a miss costs 200 hits and queues build early,
/// 40 % on `serve_churn`; `bench/README.md` has the measurements — and
/// never derived at run time: the offered load must not follow the
/// program's speed.
pub const R_QUERY: f64 = 1500.0;
pub const R_CHURN: f64 = 1400.0;

/// 64-bit FNV-1a, for the input digests.
pub fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    let mut h = digest;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match (ctx.workload.as_str(), ctx.trace) {
        ("batch_qa", _) => batch_qa::run(ctx),
        ("serve_query", false) => served::run(ctx, &served::SERVE_QUERY),
        ("serve_churn", false) => served::run(ctx, &served::SERVE_CHURN),
        ("serve_query", true) => traced::run(ctx, &served::SERVE_QUERY),
        ("serve_churn", true) => traced::run(ctx, &served::SERVE_CHURN),
        ("durable_restart", false) => durable::run(ctx),
        ("durable_restart", true) => durable::run_traced(ctx),
        (other, _) => Err(format!("unknown workload {other:?}")),
    }
}
