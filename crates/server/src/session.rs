//! The resident session: one warm engine serving many requests.
//!
//! A [`Session`] owns a [`LtgEngine`] (database + execution graph +
//! derivation forest) that is reasoned to fixpoint once at startup and
//! then maintained incrementally: queries are answered from the
//! materialized graph (and memoized in a [`QueryCache`]), inserts go
//! through [`LtgEngine::reason_delta`] so only the affected execution
//! nodes re-run, and probability updates touch nothing but the weight
//! vector.
//!
//! The session is deliberately single-threaded (the engine shares
//! lineage structures through `Rc`); [`crate::server::Server`] serializes
//! requests through one worker thread and keeps the socket I/O
//! concurrent.

use crate::cache::{CacheBudget, CacheStats, CachedAnswers, QueryCache};
use ltg_approx::{mix_seed, Tier, TierPlanner};
use ltg_core::{EngineConfig, EngineError, InsertError, LtgEngine};
use ltg_datalog::fxhash::FxHashMap;
use ltg_datalog::{Atom, DependencyGraph, PredId, Program, Sym, Term, Var};
use ltg_obs::{expose_histogram, expose_value, Histogram, PhaseTimer};
use ltg_persist::{
    BootMode, BootReport, CheckpointInfo, PersistError, WalMetrics, WalOp, WalRecord, WalWriter,
};
use ltg_storage::{DeleteOutcome, InsertOutcome};
use ltg_wmc::{SolverKind, WmcSolver};
use std::fmt;
use std::path::PathBuf;
use std::rc::Rc;

/// Durability knobs: where the session's snapshot + write-ahead log
/// live, and how eagerly they reach stable storage.
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Data directory (created if missing) holding the snapshot and the
    /// WAL.
    pub dir: PathBuf,
    /// Fsync the WAL after this many appended records (1 = every
    /// record; larger values batch the syncs and bound the mutations a
    /// crash may forfeit).
    pub fsync_every: usize,
    /// Time-based group commit: fsync once the oldest unsynced WAL
    /// record has waited this many milliseconds, whichever of the two
    /// thresholds fires first (`None`: count-based batching only). The
    /// session worker drives the timer between requests, so a burst
    /// shares one fsync and an idle tail is flushed within the window.
    pub fsync_after_ms: Option<u64>,
    /// Write a checkpoint automatically once the WAL holds this many
    /// records (0 = only on the `SNAPSHOT` verb and shutdown).
    pub snapshot_every: u64,
}

impl DurabilityOptions {
    /// Defaults for a data directory: fsync every record, checkpoint
    /// every 1024.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        DurabilityOptions {
            dir: dir.into(),
            fsync_every: 1,
            fsync_after_ms: None,
            snapshot_every: 1024,
        }
    }

    /// The [`ltg_persist::SyncPolicy`] these options describe.
    pub fn sync_policy(&self) -> ltg_persist::SyncPolicy {
        match self.fsync_after_ms {
            Some(ms) => ltg_persist::SyncPolicy::after_ms(self.fsync_every, ms),
            None => ltg_persist::SyncPolicy::every(self.fsync_every),
        }
    }
}

/// Session construction knobs.
#[derive(Clone, Debug)]
pub struct SessionOptions {
    /// Engine configuration (collapse, depth cap, lineage cap).
    pub config: EngineConfig,
    /// Exact WMC solver answering the queries.
    pub solver: SolverKind,
    /// Query-cache eviction budget.
    pub cache: CacheBudget,
    /// Snapshot + WAL persistence (`None`: the session state dies with
    /// the process).
    pub durability: Option<DurabilityOptions>,
    /// Record latency histograms (`METRICS` verb, `*_p99_us` STATS
    /// keys). On by default; disabling skips every clock read on the
    /// request path (the `metrics_overhead` bench measures the gap).
    pub metrics: bool,
    /// Slow-request log threshold: any request slower than this many
    /// milliseconds writes one structured `key=value` line to stderr
    /// with its phase breakdown (`None`: off).
    pub slow_ms: Option<u64>,
    /// Session seed for the sampled approximation tier. Every
    /// `QUERY … EPSILON/DEADLINE` request derives its sampler seed from
    /// `(seed, database epoch, query text)`, so a given session replays
    /// bit-identical intervals while distinct queries (and re-runs after
    /// mutations) draw independent streams.
    pub seed: u64,
}

/// Default [`SessionOptions::seed`] — any fixed value works; this one
/// spells "ltgs" in hex-ish leetspeak so seeded runs are recognizable.
pub const DEFAULT_SESSION_SEED: u64 = 0x1765;

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            config: EngineConfig::default(),
            solver: SolverKind::Sdd,
            cache: CacheBudget::default(),
            durability: None,
            metrics: true,
            slow_ms: None,
            seed: DEFAULT_SESSION_SEED,
        }
    }
}

/// Where a request came from: the front-end connection id and the
/// request's sequence number on that connection. Stamped on slow-log
/// lines (`conn=<id> seq=<n>`) so a server-side outlier can be matched
/// to the client-side tail sample the traffic harness recorded for the
/// same request. `conn=0` means unattributed (an in-process caller —
/// benches, tests — rather than a TCP connection; real connection ids
/// start at 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestOrigin {
    /// 1-based connection id from the accept path (0: in-process).
    pub conn: u64,
    /// 1-based request index within the connection (0: in-process).
    pub seq: u64,
}

/// Why a session failed to come up.
#[derive(Debug)]
pub enum BootError {
    /// Initial (or replay) reasoning failed.
    Engine(EngineError),
    /// The data directory could not be set up (snapshot/WAL I/O).
    Persist(PersistError),
}

impl fmt::Display for BootError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootError::Engine(e) => write!(f, "{e}"),
            BootError::Persist(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BootError {}

impl From<PersistError> for BootError {
    fn from(e: PersistError) -> Self {
        match e {
            PersistError::Engine(e) => BootError::Engine(e),
            other => BootError::Persist(other),
        }
    }
}

/// One rendered query answer.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The answer atom, e.g. `p(a,b)`.
    pub text: String,
    /// Its marginal probability.
    pub prob: f64,
}

/// One rendered answer of an approximate (`EPSILON` / `DEADLINE`)
/// query: a sound `[lower, upper]` interval around the exact marginal.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundedAnswer {
    /// The answer atom, e.g. `p(a,b)`.
    pub text: String,
    /// Lower bound on the marginal probability.
    pub lower: f64,
    /// Upper bound on the marginal probability.
    pub upper: f64,
}

/// Outcome of [`Session::insert`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InsertResponse {
    /// New fact; delta reasoning ran, the epoch advanced.
    Inserted {
        /// Database epoch after the insert.
        epoch: u64,
    },
    /// The fact already existed with the same probability.
    Duplicate {
        /// The (unchanged) stored probability.
        prob: f64,
    },
    /// The fact exists with a different probability; nothing changed.
    Conflict {
        /// The probability already stored.
        existing: f64,
    },
}

/// Outcome of [`Session::delete`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeleteResponse {
    /// The fact was removed and its derivation cone re-derived; the
    /// epoch advanced.
    Deleted {
        /// The probability the fact carried when it was removed.
        prob: f64,
        /// Database epoch after the deletion.
        epoch: u64,
    },
    /// The fact was not in the EDB (unknown constants included); nothing
    /// changed — deletion is idempotent.
    Missing,
}

/// Outcome of [`Session::update`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UpdateResponse {
    /// The probability before the update.
    pub old: f64,
    /// The probability now stored.
    pub new: f64,
    /// Database epoch after the update.
    pub epoch: u64,
}

/// One typed mutation — the unit of [`Session::apply`]. The wire verbs
/// `INSERT` / `DELETE` / `UPDATE` parse into these
/// ([`crate::protocol::Request::Mutate`]); programmatic callers can mix
/// the kinds freely in one [`MutationBatch`].
#[derive(Clone, Debug, PartialEq)]
pub enum Mutation {
    /// Add `prob :: atom.` to the EDB and propagate it incrementally.
    Insert {
        /// The probability annotation.
        prob: f64,
        /// The ground atom text.
        atom: String,
    },
    /// Retract `atom.` from the EDB and prune + re-derive its cone.
    Delete {
        /// The ground atom text.
        atom: String,
    },
    /// Overwrite the stored probability of `atom.` (weights only).
    Update {
        /// The new probability.
        prob: f64,
        /// The ground atom text.
        atom: String,
    },
}

impl Mutation {
    /// The targeted atom text.
    pub fn atom(&self) -> &str {
        match self {
            Mutation::Insert { atom, .. }
            | Mutation::Delete { atom }
            | Mutation::Update { atom, .. } => atom,
        }
    }
}

/// An ordered sequence of mutations applied through the session's one
/// validate → WAL-log → engine-pass → cache-invalidate pipeline.
pub type MutationBatch = Vec<Mutation>;

/// Per-mutation outcome of [`Session::apply`] (one per input mutation,
/// input order), wrapping the per-kind response types.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MutationResponse {
    /// Outcome of a [`Mutation::Insert`].
    Insert(InsertResponse),
    /// Outcome of a [`Mutation::Delete`].
    Delete(DeleteResponse),
    /// Outcome of a [`Mutation::Update`].
    Update(UpdateResponse),
}

/// A phase-1-validated mutation, ready to apply (see
/// [`Session::apply`]).
enum Planned {
    Insert { prob: f64, atom: String },
    Update { prob: f64, atom: String },
    Delete { atom: String },
}

/// Request-level failures (wire-format friendly).
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// Malformed atom or probability text.
    Parse(String),
    /// The predicate (name/arity) does not occur in the program.
    UnknownPredicate(String),
    /// `UPDATE` targets a fact that is not in the EDB.
    UnknownFact(String),
    /// The engine rejected the mutation (derived predicate, bad
    /// probability, arity mismatch).
    Rejected(String),
    /// Reasoning aborted (OOM / timeout / lineage cap).
    Engine(EngineError),
    /// The probability computation failed.
    Solver(String),
    /// `SNAPSHOT` was requested but the session has no data directory.
    NotDurable,
    /// A checkpoint failed (snapshot/WAL I/O).
    Persist(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(m) => write!(f, "parse: {m}"),
            SessionError::UnknownPredicate(p) => write!(f, "unknown predicate {p}"),
            SessionError::UnknownFact(a) => write!(f, "unknown fact {a}"),
            SessionError::Rejected(m) => write!(f, "rejected: {m}"),
            SessionError::Engine(e) => write!(f, "engine: {e}"),
            SessionError::Solver(m) => write!(f, "solver: {m}"),
            SessionError::NotDurable => {
                write!(f, "not durable: start the server with --data-dir")
            }
            SessionError::Persist(m) => write!(f, "persist: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Request counters, reported by `STATS`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// `QUERY` requests served (hits and misses).
    pub queries: u64,
    /// Facts accepted and propagated.
    pub inserts: u64,
    /// Inserts of an already-present identical fact.
    pub duplicates: u64,
    /// Inserts refused because the stored probability differs.
    pub conflicts: u64,
    /// Probability updates applied.
    pub updates: u64,
    /// Facts retracted (cone pruned and re-derived).
    pub deletes: u64,
    /// Deletes of facts that were not in the EDB (acknowledged no-ops).
    pub deletes_missing: u64,
    /// `QUERY … EPSILON/DEADLINE` requests served (subset of nothing —
    /// counted separately from `queries`).
    pub queries_approx: u64,
    /// Approximate queries whose escalation ladder settled with a point
    /// interval (budgeted-exact rung converged).
    pub approx_tier_exact: u64,
    /// Approximate queries answered from anytime/dissociation bounds.
    pub approx_tier_anytime: u64,
    /// Approximate queries that escalated to Karp–Luby sampling.
    pub approx_tier_sampled: u64,
    /// Total escalation steps taken across approximate queries.
    pub approx_escalations: u64,
    /// `DEADLINE` queries whose wall time exceeded their budget (the
    /// best-so-far bounds were still published).
    pub approx_deadline_overruns: u64,
}

/// A resident engine + query cache answering requests, optionally
/// durable (snapshot + WAL in a data directory).
pub struct Session {
    engine: LtgEngine,
    solver: Box<dyn WmcSolver>,
    /// Dependency graph of the canonical program (per-predicate cache
    /// invalidation closures).
    deps: DependencyGraph,
    dep_closures: FxHashMap<PredId, Rc<[PredId]>>,
    cache: QueryCache,
    /// Cache bytes currently charged into the engine's resource meter.
    cache_charged: usize,
    stats: SessionStats,
    /// The open WAL (durable sessions only).
    wal: Option<WalWriter>,
    durability: Option<DurabilityOptions>,
    /// How this session booted (`STATS boot`).
    boot_mode: BootMode,
    /// Epoch of the newest on-disk snapshot.
    snapshot_epoch: Option<u64>,
    /// Checkpoints written by this session.
    snapshots: u64,
    /// Set when a WAL append failed: the session keeps serving, but
    /// durability is suspended and reported (`STATS wal_broken`).
    wal_broken: bool,
    /// Latency histograms ([`SessionOptions::metrics`]).
    metrics: SessionMetrics,
    /// Histogram recording enabled.
    metrics_on: bool,
    /// Slow-request log threshold in microseconds.
    slow_us: Option<u64>,
    /// WMC solve time of the last cache-missing query (for its slow-log
    /// line).
    last_wmc_us: u64,
    /// Who sent the request currently executing (slow-log correlation).
    origin: RequestOrigin,
    /// Sampler seed base ([`SessionOptions::seed`]).
    seed: u64,
}

/// Per-verb latency distributions of one session (whole microseconds).
#[derive(Debug, Default)]
struct SessionMetrics {
    /// `QUERY` answered from the cache.
    query_hit_us: Histogram,
    /// `QUERY` computed (lineage + WMC).
    query_miss_us: Histogram,
    /// Approximate queries that settled at the budgeted-exact rung.
    tier_exact_us: Histogram,
    /// Approximate queries answered from anytime/dissociation bounds.
    tier_anytime_us: Histogram,
    /// Approximate queries that escalated to Karp–Luby sampling.
    tier_sampled_us: Histogram,
    /// Interval width (`upper - lower`) of each published approximate
    /// answer, in parts-per-million (an integer histogram can't hold
    /// fractions; 1e6 ppm = a vacuous [0,1] interval).
    bounds_gap_ppm: Histogram,
    /// WMC solve time per computed query (all answers of the query).
    wmc_us: Histogram,
    /// `INSERT` (validate + WAL + delta pass + invalidation).
    insert_us: Histogram,
    /// One sample per `DELETE` run (consecutive deletes share a pass).
    delete_us: Histogram,
    /// `UPDATE` (weight write + WAL).
    update_us: Histogram,
    /// Checkpoint writes (snapshot + WAL reset).
    snapshot_write_us: Histogram,
}

impl Session {
    /// Builds a session and reasons the program to fixpoint (startup
    /// cost; every later request is incremental). With
    /// [`SessionOptions::durability`] set, boots from `snapshot + WAL
    /// tail` when possible instead of re-reasoning.
    pub fn new(program: &Program, opts: SessionOptions) -> Result<Self, BootError> {
        Self::boot(program, opts).map(|(session, _)| session)
    }

    /// [`Session::new`] plus the boot report (cold/warm, records
    /// replayed, recovery notes).
    pub fn boot(program: &Program, opts: SessionOptions) -> Result<(Self, BootReport), BootError> {
        let (engine, wal, report) = match &opts.durability {
            Some(d) => {
                let durable =
                    ltg_persist::boot(&d.dir, program, opts.config.clone(), d.sync_policy())?;
                (durable.engine, Some(durable.wal), durable.report)
            }
            None => {
                let mut engine = LtgEngine::with_config(program, opts.config.clone());
                engine.reason().map_err(BootError::Engine)?;
                let report = BootReport {
                    mode: BootMode::Cold,
                    snapshot_epoch: None,
                    replayed: 0,
                    notes: Vec::new(),
                };
                (engine, None, report)
            }
        };
        let deps = DependencyGraph::build(engine.program());
        let mut session = Session {
            engine,
            solver: opts.solver.build(),
            deps,
            dep_closures: FxHashMap::default(),
            cache: QueryCache::with_budget(opts.cache),
            cache_charged: 0,
            stats: SessionStats::default(),
            wal,
            durability: opts.durability,
            boot_mode: report.mode,
            snapshot_epoch: report.snapshot_epoch,
            snapshots: 0,
            wal_broken: false,
            metrics: SessionMetrics::default(),
            metrics_on: opts.metrics,
            slow_us: opts.slow_ms.map(|ms| ms.saturating_mul(1000)),
            last_wmc_us: 0,
            origin: RequestOrigin::default(),
            seed: opts.seed,
        };
        // A durable cold boot immediately establishes its snapshot:
        // the very next restart is warm even if the process dies before
        // any checkpoint interval elapses (and a WAL tail that was
        // replayed onto a cold boot is folded in right away).
        if session.wal.is_some() && (report.mode == BootMode::Cold || report.replayed > 0) {
            session.checkpoint_inner()?;
        }
        Ok((session, report))
    }

    /// Writes a checkpoint now: snapshot to disk, WAL reset. The wire
    /// entry point of the `SNAPSHOT` verb.
    pub fn checkpoint(&mut self) -> Result<CheckpointInfo, SessionError> {
        if self.wal.is_none() {
            return Err(SessionError::NotDurable);
        }
        self.checkpoint_inner()
            .map_err(|e| SessionError::Persist(e.to_string()))
    }

    fn checkpoint_inner(&mut self) -> Result<CheckpointInfo, PersistError> {
        let (dir, wal) = match (&self.durability, &mut self.wal) {
            (Some(d), Some(w)) => (&d.dir, w),
            _ => unreachable!("checkpoint_inner requires a durable session"),
        };
        let timer = PhaseTimer::start(self.metrics_on);
        let info = ltg_persist::checkpoint(dir, &self.engine, wal)?;
        timer.observe(&mut self.metrics.snapshot_write_us);
        self.snapshots += 1;
        self.snapshot_epoch = Some(info.epoch);
        // A successful checkpoint makes durability coherent again even
        // after an earlier append failure: the snapshot covers every
        // mutation (logged or not) and the WAL reset proved the file
        // writable — resume logging instead of staying silently
        // suspended.
        self.wal_broken = false;
        Ok(info)
    }

    /// Appends one committed mutation to the WAL and checkpoints when
    /// the interval budget fills. Append failures suspend durability
    /// (`wal_broken`) instead of failing the already-applied mutation;
    /// auto-checkpoint failures are reported on stderr and retried at
    /// the next interval.
    fn log_mutation(&mut self, pred: PredId, args: &[Sym], op: WalOp) {
        if self.wal_broken {
            return;
        }
        let Some(wal) = &mut self.wal else {
            return;
        };
        let record = WalRecord {
            epoch: self.engine.db().epoch(),
            pred,
            args: args
                .iter()
                .map(|&s| self.engine.program().symbols.name(s).to_string())
                .collect(),
            op,
        };
        if let Err(e) = wal.append(&record) {
            eprintln!("ltgs: WAL append failed ({e}); durability suspended");
            self.wal_broken = true;
        }
    }

    /// Auto-checkpoint once the WAL interval fills (called after the
    /// reasoning pass of a mutation completed, so the engine is
    /// flushed).
    fn maybe_checkpoint(&mut self) {
        let due = match (&self.durability, &self.wal) {
            (Some(d), Some(w)) => {
                !self.wal_broken && d.snapshot_every > 0 && w.records() >= d.snapshot_every
            }
            _ => false,
        };
        if due {
            if let Err(e) = self.checkpoint_inner() {
                eprintln!("ltgs: automatic checkpoint failed ({e}); will retry");
            }
        }
    }

    /// Re-charges the cache's byte estimate into the engine's resource
    /// meter. `engine_refreshed` must be true when a reasoning pass ran
    /// since the last sync (the pass re-baselines the meter absolutely,
    /// wiping the previous cache charge).
    fn resync_cache_meter(&mut self, engine_refreshed: bool) {
        if engine_refreshed {
            self.cache_charged = 0;
        }
        let now = self.cache.estimated_bytes();
        let meter = self.engine.meter();
        match now.cmp(&self.cache_charged) {
            std::cmp::Ordering::Greater => meter.charge(now - self.cache_charged),
            std::cmp::Ordering::Less => meter.release(self.cache_charged - now),
            std::cmp::Ordering::Equal => {}
        }
        self.cache_charged = now;
    }

    /// The underlying engine (read-only).
    pub fn engine(&self) -> &LtgEngine {
        &self.engine
    }

    /// Request counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Answers a query atom such as `p(a, X)`. Ground and open queries
    /// are both supported; answers are sorted by answer text. Results
    /// are memoized until a dependency predicate is mutated.
    pub fn query(&mut self, atom_text: &str) -> Result<Rc<[Answer]>, SessionError> {
        self.stats.queries += 1;
        let timer = PhaseTimer::start(self.metrics_on || self.slow_us.is_some());
        let Some(atom) = self.resolve_atom(atom_text)? else {
            return Ok(Rc::from(Vec::new()));
        };
        let key = cache_key(&atom);
        if let Some(CachedAnswers::Exact(hit)) = self.cache.lookup(&key, self.engine.db()) {
            if let Some(us) = timer.elapsed_us() {
                if self.metrics_on {
                    self.metrics.query_hit_us.record(us);
                }
                self.log_slow(
                    us,
                    &[("verb", "query"), ("cache", "hit"), ("tier", "exact")],
                    &[],
                );
            }
            return Ok(hit);
        }
        self.last_wmc_us = 0;
        let answers = self.compute(&atom)?;
        let deps = self.dep_closure(atom.pred);
        self.cache.store(
            key,
            deps,
            CachedAnswers::Exact(answers.clone()),
            self.engine.db(),
        );
        self.resync_cache_meter(false);
        if let Some(us) = timer.elapsed_us() {
            if self.metrics_on {
                self.metrics.query_miss_us.record(us);
            }
            self.log_slow(
                us,
                &[("verb", "query"), ("cache", "miss"), ("tier", "exact")],
                &[
                    ("wmc_us", self.last_wmc_us),
                    ("answers", answers.len() as u64),
                ],
            );
        }
        Ok(answers)
    }

    /// Answers a query atom with sound `[lower, upper]` probability
    /// intervals under an accuracy target (`EPSILON ε`: stop once every
    /// answer's interval is at most ε wide) and/or a wall-clock budget
    /// (`DEADLINE ms`: publish the best bounds held when the clock
    /// expires). The [`ltg_approx::TierPlanner`] escalation ladder does
    /// the work; this method resolves the atom, keys the cache by
    /// `(atom, ε, deadline)` so approximate entries never shadow exact
    /// ones, and records the tier/gap observability surface.
    pub fn query_approx(
        &mut self,
        atom_text: &str,
        epsilon: Option<f64>,
        deadline_ms: Option<u64>,
    ) -> Result<Rc<[BoundedAnswer]>, SessionError> {
        self.stats.queries_approx += 1;
        let timer = PhaseTimer::start(self.metrics_on || self.slow_us.is_some());
        let deadline =
            deadline_ms.map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms));
        let Some(atom) = self.resolve_atom(atom_text)? else {
            // Unknown constant: provably empty, a point answer.
            self.finish_approx(timer, Tier::Exact, deadline_ms, true);
            return Ok(Rc::from(Vec::new()));
        };
        let exact_key = cache_key(&atom);
        // A warm exact entry already holds the true marginals — serve
        // point intervals from it; any ε/deadline is trivially met. The
        // probe is stats-neutral (`peek`) so approximate traffic does
        // not skew the exact cache's hit/miss counters.
        if let Some(CachedAnswers::Exact(hit)) = self.cache.peek(&exact_key, self.engine.db()) {
            let answers: Rc<[BoundedAnswer]> = hit
                .iter()
                .map(|a| BoundedAnswer {
                    text: a.text.clone(),
                    lower: a.prob,
                    upper: a.prob,
                })
                .collect();
            if self.metrics_on {
                self.metrics.bounds_gap_ppm.record(0);
            }
            self.finish_approx(timer, Tier::Exact, deadline_ms, true);
            return Ok(answers);
        }
        let key = approx_cache_key(&exact_key, epsilon, deadline_ms);
        if let Some(CachedAnswers::Bounded { answers, tier }) =
            self.cache.lookup(&key, self.engine.db())
        {
            self.finish_approx(timer, tier, deadline_ms, true);
            return Ok(answers);
        }
        // Compute: lineage per answer, then the escalation ladder. The
        // sampler seed mixes (session seed, epoch, query text) so a
        // session replays bit-identically while mutations re-roll.
        self.engine.prepare_answer(&atom);
        let results = self.engine.answer(&atom).map_err(SessionError::Engine)?;
        let weights = self.engine.db().weight_slice();
        let query_seed = mix_seed(self.seed, self.engine.db().epoch(), atom_text.trim());
        let planner = TierPlanner::default();
        let mut tier = Tier::Exact;
        let mut answers = Vec::with_capacity(results.len());
        for (i, (f, d)) in results.into_iter().enumerate() {
            let seed = query_seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let outcome = planner.solve(&d, weights, epsilon, deadline, seed);
            tier = tier.max(outcome.tier);
            self.stats.approx_escalations += u64::from(outcome.escalations);
            if self.metrics_on {
                let ppm = (outcome.gap().clamp(0.0, 1.0) * 1e6).round() as u64;
                self.metrics.bounds_gap_ppm.record(ppm);
            }
            let program = self.engine.program();
            let text = self
                .engine
                .db()
                .store
                .display(f, &program.preds, &program.symbols);
            answers.push(BoundedAnswer {
                text,
                lower: outcome.lower,
                upper: outcome.upper,
            });
        }
        answers.sort_by(|a, b| a.text.cmp(&b.text));
        let answers: Rc<[BoundedAnswer]> = Rc::from(answers);
        let deps = self.dep_closure(atom.pred);
        self.cache.store(
            key,
            deps,
            CachedAnswers::Bounded {
                answers: answers.clone(),
                tier,
            },
            self.engine.db(),
        );
        self.resync_cache_meter(false);
        self.finish_approx(timer, tier, deadline_ms, false);
        Ok(answers)
    }

    /// Records the latency/tier observability of one approximate query:
    /// per-tier histogram sample, deadline verdict, and the slow-log
    /// line.
    fn finish_approx(
        &mut self,
        timer: PhaseTimer,
        tier: Tier,
        deadline_ms: Option<u64>,
        hit: bool,
    ) {
        let Some(us) = timer.elapsed_us() else { return };
        match tier {
            Tier::Exact => self.stats.approx_tier_exact += 1,
            Tier::Anytime => self.stats.approx_tier_anytime += 1,
            Tier::Sampled => self.stats.approx_tier_sampled += 1,
        }
        let verdict = deadline_ms.map(|ms| {
            if us <= ms.saturating_mul(1000) {
                "met"
            } else {
                self.stats.approx_deadline_overruns += 1;
                "overrun"
            }
        });
        if self.metrics_on {
            match tier {
                Tier::Exact => self.metrics.tier_exact_us.record(us),
                Tier::Anytime => self.metrics.tier_anytime_us.record(us),
                Tier::Sampled => self.metrics.tier_sampled_us.record(us),
            }
        }
        let mut tags = vec![
            ("verb", "query"),
            ("cache", if hit { "hit" } else { "miss" }),
            ("tier", tier.name()),
        ];
        if let Some(v) = verdict {
            tags.push(("deadline", v));
        }
        self.log_slow(us, &tags, &[]);
    }

    /// Resolves a query atom's text against the program: predicate
    /// lookup, variable scoping (`_` stays anonymous), constant
    /// interning. `Ok(None)` means a constant the program has never
    /// seen — the query is provably empty and nothing is cached.
    fn resolve_atom(&self, atom_text: &str) -> Result<Option<Atom>, SessionError> {
        let (name, args) = parse_atom_text(atom_text)?;
        let pred = self
            .engine
            .program()
            .preds
            .lookup(&name, args.len())
            .ok_or_else(|| SessionError::UnknownPredicate(format!("{name}/{}", args.len())))?;
        let mut scope: Vec<String> = Vec::new();
        let mut terms: Vec<Term> = Vec::with_capacity(args.len());
        for a in &args {
            if a.is_variable() {
                let i = if a.text == "_" {
                    scope.push(format!("_anon{}", scope.len()));
                    scope.len() - 1
                } else if let Some(i) = scope.iter().position(|n| *n == a.text) {
                    i
                } else {
                    scope.push(a.text.clone());
                    scope.len() - 1
                };
                terms.push(Term::Var(Var(i as u32)));
            } else {
                match self.engine.program().symbols.lookup(&a.text) {
                    Some(s) => terms.push(Term::Const(s)),
                    None => return Ok(None),
                }
            }
        }
        Ok(Some(Atom::new(pred, terms)))
    }

    /// Stamps the origin of the next requests (the front-end sets this
    /// before each forwarded request; see [`RequestOrigin`]).
    pub fn set_origin(&mut self, origin: RequestOrigin) {
        self.origin = origin;
    }

    /// Writes the structured slow-request line when `us` crosses the
    /// `--slow-ms` threshold: one parseable `key=value` record on
    /// stderr with the request's phase breakdown and the `conn`/`seq`
    /// correlation ids of [`RequestOrigin`].
    fn log_slow(&self, us: u64, tags: &[(&str, &str)], extra: &[(&str, u64)]) {
        let Some(slow) = self.slow_us else { return };
        if us < slow {
            return;
        }
        let mut line = String::from("ltgs: slow_request");
        for (k, v) in tags {
            line.push_str(&format!(" {k}={v}"));
        }
        line.push_str(&format!(
            " conn={} seq={} us={us}",
            self.origin.conn, self.origin.seq
        ));
        for (k, v) in extra {
            line.push_str(&format!(" {k}={v}"));
        }
        eprintln!("{line}");
    }

    /// Computes (lineage + WMC) the answers of a resolved atom.
    fn compute(&mut self, atom: &Atom) -> Result<Rc<[Answer]>, SessionError> {
        self.engine.prepare_answer(atom);
        let results = self.engine.answer(atom).map_err(SessionError::Engine)?;
        let weights = self.engine.db().weight_slice();
        let wmc_timer = PhaseTimer::start(self.metrics_on || self.slow_us.is_some());
        let mut answers = Vec::with_capacity(results.len());
        for (f, d) in results {
            let prob = self
                .solver
                .probability(&d, weights)
                .map_err(|e| SessionError::Solver(e.to_string()))?;
            let program = self.engine.program();
            let text = self
                .engine
                .db()
                .store
                .display(f, &program.preds, &program.symbols);
            answers.push(Answer { text, prob });
        }
        if let Some(us) = wmc_timer.elapsed_us() {
            if self.metrics_on {
                self.metrics.wmc_us.record(us);
            }
            self.last_wmc_us = us;
        }
        answers.sort_by(|a, b| a.text.cmp(&b.text));
        Ok(Rc::from(answers))
    }

    /// The transitive body closure of `pred` (memoized).
    fn dep_closure(&mut self, pred: PredId) -> Rc<[PredId]> {
        if let Some(c) = self.dep_closures.get(&pred) {
            return c.clone();
        }
        let seen = self.deps.reachable_from(&[pred]);
        let closure: Rc<[PredId]> = seen
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| PredId(i as u32))
            .collect();
        self.dep_closures.insert(pred, closure.clone());
        closure
    }

    /// Applies a typed mutation batch through the session's **single
    /// mutation pipeline**: validate → WAL-log → engine pass → cache
    /// invalidate, with at most one checkpoint check per engine pass.
    /// Every front end funnels here — protocol dispatch parses the
    /// three mutation verbs into [`crate::protocol::Request::Mutate`],
    /// the sharded router forwards batches to its workers verbatim, and
    /// WAL recovery replays the same pipeline record by record.
    ///
    /// **Validation is batch-atomic.** Phase 1 checks every mutation up
    /// front — atom syntax, predicate existence, groundness — and any
    /// failure rejects the whole batch before the engine or the WAL is
    /// touched. Constants are *not* resolved up front: resolution is
    /// state-dependent (an earlier mutation in the same batch may
    /// intern the constants a later one needs), so it happens at
    /// application time, and state-dependent outcomes — probability
    /// range, derived-predicate rejections, unknown `UPDATE` facts, a
    /// delete of a never-seen constant acknowledged as
    /// [`DeleteResponse::Missing`] — surface when their mutation (or
    /// its delete run, below) is reached. Mutations already applied
    /// stay applied, exactly as if the same sequence had been issued
    /// one request at a time.
    ///
    /// **Application is in order**, with one batching optimization:
    /// maximal runs of consecutive [`Mutation::Delete`]s retract
    /// through a single multi-victim
    /// [`ltg_core::LtgEngine::reason_retract`] pass — `prune_victims`
    /// is multi-victim by construction — so a `DELETE`-heavy batch pays
    /// one cone walk per run instead of one per fact. Responses come
    /// back one per mutation, in input order.
    pub fn apply(&mut self, batch: MutationBatch) -> Result<Vec<MutationResponse>, SessionError> {
        let mut planned = Vec::with_capacity(batch.len());
        for m in batch {
            planned.push(self.validate(m)?);
        }

        let mut responses = Vec::with_capacity(planned.len());
        let mut queue = planned.into_iter().peekable();
        while let Some(p) = queue.next() {
            let timer = PhaseTimer::start(self.metrics_on || self.slow_us.is_some());
            let phases0 = timer.enabled().then(|| self.phase_breakdown());
            let kind = match p {
                Planned::Insert { prob, atom } => {
                    responses.push(MutationResponse::Insert(self.apply_insert(prob, &atom)?));
                    "insert"
                }
                Planned::Update { prob, atom } => {
                    responses.push(MutationResponse::Update(self.apply_update(prob, &atom)?));
                    "update"
                }
                Planned::Delete { atom } => {
                    let mut run = vec![atom];
                    while let Some(Planned::Delete { .. }) = queue.peek() {
                        match queue.next() {
                            Some(Planned::Delete { atom }) => run.push(atom),
                            _ => unreachable!("peeked a delete"),
                        }
                    }
                    let deleted = self.apply_delete_run(&run)?;
                    responses.extend(deleted.into_iter().map(MutationResponse::Delete));
                    "delete"
                }
            };
            if let Some(us) = timer.elapsed_us() {
                if self.metrics_on {
                    match kind {
                        "insert" => self.metrics.insert_us.record(us),
                        "update" => self.metrics.update_us.record(us),
                        _ => self.metrics.delete_us.record(us),
                    }
                }
                let before = phases0.unwrap_or_default();
                let after = self.phase_breakdown();
                // Collapse runs inside tree building; carve it out so
                // the logged phases are disjoint (the histograms make
                // the same split).
                let collapse = after[2].saturating_sub(before[2]);
                self.log_slow(
                    us,
                    &[("verb", kind)],
                    &[
                        ("delta_join_us", after[0].saturating_sub(before[0])),
                        (
                            "tree_build_us",
                            after[1].saturating_sub(before[1]).saturating_sub(collapse),
                        ),
                        ("collapse_us", collapse),
                        ("compact_us", after[3].saturating_sub(before[3])),
                        ("probes", after[4].saturating_sub(before[4])),
                    ],
                );
            }
        }
        Ok(responses)
    }

    /// Cumulative engine phase costs `[delta_join_us, tree_build_us,
    /// collapse_us, compact_us, delta_join_probes]` — diffed around one
    /// mutation for its slow-log phase breakdown.
    fn phase_breakdown(&self) -> [u64; 5] {
        let es = self.engine.stats();
        [
            es.delta_join_time.as_micros() as u64,
            es.tree_build_time.as_micros() as u64,
            es.collapse_time.as_micros() as u64,
            es.compact_time.as_micros() as u64,
            es.delta_join_probes,
        ]
    }

    /// Phase-1 validation of one mutation (see [`Session::apply`]).
    fn validate(&mut self, m: Mutation) -> Result<Planned, SessionError> {
        match m {
            Mutation::Insert { prob, atom } => {
                self.validate_shape(&atom, true)?;
                Ok(Planned::Insert { prob, atom })
            }
            Mutation::Update { prob, atom } => {
                self.validate_shape(&atom, false)?;
                Ok(Planned::Update { prob, atom })
            }
            Mutation::Delete { atom } => {
                self.validate_shape(&atom, false)?;
                Ok(Planned::Delete { atom })
            }
        }
    }

    /// The state-independent prefix of [`Session::resolve_ground`]:
    /// atom syntax, predicate existence, groundness — with
    /// `resolve_ground`'s per-argument check order preserved. When
    /// `all_args` is false the scan stops at the first constant the
    /// session has not interned yet, mirroring `UPDATE`/`DELETE`
    /// resolution, where such an argument ends resolution before later
    /// arguments are examined; `INSERT` interns constants instead, so
    /// every argument is checked.
    fn validate_shape(&self, atom_text: &str, all_args: bool) -> Result<(), SessionError> {
        let (name, args) = parse_atom_text(atom_text)?;
        self.engine
            .program()
            .preds
            .lookup(&name, args.len())
            .ok_or_else(|| SessionError::UnknownPredicate(format!("{name}/{}", args.len())))?;
        for a in &args {
            if a.is_variable() {
                return Err(SessionError::Parse(format!(
                    "fact must be ground; '{}' is a variable",
                    a.text
                )));
            }
            if !all_args && self.engine.program().symbols.lookup(&a.text).is_none() {
                break;
            }
        }
        Ok(())
    }

    /// Inserts `prob :: atom.` and propagates it through the trigger
    /// graph. Conflicting duplicates are refused (the stored probability
    /// wins) — resolve with a [`Mutation::Update`]. Committed inserts
    /// are WAL-logged before the propagation pass: if the pass aborts
    /// (OOM/timeout), the database has already changed and recovery
    /// must replay the fact.
    fn apply_insert(&mut self, prob: f64, atom_text: &str) -> Result<InsertResponse, SessionError> {
        let (pred, args) = self.resolve_ground(atom_text, true)?;
        match self.engine.insert_fact(pred, &args, prob) {
            Ok((_, InsertOutcome::Inserted)) => {
                let sp = self.engine.storage_pred(pred);
                self.log_mutation(sp, &args, WalOp::Insert { prob });
                self.engine.reason_delta().map_err(SessionError::Engine)?;
                self.stats.inserts += 1;
                self.resync_cache_meter(true);
                self.maybe_checkpoint();
                Ok(InsertResponse::Inserted {
                    epoch: self.engine.db().epoch(),
                })
            }
            Ok((_, InsertOutcome::Duplicate)) => {
                self.stats.duplicates += 1;
                Ok(InsertResponse::Duplicate { prob })
            }
            Ok((_, InsertOutcome::Conflict { existing })) => {
                self.stats.conflicts += 1;
                Ok(InsertResponse::Conflict { existing })
            }
            Err(e) => Err(self.rejected(e)),
        }
    }

    /// Retracts a run of deletes through **one** multi-victim
    /// retraction pass: the atoms are resolved at run start (a
    /// derived-predicate atom fails the run before any retraction is
    /// queued; unknown constants cannot name an EDB fact and become
    /// idempotent misses), every resolved fact is removed from the
    /// database (accumulating in the engine's pending set), then a
    /// single [`ltg_core::LtgEngine::reason_retract`] walks the union
    /// of the cones and re-derives the survivors once. The pass also
    /// drains leftovers of an earlier aborted pass, so a retried
    /// `DELETE` can never be acknowledged `Missing` while stale trees
    /// of the earlier victim still answer queries.
    fn apply_delete_run(&mut self, atoms: &[String]) -> Result<Vec<DeleteResponse>, SessionError> {
        enum Resolved {
            /// Unknown constants cannot name an EDB fact: idempotent miss.
            Miss,
            Fact(PredId, Vec<Sym>),
        }
        let mut resolved = Vec::with_capacity(atoms.len());
        for atom in atoms {
            match self.resolve_ground(atom, false) {
                Ok((pred, args)) => {
                    if !self.engine.can_insert(pred) {
                        return Err(self.rejected(InsertError::Intensional(pred)));
                    }
                    resolved.push(Resolved::Fact(pred, args));
                }
                Err(SessionError::UnknownFact(_)) => resolved.push(Resolved::Miss),
                Err(e) => return Err(e),
            }
        }

        let mut responses = Vec::with_capacity(resolved.len());
        let mut deleted = 0u64;
        for r in resolved {
            let Resolved::Fact(pred, args) = r else {
                self.stats.deletes_missing += 1;
                responses.push(DeleteResponse::Missing);
                continue;
            };
            match self.engine.retract_fact(pred, &args) {
                Ok((_, DeleteOutcome::Deleted { prob })) => {
                    let sp = self.engine.storage_pred(pred);
                    self.log_mutation(sp, &args, WalOp::Delete);
                    deleted += 1;
                    responses.push(DeleteResponse::Deleted {
                        prob,
                        epoch: self.engine.db().epoch(),
                    });
                }
                Ok((_, DeleteOutcome::Missing)) => {
                    self.stats.deletes_missing += 1;
                    responses.push(DeleteResponse::Missing);
                }
                Err(e) => return Err(self.rejected(e)),
            }
        }
        if self.engine.pending_retractions() > 0 {
            self.engine.reason_retract().map_err(SessionError::Engine)?;
            self.resync_cache_meter(true);
        }
        self.stats.deletes += deleted;
        if deleted > 0 {
            self.maybe_checkpoint();
        }
        Ok(responses)
    }

    /// Sets `π(fact) = prob` in place — the resolution path for insert
    /// conflicts. Lineage is untouched; dependent cached queries are
    /// invalidated through the epoch bump.
    fn apply_update(&mut self, prob: f64, atom_text: &str) -> Result<UpdateResponse, SessionError> {
        let (pred, args) = self.resolve_ground(atom_text, false)?;
        let sp = self.engine.storage_pred(pred);
        let fact = self
            .engine
            .db()
            .store
            .lookup(sp, &args)
            .filter(|&f| self.engine.db().is_edb_fact(f))
            .ok_or_else(|| SessionError::UnknownFact(atom_text.trim().to_string()))?;
        match self.engine.update_prob(fact, prob) {
            Ok(Some(old)) => {
                // A no-change update commits nothing: the database skips
                // the epoch bump (dependent cache entries stay warm) and
                // logging it would stamp a stale epoch into the WAL.
                if old.to_bits() != prob.to_bits() {
                    self.log_mutation(sp, &args, WalOp::Update { prob });
                }
                self.stats.updates += 1;
                self.maybe_checkpoint();
                Ok(UpdateResponse {
                    old,
                    new: prob,
                    epoch: self.engine.db().epoch(),
                })
            }
            Ok(None) => Err(SessionError::UnknownFact(atom_text.trim().to_string())),
            Err(e) => Err(self.rejected(e)),
        }
    }

    /// `STATS` payload: `(key, value)` lines in a fixed order.
    pub fn stats_lines(&self) -> Vec<(&'static str, String)> {
        let cs = self.cache.stats();
        let es = self.engine.stats();
        let db = self.engine.db();
        let mut lines = vec![
            ("queries", self.stats.queries.to_string()),
            ("queries_approx", self.stats.queries_approx.to_string()),
            ("cache_hits", cs.hits.to_string()),
            ("cache_misses", cs.misses.to_string()),
            ("cache_invalidations", cs.invalidations.to_string()),
            ("cache_evictions", cs.evictions.to_string()),
            ("cache_entries", self.cache.len().to_string()),
            ("cache_bytes", self.cache.estimated_bytes().to_string()),
            ("inserts", self.stats.inserts.to_string()),
            ("duplicates", self.stats.duplicates.to_string()),
            ("conflicts", self.stats.conflicts.to_string()),
            ("updates", self.stats.updates.to_string()),
            ("deletes", self.stats.deletes.to_string()),
            ("deletes_missing", self.stats.deletes_missing.to_string()),
            (
                "approx_tier_exact",
                self.stats.approx_tier_exact.to_string(),
            ),
            (
                "approx_tier_anytime",
                self.stats.approx_tier_anytime.to_string(),
            ),
            (
                "approx_tier_sampled",
                self.stats.approx_tier_sampled.to_string(),
            ),
            (
                "approx_escalations",
                self.stats.approx_escalations.to_string(),
            ),
            (
                "approx_deadline_overruns",
                self.stats.approx_deadline_overruns.to_string(),
            ),
            ("epoch", db.epoch().to_string()),
            ("edb_facts", db.n_edb_facts().to_string()),
            (
                "derived_facts",
                self.engine.derived_facts().len().to_string(),
            ),
            ("rounds", es.rounds.to_string()),
            ("delta_passes", es.delta_passes.to_string()),
            ("retract_passes", es.retract_passes.to_string()),
            ("delta_waves", es.delta_waves.to_string()),
            ("derivations", es.derivations.to_string()),
            ("nodes_alive", es.nodes_alive.to_string()),
            ("delta_join_probes", es.delta_join_probes.to_string()),
            ("delta_new_trees", es.delta_new_trees.to_string()),
            ("combos_pruned", es.combos_pruned.to_string()),
            ("nodes_compacted", es.nodes_compacted.to_string()),
            ("graph_nodes_hiwater", es.graph_nodes_hiwater.to_string()),
            ("leafset_dedup_hits", es.leafset_dedup_hits.to_string()),
            ("bundle_rebuilds", es.bundle_rebuilds.to_string()),
            (
                "reasoning_ms",
                format!("{:.3}", es.reasoning_time.as_secs_f64() * 1e3),
            ),
        ];
        // Latency quantiles over all queries (hits + misses) and all
        // mutations. Sharded STATS folds these with max, not sum.
        let mut query = self.metrics.query_hit_us.clone();
        query.merge(&self.metrics.query_miss_us);
        let mut mutation = self.metrics.insert_us.clone();
        mutation.merge(&self.metrics.delete_us);
        mutation.merge(&self.metrics.update_us);
        let mut approx = self.metrics.tier_exact_us.clone();
        approx.merge(&self.metrics.tier_anytime_us);
        approx.merge(&self.metrics.tier_sampled_us);
        lines.extend([
            ("query_p50_us", query.p50().to_string()),
            ("query_p95_us", query.p95().to_string()),
            ("query_p99_us", query.p99().to_string()),
            ("query_p999_us", query.p999().to_string()),
            ("query_max_us", query.max().to_string()),
            ("mutation_p50_us", mutation.p50().to_string()),
            ("mutation_p95_us", mutation.p95().to_string()),
            ("mutation_p99_us", mutation.p99().to_string()),
            ("mutation_p999_us", mutation.p999().to_string()),
            ("mutation_max_us", mutation.max().to_string()),
            ("query_approx_p50_us", approx.p50().to_string()),
            ("query_approx_p95_us", approx.p95().to_string()),
            ("query_approx_p99_us", approx.p99().to_string()),
            ("query_approx_p999_us", approx.p999().to_string()),
            ("query_approx_max_us", approx.max().to_string()),
        ]);
        lines.extend(self.snapshot_info_lines());
        lines
    }

    /// `METRICS` payload: Prometheus-style text exposition of every
    /// histogram, counter and gauge this session owns, all labeled
    /// `shard="<shard>"` (an unsharded session is shard 0, so the label
    /// scheme is identical with and without `--shards`). Series are
    /// emitted in a fixed order and even when empty — the scheme is
    /// stable from the first scrape. See `docs/observability.md`.
    pub fn metrics_lines(&self, shard: usize) -> Vec<String> {
        let shard = shard.to_string();
        let s = shard.as_str();
        let m = &self.metrics;
        let mut out = Vec::new();
        expose_histogram(
            &mut out,
            "ltg_query_us",
            &[("shard", s), ("cache", "hit")],
            &m.query_hit_us,
        );
        expose_histogram(
            &mut out,
            "ltg_query_us",
            &[("shard", s), ("cache", "miss")],
            &m.query_miss_us,
        );
        for (tier, h) in [
            ("exact", &m.tier_exact_us),
            ("anytime", &m.tier_anytime_us),
            ("sampled", &m.tier_sampled_us),
        ] {
            expose_histogram(&mut out, "ltg_query_us", &[("shard", s), ("tier", tier)], h);
        }
        expose_histogram(
            &mut out,
            "ltg_query_bounds_gap",
            &[("shard", s)],
            &m.bounds_gap_ppm,
        );
        expose_histogram(&mut out, "ltg_wmc_us", &[("shard", s)], &m.wmc_us);
        for (kind, h) in [
            ("insert", &m.insert_us),
            ("delete", &m.delete_us),
            ("update", &m.update_us),
        ] {
            expose_histogram(
                &mut out,
                "ltg_mutation_us",
                &[("shard", s), ("kind", kind)],
                h,
            );
        }
        let ph = self.engine.phase_metrics();
        for (phase, h) in [
            ("delta_join", &ph.delta_join_us),
            ("tree_build", &ph.tree_build_us),
            ("collapse", &ph.collapse_us),
            ("compact", &ph.compact_us),
        ] {
            expose_histogram(
                &mut out,
                "ltg_engine_phase_us",
                &[("shard", s), ("phase", phase)],
                h,
            );
        }
        // WAL and snapshot series are present even on a non-durable
        // session (idle histograms) — the label scheme must not depend
        // on configuration.
        let idle = WalMetrics::default();
        let wm = self.wal.as_ref().map_or(&idle, |w| w.metrics());
        expose_histogram(
            &mut out,
            "ltg_wal_us",
            &[("shard", s), ("op", "append")],
            &wm.append_us,
        );
        expose_histogram(
            &mut out,
            "ltg_wal_us",
            &[("shard", s), ("op", "fsync")],
            &wm.fsync_us,
        );
        expose_histogram(
            &mut out,
            "ltg_snapshot_write_us",
            &[("shard", s)],
            &m.snapshot_write_us,
        );
        expose_value(
            &mut out,
            "ltg_graph_nodes",
            &[("shard", s)],
            self.engine.graph().nodes.len() as u64,
        );
        expose_value(
            &mut out,
            "ltg_cache_entries",
            &[("shard", s)],
            self.cache.len() as u64,
        );
        expose_value(
            &mut out,
            "ltg_leafset_dedup_hits",
            &[("shard", s)],
            self.engine.stats().leafset_dedup_hits,
        );
        expose_value(
            &mut out,
            "ltg_bundle_rebuilds",
            &[("shard", s)],
            self.engine.stats().bundle_rebuilds,
        );
        expose_value(
            &mut out,
            "ltg_approx_escalations",
            &[("shard", s)],
            self.stats.approx_escalations,
        );
        expose_value(
            &mut out,
            "ltg_approx_deadline_overruns",
            &[("shard", s)],
            self.stats.approx_deadline_overruns,
        );
        out
    }

    /// Durability status: `(key, value)` lines shared by `STATS` and
    /// `SNAPSHOT INFO`.
    pub fn snapshot_info_lines(&self) -> Vec<(&'static str, String)> {
        let (records, unsynced) = self
            .wal
            .as_ref()
            .map_or((0, 0), |w| (w.records(), w.unsynced() as u64));
        vec![
            ("durable", u64::from(self.wal.is_some()).to_string()),
            (
                "boot",
                match self.boot_mode {
                    BootMode::Cold => "cold",
                    BootMode::Warm => "warm",
                }
                .to_string(),
            ),
            (
                "snapshot_epoch",
                self.snapshot_epoch
                    .map_or_else(|| "none".to_string(), |e| e.to_string()),
            ),
            ("snapshots", self.snapshots.to_string()),
            ("wal_records", records.to_string()),
            ("wal_unsynced", unsynced.to_string()),
            ("wal_broken", u64::from(self.wal_broken).to_string()),
        ]
    }

    /// Parses a ground atom against the session tables. `intern`
    /// controls whether unseen constants are added (INSERT) or reported
    /// as an unknown fact (UPDATE).
    fn resolve_ground(
        &mut self,
        atom_text: &str,
        intern: bool,
    ) -> Result<(PredId, Vec<Sym>), SessionError> {
        let (name, args) = parse_atom_text(atom_text)?;
        let pred = self
            .engine
            .program()
            .preds
            .lookup(&name, args.len())
            .ok_or_else(|| SessionError::UnknownPredicate(format!("{name}/{}", args.len())))?;
        let mut syms = Vec::with_capacity(args.len());
        for a in &args {
            if a.is_variable() {
                return Err(SessionError::Parse(format!(
                    "fact must be ground; '{}' is a variable",
                    a.text
                )));
            }
            let s = if intern {
                self.engine.intern_symbol(&a.text)
            } else {
                self.engine
                    .program()
                    .symbols
                    .lookup(&a.text)
                    .ok_or_else(|| SessionError::UnknownFact(atom_text.trim().to_string()))?
            };
            syms.push(s);
        }
        Ok((pred, syms))
    }

    /// True when the session persists its state (`--data-dir`).
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// Time until the WAL's group-commit window expires (`Some(0)` =
    /// overdue). `None` when nothing is pending or no time-based policy
    /// is configured. The worker loop uses this as its `recv_timeout`
    /// so idle tails are flushed within the window.
    pub fn wal_flush_due_in(&self) -> Option<std::time::Duration> {
        if self.wal_broken {
            return None;
        }
        self.wal.as_ref().and_then(|w| w.sync_due_in())
    }

    /// Forces unsynced WAL records to disk now (the group-commit timer
    /// path). A failure suspends durability exactly like a failed
    /// append.
    pub fn flush_wal(&mut self) {
        if self.wal_broken {
            return;
        }
        if let Some(wal) = &mut self.wal {
            if let Err(e) = wal.sync() {
                eprintln!("ltgs: WAL sync failed ({e}); durability suspended");
                self.wal_broken = true;
            }
        }
    }

    /// Simulates a WAL append failure (the suspension path is otherwise
    /// only reachable through real I/O errors).
    #[cfg(test)]
    fn force_wal_broken(&mut self) {
        self.wal_broken = true;
    }

    /// Renders an engine-level rejection with human-readable names.
    fn rejected(&self, e: InsertError) -> SessionError {
        let msg = match e {
            InsertError::Intensional(p) => format!(
                "predicate {} is derived by rules; only extensional facts can be inserted or deleted",
                self.engine.program().preds.name(p)
            ),
            other => other.to_string(),
        };
        SessionError::Rejected(msg)
    }
}

impl Drop for Session {
    /// Shutdown durability, best effort: force the WAL to disk, then
    /// fold it into a final checkpoint so the next boot restores one
    /// snapshot instead of replaying a tail. Failures are ignored — a
    /// drop during unwinding must not panic, and the synced WAL already
    /// guarantees recoverability.
    fn drop(&mut self) {
        if self.wal.is_some() && !self.wal_broken {
            if let Some(wal) = &mut self.wal {
                let _ = wal.sync();
            }
            let _ = self.checkpoint_inner();
        }
    }
}

/// The routing-relevant shape of an atom text: which predicate it
/// names, and whether it is ground. Produced by [`atom_shape`] with the
/// session's own tokenizer, so shape errors are bitwise-identical to
/// what a [`Session`] would report for the same text.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomShape {
    /// The predicate name.
    pub name: String,
    /// The argument count.
    pub arity: usize,
    /// The first variable argument (`None` for ground atoms) — routers
    /// that must reject non-ground mutations up front reproduce the
    /// session's `fact must be ground` message from it.
    pub first_var: Option<String>,
}

impl AtomShape {
    /// The `name/arity` key, as rendered in `unknown predicate` errors.
    pub fn key(&self) -> String {
        format!("{}/{}", self.name, self.arity)
    }
}

/// Parses the predicate shape of an atom text without resolving it
/// against any engine — the routing front half of the session's own
/// ground-atom parser.
pub fn atom_shape(text: &str) -> Result<AtomShape, SessionError> {
    let (name, args) = parse_atom_text(text)?;
    Ok(AtomShape {
        name,
        arity: args.len(),
        first_var: args
            .iter()
            .find(|a| a.is_variable())
            .map(|a| a.text.clone()),
    })
}

/// One parsed argument token. Quoted tokens are always constants —
/// `'Alice'` must not become a variable just because it is capitalized,
/// matching the program parser's quoting rules.
struct ArgToken {
    text: String,
    quoted: bool,
}

impl ArgToken {
    /// True for unquoted `X`, `Foo`, `_`, `_x` — the parser's variable
    /// syntax.
    fn is_variable(&self) -> bool {
        !self.quoted
            && self
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase() || c == '_')
    }
}

/// Splits an argument list on commas *outside* quotes, so quoted
/// constants may contain commas (`e('a,b')` is one argument).
fn split_args(inner: &str, full: &str) -> Result<Vec<ArgToken>, SessionError> {
    let mut raw: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut quote: Option<char> = None;
    for c in inner.chars() {
        match quote {
            Some(q) if c == q => {
                quote = None;
                current.push(c);
            }
            Some(_) => current.push(c),
            None => match c {
                '\'' | '"' => {
                    quote = Some(c);
                    current.push(c);
                }
                ',' => raw.push(std::mem::take(&mut current)),
                _ => current.push(c),
            },
        }
    }
    if quote.is_some() {
        return Err(SessionError::Parse(format!(
            "unterminated quote in '{full}'"
        )));
    }
    raw.push(current);

    let mut tokens = Vec::with_capacity(raw.len());
    for tok in raw {
        let tok = tok.trim();
        let first = tok.chars().next();
        let token = if matches!(first, Some('\'') | Some('"')) {
            let q = first.unwrap();
            let stripped = tok
                .strip_prefix(q)
                .and_then(|t| t.strip_suffix(q))
                .ok_or_else(|| {
                    SessionError::Parse(format!("malformed quoted constant '{tok}' in '{full}'"))
                })?;
            ArgToken {
                text: stripped.to_string(),
                quoted: true,
            }
        } else {
            if tok.is_empty() {
                return Err(SessionError::Parse(format!("empty argument in '{full}'")));
            }
            ArgToken {
                text: tok.to_string(),
                quoted: false,
            }
        };
        tokens.push(token);
    }
    Ok(tokens)
}

/// Splits `p(a, B, 'x y')` (trailing `.` optional) into the predicate
/// name and its argument tokens.
fn parse_atom_text(text: &str) -> Result<(String, Vec<ArgToken>), SessionError> {
    let text = text.trim();
    let text = text.strip_suffix('.').unwrap_or(text).trim_end();
    if text.is_empty() {
        return Err(SessionError::Parse("empty atom".into()));
    }
    let (name, args) = match text.split_once('(') {
        None => (text, Vec::new()),
        Some((name, rest)) => {
            let Some(inner) = rest.strip_suffix(')') else {
                return Err(SessionError::Parse(format!("missing ')' in '{text}'")));
            };
            (name.trim(), split_args(inner, text)?)
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c.is_ascii_digit())
    {
        return Err(SessionError::Parse(format!(
            "'{name}' is not a predicate name"
        )));
    }
    Ok((name.to_string(), args))
}

/// Canonical cache key of a resolved atom (variables are already
/// numbered by first occurrence, so α-equivalent queries collide).
fn cache_key(atom: &Atom) -> String {
    use std::fmt::Write;
    let mut key = format!("{}(", atom.pred.0);
    for (i, t) in atom.terms.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        match t {
            Term::Const(s) => {
                let _ = write!(key, "c{}", s.0);
            }
            Term::Var(v) => {
                let _ = write!(key, "v{}", v.0);
            }
        }
    }
    key.push(')');
    key
}

/// Cache key of an approximate query: the exact key plus the request
/// modifiers. Exact keys always end in `)`, so the `#`-suffixed
/// namespace is disjoint from them by construction — an approximate
/// entry can never shadow an exact one (or vice versa), and different
/// ε/deadline combinations never share an interval.
fn approx_cache_key(exact_key: &str, epsilon: Option<f64>, deadline_ms: Option<u64>) -> String {
    let eps = epsilon.map_or_else(|| "-".to_string(), |e| format!("{:x}", e.to_bits()));
    let dl = deadline_ms.map_or_else(|| "-".to_string(), |ms| ms.to_string());
    format!("{exact_key}#eps={eps}#dl={dl}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltg_datalog::parse_program;

    const EXAMPLE1: &str = "
        0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b).
        p(X, Y) :- e(X, Y).
        p(X, Y) :- p(X, Z), p(Z, Y).
    ";

    fn session() -> Session {
        let program = parse_program(EXAMPLE1).unwrap();
        Session::new(&program, SessionOptions::default()).unwrap()
    }

    /// Single-mutation conveniences: every call below funnels through
    /// the one [`Session::apply`] pipeline, exactly like the wire verbs.
    trait ApplyOne {
        fn insert(&mut self, prob: f64, atom: &str) -> Result<InsertResponse, SessionError>;
        fn update(&mut self, prob: f64, atom: &str) -> Result<UpdateResponse, SessionError>;
        fn delete(&mut self, atom: &str) -> Result<DeleteResponse, SessionError>;
        fn delete_batch(&mut self, atoms: &[&str]) -> Result<Vec<DeleteResponse>, SessionError>;
    }

    impl ApplyOne for Session {
        fn insert(&mut self, prob: f64, atom: &str) -> Result<InsertResponse, SessionError> {
            match self.apply(vec![Mutation::Insert {
                prob,
                atom: atom.into(),
            }])?[0]
            {
                MutationResponse::Insert(r) => Ok(r),
                ref other => panic!("expected an insert response, got {other:?}"),
            }
        }

        fn update(&mut self, prob: f64, atom: &str) -> Result<UpdateResponse, SessionError> {
            match self.apply(vec![Mutation::Update {
                prob,
                atom: atom.into(),
            }])?[0]
            {
                MutationResponse::Update(r) => Ok(r),
                ref other => panic!("expected an update response, got {other:?}"),
            }
        }

        fn delete(&mut self, atom: &str) -> Result<DeleteResponse, SessionError> {
            Ok(self.delete_batch(&[atom])?[0])
        }

        fn delete_batch(&mut self, atoms: &[&str]) -> Result<Vec<DeleteResponse>, SessionError> {
            self.apply(
                atoms
                    .iter()
                    .map(|a| Mutation::Delete {
                        atom: (*a).to_string(),
                    })
                    .collect(),
            )?
            .into_iter()
            .map(|r| match r {
                MutationResponse::Delete(d) => Ok(d),
                other => panic!("expected a delete response, got {other:?}"),
            })
            .collect()
        }
    }

    #[test]
    fn ground_query_answers_and_caches() {
        let mut s = session();
        let a1 = s.query("p(a, b)").unwrap();
        assert_eq!(a1.len(), 1);
        assert_eq!(a1[0].text, "p(a,b)");
        assert!((a1[0].prob - 0.78).abs() < 1e-9);
        // Second ask: same Rc from the cache.
        let a2 = s.query("p(a, b).").unwrap();
        assert!((a2[0].prob - 0.78).abs() < 1e-9);
        let cs = s.cache_stats();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.misses, 1);
        assert_eq!(s.stats().queries, 2);
    }

    #[test]
    fn approx_query_brackets_and_caches_separately() {
        let mut s = session();
        // Cold approximate ask: the interval must contain the exact
        // probability and the entry lands under the approx key.
        let a = s.query_approx("p(a, b)", Some(0.5), None).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].text, "p(a,b)");
        assert!(a[0].lower <= 0.78 + 1e-9 && 0.78 <= a[0].upper + 1e-9);
        assert_eq!(s.cache_stats().misses, 1);
        // Second identical ask: a cache hit on the approx entry.
        let b = s.query_approx("p(a, b)", Some(0.5), None).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.cache_stats().hits, 1);
        // A different ε is a different entry — no cross-poisoning.
        s.query_approx("p(a, b)", Some(0.9), None).unwrap();
        assert_eq!(s.cache_stats().misses, 2);
        // The exact path never sees the approximate entries.
        let exact = s.query("p(a, b)").unwrap();
        assert!((exact[0].prob - 0.78).abs() < 1e-9);
        assert_eq!(s.cache_stats().misses, 3);
        assert_eq!(s.stats().queries, 1);
        assert_eq!(s.stats().queries_approx, 3);
    }

    #[test]
    fn approx_query_reuses_a_warm_exact_entry() {
        let mut s = session();
        s.query("p(a, b)").unwrap();
        let before = s.cache_stats();
        let a = s.query_approx("p(a, b)", Some(0.01), Some(50)).unwrap();
        assert_eq!(a[0].lower, a[0].upper);
        assert!((a[0].lower - 0.78).abs() < 1e-9);
        // The probe is stats-neutral: no extra hit or miss recorded.
        let after = s.cache_stats();
        assert_eq!((before.hits, before.misses), (after.hits, after.misses));
        assert_eq!(s.stats().approx_tier_exact, 1);
    }

    #[test]
    fn approx_query_is_deterministic_across_sessions() {
        let mut a = session();
        let mut b = session();
        let ra = a.query_approx("p(a, X)", Some(0.2), None).unwrap();
        let rb = b.query_approx("p(a, X)", Some(0.2), None).unwrap();
        assert_eq!(ra, rb);
        let texts: Vec<&str> = ra.iter().map(|x| x.text.as_str()).collect();
        assert_eq!(texts, vec!["p(a,b)", "p(a,c)"]);
    }

    #[test]
    fn approx_query_counts_deadline_overruns() {
        let mut s = session();
        // A 0 ms deadline always overruns; the answer is still a sound
        // (possibly vacuous) interval.
        let a = s.query_approx("p(a, b)", None, Some(0)).unwrap();
        assert!(a[0].lower <= 0.78 + 1e-9 && 0.78 <= a[0].upper + 1e-9);
        assert_eq!(s.stats().approx_deadline_overruns, 1);
        assert_eq!(s.stats().queries_approx, 1);
        // Unknown constants stay provably empty under modifiers.
        assert!(s
            .query_approx("p(zzz, b)", Some(0.1), None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn open_query_lists_sorted_answers() {
        let mut s = session();
        let answers = s.query("p(a, X)").unwrap();
        let texts: Vec<&str> = answers.iter().map(|a| a.text.as_str()).collect();
        assert_eq!(texts, vec!["p(a,b)", "p(a,c)"]);
        // α-equivalent query hits the same entry.
        s.query("p(a, Y)").unwrap();
        assert_eq!(s.cache_stats().hits, 1);
    }

    #[test]
    fn insert_invalidates_and_requery_matches_scratch() {
        let mut s = session();
        assert!((s.query("p(a, b)").unwrap()[0].prob - 0.78).abs() < 1e-9);
        let resp = s.insert(0.9, "e(a, d)").unwrap();
        assert!(matches!(resp, InsertResponse::Inserted { epoch: 1 }));
        let resp = s.insert(0.4, "e(d, b)").unwrap();
        assert!(matches!(resp, InsertResponse::Inserted { epoch: 2 }));

        let incremental = s.query("p(a, b)").unwrap()[0].prob;
        assert_eq!(s.cache_stats().invalidations, 1);

        // From-scratch session over the grown program.
        let full = parse_program(&format!("{EXAMPLE1} 0.9 :: e(a, d). 0.4 :: e(d, b).")).unwrap();
        let mut scratch = Session::new(&full, SessionOptions::default()).unwrap();
        let fresh = scratch.query("p(a, b)").unwrap()[0].prob;
        assert!(
            (incremental - fresh).abs() < 1e-12,
            "incremental {incremental} vs scratch {fresh}"
        );
        assert!(incremental > 0.78);
    }

    #[test]
    fn apply_runs_a_mixed_batch_through_one_pipeline() {
        let mut s = session();
        let passes_before = s.engine().stats().retract_passes;
        let rs = s
            .apply(vec![
                Mutation::Insert {
                    prob: 0.9,
                    atom: "e(a, d)".into(),
                },
                Mutation::Insert {
                    prob: 0.4,
                    atom: "e(d, b)".into(),
                },
                Mutation::Delete {
                    atom: "e(a, d)".into(),
                },
                Mutation::Delete {
                    atom: "e(d, b)".into(),
                },
                Mutation::Delete {
                    atom: "e(zz, q)".into(),
                },
                Mutation::Update {
                    prob: 0.65,
                    atom: "e(a, c)".into(),
                },
            ])
            .unwrap();
        assert_eq!(rs.len(), 6);
        assert!(matches!(
            rs[0],
            MutationResponse::Insert(InsertResponse::Inserted { epoch: 1 })
        ));
        assert!(matches!(
            rs[2],
            MutationResponse::Delete(DeleteResponse::Deleted { .. })
        ));
        assert_eq!(rs[4], MutationResponse::Delete(DeleteResponse::Missing));
        assert!(matches!(
            rs[5],
            MutationResponse::Update(UpdateResponse { epoch: 5, .. })
        ));
        // The consecutive deletes shared one retraction pass.
        assert_eq!(s.engine().stats().retract_passes, passes_before + 1);

        // Batch-atomic validation: a bad atom anywhere rejects the whole
        // batch before anything applies.
        let epoch = s.engine().db().epoch();
        assert!(matches!(
            s.apply(vec![
                Mutation::Insert {
                    prob: 0.9,
                    atom: "e(a, d)".into(),
                },
                Mutation::Delete {
                    atom: "e(a, X)".into(),
                },
            ]),
            Err(SessionError::Parse(_))
        ));
        assert_eq!(
            s.engine().db().epoch(),
            epoch,
            "rejected batch applied nothing"
        );
    }

    #[test]
    fn duplicate_and_conflict_responses() {
        let mut s = session();
        assert_eq!(
            s.insert(0.5, "e(a, b)").unwrap(),
            InsertResponse::Duplicate { prob: 0.5 }
        );
        assert_eq!(
            s.insert(0.9, "e(a, b)").unwrap(),
            InsertResponse::Conflict { existing: 0.5 }
        );
        // The conflict is resolved via UPDATE; dependent queries see the
        // new weight without re-reasoning.
        let before = s.query("p(a, b)").unwrap()[0].prob;
        let resp = s.update(0.9, "e(a, b)").unwrap();
        assert_eq!(resp.old, 0.5);
        assert_eq!(resp.new, 0.9);
        let after = s.query("p(a, b)").unwrap()[0].prob;
        assert!(after > before);
        let st = s.stats();
        assert_eq!(st.duplicates, 1);
        assert_eq!(st.conflicts, 1);
        assert_eq!(st.updates, 1);
    }

    #[test]
    fn delete_invalidates_and_requery_matches_scratch() {
        let mut s = session();
        assert!((s.query("p(a, b)").unwrap()[0].prob - 0.78).abs() < 1e-9);
        // Unrelated cached query to check per-predicate... (same program
        // has only e/p, so both depend on e — the invalidation is global
        // here; the DELETE e2e test covers the per-predicate split.)
        let resp = s.delete("e(a, b)").unwrap();
        assert_eq!(
            resp,
            DeleteResponse::Deleted {
                prob: 0.5,
                epoch: 1
            }
        );
        let after = s.query("p(a, b)").unwrap()[0].prob;
        assert_eq!(s.cache_stats().invalidations, 1);

        // From-scratch session over the shrunk program.
        let rest = parse_program(
            "0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b).
             p(X, Y) :- e(X, Y).
             p(X, Y) :- p(X, Z), p(Z, Y).",
        )
        .unwrap();
        let mut scratch = Session::new(&rest, SessionOptions::default()).unwrap();
        let fresh = scratch.query("p(a, b)").unwrap()[0].prob;
        assert!(
            (after - fresh).abs() < 1e-12,
            "retracted {after} vs scratch {fresh}"
        );

        // Idempotence: deleting again (or facts that never existed,
        // including unknown constants) reports Missing.
        assert_eq!(s.delete("e(a, b)").unwrap(), DeleteResponse::Missing);
        assert_eq!(s.delete("e(a, zz)").unwrap(), DeleteResponse::Missing);
        let st = s.stats();
        assert_eq!(st.deletes, 1);
        assert_eq!(st.deletes_missing, 2);
        // Deleting a derived predicate is rejected like an insert.
        assert!(matches!(
            s.delete("p(a, b)"),
            Err(SessionError::Rejected(_))
        ));
    }

    #[test]
    fn insert_delete_roundtrip_restores_answers() {
        let mut s = session();
        let before = s.query("p(a, b)").unwrap()[0].prob;
        s.insert(0.9, "e(a, d)").unwrap();
        s.insert(0.4, "e(d, b)").unwrap();
        let grown = s.query("p(a, b)").unwrap()[0].prob;
        assert!(grown > before);
        s.delete("e(a, d)").unwrap();
        s.delete("e(d, b)").unwrap();
        let back = s.query("p(a, b)").unwrap()[0].prob;
        assert_eq!(
            before.to_bits(),
            back.to_bits(),
            "insert+delete must round-trip: {before} vs {back}"
        );
        // The transient answer is gone entirely.
        assert!(s.query("p(a, d)").unwrap().is_empty());
    }

    #[test]
    fn batched_delete_runs_one_retraction_pass() {
        let mut s = session();
        s.insert(0.9, "e(a, d)").unwrap();
        s.insert(0.4, "e(d, b)").unwrap();
        let passes_before = s.engine().stats().retract_passes;
        let responses = s
            .delete_batch(&["e(a, d)", "e(d, b)", "e(zz, q)", "e(a, d)"])
            .unwrap();
        assert_eq!(responses.len(), 4);
        assert!(matches!(
            responses[0],
            DeleteResponse::Deleted { prob, .. } if prob == 0.9
        ));
        assert!(matches!(
            responses[1],
            DeleteResponse::Deleted { prob, .. } if prob == 0.4
        ));
        // Unknown constants and the duplicate victim are misses.
        assert_eq!(responses[2], DeleteResponse::Missing);
        assert_eq!(responses[3], DeleteResponse::Missing);
        // The whole batch was drained by a single multi-victim pass.
        assert_eq!(s.engine().stats().retract_passes, passes_before + 1);
        let st = s.stats();
        assert_eq!(st.deletes, 2);
        assert_eq!(st.deletes_missing, 2);

        // The batch result is indistinguishable from never inserting.
        let mut scratch = session();
        assert_eq!(
            s.query("p(a, b)").unwrap()[0].prob.to_bits(),
            scratch.query("p(a, b)").unwrap()[0].prob.to_bits()
        );
        assert!(s.query("p(a, d)").unwrap().is_empty());

        // Validation failures reject the whole batch up front.
        assert!(matches!(
            s.delete_batch(&["e(a, b)", "p(a, b)"]),
            Err(SessionError::Rejected(_))
        ));
        assert_eq!(s.stats().deletes, 2, "no retraction from the failed batch");
    }

    #[test]
    fn cache_budget_and_meter_wiring() {
        let program = parse_program(EXAMPLE1).unwrap();
        let opts = SessionOptions {
            cache: crate::cache::CacheBudget {
                max_entries: 2,
                max_bytes: usize::MAX,
            },
            ..SessionOptions::default()
        };
        let mut s = Session::new(&program, opts).unwrap();
        let used0 = s.engine().meter().used();
        s.query("p(a, b)").unwrap();
        s.query("p(a, c)").unwrap();
        let used2 = s.engine().meter().used();
        assert!(used2 > used0, "cache bytes are charged into the meter");
        // A third distinct query evicts the LRU entry (p(a, b)).
        s.query("p(b, c)").unwrap();
        assert_eq!(s.cache_stats().evictions, 1);
        let lines = s.stats_lines();
        let get = |k: &str| {
            lines
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("cache_evictions"), "1");
        assert_eq!(get("cache_entries"), "2");
        assert!(get("cache_bytes").parse::<u64>().unwrap() > 0);
        // The evicted query recomputes (miss), not a stale hit.
        let before = s.cache_stats().misses;
        s.query("p(a, b)").unwrap();
        assert_eq!(s.cache_stats().misses, before + 1);
    }

    fn temp_data_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ltgs-session-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable_opts(dir: &std::path::Path) -> SessionOptions {
        SessionOptions {
            durability: Some(DurabilityOptions::at(dir)),
            ..SessionOptions::default()
        }
    }

    #[test]
    fn durable_session_restarts_warm_with_bitwise_answers() {
        let dir = temp_data_dir("warm");
        let program = parse_program(EXAMPLE1).unwrap();

        let (mut s, report) = Session::boot(&program, durable_opts(&dir)).unwrap();
        assert_eq!(report.mode, BootMode::Cold);
        s.insert(0.9, "e(a, d)").unwrap();
        s.insert(0.4, "e(d, b)").unwrap();
        s.delete("e(b, c)").unwrap();
        s.update(0.65, "e(a, c)").unwrap();
        let expected: Vec<(String, u64)> = s
            .query("p(a, X)")
            .unwrap()
            .iter()
            .map(|a| (a.text.clone(), a.prob.to_bits()))
            .collect();
        drop(s); // final checkpoint

        let (mut s2, report) = Session::boot(&program, durable_opts(&dir)).unwrap();
        assert_eq!(report.mode, BootMode::Warm);
        // Shutdown folded the WAL into the snapshot: nothing to replay,
        // and no batch reasoning ran in this process.
        assert_eq!(report.replayed, 0);
        assert_eq!(s2.engine().db().epoch(), 4);
        let got: Vec<(String, u64)> = s2
            .query("p(a, X)")
            .unwrap()
            .iter()
            .map(|a| (a.text.clone(), a.prob.to_bits()))
            .collect();
        assert_eq!(got, expected);
        // Mutations keep working (and keep being logged) after restore.
        s2.insert(0.1, "e(c, a)").unwrap();
        assert_eq!(s2.engine().db().epoch(), 5);
        drop(s2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_without_shutdown_replays_the_wal() {
        let dir = temp_data_dir("kill");
        let program = parse_program(EXAMPLE1).unwrap();
        let (mut s, _) = Session::boot(&program, durable_opts(&dir)).unwrap();
        s.insert(0.9, "e(a, d)").unwrap();
        s.delete("e(a, b)").unwrap();
        let expected = s.query("p(a, b)").unwrap()[0].prob.to_bits();
        // Simulate a crash: leak the session so no shutdown checkpoint
        // runs — the WAL (fsynced per record) is all that survives.
        std::mem::forget(s);

        let (mut s2, report) = Session::boot(&program, durable_opts(&dir)).unwrap();
        assert_eq!(report.mode, BootMode::Warm);
        assert_eq!(report.replayed, 2);
        assert_eq!(s2.query("p(a, b)").unwrap()[0].prob.to_bits(), expected);
        drop(s2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_checkpoint_and_info_lines() {
        let dir = temp_data_dir("verb");
        let program = parse_program(EXAMPLE1).unwrap();
        let (mut s, _) = Session::boot(&program, durable_opts(&dir)).unwrap();
        s.insert(0.9, "e(a, d)").unwrap();
        let info = s.checkpoint().unwrap();
        assert_eq!(info.epoch, 1);
        assert!(info.bytes > 0);
        let lines = s.snapshot_info_lines();
        let get = |k: &str| {
            lines
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("durable"), "1");
        assert_eq!(get("boot"), "cold");
        assert_eq!(get("snapshot_epoch"), "1");
        // Boot wrote the initial checkpoint, the verb the second.
        assert_eq!(get("snapshots"), "2");
        assert_eq!(get("wal_records"), "0");
        assert_eq!(get("wal_broken"), "0");
        drop(s);

        // Non-durable sessions refuse the verb but still report status.
        let mut plain = session();
        assert!(matches!(plain.checkpoint(), Err(SessionError::NotDurable)));
        let lines = plain.snapshot_info_lines();
        assert!(lines.iter().any(|(k, v)| *k == "durable" && v == "0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_checkpoint_heals_a_broken_wal() {
        let dir = temp_data_dir("heal");
        let program = parse_program(EXAMPLE1).unwrap();
        let (mut s, _) = Session::boot(&program, durable_opts(&dir)).unwrap();
        s.insert(0.9, "e(a, d)").unwrap();
        // Simulate an append failure: the next mutation is applied but
        // not logged, and durability reports itself suspended.
        s.force_wal_broken();
        s.insert(0.4, "e(d, b)").unwrap();
        let lines = s.snapshot_info_lines();
        assert!(lines.iter().any(|(k, v)| *k == "wal_broken" && v == "1"));

        // An explicit checkpoint captures the unlogged mutation in the
        // snapshot and, having proven the files writable, resumes
        // logging.
        let info = s.checkpoint().unwrap();
        assert_eq!(info.epoch, 2);
        let lines = s.snapshot_info_lines();
        assert!(lines.iter().any(|(k, v)| *k == "wal_broken" && v == "0"));
        s.insert(0.1, "e(c, a)").unwrap();
        assert!(lines
            .iter()
            .any(|(k, v)| *k == "snapshot_epoch" && v == "2"));
        drop(s);

        // Nothing was lost across the whole episode.
        let (s2, report) = Session::boot(&program, durable_opts(&dir)).unwrap();
        assert_eq!(report.mode, BootMode::Warm);
        assert_eq!(s2.engine().db().epoch(), 3);
        drop(s2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_and_flushes_on_deadline() {
        let dir = temp_data_dir("groupcommit");
        let program = parse_program(EXAMPLE1).unwrap();
        let opts = SessionOptions {
            durability: Some(DurabilityOptions {
                dir: dir.clone(),
                fsync_every: usize::MAX,
                fsync_after_ms: Some(30_000),
                snapshot_every: 0,
            }),
            ..SessionOptions::default()
        };
        let (mut s, _) = Session::boot(&program, opts).unwrap();
        // With a long window and no count threshold, appends batch.
        s.insert(0.9, "e(a, d)").unwrap();
        s.insert(0.4, "e(d, b)").unwrap();
        let lines = s.snapshot_info_lines();
        let unsynced: u64 = lines
            .iter()
            .find(|(k, _)| *k == "wal_unsynced")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert_eq!(unsynced, 2, "a pending group-commit batch");
        let due = s.wal_flush_due_in().expect("a flush deadline is armed");
        assert!(due <= std::time::Duration::from_secs(30));
        // The worker-loop flush path forces the batch to disk.
        s.flush_wal();
        assert_eq!(s.wal_flush_due_in(), None);
        let lines = s.snapshot_info_lines();
        assert!(lines.iter().any(|(k, v)| *k == "wal_unsynced" && v == "0"));
        drop(s);

        // Nothing was lost: the batch is in the snapshot/WAL history.
        let (s2, report) = Session::boot(&program, durable_opts(&dir)).unwrap();
        assert_eq!(report.mode, BootMode::Warm);
        assert_eq!(s2.engine().db().epoch(), 2);
        drop(s2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two independent rule components in one session: mutating one
    /// must leave the other's cached queries warm — the invalidation
    /// granularity the sharded service's per-shard caches rely on when
    /// several components hash onto the same shard.
    #[test]
    fn mutation_invalidates_only_its_own_component() {
        let program = parse_program(
            "0.5 :: e1(a, b). 0.6 :: e1(b, c).
             0.7 :: e2(a, b). 0.8 :: e2(b, c).
             p1(X, Y) :- e1(X, Y).
             p1(X, Y) :- p1(X, Z), p1(Z, Y).
             p2(X, Y) :- e2(X, Y).
             p2(X, Y) :- p2(X, Z), p2(Z, Y).",
        )
        .unwrap();
        let mut s = Session::new(&program, SessionOptions::default()).unwrap();
        let warm1 = s.query("p1(a, X)").unwrap();
        let warm2 = s.query("p2(a, X)").unwrap();
        assert_eq!(s.cache_stats().misses, 2);

        // Insert, delete and update in component 2 only.
        s.insert(0.9, "e2(c, d)").unwrap();
        s.delete("e2(c, d)").unwrap();
        s.update(0.65, "e2(a, b)").unwrap();

        // Component 1's entry is still warm (same Rc), component 2's
        // was invalidated and recomputes.
        let again1 = s.query("p1(a, X)").unwrap();
        assert!(Rc::ptr_eq(&warm1, &again1), "component 1 stayed cached");
        let again2 = s.query("p2(a, X)").unwrap();
        assert!(!Rc::ptr_eq(&warm2, &again2), "component 2 recomputed");
        let cs = s.cache_stats();
        assert_eq!(cs.hits, 1);
        assert_eq!(cs.invalidations, 1);
    }

    /// Re-`UPDATE`ing a fact to its stored probability commits nothing:
    /// no epoch bump, no WAL record, and — the granularity fix — no
    /// spurious invalidation of dependent cached queries.
    #[test]
    fn no_change_update_does_not_invalidate_or_log() {
        let dir = temp_data_dir("nochange");
        let program = parse_program(EXAMPLE1).unwrap();
        let (mut s, _) = Session::boot(&program, durable_opts(&dir)).unwrap();
        let warm = s.query("p(a, b)").unwrap();
        let epoch_before = s.engine().db().epoch();
        let wal_before = s
            .snapshot_info_lines()
            .iter()
            .find(|(k, _)| *k == "wal_records")
            .unwrap()
            .1
            .clone();

        let resp = s.update(0.5, "e(a, b)").unwrap();
        assert_eq!(resp.old, 0.5);
        assert_eq!(resp.new, 0.5);
        assert_eq!(resp.epoch, epoch_before, "no epoch bump");
        let again = s.query("p(a, b)").unwrap();
        assert!(Rc::ptr_eq(&warm, &again), "cache entry stayed warm");
        assert_eq!(s.cache_stats().invalidations, 0);
        let wal_after = s
            .snapshot_info_lines()
            .iter()
            .find(|(k, _)| *k == "wal_records")
            .unwrap()
            .1
            .clone();
        assert_eq!(wal_before, wal_after, "nothing was logged");
        // A *changing* update still invalidates.
        s.update(0.9, "e(a, b)").unwrap();
        assert_eq!(s.engine().db().epoch(), epoch_before + 1);
        s.query("p(a, b)").unwrap();
        assert_eq!(s.cache_stats().invalidations, 1);
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejections_are_reported() {
        let mut s = session();
        assert!(matches!(
            s.query("nope(a, b)"),
            Err(SessionError::UnknownPredicate(_))
        ));
        assert!(matches!(
            s.insert(0.5, "p(a, b)"),
            Err(SessionError::Rejected(_))
        ));
        assert!(matches!(
            s.insert(0.5, "e(a, X)"),
            Err(SessionError::Parse(_))
        ));
        assert!(matches!(
            s.insert(1.5, "e(a, z)"),
            Err(SessionError::Rejected(_))
        ));
        assert!(matches!(
            s.update(0.5, "e(z, z)"),
            Err(SessionError::UnknownFact(_))
        ));
        // Unknown constants in a query are simply unsatisfiable.
        assert!(s.query("p(zz, X)").unwrap().is_empty());
    }

    #[test]
    fn quoted_constants_are_constants_not_variables() {
        // 'Alice' is a quoted constant in the program parser; the
        // session parser must agree, including quoted commas.
        let program =
            parse_program("0.5 :: e('Alice', b). 0.25 :: e('x,y', b). q(X) :- e(X, b).").unwrap();
        let mut s = Session::new(&program, SessionOptions::default()).unwrap();
        let answers = s.query("e('Alice', X)").unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].text, "e(Alice,b)");
        let answers = s.query("e('x,y', X)").unwrap();
        assert_eq!(answers.len(), 1);
        assert!((answers[0].prob - 0.25).abs() < 1e-12);
        // Ground insert/update with quoted constants round-trips.
        assert_eq!(
            s.insert(0.9, "e('Bob', b)").unwrap(),
            InsertResponse::Inserted { epoch: 1 }
        );
        assert!((s.query("q('Bob')").unwrap()[0].prob - 0.9).abs() < 1e-12);
        assert_eq!(s.update(0.5, "e('Alice', b)").unwrap().old, 0.5);
        // Malformed quoting is a parse error, not a silent open query.
        assert!(matches!(
            s.query("e('Alice, X)"),
            Err(SessionError::Parse(_))
        ));
    }

    #[test]
    fn stats_lines_cover_the_counters() {
        let mut s = session();
        s.query("p(a, b)").unwrap();
        s.query("p(a, b)").unwrap();
        s.insert(0.5, "e(c, d)").unwrap();
        let lines = s.stats_lines();
        let get = |k: &str| {
            lines
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("queries"), "2");
        assert_eq!(get("cache_hits"), "1");
        assert_eq!(get("inserts"), "1");
        assert_eq!(get("epoch"), "1");
        assert_eq!(get("delta_passes"), "1");
        // Semi-naive / compaction / collapse-dedup instrumentation is
        // exported too.
        for key in [
            "delta_join_probes",
            "delta_new_trees",
            "combos_pruned",
            "nodes_compacted",
            "graph_nodes_hiwater",
            "leafset_dedup_hits",
            "bundle_rebuilds",
        ] {
            get(key).parse::<u64>().unwrap();
        }
    }
}
