//! The LTG engine: `PReason` (Algorithm 1) and `PCOReason` (Algorithm 2).
//!
//! One engine implements both algorithms; [`EngineConfig::collapse`]
//! selects between "LTGs w/o" (no collapsing) and "LTGs w/" (adaptive
//! collapsing with the average-trees-per-root threshold).
//!
//! A reasoning run proceeds in rounds ([`LtgEngine::step`]):
//!
//! 1. round 1 adds one *source node* per base rule and instantiates its
//!    premise over the extensional database;
//! 2. round `k > 1` adds, per non-base rule, one node for every
//!    `k`-compatible combination of producer nodes (Definition 6 /
//!    Appendix A) and instantiates the rule by joining the parents'
//!    stored root facts;
//! 3. every candidate derivation tree is checked for redundancy (root
//!    fact reoccurring below the root — Proposition 1); nodes whose
//!    `tset` ends up empty are removed;
//! 4. the run terminates when a round adds no surviving node.
//!
//! Lineage is *not* materialized during reasoning: trees reference their
//! subtrees by id (structure sharing). [`LtgEngine::lineage_of`] extracts
//! the DNF on demand, and [`LtgEngine::answer`] resolves query atoms.

use crate::config::EngineConfig;
use crate::eg::{ExecutionGraph, NodeId};
use crate::error::EngineError;
use crate::join::{
    binding_masks, join, join_delta, query_pattern, tuple_matcher, JoinRow, PosSpec,
};
use crate::state::{EngineState, ExportError, NodeState, RestoreError};
use ltg_datalog::fxhash::{FxHashMap, FxHashSet};
use ltg_datalog::{canonicalize, Atom, CanonicalProgram, PredId, Program, RuleId, Sym};
use ltg_lineage::extract::DnfCache;
use ltg_lineage::forest::fact_sig;
use ltg_lineage::{
    is_redundant, summarize, table_bytes, trees_dnf, Dnf, Forest, Label, OccCache, SummaryId,
    SummaryStore, TreeId,
};
use ltg_storage::{Database, DeleteOutcome, FactId, InsertOutcome, Relation, ResourceMeter};
use std::time::{Duration, Instant};

/// Counters and timings of one reasoning run (feeds Tables 3–7 and
/// Figures 4–6).
#[derive(Clone, Debug, Default)]
pub struct ReasonStats {
    /// Number of completed rounds (including the final empty one).
    pub rounds: u32,
    /// Candidate derivation trees generated (the paper's "#DR").
    pub derivations: u64,
    /// Number of `collapse` operations performed.
    pub collapse_ops: u64,
    /// Trees dropped because an already-stored tree for the same fact
    /// has the same leaf set (identical lineage disjunct — see
    /// `LtgEngine::expl_seen`).
    pub deduped: u64,
    /// Time spent inside `collapse` (Table 4).
    pub collapse_time: Duration,
    /// Total reasoning wall-clock time.
    pub reasoning_time: Duration,
    /// Execution-graph nodes created (including later-removed ones).
    pub nodes_created: u64,
    /// Nodes alive at the end.
    pub nodes_alive: u64,
    /// Peak estimated bytes observed by the meter.
    pub peak_bytes: usize,
    /// Completed incremental-maintenance passes ([`LtgEngine::reason_delta`]).
    pub delta_passes: u64,
    /// Total propagation waves across all delta passes.
    pub delta_waves: u64,
    /// Completed retraction passes ([`LtgEngine::reason_retract`]).
    pub retract_passes: u64,
    /// Derivation trees removed by retraction passes (the DRed
    /// over-deletion, before re-derivation).
    pub retracted_trees: u64,
    /// Candidate facts examined by semi-naive delta joins (incremental
    /// passes only — batch rounds run full joins).
    pub delta_join_probes: u64,
    /// Fresh derivation trees stored by incremental (delta/retract)
    /// passes.
    pub delta_new_trees: u64,
    /// Planned `(rule, parents)` registry entries reclaimed because
    /// their node was swept by compaction.
    pub combos_pruned: u64,
    /// Execution-graph nodes swept by compaction.
    pub nodes_compacted: u64,
    /// High-water mark of the execution-graph arena (all nodes ever
    /// resident at once, dead ones included).
    pub graph_nodes_hiwater: u64,
    /// Dedup hits the historical OR-free leafset registry could not
    /// catch: candidate trees standing for *several* explanations
    /// (collapsed bundles and trees built over them) dropped because
    /// their leafset summary was already stored for the root fact.
    pub leafset_dedup_hits: u64,
    /// Collapsed OR bundles rebuilt *in place* by retraction passes:
    /// only the alternatives containing a retracted fact were dropped,
    /// the surviving siblings were re-collapsed instead of over-deleting
    /// the bundle wholesale.
    pub bundle_rebuilds: u64,
    /// Time spent inside (semi-naive and full) join evaluation —
    /// [`LtgEngine::collect_source_delta`]/[`collect_delta_matches`]
    /// and the full joins of retraction re-instantiation.
    pub delta_join_time: Duration,
    /// Time spent inside [`LtgEngine::build_trees`] (tree construction,
    /// collapse decisions, redundancy filtering; includes
    /// `collapse_time`).
    pub tree_build_time: Duration,
    /// Time spent inside [`LtgEngine::compact_graph`].
    pub compact_time: Duration,
}

/// Per-pass phase latency histograms (whole microseconds) of the
/// incremental passes: each completed [`LtgEngine::reason_delta`] /
/// [`LtgEngine::reason_retract`] records one sample per phase — the
/// delta-join probing, tree building (collapse excluded), collapsing,
/// and graph compaction it performed. Ephemeral observability state:
/// not part of [`EngineState`](crate::state::EngineState), reset on
/// restore.
#[derive(Clone, Debug, Default)]
pub struct PhaseMetrics {
    /// Semi-naive join evaluation per pass.
    pub delta_join_us: ltg_obs::Histogram,
    /// Derivation-tree construction per pass (collapse time excluded).
    pub tree_build_us: ltg_obs::Histogram,
    /// Collapse operations per pass.
    pub collapse_us: ltg_obs::Histogram,
    /// Dead-combo graph compaction per pass.
    pub compact_us: ltg_obs::Histogram,
}

/// Why [`LtgEngine::insert_fact`] rejected a fact before it reached
/// storage.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InsertError {
    /// The predicate is derived by rules and carries no database facts;
    /// inserting would silently change the program's EDB/IDB split.
    Intensional(PredId),
    /// The argument count does not match the predicate's arity.
    Arity {
        /// The predicate's declared arity.
        expected: usize,
        /// The number of arguments supplied.
        got: usize,
    },
    /// The probability lies outside `[0, 1]`.
    Probability(f64),
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Intensional(p) => {
                write!(f, "predicate p{} is derived by rules; cannot insert", p.0)
            }
            InsertError::Arity { expected, got } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} arguments, got {got}"
                )
            }
            InsertError::Probability(p) => write!(f, "probability {p} outside [0, 1]"),
        }
    }
}

impl std::error::Error for InsertError {}

/// What one [`LtgEngine::build_trees`] call actually stored: the root
/// facts that gained trees (ascending fact order — the group order of
/// the build) and how many trees survived filtering. Feeds the
/// semi-naive frontier.
#[derive(Debug, Default)]
struct BuildOutcome {
    fresh_facts: Vec<FactId>,
    fresh_trees: u64,
}

/// The Lineage-Trigger-Graph engine.
pub struct LtgEngine {
    canonical: CanonicalProgram,
    db: Database,
    forest: Forest,
    graph: ExecutionGraph,
    /// Global registry: root fact → every stored tree with that root.
    derived: FxHashMap<FactId, Vec<TreeId>>,
    /// The keys of `derived`, one [`Relation`] per predicate (indexed by
    /// `PredId`): what query answering probes instead of scanning
    /// `derived`. A fact enters when it gains its first tree and leaves
    /// when its last one is retracted.
    derived_rels: Vec<Relation>,
    /// Interned leafset summaries (see `ltg_lineage::summary`): each
    /// distinct canonical antichain of explanation leaf sets (or digest,
    /// once it outgrows the exact cutoff) held once in a flat pool, plus
    /// the dense `TreeId → SummaryId` memo. Covers collapsed (OR) trees,
    /// which the historical OR-free leafset memo could not. Append-only
    /// like the forest, whose growth bounds it.
    summaries: SummaryStore,
    /// Explanation-dedup registry: root fact → summary id → number of
    /// live stored trees (occurrences in `derived`) carrying it, as a
    /// list sorted by id (most facts carry one or two). By Lemma 1
    /// the lineage of a fact is the *disjunction* of its trees'
    /// explanations, so a tree whose summary is already registered
    /// repeats lineage the fact already has; storing it would only breed
    /// further structurally-distinct-but-equivalent derivations (on
    /// cyclic or orientation-reversing programs this breeding is
    /// super-exponential — the collapse OOM). Counted rather than a set:
    /// in-place bundle rebuilds during retraction can leave two live
    /// trees sharing one summary, and restore rebuilds the registry from
    /// the live trees, so exact occurrence counts are what keeps a
    /// restored engine in bitwise lockstep.
    expl_seen: FxHashMap<FactId, Vec<(SummaryId, u32)>>,
    /// Lazy cache: root fact → minimized union of its registered exact
    /// summaries (`None` = some registered summary is a digest, so the
    /// union is unknown and subsumption dedup is disabled for the
    /// fact). An absent entry is rebuilt on demand; entries are
    /// invalidated whenever the fact's summary key set changes. The
    /// minimized union is a canonical form, so the cache's value never
    /// depends on registration order — lazy rebuilds on a restored
    /// engine reproduce it exactly.
    expl_union: FxHashMap<FactId, Option<Dnf>>,
    /// Every `(rule, parents)` combination ever instantiated → its node.
    /// The incremental path revives dead nodes through this registry
    /// instead of re-planning them, and uses it to detect combinations
    /// that never existed (killed parents re-entering the producer
    /// lists).
    combos: FxHashMap<(RuleId, Box<[NodeId]>), NodeId>,
    /// Canonical-program IDB mask, frozen at construction.
    idb_mask: Vec<bool>,
    /// Canonical EDB predicates with facts inserted since the last
    /// (delta-)reasoning pass.
    dirty_edb: FxHashSet<PredId>,
    /// The facts behind `dirty_edb`, per predicate: the wave-0 delta of
    /// the semi-naive join. Cleared together with `dirty_edb`, i.e. only
    /// once the pass propagating them completed.
    edb_delta: FxHashMap<PredId, Vec<FactId>>,
    /// Semi-naive frontier `F`: per node, the root facts that gained
    /// trees in the last completed wave and whose consumers have not
    /// been re-joined yet. Survives an aborted (OOM/TO) pass so a retry
    /// resumes the propagation instead of losing it — the dedup filters
    /// make re-planning idempotent, but only the frontier remembers
    /// *what* still needs planning.
    delta_frontier: FxHashMap<NodeId, Vec<FactId>>,
    /// Semi-naive accumulator `P`: facts that gained trees during the
    /// wave currently executing; promoted to `delta_frontier` when the
    /// wave completes.
    delta_next: FxHashMap<NodeId, Vec<FactId>>,
    /// EDB facts deleted since the last retraction pass (already gone
    /// from the database; their derivation trees still await pruning).
    pending_retract: FxHashSet<FactId>,
    /// Nodes pruned by an over-deletion whose re-derivation has not
    /// completed. Survives an aborted (OOM/TO) pass so a retry resumes
    /// the re-derivation instead of losing it — pruning itself is
    /// idempotent bookkeeping, re-instantiation is the metered work.
    retract_nodes: FxHashSet<NodeId>,
    config: EngineConfig,
    meter: ResourceMeter,
    stats: ReasonStats,
    phases: PhaseMetrics,
    round: u32,
    finished: bool,
}

impl LtgEngine {
    /// Engine with the default configuration (collapsing on).
    pub fn new(program: &Program) -> Self {
        Self::with_config(program, EngineConfig::default())
    }

    /// Engine with an explicit configuration.
    pub fn with_config(program: &Program, config: EngineConfig) -> Self {
        Self::with_config_and_meter(program, config, ResourceMeter::unlimited())
    }

    /// Engine with a configuration and a resource meter (budgets /
    /// deadlines — Table 6).
    pub fn with_config_and_meter(
        program: &Program,
        config: EngineConfig,
        meter: ResourceMeter,
    ) -> Self {
        let canonical = canonicalize(program);
        let db = Database::from_program(&canonical.program);
        let idb_mask = canonical.program.idb_mask();
        LtgEngine {
            canonical,
            db,
            forest: Forest::new(),
            graph: ExecutionGraph::new(),
            derived: FxHashMap::default(),
            derived_rels: Vec::new(),
            summaries: SummaryStore::new(),
            expl_seen: FxHashMap::default(),
            expl_union: FxHashMap::default(),
            combos: FxHashMap::default(),
            idb_mask,
            dirty_edb: FxHashSet::default(),
            edb_delta: FxHashMap::default(),
            delta_frontier: FxHashMap::default(),
            delta_next: FxHashMap::default(),
            pending_retract: FxHashSet::default(),
            retract_nodes: FxHashSet::default(),
            config,
            meter,
            stats: ReasonStats::default(),
            phases: PhaseMetrics::default(),
            round: 0,
            finished: false,
        }
    }

    /// The leafset summary of a tree — one value standing for *all* its
    /// explanation leaf sets, collapsed (OR) trees included. Memoized
    /// across the run; a pure function of the forest, so restored
    /// engines recompute equal summaries (possibly under other ids).
    fn summary(&mut self, t: TreeId) -> SummaryId {
        summarize(&self.forest, t, &mut self.summaries)
    }

    /// Whether summary `s` is registered for `fact`.
    fn summary_seen(&self, fact: FactId, s: SummaryId) -> bool {
        self.expl_seen
            .get(&fact)
            .is_some_and(|seen| seen.binary_search_by_key(&s, |e| e.0).is_ok())
    }

    /// Registers one live-tree occurrence of summary `s` for `fact`.
    /// The count tracks occurrences in `derived`, so register exactly
    /// when a tree enters the registry (and unregister when it leaves).
    fn register_summary(&mut self, fact: FactId, s: SummaryId) {
        let seen = self.expl_seen.entry(fact).or_default();
        match seen.binary_search_by_key(&s, |e| e.0) {
            Ok(i) => seen[i].1 += 1,
            Err(i) => {
                seen.insert(i, (s, 1));
                self.expl_union.remove(&fact);
            }
        }
    }

    /// Drops one live-tree occurrence of summary `s` for `fact`; the
    /// summary stops deduplicating once its last carrier is gone (after
    /// a re-insert of a retracted fact the same lineage becomes
    /// derivable again and must be storable).
    fn unregister_summary(&mut self, fact: FactId, s: SummaryId) {
        let Some(seen) = self.expl_seen.get_mut(&fact) else {
            return;
        };
        let Ok(i) = seen.binary_search_by_key(&s, |e| e.0) else {
            return;
        };
        seen[i].1 -= 1;
        if seen[i].1 == 0 {
            seen.remove(i);
            if seen.is_empty() {
                self.expl_seen.remove(&fact);
            }
            self.expl_union.remove(&fact);
        }
    }

    /// Whether `fact`'s stored lineage already absorbs candidate
    /// summary `s` — i.e. every explanation the candidate stands for is
    /// a superset of one the fact already has, so by monotone-DNF
    /// absorption storing it cannot change any query answer. Only exact
    /// summaries participate (a digest's conjuncts are unknown on
    /// either side).
    fn union_absorbs(&mut self, fact: FactId, s: SummaryId) -> bool {
        if self.summaries.exact_len(s).unwrap_or(0) == 0 {
            return false;
        }
        if !self.expl_union.contains_key(&fact) {
            let rebuilt = self
                .expl_seen
                .get(&fact)
                .and_then(|seen| self.summaries.union(seen.iter().map(|e| e.0)));
            self.expl_union.insert(fact, rebuilt);
        }
        match (&self.expl_union[&fact], self.summaries.exact(s)) {
            (Some(u), Some(conjuncts)) => u.absorbs(conjuncts),
            _ => false,
        }
    }

    /// The probabilistic database (shared fact arena + π).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The derivation forest.
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// The execution graph.
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &ReasonStats {
        &self.stats
    }

    /// Per-pass phase latency histograms of the incremental passes.
    pub fn phase_metrics(&self) -> &PhaseMetrics {
        &self.phases
    }

    /// The resource meter.
    pub fn meter(&self) -> &ResourceMeter {
        &self.meter
    }

    /// Mutable meter access — resident sessions restart the deadline
    /// clock between requests instead of budgeting the whole lifetime.
    pub fn meter_mut(&mut self) -> &mut ResourceMeter {
        &mut self.meter
    }

    /// The canonicalized program the engine executes.
    pub fn program(&self) -> &Program {
        &self.canonical.program
    }

    /// Number of completed rounds.
    pub fn rounds(&self) -> u32 {
        self.round
    }

    /// True once reasoning reached its fixpoint (or the depth cap).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Runs reasoning to completion. Idempotent.
    pub fn reason(&mut self) -> Result<&ReasonStats, EngineError> {
        while self.step()? {}
        Ok(&self.stats)
    }

    /// Executes one round; returns whether the graph grew. Exposed so
    /// callers can interleave rounds with anytime probability bounds
    /// (Corollary 3).
    pub fn step(&mut self) -> Result<bool, EngineError> {
        if self.finished {
            return Ok(false);
        }
        let t0 = Instant::now();
        let k = self.round + 1;
        let grew = if k == 1 {
            self.expand_base()?
        } else {
            self.expand_round(k)?
        };
        self.round = k;
        self.stats.rounds = k;
        if !grew || self.config.max_depth.is_some_and(|d| k >= d) {
            self.finished = true;
            self.stats.nodes_alive = self.graph.alive_count() as u64;
            // Batch rounds plan eagerly and kill non-survivors; sweep
            // the corpses once the fixpoint is reached.
            self.compact_graph();
        }
        self.refresh_meter();
        self.stats.reasoning_time += t0.elapsed();
        self.stats.peak_bytes = self.meter.peak();
        self.meter.check()?;
        Ok(!self.finished)
    }

    /// Capacity-based bytes of the explanation-dedup registry and its
    /// lazy union cache.
    fn registry_bytes(&self) -> usize {
        let entry = std::mem::size_of::<(SummaryId, u32)>();
        table_bytes(
            self.expl_seen.capacity(),
            std::mem::size_of::<(FactId, Vec<(SummaryId, u32)>)>(),
        ) + self
            .expl_seen
            .values()
            .map(|seen| seen.capacity() * entry)
            .sum::<usize>()
            + table_bytes(
                self.expl_union.capacity(),
                std::mem::size_of::<(FactId, Option<Dnf>)>(),
            )
            + self
                .expl_union
                .values()
                .flatten()
                .map(Dnf::estimated_bytes)
                .sum::<usize>()
    }

    fn refresh_meter(&self) {
        let derived_bytes = self.derived.len() * 40
            + self.derived.values().map(|v| v.len() * 4).sum::<usize>()
            + self
                .derived_rels
                .iter()
                .map(Relation::estimated_bytes)
                .sum::<usize>();
        let bytes = self.db.estimated_bytes()
            + self.forest.estimated_bytes()
            + self.graph.estimated_bytes()
            + derived_bytes
            + self.summaries.estimated_bytes()
            + self.registry_bytes()
            + self.combos.len() * 48;
        self.meter.set_used(bytes);
    }

    // ------------------------------------------------------------------
    // Incremental maintenance (resident sessions)
    // ------------------------------------------------------------------

    /// The canonical predicate under which EDB facts of `pred` are
    /// stored. For *mixed* input predicates (facts + rules) this is the
    /// `p@edb` shadow introduced by canonicalization; everything else
    /// maps to itself.
    pub fn storage_pred(&self, pred: PredId) -> PredId {
        self.canonical
            .edb_shadow
            .get(&pred)
            .copied()
            .unwrap_or(pred)
    }

    /// True if `pred` can receive EDB inserts: it is extensional, or
    /// mixed (its facts live under a shadow predicate).
    pub fn can_insert(&self, pred: PredId) -> bool {
        let sp = self.storage_pred(pred);
        !self.idb_mask.get(sp.index()).copied().unwrap_or(false)
    }

    /// Interns a constant into the engine's symbol table (inserted facts
    /// may mention constants the original program never did).
    pub fn intern_symbol(&mut self, name: &str) -> Sym {
        self.canonical.program.symbols.intern(name)
    }

    /// Inserts an extensional fact and marks its predicate for the next
    /// [`LtgEngine::reason_delta`] pass. `pred` is a predicate of the
    /// (canonical) program — mixed predicates are routed to their shadow
    /// automatically. Duplicates are reported, never overwritten; use
    /// [`LtgEngine::update_prob`] to resolve a conflict.
    pub fn insert_fact(
        &mut self,
        pred: PredId,
        args: &[Sym],
        prob: f64,
    ) -> Result<(FactId, InsertOutcome), InsertError> {
        if !(0.0..=1.0).contains(&prob) {
            return Err(InsertError::Probability(prob));
        }
        let arity = self.canonical.program.preds.arity(pred);
        if args.len() != arity {
            return Err(InsertError::Arity {
                expected: arity,
                got: args.len(),
            });
        }
        if !self.can_insert(pred) {
            return Err(InsertError::Intensional(pred));
        }
        let sp = self.storage_pred(pred);
        let (fact, outcome) = self.db.insert_edb(sp, args, prob);
        if outcome.changed() {
            self.dirty_edb.insert(sp);
            self.edb_delta.entry(sp).or_default().push(fact);
        }
        Ok((fact, outcome))
    }

    /// Updates `π(f)` in place (see [`Database::update_prob`]): lineage
    /// is unaffected, only the weight vector and the database epoch
    /// change — no re-reasoning is required.
    pub fn update_prob(&mut self, fact: FactId, prob: f64) -> Result<Option<f64>, InsertError> {
        if !(0.0..=1.0).contains(&prob) {
            return Err(InsertError::Probability(prob));
        }
        Ok(self.db.update_prob(fact, prob))
    }

    /// Number of predicates with pending (un-reasoned) inserts.
    pub fn pending_dirty(&self) -> usize {
        self.dirty_edb.len()
    }

    /// Retracts an extensional fact: removes it from the database and
    /// queues its derivation cone for the next
    /// [`LtgEngine::reason_retract`] pass. Validation mirrors
    /// [`LtgEngine::insert_fact`] (intensional predicates and arity
    /// mismatches are rejected); deleting an absent fact is a reported
    /// no-op, so retraction is idempotent.
    pub fn retract_fact(
        &mut self,
        pred: PredId,
        args: &[Sym],
    ) -> Result<(Option<FactId>, DeleteOutcome), InsertError> {
        let arity = self.canonical.program.preds.arity(pred);
        if args.len() != arity {
            return Err(InsertError::Arity {
                expected: arity,
                got: args.len(),
            });
        }
        if !self.can_insert(pred) {
            return Err(InsertError::Intensional(pred));
        }
        let sp = self.storage_pred(pred);
        let (fact, outcome) = self.db.delete_edb(sp, args);
        if outcome.changed() {
            self.pending_retract
                .insert(fact.expect("deleted facts have ids"));
        }
        Ok((fact, outcome))
    }

    /// Number of deleted facts whose cones still await pruning.
    pub fn pending_retractions(&self) -> usize {
        self.pending_retract.len()
    }

    /// Incremental maintenance: pushes the facts inserted since the last
    /// pass through the *existing* execution graph with **semi-naive
    /// delta joins** (deletions are handled separately by
    /// [`LtgEngine::reason_retract`]). Wave 0 joins the source nodes
    /// whose premise reads a dirty EDB relation against the *inserted*
    /// facts only; wave `k` plans every parent combination with at least
    /// one parent that stored new trees in wave `k − 1` (Definition 6's
    /// "one parent from the previous round", with rounds replaced by
    /// change waves) and evaluates, per combination, the sum of
    /// per-position delta joins over those parents' changed root facts —
    /// so pass cost tracks the delta, not the relations. Nodes for
    /// combinations are only materialized when their delta join derives
    /// a surviving tree (see [`LtgEngine::delta_wave`]); the pass ends
    /// when a wave changes nothing, and the graph is compacted. The
    /// fixpoint lineage is equivalent to a from-scratch run over the
    /// grown EDB (asserted bitwise by the `ltg-testkit` differential
    /// harnesses).
    pub fn reason_delta(&mut self) -> Result<&ReasonStats, EngineError> {
        if !self.finished {
            if self.round == 0 {
                // Nothing instantiated yet: the batch algorithm's joins
                // see the inserted facts directly.
                self.dirty_edb.clear();
                self.edb_delta.clear();
            }
            self.reason()?;
            // Facts inserted *between* anytime steps were missed by the
            // rounds that ran before them — apply them incrementally now
            // that the graph is at fixpoint.
            return self.reason_delta();
        }
        if self.dirty_edb.is_empty() && self.delta_frontier.is_empty() && self.delta_next.is_empty()
        {
            return Ok(&self.stats);
        }
        let t0 = Instant::now();
        let phases0 = self.phase_snapshot();
        // Cleared only after the pass completes: an abort (OOM/TO) keeps
        // the predicates dirty (and the frontier populated) so a later
        // pass retries the propagation — the dedup filters make
        // re-planning idempotent, partial progress is kept.
        let dirty = self.dirty_edb.clone();
        self.stats.delta_passes += 1;

        // Wave 0: source nodes reading a dirty relation, delta-joined
        // against the inserted facts.
        let base = self.canonical.base_rules.clone();
        for rid in base {
            let affected = self.canonical.program.rules[rid.index()]
                .body
                .iter()
                .any(|a| dirty.contains(&a.pred));
            if !affected {
                continue;
            }
            let node = self.combos[&(rid, Box::from([]) as Box<[NodeId]>)];
            let rows = self.collect_source_delta(node, &dirty)?;
            self.store_delta_rows(node, rid, rows)?;
            self.meter.check()?;
        }
        self.run_delta_waves()?;

        self.refresh_meter();
        self.stats.nodes_alive = self.graph.alive_count() as u64;
        self.stats.reasoning_time += t0.elapsed();
        self.stats.peak_bytes = self.meter.peak();
        self.meter.check()?;
        for p in &dirty {
            self.dirty_edb.remove(p);
            self.edb_delta.remove(p);
        }
        self.compact_graph();
        self.record_phase_sample(phases0);
        Ok(&self.stats)
    }

    /// Snapshot of the cumulative phase durations, taken when an
    /// incremental pass starts; [`LtgEngine::record_phase_sample`]
    /// turns the diff into one histogram sample per phase.
    fn phase_snapshot(&self) -> [Duration; 4] {
        [
            self.stats.delta_join_time,
            self.stats.tree_build_time,
            self.stats.collapse_time,
            self.stats.compact_time,
        ]
    }

    /// Records what one completed incremental pass spent per phase.
    /// Collapse happens inside `build_trees`, so its share is carved
    /// out of the tree-build sample to keep the breakdown disjoint.
    fn record_phase_sample(&mut self, before: [Duration; 4]) {
        let join = self.stats.delta_join_time.saturating_sub(before[0]);
        let collapse = self.stats.collapse_time.saturating_sub(before[2]);
        let build = self
            .stats
            .tree_build_time
            .saturating_sub(before[1])
            .saturating_sub(collapse);
        let compact = self.stats.compact_time.saturating_sub(before[3]);
        self.phases.delta_join_us.record_duration(join);
        self.phases.tree_build_us.record_duration(build);
        self.phases.collapse_us.record_duration(collapse);
        self.phases.compact_us.record_duration(compact);
    }

    /// Drains the semi-naive frontier: promotes the pending wave delta
    /// and runs propagation waves until a wave stores nothing new.
    fn run_delta_waves(&mut self) -> Result<(), EngineError> {
        // A non-empty frontier means a previous pass aborted mid-wave:
        // finish propagating it first, the freshly seeded `delta_next`
        // is promoted after.
        if self.delta_frontier.is_empty() {
            self.delta_frontier = std::mem::take(&mut self.delta_next);
        }
        while !self.delta_frontier.is_empty() {
            self.stats.delta_waves += 1;
            self.delta_wave()?;
            self.delta_frontier = std::mem::take(&mut self.delta_next);
            self.refresh_meter();
            self.meter.check()?;
        }
        Ok(())
    }

    /// Retraction maintenance (ΔTcP/DRed-style, at tree granularity):
    /// makes the graph, forest registries and query surface equivalent
    /// to a from-scratch run over the shrunk EDB.
    ///
    /// 1. **Prune, rebuilding bundles in place.** Every stored
    ///    derivation tree in which a retracted fact occurs as a leaf is
    ///    removed from its node's `tset` and from the global registries
    ///    (`derived`, the explanation-dedup summaries). Occurrence is
    ///    decided by a signature-prefiltered walk of the shared forest,
    ///    so the check is transitive: a tree depending on a dead subtree
    ///    is itself removed. For plain AND trees this deletion is
    ///    *exact* — the tree is one dead lineage conjunct. A collapsed
    ///    (OR) bundle with a dead alternative is rebuilt *in place*:
    ///    only alternatives mentioning a victim are dropped and the
    ///    survivors are re-collapsed into a replacement bundle, so
    ///    surviving sibling lineage stays resident instead of being
    ///    deleted wholesale. Downstream trees built on top of the old
    ///    bundle id are still over-deleted and regenerate in step 2.
    /// 2. **Re-derive.** Each pruned node is re-instantiated bottom-up
    ///    (parents strictly precede children in depth order); surviving
    ///    alternatives regenerate — possibly re-collapsed into fresh
    ///    bundles — and the nodes that stored new trees seed the same
    ///    change-wave machinery [`LtgEngine::reason_delta`] uses, so
    ///    downstream combinations rebuild over the new bundles. Nodes
    ///    whose tset empties are killed and removed from the producer
    ///    lists; a later insert revives them through the combo registry.
    ///
    /// Equivalence to from-scratch reasoning over the final database is
    /// asserted bitwise by the `ltg-testkit` differential harness (see
    /// `tests/retraction.rs`).
    pub fn reason_retract(&mut self) -> Result<&ReasonStats, EngineError> {
        if self.pending_retract.is_empty() && self.retract_nodes.is_empty() {
            return Ok(&self.stats);
        }
        if self.round == 0 {
            // Nothing instantiated yet: the batch joins simply no longer
            // see the deleted facts.
            self.pending_retract.clear();
            return self.reason();
        }
        if !self.finished {
            // Mid-anytime graph: finish the batch run first, then prune —
            // the partial graph may already reference the victims.
            self.reason()?;
        }
        let t0 = Instant::now();
        let phases0 = self.phase_snapshot();
        self.stats.retract_passes += 1;

        let mut victims: Vec<FactId> = self.pending_retract.iter().copied().collect();
        victims.sort_unstable();
        if !victims.is_empty() {
            self.prune_victims(&victims);
        }

        // Re-derivation: pruned nodes bottom-up (a node's parents have
        // strictly smaller depth) with *full* joins — pruning dropped
        // arbitrary trees, so there is no delta to join against — then
        // the standard semi-naive propagation waves over the facts that
        // regained trees.
        let mut order: Vec<NodeId> = self.retract_nodes.iter().copied().collect();
        order.sort_unstable_by_key(|n| (self.graph.nodes[n.index()].depth, n.0));
        for node in order {
            let rid = self.graph.nodes[node.index()].rule;
            let fresh = self.reinstantiate(node, rid)?;
            self.merge_delta_next(node, fresh);
            self.meter.check()?;
        }
        self.run_delta_waves()?;

        self.refresh_meter();
        self.stats.nodes_alive = self.graph.alive_count() as u64;
        self.stats.reasoning_time += t0.elapsed();
        self.stats.peak_bytes = self.meter.peak();
        self.meter.check()?;
        // Cleared only on success — an aborted pass retries the
        // re-derivation from `retract_nodes` (pruning already happened
        // and is not repeatable: the trees are gone).
        for f in victims {
            self.pending_retract.remove(&f);
        }
        self.retract_nodes.clear();
        self.compact_graph();
        self.record_phase_sample(phases0);
        Ok(&self.stats)
    }

    /// The over-deletion of [`LtgEngine::reason_retract`]: removes every
    /// stored tree mentioning a victim as a leaf, rebuilds collapsed OR
    /// bundles **in place** where alternatives survive, fixes the global
    /// registries, rebuilds the pruned nodes' root-fact stores, and
    /// kills nodes left without trees.
    ///
    /// In-place rebuild: a doomed OR bundle is not dropped wholesale —
    /// each alternative is checked individually (same exact,
    /// signature-prefiltered walk; summaries never decide a drop, so a
    /// digest false positive cannot lose live lineage) and the
    /// survivors are re-collapsed into a replacement bundle that keeps
    /// the node's surviving lineage resident through the pass. The node
    /// still queues for re-derivation, which regenerates whatever the
    /// wholesale path would have.
    #[allow(clippy::type_complexity)]
    fn prune_victims(&mut self, victims: &[FactId]) {
        let vset: FxHashSet<FactId> = victims.iter().copied().collect();
        let vsig: u64 = victims.iter().map(|&f| fact_sig(f)).fold(0, |a, b| a | b);
        let mut memo: FxHashMap<TreeId, bool> = FxHashMap::default();

        // Stage 1: collect doomed trees per node (deterministic order:
        // node index, then root fact), and build the in-place
        // replacement bundle for every doomed OR bundle with surviving
        // alternatives.
        let mut node_removals: Vec<(NodeId, Vec<(FactId, Vec<TreeId>, Vec<TreeId>)>)> = Vec::new();
        let mut dead_by_fact: FxHashMap<FactId, FxHashSet<TreeId>> = FxHashMap::default();
        let mut repl_by_fact: FxHashMap<FactId, Vec<TreeId>> = FxHashMap::default();
        for idx in 0..self.graph.nodes.len() {
            if self.graph.nodes[idx].tset.is_empty() {
                continue;
            }
            let mut roots: Vec<FactId> = self.graph.nodes[idx].tset.keys().copied().collect();
            roots.sort_unstable();
            let mut removals: Vec<(FactId, Vec<TreeId>, Vec<TreeId>)> = Vec::new();
            for fact in roots {
                let trees: Vec<TreeId> = self.graph.nodes[idx].tset[&fact].clone();
                let mut dead: Vec<TreeId> = Vec::new();
                let mut repl: Vec<TreeId> = Vec::new();
                for t in trees {
                    if !tree_mentions(&self.forest, t, &vset, vsig, &mut memo) {
                        continue;
                    }
                    dead.push(t);
                    if self.forest.label(t) != Label::Or {
                        continue;
                    }
                    // Per-alternative filtering: the exact walk decides,
                    // one alternative at a time.
                    let survivors: Vec<TreeId> = self
                        .forest
                        .children(t)
                        .iter()
                        .copied()
                        .filter(|&c| !tree_mentions(&self.forest, c, &vset, vsig, &mut memo))
                        .collect();
                    if survivors.is_empty() {
                        continue;
                    }
                    // `collapse` returns a lone survivor bare.
                    let rebuilt = self.forest.collapse(&survivors);
                    self.stats.bundle_rebuilds += 1;
                    if !repl.contains(&rebuilt) {
                        repl.push(rebuilt);
                    }
                    let global = repl_by_fact.entry(fact).or_default();
                    if !global.contains(&rebuilt) {
                        global.push(rebuilt);
                    }
                }
                if !dead.is_empty() {
                    dead_by_fact
                        .entry(fact)
                        .or_default()
                        .extend(dead.iter().copied());
                    removals.push((fact, dead, repl));
                }
            }
            if !removals.is_empty() {
                node_removals.push((NodeId(idx as u32), removals));
            }
        }

        // Stage 2: global registries. The explanation-dedup count of a
        // removed tree must drop too: after a re-insert of the victim
        // the same lineage becomes derivable again and must be storable.
        // Replacement bundles register like freshly stored trees.
        let mut facts: Vec<FactId> = dead_by_fact.keys().copied().collect();
        facts.sort_unstable();
        for fact in facts {
            let mut dead: Vec<TreeId> = dead_by_fact[&fact].iter().copied().collect();
            dead.sort_unstable();
            self.stats.retracted_trees += dead.len() as u64;
            for &t in &dead {
                let s = self.summary(t);
                self.unregister_summary(fact, s);
            }
            let was_derived = self.derived.contains_key(&fact);
            let dead_set = &dead_by_fact[&fact];
            if let Some(trees) = self.derived.get_mut(&fact) {
                trees.retain(|t| !dead_set.contains(t));
            }
            let mut repls = repl_by_fact.remove(&fact).unwrap_or_default();
            repls.sort_unstable();
            for r in repls {
                let present = self.derived.get(&fact).is_some_and(|v| v.contains(&r));
                if present {
                    continue;
                }
                let s = self.summary(r);
                self.register_summary(fact, s);
                self.derived.entry(fact).or_default().push(r);
            }
            if self.derived.get(&fact).is_some_and(Vec::is_empty) {
                self.derived.remove(&fact);
            }
            let is_derived = self.derived.contains_key(&fact);
            if is_derived != was_derived {
                self.set_derived_member(fact, is_derived);
            }
        }

        // Stage 3: per-node tsets, root-fact stores, liveness.
        for (node, removals) in node_removals {
            for (fact, dead, repl) in &removals {
                let n = &mut self.graph.nodes[node.index()];
                let entry = n.tset.get_mut(fact).expect("pruned fact has an entry");
                entry.retain(|t| !dead.contains(t));
                for &r in repl {
                    if !entry.contains(&r) {
                        entry.push(r);
                    }
                }
                if entry.is_empty() {
                    n.tset.remove(fact);
                }
            }
            let n = &mut self.graph.nodes[node.index()];
            let mut roots: Vec<FactId> = n.tset.keys().copied().collect();
            roots.sort_unstable();
            let mut store = Relation::new();
            for f in roots {
                store.push(f);
            }
            n.store = store;
            if n.tset.is_empty() && n.alive {
                let head = self.canonical.program.rules[n.rule.index()].head.pred;
                self.graph.kill(node);
                self.graph.unregister_producer(head.0, node);
            }
            self.retract_nodes.insert(node);
        }
    }

    /// Re-executes a node's *full* join against its (grown) inputs;
    /// registers it as a producer on its first survival. Returns the
    /// root facts that gained trees. Used by the retraction re-derive
    /// (no delta exists after pruning) — the incremental insert path
    /// goes through [`LtgEngine::store_delta_rows`] instead.
    fn reinstantiate(&mut self, node: NodeId, rid: RuleId) -> Result<Vec<FactId>, EngineError> {
        let was_alive = self.graph.nodes[node.index()].alive;
        let matches = self.collect_matches(node)?;
        let built = if matches.is_empty() {
            BuildOutcome::default()
        } else {
            self.build_trees(node, matches)?
        };
        self.stats.delta_new_trees += built.fresh_trees;
        if !built.fresh_facts.is_empty() && !was_alive {
            self.graph.nodes[node.index()].alive = true;
            let head = self.canonical.program.rules[rid.index()].head.pred;
            self.graph.register_producer(head.0, node);
        }
        Ok(built.fresh_facts)
    }

    /// Records `fresh` facts of `node` into the pending wave delta.
    fn merge_delta_next(&mut self, node: NodeId, fresh: Vec<FactId>) {
        if fresh.is_empty() {
            return;
        }
        let entry = self.delta_next.entry(node).or_default();
        for f in fresh {
            if !entry.contains(&f) {
                entry.push(f);
            }
        }
    }

    /// Builds the trees of pre-computed (delta) join rows into `node`,
    /// reviving it on its first surviving tree and feeding the facts
    /// that gained trees into the pending wave delta.
    fn store_delta_rows(
        &mut self,
        node: NodeId,
        rid: RuleId,
        rows: Vec<JoinRow>,
    ) -> Result<(), EngineError> {
        if rows.is_empty() {
            return Ok(());
        }
        let was_alive = self.graph.nodes[node.index()].alive;
        let built = self.build_trees(node, rows)?;
        self.stats.delta_new_trees += built.fresh_trees;
        if built.fresh_facts.is_empty() {
            return Ok(());
        }
        if !was_alive {
            self.graph.nodes[node.index()].alive = true;
            let head = self.canonical.program.rules[rid.index()].head.pred;
            self.graph.register_producer(head.0, node);
        }
        self.merge_delta_next(node, built.fresh_facts);
        Ok(())
    }

    /// Wave 0 of a delta pass: the semi-naive join of a source node,
    /// restricted to the facts inserted into its dirty relations.
    fn collect_source_delta(
        &mut self,
        node: NodeId,
        dirty: &FxHashSet<PredId>,
    ) -> Result<Vec<JoinRow>, EngineError> {
        let t0 = Instant::now();
        let rid = self.graph.nodes[node.index()].rule;
        let rule = self.canonical.program.rules[rid.index()].clone();
        let masks = binding_masks(&rule);
        for (j, atom) in rule.body.iter().enumerate() {
            self.db.ensure_edb_index(atom.pred, masks[j]);
        }
        let delta_sets: Vec<Option<FxHashSet<FactId>>> = rule
            .body
            .iter()
            .map(|a| {
                if dirty.contains(&a.pred) {
                    Some(
                        self.edb_delta
                            .get(&a.pred)
                            .map(|v| v.iter().copied().collect())
                            .unwrap_or_default(),
                    )
                } else {
                    None
                }
            })
            .collect();
        let store = &self.db.store;
        let rels: Vec<&Relation> = rule
            .body
            .iter()
            .map(|a| self.db.edb_relation_ref(a.pred))
            .collect();
        let mut out = Vec::new();
        let mut probes = 0u64;
        for q in 0..rule.body.len() {
            if delta_sets[q].is_none() {
                continue;
            }
            let specs: Vec<PosSpec<'_>> = delta_sets
                .iter()
                .enumerate()
                .map(|(j, s)| match s {
                    None => PosSpec::Full,
                    Some(set) => match j.cmp(&q) {
                        std::cmp::Ordering::Less => PosSpec::Except(set),
                        std::cmp::Ordering::Equal => PosSpec::Delta(set),
                        std::cmp::Ordering::Greater => PosSpec::Full,
                    },
                })
                .collect();
            join_delta(
                &rule,
                &masks,
                &rels,
                &specs,
                store,
                &self.meter,
                &mut out,
                &mut probes,
            )?;
        }
        self.stats.delta_join_probes += probes;
        self.stats.delta_join_time += t0.elapsed();
        Ok(out)
    }

    /// The semi-naive join of one planned combination: per changed
    /// parent position, one delta join over that parent's changed root
    /// facts, with earlier changed positions restricted to their old
    /// facts — every row with at least one changed fact, exactly once.
    fn collect_delta_matches(
        &mut self,
        rid: RuleId,
        parents: &[NodeId],
        delta_sets: &FxHashMap<NodeId, FxHashSet<FactId>>,
    ) -> Result<Vec<JoinRow>, EngineError> {
        let t0 = Instant::now();
        let rule = self.canonical.program.rules[rid.index()].clone();
        let masks = binding_masks(&rule);
        for (j, &p) in parents.iter().enumerate() {
            self.graph.nodes[p.index()]
                .store
                .ensure_index(masks[j], &self.db.store);
        }
        let store = &self.db.store;
        let rels: Vec<&Relation> = parents
            .iter()
            .map(|p| &self.graph.nodes[p.index()].store)
            .collect();
        let mut out = Vec::new();
        let mut probes = 0u64;
        for q in 0..parents.len() {
            if !delta_sets.contains_key(&parents[q]) {
                continue;
            }
            let specs: Vec<PosSpec<'_>> = parents
                .iter()
                .enumerate()
                .map(|(j, p)| match delta_sets.get(p) {
                    None => PosSpec::Full,
                    Some(set) => match j.cmp(&q) {
                        std::cmp::Ordering::Less => PosSpec::Except(set),
                        std::cmp::Ordering::Equal => PosSpec::Delta(set),
                        std::cmp::Ordering::Greater => PosSpec::Full,
                    },
                })
                .collect();
            join_delta(
                &rule,
                &masks,
                &rels,
                &specs,
                store,
                &self.meter,
                &mut out,
                &mut probes,
            )?;
        }
        self.stats.delta_join_probes += probes;
        self.stats.delta_join_time += t0.elapsed();
        Ok(out)
    }

    /// One propagation wave: plans every parent combination with at
    /// least one parent in the frontier (each combination exactly once
    /// via the pivot discipline: positions before the pivot draw
    /// unchanged producers only), evaluates its semi-naive delta join,
    /// and stores the surviving trees. Nodes are created **lazily**:
    /// a combination only enters the arena (and the combo registry)
    /// when its delta join produced rows — planned-but-barren
    /// combinations used to be pushed dead into the arena forever,
    /// which is exactly the graph blowup this rewrite removes. Facts
    /// that gained trees accumulate in `delta_next`.
    fn delta_wave(&mut self) -> Result<(), EngineError> {
        let changed: FxHashSet<NodeId> = self.delta_frontier.keys().copied().collect();
        let delta_sets: FxHashMap<NodeId, FxHashSet<FactId>> = self
            .delta_frontier
            .iter()
            .map(|(&n, v)| (n, v.iter().copied().collect()))
            .collect();
        let mut planned: Vec<(RuleId, Box<[NodeId]>)> = Vec::new();
        let nonbase = self.canonical.nonbase_rules.clone();
        for &rid in &nonbase {
            let rule = &self.canonical.program.rules[rid.index()];
            let lists: Vec<&[NodeId]> = rule
                .body
                .iter()
                .map(|a| self.graph.producers(a.pred.0))
                .collect();
            if lists.iter().any(|l| l.is_empty()) {
                continue;
            }
            for pivot in 0..lists.len() {
                let choices: Vec<Vec<NodeId>> = lists
                    .iter()
                    .enumerate()
                    .map(|(j, l)| match j.cmp(&pivot) {
                        std::cmp::Ordering::Less => {
                            l.iter().copied().filter(|n| !changed.contains(n)).collect()
                        }
                        std::cmp::Ordering::Equal => {
                            l.iter().copied().filter(|n| changed.contains(n)).collect()
                        }
                        std::cmp::Ordering::Greater => l.to_vec(),
                    })
                    .collect();
                if choices.iter().any(Vec::is_empty) {
                    continue;
                }
                let mut idx = vec![0usize; choices.len()];
                let mut combos_seen = 0u64;
                'combos: loop {
                    combos_seen += 1;
                    if combos_seen % 4096 == 0 {
                        self.meter.check()?;
                    }
                    let combo: Box<[NodeId]> = idx
                        .iter()
                        .enumerate()
                        .map(|(j, &i)| choices[j][i])
                        .collect();
                    planned.push((rid, combo));
                    if planned.len() % 4096 == 0 {
                        self.meter.charge(4096 * 24);
                        self.meter.check()?;
                    }
                    let mut j = 0;
                    loop {
                        idx[j] += 1;
                        if idx[j] < choices[j].len() {
                            break;
                        }
                        idx[j] = 0;
                        j += 1;
                        if j == choices.len() {
                            break 'combos;
                        }
                    }
                }
            }
        }

        for (rid, parents) in planned {
            let depth = parents
                .iter()
                .map(|p| self.graph.nodes[p.index()].depth)
                .max()
                .expect("nonbase combos have parents")
                + 1;
            if self.config.max_depth.is_some_and(|d| depth > d) {
                continue;
            }
            let rows = self.collect_delta_matches(rid, &parents, &delta_sets)?;
            if rows.is_empty() {
                self.meter.check()?;
                continue;
            }
            let node = match self.combos.get(&(rid, parents.clone())) {
                Some(&n) => n,
                None => {
                    let n = self.graph.push_node(rid, parents.clone(), depth);
                    self.stats.nodes_created += 1;
                    self.combos.insert((rid, parents), n);
                    // Fresh nodes start unregistered: `store_delta_rows`
                    // revives them on their first surviving tree.
                    self.graph.nodes[n.index()].alive = false;
                    n
                }
            };
            self.store_delta_rows(node, rid, rows)?;
            self.meter.check()?;
        }
        Ok(())
    }

    /// Mark-sweep reclamation of dead combos. A node is kept iff it is
    /// alive, a source node (wave 0 indexes `combos[(rid, [])]`
    /// unconditionally), or an ancestor-of-a-kept-node (parents must
    /// outlive children so `NodeId`s in `parents` stay resolvable).
    /// Everything else — combinations that were planned, joined empty
    /// (or lost every tree to a retraction) and will be lazily
    /// re-created by a future delta wave if their join ever produces
    /// rows — is swept, with an **order-preserving** `NodeId` remap (the
    /// `TreeId` analogue `export_state` already ships). Refused while
    /// any mutation is mid-flight: pending sets and the semi-naive
    /// frontier hold `NodeId`s/`FactId`s the sweep would orphan.
    fn compact_graph(&mut self) {
        let t0 = Instant::now();
        self.compact_graph_inner();
        self.stats.compact_time += t0.elapsed();
    }

    fn compact_graph_inner(&mut self) {
        if !self.dirty_edb.is_empty()
            || !self.pending_retract.is_empty()
            || !self.retract_nodes.is_empty()
            || !self.delta_frontier.is_empty()
            || !self.delta_next.is_empty()
        {
            return;
        }
        let n = self.graph.nodes.len();
        self.stats.graph_nodes_hiwater = self.stats.graph_nodes_hiwater.max(n as u64);
        let mut keep = vec![false; n];
        for (i, node) in self.graph.nodes.iter().enumerate() {
            if node.alive || node.parents.is_empty() {
                keep[i] = true;
            }
        }
        // Parents have smaller indices, so one descending pass closes
        // the kept set over ancestry.
        for i in (0..n).rev() {
            if keep[i] {
                for p in self.graph.nodes[i].parents.iter() {
                    keep[p.index()] = true;
                }
            }
        }
        let swept = keep.iter().filter(|&&k| !k).count();
        if swept == 0 {
            return;
        }
        self.graph.compact(&keep);
        self.stats.nodes_compacted += swept as u64;
        // The combo registry is a pure index of `graph.nodes`; rebuild
        // it from the survivors. Every dropped entry is a pruned combo.
        let before = self.combos.len();
        self.combos.clear();
        for (i, node) in self.graph.nodes.iter().enumerate() {
            self.combos
                .insert((node.rule, node.parents.clone()), NodeId(i as u32));
        }
        self.stats.combos_pruned += (before - self.combos.len()) as u64;
    }

    /// Round 1: one source node per base rule.
    fn expand_base(&mut self) -> Result<bool, EngineError> {
        let mut grew = false;
        let base = self.canonical.base_rules.clone();
        for rid in base {
            let node = self.graph.push_node(rid, Box::from([]), 1);
            self.combos.insert((rid, Box::from([])), node);
            self.stats.nodes_created += 1;
            if self.instantiate(node)? {
                let head = self.canonical.program.rules[rid.index()].head.pred;
                self.graph.register_producer(head.0, node);
                grew = true;
            } else {
                self.graph.kill(node);
            }
        }
        Ok(grew)
    }

    /// Round `k > 1`: nodes for every `k`-compatible parent combination.
    fn expand_round(&mut self, k: u32) -> Result<bool, EngineError> {
        let mut planned: Vec<(ltg_datalog::RuleId, Box<[NodeId]>)> = Vec::new();
        // Rough bytes per 4096 planned combos, so runaway planning is
        // visible to the memory budget too.
        let combo_cost = 4096 * 24;
        for &rid in &self.canonical.nonbase_rules {
            let rule = &self.canonical.program.rules[rid.index()];
            let lists: Vec<Vec<NodeId>> = rule
                .body
                .iter()
                .map(|a| {
                    self.graph
                        .producers(a.pred.0)
                        .iter()
                        .copied()
                        .filter(|n| self.graph.nodes[n.index()].depth < k)
                        .collect()
                })
                .collect();
            if lists.iter().any(Vec::is_empty) {
                continue;
            }
            // Odometer over the parent lists; keep combos with at least
            // one parent from the previous round (Definition 6).
            let mut idx = vec![0usize; lists.len()];
            let mut combos_seen = 0u64;
            'combos: loop {
                combos_seen += 1;
                if combos_seen % 4096 == 0 {
                    self.meter.check()?;
                }
                let combo: Vec<NodeId> =
                    idx.iter().enumerate().map(|(j, &i)| lists[j][i]).collect();
                let max_depth = combo
                    .iter()
                    .map(|n| self.graph.nodes[n.index()].depth)
                    .max()
                    .unwrap();
                if max_depth == k - 1 {
                    planned.push((rid, combo.into_boxed_slice()));
                    if planned.len() % 4096 == 0 {
                        self.meter.charge(combo_cost);
                        self.meter.check()?;
                    }
                }
                let mut j = 0;
                loop {
                    idx[j] += 1;
                    if idx[j] < lists[j].len() {
                        break;
                    }
                    idx[j] = 0;
                    j += 1;
                    if j == lists.len() {
                        break 'combos;
                    }
                }
            }
        }

        let mut grew = false;
        for (rid, parents) in planned {
            let node = self.graph.push_node(rid, parents.clone(), k);
            self.combos.insert((rid, parents), node);
            self.stats.nodes_created += 1;
            if self.instantiate(node)? {
                let head = self.canonical.program.rules[rid.index()].head.pred;
                self.graph.register_producer(head.0, node);
                grew = true;
            } else {
                self.graph.kill(node);
            }
            self.meter.check()?;
        }
        Ok(grew)
    }

    /// Executes the rule of `node`, filling its tset. Returns whether any
    /// tree survived.
    fn instantiate(&mut self, node: NodeId) -> Result<bool, EngineError> {
        let matches = self.collect_matches(node)?;
        if matches.is_empty() {
            return Ok(false);
        }
        let built = self.build_trees(node, matches)?;
        Ok(!built.fresh_facts.is_empty())
    }

    /// Phase 1 of instantiation: the join. Computes every term mapping of
    /// the rule over the node's inputs (EDB relations for source nodes,
    /// the parents' stored facts otherwise).
    fn collect_matches(&mut self, node: NodeId) -> Result<Vec<JoinRow>, EngineError> {
        let t0 = Instant::now();
        let rid = self.graph.nodes[node.index()].rule;
        let parents = self.graph.nodes[node.index()].parents.clone();
        let rule = self.canonical.program.rules[rid.index()].clone();
        let is_source = parents.is_empty();

        let masks = binding_masks(&rule);

        // Prepare indexes, then join through shared references.
        if is_source {
            for (j, atom) in rule.body.iter().enumerate() {
                self.db.ensure_edb_index(atom.pred, masks[j]);
            }
        } else {
            for (j, &p) in parents.iter().enumerate() {
                self.graph.nodes[p.index()]
                    .store
                    .ensure_index(masks[j], &self.db.store);
            }
        }

        let store = &self.db.store;
        let rels: Vec<&Relation> = if is_source {
            rule.body
                .iter()
                .map(|a| self.db.edb_relation_ref(a.pred))
                .collect()
        } else {
            parents
                .iter()
                .map(|p| &self.graph.nodes[p.index()].store)
                .collect()
        };

        let mut out = Vec::new();
        let joined = join(&rule, &masks, &rels, store, &self.meter, &mut out);
        self.stats.delta_join_time += t0.elapsed();
        joined?;
        Ok(out)
    }

    /// Phase 2 of instantiation: derivation-tree construction, collapsing
    /// decision, redundancy filtering, tset population. Returns the root
    /// facts that gained trees (in ascending fact order) and the number
    /// of trees actually stored.
    fn build_trees(
        &mut self,
        node: NodeId,
        matches: Vec<JoinRow>,
    ) -> Result<BuildOutcome, EngineError> {
        let t0 = Instant::now();
        let outcome = self.build_trees_inner(node, matches);
        self.stats.tree_build_time += t0.elapsed();
        outcome
    }

    fn build_trees_inner(
        &mut self,
        node: NodeId,
        matches: Vec<JoinRow>,
    ) -> Result<BuildOutcome, EngineError> {
        let rid = self.graph.nodes[node.index()].rule;
        let head_pred = self.canonical.program.rules[rid.index()].head.pred;
        let parents = self.graph.nodes[node.index()].parents.clone();
        let is_source = parents.is_empty();

        // T(α, v, F) grouped by root fact α (Algorithm 2 line 6).
        let mut groups: FxHashMap<FactId, Vec<TreeId>> = FxHashMap::default();
        let mut lists: Vec<&[TreeId]> = Vec::with_capacity(parents.len());
        let mut children: Vec<TreeId> = Vec::with_capacity(parents.len().max(4));
        for m in &matches {
            let (head_fact, _) = self.db.intern_derived(head_pred, &m.head_args);
            let forest = &mut self.forest;
            if is_source {
                children.clear();
                for &f in m.body_facts.iter() {
                    children.push(forest.leaf(f));
                }
                let t = forest.node(Label::And, head_fact, &children);
                groups.entry(head_fact).or_default().push(t);
                self.stats.derivations += 1;
                self.meter.charge(48);
            } else {
                // One tree per combination of parent trees (Definition 2).
                let graph = &self.graph;
                lists.clear();
                for (j, &f) in m.body_facts.iter().enumerate() {
                    lists.push(graph.nodes[parents[j].index()].trees(f));
                }
                if lists.iter().any(|l| l.is_empty()) {
                    continue;
                }
                let sizes: Vec<usize> = lists.iter().map(|l| l.len()).collect();
                let mut idx = vec![0usize; lists.len()];
                'product: loop {
                    children.clear();
                    for (j, l) in lists.iter().enumerate() {
                        children.push(l[idx[j]]);
                    }
                    let t = forest.node(Label::And, head_fact, &children);
                    groups.entry(head_fact).or_default().push(t);
                    self.stats.derivations += 1;
                    self.meter.charge(48);
                    if self.stats.derivations % 4096 == 0 {
                        self.meter.check()?;
                    }
                    let mut j = 0;
                    loop {
                        idx[j] += 1;
                        if idx[j] < sizes[j] {
                            break;
                        }
                        idx[j] = 0;
                        j += 1;
                        if j == lists.len() {
                            break 'product;
                        }
                    }
                }
            }
        }
        drop(matches);

        // Collapse decision (Algorithm 2 line 8): average trees per root.
        let total_trees: usize = groups.values().map(Vec::len).sum();
        let do_collapse = self.config.collapse
            && !groups.is_empty()
            && total_trees >= groups.len() * self.config.collapse_threshold;

        let mut outcome = BuildOutcome::default();
        let mut group_list: Vec<(FactId, Vec<TreeId>)> = groups.into_iter().collect();
        group_list.sort_unstable_by_key(|(f, _)| *f);
        for (fact, mut trees) in group_list {
            trees.sort_unstable();
            trees.dedup();
            // Delta re-instantiation regenerates every old combination
            // (hash-consed to its old TreeId). Drop the ones this node
            // already stores — directly, or inside an earlier collapse
            // bundle (whose children are the candidates of that pass) —
            // so only genuinely new trees reach the collapse below.
            // Without this, every pass would re-bundle the full history
            // into a fresh OR node and downstream combinations would
            // grow multiplicatively per insert. First runs have empty
            // tsets, so batch reasoning is unaffected.
            if let Some(existing) = self.graph.nodes[node.index()].tset.get(&fact) {
                let mut known: FxHashSet<TreeId> = existing.iter().copied().collect();
                for &t in existing {
                    if self.forest.label(t) == Label::Or {
                        known.extend(self.forest.children(t).iter().copied());
                    }
                }
                trees.retain(|t| !known.contains(t));
                if trees.is_empty() {
                    continue;
                }
            }
            let candidates: Vec<TreeId> = if do_collapse && trees.len() > 1 {
                let t0 = Instant::now();
                let collapsed = self.forest.collapse(&trees);
                self.stats.collapse_ops += 1;
                self.stats.collapse_time += t0.elapsed();
                vec![collapsed]
            } else {
                trees
            };
            let mut stored: Vec<TreeId> = Vec::new();
            let mut occ = OccCache::default();
            for t in candidates {
                if is_redundant(&self.forest, t, &mut occ) {
                    continue;
                }
                // Explanation dedup: a tree whose leafset summary is
                // already stored for this fact repeats lineage the fact
                // already has — Lemma 1 makes dropping it safe, and
                // keeping it breeds equivalent derivations forever on
                // cyclic (e.g. magic-sets or orientation-reversing)
                // programs. Summaries cover collapsed (OR) trees too,
                // which is what stops the breeding under aggressive
                // collapse.
                let s = self.summary(t);
                let equal_seen = self.summary_seen(fact, s);
                // Subsumption: a candidate whose every explanation is
                // absorbed by the fact's stored explanation union adds
                // nothing either (it is redundant in the paper's
                // Section 5.2 sense — removal does not change the
                // lineage). Equality keeps the breeding *finite*;
                // absorption is what makes the transient *short* on
                // orientation-reversing programs.
                let absorbed = !equal_seen && self.union_absorbs(fact, s);
                if equal_seen || absorbed {
                    self.stats.deduped += 1;
                    if absorbed || self.summaries.exact_len(s) != Some(1) {
                        // Multi-explanation summary: only the summary
                        // registry can catch these (the historical
                        // OR-free leafset dedup was blind here).
                        self.stats.leafset_dedup_hits += 1;
                    }
                    continue;
                }
                self.register_summary(fact, s);
                stored.push(t);
            }
            if stored.is_empty() {
                continue;
            }
            // Merge, don't replace: delta re-instantiation regenerates
            // trees the node already stores, and the old trees must
            // survive.
            let n = &mut self.graph.nodes[node.index()];
            let entry = n.tset.entry(fact).or_default();
            let first_time = entry.is_empty();
            let fresh: Vec<TreeId> = stored.into_iter().filter(|t| !entry.contains(t)).collect();
            if fresh.is_empty() {
                continue;
            }
            outcome.fresh_trees += fresh.len() as u64;
            entry.extend(fresh.iter().copied());
            if first_time {
                n.store.push(fact);
            }
            let trees = self.derived.entry(fact).or_default();
            let first_tree = trees.is_empty();
            trees.extend(fresh);
            if first_tree {
                self.set_derived_member(fact, true);
            }
            outcome.fresh_facts.push(fact);
        }
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Snapshot export / restore (durable sessions)
    // ------------------------------------------------------------------

    /// Structural fingerprint of the canonical program this engine
    /// executes (see [`crate::state::fingerprint`]). Snapshots and WALs
    /// record it so recovery can refuse state from a different program.
    pub fn fingerprint(&self) -> u64 {
        crate::state::fingerprint(&self.canonical.program)
    }

    /// Flattens the resident state into an [`EngineState`] (see the
    /// `state` module docs for the id-preservation contract). Refused
    /// while mutations await a reasoning pass — the caller must flush
    /// first, because pending sets are deliberately not part of the
    /// state.
    ///
    /// The forest arena is **compacted with an order-preserving
    /// renumbering**: only trees reachable from a tset (or the derived
    /// registry) survive, with their relative id order intact. The
    /// arena accumulates every *candidate* derivation ever interned —
    /// redundancy filtering and explanation dedup discard most of them
    /// on churn-heavy (cyclic) programs — and a restart has no use for
    /// the garbage. Dropping it changes only the absolute `TreeId`
    /// values; every downstream consumer (tset ordering, the collapse
    /// grouping's `sort_unstable`, dedup sets, hash-consing) depends on
    /// id *order* and tree *structure*, never on absolute ids, so a
    /// restored engine still evolves in bitwise lockstep with the
    /// original (asserted by `state_roundtrip_is_bit_identical_and_
    /// stays_incremental` and the recovery property suite).
    pub fn export_state(&self) -> Result<EngineState, ExportError> {
        if !self.dirty_edb.is_empty()
            || !self.pending_retract.is_empty()
            || !self.retract_nodes.is_empty()
            || !self.delta_frontier.is_empty()
            || !self.delta_next.is_empty()
        {
            return Err(ExportError::PendingMutations);
        }
        // Live-tree closure over the children graph (children have
        // smaller ids, so one pass marks, a second renumbers in order).
        let mut live = vec![false; self.forest.len()];
        let mut stack: Vec<TreeId> = Vec::new();
        let mark = |t: TreeId, live: &mut Vec<bool>, stack: &mut Vec<TreeId>| {
            if !live[t.index()] {
                live[t.index()] = true;
                stack.push(t);
            }
        };
        for node in &self.graph.nodes {
            for trees in node.tset.values() {
                for &t in trees {
                    mark(t, &mut live, &mut stack);
                }
            }
        }
        for trees in self.derived.values() {
            for &t in trees {
                mark(t, &mut live, &mut stack);
            }
        }
        while let Some(t) = stack.pop() {
            for &c in self.forest.children(t) {
                mark(c, &mut live, &mut stack);
            }
        }
        let mut remap: Vec<u32> = vec![u32::MAX; self.forest.len()];
        let mut forest = Vec::with_capacity(live.iter().filter(|&&l| l).count());
        for i in 0..self.forest.len() {
            if !live[i] {
                continue;
            }
            let t = TreeId(i as u32);
            remap[i] = forest.len() as u32;
            forest.push((
                self.forest.fact(t),
                self.forest.label(t),
                self.forest
                    .children(t)
                    .iter()
                    .map(|c| TreeId(remap[c.index()]))
                    .collect::<Vec<_>>(),
            ));
        }
        let remap_list = |trees: &[TreeId]| -> Vec<TreeId> {
            trees.iter().map(|t| TreeId(remap[t.index()])).collect()
        };

        let nodes = self
            .graph
            .nodes
            .iter()
            .map(|n| {
                let mut tset: Vec<(FactId, Vec<TreeId>)> = n
                    .tset
                    .iter()
                    .map(|(&f, trees)| (f, remap_list(trees)))
                    .collect();
                tset.sort_unstable_by_key(|(f, _)| *f);
                NodeState {
                    rule: n.rule.0,
                    parents: n.parents.to_vec(),
                    depth: n.depth,
                    alive: n.alive,
                    store: n.store.facts().to_vec(),
                    tset,
                }
            })
            .collect();
        let mut derived: Vec<(FactId, Vec<TreeId>)> = self
            .derived
            .iter()
            .map(|(&f, trees)| (f, remap_list(trees)))
            .collect();
        derived.sort_unstable_by_key(|(f, _)| *f);
        Ok(EngineState {
            fingerprint: self.fingerprint(),
            config: self.config.clone(),
            symbols: self
                .canonical
                .program
                .symbols
                .iter()
                .map(|(_, name)| name.to_string())
                .collect(),
            db: self.db.export_state(),
            forest,
            nodes,
            producers: self.graph.export_producers(),
            derived,
            round: self.round,
            finished: self.finished,
            stats: self.stats.clone(),
        })
    }

    /// Rebuilds a resident engine from an [`EngineState`] exported by a
    /// previous process serving the *same* program under the *same*
    /// configuration. All structural invariants are re-checked (the
    /// state is file input); any mismatch aborts the warm boot with a
    /// [`RestoreError`] and the caller falls back to cold reasoning.
    ///
    /// Rebuilt rather than restored: the combo registry (a pure index of
    /// `graph.nodes`), the leafset memo, and the explanation-dedup
    /// table — recomputing the latter two re-creates the `Rc` sharing
    /// between them that serialization necessarily flattened.
    pub fn restore(
        program: &Program,
        config: EngineConfig,
        state: EngineState,
    ) -> Result<Self, RestoreError> {
        let mut canonical = canonicalize(program);
        let expected = crate::state::fingerprint(&canonical.program);
        if state.fingerprint != expected {
            return Err(RestoreError::Fingerprint {
                expected,
                found: state.fingerprint,
            });
        }
        if state.config != config {
            return Err(RestoreError::Config);
        }
        // The program's own symbols must be a prefix of the state's
        // table; the tail is the constants later mutations interned.
        if canonical.program.symbols.len() > state.symbols.len() {
            return Err(RestoreError::Symbols);
        }
        for (sym, name) in canonical.program.symbols.iter() {
            if state.symbols[sym.index()] != name {
                return Err(RestoreError::Symbols);
            }
        }
        for name in &state.symbols[canonical.program.symbols.len()..] {
            canonical.program.symbols.intern(name);
        }
        if canonical.program.symbols.len() != state.symbols.len() {
            // A tail name collided with an earlier one: corrupt table.
            return Err(RestoreError::Symbols);
        }

        let db = Database::from_state(state.db)?;
        let n_preds = canonical.program.preds.len();
        let n_syms = canonical.program.symbols.len();
        for f in db.store.iter() {
            let pred = db.store.pred(f);
            if pred.index() >= n_preds
                || db.store.args(f).len() != canonical.program.preds.arity(pred)
                || db.store.args(f).iter().any(|s| s.index() >= n_syms)
            {
                return Err(RestoreError::Invalid("fact references unknown pred/sym"));
            }
        }
        let n_facts = db.store.len();

        for (fact, _, _) in &state.forest {
            if fact.index() >= n_facts {
                return Err(RestoreError::Forest);
            }
        }
        let forest = Forest::from_records(&state.forest).ok_or(RestoreError::Forest)?;
        let n_trees = forest.len();

        let n_rules = canonical.program.rules.len();
        let mut graph = ExecutionGraph::new();
        let mut combos: FxHashMap<(RuleId, Box<[NodeId]>), NodeId> = FxHashMap::default();
        for (i, node) in state.nodes.iter().enumerate() {
            if node.rule as usize >= n_rules {
                return Err(RestoreError::Invalid("node references unknown rule"));
            }
            if node.parents.iter().any(|p| p.index() >= i) {
                return Err(RestoreError::Invalid("node parents out of order"));
            }
            let parents: Box<[NodeId]> = node.parents.iter().copied().collect();
            let id = graph.push_node(RuleId(node.rule), parents.clone(), node.depth);
            graph.nodes[id.index()].alive = node.alive;
            if combos.insert((RuleId(node.rule), parents), id).is_some() {
                return Err(RestoreError::Invalid("duplicate (rule, parents) combo"));
            }
            let n = &mut graph.nodes[id.index()];
            for &f in &node.store {
                if f.index() >= n_facts {
                    return Err(RestoreError::Invalid("node store references unknown fact"));
                }
                n.store.push(f);
            }
            for (f, trees) in &node.tset {
                if f.index() >= n_facts || trees.iter().any(|t| t.index() >= n_trees) {
                    return Err(RestoreError::Invalid("tset references unknown fact/tree"));
                }
                n.tset.insert(*f, trees.clone());
            }
        }
        let n_nodes = graph.nodes.len();
        for (_, list) in &state.producers {
            if list.iter().any(|n| n.index() >= n_nodes) {
                return Err(RestoreError::Invalid("producer references unknown node"));
            }
        }
        graph.restore_producers(state.producers);

        let mut derived: FxHashMap<FactId, Vec<TreeId>> = FxHashMap::default();
        for (f, trees) in state.derived {
            if f.index() >= n_facts || trees.iter().any(|t| t.index() >= n_trees) {
                return Err(RestoreError::Invalid(
                    "derived references unknown fact/tree",
                ));
            }
            derived.insert(f, trees);
        }

        let idb_mask = canonical.program.idb_mask();
        let mut engine = LtgEngine {
            canonical,
            db,
            forest,
            graph,
            derived,
            derived_rels: Vec::new(),
            summaries: SummaryStore::new(),
            expl_seen: FxHashMap::default(),
            expl_union: FxHashMap::default(),
            combos,
            idb_mask,
            dirty_edb: FxHashSet::default(),
            edb_delta: FxHashMap::default(),
            delta_frontier: FxHashMap::default(),
            delta_next: FxHashMap::default(),
            pending_retract: FxHashSet::default(),
            retract_nodes: FxHashSet::default(),
            config,
            meter: ResourceMeter::unlimited(),
            stats: state.stats,
            phases: PhaseMetrics::default(),
            round: state.round,
            finished: state.finished,
        };
        // Rebuild the explanation-dedup registry exactly as incremental
        // storing would have: summaries are a pure function of the
        // forest, so reconstructing them (one refcount per stored tree)
        // reproduces the pre-snapshot registry bit for bit.
        let mut facts: Vec<FactId> = engine.derived.keys().copied().collect();
        facts.sort_unstable();
        for fact in facts {
            engine.set_derived_member(fact, true);
            let trees = engine.derived[&fact].clone();
            for t in trees {
                let s = engine.summary(t);
                engine.register_summary(fact, s);
            }
        }
        engine.refresh_meter();
        Ok(engine)
    }

    // ------------------------------------------------------------------
    // Lineage collection and query answering
    // ------------------------------------------------------------------

    /// The lineage DNF of `fact` in `G(F)`: the disjunction over all its
    /// stored derivation trees, plus the fact itself when extensional.
    pub fn lineage_of(&self, fact: FactId) -> Result<Dnf, EngineError> {
        let mut cache = DnfCache::default();
        self.lineage_with_cache(fact, &mut cache)
    }

    /// Same as [`LtgEngine::lineage_of`] with a caller-provided memo table
    /// (share it across the answers of one query).
    pub fn lineage_with_cache(
        &self,
        fact: FactId,
        cache: &mut DnfCache,
    ) -> Result<Dnf, EngineError> {
        let mut dnf = if self.db.is_edb_fact(fact) {
            Dnf::var(fact)
        } else {
            Dnf::ff()
        };
        if let Some(trees) = self.derived.get(&fact) {
            let d = trees_dnf(&self.forest, trees, cache, self.config.lineage_cap)?;
            dnf.or_with(&d);
        }
        Ok(dnf)
    }

    /// Adds `fact` to (or removes it from) its predicate's derived
    /// relation, keeping that relation's indexes current.
    fn set_derived_member(&mut self, fact: FactId, member: bool) {
        let pred = self.db.store.pred(fact).index();
        if pred >= self.derived_rels.len() {
            self.derived_rels.resize_with(pred + 1, Relation::new);
        }
        let rel = &mut self.derived_rels[pred];
        if member {
            rel.push(fact);
        } else {
            rel.remove(fact, &self.db.store);
        }
    }

    /// Prepares the indexes [`LtgEngine::answer_facts`] probes for
    /// `query` — its constant positions over the predicate's derived and
    /// extensional relations — so that answering costs O(matches).
    /// Without it `answer_facts` still answers, by scanning the
    /// predicate's facts.
    pub fn prepare_answer(&mut self, query: &Atom) {
        let (mask, _) = query_pattern(query);
        if mask == 0 {
            return;
        }
        let pred = query.pred.index();
        if pred >= self.derived_rels.len() {
            self.derived_rels.resize_with(pred + 1, Relation::new);
        }
        let grew_derived = self.derived_rels[pred].ensure_index(mask, &self.db.store);
        let grew_edb = self.db.ensure_edb_index(query.pred, mask);
        if grew_derived || grew_edb {
            self.refresh_meter();
        }
    }

    /// All facts (derived or extensional) matching the query atom, in
    /// id order. Probes the indexes [`LtgEngine::prepare_answer`] built
    /// on the query's constant positions; an unprepared (or stale) index
    /// falls back to scanning the predicate's facts.
    pub fn answer_facts(&self, query: &Atom) -> Vec<FactId> {
        let (mask, key) = query_pattern(query);
        let derived = self
            .derived_rels
            .get(query.pred.index())
            .map_or(&[][..], |rel| {
                rel.try_probe(mask, &key).unwrap_or(rel.facts())
            });
        let edb = self
            .db
            .try_probe_edb(query.pred, mask, &key)
            .unwrap_or_else(|| self.db.edb_facts(query.pred));
        let mut matches = tuple_matcher(query);
        let mut out: Vec<FactId> = derived
            .iter()
            .chain(edb)
            .copied()
            .filter(|&f| matches(self.db.store.args(f)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Answers a query: every matching fact with its lineage.
    pub fn answer(&self, query: &Atom) -> Result<Vec<(FactId, Dnf)>, EngineError> {
        let mut cache = DnfCache::default();
        self.answer_facts(query)
            .into_iter()
            .map(|f| Ok((f, self.lineage_with_cache(f, &mut cache)?)))
            .collect()
    }

    /// All derived facts with at least one stored tree, sorted.
    pub fn derived_facts(&self) -> Vec<FactId> {
        let mut v: Vec<FactId> = self.derived.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// The `k` most probable explanations of `fact`: each is a minimal
    /// conjunction of extensional facts (one lineage disjunct) paired
    /// with its probability `Π π(f)`. Useful for "why is this answer
    /// likely?" introspection — the quantity Scallop's top-k semiring
    /// approximates (Section 6.2).
    pub fn explain(&self, fact: FactId, k: usize) -> Result<Vec<(Vec<FactId>, f64)>, EngineError> {
        let mut dnf = self.lineage_of(fact)?;
        dnf.minimize();
        let weights = self.db.weights();
        let mut out: Vec<(Vec<FactId>, f64)> = dnf
            .conjuncts()
            .map(|c| {
                let p: f64 = c.iter().map(|f| weights[f.index()]).product();
                (c.to_vec(), p)
            })
            .collect();
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        out.truncate(k);
        Ok(out)
    }
}

/// Does any victim occur in `tree`? Victims are EDB facts, and EDB facts
/// appear in derivation trees only as leaves (canonicalization splits
/// mixed predicates, so rule heads — the interior node facts — are
/// always intensional). The walk is memoized per retraction pass and
/// prefiltered by the forest's Bloom signatures: a tree whose signature
/// is disjoint from the victims' cannot contain any of them.
fn tree_mentions(
    forest: &Forest,
    tree: TreeId,
    victims: &FxHashSet<FactId>,
    vsig: u64,
    memo: &mut FxHashMap<TreeId, bool>,
) -> bool {
    if forest.sig(tree) & vsig == 0 {
        return false;
    }
    if let Some(&hit) = memo.get(&tree) {
        return hit;
    }
    let hit = if forest.is_leaf(tree) {
        victims.contains(&forest.fact(tree))
    } else {
        forest
            .children(tree)
            .iter()
            .any(|&c| tree_mentions(forest, c, victims, vsig, memo))
    };
    memo.insert(tree, hit);
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltg_datalog::{parse_program, Sym, Term};
    use ltg_wmc::{NaiveWmc, WmcSolver};

    const EXAMPLE1: &str = "
        0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b).
        p(X, Y) :- e(X, Y).
        p(X, Y) :- p(X, Z), p(Z, Y).
    ";

    fn lineage_str(engine: &LtgEngine, pred: &str, args: &[&str]) -> Dnf {
        let program = engine.program();
        let p = program.preds.lookup(pred, args.len()).unwrap();
        let syms: Vec<Sym> = args
            .iter()
            .map(|a| program.symbols.lookup(a).unwrap())
            .collect();
        let f = engine.db().store.lookup(p, &syms).unwrap();
        engine.lineage_of(f).unwrap()
    }

    #[test]
    fn example4_termination_in_three_rounds() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::with_config(&program, EngineConfig::without_collapse());
        engine.reason().unwrap();
        // Round 1: v1; round 2: v2; round 3: v3–v5 all redundant → stop.
        assert_eq!(engine.rounds(), 3);
        assert_eq!(engine.graph().depth(), 2);
        assert_eq!(engine.graph().alive_count(), 2);
        assert!(engine.finished());
    }

    #[test]
    fn example1_lineages() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::with_config(&program, EngineConfig::without_collapse());
        engine.reason().unwrap();

        // λ(p(a,b)) = e(a,b) ∨ e(a,c)∧e(c,b)
        let pab = lineage_str(&engine, "p", &["a", "b"]);
        let e = |x: &str, y: &str| {
            let program = engine.program();
            let ep = program.preds.lookup("e", 2).unwrap();
            let xs = program.symbols.lookup(x).unwrap();
            let ys = program.symbols.lookup(y).unwrap();
            engine.db().store.lookup(ep, &[xs, ys]).unwrap()
        };
        let mut expected = Dnf::var(e("a", "b"));
        expected.push(vec![e("a", "c"), e("c", "b")]);
        assert!(pab.equivalent(&expected), "got {pab:?}");

        // λ(p(b,b)) = e(b,c)∧e(c,b)
        let pbb = lineage_str(&engine, "p", &["b", "b"]);
        let expected = Dnf::unit(vec![e("b", "c"), e("c", "b")]);
        assert!(pbb.equivalent(&expected));

        // λ(p(a,c)) = e(a,c) ∨ e(a,b)∧e(b,c)
        let pac = lineage_str(&engine, "p", &["a", "c"]);
        let mut expected = Dnf::var(e("a", "c"));
        expected.push(vec![e("a", "b"), e("b", "c")]);
        assert!(pac.equivalent(&expected));
    }

    #[test]
    fn example1_probability() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let d = lineage_str(&engine, "p", &["a", "b"]);
        let p = NaiveWmc::default()
            .probability(&d, &engine.db().weights())
            .unwrap();
        assert!((p - 0.78).abs() < 1e-12, "p = {p}");
    }

    #[test]
    fn collapse_and_no_collapse_agree() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut with = LtgEngine::with_config(
            &program,
            EngineConfig {
                collapse: true,
                collapse_threshold: 1,
                ..EngineConfig::default()
            },
        );
        with.reason().unwrap();
        let mut without = LtgEngine::with_config(&program, EngineConfig::without_collapse());
        without.reason().unwrap();
        for fact in without.derived_facts() {
            let a = without.lineage_of(fact).unwrap();
            let b = with.lineage_of(fact).unwrap();
            assert!(a.equivalent(&b), "fact {fact:?}: {a:?} vs {b:?}");
        }
        assert_eq!(with.derived_facts(), without.derived_facts());
    }

    #[test]
    fn example5_collapsing_reduces_derivations() {
        // r3/r4/r5 of Example 5 with N = 12 q-facts.
        let mut src = String::new();
        for i in 0..12 {
            src.push_str(&format!("0.5 :: q(a, b{i}).\n"));
        }
        src.push_str("0.5 :: s(a, b0).\n");
        src.push_str("r(X, Y) :- q(X, Y).\n");
        src.push_str("t(X) :- r(X, Y).\n");
        src.push_str("r(X, Y) :- t(X), s(X, Y).\n");
        let program = parse_program(&src).unwrap();

        let mut with = LtgEngine::with_config(&program, EngineConfig::with_collapse());
        with.reason().unwrap();
        let mut without = LtgEngine::with_config(&program, EngineConfig::without_collapse());
        without.reason().unwrap();

        assert!(with.stats().collapse_ops > 0);
        assert!(
            with.stats().derivations < without.stats().derivations,
            "with: {}, without: {}",
            with.stats().derivations,
            without.stats().derivations
        );
        // Same model, equivalent lineages.
        assert_eq!(with.derived_facts(), without.derived_facts());
        for fact in without.derived_facts() {
            let a = without.lineage_of(fact).unwrap();
            let b = with.lineage_of(fact).unwrap();
            assert!(a.equivalent(&b));
        }
    }

    #[test]
    fn max_depth_caps_rounds() {
        let program = parse_program(
            "0.9 :: e(n0, n1). 0.9 :: e(n1, n2). 0.9 :: e(n2, n3). 0.9 :: e(n3, n4).
             p(X, Y) :- e(X, Y).
             p(X, Y) :- p(X, Z), e(Z, Y).",
        )
        .unwrap();
        let mut engine =
            LtgEngine::with_config(&program, EngineConfig::without_collapse().max_depth(2));
        engine.reason().unwrap();
        assert_eq!(engine.rounds(), 2);
        // Paths of length ≤ 2 only.
        let p = engine.program().preds.lookup("p", 2).unwrap();
        let n0 = engine.program().symbols.lookup("n0").unwrap();
        let n3 = engine.program().symbols.lookup("n3").unwrap();
        assert!(engine.db().store.lookup(p, &[n0, n3]).is_none());
    }

    #[test]
    fn answers_match_query_bindings() {
        let program = parse_program(&format!("{EXAMPLE1} query p(a, X).")).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let answers = engine.answer(&program.queries[0]).unwrap();
        // p(a,b) and p(a,c).
        assert_eq!(answers.len(), 2);
        let names: Vec<String> = answers
            .iter()
            .map(|(f, _)| {
                engine
                    .db()
                    .store
                    .display(*f, &engine.program().preds, &engine.program().symbols)
            })
            .collect();
        assert!(names.contains(&"p(a,b)".to_string()));
        assert!(names.contains(&"p(a,c)".to_string()));
    }

    #[test]
    fn edb_query_includes_fact_itself() {
        let program = parse_program("0.5 :: e(a, b). p(X,Y) :- e(X,Y).").unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let e = engine.program().preds.lookup("e", 2).unwrap();
        let a = engine.program().symbols.lookup("a").unwrap();
        let q = Atom::new(e, vec![Term::Const(a), Term::Var(ltg_datalog::Var(0))]);
        let answers = engine.answer(&q).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].1.len(), 1);
    }

    #[test]
    fn explain_ranks_explanations_by_probability() {
        let p = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&p);
        engine.reason().unwrap();
        let pid = engine.program().preds.lookup("p", 2).unwrap();
        let (a, b) = (
            engine.program().symbols.lookup("a").unwrap(),
            engine.program().symbols.lookup("b").unwrap(),
        );
        let fact = engine.db().store.lookup(pid, &[a, b]).unwrap();
        let exps = engine.explain(fact, 10).unwrap();
        // p(a,b): e(a,c)∧e(c,b) (0.56) beats e(a,b) (0.5).
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].0.len(), 2);
        assert!((exps[0].1 - 0.56).abs() < 1e-12);
        assert_eq!(exps[1].0.len(), 1);
        assert!((exps[1].1 - 0.5).abs() < 1e-12);
        // Truncation keeps the best.
        let top1 = engine.explain(fact, 1).unwrap();
        assert_eq!(top1.len(), 1);
        assert!((top1[0].1 - 0.56).abs() < 1e-12);
    }

    #[test]
    fn anytime_bounds_are_monotone() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::with_config(&program, EngineConfig::without_collapse());
        let solver = NaiveWmc::default();
        let mut last = 0.0f64;
        let mut probs = Vec::new();
        loop {
            let grew = engine.step().unwrap();
            // P(p(a,b)) after this round (0.0 while underivable).
            let program_ref = engine.program();
            let p = program_ref.preds.lookup("p", 2).unwrap();
            let a = program_ref.symbols.lookup("a").unwrap();
            let b = program_ref.symbols.lookup("b").unwrap();
            let prob = match engine.db().store.lookup(p, &[a, b]) {
                Some(f) => {
                    let d = engine.lineage_of(f).unwrap();
                    solver.probability(&d, &engine.db().weights()).unwrap()
                }
                None => 0.0,
            };
            assert!(
                prob >= last - 1e-12,
                "anytime bound decreased: {last} -> {prob}"
            );
            last = prob;
            probs.push(prob);
            if !grew {
                break;
            }
        }
        assert!((last - 0.78).abs() < 1e-12);
        // Round 1 bound is P(e(a,b)) = 0.5 — strictly below the fixpoint.
        assert!((probs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memory_budget_aborts() {
        // A program with quadratic blowup under a tiny byte budget.
        let mut src = String::new();
        for i in 0..30 {
            src.push_str(&format!("0.5 :: e(x{i}, y{i}).\n"));
            src.push_str(&format!("0.5 :: e(y{i}, x{}).\n", (i + 1) % 30));
        }
        src.push_str("p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).\n");
        let program = parse_program(&src).unwrap();
        let meter = ResourceMeter::with_limits(8_192, None);
        let mut engine =
            LtgEngine::with_config_and_meter(&program, EngineConfig::without_collapse(), meter);
        let err = engine.reason().unwrap_err();
        assert_eq!(err.tag(), "OOM");
    }

    #[test]
    fn timeout_aborts() {
        let mut src = String::new();
        for i in 0..40 {
            for j in 0..40 {
                src.push_str(&format!("0.5 :: e(x{i}, y{j}).\n"));
                src.push_str(&format!("0.5 :: e(y{j}, x{i}).\n"));
            }
        }
        src.push_str("p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).\n");
        let program = parse_program(&src).unwrap();
        let meter = ResourceMeter::with_limits(usize::MAX, Some(Duration::from_millis(1)));
        let mut engine =
            LtgEngine::with_config_and_meter(&program, EngineConfig::without_collapse(), meter);
        let err = engine.reason().unwrap_err();
        assert_eq!(err.tag(), "TO");
    }

    #[test]
    fn mixed_predicate_program_is_handled() {
        // p both has facts and is derived.
        let program = parse_program(
            "0.4 :: p(a, b). 0.6 :: e(b, c).
             p(X, Y) :- e(X, Y).
             p(X, Y) :- p(X, Z), p(Z, Y).",
        )
        .unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        // p(a,c) must be derivable from p(a,b) ∧ p(b,c).
        let d = lineage_str(&engine, "p", &["a", "c"]);
        assert!(!d.is_empty());
        let prob = NaiveWmc::default()
            .probability(&d, &engine.db().weights())
            .unwrap();
        assert!((prob - 0.4 * 0.6).abs() < 1e-12);
    }

    #[test]
    fn reason_is_idempotent() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let d1 = engine.stats().derivations;
        engine.reason().unwrap();
        assert_eq!(engine.stats().derivations, d1);
    }

    /// Probability of `pred(args...)` under `engine`, 0.0 if underivable.
    fn prob_of(engine: &LtgEngine, pred: &str, args: &[&str]) -> f64 {
        let program = engine.program();
        let Some(p) = program.preds.lookup(pred, args.len()) else {
            return 0.0;
        };
        let syms: Option<Vec<Sym>> = args.iter().map(|a| program.symbols.lookup(a)).collect();
        let Some(syms) = syms else { return 0.0 };
        let Some(f) = engine.db().store.lookup(p, &syms) else {
            return 0.0;
        };
        let mut d = engine.lineage_of(f).unwrap();
        d.minimize();
        NaiveWmc::default()
            .probability(&d, &engine.db().weights())
            .unwrap()
    }

    /// Inserts `prob :: pred(args...)` into a resident engine.
    fn insert(engine: &mut LtgEngine, pred: &str, args: &[&str], prob: f64) -> InsertOutcome {
        let p = engine.program().preds.lookup(pred, args.len()).unwrap();
        let syms: Vec<Sym> = args.iter().map(|a| engine.intern_symbol(a)).collect();
        let (_, outcome) = engine.insert_fact(p, &syms, prob).unwrap();
        outcome
    }

    #[test]
    fn delta_insert_matches_scratch_on_example1() {
        for config in [
            EngineConfig::with_collapse(),
            EngineConfig::without_collapse(),
        ] {
            // Resident engine: reason over the base program, then insert
            // two edges opening a new a→b path and re-reason.
            let program = parse_program(EXAMPLE1).unwrap();
            let mut resident = LtgEngine::with_config(&program, config.clone());
            resident.reason().unwrap();
            let before = prob_of(&resident, "p", &["a", "b"]);
            assert!((before - 0.78).abs() < 1e-12);

            assert_eq!(
                insert(&mut resident, "e", &["a", "d"], 0.9),
                InsertOutcome::Inserted
            );
            assert_eq!(
                insert(&mut resident, "e", &["d", "b"], 0.4),
                InsertOutcome::Inserted
            );
            assert_eq!(resident.pending_dirty(), 1);
            resident.reason_delta().unwrap();
            assert_eq!(resident.pending_dirty(), 0);
            assert_eq!(resident.stats().delta_passes, 1);

            // From-scratch engine over the grown EDB.
            let full =
                parse_program(&format!("{EXAMPLE1} 0.9 :: e(a, d). 0.4 :: e(d, b).")).unwrap();
            let mut scratch = LtgEngine::with_config(&full, config);
            scratch.reason().unwrap();

            for (x, y) in [("a", "b"), ("a", "c"), ("a", "d"), ("d", "b"), ("d", "c")] {
                let inc = prob_of(&resident, "p", &[x, y]);
                let fresh = prob_of(&scratch, "p", &[x, y]);
                assert!(
                    (inc - fresh).abs() < 1e-12,
                    "p({x},{y}): incremental {inc} vs scratch {fresh}"
                );
            }
        }
    }

    #[test]
    fn delta_insert_revives_dead_source_nodes() {
        // `s` starts empty: its source node dies in round 1 and must be
        // revived when the first s-fact arrives.
        let program = parse_program(
            "0.5 :: e(a, b).
             p(X, Y) :- e(X, Y).
             q(X, Y) :- s(X, Y).
             p(X, Y) :- q(X, Y).",
        )
        .unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        assert_eq!(prob_of(&engine, "q", &["a", "c"]), 0.0);

        insert(&mut engine, "s", &["a", "c"], 0.25);
        engine.reason_delta().unwrap();
        assert!((prob_of(&engine, "q", &["a", "c"]) - 0.25).abs() < 1e-12);
        assert!((prob_of(&engine, "p", &["a", "c"]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn delta_insert_from_empty_edb_matches_scratch() {
        // Start with rules only, insert the whole EDB one fact at a
        // time; lineages must be bitwise-identical to a scratch run
        // (fact ids align because insertion order equals program order).
        let rules = "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), p(Z, Y).";
        let edges = [
            ("a", "b", 0.5),
            ("b", "c", 0.6),
            ("a", "c", 0.7),
            ("c", "b", 0.8),
        ];
        let mut resident = LtgEngine::new(&parse_program(rules).unwrap());
        resident.reason().unwrap();
        for (x, y, pr) in edges {
            insert(&mut resident, "e", &[x, y], pr);
            resident.reason_delta().unwrap();
        }
        let scratch_src =
            format!("0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b). {rules}");
        let mut scratch = LtgEngine::new(&parse_program(&scratch_src).unwrap());
        scratch.reason().unwrap();
        for (x, y) in [("a", "b"), ("b", "b"), ("c", "c"), ("a", "c")] {
            let a = prob_of(&resident, "p", &[x, y]);
            let b = prob_of(&scratch, "p", &[x, y]);
            assert_eq!(a.to_bits(), b.to_bits(), "p({x},{y}): {a} vs {b}");
        }
    }

    #[test]
    fn delta_insert_routes_mixed_predicates_through_shadow() {
        let program = parse_program(
            "0.4 :: p(a, b). 0.6 :: e(b, c).
             p(X, Y) :- e(X, Y).
             p(X, Y) :- p(X, Z), p(Z, Y).",
        )
        .unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        // Insert a p-fact: it must land under p@edb and reach p via the
        // copy rule.
        insert(&mut engine, "p", &["c", "d"], 0.5);
        engine.reason_delta().unwrap();
        assert!((prob_of(&engine, "p", &["c", "d"]) - 0.5).abs() < 1e-12);
        // p(b,d) = p(b,c) ∧ p(c,d) = 0.6 * 0.5.
        assert!((prob_of(&engine, "p", &["b", "d"]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn insert_rejections() {
        let program = parse_program("0.5 :: e(a, b). q(X, Y) :- e(X, Y).").unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let q = engine.program().preds.lookup("q", 2).unwrap();
        let e = engine.program().preds.lookup("e", 2).unwrap();
        let a = engine.program().symbols.lookup("a").unwrap();
        // Intensional predicate.
        assert_eq!(
            engine.insert_fact(q, &[a, a], 0.5),
            Err(InsertError::Intensional(q))
        );
        // Arity mismatch.
        assert_eq!(
            engine.insert_fact(e, &[a], 0.5),
            Err(InsertError::Arity {
                expected: 2,
                got: 1
            })
        );
        // Probability out of range.
        assert_eq!(
            engine.insert_fact(e, &[a, a], 1.5),
            Err(InsertError::Probability(1.5))
        );
        // Conflicting duplicate: reported, nothing marked dirty.
        let b = engine.program().symbols.lookup("b").unwrap();
        let (f, outcome) = engine.insert_fact(e, &[a, b], 0.9).unwrap();
        assert_eq!(outcome, InsertOutcome::Conflict { existing: 0.5 });
        assert_eq!(engine.pending_dirty(), 0);
        // update_prob resolves it without re-reasoning.
        assert_eq!(engine.update_prob(f, 0.9).unwrap(), Some(0.5));
        assert!((prob_of(&engine, "q", &["a", "b"]) - 0.9).abs() < 1e-12);
    }

    /// Retracts `pred(args...)` from a resident engine.
    fn retract(engine: &mut LtgEngine, pred: &str, args: &[&str]) -> DeleteOutcome {
        let p = engine.program().preds.lookup(pred, args.len()).unwrap();
        let syms: Vec<Sym> = args.iter().map(|a| engine.intern_symbol(a)).collect();
        let (_, outcome) = engine.retract_fact(p, &syms).unwrap();
        outcome
    }

    #[test]
    fn retraction_matches_scratch_on_example1() {
        for config in [
            EngineConfig::with_collapse(),
            EngineConfig::without_collapse(),
        ] {
            let program = parse_program(EXAMPLE1).unwrap();
            let mut resident = LtgEngine::with_config(&program, config.clone());
            resident.reason().unwrap();
            assert!((prob_of(&resident, "p", &["a", "b"]) - 0.78).abs() < 1e-12);

            // Delete the direct edge: only the two-hop path remains.
            assert_eq!(
                retract(&mut resident, "e", &["a", "b"]),
                DeleteOutcome::Deleted { prob: 0.5 }
            );
            assert_eq!(resident.pending_retractions(), 1);
            resident.reason_retract().unwrap();
            assert_eq!(resident.pending_retractions(), 0);
            assert_eq!(resident.stats().retract_passes, 1);
            assert!(resident.stats().retracted_trees > 0);

            let scratch_src = "0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b).
                 p(X, Y) :- e(X, Y).
                 p(X, Y) :- p(X, Z), p(Z, Y).";
            let mut scratch = LtgEngine::with_config(&parse_program(scratch_src).unwrap(), config);
            scratch.reason().unwrap();
            for (x, y) in [("a", "b"), ("a", "c"), ("b", "b"), ("c", "c"), ("b", "c")] {
                let inc = prob_of(&resident, "p", &[x, y]);
                let fresh = prob_of(&scratch, "p", &[x, y]);
                assert!(
                    (inc - fresh).abs() < 1e-12,
                    "p({x},{y}): retracted {inc} vs scratch {fresh}"
                );
            }
        }
    }

    #[test]
    fn retracting_the_last_support_removes_the_derived_fact() {
        let program = parse_program("0.5 :: e(a, b). p(X, Y) :- e(X, Y).").unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        assert!((prob_of(&engine, "p", &["a", "b"]) - 0.5).abs() < 1e-12);
        retract(&mut engine, "e", &["a", "b"]);
        engine.reason_retract().unwrap();
        // Derived fact gone from the query surface; node killed.
        assert_eq!(prob_of(&engine, "p", &["a", "b"]), 0.0);
        assert!(engine.derived_facts().is_empty());
        assert_eq!(engine.graph().alive_count(), 0);
        // The e-fact itself no longer answers queries.
        let e = engine.program().preds.lookup("e", 2).unwrap();
        assert!(engine.db().edb_facts(e).is_empty());
    }

    #[test]
    fn delete_then_reinsert_restores_the_exact_state() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let before: Vec<(FactId, f64)> = engine
            .derived_facts()
            .iter()
            .map(|&f| {
                let mut d = engine.lineage_of(f).unwrap();
                d.minimize();
                (
                    f,
                    NaiveWmc::default()
                        .probability(&d, &engine.db().weights())
                        .unwrap(),
                )
            })
            .collect();

        retract(&mut engine, "e", &["a", "b"]);
        engine.reason_retract().unwrap();
        assert_eq!(
            insert(&mut engine, "e", &["a", "b"], 0.5),
            InsertOutcome::Inserted
        );
        engine.reason_delta().unwrap();

        let after: Vec<(FactId, f64)> = engine
            .derived_facts()
            .iter()
            .map(|&f| {
                let mut d = engine.lineage_of(f).unwrap();
                d.minimize();
                (
                    f,
                    NaiveWmc::default()
                        .probability(&d, &engine.db().weights())
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(before, after, "delete + re-insert must round-trip");
    }

    #[test]
    fn retract_rejections_and_missing_deletes() {
        let program = parse_program("0.5 :: e(a, b). q(X, Y) :- e(X, Y).").unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let q = engine.program().preds.lookup("q", 2).unwrap();
        let e = engine.program().preds.lookup("e", 2).unwrap();
        let a = engine.program().symbols.lookup("a").unwrap();
        // Intensional predicate and arity mismatch rejected like inserts.
        assert_eq!(
            engine.retract_fact(q, &[a, a]),
            Err(InsertError::Intensional(q))
        );
        assert_eq!(
            engine.retract_fact(e, &[a]),
            Err(InsertError::Arity {
                expected: 2,
                got: 1
            })
        );
        // Missing fact: reported, nothing queued.
        assert_eq!(
            engine.retract_fact(e, &[a, a]),
            Ok((None, DeleteOutcome::Missing))
        );
        assert_eq!(engine.pending_retractions(), 0);
        // A retract pass with nothing pending is a no-op.
        let derivations = engine.stats().derivations;
        engine.reason_retract().unwrap();
        assert_eq!(engine.stats().retract_passes, 0);
        assert_eq!(engine.stats().derivations, derivations);
    }

    #[test]
    fn retraction_before_any_reasoning_just_reasons() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        // Delete before the first reasoning pass: the batch joins simply
        // never see the fact.
        retract(&mut engine, "e", &["a", "b"]);
        engine.reason_retract().unwrap();
        assert_eq!(engine.pending_retractions(), 0);
        assert!(engine.finished());
        assert!((prob_of(&engine, "p", &["a", "b"]) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn failed_retract_pass_retries_the_rederivation() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        retract(&mut engine, "e", &["a", "b"]);
        *engine.meter_mut() = ResourceMeter::with_limits(usize::MAX, Some(Duration::ZERO));
        assert!(engine.reason_retract().is_err());
        // A retry under a fresh deadline completes the pass.
        *engine.meter_mut() = ResourceMeter::with_limits(usize::MAX, None);
        engine.reason_retract().unwrap();
        assert_eq!(engine.pending_retractions(), 0);
        assert!((prob_of(&engine, "p", &["a", "b"]) - 0.56).abs() < 1e-12);
    }

    #[test]
    fn failed_delta_pass_keeps_predicates_dirty_for_retry() {
        let program = parse_program(EXAMPLE1).unwrap();
        let meter = ResourceMeter::with_limits(usize::MAX, Some(Duration::from_secs(30)));
        let mut engine = LtgEngine::with_config_and_meter(&program, EngineConfig::default(), meter);
        engine.reason().unwrap();
        insert(&mut engine, "e", &["a", "d"], 0.9);
        // Force the deadline to be exceeded mid-pass.
        *engine.meter_mut() = ResourceMeter::with_limits(usize::MAX, Some(Duration::ZERO));
        assert!(engine.reason_delta().is_err());
        assert_eq!(engine.pending_dirty(), 1, "aborted pass must stay dirty");
        // A retry under a fresh deadline completes the propagation.
        *engine.meter_mut() = ResourceMeter::with_limits(usize::MAX, None);
        engine.reason_delta().unwrap();
        assert_eq!(engine.pending_dirty(), 0);
        assert!((prob_of(&engine, "p", &["a", "d"]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn delta_pass_without_inserts_is_a_noop() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let derivations = engine.stats().derivations;
        engine.reason_delta().unwrap();
        assert_eq!(engine.stats().derivations, derivations);
        assert_eq!(engine.stats().delta_passes, 0);
    }

    #[test]
    fn derivation_count_for_example1() {
        // Figure 1a shows τ1–τ11 but is explicitly partial ("does not
        // show formulas for all rule instantiations"): the full set also
        // contains p(c,c) = e(c,b)∧e(b,c) at round 2 and the twelve
        // (all-redundant) round-3 instantiations, for 4 + 4 + 12 = 20
        // candidate trees.
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::with_config(&program, EngineConfig::without_collapse());
        engine.reason().unwrap();
        assert_eq!(engine.stats().derivations, 20);
        // Derived p-facts: the 4 edges plus p(b,b) and p(c,c).
        assert_eq!(engine.derived_facts().len(), 6);
    }

    /// Full state equality probe: every lineage of every derived fact,
    /// bit-for-bit, plus the arena sizes the id spaces depend on.
    fn assert_engines_agree(a: &LtgEngine, b: &LtgEngine) {
        assert_eq!(a.derived_facts(), b.derived_facts());
        // Forest *lengths* may differ (export compacts garbage trees);
        // everything observable below must not.
        assert_eq!(a.graph().nodes.len(), b.graph().nodes.len());
        assert_eq!(a.db().store.len(), b.db().store.len());
        assert_eq!(a.db().epoch(), b.db().epoch());
        let (wa, wb) = (a.db().weights(), b.db().weights());
        assert_eq!(wa.len(), wb.len());
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for fact in a.derived_facts() {
            let da = a.lineage_of(fact).unwrap();
            let db = b.lineage_of(fact).unwrap();
            let pa = NaiveWmc::default().probability(&da, &wa).unwrap();
            let pb = NaiveWmc::default().probability(&db, &wb).unwrap();
            assert_eq!(pa.to_bits(), pb.to_bits(), "fact {fact:?}");
        }
    }

    #[test]
    fn state_roundtrip_is_bit_identical_and_stays_incremental() {
        for config in [
            EngineConfig::with_collapse(),
            EngineConfig::without_collapse(),
            EngineConfig {
                collapse_threshold: 1,
                ..EngineConfig::default()
            },
        ] {
            let program = parse_program(EXAMPLE1).unwrap();
            let mut engine = LtgEngine::with_config(&program, config.clone());
            engine.reason().unwrap();
            // Mutate so the state carries runtime symbols, revived ids
            // and non-zero epochs.
            let e = engine.program().preds.lookup("e", 2).unwrap();
            let (a, d) = (engine.intern_symbol("a"), engine.intern_symbol("d"));
            engine.insert_fact(e, &[a, d], 0.9).unwrap();
            engine.reason_delta().unwrap();
            let b = engine.intern_symbol("b");
            engine.retract_fact(e, &[a, b]).unwrap();
            engine.reason_retract().unwrap();

            let state = engine.export_state().unwrap();
            let mut restored = LtgEngine::restore(&program, config.clone(), state).unwrap();
            assert_eq!(restored.rounds(), engine.rounds());
            assert!(restored.finished());
            assert_engines_agree(&engine, &restored);

            // Post-restore mutations must evolve both engines in
            // lockstep (same TreeIds, same tset orders → same lineage).
            for eng in [&mut engine, &mut restored] {
                let e = eng.program().preds.lookup("e", 2).unwrap();
                let (a, b, z) = (
                    eng.intern_symbol("a"),
                    eng.intern_symbol("b"),
                    eng.intern_symbol("zz"),
                );
                eng.insert_fact(e, &[a, b], 0.5).unwrap();
                eng.reason_delta().unwrap();
                eng.insert_fact(e, &[b, z], 0.25).unwrap();
                eng.reason_delta().unwrap();
                eng.retract_fact(e, &[a, b]).unwrap();
                eng.reason_retract().unwrap();
            }
            assert_engines_agree(&engine, &restored);
        }
    }

    #[test]
    fn export_refuses_pending_mutations() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let e = engine.program().preds.lookup("e", 2).unwrap();
        let (a, d) = (engine.intern_symbol("a"), engine.intern_symbol("d"));
        engine.insert_fact(e, &[a, d], 0.9).unwrap();
        assert!(matches!(
            engine.export_state(),
            Err(crate::state::ExportError::PendingMutations)
        ));
        engine.reason_delta().unwrap();
        assert!(engine.export_state().is_ok());
    }

    #[test]
    fn restore_refuses_mismatched_program_config_and_corruption() {
        let program = parse_program(EXAMPLE1).unwrap();
        let mut engine = LtgEngine::new(&program);
        engine.reason().unwrap();
        let state = engine.export_state().unwrap();

        let other = parse_program("0.5 :: e(a, b). p(X, Y) :- e(Y, X).").unwrap();
        assert!(matches!(
            LtgEngine::restore(&other, EngineConfig::default(), state.clone()),
            Err(RestoreError::Fingerprint { .. })
        ));
        assert!(matches!(
            LtgEngine::restore(&program, EngineConfig::without_collapse(), state.clone()),
            Err(RestoreError::Config)
        ));

        let mut bad_symbols = state.clone();
        bad_symbols.symbols[0] = "not_the_first_symbol".into();
        assert!(matches!(
            LtgEngine::restore(&program, EngineConfig::default(), bad_symbols),
            Err(RestoreError::Symbols)
        ));

        let mut bad_tree = state.clone();
        if let Some((_, trees)) = bad_tree.nodes[0].tset.first_mut() {
            trees.push(ltg_lineage::TreeId(u32::MAX));
        }
        assert!(matches!(
            LtgEngine::restore(&program, EngineConfig::default(), bad_tree),
            Err(RestoreError::Invalid(_))
        ));

        let mut bad_parent = state;
        bad_parent.nodes[0].parents = vec![NodeId(7)];
        assert!(matches!(
            LtgEngine::restore(&program, EngineConfig::default(), bad_parent),
            Err(RestoreError::Invalid(_))
        ));
    }
}
