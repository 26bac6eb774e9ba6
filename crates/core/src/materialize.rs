//! Non-probabilistic trigger-graph materialization — the [77] substrate.
//!
//! LTGs build on the trigger graphs of Tsamoura et al. [77], an engine
//! for *non-probabilistic* Datalog materialization: the same execution
//! graph is grown incrementally, but nodes store plain fact sets and a
//! derivation is redundant as soon as its fact was derived before
//! (Section 4: "In a non-probabilistic setting, a fact is redundant if
//! it has been previously derived"). This module reproduces that
//! engine:
//!
//! * it computes the least Herbrand model of `(R, F)` (probabilities
//!   are ignored);
//! * nodes whose instantiation yields no globally-new fact are removed,
//!   so the graph stays a *trigger graph* in the sense of [77];
//! * it is the comparison point for the "TG-based reasoning outperforms
//!   the chase / SNE" claim the paper inherits from [77]
//!   (`benches/reasoning.rs` pits it against
//!   `ltg_baselines::seminaive`).
//!
//! The probabilistic engine ([`crate::LtgEngine`]) differs exactly where
//! the paper says it must: tree storage instead of fact storage and the
//! per-tree redundancy criterion of Proposition 1.

use crate::eg::{ExecutionGraph, NodeId};
use crate::error::EngineError;
use crate::join::{binding_masks, join, tuple_matcher};
use ltg_datalog::fxhash::FxHashSet;
use ltg_datalog::{canonicalize, Atom, CanonicalProgram, Program};
use ltg_storage::{Database, FactId, Relation, ResourceMeter};
use std::time::{Duration, Instant};

/// Counters of one materialization run.
#[derive(Clone, Debug, Default)]
pub struct TgStats {
    /// Completed rounds (including the final empty one).
    pub rounds: u32,
    /// Rule instantiations computed.
    pub derivations: u64,
    /// Execution-graph nodes created.
    pub nodes_created: u64,
    /// Nodes alive at the end.
    pub nodes_alive: u64,
    /// Wall-clock reasoning time.
    pub time: Duration,
}

/// Non-probabilistic trigger-graph materializer.
pub struct TgMaterializer {
    canonical: CanonicalProgram,
    db: Database,
    graph: ExecutionGraph,
    /// Every fact derived so far (IDB only).
    derived: FxHashSet<FactId>,
    meter: ResourceMeter,
    stats: TgStats,
    finished: bool,
    round: u32,
    max_depth: Option<u32>,
}

impl TgMaterializer {
    /// Materializer over `program` without resource limits.
    pub fn new(program: &Program) -> Self {
        Self::with_meter(program, ResourceMeter::unlimited())
    }

    /// Materializer with a resource meter (budget / deadline).
    pub fn with_meter(program: &Program, meter: ResourceMeter) -> Self {
        let canonical = canonicalize(program);
        let db = Database::from_program(&canonical.program);
        TgMaterializer {
            canonical,
            db,
            graph: ExecutionGraph::new(),
            derived: FxHashSet::default(),
            meter,
            stats: TgStats::default(),
            finished: false,
            round: 0,
            max_depth: None,
        }
    }

    /// Caps the reasoning depth (`None` = run to fixpoint).
    pub fn with_max_depth(mut self, depth: Option<u32>) -> Self {
        self.max_depth = depth;
        self
    }

    /// The underlying database (facts interned during the run included).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The trigger graph built by the run.
    pub fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    /// Statistics of the run so far.
    pub fn stats(&self) -> &TgStats {
        &self.stats
    }

    /// The derived (intensional) part of the least Herbrand model.
    pub fn derived(&self) -> &FxHashSet<FactId> {
        &self.derived
    }

    /// Facts of the least Herbrand model: extensional facts first, then
    /// the derived ones in fact-id order (deterministic).
    pub fn model(&self) -> Vec<FactId> {
        let mut out: Vec<FactId> = (0..self.db.store.len() as u32)
            .map(FactId)
            .filter(|f| self.db.is_edb_fact(*f) || self.derived.contains(f))
            .collect();
        out.sort_unstable();
        out
    }

    /// Runs materialization to fixpoint (or depth cap). Idempotent.
    pub fn run(&mut self) -> Result<&TgStats, EngineError> {
        while self.step()? {}
        Ok(&self.stats)
    }

    /// Executes one round; returns whether the graph grew.
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
        if !grew || self.max_depth.is_some_and(|d| k >= d) {
            self.finished = true;
            self.stats.nodes_alive = self.graph.alive_count() as u64;
        }
        self.stats.time += t0.elapsed();
        self.meter.check()?;
        Ok(!self.finished)
    }

    fn expand_base(&mut self) -> Result<bool, EngineError> {
        let mut grew = false;
        let base = self.canonical.base_rules.clone();
        for rid in base {
            let node = self.graph.push_node(rid, Box::from([]), 1);
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
            let node = self.graph.push_node(rid, parents, k);
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

    /// Executes the rule of `node`; stores only globally-new facts (the
    /// non-probabilistic redundancy criterion of [77]). Returns whether
    /// any fact survived.
    fn instantiate(&mut self, node: NodeId) -> Result<bool, EngineError> {
        let rid = self.graph.nodes[node.index()].rule;
        let parents = self.graph.nodes[node.index()].parents.clone();
        let rule = self.canonical.program.rules[rid.index()].clone();
        let is_source = parents.is_empty();
        let masks = binding_masks(&rule);

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
        let mut rows = Vec::new();
        join(&rule, &masks, &rels, &self.db.store, &self.meter, &mut rows)?;
        self.stats.derivations += rows.len() as u64;

        let head_pred = rule.head.pred;
        let mut survived = false;
        for row in rows {
            let (fact, _) = self.db.intern_derived(head_pred, &row.head_args);
            if self.derived.insert(fact) {
                self.graph.nodes[node.index()].store.push(fact);
                self.meter.charge(16);
                survived = true;
            }
        }
        Ok(survived)
    }

    /// All model facts matching `query` (constants must match, variables
    /// bind anything, repeated variables bind consistently), in id order.
    pub fn answer_facts(&self, query: &Atom) -> Vec<FactId> {
        let mut matches = tuple_matcher(query);
        self.model()
            .into_iter()
            .filter(|&f| self.db.store.pred(f) == query.pred && matches(self.db.store.args(f)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltg_datalog::parse_program;

    const EXAMPLE1: &str = "0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).";

    #[test]
    fn reachability_model() {
        let p = parse_program(EXAMPLE1).unwrap();
        let mut m = TgMaterializer::new(&p);
        m.run().unwrap();
        // p-facts reachable on {a→b, b→c, a→c, c→b}:
        // from a: b, c; from b: c, b; from c: b, c — 6 pairs.
        let p_pred = p.preds.lookup("p", 2).unwrap();
        let count = m
            .derived()
            .iter()
            .filter(|&&f| m.db().store.pred(f) == p_pred)
            .count();
        assert_eq!(count, 6);
    }

    #[test]
    fn matches_fixpoint_on_linear_chain() {
        let src = "e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4).
             t(X, Y) :- e(X, Y).
             t(X, Y) :- e(X, Z), t(Z, Y).";
        let p = parse_program(src).unwrap();
        let mut m = TgMaterializer::new(&p);
        m.run().unwrap();
        let t = p.preds.lookup("t", 2).unwrap();
        let n = m
            .derived()
            .iter()
            .filter(|&&f| m.db().store.pred(f) == t)
            .count();
        // 4+3+2+1 transitive pairs.
        assert_eq!(n, 10);
        assert!(m.stats().rounds >= 4);
    }

    #[test]
    fn depth_cap_truncates() {
        let src = "e(n0, n1). e(n1, n2). e(n2, n3). e(n3, n4).
             t(X, Y) :- e(X, Y).
             t(X, Y) :- e(X, Z), t(Z, Y).";
        let p = parse_program(src).unwrap();
        let mut m = TgMaterializer::new(&p).with_max_depth(Some(2));
        m.run().unwrap();
        let t = p.preds.lookup("t", 2).unwrap();
        let n = m
            .derived()
            .iter()
            .filter(|&&f| m.db().store.pred(f) == t)
            .count();
        assert!(n < 10, "depth cap must drop the long paths, got {n}");
    }

    #[test]
    fn no_rules_means_empty_derivation() {
        let p = parse_program("0.5 :: e(a, b).").unwrap();
        let mut m = TgMaterializer::new(&p);
        m.run().unwrap();
        assert!(m.derived().is_empty());
        assert_eq!(m.model().len(), 1); // the EDB fact remains
    }

    #[test]
    fn answer_facts_filters_constants_and_repeated_vars() {
        let p = parse_program(
            "e(a, b). e(b, b).
             p(X, Y) :- e(X, Y).
             query p(a, X).",
        )
        .unwrap();
        let mut m = TgMaterializer::new(&p);
        m.run().unwrap();
        assert_eq!(m.answer_facts(&p.queries[0]).len(), 1);
        // p(X, X) matches only the self-loop.
        let q = {
            let mut q = p.queries[0].clone();
            q.terms = vec![
                ltg_datalog::Term::Var(ltg_datalog::Var(0)),
                ltg_datalog::Term::Var(ltg_datalog::Var(0)),
            ];
            q
        };
        assert_eq!(m.answer_facts(&q).len(), 1);
    }

    #[test]
    fn timeout_propagates() {
        let src = "e(n0, n1). e(n1, n2).
             t(X, Y) :- e(X, Y).
             t(X, Y) :- e(X, Z), t(Z, Y).";
        let p = parse_program(src).unwrap();
        let meter = ResourceMeter::with_limits(usize::MAX, Some(Duration::from_nanos(1)));
        let mut m = TgMaterializer::with_meter(&p, meter);
        assert!(m.run().is_err());
    }

    #[test]
    fn idempotent_run() {
        let p = parse_program(EXAMPLE1).unwrap();
        let mut m = TgMaterializer::new(&p);
        m.run().unwrap();
        let before = m.derived().len();
        m.run().unwrap();
        assert_eq!(m.derived().len(), before);
    }
}
