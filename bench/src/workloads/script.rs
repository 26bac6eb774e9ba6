//! The benchmark's own script generator.
//!
//! `benchdata::wire::scripts` only ever inserts disconnected fresh
//! constants and emits wall-clock `DEADLINE` queries, so its scripts
//! never reach a deep mutation and their answers cannot be replayed.
//! The generators here hand out [`Op`]s a block at a time, each from an
//! isolated `StdRng`: Zipf-ranked query pools, matched deep/local
//! insert–delete pairs, `EPSILON`-only approximate queries. Every op
//! carries what the verifier needs to predict its response.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;

/// Request classes, as latencies are bucketed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verb {
    Query,
    Approx,
    Insert,
    Delete,
    Update,
}

impl Verb {
    pub const ALL: [Verb; 5] = [
        Verb::Query,
        Verb::Approx,
        Verb::Insert,
        Verb::Delete,
        Verb::Update,
    ];

    /// `INSERT` or `DELETE` — the verbs that run an engine pass.
    pub fn reasons(self) -> bool {
        matches!(self, Verb::Insert | Verb::Delete)
    }
}

/// One scripted request.
#[derive(Clone, Debug)]
pub struct Op {
    pub verb: Verb,
    /// The wire line, without the newline.
    pub line: String,
    /// Pool index (queries) or [`Edb`] fact index (mutations).
    pub target: usize,
    /// The weight an `INSERT`/`UPDATE` sets.
    pub prob: f64,
    /// A mutation of a sink edge: its pass walks the whole cone.
    pub deep: bool,
}

/// One query of a pool: wire text such as `p(n0_1,V0)`.
#[derive(Clone, Debug)]
pub struct PoolQuery {
    pub text: String,
    pub class: &'static str,
}

/// A probability as the wire carries it: six decimals, never zero.
pub fn wire_prob(rng: &mut StdRng) -> f64 {
    let p = ltg_benchdata::scenario::random_prob(rng).max(1e-6);
    format!("{p:.6}").parse().expect("formatted float")
}

/// An isolated generator stream: the same `(seed, tag)` gives the same
/// stream whatever other generators exist.
pub fn stream(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle on the given stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// The bench's own copy of the extensional database: what the server
/// must hold after every acknowledged mutation. Final-state checks
/// render it and reason over it from scratch.
#[derive(Clone, Debug, Default)]
pub struct Edb {
    pub facts: Vec<EdbFact>,
    index: HashMap<String, usize>,
}

#[derive(Clone, Debug)]
pub struct EdbFact {
    /// Ground atom text, e.g. `e(n0_1,n1_2)`.
    pub atom: String,
    pub prob: f64,
    pub live: bool,
    pub class: &'static str,
}

impl Edb {
    /// Registers a fact slot and returns its index.
    pub fn add(&mut self, atom: String, prob: f64, live: bool, class: &'static str) -> usize {
        let i = self.facts.len();
        self.index.insert(atom.clone(), i);
        self.facts.push(EdbFact {
            atom,
            prob,
            live,
            class,
        });
        i
    }

    pub fn lookup(&self, atom: &str) -> Option<usize> {
        self.index.get(atom).copied()
    }

    /// Applies an acknowledged mutation.
    pub fn apply(&mut self, op: &Op) {
        let f = &mut self.facts[op.target];
        match op.verb {
            Verb::Insert => {
                f.live = true;
                f.prob = op.prob;
            }
            Verb::Delete => f.live = false,
            Verb::Update => f.prob = op.prob,
            Verb::Query | Verb::Approx => {}
        }
    }

    /// The live facts as program text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in self.facts.iter().filter(|f| f.live) {
            out.push_str(&format!("{} :: {}.\n", f.prob, f.atom));
        }
        out
    }

    #[cfg(test)]
    pub fn live(&self) -> usize {
        self.facts.iter().filter(|f| f.live).count()
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Ops per block. Scripts are made of whole blocks, each holding the
/// workload's exact verb mix in a seeded order, so any run of whole
/// blocks has the same composition: how many expensive ops a timed
/// window holds is not left to chance.
pub const BLOCK: usize = 100;

/// A seeded, endless script, handed out one block at a time.
pub trait Script {
    fn block(&mut self) -> Vec<Op>;

    fn blocks(&mut self, n: usize) -> Vec<Op> {
        (0..n).flat_map(|_| self.block()).collect()
    }
}

fn update_op(targets: &[(usize, String)], rng: &mut StdRng) -> Op {
    let (target, atom) = &targets[rng.random_range(0..targets.len())];
    let prob = wire_prob(rng);
    Op {
        verb: Verb::Update,
        line: format!("UPDATE {prob:.6} :: {atom}."),
        target: *target,
        prob,
        deep: false,
    }
}

/// The read-mostly script of `serve_query`: per block 80 exact `QUERY`
/// drawn Zipf(1.0) from the pool, 10 of the same draw with
/// `EPSILON 0.05`, 10 `UPDATE` of a live fact's weight (lineage stays,
/// the cache entries that read the predicate go).
pub struct QueryScript {
    rng: StdRng,
    zipf: Zipf,
    pool: Vec<String>,
    update_targets: Vec<(usize, String)>,
}

impl QueryScript {
    pub fn new(seed: u64, pool: &[PoolQuery], edb: &Edb, update_class: &str) -> Self {
        let update_targets = edb
            .facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.class == update_class)
            .map(|(i, f)| (i, f.atom.clone()))
            .collect();
        QueryScript {
            rng: stream(seed, 0x51),
            zipf: Zipf::new(pool.len(), 1.0),
            pool: pool.iter().map(|q| q.text.clone()).collect(),
            update_targets,
        }
    }
}

impl Script for QueryScript {
    fn block(&mut self) -> Vec<Op> {
        let mut kinds = [Verb::Query; BLOCK];
        kinds[80..90].fill(Verb::Approx);
        kinds[90..].fill(Verb::Update);
        shuffle(&mut kinds, &mut self.rng);
        kinds
            .iter()
            .map(|&verb| {
                if verb == Verb::Update {
                    return update_op(&self.update_targets, &mut self.rng);
                }
                let target = self.zipf.sample(&mut self.rng);
                let suffix = if verb == Verb::Approx {
                    " EPSILON 0.05"
                } else {
                    ""
                };
                Op {
                    verb,
                    line: format!("QUERY {}.{suffix}", self.pool[target]),
                    target,
                    prob: 0.0,
                    deep: false,
                }
            })
            .collect()
    }
}

/// The write-mostly script of `serve_churn` and `durable_restart`: per
/// block 40 `INSERT` and 40 `DELETE` in matched pairs over a fixed set
/// of edge slots (every pair opens and closes inside its block), 15
/// `UPDATE` of a world edge, 5 `QUERY`. `deep_pairs` of the 40 pairs
/// use a sink edge out of the last layer (whole-cone delta, DRed
/// retraction, compaction); the rest are disconnected edges.
pub struct ChurnScript {
    rng: StdRng,
    pool: Vec<String>,
    /// `(fact index, atom)` of the slots.
    local: Vec<(usize, String)>,
    deep: Vec<(usize, String)>,
    update_targets: Vec<(usize, String)>,
    deep_pairs: usize,
}

impl ChurnScript {
    pub fn new(seed: u64, pool: &[PoolQuery], edb: &Edb, deep_pairs: usize) -> Self {
        let slots = |class: &str| -> Vec<(usize, String)> {
            edb.facts
                .iter()
                .enumerate()
                .filter(|(_, f)| f.class == class)
                .map(|(i, f)| (i, f.atom.clone()))
                .collect()
        };
        let script = ChurnScript {
            rng: stream(seed, 0xC4),
            pool: pool.iter().map(|q| q.text.clone()).collect(),
            local: slots("local"),
            deep: slots("deep"),
            update_targets: slots("world"),
            deep_pairs,
        };
        assert!(script.deep.len() >= deep_pairs && !script.local.is_empty());
        script
    }
}

impl Script for ChurnScript {
    fn block(&mut self) -> Vec<Op> {
        const PAIRS: usize = 40;
        let mut kinds = [Verb::Insert; BLOCK]; // Insert stands for "a pair step"
        kinds[2 * PAIRS..2 * PAIRS + 15].fill(Verb::Update);
        kinds[2 * PAIRS + 15..].fill(Verb::Query);
        shuffle(&mut kinds, &mut self.rng);
        // Which of the block's 40 inserts are deep.
        let mut ordinals: Vec<usize> = (0..PAIRS).collect();
        shuffle(&mut ordinals, &mut self.rng);
        let deep_ordinals = &ordinals[..self.deep_pairs];

        // Slots currently in: (deep, slot).
        let mut live: Vec<(bool, usize)> = Vec::new();
        let (mut inserts, mut steps_left) = (0, 2 * PAIRS);
        let mut out = Vec::with_capacity(BLOCK);
        for verb in kinds {
            out.push(match verb {
                Verb::Update => update_op(&self.update_targets, &mut self.rng),
                Verb::Query => {
                    let target = self.rng.random_range(0..self.pool.len());
                    Op {
                        verb,
                        line: format!("QUERY {}.", self.pool[target]),
                        target,
                        prob: 0.0,
                        deep: false,
                    }
                }
                _ => {
                    // A walk that starts and ends the block with every
                    // slot out: forced down when only closing steps
                    // remain or the slots are full, forced up when
                    // nothing is in, a coin flip otherwise.
                    let insert = if live.len() == steps_left || live.len() == self.local.len() {
                        false
                    } else {
                        live.is_empty() || self.rng.random_range(0..2u32) == 0
                    };
                    steps_left -= 1;
                    if insert {
                        let deep = deep_ordinals.contains(&inserts);
                        inserts += 1;
                        let slots = if deep { &self.deep } else { &self.local };
                        let free: Vec<usize> = (0..slots.len())
                            .filter(|&k| !live.contains(&(deep, k)))
                            .collect();
                        let k = free[self.rng.random_range(0..free.len())];
                        live.push((deep, k));
                        let prob = wire_prob(&mut self.rng);
                        Op {
                            verb: Verb::Insert,
                            line: format!("INSERT {prob:.6} :: {}.", slots[k].1),
                            target: slots[k].0,
                            prob,
                            deep,
                        }
                    } else {
                        let (deep, k) = live.swap_remove(self.rng.random_range(0..live.len()));
                        let slots = if deep { &self.deep } else { &self.local };
                        Op {
                            verb: Verb::Delete,
                            line: format!("DELETE {}.", slots[k].1),
                            target: slots[k].0,
                            prob: 0.0,
                            deep,
                        }
                    }
                }
            });
        }
        debug_assert!(live.is_empty() && inserts == PAIRS);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_edb() -> Edb {
        let mut edb = Edb::default();
        edb.add("e(a,b)".into(), 0.5, true, "world");
        edb.add("e(x0,y0)".into(), 0.0, false, "local");
        edb.add("e(x1,y1)".into(), 0.0, false, "local");
        edb.add("e(b,s0)".into(), 0.0, false, "deep");
        edb
    }

    fn pool() -> Vec<PoolQuery> {
        vec![PoolQuery {
            text: "p(a,b)".into(),
            class: "near",
        }]
    }

    #[test]
    fn same_seed_same_script() {
        let edb = tiny_edb();
        let lines = |seed| -> Vec<String> {
            ChurnScript::new(seed, &pool(), &edb, 1)
                .blocks(2)
                .into_iter()
                .map(|op| op.line)
                .collect()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn churn_blocks_hold_the_exact_mix_in_matched_pairs() {
        let mut edb = tiny_edb();
        let mut script = ChurnScript::new(3, &pool(), &edb.clone(), 1);
        for _ in 0..20 {
            let block = script.block();
            assert_eq!(block.len(), BLOCK);
            let count = |v: Verb| block.iter().filter(|op| op.verb == v).count();
            assert_eq!(
                (
                    count(Verb::Insert),
                    count(Verb::Delete),
                    count(Verb::Update),
                    count(Verb::Query)
                ),
                (40, 40, 15, 5)
            );
            assert_eq!(block.iter().filter(|op| op.deep).count(), 2);
            for op in &block {
                match op.verb {
                    Verb::Insert => assert!(!edb.facts[op.target].live, "{}", op.line),
                    Verb::Delete | Verb::Update => {
                        assert!(edb.facts[op.target].live, "{}", op.line)
                    }
                    Verb::Query | Verb::Approx => {}
                }
                edb.apply(op);
            }
            // Every pair closes inside its block.
            assert_eq!(edb.live(), 1);
        }
    }

    #[test]
    fn approximate_queries_never_carry_a_deadline() {
        let edb = tiny_edb();
        let ops = QueryScript::new(1, &pool(), &edb, "world").blocks(5);
        assert_eq!(ops.iter().filter(|op| op.verb == Verb::Approx).count(), 50);
        assert_eq!(ops.iter().filter(|op| op.verb == Verb::Update).count(), 50);
        assert!(ops.iter().all(|op| !op.line.contains("DEADLINE")));
        assert!(ops
            .iter()
            .filter(|op| op.verb == Verb::Approx)
            .all(|op| op.line.ends_with(" EPSILON 0.05")));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = stream(1, 1);
        let mut head = 0;
        for _ in 0..10_000 {
            head += usize::from(z.sample(&mut rng) < 10);
        }
        // H(10)/H(1000) = 0.391
        assert!((3500..4300).contains(&head), "{head}");
    }

    #[test]
    fn wire_probabilities_round_trip_six_decimals() {
        let mut rng = stream(5, 5);
        for _ in 0..100 {
            let p = wire_prob(&mut rng);
            assert_eq!(format!("{p:.6}").parse::<f64>().unwrap(), p);
            assert!(p > 0.0 && p <= 1.0);
        }
    }
}
