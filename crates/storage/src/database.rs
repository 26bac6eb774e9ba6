//! The tuple-independent probabilistic database `D = (F, π)` (Section 2).
//!
//! A [`Database`] interns the facts of a program, stores the probability
//! `π(f)` of every extensional fact, and exposes per-predicate
//! [`Relation`]s for the engines' joins. Facts *derived* during reasoning
//! are interned into the same store (so lineage can reference them by
//! `FactId`) but are not part of `F`.

use crate::fact::{FactId, FactStore};
use crate::relation::Relation;
use ltg_datalog::{PredId, Program, Sym};

/// What happened to an [`Database::insert_edb`] call. Duplicate facts
/// keep their existing probability; the caller decides whether a
/// [`InsertOutcome::Conflict`] warrants a [`Database::update_prob`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InsertOutcome {
    /// The fact was new; the EDB grew and the epoch advanced.
    Inserted,
    /// The fact already existed with the same probability; no change.
    Duplicate,
    /// The fact already existed with a *different* probability. The
    /// stored value (carried here) was kept — resolve explicitly via
    /// [`Database::update_prob`].
    Conflict {
        /// The probability already stored for the fact.
        existing: f64,
    },
}

impl InsertOutcome {
    /// True when the database changed (a fresh fact was added).
    pub fn changed(&self) -> bool {
        matches!(self, InsertOutcome::Inserted)
    }
}

/// What happened to a [`Database::delete_edb`] call. Deleting an absent
/// fact is reported, not treated as an error — retraction is idempotent.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeleteOutcome {
    /// The fact was extensional and has been removed; the epoch advanced.
    Deleted {
        /// The probability the fact carried at deletion time.
        prob: f64,
    },
    /// The fact is not in the EDB: never interned, or interned only as a
    /// derived fact. Nothing changed.
    Missing,
}

impl DeleteOutcome {
    /// True when the database changed (a fact was actually removed).
    pub fn changed(&self) -> bool {
        matches!(self, DeleteOutcome::Deleted { .. })
    }
}

/// Why a [`Database::from_state`] restore was refused. The state came
/// from a snapshot file, so every structural invariant is re-checked
/// instead of trusted — a corrupt or version-skewed snapshot must fail
/// the warm boot, not poison the session.
#[derive(Clone, Debug, PartialEq)]
pub enum DbStateError {
    /// `probs` and `facts` disagree in length.
    ProbsLength {
        /// Number of facts in the state.
        facts: usize,
        /// Number of probability slots in the state.
        probs: usize,
    },
    /// Re-interning a fact tuple did not reproduce its id (duplicate or
    /// out-of-order record).
    FactOrder(usize),
    /// An EDB relation references a fact id outside the store, or a fact
    /// of a different predicate.
    Relation {
        /// The relation's predicate index.
        pred: usize,
    },
}

impl std::fmt::Display for DbStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbStateError::ProbsLength { facts, probs } => {
                write!(f, "{facts} facts but {probs} probability slots")
            }
            DbStateError::FactOrder(i) => write!(f, "fact record {i} is duplicate or out of order"),
            DbStateError::Relation { pred } => {
                write!(
                    f,
                    "EDB relation of predicate {pred} references a foreign fact"
                )
            }
        }
    }
}

impl std::error::Error for DbStateError {}

/// A flattened [`Database`]: everything needed to rebuild it with every
/// [`FactId`] preserved. Facts are listed in interning order (so derived
/// facts keep their ids too) and relations keep their insertion order
/// (which downstream join iteration depends on).
#[derive(Clone, Debug, PartialEq)]
pub struct DatabaseState {
    /// Every interned fact — extensional *and* derived — in id order.
    pub facts: Vec<(PredId, Vec<Sym>)>,
    /// `π(f)` per fact (`None` for derived facts), aligned with `facts`.
    pub probs: Vec<Option<f64>>,
    /// Extensional fact lists per predicate index, in insertion order.
    pub edb: Vec<Vec<FactId>>,
    /// Global mutation epoch.
    pub epoch: u64,
    /// Per-predicate mutation epochs.
    pub pred_epochs: Vec<u64>,
}

/// A probabilistic database plus the scratch space engines share.
pub struct Database {
    /// The global fact arena (extensional and derived facts).
    pub store: FactStore,
    /// The WMC weight vector, one slot per interned fact: `π(f)` for
    /// extensional facts, 1.0 for derived ones. Kept current by every
    /// mutation so query answering borrows it instead of copying it.
    weights: Vec<f64>,
    /// EDB membership, one bit per interned fact (bit set = `f ∈ F`).
    edb_bits: Vec<u64>,
    /// Extensional facts per predicate.
    edb: Vec<Relation>,
    /// Mutation counter: advances on every fresh insert or probability
    /// update. Resident sessions key their query caches on it.
    epoch: u64,
    /// Epoch of the last mutation touching each predicate (indexed by
    /// `PredId`; absent entries mean "never mutated since load").
    pred_epochs: Vec<u64>,
}

impl Database {
    /// Creates an empty database able to hold facts of `n_preds`
    /// predicates.
    pub fn new(n_preds: usize) -> Self {
        Database {
            store: FactStore::new(),
            weights: Vec::new(),
            edb_bits: Vec::new(),
            edb: (0..n_preds).map(|_| Relation::new()).collect(),
            epoch: 0,
            pred_epochs: vec![0; n_preds],
        }
    }

    /// Builds a database from the facts of a program.
    ///
    /// Duplicate facts keep the probability of their first occurrence.
    /// The epoch is reset to 0 afterwards: the program's facts are the
    /// baseline, not mutations.
    pub fn from_program(program: &Program) -> Self {
        let mut db = Database::new(program.preds.len());
        for (atom, prob) in &program.facts {
            db.insert_edb(atom.pred, &atom.args, *prob);
        }
        db.epoch = 0;
        db.pred_epochs.iter_mut().for_each(|e| *e = 0);
        db
    }

    /// Inserts an extensional fact with probability `prob`. Re-inserting
    /// an existing fact keeps the stored probability and reports a
    /// [`InsertOutcome::Duplicate`] or — when the probabilities differ —
    /// an [`InsertOutcome::Conflict`] so callers can surface it instead
    /// of silently dropping the new value.
    pub fn insert_edb(&mut self, pred: PredId, args: &[Sym], prob: f64) -> (FactId, InsertOutcome) {
        let (f, fresh) = self.store.intern(pred, args);
        if fresh {
            self.push_slot();
        }
        match self.prob(f) {
            Some(existing) if existing == prob => (f, InsertOutcome::Duplicate),
            Some(existing) => (f, InsertOutcome::Conflict { existing }),
            // Fresh, or previously interned as a derived fact: (promote
            // it to) the EDB — it gains a probability and joins the
            // relation.
            None => {
                self.weights[f.index()] = prob;
                self.set_edb_bit(f, true);
                self.grow_to(pred);
                self.edb[pred.index()].push(f);
                self.bump(pred);
                (f, InsertOutcome::Inserted)
            }
        }
    }

    /// Deletes the extensional fact `pred(args)`, returning its id (when
    /// it was ever interned) and a [`DeleteOutcome`].
    ///
    /// The fact *stays interned*: lineage structures reference facts by
    /// id, and a later re-insert revives the same id (see the promote
    /// branch of [`Database::insert_edb`]). Deletion only demotes it —
    /// `π(f)` is cleared, the fact leaves its EDB relation, and the
    /// global + per-predicate epochs advance so dependent caches
    /// invalidate. Deleting a missing fact changes nothing.
    pub fn delete_edb(&mut self, pred: PredId, args: &[Sym]) -> (Option<FactId>, DeleteOutcome) {
        let Some(f) = self.store.lookup(pred, args) else {
            return (None, DeleteOutcome::Missing);
        };
        let Some(prob) = self.prob(f) else {
            return (Some(f), DeleteOutcome::Missing);
        };
        self.weights[f.index()] = 1.0;
        self.set_edb_bit(f, false);
        self.edb[pred.index()].remove(f, &self.store);
        self.bump(pred);
        (Some(f), DeleteOutcome::Deleted { prob })
    }

    /// Updates `π(f)` of an extensional fact in place, returning the
    /// previous value. This is the resolution path for
    /// [`InsertOutcome::Conflict`]: lineage is untouched (it references
    /// facts by id), only the weight vector changes — but the epoch
    /// advances so cached probabilities depending on `f`'s predicate are
    /// invalidated. Returns `None` (and changes nothing) for derived
    /// facts.
    pub fn update_prob(&mut self, f: FactId, prob: f64) -> Option<f64> {
        let old = self.prob(f)?;
        // A no-change update is not a mutation: without this early-out
        // every repeated `UPDATE` to the stored value would bump the
        // epochs and spuriously invalidate all cached results depending
        // on the fact's predicate.
        if old.to_bits() == prob.to_bits() {
            return Some(old);
        }
        self.weights[f.index()] = prob;
        self.bump(self.store.pred(f));
        Some(old)
    }

    /// The mutation epoch: 0 at load, +1 per fresh insert or probability
    /// update.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch of the last mutation touching `pred` (0 = untouched since
    /// load).
    pub fn pred_epoch(&self, pred: PredId) -> u64 {
        self.pred_epochs.get(pred.index()).copied().unwrap_or(0)
    }

    fn bump(&mut self, pred: PredId) {
        self.epoch += 1;
        if pred.index() >= self.pred_epochs.len() {
            self.pred_epochs.resize(pred.index() + 1, 0);
        }
        self.pred_epochs[pred.index()] = self.epoch;
    }

    /// Interns a *derived* fact (no probability, not part of any EDB
    /// relation), returning `(id, fresh)`.
    pub fn intern_derived(&mut self, pred: PredId, args: &[Sym]) -> (FactId, bool) {
        let (f, fresh) = self.store.intern(pred, args);
        if fresh {
            self.push_slot();
        }
        (f, fresh)
    }

    /// Appends the weight slot and EDB bit of a freshly interned fact,
    /// as a derived fact (weight 1.0, bit clear).
    fn push_slot(&mut self) {
        if self.weights.len() % 64 == 0 {
            self.edb_bits.push(0);
        }
        self.weights.push(1.0);
    }

    fn set_edb_bit(&mut self, f: FactId, on: bool) {
        let (word, bit) = (f.index() / 64, 1u64 << (f.index() % 64));
        if on {
            self.edb_bits[word] |= bit;
        } else {
            self.edb_bits[word] &= !bit;
        }
    }

    fn grow_to(&mut self, pred: PredId) {
        if pred.index() >= self.edb.len() {
            self.edb.resize_with(pred.index() + 1, Relation::new);
        }
    }

    /// `π(f)`, or `None` for derived facts.
    #[inline]
    pub fn prob(&self, f: FactId) -> Option<f64> {
        self.is_edb_fact(f).then(|| self.weights[f.index()])
    }

    /// True if `f` is an extensional (probabilistic) fact.
    #[inline]
    pub fn is_edb_fact(&self, f: FactId) -> bool {
        self.edb_bits[f.index() / 64] & (1u64 << (f.index() % 64)) != 0
    }

    /// The extensional relation of `pred` (empty if the predicate has no
    /// facts).
    pub fn edb_relation(&mut self, pred: PredId) -> &mut Relation {
        self.grow_to(pred);
        &mut self.edb[pred.index()]
    }

    /// Extensional facts of `pred` (empty slice if none).
    pub fn edb_facts(&self, pred: PredId) -> &[FactId] {
        self.edb.get(pred.index()).map_or(&[], |r| r.facts())
    }

    /// Prepares the index of the extensional relation of `pred` for
    /// `mask` (see [`Relation::ensure_index`]); grows the relation table
    /// so that [`Database::edb_relation_ref`] is subsequently valid.
    /// Returns whether the index grew.
    pub fn ensure_edb_index(&mut self, pred: PredId, mask: crate::relation::PatternMask) -> bool {
        self.grow_to(pred);
        let (store, edb) = (&self.store, &mut self.edb);
        edb[pred.index()].ensure_index(mask, store)
    }

    /// Probes the index of the extensional relation of `pred` for `mask`
    /// through a shared reference (see [`Relation::try_probe`]): `None`
    /// when [`Database::ensure_edb_index`] has not prepared it since the
    /// relation last grew.
    pub fn try_probe_edb(
        &self,
        pred: PredId,
        mask: crate::relation::PatternMask,
        key: &[Sym],
    ) -> Option<&[FactId]> {
        self.edb.get(pred.index())?.try_probe(mask, key)
    }

    /// Shared reference to the extensional relation of `pred`; panics if
    /// the relation table was never grown to cover it (call
    /// [`Database::ensure_edb_index`] or [`Database::edb_relation`]
    /// first).
    pub fn edb_relation_ref(&self, pred: PredId) -> &Relation {
        &self.edb[pred.index()]
    }

    /// Probes the extensional relation of `pred` for facts whose positions
    /// in `mask` carry the values `key` (splits the borrow between the
    /// relation and the fact store internally).
    pub fn probe_edb(
        &mut self,
        pred: PredId,
        mask: crate::relation::PatternMask,
        key: &[Sym],
    ) -> &[FactId] {
        self.grow_to(pred);
        let (store, edb) = (&self.store, &mut self.edb);
        edb[pred.index()].probe(mask, key, store)
    }

    /// Number of extensional facts.
    pub fn n_edb_facts(&self) -> usize {
        self.edb_bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Probability weights for the WMC solvers: `weights[f] = π(f)`
    /// (derived facts get 1.0 — they never appear in lineage leaves).
    /// Borrowed: the vector is maintained in place, so a query costs no
    /// copy of it.
    pub fn weight_slice(&self) -> &[f64] {
        &self.weights
    }

    /// An owned copy of [`Database::weight_slice`], for callers that keep
    /// the weights across later mutations.
    pub fn weights(&self) -> Vec<f64> {
        self.weights.clone()
    }

    /// Flattens the database into a [`DatabaseState`] (see there for the
    /// id-preservation guarantees). Lazily built relation indexes are
    /// not exported — they rebuild on the first probe after a restore.
    pub fn export_state(&self) -> DatabaseState {
        DatabaseState {
            facts: self
                .store
                .iter()
                .map(|f| (self.store.pred(f), self.store.args(f).to_vec()))
                .collect(),
            probs: self.store.iter().map(|f| self.prob(f)).collect(),
            edb: self.edb.iter().map(|r| r.facts().to_vec()).collect(),
            epoch: self.epoch,
            pred_epochs: self.pred_epochs.clone(),
        }
    }

    /// Rebuilds a database from a [`DatabaseState`], re-checking every
    /// structural invariant (the state is snapshot input, not trusted
    /// memory). Fact ids come out identical to the exported database.
    pub fn from_state(state: DatabaseState) -> Result<Self, DbStateError> {
        if state.probs.len() != state.facts.len() {
            return Err(DbStateError::ProbsLength {
                facts: state.facts.len(),
                probs: state.probs.len(),
            });
        }
        let mut store = FactStore::new();
        for (i, (pred, args)) in state.facts.iter().enumerate() {
            let (f, fresh) = store.intern(*pred, args);
            if !fresh || f.index() != i {
                return Err(DbStateError::FactOrder(i));
            }
        }
        let mut edb = Vec::with_capacity(state.edb.len());
        for (p, list) in state.edb.iter().enumerate() {
            let mut rel = Relation::new();
            for &f in list {
                if f.index() >= store.len() || store.pred(f).index() != p {
                    return Err(DbStateError::Relation { pred: p });
                }
                rel.push(f);
            }
            edb.push(rel);
        }
        let mut db = Database {
            store,
            weights: Vec::with_capacity(state.probs.len()),
            edb_bits: Vec::new(),
            edb,
            epoch: state.epoch,
            pred_epochs: state.pred_epochs,
        };
        for (i, prob) in state.probs.into_iter().enumerate() {
            db.push_slot();
            if let Some(p) = prob {
                db.weights[i] = p;
                db.set_edb_bit(FactId(i as u32), true);
            }
        }
        Ok(db)
    }

    /// Estimated live bytes of the database proper.
    pub fn estimated_bytes(&self) -> usize {
        self.store.estimated_bytes()
            + self.weights.len() * std::mem::size_of::<f64>()
            + self.edb_bits.len() * std::mem::size_of::<u64>()
            + self
                .edb
                .iter()
                .map(Relation::estimated_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltg_datalog::parse_program;

    #[test]
    fn builds_from_program() {
        let p = parse_program("0.5 :: e(a,b). 0.6 :: e(b,c). p(X,Y) :- e(X,Y).").unwrap();
        let db = Database::from_program(&p);
        assert_eq!(db.n_edb_facts(), 2);
        let e = p.preds.lookup("e", 2).unwrap();
        assert_eq!(db.edb_facts(e).len(), 2);
        let f = db.edb_facts(e)[0];
        assert_eq!(db.prob(f), Some(0.5));
        assert!(db.is_edb_fact(f));
    }

    #[test]
    fn duplicate_fact_keeps_first_probability() {
        let p = parse_program("0.5 :: e(a). 0.9 :: e(a).").unwrap();
        let db = Database::from_program(&p);
        assert_eq!(db.n_edb_facts(), 1);
        let e = p.preds.lookup("e", 1).unwrap();
        let f = db.edb_facts(e)[0];
        assert_eq!(db.prob(f), Some(0.5));
    }

    #[test]
    fn insert_outcomes_and_epochs() {
        let p = parse_program("0.5 :: e(a). 0.6 :: f(b).").unwrap();
        let mut db = Database::from_program(&p);
        let e = p.preds.lookup("e", 1).unwrap();
        let f = p.preds.lookup("f", 1).unwrap();
        let (a, b) = (
            p.symbols.lookup("a").unwrap(),
            p.symbols.lookup("b").unwrap(),
        );
        // Loading a program is the epoch-0 baseline.
        assert_eq!(db.epoch(), 0);
        assert_eq!(db.pred_epoch(e), 0);

        // Fresh insert advances the global and per-predicate epochs.
        let (_, out) = db.insert_edb(e, &[b], 0.7);
        assert_eq!(out, InsertOutcome::Inserted);
        assert!(out.changed());
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.pred_epoch(e), 1);
        assert_eq!(db.pred_epoch(f), 0);

        // Same fact, same probability: silent duplicate, no epoch bump.
        let (_, out) = db.insert_edb(e, &[a], 0.5);
        assert_eq!(out, InsertOutcome::Duplicate);
        assert!(!out.changed());
        assert_eq!(db.epoch(), 1);

        // Same fact, different probability: conflict, stored value kept.
        let (fa, out) = db.insert_edb(e, &[a], 0.9);
        assert_eq!(out, InsertOutcome::Conflict { existing: 0.5 });
        assert_eq!(db.prob(fa), Some(0.5));
        assert_eq!(db.epoch(), 1);

        // update_prob resolves the conflict and advances the epoch.
        assert_eq!(db.update_prob(fa, 0.9), Some(0.5));
        assert_eq!(db.prob(fa), Some(0.9));
        assert_eq!(db.epoch(), 2);
        assert_eq!(db.pred_epoch(e), 2);
    }

    #[test]
    fn delete_outcomes_epochs_and_reinsert_revival() {
        let p = parse_program("0.5 :: e(a). 0.6 :: e(b). 0.7 :: f(c).").unwrap();
        let mut db = Database::from_program(&p);
        let e = p.preds.lookup("e", 1).unwrap();
        let f = p.preds.lookup("f", 1).unwrap();
        let (a, b, c) = (
            p.symbols.lookup("a").unwrap(),
            p.symbols.lookup("b").unwrap(),
            p.symbols.lookup("c").unwrap(),
        );

        // Deleting a present fact removes it, reports its probability,
        // and advances both epochs.
        let (fa, out) = db.delete_edb(e, &[a]);
        let fa = fa.unwrap();
        assert_eq!(out, DeleteOutcome::Deleted { prob: 0.5 });
        assert!(out.changed());
        assert_eq!(db.epoch(), 1);
        assert_eq!(db.pred_epoch(e), 1);
        assert_eq!(db.pred_epoch(f), 0);
        assert_eq!(db.n_edb_facts(), 2);
        // The fact stays interned but is no longer extensional.
        assert_eq!(db.prob(fa), None);
        assert!(!db.is_edb_fact(fa));
        assert_eq!(db.edb_facts(e).len(), 1);

        // Deleting it again (or a never-interned fact) is a reported
        // no-op: no epoch bump.
        assert_eq!(db.delete_edb(e, &[a]), (Some(fa), DeleteOutcome::Missing));
        assert_eq!(db.delete_edb(e, &[c]), (None, DeleteOutcome::Missing));
        assert_eq!(db.epoch(), 1);

        // update_prob of a deleted fact is refused like any derived fact.
        assert_eq!(db.update_prob(fa, 0.9), None);
        assert_eq!(db.epoch(), 1);

        // Re-inserting revives the *same* id with the new probability.
        let (fa2, out) = db.insert_edb(e, &[a], 0.25);
        assert_eq!(fa2, fa);
        assert_eq!(out, InsertOutcome::Inserted);
        assert_eq!(db.prob(fa), Some(0.25));
        assert_eq!(db.epoch(), 2);
        assert_eq!(db.edb_facts(e), &[db.store.lookup(e, &[b]).unwrap(), fa]);
    }

    #[test]
    fn delete_leaves_relation_probes_consistent() {
        let p = parse_program("e(a,b). e(a,c). e(b,c).").unwrap();
        let mut db = Database::from_program(&p);
        let e = p.preds.lookup("e", 2).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let b = p.symbols.lookup("b").unwrap();
        // Build an index, then delete through the database.
        assert_eq!(db.probe_edb(e, 0b01, &[a]).len(), 2);
        let (_, out) = db.delete_edb(e, &[a, b]);
        assert!(out.changed());
        assert_eq!(db.probe_edb(e, 0b01, &[a]).len(), 1);
        assert_eq!(db.n_edb_facts(), 2);
    }

    #[test]
    fn update_prob_rejects_derived_facts() {
        let p = parse_program("0.5 :: e(a). q(X) :- e(X).").unwrap();
        let mut db = Database::from_program(&p);
        let q = p.preds.lookup("q", 1).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let (f, _) = db.intern_derived(q, &[a]);
        assert_eq!(db.update_prob(f, 0.3), None);
        assert_eq!(db.prob(f), None);
        assert_eq!(db.epoch(), 0);
    }

    #[test]
    fn derived_facts_have_no_probability() {
        let p = parse_program("0.5 :: e(a). q(X) :- e(X).").unwrap();
        let mut db = Database::from_program(&p);
        let q = p.preds.lookup("q", 1).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let (f, fresh) = db.intern_derived(q, &[a]);
        assert!(fresh);
        assert_eq!(db.prob(f), None);
        assert!(!db.is_edb_fact(f));
        // The derived fact is not an EDB tuple of q.
        assert!(db.edb_facts(q).is_empty());
        // Interning again is not fresh.
        let (f2, fresh2) = db.intern_derived(q, &[a]);
        assert_eq!(f, f2);
        assert!(!fresh2);
    }

    #[test]
    fn weights_default_derived_to_one() {
        let p = parse_program("0.25 :: e(a). q(X) :- e(X).").unwrap();
        let mut db = Database::from_program(&p);
        let q = p.preds.lookup("q", 1).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        db.intern_derived(q, &[a]);
        let w = db.weights();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], 0.25);
        assert_eq!(w[1], 1.0);
    }

    #[test]
    fn state_roundtrip_preserves_ids_epochs_and_order() {
        let p = parse_program("0.5 :: e(a,b). 0.6 :: e(b,c). q(X,Y) :- e(X,Y).").unwrap();
        let mut db = Database::from_program(&p);
        let e = p.preds.lookup("e", 2).unwrap();
        let q = p.preds.lookup("q", 2).unwrap();
        let (a, b) = (
            p.symbols.lookup("a").unwrap(),
            p.symbols.lookup("b").unwrap(),
        );
        // Mix in a derived fact, a delete, and an update so the state
        // carries holes and non-zero epochs.
        db.intern_derived(q, &[a, b]);
        db.insert_edb(e, &[b, a], 0.9);
        db.delete_edb(e, &[a, b]);
        let f_ba = db.store.lookup(e, &[b, a]).unwrap();
        db.update_prob(f_ba, 0.4);

        let state = db.export_state();
        let restored = Database::from_state(state.clone()).unwrap();
        assert_eq!(restored.epoch(), db.epoch());
        assert_eq!(restored.n_edb_facts(), db.n_edb_facts());
        assert_eq!(restored.pred_epoch(e), db.pred_epoch(e));
        for f in db.store.iter() {
            assert_eq!(restored.store.pred(f), db.store.pred(f));
            assert_eq!(restored.store.args(f), db.store.args(f));
            assert_eq!(restored.prob(f), db.prob(f));
        }
        assert_eq!(restored.edb_facts(e), db.edb_facts(e));
        // Exporting the restored database is a fixpoint.
        assert_eq!(restored.export_state(), state);
    }

    #[test]
    fn from_state_rejects_corrupt_states() {
        let p = parse_program("0.5 :: e(a). 0.6 :: f(b).").unwrap();
        let db = Database::from_program(&p);
        let good = db.export_state();

        let mut probs_short = good.clone();
        probs_short.probs.pop();
        assert!(matches!(
            Database::from_state(probs_short),
            Err(DbStateError::ProbsLength { .. })
        ));

        let mut duped = good.clone();
        let first = duped.facts[0].clone();
        duped.facts.push(first);
        duped.probs.push(Some(0.1));
        assert!(matches!(
            Database::from_state(duped),
            Err(DbStateError::FactOrder(2))
        ));

        let mut foreign = good.clone();
        foreign.edb[0].push(FactId(1)); // f's fact inside e's relation
        assert!(matches!(
            Database::from_state(foreign),
            Err(DbStateError::Relation { pred: 0 })
        ));

        let mut oob = good;
        oob.edb[1].push(FactId(99));
        assert!(matches!(
            Database::from_state(oob),
            Err(DbStateError::Relation { pred: 1 })
        ));
    }

    #[test]
    fn relation_probe_through_database() {
        let p = parse_program("e(a,b). e(a,c). e(b,c).").unwrap();
        let mut db = Database::from_program(&p);
        let e = p.preds.lookup("e", 2).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let hits = db.probe_edb(e, 0b01, &[a]).len();
        assert_eq!(hits, 2);
    }
}
