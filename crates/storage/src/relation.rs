//! Per-predicate relations and binding-pattern indexes.
//!
//! A [`Relation`] is the set of facts of one predicate. Joins during rule
//! instantiation probe relations through [`TupleIndex`]es: hash indexes
//! keyed by the values at a set of *bound* positions. Indexes are built on
//! demand per binding pattern and maintained incrementally on insert and
//! in place on removal.

use crate::fact::{FactId, FactStore};
use ltg_datalog::fxhash::FxHashMap;
use ltg_datalog::Sym;

/// A bitmask over argument positions: bit `i` set = position `i` bound.
pub type PatternMask = u32;

/// Hash index over a list of facts, keyed by the values at the positions of
/// a binding pattern. Usable both by [`Relation`] and by ad-hoc fact lists
/// (the per-node tsets of the trigger-graph engine).
pub struct TupleIndex {
    mask: PatternMask,
    /// Keyed by the bound-position values, in position order.
    map: FxHashMap<Vec<Sym>, Vec<FactId>>,
    /// How many facts of the underlying list have been indexed so far.
    covered: usize,
}

impl TupleIndex {
    /// Creates an empty index for `mask`.
    pub fn new(mask: PatternMask) -> Self {
        TupleIndex {
            mask,
            map: FxHashMap::default(),
            covered: 0,
        }
    }

    /// The binding pattern this index serves.
    pub fn mask(&self) -> PatternMask {
        self.mask
    }

    /// Extracts the key of `args` under this index's mask.
    fn key_of(&self, args: &[Sym]) -> Vec<Sym> {
        args.iter()
            .enumerate()
            .filter(|(i, _)| self.mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect()
    }

    /// Indexes any facts of `facts` not yet covered.
    pub fn update(&mut self, facts: &[FactId], store: &FactStore) {
        for &f in &facts[self.covered..] {
            let key = self.key_of(store.args(f));
            self.map.entry(key).or_default().push(f);
        }
        self.covered = facts.len();
    }

    /// Drops `f`, the fact at position `pos` of the underlying list,
    /// from its bucket (keeping the bucket's order) when the index has
    /// seen it. The caller removes it from the list itself.
    fn remove(&mut self, f: FactId, pos: usize, store: &FactStore) {
        if pos >= self.covered {
            return;
        }
        self.covered -= 1;
        let key = self.key_of(store.args(f));
        let Some(bucket) = self.map.get_mut(&key) else {
            return;
        };
        if let Some(i) = bucket.iter().position(|&g| g == f) {
            bucket.remove(i);
        }
        if bucket.is_empty() {
            self.map.remove(&key);
        }
    }

    /// Facts whose bound positions equal `key` (position order).
    pub fn probe(&self, key: &[Sym]) -> &[FactId] {
        self.map.get(key).map_or(&[], |v| v.as_slice())
    }

    /// How many facts of the underlying list this index has seen.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Estimated live bytes.
    pub fn estimated_bytes(&self) -> usize {
        let entries = self.map.len();
        let keys: usize = self.map.keys().map(|k| k.len() * 4).sum();
        let vals: usize = self.map.values().map(|v| v.len() * 4).sum();
        entries * 48 + keys + vals
    }
}

/// The fact set of one predicate plus its lazily built indexes.
#[derive(Default)]
pub struct Relation {
    facts: Vec<FactId>,
    indexes: Vec<TupleIndex>,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fact (caller guarantees it is fresh for this relation —
    /// the fact store's `fresh` flag provides that).
    pub fn push(&mut self, f: FactId) {
        self.facts.push(f);
    }

    /// Removes a fact, preserving the order of the remaining ones, and
    /// returns whether it was present. Every index drops the fact from
    /// its bucket in place, so an index that was current stays current
    /// (and equal to a fresh rebuild) without another
    /// [`Relation::ensure_index`].
    pub fn remove(&mut self, f: FactId, store: &FactStore) -> bool {
        let Some(pos) = self.facts.iter().position(|&g| g == f) else {
            return false;
        };
        for ix in &mut self.indexes {
            ix.remove(f, pos, store);
        }
        self.facts.remove(pos);
        true
    }

    /// All facts, in insertion order.
    pub fn facts(&self) -> &[FactId] {
        &self.facts
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when the relation has no facts.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Returns the facts matching `key` at the positions of `mask`,
    /// building/refreshing the index as needed. A zero mask scans.
    pub fn probe(&mut self, mask: PatternMask, key: &[Sym], store: &FactStore) -> &[FactId] {
        if mask == 0 {
            return &self.facts;
        }
        let pos = match self.indexes.iter().position(|ix| ix.mask() == mask) {
            Some(p) => p,
            None => {
                self.indexes.push(TupleIndex::new(mask));
                self.indexes.len() - 1
            }
        };
        let ix = &mut self.indexes[pos];
        ix.update(&self.facts, store);
        ix.probe(key)
    }

    /// Builds (or refreshes) the index for `mask` without probing. Use
    /// together with [`Relation::probe_ready`] when a join must first
    /// prepare all indexes mutably and then probe through shared
    /// references. Returns whether the index grew (was created or had
    /// facts to catch up on).
    pub fn ensure_index(&mut self, mask: PatternMask, store: &FactStore) -> bool {
        if mask == 0 {
            return false;
        }
        let (pos, created) = match self.indexes.iter().position(|ix| ix.mask() == mask) {
            Some(p) => (p, false),
            None => {
                self.indexes.push(TupleIndex::new(mask));
                (self.indexes.len() - 1, true)
            }
        };
        let ix = &mut self.indexes[pos];
        let grew = created || ix.covered() < self.facts.len();
        ix.update(&self.facts, store);
        grew
    }

    /// Probes an index prepared by [`Relation::ensure_index`]. A zero mask
    /// scans. Panics if the index was never built or is stale.
    pub fn probe_ready(&self, mask: PatternMask, key: &[Sym]) -> &[FactId] {
        if mask == 0 {
            return &self.facts;
        }
        let ix = self
            .indexes
            .iter()
            .find(|ix| ix.mask() == mask)
            .expect("index not prepared; call ensure_index first");
        debug_assert_eq!(ix.covered(), self.facts.len(), "stale index");
        ix.probe(key)
    }

    /// Like [`Relation::probe_ready`], but `None` instead of a panic when
    /// the index for `mask` was never built or has not seen every fact.
    pub fn try_probe(&self, mask: PatternMask, key: &[Sym]) -> Option<&[FactId]> {
        if mask == 0 {
            return Some(&self.facts);
        }
        self.indexes
            .iter()
            .find(|ix| ix.mask() == mask && ix.covered() == self.facts.len())
            .map(|ix| ix.probe(key))
    }

    /// Estimated live bytes (facts + indexes).
    pub fn estimated_bytes(&self) -> usize {
        self.facts.len() * 4
            + self
                .indexes
                .iter()
                .map(TupleIndex::estimated_bytes)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltg_datalog::{PredTable, SymbolTable};

    fn store_with_edges() -> (FactStore, Vec<FactId>, Vec<Sym>) {
        let mut preds = PredTable::new();
        let mut syms = SymbolTable::new();
        let e = preds.intern("e", 2);
        let cs: Vec<Sym> = ["a", "b", "c"].iter().map(|s| syms.intern(s)).collect();
        let mut store = FactStore::new();
        let mut ids = Vec::new();
        // edges: (a,b), (b,c), (a,c), (c,b)
        for (x, y) in [(0, 1), (1, 2), (0, 2), (2, 1)] {
            let (f, _) = store.intern(e, &[cs[x], cs[y]]);
            ids.push(f);
        }
        (store, ids, cs)
    }

    #[test]
    fn zero_mask_scans_everything() {
        let (store, ids, _) = store_with_edges();
        let mut rel = Relation::new();
        for &f in &ids {
            rel.push(f);
        }
        let all = rel.probe(0, &[], &store);
        assert_eq!(all, ids.as_slice());
    }

    #[test]
    fn first_position_index() {
        let (store, ids, cs) = store_with_edges();
        let mut rel = Relation::new();
        for &f in &ids {
            rel.push(f);
        }
        // Facts with first arg = a: (a,b) and (a,c).
        let hits = rel.probe(0b01, &[cs[0]], &store).to_vec();
        assert_eq!(hits, vec![ids[0], ids[2]]);
        // Facts with first arg = c: (c,b).
        let hits = rel.probe(0b01, &[cs[2]], &store).to_vec();
        assert_eq!(hits, vec![ids[3]]);
    }

    #[test]
    fn both_positions_index() {
        let (store, ids, cs) = store_with_edges();
        let mut rel = Relation::new();
        for &f in &ids {
            rel.push(f);
        }
        let hits = rel.probe(0b11, &[cs[1], cs[2]], &store).to_vec();
        assert_eq!(hits, vec![ids[1]]);
        assert!(rel.probe(0b11, &[cs[2], cs[2]], &store).is_empty());
    }

    #[test]
    fn index_sees_facts_inserted_after_creation() {
        let (mut store, ids, cs) = store_with_edges();
        let mut rel = Relation::new();
        rel.push(ids[0]); // (a,b)
        assert_eq!(rel.probe(0b01, &[cs[0]], &store).len(), 1);
        // Insert (a,c) after the index exists.
        rel.push(ids[2]);
        assert_eq!(rel.probe(0b01, &[cs[0]], &store).len(), 2);
        // And a brand-new fact.
        let e = store.pred(ids[0]);
        let (f, _) = store.intern(e, &[cs[0], cs[0]]);
        rel.push(f);
        assert_eq!(rel.probe(0b01, &[cs[0]], &store).len(), 3);
    }

    /// The buckets of `rel`'s index for `mask` equal those of an index
    /// built from scratch over the relation's current facts.
    fn assert_index_matches_rebuild(rel: &Relation, mask: PatternMask, store: &FactStore) {
        let ix = rel.indexes.iter().find(|ix| ix.mask() == mask).unwrap();
        let mut fresh = TupleIndex::new(mask);
        fresh.update(rel.facts(), store);
        assert_eq!(ix.covered(), fresh.covered());
        assert_eq!(ix.map, fresh.map);
        assert_eq!(ix.estimated_bytes(), fresh.estimated_bytes());
    }

    #[test]
    fn remove_preserves_order_and_maintains_indexes() {
        let (store, ids, cs) = store_with_edges();
        let mut rel = Relation::new();
        for &f in &ids {
            rel.push(f);
        }
        // Build two indexes, then remove a fact they cover.
        rel.ensure_index(0b01, &store);
        rel.ensure_index(0b10, &store);
        assert_eq!(rel.probe_ready(0b01, &[cs[0]]).len(), 2);
        assert!(rel.remove(ids[0], &store)); // (a,b)
        assert_eq!(rel.facts(), &[ids[1], ids[2], ids[3]]);
        // Both indexes stay current without another ensure_index.
        assert_eq!(rel.probe_ready(0b01, &[cs[0]]), &[ids[2]]);
        assert_eq!(rel.probe_ready(0b10, &[cs[1]]), &[ids[3]]);
        assert_index_matches_rebuild(&rel, 0b01, &store);
        assert_index_matches_rebuild(&rel, 0b10, &store);
        // Removing again reports absence and changes nothing.
        assert!(!rel.remove(ids[0], &store));
        assert_eq!(rel.len(), 3);
        // A fact pushed after the index was built (not yet covered) is
        // removed without touching the buckets.
        rel.push(ids[0]);
        assert!(rel.try_probe(0b01, &[cs[0]]).is_none(), "stale index");
        assert!(rel.remove(ids[0], &store));
        assert_index_matches_rebuild(&rel, 0b01, &store);
        // Removal followed by a fresh push keeps working.
        rel.push(ids[0]);
        assert_eq!(rel.probe(0b01, &[cs[0]], &store), &[ids[2], ids[0]]);
        assert_index_matches_rebuild(&rel, 0b01, &store);
        // Emptying a bucket drops its key.
        assert!(rel.remove(ids[3], &store)); // (c,b)
        assert_eq!(rel.probe_ready(0b01, &[cs[2]]), &[] as &[FactId]);
        assert_index_matches_rebuild(&rel, 0b01, &store);
    }

    #[test]
    fn try_probe_reports_unprepared_masks() {
        let (store, ids, cs) = store_with_edges();
        let mut rel = Relation::new();
        for &f in &ids {
            rel.push(f);
        }
        assert_eq!(rel.try_probe(0, &[]), Some(ids.as_slice()));
        assert!(rel.try_probe(0b01, &[cs[0]]).is_none());
        rel.ensure_index(0b01, &store);
        assert_eq!(rel.try_probe(0b01, &[cs[0]]), Some(&[ids[0], ids[2]][..]));
    }

    #[test]
    fn second_position_index() {
        let (store, ids, cs) = store_with_edges();
        let mut rel = Relation::new();
        for &f in &ids {
            rel.push(f);
        }
        // Facts with second arg = b: (a,b) and (c,b).
        let hits = rel.probe(0b10, &[cs[1]], &store).to_vec();
        assert_eq!(hits, vec![ids[0], ids[3]]);
    }

    #[test]
    fn bytes_account_for_indexes() {
        let (store, ids, cs) = store_with_edges();
        let mut rel = Relation::new();
        for &f in &ids {
            rel.push(f);
        }
        let before = rel.estimated_bytes();
        rel.probe(0b01, &[cs[0]], &store);
        assert!(rel.estimated_bytes() > before);
    }
}
