//! Leafset summaries for derivation trees, collapsed OR bundles included.
//!
//! Explanation dedup needs to answer "do these two trees stand for the
//! same set of explanations?" without materializing the unfoldings. For
//! OR-free trees the answer is the sorted leaf multiset — the engine's
//! historical `leafset` — but collapsed bundles have *many* leafsets,
//! one per unfolding, and carrying none at all leaves dedup blind under
//! collapse (the dense-cyclic OOM pinned in `tests/regressions.rs`).
//!
//! A summary closes that gap with a two-tier representation:
//!
//! * **`Exact`** — the minimized DNF of the tree's leaf sets (the
//!   canonical antichain of minimal explanations; see [`crate::dnf`]).
//!   Monotone-DNF minimization is canonical, so two trees are
//!   `Exact`-equal iff their lineages are logically equivalent — zero
//!   false positives, zero false negatives. Kept while the antichain
//!   stays small (≤ [`EXACT_CONJUNCT_CUTOFF`] conjuncts).
//! * **`Digest`** — a 128-bit hash. When the exact antichain was
//!   computable but too large to keep, the digest is taken over the
//!   *canonical* form, so leaf-identical trees still collide
//!   (dedup keeps working; a false positive requires a 128-bit hash
//!   collision). When even computing the antichain would blow the work
//!   cap, the digest degrades to a compositional hash of the children's
//!   digests (sorted, so alternative order is immaterial) — still
//!   deterministic, merely blind to deep structural rearrangements.
//!
//! Summaries are hash-consed in a [`SummaryStore`] and handled by
//! [`SummaryId`]: each distinct antichain is held once, so equality is
//! an id compare and a memo hit copies four bytes.
//!
//! Summaries are a pure function of the forest, so a restored engine
//! recomputes equal summaries from the snapshot's trees — no bytes on
//! disk, no drift. Ids are assigned in interning order and may differ
//! after a restore; only their equalities matter.

use crate::dnf::Dnf;
use crate::forest::{Forest, Label, TreeId};
use crate::table_bytes;
use ltg_datalog::fxhash::{hash_u64, FxHashMap};
use ltg_storage::FactId;

/// Largest canonical antichain kept exactly; bigger summaries degrade to
/// a digest over the canonical form. The bar is set by *transient*
/// per-tree antichains, not final per-fact lineages: on a dense cyclic
/// EDB a single collapsed bundle legitimately carries hundreds of
/// not-yet-globally-minimal explanations even when the fact's minimized
/// lineage stays under a hundred conjuncts — and once one bundle
/// degrades to a digest, absorption dedup shuts off downstream and the
/// leaf-identical breeding the summaries exist to stop resumes (a
/// threshold-10 batch run on an 11-edge orientation-reversing EDB never
/// terminated at a cutoff of 128). 1024 keeps that whole family exact;
/// a genuinely exponential lineage still degrades.
pub const EXACT_CONJUNCT_CUTOFF: usize = 1024;

/// Work cap on intermediate antichain products. Exceeding it abandons the
/// exact computation for this subtree and switches to compositional
/// digests. Must sit well above the cutoff squared's minimized size:
/// AND-products of two near-cutoff bundle antichains are exactly the
/// summaries absorption needs to see.
pub const EXACT_WORK_CAP: usize = 65536;

/// Handle of one summary interned in a [`SummaryStore`]: a compact,
/// order-insensitive stand-in for the explanation set of a derivation
/// tree. Two `Exact` ids are equal iff their canonical antichains are
/// equal (so iff the lineages are logically equivalent); two `Digest`
/// ids are equal iff their 128-bit digests are; an exact and a digest
/// id are never equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SummaryId(u32);

/// Memo marker for a tree whose summary is not computed yet.
const UNSET: SummaryId = SummaryId(u32::MAX);
/// End of an intern chain.
const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
enum Slot {
    /// The minimized (canonical) antichain of explanation leaf sets:
    /// conjuncts `first .. first + len` of the pool.
    Exact { first: u32, len: u32 },
    /// 128-bit hash (index into `digests`): of the canonical antichain
    /// when it was computable, else compositional over child digests.
    Digest(u32),
}

/// Hash-consed leaf summaries plus the per-tree memo of [`summarize`];
/// valid per forest.
///
/// Each distinct canonical antichain is stored once, flat: its
/// conjuncts are consecutive `facts` ranges delimited by `bounds`, the
/// way [`Forest`] keeps children in one pool. Interning a summary that
/// is already present returns the old id and adds nothing. The store is
/// append-only like the forest, and every summary it holds is the
/// summary of some tree, so it never outgrows the forest.
pub struct SummaryStore {
    /// `TreeId` → its summary (`UNSET` until computed). Dense: tree ids
    /// are arena indices.
    memo: Vec<SummaryId>,
    /// `SummaryId` → where the summary lives.
    slots: Vec<Slot>,
    /// Conjunct `i` is `facts[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<u32>,
    facts: Vec<FactId>,
    digests: Vec<u128>,
    /// Hash of an exact antichain → the newest slot with that hash;
    /// `chain` links each slot to the next older one (intrusive open
    /// chaining, no per-bucket allocation).
    exact_heads: FxHashMap<u64, u32>,
    chain: Vec<u32>,
    /// Digest → its slot.
    digest_ids: FxHashMap<u128, u32>,
}

impl Default for SummaryStore {
    fn default() -> Self {
        SummaryStore {
            memo: Vec::new(),
            slots: Vec::new(),
            bounds: vec![0],
            facts: Vec::new(),
            digests: Vec::new(),
            exact_heads: FxHashMap::default(),
            chain: Vec::new(),
            digest_ids: FxHashMap::default(),
        }
    }
}

impl SummaryStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct summaries interned.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is interned yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The conjuncts of an exact summary (canonical order), read from
    /// the pool; `None` for a digest.
    pub fn exact(
        &self,
        id: SummaryId,
    ) -> Option<impl ExactSizeIterator<Item = &[FactId]> + Clone + '_> {
        let Slot::Exact { first, len } = self.slots[id.0 as usize] else {
            return None;
        };
        let (first, len) = (first as usize, len as usize);
        let facts = &self.facts;
        Some(
            self.bounds[first..=first + len]
                .windows(2)
                .map(move |w| &facts[w[0] as usize..w[1] as usize]),
        )
    }

    /// Number of conjuncts of an exact summary; `None` for a digest.
    pub fn exact_len(&self, id: SummaryId) -> Option<usize> {
        match self.slots[id.0 as usize] {
            Slot::Exact { len, .. } => Some(len as usize),
            Slot::Digest(_) => None,
        }
    }

    /// An exact summary as an owned [`Dnf`]; `None` for a digest.
    pub fn to_dnf(&self, id: SummaryId) -> Option<Dnf> {
        let mut d = Dnf::ff();
        d.or_conjuncts(self.exact(id)?);
        Some(d)
    }

    /// The summary's 128-bit digest: stored for a digest, computed over
    /// the canonical conjuncts for an exact summary.
    fn digest(&self, id: SummaryId) -> u128 {
        match self.slots[id.0 as usize] {
            Slot::Exact { .. } => digest_of_conjuncts(self.exact(id).into_iter().flatten()),
            Slot::Digest(i) => self.digests[i as usize],
        }
    }

    /// Interns a canonical (minimized) antichain, given as its sorted
    /// conjuncts in canonical order; equal antichains get one id.
    pub fn intern_exact<'a, I>(&mut self, conjuncts: I) -> SummaryId
    where
        I: ExactSizeIterator<Item = &'a [FactId]> + Clone,
    {
        let h = digest_of_conjuncts(conjuncts.clone()) as u64;
        let head = self.exact_heads.get(&h).copied().unwrap_or(NIL);
        let mut cand = head;
        while cand != NIL {
            let id = SummaryId(cand);
            if self.exact(id).is_some_and(|c| c.eq(conjuncts.clone())) {
                return id;
            }
            cand = self.chain[cand as usize];
        }
        let id = u32::try_from(self.slots.len()).expect("summary store overflow");
        let first = u32::try_from(self.bounds.len() - 1).expect("conjunct pool overflow");
        let len = conjuncts.len() as u32;
        for c in conjuncts {
            self.facts.extend_from_slice(c);
            let end = u32::try_from(self.facts.len()).expect("fact pool overflow");
            self.bounds.push(end);
        }
        self.slots.push(Slot::Exact { first, len });
        self.chain.push(head);
        self.exact_heads.insert(h, id);
        SummaryId(id)
    }

    /// Interns a digest-tier summary; equal digests get one id.
    pub fn intern_digest(&mut self, digest: u128) -> SummaryId {
        if let Some(&id) = self.digest_ids.get(&digest) {
            return SummaryId(id);
        }
        let id = u32::try_from(self.slots.len()).expect("summary store overflow");
        self.slots.push(Slot::Digest(self.digests.len() as u32));
        self.digests.push(digest);
        self.chain.push(NIL);
        self.digest_ids.insert(digest, id);
        SummaryId(id)
    }

    /// The minimized disjunction of exact summaries; `None` when one of
    /// them is a digest (its conjuncts are unknown).
    pub fn union(&self, ids: impl IntoIterator<Item = SummaryId>) -> Option<Dnf> {
        let mut u = Dnf::ff();
        for id in ids {
            u.or_conjuncts(self.exact(id)?);
        }
        u.minimize();
        Some(u)
    }

    /// The memoized summary of `tree`, if computed.
    fn memoized(&self, tree: TreeId) -> Option<SummaryId> {
        self.memo.get(tree.index()).copied().filter(|&s| s != UNSET)
    }

    fn memoize(&mut self, tree: TreeId, id: SummaryId) {
        let i = tree.index();
        if i >= self.memo.len() {
            self.memo.resize(i + 1, UNSET);
        }
        self.memo[i] = id;
    }

    /// Bytes of the interned summaries themselves: slots, conjunct
    /// bounds, literals and digests, by length. Interning an antichain
    /// already present leaves it unchanged.
    pub fn pool_bytes(&self) -> usize {
        self.slots.len() * (std::mem::size_of::<Slot>() + 4)
            + self.bounds.len() * 4
            + self.facts.len() * std::mem::size_of::<FactId>()
            + self.digests.len() * 16
    }

    /// Estimated live bytes, by capacity: the memo, the pool and both
    /// intern tables (for resource metering).
    pub fn estimated_bytes(&self) -> usize {
        self.memo.capacity() * 4
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.chain.capacity() * 4
            + self.bounds.capacity() * 4
            + self.facts.capacity() * std::mem::size_of::<FactId>()
            + self.digests.capacity() * 16
            + table_bytes(self.exact_heads.capacity(), 12)
            + table_bytes(self.digest_ids.capacity(), 20)
    }
}

fn digest_of_conjuncts<'a>(conjuncts: impl Iterator<Item = &'a [FactId]>) -> u128 {
    // Two decorrelated 64-bit streams over the canonical conjunct list.
    let (mut lo, mut hi) = (0x9e37_79b9_7f4a_7c15u64, 0xc2b2_ae3d_27d4_eb4fu64);
    for c in conjuncts {
        lo = hash_u64(lo ^ c.len() as u64);
        hi = hash_u64(hi.wrapping_add(0x165667b19e3779f9 ^ c.len() as u64));
        for f in c {
            lo = hash_u64(lo ^ f.0 as u64);
            hi = hash_u64(hi.wrapping_mul(0x1000_0000_01b3) ^ f.0 as u64);
        }
    }
    ((hi as u128) << 64) | lo as u128
}

fn compose_digest(tag: u64, parts: &mut [u128]) -> u128 {
    // Sorted, so the digest is insensitive to alternative/premise order —
    // matching the order-insensitivity of the exact antichain.
    parts.sort_unstable();
    let (mut lo, mut hi) = (hash_u64(tag), hash_u64(tag ^ 0xdead_beef_cafe_f00d));
    for p in parts.iter() {
        lo = hash_u64(lo ^ (*p as u64));
        hi = hash_u64(hi ^ ((*p >> 64) as u64));
    }
    ((hi as u128) << 64) | lo as u128
}

/// Computes (memoized) the summary of `tree`, interned in `store`.
///
/// Structural recursion over the shared forest: a leaf is its own
/// single-fact explanation, an AND node the capped pairwise product of
/// its children's antichains, an OR node their union; every exact result
/// is minimized to the canonical antichain before use. Degradation to
/// digests is size-triggered and deterministic, so the summary is a pure
/// function of the tree's structure.
pub fn summarize(forest: &Forest, tree: TreeId, store: &mut SummaryStore) -> SummaryId {
    if let Some(hit) = store.memoized(tree) {
        return hit;
    }
    let children = forest.children(tree);
    let kids: Vec<SummaryId> = children
        .iter()
        .map(|&c| summarize(forest, c, store))
        .collect();
    let label = forest.label(tree);
    let id = if label == Label::And && kids.iter().all(|&k| store.exact_len(k) == Some(1)) {
        // OR-free fast path (leaves included): the product of
        // single-conjunct antichains is the one merged leaf set.
        let mut leaves = vec![forest.fact(tree)];
        if !kids.is_empty() {
            leaves.clear();
            for &k in &kids {
                leaves.extend(store.exact(k).into_iter().flatten().flatten());
            }
            leaves.sort_unstable();
            leaves.dedup();
        }
        store.intern_exact(std::iter::once(leaves.as_slice()))
    } else {
        let exact = match label {
            Label::And => {
                let mut acc = Some(Dnf::tt());
                for &k in &kids {
                    let (Some(a), Some(d)) = (acc.take(), store.exact(k)) else {
                        break;
                    };
                    if let Ok(mut prod) = a.and_conjuncts(d, EXACT_WORK_CAP) {
                        prod.minimize();
                        if prod.len() <= EXACT_WORK_CAP {
                            acc = Some(prod);
                        }
                    }
                }
                acc
            }
            Label::Or => {
                let mut acc = Some(Dnf::ff());
                for &k in &kids {
                    let (Some(mut a), Some(d)) = (acc.take(), store.exact(k)) else {
                        break;
                    };
                    a.or_conjuncts(d);
                    if a.len() <= EXACT_WORK_CAP {
                        acc = Some(a);
                    }
                }
                acc.map(|mut a| {
                    a.minimize();
                    a
                })
            }
        };
        match exact {
            Some(d) if d.len() <= EXACT_CONJUNCT_CUTOFF => store.intern_exact(d.conjuncts()),
            Some(d) => store.intern_digest(digest_of_conjuncts(d.conjuncts())),
            None => {
                let tag = match label {
                    Label::And => 0xA17D ^ forest.fact(tree).0 as u64,
                    Label::Or => 0x0B5E,
                };
                let mut parts: Vec<u128> = kids.iter().map(|&k| store.digest(k)).collect();
                store.intern_digest(compose_digest(tag, &mut parts))
            }
        }
    };
    store.memoize(tree, id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u32) -> FactId {
        FactId(i)
    }

    fn exact_dnf(store: &SummaryStore, id: SummaryId) -> Dnf {
        store.to_dnf(id).expect("exact summary")
    }

    #[test]
    fn leaf_summary_is_the_fact() {
        let mut f = Forest::new();
        let l = f.leaf(fid(1));
        let mut store = SummaryStore::new();
        let s = summarize(&f, l, &mut store);
        assert_eq!(exact_dnf(&store, s), Dnf::var(fid(1)));
    }

    #[test]
    fn or_free_summary_equals_the_leafset() {
        let mut f = Forest::new();
        let a = f.leaf(fid(1));
        let b = f.leaf(fid(2));
        let inner = f.node(Label::And, fid(10), &[a, b]);
        let t = f.node(Label::And, fid(11), &[inner, a]);
        let mut store = SummaryStore::new();
        let s = summarize(&f, t, &mut store);
        // One conjunct: the sorted, deduped leaves — and the same id as
        // the inner node, which has the same leaf set.
        assert_eq!(exact_dnf(&store, s), Dnf::unit(vec![fid(1), fid(2)]));
        assert_eq!(summarize(&f, inner, &mut store), s);
    }

    #[test]
    fn structurally_distinct_bundles_with_equal_leafsets_summarize_equal() {
        let mut f = Forest::new();
        let a = f.leaf(fid(1));
        let b = f.leaf(fid(2));
        let via_a = f.node(Label::And, fid(10), &[a]);
        let via_b = f.node(Label::And, fid(10), &[b]);
        let or1 = f.collapse(&[via_a, via_b]);
        // Same alternatives, opposite order, plus a nested re-bundling.
        let or2 = f.collapse(&[via_b, via_a]);
        let or3 = f.collapse(&[via_a, or2]);
        let mut store = SummaryStore::new();
        let s1 = summarize(&f, or1, &mut store);
        let s2 = summarize(&f, or2, &mut store);
        let s3 = summarize(&f, or3, &mut store);
        assert!(store.exact_len(s1).is_some());
        assert_eq!(s1, s2);
        assert_eq!(s1, s3);
    }

    #[test]
    fn absorbed_alternatives_do_not_distinguish_summaries() {
        let mut f = Forest::new();
        let a = f.leaf(fid(1));
        let b = f.leaf(fid(2));
        let via_a = f.node(Label::And, fid(10), &[a]);
        let via_ab = f.node(Label::And, fid(10), &[a, b]);
        let or = f.collapse(&[via_a, via_ab]);
        let mut store = SummaryStore::new();
        // {a} absorbs {a,b}: the bundle summarizes identically to via_a.
        assert_eq!(
            summarize(&f, or, &mut store),
            summarize(&f, via_a, &mut store)
        );
    }

    #[test]
    fn and_over_bundle_distributes() {
        let mut f = Forest::new();
        let a = f.leaf(fid(1));
        let b = f.leaf(fid(2));
        let c = f.leaf(fid(3));
        let via_a = f.node(Label::And, fid(10), &[a]);
        let via_b = f.node(Label::And, fid(10), &[b]);
        let or = f.collapse(&[via_a, via_b]);
        let root = f.node(Label::And, fid(20), &[or, c]);
        let mut store = SummaryStore::new();
        let mut expect = Dnf::ff();
        expect.push(vec![fid(1), fid(3)]);
        expect.push(vec![fid(2), fid(3)]);
        expect.minimize();
        let s = summarize(&f, root, &mut store);
        assert_eq!(exact_dnf(&store, s), expect);
    }

    #[test]
    fn one_antichain_gets_one_id_whatever_the_order_or_nesting() {
        // (a ∨ b) ∧ c built three ways: distributed by hand in either
        // alternative order, and as an AND over a bundle.
        let mut f = Forest::new();
        let a = f.leaf(fid(1));
        let b = f.leaf(fid(2));
        let c = f.leaf(fid(3));
        let ac = f.node(Label::And, fid(20), &[a, c]);
        let cb = f.node(Label::And, fid(20), &[c, b]);
        let flat1 = f.collapse(&[ac, cb]);
        let flat2 = f.collapse(&[cb, ac]);
        let via_a = f.node(Label::And, fid(10), &[a]);
        let via_b = f.node(Label::And, fid(10), &[b]);
        let or = f.collapse(&[via_b, via_a]);
        let nested = f.node(Label::And, fid(20), &[c, or]);
        let mut store = SummaryStore::new();
        let ids: Vec<SummaryId> = [flat1, flat2, nested]
            .iter()
            .map(|&t| summarize(&f, t, &mut store))
            .collect();
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[0], ids[2]);
        // Interning the canonical form directly finds the same id too.
        let mut d = Dnf::ff();
        d.push(vec![fid(3), fid(2)]);
        d.push(vec![fid(1), fid(3)]);
        d.minimize();
        let before = store.len();
        assert_eq!(store.intern_exact(d.conjuncts()), ids[0]);
        assert_eq!(store.len(), before);
    }

    #[test]
    fn pool_slices_round_trip_to_the_canonical_dnf() {
        let mut store = SummaryStore::new();
        let mut d = Dnf::ff();
        d.push(vec![fid(9), fid(4)]);
        d.push(vec![fid(2)]);
        d.push(vec![fid(7), fid(5), fid(3)]);
        d.push(vec![fid(2), fid(8)]); // absorbed by {2}
        d.minimize();
        let id = store.intern_exact(d.conjuncts());
        let back: Vec<&[FactId]> = store.exact(id).unwrap().collect();
        let want: Vec<&[FactId]> = d.conjuncts().collect();
        assert_eq!(back, want);
        assert_eq!(store.to_dnf(id).unwrap(), d);
        assert_eq!(store.exact_len(id), Some(3));
        // Neighbours in the pool do not bleed into each other.
        let other = store.intern_exact(Dnf::var(fid(1)).conjuncts());
        assert_ne!(other, id);
        assert_eq!(store.to_dnf(id).unwrap(), d);
        assert_eq!(store.to_dnf(other).unwrap(), Dnf::var(fid(1)));
    }

    #[test]
    fn interning_charges_bytes_only_for_new_antichains() {
        let mut store = SummaryStore::new();
        let mut d = Dnf::unit(vec![fid(1), fid(2)]);
        d.push(vec![fid(3)]);
        d.minimize();
        let (pool0, est0) = (store.pool_bytes(), store.estimated_bytes());
        let id = store.intern_exact(d.conjuncts());
        let slot = std::mem::size_of::<Slot>() + 4;
        // One slot, two conjunct bounds, three literals.
        assert_eq!(store.pool_bytes(), pool0 + slot + 2 * 4 + 3 * 4);
        assert!(store.estimated_bytes() >= est0 + store.pool_bytes() - pool0);
        let (pool1, est1) = (store.pool_bytes(), store.estimated_bytes());
        assert_eq!(store.intern_exact(d.conjuncts()), id);
        assert_eq!((store.pool_bytes(), store.estimated_bytes()), (pool1, est1));
        let g = store.intern_digest(0xfeed);
        assert_eq!(store.pool_bytes(), pool1 + slot + 16);
        let pool2 = store.pool_bytes();
        let est2 = store.estimated_bytes();
        assert_eq!(store.intern_digest(0xfeed), g);
        assert_eq!((store.pool_bytes(), store.estimated_bytes()), (pool2, est2));
    }

    #[test]
    fn oversized_antichains_degrade_to_equal_digests() {
        // Build two structurally different trees with the same (large)
        // explanation antichain: an OR of > CUTOFF incomparable 2-fact
        // alternatives, assembled in different orders.
        let build = |f: &mut Forest, rev: bool| {
            let n = EXACT_CONJUNCT_CUTOFF as u32 + 8;
            let mut alts = Vec::new();
            for i in 0..n {
                let l1 = f.leaf(fid(1000 + 2 * i));
                let l2 = f.leaf(fid(1001 + 2 * i));
                alts.push(f.node(Label::And, fid(7), &[l1, l2]));
            }
            if rev {
                alts.reverse();
            }
            f.collapse(&alts)
        };
        let mut f = Forest::new();
        let t1 = build(&mut f, false);
        let t2 = build(&mut f, true);
        assert_ne!(t1, t2);
        let mut store = SummaryStore::new();
        let s1 = summarize(&f, t1, &mut store);
        let s2 = summarize(&f, t2, &mut store);
        assert_eq!(
            store.exact_len(s1),
            None,
            "antichain above cutoff must degrade"
        );
        assert_eq!(s1, s2, "digest over the canonical form is order-blind");
        assert!(store.to_dnf(s1).is_none());
        // Stable: a memo hit and a fresh store agree on the digest tier.
        assert_eq!(summarize(&f, t1, &mut store), s1);
        let mut fresh = SummaryStore::new();
        let r = summarize(&f, t2, &mut fresh);
        assert_eq!(fresh.digest(r), store.digest(s1));
    }

    #[test]
    fn summaries_are_deterministic_across_forest_rebuilds() {
        let mut f = Forest::new();
        let a = f.leaf(fid(1));
        let b = f.leaf(fid(2));
        let t1 = f.node(Label::And, fid(10), &[a, b]);
        let t2 = f.node(Label::And, fid(10), &[b]);
        let or = f.collapse(&[t1, t2]);
        let root = f.node(Label::And, fid(11), &[or, a]);
        let g = Forest::from_records(&f.export_records()).unwrap();
        let mut c1 = SummaryStore::new();
        let mut c2 = SummaryStore::new();
        let (s1, s2) = (summarize(&f, root, &mut c1), summarize(&g, root, &mut c2));
        assert_eq!(c1.to_dnf(s1), c2.to_dnf(s2));
    }
}
