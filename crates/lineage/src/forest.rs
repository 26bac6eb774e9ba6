//! The structure-shared derivation forest.
//!
//! A derivation tree (Definition 2 of the paper) is *not* materialized:
//! each stored tree is a [`TreeId`] into a global arena whose nodes hold
//! the root fact, an AND/OR label, and the ids of the child trees (which
//! live in the parents' trigger-graph nodes). This is the "structure
//! sharing" of Section 4.1: reconstructing a tree, its unfolding, or its
//! lineage walks the arena on demand.
//!
//! Nodes are hash-consed — creating the same `(label, fact, children)`
//! node twice yields the same id — which both saves memory and makes the
//! memoized lineage extraction effective.
//!
//! Every node carries a 64-bit Bloom-style *fact signature*: the union of
//! the signatures of its children plus its own fact's bit. Signatures give
//! a fast negative answer to "does fact α occur inside this tree?", the
//! hot question of the redundancy check (Algorithm 1, line 9).

use ltg_datalog::fxhash::{hash_u64, FxHashMap};
use ltg_storage::FactId;

/// A derivation tree in the forest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TreeId(pub u32);

impl TreeId {
    /// Index into the owning [`Forest`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Node label (Section 4.1 / Section 5): AND nodes need *all* children to
/// hold; OR nodes (introduced by collapsing) need *one*.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Label {
    /// Default label: the conjunction of the children derives the fact.
    And,
    /// Collapsed label: each child is an alternative derivation.
    Or,
}

#[derive(Clone, Copy)]
struct NodeMeta {
    fact: FactId,
    label: Label,
    /// Offset/len into the children pool.
    offset: u32,
    len: u32,
    /// Bloom signature of the facts occurring in the tree.
    sig: u64,
}

/// Arena of hash-consed derivation-tree nodes.
#[derive(Default)]
pub struct Forest {
    nodes: Vec<NodeMeta>,
    children: Vec<TreeId>,
    /// hash(label, fact, children) → the newest node with that hash;
    /// `next` links each node to the next older one with the same hash
    /// (intrusive chaining: no per-bucket allocation).
    heads: FxHashMap<u64, u32>,
    next: Vec<u32>,
}

/// End of a hash chain.
const NIL: u32 = u32::MAX;

/// The signature bit of one fact.
#[inline]
pub fn fact_sig(fact: FactId) -> u64 {
    1u64 << (hash_u64(fact.0 as u64) & 63)
}

fn node_hash(label: Label, fact: FactId, children: &[TreeId]) -> u64 {
    let mut h = (fact.0 as u64) ^ ((label == Label::Or) as u64) << 40;
    for c in children {
        h = hash_u64(h ^ (c.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    hash_u64(h)
}

impl Forest {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// A leaf tree: an extensional fact standing for itself.
    pub fn leaf(&mut self, fact: FactId) -> TreeId {
        self.node(Label::And, fact, &[])
    }

    /// Interns a node; `(label, fact, children)` triples are deduplicated.
    pub fn node(&mut self, label: Label, fact: FactId, children: &[TreeId]) -> TreeId {
        let h = node_hash(label, fact, children);
        let head = self.heads.get(&h).copied().unwrap_or(NIL);
        let mut cand = head;
        while cand != NIL {
            let m = &self.nodes[cand as usize];
            if m.fact == fact && m.label == label {
                let start = m.offset as usize;
                if &self.children[start..start + m.len as usize] == children {
                    return TreeId(cand);
                }
            }
            cand = self.next[cand as usize];
        }
        let mut sig = fact_sig(fact);
        for c in children {
            sig |= self.nodes[c.index()].sig;
        }
        let id = u32::try_from(self.nodes.len()).expect("forest overflow");
        let offset = u32::try_from(self.children.len()).expect("children pool overflow");
        self.children.extend_from_slice(children);
        self.nodes.push(NodeMeta {
            fact,
            label,
            offset,
            len: children.len() as u32,
            sig,
        });
        self.next.push(head);
        self.heads.insert(h, id);
        TreeId(id)
    }

    /// Collapses several trees with the same root fact into one OR-labeled
    /// tree (Definition 4). Duplicate alternatives are dropped (keeping
    /// first-occurrence order); a single distinct survivor is returned
    /// bare instead of wrapped in a 1-way OR. Panics in debug builds if
    /// roots disagree.
    pub fn collapse(&mut self, trees: &[TreeId]) -> TreeId {
        debug_assert!(!trees.is_empty(), "collapse requires at least one tree");
        let fact = self.fact(trees[0]);
        debug_assert!(
            trees.iter().all(|&t| self.fact(t) == fact),
            "collapse requires a common root fact"
        );
        let mut distinct: Vec<TreeId> = Vec::with_capacity(trees.len());
        for &t in trees {
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        if distinct.len() == 1 {
            return distinct[0];
        }
        self.node(Label::Or, fact, &distinct)
    }

    /// Root fact of a tree.
    #[inline]
    pub fn fact(&self, t: TreeId) -> FactId {
        self.nodes[t.index()].fact
    }

    /// Label of the root node.
    #[inline]
    pub fn label(&self, t: TreeId) -> Label {
        self.nodes[t.index()].label
    }

    /// Child trees of the root node.
    #[inline]
    pub fn children(&self, t: TreeId) -> &[TreeId] {
        let m = &self.nodes[t.index()];
        let start = m.offset as usize;
        &self.children[start..start + m.len as usize]
    }

    /// True for leaves (no children).
    #[inline]
    pub fn is_leaf(&self, t: TreeId) -> bool {
        self.nodes[t.index()].len == 0
    }

    /// Bloom signature of the facts inside the tree.
    #[inline]
    pub fn sig(&self, t: TreeId) -> u64 {
        self.nodes[t.index()].sig
    }

    /// Quick test: can `fact` possibly occur inside `t`? A `false` answer
    /// is definitive; `true` may be a false positive.
    #[inline]
    pub fn may_contain(&self, t: TreeId, fact: FactId) -> bool {
        self.sig(t) & fact_sig(fact) != 0
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Estimated live bytes, by capacity.
    pub fn estimated_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeMeta>()
            + self.children.capacity() * std::mem::size_of::<TreeId>()
            + self.next.capacity() * 4
            + crate::table_bytes(self.heads.capacity(), 12)
    }

    /// Flattens the *entire* arena into index-based records, one per
    /// node in id order: `(root fact, label, children)` — the raw dump,
    /// garbage nodes included, whose [`Forest::from_records`] roundtrip
    /// reproduces every [`TreeId`] verbatim. The engine's snapshot path
    /// does *not* use this: it exports a live-trees-only subset under
    /// an order-preserving renumbering (see
    /// `ltg_core::LtgEngine::export_state`), which `from_records`
    /// rebuilds just the same since children always precede parents.
    pub fn export_records(&self) -> Vec<(FactId, Label, Vec<TreeId>)> {
        (0..self.nodes.len() as u32)
            .map(TreeId)
            .map(|t| (self.fact(t), self.label(t), self.children(t).to_vec()))
            .collect()
    }

    /// Rebuilds a forest from [`Forest::export_records`] output,
    /// re-interning every node in order. Hash-consing, children pool and
    /// Bloom signatures are reconstructed; the structure sharing of the
    /// exported forest comes back exactly because children precede their
    /// parents in id order. Returns `None` when a record references a
    /// not-yet-interned child or duplicates an earlier node (a corrupt
    /// snapshot, not a bug).
    pub fn from_records(records: &[(FactId, Label, Vec<TreeId>)]) -> Option<Self> {
        let mut forest = Forest::new();
        for (i, (fact, label, children)) in records.iter().enumerate() {
            if children.iter().any(|c| c.index() >= i) {
                return None;
            }
            let t = forest.node(*label, *fact, children);
            if t.index() != i {
                return None;
            }
        }
        Some(forest)
    }

    /// Number of tree nodes reachable from `t` (counting shared nodes
    /// once). Useful for statistics and tests.
    pub fn reachable_size(&self, t: TreeId) -> usize {
        let mut seen = ltg_datalog::FxHashSet::default();
        let mut stack = vec![t];
        while let Some(n) = stack.pop() {
            if seen.insert(n) {
                stack.extend(self.children(n).iter().copied());
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u32) -> FactId {
        FactId(i)
    }

    #[test]
    fn leaves_are_hash_consed() {
        let mut f = Forest::new();
        let a = f.leaf(fid(1));
        let b = f.leaf(fid(1));
        let c = f.leaf(fid(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(f.len(), 2);
        assert!(f.is_leaf(a));
    }

    #[test]
    fn and_nodes_hold_children() {
        let mut f = Forest::new();
        let l1 = f.leaf(fid(1));
        let l2 = f.leaf(fid(2));
        let t = f.node(Label::And, fid(10), &[l1, l2]);
        assert_eq!(f.fact(t), fid(10));
        assert_eq!(f.label(t), Label::And);
        assert_eq!(f.children(t), &[l1, l2]);
        assert!(!f.is_leaf(t));
    }

    #[test]
    fn nodes_are_hash_consed_structurally() {
        let mut f = Forest::new();
        let l1 = f.leaf(fid(1));
        let l2 = f.leaf(fid(2));
        let t1 = f.node(Label::And, fid(10), &[l1, l2]);
        let t2 = f.node(Label::And, fid(10), &[l1, l2]);
        assert_eq!(t1, t2);
        // Different order = different tree.
        let t3 = f.node(Label::And, fid(10), &[l2, l1]);
        assert_ne!(t1, t3);
        // Different label = different tree.
        let t4 = f.node(Label::Or, fid(10), &[l1, l2]);
        assert_ne!(t1, t4);
    }

    #[test]
    fn signature_covers_descendants() {
        let mut f = Forest::new();
        let l1 = f.leaf(fid(1));
        let l2 = f.leaf(fid(2));
        let t = f.node(Label::And, fid(10), &[l1, l2]);
        assert!(f.may_contain(t, fid(1)));
        assert!(f.may_contain(t, fid(2)));
        assert!(f.may_contain(t, fid(10)));
        // Signatures of disjoint facts are *usually* distinguishable; test a
        // few to avoid relying on a specific non-collision.
        let misses = (100..164u32).filter(|&i| !f.may_contain(t, fid(i))).count();
        assert!(misses > 32, "signature should reject most foreign facts");
    }

    #[test]
    fn collapse_builds_or_node() {
        let mut f = Forest::new();
        let l1 = f.leaf(fid(1));
        let l2 = f.leaf(fid(2));
        let t1 = f.node(Label::And, fid(10), &[l1]);
        let t2 = f.node(Label::And, fid(10), &[l2]);
        let c = f.collapse(&[t1, t2]);
        assert_eq!(f.label(c), Label::Or);
        assert_eq!(f.fact(c), fid(10));
        assert_eq!(f.children(c), &[t1, t2]);
    }

    #[test]
    fn collapse_dedups_identical_alternatives() {
        let mut f = Forest::new();
        let l1 = f.leaf(fid(1));
        let l2 = f.leaf(fid(2));
        let t1 = f.node(Label::And, fid(10), &[l1]);
        let t2 = f.node(Label::And, fid(10), &[l2]);
        // All-duplicate input: no OR node is built, the tree comes back bare.
        let before = f.len();
        assert_eq!(f.collapse(&[t1, t1]), t1);
        assert_eq!(f.len(), before);
        // Mixed duplicates: the OR keeps one copy of each alternative, in
        // first-occurrence order.
        let c = f.collapse(&[t1, t2, t1, t2]);
        assert_eq!(f.label(c), Label::Or);
        assert_eq!(f.children(c), &[t1, t2]);
        // And the deduped bundle hash-conses with the clean one.
        assert_eq!(f.collapse(&[t1, t2]), c);
    }

    #[test]
    fn reachable_size_counts_shared_once() {
        let mut f = Forest::new();
        let l = f.leaf(fid(1));
        let t1 = f.node(Label::And, fid(10), &[l, l]);
        // l counted once even though referenced twice.
        assert_eq!(f.reachable_size(t1), 2);
        let t2 = f.node(Label::And, fid(11), &[t1, l]);
        assert_eq!(f.reachable_size(t2), 3);
    }

    #[test]
    fn record_roundtrip_preserves_ids_sigs_and_consing() {
        let mut f = Forest::new();
        let l1 = f.leaf(fid(1));
        let l2 = f.leaf(fid(2));
        let t1 = f.node(Label::And, fid(10), &[l1, l2]);
        let t2 = f.node(Label::And, fid(10), &[l2, l1]);
        let or = f.collapse(&[t1, t2]);
        let top = f.node(Label::And, fid(11), &[or, l1]);

        let records = f.export_records();
        let mut g = Forest::from_records(&records).unwrap();
        assert_eq!(g.len(), f.len());
        for i in 0..f.len() as u32 {
            let t = TreeId(i);
            assert_eq!(g.fact(t), f.fact(t));
            assert_eq!(g.label(t), f.label(t));
            assert_eq!(g.children(t), f.children(t));
            assert_eq!(g.sig(t), f.sig(t));
        }
        // Hash-consing still works after the restore: re-interning an
        // existing triple yields the old id, a fresh one the next id.
        assert_eq!(g.node(Label::And, fid(11), &[or, l1]), top);
        let fresh = g.node(Label::And, fid(12), &[or]);
        assert_eq!(fresh.index(), f.len());
    }

    #[test]
    fn from_records_rejects_corrupt_input() {
        // Forward reference.
        let fwd = vec![(fid(1), Label::And, vec![TreeId(1)])];
        assert!(Forest::from_records(&fwd).is_none());
        // Self reference.
        let selfref = vec![(fid(1), Label::And, vec![TreeId(0)])];
        assert!(Forest::from_records(&selfref).is_none());
        // Duplicate node (hash-conses to the earlier id).
        let dup = vec![(fid(1), Label::And, vec![]), (fid(1), Label::And, vec![])];
        assert!(Forest::from_records(&dup).is_none());
    }

    #[test]
    fn bytes_grow() {
        let mut f = Forest::new();
        let before = f.estimated_bytes();
        let mut prev = f.leaf(fid(0));
        for i in 1..100 {
            prev = f.node(Label::And, fid(i), &[prev]);
        }
        assert!(f.estimated_bytes() > before);
    }
}
