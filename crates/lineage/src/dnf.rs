//! Lineage formulas in Disjunctive Normal Form.
//!
//! The lineage of an atom is the disjunction of its explanations
//! (Section 2); each explanation is a conjunction of extensional facts.
//! Negation-free programs produce *monotone* formulas, for which the
//! minimized DNF (the antichain of minimal conjuncts — the prime
//! implicants) is a **canonical form**: two monotone DNFs are logically
//! equivalent iff their minimized forms are equal. This is how the
//! `TcP`/`ΔTcP` baselines implement the paper's "Boolean formula
//! comparison" (limitation L1) faithfully.

use ltg_datalog::fxhash::FxHashSet;
use ltg_storage::FactId;

/// Error raised when a lineage exceeds the configured disjunct budget
/// (mirrors the paper's "> 1M disjuncts" bail-out in Section 6.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LineageTooLarge {
    /// The number of conjuncts that would have been produced.
    pub conjuncts: usize,
}

impl std::fmt::Display for LineageTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lineage exceeds budget ({} disjuncts)", self.conjuncts)
    }
}

impl std::error::Error for LineageTooLarge {}

/// A DNF over extensional facts. Each conjunct is sorted and duplicate-free;
/// the conjunct list itself may contain redundancy until
/// [`Dnf::minimize`] is called.
#[derive(Clone, Default, PartialEq, Eq, Hash, Debug)]
pub struct Dnf {
    conjuncts: Vec<Box<[FactId]>>,
}

impl Dnf {
    /// The unsatisfiable DNF (no conjuncts).
    pub fn ff() -> Self {
        Dnf::default()
    }

    /// The valid DNF (one empty conjunct).
    pub fn tt() -> Self {
        Dnf {
            conjuncts: vec![Box::from([])],
        }
    }

    /// A DNF with a single conjunct (sorted/deduped here).
    pub fn unit(mut facts: Vec<FactId>) -> Self {
        facts.sort_unstable();
        facts.dedup();
        Dnf {
            conjuncts: vec![facts.into_boxed_slice()],
        }
    }

    /// A DNF consisting of one single-fact conjunct.
    pub fn var(fact: FactId) -> Self {
        Dnf {
            conjuncts: vec![Box::from([fact])],
        }
    }

    /// Appends a conjunct (sorted/deduped here).
    pub fn push(&mut self, mut facts: Vec<FactId>) {
        facts.sort_unstable();
        facts.dedup();
        self.conjuncts.push(facts.into_boxed_slice());
    }

    /// Disjunction: appends all conjuncts of `other`.
    pub fn or_with(&mut self, other: &Dnf) {
        self.conjuncts.extend(other.conjuncts.iter().cloned());
    }

    /// Disjunction with borrowed conjuncts (each sorted and
    /// duplicate-free, e.g. a `SummaryStore` pool slice).
    pub fn or_conjuncts<'a>(&mut self, other: impl Iterator<Item = &'a [FactId]>) {
        self.conjuncts.extend(other.map(Box::from));
    }

    /// Conjunction: the pairwise merge of the conjunct sets. Errors if the
    /// result would exceed `cap` conjuncts.
    pub fn and(&self, other: &Dnf, cap: usize) -> Result<Dnf, LineageTooLarge> {
        self.and_conjuncts(other.conjuncts(), cap)
    }

    /// [`Dnf::and`] with borrowed conjuncts (each sorted and
    /// duplicate-free).
    pub fn and_conjuncts<'a, I>(&self, other: I, cap: usize) -> Result<Dnf, LineageTooLarge>
    where
        I: ExactSizeIterator<Item = &'a [FactId]> + Clone,
    {
        let size = self.conjuncts.len().saturating_mul(other.len());
        if size > cap {
            return Err(LineageTooLarge { conjuncts: size });
        }
        let mut out = Vec::with_capacity(size);
        for a in &self.conjuncts {
            for b in other.clone() {
                out.push(merge_sorted(a, b));
            }
        }
        Ok(Dnf { conjuncts: out })
    }

    /// Number of conjuncts (disjuncts of the lineage).
    pub fn len(&self) -> usize {
        self.conjuncts.len()
    }

    /// True for the unsatisfiable DNF.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// Total number of literal occurrences.
    pub fn literal_count(&self) -> usize {
        self.conjuncts.iter().map(|c| c.len()).sum()
    }

    /// Iterates over the conjuncts.
    pub fn conjuncts(&self) -> impl ExactSizeIterator<Item = &[FactId]> + Clone {
        self.conjuncts.iter().map(|c| c.as_ref())
    }

    /// The distinct facts mentioned, sorted.
    pub fn variables(&self) -> Vec<FactId> {
        let mut vars: Vec<FactId> = self
            .conjuncts
            .iter()
            .flat_map(|c| c.iter().copied())
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    /// Removes duplicate and absorbed conjuncts (`c` is absorbed by `d`
    /// when `d ⊆ c`), then sorts the conjunct list. For monotone formulas
    /// the result is canonical.
    pub fn minimize(&mut self) {
        // Shorter conjuncts absorb longer ones: process by length.
        self.conjuncts
            .sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        self.conjuncts.dedup();
        let sigs: Vec<u64> = self.conjuncts.iter().map(|c| conjunct_sig(c)).collect();
        let mut kept: Vec<usize> = Vec::with_capacity(self.conjuncts.len());
        let mut keep_flags = vec![true; self.conjuncts.len()];
        'outer: for i in 0..self.conjuncts.len() {
            for &j in &kept {
                // j ⊆ i possible only if j's signature bits are within i's.
                if sigs[j] & !sigs[i] == 0 && is_subset(&self.conjuncts[j], &self.conjuncts[i]) {
                    keep_flags[i] = false;
                    continue 'outer;
                }
            }
            kept.push(i);
        }
        let mut idx = 0;
        self.conjuncts.retain(|_| {
            let keep = keep_flags[idx];
            idx += 1;
            keep
        });
        self.conjuncts.sort_unstable();
    }

    /// Whether this (monotone) DNF absorbs the conjuncts `other` (each
    /// sorted): every one is a superset of some conjunct of `self`, so
    /// `self ∨ other ≡ self`. Signature-prefiltered like
    /// [`Dnf::minimize`]'s absorption pass.
    pub fn absorbs<'a>(&self, other: impl IntoIterator<Item = &'a [FactId]>) -> bool {
        let sigs: Vec<u64> = self.conjuncts().map(conjunct_sig).collect();
        other.into_iter().all(|oc| {
            let osig = conjunct_sig(oc);
            self.conjuncts()
                .zip(&sigs)
                .any(|(c, &sig)| sig & !osig == 0 && is_subset(c, oc))
        })
    }

    /// Logical equivalence for monotone DNFs: equality of minimized forms.
    pub fn equivalent(&self, other: &Dnf) -> bool {
        let mut a = self.clone();
        let mut b = other.clone();
        a.minimize();
        b.minimize();
        a == b
    }

    /// Evaluates the DNF under a world (set of true facts).
    pub fn eval(&self, world: &FxHashSet<FactId>) -> bool {
        self.conjuncts
            .iter()
            .any(|c| c.iter().all(|f| world.contains(f)))
    }

    /// Estimated live bytes.
    pub fn estimated_bytes(&self) -> usize {
        self.conjuncts.len() * std::mem::size_of::<Box<[FactId]>>() + self.literal_count() * 4
    }
}

fn conjunct_sig(c: &[FactId]) -> u64 {
    let mut s = 0u64;
    for f in c {
        s |= crate::forest::fact_sig(*f);
    }
    s
}

fn merge_sorted(a: &[FactId], b: &[FactId]) -> Box<[FactId]> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out.into_boxed_slice()
}

fn is_subset(small: &[FactId], large: &[FactId]) -> bool {
    if small.len() > large.len() {
        return false;
    }
    let mut j = 0;
    for f in small {
        while j < large.len() && large[j] < *f {
            j += 1;
        }
        if j >= large.len() || large[j] != *f {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(i: u32) -> FactId {
        FactId(i)
    }

    #[test]
    fn tt_and_ff_behave() {
        let world = FxHashSet::default();
        assert!(Dnf::tt().eval(&world));
        assert!(!Dnf::ff().eval(&world));
        assert_eq!(Dnf::tt().len(), 1);
        assert_eq!(Dnf::ff().len(), 0);
    }

    #[test]
    fn conjuncts_are_sorted_and_deduped() {
        let d = Dnf::unit(vec![fid(3), fid(1), fid(3), fid(2)]);
        let c: Vec<&[FactId]> = d.conjuncts().collect();
        assert_eq!(c[0], &[fid(1), fid(2), fid(3)]);
    }

    #[test]
    fn and_distributes() {
        // (a ∨ b) ∧ (c) = ac ∨ bc
        let mut ab = Dnf::var(fid(1));
        ab.or_with(&Dnf::var(fid(2)));
        let c = Dnf::var(fid(3));
        let prod = ab.and(&c, 1000).unwrap();
        assert_eq!(prod.len(), 2);
        let cs: Vec<&[FactId]> = prod.conjuncts().collect();
        assert_eq!(cs[0], &[fid(1), fid(3)]);
        assert_eq!(cs[1], &[fid(2), fid(3)]);
    }

    #[test]
    fn and_is_idempotent_within_conjuncts() {
        let a = Dnf::var(fid(1));
        let prod = a.and(&a, 10).unwrap();
        let cs: Vec<&[FactId]> = prod.conjuncts().collect();
        assert_eq!(cs[0], &[fid(1)]);
    }

    #[test]
    fn and_respects_cap() {
        let mut big = Dnf::ff();
        for i in 0..100 {
            big.push(vec![fid(i)]);
        }
        let err = big.and(&big, 100).unwrap_err();
        assert_eq!(err.conjuncts, 10_000);
    }

    #[test]
    fn absorption_removes_supersets() {
        // a ∨ ab ∨ abc  minimizes to  a
        let mut d = Dnf::ff();
        d.push(vec![fid(1), fid(2)]);
        d.push(vec![fid(1)]);
        d.push(vec![fid(1), fid(2), fid(3)]);
        d.minimize();
        assert_eq!(d.len(), 1);
        assert_eq!(d.conjuncts().next().unwrap(), &[fid(1)]);
    }

    #[test]
    fn minimize_keeps_incomparable_conjuncts() {
        let mut d = Dnf::ff();
        d.push(vec![fid(1), fid(2)]);
        d.push(vec![fid(2), fid(3)]);
        d.minimize();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn equivalence_is_order_insensitive() {
        let mut a = Dnf::ff();
        a.push(vec![fid(1)]);
        a.push(vec![fid(2), fid(3)]);
        let mut b = Dnf::ff();
        b.push(vec![fid(3), fid(2)]);
        b.push(vec![fid(1)]);
        b.push(vec![fid(1), fid(5)]); // absorbed by {1}
        assert!(a.equivalent(&b));
        let c = Dnf::var(fid(1));
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn absorbs_matches_absorption_semantics() {
        // a ∨ bc absorbs ab ∨ abc ∨ bcd, but not d.
        let mut u = Dnf::var(fid(1));
        u.push(vec![fid(2), fid(3)]);
        let mut covered = Dnf::unit(vec![fid(1), fid(2)]);
        covered.push(vec![fid(1), fid(2), fid(3)]);
        covered.push(vec![fid(2), fid(3), fid(4)]);
        assert!(u.absorbs(covered.conjuncts()));
        assert!(!u.absorbs(Dnf::var(fid(4)).conjuncts()));
        // ff is absorbed by anything; nothing non-trivial absorbs into ff.
        assert!(u.absorbs(Dnf::ff().conjuncts()));
        assert!(Dnf::ff().absorbs(Dnf::ff().conjuncts()));
        assert!(!Dnf::ff().absorbs(u.conjuncts()));
    }

    #[test]
    fn eval_matches_semantics() {
        // ab ∨ c
        let mut d = Dnf::ff();
        d.push(vec![fid(1), fid(2)]);
        d.push(vec![fid(3)]);
        let mut world = FxHashSet::default();
        assert!(!d.eval(&world));
        world.insert(fid(1));
        assert!(!d.eval(&world));
        world.insert(fid(2));
        assert!(d.eval(&world));
        world.clear();
        world.insert(fid(3));
        assert!(d.eval(&world));
    }

    #[test]
    fn variables_sorted_distinct() {
        let mut d = Dnf::ff();
        d.push(vec![fid(5), fid(1)]);
        d.push(vec![fid(3), fid(1)]);
        assert_eq!(d.variables(), vec![fid(1), fid(3), fid(5)]);
    }

    #[test]
    fn example1_lineage_equivalence() {
        // λ(p(a,b)) = e(a,b) ∨ (e(a,c) ∧ e(c,b)); adding the superfluous
        // explanation e(a,b)∧e(b,c) keeps it equivalent? No — e(a,b)∧e(b,c)
        // is absorbed by e(a,b), so yes.
        let (eab, ebc, eac, ecb) = (fid(1), fid(2), fid(3), fid(4));
        let mut lineage = Dnf::var(eab);
        lineage.push(vec![eac, ecb]);
        let mut with_extra = lineage.clone();
        with_extra.push(vec![eab, ebc]);
        assert!(lineage.equivalent(&with_extra));
    }
}
