//! Rule instantiation by backtracking hash join.
//!
//! Shared between the trigger-graph engine and the `TcP`-family baselines
//! (`ltg-baselines`): given a rule and one fact collection per premise
//! atom, enumerates every term mapping (Section 2) as a [`JoinRow`].
//!
//! Protocol: compute the binding masks with [`binding_masks`], make sure
//! every input relation has an index for its mask
//! ([`Relation::ensure_index`]), then call [`join`].

use crate::error::EngineError;
use ltg_datalog::fxhash::FxHashSet;
use ltg_datalog::{Atom, Rule, Substitution, Sym, Term};
use ltg_storage::{FactId, FactStore, PatternMask, Relation, ResourceMeter};

/// One term mapping: the instantiated head tuple plus the body facts that
/// matched each premise position.
pub struct JoinRow {
    /// Constants of the instantiated conclusion.
    pub head_args: Box<[Sym]>,
    /// The fact matched at each premise position.
    pub body_facts: Box<[FactId]>,
}

/// The binding-pattern mask of each premise atom under left-to-right
/// evaluation: position `i` of atom `j` is bound iff it holds a constant
/// or a variable bound by an earlier atom.
pub fn binding_masks(rule: &Rule) -> Vec<u32> {
    let mut bound = vec![false; rule.n_vars];
    let mut masks = Vec::with_capacity(rule.body.len());
    for atom in &rule.body {
        let mut mask = 0u32;
        for (i, t) in atom.terms.iter().enumerate() {
            let is_bound = match t {
                Term::Const(_) => true,
                Term::Var(v) => bound[v.index()],
            };
            if is_bound {
                mask |= 1 << i;
            }
        }
        masks.push(mask);
        for v in atom.vars() {
            bound[v.index()] = true;
        }
    }
    masks
}

/// The probe of a query atom: the mask of its constant positions and
/// their values in position order. Positions past the mask's width stay
/// unbound; [`tuple_matcher`] still checks them.
pub fn query_pattern(query: &Atom) -> (PatternMask, Vec<Sym>) {
    let mut mask = 0;
    let mut key = Vec::new();
    for (i, t) in query
        .terms
        .iter()
        .enumerate()
        .take(PatternMask::BITS as usize)
    {
        if let Term::Const(c) = t {
            mask |= 1 << i;
            key.push(*c);
        }
    }
    (mask, key)
}

/// [`Atom::match_tuple`] as a reusable test of ground tuples: constants
/// must match and repeated variables must bind consistently.
pub fn tuple_matcher(query: &Atom) -> impl FnMut(&[Sym]) -> bool + '_ {
    let n_vars = query.vars().map(|v| v.index() + 1).max().unwrap_or(0);
    let mut subst = Substitution::new(n_vars);
    move |args| {
        subst.rollback(0);
        args.len() == query.terms.len() && query.match_tuple(args, &mut subst)
    }
}

/// Enumerates all instantiations of `rule` where premise atom `j` matches
/// a fact of `rels[j]`. Indexes for `masks` must be prepared.
pub fn join(
    rule: &Rule,
    masks: &[u32],
    rels: &[&Relation],
    store: &FactStore,
    meter: &ResourceMeter,
    out: &mut Vec<JoinRow>,
) -> Result<(), EngineError> {
    join_limited(rule, masks, rels, store, meter, out, usize::MAX)
}

/// Like [`join`], but stops (successfully) once `max_rows` rows have been
/// collected. Used where only a sample of the instantiations is needed
/// (QueryGen's draft evaluation, Appendix D step three).
#[allow(clippy::too_many_arguments)]
pub fn join_limited(
    rule: &Rule,
    masks: &[u32],
    rels: &[&Relation],
    store: &FactStore,
    meter: &ResourceMeter,
    out: &mut Vec<JoinRow>,
    max_rows: usize,
) -> Result<(), EngineError> {
    debug_assert_eq!(rels.len(), rule.body.len());
    let mut subst = Substitution::new(rule.n_vars);
    let mut facts = Vec::with_capacity(rule.body.len());
    // Sampling joins also bound the *search* (a row cap alone can leave
    // the backtracking exploring a huge cross product that yields few
    // rows): one candidate probe = one step.
    let mut steps: usize = if max_rows == usize::MAX {
        usize::MAX
    } else {
        max_rows.saturating_mul(4096)
    };
    join_rec(
        rule, masks, rels, store, 0, &mut subst, &mut facts, out, meter, max_rows, &mut steps,
    )
}

/// Per-position fact restriction of a semi-naive delta join.
///
/// One delta join evaluates the rule with the *changed* facts of exactly
/// one premise position (the sub-pivot) and the full relations at the
/// others; positions whose input also changed but that precede the
/// sub-pivot are restricted to their *old* facts so every row carrying
/// at least one changed fact is enumerated exactly once across the
/// sub-pivots (the classic semi-naive sum of per-position delta joins).
#[derive(Clone, Copy)]
pub enum PosSpec<'a> {
    /// No restriction: every fact of the relation.
    Full,
    /// Only the changed facts (the sub-pivot position).
    Delta(&'a FxHashSet<FactId>),
    /// Only the *unchanged* facts (changed positions before the
    /// sub-pivot).
    Except(&'a FxHashSet<FactId>),
}

impl PosSpec<'_> {
    #[inline]
    fn admits(&self, f: FactId) -> bool {
        match self {
            PosSpec::Full => true,
            PosSpec::Delta(set) => set.contains(&f),
            PosSpec::Except(set) => !set.contains(&f),
        }
    }
}

/// One delta join: like [`join`], but premise position `j` only matches
/// facts admitted by `specs[j]`. Candidates are still enumerated through
/// the relations' binding-pattern indexes (prepared by the caller), so
/// the enumeration order is a subsequence of the full join's — delta
/// passes stay deterministic. `probes` counts the candidate facts
/// examined (the `delta_join_probes` statistic).
#[allow(clippy::too_many_arguments)]
pub fn join_delta(
    rule: &Rule,
    masks: &[u32],
    rels: &[&Relation],
    specs: &[PosSpec<'_>],
    store: &FactStore,
    meter: &ResourceMeter,
    out: &mut Vec<JoinRow>,
    probes: &mut u64,
) -> Result<(), EngineError> {
    debug_assert_eq!(rels.len(), rule.body.len());
    debug_assert_eq!(specs.len(), rule.body.len());
    let mut subst = Substitution::new(rule.n_vars);
    let mut facts = Vec::with_capacity(rule.body.len());
    join_delta_rec(
        rule, masks, rels, specs, store, 0, &mut subst, &mut facts, out, meter, probes,
    )
}

#[allow(clippy::too_many_arguments)]
fn join_delta_rec(
    rule: &Rule,
    masks: &[u32],
    rels: &[&Relation],
    specs: &[PosSpec<'_>],
    store: &FactStore,
    j: usize,
    subst: &mut Substitution,
    facts: &mut Vec<FactId>,
    out: &mut Vec<JoinRow>,
    meter: &ResourceMeter,
    probes: &mut u64,
) -> Result<(), EngineError> {
    if j == rule.body.len() {
        let head_args = rule
            .head
            .apply(subst)
            .expect("range-restricted rule fully bound");
        out.push(JoinRow {
            head_args: head_args.into_boxed_slice(),
            body_facts: facts.clone().into_boxed_slice(),
        });
        if out.len() % 4096 == 0 {
            meter.check()?;
        }
        return Ok(());
    }
    let atom = &rule.body[j];
    let mask = masks[j];
    let mut key: Vec<Sym> = Vec::with_capacity(atom.terms.len());
    for (i, t) in atom.terms.iter().enumerate() {
        if mask & (1 << i) != 0 {
            let sym = match t {
                Term::Const(c) => *c,
                Term::Var(v) => subst.get(*v).expect("bound variable"),
            };
            key.push(sym);
        }
    }
    for &f in rels[j].probe_ready(mask, &key) {
        *probes += 1;
        if *probes % 4096 == 0 {
            meter.check()?;
        }
        if !specs[j].admits(f) {
            continue;
        }
        let mark = subst.mark();
        if atom.match_tuple(store.args(f), subst) {
            facts.push(f);
            join_delta_rec(
                rule,
                masks,
                rels,
                specs,
                store,
                j + 1,
                subst,
                facts,
                out,
                meter,
                probes,
            )?;
            facts.pop();
        }
        subst.rollback(mark);
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn join_rec(
    rule: &Rule,
    masks: &[u32],
    rels: &[&Relation],
    store: &FactStore,
    j: usize,
    subst: &mut Substitution,
    facts: &mut Vec<FactId>,
    out: &mut Vec<JoinRow>,
    meter: &ResourceMeter,
    max_rows: usize,
    steps: &mut usize,
) -> Result<(), EngineError> {
    if out.len() >= max_rows || *steps == 0 {
        return Ok(());
    }
    if j == rule.body.len() {
        let head_args = rule
            .head
            .apply(subst)
            .expect("range-restricted rule fully bound");
        out.push(JoinRow {
            head_args: head_args.into_boxed_slice(),
            body_facts: facts.clone().into_boxed_slice(),
        });
        if out.len() % 4096 == 0 {
            meter.check()?;
        }
        return Ok(());
    }
    let atom = &rule.body[j];
    let mask = masks[j];
    let mut key: Vec<Sym> = Vec::with_capacity(atom.terms.len());
    for (i, t) in atom.terms.iter().enumerate() {
        if mask & (1 << i) != 0 {
            let sym = match t {
                Term::Const(c) => *c,
                Term::Var(v) => subst.get(*v).expect("bound variable"),
            };
            key.push(sym);
        }
    }
    for &f in rels[j].probe_ready(mask, &key) {
        if *steps == 0 {
            return Ok(());
        }
        *steps = steps.saturating_sub(1);
        let mark = subst.mark();
        if atom.match_tuple(store.args(f), subst) {
            facts.push(f);
            join_rec(
                rule,
                masks,
                rels,
                store,
                j + 1,
                subst,
                facts,
                out,
                meter,
                max_rows,
                steps,
            )?;
            facts.pop();
            if out.len() >= max_rows {
                subst.rollback(mark);
                return Ok(());
            }
        }
        subst.rollback(mark);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltg_datalog::parse_program;
    use ltg_storage::Database;

    #[test]
    fn masks_follow_sideways_binding() {
        let p = parse_program("e(a,b). q(X,Y) :- e(X,Z), e(Z,Y).").unwrap();
        let masks = binding_masks(&p.rules[0]);
        // First atom: nothing bound. Second: Z (position 0) bound.
        assert_eq!(masks, vec![0b00, 0b01]);
    }

    #[test]
    fn constants_are_always_bound() {
        let p = parse_program("e(a,b). q(X) :- e(a, X).").unwrap();
        let masks = binding_masks(&p.rules[0]);
        assert_eq!(masks, vec![0b01]);
    }

    #[test]
    fn join_enumerates_paths() {
        let p = parse_program(
            "e(a,b). e(b,c). e(a,c). e(c,b).
             q(X,Y) :- e(X,Z), e(Z,Y).",
        )
        .unwrap();
        let mut db = Database::from_program(&p);
        let rule = &p.rules[0];
        let masks = binding_masks(rule);
        for (j, atom) in rule.body.iter().enumerate() {
            db.ensure_edb_index(atom.pred, masks[j]);
        }
        let e = p.preds.lookup("e", 2).unwrap();
        let rels = vec![db.edb_relation_ref(e), db.edb_relation_ref(e)];
        let meter = ResourceMeter::unlimited();
        let mut out = Vec::new();
        join(rule, &masks, &rels, &db.store, &meter, &mut out).unwrap();
        // Paths of length 2: a→b→c, b→c→b, a→c→b, c→b→c.
        assert_eq!(out.len(), 4);
        for row in &out {
            assert_eq!(row.body_facts.len(), 2);
            assert_eq!(row.head_args.len(), 2);
        }
    }

    #[test]
    fn delta_join_covers_each_changed_row_exactly_once() {
        let p = parse_program(
            "e(a,b). e(b,c). e(a,c). e(c,b).
             q(X,Y) :- e(X,Z), e(Z,Y).",
        )
        .unwrap();
        let mut db = Database::from_program(&p);
        let rule = &p.rules[0];
        let masks = binding_masks(rule);
        for (j, atom) in rule.body.iter().enumerate() {
            db.ensure_edb_index(atom.pred, masks[j]);
        }
        let e = p.preds.lookup("e", 2).unwrap();
        let rels = vec![db.edb_relation_ref(e), db.edb_relation_ref(e)];
        let meter = ResourceMeter::unlimited();

        let mut full = Vec::new();
        join(rule, &masks, &rels, &db.store, &meter, &mut full).unwrap();

        // Pretend e(b,c) and e(c,b) are the wave's delta. Both premise
        // positions read the changed relation, so the semi-naive sum is
        // Delta×Full (sub-pivot 0) + Except×Delta (sub-pivot 1).
        let ids: Vec<FactId> = db.store.iter().collect();
        let delta: FxHashSet<FactId> = [ids[1], ids[3]].into_iter().collect();
        let mut out = Vec::new();
        let mut probes = 0u64;
        join_delta(
            rule,
            &masks,
            &rels,
            &[PosSpec::Delta(&delta), PosSpec::Full],
            &db.store,
            &meter,
            &mut out,
            &mut probes,
        )
        .unwrap();
        join_delta(
            rule,
            &masks,
            &rels,
            &[PosSpec::Except(&delta), PosSpec::Delta(&delta)],
            &db.store,
            &meter,
            &mut out,
            &mut probes,
        )
        .unwrap();
        assert!(probes > 0);

        // Every full-join row touches a delta fact here, so the union
        // must be the full row set — each row exactly once.
        let key = |r: &JoinRow| (r.head_args.to_vec(), r.body_facts.to_vec());
        let mut got: Vec<_> = out.iter().map(key).collect();
        let mut want: Vec<_> = full.iter().map(key).collect();
        got.sort();
        want.sort();
        assert_eq!(got.len(), 4);
        assert_eq!(got, want);
    }

    #[test]
    fn repeated_variable_filters() {
        let p = parse_program(
            "e(a,a). e(a,b).
             loop(X) :- e(X,X).",
        )
        .unwrap();
        let mut db = Database::from_program(&p);
        let rule = &p.rules[0];
        let masks = binding_masks(rule);
        let e = p.preds.lookup("e", 2).unwrap();
        db.ensure_edb_index(e, masks[0]);
        let rels = vec![db.edb_relation_ref(e)];
        let meter = ResourceMeter::unlimited();
        let mut out = Vec::new();
        join(rule, &masks, &rels, &db.store, &meter, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        let a = p.symbols.lookup("a").unwrap();
        assert_eq!(out[0].head_args.as_ref(), &[a]);
    }
}
