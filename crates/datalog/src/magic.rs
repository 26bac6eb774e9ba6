//! Magic-sets transformation (Section 6.2 "QA methodology").
//!
//! Given a query atom, rewrites the rules so that bottom-up evaluation of
//! the rewritten program mimics the top-down, goal-directed evaluation of
//! the query — only derivations relevant to the query bindings are
//! produced. Tsamoura et al. [78] showed the transformation is also sound
//! for probabilistic programs: the transformed program entails the same
//! query facts in every possible world, hence the lineage (and therefore
//! the probability) of every answer is preserved. Magic seed facts are
//! certain (`π = 1`).
//!
//! The implementation is the textbook generalized-magic-sets construction
//! with left-to-right sideways information passing [5, 8].

use crate::canonical::{mixed_preds, split_mixed};
use crate::fxhash::FxHashMap;
use crate::rule::{GroundAtom, Program, Rule};
use crate::symbols::PredId;
use crate::term::{Atom, Term};

/// Result of the transformation.
pub struct MagicProgram {
    /// The rewritten program. Contains the original facts, the magic seed
    /// fact, and the adorned/magic rules. Queries are rewritten to the
    /// adorned query predicate.
    pub program: Program,
    /// The rewritten query atom (same terms, adorned predicate).
    pub query: Atom,
    /// Maps adorned predicates back to the original predicate.
    pub adorned_of: FxHashMap<PredId, PredId>,
}

/// One b/f adornment: `true` = bound.
type Adornment = Vec<bool>;

fn adornment_suffix(a: &Adornment) -> String {
    a.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

/// Applies the magic-sets transformation of `program` for `query`.
///
/// If the query predicate is extensional or the query has no bound
/// argument, the transformation degenerates gracefully (for an EDB query
/// the program is returned with only the query replaced).
///
/// Mixed predicates (facts *and* rules) are split first (see
/// [`split_mixed`]): the adorned copy of a predicate is defined by its
/// rules alone, so its database facts must sit behind a copy rule to
/// reach the rewritten program. Programs without mixed predicates are
/// not copied for this.
pub fn magic_transform(program: &Program, query: &Atom) -> MagicProgram {
    let split;
    let program = if mixed_preds(program).is_empty() {
        program
    } else {
        split = split_mixed(program);
        &split
    };
    let idb = program.idb_mask();

    if !idb[query.pred.index()] {
        // EDB query: nothing to do.
        let mut out = program.clone();
        out.queries = vec![query.clone()];
        return MagicProgram {
            program: out,
            query: query.clone(),
            adorned_of: FxHashMap::default(),
        };
    }

    let mut out = Program {
        symbols: program.symbols.clone(),
        preds: program.preds.clone(),
        rules: Vec::new(),
        facts: program.facts.clone(),
        queries: Vec::new(),
    };

    // Adorned predicate interner: (orig pred, adornment) → adorned pred.
    let mut adorned: FxHashMap<(PredId, Adornment), PredId> = FxHashMap::default();
    // Magic predicate per adorned predicate.
    let mut magic: FxHashMap<PredId, PredId> = FxHashMap::default();
    let mut adorned_of: FxHashMap<PredId, PredId> = FxHashMap::default();
    let mut queue: Vec<(PredId, Adornment)> = Vec::new();

    let intern_adorned = |out: &mut Program,
                          adorned: &mut FxHashMap<(PredId, Adornment), PredId>,
                          magic: &mut FxHashMap<PredId, PredId>,
                          adorned_of: &mut FxHashMap<PredId, PredId>,
                          queue: &mut Vec<(PredId, Adornment)>,
                          pred: PredId,
                          a: Adornment|
     -> PredId {
        if let Some(&p) = adorned.get(&(pred, a.clone())) {
            return p;
        }
        let arity = out.preds.arity(pred);
        let name = format!("{}@{}", out.preds.name(pred), adornment_suffix(&a));
        let ap = out.preds.fresh(&name, arity);
        let n_bound = a.iter().filter(|&&b| b).count();
        let mname = format!("m_{}@{}", out.preds.name(pred), adornment_suffix(&a));
        let mp = out.preds.fresh(&mname, n_bound);
        adorned.insert((pred, a.clone()), ap);
        magic.insert(ap, mp);
        adorned_of.insert(ap, pred);
        queue.push((pred, a));
        ap
    };

    // Adorn the query: constant positions bound, variable positions free.
    let query_adornment: Adornment = query
        .terms
        .iter()
        .map(|t| matches!(t, Term::Const(_)))
        .collect();
    let query_pred_adorned = intern_adorned(
        &mut out,
        &mut adorned,
        &mut magic,
        &mut adorned_of,
        &mut queue,
        query.pred,
        query_adornment.clone(),
    );

    // Seed fact: m_q^a(bound constants), certain.
    let seed_pred = magic[&query_pred_adorned];
    let seed_args: Vec<_> = query.terms.iter().filter_map(|t| t.as_const()).collect();
    out.push_fact(GroundAtom::new(seed_pred, seed_args), 1.0);

    // Process adorned predicates until closure.
    let mut processed = 0usize;
    while processed < queue.len() {
        let (pred, adornment) = queue[processed].clone();
        processed += 1;
        let ap = adorned[&(pred, adornment.clone())];
        let mp = magic[&ap];

        for rule in program.rules.iter().filter(|r| r.head.pred == pred) {
            // Bound variables: head variables at bound positions.
            let mut bound = vec![false; rule.n_vars];
            for (term, &is_bound) in rule.head.terms.iter().zip(&adornment) {
                if is_bound {
                    if let Some(v) = term.as_var() {
                        bound[v.index()] = true;
                    }
                }
            }

            // The magic guard atom for this rule head.
            let guard_terms: Vec<Term> = rule
                .head
                .terms
                .iter()
                .zip(&adornment)
                .filter(|(_, &b)| b)
                .map(|(t, _)| *t)
                .collect();
            let guard = Atom::new(mp, guard_terms);

            let mut new_body: Vec<Atom> = vec![guard.clone()];
            for atom in &rule.body {
                if idb[atom.pred.index()] {
                    // Adorn from the currently bound variables.
                    let a: Adornment = atom
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound[v.index()],
                        })
                        .collect();
                    let sub_ap = intern_adorned(
                        &mut out,
                        &mut adorned,
                        &mut magic,
                        &mut adorned_of,
                        &mut queue,
                        atom.pred,
                        a.clone(),
                    );
                    let sub_mp = magic[&sub_ap];
                    // Magic rule: m_sub(bound args) :- guard, preceding atoms.
                    let m_head_terms: Vec<Term> = atom
                        .terms
                        .iter()
                        .zip(&a)
                        .filter(|(_, &b)| b)
                        .map(|(t, _)| *t)
                        .collect();
                    let m_head = Atom::new(sub_mp, m_head_terms);
                    // Only emit if the magic head is range-restricted by
                    // the preceding atoms (it is, by construction: bound
                    // terms are constants or bound variables).
                    out.rules.push(Rule::new(m_head, new_body.clone()));
                    // Rewritten body atom references the adorned predicate.
                    new_body.push(Atom::new(sub_ap, atom.terms.clone()));
                } else {
                    new_body.push(atom.clone());
                }
                // After evaluating the atom, all its variables are bound.
                for v in atom.vars() {
                    bound[v.index()] = true;
                }
            }

            // Rewritten rule: p^a(head) :- m_p^a(...), body'.
            let new_head = Atom::new(ap, rule.head.terms.clone());
            out.rules.push(Rule::new(new_head, new_body));
        }
    }

    let new_query = Atom::new(query_pred_adorned, query.terms.clone());
    out.queries = vec![new_query.clone()];

    MagicProgram {
        program: out,
        query: new_query,
        adorned_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxhash::FxHashSet;
    use crate::parser::parse_program;
    use crate::symbols::Sym;
    use std::collections::BTreeMap;

    #[test]
    fn edb_query_is_passthrough() {
        let p = parse_program("e(a,b). p(X,Y) :- e(X,Y).").unwrap();
        let e = p.preds.lookup("e", 2).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let q = Atom::new(e, vec![Term::Const(a), Term::Var(crate::term::Var(0))]);
        let m = magic_transform(&p, &q);
        assert_eq!(m.program.rules.len(), p.rules.len());
        assert_eq!(m.query.pred, e);
    }

    #[test]
    fn bound_query_generates_seed_and_guarded_rules() {
        let p = parse_program(
            "e(a,b). e(b,c).
             p(X,Y) :- e(X,Y).
             p(X,Y) :- p(X,Z), p(Z,Y).",
        )
        .unwrap();
        let path = p.preds.lookup("p", 2).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let q = Atom::new(path, vec![Term::Const(a), Term::Var(crate::term::Var(0))]);
        let m = magic_transform(&p, &q);

        // A magic seed fact exists with probability 1.
        let seed = m
            .program
            .facts
            .iter()
            .find(|(f, _)| m.program.preds.name(f.pred).starts_with("m_p@"))
            .expect("seed fact");
        assert_eq!(seed.1, 1.0);
        assert_eq!(seed.0.args, vec![a]);

        // Every rewritten rule for the adorned predicate starts with the
        // magic guard.
        let adorned = m.query.pred;
        for r in m.program.rules.iter().filter(|r| r.head.pred == adorned) {
            let first = &r.body[0];
            assert!(m.program.preds.name(first.pred).starts_with("m_p@"));
        }
        // Recursion produces at least one magic rule.
        assert!(m.program.rules.iter().any(|r| m
            .program
            .preds
            .name(r.head.pred)
            .starts_with("m_p@")));
        assert_eq!(m.adorned_of[&adorned], path);
    }

    #[test]
    fn free_query_still_works() {
        let p = parse_program("e(a,b). p(X,Y) :- e(X,Y).").unwrap();
        let path = p.preds.lookup("p", 2).unwrap();
        let q = Atom::new(
            path,
            vec![
                Term::Var(crate::term::Var(0)),
                Term::Var(crate::term::Var(1)),
            ],
        );
        let m = magic_transform(&p, &q);
        // Seed is the zero-arity magic fact.
        let seed = m
            .program
            .facts
            .iter()
            .find(|(f, _)| m.program.preds.name(f.pred).starts_with("m_p@"))
            .unwrap();
        assert!(seed.0.args.is_empty());
        assert!(m.program.validate().is_ok());
    }

    #[test]
    fn rules_remain_range_restricted() {
        let p = parse_program(
            "e(a,b). s(a).
             p(X,Y) :- e(X,Y).
             p(X,Y) :- p(X,Z), p(Z,Y).
             good(X) :- s(X), p(X, Y).",
        )
        .unwrap();
        let good = p.preds.lookup("good", 1).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let q = Atom::new(good, vec![Term::Const(a)]);
        let m = magic_transform(&p, &q);
        assert!(m.program.validate().is_ok(), "magic output must be safe");
    }

    #[test]
    fn irrelevant_rules_dropped() {
        let p = parse_program(
            "e(a). f(a).
             q(X) :- e(X).
             unrelated(X) :- f(X).",
        )
        .unwrap();
        let qp = p.preds.lookup("q", 1).unwrap();
        let a = p.symbols.lookup("a").unwrap();
        let m = magic_transform(&p, &Atom::new(qp, vec![Term::Const(a)]));
        // The rewritten program contains no rule about `unrelated`.
        assert!(m.program.rules.iter().all(|r| !m
            .program
            .preds
            .name(r.head.pred)
            .contains("unrelated")));
    }

    /// The least model (naive fixpoint) of `program` over the facts
    /// `keep` selects by index.
    fn least_model(program: &Program, keep: impl Fn(usize) -> bool) -> FxHashSet<GroundAtom> {
        let mut model: FxHashSet<GroundAtom> = program
            .facts
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(*i))
            .map(|(_, (f, _))| f.clone())
            .collect();
        loop {
            let mut fresh = Vec::new();
            for rule in &program.rules {
                let mut subst = vec![None; rule.n_vars];
                join(&rule.body, &mut subst, &model, &mut |s| {
                    let args = rule
                        .head
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Const(c) => *c,
                            Term::Var(v) => s[v.index()].expect("range-restricted"),
                        })
                        .collect();
                    fresh.push(GroundAtom::new(rule.head.pred, args));
                });
            }
            let before = model.len();
            model.extend(fresh);
            if model.len() == before {
                return model;
            }
        }
    }

    fn join(
        body: &[Atom],
        subst: &mut Vec<Option<Sym>>,
        model: &FxHashSet<GroundAtom>,
        emit: &mut dyn FnMut(&[Option<Sym>]),
    ) {
        let Some((atom, rest)) = body.split_first() else {
            emit(subst);
            return;
        };
        for fact in model.iter().filter(|f| f.pred == atom.pred) {
            let saved = subst.clone();
            let matched = atom.terms.iter().zip(&fact.args).all(|(t, &a)| match t {
                Term::Const(c) => *c == a,
                Term::Var(v) => *subst[v.index()].get_or_insert(a) == a,
            });
            if matched {
                join(rest, subst, model, emit);
            }
            *subst = saved;
        }
    }

    /// Probability of every fact of `pred` matching `query`'s constants,
    /// by enumerating the possible worlds of the uncertain facts; keyed
    /// by argument names.
    fn answers(program: &Program, pred: PredId, query: &Atom) -> BTreeMap<Vec<String>, f64> {
        let uncertain: Vec<usize> = (0..program.facts.len())
            .filter(|&i| program.facts[i].1 < 1.0)
            .collect();
        let mut out = BTreeMap::new();
        for mask in 0u64..1 << uncertain.len() {
            let in_world = |i: usize| {
                uncertain
                    .iter()
                    .position(|&u| u == i)
                    .is_none_or(|b| mask >> b & 1 == 1)
            };
            let weight: f64 = uncertain
                .iter()
                .enumerate()
                .map(|(b, &i)| {
                    let p = program.facts[i].1;
                    if mask >> b & 1 == 1 {
                        p
                    } else {
                        1.0 - p
                    }
                })
                .product();
            for f in least_model(program, in_world) {
                let matches = query
                    .terms
                    .iter()
                    .zip(&f.args)
                    .all(|(t, &a)| t.as_const().is_none_or(|c| c == a));
                if f.pred == pred && matches {
                    let key = f.args.iter().map(|&a| program.symbols.name(a).to_string());
                    *out.entry(key.collect()).or_insert(0.0) += weight;
                }
            }
        }
        out
    }

    /// A mixed predicate (`worksFor`: facts and a rule) feeding a
    /// recursive one. The adorned copies used to see only what the
    /// rules derive, so `memberOf(alice,uni)`, which rests on the
    /// database fact `worksFor(alice,dept1)`, went missing under magic
    /// sets.
    #[test]
    fn mixed_predicates_keep_their_facts_under_magic_sets() {
        let p = parse_program(
            "0.9::worksFor(alice,dept1). 0.7::headOf(carol,dept3).
             0.6::subOrg(dept1,uni). 0.5::subOrg(dept3,uni).
             worksFor(X,Y):-headOf(X,Y). memberOf(X,Y):-worksFor(X,Y).
             memberOf(X,Z):-memberOf(X,Y),subOrg(Y,Z). query memberOf(X,uni).",
        )
        .unwrap();
        let q = p.queries[0].clone();
        let plain = answers(&p, q.pred, &q);
        let m = magic_transform(&p, &q);
        let magic = answers(&m.program, m.query.pred, &m.query);
        let names: Vec<&str> = magic.keys().map(|k| k[0].as_str()).collect();
        assert_eq!(names, ["alice", "carol"]);
        assert!((magic[&vec!["alice".to_string(), "uni".to_string()]] - 0.54).abs() < 1e-12);
        assert_eq!(plain.len(), magic.len());
        for (k, pa) in &plain {
            assert!((pa - magic[k]).abs() < 1e-12, "{k:?}: {pa} vs {}", magic[k]);
        }
    }

    #[test]
    fn programs_without_mixed_predicates_are_not_split() {
        let p = parse_program("e(a,b). p(X,Y) :- e(X,Y). query p(a,X).").unwrap();
        let m = magic_transform(&p, &p.queries[0]);
        assert_eq!(m.program.facts[0].0.pred, p.facts[0].0.pred);
        let mixed = parse_program("e(a,b). p(b,c). p(X,Y) :- e(X,Y). query p(a,X).").unwrap();
        let m = magic_transform(&mixed, &mixed.queries[0]);
        assert!(m.program.preds.lookup("p@edb", 2).is_some());
    }
}
