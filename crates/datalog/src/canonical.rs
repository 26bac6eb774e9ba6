//! Canonical-form rewriting (Section 4.1, footnote 3 of the paper).
//!
//! Execution graphs assume rules are either *base* (every premise atom is
//! extensional) or *non-base* (every premise atom is intensional). Any rule
//! set can be rewritten into this form by introducing, for each extensional
//! predicate `e` that occurs in a mixed premise, an intensional alias `e'`
//! defined by the base rule `e'(X) ← e(X)`.

use crate::fxhash::FxHashMap;
use crate::rule::{Program, Rule, RuleId};
use crate::symbols::PredId;
use crate::term::{Atom, Term, Var};

/// A program in canonical form, together with provenance of the rewriting.
pub struct CanonicalProgram {
    /// The rewritten program (facts and queries are shared with the input).
    pub program: Program,
    /// Rules whose premises reference only extensional predicates.
    pub base_rules: Vec<RuleId>,
    /// Rules whose premises reference only intensional predicates.
    pub nonbase_rules: Vec<RuleId>,
    /// Maps alias predicates to the extensional predicate they mirror.
    pub alias_of: FxHashMap<PredId, PredId>,
    /// Maps each *mixed* input predicate (facts + rules) to the `p@edb`
    /// predicate its facts were moved to by [`split_mixed`]. Engines that
    /// accept facts after construction (the resident-session delta path)
    /// must route inserts through this map.
    pub edb_shadow: FxHashMap<PredId, PredId>,
    /// For every rule in the rewritten program, the id of the input rule it
    /// came from (`None` for generated alias rules).
    pub origin: Vec<Option<RuleId>>,
}

impl CanonicalProgram {
    /// True if `rule` is a base rule in the canonical program.
    pub fn is_base(&self, rule: RuleId) -> bool {
        self.base_rules.contains(&rule)
    }
}

/// Splits *mixed* predicates: a predicate that both occurs in rule heads
/// and carries database facts is separated into an extensional predicate
/// `p@edb` (holding the facts) plus the copy rule `p(X) ← p@edb(X)`.
/// Trigger-graph reasoning requires this: joins over intensional body
/// atoms read the parents' node storage, which would otherwise miss the
/// database facts of the predicate.
pub fn split_mixed(program: &Program) -> Program {
    split_mixed_with_map(program).0
}

/// [`split_mixed`] plus the shadow map it introduced: original mixed
/// predicate → the fresh `p@edb` predicate now carrying its facts.
pub fn split_mixed_with_map(program: &Program) -> (Program, FxHashMap<PredId, PredId>) {
    let mixed = mixed_preds(program);
    if mixed.is_empty() {
        return (program.clone(), FxHashMap::default());
    }
    let mut out = program.clone();
    let mut shadow: FxHashMap<PredId, PredId> = FxHashMap::default();
    for p in mixed {
        let arity = out.preds.arity(p);
        let name = format!("{}@edb", out.preds.name(p));
        let fresh = out.preds.fresh(&name, arity);
        shadow.insert(p, fresh);
        let head_terms: Vec<Term> = (0..arity as u32).map(|v| Term::Var(Var(v))).collect();
        out.rules.push(Rule::new(
            Atom::new(p, head_terms.clone()),
            vec![Atom::new(fresh, head_terms)],
        ));
    }
    for (fact, _) in &mut out.facts {
        if let Some(&fresh) = shadow.get(&fact.pred) {
            fact.pred = fresh;
        }
    }
    (out, shadow)
}

/// The *mixed* predicates of `program`: derived by some rule and
/// carrying database facts too (ascending id order).
pub(crate) fn mixed_preds(program: &Program) -> Vec<PredId> {
    let idb = program.idb_mask();
    let mut has_facts = vec![false; idb.len()];
    for (f, _) in &program.facts {
        has_facts[f.pred.index()] = true;
    }
    program
        .preds
        .iter()
        .filter(|p| idb[p.index()] && has_facts[p.index()])
        .collect()
}

/// Rewrites `program` into canonical form (mixed predicates are split
/// first — see [`split_mixed`]).
pub fn canonicalize(program: &Program) -> CanonicalProgram {
    let (program, edb_shadow) = split_mixed_with_map(program);
    let program = &program;
    let idb = program.idb_mask();
    let mut out = Program {
        symbols: program.symbols.clone(),
        preds: program.preds.clone(),
        rules: Vec::with_capacity(program.rules.len()),
        facts: program.facts.clone(),
        queries: program.queries.clone(),
    };

    let mut alias: FxHashMap<PredId, PredId> = FxHashMap::default();
    let mut alias_rules: Vec<Rule> = Vec::new();
    let mut origin: Vec<Option<RuleId>> = Vec::new();
    let mut base_rules = Vec::new();
    let mut nonbase_rules = Vec::new();

    for (i, rule) in program.rules.iter().enumerate() {
        let has_idb = rule.body.iter().any(|a| idb[a.pred.index()]);
        let has_edb = rule.body.iter().any(|a| !idb[a.pred.index()]);
        let rid = RuleId(out.rules.len() as u32);
        if !has_idb {
            // Pure-EDB premise: a base rule, kept verbatim.
            base_rules.push(rid);
            out.rules.push(rule.clone());
            origin.push(Some(RuleId(i as u32)));
            continue;
        }
        let mut body = rule.body.clone();
        if has_edb {
            // Mixed premise: replace every EDB atom with its alias.
            for atom in &mut body {
                if !idb[atom.pred.index()] {
                    let alias_pred = *alias.entry(atom.pred).or_insert_with(|| {
                        let name = format!("{}@idb", out.preds.name(atom.pred));
                        let arity = out.preds.arity(atom.pred);
                        let fresh = out.preds.fresh(&name, arity);
                        let head_terms: Vec<Term> =
                            (0..arity as u32).map(|v| Term::Var(Var(v))).collect();
                        alias_rules.push(Rule::new(
                            Atom::new(fresh, head_terms.clone()),
                            vec![Atom::new(atom.pred, head_terms)],
                        ));
                        fresh
                    });
                    atom.pred = alias_pred;
                }
            }
        }
        nonbase_rules.push(rid);
        out.rules.push(Rule::new(rule.head.clone(), body));
        origin.push(Some(RuleId(i as u32)));
    }

    for rule in alias_rules {
        let rid = RuleId(out.rules.len() as u32);
        base_rules.push(rid);
        out.rules.push(rule);
        origin.push(None);
    }

    CanonicalProgram {
        program: out,
        base_rules,
        nonbase_rules,
        alias_of: alias
            .iter()
            .map(|(&a, &e)| (e, a))
            .map(|(e, a)| (a, e))
            .collect(),
        edb_shadow,
        origin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn already_canonical_program_unchanged() {
        let p = parse_program("e(a,b). p(X,Y) :- e(X,Y). q(X,Y) :- p(X,Y).").unwrap();
        let c = canonicalize(&p);
        assert_eq!(c.program.rules.len(), 2);
        assert_eq!(c.base_rules.len(), 1);
        assert_eq!(c.nonbase_rules.len(), 1);
        assert!(c.alias_of.is_empty());
    }

    #[test]
    fn mixed_premise_gets_alias() {
        // r5 of Example 5 style: r(X,Y) :- t(X), s(X,Y) with s extensional
        // and t intensional.
        let p = parse_program(
            "q(a,b). s(a,b).
             r(X,Y) :- q(X,Y).
             t(X) :- r(X,Y).
             r(X,Y) :- t(X), s(X,Y).",
        )
        .unwrap();
        let c = canonicalize(&p);
        // One alias predicate for s, one alias base rule added.
        assert_eq!(c.alias_of.len(), 1);
        assert_eq!(c.program.rules.len(), 4);
        // The rewritten third rule must have an all-IDB premise.
        let idb = c.program.idb_mask();
        let rewritten = &c.program.rules[2];
        assert!(rewritten.body.iter().all(|a| idb[a.pred.index()]));
        // The alias rule is base and mirrors s.
        let alias_rule = &c.program.rules[3];
        assert_eq!(c.program.preds.name(alias_rule.body[0].pred), "s");
        assert_eq!(c.origin[3], None);
    }

    #[test]
    fn alias_created_once_per_predicate() {
        let p =
            parse_program("e(a). d(X) :- e(X). f(X) :- d(X), e(X). g(X) :- d(X), e(X).").unwrap();
        let c = canonicalize(&p);
        assert_eq!(c.alias_of.len(), 1);
        // 3 original rules + 1 alias rule.
        assert_eq!(c.program.rules.len(), 4);
    }

    #[test]
    fn origins_track_input_rules() {
        let p = parse_program("e(a). d(X) :- e(X). f(X) :- d(X), e(X).").unwrap();
        let c = canonicalize(&p);
        assert_eq!(c.origin[0], Some(RuleId(0)));
        assert_eq!(c.origin[1], Some(RuleId(1)));
        assert_eq!(c.origin.last().unwrap(), &None);
    }

    #[test]
    fn mixed_predicate_is_split() {
        // p has both facts and rules.
        let p = parse_program("0.5 :: p(a,b). e(b,c). p(X,Y) :- e(X,Y).").unwrap();
        let s = split_mixed(&p);
        // The fact moved to p@edb and a copy rule was added.
        let shadow = s.preds.lookup("p@edb", 2).unwrap();
        assert_eq!(s.facts.iter().filter(|(f, _)| f.pred == shadow).count(), 1);
        let porig = s.preds.lookup("p", 2).unwrap();
        assert!(s.facts.iter().all(|(f, _)| f.pred != porig));
        assert_eq!(s.rules.len(), 2);
        assert!(s
            .rules
            .iter()
            .any(|r| r.head.pred == porig && r.body[0].pred == shadow));
        // Probability preserved.
        let (_, prob) = s.facts.iter().find(|(f, _)| f.pred == shadow).unwrap();
        assert_eq!(*prob, 0.5);
    }

    #[test]
    fn unmixed_program_is_untouched_by_split() {
        let p = parse_program("e(a). q(X) :- e(X).").unwrap();
        let s = split_mixed(&p);
        assert_eq!(s.rules.len(), p.rules.len());
        assert_eq!(s.preds.len(), p.preds.len());
    }

    #[test]
    fn canonicalize_handles_mixed_predicates_end_to_end() {
        let p = parse_program(
            "0.5 :: p(a,b). 0.6 :: e(b,c).
             p(X,Y) :- e(X,Y).
             p(X,Y) :- p(X,Z), p(Z,Y).",
        )
        .unwrap();
        let c = canonicalize(&p);
        let idb = c.program.idb_mask();
        // All facts now sit on extensional predicates.
        for (f, _) in &c.program.facts {
            assert!(!idb[f.pred.index()]);
        }
        // Partition is clean.
        for &rid in &c.base_rules {
            let r = &c.program.rules[rid.index()];
            assert!(r.body.iter().all(|a| !idb[a.pred.index()]));
        }
        for &rid in &c.nonbase_rules {
            let r = &c.program.rules[rid.index()];
            assert!(r.body.iter().all(|a| idb[a.pred.index()]));
        }
    }

    #[test]
    fn edb_shadow_records_split_predicates() {
        let p = parse_program(
            "0.5 :: p(a,b). 0.6 :: e(b,c).
             p(X,Y) :- e(X,Y).",
        )
        .unwrap();
        let c = canonicalize(&p);
        let porig = c.program.preds.lookup("p", 2).unwrap();
        let shadow = c.program.preds.lookup("p@edb", 2).unwrap();
        assert_eq!(c.edb_shadow.get(&porig), Some(&shadow));
        // Unmixed extensional predicates are not shadowed.
        let e = c.program.preds.lookup("e", 2).unwrap();
        assert!(!c.edb_shadow.contains_key(&e));
        // A fully canonical program has an empty shadow map.
        let plain = parse_program("e(a). q(X) :- e(X).").unwrap();
        assert!(canonicalize(&plain).edb_shadow.is_empty());
    }

    #[test]
    fn base_nonbase_partition_is_total() {
        let p = parse_program("e(a). d(X) :- e(X). f(X) :- d(X), e(X). g(X) :- f(X).").unwrap();
        let c = canonicalize(&p);
        let total = c.base_rules.len() + c.nonbase_rules.len();
        assert_eq!(total, c.program.rules.len());
        let idb = c.program.idb_mask();
        for &rid in &c.base_rules {
            let r = &c.program.rules[rid.index()];
            assert!(r.body.iter().all(|a| !idb[a.pred.index()]));
        }
        for &rid in &c.nonbase_rules {
            let r = &c.program.rules[rid.index()];
            assert!(r.body.iter().all(|a| idb[a.pred.index()]));
        }
    }
}
