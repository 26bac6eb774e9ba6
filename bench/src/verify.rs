//! The reference answers. They never come from the engine under test:
//! an [`Oracle`] is `ltg-baselines`' `ΔTcP` reasoning from scratch over
//! a program text, with a BDD model counter (the served path compiles
//! SDDs), and every check compares what the program said with what the
//! oracle says about the same EDB.

use crate::serve::Reply;
use ltg_baselines::{BaselineConfig, DeltaTcpEngine, ProbEngine};
use ltg_datalog::{Atom, PredId, Program, Substitution, Term, Var};
use ltg_storage::{FactId, ResourceMeter};
use ltg_wmc::{SolverKind, WmcSolver};
use std::collections::HashMap;
use std::time::Duration;

/// `(answer atom, probability)` sorted by atom text.
pub type Answers = Vec<(String, f64)>;

/// What a `{:.6}` rendering can be off by, plus float slack.
pub const WIRE_TOLERANCE: f64 = 5e-7 + 1e-9;

/// Builds the atom a query text such as `p(n0_1,V0)` names, against
/// `program`'s tables. `None` when a predicate or constant is unknown —
/// such a query has no answers.
pub fn atom_from_text(program: &Program, text: &str) -> Option<Atom> {
    let text = text.trim().trim_end_matches('.');
    let (name, args) = match text.split_once('(') {
        Some((name, rest)) => (name, rest.strip_suffix(')')?),
        None => (text, ""),
    };
    let args: Vec<&str> = if args.is_empty() {
        Vec::new()
    } else {
        args.split(',').map(str::trim).collect()
    };
    let pred = program.preds.lookup(name.trim(), args.len())?;
    let mut scope: Vec<&str> = Vec::new();
    let mut terms = Vec::with_capacity(args.len());
    for a in args {
        if a.starts_with(|c: char| c.is_ascii_uppercase() || c == '_') {
            let i = scope.iter().position(|v| *v == a).unwrap_or_else(|| {
                scope.push(a);
                scope.len() - 1
            });
            terms.push(Term::Var(Var(i as u32)));
        } else {
            terms.push(Term::Const(program.symbols.lookup(a)?));
        }
    }
    Some(Atom::new(pred, terms))
}

/// `ΔTcP` over one program text, indexed for repeated queries.
pub struct Oracle {
    program: Program,
    engine: DeltaTcpEngine,
    by_pred: HashMap<PredId, Vec<FactId>>,
    solver: Box<dyn WmcSolver>,
    /// `π` as the program text gives it; [`Oracle::set_weight`] edits it.
    pub weights: Vec<f64>,
}

impl Oracle {
    pub fn new(src: &str) -> Result<Oracle, String> {
        let program = ltg_datalog::parse_program(src).map_err(|e| format!("oracle: {e}"))?;
        // A world the reference cannot reason over in bounded space and
        // time must not be a benchmark world.
        let meter = ResourceMeter::with_limits(2 << 30, Some(Duration::from_secs(30)));
        let mut engine = DeltaTcpEngine::with_config(&program, BaselineConfig::default(), meter);
        engine.run().map_err(|e| format!("oracle: {e}"))?;
        let mut by_pred: HashMap<PredId, Vec<FactId>> = HashMap::new();
        for f in engine.facts() {
            by_pred
                .entry(engine.db().store.pred(f))
                .or_default()
                .push(f);
        }
        let weights = engine.db().weights();
        Ok(Oracle {
            program,
            engine,
            by_pred,
            solver: SolverKind::Bdd.build(),
            weights,
        })
    }

    /// Overrides the weight of an extensional fact given as text
    /// (`UPDATE` leaves every lineage as it is).
    pub fn set_weight(&mut self, fact_text: &str, prob: f64) -> Result<(), String> {
        let atom = atom_from_text(&self.program, fact_text)
            .ok_or_else(|| format!("oracle: unknown fact {fact_text}"))?;
        let args: Vec<_> = atom.terms.iter().filter_map(|t| t.as_const()).collect();
        let f = self
            .engine
            .db()
            .store
            .lookup(atom.pred, &args)
            .ok_or_else(|| format!("oracle: unknown fact {fact_text}"))?;
        self.weights[f.index()] = prob;
        Ok(())
    }

    /// The answers to a query text under the current weights.
    pub fn answers(&self, query_text: &str) -> Result<Answers, String> {
        let Some(query) = atom_from_text(&self.program, query_text) else {
            return Ok(Vec::new());
        };
        let n_vars = query.vars().map(|v| v.index() + 1).max().unwrap_or(0);
        let store = &self.engine.db().store;
        let mut out = Vec::new();
        for &f in self.by_pred.get(&query.pred).map_or(&[][..], Vec::as_slice) {
            let mut subst = Substitution::new(n_vars);
            if !query.match_tuple(store.args(f), &mut subst) {
                continue;
            }
            let Some(lineage) = self.engine.lineage_of(f) else {
                continue;
            };
            let p = self
                .solver
                .probability(&lineage, &self.weights)
                .map_err(|e| format!("oracle: {query_text}: {e}"))?;
            out.push((
                store.display(f, &self.program.preds, &self.program.symbols),
                p,
            ));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

/// The answers a `QUERY` reply carries (`<prob>\t<atom>` lines).
pub fn parse_answers(reply: &Reply) -> Option<Answers> {
    if !reply.is_ok() {
        return None;
    }
    let mut out = Vec::with_capacity(reply.payload.len());
    for line in &reply.payload {
        let (p, atom) = line.split_once('\t')?;
        out.push((atom.to_string(), p.parse().ok()?));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Some(out)
}

/// The intervals an `EPSILON` reply carries (`[<lo>, <hi>]\t<atom>`).
pub fn parse_bounds(reply: &Reply) -> Option<Vec<(String, f64, f64)>> {
    if !reply.is_ok() {
        return None;
    }
    let mut out = Vec::with_capacity(reply.payload.len());
    for line in &reply.payload {
        let (range, atom) = line.split_once('\t')?;
        let (lo, hi) = range
            .strip_prefix('[')?
            .strip_suffix(']')?
            .split_once(", ")?;
        out.push((atom.to_string(), lo.parse().ok()?, hi.parse().ok()?));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Some(out)
}

/// Order-insensitive comparison (both sides are sorted by atom).
pub fn same_answers(expected: &Answers, got: &Answers, tolerance: f64) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{} answers, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for ((ea, ep), (ga, gp)) in expected.iter().zip(got) {
        if ea != ga {
            return Err(format!("answer {ga}, expected {ea}"));
        }
        if (ep - gp).abs() > tolerance {
            return Err(format!("{ga}: {gp}, expected {ep}"));
        }
    }
    Ok(())
}

/// Every interval must contain the exact value.
pub fn bounds_contain(
    expected: &Answers,
    got: &[(String, f64, f64)],
    tolerance: f64,
) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{} intervals, expected {}",
            got.len(),
            expected.len()
        ));
    }
    for ((ea, ep), (ga, lo, hi)) in expected.iter().zip(got) {
        if ea != ga {
            return Err(format!("answer {ga}, expected {ea}"));
        }
        if *ep < lo - tolerance || *ep > hi + tolerance {
            return Err(format!("{ga}: [{lo}, {hi}] misses {ep}"));
        }
    }
    Ok(())
}

/// Failure accounting of one run: what was attempted, what failed, and
/// the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }

    pub fn check(&mut self, result: Result<(), String>, what: impl FnOnce() -> String) {
        match result {
            Ok(()) => self.ok(),
            Err(e) => self.fail(format!("{}: {e}", what())),
        }
    }

    /// Adds what `other` counted.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.reasons.extend(other.reasons);
        self.reasons.truncate(8);
    }

    /// A condition of the run as a whole (a bypass assertion): counts
    /// as one more attempted thing.
    pub fn require(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if holds {
            self.ok();
        } else {
            self.fail(what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXAMPLE1: &str = "0.5 :: e(a,b). 0.6 :: e(b,c). 0.7 :: e(a,c). 0.8 :: e(c,b).
        p(X,Y) :- e(X,Y). p(X,Y) :- p(X,Z), p(Z,Y).";

    #[test]
    fn oracle_reproduces_the_paper_example() {
        let mut o = Oracle::new(EXAMPLE1).unwrap();
        let a = o.answers("p(a,b)").unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].0, "p(a,b)");
        assert!((a[0].1 - 0.78).abs() < 1e-12);
        assert_eq!(o.answers("p(a,V0)").unwrap().len(), 2);
        assert!(o.answers("p(zzz,V0)").unwrap().is_empty());
        // e(a,b) certain: p(a,b) = 1.
        o.set_weight("e(a,b)", 1.0).unwrap();
        assert!((o.answers("p(a,b)").unwrap()[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replies_parse_and_compare() {
        let reply = Reply {
            head: "OK 2".into(),
            payload: vec!["0.500000\tp(b)".into(), "0.250000\tp(a)".into()],
        };
        let got = parse_answers(&reply).unwrap();
        let expected = vec![("p(a)".to_string(), 0.2500004), ("p(b)".to_string(), 0.5)];
        assert!(same_answers(&expected, &got, WIRE_TOLERANCE).is_ok());
        assert!(same_answers(&expected, &got, 1e-9).is_err());
        let bounds = Reply {
            head: "OK 1".into(),
            payload: vec!["[0.200000, 0.300000]\tp(a)".into()],
        };
        let b = parse_bounds(&bounds).unwrap();
        assert!(bounds_contain(&expected[..1].to_vec(), &b, WIRE_TOLERANCE).is_ok());
        assert!(bounds_contain(&vec![("p(a)".to_string(), 0.31)], &b, WIRE_TOLERANCE).is_err());
    }
}
