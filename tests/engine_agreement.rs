//! Cross-engine agreement (Lemma 1 / Theorems 2 and 4): every exact
//! engine — LTGs w/, LTGs w/o, TcP, ΔTcP, circuits — computes logically
//! equivalent lineages and identical probabilities, which in turn match
//! brute-force possible-world enumeration.

use ltg_testkit::possible_world_probability;
use ltgs::baselines::ProbEngine;
use ltgs::benchdata::lubm::{generate as lubm, LubmConfig};
use ltgs::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn engine_probability(
    engine: &mut dyn ProbEngine,
    pred: &str,
    args: &[&str],
    program: &Program,
) -> f64 {
    engine.run().unwrap();
    let pid = program.preds.lookup(pred, args.len()).unwrap();
    let syms: Vec<_> = args
        .iter()
        .map(|a| program.symbols.lookup(a).unwrap())
        .collect();
    match engine.db().store.lookup(pid, &syms) {
        Some(f) => match engine.lineage_of(f) {
            Some(d) => BddWmc::default()
                .probability(&d, &engine.db().weights())
                .unwrap(),
            None => 0.0,
        },
        None => 0.0,
    }
}

fn ltg_probability(program: &Program, collapse: bool, pred: &str, args: &[&str]) -> f64 {
    let config = if collapse {
        EngineConfig::with_collapse()
    } else {
        EngineConfig::without_collapse()
    };
    let mut engine = LtgEngine::with_config(program, config);
    engine.reason().unwrap();
    let pid = engine.program().preds.lookup(pred, args.len()).unwrap();
    let syms: Vec<_> = args
        .iter()
        .map(|a| engine.program().symbols.lookup(a).unwrap())
        .collect();
    match engine.db().store.lookup(pid, &syms) {
        Some(f) => {
            let d = engine.lineage_of(f).unwrap();
            BddWmc::default()
                .probability(&d, &engine.db().weights())
                .unwrap()
        }
        None => 0.0,
    }
}

fn check_all(program: &Program, pred: &str, args: &[&str]) {
    let oracle = possible_world_probability(program, pred, args);
    let lw = ltg_probability(program, true, pred, args);
    let lwo = ltg_probability(program, false, pred, args);
    assert!((oracle - lw).abs() < 1e-9, "L w/: {lw} vs oracle {oracle}");
    assert!(
        (oracle - lwo).abs() < 1e-9,
        "L w/o: {lwo} vs oracle {oracle}"
    );
    let mut tcp = TcpEngine::new(program);
    let p = engine_probability(&mut tcp, pred, args, program);
    assert!((oracle - p).abs() < 1e-9, "TcP: {p} vs oracle {oracle}");
    let mut delta = DeltaTcpEngine::new(program);
    let p = engine_probability(&mut delta, pred, args, program);
    assert!((oracle - p).abs() < 1e-9, "ΔTcP: {p} vs oracle {oracle}");
    let mut circuit = CircuitEngine::new(program);
    let p = engine_probability(&mut circuit, pred, args, program);
    assert!((oracle - p).abs() < 1e-9, "circuit: {p} vs oracle {oracle}");
}

#[test]
fn reachability_cyclic() {
    let program = parse_program(
        "0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b). 0.4 :: e(c, a).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).",
    )
    .unwrap();
    check_all(&program, "p", &["a", "b"]);
    check_all(&program, "p", &["b", "a"]);
    check_all(&program, "p", &["a", "a"]);
}

#[test]
fn smokers_style_recursion() {
    let program = parse_program(
        "0.3 :: stress(x1). 0.3 :: stress(x2).
         friend(x1, x2). friend(x2, x3). friend(x3, x1).
         0.2 :: influences(x1, x2). 0.2 :: influences(x2, x3). 0.2 :: influences(x3, x1).
         smokes(X) :- stress(X).
         smokes(Y) :- influences(X, Y), smokes(X).",
    )
    .unwrap();
    check_all(&program, "smokes", &["x3"]);
    check_all(&program, "smokes", &["x1"]);
}

#[test]
fn mixed_predicate_and_rule_confidence() {
    let program = parse_program(
        "0.4 :: p(a, b). 0.6 :: e(b, c). 0.5 :: e(c, d).
         0.9 :: p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).",
    )
    .unwrap();
    check_all(&program, "p", &["a", "c"]);
    check_all(&program, "p", &["a", "d"]);
}

#[test]
fn diamond_with_shared_facts() {
    let program = parse_program(
        "0.5 :: e(s, a). 0.5 :: e(s, b). 0.5 :: e(a, t). 0.5 :: e(b, t). 0.9 :: e(s, t).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- e(X, Z), p(Z, Y).",
    )
    .unwrap();
    check_all(&program, "p", &["s", "t"]);
}

#[test]
fn magic_sets_preserve_probabilities_under_reasoning() {
    let program = parse_program(
        "0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b). 0.4 :: e(c, a).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).
         query p(a, X).",
    )
    .unwrap();
    let query = &program.queries[0];

    // Full program.
    let mut full = LtgEngine::new(&program);
    full.reason().unwrap();
    let full_answers = full.answer(query).unwrap();
    let full_w = full.db().weights();

    // Magic program.
    let magic = ltgs::datalog::magic_transform(&program, query);
    let mut goal = LtgEngine::new(&magic.program);
    goal.reason().unwrap();
    let goal_answers = goal.answer(&magic.query).unwrap();
    let goal_w = goal.db().weights();

    assert_eq!(full_answers.len(), goal_answers.len());
    // Compare probabilities answer-by-answer (matched on argument names).
    for (fa, la) in &full_answers {
        let args = full.db().store.args(*fa).to_vec();
        let names: Vec<String> = args
            .iter()
            .map(|s| full.program().symbols.name(*s).to_string())
            .collect();
        let pa = BddWmc::default().probability(la, &full_w).unwrap();
        let matched = goal_answers.iter().find(|(fb, _)| {
            let bargs = goal.db().store.args(*fb);
            bargs
                .iter()
                .map(|s| goal.program().symbols.name(*s).to_string())
                .collect::<Vec<_>>()
                == names
        });
        let (_, lb) = matched.expect("answer present under magic sets");
        let pb = BddWmc::default().probability(lb, &goal_w).unwrap();
        assert!((pa - pb).abs() < 1e-9, "answer {names:?}: {pa} vs {pb}");
    }
}

#[test]
fn topk_converges_to_exact_from_below() {
    let program = parse_program(
        "0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).",
    )
    .unwrap();
    let exact = possible_world_probability(&program, "p", &["a", "b"]);
    let mut last = 0.0;
    for k in [1usize, 2, 4, 64] {
        let mut topk = TopKEngine::new(&program, k);
        let p = engine_probability(&mut topk, "p", &["a", "b"], &program);
        assert!(p <= exact + 1e-9, "k={k}: {p} > {exact}");
        assert!(p >= last - 1e-9, "k={k} not monotone");
        last = p;
    }
    assert!((last - exact).abs() < 1e-9, "k=64 should be exact here");
}

/// An answer of a query: its arguments, and its minimized lineage with
/// every fact rendered by name (so two engines over different fact
/// arenas compare). Magic seed facts (`m_…@…`, certain) are left out.
type RenderedAnswers = BTreeMap<Vec<String>, BTreeSet<BTreeSet<String>>>;

fn rendered_answers(engine: &LtgEngine, query: &Atom) -> RenderedAnswers {
    let program = engine.program();
    let store = &engine.db().store;
    engine
        .answer(query)
        .unwrap()
        .into_iter()
        .map(|(f, mut lineage)| {
            lineage.minimize();
            let args = store
                .args(f)
                .iter()
                .map(|&s| program.symbols.name(s).to_string())
                .collect();
            let explanations = lineage
                .conjuncts()
                .map(|c| {
                    c.iter()
                        .map(|&l| store.display(l, &program.preds, &program.symbols))
                        .filter(|name| !(name.starts_with("m_") && name.contains('@')))
                        .collect()
                })
                .collect();
            (args, explanations)
        })
        .collect()
}

/// The 14 LUBM queries answer alike with and without magic sets: the
/// same answers, each with the same canonical lineage. LUBM derives
/// predicates that also carry database facts (`worksFor`, `memberOf`,
/// …), whose facts magic sets used to drop — q2, q4, q5, q8, q11 and q12
/// lost answers.
#[test]
fn lubm_queries_agree_with_and_without_magic_sets() {
    let scenario = lubm("LUBM-test", &LubmConfig::scaled(1));
    let mut full = LtgEngine::new(&scenario.program);
    full.reason().unwrap();
    assert_eq!(scenario.queries.len(), 14);
    for (i, q) in scenario.queries.iter().enumerate() {
        let m = magic_transform(&scenario.program, q);
        let mut goal = LtgEngine::new(&m.program);
        goal.reason().unwrap();
        let want = rendered_answers(&full, q);
        let got = rendered_answers(&goal, &m.query);
        assert_eq!(got, want, "q{}: magic sets changed the answers", i + 1);
    }
}
