//! Property-based tests (proptest) on the core invariants:
//!
//! * the exact WMC solvers agree with enumeration on random DNFs;
//! * DNF minimization preserves semantics and is idempotent;
//! * the LTG engine (with and without collapsing) matches brute-force
//!   possible-world enumeration on random reachability programs;
//! * the Tseitin CNF preserves weighted counts;
//! * the approximate tier's escalation ladder always brackets the exact
//!   probability, and anytime bounds tighten monotonically with budget;
//! * indexed query answering returns the brute-force answers after every
//!   mutation of a random script and after a snapshot restore.

use ltgs::baselines::least_model;
use ltgs::lineage::{tseitin, Dnf};
use ltgs::prelude::*;
use ltgs::storage::FactId;
use ltgs::wmc::KarpLubyWmc;
use proptest::prelude::*;

// ----------------------------------------------------------------------
// Random DNFs: solver agreement + minimization semantics.
// ----------------------------------------------------------------------

fn arb_dnf(max_vars: u32, max_conjuncts: usize) -> impl Strategy<Value = Dnf> {
    prop::collection::vec(
        prop::collection::vec(0..max_vars, 1..=4usize),
        0..=max_conjuncts,
    )
    .prop_map(|conjuncts| {
        let mut d = Dnf::ff();
        for c in conjuncts {
            d.push(c.into_iter().map(FactId).collect());
        }
        d
    })
}

fn arb_weights(n: u32) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..0.95, n as usize..=n as usize)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_solvers_agree_with_enumeration(
        dnf in arb_dnf(8, 6),
        weights in arb_weights(8),
    ) {
        let oracle = NaiveWmc::default().probability(&dnf, &weights).unwrap();
        let bdd = BddWmc::default().probability(&dnf, &weights).unwrap();
        let dtree = DtreeWmc::default().probability(&dnf, &weights).unwrap();
        let cnf = CnfWmc::default().probability(&dnf, &weights).unwrap();
        prop_assert!((oracle - bdd).abs() < 1e-9, "bdd {bdd} vs {oracle}");
        prop_assert!((oracle - dtree).abs() < 1e-9, "dtree {dtree} vs {oracle}");
        prop_assert!((oracle - cnf).abs() < 1e-9, "cnf {cnf} vs {oracle}");
    }

    #[test]
    fn minimize_preserves_probability(
        dnf in arb_dnf(8, 8),
        weights in arb_weights(8),
    ) {
        let before = NaiveWmc::default().probability(&dnf, &weights).unwrap();
        let mut minimized = dnf.clone();
        minimized.minimize();
        let after = NaiveWmc::default().probability(&minimized, &weights).unwrap();
        prop_assert!((before - after).abs() < 1e-12);
        // Idempotence.
        let mut twice = minimized.clone();
        twice.minimize();
        prop_assert_eq!(&twice, &minimized);
        // Minimization never grows the formula.
        prop_assert!(minimized.len() <= dnf.len());
    }

    #[test]
    fn equivalence_matches_semantics(
        a in arb_dnf(5, 5),
        b in arb_dnf(5, 5),
    ) {
        // `equivalent` (canonical minimized forms) must coincide with
        // world-by-world equality.
        let vars: Vec<FactId> = {
            let mut v = a.variables();
            v.extend(b.variables());
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut semantically_equal = true;
        for bits in 0u32..(1 << vars.len()) {
            let world: ltgs::datalog::FxHashSet<FactId> = vars
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, &f)| f)
                .collect();
            if a.eval(&world) != b.eval(&world) {
                semantically_equal = false;
                break;
            }
        }
        prop_assert_eq!(a.equivalent(&b), semantically_equal);
    }

    #[test]
    fn tseitin_preserves_counts(
        dnf in arb_dnf(6, 4),
        weights in arb_weights(6),
    ) {
        // CnfWmc consumes the Tseitin encoding; equality with the naive
        // count is exactly count preservation.
        let cnf = tseitin(&dnf);
        prop_assert!(cnf.n_vars >= dnf.variables().len());
        let through_cnf = CnfWmc::default().probability(&dnf, &weights).unwrap();
        let direct = NaiveWmc::default().probability(&dnf, &weights).unwrap();
        prop_assert!((through_cnf - direct).abs() < 1e-9);
    }

    #[test]
    fn karp_luby_is_close(
        dnf in arb_dnf(6, 4),
        weights in arb_weights(6),
    ) {
        let exact = NaiveWmc::default().probability(&dnf, &weights).unwrap();
        let approx = KarpLubyWmc { samples: 20_000, seed: 42 }
            .probability(&dnf, &weights)
            .unwrap();
        // Loose 3-sigma-ish bound; the estimator is unbiased.
        prop_assert!((exact - approx).abs() < 0.05, "{approx} vs {exact}");
    }
}

// ----------------------------------------------------------------------
// Random programs: engine vs possible-world enumeration.
// ----------------------------------------------------------------------

/// Random edge sets over 4 nodes with probabilities from a small palette.
fn arb_edges() -> impl Strategy<Value = Vec<(u8, u8, f64)>> {
    prop::collection::vec(
        (0u8..4, 0u8..4, prop::sample::select(vec![0.3f64, 0.5, 0.8])),
        1..=7,
    )
}

fn build_program(edges: &[(u8, u8, f64)]) -> Program {
    let mut src = String::new();
    let mut seen = std::collections::BTreeSet::new();
    for (a, b, p) in edges {
        if seen.insert((*a, *b)) {
            src.push_str(&format!("{p} :: e(n{a}, n{b}).\n"));
        }
    }
    src.push_str("p(X, Y) :- e(X, Y).\n");
    src.push_str("p(X, Y) :- p(X, Z), p(Z, Y).\n");
    parse_program(&src).unwrap()
}

fn oracle(program: &Program, x: u8, y: u8) -> f64 {
    let n = program.facts.len();
    let mut total = 0.0;
    for world in 0u32..(1 << n) {
        let mut prob = 1.0;
        for (i, (_, p)) in program.facts.iter().enumerate() {
            prob *= if world & (1 << i) != 0 { *p } else { 1.0 - *p };
        }
        if prob == 0.0 {
            continue;
        }
        let mut sub = program.clone();
        sub.facts = program
            .facts
            .iter()
            .enumerate()
            .filter(|(i, _)| world & (1 << i) != 0)
            .map(|(_, f)| (f.0.clone(), 1.0))
            .collect();
        let model = least_model(&sub).unwrap();
        let pid = sub.preds.lookup("p", 2).unwrap();
        let (xs, ys) = (
            sub.symbols.lookup(&format!("n{x}")),
            sub.symbols.lookup(&format!("n{y}")),
        );
        if let (Some(xs), Some(ys)) = (xs, ys) {
            if model.entails(pid, &[xs, ys]) {
                total += prob;
            }
        }
    }
    total
}

fn ltg_prob(program: &Program, collapse: bool, x: u8, y: u8) -> f64 {
    let config = if collapse {
        // Aggressive threshold to exercise collapsing even on small runs.
        EngineConfig {
            collapse: true,
            collapse_threshold: 2,
            ..EngineConfig::default()
        }
    } else {
        EngineConfig::without_collapse()
    };
    let mut engine = LtgEngine::with_config(program, config);
    engine.reason().unwrap();
    let pid = engine.program().preds.lookup("p", 2).unwrap();
    let (xs, ys) = (
        engine.program().symbols.lookup(&format!("n{x}")),
        engine.program().symbols.lookup(&format!("n{y}")),
    );
    let (Some(xs), Some(ys)) = (xs, ys) else {
        return 0.0;
    };
    match engine.db().store.lookup(pid, &[xs, ys]) {
        Some(f) => {
            let d = engine.lineage_of(f).unwrap();
            BddWmc::default()
                .probability(&d, &engine.db().weights())
                .unwrap()
        }
        None => 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ltg_matches_possible_worlds(
        edges in arb_edges(),
        x in 0u8..4,
        y in 0u8..4,
    ) {
        let program = build_program(&edges);
        let expected = oracle(&program, x, y);
        let with = ltg_prob(&program, true, x, y);
        let without = ltg_prob(&program, false, x, y);
        prop_assert!((expected - with).abs() < 1e-9, "w/: {with} vs {expected}");
        prop_assert!((expected - without).abs() < 1e-9, "w/o: {without} vs {expected}");
    }
}

// ----------------------------------------------------------------------
// New substrates: SDD, dissociation bounds, TG materializer, SLD.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SDD solver is exact for both vtree shapes.
    #[test]
    fn sdd_agrees_with_enumeration(
        dnf in arb_dnf(8, 6),
        weights in arb_weights(8),
    ) {
        let oracle = NaiveWmc::default().probability(&dnf, &weights).unwrap();
        let balanced = SddWmc::default().probability(&dnf, &weights).unwrap();
        let linear = ltgs::wmc::SddWmc {
            kind: ltgs::wmc::VtreeKind::RightLinear,
            ..SddWmc::default()
        }
        .probability(&dnf, &weights)
        .unwrap();
        prop_assert!((oracle - balanced).abs() < 1e-9, "balanced {balanced} vs {oracle}");
        prop_assert!((oracle - linear).abs() < 1e-9, "right-linear {linear} vs {oracle}");
    }

    /// Dissociation bounds always contain the exact probability, both
    /// when forced to dissociate and with the default exact residue.
    #[test]
    fn dissociation_bounds_contain_enumeration(
        dnf in arb_dnf(8, 6),
        weights in arb_weights(8),
    ) {
        let oracle = NaiveWmc::default().probability(&dnf, &weights).unwrap();
        for exact_vars in [0usize, 3, 16] {
            let b = DissociationWmc { exact_vars, ..DissociationWmc::default() }
                .bounds(&dnf, &weights)
                .unwrap();
            prop_assert!(b.lower <= oracle + 1e-9, "exact_vars={exact_vars}: lower {} > {oracle}", b.lower);
            prop_assert!(oracle <= b.upper + 1e-9, "exact_vars={exact_vars}: upper {} < {oracle}", b.upper);
            prop_assert!(b.lower >= -1e-12 && b.upper <= 1.0 + 1e-12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The non-probabilistic TG materializer derives exactly the facts of
    /// the semi-naive least model on random reachability programs.
    #[test]
    fn tg_materializer_matches_seminaive(edges in arb_edges()) {
        let program = build_program(&edges);
        let mut tg = TgMaterializer::new(&program);
        tg.run().unwrap();
        let model = least_model(&program).unwrap();
        let pid = program.preds.lookup("p", 2).unwrap();
        let mut tg_pairs: Vec<(String, String)> = tg
            .derived()
            .iter()
            .filter(|&&f| tg.db().store.pred(f) == pid)
            .map(|&f| {
                let args = tg.db().store.args(f);
                (
                    program.symbols.name(args[0]).to_string(),
                    program.symbols.name(args[1]).to_string(),
                )
            })
            .collect();
        let mut sne_pairs: Vec<(String, String)> = model
            .facts_of(pid)
            .iter()
            .map(|&f| {
                let args = model.db().store.args(f);
                (
                    program.symbols.name(args[0]).to_string(),
                    program.symbols.name(args[1]).to_string(),
                )
            })
            .collect();
        tg_pairs.sort();
        tg_pairs.dedup();
        sne_pairs.sort();
        sne_pairs.dedup();
        prop_assert_eq!(tg_pairs, sne_pairs);
    }

    /// Deep-enough top-down SLD search matches the possible-world oracle
    /// on random reachability programs (ground queries).
    #[test]
    fn sld_matches_possible_worlds(
        edges in arb_edges(),
        x in 0u8..4,
        y in 0u8..4,
    ) {
        let program = build_program(&edges);
        let expected = oracle(&program, x, y);
        let query = {
            let pid = program.preds.lookup("p", 2).unwrap();
            let (xs, ys) = (
                program.symbols.lookup(&format!("n{x}")),
                program.symbols.lookup(&format!("n{y}")),
            );
            match (xs, ys) {
                (Some(xs), Some(ys)) => Atom::new(
                    pid,
                    vec![
                        ltgs::datalog::Term::Const(xs),
                        ltgs::datalog::Term::Const(ys),
                    ],
                ),
                // Constant absent from the program: underivable.
                _ => {
                    prop_assert!(expected == 0.0);
                    return Ok(());
                }
            }
        };
        let mut sld = SldEngine::new(&program);
        // Depth 5 suffices for every minimal path explanation on ≤ 4
        // nodes (the ground-ancestor cut discards the redundant rest).
        let res = sld.prove_at_depth(&query, 5).unwrap();
        let w = sld.db().weights();
        let p = res
            .answers
            .first()
            .map(|(_, d)| BddWmc::default().probability(d, &w).unwrap())
            .unwrap_or(0.0);
        prop_assert!((p - expected).abs() < 1e-9, "sld {p} vs oracle {expected}");
    }
}

// ----------------------------------------------------------------------
// The approximate tier: interval soundness + monotone refinement.
// ----------------------------------------------------------------------

use ltg_testkit::RULE_PALETTE;
use ltgs::wmc::AnytimeWmc;

/// Materializes a palette program over the given EDB and returns every
/// derived `p`-lineage plus the fact weights.
fn palette_lineages(rule_idx: usize, edges: &[(u8, u8, f64)]) -> (Vec<Dnf>, Vec<f64>) {
    let src =
        ltg_testkit::program_src_with(&ltg_testkit::dedup_edges(edges), RULE_PALETTE[rule_idx]);
    let program = parse_program(&src).unwrap();
    let mut engine = LtgEngine::with_config(&program, EngineConfig::default());
    engine.reason().unwrap();
    let weights = engine.db().weights();
    let Some(pid) = engine.program().preds.lookup("p", 2) else {
        return (Vec::new(), weights);
    };
    let mut lineages = Vec::new();
    for x in 0..4u8 {
        for y in 0..4u8 {
            let (Some(xs), Some(ys)) = (
                engine.program().symbols.lookup(&format!("n{x}")),
                engine.program().symbols.lookup(&format!("n{y}")),
            ) else {
                continue;
            };
            if let Some(f) = engine.db().store.lookup(pid, &[xs, ys]) {
                lineages.push(engine.lineage_of(f).unwrap());
            }
        }
    }
    (lineages, weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every rung of the escalation ladder brackets the enumeration
    /// oracle on lineages drawn from every `RULE_PALETTE` block, at
    /// every budget and epsilon — the soundness invariant behind the
    /// `[lower, upper]` wire responses.
    #[test]
    fn tier_ladder_is_sound_on_palette_programs(
        rule_idx in 0..RULE_PALETTE.len(),
        edges in ltg_testkit::arb_edges(),
        seed in 0u64..u64::MAX,
    ) {
        let (lineages, weights) = palette_lineages(rule_idx, &edges);
        for dnf in &lineages {
            let exact = NaiveWmc::default().probability(dnf, &weights).unwrap();
            for planner in [
                TierPlanner::default(),
                // Tiny budgets force escalation through every rung.
                TierPlanner { exact_budget: 8, anytime_budget: 16, samples: 2_000 },
            ] {
                for eps in [None, Some(0.25), Some(0.0)] {
                    let out = planner.solve(dnf, &weights, eps, None, seed);
                    prop_assert!(
                        out.lower <= exact + 1e-9 && exact <= out.upper + 1e-9,
                        "tier {:?} eps {eps:?}: [{}, {}] misses {exact}",
                        out.tier, out.lower, out.upper
                    );
                    prop_assert!(out.lower >= -1e-12 && out.upper <= 1.0 + 1e-12);
                }
            }
        }
    }

    /// On wide lineages (more variables than the dissociation rung's
    /// exact cutoff) the tiny-budget planner genuinely runs the anytime
    /// and sampled rungs; the interval must still bracket the exact
    /// probability (BDD oracle — enumeration is too slow at this
    /// width).
    #[test]
    fn tier_ladder_is_sound_on_wide_dnfs(
        dnf in arb_dnf(20, 10),
        weights in arb_weights(20),
        seed in 0u64..u64::MAX,
    ) {
        let exact = BddWmc::default().probability(&dnf, &weights).unwrap();
        for planner in [
            TierPlanner { exact_budget: 8, anytime_budget: 16, samples: 2_000 },
            // samples = 0 exercises the zero-draw fallback: the rung-2
            // envelope is published unchanged.
            TierPlanner { exact_budget: 8, anytime_budget: 16, samples: 0 },
        ] {
            let out = planner.solve(&dnf, &weights, Some(0.0), None, seed);
            prop_assert!(
                out.lower <= exact + 1e-9 && exact <= out.upper + 1e-9,
                "tier {:?}: [{}, {}] misses {exact}",
                out.tier, out.lower, out.upper
            );
        }
    }

    /// Growing the anytime budget never widens the bound gap: the
    /// sorted-prefix refinement is monotone, so `EPSILON` escalation
    /// only ever tightens published intervals.
    #[test]
    fn anytime_gap_shrinks_as_the_budget_grows(
        dnf in arb_dnf(20, 10),
        weights in arb_weights(20),
    ) {
        let mut prev = f64::INFINITY;
        for budget in [8usize, 32, 128, 1024, 100_000] {
            let b = AnytimeWmc { inner: BddWmc::default(), max_nodes: budget }
                .bounds(&dnf, &weights);
            prop_assert!(
                b.gap() <= prev + 1e-12,
                "budget {budget}: gap {} wider than {prev}",
                b.gap()
            );
            prev = b.gap();
        }
    }
}

// ----------------------------------------------------------------------
// Indexed query answering ≡ brute force, under churn and restore.
// ----------------------------------------------------------------------

/// One query term: `0..4` is the constant `n0..n3`, `4` and `5` are the
/// variables `X` and `Y` — so a binary query binds 0, 1 or 2 positions
/// and may repeat a variable (`p(X, X)`).
fn arb_queries() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    prop::collection::vec((0usize..3, 0u8..6, 0u8..6), 1..=8)
}

/// Resolves the encoded queries against the engine's program; queries
/// naming an absent predicate or a constant not interned yet are
/// skipped.
fn resolve_queries(engine: &LtgEngine, encoded: &[(usize, u8, u8)]) -> Vec<Atom> {
    use ltgs::datalog::{Term, Var};
    let program = engine.program();
    encoded
        .iter()
        .filter_map(|&(pred, t0, t1)| {
            let pred = program.preds.lookup(["p", "q", "e"][pred], 2)?;
            let term = |t: u8| match t {
                0..=3 => program.symbols.lookup(&format!("n{t}")).map(Term::Const),
                _ => Some(Term::Var(Var(u32::from(t - 4)))),
            };
            Some(Atom::new(pred, vec![term(t0)?, term(t1)?]))
        })
        .collect()
}

/// Brute-force answers: every derived fact plus every EDB fact of the
/// query's predicate, filtered by `Atom::match_tuple`.
fn brute_force_answers(engine: &LtgEngine, query: &Atom) -> Vec<FactId> {
    use ltgs::datalog::Substitution;
    let db = engine.db();
    let mut out: Vec<FactId> = engine
        .derived_facts()
        .into_iter()
        .filter(|&f| db.store.pred(f) == query.pred)
        .chain(db.edb_facts(query.pred).iter().copied())
        .filter(|&f| query.match_tuple(db.store.args(f), &mut Substitution::new(2)))
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `answer_facts` equals brute force both through whatever indexes the
/// engine currently holds (maintained across the last mutation, or
/// stale and falling back to a scan) and after `prepare_answer`.
fn check_answers(engine: &mut LtgEngine, encoded: &[(usize, u8, u8)]) -> Result<(), String> {
    for query in resolve_queries(engine, encoded) {
        let expected = brute_force_answers(engine, &query);
        let before = engine.answer_facts(&query);
        engine.prepare_answer(&query);
        let after = engine.answer_facts(&query);
        if before != expected || after != expected {
            return Err(format!(
                "{query:?}: brute force {expected:?}, unprepared {before:?}, prepared {after:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The indexed answer path returns exactly the brute-force answers
    /// after every INSERT/DELETE/UPDATE of a random script, and again on
    /// an engine restored from the script's final state.
    #[test]
    fn indexed_answers_match_brute_force(
        script in ltg_testkit::arb_any_script(),
        encoded in arb_queries(),
    ) {
        let config = EngineConfig::default();
        let engine = ltg_testkit::replay_resident_with(&script, &config, |engine| {
            check_answers(engine, &encoded)
        })
        .map_err(TestCaseError::fail)?;
        let src = ltg_testkit::program_src_with(&script.initial, script.rules);
        let program = parse_program(&src).unwrap();
        let state = engine.export_state().unwrap();
        let mut restored = LtgEngine::restore(&program, config, state).unwrap();
        check_answers(&mut restored, &encoded)
            .map_err(|e| TestCaseError::fail(format!("after restore: {e}")))?;
    }
}
