//! Regression tests for engine-level failure modes found during
//! development. Each test pins a scenario that previously diverged,
//! exploded, or returned wrong output.

use ltgs::baselines::least_model;
use ltgs::benchdata::webkg::{self, WebKgConfig};
use ltgs::prelude::*;
use std::time::Instant;

/// Magic-sets rewritings of cyclic programs make the magic and adorned
/// atoms derive each other; structurally distinct trees with identical
/// leaf sets then breed super-exponentially (observed: 10M EG nodes by
/// round 10 on this exact program). The explanation-dedup registry must
/// keep the run small, terminating, and exact.
#[test]
fn magic_rewriting_of_cyclic_program_terminates_quickly() {
    let program = parse_program(
        "0.5 :: e(a, b). 0.6 :: e(b, c). 0.7 :: e(a, c). 0.8 :: e(c, b).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).
         query p(a, b).",
    )
    .unwrap();
    let magic = magic_transform(&program, &program.queries[0]);
    for config in [
        EngineConfig::with_collapse(),
        EngineConfig::without_collapse(),
    ] {
        let t0 = Instant::now();
        let mut engine = LtgEngine::with_config(&magic.program, config);
        engine.reason().unwrap();
        assert!(
            t0.elapsed().as_secs() < 10,
            "magic example1 must terminate promptly"
        );
        assert!(
            engine.stats().nodes_created < 10_000,
            "node breeding resurfaced: {} nodes",
            engine.stats().nodes_created
        );
        assert!(engine.stats().deduped > 0, "dedup should have fired");
        let answers = engine.answer(&magic.query).unwrap();
        let weights = engine.db().weights();
        let p = SddWmc::default()
            .probability(&answers[0].1, &weights)
            .unwrap();
        assert!((p - 0.78).abs() < 1e-9, "dedup must preserve the lineage");
    }
}

/// The formerly-pinned collapse blowup (ROADMAP: "Aggressive collapsing
/// on cyclic programs"), now fixed: collapsed OR bundles used to carry
/// no leaf set, so they defeated the explanation dedup that tames
/// cyclic breeding — threshold-2 collapsing exhausted a 64 MB budget on
/// a 7-edge dense cyclic graph, and orientation-reversing recursion
/// (the q-swap program below, shrunk by the ltg-testkit differential
/// harness) OOMed 512 MB at the *default* threshold. Leafset summaries
/// dedup leaf-identical bundles, so both programs must now terminate
/// quickly with bounded node counts at the default *and* the aggressive
/// `collapse_threshold: 2` config. (This test's prior incarnation,
/// `#[ignore]`d, asserted the OOM instead.)
#[test]
fn aggressive_collapse_on_dense_cyclic_programs_terminates_quickly() {
    // Pin 1: 7 edges over 4 nodes, two overlapping cycles with a chord
    // — the smallest probed shape where threshold 2 used to explode.
    let dense_cyclic = "0.5 :: e(n0, n1). 0.5 :: e(n1, n2). 0.5 :: e(n2, n0). 0.5 :: e(n0, n2).
         0.5 :: e(n2, n1). 0.5 :: e(n1, n3). 0.5 :: e(n3, n0).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).";
    // Pin 2: the q-swap 6-fact program (PR 3's discovery) — the
    // orientation-reversing recursion that escalated the blowup to the
    // default threshold.
    let q_swap = "0.3 :: e(n1, n0). 0.8 :: e(n2, n2). 0.5 :: e(n3, n1).
         0.5 :: e(n0, n2). 0.3 :: e(n3, n0). 0.5 :: e(n0, n0).
         p(X, Y) :- e(X, Y).
         q(X, Y) :- p(X, Z), p(Z, Y).
         p(X, Y) :- q(Y, X).";
    let budget = 64 << 20;
    let deadline = Some(std::time::Duration::from_secs(10));
    for (label, src) in [("dense-cyclic", dense_cyclic), ("q-swap", q_swap)] {
        let program = parse_program(src).unwrap();
        let aggressive = EngineConfig {
            collapse: true,
            collapse_threshold: 2,
            ..EngineConfig::default()
        };
        for (cfg_label, config) in [
            ("default", EngineConfig::with_collapse()),
            ("threshold-2", aggressive),
        ] {
            let t0 = Instant::now();
            let meter = ResourceMeter::with_limits(budget, deadline);
            let mut engine = LtgEngine::with_config_and_meter(&program, config, meter);
            engine
                .reason()
                .unwrap_or_else(|e| panic!("{label}/{cfg_label}: collapse blowup resurfaced: {e}"));
            assert!(
                t0.elapsed().as_secs() < 10,
                "{label}/{cfg_label}: must terminate promptly"
            );
            assert!(
                engine.stats().nodes_created < 10_000,
                "{label}/{cfg_label}: node breeding resurfaced: {} nodes",
                engine.stats().nodes_created
            );
            assert!(
                engine.stats().deduped > 0,
                "{label}/{cfg_label}: dedup should have fired"
            );
        }
        // Summaries must not change the semantics: collapsing on and
        // off agree bitwise on every derived fact.
        let mut on = LtgEngine::with_config(&program, EngineConfig::with_collapse());
        let mut off = LtgEngine::with_config(&program, EngineConfig::without_collapse());
        on.reason().unwrap();
        off.reason().unwrap();
        let facts_on = on.derived_facts();
        let facts_off = off.derived_facts();
        assert_eq!(facts_on, facts_off, "{label}: derived facts diverge");
        let weights = on.db().weights();
        for &f in &facts_on {
            let mut l_on = on.lineage_of(f).unwrap();
            let mut l_off = off.lineage_of(f).unwrap();
            l_on.minimize();
            l_off.minimize();
            let p_on = NaiveWmc::default().probability(&l_on, &weights).unwrap();
            let p_off = NaiveWmc::default().probability(&l_off, &weights).unwrap();
            assert!(
                p_on == p_off,
                "{label}: probability diverges on fact {f:?}: {p_on} vs {p_off}"
            );
        }
    }
}

/// The WebKG generator once made the property-tree roots transitive:
/// every triple funneled into one dense digraph whose closure
/// percolated to Θ(n²) facts — scenario *construction* (QueryGen's
/// least-model step) never finished. The forest-shaped transitive data
/// must keep the closure small.
#[test]
fn webkg_least_models_close_quickly() {
    for (label, cfg) in [
        ("dbpedia", WebKgConfig::dbpedia()),
        ("claros", WebKgConfig::claros()),
    ] {
        let s = webkg::generate(label, &cfg);
        let t0 = Instant::now();
        let model = least_model(&s.program).unwrap();
        assert!(
            t0.elapsed().as_secs() < 30,
            "{label}: least model took too long"
        );
        assert!(
            model.facts.len() < 2_000_000,
            "{label}: closure percolated to {} facts",
            model.facts.len()
        );
        // The transitive properties must still derive something.
        assert!(model.facts.len() > s.program.facts.len());
    }
}

/// Planning EG node combinations used to run without resource checks:
/// a deadline set mid-explosion was only honoured after the (possibly
/// astronomical) planning loop finished. The meter must interrupt it.
#[test]
fn deadline_interrupts_combination_planning() {
    // Cyclic mined-rule-style program with heavy producer fan-out.
    let mut src = String::new();
    for i in 0..14 {
        for j in 0..14 {
            if i != j {
                src.push_str(&format!("0.5 :: e(n{i}, n{j}).\n"));
            }
        }
    }
    src.push_str("p(X, Y) :- e(X, Y).\np(X, Y) :- p(X, Z), p(Z, Y).\n");
    let program = parse_program(&src).unwrap();
    let meter = ResourceMeter::with_limits(usize::MAX, Some(std::time::Duration::from_millis(300)));
    let t0 = Instant::now();
    let mut engine =
        LtgEngine::with_config_and_meter(&program, EngineConfig::without_collapse(), meter);
    let _ = engine.reason(); // must abort, not hang
    assert!(
        t0.elapsed().as_secs() < 30,
        "deadline was not honoured during planning"
    );
}

/// `answer_keys` must render identically across engines so the harness
/// can compare per-answer probabilities (Figure 7b used to match on
/// engine-local fact ids and report 100% error everywhere).
#[test]
fn cross_engine_answer_keys_align() {
    use ltgs::baselines::{BaselineConfig, TopKEngine};
    let program = parse_program(
        "0.5 :: e(a, b). 0.6 :: e(b, c).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).
         query p(a, X).",
    )
    .unwrap();
    let mut ltg = LtgEngine::new(&program);
    ltg.reason().unwrap();
    let ltg_keys: Vec<Vec<String>> = ltg
        .answer(&program.queries[0])
        .unwrap()
        .iter()
        .map(|(f, _)| {
            ltg.db()
                .store
                .args(*f)
                .iter()
                .map(|s| ltg.program().symbols.name(*s).to_string())
                .collect()
        })
        .collect();
    let mut topk = TopKEngine::with_config(
        &program,
        30,
        BaselineConfig::default(),
        ResourceMeter::unlimited(),
    );
    topk.run().unwrap();
    let mut topk_keys: Vec<Vec<String>> = topk
        .answer(&program.queries[0])
        .iter()
        .map(|(f, _)| {
            topk.db()
                .store
                .args(*f)
                .iter()
                .map(|s| program.symbols.name(*s).to_string())
                .collect()
        })
        .collect();
    let mut ltg_sorted = ltg_keys.clone();
    ltg_sorted.sort();
    topk_keys.sort();
    assert_eq!(ltg_sorted, topk_keys);
}

/// Exact dedup decisions on three fixed worlds: the LUBM `scaled(1)`
/// materialisation, the dense-cyclic collapse world above (default and
/// threshold-2 collapsing), and one VQAR scene. The counts were taken
/// from the representation that kept one owned antichain per tree, so a
/// change to how summaries are stored or compared cannot silently store
/// (or drop) a tree the old one did not.
#[test]
fn explanation_dedup_counts_are_pinned() {
    use ltgs::benchdata::lubm::{generate as lubm, LubmConfig};
    use ltgs::benchdata::vqar::{scene, VqarConfig};
    let dense_cyclic = parse_program(
        "0.5 :: e(n0, n1). 0.5 :: e(n1, n2). 0.5 :: e(n2, n0). 0.5 :: e(n0, n2).
         0.5 :: e(n2, n1). 0.5 :: e(n1, n3). 0.5 :: e(n3, n0).
         p(X, Y) :- e(X, Y).
         p(X, Y) :- p(X, Z), p(Z, Y).",
    )
    .unwrap();
    let threshold_2 = EngineConfig {
        collapse: true,
        collapse_threshold: 2,
        ..EngineConfig::default()
    };
    let worlds = [
        (
            "lubm-1",
            lubm("LUBM-test", &LubmConfig::scaled(1)).program,
            EngineConfig::default(),
        ),
        (
            "dense-cyclic",
            dense_cyclic.clone(),
            EngineConfig::default(),
        ),
        ("dense-cyclic/threshold-2", dense_cyclic, threshold_2),
        (
            "vqar-0",
            scene(0, &VqarConfig::default()).program,
            EngineConfig::default(),
        ),
    ];
    // (derivations, deduped, leafset_dedup_hits, forest trees)
    let expected: [(u64, u64, u64, usize); 4] = [
        (22906, 201, 182, 23792),
        (336, 40, 20, 343),
        (336, 36, 20, 394),
        (3683, 1632, 1468, 3719),
    ];
    for ((label, program, config), want) in worlds.into_iter().zip(expected) {
        let mut engine = LtgEngine::with_config(&program, config);
        engine.reason().unwrap();
        let s = engine.stats();
        let got = (
            s.derivations,
            s.deduped,
            s.leafset_dedup_hits,
            engine.forest().len(),
        );
        assert_eq!(got, want, "{label}: dedup counts moved");
    }
}
