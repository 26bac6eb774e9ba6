//! The two served worlds. Their *shape* is pinned — same rules, same
//! facts, same pool classes for every seed — so a metric means the
//! same thing on every seed; `--seed` draws the fact weights, the pool
//! ranks and the scripts.

use super::script::{shuffle, stream, wire_prob, Edb, PoolQuery};
use ltg_benchdata::lubm::{self, LubmConfig};
use ltg_benchdata::wire::{render_ground, render_program};
use ltg_datalog::Program;

/// A served world: rule text, the bench's copy of the EDB, and the
/// ranked query pool.
pub struct World {
    pub rules: String,
    pub edb: Edb,
    pub pool: Vec<PoolQuery>,
}

impl World {
    /// The program text `ltgs serve` loads (and the oracle reasons
    /// over): rules, then the live facts.
    pub fn render(&self) -> String {
        format!("{}{}", self.rules, self.edb.render())
    }
}

/// Universities ×2 of the LUBM generator: 9 620 facts, boots in ≈0.4 s.
pub const LUBM_SCALE: usize = 10;
/// Layered reachability DAG, 4 nodes wide. `serve_churn` uses 7 layers
/// (96 edges; a sink-edge insert walks the whole cone in ≈6 ms);
/// `durable_restart` uses 8 (112 edges), where every pair of far layers
/// is joined by 4^6 paths and a cold boot takes ≈0.8 s against ≈0.2 s
/// for a snapshot load.
pub const DAG_WIDTH: usize = 4;
pub const CHURN_LAYERS: usize = 7;
pub const DURABLE_LAYERS: usize = 8;
/// Disconnected edge slots the local insert–delete pairs cycle over.
pub const LOCAL_SLOTS: usize = 8;

fn rules_text(program: &Program) -> String {
    let mut p = program.clone();
    p.facts.clear();
    p.queries.clear();
    render_program(&p).expect("world rules are printable")
}

/// Interleaves the classes so that every stretch of ranks holds the
/// same mix of classes on every seed; the seed only picks which
/// instance of a class lands where.
fn ranked(mut classes: Vec<Vec<PoolQuery>>, seed: u64) -> Vec<PoolQuery> {
    for (k, class) in classes.iter_mut().enumerate() {
        shuffle(class, &mut stream(seed, 0x900 + k as u64));
        class.reverse(); // pop() hands them out in shuffled order
    }
    let total: usize = classes.iter().map(Vec::len).sum();
    let sizes: Vec<usize> = classes.iter().map(Vec::len).collect();
    let mut taken = vec![0usize; classes.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        // The class furthest behind its share of the ranks so far.
        let k = (0..classes.len())
            .filter(|&k| taken[k] < sizes[k])
            .min_by(|&a, &b| {
                let fa = (taken[a] as f64 + 0.5) / sizes[a] as f64;
                let fb = (taken[b] as f64 + 0.5) / sizes[b] as f64;
                fa.total_cmp(&fb)
            })
            .expect("a class has instances left");
        taken[k] += 1;
        out.push(classes[k].pop().expect("counted"));
    }
    out
}

/// The LUBM world of `serve_query`: the generator's university graph
/// with seed-drawn weights, and a pool of the 14 standard queries plus
/// their body atoms instantiated over the world's constants.
pub fn lubm_world(seed: u64) -> World {
    let config = LubmConfig::scaled(LUBM_SCALE);
    let scenario = lubm::generate("lubm", &config);
    let program = scenario.program;
    let idb = program.idb_mask();

    let mut rng = stream(seed, 0x10);
    let mut edb = Edb::default();
    for (atom, _) in &program.facts {
        let text = render_ground(&program, atom).expect("LUBM facts are printable");
        // Predicates no rule derives keep their lineage when their
        // weight moves and invalidate few cached queries: the script's
        // UPDATE targets.
        let class = if idb[atom.pred.index()] {
            "mixed"
        } else {
            match program.preds.name(atom.pred) {
                "publicationAuthor" => "narrow",
                "takesCourse" => "wide",
                _ => "edb",
            }
        };
        if edb.lookup(&text).is_none() {
            edb.add(text, wire_prob(&mut rng), true, class);
        }
    }

    // One class per query template, so that the ranks a template holds
    // — and with them the share of traffic an UPDATE invalidates — are
    // the same on every seed.
    const TEMPLATES: [&str; 11] = [
        "takesCourse(V0,course)",
        "publicationAuthor(V0,prof)",
        "teacherOf(prof,V0)",
        "advisor(V0,prof)",
        "person(prof)",
        "veteranMember(grad)",
        "sameDepartment(grad,V0)",
        "memberOf(V0,dept)",
        "worksFor(V0,dept)",
        "hasAlumnus(univ,V0)",
        "subOrganizationOf(V0,univ)",
    ];
    let mut classes: Vec<Vec<PoolQuery>> = vec![Vec::new(); TEMPLATES.len() + 1];
    let mut add = |template: usize, kind: &str, constant: &str| {
        classes[template].push(PoolQuery {
            text: TEMPLATES[template].replace(kind, constant),
            class: TEMPLATES[template],
        });
    };
    for ui in 0..config.universities {
        let univ = format!("univ{ui}");
        add(9, "univ", &univ);
        add(10, "univ", &univ);
        for di in 0..config.departments {
            let dept = format!("dept{ui}_{di}");
            add(7, "dept", &dept);
            add(8, "dept", &dept);
            for ci in 0..config.courses {
                add(0, "course", &format!("course{ui}_{di}_{ci}"));
            }
            for fi in 0..config.faculty {
                let prof = format!("prof{ui}_{di}_{fi}");
                // Half the professors: with every tenth op an UPDATE of
                // a `publicationAuthor` weight these queries miss almost
                // always, and their share of the pool sets the hit
                // ratio (0.87 with 180 of them).
                if fi % 2 == 0 {
                    add(1, "prof", &prof);
                }
                for template in 2..=4 {
                    add(template, "prof", &prof);
                }
            }
            for gi in 0..config.grads {
                let grad = format!("gr{ui}_{di}_{gi}");
                add(5, "grad", &grad);
                add(6, "grad", &grad);
            }
        }
    }
    classes[TEMPLATES.len()] = scenario
        .queries
        .iter()
        .map(|a| PoolQuery {
            text: ltg_benchdata::wire::render_query(&program, a).expect("printable"),
            class: "lubm14",
        })
        .collect();
    let pool = ranked(classes, seed);

    World {
        rules: rules_text(&program),
        edb,
        pool,
    }
}

/// The layered-DAG reachability world of `serve_churn` and
/// `durable_restart`: every node of a layer has an edge to every node
/// of the next. Slots for the scripted inserts ride in the EDB, not
/// live: `deep` sink edges out of the last layer and `local`
/// disconnected edges.
pub fn dag_world(seed: u64, layers: usize) -> World {
    let (w, l) = (DAG_WIDTH, layers);
    let mut rng = stream(seed, 0x20);
    let mut edb = Edb::default();
    for layer in 0..l - 1 {
        for a in 0..w {
            for b in 0..w {
                let atom = format!("e(n{layer}_{a},n{}_{b})", layer + 1);
                // Weights stay clear of 0 and 1 so no path is certain
                // or impossible and every lineage keeps its full size.
                let prob = 0.2 + 0.6 * wire_prob(&mut rng);
                let prob = format!("{prob:.6}").parse().expect("formatted float");
                edb.add(atom, prob, true, "world");
            }
        }
    }
    for k in 0..w {
        edb.add(format!("e(n{}_{k},sink{k})", l - 1), 0.0, false, "deep");
    }
    for k in 0..LOCAL_SLOTS {
        edb.add(format!("e(iso_a{k},iso_b{k})"), 0.0, false, "local");
    }

    // Ground pairs one to three layers apart, and the open query from
    // each node of the last three layers (whose answers include a sink
    // while its edge is in).
    let q = |class: &'static str, text: String| PoolQuery { text, class };
    let mut near = Vec::new();
    let mut open = Vec::new();
    for layer in 0..l {
        for a in 0..w {
            for gap in 1..=3 {
                if layer + gap < l {
                    for b in 0..w {
                        near.push(q("near", format!("p(n{layer}_{a},n{}_{b})", layer + gap)));
                    }
                }
            }
            if layer + 3 >= l {
                open.push(q("open", format!("p(n{layer}_{a},V0)")));
            }
        }
    }
    let pool = ranked(vec![near, open], seed);

    World {
        rules: "p(V0,V1) :- e(V0,V1).\np(V0,V1) :- p(V0,V2), p(V2,V1).\n".to_string(),
        edb,
        pool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_keep_their_shape_across_seeds() {
        let (a, b) = (dag_world(1, 7), dag_world(2, 7));
        assert_eq!(a.rules, b.rules);
        assert_eq!(a.edb.facts.len(), b.edb.facts.len());
        assert_eq!(a.edb.live(), DAG_WIDTH * DAG_WIDTH * 6);
        assert_eq!(a.pool.len(), b.pool.len());
        // Same classes at the same ranks, different instances.
        assert!(a.pool.iter().zip(&b.pool).all(|(x, y)| x.class == y.class));
        assert!(a.pool.iter().zip(&b.pool).any(|(x, y)| x.text != y.text));
        assert_ne!(a.edb.facts[0].prob, b.edb.facts[0].prob);
        assert_eq!(dag_world(1, 7).render(), a.render());
    }

    #[test]
    fn lubm_pool_is_large_and_distinct() {
        let w = lubm_world(1);
        assert!(w.pool.len() >= 2000, "{}", w.pool.len());
        let mut texts: Vec<&str> = w.pool.iter().map(|q| q.text.as_str()).collect();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), w.pool.len());
        assert!(ltg_datalog::parse_program(&w.render()).is_ok());
    }
}
