//! The soak harness: **churn must not grow the graph**.
//!
//! The differential harness ([`crate::diff`]) proves a resident engine
//! *answers* like a from-scratch one; this module adds the resource
//! half of that contract. A long-lived session sees insert/delete
//! cycles over the same keys, and before dead-combo compaction each
//! cycle leaked arena slots: the execution graph grew linearly with
//! *mutation count* even when the live state was constant-size (the
//! blowup first observed on the sink-edge inserts of the persistence
//! benchmark). [`run_soak_script`] therefore checks, on top of the full
//! bitwise differential of [`crate::diff::run_script`], the
//! **graph-bound invariant** ([`graph_bound`]): after the final
//! incremental pass (which ends with a compaction), the node arena
//! holds at most the alive nodes plus the source skeleton — bounded by
//! the live derivation trees, never by how many mutations ever ran.
//! See `docs/engine.md` for the compaction design.
//!
//! [`arb_soak_script`] draws *churn-heavy* scripts: the same small key
//! domain as the differential generator but 3–4× the operations, so
//! insert → delete → re-insert cycles (the compaction-triggering shape)
//! occur many times per case.

use crate::diff::{run_script, Op, Script, RULE_PALETTE};
use crate::edges::{intern_edge, program_src_with};
use ltg_core::{EngineConfig, LtgEngine};
use ltg_datalog::parse_program;
use proptest::prelude::*;

/// Total derivation trees currently stored across the execution graph —
/// the quantity the arena size must be bounded by.
pub fn live_trees(engine: &LtgEngine) -> usize {
    engine.graph().nodes.iter().map(|n| n.tree_count()).sum()
}

/// The graph-bound invariant: post-compaction, the arena holds only
/// alive nodes (each ≥ 1 tree) and the always-kept source skeleton, so
///
/// ```text
/// arena ≤ 2·live_trees + sources + 2
/// ```
///
/// (the factor 2 and the additive slack make the check robust to small
/// representation changes — the failure mode being hunted is *linear in
/// mutations*, which no constant factor absorbs).
pub fn graph_bound(engine: &LtgEngine) -> Result<(), String> {
    let arena = engine.graph().nodes.len();
    let live = live_trees(engine);
    let sources = engine
        .graph()
        .nodes
        .iter()
        .filter(|n| n.parents.is_empty())
        .count();
    let bound = 2 * live + sources + 2;
    if arena > bound {
        return Err(format!(
            "graph arena holds {arena} nodes, bound is {bound} \
             ({live} live trees, {sources} source nodes) — dead combos leaked"
        ));
    }
    Ok(())
}

/// Replays a script against a resident engine (delta pass after each
/// effective insert, retract pass after each effective delete) and
/// returns the engine at the final fixpoint, compacted.
pub fn replay_resident(script: &Script, config: &EngineConfig) -> Result<LtgEngine, String> {
    replay_resident_with(script, config, |_| Ok(()))
}

/// [`replay_resident`], calling `check` on the engine after the initial
/// reasoning run and again after every op has been applied (and reasoned
/// over). The first `Err` aborts the replay.
pub fn replay_resident_with(
    script: &Script,
    config: &EngineConfig,
    mut check: impl FnMut(&mut LtgEngine) -> Result<(), String>,
) -> Result<LtgEngine, String> {
    let src = program_src_with(&script.initial, script.rules);
    let program = parse_program(&src).map_err(|e| e.to_string())?;
    let mut engine = LtgEngine::with_config_and_meter(&program, config.clone(), crate::guard());
    engine.reason().map_err(|e| e.to_string())?;
    check(&mut engine)?;

    for (i, &op) in script.ops.iter().enumerate() {
        match op {
            Op::Insert(x, y, p) => {
                let (e, args) = intern_edge(&mut engine, x, y);
                let (_, outcome) = engine
                    .insert_fact(e, &args, p)
                    .map_err(|e| format!("op {i} {op:?}: {e}"))?;
                if outcome.changed() {
                    engine.reason_delta().map_err(|e| e.to_string())?;
                }
            }
            Op::Delete(x, y) => {
                let (e, args) = intern_edge(&mut engine, x, y);
                let (_, outcome) = engine
                    .retract_fact(e, &args)
                    .map_err(|e| format!("op {i} {op:?}: {e}"))?;
                if outcome.changed() {
                    engine.reason_retract().map_err(|e| e.to_string())?;
                }
            }
            Op::Update(x, y, p) => {
                let (e, args) = intern_edge(&mut engine, x, y);
                let sp = engine.storage_pred(e);
                if let Some(f) = engine.db().store.lookup(sp, &args) {
                    engine
                        .update_prob(f, p)
                        .map_err(|e| format!("op {i} {op:?}: {e}"))?;
                }
            }
        }
        check(&mut engine).map_err(|e| format!("after op {i} {op:?}: {e}"))?;
    }
    Ok(engine)
}

/// The soak property: the script passes the full bitwise differential
/// of [`run_script`] **and** the replayed resident engine satisfies the
/// graph-bound invariant. The `Err` payload names which half failed
/// (usable as a [`crate::shrink`] predicate).
pub fn run_soak_script(script: &Script, config: &EngineConfig) -> Result<(), String> {
    run_script(script, config)?;
    let engine = replay_resident(script, config)?;
    graph_bound(&engine).map_err(|e| format!("after {} ops: {e}", script.ops.len()))
}

/// Strategy over churn-heavy scripts: a random [`RULE_PALETTE`] block,
/// up to 6 initial edges, and 16–48 mutations over the 4-node domain —
/// long enough that most cases delete and re-insert the same edge
/// several times.
pub fn arb_soak_script() -> impl Strategy<Value = Script> {
    let initial = prop::collection::vec(
        (0u8..4, 0u8..4, prop::sample::select(vec![0.3f64, 0.5, 0.8])),
        0..=6,
    );
    let op = (
        0u8..5,
        0u8..4,
        0u8..4,
        prop::sample::select(vec![0.2f64, 0.5, 0.9]),
    )
        .prop_map(|(kind, x, y, p)| match kind {
            0 | 1 => Op::Insert(x, y, p),
            2 | 3 => Op::Delete(x, y),
            _ => Op::Update(x, y, p),
        });
    (
        prop::sample::select((0..RULE_PALETTE.len()).collect::<Vec<_>>()),
        initial,
        prop::collection::vec(op, 16..=48),
    )
        .prop_map(|(rule_idx, initial, ops)| Script {
            rules: RULE_PALETTE[rule_idx],
            initial: crate::edges::dedup_edges(&initial),
            ops,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written churn cycle: the same two edges inserted and
    /// deleted four times over. Without compaction the transitive
    /// closure program re-plans the recursive combination every cycle
    /// and the arena grows by a few nodes per iteration; with it, the
    /// final arena is the same as after a single cycle.
    #[test]
    fn scripted_churn_cycle_stays_bounded() {
        let mut ops = Vec::new();
        for _ in 0..4 {
            ops.push(Op::Insert(0, 3, 0.9));
            ops.push(Op::Insert(3, 1, 0.4));
            ops.push(Op::Delete(0, 3));
            ops.push(Op::Delete(3, 1));
        }
        let script = Script {
            rules: RULE_PALETTE[0],
            initial: vec![(0, 1, 0.5), (1, 2, 0.6)],
            ops,
        };
        for config in [
            EngineConfig::with_collapse(),
            EngineConfig::without_collapse(),
        ] {
            run_soak_script(&script, &config).unwrap();
        }
    }

    /// Deleting everything must shrink the arena back to (near) the
    /// source skeleton — alive nodes cannot survive an empty EDB.
    #[test]
    fn delete_everything_compacts_to_the_skeleton() {
        let script = Script {
            rules: RULE_PALETTE[0],
            initial: vec![(0, 1, 0.5), (1, 2, 0.6), (2, 3, 0.7)],
            ops: vec![Op::Delete(0, 1), Op::Delete(1, 2), Op::Delete(2, 3)],
        };
        let engine = replay_resident(&script, &EngineConfig::with_collapse()).unwrap();
        assert_eq!(live_trees(&engine), 0);
        graph_bound(&engine).unwrap();
    }
}
