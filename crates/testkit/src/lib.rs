//! `ltg-testkit` — shared test infrastructure for the workspace suites.
//!
//! The integration tests under `tests/` used to each carry their own
//! copy of the same scaffolding: random edge-set builders, the
//! `p(nx, ny)` probability probe, the brute-force possible-world
//! oracle, and the `ltgs serve` process harness. This crate is their
//! single home, plus the piece the retraction work is built around:
//!
//! * [`edges`] — random edge sets over a small node domain, program
//!   sources, the bitwise-canonical probability probe;
//! * [`oracle`] — brute-force possible-world enumeration (Equation (2)
//!   of the paper), the ground truth every engine must match;
//! * [`diff`] — the **differential mutation harness**: apply a script
//!   of INSERT/DELETE/UPDATE operations to a resident [`ltg_core::LtgEngine`]
//!   (delta- or retract-reasoning after each), then check every query
//!   probability **bitwise** against a from-scratch engine on the final
//!   database and against the `ΔTcP` baseline — with a greedy shrinker
//!   that minimizes failing scripts before they are reported;
//! * [`recovery`] — the **crash-recovery harness**: run a script with a
//!   snapshot at a chosen prefix and a WAL for the tail, mutilate the
//!   WAL, reload, and check the recovered engine bitwise against a
//!   from-scratch run on the surviving prefix;
//! * [`soak`] — the **soak harness**: churn-heavy scripts checked under
//!   the differential property *plus* the graph-bound invariant (the
//!   node arena stays bounded by live trees — dead-combo compaction
//!   works, see `docs/engine.md`);
//! * [`sharded`] — the **sharding harness**: random multi-component
//!   programs and request scripts driven through a single session and
//!   through `ltg-shard`'s `ShardedService` at 1/2/4 shards, every wire
//!   response compared byte-for-byte, failures shrunk;
//! * [`net`] — spawn a real `ltgs serve` process and speak the line
//!   protocol over a socket.

pub mod diff;
pub mod edges;
pub mod net;
pub mod oracle;
pub mod recovery;
pub mod sharded;
pub mod soak;

pub use diff::{arb_any_script, arb_script, run_script, shrink, Op, Script, RULE_PALETTE};
pub use edges::{
    acyclic, arb_edges, dedup_edges, guard, intern_edge, prob_named, prob_of, program_src,
    program_src_with, EXAMPLE1, EXAMPLE1_EDB, TC_RULES,
};
pub use net::{connect, request, spawn_serve, spawn_serve_with, stat, write_program, ServeGuard};
pub use oracle::possible_world_probability;
pub use recovery::run_recovery_script;
pub use sharded::{
    arb_shard_script, run_shard_script, shard_program_src, shrink_shard_script, ShardComponent,
    ShardOp, ShardScript,
};
pub use soak::{
    arb_soak_script, graph_bound, live_trees, replay_resident, replay_resident_with,
    run_soak_script,
};
