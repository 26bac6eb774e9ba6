//! `ltg-lineage` — the provenance substrate of the LTGs reproduction.
//!
//! The paper's central data structure is the set of *derivation trees*
//! stored inside trigger-graph nodes, kept compact through *structure
//! sharing* (trees reference their subtrees by id instead of copying them)
//! and, optionally, through *collapsing* (OR-labeled nodes that merge many
//! trees with the same root fact — Section 5).
//!
//! This crate provides:
//! * the structure-shared derivation forest ([`forest`]),
//! * redundancy checks for plain and collapsed trees ([`redundancy`]),
//! * `unfold` per Definition 5 ([`unfold`]),
//! * lineage DNF with absorption-based minimization ([`dnf`]),
//! * compact leafset summaries for explanation dedup under collapse
//!   ([`summary`]),
//! * the Tseitin DNF→CNF transformation used by the c2d-style solver
//!   ([`cnf`]).

// Paper-style citation brackets ([77], [41], …) are used throughout the
// doc comments; they are not intra-doc links.
#![allow(rustdoc::broken_intra_doc_links)]

pub mod cnf;
pub mod dnf;
pub mod extract;
pub mod forest;
pub mod redundancy;
pub mod summary;
pub mod unfold;

pub use cnf::{tseitin, Cnf};
pub use dnf::{Dnf, LineageTooLarge};
pub use extract::{tree_dnf, trees_dnf, DnfCache};
pub use forest::{Forest, Label, TreeId};
pub use redundancy::{is_redundant, min_occ, OccCache};
pub use summary::{summarize, SummaryId, SummaryStore, EXACT_CONJUNCT_CUTOFF};
pub use unfold::{unfold, MaterialTree};

/// Approximate heap bytes of a hash table with `capacity` usable slots
/// of `entry` bytes each (one control byte per slot, 7/8 load factor).
pub fn table_bytes(capacity: usize, entry: usize) -> usize {
    capacity * 8 / 7 * (entry + 1)
}
