//! `ltg-storage` — the fact-store substrate of the LTGs reproduction.
//!
//! Provides:
//! * a hash-consing arena for ground facts ([`fact::FactStore`]),
//! * per-predicate relations with on-demand hash indexes
//!   ([`relation::Relation`]),
//! * the tuple-independent probabilistic database `(F, π)`
//!   ([`database::Database`]),
//! * resource accounting — estimated live bytes, peaks, deadlines —
//!   that drives the OOM/TO reporting of Table 6 ([`meter::ResourceMeter`]).

// Paper-style citation brackets ([77], [41], …) are used throughout the
// doc comments; they are not intra-doc links.
#![allow(rustdoc::broken_intra_doc_links)]

pub mod database;
pub mod fact;
pub mod meter;
pub mod relation;

pub use database::{Database, DatabaseState, DbStateError, DeleteOutcome, InsertOutcome};
pub use fact::{FactId, FactStore};
pub use meter::{ResourceError, ResourceMeter};
pub use relation::{PatternMask, Relation, TupleIndex};
