//! # hyperq-engine — the simulated cloud data warehouse
//!
//! The substrate standing in for the paper's target database (DB-B): an
//! in-memory analytical SQL engine that parses the **ANSI target dialect**
//! (what Hyper-Q's serializer emits), binds it with the shared binder, and
//! executes the resulting XTRA plan.
//!
//! Fidelity rules:
//!
//! * the engine accepts *only* the ANSI dialect — Teradata-isms are syntax
//!   errors, so a serializer leak fails loudly;
//! * the engine's feature surface matches
//!   [`hyperq_core::capability::TargetCapabilities::simwh`] exactly: no
//!   `QUALIFY`, no vector subquery comparison, no recursion, no `MERGE`,
//!   no grouping sets — requests using them are rejected, which is what
//!   forces Hyper-Q's rewrites and emulations to actually run;
//! * execution is correct rather than clever: hash joins and hash
//!   aggregation where possible, nested loops otherwise. Subqueries the
//!   optimizer cannot decorrelate run through a per-statement memo: once
//!   per distinct value of their outer references (once per statement
//!   when uncorrelated), not once per outer row. An operator's row loop
//!   does per-row work only: it evaluates through one context whose
//!   column references are resolved on the first row.
//!
//! Concurrency: the catalog is guarded by an `RwLock` and table contents
//! are copy-on-write (`Arc<Vec<Row>>`), so concurrent analytical readers —
//! the paper's stress-test scenario (§7.3) — proceed without blocking each
//! other. A scan borrows that snapshot instead of copying it: operators
//! read it by reference and copy only the rows they output, and a writer
//! swaps in a new `Arc` rather than touching one a reader holds.

#![forbid(unsafe_code)]

mod db;
mod eval;
mod exec;
mod memo;
mod optimize;
mod scope;

pub use db::EngineDb;
