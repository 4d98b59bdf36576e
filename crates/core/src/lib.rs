//! # hyperq-core — the Hyper-Q pipeline
//!
//! The paper's contribution (§4): an adaptive-data-virtualization engine
//! that intercepts application requests in one SQL dialect and executes
//! them, unchanged from the application's point of view, on a different
//! target database.
//!
//! Pipeline components, mirroring Figure 3:
//!
//! * [`binder`] — the Algebrizer's binding half: AST → XTRA with metadata
//!   lookup and binder-stage rewrites,
//! * [`transform`] — the Transformer: pluggable rewrite rules cascaded to a
//!   fixed point, split into target-agnostic (binding-stage) and
//!   target-specific (serialization-stage) phases,
//! * [`capability`] — one target's description as a plain value: the
//!   tracked features it supports natively, its output-only capabilities
//!   and its dialect spellings,
//! * [`targets`] — the named target-profile registry: each
//!   [`targets::TargetProfile`] is a name, one
//!   [`capability::TargetCapabilities`] value and whether the bundled
//!   engine executes it,
//! * [`serialize`] — per-target SQL serializers driven by a
//!   [`targets::TargetProfile`] (its capabilities decide both *what* to
//!   emit and *how to spell it*),
//! * [`emulate`] — the mid-tier emulation layer (§6): recursion via
//!   temporary tables, macros, procedures, `MERGE`, `HELP`, views, global
//!   temporary tables, SET-table semantics,
//! * [`backend`] — the ODBC-Server abstraction over target databases,
//! * [`session`] — per-connection state and the DTM shadow catalog,
//! * [`crosscompiler`] — the façade tying it all together, with per-stage
//!   timing instrumentation for the Figure 9 experiments; each
//!   statement's provenance record feeds the workload study (Figures
//!   8a/8b) through `hyperq_obs`'s statement table,
//! * [`analyze`] — the static-analysis layer: plan validation at stage
//!   boundaries, per-rule transformation audits, and the serializer
//!   round-trip check, in strict / log-only / off modes,
//! * [`conformance`] — the post-serializer sibling of [`analyze`]: a
//!   capability-conformance lint over the exact SQL bytes sent to the
//!   target, plus advisory anti-pattern lints over source statements,
//! * [`resilience`] — the backend execution path: the one
//!   [`TargetLink`] between a session and its target (retries, circuit
//!   breaker, reconnect + replay), driven by
//! * [`policy`] — the failure-policy table: per error kind, what retries,
//!   what trips the breaker, what fences a replica, which wire code the
//!   client sees,
//! * [`recover`] — session continuity: the replay journal of target-side
//!   session state the link restores after a lost connection.

#![forbid(unsafe_code)]

pub mod analyze;
pub mod backend;
pub mod binder;
pub mod builder;
pub mod cache;
pub mod capability;
pub mod conformance;
pub mod crosscompiler;
pub mod emulate;
pub mod error;
pub mod policy;
pub mod recover;
pub mod repair;
pub mod replicate;
pub mod resilience;
pub mod serialize;
pub mod session;
pub mod targets;
pub mod transform;

pub use analyze::{AnalyzeMode, Analyzer};
pub use builder::{HyperQBuilder, Request, RequestOptions, Response};
pub use cache::{CacheConfig, TranslationCache};
pub use backend::{
    Backend, BackendError, BackendErrorKind, ExecResult, RequestContext, RequestKind,
};
pub use capability::TargetCapabilities;
pub use conformance::{Conformance, ConformanceMode, Finding, Severity};
pub use targets::TargetProfile;
pub use emulate::{CostTier, EmulationKind};
pub use crosscompiler::{HyperQ, StageTimings, StatementResult, STAGE_DURATION_METRIC};
pub use error::{HyperQError, Result};
pub use hyperq_obs::{ObsContext, TraceId};
pub use recover::{
    JournalEntry, JournalEntryKind, RecoverConfig, SessionJournal, TXN_ABORT_MESSAGE,
};
pub use repair::{ProberHandle, RepairReport};
pub use replicate::{ReplicaConfig, ReplicaHealth, ReplicaSnapshot, ReplicatedBackend, TxnPin};
pub use resilience::{BreakerConfig, BreakerState, ResilienceConfig, RetryPolicy, TargetLink};
