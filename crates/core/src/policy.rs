//! The failure-policy table: what happens when a target call fails.
//!
//! Every statement reaches the warehouse through one seam (the paper's
//! ODBC Server, §4.5), so what a failure means is one decision. This
//! module is the only non-test place that matches on
//! [`BackendErrorKind`] for policy. [`crate::resilience::TargetLink`]
//! takes retry / breaker / reconnect from it,
//! [`crate::replicate::ReplicatedBackend`] takes fence / fail over /
//! surface, and the wire gateway takes the client's error code.
//!
//! | kind | retry¹ | counts toward breaker | recover session | replica |
//! |---|---|---|---|---|
//! | Transient | yes | yes | no | fence once retries are exhausted |
//! | Timeout | yes | yes | no | fence |
//! | ConnectionLost | yes | yes | reset + journal replay² | fence |
//! | Rejected | yes | no | no | fail over, do not fence |
//! | Fatal | no | no | no | surface, keep the replica |
//! | any kind, statement cancelled | no | no | no | surface, keep the replica |
//!
//! ¹ Only for a replay-safe statement (idempotent, outside a transaction);
//! the attempt and deadline budgets are the caller's.
//! ² Inside a transaction the session is restored but the transaction is
//! aborted once (wire code 2631); a non-idempotent statement is not
//! re-issued and surfaces "outcome unknown".
//!
//! Only `Transient`, `Timeout` and `ConnectionLost` say anything about the
//! target's health. `Rejected` and `Fatal` are caused by the caller's own
//! statement or by load shedding, and a cancelled attempt failed because
//! its governor killed it: none of them may open the breaker for other
//! sessions or take a replica out of rotation.

use crate::backend::{BackendErrorKind, RequestContext};

/// Wire code of an ordinary failed statement.
pub const WIRE_STATEMENT_FAILED: u16 = 3807;

/// Wire code of a transaction aborted by a connection loss: the session is
/// usable again, but the client must re-run the whole transaction.
pub const WIRE_TXN_ABORTED: u16 = 2631;

/// What the session does about a failure once blind retries are spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRecovery {
    /// Surface the error; the session's target-side state is intact.
    None,
    /// Reconnect, replay the session journal, re-issue the statement.
    Reissue,
    /// Reconnect and replay, but do not re-issue: the statement is not
    /// replay-safe and its outcome on the dead connection is unknown.
    OutcomeUnknown,
    /// Reconnect and replay for the *next* statement; the open transaction
    /// rolled back with the connection and is reported aborted, once.
    AbortTransaction,
}

/// What a replica set does with the replica that returned the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaVerdict {
    /// The failure is the statement's, not the replica's: surface it.
    Keep,
    /// The replica is saturated but not stale: try a peer, do not fence.
    FailOver,
    /// The replica is unhealthy or its outcome unknown: take it out of
    /// rotation (and try a peer where the statement allows it).
    Fence,
}

/// One row of the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disposition {
    /// A blind retry may change the outcome and cannot double-apply.
    pub retry: bool,
    /// The failure is evidence about the target's health.
    pub counts_toward_breaker: bool,
    pub recover_session: SessionRecovery,
    pub fence_replica: ReplicaVerdict,
    /// The code the client sees if this failure is the one surfaced (a
    /// cancelled statement surfaces its cancel reason's code instead).
    pub wire_code: u16,
}

/// Whether the current statement's governor token is set: the `cancelled`
/// input of [`decide`], read when the attempt returns — never inferred from
/// the error text, which for a deadline kill can classify as `Timeout`.
pub fn statement_cancelled() -> bool {
    hyperq_governor::current().is_some_and(|gov| gov.token().is_cancelled())
}

/// Look up the disposition of a failed attempt.
pub fn decide(kind: BackendErrorKind, ctx: &RequestContext, cancelled: bool) -> Disposition {
    use BackendErrorKind::*;
    if cancelled {
        return Disposition {
            retry: false,
            counts_toward_breaker: false,
            recover_session: SessionRecovery::None,
            fence_replica: ReplicaVerdict::Keep,
            wire_code: WIRE_STATEMENT_FAILED,
        };
    }
    let replay_safe = ctx.allows_retry();
    let (retryable, counts_toward_breaker, fence_replica) = match kind {
        // Without retries behind it one transient blip is not evidence
        // enough to fence, and it cannot have applied anything.
        Transient if replay_safe => (true, true, ReplicaVerdict::Fence),
        Transient => (true, true, ReplicaVerdict::Keep),
        Timeout | ConnectionLost => (true, true, ReplicaVerdict::Fence),
        Rejected => (true, false, ReplicaVerdict::FailOver),
        Fatal => (false, false, ReplicaVerdict::Keep),
    };
    let recover_session = match kind {
        ConnectionLost if ctx.in_transaction => SessionRecovery::AbortTransaction,
        ConnectionLost if ctx.idempotent => SessionRecovery::Reissue,
        ConnectionLost => SessionRecovery::OutcomeUnknown,
        Transient | Timeout | Rejected | Fatal => SessionRecovery::None,
    };
    Disposition {
        retry: retryable && replay_safe,
        counts_toward_breaker,
        recover_session,
        fence_replica,
        wire_code: if recover_session == SessionRecovery::AbortTransaction {
            WIRE_TXN_ABORTED
        } else {
            WIRE_STATEMENT_FAILED
        },
    }
}
