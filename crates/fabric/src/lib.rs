//! # dgf-fabric — a federated multi-shard DfMS
//!
//! The paper's peer-to-peer picture (§3.2) — "multiple DfMS servers
//! can form a peer-to-peer datagridflow network with one or more
//! lookup servers" — scaled out: a [`Fabric`] runs one complete engine
//! *shard* per administrative domain, each with its own write-ahead
//! journal, joined by a deterministic inter-shard bus.
//!
//! The moving parts:
//!
//! - **Shards** own their [`dgf_dfms::Dfms`] by value. Nothing outside
//!   the fabric ever holds a handle to a shard's engine; cross-domain
//!   work travels only as bus envelopes.
//! - **The bus** carries [`BusEnvelope`]s: sequence-numbered,
//!   virtual-time-stamped, journaled in the sender's bus WAL before
//!   publication (`send` frames) and in the receiver's before
//!   application (`recv` frames). Delivery order is total — ascending
//!   (virtual time, sequence) — and the receiver is pumped to the
//!   envelope's virtual time before the payload applies.
//! - **Routing** is the paper's lookup service: requests fan out by
//!   logical-path prefix (deepest owned prefix wins); a flow composing
//!   sub-flows owned by two or more shards becomes a *federated run*
//!   whose sub-flows are delegated to their owners over the bus, with
//!   completion acks flowing back.
//! - **Recovery** ([`Fabric::recover`]) replays every engine WAL, then
//!   the bus WALs: federated runs, hand-offs, the bus position, and
//!   in-flight envelopes are all rebuilt, and interrupted deliveries
//!   re-enqueue with their original sequence numbers — so the resumed
//!   federation is byte-identical to one that never crashed.
//!
//! ```
//! use dgf_fabric::Fabric;
//! use dgf_dgl::{DataGridRequest, FederationQuery, ResponseBody};
//!
//! let mut fabric = Fabric::new();
//! // (add shards with Fabric::add_shard, then route requests)
//! assert!(fabric.shard_names().is_empty());
//! let report = fabric.federation_report(&FederationQuery::report());
//! assert!(report.federated);
//! let _ = DataGridRequest::federation("r1", "operator", FederationQuery::summary());
//! ```

mod envelope;
mod fabric;
mod routing;

pub use envelope::{BusEnvelope, BusPayload};
pub use fabric::{BusCrashPoint, Fabric, Shard};

use dgf_dfms::DfmsError;
use dgf_journal::JournalError;
use std::fmt;

/// Errors surfaced by the fabric.
#[derive(Debug)]
pub enum FabricError {
    /// A shard engine refused an operation.
    Dfms(DfmsError),
    /// A bus WAL failed (I/O, framing).
    Journal(JournalError),
    /// A request named a shard the fabric does not have.
    UnknownShard(String),
    /// A bus WAL record could not be decoded.
    BadFrame(String),
    /// Fabric assembly was inconsistent (duplicate shard, bad prefix,
    /// label mismatch, ...).
    Config(String),
    /// A deliberately injected crash fired (chaos testing).
    CrashInjected {
        /// The delivery number the crash was armed for.
        delivery: u64,
        /// Where the crash landed relative to the `recv` frame.
        point: BusCrashPoint,
    },
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Dfms(e) => write!(f, "shard engine: {e}"),
            FabricError::Journal(e) => write!(f, "bus journal: {e}"),
            FabricError::UnknownShard(s) => write!(f, "unknown shard {s:?}"),
            FabricError::BadFrame(msg) => write!(f, "bad bus frame: {msg}"),
            FabricError::Config(msg) => write!(f, "fabric configuration: {msg}"),
            FabricError::CrashInjected { delivery, point } => {
                write!(f, "injected crash at delivery {delivery} ({point:?})")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl From<DfmsError> for FabricError {
    fn from(e: DfmsError) -> Self {
        FabricError::Dfms(e)
    }
}

impl From<JournalError> for FabricError {
    fn from(e: JournalError) -> Self {
        FabricError::Journal(e)
    }
}
