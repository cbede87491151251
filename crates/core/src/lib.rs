//! # dgf-dfms — the Datagridflow Management System
//!
//! The paper's §3.2 "DfMS Server": it "can service DGL requests both
//! synchronously and asynchronously", "manages state information about
//! all the tasks, which can be queried at any time", and "works on top
//! of the datagrid server (DGMS)". This crate is the execution half of
//! the system (the language half is [`dgf_dgl`]):
//!
//! * [`Dfms`] — the deterministic flow engine: interprets DGL flows
//!   against the [`dgf_dgms::DataGrid`] on the simulation clock;
//!   sequential / parallel / while / for-each / switch control patterns,
//!   lexically scoped variables, `beforeEntry` / `afterExit` rules,
//!   per-step fault policies, business-logic execution via the
//!   [`dgf_scheduler`] (late or early binding) with a virtual-data
//!   catalog short-circuit;
//! * full **lifecycle control** (§3.1): start, stop, pause, restart —
//!   restart resumes from provenance, skipping already-completed steps;
//! * **status queries at any granularity**: every node of a running flow
//!   tree is addressable (`/0/3/1`) via DGL `FlowStatusQuery`;
//! * a durable [`ProvenanceStore`] with snapshot/reload, queryable
//!   "even (years) after the execution";
//! * **datagrid triggers** wired into the operation path (BEFORE) and
//!   the event feed (AFTER), with cascade-depth control;
//! * recurring window-constrained **ILM jobs** ([`dgf_ilm::IlmJob`]);
//! * a threaded **server front-end** ([`DfmsServer`]) speaking DGL XML
//!   over channels — the request/response protocol of Appendix A (the
//!   peer-to-peer network of §3.2, one engine per administrative
//!   domain behind a lookup service, is the `dgf-fabric` crate);
//! * a shared **observability layer** ([`dgf_obs`]): every engine owns a
//!   flight recorder and metrics registry ([`Dfms::obs`]), and status
//!   queries can return recent events and metric snapshots
//!   (see `docs/OBSERVABILITY.md`);
//! * **durable journaling and crash recovery** ([`dgf_journal`]): an
//!   engine with an attached write-ahead journal survives a hard kill at
//!   any record boundary — [`Dfms::recover`] re-drives the journaled
//!   command script from genesis (the checkpoint supplies the
//!   completed-step memo), resumes in-flight flows, and reports what it
//!   did (see `docs/RECOVERY.md`);
//! * **time travel** over that journal ([`TimeTravel`]):
//!   [`Dfms::recover_to`] materializes the engine at any since-genesis
//!   transition ordinal, [`TimeTravel::diff`] produces a structured
//!   provenance/flow-state delta between two ordinals, and
//!   [`TimeTravel::bisect`] binary-searches history for the first
//!   ordinal where a predicate turned true (see `docs/TIME_TRAVEL.md`).

mod engine;
mod error;
mod provenance;
mod recovery;
mod run;
mod server;
mod time_travel;

pub use dgf_obs::{EventKind as ObsEventKind, MetricsSnapshot, Obs, ObsEvent};
pub use engine::{Dfms, EngineMetrics, Notification};
pub use error::DfmsError;
pub use provenance::{ProvenanceError, ProvenanceQuery, ProvenanceRecord, ProvenanceStore, StepOutcome};
pub use dgf_journal::SyncPolicy;
pub use recovery::JournalConfig;
pub use run::{NodeId, RunId, RunOptions};
pub use server::{DfmsServer, ServerHandle};
pub use time_travel::{Materialized, StateDiff, TimeTravel};
