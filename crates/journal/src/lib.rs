//! # dgf-journal — the DfMS write-ahead journal
//!
//! The paper's premise (§1, §3.1) is that datagridflows are *long-run*
//! processes: they outlive any single client or server session, so the
//! engine state that drives them must outlive the process too. This
//! crate is the durability layer: an append-only, CRC-framed journal of
//! engine commands and state transitions, with periodic checkpoints and
//! log compaction, from which a crashed DfMS can be rebuilt by
//! deterministic replay.
//!
//! ## What goes in the file
//!
//! Every record is one XML element (the same `dgf_xml` trees the rest of
//! the system speaks), framed in binary so torn tails are detectable.
//! Four element names are meaningful to the journal itself:
//!
//! - `<genesis>` — written once when a journal is created; pins a label
//!   describing the engine configuration the log assumes. Recovery
//!   refuses to replay a journal against a differently-configured engine.
//! - `<command>` — an external input to the engine (submit, pump,
//!   lifecycle action, failure injection...). Commands are the *replay
//!   script*: re-applying them in order to an identical engine
//!   reproduces identical state, because the engine is deterministic.
//! - `<transition>` — an effect the engine derived while executing a
//!   command (step started/finished, scheduler binding, trigger firing,
//!   a provenance record). Transitions are not needed to replay — they
//!   are re-derived — but they let recovery *verify* the replay and
//!   know, before re-driving anything, which steps already completed.
//! - `<checkpoint>` — a summary of the engine's live state (clock,
//!   counters, live runs); the compaction boundary.
//!
//! The journal does not interpret record bodies beyond the element name,
//! with one exception, the **survival rule**: which records every
//! compaction keeps.
//!
//! - Always kept: `<genesis>`, every `<command>` and `<busFrame>` (the
//!   replay scripts, kept from genesis because they stay cheap), every
//!   `<transition kind="provenance">` (the journal's one on-disk copy
//!   of the provenance history, and the source of recovery's
//!   completed-step memo), and every `<checkpoint>` that has a
//!   `<provenance>` child (written by older engines, whose checkpoints
//!   snapshotted provenance instead; it is the only copy of the records
//!   their compactions dropped).
//! - Kept only at or after the compaction checkpoint: every other
//!   transition and checkpoint.
//!
//! Everything else inside the bodies belongs to the engine in
//! `dgf-dfms`.
//!
//! Compaction needs no payload parse to apply the rule: the journal
//! keeps an index of its frames (seq, kind, survives-compaction, byte
//! offset, length), built by [`Journal::open`] and extended by
//! [`Journal::append`]. [`Journal::compact`] checks the CRC of every
//! frame in the file and copies the kept frames' bytes verbatim.
//!
//! ## On-disk format
//!
//! ```text
//! file   := header frame*
//! header := "DGFJRNL1"                      (8 bytes: magic + version)
//! frame  := len:u32le crc:u32le payload     (crc = CRC-32/IEEE of payload)
//! payload:= compact XML, one element        (`Element::to_xml`)
//! ```
//!
//! Binary length-prefixed framing (rather than line-based) is deliberate:
//! XML attribute values may carry raw newlines, so no text delimiter is
//! safe. A reader accepts the longest valid prefix; anything after the
//! first short, corrupt, or unparsable frame is a *torn tail* — the
//! residue of a crash mid-write — and is truncated, never an error.
//!
//! ## Durability
//!
//! Appends are buffered through the OS like any write; [`SyncPolicy`]
//! controls when `fsync` pins them to the platter. Commands, checkpoints
//! and genesis records are always synced before the append returns —
//! that is the write-ahead contract: a command is durable before the
//! engine acts on it. Transitions are batched per policy; losing a few
//! costs nothing but verification coverage, since replay re-derives them
//! (and the engine's recovery journals again the `provenance`
//! transitions a crash cut off).
//!
//! Compaction fsyncs the rewritten file, renames it over the journal and
//! then fsyncs the directory, so after a power loss the directory entry
//! cannot point back at the pre-compaction file. Creating a journal does
//! not fsync its directory yet: a power loss right after creation can
//! lose the new file.

mod crc32;
mod journal;

pub use journal::{
    CompactStats, Journal, JournalError, OpenReport, Record, RecordKind, SyncPolicy,
    FILE_HEADER, MAX_RECORD_LEN,
};

pub use crc32::crc32;
