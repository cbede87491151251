//! Engine-side journaling and crash recovery.
//!
//! The `dgf-journal` crate stores CRC-framed records; this module owns
//! the *vocabulary* written into them and the replay machinery that
//! turns a journal back into a running [`crate::Dfms`]:
//!
//! * **genesis** — `<genesis label="..."/>`, written once when a journal
//!   is attached. The label is the operator's assertion that the engine
//!   factory used at recovery rebuilds the same configuration (grid,
//!   users, scheduler, triggers, ILM jobs) the journal assumes; recovery
//!   refuses a mismatched label.
//! * **command** — `<command kind="...">`: one top-level external input
//!   (submission, lifecycle action, pump, binding-mode switch, failure
//!   injection...). Commands are the replay script: re-applying them in
//!   order against a factory-fresh engine deterministically re-derives
//!   every internal state, including span and transaction ids.
//! * **transition** — `<transition kind="..." n="...">`: a derived
//!   effect (provenance write, step start, scheduler binding, trigger
//!   firing, run admission). Transitions are *verification* data: replay
//!   re-derives them and counts divergences against the journal. `n` is
//!   the transition's **since-genesis ordinal**: the index this
//!   transition had in the full derivation sequence, counted from the
//!   genesis record onward. `provenance` transitions are also the
//!   journal's one on-disk copy of the provenance history: compaction
//!   keeps them, and they are the completed-step memo that
//!   [`dgf_dgl::ReplayStats::steps_skipped_restart`] accounts against.
//! * **checkpoint** — `<checkpoint time="..." nextTxn="...">` with one
//!   `<flows>/<flow>` summary per live run: its size follows live work,
//!   not history. Checkpoints bound compaction: older non-provenance
//!   transitions and stale checkpoints are dropped. A checkpoint written
//!   by an older engine may still embed a `<provenance>` snapshot; such
//!   a checkpoint survives compaction, and its records join the memo.
//!
//! ## Ordinal accounting across compaction
//!
//! Compaction drops non-provenance transition records older than the
//! surviving checkpoint but **never renumbers** the survivors, and it
//! keeps every command — replay is always a *full* re-drive of the
//! command script from genesis, so a freshly replayed engine re-derives
//! transitions `0, 1, 2, ...` regardless of how many transition
//! *records* the file still holds. The alignment invariant this module maintains (and
//! [`crate::Dfms::recover`] debug-asserts via [`ordinals_aligned`]) is:
//! the `n` attributes of the transition records surviving in the file
//! are **strictly increasing in file order**, so each surviving record
//! can be compared against `derived[n]` of the replay. After replay,
//! [`EngineJournal::transitions_written`] is reset to the *re-derived*
//! count (ordinals since genesis), **not** to the number of transition
//! records left in the compacted file — the two differ as soon as one
//! compaction has run.
//!
//! The same ordinal is the coordinate system of the time-travel surface
//! (`Dfms::recover_to`, diff, bisect — see `docs/TIME_TRAVEL.md`):
//! "ordinal `o`" always means "the state after deriving transition `o`
//! of the since-genesis sequence".
//!
//! Queries (status, telemetry, validation, recovery, time travel) are
//! *not* journaled: they derive no engine state that commands would not
//! re-derive. Likewise grid/trigger/ILM setup performed before the
//! journal is attached belongs to the factory, not the journal.

use crate::error::DfmsError;
use crate::run::RunOptions;
use dgf_journal::{Journal, JournalError, Record, RecordKind, SyncPolicy};
use dgf_simgrid::{ComputeId, FailureEvent, LinkId, ScheduleWindow, StorageId};
use dgf_xml::Element;
use std::collections::BTreeSet;

/// Journal behavior knobs. See `docs/RECOVERY.md` for tuning guidance.
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// When appended records hit the disk (commands and checkpoints are
    /// always synced; this batches transitions).
    pub sync: SyncPolicy,
    /// Write an automatic checkpoint after this many top-level commands
    /// (0 disables automatic checkpoints; call [`crate::Dfms::checkpoint`]
    /// yourself).
    pub checkpoint_every: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig { sync: SyncPolicy::default(), checkpoint_every: 64 }
    }
}

/// Replay bookkeeping, present only while `Dfms::recover` (or the
/// time-travel `Dfms::recover_to`) is driving the command script.
#[derive(Debug)]
pub(crate) struct ReplayState {
    /// Completed steps known to the journal: (lineage, node) from every
    /// journaled `provenance` transition, plus the snapshot of any
    /// checkpoint an older engine wrote with one. Consumed (removed) as
    /// replay re-reaches each step, so `skips` counts each completed
    /// step once.
    pub memo: BTreeSet<(String, String)>,
    /// Journaled transitions, as (`n`, compact XML with the journal's
    /// `seq` attribute stripped). `n` is the since-genesis ordinal;
    /// after compaction this list starts above zero but stays strictly
    /// increasing (see [`ordinals_aligned`]).
    pub expected: Vec<(u64, String)>,
    /// Transitions re-derived by replay, in derivation order (index is
    /// the transition's since-genesis ordinal `n`).
    pub derived: Vec<String>,
    /// Completed-at-crash steps re-reached by replay
    /// (`steps_skipped_restart` accounting).
    pub skips: u64,
    /// Time travel: highest since-genesis ordinal (inclusive) whose
    /// effects should apply. `None` replays the whole history.
    pub limit: Option<u64>,
    /// Set once a transition beyond `limit` tried to derive; pump loops
    /// and the command script halt as soon as they observe it.
    pub past_limit: bool,
}

impl ReplayState {
    /// Replay bookkeeping over the journal's expectations, optionally
    /// halting after since-genesis ordinal `limit`.
    pub fn new(
        memo: BTreeSet<(String, String)>,
        expected: Vec<(u64, String)>,
        limit: Option<u64>,
    ) -> Self {
        ReplayState { memo, expected, derived: Vec::new(), skips: 0, limit, past_limit: false }
    }
}

/// The engine's journaling state: the open journal plus its vocabulary
/// counters. `journal` is `None` only for read-only time-travel
/// materializations ([`crate::Dfms::recover_to`]), which replay a
/// journal *file* without ever holding it open for writing.
#[derive(Debug)]
pub(crate) struct EngineJournal {
    pub journal: Option<Journal>,
    pub config: JournalConfig,
    /// The genesis label this journal was created (or recovered) with.
    pub label: String,
    /// Top-level commands since the last checkpoint.
    pub commands_since_checkpoint: u64,
    /// Transitions derived since genesis — the next ordinal to stamp as
    /// `n`. After a replay this is reset to the *re-derived* count
    /// (`derived.len()`), never to the number of transition records the
    /// compacted file happens to retain: compaction drops old transition
    /// records but the ordinal sequence keeps counting from genesis.
    pub transitions_written: u64,
    /// `Some` while a replay is driving the engine; suppresses appends.
    pub replay: Option<ReplayState>,
}

impl EngineJournal {
    /// Wrap a freshly created (empty) journal: writes the genesis record.
    pub fn create(mut journal: Journal, label: &str, config: JournalConfig) -> Result<Self, JournalError> {
        journal.append(Element::new("genesis").with_attr("label", label))?;
        Ok(EngineJournal {
            journal: Some(journal),
            config,
            label: label.to_owned(),
            commands_since_checkpoint: 0,
            transitions_written: 0,
            replay: None,
        })
    }

    /// Journal one derived effect — or, during replay, record it for
    /// divergence checking instead.
    ///
    /// Returns whether the transition's *effects* should apply: always
    /// `true` in live operation and ordinary replay, `false` once a
    /// time-travel replay has derived past its ordinal limit (the
    /// caller then suppresses the corresponding provenance write, which
    /// is what makes `recover_to(o)`'s provenance an exact prefix).
    pub fn on_transition(&mut self, mut body: Element) -> Result<bool, JournalError> {
        match &mut self.replay {
            Some(r) => {
                let n = r.derived.len() as u64;
                if r.limit.is_some_and(|limit| n > limit) {
                    r.past_limit = true;
                    return Ok(false);
                }
                body.set_attr("n", n.to_string());
                r.derived.push(body.to_xml());
                Ok(true)
            }
            None => {
                body.set_attr("n", self.transitions_written.to_string());
                self.transitions_written += 1;
                if let Some(journal) = self.journal.as_mut() {
                    journal.append(body)?;
                }
                Ok(true)
            }
        }
    }
}

/// The ordinal alignment invariant: the `n` attributes of the
/// transition records surviving in a journal file must be strictly
/// increasing in file order. Compaction preserves this because it keeps
/// a *subsequence* of the transition records (every `provenance`
/// transition, and everything from the surviving checkpoint on) and
/// never reorders or renumbers them; replay depends on it because each
/// surviving record is verified against `derived[n]`. [`crate::Dfms::recover`] turns this into a debug
/// assertion over the partitioned journal.
pub(crate) fn ordinals_aligned(expected: &[(u64, String)]) -> bool {
    expected.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Refuse to replay a journal whose genesis label differs from the one
/// the caller asserts its factory rebuilds: replay against a
/// differently configured engine would silently diverge.
pub(crate) fn check_genesis(records: &[Record], label: &str) -> Result<(), DfmsError> {
    match records.iter().find(|r| r.kind == RecordKind::Genesis) {
        None => Err(DfmsError::Recovery("journal has records but no genesis".into())),
        Some(g) => {
            let found = g.body.attr("label").unwrap_or("");
            if found != label {
                return Err(DfmsError::Recovery(format!(
                    "genesis label mismatch: journal says {found:?}, recovery was given {label:?}"
                )));
            }
            Ok(())
        }
    }
}

/// Partition a journal into the three replay inputs: commands are the
/// replay script, transitions the `(ordinal, stripped XML)`
/// expectations, and every journaled `provenance` transition (plus the
/// snapshot in any checkpoint an older engine wrote) the completed-step
/// memo that [`dgf_dgl::ReplayStats::steps_skipped_restart`] accounts
/// against. Takes the records by value: command bodies move into the
/// script and transition bodies are stripped in place, never cloned.
#[expect(clippy::type_complexity, reason = "the three parts are named where the one caller destructures them")]
pub(crate) fn partition(
    records: Vec<Record>,
) -> (Vec<Element>, Vec<(u64, String)>, BTreeSet<(String, String)>) {
    let mut commands: Vec<Element> = Vec::new();
    let mut expected: Vec<(u64, String)> = Vec::new();
    let mut memo: BTreeSet<(String, String)> = BTreeSet::new();
    let memo_record = |memo: &mut BTreeSet<(String, String)>, rec: &Element| {
        if rec.attr("outcome") == Some("completed") && rec.attr("verb") != Some("flow") {
            if let (Some(lineage), Some(node)) = (rec.attr("lineage"), rec.attr("node")) {
                memo.insert((lineage.to_owned(), node.to_owned()));
            }
        }
    };
    for mut r in records {
        match r.kind {
            RecordKind::Command => commands.push(r.body),
            RecordKind::Transition => {
                let n = r.body.attr("n").and_then(|v| v.parse().ok()).unwrap_or(u64::MAX);
                if r.body.attr("kind") == Some("provenance") {
                    if let Some(rec) = r.body.child("record") {
                        memo_record(&mut memo, rec);
                    }
                }
                strip_seq(&mut r.body);
                expected.push((n, r.body.to_xml()));
            }
            // Only checkpoints written by older engines embed provenance.
            RecordKind::Checkpoint => {
                if let Some(prov) = r.body.child("provenance") {
                    for rec in prov.children_named("record") {
                        memo_record(&mut memo, rec);
                    }
                }
            }
            RecordKind::Genesis => {}
            // Bus frames live in the fabric's per-shard bus WALs, not in
            // engine journals; skip them for forward compatibility.
            RecordKind::BusFrame => {}
        }
    }
    (commands, expected, memo)
}

/// A `<command kind="...">` shell.
pub(crate) fn command(kind: &str) -> Element {
    Element::new("command").with_attr("kind", kind)
}

/// A `<transition kind="...">` shell.
pub(crate) fn transition(kind: &str) -> Element {
    Element::new("transition").with_attr("kind", kind)
}

/// Remove the journal's own `seq` attribute from a journaled body, so
/// it compares equal to a freshly re-derived transition.
pub(crate) fn strip_seq(el: &mut Element) {
    el.attributes.retain(|(name, _)| name != "seq");
}

/// Encode [`RunOptions`] for a `submitFlow` command. Omitted entirely
/// when the options are all defaults, keeping the common case compact.
pub(crate) fn options_element(options: &RunOptions) -> Option<Element> {
    if options.window.is_none() && options.trigger_depth == 0 && options.lineage.is_none() {
        return None;
    }
    let mut el = Element::new("options");
    if let Some(lineage) = &options.lineage {
        el.set_attr("lineage", lineage);
    }
    if options.trigger_depth != 0 {
        el.set_attr("depth", options.trigger_depth.to_string());
    }
    if let Some(window) = &options.window {
        let (days, start, end) = window.parts();
        let mask: String = days.iter().map(|d| if *d { '1' } else { '0' }).collect();
        el.push_element(
            Element::new("window")
                .with_attr("days", mask)
                .with_attr("start", start.to_string())
                .with_attr("end", end.to_string()),
        );
    }
    Some(el)
}

/// Decode the `<options>` child of a `submitFlow` command (absent means
/// defaults).
pub(crate) fn options_from_element(el: Option<&Element>) -> RunOptions {
    let Some(el) = el else { return RunOptions::default() };
    let window = el.child("window").and_then(|w| {
        let mask = w.attr("days")?;
        let mut days = [false; 7];
        for (i, c) in mask.chars().take(7).enumerate() {
            days[i] = c == '1';
        }
        let start: u8 = w.attr("start")?.parse().ok()?;
        let end: u8 = w.attr("end")?.parse().ok()?;
        if start >= 24 || end > 24 || !days.iter().any(|d| *d) {
            return None;
        }
        Some(ScheduleWindow::from_parts(days, start, end))
    });
    RunOptions {
        window,
        trigger_depth: el.attr("depth").and_then(|d| d.parse().ok()).unwrap_or(0),
        lineage: el.attr("lineage").map(str::to_owned),
    }
}

/// Encode a failure-injection command body.
pub(crate) fn failure_element(event: &FailureEvent) -> Element {
    let (target, id, online) = match event {
        FailureEvent::Storage(id, online) => ("storage", id.0, *online),
        FailureEvent::Compute(id, online) => ("compute", id.0, *online),
        FailureEvent::Link(id, online) => ("link", id.0, *online),
    };
    command("failure")
        .with_attr("target", target)
        .with_attr("id", id.to_string())
        .with_attr("online", online.to_string())
}

/// Decode a failure-injection command body.
pub(crate) fn failure_from_element(el: &Element) -> Option<FailureEvent> {
    let id: u32 = el.attr("id")?.parse().ok()?;
    let online = el.attr("online")? == "true";
    Some(match el.attr("target")? {
        "storage" => FailureEvent::Storage(StorageId(id), online),
        "compute" => FailureEvent::Compute(ComputeId(id), online),
        "link" => FailureEvent::Link(LinkId(id), online),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_round_trip_and_defaults_stay_implicit() {
        assert!(options_element(&RunOptions::default()).is_none());
        let opts = RunOptions {
            window: Some(ScheduleWindow::off_hours(20, 6)),
            trigger_depth: 2,
            lineage: Some("t9".into()),
        };
        let el = options_element(&opts).unwrap();
        let back = options_from_element(Some(&el));
        assert_eq!(back.lineage.as_deref(), Some("t9"));
        assert_eq!(back.trigger_depth, 2);
        // The wrap encoding (end <= start) survives the round trip.
        assert_eq!(back.window.unwrap().parts(), opts.window.as_ref().unwrap().parts());
    }

    #[test]
    fn failure_events_round_trip() {
        for event in [
            FailureEvent::Storage(StorageId(3), false),
            FailureEvent::Compute(ComputeId(1), true),
            FailureEvent::Link(LinkId(0), false),
        ] {
            let el = failure_element(&event);
            assert_eq!(failure_from_element(&el), Some(event));
        }
    }

    #[test]
    fn ordinal_alignment_invariant() {
        let t = |n: u64| (n, format!("<transition n=\"{n}\"/>"));
        // The empty and singleton journals are trivially aligned.
        assert!(ordinals_aligned(&[]));
        assert!(ordinals_aligned(&[t(7)]));
        // A fresh (never compacted) journal: ordinals from zero.
        assert!(ordinals_aligned(&[t(0), t(1), t(2)]));
        // A compacted journal: a dropped prefix leaves a strictly
        // increasing suffix that starts above zero...
        assert!(ordinals_aligned(&[t(41), t(42), t(45)]));
        // ...and the kept provenance transitions ahead of it keep the
        // sequence strictly increasing, with gaps.
        assert!(ordinals_aligned(&[t(2), t(17), t(41), t(42), t(45)]));
        // Renumbering or reordering the survivors breaks alignment.
        assert!(!ordinals_aligned(&[t(3), t(3)]));
        assert!(!ordinals_aligned(&[t(5), t(2), t(9)]));
    }

    #[test]
    fn replay_limit_suppresses_effects_past_the_ordinal() {
        let mut j = EngineJournal {
            journal: None,
            config: JournalConfig::default(),
            label: "test".into(),
            commands_since_checkpoint: 0,
            transitions_written: 0,
            replay: Some(ReplayState::new(BTreeSet::new(), Vec::new(), Some(1))),
        };
        assert!(j.on_transition(transition("a")).unwrap()); // ordinal 0
        assert!(j.on_transition(transition("b")).unwrap()); // ordinal 1 == limit
        assert!(!j.on_transition(transition("c")).unwrap()); // past the limit
        assert!(!j.on_transition(transition("d")).unwrap());
        let replay = j.replay.take().unwrap();
        assert!(replay.past_limit);
        assert_eq!(replay.derived.len(), 2, "derived stops growing at limit+1");
    }

    #[test]
    fn strip_seq_removes_only_the_journal_stamp() {
        let mut el = Element::new("transition").with_attr("kind", "x").with_attr("seq", "9").with_attr("n", "0");
        strip_seq(&mut el);
        assert_eq!(el.attr("seq"), None);
        assert_eq!(el.attr("kind"), Some("x"));
        assert_eq!(el.attr("n"), Some("0"));
    }
}
