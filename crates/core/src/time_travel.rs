//! Time travel over the write-ahead journal: materialize the engine at
//! any since-genesis transition ordinal, diff two ordinals, and bisect
//! history for the first ordinal where a predicate turned true.
//!
//! The journal's commands are a deterministic replay script (see
//! `crate::recovery`), so "the engine at ordinal `o`" is well defined:
//! re-drive the script from genesis and stop applying effects once
//! transition `o` has been derived. [`Dfms::recover_to`] does exactly
//! that — read-only (it never opens the journal for writing, so a live
//! server can time-travel its *own* journal between commands) — and the
//! [`TimeTravel`] handle packages it into the operator console surface:
//! `materialize` / `diff` / `bisect`, reachable over the DGL wire as
//! `timeTravelQuery`/`timeTravelReport`. The operator guide is
//! `docs/TIME_TRAVEL.md`.

use crate::engine::Dfms;
use crate::error::DfmsError;
use crate::provenance::ProvenanceRecord;
use crate::recovery::{self, EngineJournal, JournalConfig, ReplayState};
use dgf_dgl::{
    BisectSpec, BisectSummary, DiffSummary, FlowDelta, OrdinalSummary, RunState, TimeTravelOp,
    TimeTravelQuery, TimeTravelReport,
};
use dgf_journal::Journal;
use std::fmt;
use std::path::{Path, PathBuf};

/// An engine materialized at a past ordinal by [`Dfms::recover_to`],
/// with the replay's accounting.
pub struct Materialized {
    /// The engine, frozen at the requested ordinal. It has no journal
    /// attached (time travel is read-only): commands still work but are
    /// not recorded, which makes the engine safe to probe and discard.
    pub engine: Dfms,
    /// The ordinal actually reached — `transitions_derived - 1`, or
    /// `None` when the replayed prefix derived no transitions at all.
    pub ordinal: Option<u64>,
    /// The ordinal the caller asked for (`None` = end of history).
    pub requested: Option<u64>,
    /// True when the whole history fit under the requested ordinal,
    /// i.e. this materialization *is* the full replay.
    pub complete: bool,
    /// Journaled commands applied before the replay halted.
    pub commands_applied: u64,
    /// Transitions derived (= `ordinal + 1` when any derived).
    pub transitions_derived: u64,
}

impl Materialized {
    /// The wire-shaped summary of this materialization.
    pub fn summary(&self) -> OrdinalSummary {
        OrdinalSummary {
            ordinal: self.ordinal,
            requested: self.requested,
            complete: self.complete,
            commands_applied: self.commands_applied,
            transitions_derived: self.transitions_derived,
            time_us: self.engine.now().0,
            flows: self.engine.flow_summaries(),
        }
    }
}

impl fmt::Debug for Materialized {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Materialized")
            .field("ordinal", &self.ordinal)
            .field("requested", &self.requested)
            .field("complete", &self.complete)
            .field("commands_applied", &self.commands_applied)
            .field("transitions_derived", &self.transitions_derived)
            .finish_non_exhaustive()
    }
}

/// The structured delta between two materialized ordinals: the
/// provenance records written between them and every flow whose state
/// or progress changed. Produced by [`TimeTravel::diff`];
/// `diff(a, a)` is always [`StateDiff::is_empty`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateDiff {
    /// The earlier ordinal.
    pub from: u64,
    /// The later ordinal.
    pub to: u64,
    /// Clock at the earlier ordinal, µs.
    pub time_from_us: u64,
    /// Clock at the later ordinal, µs.
    pub time_to_us: u64,
    /// Provenance records present at `to` but not yet at `from`, in
    /// derivation order. The `from` store is verified to be an exact
    /// prefix of the `to` store (determinism makes it one; anything
    /// else is reported as an error by [`TimeTravel::diff`]).
    pub provenance_added: Vec<ProvenanceRecord>,
    /// Flows that appeared or changed between the ordinals; unchanged
    /// flows are omitted.
    pub flows: Vec<FlowDelta>,
}

impl StateDiff {
    /// True when nothing observable changed between the two ordinals.
    pub fn is_empty(&self) -> bool {
        self.provenance_added.is_empty() && self.flows.is_empty()
    }

    /// The wire-shaped summary of this delta.
    pub fn summary(&self) -> DiffSummary {
        DiffSummary {
            from: self.from,
            to: self.to,
            provenance_added: self.provenance_added.len() as u64,
            time_from_us: self.time_from_us,
            time_to_us: self.time_to_us,
            flows: self.flows.clone(),
        }
    }
}

/// A bisection predicate, evaluated against a materialized engine.
///
/// Bisection assumes the predicate is *monotone* over the journal's
/// history — false up to some ordinal, true from there on — the same
/// contract `git bisect` puts on "broken". [`BisectPredicate::Stalled`]
/// is monotone for a flow that stalls and never recovers (the common
/// diagnostic case); a flow that recovers breaks monotonicity past the
/// recovery, so bisect the prefix where the stall persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BisectPredicate {
    /// The flow has sat idle past the watchdog's stall deadline
    /// (computed directly from the progress watermark, so it holds
    /// regardless of when `health_check` last ran).
    Stalled {
        /// The flow's transaction id.
        transaction: String,
    },
    /// The flow has reached the given lifecycle state.
    FlowState {
        /// The flow's transaction id.
        transaction: String,
        /// The state to locate the first occurrence of.
        state: RunState,
    },
    /// The flow variable renders to the given text in the root scope.
    Variable {
        /// The flow's transaction id.
        transaction: String,
        /// The variable name.
        name: String,
        /// The rendered value to match.
        value: String,
    },
}

impl BisectPredicate {
    /// Evaluate against a materialized engine.
    pub fn eval(&self, engine: &Dfms) -> bool {
        match self {
            BisectPredicate::Stalled { transaction } => {
                let Some(health) = engine.obs().health_flow(transaction) else { return false };
                let config = engine.obs().health_config();
                let deadline = config.stalled_after.max(config.slow_after);
                engine.now().since(health.last_progress) >= deadline
            }
            BisectPredicate::FlowState { transaction, state } => engine
                .flow_summaries()
                .iter()
                .any(|f| &f.transaction == transaction && f.state == *state),
            BisectPredicate::Variable { transaction, name, value } => engine
                .flow_variable(transaction, name)
                .map(|v| v.to_string() == *value)
                .unwrap_or(false),
        }
    }

    /// Build from the wire-level [`BisectSpec`].
    pub fn from_spec(spec: BisectSpec) -> Self {
        match spec {
            BisectSpec::Stalled { transaction } => BisectPredicate::Stalled { transaction },
            BisectSpec::State { transaction, state } => {
                BisectPredicate::FlowState { transaction, state }
            }
            BisectSpec::Variable { transaction, name, value } => {
                BisectPredicate::Variable { transaction, name, value }
            }
        }
    }
}

/// A bisection outcome: where the predicate first held and what it
/// cost to find out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BisectOutcome {
    /// First ordinal where the predicate held; `None` when it does not
    /// hold even at the end of history.
    pub first_true: Option<u64>,
    /// Materializations performed: one full probe plus at most
    /// ⌈log₂(ordinals)⌉ binary-search probes.
    pub probes: u64,
    /// The journal's last since-genesis ordinal.
    pub last_ordinal: u64,
}

impl BisectOutcome {
    /// The wire-shaped summary of this outcome.
    pub fn summary(&self) -> BisectSummary {
        BisectSummary {
            first_true: self.first_true,
            probes: self.probes,
            last_ordinal: self.last_ordinal,
        }
    }
}

/// The time-travel console: a journal path, its genesis label, and the
/// engine factory that recovery would use — enough to materialize the
/// engine at any ordinal, diff two, or bisect history. Obtain one
/// directly or via [`Dfms::enable_time_travel`] on a journaled server.
pub struct TimeTravel {
    path: PathBuf,
    label: String,
    factory: Box<dyn Fn() -> Dfms + Send>,
}

impl fmt::Debug for TimeTravel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeTravel")
            .field("path", &self.path)
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

impl TimeTravel {
    /// A console over the journal at `path` with the given genesis
    /// label. `factory` must rebuild the same pre-journal configuration
    /// the journaled engine had — the same contract as
    /// [`Dfms::recover`].
    pub fn new(
        path: impl Into<PathBuf>,
        label: impl Into<String>,
        factory: impl Fn() -> Dfms + Send + 'static,
    ) -> Self {
        TimeTravel { path: path.into(), label: label.into(), factory: Box::new(factory) }
    }

    /// The journal file this console replays.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Materialize the engine at `ordinal` (`None` = end of history).
    pub fn materialize(&self, ordinal: Option<u64>) -> Result<Materialized, DfmsError> {
        Dfms::recover_to(&self.path, &self.label, ordinal, || (self.factory)())
    }

    /// The journal's last since-genesis ordinal (`None` when no
    /// transitions were ever derived). Costs one full materialization.
    pub fn last_ordinal(&self) -> Result<Option<u64>, DfmsError> {
        Ok(self.materialize(None)?.ordinal)
    }

    /// Diff two ordinals (order-insensitive: the smaller is `from`).
    /// The earlier state's provenance is verified to be an exact prefix
    /// of the later one's — determinism guarantees it; a mismatch means
    /// the factory no longer rebuilds the journaled configuration and
    /// is reported as a recovery error.
    pub fn diff(&self, a: u64, b: u64) -> Result<StateDiff, DfmsError> {
        let (from, to) = if a <= b { (a, b) } else { (b, a) };
        let earlier = self.materialize(Some(from))?;
        let later = self.materialize(Some(to))?;
        let prov_from = earlier.engine.provenance().records();
        let prov_to = later.engine.provenance().records();
        if prov_to.len() < prov_from.len()
            || prov_from.iter().zip(prov_to.iter()).any(|(a, b)| a != b)
        {
            return Err(DfmsError::Recovery(format!(
                "provenance at ordinal {from} is not a prefix of ordinal {to}: \
                 the factory no longer rebuilds the journaled configuration"
            )));
        }
        let provenance_added = prov_to[prov_from.len()..].to_vec();
        let before = earlier.engine.flow_summaries();
        let flows = later
            .engine
            .flow_summaries()
            .into_iter()
            .filter_map(|after| {
                let old = before.iter().find(|f| f.transaction == after.transaction);
                let unchanged = old.is_some_and(|f| {
                    f.state == after.state && f.steps_completed == after.steps_completed
                });
                if unchanged {
                    return None;
                }
                Some(FlowDelta {
                    transaction: after.transaction,
                    from_state: old.map(|f| f.state),
                    to_state: Some(after.state),
                    steps_from: old.map(|f| f.steps_completed).unwrap_or(0),
                    steps_to: after.steps_completed,
                    steps_total: after.steps_total,
                })
            })
            .collect();
        Ok(StateDiff {
            from,
            to,
            time_from_us: earlier.engine.now().0,
            time_to_us: later.engine.now().0,
            provenance_added,
            flows,
        })
    }

    /// Locate the first ordinal where `predicate` holds, by binary
    /// search over the since-genesis ordinals. One full materialization
    /// learns the last ordinal and whether the predicate ever turns
    /// true; when it does, at most ⌈log₂(ordinals)⌉ further probes pin
    /// the first true one — `git bisect` over the journal.
    pub fn bisect(&self, predicate: &BisectPredicate) -> Result<BisectOutcome, DfmsError> {
        let full = self.materialize(None)?;
        let mut probes = 1u64;
        let Some(last) = full.ordinal else {
            return Ok(BisectOutcome { first_true: None, probes, last_ordinal: 0 });
        };
        if !predicate.eval(&full.engine) {
            return Ok(BisectOutcome { first_true: None, probes, last_ordinal: last });
        }
        // First-true binary search; invariant: predicate(hi) is true.
        let (mut lo, mut hi) = (0u64, last);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let probe = self.materialize(Some(mid))?;
            probes += 1;
            if predicate.eval(&probe.engine) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(BisectOutcome { first_true: Some(lo), probes, last_ordinal: last })
    }
}

impl Dfms {
    /// Materialize the engine the journal at `path` describes, at
    /// since-genesis transition ordinal `ordinal` *inclusive* — the
    /// state after deriving transition `ordinal`. `None` replays the
    /// whole history (like [`Dfms::recover`], but read-only).
    ///
    /// Unlike `recover`, this never opens the journal for writing (no
    /// torn-tail truncation, no fresh checkpoint), so a live server can
    /// materialize past states of its own journal. The returned engine
    /// has no journal attached; its provenance is byte-identical to a
    /// fresh genesis replay truncated after transition `ordinal`.
    ///
    /// An `ordinal` beyond the end of history is not an error: the
    /// materialization is simply `complete` (the full replay).
    pub fn recover_to(
        path: &Path,
        label: &str,
        ordinal: Option<u64>,
        factory: impl FnOnce() -> Dfms,
    ) -> Result<Materialized, DfmsError> {
        let (records, _open) = Journal::read(path)?;
        let mut engine = factory();
        if engine.journal.is_some() {
            return Err(DfmsError::Recovery(
                "the time-travel factory must build an unjournaled engine".into(),
            ));
        }
        if records.is_empty() {
            return Ok(Materialized {
                engine,
                ordinal: None,
                requested: ordinal,
                complete: true,
                commands_applied: 0,
                transitions_derived: 0,
            });
        }
        recovery::check_genesis(&records, label)?;
        let (commands, expected, memo) = recovery::partition(records);
        debug_assert!(
            recovery::ordinals_aligned(&expected),
            "journal transition ordinals are not strictly increasing — compaction renumbered?"
        );
        engine.journal = Some(EngineJournal {
            journal: None,
            config: JournalConfig { checkpoint_every: 0, compact_on_checkpoint: false, ..JournalConfig::default() },
            label: label.to_owned(),
            commands_since_checkpoint: 0,
            transitions_written: 0,
            replay: Some(ReplayState::new(memo, expected, ordinal)),
        });
        let commands_applied = engine.drive_replay(&commands);
        let replay = engine.take_replay().expect("installed above");
        engine.journal = None;
        let transitions_derived = replay.derived.len() as u64;
        Ok(Materialized {
            engine,
            ordinal: transitions_derived.checked_sub(1),
            requested: ordinal,
            complete: !replay.past_limit,
            commands_applied,
            transitions_derived,
        })
    }

    /// Enable the time-travel console on this journaled server:
    /// `factory` must rebuild the same pre-journal configuration (the
    /// [`Dfms::recover`] contract). The journal path and genesis label
    /// come from the attached journal. After this, DGL
    /// `timeTravelQuery` requests are answered instead of refused.
    pub fn enable_time_travel(
        &mut self,
        factory: impl Fn() -> Dfms + Send + 'static,
    ) -> Result<(), DfmsError> {
        let Some(j) = self.journal.as_ref() else {
            return Err(DfmsError::Recovery("time travel needs an attached journal".into()));
        };
        let Some(journal) = j.journal.as_ref() else {
            return Err(DfmsError::Recovery(
                "time travel cannot be enabled on a replaying materialization".into(),
            ));
        };
        let path = journal.path().to_path_buf();
        let label = j.label.clone();
        self.time_travel = Some(TimeTravel::new(path, label, factory));
        Ok(())
    }

    /// The time-travel console, when enabled.
    pub fn time_travel(&self) -> Option<&TimeTravel> {
        self.time_travel.as_ref()
    }

    /// Answer one DGL time-travel query — the body behind
    /// `timeTravelQuery`. Syncs the journal first so the materialized
    /// history includes everything up to the server's current state.
    pub fn time_travel_query(&mut self, q: &TimeTravelQuery) -> TimeTravelReport {
        let now = self.now().0;
        if self.time_travel.is_none() {
            return TimeTravelReport::disabled(now);
        }
        if let Some(journal) = self.journal.as_mut().and_then(|j| j.journal.as_mut()) {
            if journal.sync().is_err() {
                self.obs().inc("journal", "errors");
            }
        }
        let travel = self.time_travel.as_ref().expect("checked above");
        let mut report = TimeTravelReport {
            time_us: now,
            enabled: true,
            last_ordinal: None,
            inspect: None,
            diff: None,
            bisect: None,
            error: None,
        };
        match &q.op {
            TimeTravelOp::Inspect { ordinal } => match travel.materialize(*ordinal) {
                Ok(m) => {
                    if m.complete {
                        report.last_ordinal = m.ordinal;
                    }
                    report.inspect = Some(m.summary());
                }
                Err(e) => report.error = Some(e.to_string()),
            },
            TimeTravelOp::Diff { from, to } => match travel.diff(*from, *to) {
                Ok(d) => report.diff = Some(d.summary()),
                Err(e) => report.error = Some(e.to_string()),
            },
            TimeTravelOp::Bisect { predicate } => {
                let p = BisectPredicate::from_spec(predicate.clone());
                match travel.bisect(&p) {
                    Ok(b) => {
                        report.last_ordinal = Some(b.last_ordinal);
                        report.bisect = Some(b.summary());
                    }
                    Err(e) => report.error = Some(e.to_string()),
                }
            }
        }
        report
    }
}
