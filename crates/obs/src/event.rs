//! The typed event taxonomy of the flight recorder.
//!
//! Each variant of [`EventKind`] is one observable action of the DfMS
//! stack, chosen to make the §3.1 promise — a system whose state "can be
//! queried at any time" — concrete: what the engine dispatched, what the
//! planner chose, what the grid moved, and what the fault machinery did
//! about failures. Event names are dotted and stable
//! (`subsystem.action`); `docs/OBSERVABILITY.md` is the normative list.

use dgf_simgrid::SimTime;
use std::fmt;

/// One typed observation. Fields carry the identifiers an operator needs
/// to correlate the event with a transaction, a flow-tree node, and the
/// grid resources involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A flow was accepted and a transaction opened (`run.submitted`).
    RunSubmitted {
        /// Transaction id.
        txn: String,
        /// Root flow name.
        flow: String,
        /// Submitting principal.
        user: String,
    },
    /// A run's root node reached a terminal state (`run.finished`).
    RunFinished {
        /// Transaction id.
        txn: String,
        /// Terminal state (`completed`, `failed`, `stopped`).
        state: String,
    },
    /// A step node began executing (`step.started`).
    StepStarted {
        /// Transaction id.
        txn: String,
        /// Hierarchical node path (`/0/2`).
        node: String,
        /// The step's DGL name.
        name: String,
    },
    /// A step node reached a terminal state (`step.finished`).
    StepFinished {
        /// Transaction id.
        txn: String,
        /// Hierarchical node path.
        node: String,
        /// The step's DGL name.
        name: String,
        /// Outcome (`completed`, `failed`, `skipped`).
        outcome: String,
    },
    /// The planner bound an abstract task to concrete infrastructure
    /// (`planner.decision`) — §2.3's "final infrastructure-based
    /// execution logic".
    PlannerDecision {
        /// Transaction id.
        txn: String,
        /// Hierarchical node path.
        node: String,
        /// The task's code identifier.
        code: String,
        /// Chosen compute resource name.
        compute: String,
        /// Its domain name.
        domain: String,
        /// Estimated stage-in + execution time, in µs.
        est_us: u64,
    },
    /// An input-staging transfer was scheduled (`transfer.scheduled`).
    TransferScheduled {
        /// Transaction id.
        txn: String,
        /// Hierarchical node path.
        node: String,
        /// Logical path being staged.
        path: String,
        /// Source storage resource name.
        src: String,
        /// Destination storage resource name.
        dst: String,
        /// Bytes moved.
        bytes: u64,
    },
    /// A node was parked until its schedule window reopens
    /// (`window.wait`).
    WindowWait {
        /// Transaction id.
        txn: String,
        /// Hierarchical node path.
        node: String,
        /// Simulation time (µs) at which dispatch resumes.
        resume_us: u64,
    },
    /// A trigger's condition matched and its action was dispatched
    /// (`trigger.fired`).
    TriggerFired {
        /// Trigger name.
        trigger: String,
        /// Action kind (`notify` or `flow`).
        action: String,
    },
    /// A step failed and its error policy scheduled a retry
    /// (`fault.retry`).
    FaultRetry {
        /// Transaction id.
        txn: String,
        /// Hierarchical node path.
        node: String,
        /// Attempt number just consumed (1-based).
        attempt: u32,
    },
    /// A provenance record was appended (`provenance.write`) — the §2.1
    /// record that stays inspectable "even (years) after the execution".
    ProvenanceWrite {
        /// Transaction id.
        txn: String,
        /// Hierarchical node path.
        node: String,
        /// The recorded verb (operation name or `flow`).
        verb: String,
        /// The recorded outcome.
        outcome: String,
    },
    /// The submit-time lint gate analyzed a flow (`lint.report`, or
    /// `lint.rejected` when error-severity diagnostics refused it).
    LintReport {
        /// Root flow name (no transaction exists yet at lint time).
        flow: String,
        /// Error-severity diagnostics found.
        errors: u64,
        /// Warning-severity diagnostics found.
        warnings: u64,
        /// True when the gate refused submission.
        rejected: bool,
    },
    /// An SLA deadline alert changed lifecycle state (`sla.pending` /
    /// `sla.firing` / `sla.resolved` — named by the state the alert
    /// *entered*).
    SlaAlert {
        /// Transaction id of the governed flow.
        txn: String,
        /// Objective class (`flow` for a per-flow deadline).
        class: String,
        /// The lifecycle state entered.
        state: dgf_dgl::AlertState,
        /// Budget consumed at the transition, integer
        /// parts-per-million (1_000_000 = deadline reached).
        burn_ppm: u64,
    },
    /// The flow-progress watchdog re-classified a flow
    /// (`health.healthy` / `health.slow` / `health.stalled` — named by
    /// the state the flow *entered*).
    HealthTransition {
        /// Transaction id.
        txn: String,
        /// Classification the flow left.
        from: crate::HealthState,
        /// Classification the flow entered.
        to: crate::HealthState,
        /// Sim-time (µs) of the flow's last progress (completed step or
        /// submission).
        last_progress_us: u64,
    },
}

impl EventKind {
    /// The stable dotted event name (`run.submitted`, `step.finished`,
    /// ...). `docs/OBSERVABILITY.md` documents every name.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RunSubmitted { .. } => "run.submitted",
            EventKind::RunFinished { .. } => "run.finished",
            EventKind::StepStarted { .. } => "step.started",
            EventKind::StepFinished { .. } => "step.finished",
            EventKind::PlannerDecision { .. } => "planner.decision",
            EventKind::TransferScheduled { .. } => "transfer.scheduled",
            EventKind::WindowWait { .. } => "window.wait",
            EventKind::TriggerFired { .. } => "trigger.fired",
            EventKind::FaultRetry { .. } => "fault.retry",
            EventKind::ProvenanceWrite { .. } => "provenance.write",
            EventKind::LintReport { rejected, .. } => {
                if *rejected {
                    "lint.rejected"
                } else {
                    "lint.report"
                }
            }
            EventKind::SlaAlert { state, .. } => match state {
                dgf_dgl::AlertState::Pending => "sla.pending",
                dgf_dgl::AlertState::Firing => "sla.firing",
                dgf_dgl::AlertState::Resolved => "sla.resolved",
            },
            EventKind::HealthTransition { to, .. } => match to {
                crate::HealthState::Healthy => "health.healthy",
                crate::HealthState::Slow => "health.slow",
                crate::HealthState::Stalled => "health.stalled",
            },
        }
    }

    /// The transaction this event belongs to, when it has one (trigger
    /// firings are grid-global and return `None`).
    pub fn transaction(&self) -> Option<&str> {
        match self {
            EventKind::RunSubmitted { txn, .. }
            | EventKind::RunFinished { txn, .. }
            | EventKind::StepStarted { txn, .. }
            | EventKind::StepFinished { txn, .. }
            | EventKind::PlannerDecision { txn, .. }
            | EventKind::TransferScheduled { txn, .. }
            | EventKind::WindowWait { txn, .. }
            | EventKind::FaultRetry { txn, .. }
            | EventKind::ProvenanceWrite { txn, .. }
            | EventKind::SlaAlert { txn, .. }
            | EventKind::HealthTransition { txn, .. } => Some(txn),
            EventKind::TriggerFired { .. } | EventKind::LintReport { .. } => None,
        }
    }

    /// The flow-tree node path this event is anchored to, when any.
    pub fn node(&self) -> Option<&str> {
        match self {
            EventKind::StepStarted { node, .. }
            | EventKind::StepFinished { node, .. }
            | EventKind::PlannerDecision { node, .. }
            | EventKind::TransferScheduled { node, .. }
            | EventKind::WindowWait { node, .. }
            | EventKind::FaultRetry { node, .. }
            | EventKind::ProvenanceWrite { node, .. } => Some(node),
            EventKind::RunSubmitted { .. } => Some("/"),
            EventKind::RunFinished { .. } => Some("/"),
            EventKind::SlaAlert { .. } => Some("/"),
            EventKind::HealthTransition { .. } => Some("/"),
            EventKind::TriggerFired { .. } | EventKind::LintReport { .. } => None,
        }
    }

    /// A one-line human-readable rendering of the variant's payload
    /// (without the event name).
    pub fn detail(&self) -> String {
        match self {
            EventKind::RunSubmitted { txn, flow, user } => {
                format!("{txn} flow={flow} user={user}")
            }
            EventKind::RunFinished { txn, state } => format!("{txn} state={state}"),
            EventKind::StepStarted { txn, node, name } => format!("{txn}{node} name={name}"),
            EventKind::StepFinished { txn, node, name, outcome } => {
                format!("{txn}{node} name={name} outcome={outcome}")
            }
            EventKind::PlannerDecision { txn, node, code, compute, domain, est_us } => {
                format!("{txn}{node} code={code} compute={compute} domain={domain} est_us={est_us}")
            }
            EventKind::TransferScheduled { txn, node, path, src, dst, bytes } => {
                format!("{txn}{node} path={path} src={src} dst={dst} bytes={bytes}")
            }
            EventKind::WindowWait { txn, node, resume_us } => {
                format!("{txn}{node} resume_us={resume_us}")
            }
            EventKind::TriggerFired { trigger, action } => {
                format!("trigger={trigger} action={action}")
            }
            EventKind::FaultRetry { txn, node, attempt } => {
                format!("{txn}{node} attempt={attempt}")
            }
            EventKind::ProvenanceWrite { txn, node, verb, outcome } => {
                format!("{txn}{node} verb={verb} outcome={outcome}")
            }
            EventKind::LintReport { flow, errors, warnings, rejected } => {
                format!("flow={flow} errors={errors} warnings={warnings} rejected={rejected}")
            }
            EventKind::SlaAlert { txn, class, state, burn_ppm } => {
                format!("{txn} class={class} state={state} burn_ppm={burn_ppm}")
            }
            EventKind::HealthTransition { txn, from, to, last_progress_us } => {
                format!("{txn} {from}->{to} last_progress_us={last_progress_us}")
            }
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name(), self.detail())
    }
}

/// A recorded event: a sequence number (total order within one
/// recorder), the simulation-clock timestamp, and the typed payload.
///
/// Timestamps come from the engine's deterministic clock, so two runs of
/// the same seeded scenario produce bit-for-bit identical streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotonic sequence number (gap-free even when the ring drops).
    pub seq: u64,
    /// Simulation time at which the event occurred.
    pub time: SimTime,
    /// The typed payload.
    pub kind: EventKind,
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} @{} {}", self.seq, self.time, self.kind)
    }
}
