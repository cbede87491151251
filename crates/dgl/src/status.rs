//! Flow status: queries, run states, and reports.
//!
//! "Each DGL transaction generates a unique identifier that can be used
//! to query the status of the any task in the workflow at any level of
//! granularity" (§4).

use std::fmt;

/// Lifecycle state of a flow, sub-flow, or step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunState {
    /// Accepted, not yet started.
    Pending,
    /// Currently executing.
    Running,
    /// Paused by a lifecycle request; resumable.
    Paused,
    /// Finished successfully.
    Completed,
    /// Finished with an error.
    Failed,
    /// Stopped by a lifecycle request; not resumable.
    Stopped,
    /// Skipped (unselected switch arm, or virtual-data hit).
    Skipped,
}

impl RunState {
    /// The wire spelling (lower-case, as used by every DGL document).
    pub fn as_str(self) -> &'static str {
        match self {
            RunState::Pending => "pending",
            RunState::Running => "running",
            RunState::Paused => "paused",
            RunState::Completed => "completed",
            RunState::Failed => "failed",
            RunState::Stopped => "stopped",
            RunState::Skipped => "skipped",
        }
    }

    /// Parse the wire spelling (`None` for anything unrecognized).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "pending" => RunState::Pending,
            "running" => RunState::Running,
            "paused" => RunState::Paused,
            "completed" => RunState::Completed,
            "failed" => RunState::Failed,
            "stopped" => RunState::Stopped,
            "skipped" => RunState::Skipped,
            _ => return None,
        })
    }

    /// True for states that will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(self, RunState::Completed | RunState::Failed | RunState::Stopped | RunState::Skipped)
    }
}

impl fmt::Display for RunState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A `FlowStatusQuery` document body (Figure 2's alternative payload):
/// ask about a transaction, optionally narrowed to one node of the flow
/// tree by its hierarchical path (e.g. `/0/3/1` = second child of the
/// fourth child of the first child of the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStatusQuery {
    /// The transaction id returned in the request acknowledgement.
    pub transaction: String,
    /// Node path within the flow tree; `None` or `"/"` = the root.
    pub node: Option<String>,
    /// Ask for up to this many recent flight-recorder events for the
    /// transaction (scoped to `node` when one is given). `None` = no
    /// events in the report (the wire-compatible default).
    pub events: Option<usize>,
    /// Ask for a metrics snapshot alongside the status.
    pub metrics: bool,
    /// Ask for the transaction's span tree (scoped to `node` when one
    /// is given) alongside the status.
    pub trace: bool,
}

impl FlowStatusQuery {
    /// Query the whole transaction.
    pub fn whole(transaction: impl Into<String>) -> Self {
        FlowStatusQuery { transaction: transaction.into(), node: None, events: None, metrics: false, trace: false }
    }

    /// Query one node.
    pub fn node(transaction: impl Into<String>, node: impl Into<String>) -> Self {
        FlowStatusQuery { transaction: transaction.into(), node: Some(node.into()), events: None, metrics: false, trace: false }
    }

    /// Also return up to `n` recent flight-recorder events.
    ///
    /// ```
    /// use dgf_dgl::FlowStatusQuery;
    /// let q = FlowStatusQuery::whole("t1").with_events(50).with_metrics();
    /// assert_eq!(q.events, Some(50));
    /// assert!(q.metrics);
    /// ```
    #[must_use]
    pub fn with_events(mut self, n: usize) -> Self {
        self.events = Some(n);
        self
    }

    /// Also return a metrics snapshot.
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Also return the span tree of the queried flow (or node subtree).
    ///
    /// ```
    /// use dgf_dgl::FlowStatusQuery;
    /// let q = FlowStatusQuery::whole("t1").with_trace();
    /// assert!(q.trace);
    /// ```
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One flight-recorder event carried in a [`StatusReport`] — plain data
/// so the DGL layer stays independent of the observability crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportEvent {
    /// Simulation time of the event, in microseconds.
    pub time_us: u64,
    /// Monotonic sequence number within the recorder.
    pub seq: u64,
    /// Stable dotted event name, e.g. `step.finished`.
    pub kind: String,
    /// Human-readable detail line.
    pub detail: String,
}

/// One metric sample carried in a [`StatusReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportMetric {
    /// Metric scope (`engine`, `scheduler`, `run:t1`, ...).
    pub scope: String,
    /// Dotted metric name within the scope.
    pub name: String,
    /// Value kind: `counter`, `gauge`, or `histogram`.
    pub kind: String,
    /// Rendered value (histograms render as `count:sum_us:min_us:max_us`).
    pub value: String,
}

/// One span carried in a [`StatusReport`] — plain data so the DGL
/// layer stays independent of the observability crate. Parent links use
/// span ids, so the report carries a whole tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportSpan {
    /// The span's id (unique within the reporting server).
    pub id: u64,
    /// Parent span id; `None` for the trace root.
    pub parent: Option<u64>,
    /// The owning trace id.
    pub trace: u64,
    /// Span kind token (`flow`, `request`, `scheduler-binding`,
    /// `dgms-op`, `network-transfer`, `trigger-action`).
    pub kind: String,
    /// Human-readable span name.
    pub name: String,
    /// Simulation time the work started, µs.
    pub start_us: u64,
    /// Simulation time the work ended, µs; `None` while still open.
    pub end_us: Option<u64>,
    /// Structured attributes, in recording order.
    pub attrs: Vec<(String, String)>,
}

/// A status report for one node of a running (or finished) flow tree,
/// with child summaries — what a `FlowStatusQuery` returns.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// Transaction id.
    pub transaction: String,
    /// Node path within the flow tree (`/` = root).
    pub node: String,
    /// The node's DGL name (flow or step name).
    pub name: String,
    /// Current state.
    pub state: RunState,
    /// Steps completed in this subtree.
    pub steps_completed: usize,
    /// Total steps known in this subtree (grows as loops unroll).
    pub steps_total: usize,
    /// Optional failure/diagnostic message.
    pub message: Option<String>,
    /// One-line summaries of direct children: (path, name, state).
    pub children: Vec<(String, String, RunState)>,
    /// Recent flight-recorder events, oldest first. Populated only when
    /// the query asked for them ([`FlowStatusQuery::with_events`]).
    pub events: Vec<ReportEvent>,
    /// Metric samples. Populated only when the query asked for them
    /// ([`FlowStatusQuery::with_metrics`]).
    pub metrics: Vec<ReportMetric>,
    /// The queried flow's (or node subtree's) spans, in recording
    /// order. Populated only when the query asked for them
    /// ([`FlowStatusQuery::with_trace`]).
    pub spans: Vec<ReportSpan>,
}

impl fmt::Display for StatusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} {} ({}/{} steps)",
            self.transaction, self.node, self.state, self.steps_completed, self.steps_total
        )?;
        if let Some(msg) = &self.message {
            write!(f, ": {msg}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_states() {
        assert!(RunState::Completed.is_terminal());
        assert!(RunState::Failed.is_terminal());
        assert!(RunState::Stopped.is_terminal());
        assert!(RunState::Skipped.is_terminal());
        assert!(!RunState::Running.is_terminal());
        assert!(!RunState::Paused.is_terminal());
        assert!(!RunState::Pending.is_terminal());
    }

    #[test]
    fn query_constructors() {
        let q = FlowStatusQuery::whole("t42");
        assert_eq!(q.node, None);
        let q = FlowStatusQuery::node("t42", "/0/1");
        assert_eq!(q.node.as_deref(), Some("/0/1"));
    }

    #[test]
    fn report_displays_progress() {
        let r = StatusReport {
            transaction: "t7".into(),
            node: "/0".into(),
            name: "ingest".into(),
            state: RunState::Running,
            steps_completed: 3,
            steps_total: 10,
            message: None,
            children: vec![],
            events: vec![],
            metrics: vec![],
            spans: vec![],
        };
        let line = r.to_string();
        assert!(line.contains("t7") && line.contains("3/10") && line.contains("running"), "{line}");
    }
}
