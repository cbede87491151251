//! The span model: hierarchical, sim-time-stamped units of work.
//!
//! A *span* covers one causally-attributed unit of work — a flow run, a
//! step request, a scheduler binding, a DGMS operation, a network
//! transfer, a trigger action — with a start and (once finished) an end
//! on the *simulation* clock, a parent span, and structured attributes.
//! Spans of one flow share a [`TraceId`]; walking parent links from any
//! span reaches the flow's root span, which is what makes "where did
//! the time go?" answerable at any granularity (paper §3.1).
//!
//! Ids are allocated from monotonic counters inside the shared
//! [`crate::Obs`] handle — never from randomness or wall-clock — so two
//! identically-seeded runs produce bit-for-bit identical traces.

use dgf_simgrid::SimTime;

/// What kind of work a span covers. The kinds mirror the causal chain
/// `flow → request → scheduler-binding → dgms-op / network-transfer →
/// trigger-action`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A whole flow run, submission to terminal state.
    Flow,
    /// One node of the flow tree executing (a step or sub-flow).
    Request,
    /// The scheduler binding an abstract task to a concrete resource.
    SchedulerBinding,
    /// One data-management operation executed by the DGMS.
    DgmsOp,
    /// One input-staging or output transfer on the simulated grid.
    NetworkTransfer,
    /// A datagrid trigger's action being carried out.
    TriggerAction,
}

impl SpanKind {
    /// Every kind, in causal-chain order (used for per-kind reports).
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Flow,
        SpanKind::Request,
        SpanKind::SchedulerBinding,
        SpanKind::DgmsOp,
        SpanKind::NetworkTransfer,
        SpanKind::TriggerAction,
    ];

    /// The stable dotted-name token used on the wire, in metrics names,
    /// and in exports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Flow => "flow",
            SpanKind::Request => "request",
            SpanKind::SchedulerBinding => "scheduler-binding",
            SpanKind::DgmsOp => "dgms-op",
            SpanKind::NetworkTransfer => "network-transfer",
            SpanKind::TriggerAction => "trigger-action",
        }
    }

    /// The name of this kind's duration histogram in the `trace/` metrics
    /// scope: `span.` and [`name`](SpanKind::name).
    pub(crate) fn histogram_name(&self) -> &'static str {
        match self {
            SpanKind::Flow => "span.flow",
            SpanKind::Request => "span.request",
            SpanKind::SchedulerBinding => "span.scheduler-binding",
            SpanKind::DgmsOp => "span.dgms-op",
            SpanKind::NetworkTransfer => "span.network-transfer",
            SpanKind::TriggerAction => "span.trigger-action",
        }
    }

    /// Parse the wire token back into a kind.
    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Identifies one trace (all spans of one flow run). Allocated
/// sequentially from 1 by the recording [`crate::Obs`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within its recording handle. Allocated
/// sequentially from 1; ids are unique per handle, not per trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The pair of ids a unit of work carries so children can attach to it.
/// `Copy` and two words wide — cheap to thread through signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// The owning trace.
    pub trace: TraceId,
    /// The span itself.
    pub span: SpanId,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The trace it belongs to.
    pub trace: TraceId,
    /// The parent span, `None` for a trace's root.
    pub parent: Option<SpanId>,
    /// What kind of work it covers.
    pub kind: SpanKind,
    /// Human-readable name (step name, operation verb, trigger name…).
    pub name: String,
    /// Simulation time the work started.
    pub start: SimTime,
    /// Simulation time the work ended; `None` while still open.
    pub end: Option<SimTime>,
    /// Structured attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// The context children use to attach to this span.
    pub fn context(&self) -> SpanContext {
        SpanContext { trace: self.trace, span: self.id }
    }

    /// Elapsed simulation time in µs, `None` while the span is open.
    pub fn duration_us(&self) -> Option<u64> {
        self.end.map(|e| e.0.saturating_sub(self.start.0))
    }

    /// The first attribute named `key`, if any.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.histogram_name(), format!("span.{}", kind.name()));
        }
        assert_eq!(SpanKind::parse("bogus"), None);
    }

    #[test]
    fn duration_and_attr_helpers() {
        let mut span = Span {
            id: SpanId(1),
            trace: TraceId(1),
            parent: None,
            kind: SpanKind::Flow,
            name: "f".into(),
            start: SimTime(10),
            end: None,
            attrs: vec![("txn".into(), "t1".into())],
        };
        assert_eq!(span.duration_us(), None);
        assert_eq!(span.attr("txn"), Some("t1"));
        assert_eq!(span.attr("missing"), None);
        span.end = Some(SimTime(25));
        assert_eq!(span.duration_us(), Some(15));
        assert_eq!(span.context(), SpanContext { trace: TraceId(1), span: SpanId(1) });
    }
}
