//! The trace store: append-only span storage with deterministic id
//! allocation.
//!
//! One [`TraceStore`] lives inside the shared [`crate::Obs`] handle,
//! next to the flight recorder and the metrics registry, so every
//! subsystem records spans through the same clock and the same
//! counters. Spans are never evicted — the paper's provenance
//! requirement ("inspectable even (years) after the execution", §2.1)
//! wants the causal record whole; bound memory by scoping a store to a
//! run, as the engine does per server.
//!
//! The store keeps each trace's span positions beside the spans, so a
//! per-flow read ([`TraceStore::trace_spans`], and through it the
//! critical path of a finishing flow and status `with_trace`) touches
//! only that flow's spans and costs the same however much history the
//! store holds.

use crate::span::{Span, SpanContext, SpanId, SpanKind, TraceId};
use dgf_simgrid::SimTime;

/// Append-only span storage. Ids come from monotonic counters so a
/// seeded run records the identical trace every time.
#[derive(Debug, Default)]
pub(crate) struct TraceStore {
    spans: Vec<Span>,
    /// Positions in `spans` of each trace's spans, in creation order.
    /// Trace ids run from 1, so trace `t` is entry `t - 1`; the length
    /// is the number of traces allocated so far.
    by_trace: Vec<Vec<u32>>,
}

impl TraceStore {
    /// Open a span at `time`. A span without a parent roots a fresh
    /// trace; a child inherits its parent's trace id.
    pub(crate) fn start(
        &mut self,
        time: SimTime,
        kind: SpanKind,
        name: &str,
        parent: Option<SpanContext>,
    ) -> SpanContext {
        let trace = match parent {
            Some(ctx) => ctx.trace,
            None => {
                self.by_trace.push(Vec::new());
                TraceId(self.by_trace.len() as u64)
            }
        };
        let pos = self.spans.len();
        // A child of a context some other store allocated keeps that
        // trace id but is not indexed: there is no such trace here.
        if let Some(positions) = slot(trace).and_then(|t| self.by_trace.get_mut(t)) {
            positions.push(u32::try_from(pos).expect("fewer than 2^32 spans per store"));
        }
        let id = SpanId(pos as u64 + 1);
        self.spans.push(Span {
            id,
            trace,
            parent: parent.map(|ctx| ctx.span),
            kind,
            name: name.to_owned(),
            start: time,
            end: None,
            attrs: Vec::new(),
        });
        SpanContext { trace, span: id }
    }

    /// Close a span at `time`. Returns the span's kind and duration so
    /// the caller can feed the metrics registry; `None` when the span is
    /// unknown or already closed (closing twice is a no-op).
    pub(crate) fn end(&mut self, ctx: SpanContext, time: SimTime) -> Option<(SpanKind, u64)> {
        let span = self.get_mut(ctx.span)?;
        if span.end.is_some() {
            return None;
        }
        span.end = Some(time);
        Some((span.kind, time.0.saturating_sub(span.start.0)))
    }

    /// Append an attribute to an open or closed span.
    pub(crate) fn attr(&mut self, ctx: SpanContext, key: &str, value: &str) {
        if let Some(span) = self.get_mut(ctx.span) {
            span.attrs.push((key.to_owned(), value.to_owned()));
        }
    }

    /// All spans, in creation order.
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans of one trace, in creation order; empty for a trace
    /// this store never allocated. Reads only that trace's spans.
    pub(crate) fn trace_spans(&self, trace: TraceId) -> Vec<Span> {
        self.trace_span_refs(trace).cloned().collect()
    }

    /// [`TraceStore::trace_spans`], borrowed: nothing is copied.
    pub(crate) fn trace_span_refs(&self, trace: TraceId) -> impl Iterator<Item = &Span> + Clone {
        let positions = slot(trace).and_then(|t| self.by_trace.get(t));
        positions.into_iter().flatten().map(|&pos| &self.spans[pos as usize])
    }

    fn get_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        // Ids are 1-based indexes into the append-only vector.
        self.spans.get_mut(id.0.checked_sub(1)? as usize)
    }
}

/// The `by_trace` entry of `trace`: ids run from 1.
fn slot(trace: TraceId) -> Option<usize> {
    trace.0.checked_sub(1).map(|t| t as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_children_inherit_the_trace() {
        let mut store = TraceStore::default();
        let root = store.start(SimTime(1), SpanKind::Flow, "f", None);
        let child = store.start(SimTime(2), SpanKind::Request, "step", Some(root));
        let other = store.start(SimTime(3), SpanKind::Flow, "g", None);
        assert_eq!(root, SpanContext { trace: TraceId(1), span: SpanId(1) });
        assert_eq!(child.trace, root.trace);
        assert_eq!(child.span, SpanId(2));
        assert_eq!(other.trace, TraceId(2));
        assert_eq!(store.spans()[1].parent, Some(root.span));
        assert_eq!(store.trace_spans(root.trace).len(), 2);
    }

    #[test]
    fn trace_spans_reads_one_trace_in_creation_order() {
        let mut store = TraceStore::default();
        let a = store.start(SimTime(0), SpanKind::Flow, "a", None);
        let b = store.start(SimTime(0), SpanKind::Flow, "b", None);
        let a1 = store.start(SimTime(1), SpanKind::Request, "a1", Some(a));
        let b1 = store.start(SimTime(1), SpanKind::Request, "b1", Some(b));
        let a2 = store.start(SimTime(2), SpanKind::DgmsOp, "a2", Some(a1));
        let b2 = store.start(SimTime(2), SpanKind::Request, "b2", Some(b));
        let a3 = store.start(SimTime(3), SpanKind::Request, "a3", Some(a));
        let ids = |t: TraceId| -> Vec<SpanId> { store.trace_spans(t).iter().map(|s| s.id).collect() };
        assert_eq!(ids(a.trace), vec![a.span, a1.span, a2.span, a3.span]);
        assert_eq!(ids(b.trace), vec![b.span, b1.span, b2.span]);
        // Each trace's spans are exactly the ones a full scan finds.
        for t in [a.trace, b.trace] {
            let scanned: Vec<Span> = store.spans().iter().filter(|s| s.trace == t).cloned().collect();
            assert_eq!(store.trace_spans(t), scanned);
        }
        assert!(store.trace_spans(TraceId(0)).is_empty());
        assert!(store.trace_spans(TraceId(3)).is_empty(), "never allocated");
        // A child of a context no store here allocated is kept, but no
        // trace of this store claims it.
        let foreign = SpanContext { trace: TraceId(9), span: SpanId(1) };
        store.start(SimTime(4), SpanKind::Request, "stray", Some(foreign));
        assert_eq!(store.spans().len(), 8);
        assert!(store.trace_spans(TraceId(9)).is_empty());
        assert_eq!(store.start(SimTime(5), SpanKind::Flow, "c", None).trace, TraceId(3));
    }

    #[test]
    fn end_is_idempotent_and_records_durations_per_kind() {
        let mut store = TraceStore::default();
        let ctx = store.start(SimTime(10), SpanKind::DgmsOp, "ingest", None);
        assert_eq!(store.end(ctx, SimTime(35)), Some((SpanKind::DgmsOp, 25)));
        assert_eq!(store.end(ctx, SimTime(99)), None, "second close is ignored");
        assert_eq!(store.spans()[0].duration_us(), Some(25));
        assert_eq!(store.spans()[0].end, Some(SimTime(35)));
    }

    #[test]
    fn attrs_append_in_order_and_unknown_ids_are_ignored() {
        let mut store = TraceStore::default();
        let ctx = store.start(SimTime(0), SpanKind::TriggerAction, "t", None);
        store.attr(ctx, "a", "1");
        store.attr(ctx, "b", "2");
        store.attr(SpanContext { trace: ctx.trace, span: SpanId(99) }, "c", "3");
        assert_eq!(store.spans()[0].attrs, vec![("a".into(), "1".into()), ("b".into(), "2".into())]);
        assert_eq!(store.end(SpanContext { trace: ctx.trace, span: SpanId(99) }, SimTime(1)), None);
    }
}
