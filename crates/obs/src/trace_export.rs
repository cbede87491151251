//! Chrome trace-event JSON export.
//!
//! Renders recorded spans in the Trace Event Format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one
//! complete (`"ph":"X"`) event per span, timestamps in µs of
//! *simulation* time, one row (`tid`) per trace so a flow's spans stack
//! under its root. The output is a pure function of the span list —
//! two identically-seeded runs export byte-identical JSON.

use crate::metrics::json_escape;
use crate::span::Span;
use std::fmt::Write as _;

/// Render spans (creation order) as a Chrome trace-event JSON document.
///
/// Open spans are emitted with `dur` 0 and an `"open":"true"` argument
/// so an export taken mid-run still loads. Parent/trace/span ids ride
/// along in `args` for tools that want to rebuild the hierarchy.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur = span.duration_us().unwrap_or(0);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{",
            json_escape(&span.name),
            span.kind.name(),
            span.start.0,
            dur,
            span.trace.0
        );
        let _ = write!(out, "\"span\":\"{}\"", span.id.0);
        if let Some(parent) = span.parent {
            let _ = write!(out, ",\"parent\":\"{}\"", parent.0);
        }
        if span.end.is_none() {
            out.push_str(",\"open\":\"true\"");
        }
        for (k, v) in &span.attrs {
            let _ = write!(out, ",\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, SpanKind, TraceId};
    use dgf_simgrid::SimTime;

    fn span(id: u64, parent: Option<u64>, end: Option<u64>) -> Span {
        Span {
            id: SpanId(id),
            trace: TraceId(1),
            parent: parent.map(SpanId),
            kind: SpanKind::Request,
            name: format!("s{id}"),
            start: SimTime(100),
            end: end.map(SimTime),
            attrs: vec![("txn".into(), "t\"1".into())],
        }
    }

    #[test]
    fn complete_and_open_spans_render() {
        let json = to_chrome_trace(&[span(1, None, Some(150)), span(2, Some(1), None)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\",\"ts\":100,\"dur\":50"));
        assert!(json.contains("\"parent\":\"1\""));
        assert!(json.contains("\"open\":\"true\""));
        assert!(json.contains("\"txn\":\"t\\\"1\""), "attrs are JSON-escaped");
    }

    #[test]
    fn empty_input_is_a_valid_document() {
        assert_eq!(to_chrome_trace(&[]), "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
    }
}
