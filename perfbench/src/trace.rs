//! Benchmark-side spans around every call into a layer.
//!
//! A span has a layer, a name, a start and an end, the span that caused
//! it (its parent) and a trace id shared by every span of one request or
//! wave. Spans stay in memory and are written out when the run ends. A
//! layer's self time is its spans' time minus the part their child spans
//! cover. A disabled tracer records nothing, so untraced runs pay one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer called (`dfms.server`, `fabric`, `journal`, ...).
    pub layer: &'static str,
    /// The call (`submit`, `route`, `recover`, ...).
    pub name: &'static str,
    /// The request or wave this span belongs to.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

/// Per-layer totals derived from the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded for the layer.
    pub calls: u64,
    /// Time inside the layer's spans.
    pub total_ns: u64,
    /// Time inside the layer's spans not covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
        }
    }

    /// Start a new trace id (one request or one wave).
    pub fn begin_trace(&mut self) {
        self.trace += 1;
    }

    /// Open a span nested under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            name,
            trace: self.trace,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::enter`]. Spans close innermost
    /// first.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
        self.spans[idx].end_ns = end_ns;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer call counts, total and self time.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.layer).or_default();
            let dur = s.end_ns - s.start_ns;
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(children);
        }
        out
    }

    /// The spans and per-layer times as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"layers\": {");
        for (i, (layer, t)) in self.layer_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{layer}\": {{\"calls\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                t.calls, t.total_ns, t.self_ns
            );
        }
        out.push_str("},\n\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"trace\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer, s.name, s.trace, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.begin_trace();
        let outer = t.enter("fabric", "wave");
        let inner = t.enter("dfms", "pump");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let layers = t.layer_times();
        let (fabric, dfms) = (layers["fabric"], layers["dfms"]);
        assert_eq!(fabric.calls, 1);
        assert_eq!(fabric.total_ns, fabric.self_ns + dfms.total_ns);
        assert!(dfms.self_ns >= 2_000_000);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].trace, 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("xml", "parse");
        t.exit(open);
        assert!(t.spans().is_empty());
        assert!(t.layer_times().is_empty());
    }
}
