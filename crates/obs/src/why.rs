//! `dgf-why` — the attribution engine: critical paths, wait-state
//! accounting, and SLA burn-rate alerts.
//!
//! The flight recorder and span store answer *what happened*; this
//! module answers *why a flow took as long as it did* and *which
//! resource to scale first*. Three analyses share one store:
//!
//! * **Critical paths** — when a flow's root span closes,
//!   [`critical_path`] walks its span tree backwards from the makespan
//!   end, always descending into the child that finished latest, and
//!   partitions the whole `[start, end)` interval into classified
//!   segments. The partition is exact by construction: segment
//!   durations sum to the flow makespan.
//! * **Wait-state accounting** — gaps between spans are classified via
//!   [`WaitMark`]s the engine records when it parks work (schedule
//!   window closed, no free cluster slot); every mark blames a concrete
//!   resource, and [`WhyStore::bottlenecks`] aggregates blame across
//!   all completed flows into a deterministic report.
//! * **SLA alerts** — deadline objectives registered at submission
//!   ([`SlaAlert`]) move `pending → firing → resolved` on the
//!   simulation clock; the engine records and journals each transition
//!   so alert lifecycles replay byte-identically through recovery.
//!
//! Everything here is a pure function of the simulated schedule:
//! sim-µs, integer parts-per-million, no wall clock, no floats.

use crate::span::{Span, SpanId, SpanKind};
use dgf_simgrid::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// The closed wait-state taxonomy: every sim-microsecond of a
/// completed flow's critical path is charged to exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitState {
    /// A step was running on a bound compute resource.
    Executing,
    /// A step was eligible but no cluster slot was free.
    QueuedForCluster,
    /// Bytes were moving on a WAN link or between storage tiers.
    TransferOnLink,
    /// A node was parked until its schedule window reopened.
    WindowClosed,
    /// Time between a causal trigger firing and the spawned flow's
    /// first dispatched work (near-zero while triggers fire
    /// synchronously).
    TriggerWait,
    /// Engine admission, lint gating, and control-flow bookkeeping —
    /// the residual class that keeps the taxonomy closed.
    LintAdmission,
}

impl WaitState {
    /// The stable kebab-case name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            WaitState::Executing => "executing",
            WaitState::QueuedForCluster => "queued-for-cluster",
            WaitState::TransferOnLink => "transfer-on-link",
            WaitState::WindowClosed => "window-closed",
            WaitState::TriggerWait => "trigger-wait",
            WaitState::LintAdmission => "lint/admission",
        }
    }
}

impl fmt::Display for WaitState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A wait interval the engine recorded when it parked work: flow `txn`
/// could not advance at `node` during `[from, until)` because of
/// `state`, and `resource` is to blame. Marks are matched against
/// critical-path gaps by transaction and interval overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaitMark {
    /// Transaction id of the waiting flow.
    pub txn: String,
    /// Flow-tree node that was parked.
    pub node: String,
    /// Why it waited.
    pub state: WaitState,
    /// Wait start (inclusive).
    pub from: SimTime,
    /// Wait end (exclusive).
    pub until: SimTime,
    /// The blamed resource (pool label, window, link, ...).
    pub resource: String,
}

/// One classified segment of a critical path: `[from, until)` charged
/// to `state` and blamed on `resource`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Segment start, inclusive.
    pub from: SimTime,
    /// Segment end, exclusive.
    pub until: SimTime,
    /// The wait-state classification.
    pub state: WaitState,
    /// The blamed resource.
    pub resource: String,
    /// The flow-tree node the segment is anchored to (`/` for
    /// flow-level time).
    pub node: String,
}

impl PathSegment {
    /// Segment length in sim-µs.
    pub fn duration_us(&self) -> u64 {
        self.until.0.saturating_sub(self.from.0)
    }
}

/// One completed flow's critical path: a gap-free partition of its
/// makespan into [`PathSegment`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Transaction id.
    pub txn: String,
    /// Root flow name.
    pub flow: String,
    /// Root span start.
    pub start: SimTime,
    /// Root span end.
    pub end: SimTime,
    /// The trigger that spawned this flow, when trigger-spawned.
    pub caused_by: Option<String>,
    /// The segments, in time order.
    pub segments: Vec<PathSegment>,
}

impl CriticalPath {
    /// The flow makespan in sim-µs.
    pub fn makespan_us(&self) -> u64 {
        self.end.0.saturating_sub(self.start.0)
    }

    /// Sum of segment durations — equals [`CriticalPath::makespan_us`]
    /// by construction.
    pub fn segments_sum_us(&self) -> u64 {
        self.segments.iter().map(PathSegment::duration_us).sum()
    }
}

/// One aggregated bottleneck row: total critical-path sim-time charged
/// to a `(state, resource)` pair across every analyzed flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bottleneck {
    /// The wait-state classification.
    pub state: WaitState,
    /// The blamed resource.
    pub resource: String,
    /// Total critical-path sim-µs charged to this pair.
    pub total_us: u64,
    /// Share of all attributed critical-path time, in integer
    /// parts-per-million.
    pub share_ppm: u64,
}

/// Lifecycle state of an SLA deadline alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertState {
    /// Objective registered, deadline not yet passed.
    Pending,
    /// Deadline passed while the flow was still running.
    Firing,
    /// The flow reached a terminal state.
    Resolved,
}

impl AlertState {
    /// The stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One SLA deadline objective and its alert lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlaAlert {
    /// Transaction id of the governed flow.
    pub txn: String,
    /// Objective class (`flow` for a per-flow deadline).
    pub class: String,
    /// Root flow name.
    pub flow: String,
    /// Flow submission time.
    pub started: SimTime,
    /// The deadline (`started` + budget).
    pub deadline: SimTime,
    /// Current lifecycle state.
    pub state: AlertState,
    /// When the alert started firing, if it ever did.
    pub fired_at: Option<SimTime>,
    /// When the alert resolved.
    pub resolved_at: Option<SimTime>,
    /// True when the flow finished after its deadline.
    pub breached: bool,
}

impl SlaAlert {
    /// Budget consumed at `now`, in integer parts-per-million:
    /// 1_000_000 means the deadline is exactly reached. Resolved alerts
    /// freeze their burn at resolution time.
    pub fn burn_ppm(&self, now: SimTime) -> u64 {
        let at = self.resolved_at.unwrap_or(now);
        let elapsed = at.0.saturating_sub(self.started.0);
        let budget = self.deadline.0.saturating_sub(self.started.0).max(1);
        elapsed.saturating_mul(1_000_000) / budget
    }
}

/// The attribution store: wait marks, completed critical paths, and
/// SLA alerts. Lives inside the shared [`crate::Obs`] handle next to
/// the span store; the `Obs` `why_*` methods are the public surface.
#[derive(Debug, Default)]
pub(crate) struct WhyStore {
    /// Every wait mark, in recording order.
    marks: Vec<WaitMark>,
    /// Positions in `marks` of each transaction's marks, in recording
    /// order, so a finishing flow reads only its own.
    marks_by_txn: BTreeMap<String, Vec<u32>>,
    paths: Vec<CriticalPath>,
    alerts: Vec<SlaAlert>,
    attributed_us: u64,
}

impl WhyStore {
    pub(crate) fn add_mark(&mut self, mark: WaitMark) {
        let pos = u32::try_from(self.marks.len()).expect("fewer than 2^32 wait marks");
        self.marks_by_txn.entry(mark.txn.clone()).or_default().push(pos);
        self.marks.push(mark);
    }

    pub(crate) fn marks(&self) -> &[WaitMark] {
        &self.marks
    }

    /// Analyze one finished flow's span tree and append its critical
    /// path (no-op when the root span is unknown or still open). Reads
    /// only the flow's own wait marks.
    pub(crate) fn flow_finished(&mut self, spans: &[Span], root: SpanId) {
        let (marks, by_txn) = (&self.marks, &self.marks_by_txn);
        let path = critical_path_with(spans, root, |txn| {
            let positions = by_txn.get(txn).into_iter().flatten();
            positions.map(|&pos| &marks[pos as usize]).collect()
        });
        if let Some(path) = path {
            self.attributed_us += path.makespan_us();
            self.paths.push(path);
        }
    }

    pub(crate) fn paths(&self) -> &[CriticalPath] {
        &self.paths
    }

    pub(crate) fn attributed_us(&self) -> u64 {
        self.attributed_us
    }

    /// Aggregate per-`(state, resource)` blame across every completed
    /// critical path, largest total first (ties broken by state then
    /// resource name, so the order is deterministic). `top_k = 0`
    /// returns every row.
    pub(crate) fn bottlenecks(&self, top_k: usize) -> Vec<Bottleneck> {
        let mut totals: BTreeMap<(WaitState, &str), u64> = BTreeMap::new();
        for p in &self.paths {
            for s in &p.segments {
                *totals.entry((s.state, s.resource.as_str())).or_default() +=
                    s.duration_us();
            }
        }
        let mut rows: Vec<Bottleneck> = totals
            .into_iter()
            .map(|((state, resource), total_us)| Bottleneck {
                state,
                resource: resource.to_owned(),
                total_us,
                share_ppm: total_us.saturating_mul(1_000_000)
                    / self.attributed_us.max(1),
            })
            .collect();
        rows.sort_by(|a, b| {
            b.total_us
                .cmp(&a.total_us)
                .then_with(|| a.state.cmp(&b.state))
                .then_with(|| a.resource.cmp(&b.resource))
        });
        if top_k > 0 {
            rows.truncate(top_k);
        }
        rows
    }

    pub(crate) fn register_alert(&mut self, alert: SlaAlert) {
        // One objective per transaction: re-registration (recovery
        // replay re-drives submissions) keeps the first.
        if !self.alerts.iter().any(|a| a.txn == alert.txn) {
            self.alerts.push(alert);
        }
    }

    pub(crate) fn alerts(&self) -> &[SlaAlert] {
        &self.alerts
    }

    pub(crate) fn alert_mut(&mut self, txn: &str) -> Option<&mut SlaAlert> {
        self.alerts.iter_mut().find(|a| a.txn == txn)
    }

    /// Transactions whose pending alert's deadline has passed at `now`,
    /// in registration order.
    pub(crate) fn due_firings(&self, now: SimTime) -> Vec<String> {
        self.alerts
            .iter()
            .filter(|a| a.state == AlertState::Pending && now >= a.deadline)
            .map(|a| a.txn.clone())
            .collect()
    }
}

/// Compute one flow's critical path from its trace's spans.
///
/// The walk starts at the root span's end and repeatedly descends into
/// the child span that finished latest before the cursor; the gaps in
/// between are classified via the root transaction's `marks`
/// overlapping them (other transactions' marks are ignored), falling
/// back to `executing` (inside a step bound to a compute resource) or
/// `lint/admission` (flow-level bookkeeping). Returns `None` when
/// `root` is missing from `spans` or still open.
pub fn critical_path(spans: &[Span], root: SpanId, marks: &[WaitMark]) -> Option<CriticalPath> {
    critical_path_with(spans, root, |txn| marks.iter().filter(|m| m.txn == txn).collect())
}

/// [`critical_path`], with `marks_of` handing over the marks of the
/// root's transaction (in recording order) once the root is known.
fn critical_path_with<'m>(
    spans: &[Span],
    root: SpanId,
    marks_of: impl FnOnce(&str) -> Vec<&'m WaitMark>,
) -> Option<CriticalPath> {
    let root_span = spans.iter().find(|s| s.id == root)?;
    let end = root_span.end?;
    let txn = root_span.attr("txn").unwrap_or(&root_span.name).to_owned();
    let caused_by = root_span.attr("cause.trigger").map(str::to_owned);
    let marks = marks_of(&txn);
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children.entry(parent).or_default().push(s);
        }
    }
    let walker = Walker { children, caused_by: caused_by.clone(), marks };
    let mut segments = Vec::new();
    walker.walk(root_span, end, &mut segments);
    segments.sort_by_key(|s| (s.from, s.until));
    merge_adjacent(&mut segments);
    Some(CriticalPath {
        txn,
        flow: root_span.name.clone(),
        start: root_span.start,
        end,
        caused_by,
        segments,
    })
}

/// Coalesce time-adjacent segments with identical classification
/// (queue-retry marks arrive in fixed-interval slices; reports read
/// better as one row).
fn merge_adjacent(segments: &mut Vec<PathSegment>) {
    let mut merged: Vec<PathSegment> = Vec::with_capacity(segments.len());
    for seg in segments.drain(..) {
        match merged.last_mut() {
            Some(last)
                if last.until == seg.from
                    && last.state == seg.state
                    && last.resource == seg.resource
                    && last.node == seg.node =>
            {
                last.until = seg.until;
            }
            _ => merged.push(seg),
        }
    }
    *segments = merged;
}

struct Walker<'a, 'm> {
    children: BTreeMap<SpanId, Vec<&'a Span>>,
    caused_by: Option<String>,
    /// The flow's own wait marks, in recording order.
    marks: Vec<&'m WaitMark>,
}

impl Walker<'_, '_> {
    /// Partition `[span.start, clip_end)` of `span` into segments.
    fn walk(&self, span: &Span, clip_end: SimTime, out: &mut Vec<PathSegment>) {
        let node = self.node_of(span);
        // The compute resource this span's step was bound to, when the
        // scheduler recorded a successful binding under it.
        let compute = self
            .children
            .get(&span.id)
            .into_iter()
            .flatten()
            .filter(|c| c.kind == SpanKind::SchedulerBinding)
            .filter(|c| c.attr("result") != Some("queued"))
            .find_map(|c| c.attr("compute"))
            .map(str::to_owned);
        let mut cursor = clip_end;
        while cursor > span.start {
            // Among closed, non-empty children starting before the
            // cursor, descend into the one that finished latest
            // (ties: latest start, then highest id — all deterministic).
            let chosen = self
                .children
                .get(&span.id)
                .into_iter()
                .flatten()
                .filter(|c| c.start < cursor)
                .filter_map(|c| {
                    let child_end = c.end?.min(cursor);
                    (child_end > c.start).then_some((child_end, c.start, c.id, *c))
                })
                .max_by_key(|(child_end, start, id, _)| (*child_end, *start, *id));
            let Some((child_end, _, _, child)) = chosen else {
                self.classify_gap(span, &node, compute.as_deref(), span.start, cursor, out);
                break;
            };
            if child_end < cursor {
                self.classify_gap(span, &node, compute.as_deref(), child_end, cursor, out);
            }
            self.descend(span, &node, child, child_end, out);
            cursor = child.start;
        }
    }

    /// Emit segments for the chosen child interval `[child.start,
    /// child_end)`.
    fn descend(
        &self,
        parent: &Span,
        parent_node: &str,
        child: &Span,
        child_end: SimTime,
        out: &mut Vec<PathSegment>,
    ) {
        match child.kind {
            SpanKind::Flow | SpanKind::Request => self.walk(child, child_end, out),
            SpanKind::NetworkTransfer => out.push(PathSegment {
                from: child.start,
                until: child_end,
                state: WaitState::TransferOnLink,
                resource: link_label(child),
                node: parent_node.to_owned(),
            }),
            SpanKind::DgmsOp => {
                let moved_bytes = child
                    .attr("bytes")
                    .and_then(|b| b.parse::<u64>().ok())
                    .is_some_and(|b| b > 0)
                    && (child.attr("src").is_some() || child.attr("dst").is_some());
                let (state, resource) = if moved_bytes {
                    (WaitState::TransferOnLink, link_label(child))
                } else {
                    (
                        WaitState::Executing,
                        child.attr("dst").unwrap_or("dgms").to_owned(),
                    )
                };
                out.push(PathSegment {
                    from: child.start,
                    until: child_end,
                    state,
                    resource,
                    node: parent_node.to_owned(),
                });
            }
            SpanKind::TriggerAction => out.push(PathSegment {
                from: child.start,
                until: child_end,
                state: WaitState::TriggerWait,
                resource: format!("trigger:{}", child.name),
                node: parent_node.to_owned(),
            }),
            // Binding decisions are instantaneous; a non-empty one is
            // engine bookkeeping.
            SpanKind::SchedulerBinding => out.push(PathSegment {
                from: child.start,
                until: child_end,
                state: WaitState::LintAdmission,
                resource: "engine".to_owned(),
                node: self.node_of(parent).to_owned(),
            }),
        }
    }

    /// Classify an uncovered gap `[from, until)` inside `span`: wait
    /// marks overlapping the interval claim their slices, the remainder
    /// falls back to `executing` (when the span's step is bound to a
    /// compute resource) or `lint/admission` — except the leading gap
    /// of a trigger-spawned root, which is `trigger-wait`.
    fn classify_gap(
        &self,
        span: &Span,
        node: &str,
        compute: Option<&str>,
        from: SimTime,
        until: SimTime,
        out: &mut Vec<PathSegment>,
    ) {
        let fallback = |seg_from: SimTime| -> (WaitState, String) {
            if let Some(compute) = compute {
                (WaitState::Executing, compute.to_owned())
            } else if span.kind == SpanKind::Flow && span.parent.is_none() && seg_from == span.start
            {
                match &self.caused_by {
                    Some(cause) => (WaitState::TriggerWait, format!("trigger:{cause}")),
                    None => (WaitState::LintAdmission, "engine".to_owned()),
                }
            } else {
                (WaitState::LintAdmission, "engine".to_owned())
            }
        };
        let mut overlaps: Vec<&WaitMark> = self
            .marks
            .iter()
            .copied()
            .filter(|m| m.from < until && m.until > from)
            .collect();
        overlaps.sort_by(|a, b| {
            (a.from, a.until, &a.resource).cmp(&(b.from, b.until, &b.resource))
        });
        let mut cursor = from;
        for mark in overlaps {
            let s = mark.from.max(cursor);
            let e = mark.until.min(until);
            if e <= s {
                continue;
            }
            if s > cursor {
                let (state, resource) = fallback(cursor);
                out.push(PathSegment { from: cursor, until: s, state, resource, node: node.to_owned() });
            }
            out.push(PathSegment {
                from: s,
                until: e,
                state: mark.state,
                resource: mark.resource.clone(),
                node: node.to_owned(),
            });
            cursor = e;
        }
        if cursor < until {
            let (state, resource) = fallback(cursor);
            out.push(PathSegment { from: cursor, until, state, resource, node: node.to_owned() });
        }
    }

    fn node_of(&self, span: &Span) -> String {
        span.attr("node").unwrap_or("/").to_owned()
    }
}

fn link_label(span: &Span) -> String {
    match (span.attr("src"), span.attr("dst")) {
        (Some(src), Some(dst)) => format!("{src}→{dst}"),
        (None, Some(dst)) => format!("→{dst}"),
        (Some(src), None) => format!("{src}→"),
        (None, None) => "link".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::TraceId;

    fn span(
        id: u64,
        parent: Option<u64>,
        kind: SpanKind,
        name: &str,
        start: u64,
        end: u64,
        attrs: &[(&str, &str)],
    ) -> Span {
        Span {
            id: SpanId(id),
            trace: TraceId(1),
            parent: parent.map(SpanId),
            kind,
            name: name.into(),
            start: SimTime(start),
            end: Some(SimTime(end)),
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    #[test]
    fn missing_or_open_root_yields_none() {
        assert!(critical_path(&[], SpanId(1), &[]).is_none());
        let mut open = span(1, None, SpanKind::Flow, "f", 0, 10, &[]);
        open.end = None;
        assert!(critical_path(&[open], SpanId(1), &[]).is_none());
    }

    #[test]
    fn sequential_children_partition_exactly() {
        let spans = vec![
            span(1, None, SpanKind::Flow, "f", 0, 100, &[("txn", "t1")]),
            span(2, Some(1), SpanKind::Request, "a", 0, 40, &[("node", "/0")]),
            span(3, Some(1), SpanKind::Request, "b", 40, 100, &[("node", "/1")]),
        ];
        let p = critical_path(&spans, SpanId(1), &[]).unwrap();
        assert_eq!(p.txn, "t1");
        assert_eq!(p.makespan_us(), 100);
        assert_eq!(p.segments_sum_us(), 100);
        // Leaf requests without bindings are engine bookkeeping, and
        // the two leaves merge only if classification AND node match.
        assert_eq!(p.segments.len(), 2);
        assert_eq!(p.segments[0].node, "/0");
        assert_eq!(p.segments[1].node, "/1");
    }

    #[test]
    fn fan_in_follows_the_latest_finisher() {
        // Parallel children [0,30) and [0,80): the critical path goes
        // through the longer one only.
        let spans = vec![
            span(1, None, SpanKind::Flow, "f", 0, 80, &[("txn", "t1")]),
            span(2, Some(1), SpanKind::Request, "short", 0, 30, &[("node", "/0")]),
            span(3, Some(1), SpanKind::Request, "long", 0, 80, &[("node", "/1")]),
        ];
        let p = critical_path(&spans, SpanId(1), &[]).unwrap();
        assert_eq!(p.segments_sum_us(), p.makespan_us());
        assert!(p.segments.iter().all(|s| s.node != "/0"), "{:?}", p.segments);
    }

    #[test]
    fn transfers_and_bound_execution_classify() {
        let spans = vec![
            span(1, None, SpanKind::Flow, "f", 0, 100, &[("txn", "t1")]),
            span(2, Some(1), SpanKind::Request, "step", 0, 100, &[("node", "/0")]),
            span(
                3,
                Some(2),
                SpanKind::SchedulerBinding,
                "bind",
                0,
                0,
                &[("compute", "site1-hpc"), ("result", "bound")],
            ),
            span(
                4,
                Some(2),
                SpanKind::NetworkTransfer,
                "stage-in",
                0,
                30,
                &[("src", "site0-disk"), ("dst", "site1-disk")],
            ),
        ];
        let p = critical_path(&spans, SpanId(1), &[]).unwrap();
        assert_eq!(p.segments_sum_us(), 100);
        assert_eq!(p.segments[0].state, WaitState::TransferOnLink);
        assert_eq!(p.segments[0].resource, "site0-disk→site1-disk");
        assert_eq!(p.segments[1].state, WaitState::Executing);
        assert_eq!(p.segments[1].resource, "site1-hpc");
        assert_eq!(p.segments[1].duration_us(), 70);
    }

    #[test]
    fn wait_marks_claim_their_slices() {
        let spans = vec![
            span(1, None, SpanKind::Flow, "f", 0, 100, &[("txn", "t1")]),
            span(2, Some(1), SpanKind::Request, "step", 0, 100, &[("node", "/0")]),
            span(
                3,
                Some(2),
                SpanKind::SchedulerBinding,
                "bind",
                60,
                60,
                &[("compute", "hpc"), ("result", "bound")],
            ),
        ];
        // Two back-to-back queue retries, recorded in fixed slices.
        let marks = vec![
            WaitMark {
                txn: "t1".into(),
                node: "/0".into(),
                state: WaitState::QueuedForCluster,
                from: SimTime(0),
                until: SimTime(30),
                resource: "pool:hpc".into(),
            },
            WaitMark {
                txn: "t1".into(),
                node: "/0".into(),
                state: WaitState::QueuedForCluster,
                from: SimTime(30),
                until: SimTime(60),
                resource: "pool:hpc".into(),
            },
        ];
        let p = critical_path(&spans, SpanId(1), &marks).unwrap();
        assert_eq!(p.segments_sum_us(), 100);
        // The retry slices merge into one queued segment.
        assert_eq!(p.segments.len(), 2, "{:?}", p.segments);
        assert_eq!(p.segments[0].state, WaitState::QueuedForCluster);
        assert_eq!(p.segments[0].duration_us(), 60);
        assert_eq!(p.segments[1].state, WaitState::Executing);
    }

    #[test]
    fn trigger_spawned_root_charges_leading_gap_to_the_trigger() {
        let spans = vec![
            span(
                1,
                None,
                SpanKind::Flow,
                "spawned",
                0,
                50,
                &[("txn", "t2"), ("cause.trigger", "on-ingest")],
            ),
            span(2, Some(1), SpanKind::Request, "step", 20, 50, &[("node", "/0")]),
        ];
        let p = critical_path(&spans, SpanId(1), &[]).unwrap();
        assert_eq!(p.caused_by.as_deref(), Some("on-ingest"));
        assert_eq!(p.segments[0].state, WaitState::TriggerWait);
        assert_eq!(p.segments[0].resource, "trigger:on-ingest");
        assert_eq!(p.segments[0].duration_us(), 20);
        assert_eq!(p.segments_sum_us(), 50);
    }

    #[test]
    fn store_aggregates_deterministic_bottlenecks() {
        let mut store = WhyStore::default();
        let spans = vec![
            span(1, None, SpanKind::Flow, "f", 0, 100, &[("txn", "t1")]),
            span(
                2,
                Some(1),
                SpanKind::NetworkTransfer,
                "xfer",
                0,
                75,
                &[("src", "a"), ("dst", "b")],
            ),
        ];
        store.flow_finished(&spans, SpanId(1));
        assert_eq!(store.paths().len(), 1);
        assert_eq!(store.attributed_us(), 100);
        let rows = store.bottlenecks(0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].state, WaitState::TransferOnLink);
        assert_eq!(rows[0].resource, "a→b");
        assert_eq!(rows[0].share_ppm, 750_000);
        assert_eq!(rows[1].share_ppm, 250_000);
        assert_eq!(store.bottlenecks(1).len(), 1);
    }

    #[test]
    fn store_reads_only_the_flows_own_marks() {
        let mark = |txn: &str, from: u64, until: u64, resource: &str| WaitMark {
            txn: txn.into(),
            node: "/0".into(),
            state: WaitState::QueuedForCluster,
            from: SimTime(from),
            until: SimTime(until),
            resource: resource.into(),
        };
        let spans = vec![
            span(1, None, SpanKind::Flow, "f", 0, 100, &[("txn", "t1")]),
            span(2, Some(1), SpanKind::Request, "step", 0, 100, &[("node", "/0")]),
            span(
                3,
                Some(2),
                SpanKind::SchedulerBinding,
                "bind",
                60,
                60,
                &[("compute", "hpc"), ("result", "bound")],
            ),
        ];
        // Other flows' marks interleave with t1's and overlap the same
        // interval; recorded before, between and after t1's own.
        let all = vec![
            mark("t2", 0, 50, "pool:other"),
            mark("t1", 0, 30, "pool:hpc"),
            mark("t10", 10, 40, "pool:other"),
            mark("t2", 50, 90, "pool:other"),
            mark("t1", 30, 60, "pool:hpc"),
            mark("t3", 0, 100, "window"),
        ];
        let mut store = WhyStore::default();
        for m in &all {
            store.add_mark(m.clone());
        }
        assert_eq!(store.marks(), &all[..], "marks stay in recording order");
        store.flow_finished(&spans, SpanId(1));
        let expected = critical_path(&spans, SpanId(1), &all).unwrap();
        assert_eq!(store.paths(), std::slice::from_ref(&expected));
        assert_eq!(expected.segments[0].resource, "pool:hpc");
        assert_eq!(expected.segments[0].duration_us(), 60);
        // A flow without marks still gets its path.
        let other = vec![span(1, None, SpanKind::Flow, "g", 0, 10, &[("txn", "t4")])];
        store.flow_finished(&other, SpanId(1));
        assert_eq!(store.paths()[1], critical_path(&other, SpanId(1), &all).unwrap());
    }

    #[test]
    fn alert_lifecycle_and_burn() {
        let mut store = WhyStore::default();
        let alert = SlaAlert {
            txn: "t1".into(),
            class: "flow".into(),
            flow: "f".into(),
            started: SimTime(0),
            deadline: SimTime(1_000),
            state: AlertState::Pending,
            fired_at: None,
            resolved_at: None,
            breached: false,
        };
        store.register_alert(alert.clone());
        store.register_alert(alert); // replayed submission: kept once
        assert_eq!(store.alerts().len(), 1);
        assert!(store.due_firings(SimTime(999)).is_empty());
        assert_eq!(store.due_firings(SimTime(1_000)), vec!["t1".to_string()]);
        let a = store.alert_mut("t1").unwrap();
        assert_eq!(a.burn_ppm(SimTime(500)), 500_000);
        a.state = AlertState::Firing;
        a.fired_at = Some(SimTime(1_000));
        assert_eq!(a.burn_ppm(SimTime(1_500)), 1_500_000);
        a.state = AlertState::Resolved;
        a.resolved_at = Some(SimTime(2_000));
        a.breached = true;
        assert_eq!(a.burn_ppm(SimTime(9_999)), 2_000_000, "burn freezes at resolution");
        assert!(store.due_firings(SimTime(9_999)).is_empty());
    }
}
