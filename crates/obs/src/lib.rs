//! `dgf-obs` — the observability layer of the Datagridflow Management
//! System.
//!
//! The paper requires a DfMS whose state "can be queried at any time"
//! at any granularity (§3.1) and provenance that stays inspectable
//! "even (years) after the execution" (§2.1). This crate supplies the
//! runtime half of that promise:
//!
//! * a **flight recorder** ([`FlightRecorder`]): a bounded ring buffer
//!   of typed [`ObsEvent`]s stamped with the *simulation* clock, so a
//!   recording of a seeded scenario is bit-for-bit deterministic;
//! * a **metrics registry** ([`MetricsRegistry`]): counters, gauges,
//!   and sim-time histograms under per-subsystem and per-run scopes,
//!   with plain-text and JSON exporters ([`MetricsSnapshot`]);
//! * one plain value ([`Obs`]) holding the recorder, the registry and
//!   the span, time-series, health, profile and attribution stores. The
//!   engine (`dgf-dfms`) and the federation fabric (`dgf-fabric`) each
//!   own one by value; the layers beneath them (scheduler, triggers,
//!   DGMS) do not depend on this crate and hand their results back to
//!   the engine, which records them.
//!
//! The owner advances the recorder's notion of "now" ([`Obs::set_now`])
//! once per dispatched work item, so individual writes need not thread
//! a clock through their signatures.
//!
//! ```
//! use dgf_obs::{EventKind, Obs};
//! use dgf_simgrid::SimTime;
//!
//! let mut obs = Obs::new(1024);
//! obs.set_now(SimTime(5));
//! obs.record(EventKind::TriggerFired { trigger: "t".into(), action: "notify".into() });
//! obs.inc("triggers", "fired");
//! assert_eq!(obs.events().len(), 1);
//! assert_eq!(obs.events()[0].time, SimTime(5));
//! assert_eq!(obs.snapshot().counter("triggers", "fired"), 1);
//! ```

#![warn(missing_docs)]

mod event;
mod health;
mod metrics;
mod perfetto;
mod prof;
mod recorder;
mod ring;
mod span;
mod timeseries;
mod trace;
mod trace_export;
mod why;

pub use event::{EventKind, ObsEvent};
pub use health::{FlowHealth, HealthConfig, HealthMonitor, HealthState, HealthTransition};
pub use metrics::{percentile, MetricSample, MetricValue, MetricsRegistry, MetricsSnapshot, SimHistogram};
pub use perfetto::{
    decode_perfetto, to_perfetto_trace, PerfettoEvent, PerfettoPacket, PerfettoTrack, SLICE_BEGIN,
    SLICE_END,
};
pub use prof::{
    allocations, CountingAllocator, Phase, PhaseStats, ProfileNode, ProfileSnapshot, Profiler,
};
pub use recorder::{EventTail, FlightRecorder, DEFAULT_RING_CAPACITY};
pub use ring::RingBuffer;
pub use span::{Span, SpanContext, SpanId, SpanKind, TraceId};
pub use timeseries::{render_scrape, Rollup, SamplingConfig, SeriesPoint, TimeSeries, TimeSeriesStore};
pub use trace_export::to_chrome_trace;
pub use why::{critical_path, SlaAlert, WaitMark};

use dgf_dgl::{AlertState, WaitState, WhyBottleneck, WhyPath};
use dgf_simgrid::{Duration, SimTime};
use std::collections::BTreeMap;

/// The observability state of one engine or fabric: flight recorder,
/// metrics registry, spans, time series, health watchdog, phase
/// profiler and attribution store.
///
/// A plain value with a single owner: writers take `&mut self`, and
/// readers borrow (`spans`, `why_paths`, `ts_store`, ...) rather than
/// copy. The threaded server front-end reads it through the engine lock
/// it already holds.
#[derive(Debug)]
pub struct Obs {
    now: SimTime,
    recorder: FlightRecorder,
    metrics: MetricsRegistry,
    traces: trace::TraceStore,
    timeseries: TimeSeriesStore,
    health: HealthMonitor,
    prof: Profiler,
    why: why::WhyStore,
}

impl Obs {
    /// A fresh recorder + registry; the ring retains `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Obs {
            now: SimTime::ZERO,
            recorder: FlightRecorder::new(capacity),
            metrics: MetricsRegistry::new(),
            traces: trace::TraceStore::default(),
            timeseries: TimeSeriesStore::new(SamplingConfig::default()),
            health: HealthMonitor::new(HealthConfig::default()),
            prof: Profiler::new(),
            why: why::WhyStore::default(),
        }
    }

    /// Advance the recorder's simulation clock. The engine calls this
    /// once per dispatched work item; everything recorded until the next
    /// call is stamped with this instant.
    ///
    /// The clock is monotonic: an attempt to move it backwards is
    /// ignored (the recorder keeps the later time), so a misordered
    /// caller can never make recordings non-replayable by stamping
    /// events before ones already recorded.
    pub fn set_now(&mut self, now: SimTime) {
        if now > self.now {
            self.now = now;
        }
    }

    /// The recorder's current simulation clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Record an event stamped with the current simulation clock.
    pub fn record(&mut self, kind: EventKind) {
        self.recorder.record(self.now, kind);
    }

    /// Increment the counter `scope/name` by one.
    pub fn inc(&mut self, scope: &str, name: &str) {
        self.metrics.inc(scope, name);
    }

    /// Increment the counter `scope/name` by `n`.
    pub fn add(&mut self, scope: &str, name: &str, n: u64) {
        self.metrics.add(scope, name, n);
    }

    /// Set the gauge `scope/name`.
    pub fn gauge_set(&mut self, scope: &str, name: &str, value: i64) {
        self.metrics.gauge_set(scope, name, value);
    }

    /// Fold a duration into the histogram `scope/name`.
    pub fn observe(&mut self, scope: &str, name: &str, d: Duration) {
        self.metrics.observe(scope, name, d);
    }

    /// The counter `scope/name` as recorded here, or 0 when absent: one
    /// registry lookup, where [`Obs::snapshot`] copies every metric.
    pub fn counter(&self, scope: &str, name: &str) -> u64 {
        self.metrics.counter(scope, name)
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.recorder.events()
    }

    /// Count of events ever recorded (including evicted ones).
    pub fn events_total(&self) -> u64 {
        self.recorder.total()
    }

    /// A point-in-time copy of every metric recorded here, including the
    /// per-span-kind latency percentiles (`trace/span.<kind>.p{50,95,99}_us`
    /// gauges, nearest-rank over completed spans' sim-time durations).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let mut durations: BTreeMap<SpanKind, Vec<u64>> = BTreeMap::new();
        for span in self.traces.spans() {
            if let Some(us) = span.duration_us() {
                durations.entry(span.kind).or_default().push(us);
            }
        }
        for (kind, mut sorted) in durations {
            sorted.sort_unstable();
            for (p, tag) in [(50.0, "p50_us"), (95.0, "p95_us"), (99.0, "p99_us")] {
                snap.insert(
                    "trace",
                    &format!("span.{}.{}", kind.name(), tag),
                    MetricValue::Gauge(percentile(&sorted, p) as i64),
                );
            }
        }
        snap
    }

    // ------------------------------------------------------------------
    // Event tail (cursor-based reads)
    // ------------------------------------------------------------------

    /// Read retained events from `cursor` (a sequence number), at most
    /// `limit` of them; see [`FlightRecorder::tail`] for the no-gap /
    /// no-duplicate cursor protocol.
    pub fn tail(&self, cursor: u64, limit: usize) -> EventTail {
        self.recorder.tail(cursor, limit)
    }

    // ------------------------------------------------------------------
    // Time-series telemetry
    // ------------------------------------------------------------------

    /// Replace the time-series sampling schedule (interval + per-series
    /// ring capacity). Existing points are kept.
    pub fn ts_configure(&mut self, config: SamplingConfig) {
        self.timeseries.set_config(config);
    }

    /// True when at least one sampling interval has elapsed (on the
    /// recorder's clock) since the last [`Obs::ts_mark_sampled`]. The
    /// engine checks this once per dispatched work item.
    pub fn ts_due(&self) -> bool {
        self.timeseries.due(self.now)
    }

    /// Note that a full sample pass just happened at the recorder's clock.
    pub fn ts_mark_sampled(&mut self) {
        self.timeseries.mark_sampled(self.now);
    }

    /// Append a point (stamped with the recorder's clock) to the
    /// `(name, label)` series.
    pub fn ts_record(&mut self, name: &str, label: &str, value: i64) {
        self.timeseries.record(name, label, self.now, value);
    }

    /// One series, if any point was ever recorded for it.
    pub fn ts_series(&self, name: &str, label: &str) -> Option<&TimeSeries> {
        self.timeseries.series(name, label)
    }

    /// Sorted `(name, label, rollup)` summaries of every series.
    pub fn ts_rollups(&self) -> Vec<(String, String, Rollup)> {
        self.timeseries.rollups()
    }

    /// The whole store (the engine hands this to [`render_scrape`]
    /// together with its enriched snapshot).
    pub fn ts_store(&self) -> &TimeSeriesStore {
        &self.timeseries
    }

    // ------------------------------------------------------------------
    // Flow health watchdog
    // ------------------------------------------------------------------

    /// Replace the watchdog deadlines.
    pub fn health_configure(&mut self, config: HealthConfig) {
        self.health.set_config(config);
    }

    /// The active watchdog deadlines.
    pub fn health_config(&self) -> HealthConfig {
        self.health.config()
    }

    /// Start watching a flow, watermarked at the recorder's clock.
    pub fn health_register(&mut self, txn: &str) {
        self.health.register(txn, self.now);
    }

    /// Stop watching a flow (it reached a terminal state) and refresh
    /// the `dfms/flows_stalled` gauge.
    pub fn health_finish(&mut self, txn: &str) {
        self.health.finish(txn);
        self.refresh_stalled_gauge();
    }

    /// Advance a flow's progress watermark to `time`. A `Slow`/`Stalled`
    /// flow recovers to `Healthy`; the recovery is recorded as a
    /// `health.healthy` event and the gauge is refreshed.
    pub fn health_progress(&mut self, txn: &str, time: SimTime) {
        if let Some(t) = self.health.progress(txn, time) {
            self.record(EventKind::HealthTransition {
                txn: t.txn,
                from: t.from,
                to: t.to,
                last_progress_us: t.last_progress.0,
            });
            self.refresh_stalled_gauge();
        }
    }

    /// Re-classify every watched flow against the recorder's clock. Each
    /// transition is recorded as a `health.*` event, and the
    /// `dfms/flows_stalled` gauge is refreshed. Returns the transitions
    /// (in transaction-id order).
    pub fn health_check(&mut self) -> Vec<HealthTransition> {
        let transitions = self.health.check(self.now);
        for t in &transitions {
            self.record(EventKind::HealthTransition {
                txn: t.txn.clone(),
                from: t.from,
                to: t.to,
                last_progress_us: t.last_progress.0,
            });
        }
        self.refresh_stalled_gauge();
        transitions
    }

    fn refresh_stalled_gauge(&mut self) {
        let stalled = self.health.stalled_count() as i64;
        self.metrics.gauge_set("dfms", "flows_stalled", stalled);
    }

    /// Every watched flow's classification, in transaction-id order.
    pub fn health_flows(&self) -> Vec<FlowHealth> {
        self.health.flows()
    }

    /// One watched flow's classification.
    pub fn health_flow(&self, txn: &str) -> Option<FlowHealth> {
        self.health.flow(txn)
    }

    // ------------------------------------------------------------------
    // Span tracing
    // ------------------------------------------------------------------

    /// Open a span at the current simulation clock. `parent = None`
    /// roots a fresh trace; children inherit the parent's trace id.
    pub fn span_start(&mut self, kind: SpanKind, name: &str, parent: Option<SpanContext>) -> SpanContext {
        self.traces.start(self.now, kind, name, parent)
    }

    /// Open a span at an explicit simulation time (for work whose start
    /// is scheduled ahead of the recorder's clock, e.g. staged transfers).
    pub fn span_start_at(
        &mut self,
        time: SimTime,
        kind: SpanKind,
        name: &str,
        parent: Option<SpanContext>,
    ) -> SpanContext {
        self.traces.start(time, kind, name, parent)
    }

    /// Close a span at the current simulation clock and fold its
    /// duration into the `trace/span.<kind>` histogram. Closing twice is
    /// a no-op.
    pub fn span_end(&mut self, ctx: SpanContext) {
        self.span_end_at(ctx, self.now);
    }

    /// Close a span at an explicit simulation time.
    pub fn span_end_at(&mut self, ctx: SpanContext, time: SimTime) {
        if let Some((kind, dur)) = self.traces.end(ctx, time) {
            self.metrics.observe("trace", kind.histogram_name(), Duration(dur));
        }
    }

    /// Append a structured attribute to a span.
    pub fn span_attr(&mut self, ctx: SpanContext, key: &str, value: &str) {
        self.traces.attr(ctx, key, value);
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        self.traces.spans()
    }

    /// The spans of one trace, in creation order.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<Span> {
        self.traces.trace_spans(trace)
    }

    /// Export every recorded span as Chrome trace-event JSON
    /// (loadable in `chrome://tracing` / Perfetto).
    pub fn export_chrome_trace(&self) -> String {
        to_chrome_trace(self.traces.spans())
    }

    /// Export every recorded span as a binary Perfetto `Trace` protobuf
    /// (loadable in <https://ui.perfetto.dev>, see
    /// [`to_perfetto_trace`]).
    pub fn export_perfetto_trace(&self) -> Vec<u8> {
        to_perfetto_trace(self.traces.spans())
    }

    // ------------------------------------------------------------------
    // Attribution (dgf-why)
    // ------------------------------------------------------------------

    /// Record a wait interval: flow `txn` could not advance at `node`
    /// during `[from, until)` because of `state`, blamed on `resource`.
    /// The engine calls this whenever it parks work; the marks classify
    /// critical-path gaps when the flow finishes.
    pub fn why_mark(
        &mut self,
        txn: &str,
        node: &str,
        state: WaitState,
        from: SimTime,
        until: SimTime,
        resource: &str,
    ) {
        self.why.add_mark(WaitMark {
            txn: txn.to_owned(),
            node: node.to_owned(),
            state,
            from,
            until,
            resource: resource.to_owned(),
        });
    }

    /// Analyze a finished flow: compute its critical path from the
    /// trace's span tree (plus the flow's own wait marks) and retain it
    /// for [`Obs::why_paths`] / [`Obs::why_bottlenecks`]. A no-op when
    /// the root span is unknown or still open. Reads only this flow's
    /// spans and marks, so its cost does not grow with history.
    pub fn why_flow_finished(&mut self, root: SpanContext) {
        self.why.flow_finished(self.traces.trace_span_refs(root.trace), root.span);
    }

    /// Every completed flow's critical path, in completion order.
    pub fn why_paths(&self) -> &[WhyPath] {
        self.why.paths()
    }

    /// Total critical-path sim-µs attributed across every analyzed
    /// flow (the denominator of every bottleneck share).
    pub fn why_attributed_us(&self) -> u64 {
        self.why.attributed_us()
    }

    /// The aggregated `(state, resource)` blame table, largest
    /// contributor first; `top_k = 0` returns every row.
    pub fn why_bottlenecks(&self, top_k: usize) -> Vec<WhyBottleneck> {
        self.why.bottlenecks(top_k)
    }

    /// Register an SLA deadline objective for a flow. Re-registration
    /// of the same transaction (recovery replay re-drives submissions)
    /// keeps the first registration.
    pub fn why_register_alert(&mut self, alert: SlaAlert) {
        self.why.register_alert(alert);
    }

    /// Transactions whose pending alert's deadline has passed at
    /// `now`, in registration order. The engine turns each into a
    /// journaled `sla.firing` transition via [`Obs::why_fire_alert`].
    pub fn why_due_firings(&self, now: SimTime) -> Vec<String> {
        self.why.due_firings(now)
    }

    /// Move a pending alert to `firing` at `at`.
    pub fn why_fire_alert(&mut self, txn: &str, at: SimTime) {
        if let Some(a) = self.why.alert_mut(txn) {
            if a.state == AlertState::Pending {
                a.state = AlertState::Firing;
                a.fired_at = Some(at);
            }
        }
    }

    /// Resolve an alert at `at` (its flow reached a terminal state);
    /// `breached` records whether the flow finished past its deadline.
    pub fn why_resolve_alert(&mut self, txn: &str, at: SimTime, breached: bool) {
        if let Some(a) = self.why.alert_mut(txn) {
            if a.state != AlertState::Resolved {
                a.state = AlertState::Resolved;
                a.resolved_at = Some(at);
                a.breached = breached;
            }
        }
    }

    /// One flow's alert, when it has an objective.
    pub fn why_alert(&self, txn: &str) -> Option<&SlaAlert> {
        self.why.alerts().iter().find(|a| a.txn == txn)
    }

    /// Every SLA alert, in registration order.
    pub fn why_alerts(&self) -> &[SlaAlert] {
        self.why.alerts()
    }

    /// Every recorded wait mark, in recording order (diagnostic).
    pub fn why_marks(&self) -> &[WaitMark] {
        self.why.marks()
    }

    // ------------------------------------------------------------------
    // Phase profiling (dgf-prof)
    // ------------------------------------------------------------------

    /// Enter a profiled phase at the recorder's simulation clock, nesting
    /// under the currently open phase. Must pair with [`Obs::prof_exit`]
    /// on every control path.
    pub fn prof_enter(&mut self, phase: Phase) {
        self.prof.enter(phase, self.now);
    }

    /// Exit the innermost open profiled phase at the recorder's clock.
    pub fn prof_exit(&mut self, phase: Phase) {
        self.prof.exit(phase, self.now);
    }

    /// Fold an externally-measured cost into the profile as a leaf
    /// under the currently open phase (see [`Profiler::record_leaf`]).
    pub fn prof_record_leaf(&mut self, phase: Phase, calls: u64, wall_ns: u64) {
        self.prof.record_leaf(phase, calls, wall_ns);
    }

    /// A point-in-time copy of the phase-profile tree.
    pub fn profile_snapshot(&self) -> ProfileSnapshot {
        self.prof.snapshot()
    }

    /// Drop every accumulated profile node (and any open scopes).
    pub fn profile_reset(&mut self) {
        self.prof.reset();
    }
}

impl Default for Obs {
    fn default() -> Self {
        Self::new(DEFAULT_RING_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_span_times_leave_the_clock_alone() {
        let mut obs = Obs::new(16);
        obs.set_now(SimTime(100));
        let span = obs.span_start_at(SimTime(42), SpanKind::Flow, "f", None);
        obs.span_end_at(span, SimTime(60));
        assert_eq!(obs.spans()[0].start, SimTime(42));
        assert_eq!(obs.spans()[0].duration_us(), Some(18));
        assert_eq!(obs.now(), SimTime(100));
    }

    #[test]
    fn set_now_never_moves_the_clock_backwards() {
        let mut obs = Obs::new(16);
        obs.set_now(SimTime(100));
        obs.set_now(SimTime(40)); // regression: ignored
        assert_eq!(obs.now(), SimTime(100));
        obs.record(EventKind::TriggerFired { trigger: "t".into(), action: "notify".into() });
        assert_eq!(obs.events()[0].time, SimTime(100), "events never time-travel");
        obs.set_now(SimTime(200));
        assert_eq!(obs.now(), SimTime(200));
    }

    #[test]
    fn spans_nest_close_and_feed_percentile_gauges() {
        let mut obs = Obs::new(16);
        obs.set_now(SimTime(10));
        let root = obs.span_start(SpanKind::Flow, "f", None);
        let child = obs.span_start(SpanKind::DgmsOp, "ingest", Some(root));
        obs.span_attr(child, "path", "/x");
        obs.set_now(SimTime(30));
        obs.span_end(child);
        obs.span_end_at(root, SimTime(50));

        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root.span));
        assert_eq!(spans[1].duration_us(), Some(20));
        assert_eq!(obs.trace_spans(root.trace).len(), 2);

        let snap = obs.snapshot();
        assert_eq!(snap.histogram("trace", "span.dgms-op").count, 1);
        assert_eq!(snap.gauge("trace", "span.dgms-op.p50_us"), 20);
        assert_eq!(snap.gauge("trace", "span.flow.p99_us"), 40);

        let json = obs.export_chrome_trace();
        assert!(json.contains("\"name\":\"ingest\""));
        assert!(json.contains("\"path\":\"/x\""));
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
    }
}
