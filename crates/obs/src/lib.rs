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
//! * a cheap, clonable, thread-safe handle ([`Obs`]) that every
//!   subsystem (engine, scheduler, triggers, server, network) holds to
//!   write into one shared recorder + registry.
//!
//! The engine advances the handle's notion of "now" ([`Obs::set_now`])
//! once per dispatched work item; subsystems below the engine record
//! events without threading a clock through their signatures.
//!
//! ```
//! use dgf_obs::{EventKind, Obs};
//! use dgf_simgrid::SimTime;
//!
//! let obs = Obs::new(1024);
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
    decode_perfetto, to_perfetto_trace, to_perfetto_trace_with_profile, PerfettoEvent,
    PerfettoPacket, PerfettoTrack, SLICE_BEGIN, SLICE_END,
};
pub use prof::{
    allocations, CountingAllocator, Phase, PhaseStats, ProfileNode, ProfileSnapshot, Profiler,
};
pub use recorder::{EventTail, FlightRecorder, DEFAULT_RING_CAPACITY};
pub use ring::RingBuffer;
pub use span::{Span, SpanContext, SpanId, SpanKind, TraceId};
pub use timeseries::{render_scrape, Rollup, SamplingConfig, SeriesPoint, TimeSeries, TimeSeriesStore};
pub use trace_export::{to_chrome_trace, to_chrome_trace_with_profile};
pub use why::{critical_path, CriticalPath, PathSegment, SlaAlert, WaitMark};

use dgf_dgl::{AlertState, WaitState, WhyBottleneck};
use dgf_simgrid::{Duration, SimTime};
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug)]
struct Inner {
    now: SimTime,
    recorder: FlightRecorder,
    metrics: MetricsRegistry,
    traces: trace::TraceStore,
    timeseries: TimeSeriesStore,
    health: HealthMonitor,
    prof: Profiler,
    why: why::WhyStore,
}

/// The shared observability handle: one flight recorder plus one
/// metrics registry behind a mutex, cloned into every subsystem.
///
/// All writes are cheap (a lock, a push or a map update). The handle is
/// `Send + Sync`; the threaded server front-end shares it with client
/// threads safely. Lock poisoning is ignored — observability data is
/// advisory and a panicking writer must not take readers down.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<Mutex<Inner>>,
}

impl Obs {
    /// A fresh recorder + registry; the ring retains `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Obs {
            inner: Arc::new(Mutex::new(Inner {
                now: SimTime::ZERO,
                recorder: FlightRecorder::new(capacity),
                metrics: MetricsRegistry::new(),
                traces: trace::TraceStore::default(),
                timeseries: TimeSeriesStore::new(SamplingConfig::default()),
                health: HealthMonitor::new(HealthConfig::default()),
                prof: Profiler::new(),
                why: why::WhyStore::default(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Advance the recorder's simulation clock. The engine calls this
    /// once per dispatched work item; everything recorded until the next
    /// call is stamped with this instant.
    ///
    /// The clock is monotonic: an attempt to move it backwards is
    /// ignored (the recorder keeps the later time), so a misordered
    /// caller can never make recordings non-replayable by stamping
    /// events before ones already recorded.
    pub fn set_now(&self, now: SimTime) {
        let mut inner = self.lock();
        if now > inner.now {
            inner.now = now;
        }
    }

    /// The recorder's current simulation clock.
    pub fn now(&self) -> SimTime {
        self.lock().now
    }

    /// Record an event stamped with the current simulation clock.
    pub fn record(&self, kind: EventKind) {
        let mut inner = self.lock();
        let now = inner.now;
        inner.recorder.record(now, kind);
    }

    /// Record an event at an explicit simulation time (the engine uses
    /// this to stamp precisely even before `set_now` has caught up).
    pub fn record_at(&self, time: SimTime, kind: EventKind) {
        self.lock().recorder.record(time, kind);
    }

    /// Increment the counter `scope/name` by one.
    pub fn inc(&self, scope: &str, name: &str) {
        self.lock().metrics.inc(scope, name);
    }

    /// Increment the counter `scope/name` by `n`.
    pub fn add(&self, scope: &str, name: &str, n: u64) {
        self.lock().metrics.add(scope, name, n);
    }

    /// Set the gauge `scope/name`.
    pub fn gauge_set(&self, scope: &str, name: &str, value: i64) {
        self.lock().metrics.gauge_set(scope, name, value);
    }

    /// Fold a duration into the histogram `scope/name`.
    pub fn observe(&self, scope: &str, name: &str, d: Duration) {
        self.lock().metrics.observe(scope, name, d);
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.lock().recorder.events()
    }

    /// The `n` most recent retained events, oldest first.
    pub fn recent_events(&self, n: usize) -> Vec<ObsEvent> {
        self.lock().recorder.recent(n)
    }

    /// Count of events ever recorded (including evicted ones).
    pub fn events_total(&self) -> u64 {
        self.lock().recorder.total()
    }

    /// Count of events evicted by the bounded ring.
    pub fn events_dropped(&self) -> u64 {
        self.lock().recorder.dropped()
    }

    /// A point-in-time copy of every metric, including the per-span-kind
    /// latency percentiles (`trace/span.<kind>.p{50,95,99}_us` gauges,
    /// nearest-rank over completed spans' sim-time durations).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        let mut snap = inner.metrics.snapshot();
        for (kind, durations) in inner.traces.durations() {
            let mut sorted = durations.clone();
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
        self.lock().recorder.tail(cursor, limit)
    }

    // ------------------------------------------------------------------
    // Time-series telemetry
    // ------------------------------------------------------------------

    /// Replace the time-series sampling schedule (interval + per-series
    /// ring capacity). Existing points are kept.
    pub fn ts_configure(&self, config: SamplingConfig) {
        self.lock().timeseries.set_config(config);
    }

    /// The active sampling schedule.
    pub fn ts_config(&self) -> SamplingConfig {
        self.lock().timeseries.config()
    }

    /// True when at least one sampling interval has elapsed (on the
    /// shared sim clock) since the last [`Obs::ts_mark_sampled`]. The
    /// engine checks this once per dispatched work item.
    pub fn ts_due(&self) -> bool {
        let inner = self.lock();
        let now = inner.now;
        inner.timeseries.due(now)
    }

    /// Note that a full sample pass just happened at the shared clock.
    pub fn ts_mark_sampled(&self) {
        let mut inner = self.lock();
        let now = inner.now;
        inner.timeseries.mark_sampled(now);
    }

    /// Append a point (stamped with the shared clock) to the
    /// `(name, label)` series.
    pub fn ts_record(&self, name: &str, label: &str, value: i64) {
        let mut inner = self.lock();
        let now = inner.now;
        inner.timeseries.record(name, label, now, value);
    }

    /// A copy of one series, if any point was ever recorded for it.
    pub fn ts_series(&self, name: &str, label: &str) -> Option<TimeSeries> {
        self.lock().timeseries.series(name, label).cloned()
    }

    /// Sorted `(name, label, rollup)` summaries of every series.
    pub fn ts_rollups(&self) -> Vec<(String, String, Rollup)> {
        self.lock().timeseries.rollups()
    }

    /// A copy of the whole store (the engine hands this to
    /// [`render_scrape`] together with its enriched snapshot).
    pub fn ts_store(&self) -> TimeSeriesStore {
        self.lock().timeseries.clone()
    }

    // ------------------------------------------------------------------
    // Flow health watchdog
    // ------------------------------------------------------------------

    /// Replace the watchdog deadlines.
    pub fn health_configure(&self, config: HealthConfig) {
        self.lock().health.set_config(config);
    }

    /// The active watchdog deadlines.
    pub fn health_config(&self) -> HealthConfig {
        self.lock().health.config()
    }

    /// Start watching a flow, watermarked at the shared clock.
    pub fn health_register(&self, txn: &str) {
        let mut inner = self.lock();
        let now = inner.now;
        inner.health.register(txn, now);
    }

    /// Stop watching a flow (it reached a terminal state) and refresh
    /// the `dfms/flows_stalled` gauge.
    pub fn health_finish(&self, txn: &str) {
        let mut inner = self.lock();
        inner.health.finish(txn);
        let stalled = inner.health.stalled_count() as i64;
        inner.metrics.gauge_set("dfms", "flows_stalled", stalled);
    }

    /// Advance a flow's progress watermark to `time`. A `Slow`/`Stalled`
    /// flow recovers to `Healthy`; the recovery is recorded as a
    /// `health.healthy` event and the gauge is refreshed.
    pub fn health_progress(&self, txn: &str, time: SimTime) {
        let mut inner = self.lock();
        if let Some(t) = inner.health.progress(txn, time) {
            let now = inner.now;
            inner.recorder.record(
                now,
                EventKind::HealthTransition {
                    txn: t.txn,
                    from: t.from,
                    to: t.to,
                    last_progress_us: t.last_progress.0,
                },
            );
            let stalled = inner.health.stalled_count() as i64;
            inner.metrics.gauge_set("dfms", "flows_stalled", stalled);
        }
    }

    /// Re-classify every watched flow against the shared clock. Each
    /// transition is recorded as a `health.*` event, and the
    /// `dfms/flows_stalled` gauge is refreshed. Returns the transitions
    /// (in transaction-id order).
    pub fn health_check(&self) -> Vec<HealthTransition> {
        let mut inner = self.lock();
        let now = inner.now;
        let transitions = inner.health.check(now);
        for t in &transitions {
            inner.recorder.record(
                now,
                EventKind::HealthTransition {
                    txn: t.txn.clone(),
                    from: t.from,
                    to: t.to,
                    last_progress_us: t.last_progress.0,
                },
            );
        }
        let stalled = inner.health.stalled_count() as i64;
        inner.metrics.gauge_set("dfms", "flows_stalled", stalled);
        transitions
    }

    /// Every watched flow's classification, in transaction-id order.
    pub fn health_flows(&self) -> Vec<FlowHealth> {
        self.lock().health.flows()
    }

    /// One watched flow's classification.
    pub fn health_flow(&self, txn: &str) -> Option<FlowHealth> {
        self.lock().health.flow(txn)
    }

    /// A Prometheus-style text scrape of this handle's own snapshot plus
    /// all series rollups ([`render_scrape`]). The engine's
    /// `telemetry_scrape` is the richer variant (it folds in grid
    /// transfer totals first).
    pub fn scrape(&self) -> String {
        let snap = self.snapshot();
        let inner = self.lock();
        render_scrape(&snap, &inner.timeseries, inner.now)
    }

    // ------------------------------------------------------------------
    // Span tracing
    // ------------------------------------------------------------------

    /// Open a span at the current simulation clock. `parent = None`
    /// roots a fresh trace; children inherit the parent's trace id.
    pub fn span_start(&self, kind: SpanKind, name: &str, parent: Option<SpanContext>) -> SpanContext {
        let mut inner = self.lock();
        let now = inner.now;
        inner.traces.start(now, kind, name, parent)
    }

    /// Open a span at an explicit simulation time (for work whose start
    /// is scheduled ahead of the shared clock, e.g. staged transfers).
    pub fn span_start_at(
        &self,
        time: SimTime,
        kind: SpanKind,
        name: &str,
        parent: Option<SpanContext>,
    ) -> SpanContext {
        self.lock().traces.start(time, kind, name, parent)
    }

    /// Close a span at the current simulation clock and fold its
    /// duration into the `trace/span.<kind>` histogram. Closing twice is
    /// a no-op.
    pub fn span_end(&self, ctx: SpanContext) {
        let now = self.now();
        self.span_end_at(ctx, now);
    }

    /// Close a span at an explicit simulation time.
    pub fn span_end_at(&self, ctx: SpanContext, time: SimTime) {
        let mut inner = self.lock();
        if let Some((kind, dur)) = inner.traces.end(ctx, time) {
            inner
                .metrics
                .observe("trace", &format!("span.{}", kind.name()), Duration(dur));
        }
    }

    /// Append a structured attribute to a span.
    pub fn span_attr(&self, ctx: SpanContext, key: &str, value: &str) {
        self.lock().traces.attr(ctx, key, value);
    }

    /// All recorded spans, in creation order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().traces.spans().to_vec()
    }

    /// The spans of one trace, in creation order.
    pub fn trace_spans(&self, trace: TraceId) -> Vec<Span> {
        self.lock().traces.trace_spans(trace)
    }

    /// Export every recorded span as Chrome trace-event JSON
    /// (loadable in `chrome://tracing` / Perfetto).
    pub fn export_chrome_trace(&self) -> String {
        to_chrome_trace(self.lock().traces.spans())
    }

    /// Export every recorded span as a binary Perfetto `Trace` protobuf
    /// (loadable in <https://ui.perfetto.dev>, see
    /// [`to_perfetto_trace`]).
    pub fn export_perfetto_trace(&self) -> Vec<u8> {
        to_perfetto_trace(self.lock().traces.spans())
    }

    // ------------------------------------------------------------------
    // Attribution (dgf-why)
    // ------------------------------------------------------------------

    /// Record a wait interval: flow `txn` could not advance at `node`
    /// during `[from, until)` because of `state`, blamed on `resource`.
    /// The engine calls this whenever it parks work; the marks classify
    /// critical-path gaps when the flow finishes.
    pub fn why_mark(
        &self,
        txn: &str,
        node: &str,
        state: WaitState,
        from: SimTime,
        until: SimTime,
        resource: &str,
    ) {
        self.lock().why.add_mark(WaitMark {
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
    pub fn why_flow_finished(&self, root: SpanContext) {
        let mut inner = self.lock();
        let spans = inner.traces.trace_spans(root.trace);
        inner.why.flow_finished(&spans, root.span);
    }

    /// Every completed flow's critical path, in completion order.
    pub fn why_paths(&self) -> Vec<CriticalPath> {
        self.lock().why.paths().to_vec()
    }

    /// Total critical-path sim-µs attributed across every analyzed
    /// flow (the denominator of every bottleneck share).
    pub fn why_attributed_us(&self) -> u64 {
        self.lock().why.attributed_us()
    }

    /// The aggregated `(state, resource)` blame table, largest
    /// contributor first; `top_k = 0` returns every row.
    pub fn why_bottlenecks(&self, top_k: usize) -> Vec<WhyBottleneck> {
        self.lock().why.bottlenecks(top_k)
    }

    /// Register an SLA deadline objective for a flow. Re-registration
    /// of the same transaction (recovery replay re-drives submissions)
    /// keeps the first registration.
    pub fn why_register_alert(&self, alert: SlaAlert) {
        self.lock().why.register_alert(alert);
    }

    /// Transactions whose pending alert's deadline has passed at
    /// `now`, in registration order. The engine turns each into a
    /// journaled `sla.firing` transition via [`Obs::why_fire_alert`].
    pub fn why_due_firings(&self, now: SimTime) -> Vec<String> {
        self.lock().why.due_firings(now)
    }

    /// Move a pending alert to `firing` at `at`.
    pub fn why_fire_alert(&self, txn: &str, at: SimTime) {
        if let Some(a) = self.lock().why.alert_mut(txn) {
            if a.state == AlertState::Pending {
                a.state = AlertState::Firing;
                a.fired_at = Some(at);
            }
        }
    }

    /// Resolve an alert at `at` (its flow reached a terminal state);
    /// `breached` records whether the flow finished past its deadline.
    pub fn why_resolve_alert(&self, txn: &str, at: SimTime, breached: bool) {
        if let Some(a) = self.lock().why.alert_mut(txn) {
            if a.state != AlertState::Resolved {
                a.state = AlertState::Resolved;
                a.resolved_at = Some(at);
                a.breached = breached;
            }
        }
    }

    /// One flow's alert, when it has an objective.
    pub fn why_alert(&self, txn: &str) -> Option<SlaAlert> {
        self.lock().why.alerts().iter().find(|a| a.txn == txn).cloned()
    }

    /// Every SLA alert, in registration order.
    pub fn why_alerts(&self) -> Vec<SlaAlert> {
        self.lock().why.alerts().to_vec()
    }

    /// Every recorded wait mark, in recording order (diagnostic).
    pub fn why_marks(&self) -> Vec<WaitMark> {
        self.lock().why.marks().to_vec()
    }

    // ------------------------------------------------------------------
    // Phase profiling (dgf-prof)
    // ------------------------------------------------------------------

    /// Enter a profiled phase at the shared simulation clock, nesting
    /// under the currently open phase. Must pair with [`Obs::prof_exit`]
    /// on every control path.
    pub fn prof_enter(&self, phase: Phase) {
        let mut inner = self.lock();
        let now = inner.now;
        inner.prof.enter(phase, now);
    }

    /// Exit the innermost open profiled phase at the shared clock.
    pub fn prof_exit(&self, phase: Phase) {
        let mut inner = self.lock();
        let now = inner.now;
        inner.prof.exit(phase, now);
    }

    /// Fold an externally-measured cost into the profile as a leaf
    /// under the currently open phase (see [`Profiler::record_leaf`]).
    pub fn prof_record_leaf(&self, phase: Phase, calls: u64, wall_ns: u64) {
        self.lock().prof.record_leaf(phase, calls, wall_ns);
    }

    /// A point-in-time copy of the phase-profile tree.
    pub fn profile_snapshot(&self) -> ProfileSnapshot {
        self.lock().prof.snapshot()
    }

    /// Drop every accumulated profile node (and any open scopes).
    pub fn profile_reset(&self) {
        self.lock().prof.reset();
    }

    /// Chrome trace export with the phase profile merged in as a
    /// synthetic `dgf-prof` timeline (see
    /// [`to_chrome_trace_with_profile`]). Report-only: the profile
    /// slices carry wall-clock widths and vary between runs.
    pub fn export_chrome_trace_with_profile(&self) -> String {
        let inner = self.lock();
        to_chrome_trace_with_profile(inner.traces.spans(), &inner.prof.snapshot())
    }

    /// Perfetto export with the phase profile merged in as a synthetic
    /// `dgf-prof` track (see [`to_perfetto_trace_with_profile`]).
    /// Report-only, like its Chrome sibling.
    pub fn export_perfetto_trace_with_profile(&self) -> Vec<u8> {
        let inner = self.lock();
        to_perfetto_trace_with_profile(inner.traces.spans(), &inner.prof.snapshot())
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
    fn clones_share_one_recorder() {
        let a = Obs::new(16);
        let b = a.clone();
        a.set_now(SimTime(7));
        b.record(EventKind::TriggerFired { trigger: "x".into(), action: "flow".into() });
        b.inc("triggers", "fired");
        assert_eq!(a.events().len(), 1);
        assert_eq!(a.events()[0].time, SimTime(7));
        assert_eq!(a.snapshot().counter("triggers", "fired"), 1);
    }

    #[test]
    fn record_at_overrides_the_shared_clock() {
        let obs = Obs::new(16);
        obs.set_now(SimTime(100));
        obs.record_at(SimTime(42), EventKind::TriggerFired { trigger: "t".into(), action: "notify".into() });
        assert_eq!(obs.events()[0].time, SimTime(42));
        assert_eq!(obs.now(), SimTime(100));
    }

    #[test]
    fn set_now_never_moves_the_clock_backwards() {
        let obs = Obs::new(16);
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
        let obs = Obs::new(16);
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
