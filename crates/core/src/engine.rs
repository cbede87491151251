//! The DfMS engine: deterministic interpretation of DGL flows on the
//! simulation clock.

use crate::error::DfmsError;
use crate::provenance::{ProvenanceRecord, ProvenanceStore, StepOutcome};
use crate::recovery::{self, EngineJournal, JournalConfig, ReplayState};
use crate::run::{NodeBody, NodeId, Run, RunId, RunOptions};
use dgf_journal::Journal;
use dgf_xml::Element;
use dgf_dgl::{
    interpolate, Children, ControlPattern, DataGridRequest, DataGridResponse, DglOperation,
    Flow, FlowStatusQuery, IterSource, RequestAck, RequestBody, RequestMode, RunState, Scope,
    StatusReport, Step, TelemetryQuery, TelemetryReport, UserDefinedRule, ValidationReport, Value,
};
use dgf_dgms::{
    DataGrid, EventKind, LogicalPath, MetaQuery, MetaTriple, Operation, PendingOp, Permission,
};
use dgf_ilm::IlmJob;
use dgf_obs::{EventKind as ObsKind, Obs, Phase, SpanContext, SpanKind};
use dgf_scheduler::{AbstractTask, BindingCache, BindingMode, ResourceReq, Scheduler, VirtualDataCatalog};
use dgf_simgrid::{ComputeId, Duration, EventQueue, FailureEvent, SimTime, StorageId};
use dgf_triggers::{Firing, TriggerAction, TriggerEngine};
use std::collections::BTreeMap;
use std::path::Path;

/// Hard ceiling on while-loop iterations: a runaway `while (true)` in a
/// submitted document must not hang the server.
const MAX_LOOP_ITERATIONS: u64 = 100_000;

/// How long a task waits before re-probing a saturated grid.
const QUEUE_RETRY_INTERVAL: Duration = Duration(30_000_000); // 30 s

/// Every root state the `flows.state` telemetry reports, in its order.
const FLOW_STATES: [RunState; 7] = [
    RunState::Pending,
    RunState::Running,
    RunState::Paused,
    RunState::Completed,
    RunState::Failed,
    RunState::Stopped,
    RunState::Skipped,
];

/// `state`'s index in `FLOW_STATES`.
fn flow_state_slot(state: RunState) -> usize {
    FLOW_STATES.iter().position(|s| *s == state).expect("FLOW_STATES lists every state")
}

/// A notification emitted by a `notify` operation or trigger action —
/// the §2.2 "sending notifications when specific types of files are
/// ingested" use case.
#[derive(Debug, Clone, PartialEq)]
pub struct Notification {
    /// When it was emitted.
    pub time: SimTime,
    /// The emitting transaction (or trigger name).
    pub source: String,
    /// The rendered message.
    pub message: String,
}

/// Engine-level counters (observability + experiments).
///
/// This is the legacy counter shape, kept for existing callers; it is
/// now *derived* from the [`Obs`] metrics registry by [`Dfms::metrics`]
/// rather than maintained as a separate struct. New code should prefer
/// [`Dfms::metrics_snapshot`], which exposes every scope and histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineMetrics {
    /// Flows accepted.
    pub runs_submitted: u64,
    /// Flows that reached `Completed`.
    pub runs_completed: u64,
    /// Flows that reached `Failed`.
    pub runs_failed: u64,
    /// Steps that executed an operation.
    pub steps_executed: u64,
    /// Steps skipped by the virtual-data catalog.
    pub steps_skipped_virtual: u64,
    /// Steps skipped by the restart memo.
    pub steps_skipped_restart: u64,
    /// DGMS operations performed (including staging).
    pub dgms_ops: u64,
    /// Bytes moved by DGMS operations.
    pub bytes_moved: u64,
    /// Business-logic executions.
    pub exec_tasks: u64,
    /// Trigger firings handled.
    pub trigger_firings: u64,
    /// Step retry attempts.
    pub retries: u64,
}

/// Work items on the engine's event queue.
#[derive(Debug, Clone)]
pub(crate) enum Work {
    /// Begin (or re-attempt) a node.
    Start { run: RunId, node: NodeId },
    /// A DGMS operation issued by `node` finished.
    OpDone { run: RunId, node: NodeId },
    /// A business-logic execution finished.
    ExecDone { run: RunId, node: NodeId, compute: ComputeId, outputs: Vec<(LogicalPath, StorageId, u64)>, code: String, inputs: Vec<LogicalPath> },
    /// A recurring ILM job is due.
    IlmDue { job: usize },
}

/// The Datagridflow Management System server core.
///
/// Owns the DGMS, the scheduler, the trigger engine, the virtual-data
/// catalog, the provenance store, and the event queue. All time is
/// simulation time: [`Dfms::pump`] drains due events deterministically.
#[derive(Debug)]
pub struct Dfms {
    grid: DataGrid,
    scheduler: Scheduler,
    binding: BindingCache,
    triggers: TriggerEngine,
    catalog: VirtualDataCatalog,
    queue: EventQueue<Work>,
    runs: Vec<Run>,
    /// Runs not yet known to be terminal, in submission order. Pruned
    /// when a checkpoint or a telemetry sample reads it, so it tracks
    /// live work rather than history (a terminal root never leaves its
    /// state).
    live_runs: Vec<RunId>,
    /// Runs pruned from `live_runs`, counted by root state (indexed like
    /// `FLOW_STATES`; only terminal slots ever count).
    finished_runs: [u64; FLOW_STATES.len()],
    txn_index: BTreeMap<String, RunId>,
    /// The first run submitted under each lineage (restarts add later
    /// runs to a lineage; the first stays).
    lineage_index: BTreeMap<String, RunId>,
    /// In-flight DGMS operations, each with the span that covers it.
    pending_ops: BTreeMap<(RunId, usize), (PendingOp, SpanContext)>,
    provenance: ProvenanceStore,
    notifications: Vec<Notification>,
    obs: Obs,
    ilm_jobs: Vec<IlmJob>,
    procedures: BTreeMap<String, Flow>,
    next_txn: u64,
    /// The write-ahead journal, when attached (see `docs/RECOVERY.md`).
    pub(crate) journal: Option<EngineJournal>,
    /// Re-entrancy depth of journaled command methods: only depth-0
    /// calls are external inputs worth journaling; everything beneath
    /// them (trigger-spawned flows, the pump inside a synchronous
    /// `handle`) is re-derived by replay.
    cmd_depth: u32,
    /// Replay statistics when this engine was built by [`Dfms::recover`].
    last_replay: Option<dgf_dgl::ReplayStats>,
    /// Time-travel context, when enabled (see `docs/TIME_TRAVEL.md`):
    /// lets this engine answer DGL `timeTravelQuery` requests by
    /// materializing past states of its own journal.
    pub(crate) time_travel: Option<crate::time_travel::TimeTravel>,
    /// Wall-clock contention stats shared with the threaded server
    /// front-end, when one wraps this engine (report-only; see
    /// [`crate::server`]). Folded into DGL `profileReport`s.
    server_stats: Option<std::sync::Arc<crate::server::ServerStats>>,
    /// Per-class SLA deadline budgets (see [`Dfms::set_class_objective`]):
    /// flows submitted with a matching reserved `dgf.class` variable
    /// inherit the class budget unless they carry their own
    /// `dgf.deadline`. Ordered so reports iterate deterministically.
    class_objectives: BTreeMap<String, Duration>,
}

impl Dfms {
    /// A DfMS over a grid, with the given scheduler.
    ///
    /// The engine owns its [`Obs`] by value. The scheduler and the
    /// trigger engine do not record anything themselves: they hand their
    /// results back, and the engine records them.
    pub fn new(grid: DataGrid, scheduler: Scheduler) -> Self {
        Dfms {
            grid,
            scheduler,
            binding: BindingCache::new(BindingMode::Late),
            triggers: TriggerEngine::new(),
            catalog: VirtualDataCatalog::new(),
            queue: EventQueue::new(),
            runs: Vec::new(),
            live_runs: Vec::new(),
            finished_runs: [0; FLOW_STATES.len()],
            txn_index: BTreeMap::new(),
            lineage_index: BTreeMap::new(),
            pending_ops: BTreeMap::new(),
            provenance: ProvenanceStore::new(),
            notifications: Vec::new(),
            obs: Obs::default(),
            ilm_jobs: Vec::new(),
            procedures: BTreeMap::new(),
            next_txn: 1,
            journal: None,
            cmd_depth: 0,
            last_replay: None,
            time_travel: None,
            server_stats: None,
            class_objectives: BTreeMap::new(),
        }
    }

    /// Share the server front-end's contention stats with this engine so
    /// `profileQuery` responses can carry them (called by
    /// [`crate::server::DfmsServer::start`]).
    pub(crate) fn attach_server_stats(&mut self, stats: std::sync::Arc<crate::server::ServerStats>) {
        self.server_stats = Some(stats);
    }

    /// Switch the binding mode (default: late binding).
    pub fn set_binding_mode(&mut self, mode: BindingMode) {
        let el = self.should_journal().then(|| {
            recovery::command("bindingMode").with_attr(
                "mode",
                match mode {
                    BindingMode::Late => "late",
                    BindingMode::Early => "early",
                },
            )
        });
        self.with_command(el, |e| e.binding = BindingCache::new(mode));
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The underlying datagrid.
    pub fn grid(&self) -> &DataGrid {
        &self.grid
    }

    /// Mutable grid access (setup, fault injection).
    pub fn grid_mut(&mut self) -> &mut DataGrid {
        &mut self.grid
    }

    /// The trigger engine (register/remove triggers here).
    pub fn triggers_mut(&mut self) -> &mut TriggerEngine {
        &mut self.triggers
    }

    /// The trigger engine, read-only.
    pub fn triggers(&self) -> &TriggerEngine {
        &self.triggers
    }

    /// The provenance store.
    pub fn provenance(&self) -> &ProvenanceStore {
        &self.provenance
    }

    /// Replace the provenance store (reload from a snapshot).
    pub fn restore_provenance(&mut self, store: ProvenanceStore) {
        self.provenance = store;
    }

    /// Notifications emitted so far.
    pub fn notifications(&self) -> &[Notification] {
        &self.notifications
    }

    /// Engine counters, derived from the `engine` scope of the metrics
    /// registry (the legacy shape; see [`Dfms::metrics_snapshot`] for
    /// the full registry). Each is one registry lookup, so the call
    /// costs the same however much history the engine holds.
    pub fn metrics(&self) -> EngineMetrics {
        let c = |name: &str| self.obs.counter("engine", name);
        EngineMetrics {
            runs_submitted: c("runs.submitted"),
            runs_completed: c("runs.completed"),
            runs_failed: c("runs.failed"),
            steps_executed: c("steps.executed"),
            steps_skipped_virtual: c("steps.skipped.virtual"),
            steps_skipped_restart: c("steps.skipped.restart"),
            dgms_ops: c("dgms.ops"),
            bytes_moved: c("bytes.moved"),
            exec_tasks: c("exec.tasks"),
            trigger_firings: c("trigger.firings"),
            retries: c("step.retries"),
        }
    }

    /// The engine's observability state: flight recorder, metrics,
    /// spans, time series, health and attribution. Read it here; it is
    /// written by the engine itself. The `triggers/*` counters and the
    /// `grid/transfers.{started,bytes}` totals are derived on read: they
    /// appear in [`Dfms::metrics_snapshot`] and the scrape, not in
    /// `obs().snapshot()`.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Write access for this crate's front-ends (the threaded server
    /// counts the requests it serves).
    pub(crate) fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// A full metrics snapshot across every scope. Two scopes are read
    /// live from the layer that keeps them rather than recorded twice:
    /// `grid` from the transfer model's lifetime totals, and `triggers`
    /// from [`TriggerEngine::stats`] (a trigger counter appears once it
    /// has counted something).
    pub fn metrics_snapshot(&self) -> dgf_obs::MetricsSnapshot {
        use dgf_obs::MetricValue::Counter;
        let mut snap = self.obs.snapshot();
        let totals = self.grid.transfer_model().totals();
        snap.insert("grid", "transfers.started", Counter(totals.started));
        snap.insert("grid", "transfers.bytes", Counter(totals.bytes));
        let t = self.triggers.stats();
        for (name, n) in [
            ("events.seen", t.events_seen),
            ("fired", t.fired),
            ("suppressed.depth", t.suppressed_by_depth),
            ("condition.errors", t.condition_errors),
        ] {
            if n > 0 {
                snap.insert("triggers", name, Counter(n));
            }
        }
        snap
    }

    /// The virtual-data catalog.
    pub fn catalog(&self) -> &VirtualDataCatalog {
        &self.catalog
    }

    // ------------------------------------------------------------------
    // Live telemetry (time-series sampling, health watchdog, scrape/tail)
    // ------------------------------------------------------------------

    /// Configure the telemetry subsystem: the time-series sampling
    /// schedule and the flow-health watchdog deadlines. Both default to
    /// sensible values (see [`dgf_obs::SamplingConfig`] and
    /// [`dgf_obs::HealthConfig`]); call this before submitting flows to
    /// tighten or relax them.
    pub fn configure_telemetry(&mut self, sampling: dgf_obs::SamplingConfig, health: dgf_obs::HealthConfig) {
        self.obs.ts_configure(sampling);
        self.obs.health_configure(health);
    }

    /// Force a telemetry sample pass right now: every live gauge is
    /// appended to its time series, the flows-by-state and queue-depth
    /// gauges are refreshed, and the flow-health watchdog re-classifies
    /// every live flow (emitting `health.*` recorder events and the
    /// `dfms/flows_stalled` gauge on transitions).
    ///
    /// The event loop calls this automatically whenever the sampling
    /// interval has elapsed; operator surfaces call it before building
    /// a scrape so the report is never staler than "now".
    pub fn sample_telemetry(&mut self) {
        self.obs.set_now(self.now());
        self.obs.prof_enter(Phase::TelemetrySample);
        let topology = self.grid.topology();
        // Per-storage occupancy, labeled by resource name (sorted keys
        // keep the scrape stable; resource names are unique).
        for sid in topology.storage_ids().collect::<Vec<_>>() {
            let s = topology.storage(sid);
            self.obs.ts_record("storage.used_bytes", &s.name, s.used as i64);
        }
        // Per-link utilization: concurrently active transfers on each
        // link, labeled by its endpoint domains.
        for idx in 0..topology.link_count() {
            let id = dgf_simgrid::LinkId(idx as u32);
            let link = topology.link(id);
            let label = format!(
                "{}~{}",
                topology.domain(link.endpoints.0).name,
                topology.domain(link.endpoints.1).name
            );
            let active = self.grid.transfer_model().active_on(id);
            self.obs.ts_record("link.active_transfers", &label, active as i64);
        }
        // Per-cluster busy slots.
        for cid in topology.compute_ids().collect::<Vec<_>>() {
            let c = topology.compute(cid);
            self.obs.ts_record("compute.busy_slots", &c.name, c.busy as i64);
        }
        // Scheduler/engine load: event-queue depth and in-flight ops.
        self.obs.ts_record("engine.queue_depth", "", self.queue.len() as i64);
        self.obs.ts_record("engine.pending_ops", "", self.pending_ops.len() as i64);
        self.obs.gauge_set("engine", "queue.depth", self.queue.len() as i64);
        self.obs.gauge_set("engine", "pending.ops", self.pending_ops.len() as i64);
        self.obs.gauge_set(
            "grid",
            "transfers.active",
            self.grid.transfer_model().total_active_shares() as i64,
        );
        // Flows by state: every state is recorded each pass (zeros
        // included) so the series' label set never varies between runs.
        // Finished runs are counted once, when pruned; only live runs
        // are looked at here.
        self.prune_finished_runs();
        let mut counts = self.finished_runs;
        for id in &self.live_runs {
            counts[flow_state_slot(self.runs[id.0 as usize].state())] += 1;
        }
        for (state, count) in FLOW_STATES.into_iter().zip(counts) {
            self.obs.ts_record("flows.state", state.as_str(), count as i64);
            self.obs.gauge_set("dfms", &format!("flows.{state}"), count as i64);
        }
        self.obs.ts_mark_sampled();
        self.obs.health_check();
        self.obs.prof_exit(Phase::TelemetrySample);
    }

    /// The Prometheus-style text scrape: every current metric (including
    /// the live `grid` transfer totals) plus every time-series rollup,
    /// stable-ordered and deterministic across identically-seeded runs.
    pub fn telemetry_scrape(&self) -> String {
        let snap = self.metrics_snapshot();
        dgf_obs::render_scrape(&snap, self.obs.ts_store(), self.obs.now())
    }

    /// Cursor-read the flight recorder: events with `seq >= cursor`
    /// (oldest first, at most `limit`), the cursor to resume from, and
    /// an explicit count of events the bounded ring evicted before the
    /// reader caught up. See [`dgf_obs::FlightRecorder::tail`].
    pub fn tail_events(&self, cursor: u64, limit: usize) -> dgf_obs::EventTail {
        self.obs.tail(cursor, limit)
    }

    /// Answer a DGL [`TelemetryQuery`]: samples fresh telemetry, then
    /// assembles the requested scrape and/or tail page.
    pub fn telemetry_query(&mut self, q: &TelemetryQuery) -> TelemetryReport {
        /// Tail page cap when the query does not name one.
        const DEFAULT_TAIL_LIMIT: usize = 256;
        self.sample_telemetry();
        let mut report = TelemetryReport { time_us: self.obs.now().0, ..TelemetryReport::default() };
        if q.scrape {
            report.scrape = Some(self.telemetry_scrape());
        }
        if let Some(cursor) = q.tail_from {
            let tail = self.tail_events(cursor, q.tail_limit.unwrap_or(DEFAULT_TAIL_LIMIT));
            report.events = tail.events.iter().map(report_event).collect();
            report.next_cursor = Some(tail.next_cursor);
            report.dropped = Some(tail.dropped);
        }
        report
    }

    /// Answer a DGL [`dgf_dgl::ProfileQuery`]: snapshot the engine's
    /// phase-attribution tree (depth-first, children in phase-id order),
    /// optionally render the folded-stack text, and fold in the server
    /// front-end's contention counters when one is attached. With
    /// `reset`, the profile (and contention stats) restart from zero
    /// after the snapshot — interval profiling.
    pub fn profile_query(&mut self, q: &dgf_dgl::ProfileQuery) -> dgf_dgl::ProfileReport {
        self.obs.set_now(self.now());
        let snap = self.obs.profile_snapshot();
        let phases = snap
            .nodes
            .iter()
            .map(|n| dgf_dgl::ProfilePhase {
                depth: n.depth,
                phase: n.phase.name().to_owned(),
                calls: n.stats.calls,
                sim_us: n.stats.sim_us,
                wall_ns: n.stats.wall_ns,
                allocs: n.stats.allocs,
            })
            .collect();
        let folded = q.folded.then(|| snap.folded());
        let contention = self.server_stats.as_ref().map(|s| s.snapshot());
        if q.reset {
            self.obs.profile_reset();
            if let Some(stats) = &self.server_stats {
                stats.reset();
            }
        }
        dgf_dgl::ProfileReport { time_us: self.obs.now().0, phases, folded, contention }
    }

    /// The engine's current profile snapshot (phase tree). Operator
    /// surfaces that sit on the engine directly — examples, benches —
    /// use this; wire clients go through [`Dfms::profile_query`].
    pub fn profile_snapshot(&self) -> dgf_obs::ProfileSnapshot {
        self.obs.profile_snapshot()
    }

    /// Answer a DGL [`dgf_dgl::WhyQuery`]: snapshot the attribution
    /// engine — completed-flow critical paths, the aggregated
    /// wait-state bottleneck table, and SLA alert lifecycles, with
    /// burn rates computed against the engine clock. Read-only: alert
    /// transitions are derived on the event loop (a journaled command
    /// context), never from a query, so asking "why" cannot perturb
    /// what recovery replays.
    pub fn why_query(&mut self, q: &dgf_dgl::WhyQuery) -> dgf_dgl::WhyReport {
        self.obs.set_now(self.now());
        let now = self.now();
        let wanted =
            |flow: &str, txn: &str| q.flow.as_deref().map(|f| f == flow || f == txn).unwrap_or(true);
        let all_paths = self.obs.why_paths();
        let flows_analyzed = all_paths.len() as u64;
        let paths = if q.paths {
            all_paths.iter().filter(|p| wanted(&p.flow, &p.txn)).cloned().collect()
        } else {
            Vec::new()
        };
        let bottlenecks = self.obs.why_bottlenecks(q.top_k as usize);
        let alerts = if q.alerts {
            self.obs
                .why_alerts()
                .iter()
                .filter(|a| wanted(&a.flow, &a.txn))
                .map(|a| why_alert_to_dgl(a, now))
                .collect()
        } else {
            Vec::new()
        };
        dgf_dgl::WhyReport {
            time_us: now.0,
            flows_analyzed,
            attributed_us: self.obs.why_attributed_us(),
            paths,
            bottlenecks,
            alerts,
        }
    }

    /// Register a per-class SLA deadline budget: a flow submitted with
    /// the reserved `dgf.class` variable equal to `class` (and no
    /// per-flow `dgf.deadline` override) gets `budget` as its
    /// deadline, measured from submission. Journaled as a command so
    /// recovery re-registers the objective before replaying the
    /// submissions it governs.
    pub fn set_class_objective(&mut self, class: &str, budget: Duration) {
        let el = self.should_journal().then(|| {
            recovery::command("classObjective")
                .with_attr("class", class)
                .with_attr("budgetUs", budget.0.to_string())
        });
        self.with_command(el, |e| {
            e.class_objectives.insert(class.to_owned(), budget);
        });
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    // ------------------------------------------------------------------
    // Submission and the DGL protocol
    // ------------------------------------------------------------------

    /// Handle a complete DGL request document, honoring its mode:
    /// synchronous requests pump the engine until the flow terminates
    /// and return its final status; asynchronous requests return an
    /// acknowledgement immediately (Appendix A).
    pub fn handle(&mut self, request: DataGridRequest) -> DataGridResponse {
        match &request.body {
            RequestBody::StatusQuery(q) => match self.status_query(q) {
                Ok(report) => DataGridResponse::status(&request.id, report),
                Err(e) => DataGridResponse::ack(
                    &request.id,
                    RequestAck { transaction: q.transaction.clone(), state: RunState::Failed, valid: false, message: Some(e.to_string()) },
                ),
            },
            RequestBody::Telemetry(q) => {
                let report = self.telemetry_query(q);
                DataGridResponse::telemetry(&request.id, report)
            }
            RequestBody::Validation(q) => {
                self.obs.set_now(self.now());
                self.obs.prof_enter(Phase::LintGate);
                let report = self.validate_flow(&q.flow, request.vo.as_deref());
                self.obs.prof_exit(Phase::LintGate);
                DataGridResponse::validation(&request.id, report)
            }
            RequestBody::Recovery(q) => {
                let mut report = self.recovery_query();
                if !q.flows {
                    report.flows.clear();
                }
                DataGridResponse::recovery(&request.id, report)
            }
            RequestBody::TimeTravel(q) => {
                let report = self.time_travel_query(q);
                DataGridResponse::time_travel(&request.id, report)
            }
            RequestBody::Profile(q) => {
                let report = self.profile_query(q);
                DataGridResponse::profile(&request.id, report)
            }
            RequestBody::Why(q) => {
                let report = self.why_query(q);
                DataGridResponse::why(&request.id, report)
            }
            // A standalone engine is not a federation: answer honestly
            // (`federated="false"`) so operators can probe any endpoint.
            // The fabric front-end intercepts this body and answers with
            // the real shard/bus/hand-off tables instead.
            RequestBody::Federation(_) => {
                let report = dgf_dgl::FederationReport::standalone(self.now().0);
                DataGridResponse::federation(&request.id, report)
            }
            RequestBody::Flow(_) => {
                let el = self
                    .should_journal()
                    .then(|| recovery::command("handle").with_child(request.to_element()));
                self.with_command(el, |e| e.handle_flow(request))
            }
        }
    }

    /// The flow-submission arm of [`Dfms::handle`] — one journaled
    /// command, covering the submission *and* (for synchronous requests)
    /// the pump to completion.
    fn handle_flow(&mut self, request: DataGridRequest) -> DataGridResponse {
        let mode = request.mode;
        let request_id = request.id.clone();
        match self.submit(request) {
            Ok(txn) => match mode {
                RequestMode::Asynchronous => DataGridResponse::ack(
                    &request_id,
                    RequestAck { transaction: txn, state: RunState::Pending, valid: true, message: None },
                ),
                RequestMode::Synchronous => {
                    self.pump_until_terminal(&txn);
                    let report = self
                        .status(&txn, None)
                        .expect("run exists: just submitted");
                    DataGridResponse::status(&request_id, report)
                }
            },
            Err(e) => DataGridResponse::ack(
                &request_id,
                RequestAck { transaction: String::new(), state: RunState::Failed, valid: false, message: Some(e.to_string()) },
            ),
        }
    }

    /// Handle a raw DGL XML document and answer with DGL XML.
    pub fn handle_xml(&mut self, xml: &str) -> String {
        self.obs.set_now(self.now());
        self.obs.prof_enter(Phase::DglParse);
        let parsed = dgf_dgl::parse_request(xml);
        self.obs.prof_exit(Phase::DglParse);
        match parsed {
            Ok(request) => self.handle(request).to_xml(),
            Err(e) => DataGridResponse::ack(
                "unparsed",
                RequestAck { transaction: String::new(), state: RunState::Failed, valid: false, message: Some(e.to_string()) },
            )
            .to_xml(),
        }
    }

    /// Submit a flow-execution request, returning its transaction id.
    /// The flow starts when the engine is pumped.
    pub fn submit(&mut self, request: DataGridRequest) -> Result<String, DfmsError> {
        let el = self
            .should_journal()
            .then(|| recovery::command("submit").with_child(request.to_element()));
        self.with_command(el, |e| e.submit_inner(request))
    }

    fn submit_inner(&mut self, request: DataGridRequest) -> Result<String, DfmsError> {
        let RequestBody::Flow(flow) = request.body else {
            return Err(DfmsError::Dgl(dgf_dgl::DglError::Invalid("submit expects a flow body".into())));
        };
        self.grid.users().get(&request.user).map_err(|_| DfmsError::UnknownUser(request.user.clone()))?;
        flow.validate()?;
        self.lint_gate(&flow, request.vo.as_deref())?;
        self.spawn_run(flow, &request.user, request.vo.clone(), RunOptions::default())
    }

    /// Convenience: submit a flow for `user` with default options.
    pub fn submit_flow(&mut self, user: &str, flow: Flow) -> Result<String, DfmsError> {
        self.submit_flow_with(user, flow, RunOptions::default())
    }

    /// Submit with explicit run options (window, lineage, trigger depth).
    pub fn submit_flow_with(&mut self, user: &str, flow: Flow, options: RunOptions) -> Result<String, DfmsError> {
        let el = self.should_journal().then(|| {
            let mut el = recovery::command("submitFlow").with_attr("user", user).with_child(flow.to_element());
            if let Some(opts) = recovery::options_element(&options) {
                el.push_element(opts);
            }
            el
        });
        self.with_command(el, |e| e.submit_flow_with_inner(user, flow, options))
    }

    fn submit_flow_with_inner(&mut self, user: &str, flow: Flow, options: RunOptions) -> Result<String, DfmsError> {
        self.grid.users().get(user).map_err(|_| DfmsError::UnknownUser(user.to_owned()))?;
        flow.validate()?;
        self.lint_gate(&flow, None)?;
        self.spawn_run(flow, user, None, options)
    }

    /// Run the static analyzer over a flow against this grid: def/use,
    /// control-flow, and feasibility passes (`dgf-lint`), with SLA
    /// matchmaking under `vo`. Pure query — records nothing.
    pub fn validate_flow(&self, flow: &Flow, vo: Option<&str>) -> ValidationReport {
        let ctx = dgf_lint::GridContext {
            topology: self.grid.topology(),
            infra: self.scheduler.infra(),
            vo,
        };
        dgf_lint::lint_with_grid(flow, &ctx)
    }

    /// The submit-time lint gate: every flow is analyzed before a
    /// transaction opens, the outcome lands in the flight recorder and
    /// metrics (`lint.*`), and error-severity diagnostics refuse the
    /// submission with the full report in the error.
    fn lint_gate(&mut self, flow: &Flow, vo: Option<&str>) -> Result<(), DfmsError> {
        self.obs.set_now(self.now());
        self.obs.prof_enter(Phase::LintGate);
        let report = self.validate_flow(flow, vo);
        self.obs.prof_exit(Phase::LintGate);
        let errors = report.errors() as u64;
        let warnings = report.warnings() as u64;
        let rejected = !report.valid;
        self.obs.inc("lint", "flows.checked");
        self.obs.add("lint", "diagnostics.errors", errors);
        self.obs.add("lint", "diagnostics.warnings", warnings);
        self.obs.record(ObsKind::LintReport { flow: report.flow.clone(), errors, warnings, rejected });
        if rejected {
            self.obs.inc("lint", "flows.rejected");
            return Err(DfmsError::Lint(report));
        }
        Ok(())
    }

    fn spawn_run(
        &mut self,
        flow: Flow,
        user: &str,
        vo: Option<String>,
        options: RunOptions,
    ) -> Result<String, DfmsError> {
        let txn = format!("t{}", self.next_txn);
        self.next_txn += 1;
        let id = RunId(self.runs.len() as u64);
        // SLA objective, read before the spec moves into the run: the
        // reserved `dgf.deadline` / `dgf.class` variables (or a
        // registered class budget) govern this flow's deadline.
        let sla = self.sla_objective(&flow);
        let lineage = options.lineage.clone().unwrap_or_else(|| txn.clone());
        let mut run = Run {
            txn: txn.clone(),
            lineage,
            user: user.to_owned(),
            vo,
            paused: false,
            options,
            nodes: Vec::new(),
            deferred: Vec::new(),
        };
        run.alloc(None, flow.name.clone(), NodeBody::flow(flow));
        // Early binding (Pegasus-style up-front planning): pin a
        // placement for every statically addressable execute step now,
        // against the grid's *current* state. Loop bodies and templated
        // steps cannot be pre-planned and fall back to bind-at-start.
        if self.binding.mode() == dgf_scheduler::BindingMode::Early {
            let mut specs = Vec::new();
            collect_execute_specs(&run.flow(run.root()).spec, "", &mut specs);
            self.obs.prof_enter(Phase::Schedule);
            let root = Scope::root();
            for (path, step) in specs {
                if let Ok(task) = resolve_task(&step, &root, run.vo.clone()) {
                    let key = format!("{}:{}", run.lineage, path);
                    let _ = self.resolve_binding(&key, &task, None);
                }
            }
            self.obs.prof_exit(Phase::Schedule);
        }
        let flow_name = run.nodes[0].name.clone();
        let lineage = run.lineage.clone();
        self.runs.push(run);
        self.live_runs.push(id);
        self.txn_index.insert(txn.clone(), id);
        self.lineage_index.entry(lineage.clone()).or_insert(id);
        self.obs.set_now(self.now());
        // The root of the run's trace: every span below — requests,
        // bindings, DGMS ops, transfers, trigger actions — parents back
        // to this flow span.
        let flow_span = self.obs.span_start(SpanKind::Flow, &flow_name, None);
        self.obs.span_attr(flow_span, "txn", &txn);
        self.obs.span_attr(flow_span, "user", user);
        self.obs.span_attr(flow_span, "lineage", &lineage);
        self.runs[id.0 as usize].nodes[0].span = Some(flow_span);
        self.obs.inc("engine", "runs.submitted");
        self.obs.record(ObsKind::RunSubmitted { txn: txn.clone(), flow: flow_name.clone(), user: user.to_owned() });
        self.journal_transition(|| {
            recovery::transition("run.submitted")
                .with_attr("txn", &txn)
                .with_attr("flow", &flow_name)
                .with_attr("user", user)
        });
        // Open the SLA alert in `pending`; the event loop moves it to
        // `firing`/`resolved`. The transition is journaled so recovery
        // replays the identical lifecycle.
        if let Some((class, budget)) = sla {
            let now = self.now();
            let deadline = now + budget;
            self.obs.record(ObsKind::SlaAlert {
                txn: txn.clone(),
                class: class.clone(),
                state: dgf_dgl::AlertState::Pending,
                burn_ppm: 0,
            });
            if self.journal_transition(|| {
                recovery::transition("alert")
                    .with_attr("txn", &txn)
                    .with_attr("class", &class)
                    .with_attr("state", "pending")
                    .with_attr("deadlineUs", deadline.0.to_string())
            }) {
                self.obs.why_register_alert(dgf_obs::SlaAlert {
                    txn: txn.clone(),
                    class,
                    flow: flow_name.clone(),
                    started: now,
                    deadline,
                    state: dgf_dgl::AlertState::Pending,
                    fired_at: None,
                    resolved_at: None,
                    breached: false,
                });
            }
        }
        // The watchdog counts submission as the first progress.
        self.obs.health_register(&txn);
        self.queue.schedule_in(Duration::ZERO, Work::Start { run: id, node: NodeId(0) });
        Ok(txn)
    }

    /// Resolve a flow's SLA deadline objective from its reserved
    /// variables: a positive `dgf.deadline` (budget in seconds) wins;
    /// otherwise a registered class budget matching `dgf.class`
    /// applies. Returns the objective class and budget, or `None` when
    /// the flow carries no objective.
    fn sla_objective(&self, flow: &Flow) -> Option<(String, Duration)> {
        let var = |name: &str| {
            flow.variables.iter().find(|v| v.name == name).map(|v| v.initial.as_str())
        };
        let class = var("dgf.class").map(str::to_owned);
        if let Some(budget) = var("dgf.deadline")
            .and_then(|t| Value::from_text(t).as_f64())
            .filter(|s| *s > 0.0)
        {
            return Some((class.unwrap_or_else(|| "flow".to_owned()), Duration::from_secs_f64(budget)));
        }
        let class = class?;
        let budget = *self.class_objectives.get(&class)?;
        Some((class, budget))
    }

    /// Register a recurring ILM job; its first run is scheduled at the
    /// next window opening.
    pub fn register_ilm_job(&mut self, job: IlmJob) -> usize {
        let idx = self.ilm_jobs.len();
        let first = job.next_start(self.now());
        self.ilm_jobs.push(job);
        self.queue.schedule_at(first, Work::IlmDue { job: idx });
        idx
    }

    // ------------------------------------------------------------------
    // Datagrid stored procedures (§2.2)
    // ------------------------------------------------------------------

    /// Register a named, parameterized flow — "datagrid stored
    /// procedures ... run from the DGMS itself rather than executing the
    /// procedure outside the DGMS using client side components" (§2.2).
    ///
    /// The flow's top-level variables are the procedure's parameters;
    /// callers override them per invocation.
    pub fn register_procedure(&mut self, name: impl Into<String>, flow: Flow) -> Result<(), DfmsError> {
        let name = name.into();
        let el = self
            .should_journal()
            .then(|| recovery::command("procedure").with_attr("name", &name).with_child(flow.to_element()));
        self.with_command(el, |e| {
            flow.validate()?;
            e.procedures.insert(name, flow);
            Ok(())
        })
    }

    /// Registered procedure names, sorted.
    pub fn procedures(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.procedures.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Invoke a stored procedure with parameter overrides. Returns the
    /// new transaction id; pump the engine to run it.
    pub fn call_procedure(
        &mut self,
        user: &str,
        name: &str,
        args: &[(&str, &str)],
    ) -> Result<String, DfmsError> {
        let el = self.should_journal().then(|| {
            let mut el = recovery::command("call").with_attr("user", user).with_attr("proc", name);
            for (arg, value) in args {
                el.push_element(Element::new("arg").with_attr("name", *arg).with_attr("value", *value));
            }
            el
        });
        self.with_command(el, |e| e.call_procedure_inner(user, name, args))
    }

    fn call_procedure_inner(
        &mut self,
        user: &str,
        name: &str,
        args: &[(&str, &str)],
    ) -> Result<String, DfmsError> {
        let mut flow = self
            .procedures
            .get(name)
            .cloned()
            .ok_or_else(|| DfmsError::UnknownTransaction(format!("procedure:{name}")))?;
        for (arg, value) in args {
            match flow.variables.iter_mut().find(|v| v.name == *arg) {
                Some(decl) => decl.initial = (*value).to_owned(),
                None => flow.variables.push(dgf_dgl::VarDecl::new(*arg, *value)),
            }
        }
        self.submit_flow(user, flow)
    }

    // ------------------------------------------------------------------
    // Pumping
    // ------------------------------------------------------------------

    /// Process every due event until the queue is empty. Returns the
    /// number of events processed.
    pub fn pump(&mut self) -> usize {
        let el = self.should_journal().then(|| recovery::command("pump"));
        self.with_command(el, |e| e.drain(|_| true))
    }

    /// Process events until `txn`'s root is terminal (or the queue runs
    /// dry). ILM jobs reschedule themselves forever, so this also stops
    /// when only `IlmDue` work remains.
    pub fn pump_until_terminal(&mut self, txn: &str) {
        let el = self.should_journal().then(|| recovery::command("pumpTxn").with_attr("txn", txn));
        self.with_command(el, |e| e.drain(|e| !e.is_terminal(txn)));
    }

    /// Process events with timestamps `<= until`.
    pub fn pump_until(&mut self, until: SimTime) -> usize {
        let el = self
            .should_journal()
            .then(|| recovery::command("pumpUntil").with_attr("until", until.0.to_string()));
        self.with_command(el, |e| {
            let n = e.drain(|e| e.queue.next_time().is_some_and(|t| t <= until));
            // A halted time-travel replay must not advance the clock past
            // the limiting transition — "state at ordinal o" includes the
            // clock reading at that derivation.
            if !e.replay_halted() {
                e.queue.advance_to(until.max(e.queue.now()));
                // The advance may have carried the clock past a
                // deadline with no queued work left to observe it.
                e.obs.set_now(e.queue.now());
                e.evaluate_alerts();
            }
            n
        })
    }

    /// The event loop: pop and dispatch queued work while `more` holds,
    /// until the queue runs dry or a time-travel replay halts. Returns
    /// the number of events processed.
    fn drain(&mut self, more: impl Fn(&Self) -> bool) -> usize {
        let mut n = 0;
        while !self.replay_halted() && more(self) {
            let Some((_, work)) = self.queue.pop() else { break };
            n += 1;
            self.dispatch(work);
        }
        n
    }

    /// Advance SLA alert lifecycles to the engine clock: every pending
    /// alert whose deadline has passed moves to `firing`, recorded in
    /// the flight recorder AND journaled as a derived transition so a
    /// crash/recover cycle replays the identical lifecycle. Called
    /// only from journaled command contexts (the event loop and the
    /// `pump_until` tail) — read-only queries must never derive new
    /// transitions, or replay would diverge.
    fn evaluate_alerts(&mut self) {
        let now = self.now();
        for txn in self.obs.why_due_firings(now) {
            let Some((burn, class)) = self.obs.why_alert(&txn).map(|a| (a.burn_ppm(now), a.class.clone())) else {
                continue;
            };
            self.obs.inc("engine", "sla.firings");
            self.obs.record(ObsKind::SlaAlert {
                txn: txn.clone(),
                class,
                state: dgf_dgl::AlertState::Firing,
                burn_ppm: burn,
            });
            if self.journal_transition(|| {
                recovery::transition("alert")
                    .with_attr("txn", &txn)
                    .with_attr("state", "firing")
                    .with_attr("burnPpm", burn.to_string())
            }) {
                self.obs.why_fire_alert(&txn, now);
            }
        }
    }

    fn is_terminal(&self, txn: &str) -> bool {
        self.txn_index
            .get(txn)
            .map(|id| self.runs[id.0 as usize].nodes[0].state.is_terminal())
            .unwrap_or(true)
    }

    // ------------------------------------------------------------------
    // Lifecycle (§3.1: start, stop, pause, restart)
    // ------------------------------------------------------------------

    fn run_id(&self, txn: &str) -> Result<RunId, DfmsError> {
        self.txn_index.get(txn).copied().ok_or_else(|| DfmsError::UnknownTransaction(txn.to_owned()))
    }

    /// Pause a running flow: in-flight operations finish, but no new
    /// steps dispatch until [`Dfms::resume`].
    pub fn pause(&mut self, txn: &str) -> Result<(), DfmsError> {
        let el = self.should_journal().then(|| recovery::command("pause").with_attr("txn", txn));
        self.with_command(el, |e| e.pause_inner(txn))
    }

    fn pause_inner(&mut self, txn: &str) -> Result<(), DfmsError> {
        let id = self.run_id(txn)?;
        let run = &mut self.runs[id.0 as usize];
        let state = run.nodes[0].state;
        if state.is_terminal() {
            return Err(DfmsError::BadLifecycle { transaction: txn.to_owned(), action: "pause", state: state.to_string() });
        }
        run.paused = true;
        // A paused flow makes no progress by design: the watchdog stops
        // watching it until it resumes.
        self.obs.health_finish(txn);
        Ok(())
    }

    /// Resume a paused flow.
    pub fn resume(&mut self, txn: &str) -> Result<(), DfmsError> {
        let el = self.should_journal().then(|| recovery::command("resume").with_attr("txn", txn));
        self.with_command(el, |e| e.resume_inner(txn))
    }

    fn resume_inner(&mut self, txn: &str) -> Result<(), DfmsError> {
        let id = self.run_id(txn)?;
        let run = &mut self.runs[id.0 as usize];
        if !run.paused {
            return Err(DfmsError::BadLifecycle {
                transaction: txn.to_owned(),
                action: "resume",
                state: run.nodes[0].state.to_string(),
            });
        }
        run.paused = false;
        // In-flight work may have ended the run while it was paused.
        let live = !run.nodes[0].state.is_terminal();
        let deferred = std::mem::take(&mut run.deferred);
        for work in deferred {
            self.queue.schedule_in(Duration::ZERO, work);
        }
        if live {
            // Watched again, with the resume counting as progress.
            self.obs.set_now(self.now());
            self.obs.health_register(txn);
        }
        Ok(())
    }

    /// Stop a flow: every non-terminal node becomes `Stopped`; in-flight
    /// operations are aborted when their completions arrive.
    pub fn stop(&mut self, txn: &str) -> Result<(), DfmsError> {
        let el = self.should_journal().then(|| recovery::command("stop").with_attr("txn", txn));
        self.with_command(el, |e| e.stop_inner(txn))
    }

    fn stop_inner(&mut self, txn: &str) -> Result<(), DfmsError> {
        let id = self.run_id(txn)?;
        let now = self.now();
        let run = &mut self.runs[id.0 as usize];
        let state = run.nodes[0].state;
        if state.is_terminal() {
            return Err(DfmsError::BadLifecycle { transaction: txn.to_owned(), action: "stop", state: state.to_string() });
        }
        run.deferred.clear();
        run.stop_subtree(NodeId(0), now);
        // Close every span below the root the run still holds open
        // (closing a closed span is a no-op), so the timeline shows where
        // the stop landed. The root's closes with its record.
        let open_spans: Vec<SpanContext> = run.nodes[1..].iter().filter_map(|n| n.span).collect();
        for ctx in open_spans {
            self.obs.span_end_at(ctx, now);
        }
        self.obs.set_now(now);
        self.finish_node(id, NodeId(0), RunState::Stopped, Some("stopped by lifecycle request".into()));
        Ok(())
    }

    /// Restart a stopped or failed flow as a new transaction in the same
    /// lineage: steps recorded `Completed` in provenance are skipped, so
    /// the new run resumes where the old one left off.
    pub fn restart(&mut self, txn: &str) -> Result<String, DfmsError> {
        let el = self.should_journal().then(|| recovery::command("restart").with_attr("txn", txn));
        self.with_command(el, |e| e.restart_inner(txn))
    }

    fn restart_inner(&mut self, txn: &str) -> Result<String, DfmsError> {
        let id = self.run_id(txn)?;
        let run = &self.runs[id.0 as usize];
        let state = run.nodes[0].state;
        if !matches!(state, RunState::Stopped | RunState::Failed) {
            return Err(DfmsError::BadLifecycle { transaction: txn.to_owned(), action: "restart", state: state.to_string() });
        }
        let spec = run.flow(run.root()).spec.clone();
        let user = run.user.clone();
        let lineage = run.lineage.clone();
        let options = RunOptions { lineage: Some(lineage), ..run.options.clone() };
        self.submit_flow_with(&user, spec, options)
    }

    // ------------------------------------------------------------------
    // Status (§3.1: query the status of any process at any time)
    // ------------------------------------------------------------------

    /// Status of a transaction, optionally narrowed to one node path.
    pub fn status(&self, txn: &str, node: Option<&str>) -> Result<StatusReport, DfmsError> {
        let id = self.run_id(txn)?;
        let run = &self.runs[id.0 as usize];
        let node_id = match node {
            None => run.root(),
            Some(p) => run
                .find(p)
                .ok_or_else(|| DfmsError::UnknownNode { transaction: txn.to_owned(), node: p.to_owned() })?,
        };
        Ok(run.report(node_id))
    }

    fn status_query(&self, q: &FlowStatusQuery) -> Result<StatusReport, DfmsError> {
        let mut report = self.status(&q.transaction, q.node.as_deref())?;
        if let Some(limit) = q.events {
            report.events = self.report_events(&q.transaction, q.node.as_deref(), limit);
        }
        if q.metrics {
            report.metrics = self.report_metrics(&q.transaction);
        }
        if q.trace {
            report.spans = self.report_trace(&q.transaction, q.node.as_deref());
        }
        Ok(report)
    }

    /// The span tree of `txn`'s trace, optionally narrowed to the
    /// subtree under the span of the node at `node`. Creation order.
    fn report_trace(&self, txn: &str, node: Option<&str>) -> Vec<dgf_dgl::ReportSpan> {
        let Some(run_id) = self.txn_index.get(txn) else { return Vec::new() };
        let run = self.run_ref(*run_id);
        let Some(root_ctx) = run.nodes[0].span else { return Vec::new() };
        let spans = self.obs.trace_spans(root_ctx.trace);
        let subtree_root: Option<dgf_obs::SpanId> = match node {
            None | Some("/") => None,
            Some(p) => match run.find(p).and_then(|id| run.node(id).span) {
                Some(ctx) => Some(ctx.span),
                None => return Vec::new(), // node not started: nothing to show
            },
        };
        let parents: BTreeMap<dgf_obs::SpanId, Option<dgf_obs::SpanId>> =
            spans.iter().map(|s| (s.id, s.parent)).collect();
        let in_subtree = |mut id: dgf_obs::SpanId| -> bool {
            let Some(root) = subtree_root else { return true };
            loop {
                if id == root {
                    return true;
                }
                match parents.get(&id).copied().flatten() {
                    Some(parent) => id = parent,
                    None => return false,
                }
            }
        };
        spans
            .iter()
            .filter(|s| in_subtree(s.id))
            .map(|s| dgf_dgl::ReportSpan {
                id: s.id.0,
                parent: s.parent.map(|p| p.0),
                trace: s.trace.0,
                kind: s.kind.name().to_owned(),
                name: s.name.clone(),
                start_us: s.start.0,
                end_us: s.end.map(|t| t.0),
                attrs: s.attrs.clone(),
            })
            .collect()
    }

    /// The flight-recorder events attributable to `txn` (optionally
    /// narrowed to the subtree under `node`), oldest first, capped to
    /// the most recent `limit`.
    fn report_events(&self, txn: &str, node: Option<&str>, limit: usize) -> Vec<dgf_dgl::ReportEvent> {
        let mut events: Vec<_> = self
            .obs
            .events()
            .into_iter()
            .filter(|e| e.kind.transaction() == Some(txn))
            .filter(|e| match (node, e.kind.node()) {
                (None, _) | (Some("/"), _) => true,
                (Some(prefix), Some(n)) => n == prefix || n.starts_with(&format!("{prefix}/")),
                (Some(_), None) => false,
            })
            .collect();
        if events.len() > limit {
            events.drain(..events.len() - limit);
        }
        events.iter().map(report_event).collect()
    }

    /// All metric samples visible to a status query on `txn`: every
    /// subsystem scope, plus `txn`'s own per-run scope — but not other
    /// transactions' per-run scopes.
    fn report_metrics(&self, txn: &str) -> Vec<dgf_dgl::ReportMetric> {
        let own_run_scope = format!("run:{txn}");
        self.metrics_snapshot()
            .samples
            .iter()
            .filter(|s| !s.scope.starts_with("run:") || s.scope == own_run_scope)
            .map(|s| dgf_dgl::ReportMetric {
                scope: s.scope.clone(),
                name: s.name.clone(),
                kind: s.value.kind().to_owned(),
                value: s.value.render(),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    fn dispatch(&mut self, work: Work) {
        // Stamp the shared observability clock so every event recorded
        // while handling this work item carries the simulation time.
        self.obs.set_now(self.now());
        // Opportunistic telemetry: sample gauges and run the health
        // watchdog whenever the sampling interval has elapsed. Driven
        // by the event loop, so sampling times are deterministic.
        if self.obs.ts_due() {
            self.sample_telemetry();
        }
        // Deadlines are pure clock facts: alert firings are evaluated
        // on every event-loop beat, before the work item runs.
        self.evaluate_alerts();
        self.obs.prof_enter(Phase::StepExecute);
        match work {
            Work::Start { run, node } => self.start_node(run, node),
            Work::OpDone { run, node } => self.op_done(run, node),
            Work::ExecDone { run, node, compute, outputs, code, inputs } => {
                self.exec_done(run, node, compute, outputs, code, inputs)
            }
            Work::IlmDue { job } => self.ilm_due(job),
        }
        self.obs.prof_exit(Phase::StepExecute);
    }

    fn run_ref(&self, id: RunId) -> &Run {
        &self.runs[id.0 as usize]
    }

    fn run_mut(&mut self, id: RunId) -> &mut Run {
        &mut self.runs[id.0 as usize]
    }

    fn start_node(&mut self, run_id: RunId, node_id: NodeId) {
        let now = self.now();
        {
            let run = self.run_ref(run_id);
            if run.stopped() {
                return;
            }
            if run.paused {
                self.run_mut(run_id).deferred.push(Work::Start { run: run_id, node: node_id });
                return;
            }
            // Window gating: steps only dispatch inside the window.
            if let Some(window) = &run.options.window {
                if !window.is_open(now) {
                    let reopen = window.next_open(now);
                    let wait = window.wait_until_open(now);
                    let txn = run.txn.clone();
                    let path = run.path_of(node_id);
                    self.obs.inc("engine", "window.waits");
                    self.obs.observe("engine", "window.wait", wait);
                    // Attribution: the park interval is a wait mark so
                    // the critical path charges it to `window-closed`.
                    self.obs.why_mark(&txn, &path, dgf_dgl::WaitState::WindowClosed, now, reopen, "window");
                    self.obs.record(ObsKind::WindowWait { txn, node: path, resume_us: reopen.0 });
                    self.queue.schedule_at(reopen, Work::Start { run: run_id, node: node_id });
                    return;
                }
            }
        }
        // Compute the node's scope: parent scope + fresh frame (binding a
        // for-each iteration's item as resolved, never interpolating it
        // again) + declared vars.
        let mut scope = {
            let run = self.run_ref(run_id);
            let node = run.node(node_id);
            let mut scope = node.parent.map_or_else(Scope::root, |p| run.node(p).scope.clone());
            scope.push();
            if let Some(parent) = node.parent.map(|p| run.flow(p)) {
                if let ControlPattern::ForEach { var, .. } = &parent.spec.logic.pattern {
                    scope.declare(var.clone(), Value::from_text(&parent.items[node.index_in_parent]));
                }
            }
            scope
        };
        // Declare node variables (interpolated against the enclosing scope).
        let var_decls: Vec<(String, String)> = {
            let run = self.run_ref(run_id);
            let node = run.node(node_id);
            match &node.body {
                NodeBody::Flow(flow) => flow.spec.variables.iter().map(|v| (v.name.clone(), v.initial.clone())).collect(),
                NodeBody::Step { spec, .. } => spec.variables.iter().map(|v| (v.name.clone(), v.initial.clone())).collect(),
            }
        };
        for (name, initial) in var_decls {
            match interpolate(&initial, &scope) {
                Ok(text) => scope.declare(name, Value::from_text(&text)),
                Err(e) => {
                    self.finish_node(run_id, node_id, RunState::Failed, Some(format!("variable {name:?}: {e}")));
                    return;
                }
            }
        }
        {
            let run = self.run_mut(run_id);
            let node = run.node_mut(node_id);
            node.state = RunState::Running;
            node.started = now;
            node.scope = scope;
        }
        // Open the node's request span under its parent's (the root's
        // flow span was opened at submission). A retry keeps its first
        // span: one span covers all attempts of the same node.
        if self.run_ref(run_id).node(node_id).span.is_none() {
            if let Some(parent) = self.run_ref(run_id).node(node_id).parent {
                let (parent_span, name, path) = {
                    let run = self.run_ref(run_id);
                    (run.node(parent).span, run.node(node_id).name.clone(), run.path_of(node_id))
                };
                let ctx = self.obs.span_start(SpanKind::Request, &name, parent_span);
                self.obs.span_attr(ctx, "node", &path);
                self.run_mut(run_id).node_mut(node_id).span = Some(ctx);
            }
        }
        // beforeEntry rules.
        if let Err(e) = self.run_rules(run_id, node_id, dgf_dgl::RULE_BEFORE_ENTRY) {
            self.finish_node(run_id, node_id, RunState::Failed, Some(format!("beforeEntry: {e}")));
            return;
        }
        let is_step = self.run_ref(run_id).node(node_id).is_step();
        if is_step {
            let (txn, path, name) = {
                let run = self.run_ref(run_id);
                (run.txn.clone(), run.path_of(node_id), run.node(node_id).name.clone())
            };
            self.obs.record(ObsKind::StepStarted { txn: txn.clone(), node: path.clone(), name: name.clone() });
            self.journal_transition(|| {
                recovery::transition("step.start")
                    .with_attr("txn", &txn)
                    .with_attr("node", &path)
                    .with_attr("name", &name)
            });
            self.start_step(run_id, node_id);
        } else {
            self.start_flow(run_id, node_id);
        }
    }

    // ------------------------------------------------------------------
    // Flow control patterns
    // ------------------------------------------------------------------

    /// Start flow node `node_id`: resolve a for-each's items, then
    /// launch its first child, or every child at once for a parallel
    /// node or a concurrent for-each, which then count them down.
    fn start_flow(&mut self, run_id: RunId, node_id: NodeId) {
        let spec = &self.run_ref(run_id).flow(node_id).spec;
        let resolved = match &spec.logic.pattern {
            ControlPattern::Parallel => Ok((Vec::new(), spec.children.len())),
            ControlPattern::ForEach { source, parallel, .. } => self
                .resolve_items(run_id, node_id, source)
                .map(|items| {
                    let width = if *parallel { items.len() } else { 1 };
                    (items, width)
                }),
            _ => Ok((Vec::new(), 1)),
        };
        let (items, width) = match resolved {
            Ok(resolved) => resolved,
            Err(e) => {
                self.finish_node(run_id, node_id, RunState::Failed, Some(format!("for-each source: {e}")));
                return;
            }
        };
        let flow = self.run_mut(run_id).flow_mut(node_id);
        flow.items = items;
        flow.outstanding = width;
        // An empty parallel node still needs one call to end.
        for _ in 0..width.max(1) {
            self.advance(run_id, node_id);
        }
    }

    /// Launch flow node `node_id`'s next child, child number
    /// `children.len()`: spec child *i* of a sequential or parallel
    /// node, the chosen arm of a switch, or a loop iteration. When the
    /// pattern has no child left to launch, end the node instead.
    fn advance(&mut self, run_id: RunId, node_id: NodeId) {
        let run = self.run_ref(run_id);
        let ended = run.nodes[0].state;
        let flow = run.flow(node_id);
        let scope = &run.node(node_id).scope;
        let next = flow.children.len();
        let spec = &flow.spec;
        let launch = match &spec.logic.pattern {
            ControlPattern::Sequential | ControlPattern::Parallel => Ok(spec_child(spec, next)),
            ControlPattern::Switch { .. } if next > 0 => Ok(None),
            ControlPattern::Switch { on, cases } => match on.eval(scope) {
                Ok(value) => {
                    let text = value.to_string();
                    let exact = cases.iter().position(|c| c.value.as_deref() == Some(text.as_str()));
                    let arm = exact.or_else(|| cases.iter().position(|c| c.value.is_none()));
                    Ok(arm.and_then(|arm| spec_child(spec, arm)))
                }
                Err(e) => Err(format!("switch: {e}")),
            },
            ControlPattern::While(_) if next as u64 >= MAX_LOOP_ITERATIONS => {
                let (transaction, node) = (run.txn.clone(), run.path_of(node_id));
                Err(DfmsError::IterationLimit { transaction, node, limit: MAX_LOOP_ITERATIONS }.to_string())
            }
            ControlPattern::While(cond) => match cond.eval_bool(scope) {
                Ok(more) => Ok(more.then(|| iteration(spec, next))),
                Err(e) => Err(format!("while condition: {e}")),
            },
            ControlPattern::ForEach { .. } => Ok((next < flow.items.len()).then(|| iteration(spec, next))),
        };
        match launch {
            // Once the run has ended nothing new launches: the node ends
            // stopped instead (once, though a parallel start asks per
            // child).
            Ok(Some(_)) if ended.is_terminal() => {
                if !run.node(node_id).state.is_terminal() {
                    self.finish_node(run_id, node_id, RunState::Stopped, Some(format!("cut off: the run {ended}")));
                }
            }
            Ok(Some((name, body))) => {
                let child = self.run_mut(run_id).alloc(Some(node_id), name, body);
                self.queue.schedule_in(Duration::ZERO, Work::Start { run: run_id, node: child });
            }
            Ok(None) => self.finish_node(run_id, node_id, RunState::Completed, None),
            Err(message) => self.finish_node(run_id, node_id, RunState::Failed, Some(message)),
        }
    }

    fn resolve_items(&self, run_id: RunId, node_id: NodeId, source: &IterSource) -> Result<Vec<String>, DfmsError> {
        let scope = &self.run_ref(run_id).node(node_id).scope;
        match source {
            IterSource::Items(templates) => templates
                .iter()
                .map(|t| interpolate(t, scope).map_err(DfmsError::from))
                .collect(),
            IterSource::Collection(template) => {
                let raw = interpolate(template, scope)?;
                let path = LogicalPath::parse(&raw).map_err(DfmsError::from)?;
                Ok(self.grid.query(&path, &MetaQuery::Any).iter().map(|p| p.to_string()).collect())
            }
            IterSource::Query { collection, attribute, value } => {
                let raw = interpolate(collection, scope)?;
                let path = LogicalPath::parse(&raw).map_err(DfmsError::from)?;
                let attribute = interpolate(attribute, scope)?;
                let value = interpolate(value, scope)?;
                Ok(self
                    .grid
                    .query(&path, &MetaQuery::Eq(attribute, value))
                    .iter()
                    .map(|p| p.to_string())
                    .collect())
            }
            IterSource::Variable(name) => match scope.get(name) {
                Some(Value::List(items)) => Ok(items.iter().map(|i| i.to_string()).collect()),
                Some(other) => Ok(vec![other.to_string()]),
                None => Err(DfmsError::Dgl(dgf_dgl::DglError::UnknownVariable(name.clone()))),
            },
        }
    }

    // ------------------------------------------------------------------
    // Steps
    // ------------------------------------------------------------------

    fn start_step(&mut self, run_id: RunId, node_id: NodeId) {
        let run = self.run_ref(run_id);
        let is_restart = run.options.lineage.is_some();
        let replaying = self.journal.as_ref().is_some_and(|journal| journal.replay.is_some());
        // Both memos are keyed by lineage and node path; build the path
        // only when one of them will read it.
        if is_restart || replaying {
            let path = run.path_of(node_id);
            // Restart memo: skip steps completed in an earlier transaction
            // of this lineage.
            if is_restart && self.provenance.step_completed(&run.lineage, &path) {
                self.obs.inc("engine", "steps.skipped.restart");
                self.finish_node(run_id, node_id, RunState::Skipped, Some("restart: completed in an earlier transaction".into()));
                return;
            }
            // Replay memo: the journal recorded this step as completed
            // before the crash. Count it for `steps_skipped_restart`, then
            // execute it anyway — replay re-derives every effect, it never
            // trusts state it could recompute.
            let key = (run.lineage.clone(), path);
            if let Some(replay) = self.journal.as_mut().and_then(|journal| journal.replay.as_mut()) {
                if replay.memo.remove(&key) {
                    replay.skips += 1;
                    self.obs.inc("engine", "steps.skipped.restart");
                }
            }
        }
        // The operation and the node's scope are read in place; each arm
        // copies out only what it keeps.
        let run = self.run_ref(run_id);
        let scope = &run.node(node_id).scope;
        match &run.step(node_id).operation {
            DglOperation::Assign { variable, expr } => match expr.eval(scope) {
                Ok(value) => {
                    let variable = variable.clone();
                    self.run_mut(run_id).node_mut(node_id).scope.assign(&variable, value);
                    self.obs.inc("engine", "steps.executed");
                    self.finish_node(run_id, node_id, RunState::Completed, None);
                }
                Err(e) => self.step_failed(run_id, node_id, format!("assign: {e}")),
            },
            DglOperation::Notify { message } => match interpolate(message, scope) {
                Ok(rendered) => {
                    let txn = run.txn.clone();
                    self.notifications.push(Notification { time: self.now(), source: txn, message: rendered });
                    self.obs.inc("engine", "steps.executed");
                    self.finish_node(run_id, node_id, RunState::Completed, None);
                }
                Err(e) => self.step_failed(run_id, node_id, format!("notify: {e}")),
            },
            DglOperation::Query { collection, attribute, value, into } => {
                let result: Result<Vec<Value>, DfmsError> = (|| {
                    let path = LogicalPath::parse(&interpolate(collection, scope)?)?;
                    let attribute = interpolate(attribute, scope)?;
                    let value = interpolate(value, scope)?;
                    Ok(self
                        .grid
                        .query(&path, &MetaQuery::Eq(attribute, value))
                        .iter()
                        .map(|p| Value::Str(p.to_string()))
                        .collect())
                })();
                match result {
                    Ok(items) => {
                        let into = into.clone();
                        self.run_mut(run_id).node_mut(node_id).scope.assign(&into, Value::List(items));
                        self.obs.inc("engine", "steps.executed");
                        self.finish_node(run_id, node_id, RunState::Completed, None);
                    }
                    Err(e) => self.step_failed(run_id, node_id, format!("query: {e}")),
                }
            }
            DglOperation::Execute { .. } => self.start_execute(run_id, node_id),
            _ => self.start_dgms_op(run_id, node_id),
        }
    }

    /// Translate a DGL operation into a DGMS operation with interpolation.
    fn build_dgms_op(&self, op: &DglOperation, scope: &Scope) -> Result<Operation, DfmsError> {
        let path = |template: &str| -> Result<LogicalPath, DfmsError> {
            Ok(LogicalPath::parse(&interpolate(template, scope)?)?)
        };
        let text = |template: &str| -> Result<String, DfmsError> { Ok(interpolate(template, scope)?) };
        Ok(match op {
            DglOperation::CreateCollection { path: p } => Operation::CreateCollection { path: path(p)? },
            DglOperation::Ingest { path: p, size, resource } => {
                let size_text = text(size)?;
                let size = Value::from_text(&size_text).as_i64().filter(|s| *s >= 0).ok_or_else(|| {
                    DfmsError::Dgl(dgf_dgl::DglError::Invalid(format!("ingest size {size_text:?} is not a byte count")))
                })? as u64;
                Operation::Ingest { path: path(p)?, size, resource: text(resource)? }
            }
            DglOperation::Replicate { path: p, src, dst } => Operation::Replicate {
                path: path(p)?,
                src: src.as_deref().map(text).transpose()?,
                dst: text(dst)?,
            },
            DglOperation::Migrate { path: p, from, to } => {
                Operation::Migrate { path: path(p)?, from: text(from)?, to: text(to)? }
            }
            DglOperation::Trim { path: p, resource } => Operation::Trim { path: path(p)?, resource: text(resource)? },
            DglOperation::Delete { path: p } => Operation::Delete { path: path(p)? },
            DglOperation::Rename { path: p, to } => Operation::Rename { path: path(p)?, to: path(to)? },
            DglOperation::Checksum { path: p, resource, register } => Operation::Checksum {
                path: path(p)?,
                resource: resource.as_deref().map(text).transpose()?,
                register: *register,
            },
            DglOperation::SetMetadata { path: p, attribute, value } => Operation::SetMetadata {
                path: path(p)?,
                triple: MetaTriple::new(text(attribute)?, text(value)?),
            },
            DglOperation::SetPermission { path: p, grantee, level } => {
                let level_text = text(level)?;
                let permission = match level_text.as_str() {
                    "read" => Permission::Read,
                    "write" => Permission::Write,
                    "own" => Permission::Own,
                    "none" => Permission::None,
                    other => {
                        return Err(DfmsError::Dgl(dgf_dgl::DglError::Invalid(format!(
                            "unknown permission level {other:?}"
                        ))))
                    }
                };
                Operation::SetPermission { path: path(p)?, grantee: text(grantee)?, permission }
            }
            DglOperation::Execute { .. }
            | DglOperation::Assign { .. }
            | DglOperation::Notify { .. }
            | DglOperation::Query { .. } => {
                unreachable!("handled before build_dgms_op")
            }
        })
    }

    fn start_dgms_op(&mut self, run_id: RunId, node_id: NodeId) {
        let now = self.now();
        let run = self.run_ref(run_id);
        let node = run.node(node_id);
        let op = match self.build_dgms_op(&run.step(node_id).operation, &node.scope) {
            Ok(op) => op,
            Err(e) => {
                self.step_failed(run_id, node_id, e.to_string());
                return;
            }
        };
        let (user, depth, node_span) = (run.user.clone(), run.options.trigger_depth, node.span);
        // BEFORE triggers observe the intent.
        let before_firings = self.triggers.before_op(&self.grid, &op, &user, now, depth);
        self.handle_firings(before_firings, node_span);
        match self.grid.begin(&user, op, now) {
            Ok(pending) => {
                let duration = pending.duration;
                let ctx = self.obs.span_start(SpanKind::DgmsOp, pending.op.verb(), node_span);
                self.obs.span_attr(ctx, "path", &pending.op.path().to_string());
                if pending.bytes_moved > 0 {
                    self.obs.span_attr(ctx, "bytes", &pending.bytes_moved.to_string());
                }
                // Endpoint attrs let the attribution engine charge
                // byte-moving ops to `transfer-on-link` with a concrete
                // src→dst blame label.
                match &pending.op {
                    Operation::Replicate { src, dst, .. } => {
                        if let Some(src) = src {
                            self.obs.span_attr(ctx, "src", src);
                        }
                        self.obs.span_attr(ctx, "dst", dst);
                    }
                    Operation::Ingest { resource, .. } => {
                        self.obs.span_attr(ctx, "dst", resource);
                    }
                    _ => {}
                }
                self.obs.add("engine", "bytes.moved", pending.bytes_moved);
                self.obs.inc("engine", "dgms.ops");
                self.pending_ops.insert((run_id, node_id.0), (pending, ctx));
                self.queue.schedule_in(duration, Work::OpDone { run: run_id, node: node_id });
            }
            Err(e) => self.step_failed(run_id, node_id, e.to_string()),
        }
    }

    fn op_done(&mut self, run_id: RunId, node_id: NodeId) {
        let now = self.now();
        let Some((pending, op_span)) = self.pending_ops.remove(&(run_id, node_id.0)) else {
            return; // stopped runs may have had their pendings dropped
        };
        if self.run_ref(run_id).stopped() {
            self.obs.span_attr(op_span, "aborted", "stop requested");
            self.obs.span_end_at(op_span, now);
            self.grid.abort(pending);
            return;
        }
        let was_verify = matches!(pending.op, Operation::Checksum { register: false, .. });
        match self.grid.complete(pending, now) {
            Ok(events) => {
                self.obs.span_end_at(op_span, now);
                let mismatch = events.iter().any(|e| e.kind == EventKind::ChecksumMismatch);
                self.after_events(run_id, Some(op_span));
                if was_verify && mismatch {
                    let detail = events
                        .iter()
                        .find(|e| e.kind == EventKind::ChecksumMismatch)
                        .map(|e| e.detail.clone())
                        .unwrap_or_default();
                    self.step_failed(run_id, node_id, format!("integrity violation: {detail}"));
                } else {
                    self.obs.inc("engine", "steps.executed");
                    self.finish_node(run_id, node_id, RunState::Completed, None);
                }
            }
            Err(e) => {
                self.obs.span_attr(op_span, "error", &e.to_string());
                self.obs.span_end_at(op_span, now);
                self.step_failed(run_id, node_id, e.to_string());
            }
        }
    }

    /// Poll AFTER triggers for freshly emitted events. `cause` is the
    /// span of the activity that emitted them; firings parent their
    /// action spans under it.
    fn after_events(&mut self, run_id: RunId, cause: Option<SpanContext>) {
        let depth = self.run_ref(run_id).options.trigger_depth;
        self.obs.prof_enter(Phase::TriggerEval);
        let firings = self.triggers.poll(&self.grid, depth);
        self.handle_firings(firings, cause);
        self.obs.prof_exit(Phase::TriggerEval);
    }

    /// Run matched triggers' actions. `cause` is the span of the
    /// activity whose event matched; each action span parents under it.
    fn handle_firings(&mut self, firings: Vec<Firing>, cause: Option<SpanContext>) {
        for firing in firings {
            let action_name = match &firing.action {
                TriggerAction::Notify(_) => "notify",
                TriggerAction::Flow(_) => "flow",
            };
            self.obs.inc("engine", "trigger.firings");
            self.obs.record(ObsKind::TriggerFired {
                trigger: firing.trigger.clone(),
                action: action_name.into(),
            });
            self.journal_transition(|| {
                recovery::transition("trigger")
                    .with_attr("name", &firing.trigger)
                    .with_attr("action", action_name)
                    .with_attr("event", firing.event.kind.to_string())
            });
            // The action span parents under the span of the activity that
            // emitted the matched event, chaining the firing back to its
            // causing flow.
            let span = self.obs.span_start(SpanKind::TriggerAction, &firing.trigger, cause);
            self.obs.span_attr(span, "action", action_name);
            self.obs.span_attr(span, "event", &firing.event.kind.to_string());
            match firing.action {
                TriggerAction::Notify(template) => {
                    let message = interpolate(&template, &firing.bindings)
                        .unwrap_or_else(|e| format!("<bad notify template: {e}>"));
                    self.notifications.push(Notification {
                        time: self.now(),
                        source: format!("trigger:{}", firing.trigger),
                        message,
                    });
                }
                TriggerAction::Flow(mut flow) => {
                    // Pre-bind the event variables so the flow's templates
                    // can reference them.
                    for name in ["event.path", "event.kind", "event.principal"] {
                        if let Some(v) = firing.bindings.get(name) {
                            flow.variables.insert(0, dgf_dgl::VarDecl::new(name, v.to_string()));
                        }
                    }
                    let options = RunOptions { trigger_depth: firing.depth, ..Default::default() };
                    // Trigger flows run as the trigger's owner.
                    if let Ok(txn) = self.submit_flow_with(&firing.owner.clone(), flow, options) {
                        self.obs.span_attr(span, "spawned.txn", &txn);
                        // The spawned flow roots its own trace; cross-link
                        // it back to the firing so causality survives the
                        // trace boundary.
                        if let Some(run_id) = self.txn_index.get(&txn).copied() {
                            if let Some(flow_span) = self.run_ref(run_id).nodes[0].span {
                                self.obs.span_attr(flow_span, "cause.trace", &span.trace.0.to_string());
                                self.obs.span_attr(flow_span, "cause.span", &span.span.0.to_string());
                                // Attribution reads this to charge the
                                // spawned flow's lead-in to the trigger.
                                self.obs.span_attr(flow_span, "cause.trigger", &firing.trigger);
                            }
                        }
                    }
                }
            }
            self.obs.span_end(span);
        }
    }

    // ------------------------------------------------------------------
    // Business-logic execution (scheduler + virtual data)
    // ------------------------------------------------------------------

    /// Resolve a task's placement through the binding cache and record
    /// what the scheduler did: `scheduler/binding.{plans,replays}`,
    /// `plans.{ok,failed}` and the `plan.stage_in` histogram, plus a
    /// `binding` attribute (`plan` or `replay`) on `span` when given.
    fn resolve_binding(
        &mut self,
        key: &str,
        task: &AbstractTask,
        span: Option<SpanContext>,
    ) -> Result<dgf_scheduler::Placement, dgf_scheduler::PlannerError> {
        let resolved = self.binding.resolve(&mut self.scheduler, &self.grid, key, task);
        let replayed = matches!(resolved, Ok((_, true)));
        let which = if replayed { "replay" } else { "plan" };
        self.obs.inc("scheduler", &format!("binding.{which}s"));
        if let Some(span) = span {
            self.obs.span_attr(span, "binding", which);
        }
        match &resolved {
            Ok((_, true)) => {}
            Ok((p, false)) => {
                self.obs.inc("scheduler", "plans.ok");
                self.obs.observe("scheduler", "plan.stage_in", p.estimate.stage_in);
            }
            Err(_) => self.obs.inc("scheduler", "plans.failed"),
        }
        resolved.map(|(p, _)| p)
    }

    fn start_execute(&mut self, run_id: RunId, node_id: NodeId) {
        let now = self.now();
        let (task, lineage, path_id) = {
            let run = self.run_ref(run_id);
            let scope = &run.node(node_id).scope;
            (resolve_task(run.step(node_id), scope, run.vo.clone()), run.lineage.clone(), run.path_of(node_id))
        };
        let task = match task {
            Ok(t) => t,
            Err(e) => {
                self.step_failed(run_id, node_id, e.to_string());
                return;
            }
        };
        // Virtual data: skip the derivation if its products exist.
        if self.catalog.lookup(&self.grid, &task.code, &task.inputs).is_some() {
            self.obs.inc("engine", "steps.skipped.virtual");
            self.finish_node(run_id, node_id, RunState::Skipped, Some("virtual data: outputs already derived".into()));
            return;
        }
        // Bind (late or early) to concrete infrastructure. The binding
        // span brackets planning; it is instantaneous in sim-time, so its
        // value is the parent chain and the plan/replay + placement attrs.
        let node_span = self.run_ref(run_id).node(node_id).span;
        let bind_span = self.obs.span_start(SpanKind::SchedulerBinding, &task.code, node_span);
        let binding_key = format!("{lineage}:{path_id}");
        self.obs.prof_enter(Phase::Schedule);
        let resolved = self.resolve_binding(&binding_key, &task, Some(bind_span));
        self.obs.prof_exit(Phase::Schedule);
        let placement =
            match resolved {
                Ok(p) => p,
                Err(e @ dgf_scheduler::PlannerError::NoEligibleResource { .. })
                    if self.scheduler.feasible_ever(&self.grid, &task) =>
                {
                    // The grid is saturated, not unsuitable: queue like a
                    // batch system and retry when capacity frees up.
                    let _ = e;
                    self.obs.span_attr(bind_span, "result", "queued");
                    self.obs.span_end(bind_span);
                    self.obs.inc("engine", "exec.queue.retries");
                    // Attribution: the mark tiles exactly one retry
                    // interval, so back-to-back retries merge into one
                    // `queued-for-cluster` critical-path segment
                    // blaming the saturated pool.
                    {
                        let txn = self.run_ref(run_id).txn.clone();
                        let pool = format!(
                            "pool:{}",
                            task.requirement.domain.as_deref().unwrap_or("grid")
                        );
                        self.obs.why_mark(
                            &txn,
                            &path_id,
                            dgf_dgl::WaitState::QueuedForCluster,
                            now,
                            now + QUEUE_RETRY_INTERVAL,
                            &pool,
                        );
                    }
                    self.queue.schedule_in(QUEUE_RETRY_INTERVAL, Work::Start { run: run_id, node: node_id });
                    return;
                }
                Err(e) => {
                    self.obs.span_attr(bind_span, "error", &e.to_string());
                    self.obs.span_end(bind_span);
                    self.step_failed(run_id, node_id, e.to_string());
                    return;
                }
            };
        {
            let txn = self.run_ref(run_id).txn.clone();
            let topology = self.grid.topology();
            let compute = topology.compute(placement.compute).name.clone();
            let domain = topology.domain(placement.domain).name.clone();
            self.obs.span_attr(bind_span, "compute", &compute);
            self.obs.span_attr(bind_span, "domain", &domain);
            self.obs.span_end(bind_span);
            self.obs.record(ObsKind::PlannerDecision {
                txn: txn.clone(),
                node: path_id.clone(),
                code: task.code.clone(),
                compute: compute.clone(),
                domain: domain.clone(),
                est_us: (placement.estimate.stage_in + placement.estimate.exec).0,
            });
            self.journal_transition(|| {
                recovery::transition("binding")
                    .with_attr("txn", &txn)
                    .with_attr("node", &path_id)
                    .with_attr("code", &task.code)
                    .with_attr("compute", &compute)
                    .with_attr("domain", &domain)
            });
        }
        // Claim the slot (early-bound placements may be stale).
        if !self.grid.topology_mut().compute_mut(placement.compute).claim_slot() {
            self.step_failed(
                run_id,
                node_id,
                format!("compute resource {} unavailable at execution time", self.grid.topology().compute(placement.compute).name),
            );
            return;
        }
        // Stage missing inputs (sequential transfers, real replicas).
        let user = self.run_ref(run_id).user.clone();
        let mut stage_total = Duration::ZERO;
        for plan in &placement.stage {
            if plan.is_local() {
                continue;
            }
            let dst_name = self.grid.topology().storage(plan.dst).name.clone();
            let src_name = self.grid.topology().storage(plan.src).name.clone();
            {
                let txn = self.run_ref(run_id).txn.clone();
                self.obs.record(ObsKind::TransferScheduled {
                    txn,
                    node: path_id.clone(),
                    path: plan.path.to_string(),
                    src: src_name.clone(),
                    dst: dst_name.clone(),
                    bytes: plan.bytes,
                });
            }
            // Transfers run sequentially: each span starts where the
            // previous one ended, ahead of the recorder's clock.
            let t_span =
                self.obs.span_start_at(now + stage_total, SpanKind::NetworkTransfer, "stage-in", node_span);
            self.obs.span_attr(t_span, "path", &plan.path.to_string());
            self.obs.span_attr(t_span, "src", &src_name);
            self.obs.span_attr(t_span, "dst", &dst_name);
            self.obs.span_attr(t_span, "bytes", &plan.bytes.to_string());
            let op = Operation::Replicate { path: plan.path.clone(), src: Some(src_name), dst: dst_name };
            match self.grid.execute(&user, op, now + stage_total) {
                Ok((d, _)) => {
                    stage_total += d;
                    self.obs.span_end_at(t_span, now + stage_total);
                    self.obs.inc("engine", "dgms.ops");
                    self.obs.add("engine", "bytes.moved", plan.bytes);
                    self.after_events(run_id, Some(t_span));
                }
                Err(dgf_dgms::DgmsError::ReplicaExists { .. }) => {
                    // Another task staged it meanwhile; fine.
                    self.obs.span_attr(t_span, "result", "already staged");
                    self.obs.span_end_at(t_span, now + stage_total);
                }
                Err(e) => {
                    self.obs.span_attr(t_span, "error", &e.to_string());
                    self.obs.span_end_at(t_span, now + stage_total);
                    self.grid.topology_mut().compute_mut(placement.compute).release_slot();
                    self.step_failed(run_id, node_id, format!("staging {}: {e}", plan.path));
                    return;
                }
            }
        }
        // Output write time at the chosen stores.
        let mut output_total = Duration::ZERO;
        for (_, storage, bytes) in &placement.outputs {
            output_total += self.grid.topology().storage(*storage).access_time(*bytes);
        }
        let exec = placement.estimate.exec;
        self.obs.inc("engine", "exec.tasks");
        self.queue.schedule_in(
            stage_total + exec + output_total,
            Work::ExecDone {
                run: run_id,
                node: node_id,
                compute: placement.compute,
                outputs: placement.outputs.clone(),
                code: task.code.clone(),
                inputs: task.inputs.clone(),
            },
        );
    }

    fn exec_done(
        &mut self,
        run_id: RunId,
        node_id: NodeId,
        compute: ComputeId,
        outputs: Vec<(LogicalPath, StorageId, u64)>,
        code: String,
        inputs: Vec<LogicalPath>,
    ) {
        let now = self.now();
        self.grid.topology_mut().compute_mut(compute).release_slot();
        if self.run_ref(run_id).stopped() {
            return;
        }
        let user = self.run_ref(run_id).user.clone();
        let node_span = self.run_ref(run_id).node(node_id).span;
        // Register outputs in the namespace.
        let mut output_paths = Vec::with_capacity(outputs.len());
        for (path, storage, bytes) in outputs {
            let resource = self.grid.topology().storage(storage).name.clone();
            let t_span = self.obs.span_start_at(now, SpanKind::NetworkTransfer, "output", node_span);
            self.obs.span_attr(t_span, "path", &path.to_string());
            self.obs.span_attr(t_span, "dst", &resource);
            self.obs.span_attr(t_span, "bytes", &bytes.to_string());
            match self.grid.execute(&user, Operation::Ingest { path: path.clone(), size: bytes, resource }, now) {
                Ok(_) => {
                    self.obs.span_end_at(t_span, now);
                    self.obs.inc("engine", "dgms.ops");
                    self.after_events(run_id, Some(t_span));
                    output_paths.push(path);
                }
                Err(dgf_dgms::DgmsError::AlreadyExists(_)) => {
                    self.obs.span_attr(t_span, "result", "already registered");
                    self.obs.span_end_at(t_span, now);
                    output_paths.push(path); // idempotent re-run
                }
                Err(e) => {
                    self.obs.span_attr(t_span, "error", &e.to_string());
                    self.obs.span_end_at(t_span, now);
                    self.step_failed(run_id, node_id, format!("registering output {path}: {e}"));
                    return;
                }
            }
        }
        self.catalog.register(&code, &inputs, &output_paths);
        self.obs.inc("engine", "steps.executed");
        self.finish_node(run_id, node_id, RunState::Completed, None);
    }

    // ------------------------------------------------------------------
    // Completion, failure, rules
    // ------------------------------------------------------------------

    /// End a node in `state`. The one place a node ends: its state,
    /// finish time and message, its afterExit rules (completed and
    /// failed nodes only), its provenance record and span, the run's end
    /// when it is the root, and the hand-back to its parent.
    fn finish_node(&mut self, run_id: RunId, node_id: NodeId, state: RunState, message: Option<String>) {
        let now = self.now();
        {
            let node = self.run_mut(run_id).node_mut(node_id);
            node.state = state;
            node.finished = now;
            node.message = message;
        }
        if matches!(state, RunState::Completed | RunState::Failed) {
            let _ = self.run_rules(run_id, node_id, dgf_dgl::RULE_AFTER_EXIT);
        }
        let outcome = match state {
            RunState::Completed => StepOutcome::Completed,
            RunState::Failed => StepOutcome::Failed,
            RunState::Skipped => StepOutcome::Skipped,
            RunState::Stopped => StepOutcome::Stopped,
            other => unreachable!("a node ends terminal, not {other}"),
        };
        self.record_node(run_id, node_id, outcome);
        if self.run_ref(run_id).node(node_id).parent.is_none() {
            self.finish_run(run_id, state);
        }
        self.child_finished(run_id, node_id, state);
    }

    /// Step-level failure: applies the step's error policy before
    /// escalating.
    fn step_failed(&mut self, run_id: RunId, node_id: NodeId, message: String) {
        let (policy, attempts) = match &mut self.run_mut(run_id).node_mut(node_id).body {
            NodeBody::Step { spec, attempts } => {
                *attempts += 1;
                (spec.on_error, *attempts)
            }
            NodeBody::Flow(_) => (dgf_dgl::ErrorPolicy::Fail, 0),
        };
        match policy {
            dgf_dgl::ErrorPolicy::Retry(max) => {
                if attempts <= max {
                    self.obs.inc("engine", "step.retries");
                    {
                        let run = self.run_ref(run_id);
                        self.obs.record(ObsKind::FaultRetry {
                            txn: run.txn.clone(),
                            node: run.path_of(node_id),
                            attempt: attempts,
                        });
                    }
                    // Re-plan from scratch (late binding may choose a
                    // different resource this time).
                    self.queue.schedule_in(Duration::ZERO, Work::Start { run: run_id, node: node_id });
                    return;
                }
                self.finish_node(run_id, node_id, RunState::Failed, Some(format!("{message} (after {max} retries)")));
            }
            dgf_dgl::ErrorPolicy::Ignore => {
                self.finish_node(run_id, node_id, RunState::Completed, Some(format!("ignored failure: {message}")))
            }
            dgf_dgl::ErrorPolicy::Fail => self.finish_node(run_id, node_id, RunState::Failed, Some(message)),
        }
    }

    /// Hand a child that ended in `state` to its parent: write its scope
    /// back (all but the parallel patterns), fail the parent, cut it off
    /// (a child cut off after its run ended, see `advance`),
    /// count down (parallel patterns), or advance. A parent that has
    /// already ended — a parallel node failed by an earlier child —
    /// takes nothing more: its late children are recorded, but end
    /// nothing.
    fn child_finished(&mut self, run_id: RunId, child: NodeId, state: RunState) {
        let run = self.run_ref(run_id);
        let Some(parent) = run.node(child).parent else {
            return; // root finished
        };
        if run.node(parent).state.is_terminal() {
            return;
        }
        let parallel = matches!(
            run.flow(parent).spec.logic.pattern,
            ControlPattern::Parallel | ControlPattern::ForEach { parallel: true, .. }
        );
        // Assignments made by the child become visible to later siblings
        // and loop conditions.
        if !parallel {
            let mut child_scope = run.node(child).scope.clone();
            if child_scope.depth() > 1 {
                child_scope.pop();
                self.run_mut(run_id).node_mut(parent).scope = child_scope;
            }
        }
        if state == RunState::Failed {
            // A failed child fails the whole parent (step-level policies
            // were already applied).
            let child = self.run_ref(run_id).node(child);
            let detail = child.message.as_ref().map(|m| format!(": {m}")).unwrap_or_default();
            let message = format!("child {:?} failed{detail}", child.name);
            self.finish_node(run_id, parent, RunState::Failed, Some(message));
            return;
        }
        if state == RunState::Stopped {
            let message = self.run_ref(run_id).node(child).message.clone();
            self.finish_node(run_id, parent, RunState::Stopped, message);
            return;
        }
        if parallel {
            let flow = self.run_mut(run_id).flow_mut(parent);
            flow.outstanding -= 1;
            if flow.outstanding > 0 {
                return;
            }
        }
        self.advance(run_id, parent);
    }

    fn record_node(&mut self, run_id: RunId, node_id: NodeId, outcome: StepOutcome) {
        self.obs.prof_enter(Phase::ProvenanceAppend);
        self.record_node_inner(run_id, node_id, outcome);
        self.obs.prof_exit(Phase::ProvenanceAppend);
    }

    fn record_node_inner(&mut self, run_id: RunId, node_id: NodeId, outcome: StepOutcome) {
        let run = self.run_ref(run_id);
        let node = run.node(node_id);
        let verb = match &node.body {
            NodeBody::Flow(_) => "flow".to_owned(),
            NodeBody::Step { spec, .. } => spec.operation.verb().to_owned(),
        };
        let span = node.span;
        let record = ProvenanceRecord {
            lineage: run.lineage.clone(),
            transaction: run.txn.clone(),
            node: run.path_of(node_id),
            name: node.name.clone(),
            verb,
            user: run.user.clone(),
            started: node.started,
            finished: node.finished,
            outcome,
            detail: node.message.clone().unwrap_or_default(),
            trace_id: span.map(|s| s.trace.0),
            span_id: span.map(|s| s.span.0),
        };
        let is_step = node.is_step();
        let finished = node.finished;
        // Close the node's span where the node finished; the provenance
        // record above carries the (trace, span) join key.
        if let Some(ctx) = span {
            self.obs.span_attr(ctx, "outcome", outcome.as_str());
            self.obs.span_end_at(ctx, finished);
        }
        let duration = record.finished.since(record.started);
        self.obs.record(ObsKind::ProvenanceWrite {
            txn: record.transaction.clone(),
            node: record.node.clone(),
            verb: record.verb.clone(),
            outcome: outcome.as_str().into(),
        });
        self.obs.inc("engine", "provenance.writes");
        if is_step {
            self.obs.record(ObsKind::StepFinished {
                txn: record.transaction.clone(),
                node: record.node.clone(),
                name: record.name.clone(),
                outcome: outcome.as_str().into(),
            });
            self.obs.observe("engine", "step.duration", duration);
            let run_scope = format!("run:{}", record.transaction);
            self.obs.inc(&run_scope, &format!("steps.{}", outcome.as_str()));
            self.obs.observe(&run_scope, "step.duration", duration);
            // A finished step advances the flow's progress watermark
            // (the watchdog's definition of liveness).
            self.obs.health_progress(&record.transaction, finished);
        }
        if self.journal_transition(|| recovery::transition("provenance").with_child(record.to_element())) {
            self.provenance.record(record);
        }
    }

    /// The one place a run ends, once its root has reached terminal
    /// `state` and been recorded: the `runs.completed`/`runs.failed`
    /// count, the run-duration sample and the terminal flight-recorder
    /// event; the flow leaves the watchdog, its SLA alert resolves and
    /// its critical path is derived.
    fn finish_run(&mut self, run_id: RunId, state: RunState) {
        match state {
            RunState::Completed => self.obs.inc("engine", "runs.completed"),
            RunState::Failed => self.obs.inc("engine", "runs.failed"),
            _ => {}
        }
        let run = self.run_ref(run_id);
        let root = &run.nodes[0];
        let duration = root.finished.since(root.started);
        let finished = root.finished;
        let txn = run.txn.clone();
        let root_span = root.span;
        self.obs.observe("engine", "run.duration", duration);
        self.obs.record(ObsKind::RunFinished { txn: txn.clone(), state: state.as_str().into() });
        // Terminal flows leave the watchdog's watch list.
        self.obs.health_finish(&txn);
        // Resolve the flow's SLA alert: burn freezes at the terminal
        // instant, and `breached` records whether the flow ran past
        // its deadline. Journaled like the firing, so recovery replays
        // the full lifecycle byte-identically.
        if let Some(alert) = self.obs.why_alert(&txn) {
            if alert.state != dgf_dgl::AlertState::Resolved {
                let breached = finished > alert.deadline;
                let burn = alert.burn_ppm(finished);
                self.obs.record(ObsKind::SlaAlert {
                    txn: txn.clone(),
                    class: alert.class.clone(),
                    state: dgf_dgl::AlertState::Resolved,
                    burn_ppm: burn,
                });
                if self.journal_transition(|| {
                    recovery::transition("alert")
                        .with_attr("txn", &txn)
                        .with_attr("state", "resolved")
                        .with_attr("breached", breached.to_string())
                        .with_attr("burnPpm", burn.to_string())
                }) {
                    self.obs.why_resolve_alert(&txn, finished, breached);
                }
            }
        }
        // Attribution: the root span was closed by the provenance
        // write just before this call; derive and retain the flow's
        // critical path. A pure function of spans + wait marks, so
        // recovery re-derives it — nothing to journal.
        if let Some(root) = root_span {
            self.obs.why_flow_finished(root);
        }
    }

    /// Run a node's user-defined rule with the given reserved name.
    ///
    /// Appendix A semantics: the tcondition is evaluated; the action
    /// whose *name* equals the result runs. A boolean `true` with a
    /// single action also selects it (the common unconditional case).
    /// Rule-action steps execute inline and atomically (entry/exit hooks
    /// are bookkeeping-weight: metadata, notifications, assignments).
    fn run_rules(&mut self, run_id: RunId, node_id: NodeId, rule_name: &str) -> Result<(), DfmsError> {
        let rules: Vec<UserDefinedRule> = {
            let run = self.run_ref(run_id);
            let node = run.node(node_id);
            let rules = match &node.body {
                NodeBody::Flow(flow) => &flow.spec.logic.rules,
                NodeBody::Step { spec, .. } => &spec.rules,
            };
            rules.iter().filter(|r| r.name == rule_name).cloned().collect()
        };
        for rule in rules {
            let scope = self.run_ref(run_id).node(node_id).scope.clone();
            let value = rule.condition.eval(&scope).map_err(DfmsError::from)?;
            let selected = rule
                .actions
                .iter()
                .find(|a| a.name == value.to_string())
                .or_else(|| {
                    if value.truthy() && rule.actions.len() == 1 {
                        Some(&rule.actions[0])
                    } else {
                        None
                    }
                })
                .cloned();
            if let Some(action) = selected {
                for step in &action.steps {
                    self.run_inline_step(run_id, node_id, step)?;
                }
            }
        }
        Ok(())
    }

    /// Execute one rule-action step synchronously at the current instant.
    fn run_inline_step(&mut self, run_id: RunId, node_id: NodeId, step: &Step) -> Result<(), DfmsError> {
        let now = self.now();
        let scope = self.run_ref(run_id).node(node_id).scope.clone();
        match &step.operation {
            DglOperation::Notify { message } => {
                let rendered = interpolate(message, &scope)?;
                let txn = self.run_ref(run_id).txn.clone();
                self.notifications.push(Notification { time: now, source: txn, message: rendered });
            }
            DglOperation::Assign { variable, expr } => {
                let value = expr.eval(&scope)?;
                self.run_mut(run_id).node_mut(node_id).scope.assign(variable, value);
            }
            DglOperation::Execute { .. } => {
                return Err(DfmsError::Dgl(dgf_dgl::DglError::Invalid(
                    "execute operations are not allowed in rule actions".into(),
                )));
            }
            other => {
                let user = self.run_ref(run_id).user.clone();
                let op = self.build_dgms_op(other, &scope)?;
                self.grid.execute(&user, op, now)?;
                self.obs.inc("engine", "dgms.ops");
                let node_span = self.run_ref(run_id).node(node_id).span;
                self.after_events(run_id, node_span);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // ILM jobs
    // ------------------------------------------------------------------

    fn ilm_due(&mut self, job_idx: usize) {
        let Some(job) = self.ilm_jobs.get(job_idx).cloned() else { return };
        let now = self.now();
        // Submit this period's run, window-constrained, as the job's user.
        let options = RunOptions { window: Some(job.window.clone()), ..Default::default() };
        let _ = self.submit_flow_with(&job.run_as, job.flow.clone(), options);
        let next = job.start_after(now);
        self.queue.schedule_at(next, Work::IlmDue { job: job_idx });
    }

    // ------------------------------------------------------------------
    // Journaling and crash recovery (see docs/RECOVERY.md)
    // ------------------------------------------------------------------

    /// Inject an infrastructure failure (or repair). Journaled as a
    /// command, so recovery replays the same outage timeline the live
    /// engine experienced.
    pub fn apply_failure_event(&mut self, event: FailureEvent) {
        let el = self.should_journal().then(|| recovery::failure_element(&event));
        self.with_command(el, |e| event.apply(e.grid.topology_mut()));
    }

    /// Should the current call journal itself as a command? Only
    /// top-level (depth-0) calls on a journaled engine that is not
    /// replaying: nested calls — trigger-spawned flows, the pump inside
    /// a synchronous `handle`, ILM submissions — are effects their
    /// parent command re-derives.
    fn should_journal(&self) -> bool {
        self.cmd_depth == 0 && self.journal.as_ref().map(|j| j.replay.is_none()).unwrap_or(false)
    }

    /// Run `f` as a command, journaling `el` *first* when present —
    /// write-ahead, so a crash mid-command replays the command to
    /// completion instead of losing it halfway.
    fn with_command<T>(&mut self, el: Option<Element>, f: impl FnOnce(&mut Self) -> T) -> T {
        if let Some(el) = el {
            self.journal_append_command(el);
        }
        self.cmd_depth += 1;
        let out = f(self);
        self.cmd_depth -= 1;
        if self.cmd_depth == 0 {
            self.maybe_auto_checkpoint();
        }
        out
    }

    /// Append a command record. A journal failure must not take the
    /// engine down mid-flow: it is counted on the `journal` metrics
    /// scope and execution proceeds (unjournaled until the disk heals).
    fn journal_append_command(&mut self, el: Element) {
        let appended = self.journal_write(|j| {
            let appended = j.journal.as_mut()?.append(el).is_ok();
            j.commands_since_checkpoint += u64::from(appended);
            Some(appended)
        });
        if appended.flatten() == Some(false) {
            self.obs.inc("journal", "errors");
        }
    }

    /// Journal one derived effect — or, during replay, log it for the
    /// divergence check. `body` builds the transition's element, and
    /// runs only when a journal is attached: an unjournaled engine
    /// builds no XML. Returns whether the transition's effect should
    /// apply: `false` only once a time-travel replay has derived past
    /// its ordinal limit (callers then suppress the provenance write).
    fn journal_transition(&mut self, body: impl FnOnce() -> Element) -> bool {
        match self.journal_write(|j| j.on_transition(body())) {
            None => true,
            Some(Ok(apply)) => apply,
            Some(Err(_)) => {
                self.obs.inc("journal", "errors");
                true
            }
        }
    }

    /// Run `write` on the attached journal inside the `journal-append`
    /// phase, then record the fsyncs it triggered as that phase's
    /// `journal-fsync` leaf. `None`, and no phase entered, when no
    /// journal is attached.
    fn journal_write<T>(&mut self, write: impl FnOnce(&mut EngineJournal) -> T) -> Option<T> {
        let j = self.journal.as_mut()?;
        self.obs.prof_enter(Phase::JournalAppend);
        let out = write(j);
        let (sync_calls, sync_nanos) = j.journal.as_mut().map_or((0, 0), Journal::take_sync_profile);
        self.obs.prof_record_leaf(Phase::JournalFsync, sync_calls, sync_nanos);
        self.obs.prof_exit(Phase::JournalAppend);
        Some(out)
    }

    /// Has a time-travel replay derived past its ordinal limit? Pump
    /// loops and the replay command script stop as soon as this turns
    /// true, freezing the engine at the requested ordinal.
    pub(crate) fn replay_halted(&self) -> bool {
        self.journal
            .as_ref()
            .and_then(|j| j.replay.as_ref())
            .map(|r| r.past_limit)
            .unwrap_or(false)
    }

    /// Write an automatic checkpoint when enough commands accumulated.
    fn maybe_auto_checkpoint(&mut self) {
        let due = self
            .journal
            .as_ref()
            .map(|j| {
                j.replay.is_none()
                    && j.config.checkpoint_every != 0
                    && j.commands_since_checkpoint >= j.config.checkpoint_every
            })
            .unwrap_or(false);
        if due && self.checkpoint().is_err() {
            self.obs.inc("journal", "errors");
        }
    }

    /// Write a checkpoint — the engine clock, the transaction counter
    /// and a summary of the live runs — and compact the journal behind
    /// it. The checkpoint holds no provenance:
    /// every provenance record is journaled once, as a `provenance`
    /// transition that compaction keeps, so a checkpoint costs the same
    /// late in a run as early on. Returns the checkpoint's sequence
    /// number, or `None` when no journal is attached (or replay is in
    /// progress).
    ///
    /// Once the checkpoint record is appended it counts, on the
    /// `journal/checkpoints` metric and for the automatic cadence, even
    /// if the compaction behind it fails; that failure is still
    /// returned.
    pub fn checkpoint(&mut self) -> Result<Option<u64>, DfmsError> {
        if self.journal.as_ref().is_none_or(|j| j.replay.is_some()) {
            return Ok(None);
        }
        let el = self.checkpoint_element();
        let written = self.journal_write(|j| {
            let journal = j.journal.as_mut()?;
            let appended = journal.append(el);
            let compacted = match &appended {
                Ok(seq) => journal.compact(*seq).map(|_| ()),
                _ => Ok(()),
            };
            if appended.is_ok() {
                j.commands_since_checkpoint = 0;
            }
            Some((appended, compacted))
        });
        let Some((appended, compacted)) = written.flatten() else { return Ok(None) };
        let seq = appended?;
        self.obs.inc("journal", "checkpoints");
        compacted?;
        Ok(Some(seq))
    }

    /// The `<checkpoint>` body: engine clock, transaction counter, and
    /// one `<flow>` summary per live run. Runs found terminal leave
    /// `live_runs` here, so the body tracks live work, not history.
    fn checkpoint_element(&mut self) -> Element {
        self.prune_finished_runs();
        let mut flows = Element::new("flows");
        for id in &self.live_runs {
            let run = &self.runs[id.0 as usize];
            let (done, total) = run.progress(run.root());
            flows.push_element(
                Element::new("flow")
                    .with_attr("transaction", &run.txn)
                    .with_attr("lineage", &run.lineage)
                    .with_attr("state", run.state().to_string())
                    .with_attr("stepsCompleted", done.to_string())
                    .with_attr("stepsTotal", total.to_string()),
            );
        }
        Element::new("checkpoint")
            .with_attr("time", self.now().0.to_string())
            .with_attr("nextTxn", self.next_txn.to_string())
            .with_child(flows)
    }

    /// Drop the runs whose root reached a terminal state from
    /// `live_runs`, counting each in `finished_runs`. A terminal root
    /// never leaves its state, so a pruned run is never looked at again.
    fn prune_finished_runs(&mut self) {
        let runs = &self.runs;
        let finished = &mut self.finished_runs;
        self.live_runs.retain(|id| {
            let state = runs[id.0 as usize].nodes[0].state;
            if state.is_terminal() {
                finished[flow_state_slot(state)] += 1;
            }
            !state.is_terminal()
        });
    }

    /// Attach a fresh write-ahead journal at `path`.
    ///
    /// `label` pins the engine configuration: [`Dfms::recover`] refuses
    /// a journal whose genesis label differs from the one it is handed,
    /// because replay against a differently configured engine would
    /// silently diverge. Configure the grid, triggers, procedures, and
    /// ILM jobs *before* attaching — the factory passed to `recover`
    /// must rebuild exactly that state.
    ///
    /// Fails if a journal is already attached or `path` already holds
    /// records (recover from those instead).
    pub fn attach_journal(&mut self, path: &Path, label: &str, config: JournalConfig) -> Result<(), DfmsError> {
        if self.journal.is_some() {
            return Err(DfmsError::Recovery("a journal is already attached".into()));
        }
        let (journal, records, _) = Journal::open(path, config.sync)?;
        if !records.is_empty() {
            return Err(DfmsError::Recovery(format!(
                "{} already holds {} records; use Dfms::recover to replay them",
                path.display(),
                records.len()
            )));
        }
        self.journal = Some(EngineJournal::create(journal, label, config)?);
        Ok(())
    }

    /// Rebuild an engine from its journal after a crash.
    ///
    /// `factory` must build the same pre-journal configuration the dead
    /// engine had (same grid, scheduler, triggers, procedures, ILM
    /// jobs); `label` must match the journal's genesis label. Recovery
    /// opens the journal (truncating any torn tail), re-applies every
    /// journaled command in order — re-deriving all internal state,
    /// span ids included — verifies the re-derived transitions against
    /// the journaled ones, writes a fresh checkpoint, and returns the
    /// recovered engine with its [`dgf_dgl::RecoveryReport`].
    ///
    /// An empty or absent journal file degenerates to
    /// [`Dfms::attach_journal`]: the factory engine is returned as-is,
    /// journaled from now on.
    pub fn recover(
        path: &Path,
        label: &str,
        config: JournalConfig,
        factory: impl FnOnce() -> Dfms,
    ) -> Result<(Dfms, dgf_dgl::RecoveryReport), DfmsError> {
        let (journal, records, open) = Journal::open(path, config.sync)?;
        let (mut engine, replayed) =
            Self::replay_journal(factory, "recovery", records, label, Some(journal), config, None)?;
        if let Some((replay, commands_replayed)) = replayed {
            // Verify re-derived transitions against the journaled ones.
            // The ordinal `n` aligns them across compactions (compaction
            // drops old transitions, never renumbers the survivors).
            let divergences = replay
                .expected
                .iter()
                .filter(|(n, xml)| {
                    usize::try_from(*n).ok().and_then(|i| replay.derived.get(i)).map(String::as_str) != Some(xml)
                })
                .count() as u64;
            engine.last_replay = Some(dgf_dgl::ReplayStats {
                truncated_bytes: open.truncated_bytes,
                commands_replayed,
                records_matched: replay.expected.len() as u64 - divergences,
                divergences,
                steps_skipped_restart: replay.skips,
            });
            // Every `provenance` transition survives compaction, so those
            // derived past the newest ordinal in the file are exactly the
            // ones the crash cut off the tail.
            let journaled = replay.expected.last().map_or(0, |(n, _)| n.saturating_add(1));
            engine.rejournal_provenance(&replay.derived, journaled);
            // Checkpoint the recovered engine's live runs and compact
            // the journal behind it.
            engine.checkpoint()?;
        }
        let report = engine.recovery_query();
        Ok((engine, report))
    }

    /// The replay driver behind [`Dfms::recover`] and
    /// [`Dfms::recover_to`]: build the engine with `factory` (which must
    /// not attach a journal; `caller` names the entry point in that
    /// error), then re-apply the journaled commands in `records`.
    ///
    /// `journal` is the journal opened for writing that recovery goes on
    /// appending to, or `None` for a read-only replay. `limit` halts the
    /// replay after that since-genesis transition ordinal. Returns the
    /// engine, its journal state still attached, with the finished
    /// [`ReplayState`] and the number of commands applied. An empty
    /// journal has nothing to replay: a writable one is attached as-is.
    pub(crate) fn replay_journal(
        factory: impl FnOnce() -> Dfms,
        caller: &str,
        records: Vec<dgf_journal::Record>,
        label: &str,
        journal: Option<Journal>,
        config: JournalConfig,
        limit: Option<u64>,
    ) -> Result<(Dfms, Option<(ReplayState, u64)>), DfmsError> {
        let mut engine = factory();
        if engine.journal.is_some() {
            return Err(DfmsError::Recovery(format!("the {caller} factory must build an unjournaled engine")));
        }
        if records.is_empty() {
            if let Some(journal) = journal {
                engine.journal = Some(EngineJournal::create(journal, label, config)?);
            }
            return Ok((engine, None));
        }
        recovery::check_genesis(&records, label)?;
        // Partition the journal: commands are the replay script,
        // transitions the expectations, the `provenance` transitions
        // (which compaction keeps) the completed-step memo.
        let (commands, expected, memo) = recovery::partition(records);
        debug_assert!(
            recovery::ordinals_aligned(&expected),
            "journal transition ordinals are not strictly increasing — compaction renumbered?"
        );
        engine.journal = Some(EngineJournal {
            journal,
            config,
            label: label.to_owned(),
            commands_since_checkpoint: 0,
            transitions_written: 0,
            replay: Some(ReplayState::new(memo, expected, limit)),
        });
        let applied = engine.drive_replay(&commands);
        let replay = engine.take_replay().expect("installed above");
        Ok((engine, Some((replay, applied))))
    }

    /// Append the `provenance` transitions among `derived[from..]` —
    /// re-derived by replay, missing from the journal — with their
    /// original ordinals, so the file stays the complete provenance
    /// copy the next recovery's completed-step memo reads. Append
    /// failures count on `journal/errors`, like any other.
    fn rejournal_provenance(&mut self, derived: &[String], from: u64) {
        let Some(journal) = self.journal.as_mut().and_then(|j| j.journal.as_mut()) else { return };
        let from = usize::try_from(from).map_or(derived.len(), |from| from.min(derived.len()));
        let mut errors = 0;
        for xml in &derived[from..] {
            match dgf_xml::parse(xml) {
                Ok(el) if el.attr("kind") == Some("provenance") => errors += u64::from(journal.append(el).is_err()),
                _ => {}
            }
        }
        if errors > 0 {
            self.obs.add("journal", "errors", errors);
        }
    }

    /// Drive the replay script: re-apply journaled commands in order,
    /// stopping early if a time-travel ordinal limit halts the replay
    /// mid-script (without a limit the halt never fires). Returns the
    /// number of commands applied before the halt.
    fn drive_replay(&mut self, commands: &[Element]) -> u64 {
        let mut applied = 0;
        for cmd in commands {
            if self.replay_halted() {
                break;
            }
            self.apply_command(cmd);
            applied += 1;
        }
        applied
    }

    /// Finish a replay: detach the [`ReplayState`] and reset the
    /// since-genesis transition counter to the *re-derived* count (not
    /// the record count the compacted file retains).
    fn take_replay(&mut self) -> Option<ReplayState> {
        let j = self.journal.as_mut()?;
        let replay = j.replay.take()?;
        j.transitions_written = replay.derived.len() as u64;
        Some(replay)
    }

    /// Re-apply one journaled command during replay. Unknown kinds are
    /// skipped (forward compatibility), and per-command errors are
    /// ignored: a command that failed live fails identically on replay.
    fn apply_command(&mut self, el: &Element) {
        match el.attr("kind") {
            Some("handle") => {
                if let Some(req) = el.child("dataGridRequest").and_then(|c| DataGridRequest::from_element(c).ok())
                {
                    let _ = self.handle(req);
                }
            }
            Some("submit") => {
                if let Some(req) = el.child("dataGridRequest").and_then(|c| DataGridRequest::from_element(c).ok())
                {
                    let _ = self.submit(req);
                }
            }
            Some("submitFlow") => {
                let user = el.attr("user").unwrap_or("").to_owned();
                let options = recovery::options_from_element(el.child("options"));
                if let Some(flow) = el.child("flow").and_then(|c| Flow::from_element(c).ok()) {
                    let _ = self.submit_flow_with(&user, flow, options);
                }
            }
            Some("procedure") => {
                let name = el.attr("name").unwrap_or("").to_owned();
                if let Some(flow) = el.child("flow").and_then(|c| Flow::from_element(c).ok()) {
                    let _ = self.register_procedure(name, flow);
                }
            }
            Some("call") => {
                let user = el.attr("user").unwrap_or("").to_owned();
                let proc = el.attr("proc").unwrap_or("").to_owned();
                let args: Vec<(String, String)> = el
                    .children_named("arg")
                    .filter_map(|a| Some((a.attr("name")?.to_owned(), a.attr("value")?.to_owned())))
                    .collect();
                let arg_refs: Vec<(&str, &str)> = args.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
                let _ = self.call_procedure(&user, &proc, &arg_refs);
            }
            Some("pause") => {
                let _ = self.pause(el.attr("txn").unwrap_or(""));
            }
            Some("resume") => {
                let _ = self.resume(el.attr("txn").unwrap_or(""));
            }
            Some("stop") => {
                let _ = self.stop(el.attr("txn").unwrap_or(""));
            }
            Some("restart") => {
                let _ = self.restart(el.attr("txn").unwrap_or(""));
            }
            Some("pump") => {
                self.pump();
            }
            Some("pumpTxn") => {
                self.pump_until_terminal(el.attr("txn").unwrap_or(""));
            }
            Some("pumpUntil") => {
                if let Some(us) = el.attr("until").and_then(|v| v.parse().ok()) {
                    self.pump_until(SimTime(us));
                }
            }
            Some("classObjective") => {
                if let (Some(class), Some(us)) =
                    (el.attr("class"), el.attr("budgetUs").and_then(|v| v.parse().ok()))
                {
                    self.set_class_objective(class, Duration(us));
                }
            }
            Some("bindingMode") => {
                self.set_binding_mode(if el.attr("mode") == Some("early") {
                    BindingMode::Early
                } else {
                    BindingMode::Late
                });
            }
            Some("failure") => {
                if let Some(event) = recovery::failure_from_element(el) {
                    self.apply_failure_event(event);
                }
            }
            _ => {}
        }
    }

    /// Where the journal stands — and, when this engine was built by
    /// [`Dfms::recover`], how the replay went, per flow. This is the
    /// body behind the DGL `recoveryQuery` request.
    pub fn recovery_query(&self) -> dgf_dgl::RecoveryReport {
        let Some(journal) = self.journal.as_ref().and_then(|j| j.journal.as_ref()) else {
            return dgf_dgl::RecoveryReport::unjournaled(self.now().0);
        };
        dgf_dgl::RecoveryReport {
            time_us: self.now().0,
            journaled: true,
            journal_records: journal.records_in_file(),
            journal_bytes: journal.bytes(),
            last_checkpoint_seq: journal.last_checkpoint_seq(),
            replay: self.last_replay,
            flows: self.flow_summaries(),
        }
    }

    /// Per-flow state/progress summaries in submission order — the
    /// shape shared by the recovery and time-travel reports.
    pub fn flow_summaries(&self) -> Vec<dgf_dgl::FlowRecovery> {
        self.runs
            .iter()
            .map(|run| {
                let (done, total) = run.progress(run.root());
                let state = run.state();
                dgf_dgl::FlowRecovery {
                    transaction: run.txn.clone(),
                    lineage: run.lineage.clone(),
                    state,
                    steps_completed: done as u64,
                    steps_total: total as u64,
                    resumed: self.last_replay.is_some() && !state.is_terminal(),
                }
            })
            .collect()
    }

    /// The transaction of the first run submitted under `lineage`, if
    /// any — the run [`Dfms::flow_summaries`] lists first for it. A
    /// [`Dfms::restart`] adds a later run to the lineage and leaves this
    /// answer unchanged. One lookup, whatever the history.
    pub fn first_txn_of_lineage(&self, lineage: &str) -> Option<&str> {
        let id = self.lineage_index.get(lineage)?;
        Some(&self.runs[id.0 as usize].txn)
    }

    /// The current value of flow variable `name` in `txn`'s root scope
    /// (`None` for unknown transactions or undeclared variables). This
    /// is the probe behind variable bisection — "when did `i` first
    /// become 3?" — in the time-travel console.
    pub fn flow_variable(&self, txn: &str, name: &str) -> Option<Value> {
        let id = self.txn_index.get(txn)?;
        self.runs[id.0 as usize].nodes[0].scope.get(name).cloned()
    }

    /// Replay statistics when this engine was built by [`Dfms::recover`]
    /// (`None` on engines started fresh).
    pub fn last_replay(&self) -> Option<dgf_dgl::ReplayStats> {
        self.last_replay
    }
}

/// Spec child `idx` of `spec` as a node body, with its name. Only that
/// child is cloned: cloning the whole spec would make wide flows
/// quadratic.
fn spec_child(spec: &Flow, idx: usize) -> Option<(String, NodeBody)> {
    match &spec.children {
        Children::Flows(flows) => flows.get(idx).map(|f| (f.name.clone(), NodeBody::flow(f.clone()))),
        Children::Steps(steps) => steps.get(idx).map(|s| (s.name.clone(), NodeBody::Step { spec: s.clone(), attempts: 0 })),
    }
}

/// Loop iteration `i` of `spec`: a sequential wrapper flow over a copy
/// of the loop body. A for-each iteration's item is bound when the
/// wrapper starts.
fn iteration(spec: &Flow, i: usize) -> (String, NodeBody) {
    let name = format!("iter{i}");
    let wrapper = Flow {
        name: name.clone(),
        variables: Vec::new(),
        logic: dgf_dgl::FlowLogic::sequential(),
        children: spec.children.clone(),
    };
    (name, NodeBody::flow(wrapper))
}

/// Collect (runtime path, step) pairs for execute steps whose runtime
/// node path is statically known: sequential/parallel flows materialize
/// children at their spec indices, so those paths are predictable.
fn collect_execute_specs(flow: &Flow, prefix: &str, out: &mut Vec<(String, Step)>) {
    if !matches!(flow.logic.pattern, ControlPattern::Sequential | ControlPattern::Parallel) {
        return; // loop/switch bodies get runtime-dependent paths
    }
    match &flow.children {
        Children::Flows(flows) => {
            for (i, f) in flows.iter().enumerate() {
                collect_execute_specs(f, &format!("{prefix}/{i}"), out);
            }
        }
        Children::Steps(steps) => {
            for (i, s) in steps.iter().enumerate() {
                if matches!(s.operation, DglOperation::Execute { .. }) {
                    out.push((format!("{prefix}/{i}"), s.clone()));
                }
            }
        }
    }
}

/// Resolve an execute step's templates in `scope` to the abstract task
/// the scheduler binds. Late binding resolves at step start in the
/// node's scope; early binding at submission in the root scope, where a
/// step whose templates need runtime variables does not resolve (it
/// binds at start instead).
fn resolve_task(step: &Step, scope: &Scope, vo: Option<String>) -> Result<AbstractTask, DfmsError> {
    let DglOperation::Execute { code, nominal_secs, resource_type, inputs, outputs } = &step.operation else {
        unreachable!("tasks resolve from execute steps")
    };
    let code = interpolate(code, scope)?;
    let nominal_text = interpolate(nominal_secs, scope)?;
    let nominal = Value::from_text(&nominal_text)
        .as_f64()
        .filter(|s| *s >= 0.0)
        .map(Duration::from_secs_f64)
        .ok_or_else(|| DfmsError::Dgl(dgf_dgl::DglError::Invalid(format!("bad nominalSecs {nominal_text:?}"))))?;
    let requirement = match resource_type {
        None => ResourceReq::default(),
        Some(spec_text) => {
            let rendered = interpolate(spec_text, scope)?;
            ResourceReq::parse(&rendered)
                .ok_or_else(|| DfmsError::Dgl(dgf_dgl::DglError::Invalid(format!("bad resourceType {rendered:?}"))))?
        }
    };
    let inputs = inputs
        .iter()
        .map(|i| Ok(LogicalPath::parse(&interpolate(i, scope)?)?))
        .collect::<Result<Vec<_>, DfmsError>>()?;
    let outputs = outputs
        .iter()
        .map(|(p, s)| {
            let path = LogicalPath::parse(&interpolate(p, scope)?)?;
            let size_text = interpolate(s, scope)?;
            let size = Value::from_text(&size_text).as_i64().filter(|v| *v >= 0).ok_or_else(|| {
                DfmsError::Dgl(dgf_dgl::DglError::Invalid(format!("bad output size {size_text:?}")))
            })? as u64;
            Ok((path, size))
        })
        .collect::<Result<Vec<_>, DfmsError>>()?;
    Ok(AbstractTask { code, nominal, inputs, outputs, requirement, vo })
}

/// A flight-recorder event as the DGL reports carry it.
fn report_event(e: &dgf_obs::ObsEvent) -> dgf_dgl::ReportEvent {
    dgf_dgl::ReportEvent { time_us: e.time.0, seq: e.seq, kind: e.kind.name().to_owned(), detail: e.kind.detail() }
}

/// An SLA alert as the DGL reports carry it: dgf-obs keeps sim-time
/// values, the wire carries sim-µs. Burn is computed against `now` for
/// live alerts and frozen at resolution for resolved ones (see
/// [`dgf_obs::SlaAlert::burn_ppm`]).
fn why_alert_to_dgl(a: &dgf_obs::SlaAlert, now: SimTime) -> dgf_dgl::WhyAlert {
    dgf_dgl::WhyAlert {
        txn: a.txn.clone(),
        class: a.class.clone(),
        flow: a.flow.clone(),
        started_us: a.started.0,
        deadline_us: a.deadline.0,
        state: a.state,
        burn_ppm: a.burn_ppm(now),
        fired_at_us: a.fired_at.map(|t| t.0),
        resolved_at_us: a.resolved_at.map(|t| t.0),
        breached: a.breached,
    }
}
