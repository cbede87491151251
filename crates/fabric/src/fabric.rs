//! The fabric: N engine shards joined by a journaled virtual-time bus.
//!
//! Each shard is a complete [`Dfms`] serving one administrative domain
//! (one zone of the federated namespace), with its own engine WAL and
//! its own bus WAL. The fabric owns the shards by value — there is no
//! shared engine handle anywhere — and all cross-shard interaction
//! happens through [`BusEnvelope`]s that are journaled on both ends
//! before they take effect. Because every envelope carries the sender's
//! virtual clock and a fabric-global sequence number, and delivery
//! pumps the receiver to the envelope's virtual time before applying
//! it, a full-federation recovery replays the same deliveries in the
//! same order and rebuilds every shard byte-identically.

use crate::envelope::{BusEnvelope, BusPayload};
use crate::routing::{first_path, LookupService};
use crate::FabricError;
use dgf_dfms::{Dfms, DfmsError, JournalConfig, RunOptions};
use dgf_dgl::{
    Children, ControlPattern, DataGridRequest, DataGridResponse, FederatedFlow, FederationBus,
    FederationHandoff, FederationQuery, FederationReport, FederationShard, Flow, RequestAck,
    RequestBody, RequestMode, RunState, StatusReport,
};
use dgf_dgms::LogicalPath;
use dgf_journal::{Journal, Record, RecordKind};
use dgf_obs::{Obs, SpanContext, SpanKind};
use dgf_simgrid::SimTime;
use dgf_xml::Element;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Where a deliberate bus crash lands relative to the receiver-side
/// `recv` frame (chaos testing: every delivery has two kill points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusCrashPoint {
    /// Die before the receiver journals the envelope: the frame is in
    /// the sender's WAL only, so recovery must re-enqueue it.
    BeforeFrame,
    /// Die after the receiver journals the envelope but before it
    /// applies: recovery sees a `recv` frame with no engine evidence
    /// and must re-deliver.
    AfterFrame,
}

/// One engine shard: a complete DfMS plus its bus WAL.
#[derive(Debug)]
pub struct Shard {
    engine: Dfms,
    bus: Option<Journal>,
    sent: u64,
    received: u64,
}

/// One delegated sub-flow of a federated run.
#[derive(Debug)]
struct SubFlow {
    node: String,
    flow: Flow,
    owner: String,
    child_txn: Option<String>,
    state: RunState,
    steps_completed: u64,
    steps_total: u64,
    /// Last virtual time an ack for this sub applied at.
    ack_vt: u64,
    sent: bool,
    ack_published: bool,
    span: Option<SpanContext>,
}

/// One federated (cross-shard) run tracked by the routing front-end.
#[derive(Debug)]
struct FederatedRun {
    name: String,
    user: String,
    home: String,
    parallel: bool,
    state: RunState,
    subs: Vec<SubFlow>,
    span: Option<SpanContext>,
}

impl FederatedRun {
    /// A run as its `open` frame defines it, before any hand-off: every
    /// sub-flow pending on its owning shard, or on `home` when it touches
    /// no concrete path.
    fn new(
        name: String,
        user: String,
        home: String,
        parallel: bool,
        subs: &[Flow],
        owners: Vec<Option<String>>,
    ) -> Self {
        let subs = subs
            .iter()
            .zip(owners)
            .map(|(sub, owner)| SubFlow {
                node: sub.name.clone(),
                flow: sub.clone(),
                owner: owner.unwrap_or_else(|| home.clone()),
                child_txn: None,
                state: RunState::Pending,
                steps_completed: 0,
                steps_total: 0,
                ack_vt: 0,
                sent: false,
                ack_published: false,
                span: None,
            })
            .collect();
        let state = RunState::Running;
        FederatedRun { name, user, home, parallel, state, subs, span: None }
    }
}

enum Plan {
    Single(String),
    /// Each sub-flow's owner (see [`Fabric::sub_owners`]).
    Federated(Vec<Option<String>>),
}

/// The first record of every bus WAL.
fn bus_genesis(label: &str, shard: &str) -> Element {
    Element::new("genesis")
        .with_attr("label", label)
        .with_attr("shard", shard)
        .with_attr("bus", "true")
}

/// A federated multi-shard DfMS: shards, routing, and the bus.
#[derive(Debug)]
pub struct Fabric {
    shards: BTreeMap<String, Shard>,
    order: Vec<String>,
    lookup: LookupService,
    prefixes: BTreeMap<String, Vec<String>>,
    /// Engine and federated transactions → owning shard.
    txn_home: BTreeMap<String, String>,
    fed: BTreeMap<String, FederatedRun>,
    /// Sub-flows `(txn, index)` that were delegated, whose child is
    /// known and whose ack is not yet on the bus: the only ones a pump
    /// pass checks for a finished child.
    awaiting: BTreeSet<(String, usize)>,
    fed_counter: u64,
    bus_seq: u64,
    /// Published, undelivered envelopes in delivery order (vt, seq).
    in_flight: BTreeMap<(u64, u64), BusEnvelope>,
    crash: Option<(u64, BusCrashPoint)>,
    deliveries: u64,
    obs: Obs,
    dir: Option<PathBuf>,
    label: String,
    config: JournalConfig,
}

impl Default for Fabric {
    fn default() -> Self {
        Fabric::new()
    }
}

impl Fabric {
    /// An in-memory fabric: no WALs, same routing and bus semantics
    /// (benchmarks, exploratory tests).
    pub fn new() -> Self {
        Fabric {
            shards: BTreeMap::new(),
            order: Vec::new(),
            lookup: LookupService::default(),
            prefixes: BTreeMap::new(),
            txn_home: BTreeMap::new(),
            fed: BTreeMap::new(),
            awaiting: BTreeSet::new(),
            fed_counter: 0,
            bus_seq: 1,
            in_flight: BTreeMap::new(),
            crash: None,
            deliveries: 0,
            obs: Obs::new(dgf_obs::DEFAULT_RING_CAPACITY),
            dir: None,
            label: "fabric".to_owned(),
            config: JournalConfig::default(),
        }
    }

    /// A journaled fabric rooted at `dir`: every shard added gets an
    /// engine WAL (`<name>.engine.dgj`) and a bus WAL
    /// (`<name>.bus.dgj`) under the directory, all sharing `label`.
    pub fn journaled(dir: &Path, label: &str, config: JournalConfig) -> Self {
        let mut fabric = Fabric::new();
        fabric.dir = Some(dir.to_owned());
        fabric.label = label.to_owned();
        fabric.config = config;
        fabric
    }

    /// Add a shard serving the namespace under `prefixes`. The engine
    /// is owned by value from here on; in a journaled fabric it gets a
    /// fresh engine WAL and bus WAL (use [`Fabric::recover`] to reopen
    /// existing ones).
    pub fn add_shard(&mut self, name: &str, prefixes: &[&str], mut engine: Dfms) -> Result<(), FabricError> {
        if self.shards.contains_key(name) {
            return Err(FabricError::Config(format!("shard {name:?} already exists")));
        }
        let bus = if let Some(dir) = self.dir.clone() {
            engine.attach_journal(&dir.join(format!("{name}.engine.dgj")), &self.label, self.config)?;
            let (mut journal, records, _) = Journal::open(&dir.join(format!("{name}.bus.dgj")), self.config.sync)?;
            if !records.is_empty() {
                return Err(FabricError::Config(format!(
                    "shard {name:?} has an existing bus WAL; boot it with Fabric::recover"
                )));
            }
            journal.append(bus_genesis(&self.label, name))?;
            Some(journal)
        } else {
            None
        };
        self.insert_shard(name, prefixes, engine, bus)
    }

    fn insert_shard(
        &mut self,
        name: &str,
        prefixes: &[&str],
        engine: Dfms,
        bus: Option<Journal>,
    ) -> Result<(), FabricError> {
        let mut parsed_prefixes = Vec::new();
        for p in prefixes {
            let parsed = LogicalPath::parse(p)
                .map_err(|_| FabricError::Config(format!("shard {name:?} has an unparsable prefix {p:?}")))?;
            self.lookup.register(parsed, name);
            parsed_prefixes.push((*p).to_owned());
        }
        self.prefixes.insert(name.to_owned(), parsed_prefixes);
        self.order.push(name.to_owned());
        self.shards
            .insert(name.to_owned(), Shard { engine, bus, sent: 0, received: 0 });
        Ok(())
    }

    /// Shard names, in registration order.
    pub fn shard_names(&self) -> &[String] {
        &self.order
    }

    /// Read-only access to a shard's engine (operators, tests). There
    /// is deliberately no mutable or shared counterpart: shards change
    /// only through routed requests and bus deliveries.
    pub fn engine(&self, shard: &str) -> Option<&Dfms> {
        self.shards.get(shard).map(|s| &s.engine)
    }

    /// The fabric's own observability plane: cross-shard flow and
    /// hand-off spans, bus counters. Distinct from every per-shard
    /// engine recorder, and rebuilt from the bus WALs on recovery. Routes
    /// are not in the bus WALs, so `fabric/requests.routed` counts only
    /// the routes this process made.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Published, undelivered envelopes.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Arm a deliberate crash at delivery number `delivery` (1-based,
    /// fabric lifetime), at the given point. The pump in flight returns
    /// [`FabricError::CrashInjected`]; the fabric object must then be
    /// discarded and rebooted with [`Fabric::recover`], exactly like a
    /// process kill.
    pub fn inject_bus_crash(&mut self, delivery: u64, point: BusCrashPoint) {
        self.crash = Some((delivery, point));
    }

    /// Deliveries attempted so far (the crash-injection clock).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    fn now_of(&self, shard: &str) -> u64 {
        self.shards.get(shard).map(|s| s.engine.now().0).unwrap_or(0)
    }

    fn max_vt(&self) -> u64 {
        self.shards.values().map(|s| s.engine.now().0).max().unwrap_or(0)
    }

    fn append_bus(&mut self, shard: &str, frame: Element) -> Result<(), FabricError> {
        let entry = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| FabricError::UnknownShard(shard.to_owned()))?;
        if let Some(bus) = entry.bus.as_mut() {
            bus.append(frame)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Route a request to its owning shard — or answer it at the
    /// fabric level when it is federated (a cross-domain flow, a
    /// status query for a federated transaction, a federation query).
    /// Returns the name of the answering shard (`"fabric"` for
    /// fabric-level answers) and the response.
    pub fn route(&mut self, request: DataGridRequest) -> Result<(String, DataGridResponse), FabricError> {
        self.obs.inc("fabric", "requests.routed");
        match &request.body {
            RequestBody::Flow(flow) => match self.plan(flow)? {
                Plan::Single(shard) => self.handle_on(&shard, request),
                Plan::Federated(owners) => self.submit_federated(request, owners),
            },
            RequestBody::StatusQuery(q) => {
                if self.fed.contains_key(&q.transaction) {
                    let txn = q.transaction.clone();
                    let report = self.federated_status(&txn);
                    Ok(("fabric".to_owned(), DataGridResponse::status(&request.id, report)))
                } else if let Some((shard, bare)) = q.transaction.split_once('/') {
                    // Shard-qualified id ("sdsc/t1"): explicit routing,
                    // immune to per-shard transaction-id collisions.
                    let (shard, bare) = (shard.to_owned(), bare.to_owned());
                    let mut request = request;
                    if let RequestBody::StatusQuery(q) = &mut request.body {
                        q.transaction = bare;
                    }
                    self.handle_on(&shard, request)
                } else {
                    let shard = self.home_of(&q.transaction)?;
                    self.handle_on(&shard, request)
                }
            }
            RequestBody::Federation(q) => {
                let report = self.federation_report(&q.clone());
                Ok(("fabric".to_owned(), DataGridResponse::federation(&request.id, report)))
            }
            // A why query scoped to a transaction follows it home
            // (shard-qualified ids route explicitly); everything else
            // grid-global answers from the first shard.
            RequestBody::Why(w) => {
                if let Some((shard, bare)) = w.flow.as_deref().and_then(|f| f.split_once('/')) {
                    let (shard, bare) = (shard.to_owned(), bare.to_owned());
                    let mut request = request;
                    if let RequestBody::Why(w) = &mut request.body {
                        w.flow = Some(bare);
                    }
                    return self.handle_on(&shard, request);
                }
                let shard = match &w.flow {
                    Some(txn) => self.home_of(txn)?,
                    None => self
                        .order
                        .first()
                        .cloned()
                        .ok_or_else(|| FabricError::Dfms(DfmsError::NoRoute("fabric has no shards".into())))?,
                };
                self.handle_on(&shard, request)
            }
            RequestBody::Telemetry(_)
            | RequestBody::Validation(_)
            | RequestBody::Recovery(_)
            | RequestBody::TimeTravel(_)
            | RequestBody::Profile(_) => {
                let shard = self
                    .order
                    .first()
                    .cloned()
                    .ok_or_else(|| FabricError::Dfms(DfmsError::NoRoute("fabric has no shards".into())))?;
                self.handle_on(&shard, request)
            }
        }
    }

    fn handle_on(&mut self, shard: &str, request: DataGridRequest) -> Result<(String, DataGridResponse), FabricError> {
        let request_id = request.id.clone();
        let entry = self
            .shards
            .get_mut(shard)
            .ok_or_else(|| FabricError::UnknownShard(shard.to_owned()))?;
        let span = self.obs.span_start(SpanKind::Request, &request_id, None);
        self.obs.span_attr(span, "shard", shard);
        let response = entry.engine.handle(request);
        self.obs.span_end(span);
        if !response.transaction().is_empty() {
            let txn = response.transaction().to_owned();
            self.note_txn_home(txn, shard);
        }
        Ok((shard.to_owned(), response))
    }

    /// Record which shard answers for `txn`. Engines number their own
    /// transactions, so two shards can both have a `t1`; a colliding id
    /// is remembered as ambiguous (empty home) and unqualified queries
    /// for it are refused until the caller qualifies (`shard/txn`).
    fn note_txn_home(&mut self, txn: String, shard: &str) {
        match self.txn_home.get(&txn) {
            Some(prev) if prev != shard => {
                self.txn_home.insert(txn, String::new());
            }
            _ => {
                self.txn_home.insert(txn, shard.to_owned());
            }
        }
    }

    /// Resolve an unqualified transaction id to its home shard,
    /// refusing ids that exist on more than one shard.
    fn home_of(&self, txn: &str) -> Result<String, FabricError> {
        let home = self
            .txn_home
            .get(txn)
            .ok_or_else(|| FabricError::Dfms(DfmsError::UnknownTransaction(txn.to_owned())))?;
        if home.is_empty() {
            return Err(FabricError::Config(format!(
                "transaction {txn:?} exists on more than one shard; qualify it as \"<shard>/{txn}\""
            )));
        }
        Ok(home.clone())
    }

    /// Decide how a flow routes: whole to one shard, or federated
    /// across the owners of its sub-flows. A flow federates when it is
    /// a sequential or parallel composition of sub-flows owned by at
    /// least two different shards; a sub-flow that touches no concrete
    /// path inherits the home shard (the owner of the first routable
    /// sub).
    fn plan(&self, flow: &Flow) -> Result<Plan, FabricError> {
        if let Children::Flows(subs) = &flow.children {
            let composable =
                matches!(flow.logic.pattern, ControlPattern::Sequential | ControlPattern::Parallel);
            if composable && !subs.is_empty() {
                let owners = self.sub_owners(subs)?;
                let distinct: BTreeSet<&String> = owners.iter().flatten().collect();
                if distinct.len() >= 2 {
                    return Ok(Plan::Federated(owners));
                }
            }
        }
        let path = first_path(flow)
            .ok_or_else(|| FabricError::Dfms(DfmsError::NoRoute("flow touches no logical path".into())))?;
        Ok(Plan::Single(self.owner_of(&path)?))
    }

    /// The shard owning each sub-flow, in order: `None` for a sub-flow
    /// that touches no concrete path. Submission and recovery's rebuild
    /// both derive a federated run's owners here.
    fn sub_owners(&self, subs: &[Flow]) -> Result<Vec<Option<String>>, FabricError> {
        subs.iter().map(|sub| first_path(sub).map(|path| self.owner_of(&path)).transpose()).collect()
    }

    fn owner_of(&self, path: &str) -> Result<String, FabricError> {
        let parsed = LogicalPath::parse(path)
            .map_err(|_| FabricError::Dfms(DfmsError::NoRoute(format!("unroutable path template {path:?}"))))?;
        Ok(self
            .lookup
            .lookup(&parsed)
            .ok_or_else(|| FabricError::Dfms(DfmsError::NoRoute(parsed.to_string())))?
            .to_owned())
    }

    // ------------------------------------------------------------------
    // Federated submission
    // ------------------------------------------------------------------

    fn submit_federated(
        &mut self,
        request: DataGridRequest,
        owners: Vec<Option<String>>,
    ) -> Result<(String, DataGridResponse), FabricError> {
        let RequestBody::Flow(flow) = &request.body else {
            return Err(FabricError::Config("submit_federated needs a flow body".into()));
        };
        let Children::Flows(subs) = &flow.children else {
            return Err(FabricError::Config("a federated flow composes sub-flows".into()));
        };
        self.fed_counter += 1;
        let txn = format!("x{}", self.fed_counter);
        let home = owners.iter().flatten().next().expect("a federated plan has owners").clone();
        let parallel = matches!(flow.logic.pattern, ControlPattern::Parallel);
        let vt = self.now_of(&home);

        // Write-ahead: the open frame lands in the home shard's bus WAL
        // before any fabric state changes, so recovery always knows the
        // run existed (and can re-derive its sub-flows and owners).
        let open = Element::new("busFrame")
            .with_attr("dir", "open")
            .with_attr("fed", &txn)
            .with_attr("request", &request.id)
            .with_attr("user", &request.user)
            .with_attr("home", &home)
            .with_attr("parallel", parallel.to_string())
            .with_attr("vt", vt.to_string())
            .with_child(flow.to_element());
        self.append_bus(&home, open)?;

        let run = FederatedRun::new(flow.name.clone(), request.user.clone(), home, parallel, subs, owners);
        self.open_run(txn.clone(), run, vt);

        if parallel {
            for i in 0..subs.len() {
                self.delegate(&txn, i)?;
            }
        } else {
            self.delegate(&txn, 0)?;
        }

        match request.mode {
            RequestMode::Asynchronous => {
                let ack = RequestAck {
                    transaction: txn,
                    state: RunState::Pending,
                    valid: true,
                    message: None,
                };
                Ok(("fabric".to_owned(), DataGridResponse::ack(&request.id, ack)))
            }
            RequestMode::Synchronous => {
                self.pump()?;
                let report = self.federated_status(&txn);
                Ok(("fabric".to_owned(), DataGridResponse::status(&request.id, report)))
            }
        }
    }

    /// Publish the delegate envelope for sub `i` of federated run
    /// `txn`.
    fn delegate(&mut self, txn: &str, i: usize) -> Result<(), FabricError> {
        let (home, owner, node, flow, user) = {
            let run = self.fed.get(txn).expect("delegate on a known run");
            let sub = &run.subs[i];
            (run.home.clone(), sub.owner.clone(), sub.node.clone(), sub.flow.clone(), run.user.clone())
        };
        let env = self.envelope(home, owner, BusPayload::Delegate { origin: txn.to_owned(), node, user, flow });
        let vt = env.vt;
        self.publish(env)?;
        self.delegate_sent(txn, i, vt);
        Ok(())
    }

    /// A new envelope from `from` to `to`, stamped with the sender's
    /// clock and the next bus sequence number.
    fn envelope(&mut self, from: String, to: String, payload: BusPayload) -> BusEnvelope {
        let seq = self.bus_seq;
        self.bus_seq += 1;
        BusEnvelope { seq, vt: self.now_of(&from), from, to, payload }
    }

    /// Journal the envelope in the sender's bus WAL, then put it in
    /// flight. Write-ahead: if the append fails, nothing was published.
    fn publish(&mut self, env: BusEnvelope) -> Result<(), FabricError> {
        let from = env.from.clone();
        self.append_bus(&from, env.to_frame("send"))?;
        self.note_published(&from);
        self.in_flight.insert((env.vt, env.seq), env);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bus and federation facts: one writer each, shared by the live
    // path and by recovery's rebuild, so the fields, the federation
    // report and the `fabric/*` counters can never disagree.
    // ------------------------------------------------------------------

    /// An envelope from `from` was published on the bus.
    fn note_published(&mut self, from: &str) {
        if let Some(shard) = self.shards.get_mut(from) {
            shard.sent += 1;
        }
        self.obs.inc("fabric", "bus.published");
    }

    /// An envelope to `to` was delivered and applied.
    fn note_delivered(&mut self, to: &str) {
        if let Some(shard) = self.shards.get_mut(to) {
            shard.received += 1;
        }
        self.obs.inc("fabric", "bus.delivered");
    }

    /// Federated run `txn` opened at `vt`: open its parent span and
    /// track it.
    fn open_run(&mut self, txn: String, mut run: FederatedRun, vt: u64) {
        let span = self.obs.span_start_at(SimTime(vt), SpanKind::Flow, &run.name, None);
        self.obs.span_attr(span, "txn", &txn);
        self.obs.span_attr(span, "home", &run.home);
        self.obs.span_attr(span, "user", &run.user);
        run.span = Some(span);
        self.note_txn_home(txn.clone(), &run.home);
        self.fed.insert(txn, run);
        self.obs.inc("fabric", "federated.submitted");
    }

    /// Federated run `txn` settled in `state` at `vt`: close its parent
    /// span. Unknown runs are ignored.
    fn settle(&mut self, txn: &str, state: RunState, vt: u64) {
        let Some(run) = self.fed.get_mut(txn) else { return };
        run.state = state;
        if let Some(span) = run.span {
            self.obs.span_attr(span, "state", state.as_str());
            self.obs.span_end_at(span, SimTime(vt));
        }
        self.obs.inc("fabric", "federated.settled");
    }

    /// The delegate for sub-flow `i` of run `txn` went on the bus at
    /// `vt`: open its hand-off span under the run's and mark it sent.
    fn delegate_sent(&mut self, txn: &str, i: usize, vt: u64) {
        let Some(run) = self.fed.get_mut(txn) else { return };
        let sub = &mut run.subs[i];
        let name = format!("{txn}/{}", sub.node);
        let span = self.obs.span_start_at(SimTime(vt), SpanKind::Request, &name, run.span);
        self.obs.span_attr(span, "from", &run.home);
        self.obs.span_attr(span, "to", &sub.owner);
        sub.sent = true;
        sub.state = RunState::Running;
        sub.span = Some(span);
    }

    /// Sub-flow `node` of run `origin` runs as transaction `child` on
    /// shard `owner`: until its ack is published, it awaits one.
    fn child_known(&mut self, origin: &str, node: &str, child: String, owner: &str) {
        self.note_txn_home(child.clone(), owner);
        let Some(run) = self.fed.get_mut(origin) else { return };
        let Some(i) = run.subs.iter().position(|s| s.node == node) else { return };
        let sub = &mut run.subs[i];
        sub.child_txn = Some(child);
        if sub.sent && !sub.state.is_terminal() && !sub.ack_published {
            self.awaiting.insert((origin.to_owned(), i));
        }
    }

    /// The ack for sub-flow `i` of run `origin` is on the bus: it awaits
    /// no other.
    fn note_ack_published(&mut self, origin: &str, i: usize) {
        if let Some(sub) = self.fed.get_mut(origin).and_then(|run| run.subs.get_mut(i)) {
            sub.ack_published = true;
            self.awaiting.remove(&(origin.to_owned(), i));
        }
    }

    /// The ack `env` was applied: its sub-flow takes the child's outcome
    /// and its hand-off span closes at the ack's virtual time.
    fn ack_applied(&mut self, env: &BusEnvelope) {
        let BusPayload::Ack { origin, node, child_txn, state, steps_completed, steps_total } = &env.payload else {
            unreachable!("ack_applied on an ack")
        };
        let Some(run) = self.fed.get_mut(origin) else { return };
        let Some(sub) = run.subs.iter_mut().find(|s| s.node == *node) else { return };
        sub.state = *state;
        sub.steps_completed = *steps_completed;
        sub.steps_total = *steps_total;
        sub.ack_vt = env.vt;
        if !child_txn.is_empty() {
            sub.child_txn = Some(child_txn.clone());
        }
        if let Some(span) = sub.span {
            self.obs.span_attr(span, "state", state.as_str());
            self.obs.span_end_at(span, SimTime(env.vt));
        }
    }

    /// The index of sub-flow `node` of federated run `txn`.
    fn sub_index(&self, txn: &str, node: &str) -> Option<usize> {
        self.fed.get(txn)?.subs.iter().position(|s| s.node == node)
    }

    // ------------------------------------------------------------------
    // The pump: engines, acks, deliveries — to quiescence
    // ------------------------------------------------------------------

    /// Drive the whole federation until no shard has queued work and no
    /// envelope is in flight. Returns the number of engine events plus
    /// bus deliveries processed.
    pub fn pump(&mut self) -> Result<u64, FabricError> {
        let mut total = 0u64;
        loop {
            let mut progressed = false;
            // Drain the bus FIRST: pending envelopes must apply before
            // the engines advance any further. This is what makes
            // recovery deterministic — a re-enqueued envelope meets its
            // receiver at exactly the engine time it would have live,
            // not after an extra engine pump.
            while let Some(&key) = self.in_flight.keys().next() {
                self.deliver(key)?;
                total += 1;
                progressed = true;
            }
            for name in self.order.clone() {
                let n = self.shards.get_mut(&name).expect("ordered names exist").engine.pump();
                total += n as u64;
                progressed |= n > 0;
            }
            progressed |= self.publish_ready_acks()?;
            if !progressed {
                break;
            }
        }
        self.obs.set_now(SimTime(self.max_vt()));
        Ok(total)
    }

    /// Pump a single shard's engine only — no bus work. This is the
    /// per-shard unit of work a one-node-per-shard deployment runs in
    /// parallel; benchmarks time it per shard to measure aggregate
    /// throughput.
    pub fn pump_shard(&mut self, name: &str) -> Result<usize, FabricError> {
        let shard = self
            .shards
            .get_mut(name)
            .ok_or_else(|| FabricError::UnknownShard(name.to_owned()))?;
        Ok(shard.engine.pump())
    }

    /// Publish the acks of awaiting sub-flows whose children have
    /// finished, in `(txn, index)` order. Returns true when anything was
    /// published.
    fn publish_ready_acks(&mut self) -> Result<bool, FabricError> {
        let mut ready = Vec::new();
        for (txn, i) in &self.awaiting {
            let sub = &self.fed[txn].subs[*i];
            let child = sub.child_txn.as_deref().expect("an awaiting sub knows its child");
            let status = self.shards.get(&sub.owner).expect("sub owner exists").engine.status(child, None)?;
            if status.state.is_terminal() {
                ready.push((txn.clone(), *i, child.to_owned(), status));
            }
        }
        let progressed = !ready.is_empty();
        for (txn, i, child_txn, status) in ready {
            let run = &self.fed[&txn];
            let (owner, home, node) = (run.subs[i].owner.clone(), run.home.clone(), run.subs[i].node.clone());
            let ack = BusPayload::Ack {
                origin: txn.clone(),
                node,
                child_txn,
                state: status.state,
                steps_completed: status.steps_completed as u64,
                steps_total: status.steps_total as u64,
            };
            let env = self.envelope(owner, home, ack);
            self.publish(env)?;
            self.note_ack_published(&txn, i);
        }
        Ok(progressed)
    }

    /// Deliver one in-flight envelope: journal the `recv` frame in the
    /// receiver's bus WAL, then apply. Crash injection points bracket
    /// the frame write.
    fn deliver(&mut self, key: (u64, u64)) -> Result<(), FabricError> {
        // Deliveries are numbered from 1: `inject_bus_crash(1, _)`
        // kills the very first delivery.
        self.deliveries += 1;
        let delivery = self.deliveries;
        if self.crash == Some((delivery, BusCrashPoint::BeforeFrame)) {
            return Err(FabricError::CrashInjected { delivery, point: BusCrashPoint::BeforeFrame });
        }
        let env = self.in_flight.get(&key).cloned().expect("delivering a known key");
        let to = env.to.clone();
        self.append_bus(&to, env.to_frame("recv"))?;
        if self.crash == Some((delivery, BusCrashPoint::AfterFrame)) {
            return Err(FabricError::CrashInjected { delivery, point: BusCrashPoint::AfterFrame });
        }
        self.in_flight.remove(&key);
        self.apply(env)?;
        self.note_delivered(&to);
        Ok(())
    }

    /// Apply a delivered envelope to the receiving shard.
    fn apply(&mut self, env: BusEnvelope) -> Result<(), FabricError> {
        match env.payload {
            BusPayload::Delegate { ref origin, ref node, ref user, ref flow } => {
                // The lineage makes delivery idempotent: recovery can
                // tell "delegate applied" from "frame journaled, apply
                // lost" by looking for a run with this lineage.
                let lineage = format!("fed:{origin}/{node}");
                let shard = self
                    .shards
                    .get_mut(&env.to)
                    .ok_or_else(|| FabricError::UnknownShard(env.to.clone()))?;
                shard.engine.pump_until(SimTime(env.vt));
                // Re-delivery after a partial crash must not submit
                // twice: an existing run with this lineage IS the
                // earlier application.
                if let Some(existing) =
                    shard.engine.first_txn_of_lineage(&lineage).map(str::to_owned)
                {
                    self.child_known(origin, node, existing, &env.to);
                    return Ok(());
                }
                match shard.engine.submit_flow_with(
                    user,
                    flow.clone(),
                    RunOptions { lineage: Some(lineage), ..RunOptions::default() },
                ) {
                    Ok(child) => self.child_known(origin, node, child, &env.to),
                    Err(_) => {
                        // Submission refused (lint gate, unknown user,
                        // ...): the sub-flow failed before it ran.
                        // Report it over the bus like any other outcome
                        // so the home shard journals the verdict.
                        let home = self.fed.get(origin).map(|r| r.home.clone()).unwrap_or_else(|| env.from.clone());
                        let ack = self.envelope(
                            env.to.clone(),
                            home,
                            BusPayload::Ack {
                                origin: origin.clone(),
                                node: node.clone(),
                                child_txn: String::new(),
                                state: RunState::Failed,
                                steps_completed: 0,
                                steps_total: 0,
                            },
                        );
                        self.publish(ack)?;
                        if let Some(i) = self.sub_index(origin, node) {
                            self.note_ack_published(origin, i);
                        }
                    }
                }
                Ok(())
            }
            BusPayload::Ack { ref origin, .. } => {
                // Virtual-time barrier on the home engine too, so every
                // shard's clock respects the bus order.
                if let Some(shard) = self.shards.get_mut(&env.to) {
                    shard.engine.pump_until(SimTime(env.vt));
                }
                self.ack_applied(&env);
                self.advance(origin)
            }
        }
    }

    /// Move a federated run forward after an ack (or after recovery):
    /// delegate the next eligible sub-flows, skip what a sequential
    /// failure makes unreachable, and finalize when every sub-flow is
    /// settled. Idempotent — deriving on an already-settled run changes
    /// nothing.
    fn advance(&mut self, txn: &str) -> Result<(), FabricError> {
        let Some(run) = self.fed.get_mut(txn) else { return Ok(()) };
        if run.state.is_terminal() {
            return Ok(());
        }
        // A sub-flow is settled once its state is terminal: acked, or
        // skipped below.
        let failed = run.subs.iter().any(|s| s.state.is_terminal() && s.state != RunState::Completed);
        if failed && !run.parallel {
            // A sequential failure strands everything after it.
            for sub in run.subs.iter_mut().filter(|s| !s.sent) {
                sub.state = RunState::Skipped;
            }
        }
        let to_send: Vec<usize> = if run.parallel {
            run.subs
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.sent && !s.state.is_terminal())
                .map(|(i, _)| i)
                .collect()
        } else if failed {
            Vec::new()
        } else {
            // The first unsent sub whose predecessors all completed.
            match run.subs.iter().position(|s| !s.sent && !s.state.is_terminal()) {
                Some(i) if run.subs[..i].iter().all(|s| s.state == RunState::Completed) => vec![i],
                _ => Vec::new(),
            }
        };
        for i in to_send {
            self.delegate(txn, i)?;
        }
        let run = self.fed.get(txn).expect("advanced run exists");
        if run.subs.iter().all(|s| s.state.is_terminal()) {
            self.finalize(txn)?;
        }
        Ok(())
    }

    /// Settle a live federated run: journal the `complete` frame in the
    /// home bus WAL and close the parent span.
    fn finalize(&mut self, txn: &str) -> Result<(), FabricError> {
        let (home, state) = {
            let run = self.fed.get(txn).expect("finalizing a known run");
            let state = if run.subs.iter().all(|s| s.state == RunState::Completed) {
                RunState::Completed
            } else {
                RunState::Failed
            };
            (run.home.clone(), state)
        };
        let vt = self.now_of(&home);
        self.append_bus(
            &home,
            Element::new("busFrame")
                .with_attr("dir", "complete")
                .with_attr("fed", txn)
                .with_attr("state", state.as_str())
                .with_attr("vt", vt.to_string()),
        )?;
        self.settle(txn, state, vt);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reports
    // ------------------------------------------------------------------

    /// The aggregate status of a federated run: parent state plus one
    /// child line per sub-flow, with live progress from the owning
    /// engines.
    pub fn federated_status(&self, txn: &str) -> StatusReport {
        let Some(run) = self.fed.get(txn) else {
            return StatusReport {
                transaction: txn.to_owned(),
                node: "/".to_owned(),
                name: String::new(),
                state: RunState::Failed,
                steps_completed: 0,
                steps_total: 0,
                message: Some(format!("unknown federated transaction {txn:?}")),
                children: Vec::new(),
                events: Vec::new(),
                metrics: Vec::new(),
                spans: Vec::new(),
            };
        };
        let mut children = Vec::new();
        let mut done = 0usize;
        let mut total = 0usize;
        for sub in &run.subs {
            let (state, d, t) = match &sub.child_txn {
                Some(child) => match self.shards.get(&sub.owner).and_then(|s| s.engine.status(child, None).ok()) {
                    Some(st) => (st.state, st.steps_completed, st.steps_total),
                    None => (sub.state, sub.steps_completed as usize, sub.steps_total as usize),
                },
                None => (sub.state, sub.steps_completed as usize, sub.steps_total as usize),
            };
            children.push((format!("/{}", sub.node), sub.node.clone(), state));
            done += d;
            total += t;
        }
        StatusReport {
            transaction: txn.to_owned(),
            node: "/".to_owned(),
            name: run.name.clone(),
            state: run.state,
            steps_completed: done,
            steps_total: total,
            message: None,
            children,
            events: Vec::new(),
            metrics: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Answer a federation query: shard layout, bus position,
    /// hand-offs, federated flows.
    pub fn federation_report(&self, q: &FederationQuery) -> FederationReport {
        let shards = if q.shards {
            self.order
                .iter()
                .map(|name| {
                    let shard = &self.shards[name];
                    FederationShard {
                        name: name.clone(),
                        prefixes: self.prefixes.get(name).cloned().unwrap_or_default(),
                        flows: shard.engine.flow_summaries().len() as u64,
                        time_us: shard.engine.now().0,
                        journaled: self.dir.is_some(),
                        bus_sent: shard.sent,
                        bus_received: shard.received,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let handoffs = if q.handoffs {
            self.fed
                .iter()
                .flat_map(|(txn, run)| {
                    run.subs.iter().filter(|s| s.sent).map(move |s| FederationHandoff {
                        txn: txn.clone(),
                        node: s.node.clone(),
                        from: run.home.clone(),
                        to: s.owner.clone(),
                        child_txn: s.child_txn.clone(),
                        state: s.state,
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let flows = self
            .fed
            .iter()
            .map(|(txn, run)| FederatedFlow {
                txn: txn.clone(),
                name: run.name.clone(),
                user: run.user.clone(),
                home: run.home.clone(),
                parallel: run.parallel,
                state: run.state,
                subs_completed: run.subs.iter().filter(|s| s.state == RunState::Completed).count() as u64,
                subs_total: run.subs.len() as u64,
            })
            .collect();
        FederationReport {
            time_us: self.max_vt(),
            federated: true,
            shards,
            bus: FederationBus {
                published: self.shards.values().map(|s| s.sent).sum(),
                delivered: self.shards.values().map(|s| s.received).sum(),
                in_flight: self.in_flight.len() as u64,
                next_seq: self.bus_seq,
            },
            handoffs,
            flows,
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    /// Boot a federation by crash recovery. Every shard in `shards`
    /// (name, namespace prefixes) is rebuilt by replaying its engine
    /// WAL against a factory-fresh engine, then the bus WALs are
    /// replayed to rebuild the fabric's routing table, federated runs,
    /// bus position, and in-flight envelopes — re-enqueued with their
    /// original sequence numbers so delivery resumes in the original
    /// order. Returns the fabric and the per-shard engine recovery
    /// reports, in shard order.
    pub fn recover(
        dir: &Path,
        label: &str,
        config: JournalConfig,
        shards: &[(&str, &[&str])],
        factory: impl Fn(&str) -> Dfms,
    ) -> Result<(Fabric, Vec<dgf_dgl::RecoveryReport>), FabricError> {
        let mut fabric = Fabric::journaled(dir, label, config);
        let mut reports = Vec::new();
        let mut bus_records: BTreeMap<String, Vec<Record>> = BTreeMap::new();
        for (name, prefixes) in shards {
            let name = *name;
            let engine_path = dir.join(format!("{name}.engine.dgj"));
            let (engine, report) = Dfms::recover(&engine_path, label, config, || factory(name))?;
            reports.push(report);
            let bus_path = dir.join(format!("{name}.bus.dgj"));
            let (mut journal, records, _) = Journal::open(&bus_path, config.sync)?;
            let frames = match records.first() {
                None => {
                    journal.append(bus_genesis(label, name))?;
                    Vec::new()
                }
                Some(genesis) if genesis.kind == RecordKind::Genesis => {
                    if genesis.body.attr("label") != Some(label) {
                        return Err(FabricError::Config(format!(
                            "bus WAL for shard {name:?} belongs to label {:?}, not {label:?}",
                            genesis.body.attr("label").unwrap_or("<none>")
                        )));
                    }
                    records[1..].to_vec()
                }
                Some(other) => {
                    return Err(FabricError::BadFrame(format!(
                        "bus WAL for shard {name:?} starts with <{}>, not <genesis>",
                        other.body.name
                    )))
                }
            };
            bus_records.insert((*name).to_owned(), frames);
            fabric.insert_shard(name, prefixes, engine, Some(journal))?;
        }
        fabric.rebuild(&bus_records)?;
        fabric.reconcile()?;
        Ok((fabric, reports))
    }

    /// Rebuild fabric bookkeeping from the per-shard bus WALs.
    fn rebuild(&mut self, bus_records: &BTreeMap<String, Vec<Record>>) -> Result<(), FabricError> {
        // Pass 1, per shard in order: open/complete frames define the
        // federated runs; send/recv frames collect into global lists.
        let mut sends: BTreeMap<(u64, u64), BusEnvelope> = BTreeMap::new();
        let mut recvs: BTreeMap<u64, String> = BTreeMap::new(); // bus seq → receiving shard
        let mut completes: BTreeMap<String, (RunState, u64)> = BTreeMap::new();
        for name in self.order.clone() {
            for record in bus_records.get(&name).map(Vec::as_slice).unwrap_or(&[]) {
                if record.kind != RecordKind::BusFrame {
                    return Err(FabricError::BadFrame(format!(
                        "bus WAL for shard {name:?} contains a <{}> record",
                        record.body.name
                    )));
                }
                let el = &record.body;
                match el.attr("dir") {
                    Some("open") => self.rebuild_open(&name, el)?,
                    Some("complete") => {
                        let txn = el
                            .attr("fed")
                            .ok_or_else(|| FabricError::BadFrame("complete frame missing fed".into()))?;
                        let state = el
                            .attr("state")
                            .and_then(RunState::parse)
                            .ok_or_else(|| FabricError::BadFrame("complete frame missing state".into()))?;
                        let vt = el.attr("vt").and_then(|v| v.parse().ok()).unwrap_or(0);
                        completes.insert(txn.to_owned(), (state, vt));
                    }
                    Some("send") => {
                        let env = BusEnvelope::from_frame(el)?;
                        sends.insert((env.vt, env.seq), env);
                    }
                    Some("recv") => {
                        let env = BusEnvelope::from_frame(el)?;
                        recvs.insert(env.seq, env.to.clone());
                    }
                    other => {
                        return Err(FabricError::BadFrame(format!(
                            "bus frame with unknown dir {other:?} in shard {name:?}"
                        )))
                    }
                }
            }
        }

        // Pass 2: replay the bus in delivery order (vt, seq). A send
        // whose effects are evidenced on the receiver counts as
        // delivered; anything else goes back in flight with its
        // original sequence number.
        for ((vt, seq), env) in sends {
            self.note_published(&env.from);
            self.bus_seq = self.bus_seq.max(seq + 1);
            let frame_received = recvs.contains_key(&seq);
            match &env.payload {
                BusPayload::Delegate { origin, node, .. } => {
                    // Mark the sender side regardless: the send frame
                    // proves the delegate was published.
                    if let Some(i) = self.sub_index(origin, node) {
                        self.delegate_sent(origin, i, vt);
                    }
                    let lineage = format!("fed:{origin}/{node}");
                    let child = self
                        .shards
                        .get(&env.to)
                        .and_then(|s| s.engine.first_txn_of_lineage(&lineage))
                        .map(str::to_owned);
                    match (frame_received, child) {
                        (true, Some(child)) => {
                            // Fully applied.
                            self.note_delivered(&env.to);
                            self.child_known(origin, node, child, &env.to);
                        }
                        _ => {
                            // Never delivered, or the frame landed but
                            // the apply was lost: back in flight.
                            self.in_flight.insert((vt, seq), env);
                        }
                    }
                }
                BusPayload::Ack { origin, node, child_txn, .. } => {
                    // The ack's entire effect is recorded in the frame
                    // itself, so the receiver-side frame is the whole
                    // applied-ness story.
                    if let Some(i) = self.sub_index(origin, node) {
                        self.note_ack_published(origin, i);
                    }
                    if frame_received {
                        self.note_delivered(&env.to);
                        if !child_txn.is_empty() {
                            self.note_txn_home(child_txn.clone(), &env.from);
                        }
                        self.ack_applied(&env);
                    } else {
                        self.in_flight.insert((vt, seq), env);
                    }
                }
            }
        }

        // Pass 3: settle runs with journaled completions.
        for (txn, (state, vt)) in completes {
            self.settle(&txn, state, vt);
        }
        self.deliveries = self.shards.values().map(|s| s.received).sum();
        self.obs.set_now(SimTime(self.max_vt()));
        Ok(())
    }

    /// Rebuild one federated run from its `open` frame.
    fn rebuild_open(&mut self, home: &str, el: &Element) -> Result<(), FabricError> {
        let attr = |name: &str| {
            el.attr(name)
                .map(str::to_owned)
                .ok_or_else(|| FabricError::BadFrame(format!("open frame missing attr {name:?}")))
        };
        let txn = attr("fed")?;
        let user = attr("user")?;
        let parallel = el.attr("parallel") == Some("true");
        let vt: u64 = el.attr("vt").and_then(|v| v.parse().ok()).unwrap_or(0);
        let flow_el = el
            .child("flow")
            .ok_or_else(|| FabricError::BadFrame("open frame carries no <flow>".into()))?;
        let flow = Flow::from_element(flow_el).map_err(|e| FabricError::BadFrame(format!("open frame flow: {e}")))?;
        let Children::Flows(subs) = &flow.children else {
            return Err(FabricError::BadFrame("open frame flow has no sub-flows".into()));
        };
        let owners = self.sub_owners(subs)?;
        let run = FederatedRun::new(flow.name.clone(), user, home.to_owned(), parallel, subs, owners);
        if let Some(n) = txn.strip_prefix('x').and_then(|n| n.parse::<u64>().ok()) {
            self.fed_counter = self.fed_counter.max(n);
        }
        self.open_run(txn, run, vt);
        Ok(())
    }

    /// Re-derive what the crash interrupted: restore each home engine's
    /// virtual-time barrier for applied acks, then advance every open
    /// federated run (next sequential delegate, unsent parallel
    /// delegates, finalization). Re-derived envelopes get the same
    /// sequence numbers the lost originals would have carried, because
    /// the derivation is deterministic and `bus_seq` restarts from the
    /// journals' maximum.
    fn reconcile(&mut self) -> Result<(), FabricError> {
        let txns: Vec<String> = self.fed.keys().cloned().collect();
        for txn in &txns {
            let (home, barrier) = {
                let run = self.fed.get(txn).expect("reconciling a known run");
                (run.home.clone(), run.subs.iter().map(|s| s.ack_vt).max().unwrap_or(0))
            };
            if barrier > 0 {
                if let Some(shard) = self.shards.get_mut(&home) {
                    shard.engine.pump_until(SimTime(barrier));
                }
            }
        }
        for txn in txns {
            self.advance(&txn)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_dgl::{DglOperation, FlowBuilder, FlowStatusQuery, ResponseBody};
    use dgf_dgms::{DataGrid, Principal, UserRegistry};
    use dgf_scheduler::{PlannerKind, Scheduler};
    use dgf_simgrid::{GridBuilder, GridPreset};

    fn engine(seed: u64) -> Dfms {
        let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 1 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
        users.make_admin("u").unwrap();
        Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, seed))
    }

    /// A sub-flow creating the full hierarchy under `p`.
    fn zone_flow(name: &str, p: &str) -> Flow {
        let mut b = FlowBuilder::sequential(name);
        let mut at = String::new();
        for (i, seg) in p.trim_start_matches('/').split('/').enumerate() {
            at.push('/');
            at.push_str(seg);
            b = b.step(format!("mk{i}"), DglOperation::CreateCollection { path: at.clone() });
        }
        b.build().unwrap()
    }

    fn two_shard_fabric() -> Fabric {
        let mut fabric = Fabric::new();
        fabric.add_shard("alpha", &["/alpha"], engine(1)).unwrap();
        fabric.add_shard("beta", &["/beta"], engine(2)).unwrap();
        fabric
    }

    fn path(s: &str) -> LogicalPath {
        LogicalPath::parse(s).unwrap()
    }

    #[test]
    fn whole_flows_route_to_their_owning_shard() {
        let mut fabric = two_shard_fabric();
        let req = DataGridRequest::flow("r1", "u", zone_flow("f", "/beta/x")).asynchronous();
        let (routed, response) = fabric.route(req).unwrap();
        assert_eq!(routed, "beta");
        let txn = response.transaction().to_owned();
        fabric.pump().unwrap();
        let (home, status) = fabric
            .route(DataGridRequest::status("r2", "u", FlowStatusQuery::whole(&txn)))
            .unwrap();
        assert_eq!(home, "beta");
        match status.body {
            ResponseBody::Status(s) => assert_eq!(s.state, RunState::Completed),
            other => panic!("expected status, got {other:?}"),
        }
        assert!(fabric.engine("beta").unwrap().grid().exists(&path("/beta/x")));
        assert!(!fabric.engine("alpha").unwrap().grid().exists(&path("/beta/x")));
    }

    #[test]
    fn cross_shard_flows_federate_and_complete() {
        let mut fabric = two_shard_fabric();
        let parent = FlowBuilder::sequential("survey")
            .flow(zone_flow("stage", "/alpha/data"))
            .flow(zone_flow("archive", "/beta/vault"))
            .build()
            .unwrap();
        let (routed, response) = fabric
            .route(DataGridRequest::flow("r1", "u", parent).asynchronous())
            .unwrap();
        assert_eq!(routed, "fabric");
        let txn = response.transaction().to_owned();
        assert_eq!(txn, "x1");
        fabric.pump().unwrap();

        let (home, status) = fabric
            .route(DataGridRequest::status("r2", "u", FlowStatusQuery::whole(&txn)))
            .unwrap();
        assert_eq!(home, "fabric");
        let ResponseBody::Status(s) = status.body else { panic!("expected status") };
        assert_eq!(s.state, RunState::Completed);
        assert_eq!(s.children.len(), 2);
        assert!(s.children.iter().all(|(_, _, st)| *st == RunState::Completed));

        // The sub-flows really ran on their owners.
        assert!(fabric.engine("alpha").unwrap().grid().exists(&path("/alpha/data")));
        assert!(fabric.engine("beta").unwrap().grid().exists(&path("/beta/vault")));
        assert!(!fabric.engine("alpha").unwrap().grid().exists(&path("/beta/vault")));

        // Two delegates out, two acks back; nothing still flying.
        let report = fabric.federation_report(&FederationQuery::report());
        assert!(report.federated);
        assert_eq!(report.bus.published, 4);
        assert_eq!(report.bus.delivered, 4);
        assert_eq!(report.bus.in_flight, 0);
        assert_eq!(report.handoffs.len(), 2);
        assert_eq!(report.flows.len(), 1);
        assert_eq!(report.flows[0].state, RunState::Completed);
        assert_eq!(report.flows[0].subs_completed, 2);
    }

    #[test]
    fn synchronous_federated_submission_pumps_to_terminal() {
        let mut fabric = two_shard_fabric();
        let parent = FlowBuilder::parallel("mirror")
            .flow(zone_flow("a", "/alpha/copy"))
            .flow(zone_flow("b", "/beta/copy"))
            .build()
            .unwrap();
        let (_, response) = fabric.route(DataGridRequest::flow("r1", "u", parent)).unwrap();
        let ResponseBody::Status(s) = response.body else { panic!("expected final status") };
        assert_eq!(s.state, RunState::Completed);
        let report = fabric.federation_report(&FederationQuery::summary());
        assert!(report.shards.is_empty() && report.handoffs.is_empty());
        assert!(report.flows[0].parallel);
    }

    #[test]
    fn a_failed_sub_flow_fails_the_parent_and_skips_the_rest() {
        let mut fabric = two_shard_fabric();
        // The middle sub deletes a path that never existed.
        let bad = FlowBuilder::sequential("bad")
            .step("rm", DglOperation::Delete { path: "/beta/nope".into() })
            .build()
            .unwrap();
        let parent = FlowBuilder::sequential("survey")
            .flow(zone_flow("stage", "/alpha/data"))
            .flow(bad)
            .flow(zone_flow("never", "/alpha/unreached"))
            .build()
            .unwrap();
        let (_, response) = fabric
            .route(DataGridRequest::flow("r1", "u", parent).asynchronous())
            .unwrap();
        let txn = response.transaction().to_owned();
        fabric.pump().unwrap();
        let report = fabric.federated_status(&txn);
        assert_eq!(report.state, RunState::Failed);
        assert_eq!(report.children[1].2, RunState::Failed);
        assert_eq!(report.children[2].2, RunState::Skipped);
        // The third sub never reached its shard.
        assert!(!fabric.engine("alpha").unwrap().grid().exists(&path("/alpha/unreached")));
    }

    #[test]
    fn federation_queries_route_to_the_fabric() {
        let mut fabric = two_shard_fabric();
        let (routed, response) = fabric
            .route(DataGridRequest::federation("r1", "u", FederationQuery::report()))
            .unwrap();
        assert_eq!(routed, "fabric");
        let ResponseBody::Federation(report) = response.body else { panic!("expected federation") };
        assert!(report.federated);
        assert_eq!(report.shards.len(), 2);
        assert_eq!(report.shards[0].prefixes, vec!["/alpha".to_owned()]);
        assert!(!report.shards[0].journaled);
    }

    #[test]
    fn colliding_transaction_ids_need_qualified_queries() {
        let mut fabric = two_shard_fabric();
        // Both engines number their first run "t1".
        for zone in ["/alpha/a", "/beta/b"] {
            let (_, resp) = fabric
                .route(DataGridRequest::flow(format!("r{zone}"), "u", zone_flow("f", zone)).asynchronous())
                .unwrap();
            assert_eq!(resp.transaction(), "t1");
        }
        fabric.pump().unwrap();
        // Unqualified: refused, not guessed.
        let err = fabric
            .route(DataGridRequest::status("q1", "u", FlowStatusQuery::whole("t1")))
            .unwrap_err();
        assert!(matches!(err, FabricError::Config(_)), "got {err}");
        // Qualified: routes exactly.
        for shard in ["alpha", "beta"] {
            let (home, resp) = fabric
                .route(DataGridRequest::status("q2", "u", FlowStatusQuery::whole(format!("{shard}/t1"))))
                .unwrap();
            assert_eq!(home, shard);
            let ResponseBody::Status(s) = resp.body else { panic!("expected status") };
            assert_eq!(s.state, RunState::Completed);
        }
    }

    #[test]
    fn unroutable_flows_error() {
        let mut fabric = two_shard_fabric();
        let req = DataGridRequest::flow("r", "u", zone_flow("f", "/gamma/x"));
        assert!(matches!(fabric.route(req), Err(FabricError::Dfms(DfmsError::NoRoute(_)))));
        let opaque = FlowBuilder::sequential("f")
            .step("n", DglOperation::Notify { message: "x".into() })
            .build()
            .unwrap();
        assert!(matches!(
            fabric.route(DataGridRequest::flow("r", "u", opaque)),
            Err(FabricError::Dfms(DfmsError::NoRoute(_)))
        ));
        let unknown_status = DataGridRequest::status("r", "u", FlowStatusQuery::whole("t99"));
        assert!(matches!(
            fabric.route(unknown_status),
            Err(FabricError::Dfms(DfmsError::UnknownTransaction(_)))
        ));
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dgf-fabric-{name}-{:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const SHARDS: &[(&str, &[&str])] = &[("alpha", &["/alpha"]), ("beta", &["/beta"])];

    fn factory(name: &str) -> Dfms {
        match name {
            "alpha" => engine(1),
            _ => engine(2),
        }
    }

    /// The four `fabric/*` bus and federation counters, checked against
    /// the bus position the federation report derives from its fields.
    fn fabric_counters(fabric: &Fabric) -> [u64; 4] {
        let snap = fabric.obs().snapshot();
        let counters = ["bus.published", "bus.delivered", "federated.submitted", "federated.settled"]
            .map(|name| snap.counter("fabric", name));
        let bus = fabric.federation_report(&FederationQuery::report()).bus;
        assert_eq!([counters[0], counters[1]], [bus.published, bus.delivered], "counters match the report");
        counters
    }

    #[test]
    fn a_journaled_federation_recovers_mid_flight_and_finishes() {
        let dir = temp_dir("midflight");
        let config = JournalConfig::default();
        let parent = || {
            FlowBuilder::sequential("survey")
                .flow(zone_flow("stage", "/alpha/data"))
                .flow(zone_flow("archive", "/beta/vault"))
                .build()
                .unwrap()
        };

        // Reference: same workload, no crash.
        let ref_dir = temp_dir("midflight-ref");
        let mut reference = Fabric::journaled(&ref_dir, "fed", config);
        reference.add_shard("alpha", &["/alpha"], engine(1)).unwrap();
        reference.add_shard("beta", &["/beta"], engine(2)).unwrap();
        let (_, resp) = reference
            .route(DataGridRequest::flow("r1", "u", parent()).asynchronous())
            .unwrap();
        let txn = resp.transaction().to_owned();
        reference.pump().unwrap();
        let want_counters = fabric_counters(&reference);
        assert_eq!(want_counters, [4, 4, 1, 1]);
        let want_status = reference.federated_status(&txn).to_string();
        let want_alpha = reference.engine("alpha").unwrap().provenance().snapshot();
        let want_beta = reference.engine("beta").unwrap().provenance().snapshot();

        // Crash run: submit, then die with the first delegate in flight.
        let mut fabric = Fabric::journaled(&dir, "fed", config);
        fabric.add_shard("alpha", &["/alpha"], engine(1)).unwrap();
        fabric.add_shard("beta", &["/beta"], engine(2)).unwrap();
        let (_, resp) = fabric
            .route(DataGridRequest::flow("r1", "u", parent()).asynchronous())
            .unwrap();
        assert_eq!(resp.transaction(), txn);
        assert_eq!(fabric.in_flight(), 1);
        drop(fabric); // hard stop: WALs stay on disk

        let (mut revived, reports) = Fabric::recover(&dir, "fed", config, SHARDS, factory).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(revived.in_flight(), 1, "the undelivered delegate is back in flight");
        revived.pump().unwrap();
        assert_eq!(revived.federated_status(&txn).to_string(), want_status);
        assert_eq!(fabric_counters(&revived), want_counters, "counters rebuilt after a mid-flight crash");
        assert_eq!(revived.engine("alpha").unwrap().provenance().snapshot(), want_alpha);
        assert_eq!(revived.engine("beta").unwrap().provenance().snapshot(), want_beta);
        let report = revived.federation_report(&FederationQuery::report());
        assert_eq!(report.bus.in_flight, 0);
        assert_eq!(report.flows[0].state, RunState::Completed);

        // A second recovery of the settled federation is a no-op.
        drop(revived);
        let (mut settled, _) = Fabric::recover(&dir, "fed", config, SHARDS, factory).unwrap();
        assert_eq!(settled.in_flight(), 0);
        settled.pump().unwrap();
        assert_eq!(settled.federated_status(&txn).to_string(), want_status);
        assert_eq!(fabric_counters(&settled), want_counters, "counters rebuilt for a settled federation");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn a_recovered_fabric_refuses_a_mismatched_label() {
        let dir = temp_dir("label");
        let config = JournalConfig::default();
        let mut fabric = Fabric::journaled(&dir, "fed", config);
        fabric.add_shard("alpha", &["/alpha"], engine(1)).unwrap();
        drop(fabric);
        let err = Fabric::recover(&dir, "other", config, &[("alpha", &["/alpha"])], factory);
        assert!(err.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
