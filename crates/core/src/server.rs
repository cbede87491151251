//! The threaded server front-end.
//!
//! Appendix A's protocol is request/response over a connection; this
//! module provides that boundary: a [`DfmsServer`] owns the engine
//! behind a lock and a worker thread, and [`ServerHandle`]s (cloneable,
//! thread-safe) submit DGL XML documents and receive DGL XML responses.
//!
//! The *engine* stays deterministic — the worker serializes all requests
//! — but the client side exercises the real concurrency surface:
//! multiple client threads, asynchronous submissions, status polling.

use crate::engine::Dfms;
use crate::recovery::JournalConfig;
use crate::DfmsError;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use dgf_dgl::LockHistogram;
use parking_lot::Mutex;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

enum ClientMessage {
    Request { xml: String, reply: Sender<String>, enqueued_at: Instant },
    Shutdown,
}

/// Contention telemetry for the `Arc<Mutex<Dfms>>` request path:
/// queue depth, enqueue→dequeue wait, lock-acquire wait, and lock-hold
/// histograms. Shared between the client handles (enqueue side), the
/// worker (dequeue side), and the engine (which folds a snapshot into
/// DGL `profileReport`s).
///
/// Everything here is wall-clock and report-only: these numbers vary
/// between runs and never feed deterministic engine state or the
/// metrics registry the scrape-determinism gates cover.
#[derive(Debug)]
pub(crate) struct ServerStats {
    enqueued: AtomicU64,
    served: AtomicU64,
    depth: AtomicU64,
    depth_max: AtomicU64,
    /// Queue-wait, lock-acquire and lock-hold, in report order.
    hists: Mutex<[LockHistogram; 3]>,
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            enqueued: AtomicU64::new(0),
            served: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            depth_max: AtomicU64::new(0),
            hists: Mutex::new(empty_hists()),
        }
    }
}

fn empty_hists() -> [LockHistogram; 3] {
    ["queue-wait", "lock-acquire", "lock-hold"]
        .map(|name| LockHistogram { name: name.to_owned(), count: 0, sum_ns: 0, min_ns: 0, max_ns: 0 })
}

/// Fold one sample (ns) into a histogram.
fn fold(hist: &mut LockHistogram, ns: u64) {
    hist.min_ns = if hist.count == 0 { ns } else { hist.min_ns.min(ns) };
    hist.max_ns = hist.max_ns.max(ns);
    hist.count += 1;
    hist.sum_ns += ns;
}

impl ServerStats {
    /// Client side: a request just entered the channel.
    fn record_enqueue(&self) {
        self.enqueued.fetch_add(1, Ordering::Relaxed);
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Worker side, after acquiring the engine lock: how long the
    /// request sat in the channel and how long the lock acquire took.
    fn record_waits(&self, queue_wait_ns: u64, lock_acquire_ns: u64) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
        let [queue_wait, lock_acquire, _] = &mut *self.hists.lock();
        fold(queue_wait, queue_wait_ns);
        fold(lock_acquire, lock_acquire_ns);
    }

    /// Worker side, after answering: how long the lock was held.
    fn record_hold(&self, lock_hold_ns: u64) {
        self.served.fetch_add(1, Ordering::Relaxed);
        let [_, _, lock_hold] = &mut *self.hists.lock();
        fold(lock_hold, lock_hold_ns);
    }

    /// Requests served so far (survives a worker panic).
    pub(crate) fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Snapshot for a DGL `profileReport`.
    pub(crate) fn snapshot(&self) -> dgf_dgl::ServerContention {
        dgf_dgl::ServerContention {
            enqueued: self.enqueued.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            queue_depth_max: self.depth_max.load(Ordering::Relaxed),
            hists: self.hists.lock().to_vec(),
        }
    }

    /// Zero every counter and histogram (interval profiling; the
    /// current queue depth is preserved — requests in flight still
    /// drain through `record_waits`).
    pub(crate) fn reset(&self) {
        self.enqueued.store(0, Ordering::Relaxed);
        self.served.store(0, Ordering::Relaxed);
        self.depth_max.store(self.depth.load(Ordering::Relaxed), Ordering::Relaxed);
        *self.hists.lock() = empty_hists();
    }
}

/// Render a worker panic payload for the shutdown log: panics carry
/// `&str` or `String` in practice; anything else is named, not lost.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

/// A running DfMS server: an engine plus a worker thread draining a
/// request channel.
#[derive(Debug)]
pub struct DfmsServer {
    engine: Arc<Mutex<Dfms>>,
    sender: Sender<ClientMessage>,
    worker: Option<JoinHandle<u64>>,
    stats: Arc<ServerStats>,
}

/// A cloneable client handle to a [`DfmsServer`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    sender: Sender<ClientMessage>,
    stats: Arc<ServerStats>,
}

impl DfmsServer {
    /// Start a server around an engine.
    pub fn start(mut engine: Dfms) -> Self {
        let stats = Arc::new(ServerStats::default());
        engine.attach_server_stats(Arc::clone(&stats));
        let engine = Arc::new(Mutex::new(engine));
        let (sender, receiver): (Sender<ClientMessage>, Receiver<ClientMessage>) = unbounded();
        let worker_engine = Arc::clone(&engine);
        let worker_stats = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("dfms-server".into())
            .spawn(move || {
                let mut served = 0u64;
                while let Ok(message) = receiver.recv() {
                    match message {
                        ClientMessage::Request { xml, reply, enqueued_at } => {
                            // dgf-audit: allow(DGA002) reason="queue-wait histograms in ServerStats are report-only contention telemetry; no engine state derives from them"
                            let dequeued = Instant::now();
                            let response = {
                                let mut engine = worker_engine.lock();
                                // dgf-audit: allow(DGA002) reason="lock-acquire histograms in ServerStats are report-only contention telemetry; no engine state derives from them"
                                let locked = Instant::now();
                                // Record the waits before handling so a
                                // profileQuery carried by this request
                                // sees its own queue time.
                                worker_stats.record_waits(
                                    dequeued.duration_since(enqueued_at).as_nanos() as u64,
                                    locked.duration_since(dequeued).as_nanos() as u64,
                                );
                                engine.obs_mut().inc("server", "requests.served");
                                let response = engine.handle_xml(&xml);
                                worker_stats.record_hold(locked.elapsed().as_nanos() as u64);
                                response
                            };
                            served += 1;
                            // A dropped client is not a server error.
                            let _ = reply.send(response);
                        }
                        ClientMessage::Shutdown => break,
                    }
                }
                served
            })
            .expect("spawning the DfMS worker thread");
        DfmsServer { engine, sender, worker: Some(worker), stats }
    }

    /// Start a server around an engine with a fresh write-ahead journal
    /// at `path` (see [`Dfms::attach_journal`] for the `label`
    /// contract). Every DGL command the server executes from here on is
    /// journaled before execution.
    pub fn start_journaled(
        mut engine: Dfms,
        path: &Path,
        label: &str,
        config: JournalConfig,
    ) -> Result<Self, DfmsError> {
        engine.attach_journal(path, label, config)?;
        Ok(Self::start(engine))
    }

    /// Boot a server by crash recovery: replay the journal at `path`
    /// against a factory-fresh engine (see [`Dfms::recover`]) and start
    /// serving on the recovered state. Returns the server and the
    /// recovery report describing what the replay did.
    pub fn recover(
        path: &Path,
        label: &str,
        config: JournalConfig,
        factory: impl FnOnce() -> Dfms,
    ) -> Result<(Self, dgf_dgl::RecoveryReport), DfmsError> {
        let (engine, report) = Dfms::recover(path, label, config, factory)?;
        Ok((Self::start(engine), report))
    }

    /// A client handle (cheap to clone, safe to share across threads).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { sender: self.sender.clone(), stats: Arc::clone(&self.stats) }
    }

    /// Scoped, locked access to the engine (tests, administration).
    ///
    /// The closure runs under the engine lock and the lock is released
    /// before this returns: callers can inspect or pump the engine but
    /// can never retain a shared `Arc<Mutex<Dfms>>` to it. In a
    /// federation, peers talk to a shard over the wire or the bus —
    /// never through a leaked engine handle.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Dfms) -> R) -> R {
        f(&mut self.engine.lock())
    }

    /// Stop the worker and return (requests served, the engine — by
    /// value).
    ///
    /// Ownership transfer is total: once the worker joins, the server
    /// holds the last reference to the engine, so the engine moves out
    /// rather than being shared. A shut-down shard therefore cannot
    /// leave stale engine handles behind in other domains.
    ///
    /// If the worker thread panicked, the panic is logged (payload
    /// included) rather than swallowed, and the served count falls back
    /// to the shared `ServerStats` counter — which is exact up to the
    /// request that killed the worker.
    pub fn shutdown(mut self) -> (u64, Dfms) {
        let _ = self.sender.send(ClientMessage::Shutdown);
        let served = match self.worker.take().expect("worker present until shutdown").join() {
            Ok(served) => served,
            Err(payload) => {
                eprintln!("dfms-server worker panicked: {}", panic_message(payload.as_ref()));
                self.stats.served()
            }
        };
        let engine = Arc::clone(&self.engine);
        // Run Drop now (the worker is already joined, so the extra
        // shutdown send is a no-op), releasing the server's own handle.
        drop(self);
        let engine = Arc::try_unwrap(engine)
            .expect("worker joined; the server held the last engine handle")
            .into_inner();
        (served, engine)
    }
}

impl Drop for DfmsServer {
    fn drop(&mut self) {
        let _ = self.sender.send(ClientMessage::Shutdown);
        if let Some(worker) = self.worker.take() {
            if let Err(payload) = worker.join() {
                eprintln!("dfms-server worker panicked: {}", panic_message(payload.as_ref()));
            }
        }
    }
}

impl ServerHandle {
    /// Send a DGL XML request and wait for the DGL XML response.
    ///
    /// Returns `None` *only* if the server has shut down. Malformed or
    /// unrecognized documents still get a structured DGL error response
    /// (an invalid [`dgf_dgl::RequestAck`] with a diagnostic message).
    pub fn request(&self, xml: &str) -> Option<String> {
        let (reply_tx, reply_rx) = bounded(1);
        self.stats.record_enqueue();
        self.sender
            .send(ClientMessage::Request {
                xml: xml.to_owned(),
                reply: reply_tx,
                // dgf-audit: allow(DGA002) reason="enqueue timestamp only feeds the report-only queue-wait histogram; replies and engine state never read it"
                enqueued_at: Instant::now(),
            })
            .ok()?;
        reply_rx.recv().ok()
    }

    /// Send `request` and parse the answer's body. `None` when the
    /// server has shut down or the answer does not parse.
    fn exchange(&self, request: dgf_dgl::DataGridRequest) -> Option<dgf_dgl::ResponseBody> {
        let response = self.request(&request.to_xml())?;
        Some(dgf_dgl::parse_response(&response).ok()?.body)
    }

    /// Fetch the grid-global Prometheus-style text scrape over the wire.
    ///
    /// Returns `None` if the server has shut down or answered with
    /// something other than a telemetry report.
    pub fn scrape(&self) -> Option<String> {
        let query = dgf_dgl::TelemetryQuery::scrape();
        match self.exchange(dgf_dgl::DataGridRequest::telemetry("scrape", "operator", query))? {
            dgf_dgl::ResponseBody::Telemetry(report) => report.scrape,
            _ => None,
        }
    }

    /// Tail the flight recorder from `cursor` over the wire.
    ///
    /// The returned report carries the events (oldest first), the cursor
    /// to resume from, and an explicit count of events evicted before
    /// the reader caught up. Returns `None` if the server has shut down
    /// or answered with something other than a telemetry report.
    pub fn tail(&self, cursor: u64, limit: Option<usize>) -> Option<dgf_dgl::TelemetryReport> {
        let mut query = dgf_dgl::TelemetryQuery::tail(cursor);
        if let Some(limit) = limit {
            query = query.with_limit(limit);
        }
        match self.exchange(dgf_dgl::DataGridRequest::telemetry("tail", "operator", query))? {
            dgf_dgl::ResponseBody::Telemetry(report) => Some(report),
            _ => None,
        }
    }

    /// Ask the server where its journal stands (the DGL `recoveryQuery`
    /// wire pair). Returns `None` if the server has shut down or
    /// answered with something other than a recovery report.
    pub fn recovery(&self) -> Option<dgf_dgl::RecoveryReport> {
        let query = dgf_dgl::RecoveryQuery::report();
        match self.exchange(dgf_dgl::DataGridRequest::recovery("recovery", "operator", query))? {
            dgf_dgl::ResponseBody::Recovery(report) => Some(report),
            _ => None,
        }
    }

    /// Run one time-travel query over the wire (the DGL
    /// `timeTravelQuery` pair): inspect an ordinal, diff two, or bisect
    /// history. The server must have called
    /// [`Dfms::enable_time_travel`]; otherwise the report comes back
    /// with `enabled: false`. Returns `None` if the server has shut
    /// down or answered with something other than a time-travel report.
    pub fn time_travel(&self, query: dgf_dgl::TimeTravelQuery) -> Option<dgf_dgl::TimeTravelReport> {
        match self.exchange(dgf_dgl::DataGridRequest::time_travel("time-travel", "operator", query))? {
            dgf_dgl::ResponseBody::TimeTravel(report) => Some(report),
            _ => None,
        }
    }

    /// Run one profile query over the wire (the DGL `profileQuery`
    /// pair): the engine's phase-attribution tree, optionally the
    /// folded-stack text, plus this server's contention counters.
    /// Returns `None` if the server has shut down or answered with
    /// something other than a profile report.
    pub fn profile(&self, query: dgf_dgl::ProfileQuery) -> Option<dgf_dgl::ProfileReport> {
        match self.exchange(dgf_dgl::DataGridRequest::profile("profile", "operator", query))? {
            dgf_dgl::ResponseBody::Profile(report) => Some(report),
            _ => None,
        }
    }

    /// Run one attribution query over the wire (the DGL `whyQuery`
    /// pair): completed-flow critical paths, the wait-state bottleneck
    /// table, and SLA alert lifecycles with burn rates. Returns `None`
    /// if the server has shut down or answered with something other
    /// than a why report.
    pub fn why(&self, query: dgf_dgl::WhyQuery) -> Option<dgf_dgl::WhyReport> {
        match self.exchange(dgf_dgl::DataGridRequest::why("why", "operator", query))? {
            dgf_dgl::ResponseBody::Why(report) => Some(report),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_dgl::{DataGridRequest, DglOperation, FlowBuilder, ResponseBody, RunState};
    use dgf_dgms::{DataGrid, LogicalPath, Principal, UserRegistry};
    use dgf_scheduler::{PlannerKind, Scheduler};
    use dgf_simgrid::{GridBuilder, GridPreset};

    fn engine() -> Dfms {
        let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 1 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
        users.make_admin("u").unwrap();
        Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 1))
    }

    fn ingest_request(id: &str, path: &str) -> String {
        let flow = FlowBuilder::sequential("f")
            .step("i", DglOperation::Ingest { path: path.into(), size: "100".into(), resource: "site0-disk".into() })
            .build()
            .unwrap();
        DataGridRequest::flow(id, "u", flow).to_xml()
    }

    #[test]
    fn synchronous_xml_round_trip_over_the_server() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let response_xml = handle.request(&ingest_request("r1", "/a.dat")).unwrap();
        let response = dgf_dgl::parse_response(&response_xml).unwrap();
        match response.body {
            ResponseBody::Status(s) => assert_eq!(s.state, RunState::Completed),
            other => panic!("expected final status, got {other:?}"),
        }
        let (served, engine) = server.shutdown();
        assert_eq!(served, 1);
        assert!(engine.grid().exists(&LogicalPath::parse("/a.dat").unwrap()));
    }

    #[test]
    fn concurrent_clients_are_serialized_safely() {
        let server = DfmsServer::start(engine());
        let mut joins = Vec::new();
        for i in 0..8 {
            let handle = server.handle();
            joins.push(std::thread::spawn(move || {
                let xml = ingest_request(&format!("r{i}"), &format!("/f{i}.dat"));
                let response = handle.request(&xml).unwrap();
                dgf_dgl::parse_response(&response).unwrap()
            }));
        }
        for join in joins {
            let response = join.join().unwrap();
            match response.body {
                ResponseBody::Status(s) => assert_eq!(s.state, RunState::Completed),
                other => panic!("{other:?}"),
            }
        }
        let (served, engine) = server.shutdown();
        assert_eq!(served, 8);
        assert_eq!(engine.grid().stats().objects, 8);
    }

    #[test]
    fn async_submission_then_status_poll() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let flow = FlowBuilder::sequential("f")
            .step("i", DglOperation::Ingest { path: "/x".into(), size: "1".into(), resource: "site0-disk".into() })
            .build()
            .unwrap();
        let async_req = DataGridRequest::flow("r1", "u", flow).asynchronous().to_xml();
        let ack_xml = handle.request(&async_req).unwrap();
        let ack = dgf_dgl::parse_response(&ack_xml).unwrap();
        let txn = ack.transaction().to_owned();
        match ack.body {
            ResponseBody::Ack(a) => assert!(a.valid),
            other => panic!("{other:?}"),
        }
        // The engine has not been pumped; pump it via scoped access.
        server.with_engine(|e| e.pump());
        let status_req = DataGridRequest::status("r2", "u", dgf_dgl::FlowStatusQuery::whole(&txn)).to_xml();
        let status = dgf_dgl::parse_response(&handle.request(&status_req).unwrap()).unwrap();
        match status.body {
            ResponseBody::Status(s) => assert_eq!(s.state, RunState::Completed),
            other => panic!("{other:?}"),
        }
        drop(handle);
        let _ = server.shutdown();
    }

    #[test]
    fn malformed_requests_get_invalid_acks() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let response = dgf_dgl::parse_response(&handle.request("<garbage").unwrap()).unwrap();
        match response.body {
            ResponseBody::Ack(a) => {
                assert!(!a.valid);
                assert!(a.message.is_some());
            }
            other => panic!("{other:?}"),
        }
    }

    // Regression (federation isolation): `shutdown` hands the engine
    // back by value — `Dfms`, not `Arc<Mutex<Dfms>>` — so no caller can
    // retain a shared handle into a shard after it stops. Cross-shard
    // access must go over the wire or the fabric bus.
    #[test]
    fn shutdown_returns_the_engine_by_value_with_no_shared_handles() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let _ = handle.request(&ingest_request("r1", "/owned.dat")).unwrap();
        drop(handle);
        let (served, engine) = server.shutdown();
        assert_eq!(served, 1);
        // Usable directly: no lock, no Arc, sole owner.
        fn takes_owned(engine: Dfms) -> Dfms {
            engine
        }
        let engine = takes_owned(engine);
        assert!(engine.grid().exists(&LogicalPath::parse("/owned.dat").unwrap()));
    }

    // Pin: None from `request` means "server shut down", nothing else.
    // Malformed XML and well-formed-but-unrecognized XML both yield a
    // structured DGL error response, never a silent drop.
    #[test]
    fn every_bad_document_yields_a_structured_error_never_none() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        // A 40 KB loop condition `1+1+…+1 < 0`: evaluating, linting or
        // dropping the left-deep tree of a 20 000-term chain would
        // overflow the server thread's stack, so parsing must refuse it.
        let long_chain = format!(
            "<dataGridRequest id=\"r\"><gridUser name=\"u\"/><flow name=\"f\"><flowLogic><while><tcondition>{} &lt; 0</tcondition></while></flowLogic><children/></flow></dataGridRequest>",
            vec!["1"; 20_000].join("+")
        );
        for bad in [
            "",                                  // empty document
            "<unclosed",                         // malformed XML
            "not xml at all",                    // plain text
            "<wrongRoot/>",                      // well-formed, wrong root
            "<dataGridRequest id=\"r\"/>",       // recognized root, no body
            "<dataGridRequest id=\"r\"><mystery/></dataGridRequest>", // unknown body
            long_chain.as_str(),                 // binary chain too long
        ] {
            let xml = handle
                .request(bad)
                .unwrap_or_else(|| panic!("request({bad:?}) returned None with the server alive"));
            let response = dgf_dgl::parse_response(&xml)
                .unwrap_or_else(|e| panic!("unparseable error response for {bad:?}: {e}"));
            match response.body {
                ResponseBody::Ack(a) => {
                    assert!(!a.valid, "{bad:?} must be rejected");
                    assert!(a.message.is_some(), "{bad:?} must carry a diagnostic");
                }
                other => panic!("expected invalid ack for {bad:?}, got {other:?}"),
            }
        }
        drop(handle);
        let _ = server.shutdown();
    }

    #[test]
    fn none_is_reserved_for_shutdown() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let _ = server.shutdown();
        assert!(handle.request("<garbage").is_none());
    }

    #[test]
    fn journaled_server_survives_a_restart_via_recover() {
        let dir = std::env::temp_dir().join(format!("dgf-server-journal-{:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.dgj");
        let _ = std::fs::remove_file(&path);
        let config = JournalConfig::default();

        let server = DfmsServer::start_journaled(engine(), &path, "test-grid", config).unwrap();
        let handle = server.handle();
        let _ = handle.request(&ingest_request("r1", "/k.dat")).unwrap();
        // An un-recovered journaled server answers the recovery query
        // with its journal position and no replay block.
        let live = handle.recovery().unwrap();
        assert!(live.journaled);
        assert!(live.replay.is_none());
        drop(handle);
        let _ = server.shutdown(); // hard stop: journal stays on disk

        let (revived, report) = DfmsServer::recover(&path, "test-grid", config, engine).unwrap();
        assert!(report.journaled);
        let replay = report.replay.expect("recovered server reports replay stats");
        assert_eq!(replay.commands_replayed, 1);
        assert_eq!(replay.divergences, 0);
        assert_eq!(report.flows.len(), 1);
        assert_eq!(report.flows[0].state, RunState::Completed);
        // The re-derived grid state holds the ingested object.
        assert!(revived
            .with_engine(|e| e.grid().exists(&LogicalPath::parse("/k.dat").unwrap())));
        // And the wire query agrees with the boot report.
        let wire = revived.handle().recovery().unwrap();
        assert_eq!(wire.replay, report.replay);
        let _ = revived.shutdown();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_refuses_a_mismatched_genesis_label() {
        let dir = std::env::temp_dir().join(format!("dgf-server-label-{:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("label.dgj");
        let _ = std::fs::remove_file(&path);
        let config = JournalConfig::default();
        let server = DfmsServer::start_journaled(engine(), &path, "grid-a", config).unwrap();
        let _ = server.handle().request(&ingest_request("r1", "/m.dat")).unwrap();
        let _ = server.shutdown();
        let err = DfmsServer::recover(&path, "grid-b", config, engine).err().unwrap();
        assert!(err.to_string().contains("genesis label mismatch"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_over_the_wire_reports_phases_and_contention() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let _ = handle.request(&ingest_request("r1", "/p.dat")).unwrap();
        let report = handle.profile(dgf_dgl::ProfileQuery::new().with_folded(true)).unwrap();
        let names: Vec<&str> = report.phases.iter().map(|p| p.phase.as_str()).collect();
        assert!(names.contains(&"dgl-parse"), "{names:?}");
        assert!(names.contains(&"step-execute"), "{names:?}");
        assert!(names.contains(&"provenance-append"), "{names:?}");
        // Every phase so far ran under a request, so call counts are
        // deterministic and sim time only accrues inside step-execute.
        let parse = report.phases.iter().find(|p| p.phase == "dgl-parse").unwrap();
        assert_eq!(parse.depth, 0);
        assert_eq!(parse.calls, 2); // the ingest + this profile query
        let folded = report.folded.expect("folded stacks requested");
        assert!(folded.lines().any(|l| l.starts_with("step-execute;provenance-append ")), "{folded}");
        let contention = report.contention.expect("a served engine carries contention stats");
        assert!(contention.enqueued >= 2, "{contention:?}");
        assert_eq!(contention.hists.len(), 3);
        let hold = contention.hists.iter().find(|h| h.name == "lock-hold").unwrap();
        assert!(hold.count >= 1, "{hold:?}");
        assert!(hold.sum_ns >= hold.min_ns, "{hold:?}");
        drop(handle);
        let _ = server.shutdown();
    }

    #[test]
    fn profile_reset_starts_a_fresh_interval() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let _ = handle.request(&ingest_request("r1", "/q.dat")).unwrap();
        let first = handle.profile(dgf_dgl::ProfileQuery::new().with_reset(true)).unwrap();
        assert!(first.total_calls() > 0);
        // After the reset, only the follow-up query's own parse can have
        // landed in the tree: the flow's phases are gone.
        let second = handle.profile(dgf_dgl::ProfileQuery::new()).unwrap();
        assert!(
            !second.phases.iter().any(|p| p.phase == "step-execute"),
            "{:?}",
            second.phases
        );
        drop(handle);
        let _ = server.shutdown();
    }

    #[test]
    fn panic_messages_survive_common_payload_types() {
        let p1 = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(panic_message(p1.as_ref()), "boom");
        let p2 = std::panic::catch_unwind(|| panic!("{}", String::from("formatted boom"))).unwrap_err();
        assert_eq!(panic_message(p2.as_ref()), "formatted boom");
        let p3 = std::panic::catch_unwind(|| std::panic::panic_any(42_i32)).unwrap_err();
        assert_eq!(panic_message(p3.as_ref()), "non-string panic payload");
    }

    #[test]
    fn scrape_and_tail_work_over_the_wire() {
        let server = DfmsServer::start(engine());
        let handle = server.handle();
        let _ = handle.request(&ingest_request("r1", "/t.dat")).unwrap();
        let scrape = handle.scrape().unwrap();
        assert!(scrape.starts_with("# dgf telemetry scrape at "));
        assert!(scrape.contains("dgf_metric{scope=\"server\",name=\"requests.served\""));
        let page = handle.tail(0, Some(4)).unwrap();
        assert_eq!(page.events.len(), 4);
        assert_eq!(page.dropped, Some(0));
        let next = handle.tail(page.next_cursor.unwrap(), None).unwrap();
        // Resuming from the returned cursor never re-delivers an event.
        assert!(next.events.iter().all(|e| e.seq >= page.next_cursor.unwrap()));
        drop(handle);
        let _ = server.shutdown();
    }
}
