//! `wire_ingest`: one closed-loop DGL client thread drives a journaled
//! `DfmsServer` on a 2-site mesh.
//!
//! Each synchronous SCEC-style ingest flow creates a collection, ingests
//! two to four 4 KiB objects, checksums them with `register` and
//! replicates them to the second site; a §2.2 trigger tags every
//! ingested object. Four status queries for random earlier transactions
//! follow each submit (two whole-flow, two node-level), and a telemetry
//! scrape runs every 50 submits. One repetition is a fresh server and a
//! fixed number of submits; repetitions run until the time budget is
//! spent.

use crate::common::{self, mean, ratio, Rng, USER};
use crate::trace::Tracer;
use crate::{ms, secs, stats, Checks, Config, Outcome};
use datagridflows::dfms::ServerHandle;
use datagridflows::dgl::{parse_response, ProfileQuery, ResponseBody};
use datagridflows::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

const LABEL: &str = "perfbench-wire";
const SEED: u64 = 11;
/// Synchronous submits per repetition.
const SUBMITS: usize = 600;
const STATUS_PER_SUBMIT: usize = 4;
const SCRAPE_EVERY: usize = 50;
const MIN_SETUPS: usize = 15;
const EXTRA_SETUPS: usize = 3;

/// One repetition's measurements.
#[derive(Default)]
struct Rep {
    submit_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    status_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    /// Σ round trips, seconds.
    busy_s: f64,
    requests: usize,
    objects: usize,
    response_bytes: usize,
    last_scrape_bytes: usize,
    /// Every request document (kept for the traced parse probe).
    docs: Vec<String>,
    /// The status documents, for the in-process handoff probe.
    status_docs: Vec<String>,
}

/// Start a server journaling to a fresh `path` and create `/scec`
/// through it.
fn setup(path: &Path, checks: &mut Checks) -> DfmsServer {
    let _ = std::fs::remove_file(path);
    let server = DfmsServer::start_journaled(
        common::scec_engine(SEED),
        path,
        LABEL,
        JournalConfig::default(),
    )
    .expect("a fresh journal in the work directory attaches");
    let xml = DataGridRequest::flow("root", USER, common::scec_root()).to_xml();
    let answer = server.handle().request(&xml).unwrap_or_default();
    let ok = matches!(parse_response(&answer).map(|r| r.body), Ok(ResponseBody::Status(s)) if s.state == RunState::Completed);
    checks.invariant(ok, || format!("set-up: creating /scec answered {answer}"));
    server
}

/// One untimed-phase set-up, shut down again: a set-up sample only.
fn setup_sample(path: &Path, out: &mut Outcome) {
    let t = Instant::now();
    let server = setup(path, &mut out.checks);
    out.setup_s.push(secs(t));
    drop(server.shutdown());
    let _ = std::fs::remove_file(path);
}

/// One timed request: the round trip of `ServerHandle::request`.
fn request(
    handle: &ServerHandle,
    tracer: &mut Tracer,
    name: &'static str,
    xml: &str,
) -> (String, f64) {
    let open = tracer.enter("dfms.server", name);
    let t = Instant::now();
    let answer = handle.request(xml);
    let dt = ms(t);
    tracer.exit(open);
    (answer.unwrap_or_default(), dt)
}

fn status_of(answer: &str) -> Option<StatusReport> {
    match parse_response(answer).ok()?.body {
        ResponseBody::Status(s) => Some(s),
        _ => None,
    }
}

/// Drive one repetition's traffic through `handle`.
fn drive(cfg: &Config, handle: &ServerHandle, checks: &mut Checks, tracer: &mut Tracer) -> Rep {
    let checkpoint_every = JournalConfig::default().checkpoint_every as usize;
    let mut rng = Rng::new(cfg.seed, 1);
    let mut rep = Rep::default();
    let mut seen = BTreeSet::new();
    let mut done: Vec<(String, usize)> = Vec::new();
    for i in 0..SUBMITS {
        let objects = common::ingest_objects(&mut rng);
        rep.objects += objects;
        let (flow, steps) = common::scec_flow(&format!("c{i}"), objects);
        let name = flow.name.clone();
        let xml = DataGridRequest::flow(format!("submit-{i}"), USER, flow).to_xml();
        tracer.begin_trace();
        let (answer, dt) = request(handle, tracer, "submit", &xml);
        rep.submit_ms.push(dt);
        // The set-up's root flow is command 1; a checkpoint follows
        // every `checkpoint_every`-th command.
        if (i + 2) % checkpoint_every == 0 {
            rep.checkpoint_ms.push(dt);
        }
        let report = status_of(&answer);
        let ok = report.as_ref().is_some_and(|s| {
            s.state == RunState::Completed
                && s.name == name
                && s.node == "/"
                && !seen.contains(&s.transaction)
        });
        checks.op(ok, || {
            format!(
                "submit {i} answered {}",
                answer.chars().take(300).collect::<String>()
            )
        });
        if let Some(s) = report.filter(|_| ok) {
            seen.insert(s.transaction.clone());
            done.push((s.transaction, steps));
        }
        rep.response_bytes += answer.len();
        rep.busy_s += dt / 1e3;
        rep.requests += 1;
        rep.docs.push(xml);

        for q in 0..STATUS_PER_SUBMIT {
            if done.is_empty() {
                break;
            }
            let (txn, steps) = &done[rng.below(done.len())];
            let query = if q < 2 {
                FlowStatusQuery::whole(txn.clone())
            } else {
                FlowStatusQuery::node(txn.clone(), format!("/{}", rng.below(*steps)))
            };
            let want_node = query.node.clone().unwrap_or_else(|| "/".to_owned());
            let xml = DataGridRequest::status(format!("status-{i}-{q}"), USER, query).to_xml();
            tracer.begin_trace();
            let (answer, dt) = request(handle, tracer, "status", &xml);
            rep.status_ms.push(dt);
            let ok =
                status_of(&answer).is_some_and(|s| &s.transaction == txn && s.node == want_node);
            checks.op(ok, || {
                format!(
                    "status of {txn} {want_node} answered {}",
                    answer.chars().take(300).collect::<String>()
                )
            });
            rep.response_bytes += answer.len();
            rep.busy_s += dt / 1e3;
            rep.requests += 1;
            rep.docs.push(xml.clone());
            rep.status_docs.push(xml);
        }

        if (i + 1) % SCRAPE_EVERY == 0 {
            let xml =
                DataGridRequest::telemetry(format!("scrape-{i}"), USER, TelemetryQuery::scrape())
                    .to_xml();
            tracer.begin_trace();
            let (answer, dt) = request(handle, tracer, "scrape", &xml);
            rep.scrape_ms.push(dt);
            let scrape = match parse_response(&answer).map(|r| r.body) {
                Ok(ResponseBody::Telemetry(t)) => t.scrape.unwrap_or_default(),
                _ => String::new(),
            };
            checks.op(!scrape.is_empty(), || {
                format!(
                    "scrape {i} answered {}",
                    answer.chars().take(300).collect::<String>()
                )
            });
            rep.last_scrape_bytes = scrape.len();
            rep.response_bytes += answer.len();
            rep.busy_s += dt / 1e3;
            rep.requests += 1;
        }
    }
    rep
}

/// Per-layer metrics from the first repetition (traced runs).
fn layers(out: &mut Outcome, server: &DfmsServer, path: &Path, rep: &Rep) {
    let handle = server.handle();
    let profile = handle
        .profile(ProfileQuery::new())
        .expect("the server answers a profile query");
    let phases = common::phases_of_report(&profile.phases);
    let commands = (SUBMITS + 1) as f64;
    server.with_engine(|e| {
        common::engine_layers(out, &phases, &[&*e], commands as usize);
        let recovery = e.recovery_query();
        out.layer("journal.file_bytes", recovery.journal_bytes as f64);
        out.layer(
            "journal.bytes_per_command",
            recovery.journal_bytes as f64 / commands,
        );
        out.layer(
            "journal.checkpoints",
            e.obs().snapshot().counter("journal", "checkpoints") as f64,
        );
    });
    let append = phases.get("journal-append").copied().unwrap_or_default();
    let fsync = phases.get("journal-fsync").copied().unwrap_or_default();
    out.layer(
        "journal.records_per_command",
        append.calls as f64 / commands,
    );
    out.layer("journal.fsyncs_per_command", fsync.calls as f64 / commands);
    out.layer(
        "journal.append_us_per_record",
        ratio(append.wall_ns as f64 / 1e3, append.calls as f64),
    );
    out.layer("journal.checkpoint_submit_ms", mean(&rep.checkpoint_ms));
    out.layer(
        "journal.checkpoint_submit_share",
        rep.checkpoint_ms.iter().sum::<f64>() / rep.submit_ms.iter().sum::<f64>(),
    );
    let t = Instant::now();
    let (records, _) =
        datagridflows::journal::Journal::read(path).expect("the live journal reads back");
    let read_ms = ms(t);
    std::hint::black_box(records);
    let mib = std::fs::metadata(path).map_or(0, |m| m.len()) as f64 / (1024.0 * 1024.0);
    out.layer("journal.read_ms_per_mb", ratio(read_ms, mib));

    if let Some(c) = &profile.contention {
        let hist = |name: &str| {
            c.hists
                .iter()
                .find(|h| h.name == name)
                .map_or(0.0, |h| ratio(h.sum_ns as f64 / 1e3, h.count as f64))
        };
        out.layer("dfms.server.lock_hold_us", hist("lock-hold"));
        out.layer("dfms.server.queue_wait_us", hist("queue-wait"));
        out.layer("dfms.server.queue_depth_max", c.queue_depth_max as f64);
    }
    // Handoff: the median status round trip minus the median in-engine
    // cost of the same documents (parse, answer, serialise), timed
    // under the engine lock without the server's channel.
    let probe: Vec<f64> = server.with_engine(|e| {
        rep.status_docs
            .iter()
            .map(|doc| {
                let t = Instant::now();
                std::hint::black_box(e.handle_xml(doc));
                ms(t) * 1e3
            })
            .collect()
    });
    out.layer(
        "dfms.server.handoff_us",
        stats::median(&rep.status_ms) * 1e3 - stats::median(&probe),
    );
    out.layer(
        "dgl.response_bytes",
        ratio(rep.response_bytes as f64, rep.requests as f64),
    );
    out.layer("obs.scrape_bytes", rep.last_scrape_bytes as f64);
    let tenth = rep.submit_ms.len().div_ceil(10);
    let head = mean(&rep.submit_ms[..tenth]);
    let tail = mean(&rep.submit_ms[rep.submit_ms.len() - tenth..]);
    out.layer("dfms.history_cost_ratio", ratio(tail, head));
    common::parse_layers(out, &rep.docs);
    out.layer(
        "dgms.digest_ms_per_object",
        common::digest_ms_per_object(rep.objects, common::SMALL_OBJECT),
    );
}

/// Run the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let dir = cfg.journal_dir();
    let path = dir.join("wire.dgj");
    let mut out = Outcome::default();
    let (mut submit, mut status, mut scrape) = (Vec::new(), Vec::new(), Vec::new());
    let mut checkpoint = Vec::new();
    let (mut busy_s, mut requests) = (0.0, 0usize);
    while out.repetitions == 0 || busy_s < cfg.seconds {
        // Extra set-ups between repetitions spread the set-up samples
        // over the whole run.
        for _ in 0..EXTRA_SETUPS {
            setup_sample(&path, &mut out);
        }
        let t = Instant::now();
        let server = setup(&path, &mut out.checks);
        out.setup_s.push(secs(t));
        let rep = drive(cfg, &server.handle(), &mut out.checks, tracer);
        if cfg.traced && out.repetitions == 0 {
            layers(&mut out, &server, &path, &rep);
        }
        drop(server.shutdown());
        let _ = std::fs::remove_file(&path);
        busy_s += rep.busy_s;
        requests += rep.requests;
        submit.push(rep.submit_ms);
        checkpoint.extend(rep.checkpoint_ms);
        status.push(rep.status_ms);
        scrape.push(rep.scrape_ms);
        out.repetitions += 1;
    }
    while out.setup_s.len() < MIN_SETUPS {
        setup_sample(&path, &mut out);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Headline numbers: each request's median round trip across the
    // repetitions (the same request sequence every time).
    let typical: Vec<Vec<f64>> = [&submit, &status, &scrape]
        .iter()
        .map(|reps| stats::elementwise_median(reps))
        .collect();
    let typical_busy_s: f64 = typical.iter().flatten().sum::<f64>() / 1e3;
    out.throughput_per_s = typical.iter().map(Vec::len).sum::<usize>() as f64 / typical_busy_s;
    // One median per submit position: SUBMITS samples, enough for a p50.
    out.op_ms = stats::percentile(&typical[0], 50.0).unwrap_or(f64::NAN);
    out.detail(
        "rep_median_requests_per_s",
        "1/s",
        out.throughput_per_s,
        out.repetitions,
    );
    out.detail(
        "rep_median_submit_p50_ms",
        "ms",
        out.op_ms,
        typical[0].len(),
    );
    out.keep_reps("submit_ms", &submit);
    out.keep_reps("status_ms", &status);
    out.keep_reps("scrape_ms", &scrape);
    let (submit, status, scrape) = (submit.concat(), status.concat(), scrape.concat());
    out.detail("requests_per_s", "1/s", requests as f64 / busy_s, requests);
    out.percentile_detail("submit_p50_ms", &submit, 50.0);
    let submit_p99 = out.percentile_detail("submit_p99_ms", &submit, 99.0);
    let status_p50 = out.percentile_detail("status_p50_ms", &status, 50.0);
    let status_p99 = out.percentile_detail("status_p99_ms", &status, 99.0);
    let scrape_p50 = out.percentile_detail("scrape_p50_ms", &scrape, 50.0);
    out.detail(
        "checkpoint_submit_share",
        "ratio",
        checkpoint.iter().sum::<f64>() / submit.iter().sum::<f64>(),
        submit.len(),
    );
    if cfg.traced {
        out.layer("dfms.server.submit_p99_ms", submit_p99.unwrap_or(0.0));
        out.layer("dfms.server.status_p50_ms", status_p50.unwrap_or(0.0));
        out.layer("dfms.server.status_p99_ms", status_p99.unwrap_or(0.0));
        out.layer("dfms.server.scrape_p50_ms", scrape_p50.unwrap_or(0.0));
    }
    out.keep("submit_ms", &submit);
    out.keep("status_ms", &status);
    out.keep("scrape_ms", &scrape);
    out.keep("checkpoint_submit_ms", &checkpoint);
    out
}
