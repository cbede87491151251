//! `crash_recover`: the read side of the journal `wire_ingest` writes.
//!
//! Set-up drives `wire_ingest`'s flow mix in-process into a journaled
//! engine, submits the final tenth asynchronously and leaves it in
//! flight, then drops the engine: the crash. The timed phase recovers
//! that journal with `Dfms::recover` again and again. `recover`
//! checkpoints and compacts the file it replays, so every repetition
//! replays a fresh copy of the pristine journal, made and compared
//! byte for byte outside the timed region, after one untimed warm-up.

use crate::common::{self, ratio, Rng, USER};
use crate::trace::Tracer;
use crate::{ms, secs, stats, Checks, Config, Outcome};
use datagridflows::dgl::{FlowRecovery, ResponseBody};
use datagridflows::prelude::*;
use std::path::Path;
use std::time::Instant;

const LABEL: &str = "perfbench-crash";
const SEED: u64 = 13;
/// Flows journaled by each set-up. Kept small so one recovery lasts a
/// fraction of a second: the best of many short recoveries is what
/// stays steady on a host whose speed changes every few seconds.
const SUBMITS: usize = 300;
/// Set-ups before the first recovery; one more follows every
/// [`SETUP_EVERY`] recoveries, so the set-up samples span the run.
const SETUPS: usize = 3;
const SETUP_EVERY: usize = 10;
const MIN_RECOVERIES: usize = 3;

/// What the generated journal holds.
struct Generated {
    /// Commands journaled (the root flow plus every submit).
    commands: u64,
    /// The pre-crash engine's flow summaries.
    flows: Vec<FlowRecovery>,
    /// The request documents (for the traced parse probe).
    docs: Vec<String>,
    /// Objects ingested.
    objects: usize,
}

/// Write the journal at `path` and crash the engine that wrote it.
fn generate(cfg: &Config, path: &Path, out: &mut Outcome, traced: bool) -> Generated {
    let checks = &mut out.checks;
    let _ = std::fs::remove_file(path);
    let mut d = common::scec_engine(SEED);
    d.attach_journal(path, LABEL, JournalConfig::default())
        .expect("a fresh journal attaches");
    let root = d.handle(DataGridRequest::flow("root", USER, common::scec_root()));
    checks.invariant(
        matches!(&root.body, ResponseBody::Status(s) if s.state == RunState::Completed),
        || format!("set-up: creating /scec answered {root:?}"),
    );
    let in_flight_from = SUBMITS - SUBMITS / 10;
    let mut rng = Rng::new(cfg.seed, 1);
    let (mut docs, mut objects) = (Vec::new(), 0);
    for i in 0..SUBMITS {
        let n = common::ingest_objects(&mut rng);
        objects += n;
        let (flow, _) = common::scec_flow(&format!("c{i}"), n);
        let mut req = DataGridRequest::flow(format!("submit-{i}"), USER, flow);
        if i >= in_flight_from {
            req = req.asynchronous();
        }
        if traced {
            docs.push(req.to_xml());
        }
        let answer = d.handle(req);
        let ok = match &answer.body {
            ResponseBody::Status(s) => i < in_flight_from && s.state == RunState::Completed,
            ResponseBody::Ack(a) => i >= in_flight_from && a.valid,
            _ => false,
        };
        checks.op(ok, || format!("set-up submit {i} answered {answer:?}"));
    }
    let flows = d.flow_summaries();
    checks.invariant(
        flows.iter().filter(|f| !f.state.is_terminal()).count() == SUBMITS - in_flight_from,
        || "set-up: the final tenth is not left in flight".to_owned(),
    );
    if traced {
        // Journal write cost, from the engine that wrote it.
        let phases = common::phases_of_snapshot(&d.profile_snapshot());
        let commands = (SUBMITS + 1) as f64;
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
        let recovery = d.recovery_query();
        out.layer("journal.file_bytes", recovery.journal_bytes as f64);
        out.layer(
            "journal.bytes_per_command",
            recovery.journal_bytes as f64 / commands,
        );
        out.layer(
            "journal.checkpoints",
            d.obs().snapshot().counter("journal", "checkpoints") as f64,
        );
    }
    drop(d); // the crash: no shutdown, the journal stays as written
    Generated {
        commands: (SUBMITS + 1) as u64,
        flows,
        docs,
        objects,
    }
}

/// Compare two files byte for byte.
fn same_bytes(a: &Path, b: &Path) -> bool {
    matches!((std::fs::read(a), std::fs::read(b)), (Ok(x), Ok(y)) if x == y)
}

/// Copy the pristine journal over the working one and check the copy.
fn fresh_copy(pristine: &Path, work: &Path, checks: &mut Checks) {
    let _ = std::fs::remove_file(work);
    let copied = std::fs::copy(pristine, work).is_ok();
    checks.invariant(copied && same_bytes(pristine, work), || {
        "the working copy differs from the pristine journal".to_owned()
    });
}

fn key(flows: &[FlowRecovery]) -> Vec<(String, String, RunState, u64, u64)> {
    flows.iter().map(common::summary_key).collect()
}

/// Check one recovery against the pre-crash engine.
fn check_recovery(
    checks: &mut Checks,
    gen: &Generated,
    engine: &Dfms,
    report: &datagridflows::dgl::RecoveryReport,
) {
    let replay = report.replay.unwrap_or_default();
    let ok = report.replay.is_some()
        && replay.divergences == 0
        && replay.commands_replayed == gen.commands
        && key(&engine.flow_summaries()) == key(&gen.flows);
    checks.op(ok, || {
        format!(
            "recovery: {} divergences, {} of {} commands replayed, flow summaries equal: {}",
            replay.divergences,
            replay.commands_replayed,
            gen.commands,
            key(&engine.flow_summaries()) == key(&gen.flows)
        )
    });
}

/// Per-layer metrics of one recovery (traced runs).
fn layers(out: &mut Outcome, gen: &Generated, engine: &Dfms, pristine: &Path) {
    let phases = common::phases_of_snapshot(&engine.profile_snapshot());
    common::engine_layers(out, &phases, &[engine], gen.commands as usize);
    let replay = engine.last_replay().unwrap_or_default();
    out.layer(
        "dfms.recovery.commands_replayed",
        replay.commands_replayed as f64,
    );
    out.layer(
        "dfms.recovery.records_verified",
        replay.records_matched as f64,
    );
    out.layer("dfms.recovery.divergences", replay.divergences as f64);
    out.layer(
        "dfms.recovery.steps_skipped_restart",
        replay.steps_skipped_restart as f64,
    );
    // The replay's journal-append phase holds transition verification,
    // the final checkpoint and compaction; every other root phase is
    // the re-drive of the command script.
    let append_ms = phases
        .get("journal-append")
        .map_or(0.0, |p| p.wall_ns as f64 / 1e6);
    let roots: u64 = engine
        .profile_snapshot()
        .nodes
        .iter()
        .filter(|n| n.depth == 0)
        .map(|n| n.stats.wall_ns)
        .sum();
    out.layer("dfms.recovery.checkpoint_ms", append_ms);
    out.layer("dfms.recovery.redrive_ms", roots as f64 / 1e6 - append_ms);
    let t = Instant::now();
    let (records, _) =
        datagridflows::journal::Journal::read(pristine).expect("the pristine journal reads back");
    let read_ms = ms(t);
    std::hint::black_box(records);
    let mib = std::fs::metadata(pristine).map_or(0, |m| m.len()) as f64 / (1024.0 * 1024.0);
    out.layer("journal.read_ms_per_mb", ratio(read_ms, mib));
    out.layer("obs.scrape_bytes", engine.telemetry_scrape().len() as f64);
    common::parse_layers(out, &gen.docs);
    out.layer(
        "dgms.digest_ms_per_object",
        common::digest_ms_per_object(gen.objects, common::SMALL_OBJECT),
    );
}

/// One more set-up, as a set-up sample: generate a journal beside the
/// pristine one, check that it is the same byte for byte, delete it.
fn spare_setup(cfg: &Config, dir: &Path, pristine: &Path, out: &mut Outcome) {
    let path = dir.join("generated.dgj");
    let t = Instant::now();
    generate(cfg, &path, out, false);
    out.setup_s.push(secs(t));
    let n = out.setup_s.len();
    out.checks.invariant(same_bytes(&path, pristine), || {
        format!("set-up {n} wrote a different journal")
    });
    let _ = std::fs::remove_file(&path);
}

/// Run the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let dir = cfg.journal_dir();
    let pristine = dir.join("pristine.dgj");
    let work = dir.join("work.dgj");
    let mut out = Outcome::default();
    let t = Instant::now();
    let gen = generate(cfg, &pristine, &mut out, cfg.traced);
    out.setup_s.push(secs(t));
    for _ in 1..SETUPS {
        spare_setup(cfg, &dir, &pristine, &mut out);
    }

    // Warm-up: one untimed recovery.
    fresh_copy(&pristine, &work, &mut out.checks);
    let warm = Dfms::recover(&work, LABEL, JournalConfig::default(), || {
        common::scec_engine(SEED)
    });
    out.checks.invariant(warm.is_ok(), || {
        format!("warm-up recovery failed: {:?}", warm.as_ref().err())
    });
    drop(warm);

    let mut recover_ms = Vec::new();
    let mut commands = 0u64;
    while recover_ms.len() < MIN_RECOVERIES || recover_ms.iter().sum::<f64>() / 1e3 < cfg.seconds {
        if !recover_ms.is_empty() && recover_ms.len() % SETUP_EVERY == 0 {
            spare_setup(cfg, &dir, &pristine, &mut out);
        }
        fresh_copy(&pristine, &work, &mut out.checks);
        tracer.begin_trace();
        let open = tracer.enter("dfms.recovery", "recover");
        let t = Instant::now();
        let recovered = Dfms::recover(&work, LABEL, JournalConfig::default(), || {
            common::scec_engine(SEED)
        });
        let dt = ms(t);
        tracer.exit(open);
        recover_ms.push(dt);
        match recovered {
            Ok((engine, report)) => {
                check_recovery(&mut out.checks, &gen, &engine, &report);
                commands += report.replay.map_or(0, |r| r.commands_replayed);
                if cfg.traced && recover_ms.len() == 1 {
                    layers(&mut out, &gen, &engine, &pristine);
                }
            }
            Err(e) => out.checks.op(false, || format!("recovery failed: {e}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out.repetitions = recover_ms.len();
    // Headline numbers: the best of the identical recoveries.
    out.op_ms = recover_ms.iter().copied().fold(f64::INFINITY, f64::min);
    out.throughput_per_s = gen.commands as f64 / (out.op_ms / 1e3);
    out.detail("best_recover_s", "s", out.op_ms / 1e3, recover_ms.len());
    out.detail(
        "recover_s",
        "s",
        stats::median(&recover_ms) / 1e3,
        recover_ms.len(),
    );
    out.detail(
        "commands_replayed_per_s",
        "1/s",
        commands as f64 / (recover_ms.iter().sum::<f64>() / 1e3),
        recover_ms.len(),
    );
    out.keep("recover_ms", &recover_ms);
    out.keep_reps("recover_ms", &[recover_ms.clone()]);
    out
}
