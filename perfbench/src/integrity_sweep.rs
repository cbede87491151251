//! `integrity_sweep`: the UCSD §4 data-integrity flow.
//!
//! Set-up ingests a library collection of multi-MB objects with
//! registered checksums and a second-site replica. Each timed round
//! corrupts two replicas, runs a for-each checksum sweep over the
//! second-site replicas, and repairs the two: trim, re-replicate,
//! re-verify. Every round does the same work.

use crate::common::{self, ratio, Rng, USER};
use crate::trace::Tracer;
use crate::{ms, secs, stats, Checks, Config, Outcome};
use datagridflows::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;

const SEED: u64 = 7;
const LIBRARY: &str = "/library";
const REPLICA: &str = "site1-disk";
/// Library object size: multi-MB, so each digest covers the full
/// 1 MiB content prefix.
const OBJECT_SIZE: u64 = 4 << 20;
/// Library objects. Kept small so one round lasts a fraction of a
/// second: the best of many short rounds is what stays steady on a host
/// whose speed changes every few seconds.
const OBJECTS: usize = 64;
const CORRUPT: usize = 2;
/// Rounds per repetition; each repetition ingests a fresh library.
const ROUNDS: usize = 8;
const MIN_REPS: usize = 3;

fn object(i: usize) -> String {
    common::object_path(LIBRARY, i)
}

/// Submit a flow, pump the engine, and return the run's final state.
fn run_flow(d: &mut Dfms, flow: Flow) -> Option<RunState> {
    let txn = d.submit_flow(USER, flow).ok()?;
    d.pump();
    d.status(&txn, None).ok().map(|s| s.state)
}

/// Ingest the library: registered digests and a second-site
/// (`REPLICA`) replica of every object.
fn setup(checks: &mut Checks) -> Dfms {
    let mut d = common::mesh_engine(SEED);
    let b = common::ingest_steps(
        FlowBuilder::sequential("library-ingest"),
        LIBRARY,
        OBJECTS,
        OBJECT_SIZE,
    );
    let state = run_flow(&mut d, b.build().expect("the ingest flow is valid"));
    checks.invariant(state == Some(RunState::Completed), || {
        format!("set-up: library ingest ended {state:?}")
    });
    d
}

/// The sweep: verify every second-site replica; a mismatch marks the
/// replica and the sweep carries on.
fn sweep(round: usize) -> Flow {
    FlowBuilder::for_each_in_collection(format!("sweep-{round}"), "doc", LIBRARY)
        .add_step(
            Step::new(
                "verify",
                DglOperation::Checksum {
                    path: "${doc}".into(),
                    resource: Some(REPLICA.into()),
                    register: false,
                },
            )
            .with_error_policy(ErrorPolicy::Ignore),
        )
        .build()
        .expect("the sweep flow is valid")
}

/// The repair: trim each bad replica, re-replicate it, verify it again.
fn repair(round: usize, victims: &[usize]) -> Flow {
    let mut b = FlowBuilder::sequential(format!("repair-{round}"));
    for &v in victims {
        let path = object(v);
        b = b
            .step(
                format!("trim{v}"),
                DglOperation::Trim {
                    path: path.clone(),
                    resource: REPLICA.into(),
                },
            )
            .step(
                format!("copy{v}"),
                DglOperation::Replicate {
                    path: path.clone(),
                    src: Some("site0-disk".into()),
                    dst: REPLICA.into(),
                },
            )
            .step(
                format!("verify{v}"),
                DglOperation::Checksum {
                    path,
                    resource: Some(REPLICA.into()),
                    register: false,
                },
            );
    }
    b.build().expect("the repair flow is valid")
}

/// One timed round. Returns the replicas verified.
fn round(d: &mut Dfms, r: usize, rng: &mut Rng, checks: &mut Checks) -> usize {
    let mut victims = BTreeSet::new();
    while victims.len() < CORRUPT {
        victims.insert(rng.below(OBJECTS));
    }
    let victims: Vec<usize> = victims.into_iter().collect();
    for &v in &victims {
        let path = LogicalPath::parse(&object(v)).expect("valid path");
        let corrupted = d.grid_mut().corrupt_replica(&path, REPLICA);
        checks.invariant(corrupted.is_ok(), || {
            format!("round {r}: corrupting {path}: {corrupted:?}")
        });
    }
    let from = d.grid().events().len();
    let swept = run_flow(d, sweep(r));
    let found: BTreeSet<String> = d.grid().events()[from..]
        .iter()
        .filter(|e| e.kind == EventKind::ChecksumMismatch)
        .map(|e| e.path.to_string())
        .collect();
    let planted: BTreeSet<String> = victims.iter().map(|&v| object(v)).collect();
    checks.op(
        swept == Some(RunState::Completed) && found == planted,
        || format!("round {r}: sweep ended {swept:?}, found {found:?}, planted {planted:?}"),
    );
    let repaired = run_flow(d, repair(r, &victims));
    let site = d
        .grid()
        .resolve_resource(REPLICA)
        .expect("the replica site exists");
    let valid = victims.iter().all(|&v| {
        let path = LogicalPath::parse(&object(v)).expect("valid path");
        d.grid()
            .stat_object(&path)
            .ok()
            .and_then(|o| o.replica_on(site))
            .is_some_and(|rep| rep.valid)
    });
    checks.op(repaired == Some(RunState::Completed) && valid, || {
        format!("round {r}: repair ended {repaired:?}, replicas valid: {valid}")
    });
    OBJECTS + victims.len()
}

/// Run the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut reps: Vec<Vec<f64>> = Vec::new();
    let mut verified = 0usize;
    while reps.len() < MIN_REPS || reps.iter().flatten().sum::<f64>() / 1e3 < cfg.seconds {
        // A discarded set-up before each repetition's own doubles the
        // set-up samples and spreads them over the whole run.
        let t = Instant::now();
        let spare = setup(&mut out.checks);
        out.setup_s.push(secs(t));
        drop(spare);
        let t = Instant::now();
        let mut d = setup(&mut out.checks);
        out.setup_s.push(secs(t));
        // The same victims every repetition: round `r` is the same work.
        let mut rng = Rng::new(cfg.seed, 4);
        let mut round_ms = Vec::with_capacity(ROUNDS);
        for r in 0..ROUNDS {
            tracer.begin_trace();
            let open = tracer.enter("dfms", "round");
            let t = Instant::now();
            verified += round(&mut d, r, &mut rng, &mut out.checks);
            round_ms.push(ms(t));
            tracer.exit(open);
            if cfg.traced && reps.is_empty() && r == 0 {
                let phases = common::phases_of_snapshot(&d.profile_snapshot());
                common::engine_layers(&mut out, &phases, &[&d], 2);
                let digest_ms = common::digest_ms_per_object(OBJECTS, OBJECT_SIZE);
                out.layer("dgms.digest_ms_per_object", digest_ms);
                out.layer(
                    "dgms.digest_share_of_round",
                    digest_ms * (OBJECTS + CORRUPT) as f64 / round_ms[0],
                );
                out.layer("obs.scrape_bytes", d.telemetry_scrape().len() as f64);
                let docs: Vec<String> = [sweep(0), repair(0, &[0, 1])]
                    .into_iter()
                    .map(|f| DataGridRequest::flow("doc", USER, f).to_xml())
                    .collect();
                common::parse_layers(&mut out, &docs);
            }
        }
        if cfg.traced && reps.is_empty() {
            out.layer(
                "dfms.history_cost_ratio",
                ratio(round_ms[ROUNDS - 1], round_ms[0]),
            );
        }
        reps.push(round_ms);
    }
    out.repetitions = reps.len();
    // Headline numbers: the best of the rounds, which all do the same
    // work.
    let all: Vec<f64> = reps.concat();
    out.op_ms = all.iter().copied().fold(f64::INFINITY, f64::min);
    out.throughput_per_s = (OBJECTS + CORRUPT) as f64 / (out.op_ms / 1e3);
    out.detail(
        "best_verified_per_s",
        "1/s",
        out.throughput_per_s,
        all.len(),
    );
    out.detail("best_round_ms", "ms", out.op_ms, all.len());
    out.detail(
        "verified_per_s",
        "1/s",
        verified as f64 / (all.iter().sum::<f64>() / 1e3),
        verified,
    );
    out.detail("round_median_ms", "ms", stats::median(&all), all.len());
    out.keep("round_ms", &all);
    out.keep_reps("round_ms", &reps);
    out
}
