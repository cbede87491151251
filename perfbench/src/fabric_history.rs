//! `fabric_history`: one thread drives an in-memory two-shard `Fabric`
//! (`/s0`, `/s1`, each a 2-site mesh).
//!
//! Asynchronous flows are routed by prefix in waves, then the fabric is
//! pumped to quiescence. Each flow ingests, checksums and replicates
//! small objects and runs one compute step placed by the cost-based
//! planner; every 7th flow is a cross-shard sequential composition (a
//! bus delegate plus its ack), and one compute step in five re-requests
//! a product an earlier wave derived, which the virtual-data catalog
//! answers. There is no XML, journal or server on this path.

use crate::common::{self, mean, ratio, Rng, USER};
use crate::trace::Tracer;
use crate::{ms, secs, stats, Checks, Config, Outcome};
use datagridflows::prelude::*;
use std::time::Instant;

const SHARDS: [&str; 2] = ["s0", "s1"];
/// Flows per repetition, routed in waves of [`WAVE`].
const FLOWS: usize = 3000;
const WAVE: usize = 250;
const MIN_SETUPS: usize = 15;
const EXTRA_SETUPS: usize = 3;
/// Seeded inputs per zone, read by the compute steps.
const INPUTS: usize = 64;

/// A derivation an earlier flow ran: (code, input, output).
type Derivation = (String, String, String);

/// Build the fabric and pre-populate each zone with its root
/// collection and the seeded inputs.
fn setup(checks: &mut Checks) -> Fabric {
    let mut fabric = Fabric::new();
    for (i, name) in SHARDS.iter().enumerate() {
        let zone = format!("/{name}");
        fabric
            .add_shard(name, &[zone.as_str()], common::mesh_engine(101 + i as u64))
            .expect("distinct shard names");
        let mut b = FlowBuilder::sequential(format!("root-{name}"))
            .step("mk", DglOperation::CreateCollection { path: zone.clone() })
            .step(
                "mk-in",
                DglOperation::CreateCollection {
                    path: format!("{zone}/in"),
                },
            );
        for k in 0..INPUTS {
            b = b.step(
                format!("put{k}"),
                DglOperation::Ingest {
                    path: format!("{zone}/in/seed{k}.dat"),
                    size: "1000000".into(),
                    resource: "site0-pfs".into(),
                },
            );
        }
        let flow = b.build().expect("the root flow is valid");
        let routed =
            fabric.route(DataGridRequest::flow(format!("root-{name}"), USER, flow).asynchronous());
        checks.invariant(routed.is_ok(), || {
            format!("set-up: routing root-{name}: {routed:?}")
        });
    }
    let pumped = fabric.pump();
    checks.invariant(pumped.is_ok(), || format!("set-up: pump: {pumped:?}"));
    fabric
}

/// One set-up, dropped again: a set-up sample only.
fn setup_sample(out: &mut Outcome) {
    let t = Instant::now();
    let fabric = setup(&mut out.checks);
    out.setup_s.push(secs(t));
    drop(fabric);
}

/// The ingest part of a flow: a collection and `objects` checksummed,
/// replicated 4 KiB objects under it.
fn ingest(name: String, dir: &str, objects: usize) -> FlowBuilder {
    common::ingest_steps(
        FlowBuilder::sequential(name),
        dir,
        objects,
        common::SMALL_OBJECT,
    )
}

/// Flow `j`. Returns the flow, its object count and, for a fresh
/// derivation, the derivation to remember.
fn flow(
    j: usize,
    rng: &mut Rng,
    earlier: &[Vec<Derivation>; 2],
) -> (Flow, usize, Option<(usize, Derivation)>) {
    let objects = 1 + rng.below(3);
    if j % 7 == 6 {
        // Cross-shard sequential composition: stage on s0, archive on s1.
        let stage = ingest(format!("stage-{j}"), &format!("/s0/x{j}"), objects);
        let archive = ingest(format!("archive-{j}"), &format!("/s1/x{j}"), 1);
        let f = FlowBuilder::sequential(format!("xfer-{j}"))
            .flow(stage.build().expect("valid stage"))
            .flow(archive.build().expect("valid archive"))
            .build()
            .expect("valid composition");
        return (f, objects + 1, None);
    }
    let z = j % 2;
    let dir = format!("/s{z}/f{j}");
    let b = ingest(format!("work-{j}"), &dir, objects);
    let (derivation, fresh) = if j % 5 == 4 && !earlier[z].is_empty() {
        (earlier[z][rng.below(earlier[z].len())].clone(), false)
    } else {
        let input = format!("/s{z}/in/seed{}.dat", rng.below(INPUTS));
        (
            (format!("derive-{j}"), input, format!("{dir}/product.dat")),
            true,
        )
    };
    let (code, input, output) = derivation.clone();
    let b = b.step(
        "derive",
        DglOperation::Execute {
            code,
            nominal_secs: "60".into(),
            resource_type: None,
            inputs: vec![input],
            outputs: vec![(output, "100000".into())],
        },
    );
    (
        b.build().expect("valid work flow"),
        objects,
        fresh.then_some((z, derivation)),
    )
}

/// One repetition's measurements.
#[derive(Default)]
struct Rep {
    wave_ms: Vec<f64>,
    wave_flows: Vec<usize>,
    pump_ms: Vec<f64>,
    route_ms: f64,
    routed: usize,
    objects: usize,
    docs: Vec<String>,
}

/// Route and pump every wave of one repetition.
fn drive(cfg: &Config, fabric: &mut Fabric, checks: &mut Checks, tracer: &mut Tracer) -> Rep {
    let mut rng = Rng::new(cfg.seed, 2);
    let mut derived: [Vec<Derivation>; 2] = [Vec::new(), Vec::new()];
    let mut rep = Rep::default();
    let (mut singles, mut federated) = (0usize, 0usize);
    let mut start = 0;
    while start < FLOWS {
        let end = (start + WAVE).min(FLOWS);
        let mut fresh = Vec::new();
        let requests: Vec<DataGridRequest> = (start..end)
            .map(|j| {
                let (f, objects, new) = flow(j, &mut rng, &derived);
                rep.objects += objects;
                fresh.extend(new);
                DataGridRequest::flow(format!("r{j}"), USER, f).asynchronous()
            })
            .collect();
        if cfg.traced && rep.docs.len() < 1000 {
            rep.docs
                .extend(requests.iter().map(DataGridRequest::to_xml));
        }
        tracer.begin_trace();
        let wave_span = tracer.enter("bench", "wave");
        let mut routed = Vec::with_capacity(requests.len());
        let mut route_ms = 0.0;
        for req in requests {
            let open = tracer.enter("fabric", "route");
            let t = Instant::now();
            let answer = fabric.route(req);
            route_ms += ms(t);
            tracer.exit(open);
            routed.push(answer.map(|(shard, resp)| (shard, resp.transaction().to_owned())));
        }
        let open = tracer.enter("fabric", "pump");
        let t = Instant::now();
        let pumped = fabric.pump();
        let pump_ms = ms(t);
        tracer.exit(open);
        tracer.exit(wave_span);
        checks.invariant(pumped.is_ok(), || {
            format!("pump after wave at {start}: {pumped:?}")
        });

        for (j, r) in (start..end).zip(routed) {
            let state = match &r {
                Ok((shard, txn)) if shard == "fabric" => {
                    federated += 1;
                    Some(fabric.federated_status(txn).state)
                }
                Ok((shard, txn)) => {
                    singles += 1;
                    fabric
                        .engine(shard)
                        .and_then(|e| e.status(txn, None).ok())
                        .map(|s| s.state)
                }
                Err(_) => None,
            };
            checks.op(state == Some(RunState::Completed), || {
                format!("flow {j}: routed {r:?}, ended {state:?}")
            });
        }
        for (z, d) in fresh {
            derived[z].push(d);
        }
        rep.route_ms += route_ms;
        rep.routed += end - start;
        rep.pump_ms.push(pump_ms);
        rep.wave_ms.push(route_ms + pump_ms);
        rep.wave_flows.push(end - start);
        start = end;
    }
    // Shard runs add up: the two set-up roots, every single-shard flow,
    // and two delegated sub-flows per federated run.
    let runs: usize = SHARDS
        .iter()
        .map(|s| fabric.engine(s).map_or(0, |e| e.flow_summaries().len()))
        .sum();
    checks.invariant(runs == 2 + singles + 2 * federated, || {
        format!("shard runs {runs} != 2 + {singles} single + 2 x {federated} federated")
    });
    rep
}

/// Per-layer metrics from the first repetition (traced runs).
fn layers(out: &mut Outcome, fabric: &Fabric, rep: &Rep) {
    let engines: Vec<&Dfms> = SHARDS.iter().filter_map(|s| fabric.engine(s)).collect();
    let phases: Vec<_> = engines
        .iter()
        .map(|e| common::phases_of_snapshot(&e.profile_snapshot()))
        .collect();
    common::engine_layers(out, &common::merge_phases(&phases), &engines, FLOWS);
    let steps: Vec<f64> = engines
        .iter()
        .map(|e| e.metrics().steps_executed as f64)
        .collect();
    let (lo, hi) = steps
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    out.layer("fabric.shard_step_skew", ratio(hi, lo));
    out.layer(
        "fabric.route_us",
        ratio(rep.route_ms * 1e3, rep.routed as f64),
    );
    let head = stats::head_end(&rep.wave_flows);
    let tail = stats::tail_start(&rep.wave_flows);
    out.layer("fabric.pump_ms_first_tenth", mean(&rep.pump_ms[..head]));
    out.layer("fabric.pump_ms_last_tenth", mean(&rep.pump_ms[tail..]));
    out.layer("fabric.deliveries", fabric.deliveries() as f64);
    out.layer(
        "fabric.federated_runs",
        fabric
            .obs()
            .snapshot()
            .counter("fabric", "federated.submitted") as f64,
    );
    out.layer(
        "obs.scrape_bytes",
        engines
            .iter()
            .map(|e| e.telemetry_scrape().len())
            .sum::<usize>() as f64,
    );
    common::parse_layers(out, &rep.docs);
    out.layer(
        "dgms.digest_ms_per_object",
        common::digest_ms_per_object(rep.objects, common::SMALL_OBJECT),
    );
}

/// Wall time per flow of the waves holding the last tenth of the flows
/// over that of the waves holding the first tenth.
fn history_cost_ratio(wave_ms: &[f64], wave_flows: &[usize]) -> f64 {
    let per_flow = |from: usize, to: usize| {
        ratio(
            wave_ms[from..to].iter().sum(),
            wave_flows[from..to].iter().sum::<usize>() as f64,
        )
    };
    ratio(
        per_flow(stats::tail_start(wave_flows), wave_ms.len()),
        per_flow(0, stats::head_end(wave_flows)),
    )
}

/// Run the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut busy_ms, mut flows) = (0.0, 0usize);
    let mut waves = Vec::new();
    let mut wave_flows = Vec::new();
    while out.repetitions == 0 || busy_ms / 1e3 < cfg.seconds {
        // Extra set-ups between repetitions spread the set-up samples
        // over the whole run.
        for _ in 0..EXTRA_SETUPS {
            setup_sample(&mut out);
        }
        let t = Instant::now();
        let mut fabric = setup(&mut out.checks);
        out.setup_s.push(secs(t));
        let rep = drive(cfg, &mut fabric, &mut out.checks, tracer);
        if cfg.traced && out.repetitions == 0 {
            layers(&mut out, &fabric, &rep);
        }
        drop(fabric);
        busy_ms += rep.wave_ms.iter().sum::<f64>();
        flows += rep.wave_flows.iter().sum::<usize>();
        waves.push(rep.wave_ms);
        wave_flows = rep.wave_flows;
        out.repetitions += 1;
    }
    while out.setup_s.len() < MIN_SETUPS {
        setup_sample(&mut out);
    }
    // Headline numbers: the fastest repetition (every repetition runs
    // the same waves).
    let rep_ms: Vec<f64> = waves.iter().map(|w| w.iter().sum()).collect();
    let fastest = (0..waves.len())
        .min_by(|&a, &b| rep_ms[a].total_cmp(&rep_ms[b]))
        .expect("at least one repetition");
    let best = &waves[fastest];
    let tail = stats::tail_start(&wave_flows);
    let per_s = |from: usize| {
        wave_flows[from..].iter().sum::<usize>() as f64 / (best[from..].iter().sum::<f64>() / 1e3)
    };
    out.throughput_per_s = per_s(0);
    out.op_ms = mean(best);
    if cfg.traced {
        // A single repetition's head and tail can fall in different
        // host-speed phases; the fastest repetition is the steadiest.
        out.layer(
            "dfms.history_cost_ratio",
            history_cost_ratio(best, &wave_flows),
        );
    }
    out.detail(
        "best_flows_per_s",
        "1/s",
        out.throughput_per_s,
        out.repetitions,
    );
    out.detail("best_tail_flows_per_s", "1/s", per_s(tail), out.repetitions);
    out.detail("best_wave_mean_ms", "ms", out.op_ms, best.len());
    out.detail("flows_per_s", "1/s", flows as f64 / (busy_ms / 1e3), flows);
    out.keep_reps("wave_ms", &waves);
    let waves = waves.concat();
    out.percentile_detail("wave_p50_ms", &waves, 50.0);
    out.keep("wave_ms", &waves);
    out
}
