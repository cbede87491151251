//! Shared pieces: the seeded generator, the engines, the SCEC-style
//! ingest flow, and readers for the counters the program exposes.

use datagridflows::dgl::ProfilePhase;
use datagridflows::prelude::*;
use std::collections::BTreeMap;

/// The user every workload submits as.
pub const USER: &str = "bench";

/// SplitMix64: a small seeded generator for the workload inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so each workload draws its own
    /// stream from one seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A 2-site mesh engine with the benchmark user as admin and a
/// cost-based planner seeded with `seed`.
pub fn mesh_engine(seed: u64) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    users.register(Principal::new(
        USER,
        topology
            .domain_ids()
            .next()
            .expect("a mesh has a first site"),
    ));
    users
        .make_admin(USER)
        .expect("the user was just registered");
    Dfms::new(
        DataGrid::new(topology, users),
        Scheduler::new(PlannerKind::CostBased, seed),
    )
}

/// The SCEC engine: a mesh engine whose §2.2 trigger tags every object
/// ingested under `/scec`.
pub fn scec_engine(seed: u64) -> Dfms {
    let mut d = mesh_engine(seed);
    let tag = FlowBuilder::sequential("auto-tag")
        .step(
            "tag",
            DglOperation::SetMetadata {
                path: "${event.path}".into(),
                attribute: "pipeline".into(),
                value: "scec".into(),
            },
        )
        .build()
        .expect("the tag flow is valid");
    d.triggers_mut().register(
        Trigger::new(
            "scec-auto-tag",
            USER,
            LogicalPath::parse("/scec").expect("valid path"),
            TriggerAction::Flow(tag),
        )
        .on(&[EventKind::ObjectIngested]),
    );
    d
}

/// The flow that creates `/scec`, run once during set-up.
pub fn scec_root() -> Flow {
    FlowBuilder::sequential("scec-root")
        .step(
            "mk",
            DglOperation::CreateCollection {
                path: "/scec".into(),
            },
        )
        .build()
        .expect("the root flow is valid")
}

/// Size of each object the SCEC and fabric flows ingest, bytes.
pub const SMALL_OBJECT: u64 = 4096;

/// Object `k` of an ingest under `dir`.
pub fn object_path(dir: &str, k: usize) -> String {
    format!("{dir}/obj{k}.dat")
}

/// Append the ingest steps to `b`: create the collection `dir`, then
/// ingest `objects` objects of `size` bytes to the first site, checksum
/// each with `register` and replicate it to the second site.
pub fn ingest_steps(mut b: FlowBuilder, dir: &str, objects: usize, size: u64) -> FlowBuilder {
    b = b.step(
        "mk",
        DglOperation::CreateCollection {
            path: dir.to_owned(),
        },
    );
    for k in 0..objects {
        let path = object_path(dir, k);
        b = b
            .step(
                format!("put{k}"),
                DglOperation::Ingest {
                    path: path.clone(),
                    size: size.to_string(),
                    resource: "site0-disk".into(),
                },
            )
            .step(
                format!("sum{k}"),
                DglOperation::Checksum {
                    path: path.clone(),
                    resource: None,
                    register: true,
                },
            )
            .step(
                format!("cp{k}"),
                DglOperation::Replicate {
                    path,
                    src: None,
                    dst: "site1-disk".into(),
                },
            );
    }
    b
}

/// One SCEC-style ingest flow: a fresh collection and `objects` 4 KiB
/// objects (see [`ingest_steps`]). Returns the flow and its step count.
pub fn scec_flow(tag: &str, objects: usize) -> (Flow, usize) {
    let b = ingest_steps(
        FlowBuilder::sequential(format!("ingest-{tag}")),
        &format!("/scec/{tag}"),
        objects,
        SMALL_OBJECT,
    );
    (
        b.build().expect("the ingest flow is valid"),
        1 + 3 * objects,
    )
}

/// Objects per ingest flow: two to four.
pub fn ingest_objects(rng: &mut Rng) -> usize {
    2 + rng.below(3)
}

/// Per-phase totals over every tree position.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTotals {
    /// Times the phase ran.
    pub calls: u64,
    /// Wall ns inside the phase, children included.
    pub wall_ns: u64,
    /// Wall ns net of child phases.
    pub self_wall_ns: u64,
    /// Allocations inside the phase, children included.
    pub allocs: u64,
    /// Allocations net of child phases.
    pub self_allocs: u64,
}

impl PhaseTotals {
    /// Mean self wall per call, µs.
    pub fn self_us_per_call(&self) -> f64 {
        ratio(self.self_wall_ns as f64 / 1e3, self.calls as f64)
    }

    /// Self allocations per call.
    pub fn self_allocs_per_call(&self) -> f64 {
        ratio(self.self_allocs as f64, self.calls as f64)
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload never called).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The mean of `v`, or 0 when it is empty.
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Fold a depth-first phase tree (depth, name, calls, wall, allocs)
/// into per-phase totals, with self values net of direct children.
fn fold_tree(nodes: &[(u32, &str, u64, u64, u64)]) -> BTreeMap<String, PhaseTotals> {
    let mut out: BTreeMap<String, PhaseTotals> = BTreeMap::new();
    for (i, &(depth, name, calls, wall, allocs)) in nodes.iter().enumerate() {
        let (mut child_wall, mut child_allocs) = (0u64, 0u64);
        for &(d, _, _, w, a) in &nodes[i + 1..] {
            if d <= depth {
                break;
            }
            if d == depth + 1 {
                child_wall += w;
                child_allocs += a;
            }
        }
        let t = out.entry(name.to_owned()).or_default();
        t.calls += calls;
        t.wall_ns += wall;
        t.self_wall_ns += wall.saturating_sub(child_wall);
        t.allocs += allocs;
        t.self_allocs += allocs.saturating_sub(child_allocs);
    }
    out
}

/// Per-phase totals of an engine's `dgf-prof` snapshot.
pub fn phases_of_snapshot(snap: &ProfileSnapshot) -> BTreeMap<String, PhaseTotals> {
    let nodes: Vec<_> = snap
        .nodes
        .iter()
        .map(|n| {
            (
                n.depth,
                n.phase.name(),
                n.stats.calls,
                n.stats.wall_ns,
                n.stats.allocs,
            )
        })
        .collect();
    fold_tree(&nodes)
}

/// Per-phase totals of a wire `profileReport`.
pub fn phases_of_report(phases: &[ProfilePhase]) -> BTreeMap<String, PhaseTotals> {
    let nodes: Vec<_> = phases
        .iter()
        .map(|p| (p.depth, p.phase.as_str(), p.calls, p.wall_ns, p.allocs))
        .collect();
    fold_tree(&nodes)
}

/// Phase totals summed over several engines (the fabric's shards).
pub fn merge_phases(all: &[BTreeMap<String, PhaseTotals>]) -> BTreeMap<String, PhaseTotals> {
    let mut out: BTreeMap<String, PhaseTotals> = BTreeMap::new();
    for map in all {
        for (name, t) in map {
            let m = out.entry(name.clone()).or_default();
            m.calls += t.calls;
            m.wall_ns += t.wall_ns;
            m.self_wall_ns += t.self_wall_ns;
            m.allocs += t.allocs;
            m.self_allocs += t.self_allocs;
        }
    }
    out
}

fn phase(p: &BTreeMap<String, PhaseTotals>, name: &str) -> PhaseTotals {
    p.get(name).copied().unwrap_or_default()
}

/// The engine-layer metrics every workload shares: lint, step and
/// provenance cost, scheduler and trigger counters, dgms counters, obs
/// store sizes, simulated time. `flows` is the number of flows the
/// workload ran (the obs stores are reported per thousand of them).
pub fn engine_layers(
    out: &mut crate::Outcome,
    phases: &BTreeMap<String, PhaseTotals>,
    engines: &[&Dfms],
    flows: usize,
) {
    let lint = phase(phases, "lint-gate");
    out.layer("lint.gate_us_per_flow", lint.self_us_per_call());
    out.layer("lint.allocs_per_flow", lint.self_allocs_per_call());
    let step = phase(phases, "step-execute");
    out.layer("dfms.step_us", step.self_us_per_call());
    out.layer("dfms.allocs_per_step", step.self_allocs_per_call());
    let prov = phase(phases, "provenance-append");
    out.layer("dfms.provenance_us_per_record", prov.self_us_per_call());
    out.layer(
        "dfms.provenance_allocs_per_record",
        prov.self_allocs_per_call(),
    );
    let sched = phase(phases, "schedule");
    out.layer(
        "scheduler.schedule_us_per_binding",
        sched.self_us_per_call(),
    );

    let sum = |f: &dyn Fn(&Dfms) -> u64| engines.iter().map(|d| f(d)).sum::<u64>() as f64;
    let steps = sum(&|d| d.metrics().steps_executed);
    let firings = sum(&|d| d.metrics().trigger_firings);
    let execs = sum(&|d| d.metrics().exec_tasks);
    out.layer("dfms.steps", steps);
    out.layer(
        "dfms.runs_retained",
        sum(&|d| d.flow_summaries().len() as u64),
    );
    out.layer(
        "scheduler.retries_per_exec",
        ratio(sum(&|d| d.metrics().retries), execs),
    );
    let hits = sum(&|d| d.catalog().stats().0);
    let misses = sum(&|d| d.catalog().stats().1);
    out.layer(
        "scheduler.virtual_data_hit_ratio",
        ratio(hits, hits + misses),
    );
    out.layer("triggers.firings", firings);
    out.layer(
        "triggers.eval_us_per_firing",
        ratio(phase(phases, "trigger-eval").wall_ns as f64 / 1e3, firings),
    );
    out.layer("dgms.ops", sum(&|d| d.metrics().dgms_ops));
    out.layer("dgms.bytes_moved", sum(&|d| d.metrics().bytes_moved));
    out.layer(
        "dgms.checksum_mismatches",
        sum(&|d| {
            d.grid()
                .events()
                .iter()
                .filter(|e| e.kind == EventKind::ChecksumMismatch)
                .count() as u64
        }),
    );
    let kflows = flows as f64 / 1e3;
    out.layer(
        "obs.spans_per_kflow",
        ratio(sum(&|d| d.obs().spans().len() as u64), kflows),
    );
    out.layer(
        "obs.why_marks_per_kflow",
        ratio(sum(&|d| d.obs().why_marks().len() as u64), kflows),
    );
    out.layer(
        "obs.why_paths_per_kflow",
        ratio(sum(&|d| d.obs().why_paths().len() as u64), kflows),
    );
    out.layer("obs.events_total", sum(&|d| d.obs().events_total()));
    out.layer(
        "journal.errors",
        sum(&|d| d.obs().snapshot().counter("journal", "errors")),
    );
    let sim_us = engines.iter().map(|d| d.now().0).max().unwrap_or(0);
    out.layer("simgrid.sim_s", sim_us as f64 / 1e6);
}

/// Time `xml::parse` and `dgl::parse_request` over generated request
/// documents: µs per KiB of XML and µs per request.
pub fn parse_layers(out: &mut crate::Outcome, docs: &[String]) {
    if docs.is_empty() {
        return;
    }
    let bytes: usize = docs.iter().map(String::len).sum();
    let t = std::time::Instant::now();
    for d in docs {
        std::hint::black_box(
            datagridflows::xml::parse(std::hint::black_box(d)).expect("generated XML parses"),
        );
    }
    let xml_us = t.elapsed().as_secs_f64() * 1e6;
    let t = std::time::Instant::now();
    for d in docs {
        std::hint::black_box(
            datagridflows::dgl::parse_request(std::hint::black_box(d))
                .expect("generated DGL parses"),
        );
    }
    let dgl_us = t.elapsed().as_secs_f64() * 1e6;
    out.layer("xml.parse_us_per_kb", xml_us / (bytes as f64 / 1024.0));
    out.layer("dgl.parse_us_per_request", dgl_us / docs.len() as f64);
}

/// Time `ContentStore::digest` over `objects` objects of `size` bytes:
/// ms per object.
pub fn digest_ms_per_object(objects: usize, size: u64) -> f64 {
    let t = std::time::Instant::now();
    for seed in 0..objects as u64 {
        std::hint::black_box(datagridflows::dgms::ContentStore::digest(
            std::hint::black_box(seed),
            size,
        ));
    }
    t.elapsed().as_secs_f64() * 1e3 / objects.max(1) as f64
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A flow's state summary without the `resumed` flag, which only a
/// recovered engine sets.
pub fn summary_key(f: &datagridflows::dgl::FlowRecovery) -> (String, String, RunState, u64, u64) {
    (
        f.transaction.clone(),
        f.lineage.clone(),
        f.state,
        f.steps_completed,
        f.steps_total,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_tree_nets_children_out_of_self() {
        // step-execute (100 ns, 10 allocs) holding provenance-append
        // (30 ns, 4 allocs); a second root schedule.
        let nodes = [
            (0, "step-execute", 2, 100, 10),
            (1, "provenance-append", 2, 30, 4),
            (0, "schedule", 1, 5, 1),
        ];
        let t = fold_tree(&nodes);
        assert_eq!(t["step-execute"].self_wall_ns, 70);
        assert_eq!(t["step-execute"].self_allocs, 6);
        assert_eq!(t["provenance-append"].self_allocs, 4);
        assert_eq!(t["schedule"].calls, 1);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
