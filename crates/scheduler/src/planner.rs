//! Planners: matchmaking abstract tasks onto concrete resources.

use crate::cost::{CostBreakdown, CostWeights};
use crate::infra::InfraDescription;
use crate::task::AbstractTask;
use dgf_dgms::{DataGrid, LogicalPath};
use dgf_simgrid::{ComputeId, DomainId, Duration, StorageId, StorageTier};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Placement failures.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannerError {
    /// No compute resource satisfies the requirement right now.
    NoEligibleResource { task: String, reason: String },
    /// An input path has no reachable replica.
    InputUnavailable { task: String, input: LogicalPath },
    /// No storage at the execution site can hold the inputs/outputs.
    NoStagingSpace { task: String, domain: String },
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::NoEligibleResource { task, reason } => {
                write!(f, "task {task:?}: no eligible compute resource ({reason})")
            }
            PlannerError::InputUnavailable { task, input } => {
                write!(f, "task {task:?}: input {input} has no reachable replica")
            }
            PlannerError::NoStagingSpace { task, domain } => {
                write!(f, "task {task:?}: no staging storage available at {domain}")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// One input-staging decision: copy `bytes` of `path` from `src` to `dst`
/// (skipped when the input is already local: `src == dst`).
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// The input being staged.
    pub path: LogicalPath,
    /// Chosen source replica.
    pub src: StorageId,
    /// Destination storage at the execution domain.
    pub dst: StorageId,
    /// Bytes to move (0 when already local).
    pub bytes: u64,
}

impl StagePlan {
    /// True when no transfer is needed.
    pub fn is_local(&self) -> bool {
        self.src == self.dst || self.bytes == 0
    }
}

/// Concrete, infrastructure-based execution logic for one task — the
/// §2.3 "final infrastructure-based execution logic for each task would
/// have the chosen replica to use as input, the location of the output
/// data and the grid resource to use."
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The chosen compute resource.
    pub compute: ComputeId,
    /// Its domain.
    pub domain: DomainId,
    /// Input staging plan (chosen replicas).
    pub stage: Vec<StagePlan>,
    /// Output destinations: (logical path, storage, bytes).
    pub outputs: Vec<(LogicalPath, StorageId, u64)>,
    /// Estimated cost components at planning time.
    pub estimate: CostBreakdown,
}

/// The placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlannerKind {
    /// Uniform random over eligible resources (the weakest baseline).
    Random,
    /// Cycle through eligible resources (load-spreading baseline).
    RoundRobin,
    /// Pick the domain holding the most input bytes (locality only).
    GreedyLocal,
    /// Minimize the full §2.3 weighted cost.
    CostBased,
}

impl fmt::Display for PlannerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlannerKind::Random => "random",
            PlannerKind::RoundRobin => "round-robin",
            PlannerKind::GreedyLocal => "greedy-local",
            PlannerKind::CostBased => "cost-based",
        };
        f.write_str(s)
    }
}

impl PlannerKind {
    /// All planners, for experiment sweeps.
    pub const ALL: [PlannerKind; 4] =
        [PlannerKind::Random, PlannerKind::RoundRobin, PlannerKind::GreedyLocal, PlannerKind::CostBased];
}

/// The scheduler: holds policy, SLAs, weights, and deterministic state.
#[derive(Debug)]
pub struct Scheduler {
    kind: PlannerKind,
    weights: CostWeights,
    infra: InfraDescription,
    rng: SmallRng,
    rr_next: usize,
}

impl Scheduler {
    /// A scheduler with the given policy and default weights/SLAs.
    pub fn new(kind: PlannerKind, seed: u64) -> Self {
        Scheduler {
            kind,
            weights: CostWeights::default(),
            infra: InfraDescription::open(),
            rng: SmallRng::seed_from_u64(seed),
            rr_next: 0,
        }
    }

    /// Builder-style cost weights.
    #[must_use]
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Builder-style infrastructure description.
    #[must_use]
    pub fn with_infra(mut self, infra: InfraDescription) -> Self {
        self.infra = infra;
        self
    }

    /// The active policy.
    pub fn kind(&self) -> PlannerKind {
        self.kind
    }

    /// The active cost weights.
    pub fn weights(&self) -> &CostWeights {
        &self.weights
    }

    /// The active infrastructure description (SLAs per resource).
    pub fn infra(&self) -> &InfraDescription {
        &self.infra
    }

    /// Convert a task's abstract requirement into a concrete placement
    /// against the grid's *current* state.
    pub fn plan(&mut self, grid: &DataGrid, task: &AbstractTask) -> Result<Placement, PlannerError> {
        let candidates = self.eligible(grid, task)?;
        let chosen = match self.kind {
            PlannerKind::Random => {
                let idx = self.rng.gen_range(0..candidates.len());
                candidates[idx]
            }
            PlannerKind::RoundRobin => {
                let idx = self.rr_next % candidates.len();
                self.rr_next = self.rr_next.wrapping_add(1);
                candidates[idx]
            }
            PlannerKind::GreedyLocal => {
                // Most input bytes already at the candidate's domain.
                *candidates
                    .iter()
                    .max_by_key(|c| {
                        let domain = grid.topology().compute_domain(**c);
                        local_input_bytes(grid, task, domain)
                    })
                    .expect("candidates is non-empty")
            }
            PlannerKind::CostBased => {
                let mut best: Option<(f64, ComputeId)> = None;
                let mut last_err = None;
                for &candidate in &candidates {
                    match self.placement_at(grid, task, candidate) {
                        Ok(p) => {
                            let score = p.estimate.total(&self.weights);
                            if best.map(|(b, _)| score < b).unwrap_or(true) {
                                best = Some((score, candidate));
                            }
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match best {
                    Some((_, c)) => c,
                    None => {
                        // Surface the underlying cause (e.g. a missing
                        // input) rather than a generic "no candidate".
                        return Err(last_err.unwrap_or(PlannerError::NoEligibleResource {
                            task: task.code.clone(),
                            reason: "no candidate has a feasible staging plan".into(),
                        }));
                    }
                }
            }
        };
        self.placement_at(grid, task, chosen)
    }

    /// Could *any* resource ever satisfy this task's requirement and SLA,
    /// ignoring current load? Distinguishes "queue and retry" (saturated
    /// grid) from "reject" (structurally impossible requirement).
    pub fn feasible_ever(&self, grid: &DataGrid, task: &AbstractTask) -> bool {
        let topo = grid.topology();
        topo.compute_ids().any(|id| {
            let resource = topo.compute(id);
            if !resource.online {
                return false;
            }
            let sla = self.infra.sla(id);
            if !sla.admits_vo(task.vo.as_deref()) || sla.usable_slots(resource.slots) == 0 {
                return false;
            }
            if task.requirement.min_slots > 0 && resource.slots < task.requirement.min_slots {
                return false;
            }
            match &task.requirement.domain {
                Some(domain) => &topo.domain(topo.compute_domain(id)).name == domain,
                None => true,
            }
        })
    }

    /// All compute resources currently satisfying the requirement and SLA.
    fn eligible(&self, grid: &DataGrid, task: &AbstractTask) -> Result<Vec<ComputeId>, PlannerError> {
        let topo = grid.topology();
        let mut out = Vec::new();
        for id in topo.compute_ids() {
            let resource = topo.compute(id);
            if !resource.online {
                continue;
            }
            let sla = self.infra.sla(id);
            if !sla.admits_vo(task.vo.as_deref()) {
                continue;
            }
            let usable = sla.usable_slots(resource.slots);
            let grid_free = usable.saturating_sub(resource.busy);
            if grid_free == 0 {
                continue;
            }
            if task.requirement.min_slots > 0 && resource.slots < task.requirement.min_slots {
                continue;
            }
            if let Some(domain) = &task.requirement.domain {
                let d = topo.compute_domain(id);
                if &topo.domain(d).name != domain {
                    continue;
                }
            }
            out.push(id);
        }
        if out.is_empty() {
            return Err(PlannerError::NoEligibleResource {
                task: task.code.clone(),
                reason: "no online resource with free SLA slots matches the requirement".into(),
            });
        }
        Ok(out)
    }

    /// Build the concrete placement (staging + outputs + cost) for one
    /// candidate.
    fn placement_at(
        &self,
        grid: &DataGrid,
        task: &AbstractTask,
        compute: ComputeId,
    ) -> Result<Placement, PlannerError> {
        let topo = grid.topology();
        let domain = topo.compute_domain(compute);
        let mut stage = Vec::with_capacity(task.inputs.len());
        let mut stage_in = Duration::ZERO;
        let mut bytes_moved = 0u64;
        let mut link_occupancy = 0.0f64;

        for input in &task.inputs {
            let obj = grid
                .stat_object(input)
                .map_err(|_| PlannerError::InputUnavailable { task: task.code.clone(), input: input.clone() })?;
            // Already local? Pick the local replica with zero cost.
            if let Some(local) = obj
                .usable_replicas(|s| topo.storage(s).online)
                .find(|r| topo.storage_domain(r.storage) == domain)
            {
                stage.push(StagePlan { path: input.clone(), src: local.storage, dst: local.storage, bytes: 0 });
                continue;
            }
            // Replica selection: cheapest estimated transfer into the domain.
            let dst = staging_storage(grid, domain, obj.size)
                .ok_or_else(|| PlannerError::NoStagingSpace { task: task.code.clone(), domain: topo.domain(domain).name.clone() })?;
            let mut best: Option<(Duration, StorageId, f64)> = None;
            for replica in obj.usable_replicas(|s| topo.storage(s).online) {
                let src_domain = topo.storage_domain(replica.storage);
                let Some(route) = topo.route(src_domain, domain) else { continue };
                let est = grid.transfer_model().estimate(topo, replica.storage, dst, &route, obj.size);
                let occupancy = route.links.len() as f64
                    * (obj.size as f64 / route.bottleneck_bandwidth.max(1) as f64);
                if best.map(|(b, _, _)| est < b).unwrap_or(true) {
                    best = Some((est, replica.storage, occupancy));
                }
            }
            let (est, src, occupancy) = best
                .ok_or_else(|| PlannerError::InputUnavailable { task: task.code.clone(), input: input.clone() })?;
            // Transfers for distinct inputs run sequentially in the engine,
            // so stage-in adds up.
            stage_in += est;
            bytes_moved += obj.size;
            link_occupancy += occupancy;
            stage.push(StagePlan { path: input.clone(), src, dst, bytes: obj.size });
        }

        let mut outputs = Vec::with_capacity(task.outputs.len());
        for (path, size) in &task.outputs {
            let dst = staging_storage(grid, domain, *size)
                .ok_or_else(|| PlannerError::NoStagingSpace { task: task.code.clone(), domain: topo.domain(domain).name.clone() })?;
            outputs.push((path.clone(), dst, *size));
        }

        let exec = topo.compute(compute).execution_time(task.nominal);
        let estimate = CostBreakdown {
            stage_in,
            exec,
            bytes_moved,
            idle_slot_secs: stage_in.as_secs_f64(),
            link_occupancy_secs: link_occupancy,
        };
        Ok(Placement { compute, domain, stage, outputs, estimate })
    }
}

/// Total input bytes already replicated at `domain`.
fn local_input_bytes(grid: &DataGrid, task: &AbstractTask, domain: DomainId) -> u64 {
    let topo = grid.topology();
    task.inputs
        .iter()
        .filter_map(|input| grid.stat_object(input).ok())
        .filter(|obj| {
            obj.usable_replicas(|s| topo.storage(s).online)
                .any(|r| topo.storage_domain(r.storage) == domain)
        })
        .map(|obj| obj.size)
        .sum()
}

/// The best staging storage at a domain: fastest online tier with room.
fn staging_storage(grid: &DataGrid, domain: DomainId, bytes: u64) -> Option<StorageId> {
    let topo = grid.topology();
    topo.domain(domain)
        .storage
        .iter()
        .copied()
        .filter(|s| {
            let r = topo.storage(*s);
            r.online && r.free() >= bytes && r.tier >= StorageTier::Disk
        })
        .max_by_key(|s| topo.storage(*s).tier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::ResourceReq;
    use dgf_dgms::{Operation, Principal, UserRegistry};
    use dgf_simgrid::{GridBuilder, GridPreset, SimTime};

    fn path(s: &str) -> LogicalPath {
        LogicalPath::parse(s).unwrap()
    }

    /// 3-site mesh; input data lives at site0.
    fn grid_with_data() -> DataGrid {
        let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 3 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
        users.make_admin("u").unwrap();
        let mut g = DataGrid::new(topology, users);
        g.execute("u", Operation::Ingest { path: path("/in.dat"), size: 10_000_000_000, resource: "site0-pfs".into() }, SimTime::ZERO)
            .unwrap();
        g
    }

    fn data_task() -> AbstractTask {
        AbstractTask {
            code: "transform".into(),
            nominal: Duration::from_secs(60),
            inputs: vec![path("/in.dat")],
            outputs: vec![(path("/out.dat"), 1_000_000)],
            requirement: ResourceReq::default(),
            vo: None,
        }
    }

    #[test]
    fn cost_based_prefers_data_locality() {
        let g = grid_with_data();
        let mut s = Scheduler::new(PlannerKind::CostBased, 1);
        let p = s.plan(&g, &data_task()).unwrap();
        assert_eq!(g.topology().domain(p.domain).name, "site0", "runs where the 10 GB input lives");
        assert!(p.stage[0].is_local());
        assert_eq!(p.estimate.bytes_moved, 0);
        assert_eq!(p.estimate.stage_in, Duration::ZERO);
    }

    #[test]
    fn greedy_local_matches_cost_based_on_pure_locality() {
        let g = grid_with_data();
        let mut s = Scheduler::new(PlannerKind::GreedyLocal, 1);
        let p = s.plan(&g, &data_task()).unwrap();
        assert_eq!(g.topology().domain(p.domain).name, "site0");
    }

    #[test]
    fn round_robin_cycles_and_random_is_seeded() {
        let g = grid_with_data();
        let task = AbstractTask::compute_only("t", Duration::from_secs(1));
        let mut rr = Scheduler::new(PlannerKind::RoundRobin, 0);
        let picks: Vec<_> = (0..3).map(|_| rr.plan(&g, &task).unwrap().compute).collect();
        assert_eq!(picks.len(), 3);
        assert_ne!(picks[0], picks[1], "round robin moves on");

        let mut r1 = Scheduler::new(PlannerKind::Random, 7);
        let mut r2 = Scheduler::new(PlannerKind::Random, 7);
        for _ in 0..5 {
            assert_eq!(r1.plan(&g, &task).unwrap().compute, r2.plan(&g, &task).unwrap().compute);
        }
    }

    #[test]
    fn remote_placement_stages_inputs() {
        let g = grid_with_data();
        let mut s = Scheduler::new(PlannerKind::CostBased, 1);
        let mut task = data_task();
        task.requirement.domain = Some("site1".into()); // pin away from the data
        let p = s.plan(&g, &task).unwrap();
        assert_eq!(g.topology().domain(p.domain).name, "site1");
        assert!(!p.stage[0].is_local());
        assert_eq!(p.estimate.bytes_moved, 10_000_000_000);
        assert!(p.estimate.stage_in > Duration::from_secs(10));
        assert!(p.estimate.idle_slot_secs > 0.0);
        // Output lands at the execution site.
        let out_domain = g.topology().storage_domain(p.outputs[0].1);
        assert_eq!(out_domain, p.domain);
    }

    #[test]
    fn requirement_filters_resources() {
        let g = grid_with_data();
        let mut s = Scheduler::new(PlannerKind::CostBased, 1);
        let mut task = data_task();
        task.requirement.min_slots = 1000;
        assert!(matches!(s.plan(&g, &task), Err(PlannerError::NoEligibleResource { .. })));
        task.requirement.min_slots = 0;
        task.requirement.domain = Some("no-such-site".into());
        assert!(matches!(s.plan(&g, &task), Err(PlannerError::NoEligibleResource { .. })));
    }

    #[test]
    fn sla_restrictions_apply() {
        let g = grid_with_data();
        let mut infra = InfraDescription::open();
        for c in g.topology().compute_ids() {
            infra.publish(c, crate::infra::Sla::for_vos(&["cms"]));
        }
        let mut s = Scheduler::new(PlannerKind::CostBased, 1).with_infra(infra);
        let mut task = data_task();
        assert!(s.plan(&g, &task).is_err(), "anonymous task rejected everywhere");
        task.vo = Some("cms".into());
        assert!(s.plan(&g, &task).is_ok());
    }

    #[test]
    fn offline_and_busy_resources_are_skipped() {
        let mut g = grid_with_data();
        let ids: Vec<_> = g.topology().compute_ids().collect();
        // Saturate site0, kill site1: only site2 remains.
        let c0 = ids[0];
        let slots = g.topology().compute(c0).slots;
        for _ in 0..slots {
            assert!(g.topology_mut().compute_mut(c0).claim_slot());
        }
        g.topology_mut().compute_mut(ids[1]).online = false;
        let mut s = Scheduler::new(PlannerKind::CostBased, 1);
        let p = s.plan(&g, &AbstractTask::compute_only("t", Duration::from_secs(1))).unwrap();
        assert_eq!(p.compute, ids[2]);
    }

    #[test]
    fn missing_inputs_are_reported() {
        let g = grid_with_data();
        let mut s = Scheduler::new(PlannerKind::CostBased, 1);
        let mut task = data_task();
        task.inputs = vec![path("/ghost.dat")];
        assert!(matches!(s.plan(&g, &task), Err(PlannerError::InputUnavailable { .. })));
    }
}
