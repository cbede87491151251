//! Late vs. early binding of abstract tasks to infrastructure.
//!
//! §2.3: "This late binding allows execution of the each iteration at a
//! different location based on the infrastructure availability just
//! before the tasks are executed." Early binding — planning the whole
//! workflow once, up front — is the comparison point for experiment E6.

use crate::planner::{Placement, PlannerError, Scheduler};
use crate::task::AbstractTask;
use dgf_dgms::DataGrid;
use std::collections::BTreeMap;

/// When tasks are bound to concrete resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BindingMode {
    /// Plan each task immediately before it runs (the paper's approach).
    #[default]
    Late,
    /// Plan every task against the grid state at submission time and
    /// stick to those choices even as the grid changes.
    Early,
}

/// A store of early-bound placements, keyed by task instance id.
///
/// Under [`BindingMode::Late`] the cache is bypassed entirely; under
/// [`BindingMode::Early`] the first `resolve` for a key plans and pins,
/// and later calls replay the pinned placement even if the resource has
/// since failed (the failure is then discovered — expensively — at
/// execution time, which is precisely the behaviour E6 measures).
#[derive(Debug)]
pub struct BindingCache {
    mode: BindingMode,
    pinned: BTreeMap<String, Placement>,
}

impl BindingCache {
    /// A cache operating in the given mode.
    pub fn new(mode: BindingMode) -> Self {
        BindingCache { mode, pinned: BTreeMap::new() }
    }

    /// The active mode.
    pub fn mode(&self) -> BindingMode {
        self.mode
    }

    /// Resolve a placement for task instance `key`, and say whether it
    /// was replayed from the pin cache (`true`) rather than freshly
    /// planned. A failed resolve is always a fresh plan. The engine
    /// counts the two paths as `scheduler/binding.{plans,replays}`.
    pub fn resolve(
        &mut self,
        scheduler: &mut Scheduler,
        grid: &DataGrid,
        key: &str,
        task: &AbstractTask,
    ) -> Result<(Placement, bool), PlannerError> {
        match self.mode {
            BindingMode::Late => Ok((scheduler.plan(grid, task)?, false)),
            BindingMode::Early => {
                if let Some(p) = self.pinned.get(key) {
                    return Ok((p.clone(), true));
                }
                let p = scheduler.plan(grid, task)?;
                self.pinned.insert(key.to_owned(), p.clone());
                Ok((p, false))
            }
        }
    }

    /// Pre-plan a batch of tasks (what a Pegasus-style up-front planner
    /// does for a whole abstract workflow). No-op in late mode.
    pub fn plan_ahead<'a>(
        &mut self,
        scheduler: &mut Scheduler,
        grid: &DataGrid,
        tasks: impl IntoIterator<Item = (&'a str, &'a AbstractTask)>,
    ) -> Result<usize, PlannerError> {
        if self.mode == BindingMode::Late {
            return Ok(0);
        }
        let mut n = 0;
        for (key, task) in tasks {
            if !self.pinned.contains_key(key) {
                let p = scheduler.plan(grid, task)?;
                self.pinned.insert(key.to_owned(), p);
                n += 1;
            }
        }
        Ok(n)
    }

    /// Number of pinned placements.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::PlannerKind;
    use dgf_dgms::{Principal, UserRegistry};
    use dgf_simgrid::{Duration, GridBuilder, GridPreset};

    fn grid() -> DataGrid {
        let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 3 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
        DataGrid::new(topology, users)
    }

    #[test]
    fn late_mode_replans_every_time() {
        let mut g = grid();
        let mut s = Scheduler::new(PlannerKind::CostBased, 1);
        let mut cache = BindingCache::new(BindingMode::Late);
        let task = AbstractTask::compute_only("t", Duration::from_secs(10));
        let (p1, replayed) = cache.resolve(&mut s, &g, "k", &task).unwrap();
        assert!(!replayed);
        // Kill the chosen resource; late binding routes around it.
        g.topology_mut().compute_mut(p1.compute).online = false;
        let (p2, replayed) = cache.resolve(&mut s, &g, "k", &task).unwrap();
        assert!(!replayed);
        assert_ne!(p1.compute, p2.compute);
        assert_eq!(cache.pinned_count(), 0);
    }

    #[test]
    fn early_mode_pins_even_across_failures() {
        let mut g = grid();
        let mut s = Scheduler::new(PlannerKind::CostBased, 1);
        let mut cache = BindingCache::new(BindingMode::Early);
        let task = AbstractTask::compute_only("t", Duration::from_secs(10));
        let (p1, replayed) = cache.resolve(&mut s, &g, "k", &task).unwrap();
        assert!(!replayed, "the first resolve plans and pins");
        g.topology_mut().compute_mut(p1.compute).online = false;
        let (p2, replayed) = cache.resolve(&mut s, &g, "k", &task).unwrap();
        assert!(replayed, "later resolves replay the pin");
        assert_eq!(p1.compute, p2.compute, "early binding sticks to the stale choice");
        assert_eq!(cache.pinned_count(), 1);
    }

    #[test]
    fn plan_ahead_pins_batches() {
        let g = grid();
        let mut s = Scheduler::new(PlannerKind::RoundRobin, 1);
        let mut cache = BindingCache::new(BindingMode::Early);
        let t1 = AbstractTask::compute_only("a", Duration::from_secs(1));
        let t2 = AbstractTask::compute_only("b", Duration::from_secs(1));
        let n = cache.plan_ahead(&mut s, &g, [("a", &t1), ("b", &t2)]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(cache.pinned_count(), 2);
        // Late mode ignores plan_ahead.
        let mut late = BindingCache::new(BindingMode::Late);
        assert_eq!(late.plan_ahead(&mut s, &g, [("a", &t1)]).unwrap(), 0);
    }
}
