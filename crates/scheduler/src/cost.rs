//! The §2.3 scheduling cost model.
//!
//! "The cost of executing each task at a domain could be based on
//! multiple parameters including the amount of data moved, the number of
//! CPU cycles that would be left idle in the grid, the clock time taken
//! to execute all the tasks, the bandwidth utilized, etc. The cost is
//! just an approximate value based on certain heuristics used by the
//! scheduler."

use dgf_simgrid::Duration;

/// Relative weights of the four §2.3 cost terms. Zeroing a weight is the
/// ablation knob benchmarked in experiment E5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight per gigabyte moved across the grid.
    pub data_moved_per_gb: f64,
    /// Weight per slot-second the claimed CPU sits idle waiting for data.
    pub idle_cpu_per_slot_sec: f64,
    /// Weight per second of wall-clock (stage-in + execution).
    pub clock_per_sec: f64,
    /// Weight per second of WAN link occupancy.
    pub bandwidth_per_link_sec: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Balanced defaults: a gigabyte moved costs as much as ~10 s of
        // wall clock; idle CPU and link occupancy weigh lighter.
        CostWeights {
            data_moved_per_gb: 10.0,
            idle_cpu_per_slot_sec: 0.5,
            clock_per_sec: 1.0,
            bandwidth_per_link_sec: 0.2,
        }
    }
}

impl CostWeights {
    /// Pure-makespan weights (classic list scheduling).
    pub fn makespan_only() -> Self {
        CostWeights { data_moved_per_gb: 0.0, idle_cpu_per_slot_sec: 0.0, clock_per_sec: 1.0, bandwidth_per_link_sec: 0.0 }
    }

    /// Pure-data-movement weights (bandwidth-starved grids).
    pub fn data_only() -> Self {
        CostWeights { data_moved_per_gb: 1.0, idle_cpu_per_slot_sec: 0.0, clock_per_sec: 0.0, bandwidth_per_link_sec: 0.0 }
    }
}

/// The estimated cost components of placing one task at one site.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostBreakdown {
    /// Time spent staging inputs before execution can start.
    pub stage_in: Duration,
    /// Execution time at the chosen site.
    pub exec: Duration,
    /// Bytes transferred across the grid for staging.
    pub bytes_moved: u64,
    /// Slot-seconds the claimed slot idles during stage-in.
    pub idle_slot_secs: f64,
    /// Seconds of WAN-link occupancy (sum over traversed links).
    pub link_occupancy_secs: f64,
}

impl CostBreakdown {
    /// Stage-in plus execution: the task's wall-clock contribution.
    pub fn wall_clock(&self) -> Duration {
        self.stage_in + self.exec
    }

    /// The scalar score the cost-based planner minimizes.
    pub fn total(&self, w: &CostWeights) -> f64 {
        let gb = self.bytes_moved as f64 / 1e9;
        gb * w.data_moved_per_gb
            + self.idle_slot_secs * w.idle_cpu_per_slot_sec
            + self.wall_clock().as_secs_f64() * w.clock_per_sec
            + self.link_occupancy_secs * w.bandwidth_per_link_sec
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "the expected costs are exact sums of exactly representable terms")]
mod tests {
    use super::*;

    fn sample() -> CostBreakdown {
        CostBreakdown {
            stage_in: Duration::from_secs(20),
            exec: Duration::from_secs(100),
            bytes_moved: 2_000_000_000,
            idle_slot_secs: 20.0,
            link_occupancy_secs: 20.0,
        }
    }

    #[test]
    fn total_combines_all_terms() {
        let c = sample();
        let w = CostWeights::default();
        let expected = 2.0 * 10.0 + 20.0 * 0.5 + 120.0 * 1.0 + 20.0 * 0.2;
        assert!((c.total(&w) - expected).abs() < 1e-9);
        assert_eq!(c.wall_clock(), Duration::from_secs(120));
    }

    #[test]
    fn ablation_weights_isolate_terms() {
        let c = sample();
        assert_eq!(c.total(&CostWeights::makespan_only()), 120.0);
        assert_eq!(c.total(&CostWeights::data_only()), 2.0);
    }

    #[test]
    fn local_placement_costs_only_execution() {
        let c = CostBreakdown { exec: Duration::from_secs(50), ..Default::default() };
        assert_eq!(c.total(&CostWeights::default()), 50.0);
    }
}
