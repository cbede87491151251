//! A sequential for-each costs the same per item however many items it
//! iterates over (the shape of the paper's §4 MD5 sweep).
//!
//! The check counts heap allocations with `dgf_obs::CountingAllocator`,
//! which counts process-wide, so this binary holds this one test only.

use dgf_dfms::Dfms;
use dgf_dgl::{DglOperation, Expr, FlowBuilder, RunState};
use dgf_dgms::{DataGrid, Principal, UserRegistry};
use dgf_scheduler::{PlannerKind, Scheduler};
use dgf_simgrid::{GridBuilder, GridPreset};

#[global_allocator]
static ALLOC: dgf_obs::CountingAllocator = dgf_obs::CountingAllocator;

/// Heap allocations per item while running a sequential for-each of
/// `n` items, each iteration one `assign` step.
fn allocations_per_item(n: usize) -> f64 {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    let mut d = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 1));
    let flow = FlowBuilder::for_each_items("sweep", "item", (0..n).map(|i| format!("item{i}")))
        .var("last", "none")
        .step("take", DglOperation::Assign { variable: "last".into(), expr: Expr::parse("item").unwrap() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    let before = dgf_obs::allocations();
    d.pump();
    let allocations = dgf_obs::allocations() - before;
    let report = d.status(&txn, None).unwrap();
    assert_eq!((report.state, report.steps_completed), (RunState::Completed, n));
    allocations as f64 / n as f64
}

#[test]
fn sequential_foreach_allocations_per_item_do_not_grow_with_its_length() {
    let small = allocations_per_item(250);
    let large = allocations_per_item(1_000);
    assert!(
        (large / small - 1.0).abs() <= 0.10,
        "allocations per item: {small:.1} at 250 items, {large:.1} at 1000 (a per-iteration copy of the item list?)"
    );
}
