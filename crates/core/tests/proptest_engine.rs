//! Property tests over the engine: arbitrary generated flows terminate,
//! never leak slots or link shares, and report consistent progress.

use dgf_dfms::Dfms;
use dgf_dgl::{Children, ControlPattern, DglOperation, Expr, Flow, FlowLogic, RunState, Step};
use dgf_dgms::{DataGrid, Principal, UserRegistry};
use dgf_scheduler::{PlannerKind, Scheduler};
use dgf_simgrid::{GridBuilder, GridPreset};
use proptest::prelude::*;

fn dfms() -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 1))
}

/// Step operations drawn so that some succeed and some fail (deletes of
/// missing objects), exercising failure propagation.
fn op_strategy() -> impl Strategy<Value = DglOperation> {
    prop_oneof![
        4 => "[a-z]{1,8}".prop_map(|m| DglOperation::Notify { message: m }),
        3 => (0u8..8).prop_map(|i| DglOperation::CreateCollection { path: format!("/c{i}") }),
        2 => (0u8..8, 1u64..1_000).prop_map(|(i, size)| DglOperation::Ingest {
            path: format!("/o{i}"),
            size: size.to_string(),
            resource: "site0-disk".into(),
        }),
        1 => (0u8..8).prop_map(|i| DglOperation::Delete { path: format!("/o{i}") }),
        2 => ("[a-z]{1,4}", -10i64..10).prop_map(|(v, n)| DglOperation::Assign {
            variable: v,
            expr: Expr::parse(&n.to_string()).unwrap(),
        }),
        1 => (0u8..8, 1u64..50).prop_map(|(i, secs)| DglOperation::Execute {
            code: format!("job{i}"),
            nominal_secs: secs.to_string(),
            resource_type: None,
            inputs: vec![],
            outputs: vec![],
        }),
    ]
}

#[derive(Debug, Clone)]
enum Shape {
    Steps(Vec<DglOperation>),
    Seq(Vec<Shape>),
    Par(Vec<Shape>),
    ForEachItems { items: Vec<String>, body: Vec<DglOperation>, parallel: bool },
    WhileCounted { iterations: u8, body: Vec<DglOperation> },
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let steps = proptest::collection::vec(op_strategy(), 0..4).prop_map(Shape::Steps);
    let foreach = (
        proptest::collection::vec("[a-z0-9]{1,6}", 1..4),
        proptest::collection::vec(op_strategy(), 1..3),
        any::<bool>(),
    )
        .prop_map(|(items, body, parallel)| Shape::ForEachItems { items, body, parallel });
    let while_loop = (1u8..4, proptest::collection::vec(op_strategy(), 1..3))
        .prop_map(|(iterations, body)| Shape::WhileCounted { iterations, body });
    let leaf = prop_oneof![3 => steps, 1 => foreach, 1 => while_loop];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Seq),
            proptest::collection::vec(inner, 1..4).prop_map(Shape::Par),
        ]
    })
}

fn build(shape: &Shape, counter: &mut u32) -> Flow {
    *counter += 1;
    let name = format!("n{counter}");
    let mk_steps = |ops: &[DglOperation], counter: &mut u32| -> Vec<Step> {
        ops.iter()
            .map(|op| {
                *counter += 1;
                Step::new(format!("s{counter}"), op.clone())
            })
            .collect()
    };
    match shape {
        Shape::Steps(ops) => Flow {
            name,
            variables: vec![],
            logic: FlowLogic::sequential(),
            children: Children::Steps(mk_steps(ops, counter)),
        },
        Shape::Seq(shapes) => Flow {
            name,
            variables: vec![],
            logic: FlowLogic::sequential(),
            children: Children::Flows(shapes.iter().map(|s| build(s, counter)).collect()),
        },
        Shape::Par(shapes) => Flow {
            name,
            variables: vec![],
            logic: FlowLogic::parallel(),
            children: Children::Flows(shapes.iter().map(|s| build(s, counter)).collect()),
        },
        Shape::ForEachItems { items, body, parallel } => Flow {
            name,
            variables: vec![],
            logic: FlowLogic {
                pattern: ControlPattern::ForEach {
                    var: "item".into(),
                    source: dgf_dgl::IterSource::Items(items.clone()),
                    parallel: *parallel,
                },
                rules: vec![],
            },
            children: Children::Steps(mk_steps(body, counter)),
        },
        Shape::WhileCounted { iterations, body } => {
            *counter += 1;
            let counter_var = format!("i{counter}");
            let mut steps = mk_steps(body, counter);
            *counter += 1;
            steps.push(Step::new(
                format!("incr{counter}"),
                DglOperation::Assign {
                    variable: counter_var.clone(),
                    expr: Expr::parse(&format!("{counter_var} + 1")).unwrap(),
                },
            ));
            Flow {
                name,
                variables: vec![dgf_dgl::VarDecl::new(counter_var.clone(), "0")],
                logic: FlowLogic {
                    pattern: ControlPattern::While(Expr::parse(&format!("{counter_var} < {iterations}")).unwrap()),
                    rules: vec![],
                },
                children: Children::Steps(steps),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever flow we throw at it:
    /// * the engine terminates with the root in a terminal state,
    /// * no compute slots or transfer shares leak,
    /// * progress counters are consistent (completed ≤ total),
    /// * the provenance record count ≥ materialized terminal nodes,
    /// * every node ends once: one provenance record per (transaction,
    ///   node), and the run counts as completed or failed exactly once.
    #[test]
    fn generated_flows_terminate_cleanly(shape in shape_strategy()) {
        let mut counter = 0;
        let flow = build(&shape, &mut counter);
        prop_assume!(flow.validate().is_ok());
        let mut d = dfms();
        let txn = d.submit_flow("u", flow).unwrap();
        d.pump();
        let report = d.status(&txn, None).unwrap();
        prop_assert!(report.state.is_terminal(), "root state {:?}", report.state);
        prop_assert!(report.steps_completed <= report.steps_total);
        // No leaked compute slots.
        let topo = d.grid().topology();
        for c in topo.compute_ids() {
            prop_assert_eq!(topo.compute(c).busy, 0, "leaked slot on {}", topo.compute(c).name);
        }
        // No leaked transfer shares.
        prop_assert_eq!(d.grid().transfer_model().total_active_shares(), 0);
        // Provenance covers the run.
        prop_assert!(!d.provenance().is_empty());
        // Each node ends once, the run included.
        let mut recorded = std::collections::BTreeSet::new();
        for r in d.provenance().records() {
            prop_assert!(recorded.insert((r.transaction.as_str(), r.node.as_str())), "{} {} recorded twice", r.transaction, r.node);
        }
        let m = d.metrics();
        prop_assert_eq!(m.runs_completed + m.runs_failed, 1);
    }

    /// Pausing and resuming at arbitrary points never wedges a flow.
    #[test]
    fn pause_resume_anywhere_is_safe(
        steps in 1usize..12,
        pause_at_ms in 0u64..5_000,
    ) {
        let mut d = dfms();
        let mut b = dgf_dgl::FlowBuilder::sequential("work");
        for i in 0..steps {
            b = b.step(
                format!("s{i}"),
                DglOperation::Ingest { path: format!("/f{i}"), size: "40000000".into(), resource: "site0-disk".into() },
            );
        }
        let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump_until(dgf_simgrid::SimTime(pause_at_ms * 1_000));
        let paused = d.pause(&txn).is_ok(); // may already be complete
        d.pump();
        if paused {
            // While paused the run must not advance to terminal...
            let state = d.status(&txn, None).unwrap().state;
            prop_assert!(!state.is_terminal() || state == RunState::Completed,
                "paused run ended as {state}");
            if !state.is_terminal() {
                d.resume(&txn).unwrap();
                d.pump();
            }
        }
        let final_state = d.status(&txn, None).unwrap().state;
        prop_assert_eq!(final_state, RunState::Completed);
        prop_assert_eq!(d.status(&txn, None).unwrap().steps_completed, steps);
    }

    /// Stop + restart always converges: at most two rounds finish all
    /// work, and nothing is executed twice.
    #[test]
    fn stop_restart_converges(steps in 2usize..10, stop_at_ms in 100u64..8_000) {
        let mut d = dfms();
        let mut b = dgf_dgl::FlowBuilder::sequential("work");
        for i in 0..steps {
            b = b.step(
                format!("s{i}"),
                DglOperation::Ingest { path: format!("/f{i}"), size: "40000000".into(), resource: "site0-disk".into() },
            );
        }
        let flow = b.build().unwrap();
        let txn = d.submit_flow("u", flow).unwrap();
        d.pump_until(dgf_simgrid::SimTime(stop_at_ms * 1_000));
        if d.stop(&txn).is_ok() {
            d.pump();
            let txn2 = d.restart(&txn).unwrap();
            d.pump();
            prop_assert_eq!(d.status(&txn2, None).unwrap().state, RunState::Completed);
        } else {
            // Already terminal: must be completed.
            prop_assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
        }
        // Every object exists exactly once — restart did not double-ingest.
        for i in 0..steps {
            let p = dgf_dgms::LogicalPath::parse(&format!("/f{i}")).unwrap();
            prop_assert!(d.grid().exists(&p), "/f{i} missing after recovery");
        }
        let executed = d.metrics().steps_executed + d.metrics().steps_skipped_restart;
        prop_assert!(executed as usize >= steps);
    }
}
