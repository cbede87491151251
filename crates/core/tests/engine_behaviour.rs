//! End-to-end behaviour of the DfMS engine: every control pattern, the
//! lifecycle protocol, fault policies, triggers, scheduling, virtual
//! data, ILM jobs, and provenance-driven restart.

use dgf_dfms::{Dfms, ProvenanceQuery, RunOptions, StepOutcome};
use dgf_dgl::{
    DglOperation, Expr, FlowBuilder, RuleAction, RunState, Step, UserDefinedRule,
};
use dgf_dgms::{DataGrid, EventKind, LogicalPath, Operation, Principal, UserRegistry};
use dgf_scheduler::{PlannerKind, Scheduler};
use dgf_simgrid::{Duration, GridBuilder, GridPreset, ScheduleWindow, SimTime};
use dgf_triggers::{Trigger, TriggerAction};

fn path(s: &str) -> LogicalPath {
    LogicalPath::parse(s).unwrap()
}

/// Three-site mesh engine with an admin user `u`.
fn dfms() -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 3 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 7))
}

fn ingest_op(p: &str, size: u64) -> DglOperation {
    DglOperation::Ingest { path: p.into(), size: size.to_string(), resource: "site0-disk".into() }
}

#[test]
fn sequential_flow_executes_in_order_with_simulated_time() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("pipeline")
        .step("mk", DglOperation::CreateCollection { path: "/data".into() })
        .step("a", ingest_op("/data/a", 80_000_000)) // ~1 s on disk
        .step("b", ingest_op("/data/b", 160_000_000)) // ~2 s
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Completed);
    assert_eq!(report.steps_completed, 3);
    assert_eq!(report.steps_total, 3);
    // Time advanced by the sum of the operation durations (~3s + metadata).
    assert!(d.now() >= SimTime::from_secs(3), "clock is {}", d.now());
    // Order: /data/a was created strictly before /data/b.
    let a = d.grid().stat_object(&path("/data/a")).unwrap().created;
    let b = d.grid().stat_object(&path("/data/b")).unwrap().created;
    assert!(a < b);
}

#[test]
fn parallel_flow_overlaps_in_time() {
    let mut d = dfms();
    // Two 160 MB ingests to different resources in parallel: wall clock
    // should be ~2 s, not ~4 s.
    let par = FlowBuilder::parallel("fan")
        .flow(
            FlowBuilder::sequential("left")
                .step("a", DglOperation::Ingest { path: "/a".into(), size: "160000000".into(), resource: "site0-disk".into() })
                .build()
                .unwrap(),
        )
        .flow(
            FlowBuilder::sequential("right")
                .step("b", DglOperation::Ingest { path: "/b".into(), size: "160000000".into(), resource: "site1-disk".into() })
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", par).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    let elapsed = d.now().as_secs_f64();
    assert!(elapsed < 3.0, "parallel branches overlapped: {elapsed}s");
    assert!(elapsed > 1.9, "but each still took its ~2s: {elapsed}s");
}

#[test]
fn while_loop_counts_with_scoped_variables() {
    let mut d = dfms();
    let flow = FlowBuilder::while_loop("loop", "i < 3")
        .unwrap()
        .var("i", "0")
        .step("make", DglOperation::CreateCollection { path: "/c${i}".into() })
        .step("incr", DglOperation::Assign { variable: "i".into(), expr: Expr::parse("i + 1").unwrap() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    for i in 0..3 {
        assert!(d.grid().exists(&path(&format!("/c{i}"))), "/c{i} exists");
    }
    assert!(!d.grid().exists(&path("/c3")));
    // Each iteration materialized 2 steps.
    assert_eq!(d.status(&txn, None).unwrap().steps_total, 6);
}

#[test]
fn foreach_over_collection_binds_the_variable() {
    let mut d = dfms();
    // Seed a collection with three objects.
    let now = SimTime::ZERO;
    d.grid_mut().execute("u", Operation::CreateCollection { path: path("/in") }, now).unwrap();
    for i in 0..3 {
        d.grid_mut()
            .execute("u", Operation::Ingest { path: path(&format!("/in/f{i}")), size: 10, resource: "site0-disk".into() }, now)
            .unwrap();
    }
    let flow = FlowBuilder::for_each_in_collection("sweep", "file", "/in")
        .step("tag", DglOperation::SetMetadata { path: "${file}".into(), attribute: "swept".into(), value: "yes".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    for i in 0..3 {
        let obj = d.grid().stat_object(&path(&format!("/in/f{i}"))).unwrap();
        assert!(obj.metadata.iter().any(|t| t.attribute == "swept"), "f{i} tagged");
    }
}

#[test]
fn foreach_query_source_filters_by_metadata() {
    let mut d = dfms();
    let now = SimTime::ZERO;
    d.grid_mut().execute("u", Operation::CreateCollection { path: path("/docs") }, now).unwrap();
    for (name, kind) in [("a", "pdf"), ("b", "raw"), ("c", "pdf")] {
        let p = path(&format!("/docs/{name}"));
        d.grid_mut().execute("u", Operation::Ingest { path: p.clone(), size: 1, resource: "site0-disk".into() }, now).unwrap();
        d.grid_mut()
            .execute("u", Operation::SetMetadata { path: p, triple: dgf_dgms::MetaTriple::new("type", kind) }, now)
            .unwrap();
    }
    let flow = FlowBuilder::for_each_query("pdfs", "f", "/docs", "type", "pdf")
        .step("note", DglOperation::Notify { message: "pdf: ${f}".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    let notes: Vec<_> = d.notifications().iter().map(|n| n.message.clone()).collect();
    assert_eq!(notes, vec!["pdf: /docs/a", "pdf: /docs/c"]);
}

#[test]
fn switch_selects_the_matching_arm() {
    let mut d = dfms();
    let make_switch = |kind: &str| {
        FlowBuilder::switch("route", &format!("'{kind}'"))
            .unwrap()
            .case("pdf", dgf_dgl::Flow::sequence("pdf-arm", vec![Step::new("p", DglOperation::CreateCollection { path: "/pdf".into() })]))
            .case("raw", dgf_dgl::Flow::sequence("raw-arm", vec![Step::new("r", DglOperation::CreateCollection { path: "/raw".into() })]))
            .default_case(dgf_dgl::Flow::sequence("other-arm", vec![Step::new("o", DglOperation::CreateCollection { path: "/other".into() })]))
            .build()
            .unwrap()
    };
    let txn = d.submit_flow("u", make_switch("raw")).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    assert!(d.grid().exists(&path("/raw")));
    assert!(!d.grid().exists(&path("/pdf")));
    // Unmatched value takes the default arm.
    let txn2 = d.submit_flow("u", make_switch("mystery")).unwrap();
    d.pump();
    assert_eq!(d.status(&txn2, None).unwrap().state, RunState::Completed);
    assert!(d.grid().exists(&path("/other")));
}

#[test]
fn before_entry_and_after_exit_rules_fire() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("ruled")
        .before_entry(vec![Step::new("hello", DglOperation::Notify { message: "entering".into() })])
        .after_exit(vec![Step::new("bye", DglOperation::Notify { message: "exiting".into() })])
        .step("work", DglOperation::CreateCollection { path: "/w".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    let messages: Vec<_> = d.notifications().iter().map(|n| n.message.as_str()).collect();
    assert_eq!(messages, vec!["entering", "exiting"]);
}

#[test]
fn rule_condition_selects_action_by_name() {
    let mut d = dfms();
    // Appendix A: "The Actions are executed if the condition statement
    // evaluates to the name of the action."
    let rule = UserDefinedRule::new(
        dgf_dgl::RULE_AFTER_EXIT,
        Expr::parse("size > 1000 && 'big' || 'small'").unwrap(),
        vec![
            RuleAction { name: "big".into(), steps: vec![Step::new("b", DglOperation::Notify { message: "big file".into() })] },
            RuleAction { name: "small".into(), steps: vec![Step::new("s", DglOperation::Notify { message: "small file".into() })] },
        ],
    );
    // Our && yields booleans, so use an explicit switch-style condition.
    let rule = UserDefinedRule {
        condition: Expr::parse("(size > 1000) == true && 'big' == 'big' && 'big' || 'small'").unwrap(),
        ..rule
    };
    // Simpler and unambiguous: condition that IS the action name.
    let rule = UserDefinedRule {
        condition: Expr::parse("kind").unwrap(),
        ..rule
    };
    let flow = FlowBuilder::sequential("f")
        .var("size", "5000")
        .var("kind", "big")
        .rule(rule)
        .step("w", DglOperation::CreateCollection { path: "/x".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    assert_eq!(d.notifications().len(), 1);
    assert_eq!(d.notifications()[0].message, "big file");
}

#[test]
fn step_failure_fails_sequential_parent_and_skips_rest() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("f")
        .step("ok", DglOperation::CreateCollection { path: "/ok".into() })
        .step("bad", DglOperation::Delete { path: "/missing".into() })
        .step("never", DglOperation::CreateCollection { path: "/never".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Failed);
    assert!(report.message.as_deref().unwrap_or("").contains("bad"));
    assert!(d.grid().exists(&path("/ok")), "earlier effects persist (non-transactional)");
    assert!(!d.grid().exists(&path("/never")), "later steps never ran");
    assert_eq!(d.metrics().runs_failed, 1);
}

#[test]
fn error_policy_ignore_and_retry() {
    let mut d = dfms();
    // Ignore: the failure is recorded but the flow continues.
    let flow = FlowBuilder::sequential("f")
        .add_step(
            Step::new("bad", DglOperation::Delete { path: "/missing".into() })
                .with_error_policy(dgf_dgl::ErrorPolicy::Ignore),
        )
        .step("after", DglOperation::CreateCollection { path: "/after".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    assert!(d.grid().exists(&path("/after")));

    // Retry: a delete of a missing object keeps failing; retries then fail.
    let flow = FlowBuilder::sequential("g")
        .add_step(
            Step::new("bad", DglOperation::Delete { path: "/missing".into() })
                .with_error_policy(dgf_dgl::ErrorPolicy::Retry(2)),
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Failed);
    assert!(report.message.as_deref().unwrap().contains("after 2 retries"));
    assert_eq!(d.metrics().retries, 2);
}

#[test]
fn checksum_mismatch_fails_the_verification_step() {
    let mut d = dfms();
    let now = SimTime::ZERO;
    d.grid_mut()
        .execute("u", Operation::Ingest { path: path("/x"), size: 1000, resource: "site0-disk".into() }, now)
        .unwrap();
    d.grid_mut()
        .execute("u", Operation::Checksum { path: path("/x"), resource: None, register: true }, now)
        .unwrap();
    d.grid_mut().corrupt_replica(&path("/x"), "site0-disk").unwrap();
    let flow = FlowBuilder::sequential("verify")
        .step("check", DglOperation::Checksum { path: "/x".into(), resource: Some("site0-disk".into()), register: false })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Failed);
    assert!(report.message.as_deref().unwrap().contains("integrity"), "{report:?}");
}

#[test]
fn pause_resume_defers_new_steps_only() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("long")
        .step("a", ingest_op("/a", 80_000_000))
        .step("b", ingest_op("/b", 80_000_000))
        .step("c", ingest_op("/c", 80_000_000))
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    // Run the first step only (~1s), then pause.
    d.pump_until(SimTime::ZERO + Duration::from_millis(1_500));
    d.pause(&txn).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert!(report.steps_completed < 3, "paused before finishing: {report}");
    assert_eq!(report.state, RunState::Paused, "{report}");
    let flows_gauge = |d: &mut Dfms, state: &str| {
        d.sample_telemetry();
        d.metrics_snapshot().gauge("dfms", &format!("flows.{state}"))
    };
    assert_eq!((flows_gauge(&mut d, "paused"), flows_gauge(&mut d, "running")), (1, 0));
    assert_eq!(d.flow_summaries()[0].state, RunState::Paused);
    // Resumed, it reports its earlier state again.
    d.resume(&txn).unwrap();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Running);
    assert_eq!((flows_gauge(&mut d, "paused"), flows_gauge(&mut d, "running")), (0, 1));
    // Finish.
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    assert_eq!(d.status(&txn, None).unwrap().steps_completed, 3);
    // Lifecycle errors on bad states.
    assert!(d.pause(&txn).is_err(), "cannot pause a completed run");
    assert!(d.resume(&txn).is_err());

    // A pause is not a stall: the watchdog stops watching a paused flow
    // and watches it again from the moment it resumes.
    let mut d = dfms();
    let mut b = FlowBuilder::sequential("held");
    for i in 0..2 {
        let job = DglOperation::Execute {
            code: format!("held-job{i}"),
            nominal_secs: "900".into(),
            resource_type: None,
            inputs: vec![],
            outputs: vec![],
        };
        b = b.step(format!("s{i}"), job);
    }
    let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
    d.pump_until(SimTime::from_secs(10));
    d.pause(&txn).unwrap();
    // Past the watchdog's two-hour stall deadline; the first job ends
    // while paused and the second waits.
    d.pump_until(SimTime::ZERO + Duration::from_hours(3));
    d.sample_telemetry();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Paused);
    assert_eq!(d.metrics_snapshot().gauge("dfms", "flows_stalled"), 0);
    assert!(
        !d.obs().events().iter().any(|e| e.kind.name() == "health.stalled" && e.kind.transaction() == Some(txn.as_str())),
        "a paused flow never reads as stalled"
    );
    assert_eq!(d.obs().health_flow(&txn), None);
    assert!(!d.holds(&dgf_dgl::BisectSpec::Stalled { transaction: txn.clone() }));
    d.resume(&txn).unwrap();
    let health = d.obs().health_flow(&txn).expect("a resumed flow is watched again");
    assert_eq!((health.state, health.last_progress), (dgf_obs::HealthState::Healthy, d.now()));
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
}

/// A parallel node ends once, however many of its children fail: the
/// children still running when it failed are recorded, but their
/// endings end nothing further.
#[test]
fn a_failed_parallel_node_ends_once() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("outer")
        .flow(
            FlowBuilder::parallel("fan")
                .step("gone0", DglOperation::Delete { path: "/missing0".into() })
                .step("gone1", DglOperation::Delete { path: "/missing1".into() })
                .step("mk", DglOperation::CreateCollection { path: "/made".into() })
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Failed);
    assert!(d.grid().exists(&path("/made")), "the late child still runs");
    let mut nodes: Vec<String> =
        d.provenance().query(&ProvenanceQuery::transaction(&txn)).iter().map(|r| r.node.clone()).collect();
    nodes.sort();
    assert_eq!(nodes, ["/", "/0", "/0/0", "/0/1", "/0/2"], "one record per node");
    let m = d.metrics_snapshot();
    assert_eq!((m.counter("engine", "runs.failed"), m.counter("engine", "runs.completed")), (1, 0));
    assert_eq!(m.histogram("engine", "run.duration").count, 1);
    let finished = d.obs().events().iter().filter(|e| e.kind.name() == "run.finished").count();
    assert_eq!(finished, 1);
    assert_eq!(d.obs().why_paths().iter().filter(|p| p.txn == txn).count(), 1);
    let root = d.provenance().query(&ProvenanceQuery::transaction(&txn)).into_iter().find(|r| r.node == "/").unwrap();
    let spans = d.obs().trace_spans(dgf_obs::TraceId(root.trace_id.unwrap()));
    let flow_span = spans.iter().find(|s| Some(s.id.0) == root.span_id).unwrap();
    assert_eq!(flow_span.attrs.iter().filter(|(k, _)| k == "outcome").count(), 1);
}

/// Once a run has ended, its live sub-flows launch nothing new: a
/// sequential sibling of the failed branch finishes the step it already
/// started, then ends `stopped` instead of starting its next one.
#[test]
fn a_failed_run_launches_no_new_work() {
    let mut d = dfms();
    let doomed = FlowBuilder::sequential("doomed")
        .step("gone", DglOperation::Delete { path: "/missing".into() })
        .build()
        .unwrap();
    let ingests = FlowBuilder::sequential("ingests")
        .step("a", ingest_op("/a", 80_000_000))
        .step("b", ingest_op("/b", 80_000_000))
        .step("c", ingest_op("/c", 80_000_000))
        .build()
        .unwrap();
    let flow = FlowBuilder::sequential("outer")
        .flow(FlowBuilder::parallel("fan").flow(doomed).flow(ingests).build().unwrap())
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Failed);
    assert!(d.grid().exists(&path("/a")), "the step already running finishes");
    assert!(!d.grid().exists(&path("/b")) && !d.grid().exists(&path("/c")), "no later step starts");
    let records = d.provenance().query(&ProvenanceQuery::transaction(&txn));
    let record = |node: &str| records.iter().find(|r| r.node == node);
    assert_eq!(record("/0/1/0").map(|r| r.outcome), Some(StepOutcome::Completed));
    let cut = record("/0/1").expect("the cut-off sub-flow is recorded");
    assert_eq!(cut.outcome, StepOutcome::Stopped);
    assert!(cut.detail.contains("failed"), "{}", cut.detail);
    assert!(record("/0/1/1").is_none() && record("/0/1/2").is_none());
    assert_eq!(d.status(&txn, Some("/0/1")).unwrap().children.len(), 1, "later steps are never created");

    // A parallel node whose start was queued before the run failed ends
    // once, launching none of its children, and cuts off its parent.
    let late = FlowBuilder::parallel("late")
        .step("mk0", DglOperation::CreateCollection { path: "/late0".into() })
        .step("mk1", DglOperation::CreateCollection { path: "/late1".into() })
        .build()
        .unwrap();
    let outer = FlowBuilder::sequential("outer").flow(late).build().unwrap();
    let doomed = FlowBuilder::for_each_in_collection("doomed", "f", "no-such-collection")
        .step("note", DglOperation::Notify { message: "${f}".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", FlowBuilder::parallel("fan").flow(outer).flow(doomed).build().unwrap()).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Failed);
    let records = d.provenance().query(&ProvenanceQuery::transaction(&txn));
    let nodes: Vec<(&str, StepOutcome)> = records.iter().map(|r| (r.node.as_str(), r.outcome)).collect();
    use StepOutcome::{Failed, Stopped};
    assert_eq!(nodes, [("/1", Failed), ("/", Failed), ("/0/0", Stopped), ("/0", Stopped)]);
    assert!(!d.grid().exists(&path("/late0")) && !d.grid().exists(&path("/late1")));
}

/// A for-each binds each item as the text it resolved to: an item that
/// looks like a template is not interpolated a second time.
#[test]
fn foreach_items_bind_as_resolved() {
    let mut d = dfms();
    let now = SimTime::ZERO;
    d.grid_mut().execute("u", Operation::CreateCollection { path: path("/in") }, now).unwrap();
    let odd = path("/in/run${x}.dat");
    d.grid_mut().execute("u", Operation::Ingest { path: odd.clone(), size: 10, resource: "site0-disk".into() }, now).unwrap();
    let flow = FlowBuilder::for_each_in_collection("sweep", "f", "/in")
        .step("tag", DglOperation::SetMetadata { path: "${f}".into(), attribute: "swept".into(), value: "yes".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Completed, "{report}");
    assert!(d.grid().stat_object(&odd).unwrap().metadata.iter().any(|t| t.attribute == "swept"));
}

#[test]
fn stop_then_restart_resumes_from_provenance() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("archive")
        .step("a", ingest_op("/a", 80_000_000))
        .step("b", ingest_op("/b", 80_000_000))
        .step("c", ingest_op("/c", 80_000_000))
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump_until(SimTime::ZERO + Duration::from_millis(1_500)); // step a done, b in flight
    d.stop(&txn).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Stopped);
    assert!(d.grid().exists(&path("/a")));
    assert!(!d.grid().exists(&path("/c")));

    // Restart: a new transaction in the same lineage skips step a.
    let txn2 = d.restart(&txn).unwrap();
    assert_ne!(txn2, txn);
    d.pump();
    let report2 = d.status(&txn2, None).unwrap();
    assert_eq!(report2.state, RunState::Completed, "{report2}");
    assert!(d.grid().exists(&path("/c")));
    assert_eq!(d.metrics().steps_skipped_restart, 1, "step a was skipped, not re-run");
    // Provenance shows the full story across both transactions.
    let lineage_records = d.provenance().query(&ProvenanceQuery::lineage(&txn));
    assert!(lineage_records.iter().any(|r| r.transaction == txn));
    assert!(lineage_records.iter().any(|r| r.transaction == txn2));
    assert!(lineage_records.iter().any(|r| r.outcome == StepOutcome::Skipped));
}

/// A stopped flow ends through the same path as a failed one: off the
/// watchdog, its SLA alert resolved, its record counted, its critical
/// path derived.
#[test]
fn a_stopped_flow_ends_like_a_failed_one() {
    let mut d = dfms();
    let mut b = FlowBuilder::sequential("halt").with_deadline_secs(600);
    for i in 0..3 {
        let job = DglOperation::Execute {
            code: format!("halt-job{i}"),
            nominal_secs: "300".into(),
            resource_type: None,
            inputs: vec![],
            outputs: vec![],
        };
        b = b.step(format!("s{i}"), job);
    }
    let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
    d.pump_until(SimTime::from_secs(10));
    d.stop(&txn).unwrap();
    // Past the 600 s deadline and the watchdog's two-hour stall deadline.
    d.pump_until(SimTime::ZERO + Duration::from_hours(3));
    d.sample_telemetry();

    assert_eq!(d.obs().health_flow(&txn), None, "a stopped flow leaves the watchdog");
    assert_eq!(d.metrics_snapshot().gauge("dfms", "flows_stalled"), 0);
    let alert = d.obs().why_alert(&txn).expect("the flow has an objective");
    assert_eq!(alert.state, dgf_dgl::AlertState::Resolved);
    assert_eq!((alert.fired_at, alert.resolved_at, alert.breached), (None, Some(SimTime::from_secs(10)), false));
    assert_eq!(d.metrics_snapshot().counter("engine", "sla.firings"), 0);
    assert_eq!(d.metrics_snapshot().counter("engine", "provenance.writes"), d.provenance().len() as u64);
    assert_eq!(d.metrics_snapshot().histogram("engine", "run.duration").count, 1);
    let path = d.obs().why_paths().iter().find(|p| p.txn == txn).expect("a stopped flow has a critical path");
    assert_eq!(path.segments_sum_us(), path.makespan_us());
    assert_eq!(path.makespan_us(), 10_000_000);
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Stopped);
    assert_eq!(report.message.as_deref(), Some("stopped by lifecycle request"));
}

#[test]
fn lineage_lookup_names_the_first_run_across_restarts() {
    let mut d = dfms();
    let archive = |dir: &str| {
        FlowBuilder::sequential("archive")
            .step("mk", DglOperation::CreateCollection { path: dir.into() })
            .step("a", ingest_op(&format!("{dir}/a"), 80_000_000))
            .step("b", ingest_op(&format!("{dir}/b"), 80_000_000))
            .build()
            .unwrap()
    };
    let delegated = RunOptions { lineage: Some("fed:x1/0".into()), ..RunOptions::default() };
    let plain = d.submit_flow("u", archive("/p")).unwrap();
    let txn = d.submit_flow_with("u", archive("/d"), delegated).unwrap();
    d.pump_until(SimTime::ZERO + Duration::from_millis(1_500));
    d.stop(&plain).unwrap();
    d.stop(&txn).unwrap();
    d.pump();
    let txn2 = d.restart(&txn).unwrap();
    let plain2 = d.restart(&plain).unwrap();
    d.pump();
    assert_eq!(d.status(&txn2, None).unwrap().state, RunState::Completed);

    // The scan the lookup replaces: the first summary with the lineage.
    let scanned = |lineage: &str| {
        d.flow_summaries().into_iter().find(|f| f.lineage == lineage).map(|f| f.transaction)
    };
    for (lineage, first, later) in [("fed:x1/0", &txn, &txn2), (plain.as_str(), &plain, &plain2)] {
        assert_eq!(d.flow_summaries().iter().filter(|f| f.lineage == lineage).count(), 2);
        assert_eq!(d.first_txn_of_lineage(lineage), Some(first.as_str()), "{lineage}");
        assert_eq!(d.first_txn_of_lineage(lineage).map(str::to_owned), scanned(lineage));
        assert_ne!(d.first_txn_of_lineage(lineage), Some(later.as_str()));
    }
    assert_eq!(d.first_txn_of_lineage("fed:x9/0"), None);
    assert_eq!(d.first_txn_of_lineage(&txn), None, "a delegated run's txn is not its lineage");
}

#[test]
fn status_queries_address_any_node() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("outer")
        .flow(
            FlowBuilder::sequential("inner")
                .step("a", ingest_op("/a", 10))
                .step("b", ingest_op("/b", 10))
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let root = d.status(&txn, None).unwrap();
    assert_eq!(root.node, "/");
    assert_eq!(root.children.len(), 1);
    let inner = d.status(&txn, Some("/0")).unwrap();
    assert_eq!(inner.name, "inner");
    assert_eq!(inner.children.len(), 2);
    let leaf = d.status(&txn, Some("/0/1")).unwrap();
    assert_eq!(leaf.name, "b");
    assert_eq!(leaf.state, RunState::Completed);
    assert!(d.status(&txn, Some("/9")).is_err());
    assert!(d.status("t999", None).is_err());
}

#[test]
fn window_constrained_runs_wait_for_the_window() {
    let mut d = dfms();
    // Submit Monday 09:00 with a weekend-only window.
    let flow = FlowBuilder::sequential("weekend-job")
        .step("w", DglOperation::CreateCollection { path: "/weekend".into() })
        .build()
        .unwrap();
    // Advance the engine clock to Monday 09:00 first.
    d.pump_until(SimTime::from_hours(9));
    let options = RunOptions { window: Some(ScheduleWindow::weekends()), ..Default::default() };
    let txn = d.submit_flow_with("u", flow, options).unwrap();
    // Pump through Friday: nothing happens.
    d.pump_until(SimTime::from_days(4));
    assert!(!d.grid().exists(&path("/weekend")));
    assert!(!d.status(&txn, None).unwrap().state.is_terminal());
    // Pump into Saturday: it runs.
    d.pump_until(SimTime::from_days(5) + Duration::from_hours(1));
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    let created = d.grid().stat_collection(&path("/weekend")).unwrap().created;
    assert!(created >= SimTime::from_days(5), "ran inside the window: {created}");
}

#[test]
fn triggers_fire_flows_and_notifications_from_engine_activity() {
    let mut d = dfms();
    // Trigger: when a file is ingested anywhere under /incoming, register
    // its checksum (the §2.2 "creating metadata when a file is created"
    // automation) and notify.
    let action_flow = FlowBuilder::sequential("auto-checksum")
        .step("sum", DglOperation::Checksum { path: "${event.path}".into(), resource: None, register: true })
        .build()
        .unwrap();
    d.triggers_mut().register(
        Trigger::new("auto-checksum", "u", path("/incoming"), TriggerAction::Flow(action_flow))
            .on(&[EventKind::ObjectIngested]),
    );
    d.triggers_mut().register(
        Trigger::new("notify-ingest", "u", path("/incoming"), TriggerAction::Notify("ingested ${event.path}".into()))
            .on(&[EventKind::ObjectIngested]),
    );
    let flow = FlowBuilder::sequential("producer")
        .step("mk", DglOperation::CreateCollection { path: "/incoming".into() })
        .step("put", DglOperation::Ingest { path: "/incoming/x".into(), size: "100".into(), resource: "site0-disk".into() })
        .build()
        .unwrap();
    d.submit_flow("u", flow).unwrap();
    d.pump();
    // The notification fired.
    assert!(d.notifications().iter().any(|n| n.message == "ingested /incoming/x"));
    // The triggered flow ran and registered a checksum.
    let obj = d.grid().stat_object(&path("/incoming/x")).unwrap();
    assert!(obj.checksum.is_some(), "trigger flow registered the digest");
    assert!(d.metrics().trigger_firings >= 2);
}

#[test]
fn execute_steps_schedule_stage_and_register_outputs() {
    let mut d = dfms();
    let now = SimTime::ZERO;
    d.grid_mut()
        .execute("u", Operation::Ingest { path: path("/raw"), size: 1_000_000_000, resource: "site0-pfs".into() }, now)
        .unwrap();
    let flow = FlowBuilder::sequential("science")
        .step(
            "derive",
            DglOperation::Execute {
                code: "wave-sim".into(),
                nominal_secs: "120".into(),
                resource_type: Some("compute".into()),
                inputs: vec!["/raw".into()],
                outputs: vec![("/derived".into(), "50000000".into())],
            },
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    assert!(d.grid().exists(&path("/derived")));
    // Cost-based planning kept execution at the data: the output lives at site0.
    let out = d.grid().stat_object(&path("/derived")).unwrap();
    let out_domain = d.grid().topology().storage_domain(out.replicas[0].storage);
    assert_eq!(d.grid().topology().domain(out_domain).name, "site0");
    // Execution consumed simulated time ≥ nominal 120 s.
    assert!(d.now() >= SimTime::from_secs(120));
    assert_eq!(d.metrics().exec_tasks, 1);
    // All slots released.
    let topo = d.grid().topology();
    assert!(topo.compute_ids().all(|c| topo.compute(c).busy == 0));
}

#[test]
fn virtual_data_skips_repeated_derivations() {
    let mut d = dfms();
    let now = SimTime::ZERO;
    d.grid_mut()
        .execute("u", Operation::Ingest { path: path("/raw"), size: 1000, resource: "site0-disk".into() }, now)
        .unwrap();
    let derive = |out: &str| {
        FlowBuilder::sequential("science")
            .step(
                "derive",
                DglOperation::Execute {
                    code: "transform".into(),
                    nominal_secs: "60".into(),
                    resource_type: None,
                    inputs: vec!["/raw".into()],
                    outputs: vec![(out.to_string(), "100".into())],
                },
            )
            .build()
            .unwrap()
    };
    let t1 = d.submit_flow("u", derive("/out")).unwrap();
    d.pump();
    assert_eq!(d.status(&t1, None).unwrap().state, RunState::Completed);
    let time_after_first = d.now();

    // Second identical derivation: skipped via the catalog, ~no time.
    let t2 = d.submit_flow("u", derive("/out")).unwrap();
    d.pump();
    let report = d.status(&t2, None).unwrap();
    assert_eq!(report.state, RunState::Completed);
    assert_eq!(d.metrics().steps_skipped_virtual, 1);
    assert!(d.now().since(time_after_first) < Duration::from_secs(1), "no recomputation");
}

#[test]
fn ilm_jobs_recur_on_schedule() {
    let mut d = dfms();
    d.grid_mut().execute("u", Operation::CreateCollection { path: path("/nightly") }, SimTime::ZERO).unwrap();
    let flow = FlowBuilder::sequential("nightly-note")
        .step("n", DglOperation::Notify { message: "ilm ran".into() })
        .build()
        .unwrap();
    let job = dgf_ilm::IlmJob::unconstrained("nightly", "u", flow, Duration::from_days(1));
    d.register_ilm_job(job);
    d.pump_until(SimTime::from_days(3) + Duration::from_hours(1));
    let runs = d.notifications().iter().filter(|n| n.message == "ilm ran").count();
    assert_eq!(runs, 4, "day 0, 1, 2, 3");
}

#[test]
fn iteration_limit_guards_infinite_loops() {
    let mut d = dfms();
    let flow = FlowBuilder::while_loop("forever", "true")
        .unwrap()
        .step("n", DglOperation::Assign { variable: "x".into(), expr: Expr::parse("1").unwrap() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Failed);
    assert!(report.message.as_deref().unwrap().contains("iterations"));
}

#[test]
fn invalid_flows_and_users_are_rejected_at_submit() {
    let mut d = dfms();
    let dup = dgf_dgl::Flow::sequence(
        "bad",
        vec![
            Step::new("same", DglOperation::Notify { message: "1".into() }),
            Step::new("same", DglOperation::Notify { message: "2".into() }),
        ],
    );
    assert!(d.submit_flow("u", dup).is_err(), "structural validation at submission");
    let fine = dgf_dgl::Flow::sequence("ok", vec![]);
    assert!(d.submit_flow("ghost", fine).is_err(), "unknown user");
}

#[test]
fn provenance_snapshot_survives_process_restart() {
    let mut d = dfms();
    let flow = FlowBuilder::sequential("f")
        .step("a", ingest_op("/a", 10))
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    let snapshot = d.provenance().snapshot();

    // "Years later": a fresh engine, restored store.
    let mut later = dfms();
    later.restore_provenance(dgf_dfms::ProvenanceStore::restore(&snapshot).unwrap());
    let records = later.provenance().query(&ProvenanceQuery::transaction(&txn));
    assert!(!records.is_empty());
    assert!(records.iter().any(|r| r.verb == "ingest" && r.outcome == StepOutcome::Completed));
}

#[test]
fn parallel_foreach_iterations_overlap() {
    let mut d = dfms();
    let now = SimTime::ZERO;
    d.grid_mut().execute("u", Operation::CreateCollection { path: path("/src") }, now).unwrap();
    for i in 0..4 {
        d.grid_mut()
            .execute(
                "u",
                Operation::Ingest { path: path(&format!("/src/f{i}")), size: 80_000_000, resource: "site0-disk".into() },
                now,
            )
            .unwrap();
    }
    // Replicating 4×80MB to 4 different sites' archives concurrently.
    let flow = FlowBuilder::for_each_in_collection("rep", "f", "/src")
        .concurrent()
        .step("cp", DglOperation::Replicate { path: "${f}".into(), src: None, dst: "site1-disk".into() })
        .build()
        .unwrap();
    // Replicas to the same resource would collide on paths, but each file
    // is distinct so all four replicate; the shared link makes them slower
    // than solo but still overlapped.
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    let elapsed = d.now().as_secs_f64();
    // Serial would be ≥ 4 s (4×1 s at 80 MB/s); overlapped-with-sharing is
    // ~4 s too on one link, BUT the statuses confirm all ran; check tree.
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.steps_total, 4);
    assert_eq!(report.steps_completed, 4);
    assert!(elapsed < 8.0, "not serialized with overhead: {elapsed}");
}
