//! Cross-crate observability tests: flight-recorder determinism and the
//! DGL-visible query surface (`docs/OBSERVABILITY.md`).

use datagridflows::prelude::*;

/// A grid + workload that exercises every subsystem the recorder hooks:
/// DGMS ops, a compute placement (planner decision + staging), a trigger
/// firing, and a replication.
fn seeded_run(seed: u64) -> (Dfms, String) {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    let mut d = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, seed));
    d.triggers_mut().register(
        Trigger::new("audit", "u", LogicalPath::parse("/w").unwrap(), TriggerAction::Notify("saw ${event.path}".into()))
            .on(&[EventKind::ObjectIngested]),
    );
    let flow = FlowBuilder::sequential("wf")
        .step("mk", DglOperation::CreateCollection { path: "/w".into() })
        .step("put", DglOperation::Ingest { path: "/w/in".into(), size: "100000000".into(), resource: "site0-pfs".into() })
        .step(
            "run",
            DglOperation::Execute {
                code: "job".into(),
                nominal_secs: "60".into(),
                resource_type: None,
                inputs: vec!["/w/in".into()],
                outputs: vec![("/w/out".into(), "5000".into())],
            },
        )
        .step("cp", DglOperation::Replicate { path: "/w/out".into(), src: None, dst: "site1-disk".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    (d, txn)
}

#[test]
fn seeded_runs_record_identical_event_streams() {
    let (a, _) = seeded_run(7);
    let (b, _) = seeded_run(7);
    let ea: Vec<ObsEvent> = a.obs().events();
    let eb: Vec<ObsEvent> = b.obs().events();
    assert!(!ea.is_empty(), "a seeded run must record events");
    assert_eq!(ea, eb, "two identically-seeded runs must record identical streams");
    // The stream covers the whole stack, not just the engine.
    let names: Vec<&str> = ea.iter().map(|e| e.kind.name()).collect();
    for expected in ["run.submitted", "step.started", "planner.decision", "trigger.fired", "provenance.write", "run.finished"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    // Sequence numbers are gap-free and times never go backwards.
    for (i, w) in ea.windows(2).enumerate() {
        assert_eq!(w[1].seq, w[0].seq + 1, "gap after event {i}");
        assert!(w[1].time >= w[0].time, "clock went backwards at event {i}");
    }
}

#[test]
fn different_seeds_still_complete_and_record() {
    let (a, _) = seeded_run(7);
    let (b, _) = seeded_run(8);
    assert!(!a.obs().events().is_empty());
    assert!(!b.obs().events().is_empty());
}

#[test]
fn status_query_returns_events_and_metrics_over_the_wire() {
    let (mut d, txn) = seeded_run(7);
    let query = FlowStatusQuery::whole(&txn).with_events(10).with_metrics();
    let request = DataGridRequest::status("q1", "u", query);
    let response = datagridflows::dgl::parse_response(&d.handle_xml(&request.to_xml())).unwrap();
    let ResponseBody::Status(report) = response.body else { panic!("expected a status report") };
    assert_eq!(report.state, RunState::Completed);
    assert!(!report.events.is_empty() && report.events.len() <= 10);
    assert!(report.events.windows(2).all(|w| w[0].seq < w[1].seq), "events arrive oldest-first");
    // The metrics include engine counters and this run's scope, rendered.
    let counter = |scope: &str, name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.scope == scope && m.name == name)
            .unwrap_or_else(|| panic!("missing {scope}/{name}"))
            .value
            .parse::<u64>()
            .unwrap()
    };
    assert_eq!(counter("engine", "runs.completed"), 1);
    assert_eq!(counter("engine", "steps.executed"), 4);
    assert_eq!(counter(&format!("run:{txn}"), "steps.completed"), 4);
    assert!(counter("triggers", "fired") >= 1);
}

#[test]
fn node_scoped_event_queries_filter_to_the_subtree() {
    let (mut d, txn) = seeded_run(7);
    let query = FlowStatusQuery::node(&txn, "/2").with_events(100);
    let request = DataGridRequest::status("q2", "u", query);
    let response = datagridflows::dgl::parse_response(&d.handle_xml(&request.to_xml())).unwrap();
    let ResponseBody::Status(report) = response.body else { panic!("expected a status report") };
    assert!(!report.events.is_empty(), "the compute step has events");
    for e in &report.events {
        assert!(
            e.detail.contains("/2") || e.kind == "planner.decision" || e.kind == "transfer.scheduled",
            "event outside /2 subtree: {} {}",
            e.kind,
            e.detail
        );
    }
}

#[test]
fn every_activity_span_parents_back_to_a_flow_root() {
    let (d, _) = seeded_run(7);
    let spans = d.obs().spans();
    assert!(!spans.is_empty(), "a seeded run must produce spans");
    let by_id: std::collections::BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id.0, s)).collect();
    let activity = [
        SpanKind::SchedulerBinding,
        SpanKind::DgmsOp,
        SpanKind::NetworkTransfer,
        SpanKind::TriggerAction,
    ];
    for kind in activity {
        assert!(spans.iter().any(|s| s.kind == kind), "no {} span recorded", kind.name());
    }
    for s in spans {
        assert!(s.end.is_some(), "span {} ({}) left open", s.id.0, s.name);
        assert!(s.end.unwrap() >= s.start, "span {} ends before it starts", s.id.0);
        if !activity.contains(&s.kind) {
            continue;
        }
        // Walk the parent chain: it must terminate at a flow span of the
        // same trace.
        let mut at = s;
        let mut hops = 0;
        while let Some(parent) = at.parent {
            at = by_id[&parent.0];
            assert_eq!(at.trace, s.trace, "parent chain crossed traces");
            hops += 1;
            assert!(hops < 64, "parent chain of span {} does not terminate", s.id.0);
        }
        assert_eq!(at.kind, SpanKind::Flow, "span {} ({}) roots at {:?}, not a flow", s.id.0, s.name, at.kind);
    }
}

#[test]
fn seeded_runs_export_byte_identical_chrome_traces() {
    let (a, _) = seeded_run(7);
    let (b, _) = seeded_run(7);
    let ja = a.obs().export_chrome_trace();
    let jb = b.obs().export_chrome_trace();
    assert!(ja.contains("\"traceEvents\""), "export is not chrome trace-event JSON: {ja}");
    assert!(ja.contains("\"ph\""), "export carries no events");
    assert_eq!(ja, jb, "identically-seeded runs must export byte-identical traces");
}

#[test]
fn trace_query_round_trips_the_dgl_wire() {
    let (mut d, txn) = seeded_run(7);
    let query = FlowStatusQuery::whole(&txn).with_trace();
    let request = DataGridRequest::status("q3", "u", query);
    let response = datagridflows::dgl::parse_response(&d.handle_xml(&request.to_xml())).unwrap();
    let ResponseBody::Status(report) = response.body else { panic!("expected a status report") };
    assert!(!report.spans.is_empty(), "with_trace must return spans");
    let ids: std::collections::BTreeSet<u64> = report.spans.iter().map(|s| s.id).collect();
    let root = report.spans.iter().find(|s| s.parent.is_none()).expect("a trace root");
    assert_eq!(root.kind, "flow");
    for s in &report.spans {
        assert_eq!(s.trace, root.trace, "whole-flow query returns a single trace");
        if let Some(p) = s.parent {
            assert!(ids.contains(&p), "span {} has a dangling parent {p}", s.id);
        }
        assert!(s.end_us.is_some(), "span {} still open in a completed run", s.id);
    }
    // The span tree reaches every instrumented layer over the wire.
    for kind in ["request", "scheduler-binding", "dgms-op", "network-transfer"] {
        assert!(report.spans.iter().any(|s| s.kind == kind), "missing {kind} span on the wire");
    }
    // Node-scoped queries narrow the tree to the subtree.
    let sub_q = FlowStatusQuery::node(&txn, "/2").with_trace();
    let sub_req = DataGridRequest::status("q4", "u", sub_q);
    let sub_resp = datagridflows::dgl::parse_response(&d.handle_xml(&sub_req.to_xml())).unwrap();
    let ResponseBody::Status(sub) = sub_resp.body else { panic!("expected a status report") };
    assert!(!sub.spans.is_empty(), "the compute node has spans");
    assert!(sub.spans.len() < report.spans.len(), "subtree query must narrow the span set");
}

#[test]
fn provenance_records_join_the_trace() {
    let (d, txn) = seeded_run(7);
    let records = d.provenance().query(&ProvenanceQuery::transaction(&txn));
    assert!(!records.is_empty());
    let spans = d.obs().spans();
    for r in records {
        let trace = r.trace_id.unwrap_or_else(|| panic!("record {} missing trace join", r.node));
        let span = r.span_id.expect("span join");
        let joined = spans
            .iter()
            .find(|s| s.trace.0 == trace && s.id.0 == span)
            .unwrap_or_else(|| panic!("record {} joins a missing span", r.node));
        assert!(
            matches!(joined.kind, SpanKind::Flow | SpanKind::Request),
            "provenance joins node spans, got {:?}",
            joined.kind
        );
    }
}

#[test]
fn legacy_metrics_shape_agrees_with_the_registry() {
    let (d, txn) = seeded_run(7);
    let legacy = d.metrics();
    let snap = d.metrics_snapshot();
    assert_eq!(legacy.runs_completed, snap.counter("engine", "runs.completed"));
    assert_eq!(legacy.steps_executed, snap.counter("engine", "steps.executed"));
    assert_eq!(legacy.bytes_moved, snap.counter("engine", "bytes.moved"));
    assert_eq!(snap.counter(&format!("run:{txn}"), "steps.completed"), legacy.steps_executed);
}
