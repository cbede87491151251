//! Golden-file tests for the engine's observability output.
//!
//! One small seeded scenario drives every path that feeds the metric
//! scopes other tests only spot-check: late binding on a saturated grid
//! (`scheduler/plans.failed`, queue retries), early binding (pinned
//! placements replayed: `scheduler/binding.replays`), a self-feeding
//! trigger cut off by the cascade-depth limit
//! (`triggers/suppressed.depth`), a trigger whose condition errors
//! (`triggers/condition.errors`) and a BEFORE trigger. Two more flows
//! pin the interpreter: one nests every control pattern, and one has a
//! parallel node with exactly one failing child. Four renderings of the
//! result are pinned byte for byte in `tests/obs_golden/`:
//!
//! * `metrics.txt` — `Dfms::metrics_snapshot().to_text()`;
//! * `scrape.txt` — `Dfms::telemetry_scrape()`;
//! * `trace.json` — the Chrome trace-event export of every span;
//! * `provenance.xml` — `ProvenanceStore::snapshot()`.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! UPDATE_OBS_GOLDEN=1 cargo test --test obs_golden
//! ```
//!
//! then review the diff like any other code change.

use datagridflows::prelude::*;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/obs_golden")
}

fn exec(code: &str, secs: &str) -> DglOperation {
    DglOperation::Execute {
        code: code.into(),
        nominal_secs: secs.into(),
        resource_type: None,
        inputs: vec![],
        outputs: vec![],
    }
}

fn ingest(path: &str) -> DglOperation {
    DglOperation::Ingest { path: path.into(), size: "10".into(), resource: "site0-disk".into() }
}

/// Two sites of two cluster slots each, so six parallel jobs saturate
/// the grid and queue.
fn scenario() -> Dfms {
    let mut b = GridBuilder::new();
    let s0 = b.add_site("site0", 2);
    let s1 = b.add_site("site1", 2);
    b.wan_link(s0, s1);
    let topology = b.build();
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    let mut d = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 17));
    *d.triggers_mut() = std::mem::take(d.triggers_mut()).with_max_depth(2);

    // Saturated grid under late binding.
    let mut burst = FlowBuilder::parallel("burst");
    for i in 0..6 {
        burst = burst.step(format!("b{i}"), exec(&format!("burst{i}"), "60"));
    }
    let txn = d.submit_flow("u", burst.build().unwrap()).unwrap();
    d.pump_until_terminal(&txn);

    // Early binding: every execute step is planned at submission and
    // the pinned placement is replayed when the step starts.
    d.set_binding_mode(BindingMode::Early);
    let mut pinned = FlowBuilder::sequential("pinned");
    for i in 0..3 {
        pinned = pinned.step(format!("p{i}"), exec(&format!("pinned{i}"), "20"));
    }
    let txn = d.submit_flow("u", pinned.build().unwrap()).unwrap();
    d.pump_until_terminal(&txn);

    // A self-feeding trigger past the depth limit, a trigger whose
    // condition names metadata no object carries, and a BEFORE trigger.
    let echo = FlowBuilder::sequential("echo")
        .add_step(Step::new("again", ingest("${event.path}-x")).with_error_policy(ErrorPolicy::Ignore))
        .build()
        .unwrap();
    let echo_scope = LogicalPath::parse("/echo").unwrap();
    d.triggers_mut().register(
        Trigger::new("echo", "u", echo_scope.clone(), TriggerAction::Flow(echo)).on(&[EventKind::ObjectIngested]),
    );
    d.triggers_mut().register(
        Trigger::new("tiered", "u", echo_scope.clone(), TriggerAction::Notify("hot ${event.path}".into()))
            .on(&[EventKind::ObjectIngested])
            .when(Expr::parse("meta.tier == 'hot'").unwrap()),
    );
    d.triggers_mut().register(
        Trigger::new("gate", "u", echo_scope, TriggerAction::Notify("about to ${event.kind}".into()))
            .on(&[EventKind::ObjectIngested])
            .before(),
    );
    let seed = FlowBuilder::sequential("seed")
        .step("mk", DglOperation::CreateCollection { path: "/echo".into() })
        .step("put", ingest("/echo/seed"))
        .build()
        .unwrap();
    let txn = d.submit_flow("u", seed).unwrap();
    d.pump_until_terminal(&txn);
    d.pump();

    // Every control pattern, nested, and a parallel node with exactly
    // one failing child.
    let txn = d.submit_flow("u", nested()).unwrap();
    d.pump_until_terminal(&txn);
    let split = FlowBuilder::sequential("split")
        .flow(
            FlowBuilder::parallel("halves")
                .flow(Flow::sequence("good", vec![Step::new("mk", DglOperation::CreateCollection { path: "/split".into() })]))
                .flow(Flow::sequence("bad", vec![Step::new("drop", DglOperation::Delete { path: "/split-missing".into() })]))
                .build()
                .unwrap(),
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", split).unwrap();
    d.pump_until_terminal(&txn);
    d.pump();
    d.sample_telemetry();
    d
}

/// A sequential flow nesting every control pattern: a parallel fan-out
/// (one empty parallel among its arms), a while loop that an `assign`
/// write-back runs for three iterations, sequential, concurrent and
/// empty for-eachs, a switch that takes a matching arm and one that
/// takes its default, and a step whose failure is ignored.
fn nested() -> Flow {
    let note = |name: &str, message: &str| Step::new(name, DglOperation::Notify { message: message.into() });
    let arm = |name: &str| Flow::sequence(name, vec![note("say", name)]);
    let switch = |name: &str, on: &str| {
        FlowBuilder::switch(name, on)
            .unwrap()
            .case("a", arm("arm-a"))
            .case("b", arm("arm-b"))
            .default_case(arm("arm-other"))
            .build()
            .unwrap()
    };
    FlowBuilder::sequential("nested")
        .flow(Flow::sequence("setup", vec![Step::new("mk", DglOperation::CreateCollection { path: "/nest".into() })]))
        .flow(
            FlowBuilder::parallel("fan")
                .flow(Flow::sequence("left", vec![Step::new("put", ingest("/nest/left"))]))
                .flow(Flow::sequence("right", vec![Step::new("put", ingest("/nest/right"))]))
                .flow(FlowBuilder::parallel("idle").build().unwrap())
                .build()
                .unwrap(),
        )
        .flow(
            FlowBuilder::while_loop("count", "i < 3")
                .unwrap()
                .var("i", "0")
                .step("bump", DglOperation::Assign { variable: "i".into(), expr: Expr::parse("i + 1").unwrap() })
                .build()
                .unwrap(),
        )
        .flow(FlowBuilder::for_each_items("each", "item", ["x", "y", "z"]).add_step(note("say", "seq ${item}")).build().unwrap())
        .flow(
            FlowBuilder::for_each_items("each-par", "item", ["p", "q"])
                .concurrent()
                .step("put", ingest("/nest/${item}"))
                .build()
                .unwrap(),
        )
        .flow(FlowBuilder::for_each_items("none", "item", Vec::<String>::new()).add_step(note("never", "no items")).build().unwrap())
        .flow(switch("pick", "'b'"))
        .flow(switch("fallback", "'zzz'"))
        .flow(Flow::sequence(
            "tolerant",
            vec![Step::new("drop", DglOperation::Delete { path: "/nest/missing".into() }).with_error_policy(ErrorPolicy::Ignore)],
        ))
        .build()
        .unwrap()
}

#[test]
fn observability_output_matches_goldens() {
    let d = scenario();
    let update = std::env::var_os("UPDATE_OBS_GOLDEN").is_some();
    for (name, actual) in [
        ("metrics.txt", d.metrics_snapshot().to_text()),
        ("scrape.txt", d.telemetry_scrape()),
        ("trace.json", d.obs().export_chrome_trace()),
        ("provenance.xml", d.provenance().snapshot()),
    ] {
        let path = golden_dir().join(name);
        if update {
            std::fs::create_dir_all(golden_dir()).unwrap();
            std::fs::write(&path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let at = expected.bytes().zip(actual.bytes()).position(|(a, b)| a != b).unwrap_or(expected.len().min(actual.len()));
        let context = actual.get(at.saturating_sub(40)..(at + 40).min(actual.len())).unwrap_or("");
        assert!(expected == actual, "{name} differs from its golden at byte {at}, near {context:?} (UPDATE_OBS_GOLDEN=1 regenerates)");
    }
}

#[test]
fn scenario_reaches_every_pinned_path() {
    let d = scenario();
    let m = d.metrics_snapshot();
    let c = |scope: &str, name: &str| m.counter(scope, name);
    assert!(c("scheduler", "plans.failed") > 0, "the burst saturates the grid");
    assert!(c("engine", "exec.queue.retries") > 0, "saturated jobs queue and retry");
    assert_eq!(c("scheduler", "binding.replays"), 3, "each pinned step replays once");
    // `echo` and the BEFORE trigger `gate` each fire at depths 1 and 2
    // and are cut off at depth 3.
    assert_eq!(c("triggers", "fired"), 4);
    assert_eq!(c("triggers", "suppressed.depth"), 2);
    assert_eq!(c("triggers", "condition.errors"), 3, "every /echo ingest errors `tiered`");
    assert_eq!(d.triggers().stats().fired, c("triggers", "fired"));
    assert!(d.notifications().iter().any(|n| n.source == "trigger:gate"), "the BEFORE trigger fired");
    let outcomes = |name: &str| -> Vec<StepOutcome> {
        d.provenance().records().iter().filter(|r| r.name == name).map(|r| r.outcome).collect()
    };
    assert_eq!(outcomes("nested"), [StepOutcome::Completed]);
    assert_eq!(outcomes("bump").len(), 3, "the while loop runs three iterations");
    assert_eq!(outcomes("arm-b"), [StepOutcome::Completed]);
    assert_eq!(outcomes("arm-other"), [StepOutcome::Completed], "the unmatched switch takes its default");
    assert_eq!(outcomes("halves"), [StepOutcome::Failed], "one failing child fails the parallel node once");
    assert_eq!(outcomes("split"), [StepOutcome::Failed]);
}

#[test]
fn engine_metrics_read_the_registry_counters() {
    let d = scenario();
    let snap = d.obs().snapshot();
    let c = |name: &str| snap.counter("engine", name);
    let expected = EngineMetrics {
        runs_submitted: c("runs.submitted"),
        runs_completed: c("runs.completed"),
        runs_failed: c("runs.failed"),
        steps_executed: c("steps.executed"),
        steps_skipped_virtual: c("steps.skipped.virtual"),
        steps_skipped_restart: c("steps.skipped.restart"),
        dgms_ops: c("dgms.ops"),
        bytes_moved: c("bytes.moved"),
        exec_tasks: c("exec.tasks"),
        trigger_firings: c("trigger.firings"),
        retries: c("step.retries"),
    };
    assert_eq!(d.metrics(), expected);
    let m = d.metrics();
    for (name, value) in [("runs.submitted", m.runs_submitted), ("runs.failed", m.runs_failed), ("dgms.ops", m.dgms_ops), ("trigger.firings", m.trigger_firings)] {
        assert!(value > 0, "the scenario reaches engine/{name}");
    }
}
