//! Byte-exact pin of the DGL wire format.
//!
//! The round-trip tests in `dgl_wire_compat.rs` compare decoded values,
//! so a reordered attribute, or a default that stops being omitted,
//! passes them while still changing every document on the wire and
//! every command in the journal (`Dfms::handle`/`submit` journal
//! `request.to_element()`). This suite encodes one maximal and one
//! minimal instance of every request and response body and compares
//! `to_xml()` with the committed text in `tests/dgl_wire_golden/`. It
//! also checks that decoding each golden document and encoding it again
//! gives the same bytes back.
//!
//! A failing document is a wire-format change: either fix the codec, or
//! treat the edit as a protocol change and update the golden file by
//! hand in the same commit.

use datagridflows::dgl::{
    self, BisectSummary, Case, Children, ControlPattern, DiffSummary, FlowDelta, FlowLogic, FlowRecovery, IterSource,
    LockHistogram, OrdinalSummary, ProfilePhase, RequestAck, RuleAction, ServerContention, UserDefinedRule, VarDecl,
};
use datagridflows::prelude::*;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/dgl_wire_golden")
}

fn expr(source: &str) -> Expr {
    Expr::parse(source).expect("golden expressions parse")
}

fn step(name: &str, operation: DglOperation) -> Step {
    Step::new(name, operation)
}

/// Every `DglOperation`, with each optional field both set and unset.
fn every_operation() -> Vec<Step> {
    vec![
        step("mk", DglOperation::CreateCollection { path: "/home/sdsc".into() }),
        step(
            "put",
            DglOperation::Ingest {
                path: "/home/sdsc/a.dat".into(),
                size: "1048576".into(),
                resource: "sdsc-disk".into(),
            },
        ),
        step(
            "copy",
            DglOperation::Replicate {
                path: "/home/sdsc/a.dat".into(),
                src: Some("sdsc-disk".into()),
                dst: "cern-tape".into(),
            },
        ),
        step(
            "copy-best",
            DglOperation::Replicate { path: "/home/sdsc/a.dat".into(), src: None, dst: "fnal-disk".into() },
        ),
        step(
            "move",
            DglOperation::Migrate { path: "/home/sdsc/a.dat".into(), from: "sdsc-disk".into(), to: "sdsc-tape".into() },
        ),
        step("trim", DglOperation::Trim { path: "/home/sdsc/a.dat".into(), resource: "fnal-disk".into() }),
        step("drop", DglOperation::Delete { path: "/home/sdsc/tmp".into() }),
        step("rename", DglOperation::Rename { path: "/home/sdsc/a.dat".into(), to: "/home/sdsc/b.dat".into() }),
        step(
            "md5",
            DglOperation::Checksum {
                path: "/home/sdsc/b.dat".into(),
                resource: Some("sdsc-tape".into()),
                register: true,
            },
        ),
        step("verify", DglOperation::Checksum { path: "${file}".into(), resource: None, register: false }),
        step(
            "tag",
            DglOperation::SetMetadata {
                path: "/home/sdsc/b.dat".into(),
                attribute: "quality".into(),
                value: "A&B <ok>".into(),
            },
        ),
        step(
            "share",
            DglOperation::SetPermission { path: "/home/sdsc".into(), grantee: "reena".into(), level: "write".into() },
        ),
        step(
            "find",
            DglOperation::Query {
                collection: "/home/sdsc".into(),
                attribute: "type".into(),
                value: "pdf".into(),
                into: "hits".into(),
            },
        ),
        step(
            "simulate",
            DglOperation::Execute {
                code: "anelastic-wave".into(),
                nominal_secs: "3600".into(),
                resource_type: Some("compute:16".into()),
                inputs: vec!["/home/sdsc/b.dat".into(), "/home/sdsc/mesh".into()],
                outputs: vec![("/home/sdsc/out.dat".into(), "2000000".into()), ("/home/sdsc/log".into(), "10".into())],
            },
        ),
        step(
            "crunch",
            DglOperation::Execute {
                code: "md5sum".into(),
                nominal_secs: "5".into(),
                resource_type: None,
                inputs: vec![],
                outputs: vec![],
            },
        ),
        step("count", DglOperation::Assign { variable: "i".into(), expr: expr("i + 1") }),
        step("say", DglOperation::Notify { message: "  ingested \"a.dat\" → tape  ".into() }),
    ]
}

fn leaf(name: &str, pattern: ControlPattern, steps: Vec<Step>) -> Flow {
    Flow {
        name: name.into(),
        variables: vec![],
        logic: FlowLogic { pattern, rules: vec![] },
        children: Children::Steps(steps),
    }
}

/// A flow tree using every `ControlPattern`, `IterSource` and
/// `ErrorPolicy`, variables and rules on flows and steps, and every
/// operation.
fn maximal_flow() -> Flow {
    let notify = |name: &str, message: &str| step(name, DglOperation::Notify { message: message.into() });
    let mut ops = every_operation();
    ops[0] = ops[0].clone().with_error_policy(ErrorPolicy::Ignore);
    ops[1] = ops[1].clone().with_error_policy(ErrorPolicy::Retry(3));
    ops[2] = ops[2].clone().with_error_policy(ErrorPolicy::Fail);
    let mut guarded = notify("guarded", "checked").with_rule(UserDefinedRule::new(
        "beforeEntry",
        expr("'w' + (i > 2 && kind == 'pdf' || !(i % 2 != 0))"),
        vec![
            RuleAction { name: "warn".into(), steps: vec![notify("warned", "late")] },
            RuleAction { name: "skip".into(), steps: vec![] },
        ],
    ));
    guarded.variables = vec![VarDecl::new("local", "1"), VarDecl::new("empty", "")];
    let for_each = |name: &str, source: IterSource, parallel: bool| {
        leaf(
            name,
            ControlPattern::ForEach { var: "file".into(), source, parallel },
            vec![step("check", DglOperation::Checksum { path: "${file}".into(), resource: None, register: false })],
        )
    };
    Flow {
        name: "every-pattern".into(),
        variables: vec![VarDecl::new("base", "/home/sdsc"), VarDecl::new("i", "0"), VarDecl::new("kind", "pdf")],
        logic: FlowLogic {
            pattern: ControlPattern::Sequential,
            rules: vec![
                UserDefinedRule::unconditional("afterExit", vec![notify("bye", "done")]),
                UserDefinedRule::new("audit", expr("'none'"), vec![]),
            ],
        },
        children: Children::Flows(vec![
            leaf("ops", ControlPattern::Sequential, ops),
            leaf("fan-out", ControlPattern::Parallel, vec![guarded, notify("other", "x")]),
            leaf(
                "loop",
                ControlPattern::While(expr("i < 10")),
                vec![step("inc", DglOperation::Assign { variable: "i".into(), expr: expr("i + 1") })],
            ),
            for_each("items", IterSource::Items(vec!["a".into(), "b c".into(), "<d>".into()]), true),
            for_each("collection", IterSource::Collection("/home/sdsc/library".into()), false),
            for_each(
                "query",
                IterSource::Query { collection: "/home/sdsc".into(), attribute: "type".into(), value: "pdf".into() },
                true,
            ),
            for_each("variable", IterSource::Variable("hits".into()), false),
            Flow {
                name: "switch".into(),
                variables: vec![],
                logic: FlowLogic {
                    pattern: ControlPattern::Switch {
                        on: expr("kind"),
                        cases: vec![Case { value: Some("pdf".into()) }, Case { value: None }],
                    },
                    rules: vec![],
                },
                children: Children::Flows(vec![
                    leaf("pdf", ControlPattern::Sequential, vec![notify("p", "pdf")]),
                    leaf("other", ControlPattern::Sequential, vec![]),
                ]),
            },
        ]),
    }
}

fn minimal_flow() -> Flow {
    Flow::sequence("empty", vec![])
}

fn every_run_state() -> [RunState; 7] {
    [
        RunState::Pending,
        RunState::Running,
        RunState::Paused,
        RunState::Completed,
        RunState::Failed,
        RunState::Stopped,
        RunState::Skipped,
    ]
}

fn requests() -> Vec<(&'static str, DataGridRequest)> {
    let op = "operator";
    vec![
        (
            "request_flow_max",
            DataGridRequest::flow("req-1", "jonw", maximal_flow())
                .asynchronous()
                .with_description("every pattern & operation")
                .with_vo("ucsd-lib"),
        ),
        ("request_flow_min", DataGridRequest::flow("req-2", "jonw", minimal_flow())),
        (
            "request_status_max",
            DataGridRequest::status(
                "req-3",
                "jonw",
                FlowStatusQuery::node("t42", "/0/1").with_events(16).with_metrics().with_trace(),
            ),
        ),
        ("request_status_min", DataGridRequest::status("req-4", "jonw", FlowStatusQuery::whole("t1"))),
        (
            "request_telemetry_max",
            DataGridRequest::telemetry("req-5", op, TelemetryQuery::tail(1234).with_scrape().with_limit(50)),
        ),
        (
            "request_telemetry_min",
            DataGridRequest::telemetry(
                "req-6",
                op,
                TelemetryQuery { scrape: false, tail_from: None, tail_limit: None },
            ),
        ),
        ("request_validation_max", DataGridRequest::validation("req-7", "jonw", maximal_flow())),
        ("request_validation_min", DataGridRequest::validation("req-8", "jonw", minimal_flow())),
        ("request_recovery_max", DataGridRequest::recovery("req-9", op, RecoveryQuery::summary())),
        ("request_recovery_min", DataGridRequest::recovery("req-10", op, RecoveryQuery::report())),
        ("request_time_travel_inspect", DataGridRequest::time_travel("req-11", op, TimeTravelQuery::inspect(41))),
        ("request_time_travel_last", DataGridRequest::time_travel("req-12", op, TimeTravelQuery::last())),
        ("request_time_travel_diff", DataGridRequest::time_travel("req-13", op, TimeTravelQuery::diff(3, 17))),
        (
            "request_time_travel_bisect_stalled",
            DataGridRequest::time_travel(
                "req-14",
                op,
                TimeTravelQuery::bisect(BisectSpec::Stalled { transaction: "t2".into() }),
            ),
        ),
        (
            "request_time_travel_bisect_state",
            DataGridRequest::time_travel(
                "req-15",
                op,
                TimeTravelQuery::bisect(BisectSpec::State { transaction: "t2".into(), state: RunState::Failed }),
            ),
        ),
        (
            "request_time_travel_bisect_variable",
            DataGridRequest::time_travel(
                "req-16",
                op,
                TimeTravelQuery::bisect(BisectSpec::Variable {
                    transaction: "t2".into(),
                    name: "i".into(),
                    value: " 3 ".into(),
                }),
            ),
        ),
        (
            "request_profile_max",
            DataGridRequest::profile("req-17", op, ProfileQuery::new().with_folded(true).with_reset(true)),
        ),
        ("request_profile_min", DataGridRequest::profile("req-18", op, ProfileQuery::new())),
        (
            "request_why_max",
            DataGridRequest::why(
                "req-19",
                op,
                WhyQuery::new().with_flow("t3").with_top_k(0).with_paths(false).with_alerts(false),
            ),
        ),
        ("request_why_min", DataGridRequest::why("req-20", op, WhyQuery::new())),
        ("request_federation_max", DataGridRequest::federation("req-21", op, FederationQuery::summary())),
        ("request_federation_min", DataGridRequest::federation("req-22", op, FederationQuery::report())),
    ]
}

fn flow_recovery(transaction: &str, state: RunState, resumed: bool) -> FlowRecovery {
    FlowRecovery {
        transaction: transaction.into(),
        lineage: "t1".into(),
        state,
        steps_completed: 3,
        steps_total: 9,
        resumed,
    }
}

fn event(seq: u64, kind: &str, detail: &str) -> ReportEvent {
    ReportEvent { time_us: 40 + seq, seq, kind: kind.into(), detail: detail.into() }
}

fn maximal_status() -> StatusReport {
    StatusReport {
        transaction: "t1".into(),
        node: "/".into(),
        name: "md5-pipeline".into(),
        state: RunState::Failed,
        steps_completed: 5,
        steps_total: 20,
        message: Some("step /1 failed: replica <missing> & unreachable".into()),
        children: every_run_state()
            .into_iter()
            .enumerate()
            .map(|(i, state)| (format!("/{i}"), format!("child-{i}"), state))
            .collect(),
        events: vec![event(0, "step.finished", "t1 /0 verify completed"), event(1, "flow.failed", "")],
        metrics: vec![
            ReportMetric {
                scope: "engine".into(),
                name: "steps.executed".into(),
                kind: "counter".into(),
                value: "5".into(),
            },
            ReportMetric {
                scope: "run:t1".into(),
                name: "step.latency".into(),
                kind: "histogram".into(),
                value: "5:900:10:400".into(),
            },
        ],
        spans: vec![
            ReportSpan {
                id: 1,
                parent: None,
                trace: 7,
                kind: "flow".into(),
                name: "md5-pipeline".into(),
                start_us: 0,
                end_us: None,
                attrs: vec![],
            },
            ReportSpan {
                id: 2,
                parent: Some(1),
                trace: 7,
                kind: "network-transfer".into(),
                name: "stage-in".into(),
                start_us: 10,
                end_us: Some(250),
                attrs: vec![
                    ("src".into(), "cern-disk".into()),
                    ("dst".into(), "fnal-disk".into()),
                    ("bytes".into(), "4096".into()),
                ],
            },
        ],
    }
}

fn maximal_time_travel() -> TimeTravelReport {
    TimeTravelReport {
        time_us: 99,
        enabled: true,
        last_ordinal: Some(120),
        inspect: Some(OrdinalSummary {
            ordinal: Some(41),
            requested: Some(45),
            complete: false,
            commands_applied: 6,
            transitions_derived: 42,
            time_us: 5_000_000,
            flows: vec![flow_recovery("t1", RunState::Running, true), flow_recovery("t2", RunState::Paused, false)],
        }),
        diff: Some(DiffSummary {
            from: 10,
            to: 41,
            provenance_added: 4,
            time_from_us: 1_000_000,
            time_to_us: 5_000_000,
            flows: vec![
                FlowDelta {
                    transaction: "t1".into(),
                    from_state: Some(RunState::Pending),
                    to_state: Some(RunState::Running),
                    steps_from: 0,
                    steps_to: 2,
                    steps_total: 5,
                },
                FlowDelta {
                    transaction: "t2".into(),
                    from_state: None,
                    to_state: None,
                    steps_from: 1,
                    steps_to: 1,
                    steps_total: 1,
                },
            ],
        }),
        bisect: Some(BisectSummary { first_true: Some(33), probes: 8, last_ordinal: 120 }),
        error: Some("partial history: journal ends at ordinal 120".into()),
    }
}

fn maximal_why() -> WhyReport {
    let segments = WaitState::ALL
        .into_iter()
        .enumerate()
        .map(|(i, state)| WhySegment {
            from_us: 100 + 50 * i as u64,
            until_us: 150 + 50 * i as u64,
            state,
            resource: format!("site{i}-disk→site{i}-hpc"),
            node: format!("/{i}"),
        })
        .collect();
    let alert =
        |txn: &str, state: AlertState, fired_at_us: Option<u64>, resolved_at_us: Option<u64>, breached: bool| {
            WhyAlert {
                txn: txn.into(),
                class: "nightly".into(),
                flow: "pipeline".into(),
                started_us: 100,
                deadline_us: 350,
                state,
                burn_ppm: 1_200_000,
                fired_at_us,
                resolved_at_us,
                breached,
            }
        };
    WhyReport {
        time_us: 640,
        flows_analyzed: 2,
        attributed_us: 400,
        paths: vec![
            WhyPath {
                txn: "t1".into(),
                flow: "pipeline".into(),
                start_us: 100,
                end_us: 400,
                caused_by: Some("on-ingest".into()),
                segments,
            },
            WhyPath {
                txn: "t2".into(),
                flow: "idle".into(),
                start_us: 0,
                end_us: 0,
                caused_by: None,
                segments: vec![],
            },
        ],
        bottlenecks: WaitState::ALL
            .into_iter()
            .map(|state| WhyBottleneck { state, resource: "pool:hpc".into(), total_us: 50, share_ppm: 125_000 })
            .collect(),
        alerts: vec![
            alert("t1", AlertState::Pending, None, None, false),
            alert("t2", AlertState::Firing, Some(350), None, false),
            alert("t3", AlertState::Resolved, Some(350), Some(400), true),
        ],
    }
}

fn maximal_federation() -> FederationReport {
    FederationReport {
        time_us: 31,
        federated: true,
        shards: vec![
            FederationShard {
                name: "sdsc".into(),
                prefixes: vec!["/sdsc".into(), "/archive".into()],
                flows: 4,
                time_us: 31,
                journaled: true,
                bus_sent: 2,
                bus_received: 1,
            },
            FederationShard {
                name: "cclrc".into(),
                prefixes: vec![],
                flows: 0,
                time_us: 0,
                journaled: false,
                bus_sent: 0,
                bus_received: 0,
            },
        ],
        bus: FederationBus { published: 3, delivered: 2, in_flight: 1, next_seq: 4 },
        handoffs: vec![
            FederationHandoff {
                txn: "x1".into(),
                node: "stage".into(),
                from: "sdsc".into(),
                to: "cclrc".into(),
                child_txn: Some("t2".into()),
                state: RunState::Completed,
            },
            FederationHandoff {
                txn: "x1".into(),
                node: "crunch".into(),
                from: "sdsc".into(),
                to: "scec".into(),
                child_txn: None,
                state: RunState::Pending,
            },
        ],
        flows: vec![
            FederatedFlow {
                txn: "x1".into(),
                name: "survey".into(),
                user: "arun".into(),
                home: "sdsc".into(),
                parallel: true,
                state: RunState::Running,
                subs_completed: 1,
                subs_total: 2,
            },
            FederatedFlow {
                txn: "x2".into(),
                name: "chain".into(),
                user: "arun".into(),
                home: "cclrc".into(),
                parallel: false,
                state: RunState::Skipped,
                subs_completed: 0,
                subs_total: 0,
            },
        ],
    }
}

fn responses() -> Vec<(&'static str, DataGridResponse)> {
    vec![
        (
            "response_ack_max",
            DataGridResponse::ack(
                "r1",
                RequestAck {
                    transaction: "t1".into(),
                    state: RunState::Pending,
                    valid: true,
                    message: Some("queued behind 3 flows".into()),
                },
            ),
        ),
        (
            "response_ack_min",
            DataGridResponse::ack("r2", RequestAck { transaction: String::new(), state: RunState::Failed, valid: false, message: None }),
        ),
        ("response_status_max", DataGridResponse::status("r3", maximal_status())),
        (
            "response_status_min",
            DataGridResponse::status(
                "r4",
                StatusReport {
                    transaction: "t1".into(),
                    node: "/0".into(),
                    name: "stage".into(),
                    state: RunState::Pending,
                    steps_completed: 0,
                    steps_total: 0,
                    message: None,
                    children: vec![],
                    events: vec![],
                    metrics: vec![],
                    spans: vec![],
                },
            ),
        ),
        (
            "response_telemetry_max",
            DataGridResponse::telemetry(
                "r5",
                TelemetryReport {
                    time_us: 7,
                    scrape: Some(
                        "# dgf telemetry scrape at 7us\ndgf_metric{scope=\"engine\",name=\"runs.completed\",kind=\"counter\"} 1\n"
                            .into(),
                    ),
                    events: vec![event(11, "health.stalled", "t1 slow->stalled last_progress_us=1"), event(12, "sla.firing", "t1")],
                    next_cursor: Some(13),
                    dropped: Some(4),
                },
            ),
        ),
        (
            "response_telemetry_min",
            DataGridResponse::telemetry(
                "r6",
                TelemetryReport { time_us: 0, scrape: None, events: vec![], next_cursor: None, dropped: None },
            ),
        ),
        (
            "response_validation_max",
            DataGridResponse::validation(
                "r7",
                ValidationReport {
                    flow: "md5-pipeline".into(),
                    valid: false,
                    diagnostics: vec![
                        Diagnostic::new("DGF001", Severity::Error, "/md5-pipeline/verify", "undefined variable `out` in path template")
                            .with_hint("declare `out` in an enclosing flow's <variables>"),
                        Diagnostic::new("DGF002", Severity::Warning, "/md5-pipeline", "variable `collection` is never read"),
                        Diagnostic::new("DGF020", Severity::Info, "/", "flow has 3 steps"),
                    ],
                },
            ),
        ),
        (
            "response_validation_min",
            DataGridResponse::validation("r8", ValidationReport { flow: "empty".into(), valid: true, diagnostics: vec![] }),
        ),
        (
            "response_recovery_max",
            DataGridResponse::recovery(
                "r9",
                RecoveryReport {
                    time_us: 31,
                    journaled: true,
                    journal_records: 40,
                    journal_bytes: 4096,
                    last_checkpoint_seq: Some(25),
                    replay: Some(ReplayStats {
                        truncated_bytes: 9,
                        commands_replayed: 6,
                        records_matched: 18,
                        divergences: 1,
                        steps_skipped_restart: 7,
                    }),
                    flows: vec![
                        flow_recovery("t1", RunState::Running, true),
                        flow_recovery("t2", RunState::Completed, false),
                        flow_recovery("t3", RunState::Stopped, false),
                    ],
                },
            ),
        ),
        ("response_recovery_min", DataGridResponse::recovery("r10", RecoveryReport::unjournaled(5))),
        ("response_time_travel_max", DataGridResponse::time_travel("r11", maximal_time_travel())),
        ("response_time_travel_min", DataGridResponse::time_travel("r12", TimeTravelReport::disabled(7))),
        (
            "response_profile_max",
            DataGridResponse::profile(
                "r13",
                ProfileReport {
                    time_us: 99,
                    phases: vec![
                        ProfilePhase { depth: 0, phase: "step-execute".into(), calls: 12, sim_us: 4000, wall_ns: 1600, allocs: 88 },
                        ProfilePhase { depth: 1, phase: "journal-append".into(), calls: 12, sim_us: 0, wall_ns: 400, allocs: 3 },
                    ],
                    folded: Some("step-execute 1200\nstep-execute;journal-append 400\n".into()),
                    contention: Some(ServerContention {
                        enqueued: 9,
                        served: 8,
                        queue_depth_max: 3,
                        hists: vec![
                            LockHistogram { name: "lock-hold".into(), count: 8, sum_ns: 9000, min_ns: 100, max_ns: 4000 },
                            LockHistogram { name: "queue-wait".into(), count: 0, sum_ns: 0, min_ns: 0, max_ns: 0 },
                        ],
                    }),
                },
            ),
        ),
        ("response_profile_min", DataGridResponse::profile("r14", ProfileReport::empty(7))),
        ("response_why_max", DataGridResponse::why("r15", maximal_why())),
        ("response_why_min", DataGridResponse::why("r16", WhyReport::empty(7))),
        ("response_federation_max", DataGridResponse::federation("r17", maximal_federation())),
        ("response_federation_min", DataGridResponse::federation("r18", FederationReport::standalone(5))),
    ]
}

fn read_golden(name: &str) -> String {
    let path = golden_dir().join(format!("{name}.xml"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Compare one encoded document with its golden file, naming the first
/// differing line so a failure points at the attribute that moved.
fn assert_matches_golden(name: &str, encoded: &str, golden: &str) {
    if encoded == golden {
        return;
    }
    let first_diff = encoded.lines().zip(golden.lines()).position(|(a, b)| a != b);
    match first_diff {
        Some(i) => panic!(
            "{name}: line {} differs\n  encoded: {}\n  golden:  {}",
            i + 1,
            encoded.lines().nth(i).unwrap_or_default(),
            golden.lines().nth(i).unwrap_or_default()
        ),
        None => panic!(
            "{name}: encoded document has {} bytes over {} lines, golden has {} bytes over {} lines",
            encoded.len(),
            encoded.lines().count(),
            golden.len(),
            golden.lines().count()
        ),
    }
}

#[test]
fn every_request_body_encodes_to_its_golden_bytes() {
    let requests = requests();
    assert_eq!(requests.len(), 22);
    for (name, request) in requests {
        let golden = read_golden(name);
        assert_matches_golden(name, &request.to_xml(), &golden);
        let decoded = dgl::parse_request(&golden).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, request, "{name}: golden decodes to the encoded value");
        assert_matches_golden(name, &decoded.to_xml(), &golden);
    }
}

#[test]
fn every_response_body_encodes_to_its_golden_bytes() {
    let responses = responses();
    assert_eq!(responses.len(), 18);
    for (name, response) in responses {
        let golden = read_golden(name);
        assert_matches_golden(name, &response.to_xml(), &golden);
        let decoded = dgl::parse_response(&golden).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(decoded, response, "{name}: golden decodes to the encoded value");
        assert_matches_golden(name, &decoded.to_xml(), &golden);
    }
}

#[test]
fn the_golden_directory_holds_exactly_the_pinned_documents() {
    let mut expected: Vec<String> = requests()
        .into_iter()
        .map(|(name, _)| name)
        .chain(responses().into_iter().map(|(name, _)| name))
        .map(|name| format!("{name}.xml"))
        .collect();
    expected.sort();
    let mut found: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden directory exists")
        .map(|entry| entry.expect("directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    found.sort();
    assert_eq!(found, expected, "every golden file is pinned by a document and vice versa");
}
