//! Wire-format conformance for the schema structures of Figures 1–4:
//! hand-written DGL documents (as the paper's IDE would emit) parse,
//! execute, and round-trip; property tests fuzz the document layer.

use datagridflows::dgl::{self, parse_request, DataGridRequest, RequestBody};
use datagridflows::prelude::*;
use proptest::prelude::*;

/// Figure 1 + Figure 3: a hand-authored flow using every section —
/// variables, flowLogic with control choice and userDefinedRules,
/// children.
#[test]
fn hand_written_figure1_document_parses_and_runs() {
    let doc = r#"<?xml version="1.0"?>
<dataGridRequest id="fig1" mode="synchronous">
  <gridUser name="arun"/>
  <flow name="figure-one">
    <variables>
      <variable name="base" value="/demo"/>
      <variable name="i" value="0"/>
    </variables>
    <flowLogic>
      <while><tcondition>i &lt; 2</tcondition></while>
      <userDefinedRule name="beforeEntry">
        <tcondition>'go'</tcondition>
        <action name="go">
          <step name="announce"><operation><notify>starting over ${base}</notify></operation></step>
        </action>
      </userDefinedRule>
    </flowLogic>
    <children>
      <step name="mk"><operation><createCollection path="${base}-${i}"/></operation></step>
      <step name="advance"><operation><assign variable="i"><expr>i + 1</expr></assign></operation></step>
    </children>
  </flow>
</dataGridRequest>"#;
    let request = parse_request(doc).unwrap();
    match &request.body {
        RequestBody::Flow(flow) => {
            assert_eq!(flow.name, "figure-one");
            assert_eq!(flow.variables.len(), 2);
            assert_eq!(flow.logic.rules.len(), 1);
            flow.validate().unwrap();
        }
        other => panic!("{other:?}"),
    }

    // And it executes.
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 1 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("arun", topology.domain_ids().next().unwrap()));
    users.make_admin("arun").unwrap();
    let mut dfms = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 1));
    let response = dfms.handle(request);
    match response.body {
        ResponseBody::Status(s) => assert_eq!(s.state, RunState::Completed),
        other => panic!("{other:?}"),
    }
    assert!(dfms.grid().exists(&LogicalPath::parse("/demo-0").unwrap()));
    assert!(dfms.grid().exists(&LogicalPath::parse("/demo-1").unwrap()));
    assert_eq!(dfms.notifications().len(), 1, "beforeEntry rule fired once, at flow entry");
}

/// Figure 2: both request payload kinds.
#[test]
fn figure2_request_variants() {
    let flow_doc = r#"<dataGridRequest id="a"><gridUser name="u"/><flow name="f"><flowLogic><sequential/></flowLogic><children/></flow></dataGridRequest>"#;
    let request = parse_request(flow_doc).unwrap();
    assert!(matches!(request.body, RequestBody::Flow(_)));

    let query_doc = r#"<dataGridRequest id="b" mode="asynchronous"><gridUser name="u" vo="cms"/><flowStatusQuery transaction="t7" node="/0/3/1"/></dataGridRequest>"#;
    let request = parse_request(query_doc).unwrap();
    assert_eq!(request.vo.as_deref(), Some("cms"));
    match request.body {
        RequestBody::StatusQuery(q) => {
            assert_eq!(q.transaction, "t7");
            assert_eq!(q.node.as_deref(), Some("/0/3/1"));
        }
        other => panic!("{other:?}"),
    }
}

/// Figure 4: both response payload kinds, round-tripped.
#[test]
fn figure4_response_variants_round_trip() {
    let ack = dgl::DataGridResponse::ack(
        "r1",
        dgl::RequestAck { transaction: "t1".into(), state: RunState::Pending, valid: true, message: None },
    );
    assert_eq!(dgl::parse_response(&ack.to_xml()).unwrap(), ack);
    let status = dgl::DataGridResponse::status(
        "r2",
        dgl::StatusReport {
            transaction: "t1".into(),
            node: "/0".into(),
            name: "stage".into(),
            state: RunState::Running,
            steps_completed: 2,
            steps_total: 8,
            message: Some("staging tier-1".into()),
            children: vec![("/0/0".into(), "cp".into(), RunState::Completed)],
            events: vec![],
            metrics: vec![],
            spans: vec![],
        },
    );
    assert_eq!(dgl::parse_response(&status.to_xml()).unwrap(), status);
}

// ----------------------------------------------------------------------
// Property tests over the wire format
// ----------------------------------------------------------------------

fn op_strategy() -> impl Strategy<Value = DglOperation> {
    let name = "[a-z][a-z0-9-]{0,10}";
    let path = "/[a-z][a-z0-9/]{0,14}";
    prop_oneof![
        path.prop_map(|p: String| DglOperation::CreateCollection { path: p }),
        (path, 1u64..1_000_000, name).prop_map(|(p, s, r)| DglOperation::Ingest { path: p, size: s.to_string(), resource: r }),
        (path, name).prop_map(|(p, r)| DglOperation::Replicate { path: p, src: None, dst: r }),
        (path, name, name).prop_map(|(p, a, b)| DglOperation::Migrate { path: p, from: a, to: b }),
        path.prop_map(|p: String| DglOperation::Delete { path: p }),
        (path, any::<bool>()).prop_map(|(p, r)| DglOperation::Checksum { path: p, resource: None, register: r }),
        (path, name, name).prop_map(|(p, a, v)| DglOperation::SetMetadata { path: p, attribute: a, value: v }),
        "[ -~]{0,30}".prop_map(|m| DglOperation::Notify { message: m.replace("${", "$ {") }),
    ]
}

fn flow_strategy() -> impl Strategy<Value = Flow> {
    let step = ("[a-z][a-z0-9]{0,8}", op_strategy()).prop_map(|(n, op)| Step::new(n, op));
    let leaf = ("[a-z][a-z0-9]{0,8}", proptest::collection::vec(step, 0..5)).prop_map(|(name, mut steps)| {
        // Deduplicate sibling names to keep the flow valid.
        for (i, s) in steps.iter_mut().enumerate() {
            s.name = format!("{}{i}", s.name);
        }
        Flow::sequence(name, steps)
    });
    leaf.prop_recursive(3, 24, 4, |inner| {
        ("[a-z][a-z0-9]{0,8}", proptest::collection::vec(inner, 1..4)).prop_map(|(name, mut flows)| {
            for (i, f) in flows.iter_mut().enumerate() {
                f.name = format!("{}{i}", f.name);
            }
            Flow::parallel_flows(name, flows)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any structurally valid flow survives request XML round-trips.
    #[test]
    fn arbitrary_flows_round_trip_the_wire(flow in flow_strategy()) {
        prop_assume!(flow.validate().is_ok());
        let request = DataGridRequest::flow("prop", "user", flow.clone()).asynchronous();
        let xml = request.to_xml();
        let parsed = parse_request(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The parser never panics on arbitrary input.
    #[test]
    fn request_parser_is_panic_free(input in "\\PC{0,300}") {
        let _ = parse_request(&input);
    }

    /// Any structurally valid flow survives a validation-query XML
    /// round trip (the lint wire pair's request half).
    #[test]
    fn validation_queries_round_trip_the_wire(flow in flow_strategy()) {
        prop_assume!(flow.validate().is_ok());
        let request = DataGridRequest::validation("prop", "user", flow);
        let xml = request.to_xml();
        let parsed = parse_request(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// Any diagnostic list survives a validation-report XML round trip
    /// (the lint wire pair's response half).
    #[test]
    fn validation_reports_round_trip_the_wire(
        flow_name in "[a-z][a-z0-9-]{0,10}",
        valid in any::<bool>(),
        diags in proptest::collection::vec(diagnostic_strategy(), 0..6),
    ) {
        let report = ValidationReport { flow: flow_name, valid, diagnostics: diags };
        let response = dgl::DataGridResponse::validation("prop", report);
        let xml = response.to_xml();
        let parsed = dgl::parse_response(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }
}

fn diagnostic_strategy() -> impl Strategy<Value = Diagnostic> {
    (
        "DGF0[0-9]{2}",
        prop_oneof![Just(Severity::Info), Just(Severity::Warning), Just(Severity::Error)],
        "/[a-z][a-z0-9/]{0,14}",
        // Printable, with inner whitespace but no leading/trailing runs
        // (attribute values survive; the codec never trims interior).
        "[!-~]([ -~]{0,20}[!-~])?",
        proptest::option::of("[!-~]([ -~]{0,20}[!-~])?"),
    )
        .prop_map(|(code, severity, node, message, hint)| {
            let d = Diagnostic::new(code, severity, node, message);
            match hint {
                Some(h) => d.with_hint(h),
                None => d,
            }
        })
}

fn replay_strategy() -> impl Strategy<Value = ReplayStats> {
    (0u64..10_000, 0u64..500, 0u64..5_000, 0u64..5, 0u64..200).prop_map(
        |(truncated_bytes, commands_replayed, records_matched, divergences, steps_skipped_restart)| {
            ReplayStats {
                truncated_bytes,
                commands_replayed,
                records_matched,
                divergences,
                steps_skipped_restart,
            }
        },
    )
}

fn run_state_strategy() -> impl Strategy<Value = RunState> {
    prop_oneof![
        Just(RunState::Pending),
        Just(RunState::Running),
        Just(RunState::Paused),
        Just(RunState::Completed),
        Just(RunState::Failed),
        Just(RunState::Stopped),
        Just(RunState::Skipped),
    ]
}

fn flow_recovery_strategy() -> impl Strategy<Value = dgl::FlowRecovery> {
    (
        "t[1-9][0-9]{0,3}",
        "[a-z][a-z0-9-]{0,10}",
        run_state_strategy(),
        0u64..50,
        0u64..50,
        any::<bool>(),
    )
        .prop_map(|(transaction, lineage, state, steps_completed, extra, resumed)| {
            dgl::FlowRecovery {
                transaction,
                lineage,
                state,
                steps_completed,
                steps_total: steps_completed + extra,
                resumed,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The crash-recovery wire pair's request half: any recovery query
    /// survives a request XML round trip.
    #[test]
    fn recovery_queries_round_trip_the_wire(flows in any::<bool>()) {
        let request = DataGridRequest::recovery("prop", "operator", RecoveryQuery { flows });
        let xml = request.to_xml();
        let parsed = parse_request(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The crash-recovery wire pair's response half: any recovery
    /// report — journaled or not, replayed or not, with any mix of
    /// per-flow outcomes — survives a response XML round trip.
    #[test]
    fn recovery_reports_round_trip_the_wire(
        time_us in 0u64..u64::MAX / 2,
        journaled in any::<bool>(),
        journal_records in 0u64..100_000,
        journal_bytes in 0u64..10_000_000,
        last_checkpoint_seq in proptest::option::of(0u64..100_000),
        replay in proptest::option::of(replay_strategy()),
        flows in proptest::collection::vec(flow_recovery_strategy(), 0..5),
    ) {
        let report = RecoveryReport {
            time_us,
            journaled,
            journal_records,
            journal_bytes,
            last_checkpoint_seq,
            replay,
            flows,
        };
        let response = dgl::DataGridResponse::recovery("prop", report);
        let xml = response.to_xml();
        let parsed = dgl::parse_response(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }
}

fn profile_phase_strategy() -> impl Strategy<Value = dgl::ProfilePhase> {
    (
        0u32..5,
        "[a-z][a-z-]{0,14}",
        0u64..1_000_000,
        0u64..u64::MAX / 2,
        0u64..u64::MAX / 2,
        0u64..1_000_000,
    )
        .prop_map(|(depth, phase, calls, sim_us, wall_ns, allocs)| dgl::ProfilePhase {
            depth,
            phase,
            calls,
            sim_us,
            wall_ns,
            allocs,
        })
}

fn lock_histogram_strategy() -> impl Strategy<Value = dgl::LockHistogram> {
    ("[a-z][a-z-]{0,14}", 0u64..100_000, 0u64..u64::MAX / 2, 0u64..1_000_000, 0u64..u64::MAX / 2)
        .prop_map(|(name, count, sum_ns, min_ns, max_ns)| dgl::LockHistogram {
            name,
            count,
            sum_ns,
            min_ns,
            max_ns,
        })
}

/// Folded-stack text as [`dgf_obs::ProfileSnapshot::folded`] emits it:
/// one `path;to;phase self_ns` line per node, newline-terminated.
fn folded_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(("[a-z][a-z-]{0,10}(;[a-z][a-z-]{0,10}){0,3}", 0u64..1_000_000), 1..6)
        .prop_map(|lines| lines.into_iter().map(|(path, ns)| format!("{path} {ns}\n")).collect())
}

fn contention_strategy() -> impl Strategy<Value = dgl::ServerContention> {
    (0u64..100_000, 0u64..100_000, 0u64..64, proptest::collection::vec(lock_histogram_strategy(), 0..4))
        .prop_map(|(enqueued, served, queue_depth_max, hists)| dgl::ServerContention {
            enqueued,
            served,
            queue_depth_max,
            hists,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The profiler wire pair's request half: every flag combination
    /// survives a request XML round trip.
    #[test]
    fn profile_queries_round_trip_the_wire(folded in any::<bool>(), reset in any::<bool>()) {
        let query = dgl::ProfileQuery::new().with_folded(folded).with_reset(reset);
        let request = DataGridRequest::profile("prop", "operator", query);
        let xml = request.to_xml();
        let parsed = parse_request(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The profiler wire pair's response half: any phase tree, folded
    /// text, and contention block survives a response XML round trip —
    /// byte-exact on the folded text, which flamegraph tooling consumes.
    #[test]
    fn profile_reports_round_trip_the_wire(
        time_us in 0u64..u64::MAX / 2,
        phases in proptest::collection::vec(profile_phase_strategy(), 0..8),
        folded in proptest::option::of(folded_strategy()),
        contention in proptest::option::of(contention_strategy()),
    ) {
        let report = dgl::ProfileReport { time_us, phases, folded: folded.clone(), contention };
        let response = dgl::DataGridResponse::profile("prop", report);
        let xml = response.to_xml();
        let parsed = dgl::parse_response(&xml).expect("round trip parses");
        if let (Some(sent), dgl::ResponseBody::Profile(got)) = (folded, &parsed.body) {
            prop_assert_eq!(Some(sent), got.folded.clone());
        }
        prop_assert_eq!(parsed, response);
    }
}

fn wait_state_strategy() -> impl Strategy<Value = WaitState> {
    (0usize..WaitState::ALL.len()).prop_map(|i| WaitState::ALL[i])
}

/// Blame labels as the engine emits them: pool labels, window, and
/// link endpoints with the non-ASCII `→` separator.
fn resource_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9-]{0,10}",
        "pool:[a-z][a-z0-9]{0,6}",
        "[a-z][a-z0-9-]{0,8}→[a-z][a-z0-9-]{0,8}",
        Just("window".to_string()),
    ]
}

fn why_segment_strategy() -> impl Strategy<Value = WhySegment> {
    (0u64..u64::MAX / 4, 0u64..u64::MAX / 4, wait_state_strategy(), resource_strategy(), "/[0-9/]{0,6}")
        .prop_map(|(from_us, len, state, resource, node)| WhySegment {
            from_us,
            until_us: from_us + len,
            state,
            resource,
            node,
        })
}

fn why_path_strategy() -> impl Strategy<Value = WhyPath> {
    (
        "t[1-9][0-9]{0,3}",
        "[a-z][a-z0-9-]{0,10}",
        0u64..u64::MAX / 4,
        0u64..u64::MAX / 4,
        proptest::option::of("[a-z][a-z0-9-]{0,10}"),
        proptest::collection::vec(why_segment_strategy(), 0..5),
    )
        .prop_map(|(txn, flow, start_us, len, caused_by, segments)| WhyPath {
            txn,
            flow,
            start_us,
            end_us: start_us + len,
            caused_by,
            segments,
        })
}

fn why_alert_strategy() -> impl Strategy<Value = WhyAlert> {
    (
        ("t[1-9][0-9]{0,3}", "[a-z][a-z0-9-]{0,8}", "[a-z][a-z0-9-]{0,10}", 0u64..u64::MAX / 4, 1u64..u64::MAX / 4),
        (
            prop_oneof![Just(AlertState::Pending), Just(AlertState::Firing), Just(AlertState::Resolved)],
            0u64..100_000_000,
            proptest::option::of(0u64..u64::MAX / 2),
            proptest::option::of(0u64..u64::MAX / 2),
            any::<bool>(),
        ),
    )
        .prop_map(|((txn, class, flow, started_us, budget), (state, burn_ppm, fired_at_us, resolved_at_us, breached))| {
            WhyAlert {
                txn,
                class,
                flow,
                started_us,
                deadline_us: started_us + budget,
                state,
                burn_ppm,
                fired_at_us,
                resolved_at_us,
                breached,
            }
        })
}

fn why_bottleneck_strategy() -> impl Strategy<Value = WhyBottleneck> {
    (wait_state_strategy(), resource_strategy(), 0u64..u64::MAX / 2, 0u64..1_000_001)
        .prop_map(|(state, resource, total_us, share_ppm)| WhyBottleneck { state, resource, total_us, share_ppm })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The attribution wire pair's request half: any filter/flag
    /// combination survives a request XML round trip.
    #[test]
    fn why_queries_round_trip_the_wire(
        flow in proptest::option::of("t[1-9][0-9]{0,3}"),
        top_k in 0u32..1000,
        paths in any::<bool>(),
        alerts in any::<bool>(),
    ) {
        let mut query = WhyQuery::new().with_top_k(top_k).with_paths(paths).with_alerts(alerts);
        if let Some(f) = flow {
            query = query.with_flow(f);
        }
        let request = DataGridRequest::why("prop", "operator", query);
        let xml = request.to_xml();
        let parsed = parse_request(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The attribution wire pair's response half: any mix of critical
    /// paths (every wait state, `→`-labelled links), bottleneck rows,
    /// and alerts in any lifecycle state survives a response XML round
    /// trip.
    #[test]
    fn why_reports_round_trip_the_wire(
        time_us in 0u64..u64::MAX / 2,
        flows_analyzed in 0u64..100_000,
        attributed_us in 0u64..u64::MAX / 2,
        paths in proptest::collection::vec(why_path_strategy(), 0..4),
        bottlenecks in proptest::collection::vec(why_bottleneck_strategy(), 0..6),
        alerts in proptest::collection::vec(why_alert_strategy(), 0..4),
    ) {
        let report = WhyReport { time_us, flows_analyzed, attributed_us, paths, bottlenecks, alerts };
        let response = dgl::DataGridResponse::why("prop", report);
        let xml = response.to_xml();
        let parsed = dgl::parse_response(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }
}

fn fed_run_state_strategy() -> impl Strategy<Value = RunState> {
    prop_oneof![
        Just(RunState::Pending),
        Just(RunState::Running),
        Just(RunState::Completed),
        Just(RunState::Failed),
        Just(RunState::Skipped),
    ]
}

fn federation_shard_strategy() -> impl Strategy<Value = dgl::FederationShard> {
    (
        ("[a-z][a-z0-9-]{0,10}", proptest::collection::vec("/[a-z][a-z0-9-]{0,8}", 0..3)),
        (0u64..100_000, 0u64..u64::MAX / 2, any::<bool>(), 0u64..100_000, 0u64..100_000),
    )
        .prop_map(|((name, prefixes), (flows, time_us, journaled, bus_sent, bus_received))| {
            dgl::FederationShard { name, prefixes, flows, time_us, journaled, bus_sent, bus_received }
        })
}

fn federation_handoff_strategy() -> impl Strategy<Value = dgl::FederationHandoff> {
    (
        "x[1-9][0-9]{0,3}",
        "[a-z][a-z0-9-]{0,10}",
        "[a-z][a-z0-9-]{0,8}",
        "[a-z][a-z0-9-]{0,8}",
        proptest::option::of("t[1-9][0-9]{0,3}"),
        fed_run_state_strategy(),
    )
        .prop_map(|(txn, node, from, to, child_txn, state)| dgl::FederationHandoff {
            txn,
            node,
            from,
            to,
            child_txn,
            state,
        })
}

fn federated_flow_strategy() -> impl Strategy<Value = dgl::FederatedFlow> {
    (
        ("x[1-9][0-9]{0,3}", "[a-z][a-z0-9-]{0,10}", "[a-z][a-z0-9-]{0,8}", "[a-z][a-z0-9-]{0,8}"),
        (any::<bool>(), fed_run_state_strategy(), 0u64..20, 0u64..20),
    )
        .prop_map(|((txn, name, user, home), (parallel, state, subs_completed, extra))| {
            dgl::FederatedFlow {
                txn,
                name,
                user,
                home,
                parallel,
                state,
                subs_completed,
                subs_total: subs_completed + extra,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The federation wire pair's request half: every flag combination
    /// survives a request XML round trip.
    #[test]
    fn federation_queries_round_trip_the_wire(shards in any::<bool>(), handoffs in any::<bool>()) {
        let request =
            DataGridRequest::federation("prop", "operator", FederationQuery { shards, handoffs });
        let xml = request.to_xml();
        let parsed = parse_request(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The federation wire pair's response half: any shard table, bus
    /// position, hand-off table (acknowledged or still in flight), and
    /// federated-flow mix survives a response XML round trip.
    #[test]
    fn federation_reports_round_trip_the_wire(
        time_us in 0u64..u64::MAX / 2,
        federated in any::<bool>(),
        shards in proptest::collection::vec(federation_shard_strategy(), 0..4),
        published in 0u64..100_000,
        delivered in 0u64..100_000,
        next_seq in 1u64..100_000,
        handoffs in proptest::collection::vec(federation_handoff_strategy(), 0..5),
        flows in proptest::collection::vec(federated_flow_strategy(), 0..4),
    ) {
        let bus = dgl::FederationBus {
            published,
            delivered,
            in_flight: published.saturating_sub(delivered),
            next_seq,
        };
        let report = dgl::FederationReport { time_us, federated, shards, bus, handoffs, flows };
        let response = dgl::DataGridResponse::federation("prop", report);
        let xml = response.to_xml();
        let parsed = dgl::parse_response(&xml).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }
}

// ----------------------------------------------------------------------
// Status, telemetry, time-travel and acknowledgement pairs
// ----------------------------------------------------------------------

/// Any attribute value. Attributes travel verbatim, so leading and
/// trailing spaces, `\t`, `\n`, `\r`, other control characters and
/// non-ASCII text all round-trip.
fn attr_text_strategy() -> impl Strategy<Value = String> {
    "[\u{1}-\u{1f} -~é→]{0,16}"
}

/// Element-text scalars (`message`, `error`). `Element::text` trims
/// surrounding whitespace by design, so generate none there, as
/// `diagnostic_strategy` does; interior spaces survive.
fn element_text_strategy() -> impl Strategy<Value = String> {
    "[!-~]([ -~]{0,20}[!-~])?"
}

/// Scrape text as the telemetry exporter renders it: printable lines,
/// each newline-terminated.
fn scrape_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[!-~]([ -~]{0,30}[!-~])?", 1..6)
        .prop_map(|lines| lines.into_iter().map(|line| line + "\n").collect())
}

fn report_event_strategy() -> impl Strategy<Value = ReportEvent> {
    (0u64..u64::MAX / 2, 0u64..1_000_000, attr_text_strategy(), attr_text_strategy())
        .prop_map(|(time_us, seq, kind, detail)| ReportEvent { time_us, seq, kind, detail })
}

fn report_metric_strategy() -> impl Strategy<Value = ReportMetric> {
    (attr_text_strategy(), attr_text_strategy(), attr_text_strategy(), attr_text_strategy())
        .prop_map(|(scope, name, kind, value)| ReportMetric { scope, name, kind, value })
}

fn report_span_strategy() -> impl Strategy<Value = ReportSpan> {
    (
        (1u64..100_000, proptest::option::of(1u64..100_000), 1u64..1_000),
        (attr_text_strategy(), attr_text_strategy(), 0u64..u64::MAX / 4, proptest::option::of(0u64..u64::MAX / 4)),
        proptest::collection::vec((attr_text_strategy(), attr_text_strategy()), 0..4),
    )
        .prop_map(|((id, parent, trace), (kind, name, start_us, end_us), attrs)| ReportSpan {
            id,
            parent,
            trace,
            kind,
            name,
            start_us,
            end_us,
            attrs,
        })
}

fn status_report_strategy() -> impl Strategy<Value = StatusReport> {
    (
        (attr_text_strategy(), attr_text_strategy(), attr_text_strategy(), run_state_strategy()),
        (0usize..10_000, 0usize..10_000, proptest::option::of(element_text_strategy())),
        proptest::collection::vec((attr_text_strategy(), attr_text_strategy(), run_state_strategy()), 0..4),
        proptest::collection::vec(report_event_strategy(), 0..4),
        proptest::collection::vec(report_metric_strategy(), 0..4),
        proptest::collection::vec(report_span_strategy(), 0..4),
    )
        .prop_map(
            |((transaction, node, name, state), (steps_completed, steps_total, message), children, events, metrics, spans)| {
                StatusReport {
                    transaction,
                    node,
                    name,
                    state,
                    steps_completed,
                    steps_total,
                    message,
                    children,
                    events,
                    metrics,
                    spans,
                }
            },
        )
}

fn time_travel_query_strategy() -> impl Strategy<Value = TimeTravelQuery> {
    prop_oneof![
        proptest::option::of(0u64..u64::MAX / 2)
            .prop_map(|ordinal| TimeTravelQuery { op: dgl::TimeTravelOp::Inspect { ordinal } }),
        (0u64..u64::MAX / 2, 0u64..u64::MAX / 2).prop_map(|(from, to)| TimeTravelQuery::diff(from, to)),
        attr_text_strategy().prop_map(|transaction| TimeTravelQuery::bisect(BisectSpec::Stalled { transaction })),
        (attr_text_strategy(), run_state_strategy())
            .prop_map(|(transaction, state)| TimeTravelQuery::bisect(BisectSpec::State { transaction, state })),
        (attr_text_strategy(), attr_text_strategy(), attr_text_strategy()).prop_map(|(transaction, name, value)| {
            TimeTravelQuery::bisect(BisectSpec::Variable { transaction, name, value })
        }),
    ]
}

fn ordinal_summary_strategy() -> impl Strategy<Value = dgl::OrdinalSummary> {
    (
        (proptest::option::of(0u64..100_000), proptest::option::of(0u64..100_000), any::<bool>()),
        (0u64..10_000, 0u64..100_000, 0u64..u64::MAX / 2),
        proptest::collection::vec(flow_recovery_strategy(), 0..4),
    )
        .prop_map(
            |((ordinal, requested, complete), (commands_applied, transitions_derived, time_us), flows)| {
                dgl::OrdinalSummary { ordinal, requested, complete, commands_applied, transitions_derived, time_us, flows }
            },
        )
}

fn flow_delta_strategy() -> impl Strategy<Value = dgl::FlowDelta> {
    (
        attr_text_strategy(),
        proptest::option::of(run_state_strategy()),
        proptest::option::of(run_state_strategy()),
        0u64..50,
        0u64..50,
        0u64..50,
    )
        .prop_map(|(transaction, from_state, to_state, steps_from, steps_to, steps_total)| dgl::FlowDelta {
            transaction,
            from_state,
            to_state,
            steps_from,
            steps_to,
            steps_total,
        })
}

fn diff_summary_strategy() -> impl Strategy<Value = dgl::DiffSummary> {
    (
        (0u64..100_000, 0u64..100_000, 0u64..10_000),
        (0u64..u64::MAX / 2, 0u64..u64::MAX / 2),
        proptest::collection::vec(flow_delta_strategy(), 0..4),
    )
        .prop_map(|((from, to, provenance_added), (time_from_us, time_to_us), flows)| dgl::DiffSummary {
            from,
            to,
            provenance_added,
            time_from_us,
            time_to_us,
            flows,
        })
}

fn bisect_summary_strategy() -> impl Strategy<Value = dgl::BisectSummary> {
    (proptest::option::of(0u64..100_000), 0u64..64, 0u64..100_000)
        .prop_map(|(first_true, probes, last_ordinal)| dgl::BisectSummary { first_true, probes, last_ordinal })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The status wire pair's request half: any transaction and node
    /// filter with any observability flags survives a request XML round
    /// trip.
    #[test]
    fn status_queries_round_trip_the_wire(
        transaction in attr_text_strategy(),
        node in proptest::option::of(attr_text_strategy()),
        events in proptest::option::of(0usize..10_000),
        metrics in any::<bool>(),
        trace in any::<bool>(),
    ) {
        let query = FlowStatusQuery { transaction, node, events, metrics, trace };
        let request = DataGridRequest::status("prop", "operator", query);
        let parsed = parse_request(&request.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The status wire pair's response half: any node report with
    /// children, events, metrics, and spans (with or without parent,
    /// end, and attributes) survives a response XML round trip.
    #[test]
    fn status_reports_round_trip_the_wire(report in status_report_strategy()) {
        let response = dgl::DataGridResponse::status("prop", report);
        let parsed = dgl::parse_response(&response.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }

    /// The telemetry wire pair's request half: every scrape/tail/limit
    /// combination survives a request XML round trip.
    #[test]
    fn telemetry_queries_round_trip_the_wire(
        scrape in any::<bool>(),
        tail_from in proptest::option::of(0u64..u64::MAX / 2),
        tail_limit in proptest::option::of(0usize..100_000),
    ) {
        let request = DataGridRequest::telemetry("prop", "operator", TelemetryQuery { scrape, tail_from, tail_limit });
        let parsed = parse_request(&request.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The telemetry wire pair's response half: any scrape text (byte
    /// for byte, final newline included), event page, and cursor
    /// survives a response XML round trip.
    #[test]
    fn telemetry_reports_round_trip_the_wire(
        time_us in 0u64..u64::MAX / 2,
        scrape in proptest::option::of(scrape_strategy()),
        events in proptest::collection::vec(report_event_strategy(), 0..5),
        next_cursor in proptest::option::of(0u64..1_000_000),
        dropped in proptest::option::of(0u64..1_000_000),
    ) {
        let report = TelemetryReport { time_us, scrape, events, next_cursor, dropped };
        let response = dgl::DataGridResponse::telemetry("prop", report);
        let parsed = dgl::parse_response(&response.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }

    /// The time-travel wire pair's request half: every op, and every
    /// bisect predicate, survives a request XML round trip.
    #[test]
    fn time_travel_queries_round_trip_the_wire(query in time_travel_query_strategy()) {
        let request = DataGridRequest::time_travel("prop", "operator", query);
        let parsed = parse_request(&request.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed, request);
    }

    /// The time-travel wire pair's response half: any mix of the
    /// inspect, diff, bisect, and error halves survives a response XML
    /// round trip.
    #[test]
    fn time_travel_reports_round_trip_the_wire(
        time_us in 0u64..u64::MAX / 2,
        enabled in any::<bool>(),
        last_ordinal in proptest::option::of(0u64..100_000),
        inspect in proptest::option::of(ordinal_summary_strategy()),
        diff in proptest::option::of(diff_summary_strategy()),
        bisect in proptest::option::of(bisect_summary_strategy()),
        error in proptest::option::of(element_text_strategy()),
    ) {
        let report = TimeTravelReport { time_us, enabled, last_ordinal, inspect, diff, bisect, error };
        let response = dgl::DataGridResponse::time_travel("prop", report);
        let parsed = dgl::parse_response(&response.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }

    /// The acknowledgement every flow request answers with: any
    /// transaction, state, validity, and message survives a response
    /// XML round trip.
    #[test]
    fn acknowledgements_round_trip_the_wire(
        request_id in attr_text_strategy(),
        transaction in attr_text_strategy(),
        state in run_state_strategy(),
        valid in any::<bool>(),
        message in proptest::option::of(element_text_strategy()),
    ) {
        let response = dgl::DataGridResponse::ack(request_id, dgl::RequestAck { transaction, state, valid, message });
        let parsed = dgl::parse_response(&response.to_xml()).expect("round trip parses");
        prop_assert_eq!(parsed, response);
    }
}
