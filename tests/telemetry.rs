//! Cross-crate telemetry tests: scrape determinism, the DGL telemetry
//! wire surface, cursor-based event tailing, and the flow-health
//! watchdog (`docs/OBSERVABILITY.md`).

use datagridflows::prelude::*;

/// A two-site grid with one admin and a cost-based scheduler.
fn dfms(seed: u64) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, seed))
}

/// The observability-suite workload under `base`: DGMS ops, a placement,
/// a transfer.
fn run_workload_at(d: &mut Dfms, base: &str) -> String {
    let flow = FlowBuilder::sequential("wf")
        .step("mk", DglOperation::CreateCollection { path: base.into() })
        .step("put", DglOperation::Ingest { path: format!("{base}/in"), size: "100000000".into(), resource: "site0-pfs".into() })
        .step(
            "run",
            DglOperation::Execute {
                code: "job".into(),
                nominal_secs: "60".into(),
                resource_type: None,
                inputs: vec![format!("{base}/in")],
                outputs: vec![(format!("{base}/out"), "5000".into())],
            },
        )
        .step("cp", DglOperation::Replicate { path: format!("{base}/out"), src: None, dst: "site1-disk".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    txn
}

fn run_workload(d: &mut Dfms) -> String {
    run_workload_at(d, "/w")
}

#[test]
fn scrapes_of_identically_seeded_runs_are_byte_identical() {
    let scrape_of = |seed| {
        let mut d = dfms(seed);
        d.configure_telemetry(
            SamplingConfig { interval: Duration::from_secs(60), capacity: 512 },
            HealthConfig::default(),
        );
        run_workload(&mut d);
        d.sample_telemetry();
        d.telemetry_scrape()
    };
    let a = scrape_of(7);
    let b = scrape_of(7);
    assert!(!a.is_empty());
    assert_eq!(a, b, "telemetry scrape must be deterministic");
    // Stable ordering: metric lines arrive sorted by (scope, name).
    let keys: Vec<(&str, &str)> = a
        .lines()
        .filter(|l| l.starts_with("dgf_metric{"))
        .map(|l| {
            let scope = l.split("scope=\"").nth(1).unwrap().split('"').next().unwrap();
            let name = l.split("name=\"").nth(1).unwrap().split('"').next().unwrap();
            (scope, name)
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "dgf_metric lines must be sorted by (scope, name)");
    // The scrape covers metrics and series, and ends in one newline.
    assert!(a.starts_with("# dgf telemetry scrape at "));
    assert!(a.contains("dgf_series{name=\"storage.used_bytes\",label=\"site0-pfs\""));
    assert!(a.ends_with('\n') && !a.ends_with("\n\n"));
}

#[test]
fn telemetry_queries_travel_over_the_dgl_wire() {
    let mut d = dfms(3);
    run_workload(&mut d);
    // Scrape-only query.
    let xml = DataGridRequest::telemetry("q1", "u", TelemetryQuery::scrape()).to_xml();
    let response = datagridflows::dgl::parse_response(&d.handle_xml(&xml)).unwrap();
    assert_eq!(response.request_id, "q1");
    let ResponseBody::Telemetry(report) = response.body else { panic!("expected telemetry") };
    let scrape = report.scrape.expect("scrape requested");
    assert!(scrape.contains("dgf_metric{scope=\"engine\",name=\"steps.executed\""));
    assert!(report.events.is_empty() && report.next_cursor.is_none() && report.dropped.is_none());
    // Tail query: events come back oldest-first with their sequence ids.
    let xml = DataGridRequest::telemetry("q2", "u", TelemetryQuery::tail(0).with_limit(5)).to_xml();
    let response = datagridflows::dgl::parse_response(&d.handle_xml(&xml)).unwrap();
    let ResponseBody::Telemetry(report) = response.body else { panic!("expected telemetry") };
    assert!(report.scrape.is_none());
    assert_eq!(report.events.len(), 5);
    let seqs: Vec<u64> = report.events.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    assert_eq!(report.next_cursor, Some(5));
    assert_eq!(report.dropped, Some(0));
}

#[test]
fn tail_resume_over_the_server_yields_no_gaps_or_duplicates() {
    let server = DfmsServer::start(dfms(11));
    let handle = server.handle();
    server.with_engine(run_workload);
    // Page through everything recorded so far in small pages.
    let mut cursor = 0u64;
    let mut seen: Vec<u64> = Vec::new();
    loop {
        let page = handle.tail(cursor, Some(7)).unwrap();
        assert_eq!(page.dropped, Some(0), "nothing evicted in this test");
        if page.events.is_empty() {
            break;
        }
        seen.extend(page.events.iter().map(|e| e.seq));
        cursor = page.next_cursor.unwrap();
    }
    // Gap-free, duplicate-free, and aligned with the recorder itself.
    for (i, w) in seen.windows(2).enumerate() {
        assert_eq!(w[1], w[0] + 1, "gap or duplicate after tail item {i}");
    }
    let recorded = server.with_engine(|e| e.obs().events().len() as u64);
    assert_eq!(seen.len() as u64, recorded, "tail must deliver every recorded event");
    // New work arrives; resuming from the saved cursor delivers exactly
    // the new events, never a repeat.
    server.with_engine(|e| run_workload_at(e, "/w2"));
    let page = handle.tail(cursor, None).unwrap();
    assert!(!page.events.is_empty());
    assert!(page.events.iter().all(|e| e.seq >= cursor), "no event before the cursor");
    assert_eq!(page.events[0].seq, cursor, "no gap at the resume point");
    drop(handle);
    let _ = server.shutdown();
}

#[test]
fn watchdog_flags_a_stalled_flow_then_sees_it_recover() {
    let mut d = dfms(5);
    d.configure_telemetry(
        SamplingConfig { interval: Duration::from_secs(30), capacity: 512 },
        HealthConfig { slow_after: Duration::from_secs(120), stalled_after: Duration::from_secs(300) },
    );
    // Failure injection: site1's cluster goes down; site0's is saturated
    // by local (non-grid) load. Execute steps queue and retry forever.
    let compute_ids: Vec<_> = d.grid().topology().compute_ids().collect();
    FailureEvent::Compute(compute_ids[1], false).apply(d.grid_mut().topology_mut());
    let busy = d.grid().topology().compute(compute_ids[0]).slots;
    d.grid_mut().topology_mut().compute_mut(compute_ids[0]).busy = busy;
    let flow = FlowBuilder::sequential("stuck")
        .step("mk", DglOperation::CreateCollection { path: "/s".into() })
        .step("put", DglOperation::Ingest { path: "/s/in".into(), size: "1000".into(), resource: "site0-disk".into() })
        .step(
            "run",
            DglOperation::Execute {
                code: "job".into(),
                nominal_secs: "10".into(),
                resource_type: None,
                inputs: vec!["/s/in".into()],
                outputs: vec![("/s/out".into(), "10".into())],
            },
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    let start = d.now();
    d.pump_until(start + Duration::from_secs(60));
    let health = d.obs().health_flow(&txn).expect("flow is watched");
    assert_eq!(health.state, HealthState::Healthy);
    assert!(health.last_progress > start, "the ingest step set the watermark");
    let watermark = health.last_progress;
    // Past slow_after with no progress → Slow; past stalled_after → Stalled.
    d.pump_until(start + Duration::from_secs(200));
    assert_eq!(d.obs().health_flow(&txn).unwrap().state, HealthState::Slow);
    d.pump_until(start + Duration::from_secs(400));
    let health = d.obs().health_flow(&txn).unwrap();
    assert_eq!(health.state, HealthState::Stalled);
    assert_eq!(health.last_progress, watermark, "no progress while stuck");
    // The transitions were recorded and the gauge published.
    let kinds: Vec<String> =
        d.obs().events().iter().map(|e| e.kind.name().to_owned()).collect();
    assert!(kinds.contains(&"health.slow".to_owned()));
    assert!(kinds.contains(&"health.stalled".to_owned()));
    d.sample_telemetry();
    assert!(d.telemetry_scrape().contains("dgf_metric{scope=\"dfms\",name=\"flows_stalled\",kind=\"gauge\"} 1"));
    // The cluster comes back; the retry loop picks the step up and the
    // flow completes, leaving the watch list.
    FailureEvent::Compute(compute_ids[1], true).apply(d.grid_mut().topology_mut());
    d.pump_until_terminal(&txn);
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Completed);
    assert!(d.obs().health_flow(&txn).is_none(), "finished flows are unwatched");
    let kinds: Vec<String> =
        d.obs().events().iter().map(|e| e.kind.name().to_owned()).collect();
    assert!(kinds.contains(&"health.healthy".to_owned()), "recovery is recorded");
    d.sample_telemetry();
    assert!(d.telemetry_scrape().contains("dgf_metric{scope=\"dfms\",name=\"flows_stalled\",kind=\"gauge\"} 0"));
}

#[test]
fn resource_series_accumulate_over_sim_time() {
    let mut d = dfms(9);
    d.configure_telemetry(
        SamplingConfig { interval: Duration::from_secs(10), capacity: 64 },
        HealthConfig::default(),
    );
    run_workload(&mut d);
    d.sample_telemetry();
    let series = d.obs().ts_series("storage.used_bytes", "site0-pfs").expect("sampled");
    assert!(series.len() >= 2, "the event loop samples while time advances");
    let rollup = series.rollup().unwrap();
    assert!(rollup.last > 0, "the ingest left bytes on site0-pfs");
    assert!(rollup.max >= rollup.min);
    // Flow-state series keep a stable label set: every state, every sample.
    for state in ["pending", "running", "completed", "failed", "paused", "stopped", "skipped"] {
        assert!(
            d.obs().ts_series("flows.state", state).is_some(),
            "missing flows.state series for {state}"
        );
    }
    // Ring capacity bounds retention.
    assert!(series.len() <= 64);
}

/// A flow whose single Execute step runs `secs` simulated seconds.
fn long_flow(name: &str, secs: u32) -> Flow {
    FlowBuilder::sequential(name)
        .step(
            "run",
            DglOperation::Execute {
                code: format!("{name}-job"),
                nominal_secs: secs.to_string(),
                resource_type: None,
                inputs: vec![],
                outputs: vec![],
            },
        )
        .build()
        .unwrap()
}

/// Sample `d` and check every `flows.state` series and `dfms/flows.*`
/// gauge against a full scan of `flow_summaries()`.
fn assert_flow_states_match_a_full_scan(d: &mut Dfms, when: &str) {
    d.sample_telemetry();
    let summaries = d.flow_summaries();
    let snapshot = d.metrics_snapshot();
    for state in [
        RunState::Pending,
        RunState::Running,
        RunState::Paused,
        RunState::Completed,
        RunState::Failed,
        RunState::Stopped,
        RunState::Skipped,
    ] {
        let expected = summaries.iter().filter(|f| f.state == state).count() as i64;
        let series = d
            .obs()
            .ts_series("flows.state", state.as_str())
            .and_then(|s| s.last());
        assert_eq!(
            series,
            Some(expected),
            "{when}: flows.state series for {state}"
        );
        assert_eq!(
            snapshot.gauge("dfms", &format!("flows.{state}")),
            expected,
            "{when}: dfms/flows.{state}"
        );
    }
}

#[test]
fn flow_state_counts_equal_a_full_scan_live_and_recovered() {
    const LABEL: &str = "telemetry-flow-states";
    let path = std::env::temp_dir().join(format!(
        "dgf-telemetry-flow-states-{}.dgj",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut d = dfms(3);
    d.attach_journal(&path, LABEL, JournalConfig::default())
        .unwrap();
    run_workload(&mut d); // completed
    let dup = FlowBuilder::sequential("dup")
        .step("mk", DglOperation::CreateCollection { path: "/w".into() })
        .build()
        .unwrap();
    let failed = d.submit_flow("u", dup).unwrap();
    d.pump();
    assert_eq!(d.status(&failed, None).unwrap().state, RunState::Failed);
    let stopped = d.submit_flow("u", long_flow("halt", 600)).unwrap();
    let running = d.submit_flow("u", long_flow("slow", 6_000)).unwrap();
    let start = d.now();
    d.pump_until(start + Duration::from_secs(60));
    assert_flow_states_match_a_full_scan(&mut d, "before the stop");
    // The checkpoint, not a sample, is the first to see the stopped run
    // finished: its prune must count it too, exactly once.
    d.stop(&stopped).unwrap();
    d.checkpoint().unwrap();
    let pending = d.submit_flow("u", long_flow("later", 60)).unwrap();
    assert_eq!(d.status(&stopped, None).unwrap().state, RunState::Stopped);
    assert_eq!(d.status(&running, None).unwrap().state, RunState::Running);
    assert_eq!(d.status(&pending, None).unwrap().state, RunState::Pending);
    assert_flow_states_match_a_full_scan(&mut d, "live");
    drop(d);

    let (mut revived, _) =
        Dfms::recover(&path, LABEL, JournalConfig::default(), || dfms(3)).unwrap();
    assert_flow_states_match_a_full_scan(&mut revived, "recovered");
    // Finish everything: the in-flight runs move into the pruned counts.
    revived.pump();
    assert_flow_states_match_a_full_scan(&mut revived, "recovered, drained");
    let summaries = revived.flow_summaries();
    assert!(summaries.iter().any(|f| f.state == RunState::Completed));
    assert!(summaries.iter().all(|f| f.state.is_terminal()));
    drop(revived);
    let _ = std::fs::remove_file(&path);
}
