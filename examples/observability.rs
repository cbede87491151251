//! Observability: the flight recorder, metrics registry, and span
//! tracer, inspected both in-process and over the DGL wire.
//!
//! ```sh
//! cargo run --example observability
//! # write the span timeline as Chrome trace-event JSON (open it at
//! # chrome://tracing or https://ui.perfetto.dev):
//! DGF_TRACE_OUT=/tmp/dgf-trace.json cargo run --example observability
//! # write the Prometheus-style telemetry scrape (byte-identical
//! # across seeded reruns):
//! DGF_SCRAPE_OUT=/tmp/dgf-scrape.txt cargo run --example observability
//! # write the phase-profile structure (byte-identical across reruns —
//! # wall/alloc fields zeroed, tree shape and call counts kept):
//! DGF_PROFILE_OUT=/tmp/dgf-profile.txt cargo run --example observability
//! ```
//!
//! See `docs/OBSERVABILITY.md` for the full event taxonomy, metric
//! name reference, and span hierarchy.

use datagridflows::prelude::*;

fn main() {
    // 1. A two-site grid and a DfMS with a cost-based scheduler. The
    //    engine owns the recorder; the scheduler and the trigger engine
    //    hand their results back and the engine records them, so one
    //    recorder sees them all.
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("arun", topology.domain_ids().next().unwrap()));
    users.make_admin("arun").unwrap();
    let mut dfms = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 42));

    // 2. A flow that exercises several event sources: DGMS ops (ingest,
    //    replicate), a compute task (planner decision + staging
    //    transfer), and a notification.
    let flow = FlowBuilder::sequential("observed")
        .step("mk", DglOperation::CreateCollection { path: "/obs".into() })
        .step(
            "put",
            DglOperation::Ingest { path: "/obs/in.dat".into(), size: "200000000".into(), resource: "site0-pfs".into() },
        )
        .step(
            "analyze",
            DglOperation::Execute {
                code: "analyze-v1".into(),
                nominal_secs: "300".into(),
                resource_type: None,
                inputs: vec!["/obs/in.dat".into()],
                outputs: vec![("/obs/out.dat".into(), "1000000".into())],
            },
        )
        .step("archive", DglOperation::Replicate { path: "/obs/out.dat".into(), src: None, dst: "site1-archive".into() })
        .step("done", DglOperation::Notify { message: "analysis archived".into() })
        .build()
        .expect("flow is structurally valid");
    let txn = dfms.submit_flow("arun", flow).unwrap();
    dfms.pump();
    assert_eq!(dfms.status(&txn, None).unwrap().state, RunState::Completed);

    // 3. The in-process view: every event the recorder holds, stamped
    //    with the simulation clock (deterministic across reruns).
    println!("--- flight recorder ({} events) ---", dfms.obs().events_total());
    for e in dfms.obs().events() {
        println!("  [{:>12}us #{:<3}] {:<20} {}", e.time.0, e.seq, e.kind.name(), e.kind.detail());
    }

    // 4. The same data over the DGL wire: a FlowStatusQuery asking for
    //    the last 5 events plus a metrics snapshot, as XML in and out.
    let query = FlowStatusQuery::whole(&txn).with_events(5).with_metrics();
    let request = DataGridRequest::status("obs-query-1", "arun", query);
    println!("\n--- DGL status query ---\n{}", request.to_xml());
    let response_xml = dfms.handle_xml(&request.to_xml());
    let response = datagridflows::dgl::parse_response(&response_xml).unwrap();
    let ResponseBody::Status(report) = response.body else { panic!("expected a status report") };
    println!("--- report: {report} ---");
    println!("last {} events over the wire:", report.events.len());
    for e in &report.events {
        println!("  [{:>12}us #{:<3}] {:<20} {}", e.time_us, e.seq, e.kind, e.detail);
    }
    println!("metric samples over the wire: {}", report.metrics.len());
    for m in report.metrics.iter().filter(|m| m.scope == "engine").take(5) {
        println!("  {}/{} {} {}", m.scope, m.name, m.kind, m.value);
    }

    // 5. The causal span timeline: one trace per submitted flow, with
    //    request, binding, dgms-op, and transfer spans hanging off it.
    //    The same tree travels the wire via `with_trace`.
    let trace_q = FlowStatusQuery::whole(&txn).with_trace();
    let trace_req = DataGridRequest::status("obs-query-2", "arun", trace_q);
    let trace_resp = datagridflows::dgl::parse_response(&dfms.handle_xml(&trace_req.to_xml())).unwrap();
    let ResponseBody::Status(traced) = trace_resp.body else { panic!("expected a status report") };
    println!("\n--- span timeline ({} spans) ---", traced.spans.len());
    let depth_of = |s: &ReportSpan| {
        let mut d = 0;
        let mut parent = s.parent;
        while let Some(p) = parent {
            parent = traced.spans.iter().find(|c| c.id == p).and_then(|c| c.parent);
            d += 1;
        }
        d
    };
    for s in &traced.spans {
        let end = s.end_us.map(|e| e.to_string()).unwrap_or_else(|| "open".into());
        println!("  {:indent$}{} \"{}\" [{} .. {}]us", "", s.kind, s.name, s.start_us, end, indent = depth_of(s) * 2);
    }

    // 6. Chrome trace-event export — byte-identical across seeded
    //    reruns, so a trace file is a reproducible artifact.
    let chrome = dfms.obs().export_chrome_trace();
    if let Ok(path) = std::env::var("DGF_TRACE_OUT") {
        std::fs::write(&path, &chrome).expect("trace file is writable");
        println!("\nwrote {} bytes of chrome trace JSON to {path}", chrome.len());
    } else {
        println!("\nchrome trace export: {} bytes (set DGF_TRACE_OUT=/path.json to write it)", chrome.len());
    }

    // 7. The full registry, via the text exporter (`to_json` is the
    //    machine-readable sibling). Span latency percentiles appear as
    //    `trace/span.<kind>.p50|p95|p99_us` gauges.
    println!("\n--- metrics snapshot ---\n{}", dfms.metrics_snapshot().to_text());

    // 8. The live-telemetry surface: sample the resource time-series at
    //    the current sim-time, then render the Prometheus-style scrape
    //    that `TelemetryQuery::scrape()` serves over the DGL wire. The
    //    scrape is deterministic: identically-seeded runs produce
    //    byte-identical text (scripts/verify.sh gates on this).
    dfms.sample_telemetry();
    let scrape = dfms.telemetry_scrape();
    let preview: Vec<&str> = scrape.lines().take(12).collect();
    println!("--- telemetry scrape ({} bytes) ---\n{}\n  ...", scrape.len(), preview.join("\n"));
    if let Ok(path) = std::env::var("DGF_SCRAPE_OUT") {
        std::fs::write(&path, &scrape).expect("scrape file is writable");
        println!("wrote the full scrape to {path}");
    }

    // 9. The phase profiler (`dgf-prof`): every engine pass above also
    //    accumulated into a scoped phase tree — parse, lint, schedule,
    //    step-execute, provenance, telemetry. Wall-clock and allocation
    //    fields vary between runs; the *structure* (tree shape, call
    //    counts, sim-time totals) is deterministic, and
    //    `structure_text()` renders exactly that stable subset
    //    (scripts/verify.sh gates on it being byte-identical).
    let profile = dfms.profile_snapshot();
    println!("\n--- phase profile structure ---\n{}", profile.structure_text());
    println!("folded stacks: {} lines (flamegraph.pl-ready)", profile.folded().lines().count());
    if let Ok(path) = std::env::var("DGF_PROFILE_OUT") {
        std::fs::write(&path, profile.structure_text()).expect("profile file is writable");
        println!("wrote the profile structure to {path}");
    }
}
