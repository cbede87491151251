//! The time-travel operator console: replay a crashed engine's journal
//! to any since-genesis ordinal, diff two ordinals, bisect history for
//! the moment a flow first stalled, and export the materialized trace
//! as a Perfetto protobuf.
//!
//! ```sh
//! cargo run --example dgf_time_travel                # scripted demo
//! cargo run --example dgf_time_travel -- --interactive
//! DGF_PERFETTO_OUT=/tmp/dgf.pftrace cargo run --example dgf_time_travel
//! ```
//!
//! The scripted demo is fully deterministic (same output byte for byte
//! on every run); `scripts/verify.sh` relies on that. The operator
//! guide is `docs/TIME_TRAVEL.md`.

use datagridflows::prelude::*;
use std::io::BufRead as _;
use std::path::PathBuf;

const LABEL: &str = "console-grid";

/// The engine factory — the same deterministic-rebuild contract as
/// recovery: topology, users, planner seed, *and* watchdog deadlines
/// must match the journaled engine (health configuration is not
/// journaled, so it lives here).
fn factory() -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 3 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("arun", topology.domain_ids().next().unwrap()));
    users.make_admin("arun").unwrap();
    let mut dfms = Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 42));
    // Tight stall deadlines so the demo's stall is diagnosable within
    // simulated hours rather than the production default of 2h/15min.
    dfms.configure_telemetry(
        SamplingConfig::default(),
        HealthConfig { slow_after: Duration::from_secs(600), stalled_after: Duration::from_secs(1800) },
    );
    dfms
}

fn survey_flow() -> Flow {
    FlowBuilder::sequential("survey")
        .step("mk", DglOperation::CreateCollection { path: "/survey".into() })
        .step(
            "ingest",
            DglOperation::Ingest { path: "/survey/run1.dat".into(), size: "800000000".into(), resource: "site0-disk".into() },
        )
        .step("digest", DglOperation::Checksum { path: "/survey/run1.dat".into(), resource: None, register: true })
        .step(
            "offsite",
            DglOperation::Replicate { path: "/survey/run1.dat".into(), src: None, dst: "site1-archive".into() },
        )
        .build()
        .unwrap()
}

fn crunch_flow(name: &str, jobs: usize) -> Flow {
    let mut b = FlowBuilder::sequential(name);
    for i in 0..jobs {
        b = b.step(
            format!("job{i}"),
            DglOperation::Execute {
                code: format!("analysis-{i}"),
                nominal_secs: "600".into(),
                resource_type: None,
                inputs: vec![],
                outputs: vec![],
            },
        );
    }
    b.build().unwrap()
}

/// Drive the journaled engine into the incident and crash it:
///
/// * `t1`/`t2` run to completion in the morning;
/// * `t3` is window-constrained to off-hours (20:00–06:00) but gets
///   submitted at 10:00 — it sits idle and trips the stall watchdog at
///   10:30 while
/// * `t4`, a long analysis chain, keeps deriving transitions right
///   through the stall (so bisection has ordinals to cut between).
///
/// Returns the four transaction ids.
fn drive_incident(dfms: &mut Dfms) -> [String; 4] {
    let t1 = dfms.submit_flow("arun", survey_flow()).unwrap();
    let t2 = dfms.submit_flow("arun", crunch_flow("crunch", 4)).unwrap();
    // Run the grid to 10:00 — the morning work completes.
    dfms.pump_until(SimTime::ZERO + Duration::from_secs(36_000));
    let nightly = RunOptions { window: Some(ScheduleWindow::off_hours(20, 6)), ..Default::default() };
    let t3 = dfms
        .submit_flow_with("arun", crunch_flow("nightly-archive", 2), nightly)
        .unwrap();
    let t4 = dfms.submit_flow("arun", crunch_flow("backfill", 30)).unwrap();
    // Run to 13:20: t4 mid-chain, t3 stalled since 10:30.
    dfms.pump_until(SimTime::ZERO + Duration::from_secs(48_000));
    [t1, t2, t3, t4]
}

fn print_flows(m: &datagridflows::dfms::Materialized) {
    let s = m.summary();
    let ordinal = m.ordinal.map_or("-".to_owned(), |o| o.to_string());
    println!(
        "ordinal {ordinal} | clock {}s | {} commands, {} transitions{}",
        s.time_us / 1_000_000,
        s.commands_applied,
        s.transitions_derived,
        if m.complete { " | end of history" } else { "" },
    );
    for f in &s.flows {
        println!("  {} [{}] {}/{} steps", f.transaction, f.state, f.steps_completed, f.steps_total);
    }
}

fn print_diff(travel: &TimeTravel, a: u64, b: u64) {
    match travel.diff(a, b) {
        Ok(d) => {
            println!(
                "diff {}..{} | clock {}s -> {}s | +{} provenance records",
                d.from,
                d.to,
                d.time_from_us / 1_000_000,
                d.time_to_us / 1_000_000,
                d.provenance_added.len(),
            );
            for rec in &d.provenance_added {
                println!("  + {} {} {} [{:?}]", rec.transaction, rec.node, rec.name, rec.outcome);
            }
            for f in &d.flows {
                let from = f.from_state.map_or("(new)".to_owned(), |s| s.to_string());
                let to = f.to_state.map_or("(gone)".to_owned(), |s| s.to_string());
                println!(
                    "  ~ {} {} -> {} ({} -> {}/{} steps)",
                    f.transaction, from, to, f.steps_from, f.steps_to, f.steps_total
                );
            }
            if d.is_empty() {
                println!("  (no observable change)");
            }
        }
        Err(e) => println!("diff failed: {e}"),
    }
}

fn print_bisect(travel: &TimeTravel, what: &str, predicate: &BisectSpec) {
    match travel.bisect(predicate) {
        Ok(b) => match b.first_true {
            Some(o) => println!(
                "bisect {what}: first true at ordinal {o} of {} ({} probes)",
                b.last_ordinal, b.probes
            ),
            None => println!(
                "bisect {what}: never true in {} ordinals ({} probes)",
                b.last_ordinal + 1,
                b.probes
            ),
        },
        Err(e) => println!("bisect failed: {e}"),
    }
}

/// Export the materialization's spans as a Perfetto protobuf, verify
/// the bytes through the decoder, and (optionally) write them to disk.
fn export_perfetto(m: &datagridflows::dfms::Materialized, out: Option<&str>) {
    let bytes = m.engine.obs().export_perfetto_trace();
    match decode_perfetto(&bytes) {
        Ok(packets) => {
            let tracks = packets.iter().filter(|p| p.track.is_some()).count();
            let events = packets.iter().filter(|p| p.event.is_some()).count();
            println!(
                "perfetto export: {} bytes, {} packets ({tracks} tracks, {events} slice events) — verified",
                bytes.len(),
                packets.len(),
            );
        }
        Err(e) => println!("perfetto export failed verification: {e}"),
    }
    if let Some(path) = out {
        match std::fs::write(path, &bytes) {
            Ok(()) => println!("wrote trace to {path} — open it at https://ui.perfetto.dev"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
}

fn scripted(travel: &TimeTravel, txns: &[String; 4]) {
    let [_, t2, t3, _] = txns;

    println!("--- end of history ---");
    let full = travel.materialize(None).expect("journal replays cleanly");
    print_flows(&full);

    println!("\n--- step back: ordinal 3 ---");
    let early = travel.materialize(Some(3)).expect("journal replays cleanly");
    print_flows(&early);

    println!("\n--- provenance diff, ordinal 3 -> 8 ---");
    print_diff(travel, 3, 8);

    println!("\n--- bisect: when did {t2} first complete? ---");
    print_bisect(
        travel,
        "completed",
        &BisectSpec::State { transaction: t2.clone(), state: RunState::Completed },
    );

    println!("\n--- bisect: when did {t3} first stall? ---");
    print_bisect(travel, "stalled", &BisectSpec::Stalled { transaction: t3.clone() });

    println!("\n--- perfetto ---");
    let out = std::env::var("DGF_PERFETTO_OUT").ok();
    export_perfetto(&full, out.as_deref());
}

fn interactive(travel: &TimeTravel) {
    println!("time-travel console — commands:");
    println!("  goto <ordinal>|end       materialize and show flow states");
    println!("  diff <a> <b>             provenance + flow-state delta");
    println!("  bisect stalled <txn>     first ordinal a flow was stalled");
    println!("  bisect state <txn> <s>   first ordinal a flow hit a state");
    println!("  bisect var <txn> <n> <v> first ordinal a variable took a value");
    println!("  export [file]            perfetto protobuf of the current ordinal");
    println!("  quit");
    let mut current = travel.materialize(None).expect("journal replays cleanly");
    print_flows(&current);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_default();
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["quit"] | ["exit"] => break,
            ["goto", at] => {
                let ordinal = if *at == "end" { None } else { at.parse().ok() };
                if ordinal.is_none() && *at != "end" {
                    println!("goto: expected an ordinal or 'end'");
                    continue;
                }
                match travel.materialize(ordinal) {
                    Ok(m) => {
                        current = m;
                        print_flows(&current);
                    }
                    Err(e) => println!("goto failed: {e}"),
                }
            }
            ["diff", a, b] => match (a.parse(), b.parse()) {
                (Ok(a), Ok(b)) => print_diff(travel, a, b),
                _ => println!("diff: expected two ordinals"),
            },
            ["bisect", "stalled", txn] => print_bisect(
                travel,
                "stalled",
                &BisectSpec::Stalled { transaction: (*txn).to_owned() },
            ),
            ["bisect", "state", txn, state] => match RunState::parse(state) {
                Some(state) => print_bisect(
                    travel,
                    "state",
                    &BisectSpec::State { transaction: (*txn).to_owned(), state },
                ),
                None => println!("bisect state: unknown state {state:?}"),
            },
            ["bisect", "var", txn, name, value] => print_bisect(
                travel,
                "variable",
                &BisectSpec::Variable {
                    transaction: (*txn).to_owned(),
                    name: (*name).to_owned(),
                    value: (*value).to_owned(),
                },
            ),
            ["export"] => export_perfetto(&current, None),
            ["export", path] => export_perfetto(&current, Some(path)),
            [] => {}
            other => println!("unknown command {other:?} — try 'goto', 'diff', 'bisect', 'export', 'quit'"),
        }
    }
}

fn main() {
    let path: PathBuf =
        std::env::temp_dir().join(format!("dgf-time-travel-{}.dgj", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // --- the run that will crash -------------------------------------
    let mut dfms = factory();
    dfms.attach_journal(&path, LABEL, JournalConfig::default()).unwrap();
    let txns = drive_incident(&mut dfms);
    println!("--- mid-incident (about to crash) ---");
    for txn in &txns {
        println!("{}", dfms.status(txn, None).unwrap());
    }
    drop(dfms);
    println!("\n*** crash: engine dropped with {} stalled and {} mid-chain ***\n", txns[2], txns[3]);

    // --- the console: read-only time travel over the dead journal ----
    let travel = TimeTravel::new(&path, LABEL, factory);
    if std::env::args().any(|a| a == "--interactive") {
        interactive(&travel);
    } else {
        scripted(&travel, &txns);
    }
    let _ = std::fs::remove_file(&path);
}
