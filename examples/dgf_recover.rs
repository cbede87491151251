//! Crash recovery end to end: run a journaled DfMS, hard-kill it
//! mid-flight (drop the engine with work in the air), recover from the
//! write-ahead journal, finish the flows, and print the recovery
//! report. An uninterrupted control run proves the recovered engine is
//! byte-identical where it matters: provenance and flow state.
//!
//! ```sh
//! cargo run --example dgf_recover
//! DGF_JOURNAL_OUT=/tmp/j cargo run --example dgf_recover
//! ```
//!
//! With `DGF_JOURNAL_OUT` set, the journal is also copied twice: as it
//! stood at the crash (`<prefix>.crash.dgj`) and after recovery's
//! checkpoint and compaction (`<prefix>.recovered.dgj`). Both copies are
//! byte-identical across reruns; stdout does not change.
//!
//! The operator guide for all of this is `docs/RECOVERY.md`.

use datagridflows::prelude::*;
use std::path::{Path, PathBuf};

const LABEL: &str = "demo-grid";

/// The engine factory: recovery replays the journal against an engine
/// built *exactly* like the one that crashed — same topology, same
/// users, same planner and seed. Keep this deterministic.
fn factory() -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 3 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("arun", topology.domain_ids().next().unwrap()));
    users.make_admin("arun").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, 42))
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
        .step("done", DglOperation::Notify { message: "run1 archived off-site".into() })
        .build()
        .unwrap()
}

fn crunch_flow() -> Flow {
    let mut b = FlowBuilder::sequential("crunch");
    for i in 0..4 {
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

/// Drive a (journaled or not) engine through the whole scenario.
/// Everything is deterministic, so a control run and a crashed+recovered
/// run can be compared step for step.
fn part_one(d: &mut Dfms) -> (String, String) {
    let t1 = d.submit_flow("arun", survey_flow()).unwrap();
    let t2 = d.submit_flow("arun", crunch_flow()).unwrap();
    // Run the grid for 20 simulated minutes: the transfer lands, the
    // analysis jobs are mid-crunch.
    d.pump_until(SimTime::ZERO + Duration::from_secs(1200));
    (t1, t2)
}

fn part_two(d: &mut Dfms) {
    d.pump(); // drain to quiescence
}

fn fingerprint(d: &Dfms, txns: &[&str]) -> String {
    let mut out = d.provenance().snapshot();
    for txn in txns {
        out.push_str(&format!("\n{}", d.status(txn, None).unwrap()));
    }
    out
}

/// Copy the journal at `path` to `<DGF_JOURNAL_OUT>.<stage>.dgj`, when
/// that variable is set.
fn export_journal(path: &Path, stage: &str) {
    if let Some(prefix) = std::env::var_os("DGF_JOURNAL_OUT") {
        let mut out = prefix;
        out.push(format!(".{stage}.dgj"));
        std::fs::copy(path, &out).expect("DGF_JOURNAL_OUT is writable");
    }
}

fn main() {
    let path: PathBuf = std::env::temp_dir().join(format!("dgf-recover-{}.dgj", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // --- the run that will crash -------------------------------------
    let mut dfms = factory();
    dfms.attach_journal(&path, LABEL, JournalConfig::default()).unwrap();
    let (t1, t2) = part_one(&mut dfms);
    println!("--- mid-flight (about to crash) ---");
    println!("{}", dfms.status(&t1, None).unwrap());
    println!("{}", dfms.status(&t2, None).unwrap());

    // Hard kill: the process dies here. No shutdown hook, no flush
    // beyond what the WAL already guaranteed.
    drop(dfms);
    println!("\n*** crash: engine dropped with {t2} still running ***\n");
    export_journal(&path, "crash");

    // --- reboot: recover from the journal ----------------------------
    let (mut revived, report) = Dfms::recover(&path, LABEL, JournalConfig::default(), factory)
        .expect("journal replays cleanly");
    export_journal(&path, "recovered");
    println!("--- recovery report ---\n{report}");
    for flow in &report.flows {
        println!(
            "  {} [{}] {}/{} steps{}",
            flow.transaction,
            flow.state,
            flow.steps_completed,
            flow.steps_total,
            if flow.resumed { " — resumed" } else { "" }
        );
    }

    // Finish the interrupted work on the recovered engine.
    part_two(&mut revived);
    println!("\n--- after recovery ---");
    println!("{}", revived.status(&t1, None).unwrap());
    println!("{}", revived.status(&t2, None).unwrap());

    // --- prove it: an uninterrupted control run matches byte for byte -
    let mut control = factory();
    part_one(&mut control);
    part_two(&mut control);
    let same = fingerprint(&revived, &[&t1, &t2]) == fingerprint(&control, &[&t1, &t2]);
    let replay = report.replay.expect("a crashed journal implies a replay");
    println!(
        "\ncontrol comparison: provenance+status {} | {} commands replayed, {} records matched, {} divergences",
        if same { "IDENTICAL" } else { "DIVERGED" },
        replay.commands_replayed,
        replay.records_matched,
        replay.divergences,
    );
    let _ = std::fs::remove_file(&path);
    assert!(same, "recovered state diverged from the uninterrupted control");
    assert_eq!(replay.divergences, 0);
    println!("recovery OK: crash at full flight, byte-identical state after reboot");
}
