//! Failure-injection (chaos) tests: the engine under deterministic
//! resource churn and under hard kills. The point is not that every run
//! completes — with enough churn and bounded retries some cannot — but
//! that the system *degrades cleanly*: terminal states, honest reports,
//! no leaked slots or transfer shares, consistent storage accounting,
//! and — with a journal attached — byte-identical state after a crash
//! at *any* record boundary (see `docs/RECOVERY.md`).

use datagridflows::prelude::*;
use std::path::{Path, PathBuf};

fn dfms(domains: u32, seed: u64) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, seed))
}

/// Pump the engine while applying a failure plan minute by minute.
fn pump_with_chaos(d: &mut Dfms, plan: &FailurePlan, txn: &str, horizon: SimTime) -> RunState {
    let mut cursor = d.now();
    loop {
        let next = cursor + Duration::from_secs(60);
        d.pump_until(next);
        plan.apply_between(d.grid_mut().topology_mut(), cursor, next);
        cursor = next;
        let state = d.status(txn, None).unwrap().state;
        if state.is_terminal() || cursor > horizon {
            // Bring everything back up so queued work can drain.
            for (_, event) in plan.events() {
                match event {
                    FailureEvent::Compute(id, _) => d.grid_mut().topology_mut().compute_mut(*id).online = true,
                    FailureEvent::Link(id, _) => d.grid_mut().topology_mut().link_mut(*id).online = true,
                    FailureEvent::Storage(id, _) => d.grid_mut().topology_mut().storage_mut(*id).online = true,
                }
            }
            d.pump();
            return d.status(txn, None).unwrap().state;
        }
    }
}

use datagridflows::simgrid::{ComputeId, FailureEvent};

fn assert_no_leaks(d: &Dfms) {
    let topo = d.grid().topology();
    for c in topo.compute_ids() {
        assert_eq!(topo.compute(c).busy, 0, "leaked slot on {}", topo.compute(c).name);
    }
    assert_eq!(d.grid().transfer_model().total_active_shares(), 0, "leaked transfer shares");
}

#[test]
fn compute_churn_with_retries_completes_or_fails_cleanly() {
    let mut completed = 0;
    for seed in 0..6u64 {
        let mut d = dfms(4, seed);
        let mut b = FlowBuilder::sequential("chaos-exec");
        for i in 0..12 {
            b = b.add_step(
                Step::new(
                    format!("t{i}"),
                    DglOperation::Execute {
                        code: format!("job{i}"),
                        nominal_secs: "180".into(),
                        resource_type: None,
                        inputs: vec![],
                        outputs: vec![],
                    },
                )
                .with_error_policy(ErrorPolicy::Retry(2)),
            );
        }
        let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
        let plan = FailurePlan::generate(
            d.grid().topology(),
            Duration::from_hours(6),
            Duration::from_secs(1200), // aggressive: MTBF 20 min
            Duration::from_secs(600),
            seed,
        );
        let state = pump_with_chaos(&mut d, &plan, &txn, SimTime::from_hours(12));
        assert!(state.is_terminal(), "seed {seed} wedged in {state}");
        if state == RunState::Completed {
            completed += 1;
        } else {
            // Failed runs must say why.
            let report = d.status(&txn, None).unwrap();
            assert!(report.message.is_some(), "failure without a message: {report}");
        }
        assert_no_leaks(&d);
        assert_attribution_invariant(&d);
    }
    assert!(completed >= 3, "retry+late-binding should save most runs: {completed}/6");
}

#[test]
fn transfer_flows_survive_link_churn() {
    for seed in 0..4u64 {
        let mut d = dfms(3, seed);
        // Seed objects at site0.
        let mut b = FlowBuilder::sequential("seed")
            .step("mk", DglOperation::CreateCollection { path: "/data".into() });
        for i in 0..6 {
            b = b.step(
                format!("p{i}"),
                DglOperation::Ingest { path: format!("/data/f{i}"), size: "500000000".into(), resource: "site0-disk".into() },
            );
        }
        d.submit_flow("u", b.build().unwrap()).unwrap();
        d.pump();

        // Replicate everything off-site with retries, under link churn.
        let mut b = FlowBuilder::sequential("spread");
        for i in 0..6 {
            b = b.add_step(
                Step::new(
                    format!("cp{i}"),
                    DglOperation::Replicate { path: format!("/data/f{i}"), src: None, dst: "site1-disk".into() },
                )
                .with_error_policy(ErrorPolicy::Retry(3)),
            );
        }
        let txn = d.submit_flow("u", b.build().unwrap()).unwrap();
        let plan = FailurePlan::generate(
            d.grid().topology(),
            Duration::from_hours(2),
            Duration::from_secs(900),
            Duration::from_secs(300),
            seed + 100,
        );
        let state = pump_with_chaos(&mut d, &plan, &txn, SimTime::from_hours(6));
        assert!(state.is_terminal());
        assert_no_leaks(&d);
        assert_attribution_invariant(&d);
        // Storage accounting stays exact regardless of outcome.
        let catalog_bytes: u64 = d.grid().stats().physical_bytes;
        let used: u64 = {
            let topo = d.grid().topology();
            topo.storage_ids().map(|s| topo.storage(s).used).sum()
        };
        assert_eq!(used, catalog_bytes, "seed {seed}: storage accounting drifted");
    }
}

#[test]
fn storage_outage_mid_flow_is_a_clean_failure() {
    let mut d = dfms(2, 9);
    let flow = FlowBuilder::sequential("doomed")
        .step("a", DglOperation::Ingest { path: "/a".into(), size: "80000000".into(), resource: "site1-disk".into() })
        .step("b", DglOperation::Ingest { path: "/b".into(), size: "80000000".into(), resource: "site1-disk".into() })
        .step("c", DglOperation::Ingest { path: "/c".into(), size: "80000000".into(), resource: "site1-disk".into() })
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    // Step a finishes (~1s); kill the destination store before b begins.
    d.pump_until(SimTime::ZERO + Duration::from_millis(1_500));
    let sid = d.grid().resolve_resource("site1-disk").unwrap();
    d.grid_mut().topology_mut().storage_mut(sid).online = false;
    d.pump();
    let report = d.status(&txn, None).unwrap();
    assert_eq!(report.state, RunState::Failed);
    assert!(report.message.as_deref().unwrap().contains("offline"), "{report}");
    assert!(d.grid().exists(&LogicalPath::parse("/a").unwrap()), "completed work persists");
    assert_no_leaks(&d);
    // The run is restartable once the resource returns.
    d.grid_mut().topology_mut().storage_mut(sid).online = true;
    let txn2 = d.restart(&txn).unwrap();
    d.pump();
    assert_eq!(d.status(&txn2, None).unwrap().state, RunState::Completed);
    // Steps a (and possibly the in-flight b, which completes before the
    // outage is observed) are skipped on restart.
    assert!(d.metrics().steps_skipped_restart >= 1);
}

#[test]
fn disconnected_grid_heals_and_work_resumes() {
    let mut d = dfms(2, 5);
    d.grid_mut()
        .execute(
            "u",
            Operation::Ingest { path: LogicalPath::parse("/big").unwrap(), size: 1_000_000_000, resource: "site0-disk".into() },
            SimTime::ZERO,
        )
        .unwrap();
    // Sever the only link, then submit a cross-site replicate with retries.
    let link = datagridflows::simgrid::LinkId(0);
    d.grid_mut().topology_mut().link_mut(link).online = false;
    let flow = FlowBuilder::sequential("cross")
        .add_step(
            Step::new("cp", DglOperation::Replicate { path: "/big".into(), src: None, dst: "site1-disk".into() })
                .with_error_policy(ErrorPolicy::Retry(5)),
        )
        .build()
        .unwrap();
    let txn = d.submit_flow("u", flow).unwrap();
    d.pump();
    // Retries exhausted while the island persists → failed...
    assert_eq!(d.status(&txn, None).unwrap().state, RunState::Failed);
    // ...but healing the link and restarting succeeds.
    d.grid_mut().topology_mut().link_mut(link).online = true;
    let txn2 = d.restart(&txn).unwrap();
    d.pump();
    assert_eq!(d.status(&txn2, None).unwrap().state, RunState::Completed);
    let obj = d.grid().stat_object(&LogicalPath::parse("/big").unwrap()).unwrap();
    assert_eq!(obj.replicas.len(), 2);
}

// ----------------------------------------------------------------------
// Crash recovery: hard kills against the write-ahead journal
// ----------------------------------------------------------------------

const LABEL: &str = "chaos-grid";

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgf-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.dgj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn exec_flow(name: &str, steps: usize, secs: u32) -> Flow {
    let mut b = FlowBuilder::sequential(name);
    for i in 0..steps {
        b = b.add_step(
            Step::new(
                format!("s{i}"),
                DglOperation::Execute {
                    code: format!("{name}-job{i}"),
                    nominal_secs: secs.to_string(),
                    resource_type: None,
                    inputs: vec![],
                    outputs: vec![],
                },
            )
            .with_error_policy(ErrorPolicy::Retry(2)),
        );
    }
    b.build().unwrap()
}

fn transfer_flow() -> Flow {
    FlowBuilder::sequential("xfer")
        .step("mk", DglOperation::CreateCollection { path: "/chaos".into() })
        .step(
            "put",
            DglOperation::Ingest { path: "/chaos/big".into(), size: "800000000".into(), resource: "site0-disk".into() },
        )
        .step("cp", DglOperation::Replicate { path: "/chaos/big".into(), src: None, dst: "site1-disk".into() })
        .build()
        .unwrap()
}

/// One external input to the engine — the unit the journal records.
/// Transaction ids are deterministic (`t1`, `t2`, ...), so lifecycle
/// commands can name them statically.
enum Cmd {
    Submit(Flow),
    PumpUntil(u64), // absolute sim-seconds
    Pump,
    Pause(&'static str),
    Resume(&'static str),
    Stop(&'static str),
    Restart(&'static str),
    Failure(FailureEvent),
    Procedure(&'static str, Flow),
    Call(&'static str),
}

impl Cmd {
    fn apply(&self, d: &mut Dfms) {
        match self {
            Cmd::Submit(flow) => drop(d.submit_flow("u", flow.clone())),
            Cmd::PumpUntil(secs) => drop(d.pump_until(SimTime::ZERO + Duration::from_secs(*secs))),
            Cmd::Pump => drop(d.pump()),
            Cmd::Pause(txn) => drop(d.pause(txn)),
            Cmd::Resume(txn) => drop(d.resume(txn)),
            Cmd::Stop(txn) => drop(d.stop(txn)),
            Cmd::Restart(txn) => drop(d.restart(txn)),
            Cmd::Failure(event) => d.apply_failure_event(*event),
            Cmd::Procedure(name, flow) => drop(d.register_procedure(*name, flow.clone())),
            Cmd::Call(name) => drop(d.call_procedure("u", name, &[])),
        }
    }
}

/// A deterministic scenario exercising the whole command vocabulary:
/// submissions, incremental pumping, pause/resume, failure injection,
/// stop/restart (restart-memo skips), procedures.
fn crash_script() -> Vec<Cmd> {
    vec![
        Cmd::Submit(exec_flow("alpha", 6, 180)), // t1
        Cmd::PumpUntil(400),
        Cmd::Pause("t1"),
        Cmd::Submit(transfer_flow()), // t2
        Cmd::PumpUntil(900),
        Cmd::Failure(FailureEvent::Compute(ComputeId(1), false)),
        Cmd::Resume("t1"),
        Cmd::PumpUntil(1500),
        Cmd::Failure(FailureEvent::Compute(ComputeId(1), true)),
        Cmd::Submit(exec_flow("beta", 4, 240)), // t3
        Cmd::PumpUntil(2000),
        Cmd::Stop("t3"),
        Cmd::Restart("t3"), // t4: resumes beta, skipping completed steps
        Cmd::Procedure("finisher", exec_flow("fin", 2, 60)),
        Cmd::Call("finisher"), // t5
        Cmd::Pump,
    ]
}

/// Everything that must survive a crash, as one comparable string: the
/// full provenance snapshot plus every flow's plain status report.
/// Metrics are deliberately excluded — a recovered engine legitimately
/// differs there (`steps.skipped.restart` counts replay fast-forwards).
fn fingerprint(d: &Dfms) -> String {
    let mut out = d.provenance().snapshot();
    for flow in d.recovery_query().flows {
        let report = d.status(&flow.transaction, None).unwrap();
        out.push_str(&format!("\n{}: {report}", flow.transaction));
    }
    out
}

fn journaled_reference(name: &str, config: JournalConfig) -> (Dfms, PathBuf) {
    let path = temp_journal(name);
    let mut reference = dfms(4, 7);
    reference.attach_journal(&path, LABEL, config).unwrap();
    for cmd in &crash_script() {
        cmd.apply(&mut reference);
    }
    (reference, path)
}

/// Recover from `path`, finish the remainder of the script live, and
/// return the engine plus the boot report.
fn recover_and_finish(path: &Path, config: JournalConfig) -> (Dfms, RecoveryReport) {
    let (mut revived, report) = Dfms::recover(path, LABEL, config, || dfms(4, 7)).unwrap();
    let replayed = report.replay.map(|r| r.commands_replayed).unwrap_or(0) as usize;
    for cmd in &crash_script()[replayed..] {
        cmd.apply(&mut revived);
    }
    (revived, report)
}

/// The dgf-why partition invariant: every completed flow's critical
/// path sums exactly to its makespan, chaos or not.
fn assert_attribution_invariant(d: &Dfms) {
    for p in d.obs().why_paths() {
        assert_eq!(
            p.segments_sum_us(),
            p.makespan_us(),
            "critical path of {} must partition its makespan",
            p.txn
        );
    }
}

#[test]
fn kill_at_every_record_boundary_recovers_byte_identically() {
    let config = JournalConfig { checkpoint_every: 3, ..Default::default() };
    let (reference, ref_path) = journaled_reference("boundary", config);
    let expected = fingerprint(&reference);
    let (records, _) = Journal::read(&ref_path).unwrap();
    let total = records.len();
    assert!(total > 20, "scenario too small to be interesting: {total} records");

    for keep in 0..=total {
        let crash_path = temp_journal(&format!("boundary-k{keep}"));
        std::fs::copy(&ref_path, &crash_path).unwrap();
        Journal::truncate_records(&crash_path, keep).unwrap();
        let (revived, report) = recover_and_finish(&crash_path, config);
        if let Some(replay) = report.replay {
            assert_eq!(replay.divergences, 0, "kill at record {keep}/{total}: replay diverged: {report}");
        }
        assert_eq!(fingerprint(&revived), expected, "kill at record {keep}/{total}");
        assert_no_leaks(&revived);
        let _ = std::fs::remove_file(&crash_path);
    }
    let _ = std::fs::remove_file(&ref_path);
}

#[test]
fn crash_during_paused_flow_recovers_paused() {
    let config = JournalConfig { checkpoint_every: 3, ..Default::default() };
    let (_, ref_path) = journaled_reference("paused", config);
    let (records, _) = Journal::read(&ref_path).unwrap();
    // Kill immediately after the pause command hit the disk (and before
    // the resume did).
    let pause_at = records
        .iter()
        .position(|r| r.body.name == "command" && r.body.attr("kind") == Some("pause"))
        .expect("script pauses t1");
    let crash_path = temp_journal("paused-crash");
    std::fs::copy(&ref_path, &crash_path).unwrap();
    Journal::truncate_records(&crash_path, pause_at + 1).unwrap();
    let (mut revived, report) = Dfms::recover(&crash_path, LABEL, config, || dfms(4, 7)).unwrap();
    assert_eq!(report.replay.as_ref().unwrap().divergences, 0);
    // The recovered t1 reports paused, in its status and in the
    // recovery report.
    assert_eq!(revived.status("t1", None).unwrap().state, RunState::Paused);
    let t1 = report.flows.iter().find(|f| f.transaction == "t1").unwrap();
    assert_eq!((t1.state, t1.resumed), (RunState::Paused, true));
    // It is genuinely paused: resume succeeds (it errors on anything
    // not paused), and the run then drains to completion.
    revived.resume("t1").expect("t1 recovered in the paused state");
    revived.pump();
    assert_eq!(revived.status("t1", None).unwrap().state, RunState::Completed);
    let _ = std::fs::remove_file(&crash_path);
    let _ = std::fs::remove_file(&ref_path);
}

#[test]
fn crash_mid_transfer_replays_the_transfer_to_completion() {
    let config = JournalConfig { checkpoint_every: 3, ..Default::default() };
    let (_, ref_path) = journaled_reference("transfer", config);
    let (records, _) = Journal::read(&ref_path).unwrap();
    // The cross-site replicate of /chaos/big runs inside the pumpUntil
    // after t2's submission. Kill right after that pump command was
    // journaled but before any of its derived transitions: the command
    // replays to completion, staging included.
    let submit_t2 = records
        .iter()
        .position(|r| {
            r.body.name == "command"
                && r.body.attr("kind") == Some("submit")
                && r.body.to_xml().contains("xfer")
        })
        .or_else(|| {
            records.iter().position(|r| {
                r.body.name == "command"
                    && r.body.attr("kind") == Some("submitFlow")
                    && r.body.to_xml().contains("xfer")
            })
        })
        .expect("script submits the transfer flow");
    let pump_after = submit_t2
        + 1
        + records[submit_t2 + 1..]
            .iter()
            .position(|r| r.body.name == "command" && r.body.attr("kind") == Some("pumpUntil"))
            .expect("a pump follows the transfer submission");
    let crash_path = temp_journal("transfer-crash");
    std::fs::copy(&ref_path, &crash_path).unwrap();
    Journal::truncate_records(&crash_path, pump_after + 1).unwrap();
    let (revived, report) = Dfms::recover(&crash_path, LABEL, config, || dfms(4, 7)).unwrap();
    assert_eq!(report.replay.unwrap().divergences, 0);
    // The replicate finished during replay: both replicas exist.
    let obj = revived.grid().stat_object(&LogicalPath::parse("/chaos/big").unwrap()).unwrap();
    assert_eq!(obj.replicas.len(), 2, "mid-transfer crash must not lose the staging replicate");
    assert_no_leaks(&revived);
    let _ = std::fs::remove_file(&crash_path);
    let _ = std::fs::remove_file(&ref_path);
}

#[test]
fn crash_between_checkpoint_and_first_tail_record() {
    let config = JournalConfig { checkpoint_every: 3, ..Default::default() };
    let (reference, ref_path) = journaled_reference("ckpt", config);
    let expected = fingerprint(&reference);
    let (records, _) = Journal::read(&ref_path).unwrap();
    let ckpt_at = records
        .iter()
        .position(|r| r.body.name == "checkpoint")
        .expect("checkpoint_every=3 writes checkpoints");
    let crash_path = temp_journal("ckpt-crash");
    std::fs::copy(&ref_path, &crash_path).unwrap();
    Journal::truncate_records(&crash_path, ckpt_at + 1).unwrap();
    let (revived, report) = recover_and_finish(&crash_path, config);
    let replay = report.replay.unwrap();
    assert_eq!(replay.divergences, 0);
    // The `provenance` transitions compaction kept ahead of the
    // checkpoint seeded the completed-step memo, and replay accounted
    // every one of those steps as a skip.
    assert!(
        replay.steps_skipped_restart > 0,
        "a post-checkpoint crash must fast-forward the checkpointed steps: {report}"
    );
    assert_eq!(fingerprint(&revived), expected);
    let _ = std::fs::remove_file(&crash_path);
    let _ = std::fs::remove_file(&ref_path);
}

#[test]
fn torn_tail_is_truncated_and_recovery_proceeds() {
    let config = JournalConfig { checkpoint_every: 3, ..Default::default() };
    let (reference, ref_path) = journaled_reference("torn", config);
    let expected = fingerprint(&reference);
    // Chop the file mid-record: a crash during a write leaves a frame
    // whose length/CRC cannot verify.
    let crash_path = temp_journal("torn-crash");
    let bytes = std::fs::read(&ref_path).unwrap();
    std::fs::write(&crash_path, &bytes[..bytes.len() - 7]).unwrap();
    let (revived, report) = recover_and_finish(&crash_path, config);
    let replay = report.replay.unwrap();
    assert!(replay.truncated_bytes > 0, "the torn frame must be reported: {report}");
    assert_eq!(replay.divergences, 0);
    assert_eq!(fingerprint(&revived), expected);
    let _ = std::fs::remove_file(&crash_path);
    let _ = std::fs::remove_file(&ref_path);
}

// ----------------------------------------------------------------------
// Checkpoints and compaction
// ----------------------------------------------------------------------

#[test]
fn checkpoints_summarize_live_runs_only_whatever_the_history() {
    let config = JournalConfig { checkpoint_every: 0, ..Default::default() };
    let path = temp_journal("history-independence");
    let mut d = dfms(4, 7);
    d.attach_journal(&path, LABEL, config).unwrap();
    let mut sizes = Vec::new();
    let mut completed = 0;
    for target in [20, 200] {
        while completed < target {
            d.submit_flow("u", exec_flow(&format!("done{completed}"), 1, 30)).unwrap();
            completed += 1;
        }
        d.pump();
        // Two runs left in flight: one pending, one paused.
        let live = [
            d.submit_flow("u", exec_flow(&format!("live{target}a"), 2, 600)).unwrap(),
            d.submit_flow("u", exec_flow(&format!("live{target}b"), 2, 600)).unwrap(),
        ];
        d.pause(&live[1]).unwrap();
        d.checkpoint().unwrap().expect("journaled");
        let (records, _) = Journal::read(&path).unwrap();
        let checkpoint = &records.iter().rev().find(|r| r.body.name == "checkpoint").unwrap().body;
        assert!(checkpoint.child("provenance").is_none(), "no provenance snapshot after {target} flows");
        let flows: Vec<&str> = checkpoint
            .child("flows")
            .expect("a flow summary")
            .children_named("flow")
            .map(|f| f.attr("transaction").unwrap())
            .collect();
        assert_eq!(flows, live.iter().map(String::as_str).collect::<Vec<_>>(), "after {target} flows");
        sizes.push(checkpoint.to_xml().len());
        // Finish the live pair so the next round starts from history only.
        d.resume(&live[1]).unwrap();
        d.pump();
        completed += 2;
    }
    // Ten times the history, the same checkpoint give or take the
    // digits of a few counters.
    assert!(sizes[1] <= sizes[0] + 16, "checkpoint grew with history: {sizes:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn compaction_never_changes_recovery() {
    let mut outcomes = Vec::new();
    for every in [0, 1, 3] {
        let config = JournalConfig { checkpoint_every: every, ..Default::default() };
        let (reference, path) = journaled_reference(&format!("cadence{every}"), config);
        let expected = fingerprint(&reference);
        drop(reference);
        let (revived, report) = Dfms::recover(&path, LABEL, config, || dfms(4, 7)).unwrap();
        let replay = report.replay.unwrap();
        assert_eq!(replay.divergences, 0, "checkpoint_every {every}: {report}");
        assert_eq!(fingerprint(&revived), expected, "checkpoint_every {every}");
        outcomes.push((every, fingerprint(&revived), replay.steps_skipped_restart));
        let _ = std::fs::remove_file(&path);
    }
    for (every, print, skipped) in &outcomes[1..] {
        assert_eq!(print, &outcomes[0].1, "checkpoint_every {every} changed the recovered state");
        assert_eq!(*skipped, outcomes[0].2, "checkpoint_every {every} changed steps_skipped_restart");
    }
    assert!(outcomes[0].2 > 0, "the script completes steps before the crash");
}

/// A journal of [`crash_script`] with `checkpoint_every` 3, written by
/// an engine whose checkpoints still embedded a provenance snapshot
/// (and whose compaction dropped the `provenance` transitions behind
/// it). Its last checkpoint is the only on-disk copy of those records.
const PROVENANCE_CHECKPOINT_JOURNAL: &str = "journal_fixtures/chaos_every3_provenance_checkpoint.dgj";

#[test]
fn journals_with_provenance_checkpoints_keep_recovering() {
    let config = JournalConfig { checkpoint_every: 3, ..Default::default() };
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests").join(PROVENANCE_CHECKPOINT_JOURNAL);
    let path = temp_journal("provenance-checkpoint");
    std::fs::copy(&fixture, &path).unwrap();
    let (records, _) = Journal::read(&path).unwrap();
    assert!(records.iter().any(|r| r.body.name == "checkpoint" && r.body.child("provenance").is_some()));

    // What the engine that wrote the fixture reached, and then again
    // with one more flow run live between the crashes.
    let (mut reference, ref_path) = journaled_reference("provenance-checkpoint-ref", config);
    let script_print = fingerprint(&reference);
    reference.submit_flow("u", exec_flow("gamma", 3, 60)).unwrap();
    reference.pump();
    let extended_print = fingerprint(&reference);

    // Cycle 1: recover the old journal. The skip counts are the ones
    // the writing engine's own recovery reported.
    let (mut revived, report) = Dfms::recover(&path, LABEL, config, || dfms(4, 7)).unwrap();
    let replay = report.replay.unwrap();
    assert_eq!((replay.commands_replayed, replay.divergences, replay.steps_skipped_restart), (16, 0, 15));
    assert_eq!(fingerprint(&revived), script_print);
    revived.submit_flow("u", exec_flow("gamma", 3, 60)).unwrap();
    revived.pump();
    drop(revived);

    // Cycle 2: the file now mixes the old snapshot checkpoint with
    // provenance transitions; the memo must still cover every step.
    let (revived, report) = Dfms::recover(&path, LABEL, config, || dfms(4, 7)).unwrap();
    let replay = report.replay.unwrap();
    assert_eq!((replay.commands_replayed, replay.divergences, replay.steps_skipped_restart), (18, 0, 18));
    assert_eq!(fingerprint(&revived), extended_print);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ref_path);
}

#[test]
fn recovery_journals_again_the_provenance_a_crash_cut_off() {
    let config = JournalConfig { checkpoint_every: 3, ..Default::default() };
    let (reference, ref_path) = journaled_reference("cut-provenance", config);
    let expected = fingerprint(&reference);
    drop(reference);
    let full = temp_journal("cut-provenance-full");
    std::fs::copy(&ref_path, &full).unwrap();
    let (_, report) = Dfms::recover(&full, LABEL, config, || dfms(4, 7)).unwrap();
    let all_completed = report.replay.unwrap().steps_skipped_restart;

    // Crash right after the final pump command reached the disk: the
    // steps it completed have no `provenance` transition in the file.
    let (records, _) = Journal::read(&ref_path).unwrap();
    let last_command = records.iter().rposition(|r| r.body.name == "command").unwrap();
    Journal::truncate_records(&ref_path, last_command + 1).unwrap();
    let (revived, report) = Dfms::recover(&ref_path, LABEL, config, || dfms(4, 7)).unwrap();
    let replay = report.replay.unwrap();
    assert_eq!(replay.divergences, 0);
    assert!(replay.steps_skipped_restart < all_completed, "the cut must lose memo entries: {report}");
    assert_eq!(fingerprint(&revived), expected);
    drop(revived);

    // The first recovery put them back, so the second one's memo is whole.
    let (revived, report) = Dfms::recover(&ref_path, LABEL, config, || dfms(4, 7)).unwrap();
    let replay = report.replay.unwrap();
    assert_eq!((replay.divergences, replay.steps_skipped_restart), (0, all_completed));
    assert_eq!(fingerprint(&revived), expected);
    let _ = std::fs::remove_file(&full);
    let _ = std::fs::remove_file(&ref_path);
}

/// Flip one bit of the byte at `at` in the file at `path`, in place.
fn flip_bit(path: &Path, at: u64) {
    use std::io::{Read, Seek, SeekFrom, Write};
    let mut f = std::fs::OpenOptions::new().read(true).write(true).open(path).unwrap();
    let mut byte = [0u8];
    f.seek(SeekFrom::Start(at)).unwrap();
    f.read_exact(&mut byte).unwrap();
    f.seek(SeekFrom::Start(at)).unwrap();
    f.write_all(&[byte[0] ^ 0x40]).unwrap();
}

#[test]
fn a_failed_compaction_does_not_checkpoint_every_later_command() {
    let config = JournalConfig { checkpoint_every: 4, ..Default::default() };
    let path = temp_journal("failed-compaction");
    let mut d = dfms(4, 7);
    d.attach_journal(&path, LABEL, config).unwrap();
    for i in 0..4 {
        d.submit_flow("u", exec_flow(&format!("pre{i}"), 1, 30)).unwrap();
    }
    let counter = |d: &Dfms, name: &str| d.obs().snapshot().counter("journal", name);
    assert_eq!(counter(&d, "checkpoints"), 1);
    // Corrupt the first submit command, a frame every compaction keeps:
    // header (8 bytes), the genesis frame, then into the command payload.
    let bytes = std::fs::read(&path).unwrap();
    let genesis_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as u64;
    let at = 8 + 8 + genesis_len + 8 + 12;
    flip_bit(&path, at);

    for _ in 0..12 {
        d.pump();
    }
    flip_bit(&path, at); // repair, so the whole file reads back
    let (records, _) = Journal::read(&path).unwrap();
    let in_file = records.iter().filter(|r| r.body.name == "checkpoint").count() as u64;
    assert_eq!(in_file, 4, "12 commands at checkpoint_every 4 append 3 checkpoints after the first");
    assert_eq!(counter(&d, "checkpoints"), in_file);
    assert_eq!(counter(&d, "errors"), 3, "every refused compaction is reported");
    drop(d);
    let (_, report) = Dfms::recover(&path, LABEL, config, || dfms(4, 7)).unwrap();
    assert_eq!(report.replay.unwrap().divergences, 0);
    let _ = std::fs::remove_file(&path);
}

// ----------------------------------------------------------------------
// Federation: kill at every bus-message boundary
// ----------------------------------------------------------------------

const FED_SHARDS: &[(&str, &[&str])] =
    &[("alpha", &["/alpha", "/mir-a"]), ("beta", &["/beta", "/mir-b"])];

fn fed_factory(name: &str) -> Dfms {
    dfms(2, if name == "alpha" { 1 } else { 2 })
}

fn fed_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dgf-chaos-fed-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fed_fabric(dir: &Path, config: JournalConfig) -> Fabric {
    let mut fabric = Fabric::journaled(dir, LABEL, config);
    for (name, prefixes) in FED_SHARDS {
        fabric.add_shard(name, prefixes, fed_factory(name)).unwrap();
    }
    fabric
}

fn zone_flow(name: &str, p: &str) -> Flow {
    let mut b = FlowBuilder::sequential(name);
    let mut at = String::new();
    for (i, seg) in p.trim_start_matches('/').split('/').enumerate() {
        at.push('/');
        at.push_str(seg);
        b = b.step(format!("mk{i}"), DglOperation::CreateCollection { path: at.clone() });
    }
    b.build().unwrap()
}

/// Two federated runs — a sequential hand-off chain and a parallel
/// fan-out — so the bus carries delegates and acks in both patterns.
/// Returns the federated transactions.
fn fed_script(fabric: &mut Fabric) -> Result<Vec<String>, FabricError> {
    let survey = FlowBuilder::sequential("survey")
        .flow(zone_flow("stage", "/alpha/data"))
        .flow(zone_flow("archive", "/beta/vault"))
        .build()
        .unwrap();
    let mirror = FlowBuilder::parallel("mirror")
        .flow(zone_flow("a", "/mir-a/copy"))
        .flow(zone_flow("b", "/mir-b/copy"))
        .build()
        .unwrap();
    let mut txns = Vec::new();
    for (id, flow) in [("f1", survey), ("f2", mirror)] {
        let (_, resp) = fabric.route(DataGridRequest::flow(id, "u", flow).asynchronous())?;
        txns.push(resp.transaction().to_owned());
    }
    fabric.pump()?;
    Ok(txns)
}

/// Everything a federation must rebuild, as one comparable string:
/// each shard's engine fingerprint plus every federated run's status.
fn fed_fingerprint(fabric: &Fabric, txns: &[String]) -> String {
    let mut out = String::new();
    for (name, _) in FED_SHARDS {
        out.push_str(&format!("=== {name} ===\n{}\n", fingerprint(fabric.engine(name).unwrap())));
    }
    for txn in txns {
        out.push_str(&format!("{txn}: {}\n", fabric.federated_status(txn)));
    }
    out
}

#[test]
fn kill_at_every_bus_message_boundary_recovers_byte_identically() {
    let config = JournalConfig::default();

    // Reference federation: never interrupted.
    let ref_dir = fed_temp_dir("ref");
    let mut reference = fed_fabric(&ref_dir, config);
    let txns = fed_script(&mut reference).unwrap();
    assert_eq!(txns, vec!["x1".to_owned(), "x2".to_owned()]);
    let expected = fed_fingerprint(&reference, &txns);
    let expected_report = reference.federation_report(&FederationQuery::report()).to_element().to_xml_pretty();
    let bus_counters = |fabric: &Fabric| {
        let snap = fabric.obs().snapshot();
        ["bus.published", "bus.delivered", "federated.submitted", "federated.settled"]
            .map(|name| (name, snap.counter("fabric", name)))
    };
    let expected_counters = bus_counters(&reference);
    let deliveries = reference.deliveries();
    assert!(deliveries >= 8, "scenario too small to be interesting: {deliveries} deliveries");

    // Kill at every delivery, on both sides of the receiver's journal
    // write, and demand a byte-identical federation after reboot.
    for k in 1..=deliveries {
        for point in [BusCrashPoint::BeforeFrame, BusCrashPoint::AfterFrame] {
            let dir = fed_temp_dir(&format!("k{k}-{point:?}"));
            let mut fabric = fed_fabric(&dir, config);
            fabric.inject_bus_crash(k, point);
            match fed_script(&mut fabric) {
                Err(FabricError::CrashInjected { delivery, .. }) => assert_eq!(delivery, k),
                other => panic!("kill at delivery {k} ({point:?}): expected a crash, got {other:?}"),
            }
            drop(fabric); // hard stop: engine and bus WALs stay on disk

            let (mut revived, reports) =
                Fabric::recover(&dir, LABEL, config, FED_SHARDS, fed_factory).unwrap();
            for report in &reports {
                if let Some(replay) = &report.replay {
                    assert_eq!(replay.divergences, 0, "kill at delivery {k} ({point:?}): engine replay diverged");
                }
            }
            revived.pump().unwrap();
            assert_eq!(
                fed_fingerprint(&revived, &txns),
                expected,
                "kill at delivery {k}/{deliveries} ({point:?})"
            );
            let report = revived.federation_report(&FederationQuery::report());
            assert_eq!(report.bus.in_flight, 0, "kill at delivery {k} ({point:?}): bus never drained");
            // The whole federation, hand-off table and bus position
            // included, and the fabric's own counters.
            assert_eq!(
                report.to_element().to_xml_pretty(),
                expected_report,
                "kill at delivery {k}/{deliveries} ({point:?}): federation report"
            );
            assert_eq!(bus_counters(&revived), expected_counters, "kill at delivery {k} ({point:?})");
            for (name, _) in FED_SHARDS {
                assert_no_leaks(revived.engine(name).unwrap());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let _ = std::fs::remove_dir_all(&ref_dir);
}

// ----------------------------------------------------------------------
// SLA alerts across crashes: lifecycles must replay byte-identically
// ----------------------------------------------------------------------

fn sla_flow(name: &str, steps: usize, secs: u32, deadline: u32) -> Flow {
    let mut b = FlowBuilder::sequential(name).with_deadline_secs(deadline);
    for i in 0..steps {
        b = b.step(
            format!("s{i}"),
            DglOperation::Execute {
                code: format!("{name}-job{i}"),
                nominal_secs: secs.to_string(),
                resource_type: None,
                inputs: vec![],
                outputs: vec![],
            },
        );
    }
    b.build().unwrap()
}

/// Alerts through every lifecycle edge: t1 meets its deadline (pending
/// → resolved, never fired); t2 blows through its 180 s budget while
/// paused and resumed (pending → firing → resolved, breached); t3 is
/// stopped inside its budget (pending → resolved at the stop).
fn alert_script() -> Vec<Cmd> {
    vec![
        Cmd::Submit(sla_flow("sla-meet", 1, 60, 600)), // t1
        Cmd::PumpUntil(120),
        Cmd::Submit(sla_flow("sla-burn", 5, 300, 180)), // t2
        Cmd::PumpUntil(400), // fires at 300 s
        Cmd::Pause("t2"),
        Cmd::PumpUntil(600),
        Cmd::Resume("t2"),
        Cmd::Submit(sla_flow("sla-halt", 3, 300, 900)), // t3
        Cmd::PumpUntil(700),
        Cmd::Stop("t3"), // t3 resolves at the stop, within budget
        Cmd::Pump, // t2 resolves, breached
    ]
}

#[test]
fn crash_replays_alert_lifecycles_identically() {
    // No checkpoints: compaction would drop early transition records,
    // and this test wants the full alert lifecycle on disk (the
    // checkpointed paths are exercised by the boundary test above).
    let config = JournalConfig { checkpoint_every: u64::MAX, ..Default::default() };
    let ref_path = temp_journal("alerts");
    let mut reference = dfms(4, 7);
    reference.attach_journal(&ref_path, LABEL, config).unwrap();
    for cmd in &alert_script() {
        cmd.apply(&mut reference);
    }
    let expected = reference.why_query(&WhyQuery::new()).to_element().to_xml_pretty();

    // The scenario really exercised both lifecycles, and the partition
    // invariant holds for the analyzed flows.
    let report = reference.why_query(&WhyQuery::new());
    assert!(report.alerts.iter().any(|a| a.breached && a.fired_at_us.is_some()), "{report}");
    assert!(report.alerts.iter().any(|a| !a.breached && a.fired_at_us.is_none()), "{report}");
    let halted = report.alerts.iter().find(|a| a.flow == "sla-halt").expect("t3 has an objective");
    assert_eq!((halted.resolved_at_us, halted.fired_at_us), (Some(700_000_000), None), "{report}");
    assert_attribution_invariant(&reference);

    // Alert transitions are first-class journal records.
    let (records, _) = Journal::read(&ref_path).unwrap();
    let alert_states: Vec<&str> = records
        .iter()
        .filter(|r| r.body.name == "transition" && r.body.attr("kind") == Some("alert"))
        .filter_map(|r| r.body.attr("state"))
        .collect();
    assert!(alert_states.contains(&"pending") && alert_states.contains(&"firing") && alert_states.contains(&"resolved"), "{alert_states:?}");

    // Kill at every record boundary: replay never diverges, and the
    // full whyReport — paths, bottlenecks, and alert lifecycles with
    // their burn rates — is byte-identical after recovery.
    let total = records.len();
    for keep in 0..=total {
        let crash_path = temp_journal(&format!("alerts-k{keep}"));
        std::fs::copy(&ref_path, &crash_path).unwrap();
        Journal::truncate_records(&crash_path, keep).unwrap();
        let (mut revived, boot) = Dfms::recover(&crash_path, LABEL, config, || dfms(4, 7)).unwrap();
        let replayed = boot.replay.as_ref().map(|r| r.commands_replayed).unwrap_or(0) as usize;
        if let Some(replay) = boot.replay {
            assert_eq!(replay.divergences, 0, "kill at record {keep}/{total}: alert replay diverged");
        }
        for cmd in &alert_script()[replayed..] {
            cmd.apply(&mut revived);
        }
        assert_eq!(
            revived.why_query(&WhyQuery::new()).to_element().to_xml_pretty(),
            expected,
            "kill at record {keep}/{total}: recovered whyReport drifted"
        );
        let _ = std::fs::remove_file(&crash_path);
    }
    let _ = std::fs::remove_file(&ref_path);
}
