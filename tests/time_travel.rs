//! Time-travel semantics: replay-to-ordinal must be *exactly* a
//! truncated recovery (byte-identical provenance), `diff(a, a)` must
//! always be empty, bisection must stay inside its probe budget, and
//! the Perfetto exporter must round-trip large traces without
//! truncation. Journals are sampled from the same command vocabulary
//! the chaos suite kills engines with (see `tests/chaos.rs` and
//! `docs/TIME_TRAVEL.md`).

use datagridflows::dfms::TimeTravel;
use datagridflows::obs::{SLICE_BEGIN, SLICE_END};
use datagridflows::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const LABEL: &str = "tt-grid";

fn dfms(domains: u32, seed: u64) -> Dfms {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    Dfms::new(DataGrid::new(topology, users), Scheduler::new(PlannerKind::CostBased, seed))
}

fn temp_journal(name: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join("dgf-time-travel-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let serial = SERIAL.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{name}-{}-{serial}.dgj", std::process::id()));
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

fn transfer_flow(name: &str) -> Flow {
    FlowBuilder::sequential(name)
        .step("mk", DglOperation::CreateCollection { path: format!("/{name}") })
        .step(
            "put",
            DglOperation::Ingest {
                path: format!("/{name}/big"),
                size: "400000000".into(),
                resource: "site0-disk".into(),
            },
        )
        .step(
            "cp",
            DglOperation::Replicate { path: format!("/{name}/big"), src: None, dst: "site1-disk".into() },
        )
        .build()
        .unwrap()
}

/// One journaled input, drawn from the chaos-test command vocabulary.
/// Lifecycle commands target `t1` (transaction ids are deterministic);
/// they may fail depending on `t1`'s state — that is fine, the failure
/// replays identically.
#[derive(Debug, Clone)]
enum Cmd {
    SubmitExec { steps: usize, secs: u32 },
    SubmitTransfer,
    PumpSecs(u64),
    Pump,
    Pause,
    Resume,
    Stop,
}

impl Cmd {
    fn apply(&self, d: &mut Dfms, serial: usize) {
        match self {
            Cmd::SubmitExec { steps, secs } => {
                drop(d.submit_flow("u", exec_flow(&format!("e{serial}"), *steps, *secs)))
            }
            Cmd::SubmitTransfer => drop(d.submit_flow("u", transfer_flow(&format!("x{serial}")))),
            Cmd::PumpSecs(secs) => drop(d.pump_until(d.now() + Duration::from_secs(*secs))),
            Cmd::Pump => drop(d.pump()),
            Cmd::Pause => drop(d.pause("t1")),
            Cmd::Resume => drop(d.resume("t1")),
            Cmd::Stop => drop(d.stop("t1")),
        }
    }
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        3 => (1usize..5, 30u32..300).prop_map(|(steps, secs)| Cmd::SubmitExec { steps, secs }),
        2 => Just(Cmd::SubmitTransfer),
        3 => (30u64..900).prop_map(Cmd::PumpSecs),
        1 => Just(Cmd::Pump),
        1 => Just(Cmd::Pause),
        1 => Just(Cmd::Resume),
        1 => Just(Cmd::Stop),
    ]
}

fn script_strategy() -> impl Strategy<Value = Vec<Cmd>> {
    proptest::collection::vec(cmd_strategy(), 3..12)
}

/// Run a script against a journaled engine and "crash" it (drop with
/// the journal as the only survivor).
fn grow_journal(name: &str, script: &[Cmd], config: JournalConfig) -> PathBuf {
    let path = temp_journal(name);
    let mut d = dfms(3, 7);
    d.attach_journal(&path, LABEL, config).unwrap();
    // A submission up front so lifecycle commands have a target.
    d.submit_flow("u", exec_flow("seed", 3, 120)).unwrap();
    for (i, cmd) in script.iter().enumerate() {
        cmd.apply(&mut d, i);
    }
    path
}

/// Everything `recover_to` promises to reproduce, as one comparable
/// string: the provenance snapshot plus every flow's status report.
fn fingerprint(d: &Dfms) -> String {
    let mut out = d.provenance().snapshot();
    for flow in d.flow_summaries() {
        out.push_str(&format!(
            "\n{} [{}] {}/{}",
            flow.transaction, flow.state, flow.steps_completed, flow.steps_total
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `recover_to(None)` and `recover_to(last_ordinal)` are the full
    /// replay: byte-identical provenance and flow state to `recover()`.
    /// And `diff(a, a)` is empty at genesis, midpoint, and end.
    #[test]
    fn recover_to_end_matches_full_recovery(script in script_strategy(), checkpoint in 0u64..5) {
        let config = JournalConfig { checkpoint_every: checkpoint, ..Default::default() };
        let path = grow_journal("prop-full", &script, config);

        // Read-only materializations first (recover() writes a fresh
        // checkpoint into the file).
        let full = Dfms::recover_to(&path, LABEL, None, || dfms(3, 7)).unwrap();
        prop_assert!(full.complete);
        let at_last = full.ordinal.map(|last| {
            Dfms::recover_to(&path, LABEL, Some(last), || dfms(3, 7)).unwrap()
        });

        let travel = TimeTravel::new(&path, LABEL, || dfms(3, 7));
        if let Some(last) = full.ordinal {
            for a in [0, last / 2, last] {
                let d = travel.diff(a, a).unwrap();
                prop_assert!(d.is_empty(), "diff({a}, {a}) not empty: {d:?}");
            }
        }

        let (recovered, report) = Dfms::recover(&path, LABEL, config, || dfms(3, 7)).unwrap();
        if let Some(replay) = report.replay {
            prop_assert_eq!(replay.divergences, 0);
        }
        let expected = fingerprint(&recovered);
        prop_assert_eq!(&fingerprint(&full.engine), &expected, "recover_to(None) diverged");
        if let Some(m) = at_last {
            prop_assert_eq!(&fingerprint(&m.engine), &expected, "recover_to(last) diverged");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// The provenance at ordinal `o` is an exact prefix of the full
    /// replay's provenance — the truncation is record-precise.
    #[test]
    fn recover_to_is_an_exact_provenance_prefix(script in script_strategy(), frac in 0u64..5) {
        let path = grow_journal("prop-prefix", &script, JournalConfig::default());
        let full = Dfms::recover_to(&path, LABEL, None, || dfms(3, 7)).unwrap();
        if let Some(last) = full.ordinal {
            let o = last * frac / 4;
            let partial = Dfms::recover_to(&path, LABEL, Some(o), || dfms(3, 7)).unwrap();
            prop_assert_eq!(partial.ordinal, Some(o));
            let full_records = full.engine.provenance().records();
            let partial_records = partial.engine.provenance().records();
            prop_assert!(partial_records.len() <= full_records.len());
            prop_assert_eq!(partial_records, &full_records[..partial_records.len()],
                "ordinal {} is not a prefix of the full replay", o);
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn bisect_stays_inside_the_probe_budget_and_is_exact() {
    // No checkpoint, so no compaction: the journal keeps every derived
    // transition and the record count bounds the ordinal count from above.
    let config = JournalConfig { checkpoint_every: 0, ..Default::default() };
    let path = temp_journal("bisect");
    let mut d = dfms(3, 7);
    d.attach_journal(&path, LABEL, config).unwrap();
    let t1 = d.submit_flow("u", exec_flow("alpha", 25, 60)).unwrap();
    let t2 = d.submit_flow("u", exec_flow("beta", 10, 300)).unwrap();
    d.pump();
    drop(d);

    let (records, _) = Journal::read(&path).unwrap();
    let budget = 1 + (records.len() as f64).log2().ceil() as u64;

    let travel = TimeTravel::new(&path, LABEL, || dfms(3, 7));
    for (txn, what) in [(t1, "alpha"), (t2.clone(), "beta")] {
        let predicate = BisectSpec::State { transaction: txn, state: RunState::Completed };
        let outcome = travel.bisect(&predicate).unwrap();
        assert!(
            outcome.probes <= budget,
            "{what}: {} probes over the ⌈log2({})⌉ + 1 = {budget} budget",
            outcome.probes,
            records.len()
        );
        let first = outcome.first_true.expect("both flows complete");
        // Exactness: true at `first`, false one ordinal earlier.
        let at = travel.materialize(Some(first)).unwrap();
        assert!(at.engine.holds(&predicate), "{what}: predicate false at its first-true ordinal");
        if first > 0 {
            let before = travel.materialize(Some(first - 1)).unwrap();
            assert!(!before.engine.holds(&predicate), "{what}: predicate already true at {}", first - 1);
        }
    }

    // A predicate that never holds reports so after the single full probe.
    let never = BisectSpec::State { transaction: t2, state: RunState::Paused };
    let outcome = travel.bisect(&never).unwrap();
    assert_eq!(outcome.first_true, None);
    assert_eq!(outcome.probes, 1);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn diff_reports_exactly_the_delta_between_ordinals() {
    let path = temp_journal("diff");
    let mut d = dfms(3, 7);
    d.attach_journal(&path, LABEL, JournalConfig::default()).unwrap();
    let t1 = d.submit_flow("u", exec_flow("alpha", 6, 120)).unwrap();
    d.pump();
    drop(d);

    let travel = TimeTravel::new(&path, LABEL, || dfms(3, 7));
    let last = travel.last_ordinal().unwrap().expect("the flow derives transitions");
    let delta = travel.diff(0, last).unwrap();
    assert_eq!((delta.from, delta.to), (0, last));
    assert!(!delta.is_empty());
    assert!(delta.time_from_us <= delta.time_to_us);
    // The whole run's provenance beyond ordinal 0 shows up, and the
    // flow's state change is reported once.
    let full = travel.materialize(None).unwrap();
    let at_zero = travel.materialize(Some(0)).unwrap();
    assert_eq!(
        delta.provenance_added.len(),
        full.engine.provenance().records().len() - at_zero.engine.provenance().records().len()
    );
    assert_eq!(delta.flows.len(), 1);
    assert_eq!(delta.flows[0].transaction, t1);
    assert_eq!(delta.flows[0].to_state, Some(RunState::Completed));
    // Order-insensitive: diff(b, a) == diff(a, b).
    assert_eq!(travel.diff(last, 0).unwrap(), delta);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn time_travel_queries_answer_over_the_dgl_wire() {
    use datagridflows::dfms::DfmsServer;

    let path = temp_journal("wire");
    let factory = || dfms(3, 7);
    let server = DfmsServer::start_journaled(factory(), &path, LABEL, JournalConfig::default()).unwrap();
    server.with_engine(|engine| {
        engine.enable_time_travel(factory).unwrap();
        engine.submit_flow("u", exec_flow("alpha", 4, 120)).unwrap();
        engine.pump();
    });
    let handle = server.handle();

    let report = handle.time_travel(TimeTravelQuery::last()).expect("server alive");
    assert!(report.enabled);
    let last = report.last_ordinal.expect("the flow derived transitions");
    let inspect = report.inspect.expect("inspect op returns a summary");
    assert!(inspect.complete);
    assert_eq!(inspect.flows.len(), 1);
    assert_eq!(inspect.flows[0].state, RunState::Completed);

    let report = handle.time_travel(TimeTravelQuery::inspect(0)).unwrap();
    assert_eq!(report.inspect.unwrap().ordinal, Some(0));

    let report = handle.time_travel(TimeTravelQuery::diff(0, last)).unwrap();
    let diff = report.diff.expect("diff op returns a summary");
    assert_eq!((diff.from, diff.to), (0, last));
    assert!(diff.provenance_added > 0);

    let report = handle
        .time_travel(TimeTravelQuery::bisect(BisectSpec::State {
            transaction: "t1".into(),
            state: RunState::Completed,
        }))
        .unwrap();
    let bisect = report.bisect.expect("bisect op returns a summary");
    assert!(bisect.first_true.is_some());
    assert!(bisect.probes >= 1);

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn time_travel_is_refused_without_a_console() {
    let mut d = dfms(2, 1);
    let report = d.time_travel_query(&TimeTravelQuery::last());
    assert!(!report.enabled);
    assert!(report.inspect.is_none() && report.diff.is_none() && report.bisect.is_none());
}

#[test]
fn perfetto_round_trips_a_hundred_thousand_spans() {
    // A synthetic forest: 50 traces of 2000 spans each, in overlapping
    // waves so the greedy lane packer actually has to multiplex.
    let mut spans = Vec::with_capacity(100_000);
    for trace in 0..50u64 {
        for i in 0..2_000u64 {
            let id = trace * 2_000 + i + 1;
            let start = i * 7;
            let open = i % 97 == 0;
            spans.push(Span {
                id: SpanId(id),
                trace: TraceId(trace + 1),
                parent: (i > 0).then(|| SpanId(trace * 2_000 + 1)),
                kind: SpanKind::ALL[(i % 6) as usize],
                name: format!("span-{id}"),
                start: SimTime(start),
                end: (!open).then(|| SimTime(start + 5 + i % 11)),
                attrs: vec![("seq".into(), i.to_string())],
            });
        }
    }
    assert_eq!(spans.len(), 100_000);
    let closed = spans.iter().filter(|s| s.end.is_some()).count();

    let bytes = to_perfetto_trace(&spans);
    let packets = decode_perfetto(&bytes).expect("the writer emits well-formed protobuf");

    let begins = packets
        .iter()
        .filter(|p| p.event.as_ref().is_some_and(|e| e.event_type == SLICE_BEGIN))
        .count();
    let ends = packets
        .iter()
        .filter(|p| p.event.as_ref().is_some_and(|e| e.event_type == SLICE_END))
        .count();
    assert_eq!(begins, 100_000, "every span must survive the export");
    assert_eq!(ends, closed, "every closed span must get its end packet");

    // Every event lands on a declared track, and lanes chain to roots.
    use std::collections::BTreeMap;
    let tracks: BTreeMap<u64, Option<u64>> = packets
        .iter()
        .filter_map(|p| p.track.as_ref())
        .map(|t| (t.uuid, t.parent_uuid))
        .collect();
    let roots = tracks.values().filter(|p| p.is_none()).count();
    assert_eq!(roots, 50, "one root track per trace");
    for p in &packets {
        if let Some(e) = &p.event {
            let parent = tracks.get(&e.track_uuid).expect("event on an undeclared track");
            assert!(parent.is_some_and(|pu| tracks.contains_key(&pu)), "lane without a root");
        }
    }

    // Determinism: the exporter is a pure function of the span list.
    assert_eq!(bytes, to_perfetto_trace(&spans));
}
