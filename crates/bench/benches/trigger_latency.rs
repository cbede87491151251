//! E4 micro-bench: trigger matching cost per event as the registered
//! trigger population grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datagridflows::prelude::*;

fn grid_with_events(events: usize) -> DataGrid {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 1 });
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    let mut g = DataGrid::new(topology, users);
    g.execute("u", Operation::CreateCollection { path: LogicalPath::parse("/in").unwrap() }, SimTime::ZERO).unwrap();
    for i in 0..events {
        g.execute(
            "u",
            Operation::Ingest {
                path: LogicalPath::parse(&format!("/in/f{i}")).unwrap(),
                size: 100,
                resource: "site0-disk".into(),
            },
            SimTime::ZERO,
        )
        .unwrap();
    }
    g
}

fn engine_with_triggers(n: usize) -> TriggerEngine {
    let mut engine = TriggerEngine::new();
    for t in 0..n {
        engine.register(
            Trigger::new(
                format!("t{t}"),
                "u",
                LogicalPath::parse("/in").unwrap(),
                TriggerAction::Notify(format!("t{t} fired on ${{event.path}}")),
            )
            .on(&[EventKind::ObjectIngested])
            .when(Expr::parse("object.size > 50 && event.principal == 'u'").unwrap()),
        );
    }
    engine
}

fn bench_poll(c: &mut Criterion) {
    let events = 200usize;
    let grid = grid_with_events(events);
    let mut group = c.benchmark_group("trigger_poll");
    group.throughput(Throughput::Elements(events as u64));
    for triggers in [1usize, 10, 100] {
        group.bench_with_input(BenchmarkId::from_parameter(triggers), &triggers, |b, &triggers| {
            b.iter(|| {
                // Fresh engine per iteration: the cursor must re-scan.
                let mut engine = engine_with_triggers(triggers);
                let firings = engine.poll(&grid, 0);
                assert_eq!(firings.len(), events * triggers);
                firings.len()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_poll);
criterion_main!(benches);
