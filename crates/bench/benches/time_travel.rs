//! Time-travel micro-bench: `Dfms::recover_to` latency as a function
//! of the requested ordinal's distance from genesis.
//!
//! Replay-to-ordinal re-drives the command script from genesis and
//! halts once the limiting transition derives, so materialization cost
//! should grow roughly linearly with the *target* ordinal, not the
//! journal length — stepping to early history is cheap even in a long
//! journal, and a bisection's probes get cheaper as the search narrows
//! toward early ordinals. Plain `main` harness (like `experiments`),
//! so it runs in offline environments where criterion is stubbed:
//!
//! ```sh
//! cargo bench -p dgf-bench --bench time_travel
//! ```

use datagridflows::prelude::*;
use dgf_bench::{mesh_dfms, notify_flow, print_table};
use std::path::{Path, PathBuf};
use std::time::Instant;

const LABEL: &str = "bench-grid";
const FLOWS: usize = 400;
const STEPS: usize = 5;

fn factory() -> Dfms {
    mesh_dfms(2, PlannerKind::CostBased, 42)
}

/// Grow a journal with `FLOWS` drained flows of `STEPS` steps each and
/// return its path. Checkpoints are disabled so the journal keeps the
/// full transition history (the worst case for replay length).
fn grow_journal() -> PathBuf {
    let dir = std::env::temp_dir().join("dgf-bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("time-travel-{}.dgj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut d = factory();
    let config = JournalConfig { checkpoint_every: 0, ..Default::default() };
    d.attach_journal(&path, LABEL, config).unwrap();
    for i in 0..FLOWS {
        d.submit_flow("u", notify_flow(&format!("f{i}"), STEPS)).unwrap();
        d.pump();
    }
    path
}

fn time_materialize(path: &Path, ordinal: Option<u64>) -> (f64, u64) {
    let start = Instant::now();
    let m = Dfms::recover_to(path, LABEL, ordinal, factory).expect("journal replays cleanly");
    (start.elapsed().as_secs_f64() * 1e3, m.transitions_derived)
}

fn main() {
    let path = grow_journal();
    let full = Dfms::recover_to(&path, LABEL, None, factory).expect("journal replays cleanly");
    let last = full.ordinal.expect("the grown journal derives transitions");

    let mut rows = Vec::new();
    for pct in [0u64, 10, 25, 50, 75, 100] {
        let ordinal = last * pct / 100;
        let (ms, derived) = time_materialize(&path, Some(ordinal));
        rows.push(vec![
            format!("{pct}%"),
            ordinal.to_string(),
            derived.to_string(),
            format!("{ms:.2}"),
        ]);
    }
    let (ms, derived) = time_materialize(&path, None);
    rows.push(vec!["end".into(), format!("{last} (full)"), derived.to_string(), format!("{ms:.2}")]);

    print_table(
        &format!("recover_to latency vs ordinal distance ({FLOWS} flows x {STEPS} steps, no compaction)"),
        &["distance", "ordinal", "transitions", "ms"],
        &rows,
    );
    let _ = std::fs::remove_file(&path);
}
