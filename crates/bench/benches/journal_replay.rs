//! Crash-recovery micro-bench: `Dfms::recover` cost as a function of
//! journal length and checkpoint cadence.
//!
//! Recovery re-drives every journaled command (that is what buys
//! byte-identical state), but checkpoints with compaction drop the
//! derived transition records other than `provenance` ones, and stale
//! checkpoints, so the bytes read and records verified at boot track
//! the commands issued and steps completed rather than the much larger
//! full transition history. Plain `main` harness (like
//! `experiments`), so it runs in offline environments where criterion
//! is stubbed:
//!
//! ```sh
//! cargo bench -p dgf-bench --bench journal_replay
//! ```

use datagridflows::prelude::*;
use dgf_bench::{mesh_dfms, notify_flow, print_table};
use std::path::PathBuf;
use std::time::Instant;

const LABEL: &str = "bench-grid";

fn factory() -> Dfms {
    mesh_dfms(2, PlannerKind::CostBased, 42)
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dgf-bench");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("replay-{tag}-{}.dgj", std::process::id()))
}

/// Run `commands` submit+drain rounds against a journaled engine and
/// return the journal path.
fn grow_journal(tag: &str, commands: usize, config: JournalConfig) -> PathBuf {
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    let mut d = factory();
    d.attach_journal(&path, LABEL, config).unwrap();
    for i in 0..commands {
        d.submit_flow("u", notify_flow(&format!("f{i}"), 4)).unwrap();
        d.pump();
    }
    path
}

fn main() {
    println!("Journal replay bench: recovery time vs history length and checkpoint cadence");
    println!("(checkpoint interval 0 = never; compaction on checkpoint enabled by default)\n");

    let mut rows = Vec::new();
    for commands in [16usize, 64, 256] {
        for every in [0u64, 8, 64] {
            let config = JournalConfig { checkpoint_every: every, ..Default::default() };
            let tag = format!("c{commands}-e{every}");
            let path = grow_journal(&tag, commands, config);
            let bytes = std::fs::metadata(&path).unwrap().len();
            let (records, _) = Journal::read(&path).unwrap();

            let start = Instant::now();
            let (_revived, report) = Dfms::recover(&path, LABEL, config, factory).unwrap();
            let elapsed = start.elapsed();

            let replay = report.replay.unwrap_or_default();
            rows.push(vec![
                commands.to_string(),
                if every == 0 { "never".into() } else { every.to_string() },
                records.len().to_string(),
                format!("{}", bytes / 1024),
                replay.commands_replayed.to_string(),
                format!("{:.2}", elapsed.as_secs_f64() * 1e3),
            ]);
            let _ = std::fs::remove_file(&path);
        }
    }
    print_table(
        "recovery cost",
        &["commands", "ckpt every", "records on disk", "KiB", "replayed", "recover ms"],
        &rows,
    );
    println!("\nCheckpoints + compaction shed the derived transition records except provenance, so");
    println!("the file and the boot-time read/verify work scale with commands issued and steps");
    println!("completed, not with every transition fired.");
}
