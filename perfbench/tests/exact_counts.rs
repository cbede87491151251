//! Two traced runs of one seed give identical count metrics, so later
//! changes can cite them as counts. Each run is its own process at the
//! sizes the benchmark reports; a tiny time budget makes each workload
//! run only its minimum number of repetitions.

use dgf_perfbench::{EXACT_COUNTS, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// Run the traced binary once and parse its result line into
/// (correct, metric name → value text).
fn traced_run(workload: &str, seed: u64) -> (bool, BTreeMap<String, String>) {
    let work = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exact-counts");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench-traced"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.01",
        ])
        .arg("--work-dir")
        .arg(&work)
        .output()
        .expect("the traced binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let correct = last.starts_with("{\"correct\": true,");
    // The result line is flat enough to read without a JSON parser:
    // `"name": {"value": v, "unit": "u"}` per metric.
    let mut metrics = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {last}"));
        let rest = &last[at + key.len()..];
        let value = &rest[..rest.find(',').expect("value then unit")];
        metrics.insert(name.to_owned(), value.to_owned());
    }
    (correct, metrics)
}

#[test]
fn two_traced_runs_of_one_seed_count_identically() {
    for workload in WORKLOADS {
        let (ok_a, a) = traced_run(workload, 5);
        let (ok_b, b) = traced_run(workload, 5);
        assert!(ok_a && ok_b, "{workload}: a traced run failed its checks");
        for name in EXACT_COUNTS {
            // On the wire the client thread blocks for each reply; the
            // allocation it makes to register as a waiter can land in
            // whichever server phase is open, so allocation counts there
            // are exact only up to that race.
            if workload == "wire_ingest" && name.contains("allocs") {
                continue;
            }
            assert_eq!(
                a[name], b[name],
                "{workload}: {name} differs between two runs of seed 5"
            );
        }
    }
}
