//! Property tests over the provenance store's durable form: any store —
//! arbitrary records, every outcome, optional trace links — survives a
//! snapshot → restore round trip byte- and field-identically, so a
//! snapshot an operator exports (or one an older journal checkpoint
//! embeds) restores exactly. Crash recovery does not restore the store
//! from snapshots: replay re-derives every record from the journaled
//! commands, and the journaled `provenance` transitions only tell it
//! which steps had completed.

use dgf_dfms::{ProvenanceRecord, ProvenanceStore, StepOutcome};
use dgf_simgrid::SimTime;
use proptest::prelude::*;

fn outcome_strategy() -> impl Strategy<Value = StepOutcome> {
    prop_oneof![
        Just(StepOutcome::Completed),
        Just(StepOutcome::Failed),
        Just(StepOutcome::Skipped),
        Just(StepOutcome::Stopped),
    ]
}

/// Attribute-safe text: printable, no leading/trailing space runs (the
/// codec preserves interior whitespace but trims nothing).
fn text() -> impl Strategy<Value = String> {
    "[!-~]([ -~]{0,16}[!-~])?".prop_map(|s| s.replace(['<', '>', '&', '"'], "_"))
}

fn record_strategy() -> impl Strategy<Value = ProvenanceRecord> {
    (
        (
            "[a-z][a-z0-9-]{0,10}",
            "t[1-9][0-9]{0,3}",
            "(/[0-9]{1,2}){0,4}",
            text(),
            "[a-z]{1,12}",
            "[a-z][a-z0-9]{0,8}",
        ),
        (0u64..1_000_000, 0u64..1_000_000),
        outcome_strategy(),
        text(),
        proptest::option::of(any::<u64>()),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|((lineage, transaction, node, name, verb, user), (t0, dt), outcome, detail, trace_id, span_id)| {
            ProvenanceRecord {
                lineage,
                transaction,
                node: if node.is_empty() { "/".into() } else { node },
                name,
                verb,
                user,
                started: SimTime(t0),
                finished: SimTime(t0 + dt),
                outcome,
                detail,
                trace_id,
                span_id,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// restore(snapshot(store)) reproduces every record, in order.
    #[test]
    fn snapshot_restore_round_trips(records in proptest::collection::vec(record_strategy(), 0..24)) {
        let mut store = ProvenanceStore::new();
        for r in &records {
            store.record(r.clone());
        }
        let xml = store.snapshot();
        let restored = ProvenanceStore::restore(&xml).expect("snapshot parses back");
        prop_assert_eq!(restored.records(), &records[..]);
        // And the round trip is a fixed point: snapshotting the restored
        // store yields the identical document.
        prop_assert_eq!(restored.snapshot(), xml);
    }

    /// The restore path never panics on arbitrary input — it returns a
    /// typed `ProvenanceError` instead.
    #[test]
    fn restore_is_panic_free(input in "\\PC{0,300}") {
        let _ = ProvenanceStore::restore(&input);
    }
}
