//! Property tests over the DGMS: random operation sequences preserve the
//! catalog/storage invariants.

use dgf_dgms::{DataGrid, LogicalPath, Operation, Principal, UserRegistry};
use dgf_simgrid::{GridBuilder, GridPreset, SimTime};
use proptest::prelude::*;

/// The operations the fuzzer draws from, in template form.
#[derive(Debug, Clone)]
enum OpTemplate {
    Ingest { obj: u8, resource: u8, size: u64 },
    Replicate { obj: u8, resource: u8 },
    Migrate { obj: u8, from: u8, to: u8 },
    Trim { obj: u8, resource: u8 },
    Delete { obj: u8 },
    Checksum { obj: u8, register: bool },
    Corrupt { obj: u8, resource: u8 },
}

fn op_strategy() -> impl Strategy<Value = OpTemplate> {
    prop_oneof![
        (0u8..6, 0u8..6, 1u64..1_000_000).prop_map(|(obj, resource, size)| OpTemplate::Ingest { obj, resource, size }),
        (0u8..6, 0u8..6).prop_map(|(obj, resource)| OpTemplate::Replicate { obj, resource }),
        (0u8..6, 0u8..6, 0u8..6).prop_map(|(obj, from, to)| OpTemplate::Migrate { obj, from, to }),
        (0u8..6, 0u8..6).prop_map(|(obj, resource)| OpTemplate::Trim { obj, resource }),
        (0u8..6).prop_map(|obj| OpTemplate::Delete { obj }),
        (0u8..6, any::<bool>()).prop_map(|(obj, register)| OpTemplate::Checksum { obj, register }),
        (0u8..6, 0u8..6).prop_map(|(obj, resource)| OpTemplate::Corrupt { obj, resource }),
    ]
}

fn grid() -> (DataGrid, Vec<String>) {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
    let resources: Vec<String> = topology.storage_ids().map(|s| topology.storage(s).name.clone()).collect();
    let mut users = UserRegistry::new();
    users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
    users.make_admin("u").unwrap();
    (DataGrid::new(topology, users), resources)
}

fn obj_path(i: u8) -> LogicalPath {
    LogicalPath::parse(&format!("/obj{i}")).unwrap()
}

/// Sum of live replica bytes per storage resource, from the catalog.
fn catalog_usage(grid: &DataGrid) -> Vec<u64> {
    grid.topology()
        .storage_ids()
        .map(|sid| {
            grid.objects_on(sid)
                .iter()
                .map(|p| grid.stat_object(p).map(|o| o.size).unwrap_or(0))
                .sum()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any sequence of (possibly failing) operations:
    /// * storage accounting equals the catalog's replica bytes,
    /// * every live object keeps ≥1 replica,
    /// * event sequence numbers are strictly increasing,
    /// * stats() agrees with a full recount.
    #[test]
    fn random_op_sequences_preserve_invariants(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let (mut g, resources) = grid();
        let now = SimTime::ZERO;
        for op in &ops {
            // Each op may legitimately fail (missing object, replica
            // exists, no space, invalid replica...). Failures must leave
            // the grid consistent; that is the property under test.
            let result = match op {
                OpTemplate::Ingest { obj, resource, size } => g.execute(
                    "u",
                    Operation::Ingest { path: obj_path(*obj), size: *size, resource: resources[*resource as usize % resources.len()].clone() },
                    now,
                ),
                OpTemplate::Replicate { obj, resource } => g.execute(
                    "u",
                    Operation::Replicate { path: obj_path(*obj), src: None, dst: resources[*resource as usize % resources.len()].clone() },
                    now,
                ),
                OpTemplate::Migrate { obj, from, to } => g.execute(
                    "u",
                    Operation::Migrate {
                        path: obj_path(*obj),
                        from: resources[*from as usize % resources.len()].clone(),
                        to: resources[*to as usize % resources.len()].clone(),
                    },
                    now,
                ),
                OpTemplate::Trim { obj, resource } => g.execute(
                    "u",
                    Operation::Trim { path: obj_path(*obj), resource: resources[*resource as usize % resources.len()].clone() },
                    now,
                ),
                OpTemplate::Delete { obj } => g.execute("u", Operation::Delete { path: obj_path(*obj) }, now),
                OpTemplate::Checksum { obj, register } => g.execute(
                    "u",
                    Operation::Checksum { path: obj_path(*obj), resource: None, register: *register },
                    now,
                ),
                OpTemplate::Corrupt { obj, resource } => {
                    let _ = g.corrupt_replica(&obj_path(*obj), &resources[*resource as usize % resources.len()]);
                    continue;
                }
            };
            let _ = result; // failures are fine; consistency is not optional
        }

        // Storage accounting == catalog bytes, resource by resource.
        let by_catalog = catalog_usage(&g);
        for (sid, expected) in g.topology().storage_ids().zip(by_catalog) {
            prop_assert_eq!(g.topology().storage(sid).used, expected, "resource {}", g.topology().storage(sid).name);
        }

        // Objects always keep at least one replica.
        for i in 0..6u8 {
            if let Ok(obj) = g.stat_object(&obj_path(i)) {
                prop_assert!(!obj.replicas.is_empty(), "{} has no replicas", obj.path);
            }
        }

        // Event stream is strictly ordered and stats are consistent.
        let events = g.events();
        prop_assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let stats = g.stats();
        let recount: usize = (0..6u8).filter(|i| g.stat_object(&obj_path(*i)).is_ok()).count();
        prop_assert_eq!(stats.objects, recount);
        let replica_recount: usize =
            (0..6u8).filter_map(|i| g.stat_object(&obj_path(i)).ok()).map(|o| o.replicas.len()).sum();
        prop_assert_eq!(stats.replicas, replica_recount);
    }

    /// Checksums: an uncorrupted object always verifies; a corrupted
    /// replica never does (until repaired).
    #[test]
    fn checksum_detects_exactly_corruption(size in 1u64..10_000_000, corrupt in any::<bool>()) {
        let (mut g, _) = grid();
        let now = SimTime::ZERO;
        g.execute("u", Operation::Ingest { path: obj_path(0), size, resource: "site0-disk".into() }, now).unwrap();
        g.execute("u", Operation::Checksum { path: obj_path(0), resource: None, register: true }, now).unwrap();
        if corrupt {
            g.corrupt_replica(&obj_path(0), "site0-disk").unwrap();
        }
        let (_, events) = g
            .execute("u", Operation::Checksum { path: obj_path(0), resource: Some("site0-disk".into()), register: false }, now)
            .unwrap();
        let mismatch = events.iter().any(|e| e.kind == dgf_dgms::EventKind::ChecksumMismatch);
        prop_assert_eq!(mismatch, corrupt);
    }

    /// Logical paths parse/display round-trip.
    #[test]
    fn paths_round_trip(segments in proptest::collection::vec("[a-zA-Z0-9_.-]{1,8}", 1..6)) {
        prop_assume!(segments.iter().all(|s| s != "." && s != ".."));
        let text = format!("/{}", segments.join("/"));
        let parsed = LogicalPath::parse(&text).unwrap();
        prop_assert_eq!(parsed.to_string(), text.clone());
        let reparsed = LogicalPath::parse(&parsed.to_string()).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }
}

/// The characters path segments draw from in the order property: bytes
/// below `/` (space, `!`, `-`, `.`), digits, letters and multi-byte
/// UTF-8. A small alphabet makes shared prefixes common.
const SEGMENT_CHARS: [char; 10] = [' ', '!', '-', '.', '0', '9', 'A', 'a', '\u{e9}', '\u{2603}'];

/// A normalized path from segments of `SEGMENT_CHARS` indices; the
/// relative segments `.` and `..` are skipped.
fn path_of(segments: &[Vec<usize>]) -> LogicalPath {
    let mut text = String::new();
    for segment in segments {
        let segment: String = segment.iter().map(|&i| SEGMENT_CHARS[i]).collect();
        if segment != "." && segment != ".." {
            text.push('/');
            text.push_str(&segment);
        }
    }
    LogicalPath::parse(if text.is_empty() { "/" } else { &text }).unwrap()
}

fn segments() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..SEGMENT_CHARS.len(), 1..4), 0..3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `LogicalPath` order is segment-wise order, the reference kept
    /// here, and agrees with equality.
    #[test]
    fn path_order_is_segment_order(common in segments(), tail_a in segments(), tail_b in segments()) {
        let a = path_of(&[common.clone(), tail_a].concat());
        let b = path_of(&[common, tail_b].concat());
        let reference = a.segments().cmp(b.segments());
        prop_assert_eq!(a.cmp(&b), reference, "{} vs {}", a, b);
        prop_assert_eq!(b.cmp(&a), reference.reverse());
        prop_assert_eq!(reference.is_eq(), a == b);
    }
}
