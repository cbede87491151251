//! Integration tests for the DataGrid: the full operation vocabulary,
//! ACL enforcement, replicas, events, and the non-transactional semantics
//! the paper calls out in §2.2.

use dgf_dgms::{
    DataGrid, DgmsError, EventKind, LogicalPath, MetaQuery, MetaTriple, Operation, Permission,
    Principal, UserRegistry,
};
use dgf_simgrid::{GridBuilder, GridPreset, SimTime};

fn path(s: &str) -> LogicalPath {
    LogicalPath::parse(s).unwrap()
}

/// A 3-site mesh grid with users `arun` (admin), `jon`, and `reena`.
fn grid() -> DataGrid {
    let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 3 });
    let mut users = UserRegistry::new();
    let d0 = topology.domain_ids().next().unwrap();
    users.register(Principal::new("arun", d0));
    users.register(Principal::new("jon", d0));
    users.register(Principal::new("reena", d0).with_vo("scec"));
    users.make_admin("arun").unwrap();
    let mut g = DataGrid::new(topology, users);
    g.execute("arun", Operation::CreateCollection { path: path("/home") }, SimTime::ZERO).unwrap();
    for user in ["jon", "reena"] {
        g.execute(
            "arun",
            Operation::SetPermission { path: path("/home"), grantee: user.into(), permission: Permission::Write },
            SimTime::ZERO,
        )
        .unwrap();
    }
    g
}

fn ingest(g: &mut DataGrid, who: &str, p: &str, size: u64, resource: &str) {
    g.execute(who, Operation::Ingest { path: path(p), size, resource: resource.into() }, SimTime::ZERO)
        .unwrap();
}

#[test]
fn ingest_creates_an_object_with_one_replica() {
    let mut g = grid();
    g.execute("arun", Operation::CreateCollection { path: path("/home/scec") }, SimTime::ZERO).unwrap();
    let (d, events) = g
        .execute(
            "arun",
            Operation::Ingest { path: path("/home/scec/a.dat"), size: 80_000_000, resource: "site0-disk".into() },
            SimTime::ZERO,
        )
        .unwrap();
    // 80 MB onto an 80 MB/s disk ≈ 1 s.
    assert_eq!(d.as_secs(), 1);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].kind, EventKind::ObjectIngested);
    let obj = g.stat_object(&path("/home/scec/a.dat")).unwrap();
    assert_eq!(obj.size, 80_000_000);
    assert_eq!(obj.replicas.len(), 1);
    assert_eq!(obj.owner, "arun");
    // Space was consumed on the physical resource.
    let sid = g.resolve_resource("site0-disk").unwrap();
    assert_eq!(g.topology().storage(sid).used, 80_000_000);
}

#[test]
fn replicate_copies_across_the_wan_and_migrate_moves() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 1_000_000_000, "site0-disk");
    let (d, events) = g
        .execute(
            "arun",
            Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site1-disk".into() },
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(events[0].kind, EventKind::ObjectReplicated);
    // 1 GB over an 80 MB/s-disk-bound WAN path: ≥ 10 s.
    assert!(d.as_secs() >= 10, "{d}");
    assert_eq!(g.stat_object(&path("/home/a.dat")).unwrap().replicas.len(), 2);

    let (_, events) = g
        .execute(
            "arun",
            Operation::Migrate { path: path("/home/a.dat"), from: "site1-disk".into(), to: "site1-archive".into() },
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(events[0].kind, EventKind::ObjectMigrated);
    let obj = g.stat_object(&path("/home/a.dat")).unwrap();
    assert_eq!(obj.replicas.len(), 2, "migrate keeps the replica count");
    let archive = g.resolve_resource("site1-archive").unwrap();
    let old = g.resolve_resource("site1-disk").unwrap();
    assert!(obj.replica_on(archive).is_some());
    assert!(obj.replica_on(old).is_none());
    assert_eq!(g.topology().storage(old).used, 0, "space released on migration");
}

#[test]
fn duplicate_replicas_and_missing_sources_are_rejected() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 1_000, "site0-disk");
    let dup = g.execute(
        "arun",
        Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site0-disk".into() },
        SimTime::ZERO,
    );
    assert!(matches!(dup, Err(DgmsError::ReplicaExists { .. })));
    let missing_src = g.execute(
        "arun",
        Operation::Replicate { path: path("/home/a.dat"), src: Some("site2-disk".into()), dst: "site1-disk".into() },
        SimTime::ZERO,
    );
    assert!(matches!(missing_src, Err(DgmsError::NoUsableReplica(_))));
}

#[test]
fn trim_and_delete_release_space() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 5_000, "site0-disk");
    g.execute("arun", Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    let (_, events) = g
        .execute("arun", Operation::Trim { path: path("/home/a.dat"), resource: "site0-disk".into() }, SimTime::ZERO)
        .unwrap();
    assert_eq!(events[0].kind, EventKind::ReplicaTrimmed);
    assert_eq!(g.stat_object(&path("/home/a.dat")).unwrap().replicas.len(), 1);
    let (_, events) = g.execute("arun", Operation::Delete { path: path("/home/a.dat") }, SimTime::ZERO).unwrap();
    assert_eq!(events[0].kind, EventKind::ObjectDeleted);
    assert!(!g.exists(&path("/home/a.dat")));
    for name in ["site0-disk", "site1-disk"] {
        let sid = g.resolve_resource(name).unwrap();
        assert_eq!(g.topology().storage(sid).used, 0, "{name}");
    }
}

#[test]
fn checksum_register_verify_and_corruption_detection() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/lib.pdf", 1 << 20, "site0-disk");
    // Register the canonical digest.
    let (_, ev) = g
        .execute("arun", Operation::Checksum { path: path("/home/lib.pdf"), resource: None, register: true }, SimTime::ZERO)
        .unwrap();
    assert_eq!(ev[0].kind, EventKind::ChecksumVerified);
    assert!(g.stat_object(&path("/home/lib.pdf")).unwrap().checksum.is_some());

    // Replicate, then verify the replica: matches.
    g.execute("arun", Operation::Replicate { path: path("/home/lib.pdf"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    let (_, ev) = g
        .execute(
            "arun",
            Operation::Checksum { path: path("/home/lib.pdf"), resource: Some("site1-disk".into()), register: false },
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(ev[0].kind, EventKind::ChecksumVerified);

    // Corrupt the replica; verification now fails and invalidates it.
    g.corrupt_replica(&path("/home/lib.pdf"), "site1-disk").unwrap();
    let (_, ev) = g
        .execute(
            "arun",
            Operation::Checksum { path: path("/home/lib.pdf"), resource: Some("site1-disk".into()), register: false },
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(ev[0].kind, EventKind::ChecksumMismatch);
    let sid = g.resolve_resource("site1-disk").unwrap();
    let obj = g.stat_object(&path("/home/lib.pdf")).unwrap();
    assert!(!obj.replica_on(sid).unwrap().valid, "corrupted replica invalidated");
    // Replica selection now avoids the invalid copy.
    assert_ne!(g.best_replica(&path("/home/lib.pdf")).unwrap(), sid);
}

#[test]
fn corrupted_source_propagates_on_replicate() {
    // The hazard the UCSD integrity pipeline exists to catch: replication
    // copies bytes, not intent.
    let mut g = grid();
    ingest(&mut g, "arun", "/home/x", 1000, "site0-disk");
    g.execute("arun", Operation::Checksum { path: path("/home/x"), resource: None, register: true }, SimTime::ZERO).unwrap();
    g.corrupt_replica(&path("/home/x"), "site0-disk").unwrap();
    g.execute(
        "arun",
        Operation::Replicate { path: path("/home/x"), src: Some("site0-disk".into()), dst: "site1-disk".into() },
        SimTime::ZERO,
    )
    .unwrap();
    let (_, ev) = g
        .execute(
            "arun",
            Operation::Checksum { path: path("/home/x"), resource: Some("site1-disk".into()), register: false },
            SimTime::ZERO,
        )
        .unwrap();
    assert_eq!(ev[0].kind, EventKind::ChecksumMismatch, "corruption propagated to the new replica");
}

#[test]
fn acl_enforcement_across_users() {
    let mut g = grid();
    g.execute("jon", Operation::CreateCollection { path: path("/home/jon") }, SimTime::ZERO).unwrap();
    ingest(&mut g, "jon", "/home/jon/p.dat", 100, "site0-disk");

    // reena cannot read, write, or delete jon's data...
    let read = g.execute("reena", Operation::Checksum { path: path("/home/jon/p.dat"), resource: None, register: false }, SimTime::ZERO);
    assert!(matches!(read, Err(DgmsError::AccessDenied { .. })));
    let write = g.execute("reena", Operation::SetMetadata { path: path("/home/jon/p.dat"), triple: MetaTriple::new("a", "b") }, SimTime::ZERO);
    assert!(matches!(write, Err(DgmsError::AccessDenied { .. })));
    let ingest_err = g.execute("reena", Operation::Ingest { path: path("/home/jon/q.dat"), size: 1, resource: "site0-disk".into() }, SimTime::ZERO);
    assert!(matches!(ingest_err, Err(DgmsError::AccessDenied { .. })));

    // ...until jon grants read; then reading works but writing still fails.
    g.execute("jon", Operation::SetPermission { path: path("/home/jon/p.dat"), grantee: "reena".into(), permission: Permission::Read }, SimTime::ZERO)
        .unwrap();
    g.execute("reena", Operation::Checksum { path: path("/home/jon/p.dat"), resource: None, register: false }, SimTime::ZERO)
        .unwrap();
    let still_denied = g.execute("reena", Operation::Delete { path: path("/home/jon/p.dat") }, SimTime::ZERO);
    assert!(matches!(still_denied, Err(DgmsError::AccessDenied { .. })));

    // The grid admin bypasses ACLs entirely (SRB zone admin behaviour).
    g.execute("arun", Operation::Delete { path: path("/home/jon/p.dat") }, SimTime::ZERO).unwrap();
}

#[test]
fn metadata_queries_drive_collection_iteration() {
    let mut g = grid();
    g.execute("arun", Operation::CreateCollection { path: path("/home/scec") }, SimTime::ZERO).unwrap();
    for i in 0..6 {
        let p = format!("/home/scec/f{i}.dat");
        ingest(&mut g, "arun", &p, 10, "site0-disk");
        let kind = if i % 2 == 0 { "seismogram" } else { "log" };
        g.execute("arun", Operation::SetMetadata { path: path(&p), triple: MetaTriple::new("type", kind) }, SimTime::ZERO)
            .unwrap();
    }
    let seismograms = g.query(&path("/home/scec"), &MetaQuery::Eq("type".into(), "seismogram".into()));
    assert_eq!(seismograms.len(), 3);
    let all = g.query(&path("/home/scec"), &MetaQuery::Any);
    assert_eq!(all.len(), 6);
    let scoped = g.query(&path("/home"), &MetaQuery::Eq("type".into(), "log".into()));
    assert_eq!(scoped.len(), 3, "scope covers the subtree");
    assert!(g.query(&path("/home/scec"), &MetaQuery::Eq("type".into(), "nope".into())).is_empty());
}

#[test]
fn listing_and_collection_management() {
    let mut g = grid();
    g.execute("arun", Operation::CreateCollection { path: path("/home/a") }, SimTime::ZERO).unwrap();
    g.execute("arun", Operation::CreateCollection { path: path("/home/a/b") }, SimTime::ZERO).unwrap();
    ingest(&mut g, "arun", "/home/a/x.dat", 1, "site0-disk");
    let children = g.list(&path("/home/a")).unwrap();
    assert_eq!(children, vec![path("/home/a/b"), path("/home/a/x.dat")]);
    // Cannot remove a non-empty collection.
    assert!(matches!(
        g.execute("arun", Operation::RemoveCollection { path: path("/home/a") }, SimTime::ZERO),
        Err(DgmsError::NotEmpty(_))
    ));
    g.execute("arun", Operation::RemoveCollection { path: path("/home/a/b") }, SimTime::ZERO).unwrap();
    g.execute("arun", Operation::Delete { path: path("/home/a/x.dat") }, SimTime::ZERO).unwrap();
    g.execute("arun", Operation::RemoveCollection { path: path("/home/a") }, SimTime::ZERO).unwrap();
    assert!(!g.exists(&path("/home/a")));
    // Ingest into a missing parent fails.
    assert!(matches!(
        g.execute("arun", Operation::Ingest { path: path("/home/a/y"), size: 1, resource: "site0-disk".into() }, SimTime::ZERO),
        Err(DgmsError::NoParent(_))
    ));
}

#[test]
fn capacity_exhaustion_and_offline_resources() {
    let mut g = grid();
    let sid = g.resolve_resource("site0-disk").unwrap();
    let free = g.topology().storage(sid).free();
    assert!(matches!(
        g.execute("arun", Operation::Ingest { path: path("/home/huge"), size: free + 1, resource: "site0-disk".into() }, SimTime::ZERO),
        Err(DgmsError::InsufficientSpace { .. })
    ));
    g.topology_mut().storage_mut(sid).online = false;
    assert!(matches!(
        g.execute("arun", Operation::Ingest { path: path("/home/x"), size: 1, resource: "site0-disk".into() }, SimTime::ZERO),
        Err(DgmsError::ResourceUnavailable(_))
    ));
}

#[test]
fn two_phase_protocol_defers_visibility_and_abort_releases() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 1_000_000, "site0-disk");
    let pending = g
        .begin(
            "arun",
            Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site1-disk".into() },
            SimTime::ZERO,
        )
        .unwrap();
    // Not visible yet, but space is already reserved.
    assert_eq!(g.stat_object(&path("/home/a.dat")).unwrap().replicas.len(), 1);
    let dst = g.resolve_resource("site1-disk").unwrap();
    assert_eq!(g.topology().storage(dst).used, 1_000_000);
    let duration = pending.duration;
    g.complete(pending, SimTime::ZERO + duration).unwrap();
    assert_eq!(g.stat_object(&path("/home/a.dat")).unwrap().replicas.len(), 2);

    // Abort path: reservation released, nothing committed.
    let pending = g
        .begin(
            "arun",
            Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site2-disk".into() },
            SimTime::ZERO,
        )
        .unwrap();
    let dst2 = g.resolve_resource("site2-disk").unwrap();
    assert_eq!(g.topology().storage(dst2).used, 1_000_000);
    g.abort(pending);
    assert_eq!(g.topology().storage(dst2).used, 0);
    assert_eq!(g.stat_object(&path("/home/a.dat")).unwrap().replicas.len(), 2);
}

#[test]
fn non_transactional_completion_after_concurrent_delete() {
    // §2.2: "Unlike database transactions datagrid processes are not
    // transactional." A replicate in flight while the object is deleted
    // fails at commit and leaves the world as the delete made it.
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 1_000, "site0-disk");
    let pending = g
        .begin("arun", Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    g.execute("arun", Operation::Delete { path: path("/home/a.dat") }, SimTime::ZERO).unwrap();
    let err = g.complete(pending, SimTime::from_secs(60)).unwrap_err();
    assert!(matches!(err, DgmsError::NotFound(_)));
    let dst = g.resolve_resource("site1-disk").unwrap();
    assert_eq!(g.topology().storage(dst).used, 0, "failed commit released its reservation");
}

#[test]
fn concurrent_transfers_share_links_via_pending_ops() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 1_000_000_000, "site0-disk");
    ingest(&mut g, "arun", "/home/b.dat", 1_000_000_000, "site0-disk");
    let p1 = g
        .begin("arun", Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    let p2 = g
        .begin("arun", Operation::Replicate { path: path("/home/b.dat"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    assert!(p2.duration > p1.duration, "second transfer sees a shared link: {} vs {}", p2.duration, p1.duration);
    g.complete(p1, SimTime::from_secs(100)).unwrap();
    g.complete(p2, SimTime::from_secs(100)).unwrap();
}

#[test]
fn events_form_an_ordered_audit_trail() {
    let mut g = grid();
    let before = g.next_event_seq();
    ingest(&mut g, "arun", "/home/a.dat", 1, "site0-disk");
    g.execute("arun", Operation::SetMetadata { path: path("/home/a.dat"), triple: MetaTriple::new("k", "v") }, SimTime::from_secs(5))
        .unwrap();
    let events = g.events_since(before);
    assert_eq!(events.len(), 2);
    assert_eq!(events[0].kind, EventKind::ObjectIngested);
    assert_eq!(events[1].kind, EventKind::MetadataSet);
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    assert_eq!(g.events_since(g.next_event_seq()).len(), 0);
}

#[test]
fn stats_track_logical_vs_physical_bytes() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 500, "site0-disk");
    g.execute("arun", Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    let s = g.stats();
    assert_eq!(s.objects, 1);
    assert_eq!(s.collections, 1); // /home
    assert_eq!(s.replicas, 2);
    assert_eq!(s.logical_bytes, 500);
    assert_eq!(s.physical_bytes, 1000);
}

#[test]
fn offline_storage_excluded_from_replica_selection() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/a.dat", 1_000, "site0-disk");
    g.execute("arun", Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    let s0 = g.resolve_resource("site0-disk").unwrap();
    g.topology_mut().storage_mut(s0).online = false;
    let best = g.best_replica(&path("/home/a.dat")).unwrap();
    assert_eq!(best, g.resolve_resource("site1-disk").unwrap());
    // Replication reads route around the offline copy automatically.
    let pending = g
        .begin("arun", Operation::Replicate { path: path("/home/a.dat"), src: None, dst: "site2-disk".into() }, SimTime::ZERO)
        .unwrap();
    g.complete(pending, SimTime::from_secs(60)).unwrap();
    // With every replica offline, selection fails.
    let s1 = g.resolve_resource("site1-disk").unwrap();
    let s2 = g.resolve_resource("site2-disk").unwrap();
    g.topology_mut().storage_mut(s1).online = false;
    g.topology_mut().storage_mut(s2).online = false;
    assert!(matches!(g.best_replica(&path("/home/a.dat")), Err(DgmsError::NoUsableReplica(_))));
}

#[test]
fn unknown_users_and_resources_fail_cleanly() {
    let mut g = grid();
    assert!(matches!(
        g.execute("ghost", Operation::CreateCollection { path: path("/home/x") }, SimTime::ZERO),
        Err(DgmsError::UnknownUser(_))
    ));
    assert!(matches!(
        g.execute("arun", Operation::Ingest { path: path("/home/x"), size: 1, resource: "no-such".into() }, SimTime::ZERO),
        Err(DgmsError::UnknownResource(_))
    ));
    assert!(matches!(
        g.execute("arun", Operation::SetPermission { path: path("/home"), grantee: "ghost".into(), permission: Permission::Read }, SimTime::ZERO),
        Err(DgmsError::UnknownUser(_))
    ));
}

#[test]
fn rename_is_catalog_only_and_preserves_replicas() {
    let mut g = grid();
    ingest(&mut g, "arun", "/home/old-name", 1_000, "site0-disk");
    g.execute("arun", Operation::Replicate { path: path("/home/old-name"), src: None, dst: "site1-disk".into() }, SimTime::ZERO)
        .unwrap();
    g.execute("arun", Operation::Checksum { path: path("/home/old-name"), resource: None, register: true }, SimTime::ZERO)
        .unwrap();
    let digest_before = g.stat_object(&path("/home/old-name")).unwrap().checksum.clone();
    let used_before: u64 = g.topology().storage_ids().map(|s| g.topology().storage(s).used).sum();
    let (d, events) = g
        .execute("arun", Operation::Rename { path: path("/home/old-name"), to: path("/home/new-name") }, SimTime::ZERO)
        .unwrap();
    assert_eq!(events[0].kind, EventKind::ObjectRenamed);
    assert!(d.as_secs() < 1, "pure catalog operation");
    assert!(!g.exists(&path("/home/old-name")));
    let obj = g.stat_object(&path("/home/new-name")).unwrap();
    assert_eq!(obj.path, path("/home/new-name"));
    assert_eq!(obj.replicas.len(), 2, "replicas untouched");
    assert_eq!(obj.checksum, digest_before, "checksum travels with the object");
    let used_after: u64 = g.topology().storage_ids().map(|s| g.topology().storage(s).used).sum();
    assert_eq!(used_after, used_before, "no bytes moved or allocated");
    // Renaming over an existing path fails.
    ingest(&mut g, "arun", "/home/other", 1, "site0-disk");
    assert!(matches!(
        g.execute("arun", Operation::Rename { path: path("/home/new-name"), to: path("/home/other") }, SimTime::ZERO),
        Err(DgmsError::AlreadyExists(_))
    ));
    // Renaming into a missing parent fails.
    assert!(matches!(
        g.execute("arun", Operation::Rename { path: path("/home/new-name"), to: path("/nowhere/x") }, SimTime::ZERO),
        Err(DgmsError::NoParent(_))
    ));
}

#[test]
fn collection_rename_rekeys_the_whole_subtree() {
    let mut g = grid();
    g.execute("arun", Operation::CreateCollection { path: path("/home/proj") }, SimTime::ZERO).unwrap();
    g.execute("arun", Operation::CreateCollection { path: path("/home/proj/sub") }, SimTime::ZERO).unwrap();
    ingest(&mut g, "arun", "/home/proj/a.dat", 10, "site0-disk");
    ingest(&mut g, "arun", "/home/proj/sub/b.dat", 10, "site0-disk");
    g.execute("arun", Operation::Rename { path: path("/home/proj"), to: path("/home/proj-2005") }, SimTime::ZERO)
        .unwrap();
    assert!(!g.exists(&path("/home/proj")));
    assert!(g.exists(&path("/home/proj-2005")));
    assert!(g.exists(&path("/home/proj-2005/a.dat")));
    assert!(g.exists(&path("/home/proj-2005/sub/b.dat")));
    // The objects' own path fields were updated too.
    assert_eq!(g.stat_object(&path("/home/proj-2005/sub/b.dat")).unwrap().path, path("/home/proj-2005/sub/b.dat"));
    // Listing works at the new location.
    assert_eq!(g.list(&path("/home/proj-2005")).unwrap().len(), 2);
    // Renaming into one's own subtree is rejected.
    assert!(matches!(
        g.execute("arun", Operation::Rename { path: path("/home/proj-2005"), to: path("/home/proj-2005/sub/deeper") }, SimTime::ZERO),
        Err(DgmsError::InvalidPath { .. })
    ));
}

#[test]
fn tape_migration_is_slower_but_cheaper() {
    let mut g = {
        let topology = GridBuilder::preset(GridPreset::ImplodingStar { sources: 2 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("archivist", topology.domain_by_name("archiver").unwrap()));
        users.make_admin("archivist").unwrap();
        DataGrid::new(topology, users)
    };
    ingest(&mut g, "archivist", "/scan.dat", 3_000_000_000, "archiver-disk");
    let disk = g.resolve_resource("archiver-disk").unwrap();
    let tape = g.resolve_resource("archiver-tape").unwrap();
    let disk_cost = g.topology().storage(disk).holding_cost(3_000_000_000);
    let tape_cost = g.topology().storage(tape).holding_cost(3_000_000_000);
    assert!(tape_cost < disk_cost / 10, "tape is an order of magnitude cheaper");
    let (d, _) = g
        .execute("archivist", Operation::Migrate { path: path("/scan.dat"), from: "archiver-disk".into(), to: "archiver-tape".into() }, SimTime::ZERO)
        .unwrap();
    assert!(d.as_secs() >= 100, "3 GB to 30 MB/s tape takes ≥ 100 s, got {d}");
}

#[test]
fn siblings_below_and_above_the_separator_keep_namespace_order() {
    // After `/a`, the next byte of each sibling sorts below `/` (space,
    // `!`, `.`) or above it (`é`), so plain string order would interleave
    // them with `/a`'s subtree; namespace order must not.
    let mut g = grid();
    let t = SimTime::ZERO;
    let collections = ["/a", "/a/b", "/a!x", "/a b", "/a.c", "/aé"];
    for c in collections {
        g.execute("arun", Operation::CreateCollection { path: path(c) }, t).unwrap();
    }
    for c in collections {
        let obj = format!("{c}/obj");
        ingest(&mut g, "arun", &obj, 1, "site0-disk");
        g.execute("arun", Operation::SetMetadata { path: path(&obj), triple: MetaTriple::new("tag", "x") }, t).unwrap();
    }
    let paths = |v: &[&str]| v.iter().map(|p| path(p)).collect::<Vec<_>>();
    let tagged = MetaQuery::Has("tag".into());

    assert_eq!(g.list(&LogicalPath::root()).unwrap(), paths(&["/a", "/a b", "/a!x", "/a.c", "/aé", "/home"]));
    assert_eq!(g.list(&path("/a")).unwrap(), paths(&["/a/b", "/a/obj"]));
    assert_eq!(
        g.query(&LogicalPath::root(), &tagged),
        paths(&["/a/b/obj", "/a/obj", "/a b/obj", "/a!x/obj", "/a.c/obj", "/aé/obj"])
    );
    assert_eq!(g.query(&path("/a"), &tagged), paths(&["/a/b/obj", "/a/obj"]), "siblings stay out of /a's subtree");

    // A collection rename re-keys its subtree and nothing else.
    g.execute("arun", Operation::Rename { path: path("/a"), to: path("/a-y") }, t).unwrap();
    assert_eq!(g.list(&LogicalPath::root()).unwrap(), paths(&["/a b", "/a!x", "/a-y", "/a.c", "/aé", "/home"]));
    assert_eq!(g.list(&path("/a-y")).unwrap(), paths(&["/a-y/b", "/a-y/obj"]));
    assert_eq!(
        g.query(&LogicalPath::root(), &tagged),
        paths(&["/a b/obj", "/a!x/obj", "/a-y/b/obj", "/a-y/obj", "/a.c/obj", "/aé/obj"])
    );
    assert_eq!(g.stat_object(&path("/a-y/b/obj")).unwrap().path, path("/a-y/b/obj"));
    assert!(!g.exists(&path("/a")) && !g.exists(&path("/a/b/obj")));
}
