//! [`DataGrid`]: the logical namespace façade — data virtualization over
//! the simulated physical grid.

use crate::acl::{Acl, Permission, Principal, UserRegistry};
use crate::content::ContentStore;
use crate::error::DgmsError;
use crate::meta::MetaQuery;
use crate::namespace::{
    CollectionInfo, Entry, EventKind, NamespaceEvent, ObjectInfo, Replica,
};
use crate::ops::{Operation, PendingOp, PlannedEffect};
use crate::path::LogicalPath;
use dgf_simgrid::{Duration, SimTime, StorageId, Topology, TransferModel};
use std::collections::BTreeMap;

/// Latency of a pure catalog (MCAT) operation: create collection, set
/// metadata, trim, etc.
const METADATA_LATENCY: Duration = Duration(2_000); // 2 ms

/// Aggregate statistics over the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GridStats {
    /// Number of collections (excluding the implicit root).
    pub collections: usize,
    /// Number of digital entities.
    pub objects: usize,
    /// Total replicas across all objects.
    pub replicas: usize,
    /// Total logical bytes (each object counted once).
    pub logical_bytes: u64,
    /// Total physical bytes (each replica counted).
    pub physical_bytes: u64,
}

/// The Data Grid Management System: one federated logical namespace over
/// every storage resource in the [`Topology`].
///
/// All mutating operations follow the two-phase protocol:
/// [`begin`](DataGrid::begin) validates, costs, and reserves;
/// [`complete`](DataGrid::complete) commits and emits events;
/// [`abort`](DataGrid::abort) releases reservations. The single-phase
/// [`execute`](DataGrid::execute) does begin+complete back-to-back.
#[derive(Debug)]
pub struct DataGrid {
    topology: Topology,
    transfer: TransferModel,
    users: UserRegistry,
    entries: BTreeMap<LogicalPath, Entry>,
    events: Vec<NamespaceEvent>,
    next_seed: u64,
}

impl DataGrid {
    /// A grid over the given physical topology with the given users.
    ///
    /// The namespace root exists implicitly and is world-writable (real
    /// deployments immediately create per-domain home collections under
    /// it with tighter ACLs).
    pub fn new(topology: Topology, users: UserRegistry) -> Self {
        DataGrid {
            topology,
            transfer: TransferModel::new(),
            users,
            entries: BTreeMap::new(),
            events: Vec::new(),
            next_seed: 0x9d67_4000,
        }
    }

    // ------------------------------------------------------------------
    // Infrastructure access
    // ------------------------------------------------------------------

    /// The underlying physical topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Mutable topology access (failure injection, capacity changes).
    pub fn topology_mut(&mut self) -> &mut Topology {
        &mut self.topology
    }

    /// The user registry.
    pub fn users(&self) -> &UserRegistry {
        &self.users
    }

    /// Mutable user registry access.
    pub fn users_mut(&mut self) -> &mut UserRegistry {
        &mut self.users
    }

    /// The shared transfer model (for cost estimation by schedulers).
    pub fn transfer_model(&self) -> &TransferModel {
        &self.transfer
    }

    /// Resolve a logical resource name to its storage id.
    pub fn resolve_resource(&self, name: &str) -> Result<StorageId, DgmsError> {
        self.topology.storage_by_name(name).ok_or_else(|| DgmsError::UnknownResource(name.to_owned()))
    }

    // ------------------------------------------------------------------
    // Two-phase operation protocol
    // ------------------------------------------------------------------

    /// Validate, cost, and reserve an operation. No namespace change is
    /// visible until [`complete`](DataGrid::complete).
    pub fn begin(&mut self, principal: &str, op: Operation, _now: SimTime) -> Result<PendingOp, DgmsError> {
        let user = self.users.get(principal)?.clone();
        let admin = self.users.is_admin(principal);
        match &op {
            Operation::CreateCollection { path } => {
                self.check_absent(path)?;
                self.check_parent_writable(path, &user, admin)?;
                Ok(self.metadata_op(op, principal, PlannedEffect::CreateCollection))
            }
            Operation::RemoveCollection { path } => {
                let _ = self.collection(path)?;
                self.check_perm(path, &user, admin, Permission::Own, "own")?;
                if self.entries.range(path.clone()..).skip(1).take(1).any(|(p, _)| p.is_under(path)) {
                    return Err(DgmsError::NotEmpty(path.clone()));
                }
                Ok(self.metadata_op(op, principal, PlannedEffect::RemoveCollection))
            }
            Operation::Ingest { path, size, resource } => {
                self.check_absent(path)?;
                self.check_parent_writable(path, &user, admin)?;
                let storage = self.resolve_resource(resource)?;
                self.check_storage_online(storage)?;
                self.reserve_space(storage, *size)?;
                let duration = self.topology.storage(storage).access_time(*size);
                let seed = self.next_seed;
                self.next_seed += 1;
                Ok(PendingOp {
                    principal: principal.to_owned(),
                    duration,
                    bytes_moved: *size,
                    effect: PlannedEffect::Ingest { storage, seed },
                    transfer: None,
                    reserved: Some((storage, *size)),
                    op,
                })
            }
            Operation::Replicate { path, src, dst } => {
                let (src_id, dst_id, size) = self.plan_copy(path, src.as_deref(), dst, &user, admin)?;
                self.reserve_space(dst_id, size)?;
                let route = self
                    .topology
                    .route(self.topology.storage_domain(src_id), self.topology.storage_domain(dst_id))
                    .ok_or_else(|| DgmsError::ResourceUnavailable(dst.clone()))?;
                let (duration, handle) = self.transfer.begin(&self.topology, src_id, dst_id, &route, size);
                Ok(PendingOp {
                    principal: principal.to_owned(),
                    duration,
                    bytes_moved: size,
                    effect: PlannedEffect::AddReplica { src: src_id, dst: dst_id, migrate_from: None },
                    transfer: Some(handle),
                    reserved: Some((dst_id, size)),
                    op,
                })
            }
            Operation::Migrate { path, from, to } => {
                let (src_id, dst_id, size) = self.plan_copy(path, Some(from.as_str()), to, &user, admin)?;
                self.reserve_space(dst_id, size)?;
                let route = self
                    .topology
                    .route(self.topology.storage_domain(src_id), self.topology.storage_domain(dst_id))
                    .ok_or_else(|| DgmsError::ResourceUnavailable(to.clone()))?;
                let (duration, handle) = self.transfer.begin(&self.topology, src_id, dst_id, &route, size);
                Ok(PendingOp {
                    principal: principal.to_owned(),
                    duration: duration + METADATA_LATENCY,
                    bytes_moved: size,
                    effect: PlannedEffect::AddReplica { src: src_id, dst: dst_id, migrate_from: Some(src_id) },
                    transfer: Some(handle),
                    reserved: Some((dst_id, size)),
                    op,
                })
            }
            Operation::Trim { path, resource } => {
                let obj = self.object(path)?;
                self.check_perm(path, &user, admin, Permission::Write, "write")?;
                let storage = self.resolve_resource(resource)?;
                if obj.replica_on(storage).is_none() {
                    return Err(DgmsError::NoUsableReplica(path.clone()));
                }
                // SRB semantics: an object must keep at least one replica;
                // removing the final copy is a delete, and must say so.
                if obj.replicas.len() <= 1 {
                    return Err(DgmsError::LastReplica(path.clone()));
                }
                Ok(self.metadata_op(op, principal, PlannedEffect::Trim { storage }))
            }
            Operation::Delete { path } => {
                let obj = self.object(path)?;
                self.check_perm(path, &user, admin, Permission::Own, "own")?;
                let freed = obj.replicas.iter().map(|r| (r.storage, obj.size)).collect();
                Ok(self.metadata_op(op, principal, PlannedEffect::Delete { freed }))
            }
            Operation::Rename { path, to } => {
                let _ = self.entry(path)?; // object or collection
                self.check_perm(path, &user, admin, Permission::Own, "own")?;
                self.check_absent(to)?;
                self.check_parent_writable(to, &user, admin)?;
                if to.is_under(path) {
                    return Err(DgmsError::InvalidPath {
                        path: to.to_string(),
                        reason: "cannot rename a collection into itself",
                    });
                }
                Ok(self.metadata_op(op, principal, PlannedEffect::Rename))
            }
            Operation::Checksum { path, resource, register } => {
                let obj = self.object(path)?;
                self.check_perm(path, &user, admin, Permission::Read, "read")?;
                let storage = match resource {
                    Some(name) => {
                        let id = self.resolve_resource(name)?;
                        self.check_storage_online(id)?;
                        if obj.replica_on(id).is_none() {
                            return Err(DgmsError::NoUsableReplica(path.clone()));
                        }
                        id
                    }
                    None => self.best_replica(path)?,
                };
                let obj = self.object(path)?;
                let replica = obj.replica_on(storage).expect("validated above");
                let digest = ContentStore::digest(replica.seed, obj.size);
                let duration = self.topology.storage(storage).access_time(obj.size);
                Ok(PendingOp {
                    principal: principal.to_owned(),
                    duration,
                    bytes_moved: obj.size,
                    effect: PlannedEffect::Checksum { storage, digest, register: *register },
                    transfer: None,
                    reserved: None,
                    op,
                })
            }
            Operation::SetMetadata { path, .. } => {
                self.entry(path)?;
                self.check_perm(path, &user, admin, Permission::Write, "write")?;
                Ok(self.metadata_op(op, principal, PlannedEffect::SetMetadata))
            }
            Operation::SetPermission { path, grantee, .. } => {
                self.entry(path)?;
                self.check_perm(path, &user, admin, Permission::Own, "own")?;
                let _ = self.users.get(grantee)?;
                Ok(self.metadata_op(op, principal, PlannedEffect::SetPermission))
            }
        }
    }

    /// Commit a pending operation at time `now`, emitting namespace events.
    ///
    /// Faithfully non-transactional: if the world changed since `begin`
    /// (e.g. the object was deleted), the commit fails, reservations are
    /// released, and any partial effects of *other* operations remain.
    pub fn complete(&mut self, pending: PendingOp, now: SimTime) -> Result<Vec<NamespaceEvent>, DgmsError> {
        let PendingOp { op, principal, effect, transfer, reserved, .. } = pending;
        if let Some(handle) = transfer {
            self.transfer.finish(handle);
        }
        let result = self.commit(&op, &principal, effect, now);
        if result.is_err() {
            if let Some((storage, bytes)) = reserved {
                self.topology.storage_mut(storage).release(bytes);
            }
        }
        result
    }

    /// Abandon a pending operation, releasing its reservations.
    pub fn abort(&mut self, pending: PendingOp) {
        if let Some(handle) = pending.transfer {
            self.transfer.finish(handle);
        }
        if let Some((storage, bytes)) = pending.reserved {
            self.topology.storage_mut(storage).release(bytes);
        }
    }

    /// Begin and immediately complete an operation (the simulation clock
    /// conceptually jumps over its duration). Returns the duration and
    /// the events emitted.
    pub fn execute(
        &mut self,
        principal: &str,
        op: Operation,
        now: SimTime,
    ) -> Result<(Duration, Vec<NamespaceEvent>), DgmsError> {
        let pending = self.begin(principal, op, now)?;
        let duration = pending.duration;
        let events = self.complete(pending, now + duration)?;
        Ok((duration, events))
    }

    fn commit(
        &mut self,
        op: &Operation,
        principal: &str,
        effect: PlannedEffect,
        now: SimTime,
    ) -> Result<Vec<NamespaceEvent>, DgmsError> {
        let path = op.path().clone();
        match effect {
            PlannedEffect::CreateCollection => {
                // Re-validate: another flow may have created it meanwhile.
                self.check_absent(&path)?;
                if let Some(parent) = path.parent() {
                    if !parent.is_root() {
                        self.collection(&parent)?;
                    }
                }
                self.entries.insert(
                    path.clone(),
                    Entry::Collection(CollectionInfo {
                        path: path.clone(),
                        owner: principal.to_owned(),
                        created: now,
                        metadata: Vec::new(),
                        acl: Acl::owned_by(principal),
                    }),
                );
                Ok(vec![self.emit(EventKind::CollectionCreated, path, principal, now, String::new())])
            }
            PlannedEffect::RemoveCollection => {
                self.collection(&path)?;
                if self.children_of(&path).next().is_some() {
                    return Err(DgmsError::NotEmpty(path));
                }
                self.entries.remove(&path);
                Ok(vec![self.emit(EventKind::CollectionRemoved, path, principal, now, String::new())])
            }
            PlannedEffect::Ingest { storage, seed } => {
                self.check_absent(&path)?;
                let size = match op {
                    Operation::Ingest { size, .. } => *size,
                    _ => unreachable!("effect/op pairing"),
                };
                self.entries.insert(
                    path.clone(),
                    Entry::Object(ObjectInfo {
                        path: path.clone(),
                        size,
                        seed,
                        owner: principal.to_owned(),
                        created: now,
                        checksum: None,
                        replicas: vec![Replica { storage, seed, valid: true, created: now }],
                        metadata: Vec::new(),
                        acl: Acl::owned_by(principal),
                    }),
                );
                let detail = format!("resource={} size={size}", self.topology.storage(storage).name);
                Ok(vec![self.emit(EventKind::ObjectIngested, path, principal, now, detail)])
            }
            PlannedEffect::AddReplica { src, dst, migrate_from } => {
                let dst_name = self.topology.storage(dst).name.clone();
                let src_name = self.topology.storage(src).name.clone();
                let from_name = migrate_from.map(|f| self.topology.storage(f).name.clone());
                let obj = self.object_mut(&path)?;
                if obj.replica_on(dst).is_some() {
                    return Err(DgmsError::ReplicaExists { path, resource: dst_name });
                }
                // The new replica copies the *source replica's* bytes: a
                // corrupted source silently propagates, exactly the hazard
                // the UCSD integrity flow exists to catch.
                let src_seed = obj.replica_on(src).map(|r| r.seed).unwrap_or(obj.seed);
                obj.replicas.push(Replica { storage: dst, seed: src_seed, valid: true, created: now });
                let mut events = Vec::new();
                let size = obj.size;
                if let Some(from) = migrate_from {
                    let obj = self.object_mut(&path)?;
                    obj.replicas.retain(|r| r.storage != from);
                    self.topology.storage_mut(from).release(size);
                    let detail = format!(
                        "from={} to={dst_name}",
                        from_name.expect("set when migrate_from is set")
                    );
                    events.push(self.emit(EventKind::ObjectMigrated, path, principal, now, detail));
                } else {
                    let detail = format!("src={src_name} dst={dst_name}");
                    events.push(self.emit(EventKind::ObjectReplicated, path, principal, now, detail));
                }
                Ok(events)
            }
            PlannedEffect::Trim { storage } => {
                let obj = self.object_mut(&path)?;
                if obj.replicas.len() <= 1 {
                    // Re-check at commit: a concurrent trim may have raced.
                    return Err(DgmsError::LastReplica(path));
                }
                let before = obj.replicas.len();
                obj.replicas.retain(|r| r.storage != storage);
                if obj.replicas.len() == before {
                    return Err(DgmsError::NoUsableReplica(path));
                }
                let size = obj.size;
                self.topology.storage_mut(storage).release(size);
                let detail = format!("resource={}", self.topology.storage(storage).name);
                Ok(vec![self.emit(EventKind::ReplicaTrimmed, path, principal, now, detail)])
            }
            PlannedEffect::Delete { freed } => {
                self.object(&path)?;
                self.entries.remove(&path);
                for (storage, bytes) in freed {
                    self.topology.storage_mut(storage).release(bytes);
                }
                Ok(vec![self.emit(EventKind::ObjectDeleted, path, principal, now, String::new())])
            }
            PlannedEffect::Rename => {
                let to = match op {
                    Operation::Rename { to, .. } => to.clone(),
                    _ => unreachable!("effect/op pairing"),
                };
                // Re-validate at commit: the world may have changed.
                self.entry(&path)?;
                self.check_absent(&to)?;
                // Re-key the entry and (for collections) its whole
                // subtree. Segment-ordered BTreeMap keys make the subtree
                // a contiguous range.
                let affected: Vec<LogicalPath> = self
                    .entries
                    .range(path.clone()..)
                    .take_while(|(p, _)| p.is_under(&path))
                    .map(|(p, _)| p.clone())
                    .collect();
                for old in affected {
                    let mut entry = self.entries.remove(&old).expect("listed above");
                    let new_path = rebase(&old, &path, &to);
                    match &mut entry {
                        Entry::Object(o) => o.path = new_path.clone(),
                        Entry::Collection(c) => c.path = new_path.clone(),
                    }
                    self.entries.insert(new_path, entry);
                }
                let detail = format!("to={to}");
                Ok(vec![self.emit(EventKind::ObjectRenamed, path, principal, now, detail)])
            }
            PlannedEffect::Checksum { storage, digest, register } => {
                let obj = self.object_mut(&path)?;
                if register {
                    obj.checksum = Some(digest.clone());
                    let detail = format!("digest={digest} registered");
                    return Ok(vec![self.emit(EventKind::ChecksumVerified, path, principal, now, detail)]);
                }
                // Verification compares against the registered digest, or
                // against the object's pristine content when none is
                // registered: the only second digest a checksum computes.
                let expected = match &obj.checksum {
                    Some(registered) => registered.clone(),
                    None => ContentStore::digest(obj.seed, obj.size),
                };
                if digest == expected {
                    let detail = format!("digest={digest}");
                    Ok(vec![self.emit(EventKind::ChecksumVerified, path, principal, now, detail)])
                } else {
                    // Mark the offending replica invalid; the event is the
                    // signal triggers / flows react to.
                    if let Some(r) = obj.replicas.iter_mut().find(|r| r.storage == storage) {
                        r.valid = false;
                    }
                    let detail = format!(
                        "expected={expected} actual={digest} resource={}",
                        self.topology.storage(storage).name
                    );
                    Ok(vec![self.emit(EventKind::ChecksumMismatch, path, principal, now, detail)])
                }
            }
            PlannedEffect::SetMetadata => {
                let triple = match op {
                    Operation::SetMetadata { triple, .. } => triple.clone(),
                    _ => unreachable!("effect/op pairing"),
                };
                let entry = self.entry_mut(&path)?;
                entry.metadata_mut().push(triple.clone());
                Ok(vec![self.emit(EventKind::MetadataSet, path, principal, now, triple.to_string())])
            }
            PlannedEffect::SetPermission => {
                let (grantee, permission) = match op {
                    Operation::SetPermission { grantee, permission, .. } => (grantee.clone(), *permission),
                    _ => unreachable!("effect/op pairing"),
                };
                let entry = self.entry_mut(&path)?;
                entry.acl_mut().grant_user(&grantee, permission);
                let detail = format!("grantee={grantee} level={permission:?}");
                Ok(vec![self.emit(EventKind::PermissionSet, path, principal, now, detail)])
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries (catalog reads; free of simulated cost)
    // ------------------------------------------------------------------

    /// Immediate children of a collection.
    pub fn list(&self, path: &LogicalPath) -> Result<Vec<LogicalPath>, DgmsError> {
        if !path.is_root() {
            self.collection(path)?;
        }
        Ok(self.children_of(path).collect())
    }

    /// Object info (error if missing or a collection).
    pub fn stat_object(&self, path: &LogicalPath) -> Result<&ObjectInfo, DgmsError> {
        self.object(path)
    }

    /// Collection info (error if missing or an object).
    pub fn stat_collection(&self, path: &LogicalPath) -> Result<&CollectionInfo, DgmsError> {
        self.collection(path)
    }

    /// Does the path exist (as either kind)?
    pub fn exists(&self, path: &LogicalPath) -> bool {
        path.is_root() || self.entries.contains_key(path)
    }

    /// All object paths under `scope` whose metadata matches `query`,
    /// in path order — the "datagrid query" that drives for-each flows.
    pub fn query(&self, scope: &LogicalPath, query: &MetaQuery) -> Vec<LogicalPath> {
        self.entries
            .range(scope.clone()..)
            .take_while(|(p, _)| p.is_under(scope))
            .filter(|(_, e)| matches!(e, Entry::Object(_)))
            .filter(|(_, e)| query.matches(e.metadata()))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// All object paths with a replica on the given resource.
    pub fn objects_on(&self, storage: StorageId) -> Vec<LogicalPath> {
        self.entries
            .values()
            .filter_map(|e| match e {
                Entry::Object(o) if o.replica_on(storage).is_some() => Some(o.path.clone()),
                _ => None,
            })
            .collect()
    }

    /// The replica whose local read is cheapest (online + valid only).
    pub fn best_replica(&self, path: &LogicalPath) -> Result<StorageId, DgmsError> {
        let obj = self.object(path)?;
        obj.usable_replicas(|s| self.topology.storage(s).online)
            .min_by_key(|r| self.topology.storage(r.storage).access_time(obj.size))
            .map(|r| r.storage)
            .ok_or_else(|| DgmsError::NoUsableReplica(path.clone()))
    }

    /// Aggregate namespace statistics.
    pub fn stats(&self) -> GridStats {
        let mut s = GridStats::default();
        for entry in self.entries.values() {
            match entry {
                Entry::Collection(_) => s.collections += 1,
                Entry::Object(o) => {
                    s.objects += 1;
                    s.replicas += o.replicas.len();
                    s.logical_bytes += o.size;
                    s.physical_bytes += o.size * o.replicas.len() as u64;
                }
            }
        }
        s
    }

    /// The full event history (doubles as the DGMS audit trail).
    pub fn events(&self) -> &[NamespaceEvent] {
        &self.events
    }

    /// Events with sequence number `>= from_seq` (trigger polling).
    pub fn events_since(&self, from_seq: u64) -> &[NamespaceEvent] {
        let start = self.events.partition_point(|e| e.seq < from_seq);
        &self.events[start..]
    }

    /// Sequence number the *next* event will get.
    pub fn next_event_seq(&self) -> u64 {
        self.events.len() as u64
    }

    // ------------------------------------------------------------------
    // Fault injection (tests and experiments)
    // ------------------------------------------------------------------

    /// Corrupt the replica of `path` on `resource`: its bytes silently
    /// change, so its MD5 no longer matches. Returns the new digest.
    pub fn corrupt_replica(&mut self, path: &LogicalPath, resource: &str) -> Result<String, DgmsError> {
        let storage = self.resolve_resource(resource)?;
        let obj = self.object_mut(path)?;
        let size = obj.size;
        let replica = obj
            .replicas
            .iter_mut()
            .find(|r| r.storage == storage)
            .ok_or_else(|| DgmsError::NoUsableReplica(path.clone()))?;
        replica.seed ^= 0xdead_beef;
        Ok(ContentStore::digest(replica.seed, size))
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    fn metadata_op(&self, op: Operation, principal: &str, effect: PlannedEffect) -> PendingOp {
        PendingOp {
            op,
            principal: principal.to_owned(),
            duration: METADATA_LATENCY,
            bytes_moved: 0,
            effect,
            transfer: None,
            reserved: None,
        }
    }

    /// Plan a replicate/migrate: resolve + authorize endpoints, pick the
    /// source replica, return (src, dst, size).
    fn plan_copy(
        &self,
        path: &LogicalPath,
        src: Option<&str>,
        dst: &str,
        user: &Principal,
        admin: bool,
    ) -> Result<(StorageId, StorageId, u64), DgmsError> {
        let obj = self.object(path)?;
        self.check_perm(path, user, admin, Permission::Write, "write")?;
        let dst_id = self.resolve_resource(dst)?;
        self.check_storage_online(dst_id)?;
        if obj.replica_on(dst_id).is_some() {
            return Err(DgmsError::ReplicaExists { path: path.clone(), resource: dst.to_owned() });
        }
        let src_id = match src {
            Some(name) => {
                let id = self.resolve_resource(name)?;
                self.check_storage_online(id)?;
                let r = obj.replica_on(id).ok_or_else(|| DgmsError::NoUsableReplica(path.clone()))?;
                if !r.valid {
                    return Err(DgmsError::NoUsableReplica(path.clone()));
                }
                id
            }
            None => {
                // Replica selection: cheapest estimated transfer to dst.
                let dst_domain = self.topology.storage_domain(dst_id);
                obj.usable_replicas(|s| self.topology.storage(s).online)
                    .filter_map(|r| {
                        let route = self
                            .topology
                            .route(self.topology.storage_domain(r.storage), dst_domain)?;
                        let est = self.transfer.estimate(&self.topology, r.storage, dst_id, &route, obj.size);
                        Some((r.storage, est))
                    })
                    .min_by_key(|(_, est)| *est)
                    .map(|(s, _)| s)
                    .ok_or_else(|| DgmsError::NoUsableReplica(path.clone()))?
            }
        };
        Ok((src_id, dst_id, obj.size))
    }

    fn reserve_space(&mut self, storage: StorageId, bytes: u64) -> Result<(), DgmsError> {
        let r = self.topology.storage_mut(storage);
        if !r.allocate(bytes) {
            return Err(DgmsError::InsufficientSpace { resource: r.name.clone(), needed: bytes, free: r.free() });
        }
        Ok(())
    }

    fn check_storage_online(&self, storage: StorageId) -> Result<(), DgmsError> {
        let r = self.topology.storage(storage);
        if !r.online {
            return Err(DgmsError::ResourceUnavailable(r.name.clone()));
        }
        Ok(())
    }

    fn check_absent(&self, path: &LogicalPath) -> Result<(), DgmsError> {
        if path.is_root() || self.entries.contains_key(path) {
            return Err(DgmsError::AlreadyExists(path.clone()));
        }
        Ok(())
    }

    fn check_parent_writable(&self, path: &LogicalPath, user: &Principal, admin: bool) -> Result<(), DgmsError> {
        let parent = path.parent().ok_or_else(|| DgmsError::NoParent(path.clone()))?;
        if parent.is_root() {
            return Ok(()); // root is world-writable by convention
        }
        match self.entries.get(&parent) {
            Some(Entry::Collection(_)) => self.check_perm(&parent, user, admin, Permission::Write, "write"),
            Some(Entry::Object(_)) => Err(DgmsError::WrongKind { path: parent, expected: "collection" }),
            None => Err(DgmsError::NoParent(path.clone())),
        }
    }

    fn check_perm(
        &self,
        path: &LogicalPath,
        user: &Principal,
        admin: bool,
        needed: Permission,
        label: &'static str,
    ) -> Result<(), DgmsError> {
        if admin {
            return Ok(());
        }
        let entry = self.entry(path)?;
        if entry.acl().allows(user, needed) {
            return Ok(());
        }
        Err(DgmsError::AccessDenied { path: path.clone(), user: user.user.clone(), needed: label })
    }

    fn entry(&self, path: &LogicalPath) -> Result<&Entry, DgmsError> {
        self.entries.get(path).ok_or_else(|| DgmsError::NotFound(path.clone()))
    }

    fn entry_mut(&mut self, path: &LogicalPath) -> Result<&mut Entry, DgmsError> {
        self.entries.get_mut(path).ok_or_else(|| DgmsError::NotFound(path.clone()))
    }

    fn object(&self, path: &LogicalPath) -> Result<&ObjectInfo, DgmsError> {
        match self.entry(path)? {
            Entry::Object(o) => Ok(o),
            Entry::Collection(_) => Err(DgmsError::WrongKind { path: path.clone(), expected: "object" }),
        }
    }

    fn object_mut(&mut self, path: &LogicalPath) -> Result<&mut ObjectInfo, DgmsError> {
        match self.entry_mut(path)? {
            Entry::Object(o) => Ok(o),
            Entry::Collection(_) => Err(DgmsError::WrongKind { path: path.clone(), expected: "object" }),
        }
    }

    fn collection(&self, path: &LogicalPath) -> Result<&CollectionInfo, DgmsError> {
        match self.entry(path)? {
            Entry::Collection(c) => Ok(c),
            Entry::Object(_) => Err(DgmsError::WrongKind { path: path.clone(), expected: "collection" }),
        }
    }

    // (see also the free function `rebase` below)

    /// Immediate children of `parent`, exploiting BTreeMap ordering.
    fn children_of<'a>(&'a self, parent: &'a LogicalPath) -> impl Iterator<Item = LogicalPath> + 'a {
        let target_depth = parent.depth() + 1;
        self.entries
            .range(parent.clone()..)
            .skip_while(move |(p, _)| *p == parent)
            .take_while(move |(p, _)| p.is_under(parent))
            .filter(move |(p, _)| p.depth() == target_depth)
            .map(|(p, _)| p.clone())
    }

    fn emit(
        &mut self,
        kind: EventKind,
        path: LogicalPath,
        principal: &str,
        time: SimTime,
        detail: String,
    ) -> NamespaceEvent {
        let event = NamespaceEvent {
            seq: self.events.len() as u64,
            kind,
            path,
            principal: principal.to_owned(),
            time,
            detail,
        };
        self.events.push(event.clone());
        event
    }
}

/// Replace the `from` prefix of `path` with `to` (`path` must be under
/// `from`).
fn rebase(path: &LogicalPath, from: &LogicalPath, to: &LogicalPath) -> LogicalPath {
    let mut out = to.clone();
    let skip = from.depth();
    for segment in path.segments().skip(skip) {
        out = out.join(segment).expect("existing segments are valid");
    }
    out
}
