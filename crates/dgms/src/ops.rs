//! Datagrid operations and the two-phase (begin/complete) protocol.

use crate::acl::Permission;
use crate::meta::MetaTriple;
use crate::path::LogicalPath;
use dgf_simgrid::{Duration, StorageId, TransferHandle};
use std::fmt;

/// Every data-management operation the DGMS supports — the operation
/// vocabulary DGL `Step`s compile to.
#[derive(Debug, Clone, PartialEq)]
pub enum Operation {
    /// Create a collection (parent must exist).
    CreateCollection { path: LogicalPath },
    /// Remove an empty collection.
    RemoveCollection { path: LogicalPath },
    /// Bring a new object into the grid onto a named logical resource.
    Ingest { path: LogicalPath, size: u64, resource: String },
    /// Create an additional replica on `dst`, reading from `src` (or the
    /// best available replica when `src` is `None`).
    Replicate { path: LogicalPath, src: Option<String>, dst: String },
    /// Move the object's copy from `from` to `to` (replicate + trim).
    Migrate { path: LogicalPath, from: String, to: String },
    /// Remove one replica (the object survives on its other replicas).
    Trim { path: LogicalPath, resource: String },
    /// Remove the object and all replicas.
    Delete { path: LogicalPath },
    /// Rename the object's logical path. A pure catalog operation: every
    /// replica stays exactly where it is — the point of data
    /// virtualization (§1: "data and resource names are logical and can
    /// be physically changed or migrated without affecting the
    /// applications" — and vice versa).
    Rename { path: LogicalPath, to: LogicalPath },
    /// Read a replica (from `resource`, or the best one) and compute its
    /// MD5. With `register`, store the digest as the object's canonical
    /// checksum; otherwise compare against the registered one.
    Checksum { path: LogicalPath, resource: Option<String>, register: bool },
    /// Attach a metadata triple.
    SetMetadata { path: LogicalPath, triple: MetaTriple },
    /// Grant a user a permission level.
    SetPermission { path: LogicalPath, grantee: String, permission: Permission },
}

impl Operation {
    /// The path the operation targets.
    pub fn path(&self) -> &LogicalPath {
        match self {
            Operation::CreateCollection { path }
            | Operation::RemoveCollection { path }
            | Operation::Ingest { path, .. }
            | Operation::Replicate { path, .. }
            | Operation::Migrate { path, .. }
            | Operation::Trim { path, .. }
            | Operation::Delete { path }
            | Operation::Rename { path, .. }
            | Operation::Checksum { path, .. }
            | Operation::SetMetadata { path, .. }
            | Operation::SetPermission { path, .. } => path,
        }
    }

    /// Short verb for logs and provenance records.
    pub fn verb(&self) -> &'static str {
        match self {
            Operation::CreateCollection { .. } => "create-collection",
            Operation::RemoveCollection { .. } => "remove-collection",
            Operation::Ingest { .. } => "ingest",
            Operation::Replicate { .. } => "replicate",
            Operation::Migrate { .. } => "migrate",
            Operation::Trim { .. } => "trim",
            Operation::Delete { .. } => "delete",
            Operation::Rename { .. } => "rename",
            Operation::Checksum { .. } => "checksum",
            Operation::SetMetadata { .. } => "set-metadata",
            Operation::SetPermission { .. } => "set-permission",
        }
    }

    /// Whether the operation moves bytes (vs. a metadata-only action).
    pub fn is_data_movement(&self) -> bool {
        matches!(
            self,
            Operation::Ingest { .. } | Operation::Replicate { .. } | Operation::Migrate { .. } | Operation::Checksum { .. }
        )
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.verb(), self.path())
    }
}

/// The committed effect of an operation, as planned at `begin` time.
#[derive(Debug)]
pub(crate) enum PlannedEffect {
    CreateCollection,
    RemoveCollection,
    Ingest { storage: StorageId, seed: u64 },
    AddReplica { src: StorageId, dst: StorageId, migrate_from: Option<StorageId> },
    Trim { storage: StorageId },
    Delete { freed: Vec<(StorageId, u64)> },
    Rename,
    Checksum { storage: StorageId, digest: String, register: bool },
    SetMetadata,
    SetPermission,
}

/// An operation that has been validated, costed, and had its resources
/// reserved, but whose namespace effect has not yet been committed.
///
/// The DfMS engine schedules a simulation event `duration` in the future
/// and calls [`crate::DataGrid::complete`] there; tests and baselines use
/// [`crate::DataGrid::execute`] to do both at once.
#[derive(Debug)]
#[must_use = "a PendingOp must be completed or aborted"]
pub struct PendingOp {
    /// The operation being performed.
    pub op: Operation,
    /// Acting user.
    pub principal: String,
    /// How long the operation takes in simulated time.
    pub duration: Duration,
    /// Bytes moved across storage/network by this operation.
    pub bytes_moved: u64,
    pub(crate) effect: PlannedEffect,
    pub(crate) transfer: Option<TransferHandle>,
    /// Space reserved at begin time, to release on abort.
    pub(crate) reserved: Option<(StorageId, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_and_paths_cover_all_variants() {
        let p = LogicalPath::parse("/x").unwrap();
        let ops = vec![
            Operation::CreateCollection { path: p.clone() },
            Operation::RemoveCollection { path: p.clone() },
            Operation::Ingest { path: p.clone(), size: 1, resource: "r".into() },
            Operation::Replicate { path: p.clone(), src: None, dst: "r".into() },
            Operation::Migrate { path: p.clone(), from: "a".into(), to: "b".into() },
            Operation::Trim { path: p.clone(), resource: "r".into() },
            Operation::Delete { path: p.clone() },
            Operation::Rename { path: p.clone(), to: LogicalPath::parse("/y").unwrap() },
            Operation::Checksum { path: p.clone(), resource: None, register: true },
            Operation::SetMetadata { path: p.clone(), triple: MetaTriple::new("a", "b") },
            Operation::SetPermission { path: p.clone(), grantee: "u".into(), permission: Permission::Read },
        ];
        for op in &ops {
            assert_eq!(op.path(), &p);
            assert!(!op.verb().is_empty());
            assert!(op.to_string().contains("/x"));
        }
        assert!(ops.iter().filter(|o| o.is_data_movement()).count() == 4);
    }
}
