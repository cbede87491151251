//! Namespace routing: the lookup service of the paper's peer-to-peer
//! DfMS network (§3.2, "multiple DfMS servers … with one or more lookup
//! servers"), and the routing key a flow is placed by.
//!
//! Each shard owns one zone of the federated namespace, registered as
//! a set of path prefixes; a flow routes by the first concrete logical
//! path it touches.

use dgf_dgl::{Children, ControlPattern, DglOperation, Flow, IterSource};
use dgf_dgms::LogicalPath;

/// The lookup service: maps namespace prefixes to shard names.
#[derive(Debug, Default)]
pub(crate) struct LookupService {
    routes: Vec<(LogicalPath, String)>,
}

impl LookupService {
    /// Register a prefix → shard route.
    pub(crate) fn register(&mut self, prefix: LogicalPath, shard: impl Into<String>) {
        self.routes.push((prefix, shard.into()));
    }

    /// The shard owning a path (deepest matching prefix wins).
    pub(crate) fn lookup(&self, path: &LogicalPath) -> Option<&str> {
        self.routes
            .iter()
            .filter(|(prefix, _)| path.is_under(prefix))
            .max_by_key(|(prefix, _)| prefix.depth())
            .map(|(_, shard)| shard.as_str())
    }
}

/// The first concrete logical path a flow mentions (templates with
/// variables are skipped — routing needs a static prefix). This is the
/// routing key of every whole flow and federated sub-flow.
pub(crate) fn first_path(flow: &Flow) -> Option<String> {
    fn from_op(op: &DglOperation) -> Option<String> {
        let candidate = match op {
            DglOperation::CreateCollection { path }
            | DglOperation::Ingest { path, .. }
            | DglOperation::Replicate { path, .. }
            | DglOperation::Migrate { path, .. }
            | DglOperation::Trim { path, .. }
            | DglOperation::Delete { path }
            | DglOperation::Rename { path, .. }
            | DglOperation::Checksum { path, .. }
            | DglOperation::SetMetadata { path, .. }
            | DglOperation::SetPermission { path, .. } => path,
            DglOperation::Query { collection, .. } => collection,
            DglOperation::Execute { inputs, .. } => inputs.first()?,
            DglOperation::Assign { .. } | DglOperation::Notify { .. } => return None,
        };
        if candidate.contains("${") {
            None
        } else {
            Some(candidate.clone())
        }
    }
    // The iteration source may carry the routable collection even when
    // step paths are templates.
    if let ControlPattern::ForEach { source, .. } = &flow.logic.pattern {
        match source {
            IterSource::Collection(c) if !c.contains("${") => return Some(c.clone()),
            IterSource::Query { collection, .. } if !collection.contains("${") => {
                return Some(collection.clone())
            }
            _ => {}
        }
    }
    match &flow.children {
        Children::Steps(steps) => steps.iter().find_map(|s| from_op(&s.operation)),
        Children::Flows(flows) => flows.iter().find_map(first_path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_dgl::FlowBuilder;

    fn path(s: &str) -> LogicalPath {
        LogicalPath::parse(s).unwrap()
    }

    #[test]
    fn lookup_prefers_deepest_prefix() {
        let mut l = LookupService::default();
        l.register(path("/"), "root-server");
        l.register(path("/home/scec"), "scec-server");
        assert_eq!(l.lookup(&path("/home/scec/run1")), Some("scec-server"));
        assert_eq!(l.lookup(&path("/home/other")), Some("root-server"));
        let empty = LookupService::default();
        assert_eq!(empty.lookup(&path("/x")), None);
    }

    #[test]
    fn foreach_flows_route_by_their_collection() {
        let flow = FlowBuilder::for_each_in_collection("sweep", "f", "/alpha/data")
            .step("c", DglOperation::Checksum { path: "${f}".into(), resource: None, register: false })
            .build()
            .unwrap();
        assert_eq!(first_path(&flow), Some("/alpha/data".to_owned()));
    }
}
