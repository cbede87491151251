//! Runtime state of one executing flow: the materialized node tree.
//!
//! The DGL [`Flow`] is the immutable *spec*; a [`Run`] materializes it
//! into runtime [`Node`]s as execution proceeds — loops unroll into
//! fresh child nodes, so "steps total" grows as iterations are
//! discovered, and every node is addressable by a hierarchical path
//! (`/0/3/1`) for status queries at any granularity (§4).

use dgf_dgl::{Flow, RunState, Scope, StatusReport, Step};
use dgf_simgrid::{ScheduleWindow, SimTime};

/// Identifies a run inside one [`crate::Dfms`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u64);

/// Identifies a node inside one run's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// A flow node's runtime state: its spec, plus what the spec cannot say.
/// Its progress is its `children` list: a node launches child number
/// `children.len()` next, so nothing mirrors the spec's control pattern.
#[derive(Debug, Clone)]
pub(crate) struct FlowBody {
    pub spec: Flow,
    pub children: Vec<NodeId>,
    /// The children a parallel node or a concurrent for-each still waits
    /// on (unused by the other patterns).
    pub outstanding: usize,
    /// A for-each's items, resolved when the node starts.
    pub items: Vec<String>,
}

/// A node's body: a flow or a leaf step.
#[derive(Debug, Clone)]
pub(crate) enum NodeBody {
    Flow(FlowBody),
    Step { spec: Step, attempts: u32 },
}

impl NodeBody {
    /// A flow node over `spec`, not yet started.
    pub(crate) fn flow(spec: Flow) -> Self {
        NodeBody::Flow(FlowBody { spec, children: Vec::new(), outstanding: 0, items: Vec::new() })
    }
}

/// One runtime node.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub parent: Option<NodeId>,
    pub index_in_parent: usize,
    pub name: String,
    pub state: RunState,
    pub scope: Scope,
    pub started: SimTime,
    pub finished: SimTime,
    pub message: Option<String>,
    /// The tracing span covering this node's execution: the flow span
    /// for the root, a request span per materialized node below it.
    pub span: Option<dgf_obs::SpanContext>,
    pub body: NodeBody,
}

impl Node {
    pub(crate) fn is_step(&self) -> bool {
        matches!(self.body, NodeBody::Step { .. })
    }

    /// The node's runtime children (none for a step).
    pub(crate) fn children(&self) -> &[NodeId] {
        match &self.body {
            NodeBody::Flow(flow) => &flow.children,
            NodeBody::Step { .. } => &[],
        }
    }
}

/// Per-run execution options.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Restrict step dispatch to this window (ILM off-hours runs).
    pub window: Option<ScheduleWindow>,
    /// Cascade depth when the run was started by a trigger.
    pub trigger_depth: u32,
    /// Lineage override: restarts reuse the original lineage so the
    /// provenance memo can skip completed steps.
    pub lineage: Option<String>,
}

/// The runtime state of one submitted flow.
#[derive(Debug)]
pub(crate) struct Run {
    pub txn: String,
    pub lineage: String,
    pub user: String,
    pub vo: Option<String>,
    pub paused: bool,
    pub options: RunOptions,
    pub nodes: Vec<Node>,
    /// Work items deferred while paused or outside the window.
    pub deferred: Vec<crate::engine::Work>,
}

impl Run {
    pub(crate) fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// The run's state as every report gives it: `Paused` while a pause
    /// holds a live run, the root's state otherwise. `paused` is the one
    /// fact; a resumed run reports its root's state again.
    pub(crate) fn state(&self) -> RunState {
        let state = self.nodes[0].state;
        if self.paused && !state.is_terminal() {
            RunState::Paused
        } else {
            state
        }
    }

    /// True once a lifecycle stop ended the run: only a stop ends the
    /// root `Stopped`.
    pub(crate) fn stopped(&self) -> bool {
        self.nodes[0].state == RunState::Stopped
    }

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Flow node `id`'s spec and runtime state.
    pub(crate) fn flow(&self, id: NodeId) -> &FlowBody {
        match &self.node(id).body {
            NodeBody::Flow(flow) => flow,
            NodeBody::Step { .. } => unreachable!("node {} is a step, not a flow", id.0),
        }
    }

    pub(crate) fn flow_mut(&mut self, id: NodeId) -> &mut FlowBody {
        match &mut self.node_mut(id).body {
            NodeBody::Flow(flow) => flow,
            NodeBody::Step { .. } => unreachable!("node {} is a step, not a flow", id.0),
        }
    }

    /// Step node `id`'s spec.
    pub(crate) fn step(&self, id: NodeId) -> &Step {
        match &self.node(id).body {
            NodeBody::Step { spec, .. } => spec,
            NodeBody::Flow(_) => unreachable!("node {} is a flow, not a step", id.0),
        }
    }

    /// Allocate a node: the root, or the next child of flow node
    /// `parent`.
    pub(crate) fn alloc(&mut self, parent: Option<NodeId>, name: String, body: NodeBody) -> NodeId {
        let id = NodeId(self.nodes.len());
        let index_in_parent = parent.map_or(0, |p| {
            let children = &mut self.flow_mut(p).children;
            children.push(id);
            children.len() - 1
        });
        self.nodes.push(Node {
            parent,
            index_in_parent,
            name,
            state: RunState::Pending,
            scope: Scope::root(),
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            message: None,
            span: None,
            body,
        });
        id
    }

    /// The hierarchical path of a node (`/`, `/0`, `/0/3`...). Written
    /// leaf first, digits included, into one buffer that is then
    /// reversed in place: the path is ASCII.
    pub(crate) fn path_of(&self, id: NodeId) -> String {
        let mut reversed = Vec::new();
        let mut node = self.node(id);
        while let Some(parent) = node.parent {
            let mut index = node.index_in_parent;
            loop {
                reversed.push(b'0' + (index % 10) as u8);
                index /= 10;
                if index == 0 {
                    break;
                }
            }
            reversed.push(b'/');
            node = self.node(parent);
        }
        if reversed.is_empty() {
            return "/".to_owned();
        }
        reversed.reverse();
        String::from_utf8(reversed).expect("node paths are ASCII")
    }

    /// Resolve a hierarchical path back to a node.
    pub(crate) fn find(&self, path: &str) -> Option<NodeId> {
        let mut at = self.root();
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            let idx: usize = segment.parse().ok()?;
            at = *self.node(at).children().get(idx)?;
        }
        Some(at)
    }

    /// Steps completed / total in the subtree rooted at `id` (counting
    /// materialized step nodes only; loops grow the total as they unroll).
    pub(crate) fn progress(&self, id: NodeId) -> (usize, usize) {
        let node = self.node(id);
        if node.is_step() {
            return (usize::from(matches!(node.state, RunState::Completed | RunState::Skipped)), 1);
        }
        node.children().iter().fold((0, 0), |(done, total), child| {
            let (d, t) = self.progress(*child);
            (done + d, total + t)
        })
    }

    /// Build a DGL status report for a node.
    pub(crate) fn report(&self, id: NodeId) -> StatusReport {
        let node = self.node(id);
        let (steps_completed, steps_total) = self.progress(id);
        let children = node
            .children()
            .iter()
            .map(|c| (self.path_of(*c), self.node(*c).name.clone(), self.node(*c).state))
            .collect();
        StatusReport {
            transaction: self.txn.clone(),
            node: self.path_of(id),
            name: node.name.clone(),
            state: if id == self.root() { self.state() } else { node.state },
            steps_completed,
            steps_total,
            message: node.message.clone(),
            children,
            events: Vec::new(),
            metrics: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Mark every non-terminal node in the subtree `Stopped`.
    pub(crate) fn stop_subtree(&mut self, id: NodeId, at: SimTime) {
        for child in self.node(id).children().to_vec() {
            self.stop_subtree(child, at);
        }
        let node = self.node_mut(id);
        if !node.state.is_terminal() {
            node.state = RunState::Stopped;
            node.finished = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_dgl::{DglOperation, Flow as DglFlow};

    fn step_spec(name: &str) -> Step {
        Step::new(name, DglOperation::Notify { message: "x".into() })
    }

    fn test_run() -> Run {
        let spec = DglFlow::sequence("root", vec![]);
        let mut run = Run {
            txn: "t1".into(),
            lineage: "t1".into(),
            user: "u".into(),
            vo: None,
            paused: false,
            options: RunOptions::default(),
            nodes: Vec::new(),
            deferred: Vec::new(),
        };
        run.alloc(None, "root".into(), NodeBody::flow(spec));
        run
    }

    fn attach_step(run: &mut Run, parent: NodeId, name: &str) -> NodeId {
        run.alloc(Some(parent), name.into(), NodeBody::Step { spec: step_spec(name), attempts: 0 })
    }

    #[test]
    fn paths_round_trip() {
        let mut run = test_run();
        let root = run.root();
        let inner = run.alloc(Some(root), "inner".into(), NodeBody::flow(DglFlow::sequence("inner", vec![])));
        let s1 = attach_step(&mut run, inner, "a");
        let s2 = attach_step(&mut run, inner, "b");
        assert_eq!(run.path_of(root), "/");
        assert_eq!(run.path_of(inner), "/0");
        assert_eq!(run.path_of(s1), "/0/0");
        assert_eq!(run.path_of(s2), "/0/1");
        assert_eq!(run.find("/"), Some(root));
        assert_eq!(run.find("/0/1"), Some(s2));
        assert_eq!(run.find("/0/9"), None);
        assert_eq!(run.find("/0/0/0"), None, "steps have no children");
        assert_eq!(run.find("/x"), None);
    }

    #[test]
    fn paths_write_every_digit_of_every_level() {
        let mut run = test_run();
        let root = run.root();
        let outer = run.alloc(Some(root), "outer".into(), NodeBody::flow(DglFlow::sequence("outer", vec![])));
        let mut twelfth = outer;
        for i in 0..=12 {
            twelfth = run.alloc(Some(outer), format!("f{i}"), NodeBody::flow(DglFlow::sequence("f", vec![])));
        }
        let steps: Vec<NodeId> = (0..4).map(|i| attach_step(&mut run, twelfth, &format!("s{i}"))).collect();
        assert_eq!(run.path_of(root), "/");
        assert_eq!(run.path_of(twelfth), "/0/12");
        assert_eq!(run.path_of(steps[3]), "/0/12/3");
        assert_eq!(run.path_of(steps[0]), "/0/12/0");
        assert_eq!(run.find("/0/12/3"), Some(steps[3]));
    }

    #[test]
    fn progress_counts_materialized_steps() {
        let mut run = test_run();
        let root = run.root();
        let a = attach_step(&mut run, root, "a");
        let _b = attach_step(&mut run, root, "b");
        assert_eq!(run.progress(root), (0, 2));
        run.node_mut(a).state = RunState::Completed;
        assert_eq!(run.progress(root), (1, 2));
        let report = run.report(root);
        assert_eq!(report.steps_completed, 1);
        assert_eq!(report.steps_total, 2);
        assert_eq!(report.children.len(), 2);
        assert_eq!(report.node, "/");
    }

    #[test]
    fn stop_subtree_preserves_terminal_states() {
        let mut run = test_run();
        let root = run.root();
        let a = attach_step(&mut run, root, "a");
        let b = attach_step(&mut run, root, "b");
        run.node_mut(a).state = RunState::Completed;
        run.node_mut(b).state = RunState::Running;
        run.stop_subtree(root, SimTime::from_secs(9));
        assert_eq!(run.node(a).state, RunState::Completed, "finished work stays finished");
        assert_eq!(run.node(b).state, RunState::Stopped);
        assert_eq!(run.node(root).state, RunState::Stopped);
    }
}
