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

/// Control-state of a flow node.
#[derive(Debug, Clone)]
pub(crate) enum Cursor {
    /// Sequential/parallel over the spec's children.
    Static { next_spec: usize, outstanding: usize, parallel: bool },
    /// While loop: one unrolled iteration (a wrapper flow) at a time.
    While { iterations: u64 },
    /// For-each: items resolved at entry; unrolls one wrapper per item.
    ForEach { items: Vec<String>, next: usize, outstanding: usize, parallel: bool },
    /// Switch: at most one child dispatched.
    Switch,
}

/// A node's body: an unrolled flow or a leaf step.
#[derive(Debug, Clone)]
pub(crate) enum NodeBody {
    Flow { spec: Flow, children: Vec<NodeId>, cursor: Cursor },
    Step { spec: Step, attempts: u32 },
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
    pub stop_requested: bool,
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

    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    /// Allocate a child node.
    pub(crate) fn alloc(&mut self, parent: Option<NodeId>, index_in_parent: usize, name: String, body: NodeBody) -> NodeId {
        let id = NodeId(self.nodes.len());
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

    /// The hierarchical path of a node (`/`, `/0`, `/0/3`...).
    pub(crate) fn path_of(&self, id: NodeId) -> String {
        let mut indices = Vec::new();
        let mut at = id;
        while let Some(parent) = self.node(at).parent {
            indices.push(self.node(at).index_in_parent);
            at = parent;
        }
        if indices.is_empty() {
            return "/".to_owned();
        }
        indices.reverse();
        let mut s = String::new();
        for i in indices {
            s.push('/');
            s.push_str(&i.to_string());
        }
        s
    }

    /// Resolve a hierarchical path back to a node.
    pub(crate) fn find(&self, path: &str) -> Option<NodeId> {
        let mut at = self.root();
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            let idx: usize = segment.parse().ok()?;
            let children = match &self.node(at).body {
                NodeBody::Flow { children, .. } => children,
                NodeBody::Step { .. } => return None,
            };
            at = *children.get(idx)?;
        }
        Some(at)
    }

    /// Steps completed / total in the subtree rooted at `id` (counting
    /// materialized step nodes only; loops grow the total as they unroll).
    pub(crate) fn progress(&self, id: NodeId) -> (usize, usize) {
        let node = self.node(id);
        match &node.body {
            NodeBody::Step { .. } => {
                let done = usize::from(matches!(node.state, RunState::Completed | RunState::Skipped));
                (done, 1)
            }
            NodeBody::Flow { children, .. } => {
                let mut done = 0;
                let mut total = 0;
                for child in children {
                    let (d, t) = self.progress(*child);
                    done += d;
                    total += t;
                }
                (done, total)
            }
        }
    }

    /// Build a DGL status report for a node.
    pub(crate) fn report(&self, id: NodeId) -> StatusReport {
        let node = self.node(id);
        let (steps_completed, steps_total) = self.progress(id);
        let children = match &node.body {
            NodeBody::Flow { children, .. } => children
                .iter()
                .map(|c| (self.path_of(*c), self.node(*c).name.clone(), self.node(*c).state))
                .collect(),
            NodeBody::Step { .. } => Vec::new(),
        };
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
        let children: Vec<NodeId> = match &self.node(id).body {
            NodeBody::Flow { children, .. } => children.clone(),
            NodeBody::Step { .. } => Vec::new(),
        };
        for child in children {
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
            stop_requested: false,
            options: RunOptions::default(),
            nodes: Vec::new(),
            deferred: Vec::new(),
        };
        let root_body = NodeBody::Flow {
            spec,
            children: Vec::new(),
            cursor: Cursor::Static { next_spec: 0, outstanding: 0, parallel: false },
        };
        run.alloc(None, 0, "root".into(), root_body);
        run
    }

    fn attach_step(run: &mut Run, parent: NodeId, idx: usize, name: &str) -> NodeId {
        let id = run.alloc(Some(parent), idx, name.into(), NodeBody::Step { spec: step_spec(name), attempts: 0 });
        if let NodeBody::Flow { children, .. } = &mut run.node_mut(parent).body {
            children.push(id);
        }
        id
    }

    #[test]
    fn paths_round_trip() {
        let mut run = test_run();
        let root = run.root();
        let inner = run.alloc(
            Some(root),
            0,
            "inner".into(),
            NodeBody::Flow {
                spec: DglFlow::sequence("inner", vec![]),
                children: Vec::new(),
                cursor: Cursor::Static { next_spec: 0, outstanding: 0, parallel: false },
            },
        );
        if let NodeBody::Flow { children, .. } = &mut run.node_mut(root).body {
            children.push(inner);
        }
        let s1 = attach_step(&mut run, inner, 0, "a");
        let s2 = attach_step(&mut run, inner, 1, "b");
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
    fn progress_counts_materialized_steps() {
        let mut run = test_run();
        let root = run.root();
        let a = attach_step(&mut run, root, 0, "a");
        let _b = attach_step(&mut run, root, 1, "b");
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
        let a = attach_step(&mut run, root, 0, "a");
        let b = attach_step(&mut run, root, 1, "b");
        run.node_mut(a).state = RunState::Completed;
        run.node_mut(b).state = RunState::Running;
        run.stop_subtree(root, SimTime::from_secs(9));
        assert_eq!(run.node(a).state, RunState::Completed, "finished work stays finished");
        assert_eq!(run.node(b).state, RunState::Stopped);
        assert_eq!(run.node(root).state, RunState::Stopped);
    }
}
