//! Trigger definitions and firings.

use dgf_dgl::{Expr, Flow, Scope, Value};
use dgf_dgms::{DataGrid, EventKind, LogicalPath, NamespaceEvent};

/// When a trigger evaluates relative to its event.
///
/// §2.2: "Datagrid triggers could be triggered before or after events
/// complete."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Timing {
    /// On the completed event (the common case).
    #[default]
    After,
    /// On the *intent*: evaluated against the operation about to run,
    /// before any effect is visible. The object's metadata seen by the
    /// condition is the pre-operation state.
    Before,
}

/// What a fired trigger does.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerAction {
    /// Submit a DGL flow (templates inside it see the event bindings).
    Flow(Flow),
    /// Emit a notification message template.
    Notify(String),
}

/// One registered datagrid trigger.
#[derive(Debug, Clone)]
pub struct Trigger {
    /// Unique trigger name.
    pub name: String,
    /// Registering user (ordering policies may rank by owner).
    pub owner: String,
    /// Priority for the priority ordering policy (higher fires first).
    pub priority: i32,
    /// Before/after timing.
    pub timing: Timing,
    /// Event kinds that can fire this trigger; empty = all kinds.
    pub on_kinds: Vec<EventKind>,
    /// Only events on paths under this scope fire the trigger.
    pub scope: LogicalPath,
    /// The condition, evaluated with event/metadata bindings.
    pub condition: Expr,
    /// The action.
    pub action: TriggerAction,
    /// Disabled triggers never fire but stay registered.
    pub enabled: bool,
}

impl Trigger {
    /// A trigger on all events under `scope` with an always-true
    /// condition.
    pub fn new(name: impl Into<String>, owner: impl Into<String>, scope: LogicalPath, action: TriggerAction) -> Self {
        Trigger {
            name: name.into(),
            owner: owner.into(),
            priority: 0,
            timing: Timing::After,
            on_kinds: Vec::new(),
            scope,
            condition: Expr::always(),
            action,
            enabled: true,
        }
    }

    /// Builder-style event-kind filter.
    #[must_use]
    pub fn on(mut self, kinds: &[EventKind]) -> Self {
        self.on_kinds = kinds.to_vec();
        self
    }

    /// Builder-style condition.
    #[must_use]
    pub fn when(mut self, condition: Expr) -> Self {
        self.condition = condition;
        self
    }

    /// Builder-style priority.
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style BEFORE timing.
    #[must_use]
    pub fn before(mut self) -> Self {
        self.timing = Timing::Before;
        self
    }

    /// Does this trigger match the event structurally (kind + scope)?
    pub fn matches_event(&self, event: &NamespaceEvent) -> bool {
        self.enabled
            && (self.on_kinds.is_empty() || self.on_kinds.contains(&event.kind))
            && event.path.is_under(&self.scope)
    }

    /// Build the variable bindings a condition (and action templates)
    /// see for an event: `event.kind`, `event.path`, `event.principal`,
    /// `event.detail`, `event.seq`, plus one variable per metadata
    /// attribute of the target object/collection if it still exists.
    pub fn bindings(grid: &DataGrid, event: &NamespaceEvent) -> Scope {
        let mut scope = Scope::root();
        scope.declare("event.kind", Value::Str(event.kind.to_string()));
        scope.declare("event.path", Value::Str(event.path.to_string()));
        scope.declare("event.principal", Value::Str(event.principal.clone()));
        scope.declare("event.detail", Value::Str(event.detail.clone()));
        scope.declare("event.seq", Value::Int(event.seq as i64));
        // Metadata of the target (best effort; deletes leave none).
        if let Ok(obj) = grid.stat_object(&event.path) {
            scope.declare("object.size", Value::Int(obj.size as i64));
            scope.declare("object.owner", Value::Str(obj.owner.clone()));
            scope.declare("object.replicas", Value::Int(obj.replicas.len() as i64));
            for triple in &obj.metadata {
                scope.declare(format!("meta.{}", triple.attribute), Value::from_text(&triple.value));
            }
        } else if let Ok(coll) = grid.stat_collection(&event.path) {
            scope.declare("object.owner", Value::Str(coll.owner.clone()));
            for triple in &coll.metadata {
                scope.declare(format!("meta.{}", triple.attribute), Value::from_text(&triple.value));
            }
        }
        scope
    }
}

/// A matched trigger ready for its action to run.
#[derive(Debug, Clone)]
pub struct Firing {
    /// The trigger's name.
    pub trigger: String,
    /// The trigger's owner.
    pub owner: String,
    /// The causing event.
    pub event: NamespaceEvent,
    /// Cascade depth: 0 for events from user actions, +1 per trigger
    /// generation.
    pub depth: u32,
    /// The action to run.
    pub action: TriggerAction,
    /// The bindings captured at match time (interpolate action templates
    /// with these).
    pub bindings: Scope,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_dgms::{MetaTriple, Operation, Principal, UserRegistry};
    use dgf_simgrid::{GridBuilder, GridPreset, SimTime};

    fn path(s: &str) -> LogicalPath {
        LogicalPath::parse(s).unwrap()
    }

    fn grid() -> DataGrid {
        let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 1 });
        let mut users = UserRegistry::new();
        users.register(Principal::new("u", topology.domain_ids().next().unwrap()));
        users.make_admin("u").unwrap();
        DataGrid::new(topology, users)
    }

    #[test]
    fn structural_matching_respects_kind_scope_and_enabled() {
        let mut g = grid();
        g.execute("u", Operation::CreateCollection { path: path("/a") }, SimTime::ZERO).unwrap();
        g.execute("u", Operation::Ingest { path: path("/a/x"), size: 10, resource: "site0-disk".into() }, SimTime::ZERO)
            .unwrap();
        let ingest_event = g.events().last().unwrap().clone();

        let mut t = Trigger::new("t", "u", path("/a"), TriggerAction::Notify("hit".into()))
            .on(&[EventKind::ObjectIngested]);
        assert!(t.matches_event(&ingest_event));
        t.scope = path("/b");
        assert!(!t.matches_event(&ingest_event), "out of scope");
        t.scope = path("/a");
        t.on_kinds = vec![EventKind::ObjectDeleted];
        assert!(!t.matches_event(&ingest_event), "wrong kind");
        t.on_kinds.clear();
        assert!(t.matches_event(&ingest_event), "empty kinds = all");
        t.enabled = false;
        assert!(!t.matches_event(&ingest_event));
    }

    #[test]
    fn bindings_expose_event_and_metadata() {
        let mut g = grid();
        g.execute("u", Operation::Ingest { path: path("/x"), size: 123, resource: "site0-disk".into() }, SimTime::ZERO)
            .unwrap();
        g.execute(
            "u",
            Operation::SetMetadata { path: path("/x"), triple: MetaTriple::new("document-type", "seismogram") },
            SimTime::ZERO,
        )
        .unwrap();
        let event = g.events().last().unwrap().clone();
        let scope = Trigger::bindings(&g, &event);
        assert_eq!(scope.get("event.kind").unwrap().to_string(), "metadata-set");
        assert_eq!(scope.get("event.path").unwrap().to_string(), "/x");
        assert_eq!(scope.get("object.size"), Some(&Value::Int(123)));
        assert_eq!(scope.get("meta.document-type").unwrap().to_string(), "seismogram");

        // Conditions written against these bindings evaluate.
        let cond = Expr::parse("meta.document-type == 'seismogram' && object.size > 100").unwrap();
        assert!(cond.eval_bool(&scope).unwrap());
    }

    #[test]
    fn builders_compose() {
        let t = Trigger::new("n", "o", path("/"), TriggerAction::Notify("m".into()))
            .on(&[EventKind::ObjectIngested])
            .when(Expr::parse("object.size > 5").unwrap())
            .with_priority(9)
            .before();
        assert_eq!(t.priority, 9);
        assert_eq!(t.timing, Timing::Before);
        assert_eq!(t.on_kinds, vec![EventKind::ObjectIngested]);
    }
}
