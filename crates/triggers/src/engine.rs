//! The trigger engine: registration, ordering, polling, cascade control.

use crate::trigger::{Firing, Timing, Trigger};
use dgf_dgms::{DataGrid, NamespaceEvent, Operation};
use dgf_simgrid::SimTime;

/// How simultaneous matches from different users are ordered — the §2.2
/// open problem made concrete. Under non-transactional semantics the
/// order is observable (one trigger's flow may see another's effects),
/// so the policy is an explicit, benchmarkable choice.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum OrderingPolicy {
    /// First registered fires first (SRB-era behaviour).
    #[default]
    Registration,
    /// Higher [`Trigger::priority`] fires first; ties by registration.
    Priority,
    /// Owners earlier in the list fire first; unlisted owners last;
    /// ties by registration.
    OwnerRank(Vec<String>),
}

/// Counters for observability and the E4 experiment. The only place a
/// trigger count is kept: the DfMS derives its `triggers/*` metrics
/// from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events examined.
    pub events_seen: u64,
    /// Trigger matches whose condition evaluated true.
    pub fired: u64,
    /// Matches suppressed by the cascade-depth limit.
    pub suppressed_by_depth: u64,
    /// Conditions that errored (counted, never fatal).
    pub condition_errors: u64,
}

/// The trigger engine. The DfMS owns one and:
///
/// * calls [`TriggerEngine::before_op`] ahead of each DGMS operation it
///   executes (BEFORE triggers),
/// * calls [`TriggerEngine::poll`] after operations complete, passing
///   the cascade depth of whatever produced the new events (0 for user
///   actions).
#[derive(Debug, Default)]
pub struct TriggerEngine {
    triggers: Vec<Trigger>,
    policy: OrderingPolicy,
    max_depth: u32,
    cursor: u64,
    stats: EngineStats,
}

impl TriggerEngine {
    /// An engine with registration ordering and a cascade limit of 4.
    pub fn new() -> Self {
        TriggerEngine { max_depth: 4, ..Default::default() }
    }

    /// Builder-style ordering policy.
    #[must_use]
    pub fn with_policy(mut self, policy: OrderingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style cascade-depth limit.
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: u32) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Register a trigger. Returns false (and ignores it) when the name
    /// is already taken.
    pub fn register(&mut self, trigger: Trigger) -> bool {
        if self.triggers.iter().any(|t| t.name == trigger.name) {
            return false;
        }
        self.triggers.push(trigger);
        true
    }

    /// Remove a trigger by name; true if it existed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.triggers.len();
        self.triggers.retain(|t| t.name != name);
        self.triggers.len() != before
    }

    /// Enable/disable a trigger; true if it exists.
    pub fn set_enabled(&mut self, name: &str, enabled: bool) -> bool {
        match self.triggers.iter_mut().find(|t| t.name == name) {
            Some(t) => {
                t.enabled = enabled;
                true
            }
            None => false,
        }
    }

    /// Registered triggers, in registration order.
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Counters so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The cascade-depth limit.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Evaluate AFTER triggers against all events not yet seen.
    ///
    /// `depth` is the cascade depth of the activity that produced these
    /// events; resulting firings carry `depth + 1` and firings that would
    /// exceed the limit are counted and dropped.
    pub fn poll(&mut self, grid: &DataGrid, depth: u32) -> Vec<Firing> {
        let events: Vec<NamespaceEvent> = grid.events_since(self.cursor).to_vec();
        if let Some(last) = events.last() {
            self.cursor = last.seq + 1;
        }
        let mut firings = Vec::new();
        for event in &events {
            self.stats.events_seen += 1;
            firings.extend(self.match_event(grid, event, depth, Timing::After));
        }
        firings
    }

    /// Evaluate BEFORE triggers against an operation about to execute.
    ///
    /// The operation is rendered as a *prospective* event (seq = next
    /// sequence number, kind = the event the operation will emit) so the
    /// same condition language applies.
    pub fn before_op(
        &mut self,
        grid: &DataGrid,
        op: &Operation,
        principal: &str,
        now: SimTime,
        depth: u32,
    ) -> Vec<Firing> {
        let Some(kind) = prospective_kind(op) else { return Vec::new() };
        let event = NamespaceEvent {
            seq: grid.next_event_seq(),
            kind,
            path: op.path().clone(),
            principal: principal.to_owned(),
            time: now,
            detail: format!("before {}", op.verb()),
        };
        self.match_event(grid, &event, depth, Timing::Before)
    }

    fn match_event(
        &mut self,
        grid: &DataGrid,
        event: &NamespaceEvent,
        depth: u32,
        timing: Timing,
    ) -> Vec<Firing> {
        let mut matched: Vec<(usize, &Trigger)> = self
            .triggers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.timing == timing && t.matches_event(event))
            .collect();
        match &self.policy {
            OrderingPolicy::Registration => {}
            OrderingPolicy::Priority => {
                matched.sort_by_key(|(idx, t)| (std::cmp::Reverse(t.priority), *idx));
            }
            OrderingPolicy::OwnerRank(ranks) => {
                matched.sort_by_key(|(idx, t)| {
                    let rank = ranks.iter().position(|o| o == &t.owner).unwrap_or(usize::MAX);
                    (rank, *idx)
                });
            }
        }
        let mut firings = Vec::new();
        for (_, trigger) in matched {
            let bindings = Trigger::bindings(grid, event);
            match trigger.condition.eval_bool(&bindings) {
                Ok(true) => {
                    if depth + 1 > self.max_depth {
                        self.stats.suppressed_by_depth += 1;
                        continue;
                    }
                    self.stats.fired += 1;
                    firings.push(Firing {
                        trigger: trigger.name.clone(),
                        owner: trigger.owner.clone(),
                        event: event.clone(),
                        depth: depth + 1,
                        action: trigger.action.clone(),
                        bindings,
                    });
                }
                Ok(false) => {}
                Err(_) => {
                    // A broken condition (e.g. referencing metadata the
                    // object lacks) must not take the engine down; §2.2's
                    // world is multi-user and non-transactional.
                    self.stats.condition_errors += 1;
                }
            }
        }
        firings
    }
}

/// The event kind an operation will produce when it completes (checksum
/// outcomes are data-dependent, so BEFORE triggers see `ChecksumVerified`
/// as the nominal kind).
fn prospective_kind(op: &Operation) -> Option<dgf_dgms::EventKind> {
    use dgf_dgms::EventKind as K;
    Some(match op {
        Operation::CreateCollection { .. } => K::CollectionCreated,
        Operation::RemoveCollection { .. } => K::CollectionRemoved,
        Operation::Ingest { .. } => K::ObjectIngested,
        Operation::Replicate { .. } => K::ObjectReplicated,
        Operation::Migrate { .. } => K::ObjectMigrated,
        Operation::Trim { .. } => K::ReplicaTrimmed,
        Operation::Delete { .. } => K::ObjectDeleted,
        Operation::Rename { .. } => K::ObjectRenamed,
        Operation::Checksum { .. } => K::ChecksumVerified,
        Operation::SetMetadata { .. } => K::MetadataSet,
        Operation::SetPermission { .. } => K::PermissionSet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::TriggerAction;
    use dgf_dgl::Expr;
    use dgf_dgms::{EventKind, LogicalPath, MetaTriple, Principal, UserRegistry};
    use dgf_simgrid::{GridBuilder, GridPreset};

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

    fn notify(name: &str, owner: &str) -> Trigger {
        Trigger::new(name, owner, path("/"), TriggerAction::Notify(format!("{name} fired")))
    }

    fn ingest(g: &mut DataGrid, p: &str, size: u64) {
        g.execute("u", Operation::Ingest { path: path(p), size, resource: "site0-disk".into() }, SimTime::ZERO)
            .unwrap();
    }

    #[test]
    fn poll_fires_matching_triggers_once() {
        let mut g = grid();
        let mut engine = TriggerEngine::new();
        assert!(engine.register(notify("t1", "u").on(&[EventKind::ObjectIngested])));
        ingest(&mut g, "/a", 10);
        let firings = engine.poll(&g, 0);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].trigger, "t1");
        assert_eq!(firings[0].depth, 1);
        // Cursor advanced: polling again yields nothing.
        assert!(engine.poll(&g, 0).is_empty());
        assert_eq!(engine.stats().fired, 1);
    }

    #[test]
    fn conditions_gate_firing() {
        let mut g = grid();
        let mut engine = TriggerEngine::new();
        engine.register(
            notify("big-files", "u")
                .on(&[EventKind::ObjectIngested])
                .when(Expr::parse("object.size > 1000").unwrap()),
        );
        ingest(&mut g, "/small", 10);
        assert!(engine.poll(&g, 0).is_empty());
        ingest(&mut g, "/big", 10_000);
        assert_eq!(engine.poll(&g, 0).len(), 1);
    }

    #[test]
    fn metadata_conditions_enable_the_auto_replication_use_case() {
        // §2.2 use case: "automating replication of certain data based on
        // their meta-data".
        let mut g = grid();
        let mut engine = TriggerEngine::new();
        engine.register(
            notify("replicate-raw", "u")
                .on(&[EventKind::MetadataSet])
                .when(Expr::parse("meta.document-type == 'raw'").unwrap()),
        );
        ingest(&mut g, "/x", 10);
        g.execute("u", Operation::SetMetadata { path: path("/x"), triple: MetaTriple::new("document-type", "raw") }, SimTime::ZERO)
            .unwrap();
        let firings = engine.poll(&g, 0);
        assert_eq!(firings.len(), 1, "fires on the metadata event, not the ingest");
    }

    #[test]
    fn duplicate_names_rejected_and_removal_works() {
        let mut engine = TriggerEngine::new();
        assert!(engine.register(notify("t", "u")));
        assert!(!engine.register(notify("t", "v")));
        assert_eq!(engine.triggers().len(), 1);
        assert!(engine.remove("t"));
        assert!(!engine.remove("t"));
        assert!(!engine.set_enabled("t", false));
    }

    #[test]
    fn ordering_policies_change_observable_order() {
        let mut g = grid();
        let make_engine = |policy| {
            let mut e = TriggerEngine::new().with_policy(policy);
            e.register(notify("alice-t", "alice"));
            e.register(notify("bob-t", "bob").with_priority(10));
            e.register(notify("carol-t", "carol").with_priority(5));
            e
        };
        ingest(&mut g, "/x", 1);

        let mut reg = make_engine(OrderingPolicy::Registration);
        let order: Vec<_> = reg.poll(&g, 0).into_iter().map(|f| f.trigger).collect();
        assert_eq!(order, ["alice-t", "bob-t", "carol-t"]);

        let mut pri = make_engine(OrderingPolicy::Priority);
        let order: Vec<_> = pri.poll(&g, 0).into_iter().map(|f| f.trigger).collect();
        assert_eq!(order, ["bob-t", "carol-t", "alice-t"]);

        let mut rank = make_engine(OrderingPolicy::OwnerRank(vec!["carol".into(), "alice".into()]));
        let order: Vec<_> = rank.poll(&g, 0).into_iter().map(|f| f.trigger).collect();
        assert_eq!(order, ["carol-t", "alice-t", "bob-t"], "unlisted owners last");
    }

    #[test]
    fn cascade_depth_limits_firing_chains() {
        let mut g = grid();
        let mut engine = TriggerEngine::new().with_max_depth(2);
        engine.register(notify("t", "u").on(&[EventKind::ObjectIngested]));
        ingest(&mut g, "/a", 1);
        let f1 = engine.poll(&g, 0);
        assert_eq!(f1[0].depth, 1);
        // Pretend the firing's flow ingested another object.
        ingest(&mut g, "/b", 1);
        let f2 = engine.poll(&g, f1[0].depth);
        assert_eq!(f2[0].depth, 2);
        // Next generation exceeds the limit and is suppressed.
        ingest(&mut g, "/c", 1);
        let f3 = engine.poll(&g, f2[0].depth);
        assert!(f3.is_empty());
        assert_eq!(engine.stats().suppressed_by_depth, 1);
    }

    #[test]
    fn before_triggers_fire_on_intent() {
        let mut g = grid();
        let mut engine = TriggerEngine::new();
        engine.register(
            notify("pre-delete-guard", "u")
                .on(&[EventKind::ObjectDeleted])
                .before(),
        );
        ingest(&mut g, "/x", 1);
        assert!(engine.poll(&g, 0).is_empty(), "AFTER poll ignores BEFORE triggers");
        let op = Operation::Delete { path: path("/x") };
        let firings = engine.before_op(&g, &op, "u", SimTime::ZERO, 0);
        assert_eq!(firings.len(), 1);
        // The object still exists at BEFORE time.
        assert!(g.exists(&path("/x")));
        // And the binding saw pre-operation state.
        assert_eq!(firings[0].bindings.get("object.size").unwrap().to_string(), "1");
    }

    #[test]
    fn broken_conditions_are_counted_not_fatal() {
        let mut g = grid();
        let mut engine = TriggerEngine::new();
        engine.register(
            notify("broken", "u").when(Expr::parse("meta.missing == 'x'").unwrap()),
        );
        engine.register(notify("healthy", "u"));
        ingest(&mut g, "/x", 1);
        let firings = engine.poll(&g, 0);
        assert_eq!(firings.len(), 1);
        assert_eq!(firings[0].trigger, "healthy");
        assert_eq!(engine.stats().condition_errors, 1);
    }
}
