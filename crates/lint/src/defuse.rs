//! Pass 1: definition/use analysis of DGL variables.
//!
//! The walker mirrors the engine's scoping exactly:
//!
//! * each flow/step node pushes one frame; declared variables land in
//!   it, in order, so a later initial can reference an earlier one;
//! * `assign` (and `query … into`) updates the nearest declaring frame,
//!   or declares in the *innermost* frame when undeclared — which means
//!   an undeclared binding made inside a regular step dies when the
//!   step's frame pops (the engine copies only surviving frames back to
//!   the parent);
//! * rule-action steps run inline in the *node's* scope, so their
//!   assigns persist for the node's lifetime;
//! * only `beforeEntry`/`afterExit` rules fire; other rules are dead
//!   code, so defects inside them are downgraded from error to warning.

#![expect(
    clippy::disallowed_types,
    reason = "membership only: `query_targets` and `bound_lists` answer insert/contains and are never iterated, so hash order cannot reach the diagnostics"
)]

use crate::join_path;
use dgf_dgl::{
    template_refs, Children, ControlPattern, Diagnostic, DglOperation, Expr, Flow, IterSource,
    Severity, Step, UserDefinedRule, RULE_AFTER_EXIT, RULE_BEFORE_ENTRY,
};
use std::collections::HashSet;

pub(crate) fn run(flow: &Flow, diags: &mut Vec<Diagnostic>) {
    let mut query_targets = HashSet::new();
    collect_query_targets(flow, &mut query_targets);
    let mut pass = DefUse {
        frames: Vec::new(),
        diags,
        query_targets,
        bound_lists: HashSet::new(),
        reachable: true,
    };
    pass.walk_flow(flow, "");
}

struct VarInfo {
    name: String,
    read: bool,
    decl_path: String,
}

struct DefUse<'a> {
    frames: Vec<Vec<VarInfo>>,
    diags: &'a mut Vec<Diagnostic>,
    /// Every `query … into` target anywhere in the flow.
    query_targets: HashSet<String>,
    /// Query targets whose binding step has already run, walking in
    /// execution order.
    bound_lists: HashSet<String>,
    /// False inside rules that can never fire: errors downgrade to
    /// warnings there (the engine will never evaluate them).
    reachable: bool,
}

impl DefUse<'_> {
    fn emit(&mut self, code: &str, severity: Severity, node: &str, message: String, hint: &str) {
        let severity = if severity == Severity::Error && !self.reachable { Severity::Warning } else { severity };
        let message = if self.reachable { message } else { format!("{message} (in a rule that never fires)") };
        self.diags.push(Diagnostic::new(code, severity, node, message).with_hint(hint));
    }

    fn declare(&mut self, name: &str, node: &str) {
        let visible = self
            .frames
            .iter()
            .flat_map(|f| f.iter())
            .rev()
            .find(|v| v.name == name)
            .map(|v| v.decl_path.clone());
        if let Some(outer) = visible {
            self.emit(
                "DGF003",
                Severity::Warning,
                node,
                format!("declaration of `{name}` shadows the declaration at {outer}"),
                "rename one of the variables, or drop the inner declaration to reuse the outer one",
            );
        }
        self.frames
            .last_mut()
            .expect("declare inside a frame")
            .push(VarInfo { name: name.to_owned(), read: false, decl_path: node.to_owned() });
    }

    /// Mark the nearest declaration of `name` as read. False when no
    /// frame declares it.
    fn mark_read(&mut self, name: &str) -> bool {
        for frame in self.frames.iter_mut().rev() {
            if let Some(v) = frame.iter_mut().rev().find(|v| v.name == name) {
                v.read = true;
                return true;
            }
        }
        false
    }

    fn is_declared(&self, name: &str) -> bool {
        self.frames.iter().any(|f| f.iter().any(|v| v.name == name))
    }

    fn read(&mut self, name: &str, node: &str, context: &str) {
        if !self.mark_read(name) {
            let hint = if self.query_targets.contains(name) {
                format!("declare `{name}` in an enclosing flow's variables so the query binding outlives its step")
            } else {
                format!("declare `{name}` in an enclosing flow's or step's variables")
            };
            self.emit(
                "DGF001",
                Severity::Error,
                node,
                format!("undefined variable `{name}` in {context}"),
                &hint,
            );
        }
    }

    fn check_template(&mut self, template: &str, node: &str, context: &str) {
        for name in template_refs(template) {
            self.read(&name, node, context);
        }
    }

    fn check_expr(&mut self, expr: &Expr, node: &str, context: &str) {
        for name in expr.referenced_vars() {
            self.read(&name, node, context);
        }
    }

    fn walk_flow(&mut self, flow: &Flow, prefix: &str) {
        let here = join_path(prefix, &flow.name);
        self.frames.push(Vec::new());
        for v in &flow.variables {
            self.check_template(&v.initial, &here, &format!("the initial value of `{}`", v.name));
            self.declare(&v.name, &here);
        }
        self.walk_rules_named(&flow.logic.rules, RULE_BEFORE_ENTRY, &here);
        match &flow.logic.pattern {
            ControlPattern::While(cond) => self.check_expr(cond, &here, "the while condition"),
            ControlPattern::Switch { on, .. } => self.check_expr(on, &here, "the switch expression"),
            ControlPattern::ForEach { var, source, .. } => {
                self.check_iter_source(source, &here);
                self.declare(var, &here);
                // The engine binds the loop variable every iteration;
                // an unread loop variable is normal (side-effect-only
                // bodies), so pre-mark it read.
                self.mark_read(var);
            }
            ControlPattern::Sequential | ControlPattern::Parallel => {}
        }
        match &flow.children {
            Children::Flows(flows) => {
                for f in flows {
                    self.walk_flow(f, &here);
                }
            }
            Children::Steps(steps) => {
                for s in steps {
                    self.walk_step(s, &here);
                }
            }
        }
        self.walk_rules_named(&flow.logic.rules, RULE_AFTER_EXIT, &here);
        self.walk_dead_rules(&flow.logic.rules, &here);
        self.pop_frame();
    }

    fn walk_step(&mut self, step: &Step, prefix: &str) {
        let here = join_path(prefix, &step.name);
        self.frames.push(Vec::new());
        for v in &step.variables {
            self.check_template(&v.initial, &here, &format!("the initial value of `{}`", v.name));
            self.declare(&v.name, &here);
        }
        self.walk_rules_named(&step.rules, RULE_BEFORE_ENTRY, &here);
        self.check_operation(&step.operation, &here, /* inline= */ false);
        self.walk_rules_named(&step.rules, RULE_AFTER_EXIT, &here);
        self.walk_dead_rules(&step.rules, &here);
        self.pop_frame();
    }

    /// Rule actions run inline in the node's scope: no fresh frame, and
    /// the engine ignores inline steps' own variables and rules.
    fn walk_rules_named(&mut self, rules: &[UserDefinedRule], name: &str, node: &str) {
        for rule in rules.iter().filter(|r| r.name == name) {
            self.check_expr(&rule.condition, node, &format!("the condition of rule `{}`", rule.name));
            for action in &rule.actions {
                for step in &action.steps {
                    let path = join_path(node, &step.name);
                    self.check_operation(&step.operation, &path, /* inline= */ true);
                }
            }
        }
    }

    /// Rules with non-reserved names never fire; still check their
    /// contents, downgraded, so latent typos surface without blocking
    /// submission of a flow that would in fact run.
    fn walk_dead_rules(&mut self, rules: &[UserDefinedRule], node: &str) {
        let was = self.reachable;
        self.reachable = false;
        for rule in rules.iter().filter(|r| r.name != RULE_BEFORE_ENTRY && r.name != RULE_AFTER_EXIT) {
            self.check_expr(&rule.condition, node, &format!("the condition of rule `{}`", rule.name));
            for action in &rule.actions {
                for step in &action.steps {
                    let path = join_path(node, &step.name);
                    self.check_operation(&step.operation, &path, /* inline= */ true);
                }
            }
        }
        self.reachable = was;
    }

    fn check_iter_source(&mut self, source: &IterSource, node: &str) {
        match source {
            IterSource::Items(items) => {
                for item in items {
                    self.check_template(item, node, "a for-each item");
                }
            }
            IterSource::Collection(c) => self.check_template(c, node, "the for-each collection"),
            IterSource::Query { collection, attribute, value } => {
                self.check_template(collection, node, "the for-each query collection");
                self.check_template(attribute, node, "the for-each query attribute");
                self.check_template(value, node, "the for-each query value");
            }
            IterSource::Variable(name) => {
                if !self.mark_read(name) {
                    self.emit(
                        "DGF001",
                        Severity::Error,
                        node,
                        format!("undefined variable `{name}` as the for-each source"),
                        &format!("declare `{name}` in an enclosing flow's variables and bind it with a query step"),
                    );
                } else if self.reachable
                    && self.query_targets.contains(name)
                    && !self.bound_lists.contains(name)
                {
                    self.emit(
                        "DGF004",
                        Severity::Error,
                        node,
                        format!("list variable `{name}` is iterated before the query step that binds it"),
                        "move the query step ahead of this for-each in a sequential flow",
                    );
                }
            }
        }
    }

    fn check_operation(&mut self, op: &DglOperation, node: &str, inline: bool) {
        let t = |this: &mut Self, template: &str, what: &str| {
            this.check_template(template, node, what);
        };
        match op {
            DglOperation::CreateCollection { path } | DglOperation::Delete { path } => {
                t(self, path, "the path")
            }
            DglOperation::Ingest { path, size, resource } => {
                t(self, path, "the path");
                t(self, size, "the size");
                t(self, resource, "the resource");
            }
            DglOperation::Replicate { path, src, dst } => {
                t(self, path, "the path");
                if let Some(src) = src {
                    t(self, src, "the source resource");
                }
                t(self, dst, "the destination resource");
            }
            DglOperation::Migrate { path, from, to } => {
                t(self, path, "the path");
                t(self, from, "the source resource");
                t(self, to, "the destination resource");
            }
            DglOperation::Trim { path, resource } => {
                t(self, path, "the path");
                t(self, resource, "the resource");
            }
            DglOperation::Rename { path, to } => {
                t(self, path, "the path");
                t(self, to, "the new path");
            }
            DglOperation::Checksum { path, resource, .. } => {
                t(self, path, "the path");
                if let Some(resource) = resource {
                    t(self, resource, "the resource");
                }
            }
            DglOperation::SetMetadata { path, attribute, value } => {
                t(self, path, "the path");
                t(self, attribute, "the attribute");
                t(self, value, "the value");
            }
            DglOperation::SetPermission { path, grantee, level } => {
                t(self, path, "the path");
                t(self, grantee, "the grantee");
                t(self, level, "the permission level");
            }
            DglOperation::Query { collection, attribute, value, into } => {
                t(self, collection, "the query collection");
                t(self, attribute, "the query attribute");
                t(self, value, "the query value");
                if self.is_declared(into) {
                    self.mark_read(into);
                    if self.reachable {
                        self.bound_lists.insert(into.clone());
                    }
                } else if inline {
                    // Inline queries are rejected at runtime (DGF019,
                    // control pass); no binding to model.
                } else {
                    self.emit(
                        "DGF004",
                        Severity::Error,
                        node,
                        format!(
                            "query binds `{into}` in the step's own scope, which is discarded when the step completes"
                        ),
                        &format!("declare `{into}` in an enclosing flow's variables so the binding outlives this step"),
                    );
                    // Model the engine faithfully anyway: the binding
                    // exists inside this step's frame.
                    self.frames
                        .last_mut()
                        .expect("step frame")
                        .push(VarInfo { name: into.clone(), read: true, decl_path: node.to_owned() });
                }
            }
            DglOperation::Execute { code, nominal_secs, resource_type, inputs, outputs } => {
                t(self, code, "the code name");
                t(self, nominal_secs, "the nominal duration");
                if let Some(rt) = resource_type {
                    t(self, rt, "the resource type");
                }
                for input in inputs {
                    t(self, input, "an input path");
                }
                for (path, size) in outputs {
                    t(self, path, "an output path");
                    t(self, size, "an output size");
                }
            }
            DglOperation::Assign { variable, expr } => {
                self.check_expr(expr, node, "the assigned expression");
                if self.is_declared(variable) {
                    self.mark_read(variable);
                } else if self.reachable {
                    // Undeclared assign: binds in the innermost frame.
                    // For a regular step that frame dies with the step;
                    // inline rule actions bind the node's frame, which
                    // children and later siblings of the node do see.
                    self.frames
                        .last_mut()
                        .expect("frame present")
                        .push(VarInfo { name: variable.clone(), read: !inline, decl_path: node.to_owned() });
                }
            }
            DglOperation::Notify { message } => t(self, message, "the message"),
        }
    }

    fn pop_frame(&mut self) {
        let frame = self.frames.pop().expect("balanced frames");
        for v in frame {
            // `dgf.`-prefixed names are reserved engine directives
            // (`dgf.deadline`, `dgf.class`): the *engine* reads them at
            // submission, so "never read by the flow" is their normal,
            // correct state.
            if v.name.starts_with("dgf.") {
                continue;
            }
            if !v.read {
                self.diags.push(
                    Diagnostic::new(
                        "DGF002",
                        Severity::Warning,
                        &v.decl_path,
                        format!("variable `{}` is declared but never read", v.name),
                    )
                    .with_hint("remove the declaration, or reference it from a template or expression"),
                );
            }
        }
    }
}

fn collect_query_targets(flow: &Flow, out: &mut HashSet<String>) {
    fn scan_step(step: &Step, out: &mut HashSet<String>) {
        if let DglOperation::Query { into, .. } = &step.operation {
            out.insert(into.clone());
        }
        for rule in &step.rules {
            for action in &rule.actions {
                for s in &action.steps {
                    scan_step(s, out);
                }
            }
        }
    }
    for rule in &flow.logic.rules {
        for action in &rule.actions {
            for s in &action.steps {
                scan_step(s, out);
            }
        }
    }
    match &flow.children {
        Children::Flows(flows) => {
            for f in flows {
                collect_query_targets(f, out);
            }
        }
        Children::Steps(steps) => {
            for s in steps {
                scan_step(s, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_dgl::{FlowBuilder, RuleAction, VarDecl};

    fn lint_codes(flow: &Flow) -> Vec<(String, Severity)> {
        let report = crate::lint(flow);
        report.diagnostics.iter().map(|d| (d.code.clone(), d.severity)).collect()
    }

    #[test]
    fn undefined_template_and_expr_reads_are_errors() {
        let flow = FlowBuilder::sequential("f")
            .step("n", DglOperation::Notify { message: "hi ${who}".into() })
            .build()
            .unwrap();
        assert!(lint_codes(&flow).contains(&("DGF001".into(), Severity::Error)));

        let flow = FlowBuilder::while_loop("w", "i < 3").unwrap()
            .step("n", DglOperation::Notify { message: "x".into() })
            .build()
            .unwrap();
        assert!(lint_codes(&flow).contains(&("DGF001".into(), Severity::Error)), "expr read of undeclared i");
    }

    #[test]
    fn declared_variables_resolve_across_nesting() {
        let inner = FlowBuilder::sequential("inner")
            .step("n", DglOperation::Notify { message: "${site}".into() })
            .build()
            .unwrap();
        let mut outer = Flow::parallel_flows("outer", vec![inner]);
        outer.variables.push(VarDecl::new("site", "sdsc"));
        let report = crate::lint(&outer);
        assert!(report.valid, "{report:#?}");
    }

    #[test]
    fn unused_and_shadowed_variables_warn() {
        let flow = FlowBuilder::sequential("f")
            .var("dead", "1")
            .step("n", DglOperation::Notify { message: "x".into() })
            .build()
            .unwrap();
        assert!(lint_codes(&flow).contains(&("DGF002".into(), Severity::Warning)));

        let inner = FlowBuilder::sequential("inner")
            .var("site", "npaci")
            .step("n", DglOperation::Notify { message: "${site}".into() })
            .build()
            .unwrap();
        let mut outer = Flow::parallel_flows("outer", vec![inner]);
        outer.variables.push(VarDecl::new("site", "sdsc"));
        let codes = lint_codes(&outer);
        assert!(codes.contains(&("DGF003".into(), Severity::Warning)), "{codes:?}");
        // The outer `site` is shadowed and never read -> also unused.
        assert!(codes.contains(&("DGF002".into(), Severity::Warning)));
    }

    #[test]
    fn foreach_loop_variable_is_defined_inside_the_body() {
        let flow = FlowBuilder::for_each_items("sweep", "file", ["a", "b"])
            .step("sum", DglOperation::Checksum { path: "${file}".into(), resource: None, register: false })
            .build()
            .unwrap();
        assert!(crate::lint(&flow).valid);
    }

    #[test]
    fn list_iterated_before_its_query_step() {
        // for-each over `hits` runs before the query that binds it.
        let iterate = FlowBuilder::for_each_items("use", "f", Vec::<String>::new()).build().unwrap();
        let mut iterate = iterate;
        iterate.logic.pattern = ControlPattern::ForEach {
            var: "f".into(),
            source: IterSource::Variable("hits".into()),
            parallel: false,
        };
        let bind = FlowBuilder::sequential("bind")
            .step(
                "q",
                DglOperation::Query { collection: "/c".into(), attribute: "a".into(), value: "v".into(), into: "hits".into() },
            )
            .build()
            .unwrap();
        let mut outer = Flow { name: "outer".into(), variables: vec![VarDecl::new("hits", "")], logic: dgf_dgl::FlowLogic::sequential(), children: Children::Flows(vec![iterate, bind]) };
        let codes = lint_codes(&outer);
        assert!(codes.contains(&("DGF004".into(), Severity::Error)), "{codes:?}");

        // Swapping the order fixes it.
        let Children::Flows(children) = &mut outer.children else { unreachable!() };
        children.swap(0, 1);
        let codes = lint_codes(&outer);
        assert!(!codes.iter().any(|(c, _)| c == "DGF004"), "{codes:?}");
    }

    #[test]
    fn query_into_undeclared_variable_is_flagged() {
        let flow = FlowBuilder::sequential("f")
            .step(
                "q",
                DglOperation::Query { collection: "/c".into(), attribute: "a".into(), value: "v".into(), into: "hits".into() },
            )
            .build()
            .unwrap();
        let codes = lint_codes(&flow);
        assert!(codes.contains(&("DGF004".into(), Severity::Error)), "{codes:?}");
    }

    #[test]
    fn assigns_to_declared_variables_are_fine() {
        let flow = FlowBuilder::while_loop("loop", "i < 3").unwrap()
            .var("i", "0")
            .step("inc", DglOperation::Assign { variable: "i".into(), expr: Expr::parse("i + 1").unwrap() })
            .build()
            .unwrap();
        let report = crate::lint(&flow);
        assert!(report.valid, "{report:#?}");
    }

    #[test]
    fn before_entry_assign_binds_for_the_node() {
        // An Assign inside beforeEntry writes the node's own frame, so
        // children can read it.
        let mut flow = FlowBuilder::sequential("f")
            .step("n", DglOperation::Notify { message: "${greeting}".into() })
            .build()
            .unwrap();
        flow.logic.rules = vec![UserDefinedRule::unconditional(
            RULE_BEFORE_ENTRY,
            vec![Step::new("set", DglOperation::Assign { variable: "greeting".into(), expr: Expr::parse("'hi'").unwrap() })],
        )];
        let report = crate::lint(&flow);
        assert!(report.valid, "{report:#?}");
    }

    #[test]
    fn errors_inside_dead_rules_downgrade_to_warnings() {
        let mut flow = FlowBuilder::sequential("f")
            .step("n", DglOperation::Notify { message: "x".into() })
            .build()
            .unwrap();
        flow.logic.rules = vec![UserDefinedRule::new(
            "myRule",
            Expr::parse("ghost == 1").unwrap(),
            vec![RuleAction { name: "a".into(), steps: vec![] }],
        )];
        let report = crate::lint(&flow);
        assert!(report.valid, "dead-rule reads must not reject the flow: {report:#?}");
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == "DGF001" && d.severity == Severity::Warning));
    }
}
