//! Pass 2: control-flow checks.
//!
//! Everything here is decidable without a grid: constant conditions,
//! duplicate or unreachable arms, empty bodies, and rule plumbing the
//! engine will never exercise (only `beforeEntry`/`afterExit` fire) or
//! will reject at runtime (`execute`/`query` inside rule actions).

#![expect(
    clippy::disallowed_types,
    reason = "membership only: the `seen` set answers insert/contains and is never iterated, so hash order cannot reach the diagnostics"
)]

use crate::join_path;
use dgf_dgl::{
    Children, ControlPattern, Diagnostic, DglOperation, Expr, Flow, IterSource, Scope, Severity,
    Step, UserDefinedRule, Value, RULE_AFTER_EXIT, RULE_BEFORE_ENTRY,
};
use std::collections::HashSet;

pub(crate) fn run(flow: &Flow, diags: &mut Vec<Diagnostic>) {
    walk_flow(flow, "", diags);
}

/// Evaluate an expression that references no variables. `None` when the
/// expression does reference variables (not a constant) or fails to
/// evaluate (the def/use pass owns that complaint).
fn const_value(expr: &Expr) -> Option<Value> {
    if !expr.referenced_vars().is_empty() {
        return None;
    }
    expr.eval(&Scope::root()).ok()
}

fn walk_flow(flow: &Flow, prefix: &str, diags: &mut Vec<Diagnostic>) {
    let here = join_path(prefix, &flow.name);

    if flow.children.is_empty() {
        diags.push(
            Diagnostic::new("DGF015", Severity::Warning, &here, "flow has no children and does nothing")
                .with_hint("add steps or sub-flows, or delete the flow"),
        );
    }

    match &flow.logic.pattern {
        ControlPattern::While(cond) => match const_value(cond) {
            Some(v) if v.truthy() => diags.push(
                Diagnostic::new(
                    "DGF012",
                    Severity::Warning,
                    &here,
                    format!("while condition `{cond}` is always true; the loop only ends when the engine's iteration limit fails the run"),
                )
                .with_hint("make the condition depend on a variable the body updates"),
            ),
            Some(_) => diags.push(
                Diagnostic::new(
                    "DGF013",
                    Severity::Warning,
                    &here,
                    format!("while condition `{cond}` is always false; the body never runs"),
                )
                .with_hint("make the condition depend on a variable, or remove the loop"),
            ),
            None => {}
        },
        ControlPattern::ForEach { source: IterSource::Items(items), .. } if items.is_empty() => {
            diags.push(
                Diagnostic::new("DGF014", Severity::Warning, &here, "for-each iterates over an empty item list; the body never runs")
                    .with_hint("add items, or switch to a collection or query source"),
            );
        }
        ControlPattern::Switch { on, cases } => {
            let mut seen: HashSet<Option<&str>> = HashSet::new();
            for case in cases {
                let key = case.value.as_deref();
                if !seen.insert(key) {
                    let label = key.map_or("default".to_owned(), |v| format!("`{v}`"));
                    diags.push(
                        Diagnostic::new(
                            "DGF010",
                            Severity::Error,
                            &here,
                            format!("duplicate switch arm for {label}; the engine always picks the first, the second can never run"),
                        )
                        .with_hint("remove or re-value the duplicate arm"),
                    );
                }
            }
            if let Some(v) = const_value(on) {
                let chosen = v.to_string();
                diags.push(
                    Diagnostic::new(
                        "DGF011",
                        Severity::Warning,
                        &here,
                        format!("switch expression `{on}` is constant (`{chosen}`); every other arm is unreachable"),
                    )
                    .with_hint("switch on a variable, or replace the switch with the arm that matches"),
                );
            }
        }
        ControlPattern::Sequential | ControlPattern::Parallel | ControlPattern::ForEach { .. } => {}
    }

    check_rules(&flow.logic.rules, &here, diags);

    // Sequential siblings after a constant-true while loop never start.
    let sequential = matches!(flow.logic.pattern, ControlPattern::Sequential);
    let child_infinite = |pattern: &ControlPattern| {
        matches!(pattern, ControlPattern::While(c) if const_value(c).is_some_and(|v| v.truthy()))
    };
    match &flow.children {
        Children::Flows(flows) => {
            let mut dead_from = None;
            for (i, f) in flows.iter().enumerate() {
                if sequential {
                    if let Some(first) = dead_from {
                        if first == i {
                            diags.push(dead_sibling(&here, &flows[i - 1].name, &f.name));
                        }
                    } else if child_infinite(&f.logic.pattern) {
                        dead_from = Some(i + 1);
                    }
                }
                walk_flow(f, &here, diags);
            }
        }
        Children::Steps(steps) => {
            for s in steps {
                walk_step(s, &here, diags);
            }
        }
    }
}

fn dead_sibling(here: &str, looping: &str, dead: &str) -> Diagnostic {
    Diagnostic::new(
        "DGF016",
        Severity::Warning,
        join_path(here, dead),
        format!("unreachable: sequential sibling `{looping}` loops forever, so `{dead}` (and anything after it) never starts"),
    )
    .with_hint("fix the preceding loop's condition, or move this work before it")
}

fn walk_step(step: &Step, prefix: &str, diags: &mut Vec<Diagnostic>) {
    let here = join_path(prefix, &step.name);
    check_rules(&step.rules, &here, diags);
}

fn check_rules(rules: &[UserDefinedRule], node: &str, diags: &mut Vec<Diagnostic>) {
    for rule in rules {
        let fires = rule.name == RULE_BEFORE_ENTRY || rule.name == RULE_AFTER_EXIT;
        if !fires {
            diags.push(
                Diagnostic::new(
                    "DGF017",
                    Severity::Warning,
                    node,
                    format!("rule `{}` never fires: the engine only fires `beforeEntry` and `afterExit`", rule.name),
                )
                .with_hint("rename the rule to beforeEntry or afterExit, or remove it"),
            );
        } else if let Some(v) = const_value(&rule.condition) {
            // Mirror the engine's selection: exact name match, else the
            // single action when the value is truthy.
            let selected = rule.actions.iter().any(|a| a.name == v.to_string())
                || (v.truthy() && rule.actions.len() == 1);
            if !rule.actions.is_empty() && !selected {
                diags.push(
                    Diagnostic::new(
                        "DGF018",
                        Severity::Warning,
                        node,
                        format!(
                            "rule `{}` has a constant condition (`{v}`) that selects none of its {} action(s)",
                            rule.name,
                            rule.actions.len()
                        ),
                    )
                    .with_hint("make the condition evaluate to an action's name, or to a truthy value with a single action"),
                );
            }
        }
        for action in &rule.actions {
            for s in &action.steps {
                let severity = if fires { Severity::Error } else { Severity::Warning };
                let op = match &s.operation {
                    DglOperation::Execute { .. } => Some("execute"),
                    DglOperation::Query { .. } => Some("query"),
                    _ => None,
                };
                if let Some(op) = op {
                    let suffix = if fires { "" } else { " (in a rule that never fires)" };
                    diags.push(
                        Diagnostic::new(
                            "DGF019",
                            severity,
                            join_path(node, &s.name),
                            format!("`{op}` is not allowed inside a rule action; the engine rejects it at runtime{suffix}"),
                        )
                        .with_hint("move the operation into a regular step and let the rule set a variable instead"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dgf_dgl::{Case, FlowBuilder, RuleAction};

    fn codes(flow: &Flow) -> Vec<(String, Severity)> {
        crate::lint(flow).diagnostics.iter().map(|d| (d.code.clone(), d.severity)).collect()
    }

    fn notify(name: &str) -> Step {
        Step::new(name, DglOperation::Notify { message: "x".into() })
    }

    #[test]
    fn constant_while_conditions_warn_both_ways() {
        let t = FlowBuilder::while_loop("t", "true").unwrap().add_step(notify("n")).build().unwrap();
        assert!(codes(&t).contains(&("DGF012".into(), Severity::Warning)));
        let f = FlowBuilder::while_loop("f", "1 > 2").unwrap().add_step(notify("n")).build().unwrap();
        assert!(codes(&f).contains(&("DGF013".into(), Severity::Warning)));
        // A variable-dependent condition is not constant.
        let v = FlowBuilder::while_loop("v", "i < 3").unwrap().var("i", "0").add_step(notify("n")).build().unwrap();
        assert!(!codes(&v).iter().any(|(c, _)| c == "DGF012" || c == "DGF013"));
    }

    #[test]
    fn duplicate_case_arms_are_errors_and_constant_switch_warns() {
        let mut flow = FlowBuilder::sequential("s").add_step(notify("a")).add_step(notify("b")).build().unwrap();
        flow.variables.push(dgf_dgl::VarDecl::new("mode", "fast"));
        flow.logic.pattern = ControlPattern::Switch {
            on: Expr::parse("mode").unwrap(),
            cases: vec![
                Case { value: Some("fast".into()) },
                Case { value: Some("fast".into()) },
            ],
        };
        assert!(codes(&flow).contains(&("DGF010".into(), Severity::Error)));

        flow.logic.pattern = ControlPattern::Switch {
            on: Expr::parse("'fast'").unwrap(),
            cases: vec![Case { value: Some("fast".into()) }, Case { value: Some("slow".into()) }],
        };
        let got = codes(&flow);
        assert!(got.contains(&("DGF011".into(), Severity::Warning)), "{got:?}");
    }

    #[test]
    fn empty_foreach_and_empty_flow_warn() {
        let empty_items = FlowBuilder::for_each_items("e", "f", Vec::<String>::new())
            .add_step(notify("n"))
            .build()
            .unwrap();
        assert!(codes(&empty_items).contains(&("DGF014".into(), Severity::Warning)));

        let hollow = Flow::sequence("hollow", vec![]);
        assert!(codes(&hollow).contains(&("DGF015".into(), Severity::Warning)));
    }

    #[test]
    fn sequential_siblings_after_an_infinite_loop_are_dead() {
        let spin = FlowBuilder::while_loop("spin", "true").unwrap().add_step(notify("n")).build().unwrap();
        let after = Flow::sequence("after", vec![notify("n")]);
        let outer = Flow {
            name: "outer".into(),
            variables: vec![],
            logic: dgf_dgl::FlowLogic::sequential(),
            children: Children::Flows(vec![spin.clone(), after.clone()]),
        };
        let got = codes(&outer);
        assert!(got.contains(&("DGF016".into(), Severity::Warning)), "{got:?}");

        // Parallel siblings are fine: they all start together.
        let outer = Flow::parallel_flows("outer", vec![spin, after]);
        assert!(!codes(&outer).iter().any(|(c, _)| c == "DGF016"));
    }

    #[test]
    fn rule_plumbing_diagnostics() {
        // Custom-named rule never fires.
        let mut flow = Flow::sequence("f", vec![notify("n")]);
        flow.logic.rules =
            vec![UserDefinedRule::unconditional("onDisaster", vec![notify("cleanup")])];
        assert!(codes(&flow).contains(&("DGF017".into(), Severity::Warning)));

        // Constant condition that selects none of two actions.
        flow.logic.rules = vec![UserDefinedRule::new(
            RULE_BEFORE_ENTRY,
            Expr::parse("'nosuch'").unwrap(),
            vec![
                RuleAction { name: "a".into(), steps: vec![] },
                RuleAction { name: "b".into(), steps: vec![] },
            ],
        )];
        assert!(codes(&flow).contains(&("DGF018".into(), Severity::Warning)));

        // Execute inside a firing rule action is an error; inside a dead
        // rule it is only a warning.
        let exec = Step::new(
            "run",
            DglOperation::Execute {
                code: "c".into(),
                nominal_secs: "1".into(),
                resource_type: None,
                inputs: vec![],
                outputs: vec![],
            },
        );
        flow.logic.rules = vec![UserDefinedRule::unconditional(RULE_BEFORE_ENTRY, vec![exec.clone()])];
        assert!(codes(&flow).contains(&("DGF019".into(), Severity::Error)));
        flow.logic.rules = vec![UserDefinedRule::unconditional("dead", vec![exec])];
        let got = codes(&flow);
        assert!(got.contains(&("DGF019".into(), Severity::Warning)), "{got:?}");
        assert!(crate::lint(&flow).valid);
    }
}
