//! XML encoding and decoding of DGL documents.
//!
//! The element vocabulary reproduces the schema diagrams of the paper:
//! Figure 1 (`flow` = variables + flowLogic + children), Figure 2
//! (`dataGridRequest`), Figure 3 (`flowLogic` = control choice +
//! userDefinedRules), Figure 4 (`dataGridResponse`).

use crate::error::DglError;
use crate::expr::Expr;
use crate::flow::{Case, Children, ControlPattern, Flow, FlowLogic, IterSource, RuleAction, UserDefinedRule, VarDecl};
use crate::request::{DataGridRequest, RequestBody, RequestMode};
use crate::response::{DataGridResponse, RequestAck, ResponseBody};
use crate::status::{FlowStatusQuery, RunState, StatusReport};
use crate::step::{DglOperation, ErrorPolicy, Step};
use crate::validation::Severity;
use crate::why::{AlertState, WaitState};
use dgf_xml::Element;

/// Parse a complete `<dataGridRequest>` document.
pub fn parse_request(xml: &str) -> Result<DataGridRequest, DglError> {
    let root = dgf_xml::parse(xml)?;
    DataGridRequest::from_element(&root)
}

/// Parse a complete `<dataGridResponse>` document.
pub fn parse_response(xml: &str) -> Result<DataGridResponse, DglError> {
    let root = dgf_xml::parse(xml)?;
    DataGridResponse::from_element(&root)
}

fn require_attr<'a>(e: &'a Element, name: &str) -> Result<&'a str, DglError> {
    e.attr(name).ok_or_else(|| DglError::schema(&e.name, format!("missing attribute {name:?}")))
}

/// A type one attribute value decodes to; `None` for a malformed value.
trait AttrValue: Sized {
    fn from_attr(raw: &str) -> Option<Self>;
}

/// Strings and the integer types (`u32`, `u64`, `usize`).
impl<T: std::str::FromStr> AttrValue for T {
    fn from_attr(raw: &str) -> Option<Self> {
        raw.parse().ok()
    }
}

impl AttrValue for RunState {
    fn from_attr(raw: &str) -> Option<Self> {
        RunState::parse(raw)
    }
}

impl AttrValue for WaitState {
    fn from_attr(raw: &str) -> Option<Self> {
        WaitState::parse(raw)
    }
}

impl AttrValue for AlertState {
    fn from_attr(raw: &str) -> Option<Self> {
        AlertState::parse(raw)
    }
}

impl AttrValue for Severity {
    fn from_attr(raw: &str) -> Option<Self> {
        Severity::parse(raw).ok()
    }
}

/// A required attribute, decoded.
fn req<T: AttrValue>(e: &Element, name: &str) -> Result<T, DglError> {
    let raw = require_attr(e, name)?;
    T::from_attr(raw).ok_or_else(|| bad_attr(e, name, raw))
}

/// An optional attribute, decoded when present.
fn opt<T: AttrValue>(e: &Element, name: &str) -> Result<Option<T>, DglError> {
    e.attr(name).map(|raw| T::from_attr(raw).ok_or_else(|| bad_attr(e, name, raw))).transpose()
}

fn bad_attr(e: &Element, name: &str, raw: &str) -> DglError {
    DglError::schema(&e.name, format!("bad {name} {raw:?}"))
}

/// A lenient boolean attribute: only the spelling opposite to
/// `default` (`"true"` or `"false"`) changes the value; an absent or
/// any other value reads as `default`.
fn flag(e: &Element, name: &str, default: bool) -> bool {
    match e.attr(name) {
        Some("true") => true,
        Some("false") => false,
        _ => default,
    }
}

fn require_child<'a>(e: &'a Element, name: &str) -> Result<&'a Element, DglError> {
    e.child(name).ok_or_else(|| DglError::schema(&e.name, format!("missing child <{name}>")))
}

fn parse_expr_child(e: &Element, name: &str) -> Result<Expr, DglError> {
    let node = require_child(e, name)?;
    Expr::parse(&node.text())
}

// ----------------------------------------------------------------------
// DataGridRequest (Figure 2)
// ----------------------------------------------------------------------

impl DataGridRequest {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        let mut root = Element::new("dataGridRequest").with_attr("id", &self.id);
        root.set_attr(
            "mode",
            match self.mode {
                RequestMode::Synchronous => "synchronous",
                RequestMode::Asynchronous => "asynchronous",
            },
        );
        if !self.description.is_empty() {
            root.push_element(
                Element::new("documentMetadata")
                    .with_child(Element::new("description").with_text(&self.description)),
            );
        }
        let mut user = Element::new("gridUser").with_attr("name", &self.user);
        if let Some(vo) = &self.vo {
            user.set_attr("vo", vo);
        }
        root.push_element(user);
        match &self.body {
            RequestBody::Flow(flow) => root.push_element(flow.to_element()),
            RequestBody::StatusQuery(q) => root.push_element(q.to_element()),
            RequestBody::Telemetry(q) => root.push_element(q.to_element()),
            RequestBody::Validation(q) => root.push_element(q.to_element()),
            RequestBody::Recovery(q) => root.push_element(q.to_element()),
            RequestBody::TimeTravel(q) => root.push_element(q.to_element()),
            RequestBody::Profile(q) => root.push_element(q.to_element()),
            RequestBody::Why(q) => root.push_element(q.to_element()),
            RequestBody::Federation(q) => root.push_element(q.to_element()),
        }
        root
    }

    /// Encode as a pretty-printed XML document.
    pub fn to_xml(&self) -> String {
        self.to_element().to_xml_pretty()
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        if e.name != "dataGridRequest" {
            return Err(DglError::schema(&e.name, "expected <dataGridRequest>"));
        }
        let id = req(e, "id")?;
        let mode = match e.attr("mode").unwrap_or("synchronous") {
            "synchronous" => RequestMode::Synchronous,
            "asynchronous" => RequestMode::Asynchronous,
            other => return Err(DglError::schema(&e.name, format!("unknown mode {other:?}"))),
        };
        let description = e
            .child("documentMetadata")
            .and_then(|m| m.child("description"))
            .map(|d| d.text())
            .unwrap_or_default();
        let user_el = require_child(e, "gridUser")?;
        let user = req(user_el, "name")?;
        let vo = opt(user_el, "vo")?;
        let body = if let Some(flow_el) = e.child("flow") {
            RequestBody::Flow(Flow::from_element(flow_el)?)
        } else if let Some(q_el) = e.child("flowStatusQuery") {
            RequestBody::StatusQuery(FlowStatusQuery::from_element(q_el)?)
        } else if let Some(q_el) = e.child("telemetryQuery") {
            RequestBody::Telemetry(crate::TelemetryQuery::from_element(q_el)?)
        } else if let Some(q_el) = e.child("flowValidationQuery") {
            RequestBody::Validation(crate::FlowValidationQuery::from_element(q_el)?)
        } else if let Some(q_el) = e.child("recoveryQuery") {
            RequestBody::Recovery(crate::RecoveryQuery::from_element(q_el)?)
        } else if let Some(q_el) = e.child("timeTravelQuery") {
            RequestBody::TimeTravel(crate::TimeTravelQuery::from_element(q_el)?)
        } else if let Some(q_el) = e.child("profileQuery") {
            RequestBody::Profile(crate::ProfileQuery::from_element(q_el)?)
        } else if let Some(q_el) = e.child("whyQuery") {
            RequestBody::Why(crate::WhyQuery::from_element(q_el)?)
        } else if let Some(q_el) = e.child("federationQuery") {
            RequestBody::Federation(crate::FederationQuery::from_element(q_el)?)
        } else {
            return Err(DglError::schema(
                &e.name,
                "needs a <flow>, <flowStatusQuery>, <telemetryQuery>, <flowValidationQuery>, <recoveryQuery>, <timeTravelQuery>, <profileQuery>, <whyQuery>, or <federationQuery>",
            ));
        };
        Ok(DataGridRequest { id, description, user, vo, mode, body })
    }
}

// ----------------------------------------------------------------------
// Flow (Figure 1) and FlowLogic (Figure 3)
// ----------------------------------------------------------------------

impl Flow {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("flow").with_attr("name", &self.name);
        if !self.variables.is_empty() {
            el.push_element(variables_element(&self.variables));
        }
        el.push_element(self.logic.to_element());
        let mut children = Element::new("children");
        match &self.children {
            Children::Flows(flows) => {
                for f in flows {
                    children.push_element(f.to_element());
                }
            }
            Children::Steps(steps) => {
                for s in steps {
                    children.push_element(s.to_element());
                }
            }
        }
        el.push_element(children);
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        if e.name != "flow" {
            return Err(DglError::schema(&e.name, "expected <flow>"));
        }
        let name = req(e, "name")?;
        let variables = e.child("variables").map(parse_variables).transpose()?.unwrap_or_default();
        let logic = FlowLogic::from_element(require_child(e, "flowLogic")?)?;
        let children_el = require_child(e, "children")?;
        let flow_children: Vec<&Element> = children_el.children_named("flow").collect();
        let step_children: Vec<&Element> = children_el.children_named("step").collect();
        if !flow_children.is_empty() && !step_children.is_empty() {
            return Err(DglError::schema("children", "a flow contains sub-flows or steps, not both"));
        }
        let children = if !flow_children.is_empty() {
            Children::Flows(flow_children.into_iter().map(Flow::from_element).collect::<Result<_, _>>()?)
        } else {
            Children::Steps(step_children.into_iter().map(Step::from_element).collect::<Result<_, _>>()?)
        };
        Ok(Flow { name, variables, logic, children })
    }
}

fn variables_element(vars: &[VarDecl]) -> Element {
    let mut el = Element::new("variables");
    for v in vars {
        el.push_element(Element::new("variable").with_attr("name", &v.name).with_attr("value", &v.initial));
    }
    el
}

fn parse_variables(e: &Element) -> Result<Vec<VarDecl>, DglError> {
    e.children_named("variable")
        .map(|v| Ok(VarDecl { name: req(v, "name")?, initial: v.attr("value").unwrap_or("").to_owned() }))
        .collect()
}

impl FlowLogic {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("flowLogic");
        let control = match &self.pattern {
            ControlPattern::Sequential => Element::new("sequential"),
            ControlPattern::Parallel => Element::new("parallel"),
            ControlPattern::While(cond) => {
                Element::new("while").with_child(Element::new("tcondition").with_text(cond.source()))
            }
            ControlPattern::ForEach { var, source, parallel } => {
                let mut fe = Element::new("forEach")
                    .with_attr("var", var)
                    .with_attr("parallel", parallel.to_string());
                match source {
                    IterSource::Items(items) => {
                        let mut list = Element::new("items");
                        for item in items {
                            list.push_element(Element::new("item").with_text(item));
                        }
                        fe.push_element(list);
                    }
                    IterSource::Collection(c) => {
                        fe.push_element(Element::new("collection").with_text(c));
                    }
                    IterSource::Query { collection, attribute, value } => {
                        fe.push_element(
                            Element::new("query")
                                .with_attr("collection", collection)
                                .with_attr("attribute", attribute)
                                .with_attr("value", value),
                        );
                    }
                    IterSource::Variable(name) => {
                        fe.push_element(Element::new("variableSource").with_attr("name", name));
                    }
                }
                fe
            }
            ControlPattern::Switch { on, cases } => {
                let mut sw = Element::new("switch").with_child(Element::new("on").with_text(on.source()));
                for case in cases {
                    let mut c = Element::new("case");
                    if let Some(v) = &case.value {
                        c.set_attr("value", v);
                    }
                    sw.push_element(c);
                }
                sw
            }
        };
        el.push_element(control);
        for rule in &self.rules {
            el.push_element(rule.to_element());
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        if e.name != "flowLogic" {
            return Err(DglError::schema(&e.name, "expected <flowLogic>"));
        }
        let control = e
            .child_elements()
            .find(|c| matches!(c.name.as_str(), "sequential" | "parallel" | "while" | "forEach" | "switch"))
            .ok_or_else(|| DglError::schema("flowLogic", "missing control pattern element"))?;
        let pattern = match control.name.as_str() {
            "sequential" => ControlPattern::Sequential,
            "parallel" => ControlPattern::Parallel,
            "while" => ControlPattern::While(parse_expr_child(control, "tcondition")?),
            "forEach" => {
                let var = req(control, "var")?;
                let parallel = flag(control, "parallel", false);
                let source = if let Some(items) = control.child("items") {
                    IterSource::Items(items.children_named("item").map(|i| i.text()).collect())
                } else if let Some(c) = control.child("collection") {
                    IterSource::Collection(c.text())
                } else if let Some(q) = control.child("query") {
                    IterSource::Query {
                        collection: req(q, "collection")?,
                        attribute: req(q, "attribute")?,
                        value: req(q, "value")?,
                    }
                } else if let Some(v) = control.child("variableSource") {
                    IterSource::Variable(req(v, "name")?)
                } else {
                    return Err(DglError::schema("forEach", "missing iteration source"));
                };
                ControlPattern::ForEach { var, source, parallel }
            }
            "switch" => {
                let on = parse_expr_child(control, "on")?;
                let cases = control
                    .children_named("case")
                    .map(|c| Case { value: c.attr("value").map(str::to_owned) })
                    .collect();
                ControlPattern::Switch { on, cases }
            }
            _ => unreachable!("filtered above"),
        };
        let rules = e
            .children_named("userDefinedRule")
            .map(UserDefinedRule::from_element)
            .collect::<Result<_, _>>()?;
        Ok(FlowLogic { pattern, rules })
    }
}

impl UserDefinedRule {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("userDefinedRule").with_attr("name", &self.name);
        el.push_element(Element::new("tcondition").with_text(self.condition.source()));
        for action in &self.actions {
            let mut a = Element::new("action").with_attr("name", &action.name);
            for step in &action.steps {
                a.push_element(step.to_element());
            }
            el.push_element(a);
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let name = req(e, "name")?;
        let condition = parse_expr_child(e, "tcondition")?;
        let actions = e
            .children_named("action")
            .map(|a| {
                Ok::<RuleAction, DglError>(RuleAction {
                    name: req(a, "name")?,
                    steps: a.children_named("step").map(Step::from_element).collect::<Result<_, _>>()?,
                })
            })
            .collect::<Result<_, DglError>>()?;
        Ok(UserDefinedRule { name, condition, actions })
    }
}

// ----------------------------------------------------------------------
// Step and operations
// ----------------------------------------------------------------------

impl Step {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("step").with_attr("name", &self.name);
        match self.on_error {
            ErrorPolicy::Fail => {}
            ErrorPolicy::Ignore => el.set_attr("onError", "ignore"),
            ErrorPolicy::Retry(n) => el.set_attr("onError", format!("retry:{n}")),
        }
        if !self.variables.is_empty() {
            el.push_element(variables_element(&self.variables));
        }
        for rule in &self.rules {
            el.push_element(rule.to_element());
        }
        el.push_element(Element::new("operation").with_child(self.operation.to_element()));
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        if e.name != "step" {
            return Err(DglError::schema(&e.name, "expected <step>"));
        }
        let name = req(e, "name")?;
        let on_error = match e.attr("onError") {
            None | Some("fail") => ErrorPolicy::Fail,
            Some("ignore") => ErrorPolicy::Ignore,
            Some(retry) if retry.starts_with("retry:") => {
                let n = retry["retry:".len()..]
                    .parse()
                    .map_err(|_| DglError::schema("step", format!("bad onError {retry:?}")))?;
                ErrorPolicy::Retry(n)
            }
            Some(other) => return Err(DglError::schema("step", format!("unknown onError {other:?}"))),
        };
        let variables = e.child("variables").map(parse_variables).transpose()?.unwrap_or_default();
        let rules = e
            .children_named("userDefinedRule")
            .map(UserDefinedRule::from_element)
            .collect::<Result<_, _>>()?;
        let op_el = require_child(e, "operation")?;
        let inner = op_el
            .child_elements()
            .next()
            .ok_or_else(|| DglError::schema("operation", "empty operation"))?;
        let operation = DglOperation::from_element(inner)?;
        Ok(Step { name, variables, rules, operation, on_error })
    }
}

impl DglOperation {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        match self {
            DglOperation::CreateCollection { path } => Element::new("createCollection").with_attr("path", path),
            DglOperation::Ingest { path, size, resource } => Element::new("ingest")
                .with_attr("path", path)
                .with_attr("size", size)
                .with_attr("resource", resource),
            DglOperation::Replicate { path, src, dst } => {
                let mut el = Element::new("replicate").with_attr("path", path).with_attr("dst", dst);
                if let Some(src) = src {
                    el.set_attr("src", src);
                }
                el
            }
            DglOperation::Migrate { path, from, to } => Element::new("migrate")
                .with_attr("path", path)
                .with_attr("from", from)
                .with_attr("to", to),
            DglOperation::Trim { path, resource } => {
                Element::new("trim").with_attr("path", path).with_attr("resource", resource)
            }
            DglOperation::Delete { path } => Element::new("delete").with_attr("path", path),
            DglOperation::Rename { path, to } => {
                Element::new("rename").with_attr("path", path).with_attr("to", to)
            }
            DglOperation::Checksum { path, resource, register } => {
                let mut el = Element::new("checksum")
                    .with_attr("path", path)
                    .with_attr("register", register.to_string());
                if let Some(r) = resource {
                    el.set_attr("resource", r);
                }
                el
            }
            DglOperation::SetMetadata { path, attribute, value } => Element::new("setMetadata")
                .with_attr("path", path)
                .with_attr("attribute", attribute)
                .with_attr("value", value),
            DglOperation::SetPermission { path, grantee, level } => Element::new("setPermission")
                .with_attr("path", path)
                .with_attr("grantee", grantee)
                .with_attr("level", level),
            DglOperation::Query { collection, attribute, value, into } => Element::new("query")
                .with_attr("collection", collection)
                .with_attr("attribute", attribute)
                .with_attr("value", value)
                .with_attr("into", into),
            DglOperation::Execute { code, nominal_secs, resource_type, inputs, outputs } => {
                let mut el = Element::new("execute")
                    .with_attr("code", code)
                    .with_attr("nominalSecs", nominal_secs);
                if let Some(rt) = resource_type {
                    el.set_attr("resourceType", rt);
                }
                for input in inputs {
                    el.push_element(Element::new("input").with_attr("path", input));
                }
                for (path, size) in outputs {
                    el.push_element(Element::new("output").with_attr("path", path).with_attr("size", size));
                }
                el
            }
            DglOperation::Assign { variable, expr } => Element::new("assign")
                .with_attr("variable", variable)
                .with_child(Element::new("expr").with_text(expr.source())),
            DglOperation::Notify { message } => {
                // As an attribute: element text would lose surrounding
                // whitespace to the parser's whitespace-run dropping.
                Element::new("notify").with_attr("message", message)
            }
        }
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let op = match e.name.as_str() {
            "createCollection" => DglOperation::CreateCollection { path: req(e, "path")? },
            "ingest" => DglOperation::Ingest {
                path: req(e, "path")?,
                size: req(e, "size")?,
                resource: req(e, "resource")?,
            },
            "replicate" => DglOperation::Replicate {
                path: req(e, "path")?,
                src: opt(e, "src")?,
                dst: req(e, "dst")?,
            },
            "migrate" => DglOperation::Migrate {
                path: req(e, "path")?,
                from: req(e, "from")?,
                to: req(e, "to")?,
            },
            "trim" => DglOperation::Trim {
                path: req(e, "path")?,
                resource: req(e, "resource")?,
            },
            "delete" => DglOperation::Delete { path: req(e, "path")? },
            "rename" => DglOperation::Rename {
                path: req(e, "path")?,
                to: req(e, "to")?,
            },
            "checksum" => DglOperation::Checksum {
                path: req(e, "path")?,
                resource: opt(e, "resource")?,
                register: flag(e, "register", false),
            },
            "setMetadata" => DglOperation::SetMetadata {
                path: req(e, "path")?,
                attribute: req(e, "attribute")?,
                value: req(e, "value")?,
            },
            "setPermission" => DglOperation::SetPermission {
                path: req(e, "path")?,
                grantee: req(e, "grantee")?,
                level: req(e, "level")?,
            },
            "query" => DglOperation::Query {
                collection: req(e, "collection")?,
                attribute: req(e, "attribute")?,
                value: req(e, "value")?,
                into: req(e, "into")?,
            },
            "execute" => DglOperation::Execute {
                code: req(e, "code")?,
                nominal_secs: req(e, "nominalSecs")?,
                resource_type: opt(e, "resourceType")?,
                inputs: e
                    .children_named("input")
                    .map(|i| req(i, "path"))
                    .collect::<Result<_, DglError>>()?,
                outputs: e
                    .children_named("output")
                    .map(|o| Ok((req(o, "path")?, req(o, "size")?)))
                    .collect::<Result<_, DglError>>()?,
            },
            "assign" => DglOperation::Assign {
                variable: req(e, "variable")?,
                expr: parse_expr_child(e, "expr")?,
            },
            // Attribute form is canonical; hand-written documents may
            // use element text instead.
            "notify" => DglOperation::Notify {
                message: e.attr("message").map(str::to_owned).unwrap_or_else(|| e.text()),
            },
            other => return Err(DglError::schema(other, "unknown DGL operation")),
        };
        Ok(op)
    }
}

// ----------------------------------------------------------------------
// Status query / report, response (Figure 4)
// ----------------------------------------------------------------------

impl FlowStatusQuery {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("flowStatusQuery").with_attr("transaction", &self.transaction);
        if let Some(node) = &self.node {
            el.set_attr("node", node);
        }
        // Observability attrs are emitted only when set, so documents
        // from older peers round-trip byte-identically.
        if let Some(n) = self.events {
            el.set_attr("events", n.to_string());
        }
        if self.metrics {
            el.set_attr("metrics", "true");
        }
        if self.trace {
            el.set_attr("trace", "true");
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(FlowStatusQuery {
            transaction: req(e, "transaction")?,
            node: opt(e, "node")?,
            events: opt(e, "events")?,
            metrics: flag(e, "metrics", false),
            trace: flag(e, "trace", false),
        })
    }
}

impl crate::TelemetryQuery {
    /// Encode as an XML element. Optional attributes are omitted when
    /// unset so pre-telemetry documents round-trip byte-identically.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("telemetryQuery");
        if self.scrape {
            el.set_attr("scrape", "true");
        }
        if let Some(from) = self.tail_from {
            el.set_attr("tailFrom", from.to_string());
        }
        if let Some(limit) = self.tail_limit {
            el.set_attr("tailLimit", limit.to_string());
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(crate::TelemetryQuery {
            scrape: flag(e, "scrape", false),
            tail_from: opt(e, "tailFrom")?,
            tail_limit: opt(e, "tailLimit")?,
        })
    }
}

impl crate::FlowValidationQuery {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        Element::new("flowValidationQuery").with_child(self.flow.to_element())
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(crate::FlowValidationQuery { flow: Flow::from_element(require_child(e, "flow")?)? })
    }
}

impl crate::ValidationReport {
    /// Encode as an XML element. Diagnostics carry everything in
    /// attributes (the XML layer trims element text); the empty hint is
    /// omitted so hint-less diagnostics round-trip byte-identically.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("validationReport")
            .with_attr("flow", &self.flow)
            .with_attr("valid", self.valid.to_string());
        for d in &self.diagnostics {
            let mut de = Element::new("diagnostic")
                .with_attr("code", &d.code)
                .with_attr("severity", d.severity.as_str())
                .with_attr("node", &d.node)
                .with_attr("message", &d.message);
            if !d.hint.is_empty() {
                de.set_attr("hint", &d.hint);
            }
            el.push_element(de);
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(crate::ValidationReport {
            flow: req(e, "flow")?,
            valid: flag(e, "valid", false),
            diagnostics: e
                .children_named("diagnostic")
                .map(|d| {
                    Ok(crate::Diagnostic {
                        code: req(d, "code")?,
                        severity: req(d, "severity")?,
                        node: req(d, "node")?,
                        message: req(d, "message")?,
                        hint: d.attr("hint").unwrap_or_default().to_owned(),
                    })
                })
                .collect::<Result<_, DglError>>()?,
        })
    }
}

impl crate::RecoveryQuery {
    /// Encode as an XML element. The default (`flows="true"`) is
    /// omitted so the common query stays a bare `<recoveryQuery/>`.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("recoveryQuery");
        if !self.flows {
            el.set_attr("flows", "false");
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(crate::RecoveryQuery { flows: flag(e, "flows", true) })
    }
}

impl crate::RecoveryReport {
    /// Encode as an XML element. `lastCheckpoint`, the `<replay>` child
    /// and per-flow `resumed` markers are omitted when unset so reports
    /// from never-recovered servers round-trip byte-identically.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("recoveryReport")
            .with_attr("time", self.time_us.to_string())
            .with_attr("journaled", self.journaled.to_string())
            .with_attr("records", self.journal_records.to_string())
            .with_attr("bytes", self.journal_bytes.to_string());
        if let Some(ck) = self.last_checkpoint_seq {
            el.set_attr("lastCheckpoint", ck.to_string());
        }
        if let Some(r) = &self.replay {
            el.push_element(
                Element::new("replay")
                    .with_attr("truncated", r.truncated_bytes.to_string())
                    .with_attr("commands", r.commands_replayed.to_string())
                    .with_attr("matched", r.records_matched.to_string())
                    .with_attr("divergences", r.divergences.to_string())
                    .with_attr("stepsSkipped", r.steps_skipped_restart.to_string()),
            );
        }
        for fr in &self.flows {
            el.push_element(flow_recovery_element(fr));
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let replay = e
            .child("replay")
            .map(|r| -> Result<crate::ReplayStats, DglError> {
                Ok(crate::ReplayStats {
                    truncated_bytes: req(r, "truncated")?,
                    commands_replayed: req(r, "commands")?,
                    records_matched: req(r, "matched")?,
                    divergences: req(r, "divergences")?,
                    steps_skipped_restart: req(r, "stepsSkipped")?,
                })
            })
            .transpose()?;
        Ok(crate::RecoveryReport {
            time_us: req(e, "time")?,
            journaled: flag(e, "journaled", false),
            journal_records: req(e, "records")?,
            journal_bytes: req(e, "bytes")?,
            last_checkpoint_seq: opt(e, "lastCheckpoint")?,
            replay,
            flows: e.children_named("flow").map(parse_flow_recovery).collect::<Result<_, _>>()?,
        })
    }
}

/// One per-flow `<flow>` summary of a recovery report or a time-travel
/// inspection. `resumed` is omitted when false.
fn flow_recovery_element(fr: &crate::FlowRecovery) -> Element {
    let mut fe = Element::new("flow")
        .with_attr("transaction", &fr.transaction)
        .with_attr("lineage", &fr.lineage)
        .with_attr("state", fr.state.as_str())
        .with_attr("stepsCompleted", fr.steps_completed.to_string())
        .with_attr("stepsTotal", fr.steps_total.to_string());
    if fr.resumed {
        fe.set_attr("resumed", "true");
    }
    fe
}

fn parse_flow_recovery(fr: &Element) -> Result<crate::FlowRecovery, DglError> {
    Ok(crate::FlowRecovery {
        transaction: req(fr, "transaction")?,
        lineage: req(fr, "lineage")?,
        state: req(fr, "state")?,
        steps_completed: req(fr, "stepsCompleted")?,
        steps_total: req(fr, "stepsTotal")?,
        resumed: flag(fr, "resumed", false),
    })
}

impl crate::FederationQuery {
    /// Encode as an XML element. The defaults (`shards="true"`,
    /// `handoffs="true"`) are omitted so the common query stays a bare
    /// `<federationQuery/>`.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("federationQuery");
        if !self.shards {
            el.set_attr("shards", "false");
        }
        if !self.handoffs {
            el.set_attr("handoffs", "false");
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(crate::FederationQuery {
            shards: flag(e, "shards", true),
            handoffs: flag(e, "handoffs", true),
        })
    }
}

impl crate::FederationReport {
    /// Encode as an XML element. Per-handoff `childTxn` is omitted when
    /// the delegate has not applied yet, so in-flight hand-offs
    /// round-trip byte-identically.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("federationReport")
            .with_attr("time", self.time_us.to_string())
            .with_attr("federated", self.federated.to_string());
        for s in &self.shards {
            let mut se = Element::new("shard")
                .with_attr("name", &s.name)
                .with_attr("flows", s.flows.to_string())
                .with_attr("time", s.time_us.to_string())
                .with_attr("journaled", s.journaled.to_string())
                .with_attr("sent", s.bus_sent.to_string())
                .with_attr("received", s.bus_received.to_string());
            for p in &s.prefixes {
                se.push_element(Element::new("prefix").with_attr("path", p));
            }
            el.push_element(se);
        }
        el.push_element(
            Element::new("bus")
                .with_attr("published", self.bus.published.to_string())
                .with_attr("delivered", self.bus.delivered.to_string())
                .with_attr("inFlight", self.bus.in_flight.to_string())
                .with_attr("nextSeq", self.bus.next_seq.to_string()),
        );
        for h in &self.handoffs {
            let mut he = Element::new("handoff")
                .with_attr("txn", &h.txn)
                .with_attr("node", &h.node)
                .with_attr("from", &h.from)
                .with_attr("to", &h.to)
                .with_attr("state", h.state.as_str());
            if let Some(child) = &h.child_txn {
                he.set_attr("childTxn", child);
            }
            el.push_element(he);
        }
        for fl in &self.flows {
            el.push_element(
                Element::new("federatedFlow")
                    .with_attr("txn", &fl.txn)
                    .with_attr("name", &fl.name)
                    .with_attr("user", &fl.user)
                    .with_attr("home", &fl.home)
                    .with_attr("parallel", fl.parallel.to_string())
                    .with_attr("state", fl.state.as_str())
                    .with_attr("subsCompleted", fl.subs_completed.to_string())
                    .with_attr("subsTotal", fl.subs_total.to_string()),
            );
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let shards: Vec<crate::FederationShard> = e
            .children_named("shard")
            .map(|s| {
                Ok(crate::FederationShard {
                    name: req(s, "name")?,
                    prefixes: s
                        .children_named("prefix")
                        .map(|p| req(p, "path"))
                        .collect::<Result<_, DglError>>()?,
                    flows: req(s, "flows")?,
                    time_us: req(s, "time")?,
                    journaled: flag(s, "journaled", false),
                    bus_sent: req(s, "sent")?,
                    bus_received: req(s, "received")?,
                })
            })
            .collect::<Result<_, DglError>>()?;
        let bus_el = require_child(e, "bus")?;
        let bus = crate::FederationBus {
            published: req(bus_el, "published")?,
            delivered: req(bus_el, "delivered")?,
            in_flight: req(bus_el, "inFlight")?,
            next_seq: req(bus_el, "nextSeq")?,
        };
        let handoffs: Vec<crate::FederationHandoff> = e
            .children_named("handoff")
            .map(|h| {
                Ok(crate::FederationHandoff {
                    txn: req(h, "txn")?,
                    node: req(h, "node")?,
                    from: req(h, "from")?,
                    to: req(h, "to")?,
                    child_txn: opt(h, "childTxn")?,
                    state: req(h, "state")?,
                })
            })
            .collect::<Result<_, DglError>>()?;
        let flows: Vec<crate::FederatedFlow> = e
            .children_named("federatedFlow")
            .map(|fl| {
                Ok(crate::FederatedFlow {
                    txn: req(fl, "txn")?,
                    name: req(fl, "name")?,
                    user: req(fl, "user")?,
                    home: req(fl, "home")?,
                    parallel: flag(fl, "parallel", false),
                    state: req(fl, "state")?,
                    subs_completed: req(fl, "subsCompleted")?,
                    subs_total: req(fl, "subsTotal")?,
                })
            })
            .collect::<Result<_, DglError>>()?;
        Ok(crate::FederationReport {
            time_us: req(e, "time")?,
            federated: flag(e, "federated", false),
            shards,
            bus,
            handoffs,
            flows,
        })
    }
}

impl crate::TimeTravelQuery {
    /// Encode as an XML element: `<timeTravelQuery op="..."/>` with the
    /// operation's operands as attributes (bisect carries its predicate
    /// as a `<predicate>` child).
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("timeTravelQuery");
        match &self.op {
            crate::TimeTravelOp::Inspect { ordinal } => {
                el.set_attr("op", "inspect");
                if let Some(o) = ordinal {
                    el.set_attr("ordinal", o.to_string());
                }
            }
            crate::TimeTravelOp::Diff { from, to } => {
                el.set_attr("op", "diff");
                el.set_attr("from", from.to_string());
                el.set_attr("to", to.to_string());
            }
            crate::TimeTravelOp::Bisect { predicate } => {
                el.set_attr("op", "bisect");
                let mut p = Element::new("predicate");
                match predicate {
                    crate::BisectSpec::Stalled { transaction } => {
                        p.set_attr("kind", "stalled");
                        p.set_attr("transaction", transaction);
                    }
                    crate::BisectSpec::State { transaction, state } => {
                        p.set_attr("kind", "state");
                        p.set_attr("transaction", transaction);
                        p.set_attr("state", state.as_str());
                    }
                    crate::BisectSpec::Variable { transaction, name, value } => {
                        p.set_attr("kind", "variable");
                        p.set_attr("transaction", transaction);
                        p.set_attr("name", name);
                        p.set_attr("value", value);
                    }
                }
                el.push_element(p);
            }
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let op = match e.attr("op").unwrap_or("inspect") {
            "inspect" => crate::TimeTravelOp::Inspect { ordinal: opt(e, "ordinal")? },
            "diff" => crate::TimeTravelOp::Diff { from: req(e, "from")?, to: req(e, "to")? },
            "bisect" => {
                let p = require_child(e, "predicate")?;
                let transaction = req(p, "transaction")?;
                let predicate = match require_attr(p, "kind")? {
                    "stalled" => crate::BisectSpec::Stalled { transaction },
                    "state" => crate::BisectSpec::State {
                        transaction,
                        state: req(p, "state")?,
                    },
                    "variable" => crate::BisectSpec::Variable {
                        transaction,
                        name: req(p, "name")?,
                        value: req(p, "value")?,
                    },
                    other => {
                        return Err(DglError::schema(
                            &p.name,
                            format!("unknown predicate kind {other:?}"),
                        ))
                    }
                };
                crate::TimeTravelOp::Bisect { predicate }
            }
            other => return Err(DglError::schema(&e.name, format!("unknown op {other:?}"))),
        };
        Ok(crate::TimeTravelQuery { op })
    }
}

impl crate::TimeTravelReport {
    /// Encode as an XML element. Absent halves (`inspect`/`diff`/
    /// `bisect`/`error`) are omitted entirely so every report
    /// round-trips byte-identically.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("timeTravelReport")
            .with_attr("time", self.time_us.to_string())
            .with_attr("enabled", self.enabled.to_string());
        if let Some(last) = self.last_ordinal {
            el.set_attr("lastOrdinal", last.to_string());
        }
        if let Some(i) = &self.inspect {
            let mut ie = Element::new("inspect")
                .with_attr("complete", i.complete.to_string())
                .with_attr("commandsApplied", i.commands_applied.to_string())
                .with_attr("transitionsDerived", i.transitions_derived.to_string())
                .with_attr("clock", i.time_us.to_string());
            if let Some(o) = i.ordinal {
                ie.set_attr("ordinal", o.to_string());
            }
            if let Some(r) = i.requested {
                ie.set_attr("requested", r.to_string());
            }
            for fr in &i.flows {
                ie.push_element(flow_recovery_element(fr));
            }
            el.push_element(ie);
        }
        if let Some(d) = &self.diff {
            let mut de = Element::new("diff")
                .with_attr("from", d.from.to_string())
                .with_attr("to", d.to.to_string())
                .with_attr("provenanceAdded", d.provenance_added.to_string())
                .with_attr("clockFrom", d.time_from_us.to_string())
                .with_attr("clockTo", d.time_to_us.to_string());
            for fd in &d.flows {
                let mut fe = Element::new("flow")
                    .with_attr("transaction", &fd.transaction)
                    .with_attr("stepsFrom", fd.steps_from.to_string())
                    .with_attr("stepsTo", fd.steps_to.to_string())
                    .with_attr("stepsTotal", fd.steps_total.to_string());
                if let Some(s) = fd.from_state {
                    fe.set_attr("fromState", s.as_str());
                }
                if let Some(s) = fd.to_state {
                    fe.set_attr("toState", s.as_str());
                }
                de.push_element(fe);
            }
            el.push_element(de);
        }
        if let Some(b) = &self.bisect {
            let mut be = Element::new("bisect")
                .with_attr("probes", b.probes.to_string())
                .with_attr("lastOrdinal", b.last_ordinal.to_string());
            if let Some(o) = b.first_true {
                be.set_attr("firstTrue", o.to_string());
            }
            el.push_element(be);
        }
        if let Some(err) = &self.error {
            el.push_element(Element::new("error").with_text(err));
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let inspect = e
            .child("inspect")
            .map(|ie| -> Result<crate::OrdinalSummary, DglError> {
                Ok(crate::OrdinalSummary {
                    ordinal: opt(ie, "ordinal")?,
                    requested: opt(ie, "requested")?,
                    complete: flag(ie, "complete", false),
                    commands_applied: req(ie, "commandsApplied")?,
                    transitions_derived: req(ie, "transitionsDerived")?,
                    time_us: req(ie, "clock")?,
                    flows: ie.children_named("flow").map(parse_flow_recovery).collect::<Result<_, _>>()?,
                })
            })
            .transpose()?;
        let diff = e
            .child("diff")
            .map(|de| -> Result<crate::DiffSummary, DglError> {
                Ok(crate::DiffSummary {
                    from: req(de, "from")?,
                    to: req(de, "to")?,
                    provenance_added: req(de, "provenanceAdded")?,
                    time_from_us: req(de, "clockFrom")?,
                    time_to_us: req(de, "clockTo")?,
                    flows: de
                        .children_named("flow")
                        .map(|fd| {
                            Ok(crate::FlowDelta {
                                transaction: req(fd, "transaction")?,
                                from_state: opt(fd, "fromState")?,
                                to_state: opt(fd, "toState")?,
                                steps_from: req(fd, "stepsFrom")?,
                                steps_to: req(fd, "stepsTo")?,
                                steps_total: req(fd, "stepsTotal")?,
                            })
                        })
                        .collect::<Result<_, DglError>>()?,
                })
            })
            .transpose()?;
        let bisect = e
            .child("bisect")
            .map(|be| -> Result<crate::BisectSummary, DglError> {
                Ok(crate::BisectSummary {
                    first_true: opt(be, "firstTrue")?,
                    probes: req(be, "probes")?,
                    last_ordinal: req(be, "lastOrdinal")?,
                })
            })
            .transpose()?;
        Ok(crate::TimeTravelReport {
            time_us: req(e, "time")?,
            enabled: flag(e, "enabled", false),
            last_ordinal: opt(e, "lastOrdinal")?,
            inspect,
            diff,
            bisect,
            error: e.child("error").map(|el| el.text()),
        })
    }
}

impl crate::ProfileQuery {
    /// Encode as an XML element: `<profileQuery/>` with optional
    /// `folded`/`reset` flags (omitted when false so plain snapshot
    /// queries stay minimal).
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("profileQuery");
        if self.folded {
            el.set_attr("folded", "true");
        }
        if self.reset {
            el.set_attr("reset", "true");
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(crate::ProfileQuery {
            folded: flag(e, "folded", false),
            reset: flag(e, "reset", false),
        })
    }
}

impl crate::ProfileReport {
    /// Encode as an XML element. Phases travel flattened depth-first,
    /// one `<phase>` per tree node; optional halves (`<folded>`,
    /// `<contention>`) are omitted when absent so every report
    /// round-trips byte-identically.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("profileReport").with_attr("time", self.time_us.to_string());
        for p in &self.phases {
            el.push_element(
                Element::new("phase")
                    .with_attr("depth", p.depth.to_string())
                    .with_attr("name", &p.phase)
                    .with_attr("calls", p.calls.to_string())
                    .with_attr("simUs", p.sim_us.to_string())
                    .with_attr("wallNs", p.wall_ns.to_string())
                    .with_attr("allocs", p.allocs.to_string()),
            );
        }
        if let Some(folded) = &self.folded {
            el.push_element(lines_element("folded", folded));
        }
        if let Some(c) = &self.contention {
            let mut ce = Element::new("contention")
                .with_attr("enqueued", c.enqueued.to_string())
                .with_attr("served", c.served.to_string())
                .with_attr("queueDepthMax", c.queue_depth_max.to_string());
            for h in &c.hists {
                ce.push_element(
                    Element::new("hist")
                        .with_attr("name", &h.name)
                        .with_attr("count", h.count.to_string())
                        .with_attr("sumNs", h.sum_ns.to_string())
                        .with_attr("minNs", h.min_ns.to_string())
                        .with_attr("maxNs", h.max_ns.to_string()),
                );
            }
            el.push_element(ce);
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let phases = e
            .children_named("phase")
            .map(|pe| {
                Ok(crate::ProfilePhase {
                    depth: req(pe, "depth")?,
                    phase: req(pe, "name")?,
                    calls: req(pe, "calls")?,
                    sim_us: req(pe, "simUs")?,
                    wall_ns: req(pe, "wallNs")?,
                    allocs: req(pe, "allocs")?,
                })
            })
            .collect::<Result<_, DglError>>()?;
        let contention = e
            .child("contention")
            .map(|ce| -> Result<crate::ServerContention, DglError> {
                Ok(crate::ServerContention {
                    enqueued: req(ce, "enqueued")?,
                    served: req(ce, "served")?,
                    queue_depth_max: req(ce, "queueDepthMax")?,
                    hists: ce
                        .children_named("hist")
                        .map(|he| {
                            Ok(crate::LockHistogram {
                                name: req(he, "name")?,
                                count: req(he, "count")?,
                                sum_ns: req(he, "sumNs")?,
                                min_ns: req(he, "minNs")?,
                                max_ns: req(he, "maxNs")?,
                            })
                        })
                        .collect::<Result<_, DglError>>()?,
                })
            })
            .transpose()?;
        let folded = e.child("folded").map(parse_lines);
        Ok(crate::ProfileReport { time_us: req(e, "time")?, phases, folded, contention })
    }
}

/// A line-oriented text payload (the telemetry scrape, folded profile
/// stacks): every line, the last included, ends in exactly one newline.
fn lines_element(name: &str, text: &str) -> Element {
    Element::new(name).with_text(text)
}

/// Element text is whitespace-trimmed by the XML layer, so restore the
/// final newline of a [`lines_element`] payload after the trim.
fn parse_lines(e: &Element) -> String {
    let text = e.text();
    if text.is_empty() {
        text
    } else {
        text + "\n"
    }
}

impl crate::WhyQuery {
    /// Encode as an XML element: `<whyQuery topK="5"/>`; the `flow`
    /// filter is omitted when unset, `paths`/`alerts` are omitted when
    /// true (their default) so the plain query stays minimal.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("whyQuery").with_attr("topK", self.top_k.to_string());
        if let Some(flow) = &self.flow {
            el.set_attr("flow", flow);
        }
        if !self.paths {
            el.set_attr("paths", "false");
        }
        if !self.alerts {
            el.set_attr("alerts", "false");
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        Ok(crate::WhyQuery {
            flow: opt(e, "flow")?,
            top_k: req(e, "topK")?,
            paths: flag(e, "paths", true),
            alerts: flag(e, "alerts", true),
        })
    }
}

impl crate::WhyReport {
    /// Encode as an XML element: one `<criticalPath>` (with nested
    /// `<segment>`s) per analyzed flow, one `<bottleneck>` per
    /// aggregated blame row, one `<alert>` per SLA objective. Optional
    /// attributes (`causedBy`, `firedAt`, `resolvedAt`) are omitted
    /// when absent so every report round-trips byte-identically.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("whyReport")
            .with_attr("time", self.time_us.to_string())
            .with_attr("flows", self.flows_analyzed.to_string())
            .with_attr("attributedUs", self.attributed_us.to_string());
        for p in &self.paths {
            let mut pe = Element::new("criticalPath")
                .with_attr("txn", &p.txn)
                .with_attr("flow", &p.flow)
                .with_attr("startUs", p.start_us.to_string())
                .with_attr("endUs", p.end_us.to_string());
            if let Some(cause) = &p.caused_by {
                pe.set_attr("causedBy", cause);
            }
            for s in &p.segments {
                pe.push_element(
                    Element::new("segment")
                        .with_attr("fromUs", s.from_us.to_string())
                        .with_attr("untilUs", s.until_us.to_string())
                        .with_attr("state", s.state.name())
                        .with_attr("resource", &s.resource)
                        .with_attr("node", &s.node),
                );
            }
            el.push_element(pe);
        }
        for b in &self.bottlenecks {
            el.push_element(
                Element::new("bottleneck")
                    .with_attr("state", b.state.name())
                    .with_attr("resource", &b.resource)
                    .with_attr("totalUs", b.total_us.to_string())
                    .with_attr("sharePpm", b.share_ppm.to_string()),
            );
        }
        for a in &self.alerts {
            let mut ae = Element::new("alert")
                .with_attr("txn", &a.txn)
                .with_attr("class", &a.class)
                .with_attr("flow", &a.flow)
                .with_attr("startedUs", a.started_us.to_string())
                .with_attr("deadlineUs", a.deadline_us.to_string())
                .with_attr("state", a.state.name())
                .with_attr("burnPpm", a.burn_ppm.to_string())
                .with_attr("breached", a.breached.to_string());
            if let Some(t) = a.fired_at_us {
                ae.set_attr("firedAtUs", t.to_string());
            }
            if let Some(t) = a.resolved_at_us {
                ae.set_attr("resolvedAtUs", t.to_string());
            }
            el.push_element(ae);
        }
        el
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        let paths = e
            .children_named("criticalPath")
            .map(|pe| {
                Ok(crate::WhyPath {
                    txn: req(pe, "txn")?,
                    flow: req(pe, "flow")?,
                    start_us: req(pe, "startUs")?,
                    end_us: req(pe, "endUs")?,
                    caused_by: opt(pe, "causedBy")?,
                    segments: pe
                        .children_named("segment")
                        .map(|se| {
                            Ok(crate::WhySegment {
                                from_us: req(se, "fromUs")?,
                                until_us: req(se, "untilUs")?,
                                state: req(se, "state")?,
                                resource: req(se, "resource")?,
                                node: req(se, "node")?,
                            })
                        })
                        .collect::<Result<_, DglError>>()?,
                })
            })
            .collect::<Result<_, DglError>>()?;
        let bottlenecks = e
            .children_named("bottleneck")
            .map(|be| {
                Ok(crate::WhyBottleneck {
                    state: req(be, "state")?,
                    resource: req(be, "resource")?,
                    total_us: req(be, "totalUs")?,
                    share_ppm: req(be, "sharePpm")?,
                })
            })
            .collect::<Result<_, DglError>>()?;
        let alerts = e
            .children_named("alert")
            .map(|ae| {
                Ok(crate::WhyAlert {
                    txn: req(ae, "txn")?,
                    class: req(ae, "class")?,
                    flow: req(ae, "flow")?,
                    started_us: req(ae, "startedUs")?,
                    deadline_us: req(ae, "deadlineUs")?,
                    state: req(ae, "state")?,
                    burn_ppm: req(ae, "burnPpm")?,
                    fired_at_us: opt(ae, "firedAtUs")?,
                    resolved_at_us: opt(ae, "resolvedAtUs")?,
                    breached: require_attr(ae, "breached")? == "true",
                })
            })
            .collect::<Result<_, DglError>>()?;
        Ok(crate::WhyReport {
            time_us: req(e, "time")?,
            flows_analyzed: req(e, "flows")?,
            attributed_us: req(e, "attributedUs")?,
            paths,
            bottlenecks,
            alerts,
        })
    }
}

/// One flight-recorder `<event>` of a status or telemetry report.
fn event_element(ev: &crate::ReportEvent) -> Element {
    Element::new("event")
        .with_attr("time", ev.time_us.to_string())
        .with_attr("seq", ev.seq.to_string())
        .with_attr("kind", &ev.kind)
        .with_attr("detail", &ev.detail)
}

fn parse_event(ev: &Element) -> Result<crate::ReportEvent, DglError> {
    Ok(crate::ReportEvent {
        time_us: req(ev, "time")?,
        seq: req(ev, "seq")?,
        kind: req(ev, "kind")?,
        detail: ev.attr("detail").unwrap_or_default().to_owned(),
    })
}

impl DataGridResponse {
    /// Encode as an XML element.
    pub fn to_element(&self) -> Element {
        let mut root = Element::new("dataGridResponse").with_attr("requestId", &self.request_id);
        match &self.body {
            ResponseBody::Ack(ack) => {
                let mut a = Element::new("requestAcknowledgement")
                    .with_attr("transaction", &ack.transaction)
                    .with_attr("state", ack.state.as_str())
                    .with_attr("valid", ack.valid.to_string());
                if let Some(msg) = &ack.message {
                    a.push_element(Element::new("message").with_text(msg));
                }
                root.push_element(a);
            }
            ResponseBody::Status(report) => {
                let mut s = Element::new("statusReport")
                    .with_attr("transaction", &report.transaction)
                    .with_attr("node", &report.node)
                    .with_attr("name", &report.name)
                    .with_attr("state", report.state.as_str())
                    .with_attr("stepsCompleted", report.steps_completed.to_string())
                    .with_attr("stepsTotal", report.steps_total.to_string());
                if let Some(msg) = &report.message {
                    s.push_element(Element::new("message").with_text(msg));
                }
                for (node, name, state) in &report.children {
                    s.push_element(
                        Element::new("child")
                            .with_attr("node", node)
                            .with_attr("name", name)
                            .with_attr("state", state.as_str()),
                    );
                }
                for ev in &report.events {
                    s.push_element(event_element(ev));
                }
                for m in &report.metrics {
                    s.push_element(
                        Element::new("metric")
                            .with_attr("scope", &m.scope)
                            .with_attr("name", &m.name)
                            .with_attr("kind", &m.kind)
                            .with_attr("value", &m.value),
                    );
                }
                for sp in &report.spans {
                    let mut el = Element::new("span")
                        .with_attr("id", sp.id.to_string())
                        .with_attr("trace", sp.trace.to_string())
                        .with_attr("kind", &sp.kind)
                        .with_attr("name", &sp.name)
                        .with_attr("start", sp.start_us.to_string());
                    // Optional attrs are omitted when unset so old
                    // documents round-trip byte-identically.
                    if let Some(parent) = sp.parent {
                        el.set_attr("parent", parent.to_string());
                    }
                    if let Some(end) = sp.end_us {
                        el.set_attr("end", end.to_string());
                    }
                    for (k, v) in &sp.attrs {
                        el.push_element(Element::new("attr").with_attr("name", k).with_attr("value", v));
                    }
                    s.push_element(el);
                }
                root.push_element(s);
            }
            ResponseBody::Telemetry(report) => {
                let mut t = Element::new("telemetryReport").with_attr("time", report.time_us.to_string());
                // Optional attrs/elements are omitted when unset so
                // scrape-only and tail-only reports stay minimal.
                if let Some(next) = report.next_cursor {
                    t.set_attr("nextCursor", next.to_string());
                }
                if let Some(dropped) = report.dropped {
                    t.set_attr("dropped", dropped.to_string());
                }
                if let Some(scrape) = &report.scrape {
                    t.push_element(lines_element("scrape", scrape));
                }
                for ev in &report.events {
                    t.push_element(event_element(ev));
                }
                root.push_element(t);
            }
            ResponseBody::Validation(report) => root.push_element(report.to_element()),
            ResponseBody::Recovery(report) => root.push_element(report.to_element()),
            ResponseBody::TimeTravel(report) => root.push_element(report.to_element()),
            ResponseBody::Profile(report) => root.push_element(report.to_element()),
            ResponseBody::Why(report) => root.push_element(report.to_element()),
            ResponseBody::Federation(report) => root.push_element(report.to_element()),
        }
        root
    }

    /// Encode as a pretty-printed XML document.
    pub fn to_xml(&self) -> String {
        self.to_element().to_xml_pretty()
    }

    /// Decode from an XML element.
    pub fn from_element(e: &Element) -> Result<Self, DglError> {
        if e.name != "dataGridResponse" {
            return Err(DglError::schema(&e.name, "expected <dataGridResponse>"));
        }
        let request_id = req(e, "requestId")?;
        if let Some(a) = e.child("requestAcknowledgement") {
            let ack = RequestAck {
                transaction: req(a, "transaction")?,
                state: req(a, "state")?,
                valid: flag(a, "valid", false),
                message: a.child("message").map(|m| m.text()),
            };
            return Ok(DataGridResponse { request_id, body: ResponseBody::Ack(ack) });
        }
        if let Some(s) = e.child("statusReport") {
            let report = StatusReport {
                transaction: req(s, "transaction")?,
                node: req(s, "node")?,
                name: req(s, "name")?,
                state: req(s, "state")?,
                steps_completed: req(s, "stepsCompleted")?,
                steps_total: req(s, "stepsTotal")?,
                message: s.child("message").map(|m| m.text()),
                children: s
                    .children_named("child")
                    .map(|c| {
                        Ok((
                            req(c, "node")?,
                            req(c, "name")?,
                            req(c, "state")?,
                        ))
                    })
                    .collect::<Result<_, DglError>>()?,
                events: s.children_named("event").map(parse_event).collect::<Result<_, _>>()?,
                metrics: s
                    .children_named("metric")
                    .map(|m| {
                        Ok(crate::ReportMetric {
                            scope: req(m, "scope")?,
                            name: req(m, "name")?,
                            kind: req(m, "kind")?,
                            value: req(m, "value")?,
                        })
                    })
                    .collect::<Result<_, DglError>>()?,
                spans: s
                    .children_named("span")
                    .map(|sp| {
                        Ok(crate::ReportSpan {
                            id: req(sp, "id")?,
                            parent: opt(sp, "parent")?,
                            trace: req(sp, "trace")?,
                            kind: req(sp, "kind")?,
                            name: req(sp, "name")?,
                            start_us: req(sp, "start")?,
                            end_us: opt(sp, "end")?,
                            attrs: sp
                                .children_named("attr")
                                .map(|a| {
                                    Ok((
                                        req(a, "name")?,
                                        req(a, "value")?,
                                    ))
                                })
                                .collect::<Result<_, DglError>>()?,
                        })
                    })
                    .collect::<Result<_, DglError>>()?,
            };
            return Ok(DataGridResponse { request_id, body: ResponseBody::Status(report) });
        }
        if let Some(t) = e.child("telemetryReport") {
            let report = crate::TelemetryReport {
                time_us: req(t, "time")?,
                next_cursor: opt(t, "nextCursor")?,
                dropped: opt(t, "dropped")?,
                scrape: t.child("scrape").map(parse_lines),
                events: t.children_named("event").map(parse_event).collect::<Result<_, _>>()?,
            };
            return Ok(DataGridResponse { request_id, body: ResponseBody::Telemetry(report) });
        }
        if let Some(v) = e.child("validationReport") {
            let report = crate::ValidationReport::from_element(v)?;
            return Ok(DataGridResponse { request_id, body: ResponseBody::Validation(report) });
        }
        if let Some(r) = e.child("recoveryReport") {
            let report = crate::RecoveryReport::from_element(r)?;
            return Ok(DataGridResponse { request_id, body: ResponseBody::Recovery(report) });
        }
        if let Some(t) = e.child("timeTravelReport") {
            let report = crate::TimeTravelReport::from_element(t)?;
            return Ok(DataGridResponse { request_id, body: ResponseBody::TimeTravel(report) });
        }
        if let Some(t) = e.child("profileReport") {
            let report = crate::ProfileReport::from_element(t)?;
            return Ok(DataGridResponse { request_id, body: ResponseBody::Profile(report) });
        }
        if let Some(t) = e.child("whyReport") {
            let report = crate::WhyReport::from_element(t)?;
            return Ok(DataGridResponse { request_id, body: ResponseBody::Why(report) });
        }
        if let Some(t) = e.child("federationReport") {
            let report = crate::FederationReport::from_element(t)?;
            return Ok(DataGridResponse { request_id, body: ResponseBody::Federation(report) });
        }
        Err(DglError::schema(
            "dataGridResponse",
            "needs <requestAcknowledgement>, <statusReport>, <telemetryReport>, <validationReport>, <recoveryReport>, <timeTravelReport>, <profileReport>, <whyReport>, or <federationReport>",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(name: &str, op: DglOperation) -> Step {
        Step::new(name, op)
    }

    fn sample_flow() -> Flow {
        Flow {
            name: "md5-pipeline".into(),
            variables: vec![VarDecl::new("collection", "/home/ucsd/library")],
            logic: FlowLogic {
                pattern: ControlPattern::ForEach {
                    var: "file".into(),
                    source: IterSource::Collection("${collection}".into()),
                    parallel: false,
                },
                rules: vec![UserDefinedRule::new(
                    "afterExit",
                    Expr::parse("'log'").unwrap(),
                    vec![RuleAction {
                        name: "log".into(),
                        steps: vec![step("note", DglOperation::Notify { message: "done".into() })],
                    }],
                )],
            },
            children: Children::Steps(vec![
                step("verify", DglOperation::Checksum { path: "${file}".into(), resource: None, register: false })
                    .with_error_policy(crate::step::ErrorPolicy::Retry(2)),
                step(
                    "tag",
                    DglOperation::SetMetadata { path: "${file}".into(), attribute: "verified".into(), value: "true".into() },
                ),
            ]),
        }
    }

    #[test]
    fn request_round_trips_through_xml() {
        let req = DataGridRequest::flow("req-7", "jonw", sample_flow())
            .asynchronous()
            .with_description("UCSD library integrity sweep")
            .with_vo("ucsd-lib");
        let xml = req.to_xml();
        let parsed = parse_request(&xml).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn status_query_request_round_trips() {
        let req = DataGridRequest::status("req-8", "jonw", FlowStatusQuery::node("t42", "/0/1"));
        let parsed = parse_request(&req.to_xml()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn every_operation_round_trips() {
        let ops = vec![
            DglOperation::CreateCollection { path: "/a".into() },
            DglOperation::Ingest { path: "/a/x".into(), size: "100".into(), resource: "r1".into() },
            DglOperation::Replicate { path: "/a/x".into(), src: Some("r1".into()), dst: "r2".into() },
            DglOperation::Replicate { path: "/a/x".into(), src: None, dst: "r2".into() },
            DglOperation::Migrate { path: "/a/x".into(), from: "r1".into(), to: "r2".into() },
            DglOperation::Trim { path: "/a/x".into(), resource: "r1".into() },
            DglOperation::Delete { path: "/a/x".into() },
            DglOperation::Rename { path: "/a/x".into(), to: "/a/y".into() },
            DglOperation::Checksum { path: "/a/x".into(), resource: Some("r1".into()), register: true },
            DglOperation::SetMetadata { path: "/a/x".into(), attribute: "k".into(), value: "v".into() },
            DglOperation::SetPermission { path: "/a".into(), grantee: "reena".into(), level: "write".into() },
            DglOperation::Query { collection: "/a".into(), attribute: "k".into(), value: "v".into(), into: "hits".into() },
            DglOperation::Execute {
                code: "anelastic-wave".into(),
                nominal_secs: "3600".into(),
                resource_type: Some("compute:16".into()),
                inputs: vec!["/a/x".into(), "/a/y".into()],
                outputs: vec![("/a/out".into(), "1000000".into())],
            },
            DglOperation::Assign { variable: "i".into(), expr: Expr::parse("i + 1").unwrap() },
            DglOperation::Notify { message: "ingested a new file".into() },
        ];
        for op in ops {
            let el = op.to_element();
            let back = DglOperation::from_element(&el).unwrap();
            assert_eq!(back, op, "op {}", op.verb());
        }
    }

    #[test]
    fn every_control_pattern_round_trips() {
        let patterns = vec![
            ControlPattern::Sequential,
            ControlPattern::Parallel,
            ControlPattern::While(Expr::parse("i < 10").unwrap()),
            ControlPattern::ForEach { var: "f".into(), source: IterSource::Items(vec!["a".into(), "b".into()]), parallel: true },
            ControlPattern::ForEach {
                var: "f".into(),
                source: IterSource::Query { collection: "/c".into(), attribute: "type".into(), value: "pdf".into() },
                parallel: false,
            },
            ControlPattern::ForEach { var: "f".into(), source: IterSource::Variable("hits".into()), parallel: false },
            ControlPattern::Switch {
                on: Expr::parse("kind").unwrap(),
                cases: vec![Case { value: Some("a".into()) }, Case { value: None }],
            },
        ];
        for pattern in patterns {
            let logic = FlowLogic { pattern: pattern.clone(), rules: vec![] };
            let back = FlowLogic::from_element(&logic.to_element()).unwrap();
            assert_eq!(back.pattern, pattern, "pattern {}", pattern.tag());
        }
    }

    #[test]
    fn responses_round_trip() {
        let ack = DataGridResponse::ack(
            "r1",
            RequestAck { transaction: "t1".into(), state: RunState::Pending, valid: true, message: Some("queued".into()) },
        );
        assert_eq!(parse_response(&ack.to_xml()).unwrap(), ack);

        let status = DataGridResponse::status(
            "r2",
            StatusReport {
                transaction: "t1".into(),
                node: "/".into(),
                name: "md5-pipeline".into(),
                state: RunState::Running,
                steps_completed: 5,
                steps_total: 20,
                message: None,
                children: vec![("/0".into(), "verify".into(), RunState::Completed), ("/1".into(), "tag".into(), RunState::Running)],
                events: vec![crate::ReportEvent { time_us: 42, seq: 0, kind: "step.finished".into(), detail: "t1 /0 verify completed".into() }],
                metrics: vec![crate::ReportMetric { scope: "engine".into(), name: "steps.executed".into(), kind: "counter".into(), value: "5".into() }],
                spans: vec![],
            },
        );
        assert_eq!(parse_response(&status.to_xml()).unwrap(), status);
    }

    #[test]
    fn telemetry_requests_round_trip() {
        // Scrape-only: the tail attrs must be absent from the wire.
        let scrape = DataGridRequest::telemetry("r1", "operator", crate::TelemetryQuery::scrape());
        let xml = scrape.to_xml();
        assert!(xml.contains(r#"<telemetryQuery scrape="true"/>"#), "{xml}");
        assert!(!xml.contains("tailFrom") && !xml.contains("tailLimit"), "{xml}");
        assert_eq!(parse_request(&xml).unwrap(), scrape);

        // Tail + scrape + limit, all attrs present.
        let both = DataGridRequest::telemetry(
            "r2",
            "operator",
            crate::TelemetryQuery::tail(1234).with_scrape().with_limit(50),
        );
        assert_eq!(parse_request(&both.to_xml()).unwrap(), both);

        // Tail-only: no scrape attr on the wire.
        let tail = DataGridRequest::telemetry("r3", "operator", crate::TelemetryQuery::tail(0));
        assert!(!tail.to_xml().contains("scrape"), "{}", tail.to_xml());
        assert_eq!(parse_request(&tail.to_xml()).unwrap(), tail);
    }

    #[test]
    fn telemetry_reports_round_trip() {
        let scrape_text = "# dgf telemetry scrape at 7us\ndgf_metric{scope=\"engine\",name=\"runs.completed\",kind=\"counter\"} 1\n";
        let report = DataGridResponse::telemetry(
            "r9",
            crate::TelemetryReport {
                time_us: 7,
                scrape: Some(scrape_text.into()),
                events: vec![crate::ReportEvent {
                    time_us: 3,
                    seq: 11,
                    kind: "health.stalled".into(),
                    detail: "t1 slow->stalled last_progress_us=1".into(),
                }],
                next_cursor: Some(12),
                dropped: Some(4),
            },
        );
        let parsed = parse_response(&report.to_xml()).unwrap();
        assert_eq!(parsed, report);
        let ResponseBody::Telemetry(r) = parsed.body else { panic!("expected telemetry") };
        assert_eq!(r.scrape.as_deref(), Some(scrape_text), "scrape text travels byte-exactly");
        assert_eq!(parsed.request_id, "r9");

        // Tail-only report: no <scrape> child, optional attrs present.
        let tail_only = DataGridResponse::telemetry(
            "r10",
            crate::TelemetryReport { time_us: 1, scrape: None, events: vec![], next_cursor: Some(0), dropped: Some(0) },
        );
        assert!(!tail_only.to_xml().contains("<scrape>"), "{}", tail_only.to_xml());
        assert_eq!(parse_response(&tail_only.to_xml()).unwrap(), tail_only);

        // Telemetry responses carry no transaction.
        assert_eq!(tail_only.transaction(), "");
    }

    #[test]
    fn validation_query_and_report_round_trip() {
        let req = DataGridRequest::validation("r1", "jonw", sample_flow());
        let xml = req.to_xml();
        assert!(xml.contains("<flowValidationQuery>"), "{xml}");
        assert_eq!(parse_request(&xml).unwrap(), req);

        let report = DataGridResponse::validation(
            "r2",
            crate::ValidationReport {
                flow: "md5-pipeline".into(),
                valid: false,
                diagnostics: vec![
                    crate::Diagnostic::new(
                        "DGF001",
                        crate::Severity::Error,
                        "/md5-pipeline/verify",
                        "undefined variable `out` in path template",
                    )
                    .with_hint("declare `out` in an enclosing flow's <variables>"),
                    crate::Diagnostic::new("DGF002", crate::Severity::Warning, "/md5-pipeline", "variable `collection` is never read"),
                ],
            },
        );
        let parsed = parse_response(&report.to_xml()).unwrap();
        assert_eq!(parsed, report);
        // Validation responses carry no transaction.
        assert_eq!(parsed.transaction(), "");
        // Hint-less diagnostics omit the attribute entirely.
        assert!(!report.to_xml().contains(r#"hint="""#), "{}", report.to_xml());
    }

    #[test]
    fn recovery_query_and_report_round_trip() {
        // Default query: bare element, no attrs.
        let req = DataGridRequest::recovery("r1", "operator", crate::RecoveryQuery::report());
        let xml = req.to_xml();
        assert!(xml.contains("<recoveryQuery/>"), "{xml}");
        assert_eq!(parse_request(&xml).unwrap(), req);
        let summary = DataGridRequest::recovery("r2", "operator", crate::RecoveryQuery::summary());
        assert!(summary.to_xml().contains(r#"flows="false""#), "{}", summary.to_xml());
        assert_eq!(parse_request(&summary.to_xml()).unwrap(), summary);

        // Never-journaled server: minimal report, no <replay>, no flows.
        let bare = DataGridResponse::recovery("r3", crate::RecoveryReport::unjournaled(5));
        assert!(!bare.to_xml().contains("<replay"), "{}", bare.to_xml());
        assert_eq!(parse_response(&bare.to_xml()).unwrap(), bare);
        assert_eq!(bare.transaction(), "");

        // Recovered server: replay stats and per-flow outcomes travel.
        let full = DataGridResponse::recovery(
            "r4",
            crate::RecoveryReport {
                time_us: 31,
                journaled: true,
                journal_records: 40,
                journal_bytes: 4096,
                last_checkpoint_seq: Some(25),
                replay: Some(crate::ReplayStats {
                    truncated_bytes: 9,
                    commands_replayed: 6,
                    records_matched: 18,
                    divergences: 0,
                    steps_skipped_restart: 7,
                }),
                flows: vec![
                    crate::FlowRecovery {
                        transaction: "t1".into(),
                        lineage: "t1".into(),
                        state: RunState::Running,
                        steps_completed: 3,
                        steps_total: 9,
                        resumed: true,
                    },
                    crate::FlowRecovery {
                        transaction: "t2".into(),
                        lineage: "t2".into(),
                        state: RunState::Completed,
                        steps_completed: 4,
                        steps_total: 4,
                        resumed: false,
                    },
                ],
            },
        );
        let parsed = parse_response(&full.to_xml()).unwrap();
        assert_eq!(parsed, full);
        // Non-resumed flows omit the marker attribute entirely.
        let xml = full.to_xml();
        assert_eq!(xml.matches(r#"resumed="true""#).count(), 1, "{xml}");
    }

    #[test]
    fn federation_query_and_report_round_trip() {
        // Default query: bare element, no attrs.
        let req = DataGridRequest::federation("f1", "operator", crate::FederationQuery::report());
        let xml = req.to_xml();
        assert!(xml.contains("<federationQuery/>"), "{xml}");
        assert_eq!(parse_request(&xml).unwrap(), req);
        let summary =
            DataGridRequest::federation("f2", "operator", crate::FederationQuery::summary());
        assert!(summary.to_xml().contains(r#"shards="false""#), "{}", summary.to_xml());
        assert!(summary.to_xml().contains(r#"handoffs="false""#), "{}", summary.to_xml());
        assert_eq!(parse_request(&summary.to_xml()).unwrap(), summary);

        // Standalone engine: minimal report, no shards, no hand-offs.
        let bare = DataGridResponse::federation("f3", crate::FederationReport::standalone(5));
        assert!(!bare.to_xml().contains("<shard "), "{}", bare.to_xml());
        assert_eq!(parse_response(&bare.to_xml()).unwrap(), bare);
        assert_eq!(bare.transaction(), "");

        // Routing front-end: shards, bus, hand-offs, federated flows.
        let full = DataGridResponse::federation(
            "f4",
            crate::FederationReport {
                time_us: 31,
                federated: true,
                shards: vec![crate::FederationShard {
                    name: "sdsc".into(),
                    prefixes: vec!["/sdsc".into(), "/archive".into()],
                    flows: 4,
                    time_us: 31,
                    journaled: true,
                    bus_sent: 2,
                    bus_received: 1,
                }],
                bus: crate::FederationBus { published: 3, delivered: 2, in_flight: 1, next_seq: 4 },
                handoffs: vec![
                    crate::FederationHandoff {
                        txn: "x1".into(),
                        node: "stage".into(),
                        from: "sdsc".into(),
                        to: "cclrc".into(),
                        child_txn: Some("t2".into()),
                        state: RunState::Completed,
                    },
                    crate::FederationHandoff {
                        txn: "x1".into(),
                        node: "crunch".into(),
                        from: "sdsc".into(),
                        to: "scec".into(),
                        child_txn: None,
                        state: RunState::Pending,
                    },
                ],
                flows: vec![crate::FederatedFlow {
                    txn: "x1".into(),
                    name: "survey".into(),
                    user: "arun".into(),
                    home: "sdsc".into(),
                    parallel: true,
                    state: RunState::Running,
                    subs_completed: 1,
                    subs_total: 2,
                }],
            },
        );
        let parsed = parse_response(&full.to_xml()).unwrap();
        assert_eq!(parsed, full);
        // In-flight hand-offs omit childTxn entirely.
        let xml = full.to_xml();
        assert_eq!(xml.matches("childTxn=").count(), 1, "{xml}");
    }

    #[test]
    fn malformed_documents_are_rejected_with_schema_errors() {
        assert!(matches!(parse_request("<notARequest/>"), Err(DglError::Schema { .. })));
        assert!(matches!(parse_request("<dataGridRequest/>"), Err(DglError::Schema { .. })));
        assert!(matches!(
            parse_request(r#"<dataGridRequest id="x"><gridUser name="u"/></dataGridRequest>"#),
            Err(DglError::Schema { .. })
        ));
        // Mixed children are a schema violation (Figure 1: "but not both").
        let mixed = r#"<dataGridRequest id="x"><gridUser name="u"/><flow name="f"><flowLogic><sequential/></flowLogic><children><flow name="g"><flowLogic><sequential/></flowLogic><children/></flow><step name="s"><operation><delete path="/x"/></operation></step></children></flow></dataGridRequest>"#;
        assert!(matches!(parse_request(mixed), Err(DglError::Schema { .. })));
        // Unknown operation.
        let bad_op = Element::new("frobnicate");
        assert!(DglOperation::from_element(&bad_op).is_err());
        // Bad XML bubbles up as Xml.
        assert!(matches!(parse_request("<a"), Err(DglError::Xml(_))));
    }

    #[test]
    fn time_travel_queries_round_trip() {
        for q in [
            crate::TimeTravelQuery::last(),
            crate::TimeTravelQuery::inspect(41),
            crate::TimeTravelQuery::diff(3, 17),
            crate::TimeTravelQuery::bisect(crate::BisectSpec::Stalled { transaction: "t2".into() }),
            crate::TimeTravelQuery::bisect(crate::BisectSpec::State {
                transaction: "t2".into(),
                state: RunState::Failed,
            }),
            crate::TimeTravelQuery::bisect(crate::BisectSpec::Variable {
                transaction: "t2".into(),
                name: "i".into(),
                value: "3".into(),
            }),
        ] {
            let request = DataGridRequest::time_travel("req", "operator", q);
            let parsed = parse_request(&request.to_xml()).unwrap();
            assert_eq!(parsed, request);
        }
    }

    #[test]
    fn time_travel_reports_round_trip() {
        let disabled = DataGridResponse::time_travel("r0", crate::TimeTravelReport::disabled(7));
        assert_eq!(parse_response(&disabled.to_xml()).unwrap(), disabled);
        let full = DataGridResponse::time_travel(
            "r1",
            crate::TimeTravelReport {
                time_us: 99,
                enabled: true,
                last_ordinal: Some(120),
                inspect: Some(crate::OrdinalSummary {
                    ordinal: Some(41),
                    requested: Some(41),
                    complete: false,
                    commands_applied: 6,
                    transitions_derived: 42,
                    time_us: 5_000_000,
                    flows: vec![crate::FlowRecovery {
                        transaction: "t1".into(),
                        lineage: "t1".into(),
                        state: RunState::Running,
                        steps_completed: 2,
                        steps_total: 5,
                        resumed: false,
                    }],
                }),
                diff: Some(crate::DiffSummary {
                    from: 10,
                    to: 41,
                    provenance_added: 4,
                    time_from_us: 1_000_000,
                    time_to_us: 5_000_000,
                    flows: vec![crate::FlowDelta {
                        transaction: "t1".into(),
                        from_state: None,
                        to_state: Some(RunState::Running),
                        steps_from: 0,
                        steps_to: 2,
                        steps_total: 5,
                    }],
                }),
                bisect: Some(crate::BisectSummary {
                    first_true: Some(33),
                    probes: 8,
                    last_ordinal: 120,
                }),
                error: Some("partial".into()),
            },
        );
        assert_eq!(parse_response(&full.to_xml()).unwrap(), full);
    }

    #[test]
    fn profile_queries_round_trip() {
        // Plain snapshot: no flags on the wire.
        let plain = DataGridRequest::profile("r1", "operator", crate::ProfileQuery::new());
        let xml = plain.to_xml();
        assert!(xml.contains("<profileQuery/>"), "{xml}");
        assert_eq!(parse_request(&xml).unwrap(), plain);

        let full = DataGridRequest::profile(
            "r2",
            "operator",
            crate::ProfileQuery::new().with_folded(true).with_reset(true),
        );
        assert_eq!(parse_request(&full.to_xml()).unwrap(), full);
    }

    #[test]
    fn profile_reports_round_trip() {
        let empty = DataGridResponse::profile("r0", crate::ProfileReport::empty(7));
        assert!(!empty.to_xml().contains("<folded>"), "{}", empty.to_xml());
        assert_eq!(parse_response(&empty.to_xml()).unwrap(), empty);

        let folded_text = "step-execute 1200\nstep-execute;journal-append 400\n";
        let full = DataGridResponse::profile(
            "r1",
            crate::ProfileReport {
                time_us: 99,
                phases: vec![
                    crate::ProfilePhase {
                        depth: 0,
                        phase: "step-execute".into(),
                        calls: 12,
                        sim_us: 4000,
                        wall_ns: 1600,
                        allocs: 88,
                    },
                    crate::ProfilePhase {
                        depth: 1,
                        phase: "journal-append".into(),
                        calls: 12,
                        sim_us: 0,
                        wall_ns: 400,
                        allocs: 3,
                    },
                ],
                folded: Some(folded_text.into()),
                contention: Some(crate::ServerContention {
                    enqueued: 9,
                    served: 8,
                    queue_depth_max: 3,
                    hists: vec![crate::LockHistogram {
                        name: "lock-hold".into(),
                        count: 8,
                        sum_ns: 9000,
                        min_ns: 100,
                        max_ns: 4000,
                    }],
                }),
            },
        );
        let parsed = parse_response(&full.to_xml()).unwrap();
        assert_eq!(parsed, full);
        let ResponseBody::Profile(r) = parsed.body else { panic!("expected profile") };
        assert_eq!(r.folded.as_deref(), Some(folded_text), "folded text travels byte-exactly");
        // Profile responses carry no transaction.
        assert_eq!(full.transaction(), "");
    }

    #[test]
    fn why_queries_round_trip() {
        let plain = DataGridRequest::why("r1", "operator", crate::WhyQuery::new());
        let xml = plain.to_xml();
        assert!(xml.contains("<whyQuery topK=\"5\"/>"), "{xml}");
        assert_eq!(parse_request(&xml).unwrap(), plain);

        let full = DataGridRequest::why(
            "r2",
            "operator",
            crate::WhyQuery::new().with_flow("t3").with_top_k(0).with_paths(false).with_alerts(false),
        );
        assert_eq!(parse_request(&full.to_xml()).unwrap(), full);
    }

    #[test]
    fn why_reports_round_trip() {
        let empty = DataGridResponse::why("r0", crate::WhyReport::empty(7));
        assert_eq!(parse_response(&empty.to_xml()).unwrap(), empty);

        let full = DataGridResponse::why(
            "r1",
            crate::WhyReport {
                time_us: 640,
                flows_analyzed: 2,
                attributed_us: 300,
                paths: vec![crate::WhyPath {
                    txn: "t1".into(),
                    flow: "pipeline".into(),
                    start_us: 100,
                    end_us: 400,
                    caused_by: Some("on-ingest".into()),
                    segments: vec![
                        crate::WhySegment {
                            from_us: 100,
                            until_us: 250,
                            state: crate::WaitState::TransferOnLink,
                            resource: "cern-disk→fnal-disk".into(),
                            node: "/0".into(),
                        },
                        crate::WhySegment {
                            from_us: 250,
                            until_us: 400,
                            state: crate::WaitState::Executing,
                            resource: "fnal-hpc".into(),
                            node: "/1".into(),
                        },
                    ],
                }],
                bottlenecks: vec![crate::WhyBottleneck {
                    state: crate::WaitState::TransferOnLink,
                    resource: "cern-disk→fnal-disk".into(),
                    total_us: 150,
                    share_ppm: 500_000,
                }],
                alerts: vec![crate::WhyAlert {
                    txn: "t1".into(),
                    class: "flow".into(),
                    flow: "pipeline".into(),
                    started_us: 100,
                    deadline_us: 350,
                    state: crate::AlertState::Resolved,
                    burn_ppm: 1_200_000,
                    fired_at_us: Some(350),
                    resolved_at_us: Some(400),
                    breached: true,
                }],
            },
        );
        let parsed = parse_response(&full.to_xml()).unwrap();
        assert_eq!(parsed, full);
        // Why responses carry no transaction.
        assert_eq!(full.transaction(), "");
    }

    #[test]
    fn flow_xml_matches_figure_1_structure() {
        // The serialized flow has exactly the three Figure-1 sections, in
        // order: variables?, flowLogic, children.
        let el = sample_flow().to_element();
        let names: Vec<_> = el.child_elements().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["variables", "flowLogic", "children"]);
        let logic = el.child("flowLogic").unwrap();
        let logic_parts: Vec<_> = logic.child_elements().map(|c| c.name.as_str()).collect();
        assert_eq!(logic_parts, ["forEach", "userDefinedRule"], "Figure 3: control choice + rules");
    }
}
