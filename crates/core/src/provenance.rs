//! The provenance store.
//!
//! §3.1: the DfMS "must manage information about all workflows and their
//! tasks. This information would be queried and audited later" — for
//! persistent archives, "even (years) after the execution". The store is
//! an append-only record log with query, snapshot, and reload; restart
//! reads it to skip completed work.

use dgf_simgrid::SimTime;
use dgf_xml::Element;
use std::collections::BTreeSet;
use std::fmt;

/// Why a provenance snapshot could not be restored.
///
/// Archives live "for years" (§3.1): a restore that fails should say
/// exactly which record is damaged and how, not hand back a prose
/// string. Threads into [`crate::DfmsError::Provenance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvenanceError {
    /// The document is not well-formed XML.
    Xml(String),
    /// The document is XML but its root is not `<provenance>`.
    WrongRoot {
        /// The root element actually found.
        found: String,
    },
    /// A `<record>` lacks a required attribute.
    MissingAttr {
        /// Zero-based index of the record in document order.
        record: usize,
        /// The absent attribute.
        attr: &'static str,
    },
    /// A `<record>` attribute is present but unparsable.
    BadAttr {
        /// Zero-based index of the record in document order.
        record: usize,
        /// The offending attribute.
        attr: &'static str,
        /// Its raw value.
        value: String,
    },
}

impl fmt::Display for ProvenanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvenanceError::Xml(msg) => write!(f, "provenance snapshot is not XML: {msg}"),
            ProvenanceError::WrongRoot { found } => {
                write!(f, "expected <provenance>, found <{found}>")
            }
            ProvenanceError::MissingAttr { record, attr } => {
                write!(f, "provenance record #{record} missing {attr:?}")
            }
            ProvenanceError::BadAttr { record, attr, value } => {
                write!(f, "provenance record #{record} has bad {attr}: {value:?}")
            }
        }
    }
}

impl std::error::Error for ProvenanceError {}

/// How a step or flow node ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepOutcome {
    /// Ran to completion.
    Completed,
    /// Failed (after exhausting retries).
    Failed,
    /// Skipped: unselected switch arm, virtual-data hit, or restart memo.
    Skipped,
    /// Stopped by a lifecycle request.
    Stopped,
}

impl StepOutcome {
    /// Stable lower-case name ("completed", "failed", "skipped",
    /// "stopped") — the same token used in provenance XML and in
    /// flight-recorder events.
    pub fn as_str(self) -> &'static str {
        match self {
            StepOutcome::Completed => "completed",
            StepOutcome::Failed => "failed",
            StepOutcome::Skipped => "skipped",
            StepOutcome::Stopped => "stopped",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "completed" => StepOutcome::Completed,
            "failed" => StepOutcome::Failed,
            "skipped" => StepOutcome::Skipped,
            "stopped" => StepOutcome::Stopped,
            _ => return None,
        })
    }
}

/// One provenance record: a node of some run, with timing and outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceRecord {
    /// Lineage id: stable across restarts of the same logical process.
    pub lineage: String,
    /// The concrete transaction that executed this node.
    pub transaction: String,
    /// Hierarchical node path ("/0/3/1"; "/" is the root flow).
    pub node: String,
    /// DGL name of the flow/step.
    pub name: String,
    /// Operation verb ("replicate", "execute", "flow", ...).
    pub verb: String,
    /// Acting user.
    pub user: String,
    /// Start time.
    pub started: SimTime,
    /// End time.
    pub finished: SimTime,
    /// Outcome.
    pub outcome: StepOutcome,
    /// Free-form detail (failure message, chosen resource, digest, ...).
    pub detail: String,
    /// The trace this node's span belongs to, when the run was traced —
    /// the join key between the provenance log and the span timeline.
    pub trace_id: Option<u64>,
    /// The node's span id within that trace.
    pub span_id: Option<u64>,
}

impl ProvenanceRecord {
    /// Serialize as a `<record>` element — the row format of snapshots
    /// and of journal `provenance` transitions.
    pub fn to_element(&self) -> Element {
        let mut el = Element::new("record")
            .with_attr("lineage", &self.lineage)
            .with_attr("transaction", &self.transaction)
            .with_attr("node", &self.node)
            .with_attr("name", &self.name)
            .with_attr("verb", &self.verb)
            .with_attr("user", &self.user)
            .with_attr("started", self.started.0.to_string())
            .with_attr("finished", self.finished.0.to_string())
            .with_attr("outcome", self.outcome.as_str())
            .with_attr("detail", &self.detail);
        // Trace joins are omitted when unset so pre-tracing archives
        // round-trip byte-identically.
        if let Some(trace) = self.trace_id {
            el.set_attr("trace", trace.to_string());
        }
        if let Some(span) = self.span_id {
            el.set_attr("span", span.to_string());
        }
        el
    }

    /// Parse a `<record>` element; `index` positions the record in its
    /// containing document for error reporting.
    pub fn from_element(el: &Element, index: usize) -> Result<Self, ProvenanceError> {
        let attr = |name: &'static str| -> Result<String, ProvenanceError> {
            el.attr(name)
                .map(str::to_owned)
                .ok_or(ProvenanceError::MissingAttr { record: index, attr: name })
        };
        let bad = |name: &'static str, value: &str| ProvenanceError::BadAttr {
            record: index,
            attr: name,
            value: value.to_owned(),
        };
        let time = |name: &'static str| -> Result<SimTime, ProvenanceError> {
            let raw = attr(name)?;
            raw.parse::<u64>().map(SimTime).map_err(|_| bad(name, &raw))
        };
        let opt_id = |name: &'static str| -> Result<Option<u64>, ProvenanceError> {
            el.attr(name).map(|v| v.parse::<u64>().map_err(|_| bad(name, v))).transpose()
        };
        Ok(ProvenanceRecord {
            lineage: attr("lineage")?,
            transaction: attr("transaction")?,
            node: attr("node")?,
            name: attr("name")?,
            verb: attr("verb")?,
            user: attr("user")?,
            started: time("started")?,
            finished: time("finished")?,
            outcome: {
                let raw = attr("outcome")?;
                StepOutcome::parse(&raw).ok_or_else(|| bad("outcome", &raw))?
            },
            detail: attr("detail")?,
            trace_id: opt_id("trace")?,
            span_id: opt_id("span")?,
        })
    }
}

/// A filter over the store. Empty fields match everything.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceQuery {
    /// Match this lineage.
    pub lineage: Option<String>,
    /// Match this transaction.
    pub transaction: Option<String>,
    /// Match nodes under this path prefix.
    pub node_prefix: Option<String>,
    /// Match this outcome.
    pub outcome: Option<StepOutcome>,
    /// Match records finishing at or after this time.
    pub since: Option<SimTime>,
}

impl ProvenanceQuery {
    /// Everything for one transaction.
    pub fn transaction(txn: &str) -> Self {
        ProvenanceQuery { transaction: Some(txn.to_owned()), ..Default::default() }
    }

    /// Everything for one lineage.
    pub fn lineage(lineage: &str) -> Self {
        ProvenanceQuery { lineage: Some(lineage.to_owned()), ..Default::default() }
    }

    fn matches(&self, r: &ProvenanceRecord) -> bool {
        self.lineage.as_deref().map(|l| r.lineage == l).unwrap_or(true)
            && self.transaction.as_deref().map(|t| r.transaction == t).unwrap_or(true)
            && self
                .node_prefix
                .as_deref()
                .map(|p| r.node == p || r.node.starts_with(&format!("{}/", p.trim_end_matches('/'))) || p == "/")
                .unwrap_or(true)
            && self.outcome.map(|o| r.outcome == o).unwrap_or(true)
            && self.since.map(|s| r.finished >= s).unwrap_or(true)
    }
}

/// The append-only provenance store.
#[derive(Debug, Default)]
pub struct ProvenanceStore {
    records: Vec<ProvenanceRecord>,
    completed_steps: BTreeSet<(String, String)>, // (lineage, node)
}

impl ProvenanceStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record.
    pub fn record(&mut self, record: ProvenanceRecord) {
        if record.outcome == StepOutcome::Completed && record.verb != "flow" {
            self.completed_steps.insert((record.lineage.clone(), record.node.clone()));
        }
        self.records.push(record);
    }

    /// Restart support: has a *step* at `node` already completed in this
    /// lineage (in any earlier transaction)?
    pub fn step_completed(&self, lineage: &str, node: &str) -> bool {
        self.completed_steps.contains(&(lineage.to_owned(), node.to_owned()))
    }

    /// Query, in record order.
    pub fn query(&self, q: &ProvenanceQuery) -> Vec<&ProvenanceRecord> {
        self.records.iter().filter(|r| q.matches(r)).collect()
    }

    /// All records.
    pub fn records(&self) -> &[ProvenanceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serialize to an XML document — the archival format persistent
    /// archives keep "for years".
    pub fn snapshot(&self) -> String {
        self.snapshot_element().to_xml_pretty()
    }

    /// The snapshot as an element tree, for embedding in larger
    /// documents (journal checkpoints written by older engines embed
    /// one; recovery still reads them).
    pub fn snapshot_element(&self) -> Element {
        let mut root = Element::new("provenance");
        for r in &self.records {
            root.push_element(r.to_element());
        }
        root
    }

    /// Reload a snapshot (e.g. in a fresh process, years later).
    pub fn restore(xml: &str) -> Result<Self, ProvenanceError> {
        let root = dgf_xml::parse(xml).map_err(|e| ProvenanceError::Xml(e.to_string()))?;
        Self::restore_element(&root)
    }

    /// Reload a snapshot from an already-parsed element tree (the form
    /// journal checkpoints carry).
    pub fn restore_element(root: &Element) -> Result<Self, ProvenanceError> {
        if root.name != "provenance" {
            return Err(ProvenanceError::WrongRoot { found: root.name.clone() });
        }
        let mut store = ProvenanceStore::new();
        for (i, el) in root.children_named("record").enumerate() {
            store.record(ProvenanceRecord::from_element(el, i)?);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(txn: &str, node: &str, outcome: StepOutcome, finished_s: u64) -> ProvenanceRecord {
        ProvenanceRecord {
            lineage: "L1".into(),
            transaction: txn.into(),
            node: node.into(),
            name: format!("n{node}"),
            verb: "replicate".into(),
            user: "u".into(),
            started: SimTime::from_secs(finished_s.saturating_sub(1)),
            finished: SimTime::from_secs(finished_s),
            outcome,
            detail: String::new(),
            trace_id: None,
            span_id: None,
        }
    }

    #[test]
    fn queries_filter_precisely() {
        let mut s = ProvenanceStore::new();
        s.record(rec("t1", "/0", StepOutcome::Completed, 10));
        s.record(rec("t1", "/0/1", StepOutcome::Failed, 20));
        s.record(rec("t2", "/1", StepOutcome::Completed, 30));
        assert_eq!(s.query(&ProvenanceQuery::transaction("t1")).len(), 2);
        assert_eq!(s.query(&ProvenanceQuery::lineage("L1")).len(), 3);
        assert_eq!(
            s.query(&ProvenanceQuery { outcome: Some(StepOutcome::Failed), ..Default::default() }).len(),
            1
        );
        assert_eq!(
            s.query(&ProvenanceQuery { since: Some(SimTime::from_secs(25)), ..Default::default() }).len(),
            1
        );
        assert_eq!(
            s.query(&ProvenanceQuery { node_prefix: Some("/0".into()), ..Default::default() }).len(),
            2,
            "prefix matches the node and its descendants"
        );
        assert_eq!(
            s.query(&ProvenanceQuery { node_prefix: Some("/".into()), ..Default::default() }).len(),
            3
        );
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn completed_step_memo_powers_restart() {
        let mut s = ProvenanceStore::new();
        s.record(rec("t1", "/0", StepOutcome::Completed, 1));
        s.record(rec("t1", "/1", StepOutcome::Failed, 2));
        assert!(s.step_completed("L1", "/0"));
        assert!(!s.step_completed("L1", "/1"));
        assert!(!s.step_completed("L2", "/0"), "other lineages unaffected");
    }

    #[test]
    fn flow_records_do_not_memoize() {
        let mut s = ProvenanceStore::new();
        let mut r = rec("t1", "/", StepOutcome::Completed, 1);
        r.verb = "flow".into();
        s.record(r);
        assert!(!s.step_completed("L1", "/"), "flows re-execute; only steps skip");
    }

    #[test]
    fn snapshot_restores_bit_for_bit() {
        let mut s = ProvenanceStore::new();
        s.record(rec("t1", "/0", StepOutcome::Completed, 10));
        s.record(rec("t1", "/0/3", StepOutcome::Skipped, 11));
        let xml = s.snapshot();
        let restored = ProvenanceStore::restore(&xml).unwrap();
        assert_eq!(restored.records(), s.records());
        assert!(restored.step_completed("L1", "/0"), "memo rebuilt on restore");
    }

    #[test]
    fn restore_rejects_malformed_documents_with_typed_errors() {
        assert_eq!(
            ProvenanceStore::restore("<notProvenance/>").err(),
            Some(ProvenanceError::WrongRoot { found: "notProvenance".into() })
        );
        assert_eq!(
            ProvenanceStore::restore("<provenance><record/></provenance>").err(),
            Some(ProvenanceError::MissingAttr { record: 0, attr: "lineage" })
        );
        assert!(matches!(ProvenanceStore::restore("not xml"), Err(ProvenanceError::Xml(_))));
        let bad_time = r#"<provenance><record lineage="L" transaction="t" node="/" name="n" verb="v" user="u" started="soon" finished="2" outcome="completed" detail=""/></provenance>"#;
        assert_eq!(
            ProvenanceStore::restore(bad_time).err(),
            Some(ProvenanceError::BadAttr { record: 0, attr: "started", value: "soon".into() })
        );
        let bad_outcome = r#"<provenance><record lineage="L" transaction="t" node="/" name="n" verb="v" user="u" started="1" finished="2" outcome="shrugged" detail=""/></provenance>"#;
        assert_eq!(
            ProvenanceStore::restore(bad_outcome).err(),
            Some(ProvenanceError::BadAttr { record: 0, attr: "outcome", value: "shrugged".into() })
        );
        // Errors thread into the engine error type and keep their story.
        let e: crate::DfmsError = ProvenanceError::WrongRoot { found: "x".into() }.into();
        assert!(e.to_string().contains("expected <provenance>"));
    }
}
