//! # datagridflows — managing long-run processes on datagrids
//!
//! A from-scratch Rust implementation of *Jagatheesan et al.,
//! "Datagridflows: Managing Long-Run Processes on Datagrids"* (VLDB DMG
//! 2005): the **Data Grid Language (DGL)** and a **Datagridflow
//! Management System (DfMS)** running on an SRB-style data grid over a
//! deterministic simulated infrastructure.
//!
//! This umbrella crate re-exports the whole system through namespaced
//! modules:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`xml`] | `dgf-xml` | the minimal XML layer DGL documents use |
//! | [`simgrid`] | `dgf-simgrid` | simulated domains, storage, network, clock |
//! | [`dgms`] | `dgf-dgms` | the data grid: namespace, replicas, metadata, MD5 |
//! | [`dgl`] | `dgf-dgl` | the language: flows, steps, rules, requests |
//! | [`scheduler`] | `dgf-scheduler` | planners, cost model, SLAs, virtual data |
//! | [`triggers`] | `dgf-triggers` | event–condition–action datagrid triggers |
//! | [`ilm`] | `dgf-ilm` | information lifecycle management, star flows |
//! | [`dfms`] | `dgf-dfms` | the engine: lifecycle, provenance, server |
//! | [`fabric`] | `dgf-fabric` | federated shards over a journaled virtual-time bus |
//! | [`baselines`] | `dgf-baselines` | cron-script ILM, client-side engine |
//!
//! ## Quickstart
//!
//! ```
//! use datagridflows::prelude::*;
//!
//! // A two-site simulated datagrid with one registered admin.
//! let topology = GridBuilder::preset(GridPreset::UniformMesh { domains: 2 });
//! let mut users = UserRegistry::new();
//! users.register(Principal::new("arun", topology.domain_ids().next().unwrap()));
//! users.make_admin("arun").unwrap();
//! let grid = DataGrid::new(topology, users);
//!
//! // A DfMS server with a cost-based scheduler.
//! let mut dfms = Dfms::new(grid, Scheduler::new(PlannerKind::CostBased, 42));
//!
//! // Describe a datagridflow in DGL and run it.
//! let flow = FlowBuilder::sequential("hello-grid")
//!     .step("mk", DglOperation::CreateCollection { path: "/home".into() })
//!     .step("put", DglOperation::Ingest {
//!         path: "/home/data.bin".into(), size: "1000000".into(), resource: "site0-disk".into(),
//!     })
//!     .step("sum", DglOperation::Checksum { path: "/home/data.bin".into(), resource: None, register: true })
//!     .build()
//!     .unwrap();
//! let txn = dfms.submit_flow("arun", flow).unwrap();
//! dfms.pump();
//! assert_eq!(dfms.status(&txn, None).unwrap().state, RunState::Completed);
//! ```

/// The XML layer (re-export of `dgf-xml`).
pub mod xml {
    pub use dgf_xml::*;
}

/// The simulated physical grid (re-export of `dgf-simgrid`).
pub mod simgrid {
    pub use dgf_simgrid::*;
}

/// The data grid management system (re-export of `dgf-dgms`).
pub mod dgms {
    pub use dgf_dgms::*;
}

/// The Data Grid Language (re-export of `dgf-dgl`).
pub mod dgl {
    pub use dgf_dgl::*;
}

/// Schedulers and brokers (re-export of `dgf-scheduler`).
pub mod scheduler {
    pub use dgf_scheduler::*;
}

/// Datagrid triggers (re-export of `dgf-triggers`).
pub mod triggers {
    pub use dgf_triggers::*;
}

/// Information lifecycle management (re-export of `dgf-ilm`).
pub mod ilm {
    pub use dgf_ilm::*;
}

/// The DfMS engine and server (re-export of `dgf-dfms`).
pub mod dfms {
    pub use dgf_dfms::*;
}

/// The federated multi-shard DfMS (re-export of `dgf-fabric`). See
/// `docs/FEDERATION.md`.
pub mod fabric {
    pub use dgf_fabric::*;
}

/// Flight recorder and metrics registry (re-export of `dgf-obs`).
pub mod obs {
    pub use dgf_obs::*;
}

/// Baseline systems for comparison (re-export of `dgf-baselines`).
pub mod baselines {
    pub use dgf_baselines::*;
}

/// Pre-execution static analysis of DGL flows (re-export of `dgf-lint`).
pub mod lint {
    pub use dgf_lint::*;
}

/// The workspace determinism auditor (re-export of `dgf-audit`). See
/// `docs/DETERMINISM.md`.
pub mod audit {
    pub use dgf_audit::*;
}

/// The write-ahead journal behind DfMS crash recovery (re-export of
/// `dgf-journal`). See `docs/RECOVERY.md`.
pub mod journal {
    pub use dgf_journal::*;
}

/// The most common imports, for examples and applications.
pub mod prelude {
    pub use crate::baselines::{ClientCrash, ClientSideEngine, CronEntry, CronRule, CronScriptIlm};
    pub use crate::dfms::{
        Dfms, DfmsServer, EngineMetrics, JournalConfig, Materialized, ProvenanceError,
        ProvenanceQuery, ProvenanceRecord, ProvenanceStore, RunOptions, StateDiff, StepOutcome,
        SyncPolicy, TimeTravel,
    };
    pub use crate::dgl::{
        BisectSpec, DataGridRequest, DataGridResponse, DglOperation, ErrorPolicy, Expr, Flow,
        FlowBuilder, FlowStatusQuery, ProfileQuery, ProfileReport, RecoveryQuery, RecoveryReport,
        FederatedFlow, FederationBus, FederationHandoff, FederationQuery, FederationReport,
        FederationShard, ReplayStats, ReportEvent, ReportMetric, ReportSpan, RequestBody, ResponseBody, Diagnostic,
        FlowValidationQuery, RunState, Severity, StatusReport, Step, TelemetryQuery,
        TelemetryReport, TimeTravelQuery, TimeTravelReport, ValidationReport, Value,
    };
    // The attribution (dgf-why) wire pair. dgf-obs's attribution store
    // classifies and reports with these same `WhyPath` / `WaitState` /
    // `AlertState` / `WhyBottleneck` types.
    pub use crate::dgl::{
        AlertState, WaitState, WhyAlert, WhyBottleneck, WhyPath, WhyQuery, WhyReport, WhySegment,
    };
    pub use crate::fabric::{BusCrashPoint, BusEnvelope, BusPayload, Fabric, FabricError};
    pub use crate::journal::Journal;
    pub use crate::lint::{lint, lint_with_grid, GridContext};
    pub use crate::obs::{
        decode_perfetto, to_chrome_trace, to_perfetto_trace, CountingAllocator, EventTail,
        FlowHealth, HealthConfig, HealthState, MetricsSnapshot, Obs, ObsEvent, ProfileSnapshot,
        Rollup, SamplingConfig, Span, SpanContext, SpanId, SpanKind, TimeSeriesStore, TraceId,
    };
    pub use crate::dgms::{
        DataGrid, EventKind, LogicalPath, MetaQuery, MetaTriple, Operation, Permission, Principal,
        UserRegistry,
    };
    pub use crate::ilm::{
        exploding_star_flow, imploding_star_flow, DomainValueModel, IlmJob, PolicyEngine, TierSpec,
    };
    pub use crate::scheduler::{
        AbstractTask, BindingMode, CostWeights, PlannerKind, Scheduler, Sla, VirtualDataCatalog,
    };
    pub use crate::simgrid::{
        Duration, FailureEvent, FailurePlan, GridBuilder, GridPreset, ScheduleWindow, SimTime,
        StorageResource, StorageTier, Topology,
    };
    pub use crate::triggers::{OrderingPolicy, Timing, Trigger, TriggerAction, TriggerEngine};
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_layers_are_reachable() {
        // Compile-time re-export sanity.
        let _ = crate::xml::Element::new("x");
        let _ = crate::simgrid::SimTime::ZERO;
        let _ = crate::dgl::Value::Int(1);
        let _ = crate::scheduler::PlannerKind::ALL;
        let _ = crate::dgms::Permission::Read;
    }
}
