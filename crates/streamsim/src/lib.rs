//! # wasp-streamsim — dataflow stream-engine substrate
//!
//! A deterministic simulation of a geo-distributed dataflow stream
//! processing engine (the role Apache Flink plays in the WASP paper),
//! built for the [WASP (Middleware 2020)] reproduction:
//!
//! * [`plan`] — logical plans (operator DAGs) with validation and the
//!   expected-rate recursion of §3.3;
//! * [`operator`] — operator execution models: selectivity, compute
//!   cost, record sizes, state models;
//! * [`physical`] — physical plans: tasks-per-site placements;
//! * [`cohort`] — the fluid event model with exact delay tracking;
//! * [`engine`] — the tick-driven simulator: backpressure, WAN
//!   transfers, windows, checkpoints, failures, adaptation commands;
//! * [`metrics`] — monitor snapshots (for the controller) and run
//!   recordings (for the figures);
//! * [`dsl`] — a compact textual DSL for building plans;
//! * [`exact`] — record-at-a-time operator primitives used to check
//!   operator and plan semantics;
//! * [`exact_engine`] — record-level execution of whole plans (e.g.
//!   proving that re-planned queries produce identical results);
//! * [`testkit`] — canonical-JSON bit-identity assertions shared by
//!   the differential suites.
//!
//! # Example
//!
//! ```
//! use wasp_netsim::prelude::*;
//! use wasp_streamsim::prelude::*;
//!
//! // One source feeding a filter feeding a sink, over two sites.
//! let mut tb = TopologyBuilder::new();
//! let a = tb.add_site("a", SiteKind::Edge, 2);
//! let b = tb.add_site("b", SiteKind::DataCenter, 4);
//! tb.set_symmetric_link(a, b, Mbps(50.0), Millis(25.0));
//! let net = Network::new(tb.build()?);
//!
//! let mut p = LogicalPlanBuilder::new("demo");
//! let src = p.add(OperatorSpec::new("src", OperatorKind::Source {
//!     site: a, base_rate: 1_000.0, event_bytes: 100.0,
//! }));
//! let f = p.add(OperatorSpec::new("f", OperatorKind::Filter).with_selectivity(0.2));
//! let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: Some(b) }));
//! p.connect(src, f);
//! p.connect(f, k);
//! let plan = p.build()?;
//!
//! let physical = PhysicalPlan::initial(&plan, b);
//! let mut engine = Engine::new(net, DynamicsScript::none(), plan, physical,
//!                              EngineConfig::default())?;
//! engine.run(60.0);
//! assert!(engine.metrics().total_delivered() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [WASP (Middleware 2020)]: https://doi.org/10.1145/3423211.3425668

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cohort;
mod control;
pub mod dsl;
pub mod engine;
pub mod exact;
pub mod exact_engine;
pub mod ids;
pub mod metrics;
pub mod operator;
pub mod physical;
pub mod plan;
pub mod testkit;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::cohort::{Cohort, CohortQueue};
    pub use crate::dsl::parse_plan;
    pub use crate::engine::{
        CheckpointTarget, Command, Engine, EngineConfig, EngineError, PlanSwitch, Transfer,
    };
    pub use crate::exact_engine::ExactEngine;
    pub use crate::ids::{OpId, QueryId};
    pub use crate::metrics::{FailureEvent, QuerySnapshot, RunMetrics, StageObs, TickRow};
    pub use crate::operator::{OperatorKind, OperatorSpec, StateModel};
    pub use crate::physical::{PhysicalError, PhysicalPlan, Placement};
    pub use crate::plan::{LogicalPlan, LogicalPlanBuilder, PlanError};
}
