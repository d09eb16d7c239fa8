//! # wasp-workloads — queries, datasets and experiment scenarios
//!
//! The evaluation workloads of the [WASP (Middleware 2020)] paper
//! (Table 3) plus the end-to-end scenarios behind every figure of §8:
//!
//! * [`queries`] — the Advertising Campaign (YSB), Top-K Popular
//!   Topics, and Events of Interest queries as fluid-engine plans;
//! * [`ysb`] — the record-level YSB generator and reference query;
//! * [`twitter`] — the synthetic geo-tagged Twitter trace (Zipfian
//!   spatial/topic skew, 2× diurnal cycle);
//! * [`joinq`] — N-way windowed join queries and the join-order
//!   replanner (the §4.3 / Fig. 5 scenario);
//! * [`cluster`] — multi-query co-scheduling over one shared WAN
//!   (tenants coupled through cross traffic);
//! * [`deploy`] — WAN-aware initial deployment (one stage at a time);
//! * [`scenarios`] — the §8.4/§8.5/§8.6/§8.7 experiments as
//!   [`ScenarioSpec`](scenarios::ScenarioSpec)s and the one
//!   [`run`](scenarios::run) that executes them.
//!
//! # Example
//!
//! ```no_run
//! use wasp_workloads::prelude::*;
//!
//! let cfg = ScenarioConfig::default();
//! let spec = ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp);
//! let result = run(&spec, &cfg);
//! println!("mean delay: {:?}", result.metrics.mean_delay());
//! ```
//!
//! [WASP (Middleware 2020)]: https://doi.org/10.1145/3423211.3425668

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod deploy;
pub mod joinq;
pub mod queries;
pub mod scenarios;
pub mod twitter;
pub mod ysb;

/// Convenient glob-import of the crate's main types.
pub mod prelude {
    pub use crate::cluster::{CoupledCluster, Tenant};
    pub use crate::deploy::initial_deployment;
    pub use crate::joinq::{JoinOrderReplanner, JoinQuery, JoinStream};
    pub use crate::queries::{
        advertising_campaign, events_of_interest, topk_topics, QueryKind, DEFAULT_RATE,
    };
    pub use crate::scenarios::{
        build_engine, overhead_breakdown, recovery_times, run, Checkpoints, ControllerKind,
        Dynamics, ExperimentResult, Label, MigrationVariant, OverheadBreakdown, ScenarioConfig,
        ScenarioSpec, Stage, COMPACTION_EVERY_N_ROUNDS, SKEWED_SPLIT_THRESHOLD, STRESS_AT_S,
        XRAY_DEFAULT_WINDOW_S,
    };
    pub use crate::twitter::TwitterTrace;
    pub use crate::ysb::{AdEvent, EventType, YsbGenerator};
    pub use wasp_controlplane::config::{ControlPlaneConfig, LossyControlConfig};
    pub use wasp_metrics::{MetricKind, MetricSnapshot, MetricsHub};
    pub use wasp_telemetry::{
        render_report, to_chrome_trace, to_jsonl, Recording, RecordingHandle, Telemetry,
    };
}
