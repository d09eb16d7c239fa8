//! End-to-end experiment scenarios — the runs behind every figure of
//! §8.
//!
//! A [`ScenarioSpec`] says *what* is simulated: one of the Table 3
//! queries on the paper's 16-node testbed, its state size and keyed
//! state model, the dynamics it faces, where it checkpoints, the
//! controller and policy that adapt it, and the horizon. Named
//! constructors build the §8 grid ([`ScenarioSpec::section_8_4`],
//! [`ScenarioSpec::migration`], [`ScenarioSpec::compaction`], …). A
//! [`ScenarioConfig`] says *how* one run is driven and observed (seed,
//! tick, monitoring interval, SLO, telemetry, metrics, control plane,
//! x-ray), and [`run`] turns the pair into one [`ExperimentResult`].

use crate::deploy::initial_deployment;
use crate::queries::QueryKind;
use crate::twitter::TwitterTrace;
use serde::{Deserialize, Serialize};
use wasp_controlplane::config::ControlPlaneConfig;
use wasp_core::controller::{
    run_controlled, Controller, DegradeController, NoAdaptController, WaspController,
};
use wasp_core::policy::PolicyConfig;
use wasp_metrics::MetricsHub;
use wasp_netsim::dynamics::{DynamicsScript, Failure};
use wasp_netsim::site::SiteId;
use wasp_netsim::testbed::Testbed;
use wasp_netsim::trace::FactorSeries;
use wasp_netsim::units::{MegaBytes, SimTime};
use wasp_optimizer::migration::MigrationStrategy;
use wasp_state::timeline::StateTimeline;
use wasp_streamsim::engine::{CheckpointTarget, Engine, EngineConfig};
use wasp_streamsim::ids::OpId;
use wasp_streamsim::metrics::RunMetrics;
use wasp_streamsim::operator::StateModel;
use wasp_streamsim::physical::PhysicalPlan;
use wasp_streamsim::plan::LogicalPlan;
use wasp_telemetry::Telemetry;

/// Which controller to run a scenario under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControllerKind {
    /// Never adapts.
    NoAdapt,
    /// Drops late events against a 10 s SLO.
    Degrade,
    /// Full WASP (all techniques, Fig. 6 policy).
    Wasp,
    /// §8.5: task re-assignment only.
    ReassignOnly,
    /// §8.5: re-assignment + scaling, no re-planning.
    ScaleOnly,
    /// §8.5: whole-pipeline re-planning only.
    ReplanOnly,
}

impl ControllerKind {
    /// Display label, matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            ControllerKind::NoAdapt => "No Adapt",
            ControllerKind::Degrade => "Degrade",
            ControllerKind::Wasp => "WASP",
            ControllerKind::ReassignOnly => "Re-assign",
            ControllerKind::ScaleOnly => "Scale",
            ControllerKind::ReplanOnly => "Re-plan",
        }
    }

    /// Instantiates the controller. The WASP variants run `policy` with
    /// their §8.5 technique restrictions applied, the tuner on when
    /// `adaptive_alpha` is set, and the run's telemetry, metrics hub
    /// and control-plane mode attached. Under
    /// [`ControlPlaneConfig::Lossy`] they detect failures from
    /// heartbeat silence and send commands over the fenced, retried
    /// channel; the static baselines (`No Adapt`, `Degrade`) never
    /// react to failures, so the mode changes nothing for them.
    fn instantiate(
        &self,
        policy: PolicyConfig,
        adaptive_alpha: bool,
        cfg: &ScenarioConfig,
    ) -> Box<dyn Controller> {
        let ctrl = match self {
            ControllerKind::NoAdapt => return Box::new(NoAdaptController),
            ControllerKind::Degrade => return Box::new(DegradeController::new(cfg.slo_s)),
            ControllerKind::Wasp => WaspController::new(policy),
            ControllerKind::ReassignOnly => WaspController::reassign_only(policy),
            ControllerKind::ScaleOnly => WaspController::scale_only(policy),
            ControllerKind::ReplanOnly => WaspController::replan_only(policy),
        }
        .with_telemetry(cfg.telemetry.clone())
        .with_metrics(cfg.metrics.clone())
        .with_control_plane(cfg.control.clone());
        Box::new(if adaptive_alpha {
            ctrl.with_adaptive_alpha()
        } else {
            ctrl
        })
    }
}

/// How one run is driven and observed (§8.2 defaults). What is
/// simulated lives in the [`ScenarioSpec`].
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Testbed / dynamics seed.
    pub seed: u64,
    /// Simulation tick.
    pub dt: f64,
    /// Monitoring interval (the paper used 40 s).
    pub monitor_interval_s: f64,
    /// Degrade's SLO.
    pub slo_s: f64,
    /// Telemetry sink shared by the engine and the controller
    /// (disabled by default — recording costs nothing unless asked
    /// for).
    pub telemetry: Telemetry,
    /// Metrics hub shared by the engine (hot-path counters, delivery
    /// histograms, link gauges) and the controller (derived SLO
    /// gauges). Disabled by default, like telemetry.
    pub metrics: MetricsHub,
    /// Control-plane mode. `Oracle` (the default) keeps the classic
    /// instant, reliable command path; `Lossy` routes heartbeats and
    /// commands over the simulated WAN with configurable loss, makes
    /// the WASP controllers detect failures from heartbeat silence,
    /// and fences every command with the controller epoch.
    pub control: ControlPlaneConfig,
    /// Latency-attribution (xray) reporting-window width in seconds.
    /// `None` (the default) leaves attribution off and the run
    /// byte-identical to pre-xray builds; `Some(w)` records per-sink
    /// per-window component breakdowns and critical paths.
    pub xray: Option<f64>,
}

/// Default xray reporting-window width (seconds) when attribution is
/// enabled without an explicit width.
pub const XRAY_DEFAULT_WINDOW_S: f64 = 300.0;

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            // The default testbed realization: per-link bandwidths are
            // seeded draws, and the paper-qualitative assertions need
            // the bandwidth-constrained regime this seed produces.
            // Override with WASP_SCENARIO_SEED to scan other draws.
            seed: std::env::var("WASP_SCENARIO_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(4),
            dt: 0.25,
            monitor_interval_s: 40.0,
            slo_s: 10.0,
            telemetry: Telemetry::disabled(),
            metrics: MetricsHub::disabled(),
            control: ControlPlaneConfig::Oracle,
            xray: None,
        }
    }
}

/// An operator whose host a host-relative stress targets, resolved
/// against the WAN-aware initial deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stage {
    /// The plan's first stateful stage.
    Stateful,
    /// The operator with this name (e.g. Top-K's `"filter-geo"`).
    Named(&'static str),
}

impl Stage {
    fn op(&self, plan: &LogicalPlan) -> OpId {
        match self {
            Stage::Stateful => plan.stateful_ops()[0],
            Stage::Named(name) => plan
                .op_ids()
                .find(|&op| plan.op(op).name() == *name)
                .unwrap_or_else(|| panic!("{} has no stage {name}", plan.name())),
        }
    }
}

/// The dynamics a scenario faces.
#[derive(Debug, Clone)]
pub enum Dynamics {
    /// A fixed script ([`DynamicsScript::section_8_4`],
    /// [`DynamicsScript::section_8_5`], or hand-written).
    Script(DynamicsScript),
    /// The §8.6 live environment drawn from the run's seed over the
    /// horizon: per-source workload walks in [0.8, 2.4], an all-link
    /// bandwidth walk in [0.51, 2.36], and a full failure at t = 540
    /// restored after 60 s. `diurnal` layers the Twitter trace's
    /// diurnal pattern on the workload walks (the §8.6 figures do; the
    /// checkpoint-interval ablation does not).
    Live {
        /// Layer the Twitter diurnal pattern on the workload.
        diurnal: bool,
    },
    /// From `at_s` on, every link into the host of `stage` carries
    /// `factor` of its bandwidth.
    InboundDegrade {
        /// Whose host is cut off.
        stage: Stage,
        /// Onset, seconds.
        at_s: f64,
        /// Bandwidth factor after the onset.
        factor: f64,
    },
    /// The host of `stage` fails at each of `at_s`, restored
    /// `restore_after_s` later.
    HostFailures {
        /// Whose host fails.
        stage: Stage,
        /// Failure times, seconds.
        at_s: Vec<f64>,
        /// Outage length, seconds.
        restore_after_s: f64,
    },
    /// The host of `stage` computes at `speed` × its nominal rate.
    Straggler {
        /// Whose host straggles.
        stage: Stage,
        /// Compute-speed factor over time.
        speed: FactorSeries,
    },
}

/// Where a scenario's checkpoints go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Checkpoints {
    /// Site-local storage — WASP's localized checkpointing (§5).
    Local,
    /// A rendezvous storage system at one site.
    Remote(SiteId),
    /// A rendezvous at the first data center that does not host the
    /// stateful stage (the sink when there is none), so every round is
    /// a real WAN flight.
    RemoteOffStage,
}

/// How a run is labelled in legends and reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Label {
    /// The controller's legend label ([`ControllerKind::label`]).
    Controller,
    /// `"WASP(α=…)"` with the α in force when the run ends (the α
    /// ablations, which fix or tune it).
    FinalAlpha,
    /// A fixed variant label (`"Random"`, `"Partitioned"`,
    /// `"every-4-rounds"`, …).
    Fixed(String),
}

/// One testbed experiment: what is simulated. Build it with a named
/// constructor, adjust fields, and hand it to [`run`] with a
/// [`ScenarioConfig`].
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (the root telemetry span's `scenario:` tag).
    pub name: &'static str,
    /// Query under test.
    pub query: QueryKind,
    /// Replaces the query's name in reports (`"topk (delta chain)"`).
    pub query_label: Option<&'static str>,
    /// Resizes the plan's fixed-state stage to this many MB.
    pub state_mb: Option<f64>,
    /// Keyed-state model of both the engine and the policy's overhead
    /// estimate. `Coarse` reproduces the classic whole-blob behaviour
    /// bit-for-bit; `Partitioned` splits each stateful stage into hash
    /// partitions, checkpoints only dirty deltas, and pipelines
    /// migrations partition-by-partition.
    pub state: wasp_state::StateModel,
    /// The dynamics the query faces.
    pub dynamics: Dynamics,
    /// Checkpoint interval, seconds.
    pub checkpoint_interval_s: f64,
    /// Checkpoint destination.
    pub checkpoints: Checkpoints,
    /// Controller driving the adaptation.
    pub controller: ControllerKind,
    /// Policy of the WASP controllers (α, t_max, migration strategy,
    /// …); its `state` is replaced by [`ScenarioSpec::state`], and a
    /// [`MigrationStrategy::Random`] mapping draws from the run's seed.
    pub policy: PolicyConfig,
    /// Enable the automatic α tuner.
    pub adaptive_alpha: bool,
    /// Run length, seconds.
    pub horizon_s: f64,
    /// Result label.
    pub label: Label,
}

/// When the §8.7 scaffolds cut the stateful stage's host off.
pub const STRESS_AT_S: f64 = 150.0;

/// Canonical split threshold of the skewed-split scenario (the bench
/// baseline row, the report quickstart, and the differential suite all
/// use it): the default 16-partition Zipf head weighs ~0.30, so 0.15
/// forces two splits of the head and halves the worst migration slice.
pub const SKEWED_SPLIT_THRESHOLD: f64 = 0.15;

/// Canonical compaction cadence of the compaction scenario (the
/// BENCH_pr10 baseline row and the differential suite use it): a full
/// snapshot every 4 delta rounds keeps recovery replay near one
/// snapshot's worth while the unbounded arm accrues every round since
/// t = 0.
pub const COMPACTION_EVERY_N_ROUNDS: u32 = 4;

/// How §8.7 experiments migrate state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MigrationVariant {
    /// WASP's network-aware min-max mapping.
    Wasp,
    /// Ignore bandwidth: random mapping.
    Random,
    /// Worst-case mapping (slowest links).
    Distant,
    /// Do not migrate state at all (loses accuracy).
    NoMigrate,
}

impl MigrationVariant {
    /// Display label (Fig. 13).
    pub fn label(&self) -> &'static str {
        match self {
            MigrationVariant::Wasp => "WASP",
            MigrationVariant::Random => "Random",
            MigrationVariant::Distant => "Distant",
            MigrationVariant::NoMigrate => "No Migrate",
        }
    }
}

impl ScenarioSpec {
    /// `query` facing `dynamics` under `controller` for `horizon_s`,
    /// with the §8.2 defaults otherwise: the query's own state size,
    /// coarse state, 30 s local checkpoints, the default policy.
    pub fn new(
        name: &'static str,
        query: QueryKind,
        dynamics: Dynamics,
        controller: ControllerKind,
        horizon_s: f64,
    ) -> ScenarioSpec {
        ScenarioSpec {
            name,
            query,
            query_label: None,
            state_mb: None,
            state: wasp_state::StateModel::Coarse,
            dynamics,
            checkpoint_interval_s: 30.0,
            checkpoints: Checkpoints::Local,
            controller,
            policy: PolicyConfig::default(),
            adaptive_alpha: false,
            horizon_s,
            label: Label::Controller,
        }
    }

    /// §8.4 (Figs. 8–9): workload 10k→20k→10k ev/s at t = 300/600,
    /// bandwidth ×0.3 at t = 900 restored at t = 1200; 1500 s total.
    pub fn section_8_4(query: QueryKind, controller: ControllerKind) -> ScenarioSpec {
        let script = Dynamics::Script(DynamicsScript::section_8_4());
        ScenarioSpec::new("section_8_4", query, script, controller, 1500.0)
    }

    /// §8.5 (Fig. 10): Top-K under workload ×{1,2,2,1,1} and bandwidth
    /// ×{1,1,0.5,0.5,1} per 300 s interval; 1500 s total.
    pub fn section_8_5(controller: ControllerKind) -> ScenarioSpec {
        let script = Dynamics::Script(DynamicsScript::section_8_5());
        ScenarioSpec::new("section_8_5", QueryKind::TopK, script, controller, 1500.0)
    }

    /// §8.6 (Figs. 11–12): Top-K in the live trace-driven environment
    /// with the Twitter diurnal pattern ([`Dynamics::Live`]); 1800 s.
    pub fn section_8_6(controller: ControllerKind) -> ScenarioSpec {
        let live = Dynamics::Live { diurnal: true };
        ScenarioSpec::new("section_8_6", QueryKind::TopK, live, controller, 1800.0)
    }

    /// §8.7 scaffold: a Top-K stage holding `state_mb` of state whose
    /// inbound links degrade ×0.01 at [`STRESS_AT_S`], so the monitor
    /// (next round ≈ t = 160–180) must move it; WASP without
    /// re-planning or scale-down, for 500 s.
    fn section_8_7(name: &'static str, state_mb: f64, policy: PolicyConfig) -> ScenarioSpec {
        let stress = Dynamics::InboundDegrade {
            stage: Stage::Stateful,
            at_s: STRESS_AT_S,
            factor: 0.01,
        };
        ScenarioSpec {
            state_mb: Some(state_mb),
            policy: PolicyConfig {
                allow_replan: false,
                scale_down: false,
                ..policy
            },
            ..ScenarioSpec::new(name, QueryKind::TopK, stress, ControllerKind::Wasp, 500.0)
        }
    }

    /// §8.7 migration experiment (Figs. 13–14): the scaffold migrating
    /// by `variant`. `t_max_s` controls whether large states force
    /// scale-out + partitioning (§8.7.2).
    pub fn migration(variant: MigrationVariant, state_mb: f64, t_max_s: f64) -> ScenarioSpec {
        let policy = PolicyConfig {
            migration: match variant {
                // Re-seeded from the run's seed.
                MigrationVariant::Random => MigrationStrategy::Random(0),
                MigrationVariant::Distant => MigrationStrategy::Distant,
                _ => MigrationStrategy::NetworkAware,
            },
            skip_state: variant == MigrationVariant::NoMigrate,
            t_max_s,
            ..PolicyConfig::default()
        };
        ScenarioSpec {
            label: Label::Fixed(variant.label().to_string()),
            ..ScenarioSpec::section_8_7("migration", state_mb, policy)
        }
    }

    /// Skewed-state migration: the §8.7 scaffold under keyed-state
    /// model `state`. The stage's state is Zipf-skewed across hash
    /// partitions, so under [`wasp_state::StateModel::Partitioned`]
    /// the hot partition dominates but every other key resumes after a
    /// short slice flight — the p95 per-key downtime drops strictly
    /// below the coarse whole-blob pause for the *same* re-assignment
    /// (`t_max` is effectively unbounded so both models pick the
    /// identical move).
    pub fn skewed_state(state: wasp_state::StateModel, state_mb: f64) -> ScenarioSpec {
        let policy = PolicyConfig {
            t_max_s: 1e9,
            ..PolicyConfig::default()
        };
        let label = if state.is_partitioned() {
            "Partitioned"
        } else {
            "Coarse"
        };
        ScenarioSpec {
            query_label: Some("topk (skewed state)"),
            state,
            label: Label::Fixed(label.to_string()),
            ..ScenarioSpec::section_8_7("skewed_state", state_mb, policy)
        }
    }

    /// The skewed-state experiment under partitioned state with runtime
    /// key-range splitting at [`SKEWED_SPLIT_THRESHOLD`] — the
    /// "skewed_split" scenario recorded in the BENCH_pr9 baseline.
    pub fn skewed_split(state_mb: f64) -> ScenarioSpec {
        let state = wasp_state::StateModel::Partitioned(
            wasp_state::PartitionConfig::with_split_threshold(SKEWED_SPLIT_THRESHOLD),
        );
        ScenarioSpec {
            name: "skewed_split",
            query_label: Some("topk (skewed split)"),
            ..ScenarioSpec::skewed_state(state, state_mb)
        }
    }

    /// Checkpoint compaction: a Top-K stage of `state_mb` under
    /// partitioned state with delta-chain modeling by `policy`,
    /// checkpointing every 15 s to a remote data center
    /// ([`Checkpoints::RemoteOffStage`]) so rounds and compaction
    /// snapshots contend with stream traffic, and three failures of
    /// the stage's host at t = 150/300/450 (restored after 20 s each).
    /// No controller adapts, so every failure hits the same host and
    /// recovery replays the chain as it stood at that moment:
    ///
    /// * under [`CompactionPolicy::unbounded`](wasp_state::CompactionPolicy::unbounded)
    ///   the chain grows for the whole run, so each successive failure
    ///   replays strictly more;
    /// * under a bounded policy (e.g. every
    ///   [`COMPACTION_EVERY_N_ROUNDS`] rounds) the chain is
    ///   periodically folded into a full snapshot — recovery replays at
    ///   most the base plus a few rounds, at the cost of visible
    ///   full-size upload bursts on the checkpoint path.
    pub fn compaction(policy: wasp_state::CompactionPolicy, state_mb: f64) -> ScenarioSpec {
        let failures = Dynamics::HostFailures {
            stage: Stage::Stateful,
            at_s: vec![150.0, 300.0, 450.0],
            restore_after_s: 20.0,
        };
        let label = match &policy {
            wasp_state::CompactionPolicy::None => "no-chain".to_string(),
            wasp_state::CompactionPolicy::Model(c) => c
                .trigger_label()
                .unwrap_or_else(|| "unbounded-chain".to_string()),
        };
        let spec = ScenarioSpec::new(
            "compaction",
            QueryKind::TopK,
            failures,
            ControllerKind::NoAdapt,
            600.0,
        );
        ScenarioSpec {
            query_label: Some("topk (delta chain)"),
            state_mb: Some(state_mb),
            state: wasp_state::StateModel::Partitioned(
                wasp_state::PartitionConfig::with_compaction(policy),
            ),
            checkpoint_interval_s: 15.0,
            checkpoints: Checkpoints::RemoteOffStage,
            label: Label::Fixed(label),
            ..spec
        }
    }

    /// The host `stage` lands on in this spec's initial deployment.
    pub fn stage_host(&self, stage: Stage, seed: u64) -> SiteId {
        let tb = Testbed::paper(seed);
        let (plan, physical) = self.layout(&tb);
        physical.placement(stage.op(&plan)).sites()[0]
    }

    /// The (state-resized) plan and its WAN-aware initial deployment.
    fn layout(&self, tb: &Testbed) -> (LogicalPlan, PhysicalPlan) {
        let sink = tb.data_centers()[0];
        let mut plan = self.query.build_default(tb.edges(), sink);
        if let Some(mb) = self.state_mb {
            plan = override_state(plan, mb);
        }
        let physical = deploy(&plan, tb);
        (plan, physical)
    }

    /// Builds the engine this spec runs on, with the run's telemetry,
    /// x-ray, metrics hub and control-plane mode attached, plus the
    /// plan's end-to-end selectivity. [`run`] drives it under the
    /// spec's controller; experiments that inspect the engine itself
    /// (checkpoint rounds, final placement) drive it by hand.
    pub fn deploy(&self, cfg: &ScenarioConfig) -> (Engine, f64) {
        let tb = Testbed::paper(cfg.seed);
        let (plan, physical) = self.layout(&tb);
        let host = |stage: &Stage| physical.placement(stage.op(&plan)).sites()[0];
        let mut net = tb.static_network();
        let script = match &self.dynamics {
            Dynamics::Script(script) => script.clone(),
            Dynamics::Live { diurnal } => {
                let mut script = DynamicsScript::section_8_6(tb.edges(), self.horizon_s, cfg.seed);
                if *diurnal {
                    let trace = TwitterTrace {
                        seed: cfg.seed,
                        ..TwitterTrace::default()
                    };
                    for (c, &site) in tb.edges().iter().enumerate() {
                        let samples: Vec<f64> = (0..60)
                            .map(|i| trace.diurnal_factor(c, i as f64 * 30.0))
                            .collect();
                        script =
                            script.with_workload(site, FactorSeries::from_samples(30.0, samples));
                    }
                }
                script
            }
            Dynamics::InboundDegrade {
                stage,
                at_s,
                factor,
            } => {
                let h = host(stage);
                for site in tb.topology().site_ids() {
                    if site != h {
                        net.set_pair_factor(site, h, FactorSeries::steps(1.0, &[(*at_s, *factor)]));
                    }
                }
                DynamicsScript::none()
            }
            Dynamics::HostFailures {
                stage,
                at_s,
                restore_after_s,
            } => at_s.iter().fold(DynamicsScript::none(), |script, &at| {
                script.with_failure(Failure {
                    at: SimTime(at),
                    restore_after: *restore_after_s,
                    site: Some(host(stage)),
                })
            }),
            Dynamics::Straggler { stage, speed } => {
                DynamicsScript::none().with_straggler(host(stage), speed.clone())
            }
        };
        let checkpoint_target = match self.checkpoints {
            Checkpoints::Local => CheckpointTarget::Local,
            Checkpoints::Remote(site) => CheckpointTarget::Remote(site),
            Checkpoints::RemoteOffStage => {
                let h = host(&Stage::Stateful);
                let dc = tb.data_centers().iter().copied().find(|&s| s != h);
                CheckpointTarget::Remote(dc.unwrap_or(tb.data_centers()[0]))
            }
        };
        let engine_cfg = EngineConfig {
            dt: cfg.dt,
            drop_slo: (self.controller == ControllerKind::Degrade).then_some(cfg.slo_s),
            state_model: self.state,
            checkpoint_interval_s: self.checkpoint_interval_s,
            checkpoint_target,
            ..EngineConfig::default()
        };
        let e2e = plan.end_to_end_selectivity();
        let mut engine =
            Engine::new(net, script, plan, physical, engine_cfg).expect("deployment validated");
        engine.set_telemetry(cfg.telemetry.clone());
        if let Some(w) = cfg.xray {
            engine.enable_xray(w);
        }
        engine.set_metrics(cfg.metrics.clone());
        if let ControlPlaneConfig::Lossy(lossy) = &cfg.control {
            engine.enable_lossy_control(lossy.clone());
        }
        (engine, e2e)
    }

    /// The WASP policy this spec runs under a run seeded `seed`.
    fn run_policy(&self, seed: u64) -> PolicyConfig {
        let mut policy = PolicyConfig {
            state: self.state,
            ..self.policy.clone()
        };
        if let MigrationStrategy::Random(_) = policy.migration {
            policy.migration = MigrationStrategy::Random(seed);
        }
        policy
    }
}

/// The outcome of one scenario run.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Variant label ([`ScenarioSpec::label`]).
    pub label: String,
    /// Query name.
    pub query: String,
    /// Full recording.
    pub metrics: RunMetrics,
    /// End-to-end selectivity for processing-ratio normalization.
    pub e2e_selectivity: f64,
    /// Latency attribution (`Some` only when `ScenarioConfig::xray`
    /// was set).
    pub xray: Option<wasp_xray::XrayRun>,
    /// Checkpoint/transfer/compaction/replay timeline (empty under the
    /// coarse state model).
    pub timeline: StateTimeline,
    /// The α in force when the run ended (`None` for the static
    /// baselines).
    pub final_alpha: Option<f64>,
}

impl ExperimentResult {
    /// Processing-ratio series with the query's own normalization.
    pub fn ratio_series(&self, bucket_s: f64) -> Vec<(f64, f64)> {
        self.metrics.ratio_series(bucket_s, self.e2e_selectivity)
    }

    /// Overhead breakdown of the first adaptation, when one happened.
    pub fn breakdown(&self) -> Option<OverheadBreakdown> {
        overhead_breakdown(&self.metrics)
    }

    /// 95th-percentile delay from `from_s` up to the last tick (over
    /// the whole run when nothing was delivered in that window) — for
    /// the §8.7 scaffolds, the damage after [`STRESS_AT_S`].
    pub fn p95_delay_after(&self, from_s: f64) -> f64 {
        let end = self.metrics.ticks().last().map_or(0.0, |r| r.t);
        self.metrics
            .delay_quantile_between(from_s, end, 0.95)
            .or_else(|| self.metrics.delay_quantile(0.95))
            .unwrap_or(0.0)
    }

    /// Cumulative state abandoned (only non-zero when migrations skip
    /// state).
    pub fn lost_state_mb(&self) -> f64 {
        self.metrics.ticks().last().map_or(0.0, |r| r.lost_state_mb)
    }

    /// 95th-percentile per-key downtime of the migrations, seconds.
    /// Under `Partitioned` this is the p95 over per-partition pauses
    /// (each key pauses only while its own slice flies); under
    /// `Coarse` every key is down for the whole transition, so it is
    /// the first adaptation's suspension itself.
    pub fn downtime_p95_s(&self) -> f64 {
        let coarse_pause = self.breakdown().map_or(0.0, |b| b.transition_s);
        self.timeline
            .downtime_quantile(0.95)
            .unwrap_or(coarse_pause)
    }

    /// 95th-percentile modeled recovery replay over the failures,
    /// seconds (0 when no failure replayed a delta chain).
    pub fn replay_p95_s(&self) -> f64 {
        self.timeline.replay_quantile(0.95).unwrap_or(0.0)
    }

    /// Total full-snapshot volume the compactions uploaded, MB.
    pub fn compaction_mb(&self) -> f64 {
        self.timeline.total_compaction_mb()
    }
}

/// Runs `spec` as `cfg` drives and observes it: deploys it, runs it
/// under its controller for the horizon, and collects the recording.
pub fn run(spec: &ScenarioSpec, cfg: &ScenarioConfig) -> ExperimentResult {
    let (mut engine, e2e_selectivity) = spec.deploy(cfg);
    let tel = &cfg.telemetry;
    let root = if tel.is_enabled() {
        let name = format!(
            "scenario:{} {} [{}] seed={}",
            spec.name,
            spec.query.name(),
            spec.controller.label(),
            cfg.seed
        );
        tel.span_begin(0.0, &name)
    } else {
        None
    };
    let mut ctrl = spec
        .controller
        .instantiate(spec.run_policy(cfg.seed), spec.adaptive_alpha, cfg);
    run_controlled(
        &mut engine,
        ctrl.as_mut(),
        spec.horizon_s,
        cfg.monitor_interval_s,
    );
    tel.span_end(engine.now().secs(), root);
    let final_alpha = ctrl.alpha();
    let label = match &spec.label {
        Label::Controller => spec.controller.label().to_string(),
        Label::FinalAlpha => format!("WASP(α={:.2})", final_alpha.unwrap_or(f64::NAN)),
        Label::Fixed(label) => label.clone(),
    };
    ExperimentResult {
        label,
        query: spec.query_label.unwrap_or(spec.query.name()).to_string(),
        xray: engine.take_xray(),
        timeline: engine.state_timeline().clone(),
        metrics: engine.into_metrics(),
        e2e_selectivity,
        final_alpha,
    }
}

/// WAN-aware initial deployment on the paper testbed's static network,
/// falling back to everything at the sink.
fn deploy(plan: &LogicalPlan, tb: &Testbed) -> PhysicalPlan {
    let sink = tb.data_centers()[0];
    initial_deployment(plan, &tb.static_network(), 0.8)
        .unwrap_or_else(|_| PhysicalPlan::initial(plan, sink))
}

/// Builds a query engine on the paper testbed: sources at the 8 edge
/// sites, sink at the first data center, WAN-aware initial deployment.
pub fn build_engine(
    kind: QueryKind,
    tb: &Testbed,
    script: DynamicsScript,
    engine_cfg: EngineConfig,
) -> (Engine, f64) {
    let plan = kind.build_default(tb.edges(), tb.data_centers()[0]);
    let physical = deploy(&plan, tb);
    let e2e = plan.end_to_end_selectivity();
    let engine = Engine::new(tb.static_network(), script, plan, physical, engine_cfg)
        .expect("deployment validated");
    (engine, e2e)
}

/// Breakdown of one adaptation's overhead (§8.7): transition time
/// (execution suspended for state migration) and stabilizing time
/// (draining the events queued during the transition).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadBreakdown {
    /// When the adaptation began.
    pub start_s: f64,
    /// Seconds the execution was suspended.
    pub transition_s: f64,
    /// Seconds from resumption until the delay returned to its
    /// pre-adaptation level.
    pub stabilize_s: f64,
}

impl OverheadBreakdown {
    /// Total overhead.
    pub fn total_s(&self) -> f64 {
        self.transition_s + self.stabilize_s
    }
}

/// The stabilization rule shared by [`overhead_breakdown`] and
/// [`recovery_times`]: the first tick after `after` from which the
/// per-tick mean delay stays under `max(2·steady, steady + 2)` for 5
/// consecutive seconds of delivering ticks, where `steady` is the
/// median delay before `onset` (1 s when nothing was delivered).
/// Censored at `run_end` — or at the start of a streak still running
/// there — when the execution never re-stabilizes.
fn stabilized_at(metrics: &RunMetrics, onset: f64, after: f64, run_end: f64) -> f64 {
    let steady = metrics
        .delay_quantile_between(0.0, onset.max(1.0), 0.5)
        .unwrap_or(1.0);
    let threshold = (steady * 2.0).max(steady + 2.0);
    let mut streak_start: Option<f64> = None;
    for row in metrics.ticks().iter().filter(|r| r.t > after) {
        match row.mean_delay {
            Some(d) if d <= threshold => {
                let s = *streak_start.get_or_insert(row.t);
                if row.t - s >= 5.0 {
                    return s;
                }
            }
            Some(_) => streak_start = None,
            None => {}
        }
    }
    streak_start.unwrap_or(run_end)
}

/// Extracts the first adaptation's overhead breakdown from a
/// recording; the pre-adaptation delay level decides when the
/// execution has stabilized.
pub fn overhead_breakdown(metrics: &RunMetrics) -> Option<OverheadBreakdown> {
    let start = metrics
        .actions()
        .iter()
        .find(|(_, l)| l == "transition-start")
        .map(|&(t, _)| t)?;
    let end = metrics
        .actions()
        .iter()
        .find(|(t, l)| l == "transition-end" && *t >= start)
        .map(|&(t, _)| t)
        .unwrap_or(start);
    let run_end = metrics.ticks().last().map(|r| r.t).unwrap_or(end);
    let stable_at = stabilized_at(metrics, start, end, run_end);
    Some(OverheadBreakdown {
        start_s: start,
        transition_s: end - start,
        stabilize_s: (stable_at - end).max(0.0),
    })
}

/// Time-to-recover after each injected site failure.
///
/// For every `"failure"` annotation in the recording (the engine
/// stamps one per observed site-down), returns `(failure_t, recovery_s)`
/// where `recovery_s` is the seconds until the per-tick mean delay
/// returns to its pre-failure level and holds there for 5 consecutive
/// seconds of delivering ticks — the same stabilization rule as
/// [`overhead_breakdown`]. Censored at the end of the recording when
/// the query never re-stabilizes. Simultaneous multi-site failures
/// (identical timestamps) are collapsed into one entry.
pub fn recovery_times(metrics: &RunMetrics) -> Vec<(f64, f64)> {
    let mut failures: Vec<f64> = metrics
        .actions()
        .iter()
        .filter(|(_, l)| l == "failure")
        .map(|&(t, _)| t)
        .collect();
    failures.dedup();
    let run_end = metrics.ticks().last().map(|r| r.t).unwrap_or(0.0);
    failures
        .into_iter()
        .map(|f| (f, (stabilized_at(metrics, f, f, run_end) - f).max(0.0)))
        .collect()
}

/// Rebuilds a plan with its (single) fixed-state stage resized.
fn override_state(plan: LogicalPlan, state_mb: f64) -> LogicalPlan {
    use wasp_streamsim::plan::LogicalPlanBuilder;
    let mut b = LogicalPlanBuilder::new(plan.name().to_string());
    for op in plan.op_ids() {
        let mut spec = plan.op(op).clone();
        if matches!(spec.state(), StateModel::Fixed(_)) {
            spec = spec.with_state(StateModel::Fixed(MegaBytes(state_mb)));
        }
        b.add(spec);
    }
    for op in plan.op_ids() {
        for &d in plan.downstream(op) {
            b.connect(op, d);
        }
    }
    b.build().expect("rebuilt plan matches the original shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ScenarioConfig {
        ScenarioConfig {
            dt: 0.5,
            ..ScenarioConfig::default()
        }
    }

    fn migration(variant: MigrationVariant) -> ExperimentResult {
        run(
            &ScenarioSpec::migration(variant, 60.0, f64::INFINITY),
            &quick_cfg(),
        )
    }

    fn skewed(state: wasp_state::StateModel) -> ExperimentResult {
        run(&ScenarioSpec::skewed_state(state, 60.0), &quick_cfg())
    }

    fn bounded_compaction() -> ScenarioSpec {
        ScenarioSpec::compaction(
            wasp_state::CompactionPolicy::every_n_rounds(COMPACTION_EVERY_N_ROUNDS),
            48.0,
        )
    }

    #[test]
    fn build_engine_deploys_all_queries() {
        let tb = Testbed::paper(1);
        for kind in QueryKind::ALL {
            let (engine, e2e) =
                build_engine(kind, &tb, DynamicsScript::none(), EngineConfig::default());
            assert!(e2e > 0.0, "{}", kind.name());
            assert!(engine.physical().total_tasks() >= 10);
        }
    }

    /// Delivered events over generated × the plan's own end-to-end
    /// selectivity: the bench rows' `delivered_ratio`.
    fn delivered_ratio(metrics: &RunMetrics, e2e_selectivity: f64) -> f64 {
        metrics.total_delivered() / (metrics.total_generated() * e2e_selectivity)
    }

    #[test]
    fn state_rows_deliver_about_what_their_plans_select() {
        let cfg = ScenarioConfig {
            seed: 4,
            dt: 0.25,
            ..ScenarioConfig::default()
        };
        let split = run(&ScenarioSpec::skewed_split(60.0), &cfg);
        let ratio = delivered_ratio(&split.metrics, split.e2e_selectivity);
        assert!(ratio > 0.9 && ratio <= 1.01, "skewed split: {ratio}");
        let compaction = run(&bounded_compaction(), &cfg);
        let ratio = delivered_ratio(&compaction.metrics, compaction.e2e_selectivity);
        assert!(ratio > 0.9 && ratio <= 1.01, "compaction: {ratio}");
    }

    #[test]
    fn override_state_resizes_only_fixed_state() {
        let tb = Testbed::paper(1);
        let plan = QueryKind::TopK.build_default(tb.edges(), tb.data_centers()[0]);
        let resized = override_state(plan.clone(), 256.0);
        let op = resized.stateful_ops()[0];
        assert_eq!(resized.op(op).state(), StateModel::Fixed(MegaBytes(256.0)));
        assert_eq!(resized.len(), plan.len());
    }

    #[test]
    fn spec_state_and_run_seed_reach_the_policy() {
        let state = wasp_state::StateModel::Partitioned(wasp_state::PartitionConfig::default());
        let spec = ScenarioSpec {
            state,
            ..ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp)
        };
        assert_eq!(spec.run_policy(4).state, state);
        let random = ScenarioSpec::migration(MigrationVariant::Random, 60.0, f64::INFINITY);
        assert_eq!(random.run_policy(7).migration, MigrationStrategy::Random(7));
    }

    #[test]
    fn controller_kinds_have_distinct_labels() {
        let labels: Vec<&str> = [
            ControllerKind::NoAdapt,
            ControllerKind::Degrade,
            ControllerKind::Wasp,
            ControllerKind::ReassignOnly,
            ControllerKind::ScaleOnly,
            ControllerKind::ReplanOnly,
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        let unique: std::collections::BTreeSet<&&str> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn lossy_control_scenario_adapts_over_the_fallible_channel() {
        let (tel, handle) = Telemetry::recording();
        let cfg = ScenarioConfig {
            dt: 0.5,
            telemetry: tel,
            control: ControlPlaneConfig::Lossy(wasp_controlplane::config::LossyControlConfig {
                loss: 0.05,
                ..Default::default()
            }),
            ..ScenarioConfig::default()
        };
        let res = run(
            &ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp),
            &cfg,
        );
        assert!(res.metrics.total_delivered() > 0.0);
        let rec = handle.recording();
        let enqueued = rec
            .events()
            .filter(|(_, _, e)| matches!(e, wasp_telemetry::Event::ControlCommandEnqueued { .. }))
            .count();
        assert!(enqueued >= 1, "lossy controller sent no commands");
        let applied = rec
            .events()
            .filter(|(_, _, e)| {
                matches!(
                    e,
                    wasp_telemetry::Event::ControlCommandDelivered { applied: true, .. }
                )
            })
            .count();
        assert!(applied >= 1, "no command survived the lossy channel");
        // The engine stamps applied commands into the run annotations,
        // so downstream analysis (recovery times, reports) still sees
        // the adaptation actions.
        assert!(
            !res.metrics.actions().is_empty(),
            "applied commands should be annotated"
        );
    }

    #[test]
    fn oracle_default_config_has_no_control_plane_overhead() {
        let cfg = quick_cfg();
        assert_eq!(cfg.control, ControlPlaneConfig::Oracle);
        assert!(!cfg.control.is_lossy());
    }

    #[test]
    fn migration_experiment_adapts_and_reports_breakdown() {
        let res = migration(MigrationVariant::Wasp);
        let b = res.breakdown().expect("an adaptation must happen");
        assert!(
            b.start_s > 150.0 && b.start_s < 300.0,
            "start {}",
            b.start_s
        );
        assert!(b.transition_s > 0.0, "breakdown {b:?}");
        assert_eq!(res.lost_state_mb(), 0.0);
    }

    #[test]
    fn no_migrate_loses_state_but_transitions_fast() {
        let wasp = migration(MigrationVariant::Wasp);
        let nomig = migration(MigrationVariant::NoMigrate);
        assert!(
            nomig.lost_state_mb() >= 60.0,
            "lost {}",
            nomig.lost_state_mb()
        );
        let bw = wasp.breakdown().unwrap();
        let bn = nomig.breakdown().unwrap();
        assert!(
            bn.transition_s < bw.transition_s,
            "no-migrate {bn:?} vs wasp {bw:?}"
        );
    }

    #[test]
    fn partitioned_state_slashes_per_key_downtime() {
        let coarse = skewed(wasp_state::StateModel::Coarse);
        let part = skewed(wasp_state::StateModel::Partitioned(
            wasp_state::PartitionConfig::default(),
        ));
        // Same re-assignment: both models adapt, at the same monitor
        // round (the `t_max` gate is effectively off in this scaffold).
        let bc = coarse.breakdown().expect("coarse run must adapt");
        let bp = part.breakdown().expect("partitioned run must adapt");
        assert!(
            (bc.start_s - bp.start_s).abs() < 1e-9,
            "coarse {bc:?} vs partitioned {bp:?}"
        );
        // Coarse leaves no state timeline (byte-identical legacy path);
        // partitioned records slice flights and checkpoint deltas.
        assert!(coarse.timeline.is_empty());
        assert!(!part.timeline.transfers.is_empty());
        assert!(!part.timeline.checkpoints.is_empty());
        // Incremental checkpoints: once steady, rounds upload only the
        // dirty delta — strictly less than a full snapshot each time.
        assert!(part
            .timeline
            .checkpoints
            .iter()
            .skip(1)
            .any(|c| c.delta_mb < c.full_mb));
        // The headline §5 claim (acceptance criterion): p95 per-key
        // downtime strictly below the coarse whole-blob pause.
        assert!(coarse.downtime_p95_s() > 0.0, "coarse {coarse:?}");
        assert!(
            part.downtime_p95_s() < coarse.downtime_p95_s(),
            "partitioned p95 {} must beat coarse {}",
            part.downtime_p95_s(),
            coarse.downtime_p95_s()
        );
    }

    #[test]
    fn splitting_hot_partitions_tightens_the_downtime_chain() {
        let coarse = skewed(wasp_state::StateModel::Coarse);
        let flat = skewed(wasp_state::StateModel::Partitioned(
            wasp_state::PartitionConfig::default(),
        ));
        let split = run(&ScenarioSpec::skewed_split(60.0), &quick_cfg());
        // Only the split-enabled run records split events; the flat
        // partitioned run keeps its PR 8 timeline shape untouched.
        assert!(flat.timeline.splits.is_empty());
        assert!(!split.timeline.splits.is_empty(), "split {split:?}");
        // Every recorded split conserves the parent's mass exactly.
        for s in &split.timeline.splits {
            assert!(
                (s.left_mb + s.right_mb - s.parent_mb).abs() < 1e-9,
                "split {s:?}"
            );
        }
        // All three adapt at the same monitor round, so the downtime
        // chain compares like with like.
        let b0 = coarse.breakdown().expect("coarse run must adapt");
        let b1 = flat.breakdown().expect("flat run must adapt");
        let b2 = split.breakdown().expect("split run must adapt");
        assert!((b0.start_s - b1.start_s).abs() < 1e-9, "{b0:?} vs {b1:?}");
        assert!((b1.start_s - b2.start_s).abs() < 1e-9, "{b1:?} vs {b2:?}");
        // The §5 acceptance chain, extended: splitting the Zipf head
        // bounds the worst slice, so per-key p95 downtime drops again —
        // split < flat < coarse, all strict.
        assert!(
            split.downtime_p95_s() < flat.downtime_p95_s(),
            "split p95 {} must beat flat p95 {}",
            split.downtime_p95_s(),
            flat.downtime_p95_s()
        );
        assert!(
            flat.downtime_p95_s() < coarse.downtime_p95_s(),
            "flat p95 {} must beat coarse {}",
            flat.downtime_p95_s(),
            coarse.downtime_p95_s()
        );
        // The worst per-key pause is also no worse than flat's.
        let worst_split = split.timeline.downtime_quantile(1.0).unwrap();
        let worst_flat = flat.timeline.downtime_quantile(1.0).unwrap();
        assert!(
            worst_split <= worst_flat + 1e-9,
            "worst split {worst_split} vs worst flat {worst_flat}"
        );
    }

    #[test]
    fn compaction_bounds_recovery_replay() {
        let bounded = run(&bounded_compaction(), &quick_cfg());
        let unbounded = run(
            &ScenarioSpec::compaction(wasp_state::CompactionPolicy::unbounded(), 48.0),
            &quick_cfg(),
        );
        // Both arms saw the same three scripted failures and modeled a
        // replay for each.
        assert_eq!(bounded.timeline.replays.len(), 3, "{bounded:?}");
        assert_eq!(unbounded.timeline.replays.len(), 3, "{unbounded:?}");
        // The unbounded chain accrues every round since t = 0, so each
        // successive failure replays strictly more.
        let u: Vec<f64> = unbounded
            .timeline
            .replays
            .iter()
            .map(|r| r.replay_s)
            .collect();
        assert!(u.windows(2).all(|w| w[0] < w[1]), "unbounded replays {u:?}");
        // The headline acceptance inequality: compaction-enabled
        // recovery p95 strictly below the unbounded-chain p95.
        assert!(
            bounded.replay_p95_s() < unbounded.replay_p95_s(),
            "bounded p95 {} must beat unbounded p95 {}",
            bounded.replay_p95_s(),
            unbounded.replay_p95_s()
        );
        // The burst is visible: compactions happened, each one's
        // full-snapshot upload completed as a real WAN flight…
        assert!(!bounded.timeline.compactions.is_empty());
        assert!(bounded
            .timeline
            .compactions
            .iter()
            .all(|c| c.end_s.is_some_and(|e| e > c.t_s)));
        // …and bounded: every upload is exactly the live state size,
        // never a multiple of it.
        for c in &bounded.timeline.compactions {
            assert!(
                c.upload_mb <= 48.0 + 1e-9,
                "compaction burst {c:?} exceeds the live state"
            );
            assert_eq!(c.chain_rounds, COMPACTION_EVERY_N_ROUNDS, "{c:?}");
        }
        assert!(
            (bounded.compaction_mb() - 48.0 * bounded.timeline.compactions.len() as f64).abs()
                < 1e-6
        );
        // The control arm never compacts.
        assert!(unbounded.timeline.compactions.is_empty());
        assert_eq!(unbounded.compaction_mb(), 0.0);
        // Bounded recovery stays near one snapshot's worth: base is
        // always the last full snapshot and the chain at failure time
        // is shorter than the cadence.
        for r in &bounded.timeline.replays {
            assert!(r.base_mb > 0.0, "replay {r:?} lost its base snapshot");
            assert!(r.rounds < COMPACTION_EVERY_N_ROUNDS, "replay {r:?}");
        }
    }
}
