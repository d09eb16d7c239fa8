//! Scenario set-up and the controlled run loop.
//!
//! Each scenario is assembled from stable public pieces — the paper
//! testbed, a dynamics script, a Table 3 query, the WAN-aware initial
//! deployment, `Engine::new` and a controller — and driven by a copy of
//! `run_controlled` written in terms of `Engine::step`, so that the
//! tracer can time every step and every monitoring round from outside
//! the program. At dt 0.25 the recordings are byte-identical to the
//! workloads crate's scenario runners for the same seed.

use std::time::Instant;
use wasp_core::controller::{Controller, NoAdaptController, WaspController};
use wasp_core::policy::PolicyConfig;
use wasp_metrics::MetricsHub;
use wasp_netsim::dynamics::{DynamicsScript, Failure};
use wasp_netsim::site::SiteId;
use wasp_netsim::testbed::Testbed;
use wasp_netsim::trace::FactorSeries;
use wasp_netsim::units::{MegaBytes, SimTime};
use wasp_state::{CompactionPolicy, PartitionConfig, StateModel};
use wasp_streamsim::engine::{CheckpointTarget, Engine, EngineConfig};
use wasp_streamsim::operator::StateModel as OpState;
use wasp_streamsim::physical::PhysicalPlan;
use wasp_streamsim::plan::{LogicalPlan, LogicalPlanBuilder};
use wasp_telemetry::{RecordingHandle, SpanId, Telemetry};
use wasp_workloads::deploy::initial_deployment;
use wasp_workloads::queries::QueryKind;
use wasp_workloads::twitter::TwitterTrace;

/// Simulation tick of every run.
pub const DT: f64 = 0.25;
/// Monitoring interval (the paper used 40 s).
const MONITOR_INTERVAL_S: f64 = 40.0;
/// Bandwidth-utilization threshold of the initial deployment.
const DEPLOY_ALPHA: f64 = 0.8;
/// X-ray reporting window of the observed workload.
const XRAY_WINDOW_S: f64 = 300.0;
/// Metrics-hub scrape interval of the observed workload.
const METRICS_SCRAPE_S: f64 = 10.0;
/// Split threshold of the skewed-split run: the 16-partition Zipf head
/// weighs ~0.30, so 0.15 forces two splits of the head.
const SPLIT_THRESHOLD: f64 = 0.15;
/// Compaction cadence of the delta-chain run.
const COMPACT_EVERY_N_ROUNDS: u32 = 4;

/// One scenario run of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// §8.4: rate 10k→20k→10k ev/s at t = 300/600, bandwidth ×0.5 over
    /// 900–1200 s; 1500 s under full WASP.
    Section84(QueryKind),
    /// §8.5: Top-K under rate ×{1,2,2,1,1} and bandwidth ×{1,1,.5,.5,1}
    /// per 300 s; 1500 s under full WASP.
    Section85,
    /// §8.6: per-source rate walks with the Twitter diurnal pattern, a
    /// bandwidth walk and a full failure at t = 540; 1800 s under WASP.
    Section86,
    /// Partitioned Top-K state (60 MB, split threshold 0.15) whose
    /// host's inbound links drop ×0.01 at t = 150; 500 s under WASP with
    /// the pause gate off.
    SkewedSplit,
    /// Partitioned Top-K state (48 MB) with delta chains compacted every
    /// 4 rounds, remote checkpoints every 15 s and three failures of the
    /// stage's host; 600 s without adaptation.
    Compaction,
}

/// Which observability layers a run switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observe {
    pub xray: bool,
    pub metrics: bool,
    pub telemetry: bool,
}

impl Observe {
    pub const OFF: Observe = Observe {
        xray: false,
        metrics: false,
        telemetry: false,
    };
    pub const ALL: Observe = Observe {
        xray: true,
        metrics: true,
        telemetry: true,
    };
}

/// A deployed scenario, ready to run.
pub struct Built {
    pub engine: Engine,
    pub controller: Box<dyn Controller>,
    pub duration_s: f64,
    /// The plan's own end-to-end selectivity, for the delivered ratio.
    pub e2e_selectivity: f64,
    /// The recording sink, when telemetry is on.
    pub recording: Option<RecordingHandle>,
    /// Set-up phase boundaries: start, inputs built (testbed, network,
    /// dynamics), query deployed, engine and controller constructed.
    pub marks: [Instant; 4],
    tel: Telemetry,
    root: Option<SpanId>,
}

impl Scenario {
    /// Short name, used in span names and error messages.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::Section84(QueryKind::Advertising) => "section_8_4_advertising",
            Scenario::Section84(_) => "section_8_4_topk",
            Scenario::Section85 => "section_8_5_topk",
            Scenario::Section86 => "section_8_6_live",
            Scenario::SkewedSplit => "skewed_split_topk",
            Scenario::Compaction => "compaction_topk",
        }
    }

    fn query(self) -> QueryKind {
        match self {
            Scenario::Section84(kind) => kind,
            _ => QueryKind::TopK,
        }
    }

    /// Builds the scenario for `seed`. `ctrl_tel` is handed to the
    /// controller when the run's own telemetry is off (the tracer's
    /// host-clock sink); it must not influence the simulation.
    pub fn build(self, seed: u64, obs: Observe, ctrl_tel: Telemetry) -> Built {
        let start = Instant::now();
        let tb = Testbed::paper(seed);
        let sink = tb.data_centers()[0];
        let mut net = tb.static_network();
        let mut script = match self {
            Scenario::Section84(_) => DynamicsScript::section_8_4(),
            Scenario::Section85 => DynamicsScript::section_8_5(),
            Scenario::Section86 => live_script(&tb, seed),
            Scenario::SkewedSplit | Scenario::Compaction => DynamicsScript::none(),
        };
        let inputs = Instant::now();

        let mut plan = self.query().build_default(tb.edges(), sink);
        let state_mb = match self {
            Scenario::SkewedSplit => Some(60.0),
            Scenario::Compaction => Some(48.0),
            _ => None,
        };
        if let Some(mb) = state_mb {
            plan = with_state_mb(&plan, mb);
        }
        let physical = initial_deployment(&plan, &net, DEPLOY_ALPHA)
            .unwrap_or_else(|_| PhysicalPlan::initial(&plan, sink));
        let e2e_selectivity = plan.end_to_end_selectivity();
        let mut engine_cfg = EngineConfig {
            dt: DT,
            ..EngineConfig::default()
        };
        let mut policy = PolicyConfig::default();
        match self {
            Scenario::SkewedSplit => {
                // The stage's host loses its inbound links at t = 150,
                // so the monitor must move the stage.
                let host = stateful_host(&plan, &physical);
                let sites: Vec<SiteId> = net.topology().site_ids().collect();
                for site in sites.into_iter().filter(|&s| s != host) {
                    net.set_pair_factor(site, host, FactorSeries::steps(1.0, &[(150.0, 0.01)]));
                }
                let state =
                    StateModel::Partitioned(PartitionConfig::with_split_threshold(SPLIT_THRESHOLD));
                engine_cfg.state_model = state;
                policy = PolicyConfig {
                    t_max_s: 1e9,
                    allow_replan: false,
                    scale_down: false,
                    state,
                    ..PolicyConfig::default()
                };
            }
            Scenario::Compaction => {
                // Snapshots rendezvous at another data center, so
                // checkpoint rounds and compactions are WAN flights.
                let host = stateful_host(&plan, &physical);
                let target = tb
                    .data_centers()
                    .iter()
                    .copied()
                    .find(|&s| s != host)
                    .unwrap_or(sink);
                for at in [150.0, 300.0, 450.0] {
                    script = script.with_failure(Failure {
                        at: SimTime(at),
                        restore_after: 20.0,
                        site: Some(host),
                    });
                }
                engine_cfg.state_model = StateModel::Partitioned(PartitionConfig::with_compaction(
                    CompactionPolicy::every_n_rounds(COMPACT_EVERY_N_ROUNDS),
                ));
                engine_cfg.checkpoint_interval_s = 15.0;
                engine_cfg.checkpoint_target = CheckpointTarget::Remote(target);
            }
            _ => {}
        }
        let deployed = Instant::now();

        let mut engine = Engine::new(net, script, plan, physical, engine_cfg)
            .expect("the initial deployment is valid for its own testbed");
        let (tel, recording) = if obs.telemetry {
            let (tel, handle) = Telemetry::recording();
            (tel, Some(handle))
        } else {
            (Telemetry::disabled(), None)
        };
        let hub = if obs.metrics {
            MetricsHub::recording(METRICS_SCRAPE_S)
        } else {
            MetricsHub::disabled()
        };
        engine.set_telemetry(tel.clone());
        if obs.xray {
            engine.enable_xray(XRAY_WINDOW_S);
        }
        engine.set_metrics(hub.clone());
        let root = tel.span_begin(0.0, &format!("scenario:{} seed={seed}", self.name()));
        let controller: Box<dyn Controller> = match self {
            Scenario::Compaction => Box::new(NoAdaptController),
            _ => Box::new(
                WaspController::new(policy)
                    .with_telemetry(if obs.telemetry { tel.clone() } else { ctrl_tel })
                    .with_metrics(hub),
            ),
        };
        let duration_s = match self {
            Scenario::Section84(_) | Scenario::Section85 => 1500.0,
            Scenario::Section86 => 1800.0,
            Scenario::SkewedSplit => 500.0,
            Scenario::Compaction => 600.0,
        };
        Built {
            engine,
            controller,
            duration_s,
            e2e_selectivity,
            recording,
            marks: [start, inputs, deployed, Instant::now()],
            tel,
            root,
        }
    }
}

/// The §8.6 dynamics: the live walks plus the Twitter diurnal factor of
/// each source's country, sampled every 30 s.
fn live_script(tb: &Testbed, seed: u64) -> DynamicsScript {
    let mut script = DynamicsScript::section_8_6(tb.edges(), 1800.0, seed);
    let trace = TwitterTrace {
        seed,
        ..TwitterTrace::default()
    };
    for (c, &site) in tb.edges().iter().enumerate() {
        let samples: Vec<f64> = (0..60)
            .map(|i| trace.diurnal_factor(c, i as f64 * 30.0))
            .collect();
        script = script.with_workload(site, FactorSeries::from_samples(30.0, samples));
    }
    script
}

/// The site hosting the plan's (single) stateful stage.
fn stateful_host(plan: &LogicalPlan, physical: &PhysicalPlan) -> SiteId {
    physical.placement(plan.stateful_ops()[0]).sites()[0]
}

/// Rebuilds `plan` with its fixed-size state stage resized to `mb`.
fn with_state_mb(plan: &LogicalPlan, mb: f64) -> LogicalPlan {
    let mut b = LogicalPlanBuilder::new(plan.name().to_string());
    for op in plan.op_ids() {
        let mut spec = plan.op(op).clone();
        if matches!(spec.state(), OpState::Fixed(_)) {
            spec = spec.with_state(OpState::Fixed(MegaBytes(mb)));
        }
        b.add(spec);
    }
    for op in plan.op_ids() {
        for &d in plan.downstream(op) {
            b.connect(op, d);
        }
    }
    b.build().expect("the rebuilt plan has the original shape")
}

/// What the run loop calls for each tick and each monitoring round; the
/// tracer wraps both calls in timers.
pub trait Hooks {
    fn step(&mut self, engine: &mut Engine);
    fn round(&mut self, engine: &mut Engine, controller: &mut dyn Controller);
}

/// The untraced loop: no timers inside the run.
pub struct Plain;

impl Hooks for Plain {
    #[inline]
    fn step(&mut self, engine: &mut Engine) {
        engine.step();
    }

    #[inline]
    fn round(&mut self, engine: &mut Engine, controller: &mut dyn Controller) {
        controller.on_monitor(engine);
    }
}

impl Built {
    /// Runs the scenario to its horizon with a monitoring round every
    /// 40 simulated seconds. Step counts per chunk follow `Engine::run`
    /// (round to nearest, halves down), so the ticks match
    /// `run_controlled` exactly.
    pub fn run(&mut self, hooks: &mut impl Hooks) {
        let engine = &mut self.engine;
        let end = engine.now().secs() + self.duration_s;
        while engine.now().secs() < end - 1e-9 {
            let chunk = MONITOR_INTERVAL_S.min(end - engine.now().secs());
            let steps = ((chunk / DT) - 0.5).ceil().max(0.0) as u64;
            for _ in 0..steps {
                hooks.step(engine);
            }
            if engine.now().secs() < end - 1e-9 {
                hooks.round(engine, self.controller.as_mut());
            }
        }
        self.tel.span_end(engine.now().secs(), self.root.take());
    }
}
