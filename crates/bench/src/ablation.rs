//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! The paper fixes several knobs (§8.2: α = 0.8, 40 s monitoring,
//! 30 s checkpoints, t_max) and argues for each qualitatively; these
//! sweeps quantify the trade-offs on our testbed:
//!
//! * [`ablation_alpha`] — the stability/utilization trade-off of the
//!   bandwidth headroom (§4.1), including the automatic tuner
//!   (the paper's stated future work);
//! * [`ablation_monitor_interval`] — detection latency vs. reaction
//!   noise;
//! * [`ablation_checkpoint_interval`] — failure-recovery redo work
//!   vs. checkpoint frequency (§5);
//! * [`ablation_tmax`] — the migration-time threshold that triggers
//!   scale-out + state partitioning (§6.2, §8.7.2).

use crate::{FigureReport, HarnessConfig, Series};
use wasp_core::policy::PolicyConfig;
use wasp_workloads::prelude::*;

fn first_action_after(metrics: &wasp_streamsim::metrics::RunMetrics, t: f64) -> Option<f64> {
    metrics
        .actions()
        .iter()
        .find(|(at, a)| *at >= t && !a.starts_with("transition") && *a != "failure")
        .map(|&(at, _)| at)
}

fn action_count(metrics: &wasp_streamsim::metrics::RunMetrics) -> usize {
    metrics
        .actions()
        .iter()
        .filter(|(_, a)| !a.starts_with("transition") && *a != "failure" && !a.contains("failed"))
        .count()
}

/// The §8.4 Top-K run under full WASP, labelled by the α in force at
/// its end.
fn alpha_labelled_8_4() -> ScenarioSpec {
    ScenarioSpec {
        label: Label::FinalAlpha,
        ..ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp)
    }
}

/// α sweep on the §8.4 Top-K run, plus the adaptive tuner.
pub fn ablation_alpha(cfg: &HarnessConfig) -> FigureReport {
    let scenario = cfg.scenario();
    let mut report = FigureReport::new_public(
        "ablation-alpha",
        "Bandwidth headroom α: stability vs. utilization (§4.1)",
        "α vs p95 delay (s) / adaptations",
    );
    let mut p95_points = Vec::new();
    let mut action_points = Vec::new();
    for alpha in [0.5, 0.65, 0.8, 0.95] {
        let spec = ScenarioSpec {
            policy: PolicyConfig {
                alpha,
                ..PolicyConfig::default()
            },
            ..alpha_labelled_8_4()
        };
        let res = run(&spec, &scenario);
        let p95 = res.metrics.delay_quantile(0.95).unwrap_or(0.0);
        let actions = action_count(&res.metrics);
        p95_points.push((alpha, p95));
        action_points.push((alpha, actions as f64));
        report.notes.push(format!(
            "α={alpha:.2}: p95 delay {p95:6.1} s, {actions} adaptations, peak tasks {}",
            res.metrics
                .parallelism_series()
                .iter()
                .map(|&(_, p)| p)
                .max()
                .unwrap_or(0)
        ));
    }
    // The automatic tuner (future work implemented).
    let spec = ScenarioSpec {
        adaptive_alpha: true,
        ..alpha_labelled_8_4()
    };
    let res = run(&spec, &scenario);
    report.notes.push(format!(
        "adaptive: p95 delay {:6.1} s, {} adaptations, final α = {:.2}",
        res.metrics.delay_quantile(0.95).unwrap_or(0.0),
        action_count(&res.metrics),
        res.final_alpha.expect("WASP runs with an α")
    ));
    report.series.push(Series::new("p95-delay", p95_points));
    report
        .series
        .push(Series::new("adaptations", action_points));
    report
}

/// Monitoring-interval sweep: detection latency of the t = 300
/// workload spike vs. the interval.
pub fn ablation_monitor_interval(cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new_public(
        "ablation-monitor",
        "Monitoring interval: detection latency vs. noise (§8.2)",
        "interval (s) vs detection latency (s) / p95 delay (s)",
    );
    let mut detect_points = Vec::new();
    let mut p95_points = Vec::new();
    for interval in [10.0, 20.0, 40.0, 80.0, 160.0] {
        let scenario = ScenarioConfig {
            monitor_interval_s: interval,
            ..cfg.scenario()
        };
        let res = run(&alpha_labelled_8_4(), &scenario);
        let detect = first_action_after(&res.metrics, 300.0)
            .map(|t| t - 300.0)
            .unwrap_or(f64::NAN);
        let p95 = res.metrics.delay_quantile(0.95).unwrap_or(0.0);
        detect_points.push((interval, detect));
        p95_points.push((interval, p95));
        report.notes.push(format!(
            "interval {interval:>5.0} s: detection latency {detect:6.1} s, p95 delay {p95:6.1} s, {} adaptations",
            action_count(&res.metrics)
        ));
    }
    report
        .series
        .push(Series::new("detection-latency", detect_points));
    report.series.push(Series::new("p95-delay", p95_points));
    report
}

/// Checkpoint-interval sweep on the §8.6 failure run: longer intervals
/// mean more redo work after the failure (§5).
pub fn ablation_checkpoint_interval(cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new_public(
        "ablation-checkpoint",
        "Checkpoint interval: failure redo work (§5)",
        "interval (s) vs p95 delay after failure (s)",
    );
    let mut p95_points = Vec::new();
    for interval in [10.0, 30.0, 60.0, 120.0] {
        let spec = ScenarioSpec {
            // The live walks without the §8.6 figures' diurnal overlay.
            dynamics: Dynamics::Live { diurnal: false },
            checkpoint_interval_s: interval,
            label: Label::FinalAlpha,
            ..ScenarioSpec::section_8_6(ControllerKind::Wasp)
        };
        let res = run(&spec, &cfg.scenario());
        // Delay over the post-failure catch-up window.
        let p95 = res
            .metrics
            .delay_quantile_between(540.0, 900.0, 0.95)
            .unwrap_or(0.0);
        p95_points.push((interval, p95));
        report.notes.push(format!(
            "checkpoint every {interval:>5.0} s: post-failure p95 {p95:6.1} s, delivered {:5.1}%",
            100.0 * res.metrics.total_delivered()
                / (res.metrics.total_generated() * res.e2e_selectivity)
        ));
    }
    report
        .series
        .push(Series::new("post-failure-p95", p95_points));
    report
}

/// t_max sweep at 256 MB of state: lower thresholds force partitioning
/// earlier (§6.2, §8.7.2).
pub fn ablation_tmax(cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new_public(
        "ablation-tmax",
        "Migration-time threshold t_max at 256 MB state (§6.2)",
        "t_max (s) vs total overhead (s)",
    );
    let mut points = Vec::new();
    for (label, t_max) in [
        ("5", 5.0),
        ("10", 10.0),
        ("30", 30.0),
        ("inf", f64::INFINITY),
    ] {
        let spec = ScenarioSpec::migration(MigrationVariant::Wasp, 256.0, t_max);
        let res = run(&spec, &cfg.scenario());
        let breakdown = res.breakdown();
        let total = breakdown.map(|b| b.total_s()).unwrap_or(0.0);
        points.push((if t_max.is_finite() { t_max } else { 1e3 }, total));
        report.notes.push(format!(
            "t_max {label:>4}: transition {:5.1} s + stabilize {:5.1} s = {total:5.1} s, p95 {:5.1} s",
            breakdown.map(|b| b.transition_s).unwrap_or(0.0),
            breakdown.map(|b| b.stabilize_s).unwrap_or(0.0),
            res.p95_delay_after(STRESS_AT_S)
        ));
    }
    report.series.push(Series::new("total-overhead", points));
    report
}

/// Checkpoint locality: WASP's site-local checkpointing (§5) vs the
/// conventional rendezvous-storage scheme. On the testbed's fast
/// inter-DC links the rendezvous uploads rarely collide with the data
/// path, so the §5 cost shows up as checkpoint *completion*: how many
/// 100 MB snapshot rounds finish their WAN upload before the next
/// round supersedes them (especially during the ×0.3 bandwidth
/// phase).
pub fn ablation_checkpoint_locality(cfg: &HarnessConfig) -> FigureReport {
    use wasp_netsim::dynamics::DynamicsScript;
    use wasp_netsim::testbed::Testbed;
    use wasp_streamsim::engine::{CheckpointTarget, EngineConfig};
    let tb = Testbed::paper(cfg.seed);
    let mut report = FigureReport::new_public(
        "ablation-ckpt-locality",
        "Localized vs rendezvous checkpointing (§5)",
        "scheme vs completed checkpoint rounds",
    );
    // Far rendezvous: São Paulo (the last DC) — checkpoints cross
    // long-haul links.
    let remote_site = *tb.data_centers().last().expect("8 DCs");
    for (label, checkpoints) in [
        ("local (WASP)", Checkpoints::Local),
        ("rendezvous", Checkpoints::Remote(remote_site)),
    ] {
        // The §8.4 run with no controller at all: only where the
        // snapshots go differs.
        let spec = ScenarioSpec {
            checkpoints,
            ..ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::NoAdapt)
        };
        let (mut engine, _) = spec.deploy(&cfg.scenario());
        engine.run(spec.horizon_s);
        let (rounds, superseded) = engine.checkpoint_stats();
        let pending = engine.pending_checkpoint_upload_mb().max(0.0);
        report.notes.push(match checkpoints {
            Checkpoints::Local => format!(
                "{label:<13}: every checkpoint is a local write — zero WAN bytes, zero incomplete rounds"
            ),
            _ => format!(
                "{label:<13}: DC-hosted state: {rounds} upload rounds, {superseded} superseded ({:.0}%), {pending:.0} MB in flight at the end — fast inter-DC links absorb it",
                100.0 * superseded as f64 / rounds.max(1) as f64
            ),
        });
    }
    // The paragraph-5 regime proper: state kept at an *edge* site whose
    // public-Internet uplink (2-10 Mbps) cannot ship 60 MB per 30 s
    // round.
    {
        use wasp_netsim::network::Network;
        use wasp_netsim::site::SiteKind;
        use wasp_netsim::topology::TopologyBuilder;
        use wasp_netsim::units::{Mbps, MegaBytes, Millis};
        use wasp_streamsim::operator::{OperatorKind, OperatorSpec, StateModel};
        use wasp_streamsim::physical::{PhysicalPlan, Placement};
        use wasp_streamsim::plan::LogicalPlanBuilder;
        let mut b = TopologyBuilder::new();
        let edge = b.add_site("edge", SiteKind::Edge, 4);
        let dc = b.add_site("dc", SiteKind::DataCenter, 8);
        b.set_symmetric_link(edge, dc, Mbps(5.0), Millis(40.0));
        let net = Network::new(b.build().expect("valid topology"));
        let mut p = LogicalPlanBuilder::new("edge-agg");
        let src = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: edge,
                base_rate: 5_000.0,
                event_bytes: 20.0,
            },
        ));
        let agg = p.add(
            OperatorSpec::new("agg", OperatorKind::WindowAggregate { window_s: 10.0 })
                .with_selectivity(0.01)
                .with_state(StateModel::Fixed(MegaBytes(60.0))),
        );
        let sink = p.add(OperatorSpec::new(
            "sink",
            OperatorKind::Sink { site: Some(dc) },
        ));
        p.connect(src, agg);
        p.connect(agg, sink);
        let plan = p.build().expect("valid plan");
        let mut physical = PhysicalPlan::initial(&plan, dc);
        physical.set_placement(agg, Placement::single(edge, 1));
        let engine_cfg = EngineConfig {
            dt: cfg.dt,
            checkpoint_target: CheckpointTarget::Remote(dc),
            ..EngineConfig::default()
        };
        let mut engine = wasp_streamsim::engine::Engine::new(
            net,
            DynamicsScript::none(),
            plan,
            physical,
            engine_cfg,
        )
        .expect("valid deployment");
        engine.run(600.0);
        let (rounds, superseded) = engine.checkpoint_stats();
        report.notes.push(format!(
            "rendezvous, edge-hosted 60 MB state over a 5 Mbps uplink: {superseded} of {rounds} rounds superseded ({:.0}%) — no usable remote snapshot; localized checkpointing is the only workable scheme (the paper's argument in section 5)",
            100.0 * superseded as f64 / rounds.max(1) as f64
        ));
    }
    report
}

/// All ablations.
pub fn all_ablations(cfg: &HarnessConfig) -> Vec<FigureReport> {
    vec![
        ablation_alpha(cfg),
        ablation_monitor_interval(cfg),
        ablation_checkpoint_interval(cfg),
        ablation_checkpoint_locality(cfg),
        ablation_tmax(cfg),
    ]
}
