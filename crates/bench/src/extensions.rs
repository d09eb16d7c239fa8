//! Extension experiments — dynamics the paper names but does not
//! evaluate in a dedicated figure.
//!
//! * [`ext_straggler`] — a straggler node (§1 lists stragglers among
//!   the targeted dynamics): the bottleneck stage's host loses 75 % of
//!   its compute speed mid-run;
//! * [`ext_multi_tenant`] — two queries co-scheduled over one WAN
//!   (§2.1, §3.2): one tenant's workload spike squeezes the other's
//!   links, both adapt independently;
//! * [`ext_periodic_replan`] — long-term dynamics (§6.2): a healthy
//!   but stale deployment improved by background re-planning.

use crate::{FigureReport, HarnessConfig, Series};
use wasp_core::controller::{run_controlled, WaspController};
use wasp_core::policy::PolicyConfig;
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::prelude::*;
use wasp_streamsim::prelude::*;
use wasp_workloads::prelude::*;

fn engine_cfg(cfg: &HarnessConfig) -> EngineConfig {
    EngineConfig {
        dt: cfg.dt,
        ..EngineConfig::default()
    }
}

/// Straggler experiment: the site hosting the Top-K pipeline's filter
/// drops to 25 % compute speed at t = 200; restored at t = 700.
pub fn ext_straggler(cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new_public(
        "ext-straggler",
        "Straggler at the bottleneck stage's host (extension)",
        "time (s) vs delay (s, log)",
    );
    let filter = Stage::Named("filter-geo");
    let straggler = |controller| {
        let speed = FactorSeries::steps(1.0, &[(200.0, 0.25), (700.0, 1.0)]);
        let dynamics = Dynamics::Straggler {
            stage: filter,
            speed,
        };
        ScenarioSpec::new("straggler", QueryKind::TopK, dynamics, controller, 1000.0)
    };
    let host = straggler(ControllerKind::NoAdapt).stage_host(filter, cfg.seed);
    report.notes.push(format!(
        "straggler at {host}: compute ×0.25 during t = 200–700"
    ));
    for controller in [ControllerKind::NoAdapt, ControllerKind::Wasp] {
        let res = run(&straggler(controller), &cfg.scenario());
        let m = &res.metrics;
        report
            .series
            .push(Series::new(&res.label, m.delay_series(cfg.bucket_s)));
        for (t, a) in m.actions() {
            if !a.starts_with("transition") {
                report.notes.push(format!("{}: {a} at t={t:.0}", res.label));
            }
        }
    }
    report
}

/// Multi-tenant experiment: a steady Top-K tenant and an
/// Events-of-Interest tenant whose workload quadruples at t = 300,
/// coupled over one WAN; both run WASP.
pub fn ext_multi_tenant(cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new_public(
        "ext-multitenant",
        "Two coupled tenants on one WAN (extension)",
        "time (s) vs delay (s, log)",
    );
    let tb = Testbed::paper(cfg.seed);
    let mut cluster = CoupledCluster::new();
    let (a, _) = build_engine(
        QueryKind::TopK,
        &tb,
        DynamicsScript::none(),
        engine_cfg(cfg),
    );
    cluster.add_tenant(
        "topk",
        a,
        Box::new(WaspController::new(PolicyConfig::default())),
    );
    let script =
        DynamicsScript::none().with_global_workload(FactorSeries::steps(1.0, &[(300.0, 4.0)]));
    let (b, _) = build_engine(QueryKind::EventsOfInterest, &tb, script, engine_cfg(cfg));
    cluster.add_tenant(
        "interest",
        b,
        Box::new(WaspController::new(PolicyConfig::default())),
    );
    cluster.run(900.0);
    for tenant in cluster.into_tenants() {
        let m = tenant.engine.metrics();
        report
            .series
            .push(Series::new(&tenant.name, m.delay_series(cfg.bucket_s)));
        for (t, a) in m.actions() {
            if !a.starts_with("transition") {
                report
                    .notes
                    .push(format!("{}: {a} at t={t:.0}", tenant.name));
            }
        }
    }
    report
        .notes
        .push("tenant 'interest' workload ×4 at t = 300; links shared with 'topk'".into());
    report
}

/// Periodic background re-planning: a healthy-but-stale deployment on
/// the live testbed, with and without the §6.2 long-term-dynamics
/// handling.
pub fn ext_periodic_replan(cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new_public(
        "ext-periodic",
        "Periodic background re-planning for long-term dynamics (extension)",
        "variant vs actions / final placement",
    );
    // A slow drift: the links into the filter's initial host decay to
    // 60 % — not enough to trip any bottleneck check, but enough that
    // a better placement exists.
    let drift = Dynamics::InboundDegrade {
        stage: Stage::Named("filter-geo"),
        at_s: 100.0,
        factor: 0.6,
    };
    let spec = ScenarioSpec::new(
        "periodic",
        QueryKind::TopK,
        drift,
        ControllerKind::Wasp,
        800.0,
    );
    for (label, periodic) in [("reactive only", false), ("with periodic re-plan", true)] {
        // Driven by hand: the background re-plan period is a
        // controller knob the spec does not carry, and the figure
        // reads the final placement off the engine.
        let (mut engine, _) = spec.deploy(&cfg.scenario());
        let plan = engine.plan();
        let filter = plan
            .op_ids()
            .find(|&op| plan.op(op).name() == "filter-geo")
            .expect("filter exists");
        let host = engine.physical().placement(filter).sites()[0];
        let mut ctrl = WaspController::new(PolicyConfig::default());
        if periodic {
            ctrl = ctrl.with_periodic_replan(200.0);
        }
        run_controlled(&mut engine, &mut ctrl, spec.horizon_s, 40.0);
        let final_host = engine.physical().placement(filter).sites();
        let actions: Vec<String> = engine
            .metrics()
            .actions()
            .iter()
            .filter(|(_, a)| !a.starts_with("transition"))
            .map(|(t, a)| format!("{a}@{t:.0}"))
            .collect();
        report.notes.push(format!(
            "{label:<22}: filter ends at {final_host:?} (started at {host}); actions: {actions:?}"
        ));
    }
    report
}

/// All extension experiments.
pub fn all_extensions(cfg: &HarnessConfig) -> Vec<FigureReport> {
    vec![
        ext_straggler(cfg),
        ext_multi_tenant(cfg),
        ext_periodic_replan(cfg),
    ]
}
