//! End-to-end adaptation behaviour: the §8.4/§8.5 claims as
//! assertions.
//!
//! These tests run the actual experiments (at a coarser tick than the
//! figure harness) and check the paper's qualitative results: who
//! wins, what actions fire, and the quality/latency trade-off.

use wasp_workloads::prelude::*;

fn cfg() -> ScenarioConfig {
    ScenarioConfig {
        dt: 0.5,
        ..ScenarioConfig::default()
    }
}

fn late_delay(res: &ExperimentResult, from: f64, to: f64) -> f64 {
    res.metrics
        .delay_quantile_between(from, to, 0.5)
        .unwrap_or(0.0)
}

#[test]
fn section_8_4_no_adapt_suffers_wasp_recovers_degrade_drops() {
    for kind in QueryKind::ALL {
        let noadapt = run(
            &ScenarioSpec::section_8_4(kind, ControllerKind::NoAdapt),
            &cfg(),
        );
        let degrade = run(
            &ScenarioSpec::section_8_4(kind, ControllerKind::Degrade),
            &cfg(),
        );
        let wasp = run(
            &ScenarioSpec::section_8_4(kind, ControllerKind::Wasp),
            &cfg(),
        );

        // No Adapt: delay grows by over an order of magnitude during
        // the constrained phases; no events dropped.
        let na_base = late_delay(&noadapt, 100.0, 300.0);
        let na_worst = noadapt
            .metrics
            .delay_quantile_between(300.0, 1500.0, 0.95)
            .expect("deliveries");
        assert!(
            na_worst > 8.0 * na_base,
            "{}: No Adapt worst {na_worst} vs base {na_base}",
            kind.name()
        );
        assert_eq!(noadapt.metrics.total_dropped(), 0.0);

        // Degrade: delay bounded by the SLO class, but events are
        // lost. Dropping happens at monitor granularity, so the p95
        // can overshoot the 10 s SLO by a drain interval (Top-K
        // measures 12.16 at the default seed) while staying an order
        // of magnitude under No Adapt's worst.
        let dg_worst = degrade
            .metrics
            .delay_quantile_between(300.0, 1500.0, 0.95)
            .expect("deliveries");
        assert!(dg_worst < 15.0, "{}: Degrade p95 {dg_worst}", kind.name());
        assert!(
            dg_worst < na_worst / 2.0,
            "{}: Degrade p95 {dg_worst} vs No Adapt {na_worst}",
            kind.name()
        );
        assert!(
            degrade.metrics.dropped_fraction() > 0.02,
            "{}: Degrade dropped {}",
            kind.name(),
            degrade.metrics.dropped_fraction()
        );

        // WASP: adapts, keeps every event, and ends the run at the
        // baseline delay.
        assert_eq!(wasp.metrics.total_dropped(), 0.0);
        let w_end = late_delay(&wasp, 1300.0, 1500.0);
        let w_base = late_delay(&wasp, 100.0, 300.0);
        assert!(
            w_end < 2.0 * w_base,
            "{}: WASP end delay {w_end} vs base {w_base}",
            kind.name()
        );
        let actions: Vec<&str> = wasp
            .metrics
            .actions()
            .iter()
            .filter(|(_, a)| !a.starts_with("transition") && !a.contains("failed"))
            .map(|(_, a)| a.as_str())
            .collect();
        assert!(!actions.is_empty(), "{}: no adaptations", kind.name());
        // The workload phase is resolved by re-optimization (re-assign
        // or re-plan). Which further actions fire is seed-dependent:
        // at the default seed the audit trail (wasp-report --scenario
        // section_8_4 --seed 4) shows the WAN-aware placements chosen
        // during the workload phase already tolerate the 0.3×
        // bandwidth drop — every post-drop monitor round diagnoses
        // healthy — so demanding a scale-out would require a more
        // expensive action than any diagnosed bottleneck needs. The
        // recovery itself is pinned by the delay/drop assertions
        // above; here we only require that every action taken is a
        // legal Fig. 6 policy action.
        assert!(
            actions.iter().any(|a| *a == "re-assign" || *a == "re-plan"),
            "{}: {actions:?}",
            kind.name()
        );
        const POLICY_ACTIONS: [&str; 5] = [
            "re-assign",
            "re-plan",
            "scale up",
            "scale out",
            "scale down",
        ];
        for a in &actions {
            assert!(
                POLICY_ACTIONS.contains(a) || a.starts_with("emergency"),
                "{}: unknown action {a:?}",
                kind.name()
            );
        }
    }
}

#[test]
fn section_8_4_wasp_beats_baselines_on_quality_and_delay() {
    let degrade = run(
        &ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Degrade),
        &cfg(),
    );
    let wasp = run(
        &ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp),
        &cfg(),
    );
    // Same delay class as Degrade…
    let d95 = wasp
        .metrics
        .delay_quantile_between(700.0, 900.0, 0.95)
        .unwrap();
    assert!(d95 < 12.0, "WASP p95 after adaptation {d95}");
    // …without sacrificing any events.
    assert_eq!(wasp.metrics.total_dropped(), 0.0);
    assert!(degrade.metrics.total_dropped() > 0.0);
}

#[test]
fn section_8_5_scale_wins_and_replan_crosses_reassign() {
    let noadapt = run(&ScenarioSpec::section_8_5(ControllerKind::NoAdapt), &cfg());
    let reassign = run(
        &ScenarioSpec::section_8_5(ControllerKind::ReassignOnly),
        &cfg(),
    );
    let scale = run(
        &ScenarioSpec::section_8_5(ControllerKind::ScaleOnly),
        &cfg(),
    );
    let replan = run(
        &ScenarioSpec::section_8_5(ControllerKind::ReplanOnly),
        &cfg(),
    );

    let p = |r: &ExperimentResult, q: f64| r.metrics.delay_quantile(q).unwrap_or(f64::INFINITY);

    // Every adapting technique beats No Adapt at the 90th percentile.
    for r in [&reassign, &scale, &replan] {
        assert!(
            p(r, 0.9) < p(&noadapt, 0.9),
            "{} p90 {} vs NoAdapt {}",
            r.label,
            p(r, 0.9),
            p(&noadapt, 0.9)
        );
    }
    // Scale has the lowest tail delay (Fig. 10a).
    assert!(p(&scale, 0.93) < p(&reassign, 0.93));
    assert!(p(&scale, 0.93) < p(&replan, 0.93));
    // The paper's crossover: Re-plan matches/beats Re-assign for the
    // majority of events but loses in the tail (the paper saw the
    // crossover at the 93rd percentile; ours sits near the 85th —
    // see EXPERIMENTS.md).
    assert!(
        p(&replan, 0.7) <= p(&reassign, 0.7) + 2.5,
        "bulk: replan {} vs reassign {}",
        p(&replan, 0.7),
        p(&reassign, 0.7)
    );
    assert!(
        p(&replan, 0.93) >= p(&reassign, 0.93),
        "tail: replan {} vs reassign {}",
        p(&replan, 0.93),
        p(&reassign, 0.93)
    );
    // Scale acquires extra slots during the constrained phase and
    // releases them afterwards (Fig. 10c).
    let tasks = scale.metrics.parallelism_series();
    let base = tasks[0].1;
    let peak = tasks.iter().map(|&(_, p)| p).max().unwrap();
    let last = tasks.last().unwrap().1;
    assert!(peak > base, "Scale must acquire tasks");
    assert!(last < peak, "Scale must release tasks after recovery");
    // Re-assign and Re-plan never change the parallelism.
    for r in [&reassign, &replan] {
        let series = r.metrics.parallelism_series();
        assert!(
            series.iter().all(|&(_, p)| p == series[0].1),
            "{} changed parallelism",
            r.label
        );
    }
}

#[test]
fn join_replanner_preserves_stateful_subplan_end_to_end() {
    use wasp_core::prelude::*;
    use wasp_netsim::prelude::*;
    use wasp_streamsim::prelude::*;

    let mut b = TopologyBuilder::new();
    let sites: Vec<SiteId> = (0..4)
        .map(|i| b.add_site(format!("s{i}"), SiteKind::DataCenter, 8))
        .collect();
    let sink = b.add_site("sink", SiteKind::DataCenter, 8);
    b.set_all_links(Mbps(60.0), Millis(20.0));
    let mut net = Network::new(b.build().unwrap());
    net.set_pair_factor(sites[2], sink, FactorSeries::steps(1.0, &[(200.0, 0.02)]));

    let query = JoinQuery::fig5([sites[0], sites[1], sites[2], sites[3]], sink, 0.5);
    let (plan, physical) = query.plan_from_tree(&query.default_tree());
    let mut engine = Engine::new(
        net,
        wasp_netsim::dynamics::DynamicsScript::none(),
        plan,
        physical,
        EngineConfig {
            dt: 0.5,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let mut wasp = WaspController::with_replanner(
        PolicyConfig {
            allow_reassign: false,
            allow_scale: false,
            scale_down: false,
            ..PolicyConfig::default()
        },
        Box::new(JoinOrderReplanner::new(query.clone())),
    );
    run_controlled(&mut engine, &mut wasp, 600.0, 40.0);
    // A re-plan happened…
    assert!(engine
        .metrics()
        .actions()
        .iter()
        .any(|(_, a)| a == "re-plan"));
    // …and the new plan still contains the stateful common sub-plan
    // C ⋈ D.
    let plan = engine.plan();
    assert!(
        plan.op_ids().any(|op| plan.op(op).name() == "join[C,D]"),
        "stateful sub-plan must be preserved"
    );
    // The query keeps delivering after the switch.
    let late: f64 = engine
        .metrics()
        .ticks()
        .iter()
        .filter(|r| r.t > 400.0)
        .map(|r| r.delivered)
        .sum();
    assert!(late > 0.0);
}
