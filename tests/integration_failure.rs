//! Failure recovery (§8.6) and migration overhead (§8.7) end-to-end.

use wasp_workloads::prelude::*;

fn cfg() -> ScenarioConfig {
    ScenarioConfig {
        dt: 0.5,
        ..ScenarioConfig::default()
    }
}

fn migration(variant: MigrationVariant, state_mb: f64, t_max_s: f64) -> ExperimentResult {
    run(&ScenarioSpec::migration(variant, state_mb, t_max_s), &cfg())
}

#[test]
fn live_run_wasp_survives_failure_without_loss() {
    let wasp = run(&ScenarioSpec::section_8_6(ControllerKind::Wasp), &cfg());
    let m = &wasp.metrics;
    // Nothing dropped despite failure + dynamics.
    assert_eq!(m.total_dropped(), 0.0);
    // Nearly everything generated is delivered by the end of the run.
    let ratio = m.total_delivered() / (m.total_generated() * wasp.e2e_selectivity);
    assert!(ratio > 0.9, "delivered ratio {ratio}");
    // Delay returns to the healthy level after the post-failure
    // catch-up.
    let end = m.delay_quantile_between(1500.0, 1800.0, 0.95).unwrap();
    assert!(end < 10.0, "end-of-run p95 {end}");
    // The failure annotation exists and adaptation followed it.
    let failure_t = m
        .actions()
        .iter()
        .find(|(_, a)| a == "failure")
        .map(|&(t, _)| t)
        .expect("failure recorded");
    assert!(m
        .actions()
        .iter()
        .any(|(t, a)| *t > failure_t && (a.contains("scale") || a.contains("re-"))));
}

#[test]
fn live_run_baselines_show_the_tradeoff() {
    let noadapt = run(&ScenarioSpec::section_8_6(ControllerKind::NoAdapt), &cfg());
    let degrade = run(&ScenarioSpec::section_8_6(ControllerKind::Degrade), &cfg());
    let wasp = run(&ScenarioSpec::section_8_6(ControllerKind::Wasp), &cfg());
    // No Adapt accumulates enormous delays after the failure.
    let na = noadapt
        .metrics
        .delay_quantile_between(900.0, 1800.0, 0.5)
        .unwrap();
    assert!(na > 100.0, "No Adapt median late delay {na}");
    // Degrade keeps delay low by sacrificing a significant share of
    // events (the paper saw up to ~24%).
    let dg = degrade
        .metrics
        .delay_quantile_between(900.0, 1800.0, 0.95)
        .unwrap();
    assert!(dg < 12.0, "Degrade p95 {dg}");
    assert!(
        degrade.metrics.dropped_fraction() > 0.05,
        "Degrade dropped {}",
        degrade.metrics.dropped_fraction()
    );
    // WASP scales out after the failure; depending on the live
    // bandwidth walk it may keep or release the extra tasks by the end
    // of the run (the §8.4 script exercises the guaranteed
    // scale-down).
    let tasks = wasp.metrics.parallelism_series();
    let base = tasks[0].1;
    let peak = tasks.iter().map(|&(_, p)| p).max().unwrap();
    let last = tasks.last().unwrap().1;
    assert!(
        peak > base && last <= peak,
        "base {base} peak {peak} last {last}"
    );
}

#[test]
fn migration_strategies_order_as_in_fig13() {
    let wasp = migration(MigrationVariant::Wasp, 60.0, f64::INFINITY);
    let distant = migration(MigrationVariant::Distant, 60.0, f64::INFINITY);
    let nomig = migration(MigrationVariant::NoMigrate, 60.0, f64::INFINITY);

    let bw = wasp.breakdown().expect("WASP adapts");
    let bd = distant.breakdown().expect("Distant adapts");
    let bn = nomig.breakdown().expect("NoMigrate adapts");
    // No Migrate has (near) zero state-transfer time but abandons
    // state.
    assert!(bn.transition_s <= bw.transition_s);
    assert!(nomig.lost_state_mb() >= 60.0);
    assert_eq!(wasp.lost_state_mb(), 0.0);
    // Network-aware migration beats the distant strawman decisively.
    assert!(
        bd.transition_s > 2.0 * bw.transition_s,
        "distant {bd:?} vs wasp {bw:?}"
    );
    assert!(distant.p95_delay_after(STRESS_AT_S) > wasp.p95_delay_after(STRESS_AT_S));
}

#[test]
fn state_partitioning_reduces_overhead_for_large_state() {
    // §8.7.2: for large state, forcing scale-out + partitioning when
    // the estimated transition exceeds the threshold cuts the overall
    // overhead. (Threshold per wasp-bench::FIG14_T_MAX_S.)
    let default = migration(MigrationVariant::Wasp, 256.0, f64::INFINITY);
    let partitioned = migration(MigrationVariant::Wasp, 256.0, 10.0);
    let bd = default.breakdown().expect("adapts");
    let bp = partitioned.breakdown().expect("adapts");
    assert!(
        bp.total_s() < bd.total_s(),
        "partitioned {bp:?} vs default {bd:?}"
    );
    assert!(
        partitioned.p95_delay_after(STRESS_AT_S) <= default.p95_delay_after(STRESS_AT_S) + 1e-9
    );
}

#[test]
fn small_state_is_unaffected_by_partitioning() {
    let default = migration(MigrationVariant::Wasp, 32.0, f64::INFINITY);
    let partitioned = migration(MigrationVariant::Wasp, 32.0, 10.0);
    let bd = default.breakdown().expect("adapts");
    let bp = partitioned.breakdown().expect("adapts");
    // Below the threshold both behave identically.
    assert!((bd.transition_s - bp.transition_s).abs() < 1.0);
}

#[test]
fn migration_overhead_grows_with_state_size() {
    let mut prev_total = 0.0;
    for mb in [0.0, 128.0, 512.0] {
        let res = migration(MigrationVariant::Wasp, mb, f64::INFINITY);
        let b = res.breakdown().expect("adapts");
        assert!(
            b.transition_s + 1e-9 >= prev_total,
            "{mb} MB transition {} < previous {prev_total}",
            b.transition_s
        );
        prev_total = b.transition_s;
    }
}
