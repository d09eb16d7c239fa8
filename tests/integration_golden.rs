//! Cross-commit output golden: pinned digests of the simulated output.
//!
//! The differential suite compares configurations of one build with
//! each other (disabled features, repeated runs). This test compares a
//! build with its *history*: each case serializes a seed-4, dt-0.25
//! recording (`RunMetrics`) to JSON and checks its FNV-1a-64 digest
//! against a constant recorded before the engine's hot path was last
//! reworked. The transition cases also pin the x-ray attribution
//! (`XrayRun`) of the same run, and were recorded before the engine's
//! redeploy and plan-switch paths were merged into one. A performance change that moves any simulated number by
//! even one ulp changes the JSON (serde_json prints shortest
//! round-trip floats) and trips the matching case.
//!
//! When a change is *meant* to alter the simulation, re-record the
//! constants (the failure message prints the new digest) and say so in
//! the change log.

use wasp_state::CompactionPolicy;
use wasp_streamsim::metrics::RunMetrics;
use wasp_workloads::queries::QueryKind;
use wasp_workloads::scenarios::{
    run, ControllerKind, MigrationVariant, ScenarioConfig, ScenarioSpec,
};
use wasp_xray::XrayRun;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn cfg() -> ScenarioConfig {
    ScenarioConfig {
        seed: 4,
        dt: 0.25,
        ..ScenarioConfig::default()
    }
}

fn assert_digest(case: &str, metrics: &RunMetrics, expected: u64) {
    let json = serde_json::to_string(metrics).expect("RunMetrics serializes");
    let got = fnv1a64(json.as_bytes());
    assert_eq!(
        got,
        expected,
        "{case}: recording digest {got:#018x} differs from the pinned {expected:#018x} \
         ({} JSON bytes) — the simulated output moved",
        json.len()
    );
}

#[test]
fn section_8_4_topk_output_is_pinned() {
    let r = run(
        &ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp),
        &cfg(),
    );
    assert_digest("§8.4 Top-K", &r.metrics, 0x0cdf_0f0a_2af3_e389);
}

#[test]
fn section_8_4_ysb_output_is_pinned() {
    let r = run(
        &ScenarioSpec::section_8_4(QueryKind::Advertising, ControllerKind::Wasp),
        &cfg(),
    );
    assert_digest("§8.4 YSB", &r.metrics, 0x9187_16ab_171a_b686);
}

#[test]
fn section_8_5_output_is_pinned() {
    let r = run(&ScenarioSpec::section_8_5(ControllerKind::Wasp), &cfg());
    assert_digest("§8.5", &r.metrics, 0xbe43_71b8_dcbf_8c9c);
}

#[test]
fn section_8_6_output_is_pinned() {
    let r = run(&ScenarioSpec::section_8_6(ControllerKind::Wasp), &cfg());
    assert_digest("§8.6", &r.metrics, 0xbef1_2071_575e_09f3);
}

#[test]
fn skewed_split_output_is_pinned() {
    let r = run(&ScenarioSpec::skewed_split(60.0), &cfg());
    assert_digest("skewed split (60 MB)", &r.metrics, 0x52ca_2248_7e20_2717);
}

#[test]
fn compaction_output_is_pinned() {
    let r = run(
        &ScenarioSpec::compaction(CompactionPolicy::every_n_rounds(4), 48.0),
        &cfg(),
    );
    assert_digest(
        "compaction (every 4 rounds, 48 MB)",
        &r.metrics,
        0x1371_a6f6_74c7_e5b8,
    );
}

// ----- transition paths -------------------------------------------------
//
// The cases above apply only re-assign and scale commands. The three
// below pin the other transition paths: a whole-query plan switch, a
// redeploy that abandons state, and a migration aborted by a failure
// mid-transfer. Each pins the `RunMetrics` digest of the plain run
// and the `XrayRun` digest of the same run with x-ray on, so the
// ledgers carried across the transition are pinned too.

/// Pins the plain recording, and the attribution of the run observed
/// with x-ray (whose recording must equal the plain one).
fn assert_transition_digests(
    case: &str,
    plain: &RunMetrics,
    observed: (&RunMetrics, Option<XrayRun>),
    metrics: u64,
    xray: u64,
) {
    assert_digest(case, plain, metrics);
    assert_digest(&format!("{case} (x-ray on)"), observed.0, metrics);
    let x = observed.1.expect("x-ray was enabled");
    let err = x.conservation_error();
    assert!(err <= 1e-6, "{case}: x-ray conservation off by {err:.3e}");
    let json = serde_json::to_string(&x).expect("XrayRun serializes");
    let got = fnv1a64(json.as_bytes());
    assert_eq!(
        got,
        xray,
        "{case}: x-ray digest {got:#018x} differs from the pinned {xray:#018x} \
         ({} JSON bytes) — the attribution moved",
        json.len()
    );
}

fn xray_cfg() -> ScenarioConfig {
    ScenarioConfig {
        xray: Some(300.0),
        ..cfg()
    }
}

#[test]
fn section_8_5_replan_output_is_pinned() {
    let spec = ScenarioSpec::section_8_5(ControllerKind::ReplanOnly);
    let plain = run(&spec, &cfg());
    assert!(
        plain.metrics.actions().iter().any(|(_, l)| l == "re-plan"),
        "the re-plan controller must switch plans at seed 4"
    );
    let observed = run(&spec, &xray_cfg());
    assert_transition_digests(
        "§8.5 re-plan",
        &plain.metrics,
        (&observed.metrics, observed.xray),
        0x2df1_1fc5_adbb_cb49,
        0x0ffa_b7c5_54a7_968d,
    );
}

#[test]
fn migration_without_state_output_is_pinned() {
    let spec = ScenarioSpec::migration(MigrationVariant::NoMigrate, 60.0, f64::INFINITY);
    let plain = run(&spec, &cfg());
    assert!(
        plain.lost_state_mb() > 0.0,
        "the no-migrate run must redeploy without its state"
    );
    let observed = run(&spec, &xray_cfg());
    assert_transition_digests(
        "migration, no state",
        &plain.metrics,
        (&observed.metrics, observed.xray),
        0x1d9e_3f03_917a_a189,
        0x2d6e_ee3f_af15_04e8,
    );
}

/// One chaos campaign (see `crates/core/tests/chaos.rs`): an edge
/// source and three data centres fully connected at 50 Mbps, seeded
/// crashes, flaps, blackouts and stragglers on the data centres, and
/// WASP adapting every 40 s for 900 s.
fn chaos_run(seed: u64, xray: Option<f64>) -> (RunMetrics, Option<XrayRun>) {
    use wasp_core::prelude::{run_controlled, PolicyConfig, WaspController};
    use wasp_core::test_util::linear_plan;
    use wasp_netsim::chaos::{ChaosConfig, ChaosInjector};
    use wasp_netsim::dynamics::DynamicsScript;
    use wasp_netsim::network::Network;
    use wasp_netsim::site::SiteKind;
    use wasp_netsim::topology::TopologyBuilder;
    use wasp_netsim::units::{Mbps, Millis};
    use wasp_streamsim::engine::{Engine, EngineConfig};
    use wasp_streamsim::physical::PhysicalPlan;

    let mut b = TopologyBuilder::new();
    let edge = b.add_site("edge", SiteKind::Edge, 4);
    let dcs: Vec<_> = (1..=3)
        .map(|i| b.add_site(format!("dc{i}"), SiteKind::DataCenter, 8))
        .collect();
    b.set_all_links(Mbps(50.0), Millis(20.0));
    let net = Network::new(b.build().unwrap());
    let mut links: Vec<_> = dcs.iter().map(|&d| (edge, d)).collect();
    for &a in &dcs {
        links.extend(dcs.iter().filter(|&&b| b != a).map(|&b| (a, b)));
    }
    let (script, _) = ChaosInjector::with_config(seed, ChaosConfig::full(900.0)).compile(
        DynamicsScript::none(),
        &dcs,
        &links,
    );
    let plan = linear_plan(edge, 1000.0, 400.0, 0.5);
    let physical = PhysicalPlan::initial(&plan, dcs[0]);
    let mut engine = Engine::new(net, script, plan, physical, EngineConfig::default()).unwrap();
    if let Some(w) = xray {
        engine.enable_xray(w);
    }
    let mut wasp = WaspController::new(PolicyConfig::default());
    run_controlled(&mut engine, &mut wasp, 900.0, 40.0);
    let x = engine.take_xray();
    (engine.into_metrics(), x)
}

#[test]
fn chaos_migration_abort_output_is_pinned() {
    // The chaos campaigns' own seeds (0–19, 100–109) abort nothing;
    // this one aborts one of its four transitions.
    const SEED: u64 = 1411;
    let (plain, _) = chaos_run(SEED, None);
    assert!(
        plain.actions().iter().any(|(_, l)| l == "transition-abort"),
        "chaos seed {SEED} must abort a migration"
    );
    let (observed, x) = chaos_run(SEED, Some(300.0));
    assert_transition_digests(
        "chaos abort",
        &plain,
        (&observed, x),
        0xa302_93d3_1e19_5700,
        0x733f_c03a_ace7_aee6,
    );
}
