//! Cross-commit output golden: pinned digests of the simulated output.
//!
//! The differential suite compares configurations of one build with
//! each other (disabled features, repeated runs). This test compares a
//! build with its *history*: each case serializes a seed-4, dt-0.25
//! recording (`RunMetrics`) to JSON and checks its FNV-1a-64 digest
//! against a constant recorded before the engine's hot path was last
//! reworked. A performance change that moves any simulated number by
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
    run_compaction_experiment, run_section_8_4, run_section_8_5, run_section_8_6,
    run_skewed_split_experiment, ControllerKind, ScenarioConfig,
};

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
    let r = run_section_8_4(QueryKind::TopK, ControllerKind::Wasp, &cfg());
    assert_digest("§8.4 Top-K", &r.metrics, 0x0cdf_0f0a_2af3_e389);
}

#[test]
fn section_8_4_ysb_output_is_pinned() {
    let r = run_section_8_4(QueryKind::Advertising, ControllerKind::Wasp, &cfg());
    assert_digest("§8.4 YSB", &r.metrics, 0x9187_16ab_171a_b686);
}

#[test]
fn section_8_5_output_is_pinned() {
    let r = run_section_8_5(ControllerKind::Wasp, &cfg());
    assert_digest("§8.5", &r.metrics, 0xbe43_71b8_dcbf_8c9c);
}

#[test]
fn section_8_6_output_is_pinned() {
    let r = run_section_8_6(ControllerKind::Wasp, &cfg());
    assert_digest("§8.6", &r.metrics, 0xbef1_2071_575e_09f3);
}

#[test]
fn skewed_split_output_is_pinned() {
    let r = run_skewed_split_experiment(60.0, &cfg());
    assert_digest("skewed split (60 MB)", &r.metrics, 0x52ca_2248_7e20_2717);
}

#[test]
fn compaction_output_is_pinned() {
    let r = run_compaction_experiment(CompactionPolicy::every_n_rounds(4), 48.0, &cfg());
    assert_digest(
        "compaction (every 4 rounds, 48 MB)",
        &r.metrics,
        0x1371_a6f6_74c7_e5b8,
    );
}
