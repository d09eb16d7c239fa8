//! Cross-commit observability golden: pinned digests of what the
//! x-ray, telemetry and metrics layers record.
//!
//! `integration_golden` pins the simulated output with every layer
//! off. This test turns all three on — x-ray with 300 s windows, a
//! recording telemetry sink and a recording metrics hub scraping every
//! 10 s — and pins, for each case, FNV-1a-64 digests of
//!
//! - the `XrayRun` serialized to JSON,
//! - the telemetry `Recording` serialized to JSON, and
//! - the hub's CSV dump followed by its Prometheus exposition.
//!
//! The constants were recorded before the observability hot path was
//! reworked into dense, pre-resolved accumulators, so a rework that
//! reorders a floating-point sum, moves an event or registers a gauge
//! in a different order trips the matching digest. Each case also
//! checks that the run's `RunMetrics` digest equals the
//! observability-off constant of `integration_golden`: observing a run
//! must not perturb it.
//!
//! When a change is *meant* to alter what is recorded, re-record the
//! constants (the failure message prints the new digest) and say so in
//! the change log.

use wasp_metrics::MetricsHub;
use wasp_telemetry::Telemetry;
use wasp_workloads::queries::QueryKind;
use wasp_workloads::scenarios::{
    run, ControllerKind, ExperimentResult, ScenarioConfig, ScenarioSpec,
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

/// Pinned digests of one observed run.
struct Golden {
    /// `RunMetrics` JSON (equal to the observability-off golden).
    metrics: u64,
    xray: u64,
    telemetry: u64,
    hub: u64,
}

fn check(case: &str, run: impl FnOnce(&ScenarioConfig) -> ExperimentResult, want: Golden) {
    let (tel, handle) = Telemetry::recording();
    let hub = MetricsHub::recording(10.0);
    let cfg = ScenarioConfig {
        seed: 4,
        dt: 0.25,
        telemetry: tel,
        metrics: hub.clone(),
        xray: Some(300.0),
        ..ScenarioConfig::default()
    };
    let r = run(&cfg);
    let xray = r.xray.expect("x-ray was enabled");
    let digests = [
        (
            "RunMetrics",
            serde_json::to_string(&r.metrics).expect("RunMetrics serializes"),
            want.metrics,
        ),
        (
            "x-ray",
            serde_json::to_string(&xray).expect("XrayRun serializes"),
            want.xray,
        ),
        (
            "telemetry",
            serde_json::to_string(&handle.recording()).expect("Recording serializes"),
            want.telemetry,
        ),
        (
            "metrics hub",
            hub.render_csv() + &hub.render_prometheus(),
            want.hub,
        ),
    ];
    for (what, text, expected) in digests {
        let got = fnv1a64(text.as_bytes());
        assert_eq!(
            got,
            expected,
            "{case}: {what} digest {got:#018x} differs from the pinned {expected:#018x} \
             ({} bytes) — the observed output moved",
            text.len()
        );
    }
}

#[test]
fn section_8_6_observed_output_is_pinned() {
    check(
        "§8.6",
        |cfg| run(&ScenarioSpec::section_8_6(ControllerKind::Wasp), cfg),
        Golden {
            metrics: 0xbef1_2071_575e_09f3,
            xray: 0x049f_e733_8a86_c4e4,
            telemetry: 0xc585_d2ea_6475_fd4e,
            hub: 0x2cdd_0a9b_af37_e3b3,
        },
    );
}

#[test]
fn section_8_4_topk_observed_output_is_pinned() {
    check(
        "§8.4 Top-K",
        |cfg| {
            run(
                &ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp),
                cfg,
            )
        },
        Golden {
            metrics: 0x0cdf_0f0a_2af3_e389,
            xray: 0x0b66_c88d_d7f7_875f,
            telemetry: 0xba36_d244_98d3_358e,
            hub: 0xd62f_5919_3c13_5a38,
        },
    );
}
