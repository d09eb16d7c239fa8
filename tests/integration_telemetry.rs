//! Telemetry integration: golden byte-stability of the JSONL export
//! and well-formedness of the Chrome trace, over a real §8.4 run.
//!
//! The determinism contract (DESIGN.md §10): every timestamp is
//! sim-time, so a fixed (scenario, seed, dt) produces a byte-identical
//! event log — no scrubbing or normalization needed before diffing.

use serde::Deserialize;
use wasp_telemetry::LogEntry;
use wasp_workloads::prelude::*;

fn record_8_4(seed: u64) -> Recording {
    let (tel, rec) = Telemetry::recording();
    let cfg = ScenarioConfig {
        seed,
        dt: 1.0,
        telemetry: tel,
        ..ScenarioConfig::default()
    };
    run(
        &ScenarioSpec::section_8_4(QueryKind::Advertising, ControllerKind::Wasp),
        &cfg,
    );
    rec.recording()
}

#[test]
fn jsonl_log_is_byte_stable_across_runs() {
    let first = to_jsonl(&record_8_4(4)).unwrap();
    let second = to_jsonl(&record_8_4(4)).unwrap();
    assert!(!first.is_empty(), "an instrumented run must record events");
    assert_eq!(
        first, second,
        "same (scenario, seed, dt) must be byte-identical"
    );

    // And the log round-trips: every line parses back to the entry
    // that produced it.
    let reparsed: Vec<LogEntry> = first
        .lines()
        .map(|l| serde_json::from_str(l).expect("every JSONL line parses"))
        .collect();
    assert_eq!(reparsed, record_8_4(4).log);

    // A different seed is a different log (the trace reflects the run,
    // not just the instrumentation points).
    let other = to_jsonl(&record_8_4(5)).unwrap();
    assert_ne!(first, other);
}

// Test-local mirror of the Chrome trace JSON. The vendored serde
// ignores unknown keys and `default`s missing ones, so optional
// per-phase fields (`dur`, `name`) can be plain `Option`s.
#[allow(non_snake_case)]
#[derive(Deserialize)]
struct ChromeTrace {
    displayTimeUnit: String,
    traceEvents: Vec<TraceEvent>,
}

#[derive(Deserialize)]
struct TraceEvent {
    #[serde(default)]
    name: Option<String>,
    ph: String,
    ts: u64,
    tid: u64,
    #[serde(default)]
    dur: Option<u64>,
}

/// Golden-file checks of a Chrome trace: valid JSON, monotonic
/// timestamps, balanced B/E pairs on the control thread, durations on
/// every complete event. Returns the maximum control-span nesting
/// depth.
fn check_chrome_trace(text: &str) -> i64 {
    let trace: ChromeTrace = serde_json::from_str(text).expect("trace is valid JSON");
    assert_eq!(trace.displayTimeUnit, "ms");
    assert!(!trace.traceEvents.is_empty());

    let mut last_ts = 0u64;
    let mut depth = 0i64;
    let mut max_depth = 0i64;
    for ev in &trace.traceEvents {
        assert!(ev.ts >= last_ts, "timestamps must be monotonic");
        last_ts = ev.ts;
        match ev.ph.as_str() {
            "B" => {
                assert_eq!(ev.tid, 1, "control spans live on the control thread");
                assert!(ev.name.is_some(), "begin events are named");
                depth += 1;
                max_depth = max_depth.max(depth);
            }
            "E" => {
                depth -= 1;
                assert!(depth >= 0, "span end without a begin");
            }
            "X" => {
                assert_eq!(ev.tid, 2, "engine spans live on the engine thread");
                assert!(ev.dur.is_some(), "complete events carry a duration");
            }
            "i" => assert!(ev.name.is_some(), "instants are named"),
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert_eq!(depth, 0, "every control span must be closed");
    max_depth
}

#[test]
fn chrome_trace_is_well_formed() {
    let rec = record_8_4(4);
    let max_depth = check_chrome_trace(&to_chrome_trace(&rec).unwrap());
    assert!(
        max_depth >= 4,
        "span hierarchy must nest at least 4 deep, got {max_depth}"
    );
    assert!(rec.max_span_depth() >= 4);
}

/// Golden-file check of the Prometheus text exposition over a real
/// run (with x-ray attribution on, so the per-component histogram
/// families are covered too): every family declares `# HELP` then
/// `# TYPE` exactly once, every sample line belongs to a declared
/// family, and values parse.
#[test]
fn prometheus_exposition_is_well_formed() {
    let hub = MetricsHub::recording(10.0);
    let cfg = ScenarioConfig {
        seed: 4,
        dt: 1.0,
        metrics: hub.clone(),
        xray: Some(XRAY_DEFAULT_WINDOW_S),
        ..ScenarioConfig::default()
    };
    run(
        &ScenarioSpec::section_8_4(QueryKind::Advertising, ControllerKind::Wasp),
        &cfg,
    );
    let text = hub.render_prometheus();
    assert!(!text.is_empty());

    let mut families: Vec<String> = Vec::new(); // declaration order
    let mut lines = text.lines().peekable();
    let mut samples = 0usize;
    while let Some(line) = lines.next() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (family, help) = rest.split_once(' ').expect("HELP carries family and text");
            assert!(!help.is_empty(), "{family}: HELP text must not be empty");
            assert!(
                !families.iter().any(|f| f == family),
                "duplicate family declaration: {family}"
            );
            let type_line = lines.next().expect("HELP must be followed by TYPE");
            let trest = type_line
                .strip_prefix("# TYPE ")
                .expect("HELP must be followed by TYPE");
            let (tfam, kind) = trest.split_once(' ').expect("TYPE carries family and kind");
            assert_eq!(tfam, family, "TYPE must name the family its HELP declared");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "{family}: unknown type {kind}"
            );
            families.push(family.to_string());
            continue;
        }
        assert!(!line.starts_with('#'), "stray comment line: {line}");
        if line.is_empty() {
            continue;
        }
        // `family{labels} value` or `family value`; histogram samples
        // append `_bucket`/`_sum`/`_count` to the declared family.
        let name_end = line.find(['{', ' ']).expect("sample has a name");
        let name = &line[..name_end];
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        assert!(
            families.iter().any(|f| f == name || f == base),
            "sample {name} has no declared family"
        );
        let value = line.rsplit(' ').next().expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
            "unparseable sample value {value:?} in {line:?}"
        );
        samples += 1;
    }
    assert!(samples > 0, "exposition must carry sample lines");
    // The x-ray run must expose the per-component delay family.
    assert!(
        families.iter().any(|f| f == "wasp_xray_component_seconds"),
        "x-ray component family missing from exposition"
    );
}

#[test]
fn report_shows_candidates_and_rejections() {
    let rec = record_8_4(4);
    let report = render_report(&rec, "integration");
    assert!(
        report.contains("monitor-round"),
        "report lists monitor rounds"
    );
    assert!(
        report.contains("considered"),
        "the audit trail names candidate actions"
    );
    assert!(
        report.contains("REJECTED"),
        "the audit trail explains why candidates were rejected"
    );
    assert!(report.contains("max span depth"));
}
