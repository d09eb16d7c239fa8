//! Golden-file byte-stability of the `wasp-report` binary.
//!
//! The differential suite (`crates/streamsim/tests/differential.rs`)
//! proves bit-identity of the in-process recordings; this test proves
//! the same property at the outermost observable boundary — the bytes
//! the shipped binary writes to disk. One scenario at seed 4, run
//! twice, must produce byte-equal report, JSONL event log, and Chrome
//! trace files.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Output bundle of one `wasp-report` invocation.
struct ReportFiles {
    report: Vec<u8>,
    jsonl: Vec<u8>,
    trace: Vec<u8>,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasp-report-golden-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `wasp-report` on the §8.4 top-k scenario at seed 4 and returns
/// the three output files, written under `dir` with names tagged by
/// `run`. `dt = 2.0` keeps the debug-profile run short; the
/// byte-identity claim is dt-independent.
fn run_report(dir: &Path, run: usize) -> ReportFiles {
    let report = dir.join(format!("report-{run}.txt"));
    let jsonl = dir.join(format!("events-{run}.jsonl"));
    let trace = dir.join(format!("trace-{run}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_wasp-report"))
        .args([
            "--scenario",
            "section_8_4",
            "--query",
            "topk",
            "--seed",
            "4",
            "--dt",
            "2.0",
            "--report",
        ])
        .arg(&report)
        .arg("--jsonl")
        .arg(&jsonl)
        .arg("--trace-out")
        .arg(&trace)
        // The binary must not pick up an ambient seed override.
        .env_remove("WASP_SCENARIO_SEED")
        .status()
        .expect("spawn wasp-report");
    assert!(status.success(), "wasp-report run {run} failed: {status}");
    ReportFiles {
        report: std::fs::read(&report).expect("read report"),
        jsonl: std::fs::read(&jsonl).expect("read jsonl"),
        trace: std::fs::read(&trace).expect("read trace"),
    }
}

fn assert_same(what: &str, a: &[u8], b: &[u8]) {
    if a == b {
        return;
    }
    let pos = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    panic!(
        "{what}: outputs differ at byte {pos} (lengths {} vs {})",
        a.len(),
        b.len()
    );
}

#[test]
fn wasp_report_run_reproduces_itself() {
    let dir = scratch_dir("rerun");
    let first = run_report(&dir, 1);
    let second = run_report(&dir, 2);
    assert!(
        !first.report.is_empty() && !first.jsonl.is_empty(),
        "report ran but produced empty outputs"
    );
    assert_same("audit report (re-run)", &first.report, &second.report);
    assert_same("jsonl event log (re-run)", &first.jsonl, &second.jsonl);
    assert_same("chrome trace (re-run)", &first.trace, &second.trace);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flag the chosen scenario would ignore is a usage error (exit 2)
/// that names the flag and the scenario, not a run under a
/// misleading title.
#[test]
fn wasp_report_rejects_flags_the_scenario_ignores() {
    let out = Command::new(env!("CARGO_BIN_EXE_wasp-report"))
        .args(["--scenario", "skewed_state", "--controller", "noadapt"])
        .env_remove("WASP_SCENARIO_SEED")
        .output()
        .expect("spawn wasp-report");
    assert!(!out.status.success(), "an ignored flag must fail the run");
    assert_eq!(out.status.code(), Some(2), "usage errors exit with 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--controller") && stderr.contains("skewed_state"),
        "the error must name the flag and the scenario: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no report may be written");
}
