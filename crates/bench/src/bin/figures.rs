//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures all [--seed N] [--dt SECS] [--out DIR]
//! figures fig2|fig7|table3|fig8|fig10|fig11|fig13|fig14|table2 [...]
//! ```
//!
//! Prints each figure's data as aligned text and, when `--out` is
//! given, writes one JSON file per figure for plotting. `--trace-out`
//! additionally records the §8.4 reference run (WASP, Top-K, the
//! harness seed) with telemetry on and writes a Chrome trace of it.

use std::io::Write as _;
use wasp_bench::ablation::all_ablations;
use wasp_bench::extensions::all_extensions;
use wasp_bench::{
    all_reports, fig10_techniques, fig11_12_live, fig13_migration, fig14_partitioning,
    fig2_bandwidth_variability, fig7_testbed_distributions, fig8_9_adaptation, table2_comparison,
    table3_queries, FigureReport, HarnessConfig,
};
use wasp_telemetry::{to_chrome_trace, Telemetry};
use wasp_workloads::prelude::{run, ControllerKind, QueryKind, ScenarioConfig, ScenarioSpec};

fn usage() -> ! {
    eprintln!(
        "usage: figures <all|fig2|fig7|table3|fig8|fig9|fig10|fig11|fig12|fig13|fig14|table1|table2|ablations|ext> \
         [--seed N] [--dt SECS] [--out DIR] [--gnuplot DIR] [--trace-out FILE]"
    );
    std::process::exit(2);
}

/// Exits with a diagnostic instead of a panic backtrace when an
/// output artifact cannot be produced.
fn die(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {err}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = HarnessConfig::default();
    let mut out_dir: Option<String> = None;
    let mut gnuplot_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    // Progress notices flow through the telemetry sink like every
    // other diagnostic, instead of ad-hoc eprintln!s.
    let progress = Telemetry::stderr();
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--dt" => {
                cfg.dt = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--gnuplot" => gnuplot_dir = Some(it.next().unwrap_or_else(|| usage())),
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }

    let mut reports: Vec<FigureReport> = Vec::new();
    for target in &targets {
        let produced: Vec<FigureReport> = match target.as_str() {
            "all" => all_reports(&cfg),
            "fig2" => vec![fig2_bandwidth_variability(&cfg)],
            "fig7" => fig7_testbed_distributions(&cfg),
            "table1" => vec![wasp_bench::table1_notation(&cfg)],
            "table3" => vec![table3_queries(&cfg)],
            // Figs. 8 and 9 come from the same runs.
            "fig8" | "fig9" => fig8_9_adaptation(&cfg),
            "fig10" => fig10_techniques(&cfg),
            // Figs. 11 and 12 come from the same runs.
            "fig11" | "fig12" => fig11_12_live(&cfg),
            "fig13" => fig13_migration(&cfg),
            "fig14" => fig14_partitioning(&cfg),
            "table2" => vec![table2_comparison(&cfg)],
            "ablations" => all_ablations(&cfg),
            "ext" => all_extensions(&cfg),
            _ => usage(),
        };
        reports.extend(produced);
    }

    for report in &reports {
        print!("{}", report.render_text());
        println!();
    }

    if let Some(dir) = gnuplot_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            die("cannot create gnuplot directory", e);
        }
        for report in &reports {
            if report.series.is_empty() {
                continue; // tables have no plottable series
            }
            let path = format!("{dir}/{}.gp", report.id);
            if let Err(e) = std::fs::write(&path, report.render_gnuplot()) {
                die("cannot write gnuplot script", e);
            }
        }
        progress.note(0.0, || format!("wrote gnuplot scripts to {dir}"));
    }
    if let Some(dir) = out_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            die("cannot create output directory", e);
        }
        for report in &reports {
            let path = format!("{dir}/{}.json", report.id);
            let json = match serde_json::to_string_pretty(report) {
                Ok(json) => json,
                Err(e) => die("figure does not serialize", e),
            };
            let mut f = match std::fs::File::create(&path) {
                Ok(f) => f,
                Err(e) => die("cannot create figure file", e),
            };
            if let Err(e) = f.write_all(json.as_bytes()) {
                die("cannot write figure file", e);
            }
        }
        progress.note(0.0, || {
            format!("wrote {} JSON files to {dir}", reports.len())
        });
    }
    if let Some(path) = trace_out {
        let (tel, rec) = Telemetry::recording();
        let scenario_cfg = ScenarioConfig {
            telemetry: tel,
            ..cfg.scenario()
        };
        run(
            &ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp),
            &scenario_cfg,
        );
        let trace = match to_chrome_trace(&rec.recording()) {
            Ok(trace) => trace,
            Err(e) => die("cannot serialize chrome trace", e),
        };
        if let Err(e) = std::fs::write(&path, trace) {
            die("cannot write chrome trace", e);
        }
        progress.note(0.0, || {
            format!("wrote chrome trace of the section 8.4 reference run to {path}")
        });
    }
}
