//! Seed-campaign benchmark of the WASP reproduction.
//!
//! ```text
//! benchmark --workload W --seed S [--seconds N] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! Runs workload `W` as a campaign of consecutive scenario seeds from
//! `S`, prints every end-to-end metric (or, with `--trace 1`, every
//! per-layer metric) with its unit, checks the outputs, and ends with
//! one JSON line. Exits 1 when a check fails. See README.md.

mod calibration;
mod campaign;
mod scenario;
mod solvers;
mod stats;
mod trace;

use campaign::{end_to_end, measure, Metric, Outcome, Tally, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchmark --workload {{{}}} --seed N [--seconds N] [--trace 0|1] [--trace-out FILE]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    Workload::from_name(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = value()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--trace-out" => trace_out = Some(value()),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace,
        trace_out,
    }
}

/// Prints the metrics one per line, then the result line.
fn report(tally: &Tally, metrics: &[Metric]) -> bool {
    let mut correct = tally.correct();
    let mut fields = Vec::new();
    for &(name, unit, value) in metrics {
        println!("{name:<34} {value:>16.6} {unit}");
        if !value.is_finite() {
            eprintln!("metric {name} is not finite");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
    correct
}

/// The sample counts behind the metrics and the campaign's digest.
fn print_campaign(w: Workload, seed: u64, runs: usize, outcome: &Outcome) {
    println!(
        "# {} seeds {seed}..{}: runs {runs}, delay_events {:.0}, recoveries {}, sim_digest {:016x}",
        w.name(),
        seed + w.seeds() - 1,
        outcome.delays.count(),
        outcome.recoveries.len(),
        outcome.sim_digest()
    );
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let correct = if args.trace {
        let mut t = trace::layers(w, args.seed, &trace::Plan::full(w));
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, &t.chrome_trace) {
                eprintln!("error: cannot write {path}: {e}");
                t.tally.failed += 1;
            }
        }
        print_campaign(w, args.seed, t.outcome.digests.len(), &t.outcome);
        report(&t.tally, &t.metrics)
    } else {
        if args.trace_out.is_some() {
            eprintln!("note: --trace-out is only written with --trace 1");
        }
        let m = measure(w, args.seed, w.seeds(), args.seconds);
        print_campaign(w, args.seed, m.host.runs(), &m.outcome);
        report(&m.tally, &end_to_end(&m))
    };
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Spec {
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
        per_layer: Vec<Named>,
    }

    #[derive(Deserialize)]
    struct Named {
        name: String,
        #[serde(default)]
        unit: String,
    }

    fn spec() -> Spec {
        serde_json::from_str(include_str!("../../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn assert_same(printed: &[Metric], listed: &[Named]) {
        let printed: Vec<(&str, &str)> = printed.iter().map(|&(n, u, _)| (n, u)).collect();
        let listed: Vec<(&str, &str)> = listed
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str()))
            .collect();
        assert_eq!(printed, listed);
        for (name, _) in printed {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad metric name {name}"
            );
        }
    }

    /// One seed of every workload, untraced and traced: the printed
    /// metrics are the ones `BENCHMARK.json` lists, the checks pass, and
    /// tracing leaves the simulation byte-identical.
    #[test]
    fn every_workload_prints_the_listed_metrics_and_passes_its_checks() {
        let spec = spec();
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        let seed = 1000;
        for w in Workload::ALL {
            let m = measure(w, seed, 1, 0.0);
            assert!(m.tally.correct(), "{}: {:?}", w.name(), m.tally);
            assert_same(&end_to_end(&m), &spec.end_to_end);
            let plan = trace::Plan {
                seeds: 1,
                extra_seeds: 1,
                solver_calls: 50,
            };
            let t = trace::layers(w, seed, &plan);
            assert!(t.tally.correct(), "{} traced: {:?}", w.name(), t.tally);
            assert_eq!(
                t.outcome.sim_digest(),
                m.outcome.sim_digest(),
                "{}",
                w.name()
            );
            assert_same(&t.metrics, &spec.per_layer);
            for span in ["\"engine.step\"", "\"setup.deploy\"", "\"run "] {
                assert!(t.chrome_trace.contains(span), "{} lacks {span}", w.name());
            }
        }
    }
}
