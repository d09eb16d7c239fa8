//! # wasp-bench — figure/table regeneration harness
//!
//! One function per table and figure of the paper's evaluation (§8).
//! Each returns a [`FigureReport`]: named data series plus free-form
//! notes, which the `figures` binary renders as aligned text and
//! writes as JSON for plotting.
//!
//! | Function | Reproduces |
//! |---|---|
//! | [`fig2_bandwidth_variability`] | Fig. 2 — EC2 bandwidth trace |
//! | [`fig7_testbed_distributions`] | Fig. 7 — testbed CDFs |
//! | [`table3_queries`] | Table 3 — query inventory |
//! | [`fig8_9_adaptation`] | Figs. 8 & 9 — delay + ratio under §8.4 |
//! | [`fig10_techniques`] | Fig. 10 — re-assign vs scale vs re-plan |
//! | [`fig11_12_live`] | Figs. 11 & 12 — live environment |
//! | [`fig13_migration`] | Fig. 13 — network-aware state migration |
//! | [`fig14_partitioning`] | Fig. 14 — state partitioning |
//! | [`table2_comparison`] | Table 2 — technique comparison |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod extensions;

use serde::Serialize;
use wasp_netsim::prelude::*;
use wasp_netsim::stats::quantile;
use wasp_workloads::prelude::*;

/// One named data series: `(x, y)` points.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend label (e.g. `"No Adapt"`).
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Series {
        Series {
            label: label.into(),
            points,
        }
    }
}

/// Everything needed to regenerate one figure or table.
#[derive(Debug, Clone, Serialize)]
pub struct FigureReport {
    /// Identifier, e.g. `"fig8a"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Axis description, e.g. `"time (s) vs delay (s)"`.
    pub axes: String,
    /// The data series.
    pub series: Vec<Series>,
    /// Annotations / measured headline numbers / table rows.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report (for extension modules).
    pub fn new_public(id: &str, title: &str, axes: &str) -> FigureReport {
        FigureReport::new(id, title, axes)
    }

    fn new(id: &str, title: &str, axes: &str) -> FigureReport {
        FigureReport {
            id: id.to_string(),
            title: title.to_string(),
            axes: axes.to_string(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Renders the report as a gnuplot script plus inline data blocks
    /// (`$data0 …`), ready for `gnuplot <id>.gp`.
    pub fn render_gnuplot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let log_y = self.axes.contains("log");
        let _ = writeln!(out, "set title \"{}\"", self.title.replace('"', "'"));
        let _ = writeln!(out, "set key outside");
        let _ = writeln!(out, "set grid");
        if log_y {
            let _ = writeln!(out, "set logscale y");
        }
        let mut parts = self.axes.splitn(2, " vs ");
        let xlabel = parts.next().unwrap_or("x");
        let ylabel = parts.next().unwrap_or("y");
        let _ = writeln!(out, "set xlabel \"{xlabel}\"");
        let _ = writeln!(out, "set ylabel \"{ylabel}\"");
        for (i, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "$data{i} << EOD");
            for (x, y) in &s.points {
                let _ = writeln!(out, "{x} {y}");
            }
            let _ = writeln!(out, "EOD");
        }
        let plots: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "$data{i} using 1:2 with linespoints title \"{}\"",
                    s.label.replace('"', "'")
                )
            })
            .collect();
        if !plots.is_empty() {
            let _ = writeln!(out, "plot {}", plots.join(", \\\n     "));
        }
        let _ = writeln!(out, "pause -1 \"press enter\"");
        out
    }

    /// Renders the report as aligned, human-readable text.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} [{}]", self.id, self.title, self.axes);
        for note in &self.notes {
            let _ = writeln!(out, "   # {note}");
        }
        for s in &self.series {
            let _ = write!(out, "   {:<12}", s.label);
            for (x, y) in &s.points {
                let _ = write!(out, " {x:.5}:{y:.5}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Standard harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Base seed (testbed + dynamics).
    pub seed: u64,
    /// Simulation tick.
    pub dt: f64,
    /// Bucket width of time series, seconds.
    pub bucket_s: f64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            // The figure assertions need the testbed realization the
            // scenario default seed draws.
            seed: ScenarioConfig::default().seed,
            dt: 0.25,
            bucket_s: 30.0,
        }
    }
}

impl HarnessConfig {
    /// The scenario configuration at this harness's seed and tick,
    /// defaults otherwise.
    pub fn scenario(&self) -> ScenarioConfig {
        ScenarioConfig {
            seed: self.seed,
            dt: self.dt,
            ..ScenarioConfig::default()
        }
    }
}

fn cdf_series(label: &str, samples: &[f64]) -> Series {
    let mut xs: Vec<f64> = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let n = xs.len().max(1) as f64;
    Series::new(
        label,
        xs.iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect(),
    )
}

/// Fig. 2: one-day bandwidth variability of the Oregon→Ohio link,
/// 30-minute buckets.
pub fn fig2_bandwidth_variability(cfg: &HarnessConfig) -> FigureReport {
    let tb = Testbed::paper(cfg.seed);
    let net = tb.network_with_ec2_dynamics();
    let (oregon, ohio) = (tb.data_centers()[0], tb.data_centers()[1]);
    let mut report = FigureReport::new(
        "fig2",
        "Bandwidth variability Oregon→Ohio (1 day, 30-min samples)",
        "time bucket (30 min) vs bandwidth (Mbps)",
    );
    let points: Vec<(f64, f64)> = (0..48)
        .map(|i| {
            let t = SimTime(i as f64 * 1800.0);
            (i as f64, net.available(oregon, ohio, t).0)
        })
        .collect();
    let values: Vec<f64> = points.iter().map(|&(_, v)| v).collect();
    let stats = wasp_netsim::stats::summarize(&values).expect("48 samples");
    report.notes.push(format!(
        "mean {:.1} Mbps, deviation {:.0}%–{:.0}% of mean (paper: 25%–93%)",
        stats.mean,
        100.0 * (stats.mean - stats.min) / stats.mean,
        100.0 * (stats.max - stats.mean) / stats.mean,
    ));
    report.series.push(Series::new("oregon→ohio", points));
    report
}

/// Fig. 7: inter-site bandwidth and latency CDFs of the testbed.
pub fn fig7_testbed_distributions(cfg: &HarnessConfig) -> Vec<FigureReport> {
    let tb = Testbed::paper(cfg.seed);
    let mut bw = FigureReport::new(
        "fig7a",
        "Inter-site bandwidth distribution",
        "bandwidth (Mbps) vs CDF",
    );
    bw.series
        .push(cdf_series("Edge", &tb.bandwidth_samples(SiteKind::Edge)));
    bw.series.push(cdf_series(
        "Data Center",
        &tb.bandwidth_samples(SiteKind::DataCenter),
    ));
    let mut lat = FigureReport::new(
        "fig7b",
        "Inter-site latency distribution",
        "latency (ms) vs CDF",
    );
    lat.series
        .push(cdf_series("Edge", &tb.latency_samples(SiteKind::Edge)));
    lat.series.push(cdf_series(
        "Data Center",
        &tb.latency_samples(SiteKind::DataCenter),
    ));
    vec![bw, lat]
}

/// Table 1: the paper's notation, mapped to this reproduction's API.
pub fn table1_notation(_cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new(
        "table1",
        "Notation (Table 1) mapped to the API",
        "notation | description | API",
    );
    for (notation, description, api) in [
        ("m", "total number of sites", "Topology::num_sites"),
        ("p", "operator/stage parallelism", "Placement::parallelism"),
        ("p[s]", "tasks deployed at site s", "Placement::tasks_at"),
        (
            "A[s]",
            "available slots at site s",
            "PhysicalPlan::free_slots",
        ),
        ("ℓ_{s2,s1}", "latency from s1 to s2", "Network::latency"),
        (
            "B_{s2,s1}",
            "available bandwidth from s1 to s2",
            "Network::available",
        ),
        (
            "λ̂I[s]",
            "expected input stream rate to site s",
            "WorkloadEstimate::inbound_mbps_by_site",
        ),
        (
            "λ̂O[s]",
            "expected output stream rate from site s",
            "WorkloadEstimate::outbound_mbps_by_site",
        ),
        (
            "α",
            "bandwidth utilization threshold",
            "PolicyConfig::alpha / AlphaTuner",
        ),
    ] {
        report
            .notes
            .push(format!("{notation:<10} | {description:<40} | {api}"));
    }
    report
}

/// Table 3: the query inventory.
pub fn table3_queries(_cfg: &HarnessConfig) -> FigureReport {
    let mut report = FigureReport::new(
        "table3",
        "Location-based query details",
        "application | state | operators | dataset",
    );
    for kind in QueryKind::ALL {
        let (app, state, ops, data) = kind.table3_row();
        report
            .notes
            .push(format!("{app:<22} | {state:<8} | {ops:<36} | {data}"));
    }
    report
}

/// Figs. 8 & 9: average delay and processing ratio of the three
/// queries under the §8.4 dynamics, for No Adapt / Degrade / Re-opt
/// (full WASP). Returns six reports (fig8a–c, fig9a–c).
pub fn fig8_9_adaptation(cfg: &HarnessConfig) -> Vec<FigureReport> {
    let scenario = cfg.scenario();
    let mut reports = Vec::new();
    let subfig = ['a', 'b', 'c'];
    for (qi, kind) in QueryKind::ALL.iter().enumerate() {
        let mut delay = FigureReport::new(
            &format!("fig8{}", subfig[qi]),
            &format!("Average delay — {} (§8.4 dynamics)", kind.name()),
            "time (s) vs delay (s, log)",
        );
        let mut ratio = FigureReport::new(
            &format!("fig9{}", subfig[qi]),
            &format!("Processing ratio — {}", kind.name()),
            "time (s) vs processing ratio",
        );
        for ctrl in [
            ControllerKind::NoAdapt,
            ControllerKind::Degrade,
            ControllerKind::Wasp,
        ] {
            let res = run(&ScenarioSpec::section_8_4(*kind, ctrl), &scenario);
            let label = if ctrl == ControllerKind::Wasp {
                "Re-opt".to_string()
            } else {
                res.label.clone()
            };
            delay
                .series
                .push(Series::new(&label, res.metrics.delay_series(cfg.bucket_s)));
            ratio
                .series
                .push(Series::new(&label, res.ratio_series(cfg.bucket_s)));
            for (t, a) in res.metrics.actions() {
                if !a.starts_with("transition") {
                    ratio.notes.push(format!("{label}: {a} at t={t:.0}"));
                }
            }
            if ctrl == ControllerKind::Degrade {
                ratio.notes.push(format!(
                    "Degrade dropped {:.1}% of events",
                    100.0 * res.metrics.dropped_fraction()
                ));
            }
        }
        reports.push(delay);
        reports.push(ratio);
    }
    reports
}

/// Fig. 10: Re-assign vs Scale vs Re-plan under the §8.5 dynamics —
/// (a) delay CDF, (b) delay over time, (c) parallelism changes.
pub fn fig10_techniques(cfg: &HarnessConfig) -> Vec<FigureReport> {
    let scenario = cfg.scenario();
    let mut cdf = FigureReport::new(
        "fig10a",
        "Delay distribution per technique (§8.5)",
        "delay (s, log) vs CDF",
    );
    let mut over_time = FigureReport::new(
        "fig10b",
        "Average delay over time per technique",
        "time (s) vs delay (s, log)",
    );
    let mut par = FigureReport::new(
        "fig10c",
        "Parallelism changes over time",
        "time (s) vs additional tasks",
    );
    let mut initial_tasks = None;
    for ctrl in [
        ControllerKind::NoAdapt,
        ControllerKind::ReassignOnly,
        ControllerKind::ScaleOnly,
        ControllerKind::ReplanOnly,
    ] {
        let res = run(&ScenarioSpec::section_8_5(ctrl), &scenario);
        cdf.series
            .push(Series::new(&res.label, res.metrics.delay_cdf(100)));
        over_time.series.push(Series::new(
            &res.label,
            res.metrics.delay_series(cfg.bucket_s),
        ));
        let base = *initial_tasks.get_or_insert_with(|| res.metrics.parallelism_series()[0].1);
        par.series.push(Series::new(
            &res.label,
            res.metrics
                .parallelism_series()
                .iter()
                .step_by((cfg.bucket_s / cfg.dt) as usize)
                .map(|&(t, p)| (t, p as f64 - base as f64))
                .collect(),
        ));
        for (t, a) in res.metrics.actions() {
            if !a.starts_with("transition") {
                over_time
                    .notes
                    .push(format!("{}: {a} at t={t:.0}", res.label));
            }
        }
    }
    vec![cdf, over_time, par]
}

/// Figs. 11 & 12: the live trace-driven environment (§8.6) — dynamics,
/// delay, parallelism, processed events, and the delay CDF.
pub fn fig11_12_live(cfg: &HarnessConfig) -> Vec<FigureReport> {
    let scenario = cfg.scenario();
    // Fig. 11a: the variation factors themselves.
    let tb = Testbed::paper(cfg.seed);
    let script = wasp_netsim::dynamics::DynamicsScript::section_8_6(tb.edges(), 1800.0, cfg.seed);
    let mut variations = FigureReport::new(
        "fig11a",
        "Bandwidth and workload variation (live run)",
        "time (s) vs factor",
    );
    let times: Vec<f64> = (0..=60).map(|i| i as f64 * 30.0).collect();
    variations.series.push(Series::new(
        "Bandwidth",
        times
            .iter()
            .map(|&t| (t, script.bandwidth_factor(SimTime(t))))
            .collect(),
    ));
    variations.series.push(Series::new(
        "Workload",
        times
            .iter()
            .map(|&t| (t, script.workload_factor(tb.edges()[0], SimTime(t))))
            .collect(),
    ));
    variations
        .notes
        .push("failure at t=540 s, resources restored after 60 s".into());

    let mut delay = FigureReport::new(
        "fig11b",
        "Average delay over time (live run)",
        "time (s) vs delay (s, log)",
    );
    let mut par = FigureReport::new(
        "fig11c",
        "Parallelism changes over time (live run)",
        "time (s) vs additional tasks",
    );
    let mut processed = FigureReport::new(
        "fig12a",
        "Processed (non-dropped) events",
        "technique vs % events",
    );
    let mut cdf = FigureReport::new(
        "fig12b",
        "Delay distribution (live run)",
        "delay (s, log) vs CDF",
    );
    let mut initial_tasks = None;
    for ctrl in [
        ControllerKind::NoAdapt,
        ControllerKind::Degrade,
        ControllerKind::Wasp,
    ] {
        let res = run(&ScenarioSpec::section_8_6(ctrl), &scenario);
        delay.series.push(Series::new(
            &res.label,
            res.metrics.delay_series(cfg.bucket_s),
        ));
        let base = *initial_tasks.get_or_insert_with(|| res.metrics.parallelism_series()[0].1);
        par.series.push(Series::new(
            &res.label,
            res.metrics
                .parallelism_series()
                .iter()
                .step_by((cfg.bucket_s / cfg.dt) as usize)
                .map(|&(t, p)| (t, p as f64 - base as f64))
                .collect(),
        ));
        let kept = 100.0 * (1.0 - res.metrics.dropped_fraction());
        processed
            .notes
            .push(format!("{:<10} processed {kept:.1}% of events", res.label));
        cdf.series
            .push(Series::new(&res.label, res.metrics.delay_cdf(100)));
        for (t, a) in res.metrics.actions() {
            if !a.starts_with("transition") {
                delay.notes.push(format!("{}: {a} at t={t:.0}", res.label));
            }
        }
    }
    vec![variations, delay, par, processed, cdf]
}

/// Fig. 13: network-aware state migration (60 MB state) — delay over
/// time per strategy and the transition/stabilize breakdown, averaged
/// over three seeds.
pub fn fig13_migration(cfg: &HarnessConfig) -> Vec<FigureReport> {
    let mut delay = FigureReport::new(
        "fig13a",
        "Execution delay during a 60 MB state migration",
        "time (s) vs delay (s)",
    );
    let mut overhead = FigureReport::new(
        "fig13b",
        "Adaptation overhead breakdown (mean of 3 seeds)",
        "strategy vs seconds (transition + stabilize)",
    );
    for variant in [
        MigrationVariant::NoMigrate,
        MigrationVariant::Wasp,
        MigrationVariant::Random,
        MigrationVariant::Distant,
    ] {
        let mut transitions = Vec::new();
        let mut stabilizes = Vec::new();
        for s in 0..3u64 {
            let scenario = ScenarioConfig {
                seed: cfg.seed + s,
                ..cfg.scenario()
            };
            let res = run(
                &ScenarioSpec::migration(variant, 60.0, f64::INFINITY),
                &scenario,
            );
            if s == 0 {
                delay.series.push(Series::new(
                    res.label.clone(),
                    res.metrics.delay_series(10.0),
                ));
                if res.lost_state_mb() > 0.0 {
                    overhead.notes.push(format!(
                        "{}: abandoned {:.0} MB of state (accuracy loss)",
                        res.label,
                        res.lost_state_mb()
                    ));
                }
            }
            if let Some(b) = res.breakdown() {
                transitions.push(b.transition_s);
                stabilizes.push(b.stabilize_s);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        overhead.notes.push(format!(
            "{:<10} transition {:6.1} s + stabilize {:6.1} s = {:6.1} s",
            variant.label(),
            mean(&transitions),
            mean(&stabilizes),
            mean(&transitions) + mean(&stabilizes)
        ));
    }
    vec![delay, overhead]
}

/// The state-partitioning threshold used by [`fig14_partitioning`].
///
/// The paper used `t_max = 30 s` on links of 25–250 Mbps, crossed at
/// ≈256 MB of state; our testbed's inter-DC links are faster, so the
/// same crossover sits at `t_max = 10 s` (see EXPERIMENTS.md).
pub const FIG14_T_MAX_S: f64 = 10.0;

/// Fig. 14: mitigating overhead through operator scaling and state
/// partitioning — 95th-percentile delay and overhead breakdown vs
/// state size.
pub fn fig14_partitioning(cfg: &HarnessConfig) -> Vec<FigureReport> {
    let scenario = cfg.scenario();
    let sizes = [0.0, 32.0, 64.0, 128.0, 256.0, 512.0];
    let mut p95 = FigureReport::new(
        "fig14a",
        "95th-percentile delay vs state size",
        "state (MB) vs delay (s)",
    );
    let mut overhead = FigureReport::new(
        "fig14b",
        "Adaptation overhead vs state size",
        "state (MB) vs seconds",
    );
    for (label, t_max) in [("Default", f64::INFINITY), ("Partitioned", FIG14_T_MAX_S)] {
        let mut p95_points = Vec::new();
        let mut trans_points = Vec::new();
        let mut stab_points = Vec::new();
        for &mb in &sizes {
            let spec = ScenarioSpec::migration(MigrationVariant::Wasp, mb, t_max);
            let res = run(&spec, &scenario);
            p95_points.push((mb, res.p95_delay_after(STRESS_AT_S)));
            let b = res.breakdown().unwrap_or(OverheadBreakdown {
                start_s: 0.0,
                transition_s: 0.0,
                stabilize_s: 0.0,
            });
            trans_points.push((mb, b.transition_s));
            stab_points.push((mb, b.stabilize_s));
        }
        p95.series.push(Series::new(label, p95_points));
        overhead
            .series
            .push(Series::new(format!("Transition-{label}"), trans_points));
        overhead
            .series
            .push(Series::new(format!("Stabilize-{label}"), stab_points));
    }
    overhead.notes.push(format!(
        "Partitioned forces scale-out + state partitioning when the estimated transition exceeds {FIG14_T_MAX_S} s"
    ));
    vec![p95, overhead]
}

/// Table 2: the qualitative technique comparison, quantified from our
/// §8.4/§8.5 runs (overhead = measured transition time; quality = kept
/// events).
pub fn table2_comparison(cfg: &HarnessConfig) -> FigureReport {
    let scenario = cfg.scenario();
    let mut report = FigureReport::new(
        "table2",
        "Adaptation technique comparison (measured counterpart)",
        "technique | adaptation | granularity | measured overhead | quality",
    );
    report.notes.push(
        "Technique          | Adapts            | Granularity | Transition (s) | Events kept"
            .into(),
    );
    let transition_of = |m: &wasp_streamsim::metrics::RunMetrics| -> f64 {
        let mut starts: Vec<f64> = Vec::new();
        let mut total = 0.0;
        let mut n = 0u32;
        for (t, l) in m.actions() {
            if l == "transition-start" {
                starts.push(*t);
            } else if l == "transition-end" {
                if let Some(s) = starts.pop() {
                    total += t - s;
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    };
    for (ctrl, adapts, granularity) in [
        (ControllerKind::ReassignOnly, "task deployment", "stage"),
        (ControllerKind::ScaleOnly, "operator parallelism", "stage"),
        (ControllerKind::ReplanOnly, "query execution plan", "query"),
    ] {
        let res = run(&ScenarioSpec::section_8_5(ctrl), &scenario);
        report.notes.push(format!(
            "{:<18} | {:<17} | {:<11} | {:>14.1} | {:>10.1}%",
            res.label,
            adapts,
            granularity,
            transition_of(&res.metrics),
            100.0 * (1.0 - res.metrics.dropped_fraction())
        ));
    }
    let spec = ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Degrade);
    let res = run(&spec, &scenario);
    report.notes.push(format!(
        "{:<18} | {:<17} | {:<11} | {:>14.1} | {:>10.1}%",
        "Degradation",
        "drop policy",
        "policy",
        0.0,
        100.0 * (1.0 - res.metrics.dropped_fraction())
    ));
    report
}

/// Every report, in paper order (the `figures all` command), followed
/// by the ablation studies.
pub fn all_reports(cfg: &HarnessConfig) -> Vec<FigureReport> {
    let mut out = Vec::new();
    out.push(fig2_bandwidth_variability(cfg));
    out.extend(fig7_testbed_distributions(cfg));
    out.push(table1_notation(cfg));
    out.push(table3_queries(cfg));
    out.extend(fig8_9_adaptation(cfg));
    out.extend(fig10_techniques(cfg));
    out.extend(fig11_12_live(cfg));
    out.extend(fig13_migration(cfg));
    out.extend(fig14_partitioning(cfg));
    out.push(table2_comparison(cfg));
    out.extend(ablation::all_ablations(cfg));
    out.extend(extensions::all_extensions(cfg));
    out
}

/// Convenience for tests: the 95th percentile of a series' y values.
pub fn series_p95(s: &Series) -> Option<f64> {
    let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
    quantile(&ys, 0.95)
}
