//! The WASP performance harness: runs the §8 scenario suite with the
//! metrics hub recording, measures wall-clock engine throughput
//! alongside the SLO metrics, and writes a machine-readable benchmark
//! report (`BENCH_pr10.json` by default).
//!
//! ```text
//! wasp-bench --quick                         # CI-speed run, dt = 0.5
//! wasp-bench --out BENCH_pr10.json           # full run, dt = 0.25
//! wasp-bench --quick --baseline BENCH_pr10.json --gate 15
//! wasp-bench --quick --jobs 8                # fan repeats across 8 threads
//! ```
//!
//! `--jobs N` fans the (repeat × scenario) grid across a thread pool.
//! Every unit is fully isolated — its own `ScenarioConfig`, its own
//! recording `MetricsHub`, its own engine RNG seeded from `--seed` —
//! so the simulation results are bit-identical at any `--jobs` value;
//! only wall-clock readings move. Per-repeat delay histograms are
//! merged back into one cross-repeat histogram per scenario via
//! `LogHistogram::merge` (the `merged_delay_*` report fields). Each
//! engine tick itself always runs on one thread.
//!
//! Wall-clock numbers are machine-dependent, so the report also
//! carries a *calibration score* (a fixed pure-CPU loop measured at
//! bench time) and a calibration-normalized throughput per scenario.
//! The `--baseline`/`--gate` regression check compares normalized
//! throughput, which transfers across machines of different speeds;
//! the gate fails (exit 1) when any scenario regresses by more than
//! `--gate` percent.

use serde::{Deserialize, Serialize};
use std::time::Instant;
use wasp_workloads::prelude::*;

/// One benchmarked scenario run.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScenarioBench {
    /// Scenario id, e.g. `section_8_4_topk`.
    name: String,
    /// Controller label.
    controller: String,
    /// Wall-clock seconds for the whole run (engine + controller).
    wall_s: f64,
    /// Simulated seconds covered.
    sim_s: f64,
    /// Engine ticks executed (one per `dt`).
    ticks: u64,
    /// Engine throughput: ticks per wall-clock second.
    ticks_per_s: f64,
    /// Simulated seconds per wall-clock second.
    sim_speedup: f64,
    /// Source events simulated per wall-clock second.
    events_per_s: f64,
    /// Calibration-normalized throughput: ticks per mega-op of the
    /// calibration loop (machine-independent, the gated quantity).
    ticks_per_mop: f64,
    /// End-to-end delivery-delay quantiles (seconds).
    delay_p50_s: f64,
    delay_p95_s: f64,
    delay_p99_s: f64,
    /// Delivered / (generated × end-to-end selectivity).
    delivered_ratio: f64,
    /// Adaptation actions annotated during the run.
    actions: u64,
    /// `(failure_t_s, recovery_s)` per injected site failure.
    recoveries: Vec<FailureRecovery>,
    /// Delay quantiles over *all* repeats' histogram shards merged via
    /// `LogHistogram::merge` (absent in pre-PR4 baselines).
    #[serde(default)]
    merged_delay_p50_s: f64,
    #[serde(default)]
    merged_delay_p95_s: f64,
    #[serde(default)]
    merged_delay_p99_s: f64,
    /// End-to-end delay share per attribution component, indexed by
    /// `wasp_xray::Component::ALL` (queue, service, transit,
    /// backpressure, migration, control). Empty for microbench rows
    /// and pre-PR8 baselines; used by the gate to blame the component
    /// whose share moved most when throughput regresses.
    #[serde(default)]
    xray_shares: Vec<f64>,
    /// 95th-percentile modeled recovery replay (seconds). Zero for
    /// every row but the delta-chain scenario (and in pre-PR10
    /// baselines).
    #[serde(default)]
    replay_p95_s: f64,
    /// Total full-snapshot compaction volume (MB). Zero for every row
    /// but the delta-chain scenario (and in pre-PR10 baselines).
    #[serde(default)]
    compaction_mb: f64,
}

/// Time-to-recover for one injected failure.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct FailureRecovery {
    /// When the failure was observed (sim seconds).
    at_s: f64,
    /// Seconds until the delay re-stabilized.
    recovery_s: f64,
}

/// The full benchmark report.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    /// Report schema version (4 since the engine thread sweep was
    /// dropped; older baselines still parse).
    version: u32,
    /// True for `--quick` (dt = 1.0) runs.
    quick: bool,
    /// Testbed seed.
    seed: u64,
    /// Simulation tick used.
    dt: f64,
    /// Calibration score: mega-ops/s of the fixed CPU loop.
    calibration_mops: f64,
    /// Driver worker threads the grid was fanned across.
    #[serde(default)]
    jobs: usize,
    /// Per-scenario results.
    scenarios: Vec<ScenarioBench>,
}

fn usage() -> ! {
    eprintln!(
        "usage: wasp-bench [--quick] [--seed N] [--repeat N] [--jobs N] [--out FILE] \
         [--baseline FILE] [--gate PCT] [--csv FILE] [--prom FILE]"
    );
    std::process::exit(2);
}

/// A fixed reference workload timed at bench time; its measured
/// mega-ops/s calibrates wall-clock throughput so the regression gate
/// transfers across machines. The kernel mixes data-dependent memory
/// walks over a multi-MB table with float math so that it slows down
/// under the same cache/memory contention that slows the simulator —
/// a register-only loop would not, and the normalized ratio would
/// drift with neighbor load. Kept short (~10 ms) because one sample
/// is taken right next to *every* scenario repeat: time-adjacent
/// pairing cancels frequency scaling out of the ratio. Under
/// `--jobs > 1` the sample runs on the same worker thread as its
/// paired scenario, so both see the same sibling contention and the
/// ratio stays comparable to a single-threaded run.
fn calibrate() -> f64 {
    const TABLE: usize = 1 << 19; // 512k u64 = 4 MB, larger than L2
    const OPS: u64 = 2_000_000;
    let mut table: Vec<u64> = Vec::with_capacity(TABLE);
    let mut x = 0x9e3779b97f4a7c15u64;
    for _ in 0..TABLE {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        table.push(x);
    }
    let mut acc = 0.0f64;
    let mut idx = 0usize;
    let t0 = Instant::now();
    for _ in 0..OPS {
        let v = table[idx];
        idx = (v as usize) & (TABLE - 1);
        acc += (v as f64).sqrt() * 1e-12;
    }
    let dt = t0.elapsed().as_secs_f64();
    // `acc` must stay observable or the loop folds away.
    assert!(acc.is_finite());
    std::hint::black_box(acc);
    (OPS as f64 / dt) / 1e6
}

/// One timed repeat of a scenario: a calibration sample taken right
/// next to it, and the run's wall time.
#[derive(Debug, Clone, Copy)]
struct TimedRepeat {
    mops: f64,
    wall_s: f64,
    ticks: u64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Folds the timed repeats and the last run's metrics into one report
/// row. The gated quantity is the *median* calibration-normalized
/// ratio over the repeats: time-adjacent pairing cancels slow
/// machine-speed drift, and the median is robust to one-off scheduler
/// hiccups in either direction.
fn summarize_scenario(
    name: &str,
    samples: &[TimedRepeat],
    result: &ExperimentResult,
    merged: &wasp_metrics::LogHistogram,
) -> (ScenarioBench, f64) {
    let mut ratios: Vec<f64> = samples
        .iter()
        .map(|s| (s.ticks as f64 / s.wall_s.max(1e-9)) / s.mops.max(1e-9))
        .collect();
    let mut mops_samples: Vec<f64> = samples.iter().map(|s| s.mops).collect();
    let ticks_per_mop = median(&mut ratios);
    let mops_med = median(&mut mops_samples);
    let wall_s = samples.iter().fold(f64::INFINITY, |a, s| a.min(s.wall_s));
    let m = &result.metrics;
    let sim_s = m.ticks().last().map(|r| r.t).unwrap_or(0.0);
    let ticks = m.ticks().len() as u64;
    let ticks_per_s = ticks as f64 / wall_s.max(1e-9);
    let recoveries = recovery_times(m)
        .into_iter()
        .map(|(at_s, recovery_s)| FailureRecovery { at_s, recovery_s })
        .collect();
    let bench = ScenarioBench {
        name: name.to_string(),
        controller: result.label.clone(),
        wall_s,
        sim_s,
        ticks,
        ticks_per_s,
        sim_speedup: sim_s / wall_s.max(1e-9),
        events_per_s: m.total_generated() / wall_s.max(1e-9),
        ticks_per_mop,
        delay_p50_s: m.delay_quantile(0.5).unwrap_or(0.0),
        delay_p95_s: m.delay_quantile(0.95).unwrap_or(0.0),
        delay_p99_s: m.delay_quantile(0.99).unwrap_or(0.0),
        delivered_ratio: m.total_delivered()
            / (m.total_generated() * result.e2e_selectivity).max(1e-9),
        actions: m.actions().len() as u64,
        recoveries,
        merged_delay_p50_s: merged.quantile(0.5).unwrap_or(0.0),
        merged_delay_p95_s: merged.quantile(0.95).unwrap_or(0.0),
        merged_delay_p99_s: merged.quantile(0.99).unwrap_or(0.0),
        xray_shares: result
            .xray
            .as_ref()
            .map(|x| x.shares().to_vec())
            .unwrap_or_default(),
        replay_p95_s: result.replay_p95_s(),
        compaction_mb: result.compaction_mb(),
    };
    (bench, mops_med)
}

/// Regression blame: the attribution component whose end-to-end delay
/// share moved most between the baseline and the new run. Returns a
/// human-readable line, or `None` when either side lacks shares (the
/// baseline predates x-ray, or the row is a microbench).
fn blame_line(new: &ScenarioBench, base: &ScenarioBench) -> Option<String> {
    if new.xray_shares.len() != 6 || base.xray_shares.len() != 6 {
        return None;
    }
    let (idx, delta) = new
        .xray_shares
        .iter()
        .zip(base.xray_shares.iter())
        .map(|(n, b)| n - b)
        .enumerate()
        .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))?;
    let comp = wasp_xray::Component::ALL[idx].label();
    Some(format!(
        "  blame: {comp} share moved most, {:.1}% → {:.1}% ({:+.1} pp)",
        base.xray_shares[idx] * 100.0,
        new.xray_shares[idx] * 100.0,
        delta * 100.0
    ))
}

/// Applies the regression gate: every baseline scenario present in the
/// new report must keep ≥ `(100 - gate_pct)%` of its normalized
/// throughput. Returns the failure descriptions; a failing scenario
/// with attribution data on both sides also gets a blame line naming
/// the delay component whose share moved most since the baseline.
fn gate_failures(new: &BenchReport, base: &BenchReport, gate_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for b in &base.scenarios {
        let Some(n) = new.scenarios.iter().find(|s| s.name == b.name) else {
            failures.push(format!("scenario {} missing from new report", b.name));
            continue;
        };
        if b.ticks_per_mop <= 0.0 {
            continue;
        }
        let change_pct = (n.ticks_per_mop / b.ticks_per_mop - 1.0) * 100.0;
        if change_pct < -gate_pct {
            let mut msg = format!(
                "{}: normalized throughput {:.3} → {:.3} ticks/Mop ({:+.1}%, gate -{gate_pct}%)",
                b.name, b.ticks_per_mop, n.ticks_per_mop, change_pct
            );
            if let Some(blame) = blame_line(n, b) {
                msg.push('\n');
                msg.push_str(&blame);
            }
            failures.push(msg);
        }
    }
    failures
}

/// Times the partition-pipelined migration scheduler on a 16-site ×
/// 64-partition instance (8 Zipf-skewed sources, 8 destinations) and
/// folds it into a gated report row: `ticks` counts scheduler
/// invocations and `ticks_per_mop` is the calibration-normalized rate,
/// so the regression gate covers the new `wasp-state` subsystem's
/// hot path alongside the scenario runs. Fields that only make sense
/// for engine runs (delays, recoveries) stay zero.
fn bench_partition_scheduler() -> ScenarioBench {
    use wasp_netsim::site::SiteId;
    use wasp_state::scheduler::pipeline_schedule;
    use wasp_state::{partition_weights, PartitionConfig};

    let cfg = PartitionConfig {
        partitions: 64,
        ..PartitionConfig::default()
    };
    let sources: Vec<(SiteId, Vec<(u32, f64)>)> = (0..8u16)
        .map(|i| {
            let weights = partition_weights(&cfg, i as u64);
            let slices = weights
                .iter()
                .enumerate()
                .map(|(p, &w)| (p as u32, w * 200.0))
                .collect();
            (SiteId(i), slices)
        })
        .collect();
    let dests: Vec<SiteId> = (8..16u16).map(SiteId).collect();
    let seed: Vec<(SiteId, SiteId)> = (0..8u16).map(|i| (SiteId(i), SiteId(8 + i))).collect();
    // Deterministic heterogeneous link rates (MB/s), so the greedy
    // rebalancer has real work to do.
    let rate =
        |a: SiteId, b: SiteId| -> f64 { 2.0 + ((a.0 as u64 * 31 + b.0 as u64 * 17) % 23) as f64 };
    let mops = calibrate();
    let iters = 200u64;
    let t0 = Instant::now();
    let mut acc = 0.0f64;
    for _ in 0..iters {
        let s = pipeline_schedule(&sources, &seed, &dests, &rate);
        acc += s.bottleneck_s + s.max_pause_s;
    }
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    assert!(acc.is_finite());
    std::hint::black_box(acc);
    let per_s = iters as f64 / wall_s;
    ScenarioBench {
        name: "partitioned_migration_sched".to_string(),
        controller: "microbench".to_string(),
        wall_s,
        sim_s: 0.0,
        ticks: iters,
        ticks_per_s: per_s,
        sim_speedup: 0.0,
        events_per_s: 0.0,
        ticks_per_mop: per_s / mops.max(1e-9),
        delay_p50_s: 0.0,
        delay_p95_s: 0.0,
        delay_p99_s: 0.0,
        delivered_ratio: 0.0,
        actions: 0,
        recoveries: Vec::new(),
        merged_delay_p50_s: 0.0,
        merged_delay_p95_s: 0.0,
        merged_delay_p99_s: 0.0,
        xray_shares: Vec::new(),
        replay_p95_s: 0.0,
        compaction_mb: 0.0,
    }
}

/// One (repeat, scenario) cell of the benchmark grid.
#[derive(Debug, Clone, Copy)]
struct WorkUnit {
    round: u32,
    idx: usize,
}

/// What a worker sends back to the driver. Everything here is `Send`
/// plain data — the non-`Send` `MetricsHub` stays inside the worker,
/// which renders any requested text dumps before returning.
struct UnitOutcome {
    unit: WorkUnit,
    timed: TimedRepeat,
    /// This repeat's delivery-delay histogram shard.
    delay_shard: wasp_metrics::LogHistogram,
    /// Full result, kept only for the final round (summary row).
    result: Option<ExperimentResult>,
    /// Prometheus / CSV dumps of the worker's hub (final round only).
    prom: Option<String>,
    csv: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out = "BENCH_pr10.json".to_string();
    let mut baseline: Option<String> = None;
    let mut gate_pct = 15.0;
    let mut csv_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut repeat = 9u32;
    let mut jobs_arg: Option<usize> = None;
    let mut cfg = ScenarioConfig::default();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--repeat" => {
                repeat = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                cfg.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--jobs" => {
                jobs_arg = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--out" => out = it.next().unwrap_or_else(|| usage()),
            "--baseline" => baseline = Some(it.next().unwrap_or_else(|| usage())),
            "--gate" => {
                gate_pct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--csv" => csv_out = Some(it.next().unwrap_or_else(|| usage())),
            "--prom" => prom_out = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    // `--jobs 0` = one worker per available core; no flag = sequential.
    let jobs = wasp_parallel::resolve_jobs(jobs_arg);
    // Quick mode trades tick resolution for CI speed; the qualitative
    // behavior (adaptations, recoveries) survives the coarser dt, and
    // runs stay long enough (≥ ~50 ms) to time reliably.
    cfg.dt = if quick { 0.5 } else { 0.25 };

    // Warm-up calibration (discarded): first-touch effects land here.
    let _ = calibrate();

    let runs: &[(&str, ScenarioSpec)] = &[
        (
            "section_8_4_topk",
            ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp),
        ),
        (
            "section_8_4_advertising",
            ScenarioSpec::section_8_4(QueryKind::Advertising, ControllerKind::Wasp),
        ),
        (
            "section_8_5_topk",
            ScenarioSpec::section_8_5(ControllerKind::Wasp),
        ),
        (
            "section_8_6_live",
            ScenarioSpec::section_8_6(ControllerKind::Wasp),
        ),
        // The skewed-state rescue with runtime key-range splitting on:
        // keeps the split hot path and its downstream slice scheduling
        // under the regression gate.
        ("skewed_split_topk", ScenarioSpec::skewed_split(60.0)),
        // The delta chain: incremental checkpoints, round-count
        // compaction bursts, and three scripted failures replaying
        // whatever chain they find; the row carries the replay p95
        // and burst volume.
        (
            "compaction_topk",
            ScenarioSpec::compaction(
                wasp_state::CompactionPolicy::every_n_rounds(COMPACTION_EVERY_N_ROUNDS),
                48.0,
            ),
        ),
    ];
    // Scenarios are interleaved round-robin across the repeats (run
    // A,B,C,D then A,B,C,D again, …) so a burst of machine noise
    // spreads over every scenario's sample set instead of sinking one
    // scenario's whole median. Under `--jobs > 1` the same grid is
    // fanned across the pool in that submission order; `map_ordered`
    // hands the outcomes back in grid order, so the collection below
    // is identical however the cells were scheduled.
    let rounds = repeat.max(1);
    let units: Vec<WorkUnit> = (0..rounds)
        .flat_map(|round| (0..runs.len()).map(move |idx| WorkUnit { round, idx }))
        .collect();
    eprintln!(
        "running {} scenarios x {} repeats (seed {}, dt {}, jobs {})...",
        runs.len(),
        rounds,
        cfg.seed,
        cfg.dt,
        jobs,
    );
    let (seed, dt) = (cfg.seed, cfg.dt);
    let want_dumps = prom_out.is_some() || csv_out.is_some();
    let outcomes = wasp_parallel::map_ordered(units, jobs, |unit: WorkUnit| {
        // Each cell gets a private config and a private recording hub:
        // nothing mutable is shared between workers, so the simulated
        // results cannot depend on the schedule.
        let c = ScenarioConfig {
            seed,
            dt,
            metrics: MetricsHub::recording(10.0),
            // Attribution stays on while timing: the gated throughput
            // includes the x-ray overhead, so a regression in the
            // ledger path itself cannot hide from the gate.
            xray: Some(XRAY_DEFAULT_WINDOW_S),
            ..Default::default()
        };
        let mops = calibrate();
        let t0 = Instant::now();
        let r = run(&runs[unit.idx].1, &c);
        let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
        let timed = TimedRepeat {
            mops,
            wall_s,
            ticks: r.metrics.ticks().len() as u64,
        };
        // Conservation invariant, checked on every repeat: the
        // component ledgers must sum to the end-to-end delay.
        if let Some(x) = &r.xray {
            let err = x.conservation_error();
            if err > 1e-6 {
                eprintln!(
                    "CONSERVATION VIOLATION: {} components sum off by {err:.3e} (> 1e-6)",
                    runs[unit.idx].0
                );
                std::process::exit(1);
            }
        }
        let last_round = unit.round + 1 == rounds;
        UnitOutcome {
            unit,
            timed,
            delay_shard: r.metrics.delay_histogram().clone(),
            prom: (last_round && want_dumps).then(|| c.metrics.render_prometheus()),
            csv: (last_round && want_dumps).then(|| c.metrics.render_csv()),
            result: last_round.then_some(r),
        }
    });

    let mut scenarios = Vec::new();
    let mut calibration_mops = 0.0f64;
    let mut samples: Vec<Vec<TimedRepeat>> = vec![Vec::new(); runs.len()];
    let mut merged: Vec<wasp_metrics::LogHistogram> =
        vec![wasp_metrics::LogHistogram::default(); runs.len()];
    let mut results: Vec<Option<ExperimentResult>> = (0..runs.len()).map(|_| None).collect();
    let mut last_dumps: Option<(Option<String>, Option<String>)> = None;
    for o in outcomes {
        let i = o.unit.idx;
        samples[i].push(o.timed);
        merged[i].merge(&o.delay_shard);
        if let Some(r) = o.result {
            results[i] = Some(r);
            last_dumps = Some((o.prom, o.csv));
        }
    }
    for (i, (name, _)) in runs.iter().enumerate() {
        let result = results[i].take().expect("every scenario ran");
        let (bench, mops) = summarize_scenario(name, &samples[i], &result, &merged[i]);
        calibration_mops = calibration_mops.max(mops);
        eprintln!(
            "{name}: {:.2}s wall, {:.0} ticks/s ({:.0}x realtime), p95 {:.2}s, {} actions",
            bench.wall_s, bench.ticks_per_s, bench.sim_speedup, bench.delay_p95_s, bench.actions
        );
        for r in &bench.recoveries {
            eprintln!(
                "  failure at t={:.0}s recovered in {:.1}s",
                r.at_s, r.recovery_s
            );
        }
        scenarios.push(bench);
    }

    // Gated microbench: the partition-pipelined migration scheduler.
    let sched = bench_partition_scheduler();
    eprintln!(
        "{}: {:.0} schedules/s ({:.3} per Mop)",
        sched.name, sched.ticks_per_s, sched.ticks_per_mop
    );
    scenarios.push(sched);

    let report = BenchReport {
        version: 4,
        quick,
        seed: cfg.seed,
        dt: cfg.dt,
        calibration_mops,
        jobs,
        scenarios,
    };

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    if let Err(err) = std::fs::write(&out, json + "\n") {
        eprintln!("error: cannot write report to {out}: {err}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");

    // Optional metric dumps from the last scenario's final-round hub:
    // the full Prometheus exposition and the long-format CSV time
    // series (rendered inside the worker that owned the hub).
    if let Some((prom, csv)) = last_dumps {
        if let Some(path) = &prom_out {
            let text = prom.expect("prometheus dump rendered");
            if let Err(err) = std::fs::write(path, text) {
                eprintln!("error: cannot write prometheus dump to {path}: {err}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
        if let Some(path) = &csv_out {
            let text = csv.expect("csv dump rendered");
            if let Err(err) = std::fs::write(path, text) {
                eprintln!("error: cannot write csv dump to {path}: {err}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
    }

    if let Some(base_path) = baseline {
        let base: BenchReport = match std::fs::read_to_string(&base_path) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(base) => base,
                Err(err) => {
                    eprintln!(
                        "GATE FAILED: baseline {base_path} does not parse as a bench \
                         report ({err}); regenerate it with wasp-bench --out {base_path}"
                    );
                    std::process::exit(2);
                }
            },
            Err(err) => {
                eprintln!(
                    "GATE FAILED: baseline {base_path} is missing or unreadable ({err}); \
                     create it on the base commit with wasp-bench --quick --out {base_path}"
                );
                std::process::exit(2);
            }
        };
        if base.quick != report.quick {
            eprintln!(
                "warning: baseline quick={} vs run quick={} — comparison may be noisy",
                base.quick, report.quick
            );
        }
        let failures = gate_failures(&report, &base, gate_pct);
        if failures.is_empty() {
            eprintln!("regression gate passed (threshold -{gate_pct}%)");
        } else {
            for f in &failures {
                eprintln!("REGRESSION: {f}");
            }
            std::process::exit(1);
        }
    }
}
