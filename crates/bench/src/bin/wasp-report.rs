//! Replays a scenario with telemetry recording on and renders the
//! decision audit trail.
//!
//! ```text
//! wasp-report --scenario section_8_4 --seed 4
//! wasp-report --scenario section_8_5 --trace-out trace.json --jsonl run.jsonl
//! ```
//!
//! The report (decision audit, per-stage timeline, summary) goes to
//! stdout, or to `--report FILE`. `--trace-out` writes a Chrome
//! `about://tracing` JSON and `--jsonl` the raw event log. Because
//! every timestamp is sim-time, the same (scenario, seed, dt) always
//! produces byte-identical outputs.

use wasp_telemetry::Event;
use wasp_workloads::prelude::*;

fn usage() -> ! {
    eprintln!(
        "usage: wasp-report --scenario <section_8_4|section_8_5|section_8_6|skewed_state|compaction> \
         [--seed N] [--query <advertising|topk|events>] \
         [--controller <wasp|reassign|scale|replan|noadapt|degrade>] \
         [--dt SECS] [--control <oracle|lossy>] [--loss F] [--heartbeat SECS] \
         [--phi F] [--delay-factor F] [--state <coarse|partitioned>] [--partitions N] \
         [--zipf F] [--split-threshold F] [--state-mb F] [--compact-every N] \
         [--echo] [--trace-out FILE] [--jsonl FILE] [--report FILE] \
         [--xray] [--xray-window SECS] [--folded FILE]"
    );
    std::process::exit(2);
}

/// Flags that only some scenarios read, with those scenarios. Giving
/// one to any other scenario is a usage error rather than a silently
/// ignored flag.
const SCENARIO_FLAGS: [(&str, &[&str]); 4] = [
    ("--query", &["section_8_4"]),
    (
        "--controller",
        &["section_8_4", "section_8_5", "section_8_6"],
    ),
    ("--state-mb", &["skewed_state", "compaction"]),
    ("--compact-every", &["compaction"]),
];

/// Writes a report artifact, exiting with a diagnostic instead of a
/// panic backtrace when the path is not writable.
fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}

/// Renders the partitioned-state timeline: incremental checkpoint
/// rounds and per-partition migration slices, aggregated per operator.
/// Empty (and omitted from the report) when the run emitted no state
/// events — i.e. under the coarse model, which keeps every existing
/// report byte-identical.
fn state_timeline_section(rec: &Recording) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    // Per-op checkpoint aggregates, slice downtimes, and split events.
    let mut ckpt: BTreeMap<u32, (u64, f64, f64)> = BTreeMap::new(); // rounds, Σdelta, Σfull
    let mut downtimes: BTreeMap<Option<u32>, Vec<f64>> = BTreeMap::new();
    let mut slices_started: BTreeMap<Option<u32>, u64> = BTreeMap::new();
    struct SplitRow {
        t: f64,
        op: Option<u32>,
        parent: u32,
        child: u32,
        parent_mb: f64,
        left_mb: f64,
        right_mb: f64,
    }
    let mut splits: Vec<SplitRow> = Vec::new();
    // Chain/compaction timeline rows, chronological.
    let mut chain_rows: Vec<(f64, String)> = Vec::new();
    let mut compaction_mb: BTreeMap<u32, (u64, f64)> = BTreeMap::new(); // count, ΣMB
    for (t, _, ev) in rec.events() {
        match ev {
            Event::CheckpointDelta {
                op,
                delta_mb,
                full_mb,
                ..
            } => {
                let e = ckpt.entry(*op).or_insert((0, 0.0, 0.0));
                e.0 += 1;
                e.1 += delta_mb;
                e.2 += full_mb;
            }
            Event::PartitionSplit {
                op,
                parent,
                child,
                parent_mb,
                left_mb,
                right_mb,
            } => splits.push(SplitRow {
                t,
                op: *op,
                parent: *parent,
                child: *child,
                parent_mb: *parent_mb,
                left_mb: *left_mb,
                right_mb: *right_mb,
            }),
            Event::CheckpointCompaction {
                op,
                upload_mb,
                chain_rounds,
                trigger,
            } => {
                let e = compaction_mb.entry(*op).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += upload_mb;
                chain_rows.push((
                    t,
                    format!(
                        "op {op}: compaction ({trigger}) folds {chain_rounds} delta round(s) \
                         into a {upload_mb:.1} MB full snapshot"
                    ),
                ));
            }
            Event::RecoveryReplay {
                op,
                site,
                replay_mb,
                rounds,
                replay_s,
            } => chain_rows.push((
                t,
                format!(
                    "op {op}: recovery replay after site {site} failed: \
                     {replay_mb:.1} MB over {rounds} round(s) -> {replay_s:.1}s stall"
                ),
            )),
            Event::PartitionTransferStarted { op, .. } => {
                *slices_started.entry(*op).or_insert(0) += 1;
            }
            Event::PartitionTransferCompleted { op, downtime_s, .. } => {
                downtimes.entry(*op).or_default().push(*downtime_s);
            }
            _ => {}
        }
    }
    if ckpt.is_empty() && slices_started.is_empty() && splits.is_empty() && chain_rows.is_empty() {
        return String::new();
    }

    let mut out = String::new();
    let _ = writeln!(out);
    let _ = writeln!(out, "State timeline (partitioned keyed state)");
    let _ = writeln!(out, "----------------------------------------");
    for s in &splits {
        let label =
            s.op.map(|o| format!("op {o}"))
                .unwrap_or_else(|| "plan switch".to_string());
        let _ = writeln!(
            out,
            "t={:>7.1}s  {label}: partition {} split -> {}+{}: \
             {:.1} MB = {:.1} + {:.1} MB",
            s.t, s.parent, s.parent, s.child, s.parent_mb, s.left_mb, s.right_mb
        );
    }
    for (op, (rounds, delta, full)) in &ckpt {
        let ratio = if *full > 1e-12 { delta / full } else { 0.0 };
        let _ = writeln!(
            out,
            "op {op}: {rounds} incremental checkpoint round(s), {delta:.1} MB uploaded \
             of {full:.1} MB full snapshots ({:.0}% incremental saving)",
            (1.0 - ratio) * 100.0
        );
    }
    for (t, text) in &chain_rows {
        let _ = writeln!(out, "t={t:>7.1}s  {text}");
    }
    for (op, (count, mb)) in &compaction_mb {
        let _ = writeln!(
            out,
            "op {op}: {count} compaction(s), {mb:.1} MB of full-snapshot bursts \
             on the checkpoint path"
        );
    }
    for (op, started) in &slices_started {
        let label = op
            .map(|o| format!("op {o}"))
            .unwrap_or_else(|| "plan switch".to_string());
        let mut ds = downtimes.get(op).cloned().unwrap_or_default();
        ds.sort_by(|a, b| a.total_cmp(b));
        let q = |q: f64| -> f64 {
            if ds.is_empty() {
                return 0.0;
            }
            ds[((ds.len() as f64 - 1.0) * q).round() as usize]
        };
        let _ = writeln!(
            out,
            "{label}: {started} partition slice(s) migrated, {} completed; \
             per-partition downtime p50 {:.2}s p95 {:.2}s max {:.2}s",
            ds.len(),
            q(0.5),
            q(0.95),
            q(1.0),
        );
    }
    out
}

/// Renders the per-site control-plane failure timeline: for every site
/// the detector or the chaos script touched, the chronological chain
/// down → suspected → confirmed → emergency-applied → restored →
/// cleared, with the lag of each step behind its anchor. Empty (and
/// omitted from the report) when the run produced no detector or
/// control-channel events — i.e. under the oracle control plane.
fn failure_timeline(rec: &Recording) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;

    // Per-site rows: (t, text). Site names come from the events.
    let mut rows: BTreeMap<u32, Vec<(f64, String)>> = BTreeMap::new();
    let mut names: BTreeMap<u32, String> = BTreeMap::new();
    // Anchors for lag arithmetic.
    let mut down_at: BTreeMap<u32, f64> = BTreeMap::new();
    let mut confirmed_at: BTreeMap<u32, f64> = BTreeMap::new();
    // The most recent confirmation overall — emergency command applies
    // carry no site, so they are attributed to it.
    let mut last_confirmed: Option<u32> = None;
    let (mut enqueued, mut dropped, mut applied, mut stale, mut retries, mut gave_up) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut saw_control_plane = false;

    for (t, _, ev) in rec.events() {
        match ev {
            Event::SiteDown { site, name } => {
                names.entry(*site).or_insert_with(|| name.clone());
                down_at.insert(*site, t);
                rows.entry(*site).or_default().push((t, "down".to_string()));
            }
            Event::SiteRestored { site, name } => {
                names.entry(*site).or_insert_with(|| name.clone());
                let lag = down_at
                    .remove(site)
                    .map(|d| format!(" (outage {:.1}s)", t - d))
                    .unwrap_or_default();
                confirmed_at.remove(site);
                rows.entry(*site)
                    .or_default()
                    .push((t, format!("restored{lag}")));
            }
            Event::SiteSuspected { site, name, phi } => {
                saw_control_plane = true;
                names.entry(*site).or_insert_with(|| name.clone());
                let lag = down_at
                    .get(site)
                    .map(|d| format!(", +{:.1}s after down", t - d))
                    .unwrap_or_default();
                rows.entry(*site)
                    .or_default()
                    .push((t, format!("suspected (phi {phi:.1}{lag})")));
            }
            Event::SiteConfirmedDown {
                site,
                name,
                silent_s,
            } => {
                saw_control_plane = true;
                names.entry(*site).or_insert_with(|| name.clone());
                confirmed_at.insert(*site, t);
                last_confirmed = Some(*site);
                let lag = down_at
                    .get(site)
                    .map(|d| format!(", detection lag {:.1}s", t - d))
                    .unwrap_or_default();
                rows.entry(*site)
                    .or_default()
                    .push((t, format!("confirmed down (silent {silent_s:.0}s{lag})")));
            }
            Event::SiteCleared { site, name } => {
                saw_control_plane = true;
                names.entry(*site).or_insert_with(|| name.clone());
                confirmed_at.remove(site);
                rows.entry(*site)
                    .or_default()
                    .push((t, "cleared (heartbeat resumed)".to_string()));
            }
            Event::ControlCommandEnqueued { .. } => {
                saw_control_plane = true;
                enqueued += 1;
            }
            Event::ControlCommandDropped { .. } => dropped += 1,
            Event::ControlCommandDelivered {
                label,
                applied: true,
                ..
            } => {
                applied += 1;
                if label.starts_with("emergency") {
                    if let Some(site) = last_confirmed {
                        let lag = confirmed_at
                            .get(&site)
                            .map(|c| format!(", +{:.1}s after confirmation", t - c))
                            .unwrap_or_default();
                        rows.entry(site)
                            .or_default()
                            .push((t, format!("emergency applied: {label}{lag}")));
                    }
                }
            }
            Event::StaleEpochRejected { .. } => stale += 1,
            Event::ControlRetry { .. } => retries += 1,
            Event::ControlGaveUp { .. } => gave_up += 1,
            _ => {}
        }
    }
    if !saw_control_plane {
        return String::new();
    }

    let mut out = String::new();
    let _ = writeln!(out);
    let _ = writeln!(out, "Control-plane failure timeline");
    let _ = writeln!(out, "------------------------------");
    for (site, mut events) in rows {
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let name = names
            .get(&site)
            .cloned()
            .unwrap_or_else(|| format!("site-{site}"));
        let _ = writeln!(out, "{name}:");
        for (t, text) in events {
            let _ = writeln!(out, "  t={t:>7.1}s  {text}");
        }
    }
    let _ = writeln!(
        out,
        "commands: {enqueued} enqueued, {dropped} messages dropped, {applied} applied, \
         {stale} stale-epoch rejected, {retries} retries, {gave_up} abandoned"
    );
    out
}

/// Renders the SLO/metrics summary appended to the audit report: the
/// per-query delay quantiles, throughput, recovery times, and the
/// controller/engine instruments scraped by the metrics hub.
fn metrics_summary(result: &ExperimentResult, hub: &MetricsHub) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &result.metrics;
    let sim_s = m.ticks().last().map(|r| r.t).unwrap_or(0.0);
    let q = |p: f64| m.delay_quantile(p).unwrap_or(0.0);
    let _ = writeln!(out);
    let _ = writeln!(out, "Metrics summary");
    let _ = writeln!(out, "---------------");
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "query", "p50 (s)", "p95 (s)", "p99 (s)", "sink ev/s", "dropped"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>9.2} {:>9.2} {:>9.2} {:>12.1} {:>8.1}%",
        result.query,
        q(0.5),
        q(0.95),
        q(0.99),
        m.total_delivered() / sim_s.max(1e-9),
        m.dropped_fraction() * 100.0
    );
    let recoveries = recovery_times(m);
    if !recoveries.is_empty() {
        let _ = writeln!(out);
        for (at, rec_s) in &recoveries {
            let _ = writeln!(out, "failure at t={at:.0}s: recovered in {rec_s:.1}s");
        }
    }
    let snaps = hub.snapshots();
    if !snaps.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "Instruments (final values)");
        for s in snaps
            .iter()
            .filter(|s| !s.family.starts_with("wasp_op_") && !s.family.starts_with("wasp_link_"))
        {
            match s.summary {
                Some((p50, p95, p99, _, _)) => {
                    let _ = writeln!(
                        out,
                        "  {:<44} {:>12.3} (p50 {p50:.3} p95 {p95:.3} p99 {p99:.3})",
                        s.display_name(),
                        s.value,
                    );
                }
                None => {
                    let _ = writeln!(out, "  {:<44} {:>12.3}", s.display_name(), s.value);
                }
            }
        }
    }
    out
}

/// Renders the `--xray` latency-attribution section: overall component
/// shares, the conservation check, top-k critical paths per reporting
/// window, the heaviest WAN links, and control-plane adaptation lag.
fn xray_section(run: &wasp_xray::XrayRun) -> String {
    use std::fmt::Write as _;
    use wasp_xray::Component;

    let mut out = String::new();
    let _ = writeln!(out);
    let _ = writeln!(out, "Latency attribution (x-ray)");
    let _ = writeln!(out, "---------------------------");

    let shares = run.shares();
    let mut line = String::from("end-to-end delay shares:");
    for (i, comp) in Component::ALL.iter().enumerate() {
        let _ = write!(line, " {} {:.1}%", comp.label(), shares[i] * 100.0);
    }
    let _ = writeln!(out, "{line}");
    let _ = writeln!(
        out,
        "conservation: components sum to delay within {:.2e} relative error",
        run.conservation_error()
    );

    for w in &run.windows {
        let paths = run.critical_paths(w, 3);
        if paths.is_empty() {
            continue;
        }
        // `+ 0.0` normalizes an IEEE negative zero from empty windows.
        let delivered: f64 = w.sinks.iter().map(|s| s.count).sum::<f64>().max(0.0) + 0.0;
        let _ = writeln!(
            out,
            "\nwindow [{:.0}s, {:.0}s): {delivered:.0} events delivered",
            w.start_s,
            w.start_s + run.window_s
        );
        for (rank, p) in paths.iter().enumerate() {
            let chain = p
                .ops
                .iter()
                .map(|op| run.op_name(*op))
                .collect::<Vec<_>>()
                .join(" -> ");
            let mut split = String::new();
            for (i, comp) in Component::ALL.iter().enumerate() {
                let pct = if p.total > 1e-12 {
                    p.comps[i] / p.total * 100.0
                } else {
                    0.0
                };
                if pct >= 0.05 {
                    let _ = write!(split, " {} {:.1}%", comp.label(), pct);
                }
            }
            let _ = writeln!(
                out,
                "  #{} {chain}  ({:.1} ev·s:{split})",
                rank + 1,
                p.total
            );
        }
    }

    let mut links: Vec<_> = run.links.iter().collect();
    links.sort_by(|a, b| b.seconds.total_cmp(&a.seconds));
    if !links.is_empty() {
        let _ = writeln!(out, "\ntop WAN links by transit:");
        for l in links.iter().take(5) {
            let mean_ms = if l.events > 0.0 {
                l.seconds / l.events * 1e3
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {} -> {}: {:.1} ev·s over {:.0} events ({mean_ms:.1} ms/event)",
                run.site_name(l.from_site),
                run.site_name(l.to_site),
                l.seconds,
                l.events
            );
        }
    }

    if !run.adaptation.is_empty() {
        let n = run.adaptation.len();
        let mean: f64 = run.adaptation.iter().map(|(_, lag)| lag).sum::<f64>() / n as f64;
        let worst = run
            .adaptation
            .iter()
            .map(|(_, lag)| *lag)
            .fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "\ncontrol-plane adaptation lag: {n} actions, mean {mean:.2}s, max {worst:.2}s"
        );
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scenario: Option<String> = None;
    let mut query = QueryKind::TopK;
    let mut controller = ControllerKind::Wasp;
    let mut cfg = ScenarioConfig::default();
    let mut echo = false;
    let mut trace_out: Option<String> = None;
    let mut jsonl_out: Option<String> = None;
    let mut report_out: Option<String> = None;
    let mut folded_out: Option<String> = None;
    let mut lossy = false;
    let mut lossy_cfg = LossyControlConfig::default();
    let mut partitioned = false;
    let mut pcfg = wasp_state::PartitionConfig::default();
    let mut state_mb = 60.0f64;
    let mut compact_every = COMPACTION_EVERY_N_ROUNDS;
    // Flags that only some scenarios read, as given on the command line.
    let mut given: Vec<&'static str> = Vec::new();

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--control" => {
                lossy = match it.next().as_deref() {
                    Some("oracle") => false,
                    Some("lossy") => true,
                    _ => usage(),
                }
            }
            // The channel knobs imply --control lossy.
            "--loss" => {
                lossy = true;
                lossy_cfg.loss = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--heartbeat" => {
                lossy = true;
                lossy_cfg.heartbeat_period_s = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--phi" => {
                lossy = true;
                lossy_cfg.phi_threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--delay-factor" => {
                lossy = true;
                lossy_cfg.delay_factor = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scenario" => scenario = Some(it.next().unwrap_or_else(|| usage())),
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
            "--query" => {
                given.push("--query");
                query = match it.next().as_deref() {
                    Some("advertising") | Some("ysb") => QueryKind::Advertising,
                    Some("topk") => QueryKind::TopK,
                    Some("events") | Some("eoi") => QueryKind::EventsOfInterest,
                    _ => usage(),
                }
            }
            "--controller" => {
                given.push("--controller");
                controller = match it.next().as_deref() {
                    Some("wasp") => ControllerKind::Wasp,
                    Some("reassign") => ControllerKind::ReassignOnly,
                    Some("scale") => ControllerKind::ScaleOnly,
                    Some("replan") => ControllerKind::ReplanOnly,
                    Some("noadapt") => ControllerKind::NoAdapt,
                    Some("degrade") => ControllerKind::Degrade,
                    _ => usage(),
                }
            }
            "--state" => {
                partitioned = match it.next().as_deref() {
                    Some("coarse") => false,
                    Some("partitioned") => true,
                    _ => usage(),
                }
            }
            // The partition knobs imply --state partitioned.
            "--partitions" => {
                partitioned = true;
                pcfg.partitions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--zipf" => {
                partitioned = true;
                pcfg.zipf_exponent = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            // Runtime key-range splitting; implies --state partitioned.
            "--split-threshold" => {
                partitioned = true;
                pcfg.split_threshold = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|f: &f64| f.is_finite() && *f > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--state-mb" => {
                given.push("--state-mb");
                state_mb = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            // Compaction round-count trigger for --scenario compaction;
            // 0 runs the unbounded-chain control arm.
            "--compact-every" => {
                given.push("--compact-every");
                compact_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--echo" => echo = true,
            "--xray" => {
                cfg.xray.get_or_insert(XRAY_DEFAULT_WINDOW_S);
            }
            // Implies --xray.
            "--xray-window" => {
                cfg.xray = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|w: &f64| w.is_finite() && *w > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            // Folded-stacks export (flamegraph.pl / inferno input); implies --xray.
            "--folded" => {
                cfg.xray.get_or_insert(XRAY_DEFAULT_WINDOW_S);
                folded_out = Some(it.next().unwrap_or_else(|| usage()));
            }
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| usage())),
            "--jsonl" => jsonl_out = Some(it.next().unwrap_or_else(|| usage())),
            "--report" => report_out = Some(it.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let scenario = scenario.unwrap_or_else(|| usage());
    for (flag, scenarios) in SCENARIO_FLAGS {
        if given.contains(&flag) && !scenarios.contains(&scenario.as_str()) {
            eprintln!(
                "error: {flag} does not apply to --scenario {scenario} (only to {})",
                scenarios.join(", ")
            );
            usage();
        }
    }
    if lossy {
        // The control channel draws from its own RNG stream, but keyed
        // off the scenario seed so --seed N reproduces everything.
        lossy_cfg.seed = cfg.seed;
        cfg.control = ControlPlaneConfig::Lossy(lossy_cfg);
    }

    let (tel, rec) = if echo {
        Telemetry::recording_echo()
    } else {
        Telemetry::recording()
    };
    cfg.telemetry = tel;
    let hub = MetricsHub::recording(10.0);
    cfg.metrics = hub.clone();

    let state = if partitioned {
        wasp_state::StateModel::Partitioned(pcfg)
    } else {
        wasp_state::StateModel::Coarse
    };
    let with_state = |spec: ScenarioSpec| ScenarioSpec { state, ..spec };
    let spec = match scenario.as_str() {
        "section_8_4" => with_state(ScenarioSpec::section_8_4(query, controller)),
        "section_8_5" => with_state(ScenarioSpec::section_8_5(controller)),
        "section_8_6" => with_state(ScenarioSpec::section_8_6(controller)),
        "skewed_state" => ScenarioSpec::skewed_state(state, state_mb),
        "compaction" => {
            let policy = if compact_every == 0 {
                wasp_state::CompactionPolicy::unbounded()
            } else {
                wasp_state::CompactionPolicy::every_n_rounds(compact_every)
            };
            // Always partitioned; the partition knobs still apply.
            let state = wasp_state::StateModel::Partitioned(wasp_state::PartitionConfig {
                compaction: policy,
                ..pcfg
            });
            ScenarioSpec {
                state,
                ..ScenarioSpec::compaction(policy, state_mb)
            }
        }
        _ => usage(),
    };
    let result = run(&spec, &cfg);
    let skewed_note = match scenario.as_str() {
        "skewed_state" => format!(
            "\nskewed-state experiment ({} MB stage, {} model): \
             p95 per-key migration downtime {:.2}s\n",
            state_mb,
            result.label,
            result.downtime_p95_s()
        ),
        "compaction" => format!(
            "\ncompaction experiment ({} MB stage, {} chain): \
             recovery replay p95 {:.2}s, {:.1} MB of full-snapshot bursts\n",
            state_mb,
            result.label,
            result.replay_p95_s(),
            result.compaction_mb()
        ),
        _ => String::new(),
    };

    let recording = rec.recording();
    let control_tag = match &cfg.control {
        ControlPlaneConfig::Oracle => String::new(),
        ControlPlaneConfig::Lossy(c) => format!(
            " control=lossy(loss={} hb={}s phi={})",
            c.loss, c.heartbeat_period_s, c.phi_threshold
        ),
    };
    let title = format!(
        "{scenario} — {} [{}] seed={} dt={}{control_tag}",
        result.query, result.label, cfg.seed, cfg.dt
    );
    let progress = Telemetry::stderr();
    let done = recording.end_time();

    if let Some(path) = &trace_out {
        match to_chrome_trace(&recording) {
            Ok(trace) => write_or_die(path, &trace, "chrome trace"),
            Err(e) => {
                eprintln!("error: cannot serialize chrome trace: {e}");
                std::process::exit(1);
            }
        }
        progress.note(done, || {
            format!("wrote chrome trace to {path} (open via about://tracing or ui.perfetto.dev)")
        });
    }
    if let Some(path) = &jsonl_out {
        match to_jsonl(&recording) {
            Ok(log) => write_or_die(path, &log, "jsonl log"),
            Err(e) => {
                eprintln!("error: cannot serialize jsonl log: {e}");
                std::process::exit(1);
            }
        }
        progress.note(done, || format!("wrote event log to {path}"));
    }
    if let Some(path) = &folded_out {
        let stacks = result
            .xray
            .as_ref()
            .map(|run| run.folded_stacks())
            .unwrap_or_default();
        write_or_die(path, &stacks, "folded stacks");
        progress.note(done, || {
            format!("wrote folded stacks to {path} (render via inferno/flamegraph.pl)")
        });
    }

    let mut report = render_report(&recording, &title);
    report.push_str(&metrics_summary(&result, &hub));
    report.push_str(&skewed_note);
    report.push_str(&state_timeline_section(&recording));
    report.push_str(&failure_timeline(&recording));
    if let Some(run) = &result.xray {
        report.push_str(&xray_section(run));
    }
    match &report_out {
        Some(path) => {
            write_or_die(path, &report, "report");
            progress.note(done, || format!("wrote report to {path}"));
        }
        None => print!("{report}"),
    }
}
