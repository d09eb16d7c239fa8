//! The traced run: timers around each layer's public entry points,
//! host-clock spans kept in memory, and the per-layer metrics.
//!
//! Passes over the campaign of the untraced run, or its first seeds
//! (the workload's extra seeds):
//! 1. untraced, first seeds — the digest reference and the untraced tick
//!    rate, each run just before its traced twin so both see the same
//!    host;
//! 2. traced — a timer around every `Engine::step` and every
//!    `Controller::on_monitor`, link usage read after each step, set-up
//!    phases from the run's own marks; digests must match pass 1;
//! 3. spans — the first seeds again with a host-clock telemetry sink on
//!    the controller, which times its monitor-round, emergency-round,
//!    diagnosis, decide and apply spans and counts candidates and
//!    applied commands; the first seed's spans go to `--trace-out`;
//! 4. toggles — the first seeds with observability off, then with
//!    x-ray, the metrics hub and telemetry each on alone;
//! 5. the solver timings and the calibration loop.

use crate::calibration::Calibrator;
use crate::campaign::{execute, execute_plain, HostTimes, Metric, Outcome, Tally, Workload};
use crate::scenario::{Hooks, Observe, DT};
use crate::solvers::solver_metrics;
use crate::stats::quantile;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;
use wasp_core::controller::Controller;
use wasp_streamsim::engine::Engine;
use wasp_telemetry::{Event, SpanId, Telemetry, TelemetrySink};

/// How much work each pass of the traced run does.
pub struct Plan {
    /// Seeds of the untraced and traced passes.
    pub seeds: u64,
    /// Seeds of the span pass and of the toggle pass.
    pub extra_seeds: u64,
    /// Calls of the fastest solvers (see `solver_metrics`).
    pub solver_calls: u32,
}

impl Plan {
    pub fn full(w: Workload) -> Plan {
        Plan {
            seeds: w.seeds(),
            extra_seeds: w.extra_seeds(),
            solver_calls: 2000,
        }
    }
}

/// A closed span in host time.
#[derive(Debug)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
    end: Instant,
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    name: String,
    start: Instant,
    /// Time covered by already-closed direct children.
    child_s: f64,
}

/// Host-clock spans: total and self time per span name, plus the spans
/// themselves while `keep` is set.
#[derive(Debug)]
struct SpanLog {
    epoch: Instant,
    keep: bool,
    kept: Vec<Span>,
    open: Vec<OpenSpan>,
    next_id: u64,
    /// Span name → (total seconds, self seconds).
    busy: BTreeMap<String, (f64, f64)>,
    candidates: u64,
    applied: u64,
}

impl SpanLog {
    fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            keep: false,
            kept: Vec::new(),
            open: Vec::new(),
            next_id: 0,
            busy: BTreeMap::new(),
            candidates: 0,
            applied: 0,
        }
    }

    fn begin_at(&mut self, name: &str, at: Instant) -> u64 {
        self.next_id += 1;
        self.open.push(OpenSpan {
            id: self.next_id,
            name: name.to_string(),
            start: at,
            child_s: 0.0,
        });
        self.next_id
    }

    fn end_at(&mut self, id: u64, at: Instant) {
        let Some(pos) = self.open.iter().rposition(|s| s.id == id) else {
            return;
        };
        let s = self.open.remove(pos);
        let dur = (at - s.start).as_secs_f64();
        let parent = self.open.last_mut().map(|p| {
            p.child_s += dur;
            p.id
        });
        let entry = self.busy.entry(s.name.clone()).or_insert((0.0, 0.0));
        entry.0 += dur;
        entry.1 += dur - s.child_s;
        if self.keep {
            self.kept.push(Span {
                id: s.id,
                parent,
                name: s.name,
                start: s.start,
                end: at,
            });
        }
    }

    fn closed(&mut self, name: &str, start: Instant, end: Instant) {
        let id = self.begin_at(name, start);
        self.end_at(id, end);
    }

    fn busy_s(&self, name: &str) -> (f64, f64) {
        self.busy.get(name).copied().unwrap_or((0.0, 0.0))
    }

    /// The kept spans as Chrome-trace JSON (complete events, µs).
    fn chrome_trace(&self) -> String {
        let mut spans: Vec<&Span> = self.kept.iter().collect();
        spans.sort_by_key(|s| (s.start, s.id));
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let ts = (s.start - self.epoch).as_secs_f64() * 1e6;
            let dur = (s.end - s.start).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {ts:.3}, \
                 \"dur\": {dur:.3}, \"args\": {{\"id\": {}, \"parent\": {parent}}}}}{}",
                s.name.replace('"', "'"),
                s.id,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A telemetry sink on the host clock: the controller's spans become
/// host-time spans in the shared log, and two audit events are counted.
#[derive(Debug)]
struct HostSink(Rc<RefCell<SpanLog>>);

impl TelemetrySink for HostSink {
    fn record(&mut self, _t: f64, event: Event) {
        let mut log = self.0.borrow_mut();
        match event {
            Event::CandidateConsidered { .. } => log.candidates += 1,
            Event::CommandApplied { .. } => log.applied += 1,
            _ => {}
        }
    }

    fn span_begin(&mut self, _t: f64, name: &str) -> SpanId {
        SpanId(self.0.borrow_mut().begin_at(name, Instant::now()))
    }

    fn span_end(&mut self, _t: f64, id: SpanId) {
        self.0.borrow_mut().end_at(id.0, Instant::now());
    }
}

/// Timers around `Engine::step` and `Controller::on_monitor`, and the
/// per-tick netsim and engine readings.
struct Ledger {
    log: Rc<RefCell<SpanLog>>,
    step_us: Vec<f64>,
    transition_us: Vec<f64>,
    round_us: Vec<f64>,
    actions: usize,
    tasks: f64,
    active_links: u64,
    wan_mb: f64,
}

impl Ledger {
    fn new(log: Rc<RefCell<SpanLog>>) -> Ledger {
        Ledger {
            log,
            step_us: Vec::new(),
            transition_us: Vec::new(),
            round_us: Vec::new(),
            actions: 0,
            tasks: 0.0,
            active_links: 0,
            wan_mb: 0.0,
        }
    }

    fn step_busy_s(&self) -> f64 {
        self.step_us.iter().sum::<f64>() / 1e6
    }

    fn round_busy_s(&self) -> f64 {
        self.round_us.iter().sum::<f64>() / 1e6
    }
}

impl Hooks for Ledger {
    fn step(&mut self, engine: &mut Engine) {
        let in_transition = engine.in_transition();
        let t0 = Instant::now();
        engine.step();
        let t1 = Instant::now();
        let us = (t1 - t0).as_secs_f64() * 1e6;
        self.step_us.push(us);
        if in_transition {
            self.transition_us.push(us);
        }
        let mut log = self.log.borrow_mut();
        if log.keep {
            log.closed("engine.step", t0, t1);
        }
        for &mbps in engine.last_link_usage().values().filter(|&&m| m > 0.0) {
            self.active_links += 1;
            self.wan_mb += mbps * DT / 8.0;
        }
        if let Some(row) = engine.metrics().ticks().last() {
            self.tasks += f64::from(row.total_tasks);
        }
    }

    fn round(&mut self, engine: &mut Engine, controller: &mut dyn Controller) {
        let before = engine.metrics().actions().len();
        // A kept round span parents the controller's own spans.
        let id = {
            let mut log = self.log.borrow_mut();
            log.keep
                .then(|| log.begin_at("controller.round", Instant::now()))
        };
        let t0 = Instant::now();
        controller.on_monitor(engine);
        let t1 = Instant::now();
        if let Some(id) = id {
            self.log.borrow_mut().end_at(id, t1);
        }
        self.round_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.actions += engine.metrics().actions().len() - before;
    }
}

/// What the traced run reports.
pub struct Traced {
    pub tally: Tally,
    /// The simulated outcome of the traced pass: its digest must equal
    /// the untraced run's for the same seed.
    pub outcome: Outcome,
    pub metrics: Vec<Metric>,
    /// The first seed's spans of the span pass, as Chrome-trace JSON.
    pub chrome_trace: String,
}

/// Runs the traced passes and returns the per-layer metrics in
/// `BENCHMARK.json` order.
pub fn layers(w: Workload, seed: u64, plan: &Plan) -> Traced {
    let obs = w.observe();
    let units = w.units(seed, plan.seeds);
    let extra = w.units(seed, plan.extra_seeds.min(plan.seeds));
    let mut tally = Tally::default();
    tally.count(units[0], execute_plain(units[0], obs));

    // 1–2. The campaign traced; each run of the extra seeds also runs
    //      untraced just before, for the reference digest and a
    //      time-paired untraced tick rate.
    let mut plain = HostTimes::default();
    let mut reference = Vec::new();
    let mut ledger = Ledger::new(Rc::new(RefCell::new(SpanLog::new())));
    let mut traced = HostTimes::default();
    let mut traced_extra = HostTimes::default();
    let mut outcome = Outcome::default();
    let mut setup_us: [Vec<f64>; 3] = Default::default();
    let (mut generated, mut delta_mb, mut compaction_mb) = (0.0, 0.0, 0.0);
    let (mut replays, mut downtimes) = (Vec::new(), Vec::new());
    let mut run_wall_s = 0.0;
    for (i, &u) in units.iter().enumerate() {
        if i < extra.len() {
            let r = tally.count(u, execute_plain(u, obs));
            if let Some(r) = &r {
                plain.add(i, r, 1.0);
            }
            reference.push(r.map_or(0, |r| r.digest));
        }
        let r = tally.count(
            u,
            execute(u, obs, Telemetry::disabled(), &mut ledger, |_| {}),
        );
        outcome.add(r.as_ref());
        let Some(r) = r else { continue };
        if let Some(&d) = reference.get(i) {
            tally.expect_digest(u, d, r.digest);
            traced_extra.add(i, &r, 1.0);
        }
        traced.add(i, &r, 1.0);
        run_wall_s += (r.loop_end - r.built_at[0]).as_secs_f64();
        for (k, v) in setup_us.iter_mut().enumerate() {
            v.push((r.built_at[k + 1] - r.built_at[k]).as_secs_f64() * 1e6);
        }
        generated += r.metrics.total_generated();
        delta_mb += r.timeline.total_delta_mb();
        compaction_mb += r.timeline.total_compaction_mb();
        replays.extend(r.timeline.replays.iter().map(|x| x.replay_s));
        downtimes.extend(r.timeline.partition_downtimes());
    }
    let step_busy = ledger.step_busy_s();
    let round_busy = ledger.round_busy_s();
    let setup_s: f64 = traced.setup_s.iter().sum();
    eprintln!(
        "trace coverage: step {step_busy:.3} s + round {round_busy:.3} s + setup {setup_s:.3} s \
         = {:.2}% of {run_wall_s:.3} s run wall time",
        (step_busy + round_busy + setup_s) / run_wall_s.max(1e-12) * 100.0
    );

    // 3. Spans.
    let log = Rc::new(RefCell::new(SpanLog::new()));
    let mut span_ledger = Ledger::new(log.clone());
    let sink = Telemetry::from_sink(Rc::new(RefCell::new(HostSink(log.clone()))));
    for (i, &u) in extra.iter().enumerate() {
        let keep = u.1 == seed;
        log.borrow_mut().keep = keep;
        let mut run_span = None;
        let result = execute(u, Observe::OFF, sink.clone(), &mut span_ledger, |b| {
            if keep {
                let mut l = log.borrow_mut();
                let id = l.begin_at(&format!("run {} seed={}", u.0.name(), u.1), b.marks[0]);
                for (k, name) in ["setup.testbed", "setup.deploy", "setup.engine_new"]
                    .iter()
                    .enumerate()
                {
                    l.closed(name, b.marks[k], b.marks[k + 1]);
                }
                run_span = Some(id);
            }
        });
        if let Some(id) = run_span {
            let end = result
                .as_ref()
                .map_or_else(|_| Instant::now(), |r| r.loop_end);
            log.borrow_mut().end_at(id, end);
        }
        if let Some(r) = tally.count(u, result) {
            tally.expect_digest(u, reference[i], r.digest);
        }
    }
    let spans = log.borrow();
    let (round_total, round_self) = spans.busy_s("monitor-round");
    let emergency = spans.busy_s("emergency-round").0;

    // 4. Toggles: observability off, then each layer on alone.
    let configs = [
        Observe::OFF,
        Observe {
            xray: true,
            ..Observe::OFF
        },
        Observe {
            metrics: true,
            ..Observe::OFF
        },
        Observe {
            telemetry: true,
            ..Observe::OFF
        },
    ];
    let mut toggle_loop_s = [0.0f64; 4];
    let (mut conservation_max, mut tel_events, mut tel_runs) = (0.0f64, 0usize, 0usize);
    for (i, &u) in extra.iter().enumerate() {
        for (k, &cfg) in configs.iter().enumerate() {
            let Some(r) = tally.count(u, execute_plain(u, cfg)) else {
                continue;
            };
            tally.expect_digest(u, reference[i], r.digest);
            toggle_loop_s[k] += r.loop_s();
            conservation_max = conservation_max.max(r.xray_err.unwrap_or(0.0));
            if cfg.telemetry {
                tel_events += r.telemetry_events;
                tel_runs += 1;
            }
        }
    }
    let overhead = |k: usize| toggle_loop_s[k] / toggle_loop_s[0].max(1e-12) - 1.0;

    let count = |n: usize| n as f64;
    let mut metrics: Vec<Metric> = vec![
        ("setup.testbed_us_p50", "us", quantile(&setup_us[0], 0.5)),
        ("setup.deploy_us_p50", "us", quantile(&setup_us[1], 0.5)),
        ("setup.engine_new_us_p50", "us", quantile(&setup_us[2], 0.5)),
        ("engine.step.count", "count", count(ledger.step_us.len())),
        ("engine.step.busy_s", "s", step_busy),
        (
            "engine.step.share",
            "frac",
            step_busy / traced.loop_s().max(1e-12),
        ),
        ("engine.step.us_p50", "us", quantile(&ledger.step_us, 0.5)),
        ("engine.step.us_p99", "us", quantile(&ledger.step_us, 0.99)),
        (
            "engine.step.transition_count",
            "count",
            count(ledger.transition_us.len()),
        ),
        (
            "engine.step.transition_us_p50",
            "us",
            quantile(&ledger.transition_us, 0.5),
        ),
        (
            "engine.tasks_mean",
            "count",
            ledger.tasks / traced.ticks().max(1) as f64,
        ),
        (
            "engine.events_per_busy_s",
            "1/s",
            generated / step_busy.max(1e-12),
        ),
        (
            "netsim.active_links_mean",
            "count",
            ledger.active_links as f64 / traced.ticks().max(1) as f64,
        ),
        ("netsim.wan_mb", "MB", ledger.wan_mb),
        (
            "controller.round.count",
            "count",
            count(ledger.round_us.len()),
        ),
        ("controller.round.busy_s", "s", round_busy),
        (
            "controller.round.share",
            "frac",
            round_busy / traced.loop_s().max(1e-12),
        ),
        (
            "controller.round.us_p50",
            "us",
            quantile(&ledger.round_us, 0.5),
        ),
        (
            "controller.round.us_p99",
            "us",
            quantile(&ledger.round_us, 0.99),
        ),
        ("controller.actions", "count", count(ledger.actions)),
        (
            "controller.diagnosis.busy_s",
            "s",
            spans.busy_s("diagnosis").0,
        ),
        ("controller.decide.busy_s", "s", spans.busy_s("decide").0),
        ("controller.apply.busy_s", "s", spans.busy_s("apply").0),
        (
            "controller.emergency.share",
            "frac",
            emergency / round_total.max(1e-12),
        ),
        ("controller.round.self_s", "s", round_self),
        ("controller.candidates", "count", spans.candidates as f64),
        (
            "controller.applied_per_candidate",
            "ratio",
            spans.applied as f64 / spans.candidates.max(1) as f64,
        ),
    ];
    metrics.extend(solver_metrics(seed, plan.solver_calls));
    let cal = Calibrator::new();
    let calibration: Vec<f64> = (0..5).map(|_| cal.sample(2_000_000)).collect();
    metrics.extend([
        ("state.delta_mb", "MB", delta_mb),
        ("state.compaction_mb", "MB", compaction_mb),
        ("state.replay_s_p95", "sim_s", quantile(&replays, 0.95)),
        ("state.downtime_s_p95", "sim_s", quantile(&downtimes, 0.95)),
        (
            "recovery_s_p50",
            "sim_s",
            quantile(&outcome.recoveries, 0.5),
        ),
        ("xray.overhead_frac", "frac", overhead(1)),
        ("metrics.overhead_frac", "frac", overhead(2)),
        ("telemetry.overhead_frac", "frac", overhead(3)),
        ("xray.conservation_err_max", "frac", conservation_max),
        (
            "telemetry.events_per_run",
            "count",
            tel_events as f64 / tel_runs.max(1) as f64,
        ),
        (
            "trace.overhead_frac",
            "frac",
            plain.ticks_per_s() / traced_extra.ticks_per_s().max(1e-12) - 1.0,
        ),
        (
            "host.calibration_mops",
            "Mop/s",
            quantile(&calibration, 0.5),
        ),
        ("host.peak_rss_mb", "MB", peak_rss_mb()),
    ]);
    Traced {
        tally,
        outcome,
        metrics,
        chrome_trace: spans.chrome_trace(),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
