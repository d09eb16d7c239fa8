//! # Determinism and differential harness
//!
//! The engine's contract is *bit-identity*: a run is byte-for-byte
//! reproducible, and every opt-in feature switched off is byte-for-byte
//! the path without it — same `RunMetrics` (every tick row, the full
//! delay histogram, the annotation audit), same monitor snapshot
//! stream, same controller decision log. This suite checks it three
//! ways:
//!
//! 1. every section-8 scenario (§8.4 both queries, §8.5, §8.6) under
//!    its real controller, with x-ray conservation and with the
//!    state-model, splitting and compaction switches spelled out
//!    explicitly, comparing canonical JSON of the recording and the
//!    telemetry decision audit against the default configuration;
//! 2. a seeded chaos campaign (crashes, flaps, blackouts, stragglers
//!    via `ChaosInjector`) run twice, comparing recordings *and*
//!    snapshot streams;
//! 3. a fluid-engine ↔ `exact_engine` regression pinning the
//!    delay/throughput agreement on the three paper queries.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wasp_netsim::chaos::{ChaosConfig, ChaosInjector};
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::network::Network;
use wasp_netsim::site::{SiteId, SiteKind};
use wasp_netsim::topology::TopologyBuilder;
use wasp_netsim::units::{Mbps, Millis};
use wasp_streamsim::exact::{top_k, Event};
use wasp_streamsim::prelude::*;
use wasp_streamsim::testkit::{assert_identical, canonical_json, first_divergence};
use wasp_workloads::prelude::*;
use wasp_workloads::queries::TOPK_K;

// ---------------------------------------------------------------------
// 1. Section-8 scenarios: bit-identical recordings + decision audits.
// ---------------------------------------------------------------------

/// Runs one scenario with recording telemetry, returning (canonical
/// recording JSON, decision-audit JSONL).
fn scenario_digest(run: &dyn Fn(&ScenarioConfig) -> ExperimentResult) -> (String, String) {
    let (tel, handle) = Telemetry::recording();
    let cfg = ScenarioConfig {
        seed: 4,
        // Coarse tick: the bit-identity contract is dt-independent,
        // and 2 s keeps full paper-testbed runs affordable in
        // debug-mode CI.
        dt: 2.0,
        telemetry: tel,
        metrics: MetricsHub::recording(10.0),
        ..ScenarioConfig::default()
    };
    let result = run(&cfg);
    (
        canonical_json(&result.metrics),
        to_jsonl(&handle.recording()).unwrap(),
    )
}

// ---------------------------------------------------------------------
// 1b. X-ray attribution: conservation.
// ---------------------------------------------------------------------

/// Runs one scenario with latency attribution on, returning the
/// [`wasp_xray::XrayRun`] snapshot.
fn xray_run(run: &dyn Fn(&ScenarioConfig) -> ExperimentResult) -> wasp_xray::XrayRun {
    let cfg = ScenarioConfig {
        seed: 4,
        dt: 2.0,
        xray: Some(XRAY_DEFAULT_WINDOW_S),
        ..ScenarioConfig::default()
    };
    run(&cfg).xray.expect("xray was enabled")
}

/// *Conservation*, over every §8 scenario: per (window, sink) cell,
/// the six component histograms sum to the end-to-end delay
/// histogram's sum within 1e-6 relative error. The ledger never
/// invents or loses time.
#[test]
fn xray_attribution_is_conserved_on_every_section_8_scenario() {
    type ScenarioRun = Box<dyn Fn(&ScenarioConfig) -> ExperimentResult>;
    let scenarios: Vec<(&str, ScenarioRun)> = vec![
        (
            "section_8_4/topk",
            Box::new(|cfg| run_section_8_4(QueryKind::TopK, ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_4/advertising",
            Box::new(|cfg| run_section_8_4(QueryKind::Advertising, ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_5/topk",
            Box::new(|cfg| run_section_8_5(ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_6/live",
            Box::new(|cfg| run_section_8_6(ControllerKind::Wasp, cfg)),
        ),
    ];
    for (name, run) in &scenarios {
        let x = xray_run(run.as_ref());
        assert!(
            x.windows.iter().any(|w| !w.sinks.is_empty()),
            "{name}: attribution must record deliveries"
        );
        let err = x.conservation_error();
        assert!(
            err <= 1e-6,
            "{name}: conservation violated — components sum off by {err:.3e}"
        );
    }
}

/// Runs one scenario with an explicit keyed-state model, returning the
/// same digests as [`scenario_digest`].
fn scenario_state_digest(
    run: &dyn Fn(&ScenarioConfig) -> ExperimentResult,
    state: wasp_state::StateModel,
) -> (String, String) {
    let (tel, handle) = Telemetry::recording();
    let cfg = ScenarioConfig {
        seed: 4,
        dt: 2.0,
        telemetry: tel,
        metrics: MetricsHub::recording(10.0),
        state,
        ..ScenarioConfig::default()
    };
    let result = run(&cfg);
    (
        canonical_json(&result.metrics),
        to_jsonl(&handle.recording()).unwrap(),
    )
}

/// Runs the §8.4 top-k scenario with an explicit keyed-state model.
fn state_model_digest(state: wasp_state::StateModel) -> (String, String) {
    scenario_state_digest(
        &|cfg| run_section_8_4(QueryKind::TopK, ControllerKind::Wasp, cfg),
        state,
    )
}

/// The mode switch's contract: `StateModel::Coarse` — the default —
/// is not merely *similar* to the pre-subsystem engine, it is the
/// byte-identical legacy path. An explicitly-spelled `Coarse` run must
/// reproduce the default-config recording and decision audit exactly.
#[test]
fn explicit_coarse_state_model_is_byte_identical_to_default() {
    let run: &dyn Fn(&ScenarioConfig) -> ExperimentResult =
        &|cfg| run_section_8_4(QueryKind::TopK, ControllerKind::Wasp, cfg);
    let (metrics_ref, audit_ref) = scenario_digest(run);
    assert!(
        !audit_ref.is_empty(),
        "the decision audit must actually record decisions"
    );
    let (metrics, audit) = state_model_digest(wasp_state::StateModel::Coarse);
    if let Some(diff) = first_divergence(&metrics_ref, &metrics) {
        panic!("explicit Coarse: RunMetrics diverged — {diff}");
    }
    if let Some(diff) = first_divergence(&audit_ref, &audit) {
        panic!("explicit Coarse: decision audit diverged — {diff}");
    }
}

/// Runs the skewed-state experiment with runtime key-range splitting
/// enabled, returning (metrics JSON, audit JSONL, state-timeline
/// digest). The timeline types deliberately don't serialize, so the
/// third digest is their `Debug` form — still a full-precision,
/// deterministic byte string.
fn skewed_split_digest() -> (String, String, String) {
    let (tel, handle) = Telemetry::recording();
    let cfg = ScenarioConfig {
        seed: 4,
        // The skewed-state rescue needs the fine tick to trigger at
        // all (at dt=2 the monitor never sees the degradation cross
        // its threshold); the run is short, so this stays cheap.
        dt: 0.5,
        telemetry: tel,
        metrics: MetricsHub::recording(10.0),
        ..ScenarioConfig::default()
    };
    let r = run_skewed_split_experiment(60.0, &cfg);
    (
        canonical_json(&r.metrics),
        to_jsonl(&handle.recording()).unwrap(),
        format!("{:?}", r.timeline),
    )
}

/// `split_threshold = None` (the default) pins the flat-partitioned
/// path: with the split machinery compiled in but disabled, every §8
/// scenario records decisions and no `PartitionSplit` event appears
/// anywhere in the audit.
#[test]
fn disabled_splitting_leaves_every_section_8_scenario_untouched() {
    type ScenarioRun = Box<dyn Fn(&ScenarioConfig) -> ExperimentResult>;
    let scenarios: Vec<(&str, ScenarioRun)> = vec![
        (
            "section_8_4/topk",
            Box::new(|cfg| run_section_8_4(QueryKind::TopK, ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_4/advertising",
            Box::new(|cfg| run_section_8_4(QueryKind::Advertising, ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_5/topk",
            Box::new(|cfg| run_section_8_5(ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_6/live",
            Box::new(|cfg| run_section_8_6(ControllerKind::Wasp, cfg)),
        ),
    ];
    let flat = wasp_state::StateModel::Partitioned(wasp_state::PartitionConfig::default());
    for (name, run) in &scenarios {
        let (_, audit) = scenario_state_digest(run.as_ref(), flat);
        assert!(
            !audit.is_empty(),
            "{name}: the decision audit must actually record decisions"
        );
        assert!(
            !audit.contains("PartitionSplit"),
            "{name}: split_threshold=None must never split"
        );
    }
}

/// `CompactionPolicy::None` (the default) pins the partitioned path
/// with the delta-chain machinery compiled in but disabled: for every
/// §8 scenario *and* the skewed-split scenario, a config spelling the
/// policy out explicitly is byte-identical to the default config, and
/// no chain event (compaction, recovery replay) may appear anywhere in
/// the audit.
#[test]
fn disabled_compaction_leaves_every_scenario_untouched() {
    type ScenarioRun = Box<dyn Fn(&ScenarioConfig) -> ExperimentResult>;
    let scenarios: Vec<(&str, ScenarioRun)> = vec![
        (
            "section_8_4/topk",
            Box::new(|cfg| run_section_8_4(QueryKind::TopK, ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_4/advertising",
            Box::new(|cfg| run_section_8_4(QueryKind::Advertising, ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_5/topk",
            Box::new(|cfg| run_section_8_5(ControllerKind::Wasp, cfg)),
        ),
        (
            "section_8_6/live",
            Box::new(|cfg| run_section_8_6(ControllerKind::Wasp, cfg)),
        ),
    ];
    let default_cfg = wasp_state::StateModel::Partitioned(wasp_state::PartitionConfig::default());
    let explicit_none = wasp_state::StateModel::Partitioned(
        wasp_state::PartitionConfig::with_compaction(wasp_state::CompactionPolicy::None),
    );
    for (name, run) in &scenarios {
        let (metrics_ref, audit_ref) = scenario_state_digest(run.as_ref(), default_cfg);
        assert!(
            !audit_ref.contains("CheckpointCompaction") && !audit_ref.contains("RecoveryReplay"),
            "{name}: CompactionPolicy::None must never emit chain events"
        );
        let (metrics, audit) = scenario_state_digest(run.as_ref(), explicit_none);
        if let Some(diff) = first_divergence(&metrics_ref, &metrics) {
            panic!("{name} compaction-off: RunMetrics diverged — {diff}");
        }
        if let Some(diff) = first_divergence(&audit_ref, &audit) {
            panic!("{name} compaction-off: decision audit diverged — {diff}");
        }
    }
    // The skewed-split scenario too: splitting plus an explicit
    // disabled policy reproduces the plain skewed-split digests.
    let (metrics_ref, audit_ref, timeline_ref) = skewed_split_digest();
    assert!(
        audit_ref.contains("PartitionSplit"),
        "the skewed-split scenario must actually split"
    );
    let (metrics, audit, timeline) = skewed_split_none_digest();
    if let Some(diff) = first_divergence(&metrics_ref, &metrics) {
        panic!("skewed-split compaction-off: RunMetrics diverged — {diff}");
    }
    if let Some(diff) = first_divergence(&audit_ref, &audit) {
        panic!("skewed-split compaction-off: decision audit diverged — {diff}");
    }
    if let Some(diff) = first_divergence(&timeline_ref, &timeline) {
        panic!("skewed-split compaction-off: state timeline diverged — {diff}");
    }
}

/// [`skewed_split_digest`] with the compaction policy spelled out as
/// `None` next to the split threshold.
fn skewed_split_none_digest() -> (String, String, String) {
    let (tel, handle) = Telemetry::recording();
    let cfg = ScenarioConfig {
        seed: 4,
        dt: 0.5,
        telemetry: tel,
        metrics: MetricsHub::recording(10.0),
        ..ScenarioConfig::default()
    };
    let state = wasp_state::StateModel::Partitioned(wasp_state::PartitionConfig {
        split_threshold: Some(SKEWED_SPLIT_THRESHOLD),
        compaction: wasp_state::CompactionPolicy::None,
        ..wasp_state::PartitionConfig::default()
    });
    let r = run_skewed_state_experiment(state, 60.0, &cfg);
    (
        canonical_json(&r.metrics),
        to_jsonl(&handle.recording()).unwrap(),
        format!("{:?}", r.timeline),
    )
}

// ---------------------------------------------------------------------
// 2. Chaos campaign: recordings + snapshots, run twice.
// ---------------------------------------------------------------------

/// Three-site chaos world: an edge source plus two data centers.
fn chaos_world() -> (Network, SiteId, SiteId, SiteId) {
    let mut b = TopologyBuilder::new();
    let edge = b.add_site("edge", SiteKind::Edge, 4);
    let dc1 = b.add_site("dc1", SiteKind::DataCenter, 8);
    let dc2 = b.add_site("dc2", SiteKind::DataCenter, 8);
    b.set_symmetric_link(edge, dc1, Mbps(25.0), Millis(20.0));
    b.set_symmetric_link(edge, dc2, Mbps(25.0), Millis(25.0));
    b.set_symmetric_link(dc1, dc2, Mbps(15.0), Millis(30.0));
    (Network::new(b.build().unwrap()), edge, dc1, dc2)
}

/// src(edge) → window-aggregate → sink(dc1), under a seeded fault
/// campaign; returns (recording JSON, snapshot-stream JSON).
fn chaos_digest(seed: u64) -> (String, String) {
    let (net, edge, dc1, dc2) = chaos_world();
    let mut p = LogicalPlanBuilder::new("chaos");
    let s = p.add(OperatorSpec::new(
        "src",
        OperatorKind::Source {
            site: edge,
            base_rate: 2_000.0,
            event_bytes: 50.0,
        },
    ));
    let w = p.add(
        OperatorSpec::new("agg", OperatorKind::WindowAggregate { window_s: 10.0 })
            .with_selectivity(0.1)
            .with_cost_us(20.0)
            .with_state(StateModel::Window {
                bytes_per_event: 40.0,
            }),
    );
    let k = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
    p.connect(s, w);
    p.connect(w, k);
    let plan = p.build().unwrap();
    let (script, events) = ChaosInjector::with_config(seed, ChaosConfig::full(600.0)).compile(
        DynamicsScript::none(),
        &[dc1, dc2],
        &[(edge, dc1), (dc1, dc2)],
    );
    assert!(!events.is_empty(), "campaign {seed} schedules faults");
    let physical = PhysicalPlan::initial(&plan, dc1);
    let cfg = EngineConfig {
        dt: 0.5,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(net, script, plan, physical, cfg).unwrap();
    // Drive the monitor loop by hand so the snapshot-event stream
    // itself is part of the comparison.
    let mut snaps = Vec::new();
    for _ in 0..15 {
        eng.run(40.0);
        snaps.push(eng.snapshot());
    }
    (canonical_json(eng.metrics()), canonical_json(&snaps))
}

/// Repeating the identical run must be bit-stable (the RNG, telemetry
/// and metrics state are per-run, never process-global).
#[test]
fn chaos_campaign_double_run_is_bit_stable() {
    let a = chaos_digest(7);
    let b = chaos_digest(7);
    assert_eq!(a, b, "same seed → same bytes");
}

// ---------------------------------------------------------------------
// 3. Fluid engine ↔ exact engine: delay/throughput agreement.
// ---------------------------------------------------------------------

/// An ample-bandwidth world for semantics comparisons: `n` edge
/// sources and one data-center sink, links far above demand so the
/// fluid engine's delivered/generated ratio reflects plan semantics,
/// not network constraints.
fn ample_world(n_sources: usize) -> (Network, Vec<SiteId>, SiteId) {
    let mut b = TopologyBuilder::new();
    let mut edges = Vec::new();
    for i in 0..n_sources {
        edges.push(b.add_site(format!("edge{i}"), SiteKind::Edge, 4));
    }
    let dc = b.add_site("dc", SiteKind::DataCenter, 16);
    b.set_all_links(Mbps(2_000.0), Millis(15.0));
    (Network::new(b.build().unwrap()), edges, dc)
}

/// Runs `plan` on the fluid engine for `duration_s` and returns
/// (delivered/generated ratio, steady-state p50 delay).
fn fluid_ratio_and_delay(
    plan: LogicalPlan,
    net: Network,
    dc: SiteId,
    duration_s: f64,
) -> (f64, f64) {
    let physical = PhysicalPlan::initial(&plan, dc);
    let cfg = EngineConfig {
        dt: 0.5,
        ..EngineConfig::default()
    };
    let mut eng = Engine::new(net, DynamicsScript::none(), plan, physical, cfg).unwrap();
    eng.run(duration_s);
    let m = eng.metrics();
    let ratio = m.total_delivered() / m.total_generated().max(1e-9);
    let p50 = m
        .delay_quantile_between(duration_s * 0.5, duration_s, 0.5)
        .expect("steady-state deliveries");
    (ratio, p50)
}

#[test]
fn advertising_agrees_with_exact_engine() {
    // Record level: the real YSB generator through the real plan with
    // the benchmark's semantics (view filter + campaign join).
    let rate = 1_000.0;
    let horizon = 120.0;
    let gen = YsbGenerator::new(4);
    let (net, edges, dc) = ample_world(2);
    let sources: Vec<(SiteId, f64)> = edges.iter().map(|&e| (e, rate)).collect();
    let plan = advertising_campaign(&sources, dc);
    let e2e = plan.end_to_end_selectivity();
    let mut streams: BTreeMap<wasp_streamsim::ids::OpId, Vec<Event>> = BTreeMap::new();
    let mut total_in = 0usize;
    for (i, &src) in plan.sources().iter().enumerate() {
        let g = YsbGenerator::new(4 + i as u64);
        let ad_events = g.generate((rate * horizon) as usize, horizon);
        total_in += ad_events.len();
        let evs: Vec<Event> = ad_events
            .iter()
            .map(|e| {
                let ty = match e.event_type {
                    EventType::View => 0.0,
                    EventType::Click => 1.0,
                    EventType::Purchase => 2.0,
                };
                Event::new(e.event_time, e.ad_id, ty)
            })
            .collect();
        streams.insert(src, evs);
    }
    let out = ExactEngine::new(&plan)
        .with_predicate("filter-views", |e| e.value == 0.0)
        .with_mapper("join-campaign", move |e| {
            Event::new(e.time, gen.campaign_of(e.key), e.value)
        })
        .execute(&streams);
    let sigma_exact = out.len() as f64 / total_in as f64;
    let (sigma_fluid, p50) = fluid_ratio_and_delay(plan, net, dc, 600.0);
    // Throughput agreement: both engines land on the plan's declared
    // end-to-end selectivity (the fluid side loses only pipeline
    // fill + the last unfired window).
    assert!(
        (sigma_exact / e2e - 1.0).abs() < 0.10,
        "exact σ {sigma_exact} vs plan e2e {e2e}"
    );
    assert!(
        (0.85..=1.02).contains(&(sigma_fluid / e2e)),
        "fluid σ {sigma_fluid} vs plan e2e {e2e}"
    );
    assert!(
        (sigma_fluid / sigma_exact - 1.0).abs() < 0.15,
        "fluid {sigma_fluid} vs exact {sigma_exact}"
    );
    // Delay agreement with the §8.3 rule both engines implement: a
    // window result carries the window's *max event time*, so the
    // delivery delay is watermark lag + transit (a few seconds), not
    // the window length.
    assert!(
        (0.5..=10.0).contains(&p50),
        "advertising p50 delay {p50} outside the watermark-lag regime"
    );
}

#[test]
fn topk_agrees_with_exact_engine() {
    // Eight countries, one source each, over the Twitter trace.
    let rate = 250.0;
    let horizon = 120.0;
    let trace = TwitterTrace::default();
    let (net, edges, dc) = ample_world(8);
    let sources: Vec<(SiteId, f64)> = edges.iter().map(|&e| (e, rate)).collect();
    let plan = topk_topics(&sources, dc);
    let e2e = plan.end_to_end_selectivity();
    let mut streams: BTreeMap<wasp_streamsim::ids::OpId, Vec<Event>> = BTreeMap::new();
    let mut all_events = Vec::new();
    let mut total_in = 0usize;
    for (country, &src) in plan.sources().iter().enumerate() {
        let evs = trace.events(country, (rate * horizon) as usize, horizon);
        total_in += evs.len();
        all_events.extend(evs.iter().copied());
        streams.insert(src, evs);
    }
    // The plan's window stage models the top-K emission: K records per
    // (window, country). The exact engine's count-aggregate emits one
    // record per (window, country), so the record-level agreement
    // carries a documented factor of exactly K.
    let out = ExactEngine::new(&plan).execute(&streams);
    let sigma_exact_counts = out.len() as f64 / total_in as f64;
    // Reference top-K semantics on the same records: K per group once
    // every country sees ≥ K topics per window.
    let reference = top_k(&all_events, 30.0, TOPK_K);
    let sigma_reference = reference.len() as f64 / total_in as f64;
    let (sigma_fluid, p50) = fluid_ratio_and_delay(plan, net, dc, 600.0);
    assert!(
        (sigma_exact_counts * TOPK_K as f64 / e2e - 1.0).abs() < 0.10,
        "exact count-σ {sigma_exact_counts} × K vs plan e2e {e2e}"
    );
    assert!(
        (sigma_reference / e2e - 1.0).abs() < 0.10,
        "reference top-k σ {sigma_reference} vs plan e2e {e2e}"
    );
    assert!(
        (0.80..=1.02).contains(&(sigma_fluid / e2e)),
        "fluid σ {sigma_fluid} vs plan e2e {e2e}"
    );
    // Delay agreement with the §8.3 rule: window results carry the
    // window's max event time, so even a 30 s window delivers with
    // only watermark lag + transit.
    assert!(
        (0.5..=10.0).contains(&p50),
        "top-k p50 delay {p50} outside the watermark-lag regime"
    );
}

#[test]
fn events_of_interest_agrees_with_exact_engine() {
    // Stateless pipeline: record-level and fluid selectivity must both
    // equal the filter's σ = 0.1 almost exactly.
    let rate = 1_000.0;
    let horizon = 120.0;
    let (net, edges, dc) = ample_world(2);
    let sources: Vec<(SiteId, f64)> = edges.iter().map(|&e| (e, rate)).collect();
    let plan = events_of_interest(&sources, dc);
    let e2e = plan.end_to_end_selectivity();
    let mut streams: BTreeMap<wasp_streamsim::ids::OpId, Vec<Event>> = BTreeMap::new();
    let mut total_in = 0usize;
    for (i, &src) in plan.sources().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(90 + i as u64);
        let mut evs: Vec<Event> = (0..(rate * horizon) as usize)
            .map(|_| {
                Event::new(
                    rng.gen_range(0.0..horizon),
                    rng.gen_range(0..1_000u64),
                    (rng.gen_range(0.0..5.0f64)).floor(),
                )
            })
            .collect();
        evs.sort_by(|a, b| a.time.total_cmp(&b.time));
        total_in += evs.len();
        streams.insert(src, evs);
    }
    let out = ExactEngine::new(&plan).execute(&streams);
    let sigma_exact = out.len() as f64 / total_in as f64;
    let (sigma_fluid, p50) = fluid_ratio_and_delay(plan, net, dc, 400.0);
    assert!(
        (sigma_exact / e2e - 1.0).abs() < 0.02,
        "exact σ {sigma_exact} vs plan e2e {e2e}"
    );
    assert!(
        (0.93..=1.02).contains(&(sigma_fluid / e2e)),
        "fluid σ {sigma_fluid} vs plan e2e {e2e}"
    );
    assert!(
        (sigma_fluid / sigma_exact - 1.0).abs() < 0.08,
        "fluid {sigma_fluid} vs exact {sigma_exact}"
    );
    // No window: delay is transit + tick granularity only.
    assert!(
        (0.0..=5.0).contains(&p50),
        "stateless p50 delay {p50} should be transit-dominated"
    );
}

// ---------------------------------------------------------------------
// Exact engine next to fluid runs: the record-level engine shares no
// state with the fluid engine, and the harness pins that running a
// fluid run in between perturbs nothing.
// ---------------------------------------------------------------------

#[test]
fn parallel_fluid_runs_do_not_perturb_exact_results() {
    let (_, edges, dc) = ample_world(2);
    let sources: Vec<(SiteId, f64)> = edges.iter().map(|&e| (e, 500.0)).collect();
    let plan = events_of_interest(&sources, dc);
    let mut streams: BTreeMap<wasp_streamsim::ids::OpId, Vec<Event>> = BTreeMap::new();
    for (i, &src) in plan.sources().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(7 + i as u64);
        let mut evs: Vec<Event> = (0..5_000)
            .map(|_| Event::new(rng.gen_range(0.0..60.0), rng.gen_range(0..64u64), 0.0))
            .collect();
        evs.sort_by(|a, b| a.time.total_cmp(&b.time));
        streams.insert(src, evs);
    }
    let before = canonical_json(&ExactEngine::new(&plan).execute(&streams));
    // Interleave a fluid run…
    let (net2, edges2, dc2) = ample_world(2);
    let sources2: Vec<(SiteId, f64)> = edges2.iter().map(|&e| (e, 500.0)).collect();
    let plan2 = events_of_interest(&sources2, dc2);
    let physical2 = PhysicalPlan::initial(&plan2, dc2);
    let mut eng = Engine::new(
        net2,
        DynamicsScript::none(),
        plan2,
        physical2,
        EngineConfig::default(),
    )
    .unwrap();
    eng.run(120.0);
    // …and the record-level result is unchanged.
    let after = canonical_json(&ExactEngine::new(&plan).execute(&streams));
    assert_identical("exact result stability", &before, &after);
}
