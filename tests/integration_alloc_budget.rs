//! Heap-allocation budget of the engine tick.
//!
//! A counting global allocator measures how many heap allocations
//! `Engine::step` makes on the seed-4 §8.6 live scenario (Top-K under
//! the Twitter diurnal load with a site failure, driven by the WASP
//! controller every 40 simulated seconds), assembled from the same
//! public pieces as the seed-campaign benchmark. After 400 warm-up
//! ticks it counts the allocations of the next 2 000 ticks; controller
//! rounds in between are not counted.
//!
//! Measured on the engine before its tick hot path was made hash-free
//! and allocation-light: 322 699 allocations over the 2 000 ticks
//! (~161 per tick). The budget is half of that. The engine with the
//! dense allocator, in-place groups, persistent edge buffers and
//! reused scratch vectors measures 6 737 (~3.4 per tick), in debug and
//! release builds alike.
//!
//! The same engine runs a second time with every observability layer
//! on: x-ray with 300 s windows, a recording metrics hub scraping every
//! 10 s and a recording telemetry sink. Before those layers were moved
//! onto dense, pre-resolved accumulators and a breakpoint schedule for
//! dynamics telemetry, they made 71 068 allocations over the counted
//! ticks (~35.5 per tick); the budget is a quarter of that. With them
//! the observed engine measures 7 342 (~3.7 per tick).
//!
//! The test is its own binary so the counting allocator sees nothing
//! but this one scenario.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wasp_core::controller::{Controller, WaspController};
use wasp_core::policy::PolicyConfig;
use wasp_metrics::MetricsHub;
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::testbed::Testbed;
use wasp_netsim::trace::FactorSeries;
use wasp_streamsim::engine::{Engine, EngineConfig};
use wasp_streamsim::physical::PhysicalPlan;
use wasp_telemetry::Telemetry;
use wasp_workloads::deploy::initial_deployment;
use wasp_workloads::queries::QueryKind;
use wasp_workloads::twitter::TwitterTrace;

/// Allocations made by the parent engine over the counted ticks.
const PARENT_ALLOCATIONS: u64 = 322_699;
/// Allocations made over the counted ticks with every observability
/// layer on, before those layers were made allocation-light.
const PARENT_OBSERVED_ALLOCATIONS: u64 = 71_068;
const WARMUP_TICKS: u64 = 400;
const COUNTED_TICKS: u64 = 2_000;
const DT: f64 = 0.25;
/// Ticks between controller rounds (40 s monitoring interval).
const ROUND_TICKS: u64 = 160;

/// Counts allocations on the current thread while armed.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator may run while thread-locals are torn
    // down; those allocations are not ours to count.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The §8.6 live scenario at `seed`: per-source rate walks with the
/// Twitter diurnal factor, a bandwidth walk and a full failure.
fn live_engine(seed: u64) -> Engine {
    let tb = Testbed::paper(seed);
    let sink = tb.data_centers()[0];
    let net = tb.static_network();
    let mut script = DynamicsScript::section_8_6(tb.edges(), 1800.0, seed);
    let trace = TwitterTrace {
        seed,
        ..TwitterTrace::default()
    };
    for (c, &site) in tb.edges().iter().enumerate() {
        let samples: Vec<f64> = (0..60)
            .map(|i| trace.diurnal_factor(c, i as f64 * 30.0))
            .collect();
        script = script.with_workload(site, FactorSeries::from_samples(30.0, samples));
    }
    let plan = QueryKind::TopK.build_default(tb.edges(), sink);
    let physical =
        initial_deployment(&plan, &net, 0.8).unwrap_or_else(|_| PhysicalPlan::initial(&plan, sink));
    let cfg = EngineConfig {
        dt: DT,
        ..EngineConfig::default()
    };
    Engine::new(net, script, plan, physical, cfg).expect("the initial deployment is valid")
}

/// Steps `engine` under the WASP controller and returns the
/// allocations made by the counted ticks.
fn count_tick_allocations(mut engine: Engine) -> u64 {
    COUNT.with(|c| c.set(0));
    let mut controller = WaspController::new(PolicyConfig::default());
    let mut counted = 0;
    for tick in 1..=WARMUP_TICKS + COUNTED_TICKS {
        let measure = tick > WARMUP_TICKS;
        ARMED.with(|a| a.set(measure));
        engine.step();
        ARMED.with(|a| a.set(false));
        if measure {
            counted += 1;
        }
        if tick % ROUND_TICKS == 0 {
            controller.on_monitor(&mut engine);
        }
    }
    assert_eq!(counted, COUNTED_TICKS);
    COUNT.with(Cell::get)
}

#[test]
fn engine_tick_allocates_at_most_half_the_parent_budget() {
    let allocations = count_tick_allocations(live_engine(4));
    eprintln!(
        "{allocations} allocations over {COUNTED_TICKS} ticks ({:.1} per tick)",
        allocations as f64 / COUNTED_TICKS as f64
    );
    assert!(
        allocations * 2 <= PARENT_ALLOCATIONS,
        "Engine::step made {allocations} allocations over {COUNTED_TICKS} ticks; \
         the budget is half the parent's {PARENT_ALLOCATIONS}"
    );

    let mut observed = live_engine(4);
    let (tel, _handle) = Telemetry::recording();
    let hub = MetricsHub::recording(10.0);
    observed.set_telemetry(tel);
    observed.enable_xray(300.0);
    observed.set_metrics(hub);
    let allocations = count_tick_allocations(observed);
    eprintln!(
        "{allocations} allocations over {COUNTED_TICKS} observed ticks ({:.1} per tick)",
        allocations as f64 / COUNTED_TICKS as f64
    );
    assert!(
        allocations * 4 <= PARENT_OBSERVED_ALLOCATIONS,
        "Engine::step with x-ray, metrics and telemetry on made {allocations} allocations \
         over {COUNTED_TICKS} ticks; the budget is a quarter of the parent's \
         {PARENT_OBSERVED_ALLOCATIONS}"
    );
}
