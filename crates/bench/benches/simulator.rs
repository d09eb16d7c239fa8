//! Engine throughput: simulated-seconds per wall-second for the Top-K
//! query on the full 16-node testbed, and the monitoring snapshot
//! cost.

use criterion::{criterion_group, criterion_main, Criterion};
use wasp_netsim::prelude::*;
use wasp_streamsim::prelude::*;
use wasp_workloads::prelude::*;
use wasp_workloads::scenarios::build_engine;

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(20);
    for (label, dt) in [("tick_dt_1s", 1.0), ("tick_dt_250ms", 0.25)] {
        group.bench_function(label, |b| {
            let tb = Testbed::paper(42);
            let (mut engine, _) = build_engine(
                QueryKind::TopK,
                &tb,
                DynamicsScript::none(),
                EngineConfig {
                    dt,
                    ..EngineConfig::default()
                },
            );
            engine.run(60.0); // warm-up: fill the pipeline
            b.iter(|| {
                engine.step();
                std::hint::black_box(engine.now())
            })
        });
    }
    group.bench_function("snapshot", |b| {
        let tb = Testbed::paper(42);
        let (mut engine, _) = build_engine(
            QueryKind::TopK,
            &tb,
            DynamicsScript::none(),
            EngineConfig::default(),
        );
        engine.run(60.0);
        b.iter(|| {
            engine.run(1.0);
            std::hint::black_box(engine.snapshot())
        })
    });
    group.bench_function("full_8_4_run_coarse", |b| {
        b.iter(|| {
            let cfg = ScenarioConfig {
                dt: 1.0,
                ..ScenarioConfig::default()
            };
            let spec = ScenarioSpec::section_8_4(QueryKind::TopK, ControllerKind::Wasp);
            std::hint::black_box(run(&spec, &cfg))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
