//! Fixed-iteration timings of the solvers the controller calls, on the
//! campaign's first testbed.

use crate::campaign::Metric;
use crate::stats::quantile;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use wasp_netsim::site::SiteId;
use wasp_netsim::testbed::Testbed;
use wasp_netsim::units::{MegaBytes, SimTime};
use wasp_optimizer::migration::{plan_migration, MigrationStrategy};
use wasp_optimizer::placement::{PlacementProblem, PlacementRequest};
use wasp_optimizer::replan::{ReplanProblem, StreamLeaf};
use wasp_state::scheduler::pipeline_schedule;
use wasp_state::{partition_weights, PartitionConfig};

/// Median host microseconds of one call of `f` over `iters` calls.
fn median_us<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let us: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    quantile(&us, 0.5)
}

/// A stage fed by every edge site and feeding the first data center,
/// with every slot of the testbed free.
fn placement_request(tb: &Testbed, parallelism: u32) -> PlacementRequest {
    let mut req = PlacementRequest::new(parallelism);
    req.upstream = tb.edges().iter().map(|&e| (e, 1.6)).collect();
    req.downstream = vec![(tb.data_centers()[0], 0.2)];
    req.available_slots = tb
        .topology()
        .site_ids()
        .map(|s| (s, tb.topology().site(s).slots()))
        .collect::<BTreeMap<_, _>>();
    req
}

/// `optimizer.*` and `state.schedule.*` per-call medians. The
/// microsecond-scale solvers get `calls` calls; re-planning (~70 µs)
/// a quarter of that and the partition scheduler (~4 ms) a fiftieth.
pub fn solver_metrics(seed: u64, calls: u32) -> Vec<Metric> {
    let tb = Testbed::paper(seed);
    let net = tb.static_network();
    let t = SimTime::ZERO;

    let req4 = placement_request(&tb, 4);
    let placement = median_us(calls, || PlacementProblem::build(&req4, &net, t).solve());
    let req1 = placement_request(&tb, 1);
    let scale_out = median_us(calls, || {
        PlacementProblem::minimal_feasible_parallelism(&req1, &net, t, 1, 8)
    });

    let dcs = tb.data_centers();
    let sources: Vec<(SiteId, MegaBytes)> =
        dcs[..4].iter().map(|&d| (d, MegaBytes(60.0))).collect();
    let migration = median_us(calls, || {
        plan_migration(
            &sources,
            &dcs[4..8],
            &net,
            t,
            MigrationStrategy::NetworkAware,
        )
    });

    let replan_problem = ReplanProblem {
        leaves: tb.edges()[..5]
            .iter()
            .enumerate()
            .map(|(i, &s)| StreamLeaf::new(format!("S{i}"), s, 10.0 + i as f64 * 5.0))
            .collect(),
        join_selectivity: 0.6,
        alpha: 0.8,
        required_subtrees: vec![],
        candidate_sites: dcs.to_vec(),
    };
    let replan = median_us((calls / 4).max(1), || replan_problem.solve(&net, t));

    // 16 sites × 64 Zipf-skewed partitions: 8 sources, 8 destinations,
    // deterministic heterogeneous link rates.
    let cfg = PartitionConfig {
        partitions: 64,
        ..PartitionConfig::default()
    };
    let slices: Vec<(SiteId, Vec<(u32, f64)>)> = (0..8u16)
        .map(|i| {
            let w = partition_weights(&cfg, u64::from(i));
            (
                SiteId(i),
                w.iter()
                    .enumerate()
                    .map(|(p, &x)| (p as u32, x * 200.0))
                    .collect(),
            )
        })
        .collect();
    let dests: Vec<SiteId> = (8..16u16).map(SiteId).collect();
    let assignment: Vec<(SiteId, SiteId)> = (0..8u16).map(|i| (SiteId(i), SiteId(8 + i))).collect();
    let rate =
        |a: SiteId, b: SiteId| 2.0 + ((u64::from(a.0) * 31 + u64::from(b.0) * 17) % 23) as f64;
    let schedule = median_us((calls / 50).max(1), || {
        pipeline_schedule(&slices, &assignment, &dests, &rate)
    });

    vec![
        ("optimizer.placement.us_p50", "us", placement),
        ("optimizer.scale_out.us_p50", "us", scale_out),
        ("optimizer.migration.us_p50", "us", migration),
        ("optimizer.replan.us_p50", "us", replan),
        ("state.schedule.us_p50", "us", schedule),
    ]
}
