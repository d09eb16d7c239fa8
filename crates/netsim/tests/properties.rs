//! Property-based tests for the network substrate: max-min fairness
//! invariants, trace algebra, and statistics helpers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::network::{FlowDemand, Network};
use wasp_netsim::site::{SiteId, SiteKind};
use wasp_netsim::stats::{quantile, summarize, Zipf};
use wasp_netsim::topology::TopologyBuilder;
use wasp_netsim::trace::FactorSeries;
use wasp_netsim::units::{Mbps, MegaBytes, Millis, SimTime};

/// A small fully-connected network with the given uniform capacity.
fn network(n_sites: u16, capacity: f64) -> Network {
    let mut b = TopologyBuilder::new();
    for i in 0..n_sites {
        b.add_site(format!("s{i}"), SiteKind::DataCenter, 4);
    }
    b.set_all_links(Mbps(capacity), Millis(10.0));
    Network::new(b.build().expect("valid topology"))
}

fn flow_strategy(n_sites: u16) -> impl Strategy<Value = FlowDemand> {
    (0..n_sites, 0..n_sites, 0.0f64..50.0)
        .prop_map(|(a, b, d)| FlowDemand::new(SiteId(a), SiteId(b), Mbps(d)))
}

proptest! {
    /// Max-min allocation never exceeds a flow's demand nor any link's
    /// capacity, and never goes negative.
    #[test]
    fn allocation_respects_demand_and_capacity(
        flows in proptest::collection::vec(flow_strategy(4), 1..20),
        capacity in 1.0f64..100.0,
    ) {
        let net = network(4, capacity);
        let rates = net.allocate(&flows, SimTime::ZERO);
        prop_assert_eq!(rates.len(), flows.len());
        for (f, r) in flows.iter().zip(&rates) {
            prop_assert!(r.0 >= -1e-9);
            prop_assert!(r.0 <= f.demand.0 + 1e-6);
        }
        for a in 0..4u16 {
            for b in 0..4u16 {
                if a == b { continue; }
                let used: f64 = flows.iter().zip(&rates)
                    .filter(|(f, _)| f.from == SiteId(a) && f.to == SiteId(b))
                    .map(|(_, r)| r.0)
                    .sum();
                prop_assert!(used <= capacity + 1e-6, "link {a}->{b} used {used}");
            }
        }
    }

    /// Max-min allocations are Pareto-efficient on congested links: if
    /// a flow got less than its demand, its link is (near) saturated.
    #[test]
    fn unsatisfied_flows_sit_on_saturated_links(
        flows in proptest::collection::vec(flow_strategy(3), 1..12),
        capacity in 1.0f64..40.0,
    ) {
        let net = network(3, capacity);
        let rates = net.allocate(&flows, SimTime::ZERO);
        for (i, (f, r)) in flows.iter().zip(&rates).enumerate() {
            if f.from == f.to { continue; }
            if r.0 + 1e-6 < f.demand.0 {
                let used: f64 = flows.iter().zip(&rates)
                    .filter(|(g, _)| g.from == f.from && g.to == f.to)
                    .map(|(_, r)| r.0)
                    .sum();
                prop_assert!(
                    used + 1e-6 >= capacity,
                    "flow {i} starved on unsaturated link ({used} < {capacity})"
                );
            }
        }
    }

    /// Combining factor series is pointwise multiplication on the
    /// combined series' own sample grid (a zero-order-hold resampling
    /// cannot represent change points that fall between grid points,
    /// so off-grid equality is not guaranteed in general).
    #[test]
    fn factor_series_combine_is_pointwise_product(
        a_samples in proptest::collection::vec(0.1f64..3.0, 1..20),
        b_samples in proptest::collection::vec(0.1f64..3.0, 1..20),
        a_int in 1u32..60,
        b_int in 1u32..60,
        idx in 0usize..64,
    ) {
        let a = FactorSeries::from_samples(a_int as f64, a_samples);
        let b = FactorSeries::from_samples(b_int as f64, b_samples);
        let c = a.combine(&b);
        let grid = if c.interval_s().is_finite() { c.interval_s() } else { 1.0 };
        // Probe mid-cell: ZOH equality holds away from cell edges.
        let t = SimTime((idx as f64 + 0.5) * grid);
        let expected = a.factor_at(t) * b.factor_at(t);
        prop_assert!((c.factor_at(t) - expected).abs() < 1e-9,
            "combine mismatch at {t}: {} vs {expected}", c.factor_at(t));
    }

    /// Transfer time scales linearly in volume and inversely in
    /// bandwidth.
    #[test]
    fn transfer_time_scaling(mb in 0.1f64..1000.0, bw in 0.1f64..500.0) {
        let t = MegaBytes(mb).transfer_time(Mbps(bw));
        let t2 = MegaBytes(2.0 * mb).transfer_time(Mbps(bw));
        let th = MegaBytes(mb).transfer_time(Mbps(2.0 * bw));
        prop_assert!((t2 - 2.0 * t).abs() < 1e-6);
        prop_assert!((th - t / 2.0).abs() < 1e-6);
    }

    /// Zipf PMFs are normalized and monotone non-increasing in rank.
    #[test]
    fn zipf_pmf_invariants(n in 1usize..200, alpha in 0.0f64..3.0) {
        let z = Zipf::new(n, alpha);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for k in 1..n {
            prop_assert!(z.pmf(k - 1) + 1e-12 >= z.pmf(k));
        }
    }

    /// Quantiles are monotone in q and bounded by min/max.
    #[test]
    fn quantile_invariants(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, lo).unwrap();
        let b = quantile(&xs, hi).unwrap();
        prop_assert!(a <= b + 1e-9);
        let s = summarize(&xs).unwrap();
        prop_assert!(a >= s.min - 1e-9 && b <= s.max + 1e-9);
    }
}

/// Case count of the breakpoint-schedule property: 128 by default;
/// `PROPTEST_CASES` overrides it (the vendored proptest only honours
/// the in-config count, so the env var is resolved here).
fn schedule_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

/// A factor series of one of the shapes dynamics scripts use: a
/// constant, sampled runs with repeated values on a 0.1 / 1 / 30 /
/// 60 s grid, or scripted steps on such a grid. The 1.1 s grid adds
/// boundaries where a tick's float division already lands in the next
/// sample while the boundary's own product (e.g. 7 × 1.1 =
/// 7.700000000000001) is still above the tick (t = 7.7).
fn random_series(rng: &mut StdRng) -> FactorSeries {
    const INTERVALS: [f64; 5] = [0.1, 1.0, 1.1, 30.0, 60.0];
    const VALUES: [f64; 5] = [0.5, 1.0, 1.0, 1.004, 2.0];
    let interval = INTERVALS[rng.gen_range(0..INTERVALS.len())];
    let value = |rng: &mut StdRng| VALUES[rng.gen_range(0..VALUES.len())];
    match rng.gen_range(0..3u32) {
        0 => FactorSeries::constant(rng.gen_range(0.1..3.0)),
        1 => {
            let mut samples = Vec::new();
            for _ in 0..rng.gen_range(1..10usize) {
                let v = value(rng);
                samples.extend(std::iter::repeat_n(v, rng.gen_range(1..8usize)));
            }
            FactorSeries::from_samples(interval, samples)
        }
        _ => {
            let mut at = 0.0;
            let changes: Vec<(f64, f64)> = (0..rng.gen_range(0..5usize))
                .map(|_| {
                    at += rng.gen_range(0.05..90.0);
                    (at, value(rng))
                })
                .collect();
            FactorSeries::steps(interval, &changes)
        }
    }
}

/// Every factor an engine watches for transitions at time `t`.
fn watched_factors(script: &DynamicsScript, sites: u16, t: SimTime) -> Vec<f64> {
    let mut f = vec![script.bandwidth_factor(t)];
    for s in 0..sites {
        f.push(script.workload_factor(SiteId(s), t));
        f.push(script.compute_factor(SiteId(s), t));
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(schedule_cases()))]

    /// An engine that re-reads the dynamics only at the breakpoints
    /// `next_factor_change_after` schedules never misses a tick at
    /// which some factor differs from the previous tick's.
    #[test]
    fn breakpoint_schedule_never_skips_a_factor_change(
        seed in 0u64..u64::MAX,
        dt_idx in 0usize..3,
    ) {
        const SITES: u16 = 4;
        let dt = [0.1, 0.25, 1.0][dt_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut script = DynamicsScript::none();
        for s in 0..rng.gen_range(0..=SITES) {
            script = script.with_workload(SiteId(s), random_series(&mut rng));
        }
        if rng.gen_bool(0.5) {
            script = script.with_global_workload(random_series(&mut rng));
        }
        if rng.gen_bool(0.5) {
            script = script.with_bandwidth(random_series(&mut rng));
        }
        if rng.gen_bool(0.5) {
            script = script.with_straggler(SiteId(1), random_series(&mut rng));
        }
        let mut next_check = f64::NEG_INFINITY;
        let mut prev = watched_factors(&script, SITES, SimTime::ZERO);
        let ticks = (400.0 / dt) as u64;
        for tick in 0..ticks {
            let t = tick as f64 * dt;
            let now = watched_factors(&script, SITES, SimTime(t));
            if now != prev {
                prop_assert!(
                    t >= next_check,
                    "factors change at t = {t} but the next check is at {next_check}"
                );
            }
            if t >= next_check {
                next_check = script.next_factor_change_after(SimTime(t));
            }
            prev = now;
        }
    }
}
