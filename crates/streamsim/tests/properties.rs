//! Property-based tests for the stream-engine substrate: cohort-queue
//! conservation, plan validation, placement arithmetic, and the exact
//! executor's algebraic laws.

use proptest::prelude::*;
use wasp_netsim::site::SiteId;
use wasp_netsim::units::SimTime;
use wasp_streamsim::cohort::{Cohort, CohortBatch, CohortQueue};
use wasp_streamsim::exact::{hash_join, multi_hash_join, top_k, window_aggregate, Event};
use wasp_streamsim::physical::Placement;

fn cohort_strategy() -> impl Strategy<Value = Cohort> {
    (0.0f64..1000.0, 0.01f64..5000.0).prop_map(|(birth, count)| Cohort::new(SimTime(birth), count))
}

fn event_strategy(keys: u64) -> impl Strategy<Value = Event> {
    (0.0f64..60.0, 0..keys, 0.0f64..5.0).prop_map(|(t, k, v)| Event::new(t, k, v.floor()))
}

proptest! {
    /// Pushing then taking conserves the event count exactly, in FIFO
    /// order.
    #[test]
    fn cohort_queue_conserves_mass(
        cohorts in proptest::collection::vec(cohort_strategy(), 1..60),
        take_fracs in proptest::collection::vec(0.0f64..1.5, 1..10),
    ) {
        let total: f64 = cohorts.iter().map(|c| c.count).sum();
        let mut q = CohortQueue::new();
        // Births must be non-decreasing for queue pushes.
        let mut sorted = cohorts.clone();
        sorted.sort_by(|a, b| a.birth.partial_cmp(&b.birth).unwrap());
        for c in sorted {
            q.push(c, None);
        }
        prop_assert!((q.len_events() - total).abs() < 1e-6 * total.max(1.0));
        let mut taken = 0.0;
        for f in take_fracs {
            let n = f * total / 4.0;
            let out = q.take(n);
            taken += out.cohorts().iter().map(|c| c.count).sum::<f64>();
            // FIFO: births inside one take are non-decreasing.
            for w in out.cohorts().windows(2) {
                prop_assert!(w[0].birth <= w[1].birth);
            }
        }
        prop_assert!((taken + q.len_events() - total).abs() < 1e-6 * total.max(1.0),
            "taken {taken} + left {} != {total}", q.len_events());
    }

    /// `scaled` multiplies every count by the factor and nothing else.
    #[test]
    fn cohort_scaling_is_linear(
        cohorts in proptest::collection::vec(cohort_strategy(), 1..30),
        factor in 0.0f64..3.0,
    ) {
        let total: f64 = cohorts.iter().map(|c| c.count).sum();
        let mut batch = CohortBatch::new();
        for c in cohorts {
            batch.push(c, None);
        }
        let scaled_total: f64 = batch.scaled(factor).map(|(c, _)| c.count).sum();
        prop_assert!((scaled_total - factor * total).abs() < 1e-6 * total.max(1.0));
    }

    /// `drop_late` removes exactly the cohorts older than the SLO.
    #[test]
    fn drop_late_is_exact(
        cohorts in proptest::collection::vec(cohort_strategy(), 1..40),
        now in 0.0f64..2000.0,
        slo in 0.0f64..500.0,
    ) {
        let mut sorted = cohorts.clone();
        sorted.sort_by(|a, b| a.birth.partial_cmp(&b.birth).unwrap());
        let expected_drop: f64 = sorted
            .iter()
            .take_while(|c| c.delay_at(SimTime(now)) > slo)
            .map(|c| c.count)
            .sum();
        let mut q = CohortQueue::new();
        for c in sorted {
            q.push(c, None);
        }
        let dropped = q.drop_late(SimTime(now), slo);
        prop_assert!((dropped - expected_drop).abs() < 1e-6 * expected_drop.max(1.0));
    }

    /// Placement set-difference identities (the §4.1 migration sets).
    #[test]
    fn placement_set_differences(
        old_sites in proptest::collection::btree_map(0u16..10, 1u32..4, 1..6),
        new_sites in proptest::collection::btree_map(0u16..10, 1u32..4, 1..6),
    ) {
        let old: Placement = old_sites.iter().map(|(&s, &n)| (SiteId(s), n)).collect();
        let new: Placement = new_sites.iter().map(|(&s, &n)| (SiteId(s), n)).collect();
        let removed = old.sites_removed(&new);
        let added = old.sites_added(&new);
        for s in &removed {
            prop_assert!(old.tasks_at(*s) > 0 && new.tasks_at(*s) == 0);
        }
        for s in &added {
            prop_assert!(new.tasks_at(*s) > 0 && old.tasks_at(*s) == 0);
        }
        // No site is both removed and added.
        for s in &removed {
            prop_assert!(!added.contains(s));
        }
    }

    /// Windowed join is commutative for arbitrary streams.
    #[test]
    fn join_commutative(
        a in proptest::collection::vec(event_strategy(6), 0..60),
        b in proptest::collection::vec(event_strategy(6), 0..60),
        window in 1.0f64..30.0,
    ) {
        prop_assert_eq!(hash_join(&a, &b, window), hash_join(&b, &a, window));
    }

    /// All left-deep evaluation orders of a 3-way join agree.
    #[test]
    fn join_associative(
        a in proptest::collection::vec(event_strategy(4), 0..40),
        b in proptest::collection::vec(event_strategy(4), 0..40),
        c in proptest::collection::vec(event_strategy(4), 0..40),
        window in 1.0f64..30.0,
    ) {
        let left = hash_join(&hash_join(&a, &b, window), &c, window);
        let right = hash_join(&a, &hash_join(&b, &c, window), window);
        prop_assert_eq!(&left, &right);
        if !a.is_empty() || !b.is_empty() {
            let multi = multi_hash_join(&[a, b, c], window);
            prop_assert_eq!(&multi, &left);
        }
    }

    /// Window aggregation conserves contributing events (sum-count
    /// aggregate equals input size) and emits at most one record per
    /// (window, key).
    #[test]
    fn window_aggregate_conserves(
        events in proptest::collection::vec(event_strategy(5), 0..120),
        window in 1.0f64..30.0,
    ) {
        let out = window_aggregate(&events, window, |vs| vs.len() as f64);
        let total: f64 = out.iter().map(|e| e.value).sum();
        prop_assert_eq!(total as usize, events.len());
        // Uniqueness of (window, key).
        let mut seen = std::collections::BTreeSet::new();
        for e in &out {
            let w = (e.time / window).floor() as i64;
            prop_assert!(seen.insert((w, e.key)), "duplicate ({w}, {})", e.key);
        }
    }

    /// Top-k emits at most k results per (window, key), with counts
    /// sorted descending within each group.
    #[test]
    fn top_k_bounds(
        events in proptest::collection::vec(event_strategy(3), 0..150),
        window in 5.0f64..30.0,
        k in 1usize..5,
    ) {
        let out = top_k(&events, window, k);
        let mut per_group: std::collections::BTreeMap<(i64, u64), Vec<f64>> =
            std::collections::BTreeMap::new();
        for e in &out {
            let w = (e.time / window).floor() as i64;
            per_group.entry((w, e.key)).or_default().push(e.value);
        }
        for (g, counts) in per_group {
            prop_assert!(counts.len() <= k, "group {g:?} has {} > {k}", counts.len());
            for w in counts.windows(2) {
                prop_assert!(w[0] + 1e-9 >= w[1], "not sorted: {counts:?}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Engine-level properties: random small worlds.
// ---------------------------------------------------------------------

mod engine_props {
    use proptest::prelude::*;
    use wasp_netsim::dynamics::DynamicsScript;
    use wasp_netsim::network::Network;
    use wasp_netsim::site::{SiteId, SiteKind};
    use wasp_netsim::topology::TopologyBuilder;
    use wasp_netsim::units::{Mbps, Millis};
    use wasp_streamsim::engine::{Engine, EngineConfig};
    use wasp_streamsim::operator::{OperatorKind, OperatorSpec};
    use wasp_streamsim::physical::PhysicalPlan;
    use wasp_streamsim::plan::{LogicalPlan, LogicalPlanBuilder};

    /// A random linear pipeline over a small fully-connected world.
    fn build(n_sites: u16, link_mbps: f64, rate: f64, sigmas: &[f64]) -> (Network, LogicalPlan) {
        let mut b = TopologyBuilder::new();
        for i in 0..n_sites {
            b.add_site(format!("s{i}"), SiteKind::DataCenter, 8);
        }
        b.set_all_links(Mbps(link_mbps), Millis(15.0));
        let net = Network::new(b.build().unwrap());
        let mut p = LogicalPlanBuilder::new("prop");
        let mut prev = p.add(OperatorSpec::new(
            "src",
            OperatorKind::Source {
                site: SiteId(0),
                base_rate: rate,
                event_bytes: 20.0,
            },
        ));
        for (i, &sigma) in sigmas.iter().enumerate() {
            let op = p.add(
                OperatorSpec::new(format!("op{i}"), OperatorKind::Map)
                    .with_selectivity(sigma)
                    .with_cost_us(2.0),
            );
            p.connect(prev, op);
            prev = op;
        }
        let sink = p.add(OperatorSpec::new("sink", OperatorKind::Sink { site: None }));
        p.connect(prev, sink);
        (net, p.build().unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// With ample bandwidth, delivered ≈ generated × Πσ — the
        /// engine conserves fluid mass through arbitrary selectivity
        /// chains, including amplifying (σ > 1) operators.
        #[test]
        fn engine_conserves_through_selectivity_chains(
            sigmas in proptest::collection::vec(0.2f64..2.0, 1..4),
            rate in 100.0f64..3000.0,
        ) {
            let (net, plan) = build(3, 1000.0, rate, &sigmas);
            let e2e = plan.end_to_end_selectivity();
            let physical = PhysicalPlan::initial(&plan, SiteId(1));
            let mut engine = Engine::new(
                net,
                DynamicsScript::none(),
                plan,
                physical,
                EngineConfig { dt: 0.5, ..EngineConfig::default() },
            )
            .unwrap();
            engine.run(120.0);
            let m = engine.metrics();
            let expected = m.total_generated() * e2e;
            let ratio = m.total_delivered() / expected.max(1e-9);
            prop_assert!(
                (0.9..=1.02).contains(&ratio),
                "ratio {ratio} (σs {sigmas:?}, rate {rate})"
            );
            prop_assert_eq!(m.total_dropped(), 0.0);
        }

        /// Delivered events never exceed what the source generated
        /// times the plan selectivity, even under severe network
        /// constraints (no event is fabricated).
        #[test]
        fn engine_never_fabricates_events(
            link in 0.5f64..20.0,
            rate in 1000.0f64..20_000.0,
        ) {
            let (net, plan) = build(2, link, rate, &[0.5]);
            let e2e = plan.end_to_end_selectivity();
            let physical = PhysicalPlan::initial(&plan, SiteId(1));
            let mut engine = Engine::new(
                net,
                DynamicsScript::none(),
                plan,
                physical,
                EngineConfig { dt: 0.5, ..EngineConfig::default() },
            )
            .unwrap();
            engine.run(200.0);
            let m = engine.metrics();
            prop_assert!(
                m.total_delivered() <= m.total_generated() * e2e * 1.0001,
                "delivered {} > generated×σ {}",
                m.total_delivered(),
                m.total_generated() * e2e
            );
        }
    }
}
