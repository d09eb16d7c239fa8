//! Property tests for the ledger algebra backing the conservation
//! invariant: stamping, weighted merging, and rescaling must keep
//! `Σ components == (attributed_until − birth) + net_latency` within
//! 1e-6 relative error under any interleaving.

use proptest::prelude::*;
use wasp_xray::{Component, DelayLedger, XrayRecorder};

const TOL: f64 = 1e-6;

fn comp_strategy() -> impl Strategy<Value = Component> {
    (0usize..6).prop_map(|i| Component::ALL[i])
}

proptest! {
    /// Any sequence of advance/charge stamps conserves: the component
    /// sum tracks local age plus charged net latency exactly.
    #[test]
    fn stamping_conserves(
        birth in 0.0f64..1e4,
        steps in proptest::collection::vec((comp_strategy(), 0.0f64..50.0, proptest::bool::ANY), 1..40),
    ) {
        let mut l = DelayLedger::new(birth);
        let mut now = birth;
        let mut net = 0.0;
        for (c, amount, is_advance) in steps {
            if is_advance {
                now += amount;
                l.advance(c, now);
            } else {
                l.charge(Component::Transit, amount);
                net += amount;
                let _ = c;
            }
        }
        prop_assert!(l.conservation_error(birth, net, now) < TOL);
    }

    /// Count-weighted merge of conserved ledgers is conserved at the
    /// weighted-mean birth/frontier/latency (linearity).
    #[test]
    fn weighted_merge_conserves(
        b1 in 0.0f64..1e3,
        b2 in 0.0f64..1e3,
        age1 in 0.0f64..500.0,
        age2 in 0.0f64..500.0,
        lat1 in 0.0f64..10.0,
        lat2 in 0.0f64..10.0,
        w1 in 1e-3f64..1e3,
        w2 in 1e-3f64..1e3,
        c1 in comp_strategy(),
        c2 in comp_strategy(),
    ) {
        let mut a = DelayLedger::new(b1);
        a.advance(c1, b1 + age1);
        a.charge(Component::Transit, lat1);
        let mut b = DelayLedger::new(b2);
        b.advance(c2, b2 + age2);
        b.charge(Component::Transit, lat2);

        let t = w1 + w2;
        let birth = (b1 * w1 + b2 * w2) / t;
        let lat = (lat1 * w1 + lat2 * w2) / t;
        a.merge_weighted(w1, &b, w2);
        // Merged frontier is the weighted mean; conservation holds at
        // that frontier against weighted-mean birth and latency.
        prop_assert!(a.conservation_error(birth, lat, a.attributed_until) < TOL);
    }

    /// Rescale hits the requested budget and preserves shares.
    #[test]
    fn rescale_hits_budget(
        spans in proptest::collection::vec((comp_strategy(), 0.0f64..100.0), 0..12),
        budget in 0.0f64..1e4,
    ) {
        let mut l = DelayLedger::new(0.0);
        let mut now = 0.0;
        for (c, dt) in &spans {
            now += dt;
            l.advance(*c, now);
        }
        let before = l.components();
        let sum_before = l.sum();
        l.rescale_to(budget, Component::Queue);
        prop_assert!((l.sum() - budget).abs() <= TOL * budget.max(1.0));
        if sum_before > 1e-9 && budget > 0.0 {
            for (after_i, before_i) in l.components().iter().zip(before.iter()) {
                prop_assert!(
                    (after_i * sum_before - before_i * budget).abs()
                        < 1e-6 * sum_before.max(budget)
                );
            }
        }
    }

    /// Recorder delivery view: shard-wise recording + merge agrees
    /// with single-stream recording (same guarantee the delay
    /// histogram gives: bucket contents match exactly; float sums
    /// agree to summation-order rounding), and both conserve. Exact
    /// byte-identity run to run comes from the engine feeding the
    /// recorder an identical observation sequence, and is pinned by
    /// the observability golden test.
    #[test]
    fn recorder_merge_matches_single_stream(
        deliveries in proptest::collection::vec(
            (0.0f64..2000.0, 0u32..3, 0.0f64..40.0, 1e-3f64..50.0),
            1..60,
        ),
        split in 0usize..60,
    ) {
        let comps_of = |d: f64| {
            // Arbitrary but conserved split of the delay.
            [d * 0.5, d * 0.2, d * 0.1, d * 0.1, d * 0.05, d * 0.05]
        };
        let mut whole = XrayRecorder::new(300.0);
        let mut sa = XrayRecorder::new(300.0);
        let mut sb = XrayRecorder::new(300.0);
        for (i, (t, sink, delay, weight)) in deliveries.iter().enumerate() {
            whole.observe_delivery(*t, *sink, *delay, comps_of(*delay), *weight);
            let shard = if i < split % deliveries.len().max(1) { &mut sa } else { &mut sb };
            shard.observe_delivery(*t, *sink, *delay, comps_of(*delay), *weight);
        }
        let single = whole.finalize();
        let mut merged = sa.finalize();
        merged.merge(&sb.finalize());
        prop_assert_eq!(single.windows.len(), merged.windows.len());
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
        for (sw, mw) in single.windows.iter().zip(merged.windows.iter()) {
            prop_assert_eq!(sw.start_s, mw.start_s);
            prop_assert_eq!(sw.sinks.len(), mw.sinks.len());
            for (ss, ms) in sw.sinks.iter().zip(mw.sinks.iter()) {
                prop_assert_eq!(ss.op, ms.op);
                prop_assert!(close(ss.count, ms.count));
                prop_assert!(close(ss.total.sum(), ms.total.sum()));
                prop_assert!(close(ss.total.count(), ms.total.count()));
                prop_assert_eq!(ss.total.quantile(0.95), ms.total.quantile(0.95));
                for (sh, mh) in ss.comps.iter().zip(ms.comps.iter()) {
                    prop_assert!(close(sh.sum(), mh.sum()));
                    prop_assert_eq!(sh.quantile(0.5), mh.quantile(0.5));
                }
            }
        }
        prop_assert!(single.conservation_error() < TOL);
        prop_assert!(merged.conservation_error() < TOL);
    }
}
