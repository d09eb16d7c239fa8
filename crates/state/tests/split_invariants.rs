//! Property suite for runtime key-range splitting (ISSUE 9).
//!
//! Splitting rewrites the weight vector mid-flight, so these
//! invariants are what keeps the rest of the stack honest: for
//! *arbitrary* split sequences over arbitrary configs, key mass is
//! conserved (weights sum to 1), `total_mb` and the dirty set survive
//! untouched, the key-range leaves stay a partition of `[0, 1)`, and
//! the whole process is a pure function of `(config, stream)` — the
//! same store always splits the same way, which is the property the
//! engine/optimizer agreement and the split-scenario differential pins
//! rest on.
//!
//! Case count: 128 by default, raised in CI via `PROPTEST_CASES`
//! (the `split-invariants` job runs 512).

use proptest::prelude::*;
use wasp_state::{PartitionConfig, StateStore};

/// `PROPTEST_CASES` override (the vendored proptest only honours the
/// in-config count, so the env var is resolved here).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

fn config(partitions: u32, zipf_exponent: f64, seed: u64) -> PartitionConfig {
    PartitionConfig {
        partitions,
        zipf_exponent,
        seed,
        ..PartitionConfig::default()
    }
}

/// Sorted-range check: the leaves partition `[0, 1)` exactly —
/// pairwise disjoint, gap-free, covering the whole key space.
fn assert_ranges_partition_key_space(store: &StateStore) -> Result<(), String> {
    let mut ranges: Vec<(f64, f64)> = store.ranges().to_vec();
    ranges.sort_by(|a, b| a.0.total_cmp(&b.0));
    prop_assert_eq!(ranges[0].0, 0.0);
    prop_assert_eq!(ranges[ranges.len() - 1].1, 1.0);
    for w in ranges.windows(2) {
        prop_assert!(w[0].0 < w[0].1, "empty range {:?}", w[0]);
        prop_assert!(
            w[0].1 == w[1].0,
            "gap or overlap between {:?} and {:?}",
            w[0],
            w[1]
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Arbitrary split sequences conserve key mass, total state size
    /// and the dirty set, and never break the range partition.
    #[test]
    fn arbitrary_split_sequences_conserve_mass(
        n_parts in 1u32..32,
        zipf in 0.0f64..2.5,
        seed in 0u64..u64::MAX,
        stream in 0u64..u64::MAX,
        total in 0.5f64..500.0,
        writes in 0.0f64..50.0,
        picks in proptest::collection::vec(0usize..4096, 0..40),
    ) {
        let cfg = config(n_parts, zipf, seed);
        let mut s = StateStore::new(&cfg, stream);
        s.set_total_mb(total);
        s.record_writes(writes);
        // Dirty mass before, observed through a probe clone (the
        // checkpoint drains it).
        let dirty0 = s.clone().take_checkpoint().delta_mb;
        for &p in &picks {
            let n = s.partitions();
            let _ = s.split(p % n);
        }
        let sum: f64 = s.weights().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "weights sum to {sum}");
        prop_assert!(s.weights().iter().all(|&w| w >= 0.0));
        prop_assert_eq!(s.total_mb(), total, "total_mb must not move");
        let dirty1 = s.clone().take_checkpoint().delta_mb;
        prop_assert!(
            (dirty1 - dirty0).abs() < 1e-9 * dirty0.max(1.0),
            "dirty mass {dirty1} vs {dirty0} across splits"
        );
        assert_ranges_partition_key_space(&s)?;
        // Lineage always resolves to an original hash partition.
        let n0 = n_parts.max(1);
        for i in 0..s.partitions() as u32 {
            prop_assert!(s.origin_of(i) < n0, "origin of {i} out of range");
        }
    }

    /// The hot-partition detector bounds every leaf at the threshold,
    /// replays identically on an identical store (deterministic split
    /// order), and is idempotent.
    #[test]
    fn split_hot_bounds_leaves_deterministically(
        n_parts in 1u32..32,
        zipf in 0.0f64..2.0,
        seed in 0u64..u64::MAX,
        stream in 0u64..u64::MAX,
        th in 0.02f64..0.5,
    ) {
        let cfg = config(n_parts, zipf, seed);
        let mut a = StateStore::new(&cfg, stream);
        a.set_total_mb(100.0);
        let mut b = a.clone();
        let ea = a.split_hot(th);
        let eb = b.split_hot(th);
        prop_assert_eq!(&ea, &eb, "split order must be deterministic");
        prop_assert_eq!(a.weights(), b.weights());
        prop_assert_eq!(a.ranges(), b.ranges());
        let max = a.weights().iter().cloned().fold(0.0f64, f64::max);
        prop_assert!(max <= th + 1e-12, "leaf {max} above threshold {th}");
        prop_assert!(a.split_hot(th).is_empty(), "detector must converge");
        // Fresh-construction replay: a brand-new store with the same
        // (config, stream) splits the same way — the property the
        // optimizer's plan-time estimate relies on.
        let mut c = StateStore::new(&cfg, stream);
        c.set_total_mb(100.0);
        prop_assert_eq!(&c.split_hot(th), &ea);
    }

    /// Splitting a dirty store keeps the dirty *fraction* intact:
    /// both halves of a dirty partition stay dirty with the parent's
    /// combined weight, so redo-replay scope neither grows nor
    /// shrinks.
    #[test]
    fn dirty_fraction_survives_split_hot(
        n_parts in 1u32..32,
        zipf in 0.0f64..2.0,
        seed in 0u64..u64::MAX,
        stream in 0u64..u64::MAX,
        th in 0.02f64..0.5,
        writes in 0.1f64..100.0,
    ) {
        let cfg = config(n_parts, zipf, seed);
        let mut s = StateStore::new(&cfg, stream);
        s.set_total_mb(100.0);
        s.record_writes(writes);
        let frac0 = s.dirty_weight_fraction();
        s.split_hot(th);
        let frac1 = s.dirty_weight_fraction();
        prop_assert!(
            (frac0 - frac1).abs() < 1e-9,
            "dirty fraction moved across splits: {frac0} -> {frac1}"
        );
    }
}
