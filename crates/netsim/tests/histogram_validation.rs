//! Validates the `wasp-metrics` streaming histogram against exact
//! quantiles on seeded draws from the crate's own distributions: the
//! sketch (and merges of sketches) must stay within 1% relative error
//! of `stats::quantile_sorted` over the same samples.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wasp_metrics::LogHistogram;
use wasp_netsim::stats::{self, Zipf};

const QUANTILES: [f64; 5] = [0.1, 0.5, 0.9, 0.95, 0.99];

/// Asserts the sketch quantile is within 1% relative error of the
/// exact sample quantile, for every probe quantile.
fn assert_close(hist: &LogHistogram, samples: &mut [f64], what: &str) {
    samples.sort_by(|a, b| a.total_cmp(b));
    for q in QUANTILES {
        let exact = stats::quantile_sorted(samples, q);
        let est = hist.quantile(q).expect("non-empty histogram");
        let rel = (est - exact).abs() / exact.abs().max(1e-12);
        assert!(
            rel <= 0.01,
            "{what}: q={q} exact={exact} est={est} rel={rel}"
        );
    }
    // Extremes are tracked exactly.
    assert_eq!(hist.quantile(0.0), Some(samples[0]));
    assert_eq!(hist.quantile(1.0), Some(*samples.last().unwrap()));
}

#[test]
fn normal_draws_match_exact_quantiles() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut hist = LogHistogram::default();
    let mut samples = Vec::new();
    for _ in 0..20_000 {
        // Delay-like values: a positive, right-shifted normal.
        let v = stats::normal(&mut rng, 10.0, 2.0).max(0.05);
        hist.observe(v, 1.0);
        samples.push(v);
    }
    assert_close(&hist, &mut samples, "normal(10, 2)");
}

#[test]
fn zipf_draws_match_exact_quantiles() {
    let mut rng = StdRng::seed_from_u64(11);
    let zipf = Zipf::new(10_000, 1.1);
    let mut hist = LogHistogram::default();
    let mut samples = Vec::new();
    for _ in 0..20_000 {
        let v = (zipf.sample(&mut rng) + 1) as f64;
        hist.observe(v, 1.0);
        samples.push(v);
    }
    assert_close(&hist, &mut samples, "zipf(10000, 1.1)");
}

#[test]
fn merged_shards_match_exact_quantiles_of_the_union() {
    // Four independent shards (as if scraped from four sites), each
    // with a different mix of distributions, merged into one sketch:
    // the merge must answer for the union of all samples.
    let mut merged = LogHistogram::default();
    let mut samples = Vec::new();
    for shard in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(100 + shard);
        let mut hist = LogHistogram::default();
        for i in 0..5_000 {
            let v = if i % 2 == 0 {
                stats::normal(&mut rng, 5.0 + shard as f64, 1.0).max(0.01)
            } else {
                stats::truncated_normal(&mut rng, 50.0, 20.0, 1.0, 200.0)
            };
            hist.observe(v, 1.0);
            samples.push(v);
        }
        merged.merge(&hist);
    }
    assert_close(&merged, &mut samples, "4-shard merged mixture");
}

#[test]
fn empty_histogram_has_no_quantiles() {
    let hist = LogHistogram::default();
    assert!(hist.is_empty());
    assert_eq!(hist.quantile(0.5), None);
    assert_eq!(hist.mean(), None);
}

#[test]
fn single_sample_is_every_quantile() {
    let mut hist = LogHistogram::default();
    hist.observe(3.25, 1.0);
    for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
        assert_eq!(hist.quantile(q), Some(3.25), "q={q}");
    }
}

/// Property tests for the merge algebra `wasp-bench --jobs` leans
/// on: the bench harness folds per-repeat delay shards in submission
/// order, so merging must behave like multiset union — commutative,
/// associative, and indistinguishable from having observed the single
/// concatenated stream.
///
/// Values are drawn from `[1e-3, 1e3]` (≈ 1.4k of the 4096 buckets)
/// so the budget-exhaustion clamp never engages — under clamping,
/// merge order *is* observable by design, which is why the engine
/// sizes delay histograms well inside the budget. Weights are 1.0, so
/// per-bucket totals are small integers and f64 addition is exact in
/// any order; only `sum` (a dot product of unrounded values) keeps an
/// order-dependent rounding tail, checked to 1e-9 relative.
mod merge_properties {
    use super::*;
    use proptest::prelude::*;

    const PROBES: [f64; 9] = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];

    fn from_values(values: &[f64]) -> LogHistogram {
        let mut h = LogHistogram::default();
        for &v in values {
            h.observe(v, 1.0);
        }
        h
    }

    /// The order-independent observable surface: weight, extremes,
    /// the non-empty bucket layout, and every probe quantile.
    type Digest = (
        f64,
        Option<f64>,
        Option<f64>,
        Vec<(f64, f64)>,
        Vec<Option<f64>>,
    );

    fn digest(h: &LogHistogram) -> Digest {
        (
            h.count(),
            h.min(),
            h.max(),
            h.nonzero_buckets(),
            PROBES.iter().map(|&q| h.quantile(q)).collect(),
        )
    }

    fn assert_equivalent(label: &str, a: &LogHistogram, b: &LogHistogram) {
        assert_eq!(digest(a), digest(b), "{label}: observable surface differs");
        let rel = (a.sum() - b.sum()).abs() / a.sum().abs().max(1e-12);
        assert!(
            rel <= 1e-9,
            "{label}: sums differ beyond rounding ({} vs {})",
            a.sum(),
            b.sum()
        );
    }

    fn values() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(1e-3..1e3f64, 0..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merge_is_commutative(xs in values(), ys in values()) {
            let (a, b) = (from_values(&xs), from_values(&ys));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_equivalent("a∪b vs b∪a", &ab, &ba);
        }

        #[test]
        fn merge_is_associative(xs in values(), ys in values(), zs in values()) {
            let (a, b, c) = (from_values(&xs), from_values(&ys), from_values(&zs));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_equivalent("(a∪b)∪c vs a∪(b∪c)", &left, &right);
        }

        #[test]
        fn merged_shards_equal_single_stream(
            tagged in proptest::collection::vec((1e-3..1e3f64, 0..4usize), 0..300),
        ) {
            // One stream, arbitrarily partitioned into four shards the
            // way the parallel bench driver partitions repeats across
            // workers: merging the shards back must reproduce the
            // single-stream sketch bucket-for-bucket.
            let whole = from_values(&tagged.iter().map(|&(v, _)| v).collect::<Vec<_>>());
            let mut merged = LogHistogram::default();
            for shard in 0..4 {
                let part: Vec<f64> = tagged
                    .iter()
                    .filter(|&&(_, s)| s == shard)
                    .map(|&(v, _)| v)
                    .collect();
                merged.merge(&from_values(&part));
            }
            assert_equivalent("shard-merge vs single stream", &merged, &whole);
        }

        #[test]
        fn empty_histogram_is_merge_identity(xs in values()) {
            let a = from_values(&xs);
            let mut with_empty = a.clone();
            with_empty.merge(&LogHistogram::default());
            let mut from_empty = LogHistogram::default();
            from_empty.merge(&a);
            assert_equivalent("a∪∅ vs a", &with_empty, &a);
            assert_equivalent("∅∪a vs a", &from_empty, &a);
        }
    }
}

#[test]
fn extreme_magnitudes_keep_exact_min_and_max() {
    // Values spanning 24 orders of magnitude exceed the bucket
    // budget; interior quantiles degrade gracefully but the tracked
    // extremes stay exact and the memory stays bounded.
    let mut hist = LogHistogram::default();
    hist.observe(1e-12, 1.0);
    hist.observe(1.0, 1.0);
    hist.observe(1e12, 1.0);
    assert_eq!(hist.quantile(0.0), Some(1e-12));
    assert_eq!(hist.quantile(1.0), Some(1e12));
    assert!(hist.bucket_count() <= 4096);
}
