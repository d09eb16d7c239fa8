//! # testkit — shared helpers for differential testing
//!
//! The engine's contract is *bit-identity*: any repetition of a run,
//! and any run with an opt-in feature spelled out as off, must produce
//! byte-for-byte the same recording as the reference. This module
//! gives the differential suites one canonical way to state that:
//! serialize both
//! sides to canonical JSON ([`canonical_json`]) and compare with
//! [`assert_identical`], which reports the first diverging line
//! instead of dumping two multi-megabyte blobs.
//!
//! Everything in the engine's observable surface
//! ([`crate::metrics::RunMetrics`],
//! snapshots, decision audits) is `Serialize` over ordered containers
//! (`Vec`, `BTreeMap`), so canonical JSON is deterministic, and
//! serde_json's shortest-round-trip float formatting makes the
//! comparison sensitive to single-ULP drift — if two `f64`s print the
//! same, they are the same bits (modulo `-0.0` and NaN payloads, which
//! the engine never produces).

use serde::Serialize;

/// Serializes a value to its canonical (deterministic) JSON form.
///
/// # Panics
///
/// Panics if serialization fails — test-only code, a failure here is a
/// bug in the value's `Serialize` impl.
pub fn canonical_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializable test value")
}

/// Returns a human-readable description of the first point where the
/// two strings diverge (line and column context), or `None` when they
/// are byte-equal.
pub fn first_divergence(reference: &str, candidate: &str) -> Option<String> {
    if reference == candidate {
        return None;
    }
    let pos = reference
        .bytes()
        .zip(candidate.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| reference.len().min(candidate.len()));
    let around = |s: &str| -> String {
        let start = pos.saturating_sub(60);
        let end = (pos + 60).min(s.len());
        // Clamp to char boundaries so slicing can't panic.
        let start = (0..=start)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        let end = (end..=s.len())
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(s.len());
        s[start..end].to_string()
    };
    Some(format!(
        "first divergence at byte {pos} (ref len {}, got len {}):\n  ref …{}…\n  got …{}…",
        reference.len(),
        candidate.len(),
        around(reference),
        around(candidate),
    ))
}

/// Asserts two serializable values are **byte-identical** under
/// canonical JSON, with a readable first-divergence report.
///
/// # Panics
///
/// Panics (failing the test) when the values differ.
pub fn assert_identical<T: Serialize>(label: &str, reference: &T, candidate: &T) {
    let r = canonical_json(reference);
    let c = canonical_json(candidate);
    if let Some(diff) = first_divergence(&r, &c) {
        panic!("{label}: not bit-identical — {diff}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_values_have_no_divergence() {
        let v = vec![1.0f64, 0.1 + 0.2, f64::MAX];
        assert_eq!(
            first_divergence(&canonical_json(&v), &canonical_json(&v)),
            None
        );
        assert_identical("self", &v, &v);
    }

    #[test]
    fn one_ulp_is_detected() {
        let a = vec![0.1f64 + 0.2];
        let b = vec![0.3f64]; // differs from 0.1 + 0.2 by one ULP
        let diff = first_divergence(&canonical_json(&a), &canonical_json(&b));
        assert!(diff.is_some(), "ULP-level drift must be visible");
    }

    #[test]
    #[should_panic(expected = "not bit-identical")]
    fn assert_identical_panics_on_difference() {
        assert_identical("demo", &vec![1, 2, 3], &vec![1, 2, 4]);
    }
}
