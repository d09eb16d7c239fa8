//! Per-link WAN transit accounting.
//!
//! The engine's xray attribution charges every cohort's edge-buffer
//! wait plus propagation latency to the *logical* DAG edge it crossed;
//! this ledger keeps the *physical* view — seconds·events and event
//! counts per directed site pair — so reports can rank which WAN links
//! actually carry the transit component of end-to-end delay.

use crate::site::SiteId;

/// One directed link's accumulated transit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkTransit {
    /// Transit seconds weighted by event count (seconds·events).
    pub seconds: f64,
    /// Events carried.
    pub events: f64,
}

impl LinkTransit {
    /// Mean transit seconds per event (0 when nothing was carried).
    pub fn mean_s(&self) -> f64 {
        if self.events > 0.0 {
            self.seconds / self.events
        } else {
            0.0
        }
    }
}

/// Deterministic accumulator of per-directed-link transit charges.
///
/// # Examples
///
/// ```
/// use wasp_netsim::site::SiteId;
/// use wasp_netsim::transit::TransitLedger;
///
/// let mut ledger = TransitLedger::new();
/// ledger.record(SiteId(0), SiteId(1), 0.25 * 100.0, 100.0);
/// ledger.record(SiteId(0), SiteId(1), 0.35 * 50.0, 50.0);
/// let rows = ledger.rows();
/// assert_eq!(rows.len(), 1);
/// assert!((rows[0].2.mean_s() - (25.0 + 17.5) / 150.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TransitLedger {
    /// Dense by `from · side + to`; `None` for links never charged.
    links: Vec<Option<LinkTransit>>,
    /// Side of the square: one more than the largest site id seen.
    side: usize,
}

impl TransitLedger {
    /// An empty ledger.
    pub fn new() -> TransitLedger {
        TransitLedger::default()
    }

    /// Charges `seconds` (already event-weighted) and `events` to the
    /// directed link `from → to`. Non-positive event counts are
    /// ignored.
    pub fn record(&mut self, from: SiteId, to: SiteId, seconds: f64, events: f64) {
        if events <= 0.0 {
            return;
        }
        let acc = self.acc(from, to);
        acc.seconds += seconds;
        acc.events += events;
    }

    /// The accumulator of the directed link `from → to`, registering
    /// the link (at zero) if it is new. Lets a caller resolve the slot
    /// once and add many charges into it; like
    /// [`TransitLedger::record`], it should be resolved only for a
    /// positive event count.
    pub fn acc(&mut self, from: SiteId, to: SiteId) -> &mut LinkTransit {
        let need = from.index().max(to.index()) + 1;
        if need > self.side {
            let old = std::mem::take(&mut self.links);
            self.links = vec![None; need * need];
            for (k, acc) in old.into_iter().enumerate() {
                self.links[(k / self.side) * need + k % self.side] = acc;
            }
            self.side = need;
        }
        self.links[from.index() * self.side + to.index()].get_or_insert_with(LinkTransit::default)
    }

    /// Folds another ledger into this one.
    pub fn merge(&mut self, other: &TransitLedger) {
        for (from, to, acc) in other.rows() {
            let mine = self.acc(from, to);
            mine.seconds += acc.seconds;
            mine.events += acc.events;
        }
    }

    /// All rows, ascending by (from, to).
    pub fn rows(&self) -> Vec<(SiteId, SiteId, LinkTransit)> {
        let site = |i: usize| SiteId(u16::try_from(i).expect("slots come from u16 site ids"));
        self.links
            .iter()
            .enumerate()
            .filter_map(|(k, acc)| acc.map(|a| (site(k / self.side), site(k % self.side), a)))
            .collect()
    }

    /// The `n` links carrying the most transit seconds, descending
    /// (ties break toward the smaller site pair).
    pub fn top_n(&self, n: usize) -> Vec<(SiteId, SiteId, LinkTransit)> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| {
            b.2.seconds
                .total_cmp(&a.2.seconds)
                .then((a.0, a.1).cmp(&(b.0, b.1)))
        });
        rows.truncate(n);
        rows
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.links.iter().all(Option::is_none)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_merge_and_rank() {
        let mut a = TransitLedger::new();
        a.record(SiteId(0), SiteId(1), 10.0, 100.0);
        a.record(SiteId(1), SiteId(2), 50.0, 10.0);
        let mut b = TransitLedger::new();
        b.record(SiteId(0), SiteId(1), 5.0, 50.0);
        b.record(SiteId(2), SiteId(0), 1.0, 1.0);
        a.merge(&b);

        let top = a.top_n(2);
        assert_eq!(top[0].0, SiteId(1));
        assert_eq!(top[0].1, SiteId(2));
        assert!((top[0].2.mean_s() - 5.0).abs() < 1e-12);
        assert_eq!(top[1].0, SiteId(0));
        assert_eq!(top[1].1, SiteId(1));
        assert!((top[1].2.seconds - 15.0).abs() < 1e-12);
        assert!((top[1].2.events - 150.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_empty_charges() {
        let mut l = TransitLedger::new();
        l.record(SiteId(0), SiteId(1), 1.0, 0.0);
        assert!(l.is_empty());
        assert_eq!(l.rows().len(), 0);
        assert_eq!(LinkTransit::default().mean_s(), 0.0);
    }
}
