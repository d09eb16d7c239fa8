//! Cohort queues: the fluid event model with exact delay tracking.
//!
//! Simulating every individual event at the paper's rates (up to
//! 160 000 events/s for 1 800 s) is wasteful when all metrics are
//! rates, backlogs and latencies. Instead, events travel in *cohorts*:
//! `(birth time, count, accumulated network latency)` triples. Queues
//! are FIFO sequences of cohorts, so queueing delay, drop decisions,
//! and end-to-end latency distributions remain exact at fluid
//! granularity.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use wasp_netsim::units::SimTime;
use wasp_xray::DelayLedger;

/// A group of events born (at the external source) at the same time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cohort {
    /// Generation time at the external source.
    pub birth: SimTime,
    /// Number of events (fluid — fractional counts are fine).
    pub count: f64,
    /// Network propagation latency accumulated so far, in seconds
    /// (added on top of queueing/processing delay, which the clock
    /// captures).
    pub net_latency: f64,
    /// Per-component delay attribution (stamped only when the engine
    /// runs with xray enabled; stays at its birth value otherwise, so
    /// merges below are no-ops on it).
    pub xray: DelayLedger,
}

impl Cohort {
    /// Creates a cohort born `birth` with `count` events.
    pub fn new(birth: SimTime, count: f64) -> Cohort {
        Cohort {
            birth,
            count,
            net_latency: 0.0,
            xray: DelayLedger::new(birth.secs()),
        }
    }

    /// The end-to-end delay of this cohort if emitted at `now`
    /// (paper metric: emit time − generation time, plus accumulated
    /// propagation latency).
    pub fn delay_at(&self, now: SimTime) -> f64 {
        (now - self.birth) + self.net_latency
    }
}

/// FIFO queue of cohorts with fluid take/put operations.
///
/// # Examples
///
/// ```
/// use wasp_streamsim::cohort::{Cohort, CohortQueue};
/// use wasp_netsim::units::SimTime;
///
/// let mut q = CohortQueue::new();
/// q.push(Cohort::new(SimTime(0.0), 100.0));
/// q.push(Cohort::new(SimTime(1.0), 100.0));
/// let taken = q.take(150.0);
/// assert_eq!(taken.len(), 2);
/// assert_eq!(taken[0].count, 100.0);
/// assert_eq!(taken[1].count, 50.0);
/// assert!((q.len_events() - 50.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CohortQueue {
    cohorts: VecDeque<Cohort>,
    total: f64,
}

/// Merging tolerance: cohorts whose births are this close (seconds)
/// and whose latencies match are merged on push.
const MERGE_EPS: f64 = 1e-9;

/// Above this length the queue coalesces its oldest cohorts pairwise.
const MAX_COHORTS: usize = 4096;

impl CohortQueue {
    /// An empty queue.
    pub fn new() -> CohortQueue {
        CohortQueue::default()
    }

    /// Number of events queued (fluid count).
    pub fn len_events(&self) -> f64 {
        self.total
    }

    /// True if no events are queued.
    pub fn is_empty(&self) -> bool {
        self.total <= 1e-12
    }

    /// Number of distinct cohorts (for diagnostics).
    pub fn len_cohorts(&self) -> usize {
        self.cohorts.len()
    }

    /// Birth time of the oldest queued cohort.
    pub fn oldest_birth(&self) -> Option<SimTime> {
        self.cohorts.front().map(|c| c.birth)
    }

    /// Appends a cohort (merging with the tail when compatible).
    pub fn push(&mut self, c: Cohort) {
        if c.count <= 0.0 {
            return;
        }
        self.total += c.count;
        if let Some(back) = self.cohorts.back_mut() {
            if (back.birth.secs() - c.birth.secs()).abs() < MERGE_EPS
                && (back.net_latency - c.net_latency).abs() < MERGE_EPS
            {
                // Count-weighted ledger mean keeps attribution
                // conserved; with xray off both ledgers are identical
                // birth-fresh values and the mean is a no-op.
                let (wa, wb) = (back.count, c.count);
                back.xray.merge_weighted(wa, &c.xray, wb);
                back.count += c.count;
                return;
            }
        }
        self.cohorts.push_back(c);
        if self.cohorts.len() > MAX_COHORTS {
            self.coalesce_oldest();
        }
    }

    /// Appends many cohorts.
    pub fn push_all(&mut self, cs: impl IntoIterator<Item = Cohort>) {
        for c in cs {
            self.push(c);
        }
    }

    /// Removes up to `n` events from the front, FIFO, splitting the
    /// boundary cohort as needed. Returns the removed cohorts.
    pub fn take(&mut self, n: f64) -> Vec<Cohort> {
        let mut out = Vec::new();
        self.take_into(n, &mut out);
        out
    }

    /// [`CohortQueue::take`] appending the removed cohorts to `out`,
    /// so hot loops can reuse one buffer.
    pub fn take_into(&mut self, n: f64, out: &mut Vec<Cohort>) {
        let mut remaining = n.max(0.0);
        while remaining > 1e-12 {
            let Some(front) = self.cohorts.front_mut() else {
                break;
            };
            if front.count <= remaining + 1e-12 {
                remaining -= front.count;
                self.total -= front.count;
                out.push(*front);
                self.cohorts.pop_front();
            } else {
                front.count -= remaining;
                self.total -= remaining;
                let mut taken = *front;
                taken.count = remaining;
                out.push(taken);
                remaining = 0.0;
            }
        }
        if self.cohorts.is_empty() {
            self.total = 0.0; // absorb float dust
        }
    }

    /// Removes *all* events.
    pub fn drain(&mut self) -> Vec<Cohort> {
        self.total = 0.0;
        self.cohorts.drain(..).collect()
    }

    /// Discards every queued event (including float dust), keeping
    /// the buffer's capacity for reuse.
    pub fn clear(&mut self) {
        self.cohorts.clear();
        self.total = 0.0;
    }

    /// Drops every cohort whose delay at `now` already exceeds
    /// `max_delay` seconds (the Degrade baseline's late-event drop).
    /// Returns the number of events dropped.
    pub fn drop_late(&mut self, now: SimTime, max_delay: f64) -> f64 {
        let mut dropped = 0.0;
        while let Some(front) = self.cohorts.front() {
            if front.delay_at(now) > max_delay {
                dropped += front.count;
                self.total -= front.count;
                self.cohorts.pop_front();
            } else {
                break;
            }
        }
        if self.cohorts.is_empty() {
            self.total = 0.0;
        }
        dropped
    }

    /// Scales every cohort's count by `factor` (used when an operator
    /// with selectivity σ emits its processed events).
    pub fn scaled(cohorts: &[Cohort], factor: f64) -> Vec<Cohort> {
        Self::scaled_iter(cohorts, factor).collect()
    }

    /// Appends `cohorts` scaled by `factor`: the same as
    /// `push_all(CohortQueue::scaled(cohorts, factor))` without the
    /// intermediate vector.
    pub fn push_scaled(&mut self, cohorts: &[Cohort], factor: f64) {
        for c in Self::scaled_iter(cohorts, factor) {
            self.push(c);
        }
    }

    fn scaled_iter(cohorts: &[Cohort], factor: f64) -> impl Iterator<Item = Cohort> + '_ {
        cohorts
            .iter()
            .filter(move |c| c.count * factor > 0.0)
            .map(move |c| Cohort {
                birth: c.birth,
                count: c.count * factor,
                net_latency: c.net_latency,
                xray: c.xray,
            })
    }

    /// Merges the oldest half of the queue pairwise, preserving total
    /// count and count-weighted mean birth/latency.
    fn coalesce_oldest(&mut self) {
        let merge_n = self.cohorts.len() / 2;
        let mut merged: Vec<Cohort> = Vec::with_capacity(merge_n / 2 + 1);
        for _ in 0..merge_n / 2 {
            let a = self.cohorts.pop_front().expect("len checked");
            let b = self.cohorts.pop_front().expect("len checked");
            let count = a.count + b.count;
            let mut xray = a.xray;
            xray.merge_weighted(a.count, &b.xray, b.count);
            merged.push(Cohort {
                birth: SimTime((a.birth.secs() * a.count + b.birth.secs() * b.count) / count),
                count,
                net_latency: (a.net_latency * a.count + b.net_latency * b.count) / count,
                xray,
            });
        }
        for c in merged.into_iter().rev() {
            self.cohorts.push_front(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_take_preserves_fifo_and_counts() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 10.0));
        q.push(Cohort::new(SimTime(1.0), 20.0));
        assert_eq!(q.len_events(), 30.0);
        let t = q.take(15.0);
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].birth, SimTime(0.0));
        assert_eq!(t[0].count, 10.0);
        assert_eq!(t[1].birth, SimTime(1.0));
        assert_eq!(t[1].count, 5.0);
        assert!((q.len_events() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn take_more_than_available() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 5.0));
        let t = q.take(100.0);
        assert_eq!(t.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn adjacent_same_birth_cohorts_merge() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(2.0), 1.0));
        q.push(Cohort::new(SimTime(2.0), 3.0));
        assert_eq!(q.len_cohorts(), 1);
        assert_eq!(q.len_events(), 4.0);
    }

    #[test]
    fn zero_count_push_is_noop() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 0.0));
        q.push(Cohort::new(SimTime(0.0), -5.0));
        assert!(q.is_empty());
        assert_eq!(q.len_cohorts(), 0);
    }

    #[test]
    fn drop_late_removes_only_expired() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 10.0));
        q.push(Cohort::new(SimTime(8.0), 10.0));
        let dropped = q.drop_late(SimTime(10.0), 5.0);
        assert_eq!(dropped, 10.0);
        assert_eq!(q.len_events(), 10.0);
        assert_eq!(q.oldest_birth(), Some(SimTime(8.0)));
    }

    #[test]
    fn delay_includes_net_latency() {
        let mut c = Cohort::new(SimTime(1.0), 1.0);
        c.net_latency = 0.25;
        assert!((c.delay_at(SimTime(3.0)) - 2.25).abs() < 1e-12);
    }

    #[test]
    fn scaled_applies_selectivity() {
        let cs = [
            Cohort::new(SimTime(0.0), 10.0),
            Cohort::new(SimTime(1.0), 4.0),
        ];
        let out = CohortQueue::scaled(&cs, 0.5);
        assert_eq!(out[0].count, 5.0);
        assert_eq!(out[1].count, 2.0);
        assert!(CohortQueue::scaled(&cs, 0.0).is_empty());
    }

    #[test]
    fn coalesce_bounds_cohort_count_and_preserves_mass() {
        let mut q = CohortQueue::new();
        for i in 0..10_000 {
            q.push(Cohort::new(SimTime(i as f64), 1.0));
        }
        assert!(q.len_cohorts() <= 4096 + 1);
        assert!((q.len_events() - 10_000.0).abs() < 1e-6);
        // FIFO order by birth is preserved.
        let drained = q.drain();
        for w in drained.windows(2) {
            assert!(w[0].birth <= w[1].birth);
        }
    }

    #[test]
    fn push_scaled_matches_push_all_of_scaled() {
        let cs = [
            Cohort::new(SimTime(0.0), 10.0),
            Cohort::new(SimTime(0.0), 3.0),
            Cohort::new(SimTime(1.0), 4.0),
        ];
        let mut a = CohortQueue::new();
        a.push_all(CohortQueue::scaled(&cs, 0.3));
        let mut b = CohortQueue::new();
        b.push_scaled(&cs, 0.3);
        assert_eq!(a.len_events().to_bits(), b.len_events().to_bits());
        assert_eq!(a.drain(), b.drain());
    }

    #[test]
    fn clear_drops_dust_and_take_into_appends() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 5e-13));
        assert!(q.is_empty());
        assert_eq!(q.len_cohorts(), 1);
        q.clear();
        assert_eq!(q.len_cohorts(), 0);
        assert_eq!(q.len_events(), 0.0);
        q.push(Cohort::new(SimTime(1.0), 4.0));
        let mut out = vec![Cohort::new(SimTime(0.0), 1.0)];
        q.take_into(3.0, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].count, 3.0);
        assert_eq!(q.len_events(), 1.0);
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = CohortQueue::new();
        q.push(Cohort::new(SimTime(0.0), 3.0));
        let all = q.drain();
        assert_eq!(all.len(), 1);
        assert!(q.is_empty());
    }
}
