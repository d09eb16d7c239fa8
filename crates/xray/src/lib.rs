//! # wasp-xray — end-to-end latency attribution
//!
//! WASP trades small, targeted reconfigurations against end-to-end
//! delay SLOs. The delay histogram says *that* p95 moved; this crate
//! says *why*: every unit of fluid carries a [`DelayLedger`] that
//! decomposes its age into six components — input-queue wait,
//! service/compute time, WAN transit, backpressure stall,
//! migration/slice-flight pause, and control-plane adaptation lag.
//!
//! The engine stamps ledgers lazily at container transitions (queue
//! dequeue, processing tick, edge hop, delivery), so the hot path pays
//! a handful of float adds per cohort move, not per tick. At delivery
//! the residual `(now − attributed_until)` closes to backpressure and
//! the components are folded into per-sink per-window
//! [`LogHistogram`](wasp_metrics::LogHistogram) families by the
//! [`XrayRecorder`]. Aggregates merge shard-wise exactly like the
//! delay histogram, so attribution is byte-identical at any `--jobs`.
//!
//! ## Conservation invariant
//!
//! For every cohort, by construction:
//!
//! ```text
//! queue + service + transit + backpressure + migration + control
//!     == (attributed_until − birth) + net_latency
//! ```
//!
//! and at delivery `attributed_until == now`, so the component sum
//! equals the exact delay the engine feeds the existing end-to-end
//! histogram — within 1e-6 relative error after count-weighted merges
//! (each merge is linear in the components, so error stays at the
//! cohort-merge epsilon, orders of magnitude below the tolerance).
//!
//! [`XrayRun`] snapshots add critical-path extraction through the DAG
//! ([`XrayRun::critical_paths`]) and folded-stacks export consumable
//! by inferno/flamegraph ([`XrayRun::folded_stacks`]).

pub mod record;

pub use record::{XrayLink, XrayNode, XrayRecorder, XrayRun, XraySink, XrayWindow};

use serde::{Deserialize, Serialize};

/// A delay component in the attribution taxonomy.
///
/// The discriminants index the `[f64; 6]` component arrays used by the
/// in-memory accumulators (the serialized forms use named fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Component {
    /// Time spent waiting in an operator input queue.
    Queue = 0,
    /// Service/compute time inside an operator.
    Service = 1,
    /// WAN transit: edge-buffer wait plus link propagation latency.
    Transit = 2,
    /// Stall behind a full downstream edge buffer (emission blocked).
    Backpressure = 3,
    /// Pause while the operator is suspended for migration or a
    /// state-slice flight (partial pauses weight by the paused share).
    Migration = 4,
    /// Control-plane adaptation lag: time blocked on a failed site
    /// before the controller's reconfiguration takes effect.
    Control = 5,
}

impl Component {
    /// All components, in ledger index order.
    pub const ALL: [Component; 6] = [
        Component::Queue,
        Component::Service,
        Component::Transit,
        Component::Backpressure,
        Component::Migration,
        Component::Control,
    ];

    /// Stable lower-case label used for metric labels, folded-stack
    /// leaves, and report columns.
    pub fn label(self) -> &'static str {
        match self {
            Component::Queue => "queue",
            Component::Service => "service",
            Component::Transit => "transit",
            Component::Backpressure => "backpressure",
            Component::Migration => "migration",
            Component::Control => "control",
        }
    }
}

/// Per-cohort delay ledger: six attribution components plus the
/// bookkeeping needed to stamp lazily.
///
/// Components are stored as named fields (not `[f64; 6]`) because the
/// ledger is embedded in serialized engine state and the sanctioned
/// `serde` build has no fixed-size-array impls;
/// [`components`](DelayLedger::components) provides the indexed view.
///
/// `mark_pause` / `mark_fail` snapshot the owning group's cumulative
/// pause counters at enqueue time, so the dequeue stamp can split the
/// queued interval into migration-pause, failure-blackout, and genuine
/// queue wait without per-tick work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayLedger {
    /// Attributed input-queue wait (seconds).
    pub queue: f64,
    /// Attributed service/compute time (seconds).
    pub service: f64,
    /// Attributed WAN transit (seconds).
    pub transit: f64,
    /// Attributed backpressure stall (seconds).
    pub backpressure: f64,
    /// Attributed migration/slice-flight pause (seconds).
    pub migration: f64,
    /// Attributed control-plane adaptation lag (seconds).
    pub control: f64,
    /// Wall-clock (sim seconds) up to which this cohort's local age is
    /// attributed. Invariant: component sum equals
    /// `(attributed_until − birth) + net_latency`.
    pub attributed_until: f64,
    /// Owning group's cumulative migration-pause seconds at the moment
    /// this cohort entered its current queue.
    pub mark_pause: f64,
    /// Owning group's cumulative failure-blackout seconds at the
    /// moment this cohort entered its current queue.
    pub mark_fail: f64,
}

impl DelayLedger {
    /// Fresh ledger for a cohort born at `birth_s` (attributed up to
    /// its own birth: component sum 0 matches age 0).
    pub fn new(birth_s: f64) -> DelayLedger {
        DelayLedger {
            queue: 0.0,
            service: 0.0,
            transit: 0.0,
            backpressure: 0.0,
            migration: 0.0,
            control: 0.0,
            attributed_until: birth_s,
            mark_pause: 0.0,
            mark_fail: 0.0,
        }
    }

    /// The six components in [`Component::ALL`] order.
    pub fn components(&self) -> [f64; 6] {
        [
            self.queue,
            self.service,
            self.transit,
            self.backpressure,
            self.migration,
            self.control,
        ]
    }

    /// Sum of all attributed components.
    pub fn sum(&self) -> f64 {
        self.queue + self.service + self.transit + self.backpressure + self.migration + self.control
    }

    /// Mutable reference to one component.
    pub fn component_mut(&mut self, c: Component) -> &mut f64 {
        match c {
            Component::Queue => &mut self.queue,
            Component::Service => &mut self.service,
            Component::Transit => &mut self.transit,
            Component::Backpressure => &mut self.backpressure,
            Component::Migration => &mut self.migration,
            Component::Control => &mut self.control,
        }
    }

    /// Adds `secs` to component `c` without advancing the attribution
    /// frontier (used for latency added outside local wall-clock, i.e.
    /// `net_latency`).
    pub fn charge(&mut self, c: Component, secs: f64) {
        *self.component_mut(c) += secs;
    }

    /// Attributes the local wall-clock interval up to `until_s` to
    /// component `c` and advances the frontier. Negative intervals
    /// (stale frontier after a rebase) are ignored.
    pub fn advance(&mut self, c: Component, until_s: f64) {
        let dt = until_s - self.attributed_until;
        if dt > 0.0 {
            *self.component_mut(c) += dt;
        }
        self.attributed_until = self.attributed_until.max(until_s);
    }

    /// Count-weighted in-place merge of two ledgers: every field
    /// becomes the weighted mean. Exactly linear, so the conservation
    /// invariant survives cohort merges and coalesces.
    pub fn merge_weighted(&mut self, w_self: f64, other: &DelayLedger, w_other: f64) {
        let total = w_self + w_other;
        if total <= 0.0 {
            return;
        }
        let mix = |a: f64, b: f64| (a * w_self + b * w_other) / total;
        self.queue = mix(self.queue, other.queue);
        self.service = mix(self.service, other.service);
        self.transit = mix(self.transit, other.transit);
        self.backpressure = mix(self.backpressure, other.backpressure);
        self.migration = mix(self.migration, other.migration);
        self.control = mix(self.control, other.control);
        self.attributed_until = mix(self.attributed_until, other.attributed_until);
        self.mark_pause = mix(self.mark_pause, other.mark_pause);
        self.mark_fail = mix(self.mark_fail, other.mark_fail);
    }

    /// Rescales the components so they sum to `budget` (preserving
    /// relative shares), attributing everything to `fallback` when the
    /// current sum is too small to carry shares. Used when a window
    /// fire resets a cohort's birth: the delay metric only counts age
    /// from the window's `max_birth`, so the ledger is rebuilt to the
    /// same budget.
    pub fn rescale_to(&mut self, budget: f64, fallback: Component) {
        let budget = budget.max(0.0);
        let sum = self.sum();
        if sum > 1e-12 && budget > 0.0 {
            let k = budget / sum;
            self.queue *= k;
            self.service *= k;
            self.transit *= k;
            self.backpressure *= k;
            self.migration *= k;
            self.control *= k;
        } else {
            self.queue = 0.0;
            self.service = 0.0;
            self.transit = 0.0;
            self.backpressure = 0.0;
            self.migration = 0.0;
            self.control = 0.0;
            *self.component_mut(fallback) = budget;
        }
    }

    /// Relative conservation error of this ledger against the delay
    /// the engine would report for a cohort with the given `birth_s`
    /// and `net_latency` at time `now_s` (0 when the delay itself is
    /// tiny).
    pub fn conservation_error(&self, birth_s: f64, net_latency: f64, now_s: f64) -> f64 {
        let delay = (now_s - birth_s) + net_latency;
        let gap = (self.sum() + (now_s - self.attributed_until) - delay).abs();
        if delay.abs() > 1e-9 {
            gap / delay.abs()
        } else {
            gap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ledger_is_conserved() {
        let l = DelayLedger::new(3.0);
        assert_eq!(l.sum(), 0.0);
        assert_eq!(l.conservation_error(3.0, 0.0, 3.0), 0.0);
    }

    #[test]
    fn advance_attributes_interval_once() {
        let mut l = DelayLedger::new(0.0);
        l.advance(Component::Queue, 2.0);
        l.advance(Component::Service, 2.5);
        // Stale frontier: no double counting.
        l.advance(Component::Queue, 1.0);
        assert!((l.queue - 2.0).abs() < 1e-12);
        assert!((l.service - 0.5).abs() < 1e-12);
        assert!((l.sum() - 2.5).abs() < 1e-12);
        assert_eq!(l.attributed_until, 2.5);
        assert_eq!(l.conservation_error(0.0, 0.0, 2.5), 0.0);
    }

    #[test]
    fn charge_tracks_net_latency() {
        let mut l = DelayLedger::new(10.0);
        l.advance(Component::Queue, 12.0);
        l.charge(Component::Transit, 0.75);
        assert!(l.conservation_error(10.0, 0.75, 12.0) < 1e-12);
    }

    #[test]
    fn weighted_merge_is_linear() {
        let mut a = DelayLedger::new(0.0);
        a.advance(Component::Queue, 4.0);
        let mut b = DelayLedger::new(2.0);
        b.advance(Component::Service, 4.0);
        a.merge_weighted(1.0, &b, 3.0);
        // Weighted birth 1.5, weighted frontier 4.0, sum must match.
        assert!((a.sum() - (4.0 - 1.5)).abs() < 1e-12);
        assert!((a.queue - 1.0).abs() < 1e-12);
        assert!((a.service - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rescale_preserves_shares_and_budget() {
        let mut l = DelayLedger::new(0.0);
        l.advance(Component::Queue, 3.0);
        l.advance(Component::Transit, 4.0);
        l.rescale_to(2.0, Component::Queue);
        assert!((l.sum() - 2.0).abs() < 1e-12);
        assert!((l.queue / l.transit - 3.0).abs() < 1e-9);

        let mut z = DelayLedger::new(0.0);
        z.rescale_to(5.0, Component::Queue);
        assert_eq!(z.queue, 5.0);
        assert_eq!(z.sum(), 5.0);
    }
}
