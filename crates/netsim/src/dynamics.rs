//! Experiment dynamics scripts: workload variation and failures.
//!
//! The paper drives every experiment with a timeline of dynamics —
//! workload factor changes, bandwidth factor changes, and resource
//! failures (§8.4–§8.6). [`DynamicsScript`] captures such a timeline in
//! one serializable value that both the simulator and the figure
//! harness consume.

use crate::site::SiteId;
use crate::trace::{FactorSeries, WalkTraceGenerator};
use crate::units::SimTime;
use serde::{Deserialize, Serialize};

/// A scheduled failure: all (or one site's) slots are revoked at
/// `at` and restored `restore_after` seconds later (§8.6 revokes all
/// compute for 60 s at t = 540).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Failure {
    /// When the failure strikes.
    pub at: SimTime,
    /// How long until resources are re-allocated.
    pub restore_after: f64,
    /// `None` = all sites (the paper's §8.6 failure); `Some(s)` = only
    /// site `s`.
    pub site: Option<SiteId>,
}

impl Failure {
    /// True if the failure is in effect at time `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        t >= self.at && t.since(self.at) < self.restore_after
    }

    /// True if this failure affects the given site at time `t`.
    pub fn affects(&self, site: SiteId, t: SimTime) -> bool {
        self.is_active(t) && self.site.map(|s| s == site).unwrap_or(true)
    }
}

/// A scheduled control-plane partition: control messages (heartbeats,
/// reconfiguration commands, acks) between sites `a` and `b` are
/// dropped while the partition is active, but the data plane is
/// untouched. Models a mis-prioritized or separately-routed control
/// channel failing independently of the data path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlPartition {
    /// One endpoint of the partitioned pair.
    pub a: SiteId,
    /// The other endpoint (the partition is symmetric).
    pub b: SiteId,
    /// When the partition starts.
    pub at: SimTime,
    /// How long it lasts.
    pub duration_s: f64,
}

impl ControlPartition {
    /// True if the partition is in effect at time `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        t >= self.at && t.since(self.at) < self.duration_s
    }

    /// True if the partition severs control traffic between `from`
    /// and `to` (either direction) at time `t`.
    pub fn affects(&self, from: SiteId, to: SiteId, t: SimTime) -> bool {
        self.is_active(t) && ((self.a == from && self.b == to) || (self.a == to && self.b == from))
    }
}

/// A full experiment dynamics script.
///
/// * `workload` — per-source multiplicative rate factors (missing
///   sources default to 1.0);
/// * `global_workload` — a factor applied to every source;
/// * `bandwidth` — a factor applied to every link;
/// * `link_bandwidth` — factors applied to single directed links
///   (blackouts and per-path degradations; the engine installs them
///   onto [`crate::network::Network`] at construction);
/// * `failures` — scheduled slot revocations.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DynamicsScript {
    workload: Vec<(SiteId, FactorSeries)>,
    global_workload: Option<FactorSeries>,
    bandwidth: Option<FactorSeries>,
    failures: Vec<Failure>,
    /// Per-site compute-speed factors (< 1.0 models a straggler site).
    compute: Vec<(SiteId, FactorSeries)>,
    /// Per-directed-link bandwidth factors (0.0 = blackout).
    #[serde(default)]
    link_bandwidth: Vec<((SiteId, SiteId), FactorSeries)>,
    /// Control-plane-only partitions (data plane unaffected).
    #[serde(default)]
    control_partitions: Vec<ControlPartition>,
}

impl DynamicsScript {
    /// An empty script: no dynamics at all.
    pub fn none() -> DynamicsScript {
        DynamicsScript::default()
    }

    /// The §8.4 script: workload 10k→20k at t = 300, back at t = 600;
    /// all-link bandwidth drop at t = 900, restored at t = 1200.
    ///
    /// The paper halved every link. On our testbed the per-pair
    /// bandwidths are uniform draws, which makes a uniform ×0.5 drop
    /// *exactly* the same multiplicative stress as the ×2 workload the
    /// system has already adapted to by t = 900 — the re-assigned
    /// placement would sail through, and the paper's "no single link
    /// can carry the stream → scale out" regime would never appear. We
    /// therefore drop to ×0.30, which reproduces that regime (see
    /// EXPERIMENTS.md).
    pub fn section_8_4() -> DynamicsScript {
        DynamicsScript::none()
            .with_global_workload(FactorSeries::steps(1.0, &[(300.0, 2.0), (600.0, 1.0)]))
            .with_bandwidth(FactorSeries::steps(1.0, &[(900.0, 0.30), (1200.0, 1.0)]))
    }

    /// The §8.5 script: workload ×{1,2,2,1,1} and bandwidth
    /// ×{1,1,0.5,0.5,1} per 300-second interval.
    pub fn section_8_5() -> DynamicsScript {
        DynamicsScript::none()
            .with_global_workload(FactorSeries::steps(1.0, &[(300.0, 2.0), (900.0, 1.0)]))
            .with_bandwidth(FactorSeries::steps(1.0, &[(600.0, 0.5), (1200.0, 1.0)]))
    }

    /// The §8.6 live script: per-source workload walks in [0.8, 2.4],
    /// an all-link bandwidth walk in [0.51, 2.36], and a full failure
    /// at t = 540 restored after 60 s.
    pub fn section_8_6(sources: &[SiteId], duration_s: f64, seed: u64) -> DynamicsScript {
        let mut script = DynamicsScript::none();
        let wgen = WalkTraceGenerator::live_workload(duration_s);
        for (i, &s) in sources.iter().enumerate() {
            script
                .workload
                .push((s, wgen.generate(seed.wrapping_add(1 + i as u64))));
        }
        script = script.with_bandwidth(
            WalkTraceGenerator::live_bandwidth(duration_s).generate(seed.wrapping_mul(31)),
        );
        script.failures.push(Failure {
            at: SimTime(540.0),
            restore_after: 60.0,
            site: None,
        });
        script
    }

    /// Adds a per-source workload factor series (builder style).
    pub fn with_workload(mut self, source: SiteId, series: FactorSeries) -> Self {
        self.workload.push((source, series));
        self
    }

    /// Sets the global workload factor series (builder style).
    pub fn with_global_workload(mut self, series: FactorSeries) -> Self {
        self.global_workload = Some(series);
        self
    }

    /// Sets the all-link bandwidth factor series (builder style).
    pub fn with_bandwidth(mut self, series: FactorSeries) -> Self {
        self.bandwidth = Some(series);
        self
    }

    /// Applies a factor series to one directed link (builder style).
    /// A factor of 0.0 blacks the link out entirely — the chaos
    /// injector uses this for per-link blackouts.
    pub fn with_link_bandwidth(mut self, from: SiteId, to: SiteId, series: FactorSeries) -> Self {
        self.link_bandwidth.push(((from, to), series));
        self
    }

    /// Per-directed-link bandwidth factor entries.
    pub fn link_bandwidth(&self) -> &[((SiteId, SiteId), FactorSeries)] {
        &self.link_bandwidth
    }

    /// Adds a failure (builder style).
    pub fn with_failure(mut self, failure: Failure) -> Self {
        self.failures.push(failure);
        self
    }

    /// Slows a site's compute by a factor series (builder style) —
    /// factors below 1.0 model a straggler node, one of the dynamics
    /// WASP targets (§1).
    pub fn with_straggler(mut self, site: SiteId, series: FactorSeries) -> Self {
        self.compute.push((site, series));
        self
    }

    /// Compute-speed factor of a site at time `t` (1.0 = nominal).
    pub fn compute_factor(&self, site: SiteId, t: SimTime) -> f64 {
        self.compute
            .iter()
            .filter(|(s, _)| *s == site)
            .map(|(_, f)| f.factor_at(t))
            .product()
    }

    /// Workload factor for a source at time `t` (per-source × global).
    pub fn workload_factor(&self, source: SiteId, t: SimTime) -> f64 {
        let per = self
            .workload
            .iter()
            .filter(|(s, _)| *s == source)
            .map(|(_, f)| f.factor_at(t))
            .product::<f64>();
        let global = self
            .global_workload
            .as_ref()
            .map(|f| f.factor_at(t))
            .unwrap_or(1.0);
        per * global
    }

    /// The earliest time after `t` at which some workload,
    /// global-workload, bandwidth or compute factor changes value, or
    /// `INFINITY` when none changes again. Per-link bandwidth series
    /// are not included.
    ///
    /// The time is returned a hair early (by about 1e-12 relative): a
    /// tick at the boundary whose float division rounds into the new
    /// sample must not be skipped, while a tick evaluated too early
    /// merely sees the old factors once more.
    pub fn next_factor_change_after(&self, t: SimTime) -> f64 {
        let at = self
            .workload
            .iter()
            .chain(&self.compute)
            .map(|(_, f)| f)
            .chain(&self.global_workload)
            .chain(&self.bandwidth)
            .map(|f| f.next_change_after(t))
            .fold(f64::INFINITY, f64::min);
        if at.is_finite() {
            at - at.abs() * 1e-12 - 1e-12
        } else {
            at
        }
    }

    /// All-link bandwidth factor series, if any.
    pub fn bandwidth_series(&self) -> Option<&FactorSeries> {
        self.bandwidth.as_ref()
    }

    /// Bandwidth factor at time `t` (1.0 when no series set).
    pub fn bandwidth_factor(&self, t: SimTime) -> f64 {
        self.bandwidth
            .as_ref()
            .map(|f| f.factor_at(t))
            .unwrap_or(1.0)
    }

    /// Scheduled failures.
    pub fn failures(&self) -> &[Failure] {
        &self.failures
    }

    /// True if some failure hits `site` at `t`.
    pub fn site_failed(&self, site: SiteId, t: SimTime) -> bool {
        self.failures.iter().any(|f| f.affects(site, t))
    }

    /// Adds a control-plane partition (builder style).
    pub fn with_control_partition(mut self, partition: ControlPartition) -> Self {
        self.control_partitions.push(partition);
        self
    }

    /// Scheduled control-plane partitions.
    pub fn control_partitions(&self) -> &[ControlPartition] {
        &self.control_partitions
    }

    /// True if a control-plane partition severs the `a`↔`b` pair at
    /// time `t`. Data-plane traffic is never affected by this.
    pub fn control_partitioned(&self, a: SiteId, b: SiteId, t: SimTime) -> bool {
        self.control_partitions.iter().any(|p| p.affects(a, b, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn section_8_4_timeline() {
        let s = DynamicsScript::section_8_4();
        let src = SiteId(0);
        assert_eq!(s.workload_factor(src, SimTime(0.0)), 1.0);
        assert_eq!(s.workload_factor(src, SimTime(300.0)), 2.0);
        assert_eq!(s.workload_factor(src, SimTime(599.0)), 2.0);
        assert_eq!(s.workload_factor(src, SimTime(600.0)), 1.0);
        assert_eq!(s.bandwidth_factor(SimTime(899.0)), 1.0);
        assert_eq!(s.bandwidth_factor(SimTime(900.0)), 0.30);
        assert_eq!(s.bandwidth_factor(SimTime(1200.0)), 1.0);
    }

    #[test]
    fn section_8_5_timeline() {
        let s = DynamicsScript::section_8_5();
        let src = SiteId(1);
        // factors per 300s interval: workload {1,2,2,1,1}, bw {1,1,.5,.5,1}
        let expect = [
            (0.0, 1.0, 1.0),
            (300.0, 2.0, 1.0),
            (600.0, 2.0, 0.5),
            (900.0, 1.0, 0.5),
            (1200.0, 1.0, 1.0),
        ];
        for (t, w, bw) in expect {
            assert_eq!(s.workload_factor(src, SimTime(t)), w, "workload at {t}");
            assert_eq!(s.bandwidth_factor(SimTime(t)), bw, "bandwidth at {t}");
        }
    }

    #[test]
    fn live_script_has_failure_and_walks() {
        let sources = [SiteId(0), SiteId(1)];
        let s = DynamicsScript::section_8_6(&sources, 1800.0, 9);
        assert_eq!(s.failures().len(), 1);
        assert!(s.site_failed(SiteId(0), SimTime(545.0)));
        assert!(s.site_failed(SiteId(1), SimTime(599.9)));
        assert!(!s.site_failed(SiteId(0), SimTime(600.1)));
        assert!(!s.site_failed(SiteId(0), SimTime(500.0)));
        // Factors remain inside their envelopes.
        for k in 0..30 {
            let t = SimTime(k as f64 * 60.0);
            let w = s.workload_factor(SiteId(0), t);
            assert!((0.8..=2.4).contains(&w), "workload {w}");
            let b = s.bandwidth_factor(t);
            assert!((0.51..=2.36).contains(&b), "bandwidth {b}");
        }
    }

    #[test]
    fn per_site_failure_only_affects_that_site() {
        let s = DynamicsScript::none().with_failure(Failure {
            at: SimTime(10.0),
            restore_after: 5.0,
            site: Some(SiteId(2)),
        });
        assert!(s.site_failed(SiteId(2), SimTime(12.0)));
        assert!(!s.site_failed(SiteId(1), SimTime(12.0)));
        assert!(!s.site_failed(SiteId(2), SimTime(15.0)));
    }

    #[test]
    fn straggler_factor_applies_per_site() {
        let s = DynamicsScript::none()
            .with_straggler(SiteId(3), FactorSeries::steps(1.0, &[(50.0, 0.25)]));
        assert_eq!(s.compute_factor(SiteId(3), SimTime(0.0)), 1.0);
        assert_eq!(s.compute_factor(SiteId(3), SimTime(50.0)), 0.25);
        assert_eq!(s.compute_factor(SiteId(1), SimTime(50.0)), 1.0);
    }

    #[test]
    fn control_partition_is_symmetric_and_bounded() {
        let s = DynamicsScript::none().with_control_partition(ControlPartition {
            a: SiteId(1),
            b: SiteId(2),
            at: SimTime(100.0),
            duration_s: 50.0,
        });
        assert!(!s.control_partitioned(SiteId(1), SiteId(2), SimTime(99.0)));
        assert!(s.control_partitioned(SiteId(1), SiteId(2), SimTime(100.0)));
        assert!(s.control_partitioned(SiteId(2), SiteId(1), SimTime(149.0)));
        assert!(!s.control_partitioned(SiteId(1), SiteId(2), SimTime(150.0)));
        assert!(!s.control_partitioned(SiteId(1), SiteId(3), SimTime(120.0)));
        // The data plane never sees the partition.
        assert!(!s.site_failed(SiteId(1), SimTime(120.0)));
    }

    #[test]
    fn workload_factors_compose() {
        let s = DynamicsScript::none()
            .with_workload(SiteId(0), FactorSeries::constant(3.0))
            .with_global_workload(FactorSeries::constant(2.0));
        assert_eq!(s.workload_factor(SiteId(0), SimTime::ZERO), 6.0);
        assert_eq!(s.workload_factor(SiteId(1), SimTime::ZERO), 2.0);
    }
}
