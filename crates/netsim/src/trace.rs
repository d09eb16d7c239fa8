//! Bandwidth-variation traces.
//!
//! The paper drives its experiments with (a) scripted step changes
//! ("halve the bandwidth of every link at t = 900", §8.4), (b) a 1-day
//! measurement of EC2 pair-wise bandwidth resampled every 5 minutes
//! (Fig. 2), and (c) a live random variation in `[0.51, 2.36]` (§8.6).
//! All three are represented here as *factor series*: multiplicative
//! factors applied to a link's base capacity over time.

use crate::stats::{truncated_normal, BoundedWalk};
use crate::units::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A piecewise-constant multiplicative factor over time.
///
/// Sampled at a fixed interval; queries between samples return the most
/// recent sample (zero-order hold), matching how an iperf-style monitor
/// observes bandwidth.
///
/// # Examples
///
/// ```
/// use wasp_netsim::trace::FactorSeries;
/// use wasp_netsim::units::SimTime;
///
/// let s = FactorSeries::from_samples(300.0, vec![1.0, 0.5, 1.0]);
/// assert_eq!(s.factor_at(SimTime(0.0)), 1.0);
/// assert_eq!(s.factor_at(SimTime(310.0)), 0.5);
/// assert_eq!(s.factor_at(SimTime(900.0)), 1.0); // held after the end
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorSeries {
    interval_s: f64,
    samples: Vec<f64>,
}

impl FactorSeries {
    /// A constant factor of 1.0 forever.
    pub fn unit() -> FactorSeries {
        FactorSeries::constant(1.0)
    }

    /// A constant factor forever.
    pub fn constant(factor: f64) -> FactorSeries {
        FactorSeries {
            interval_s: f64::INFINITY,
            samples: vec![factor],
        }
    }

    /// Builds a series from explicit samples spaced `interval_s` apart.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `interval_s` is not positive.
    pub fn from_samples(interval_s: f64, samples: Vec<f64>) -> FactorSeries {
        assert!(!samples.is_empty(), "factor series needs samples");
        assert!(interval_s > 0.0, "interval must be positive");
        FactorSeries {
            interval_s,
            samples,
        }
    }

    /// Builds a step schedule from `(time, factor)` change points.
    /// The factor before the first change point is 1.0.
    ///
    /// Used for the §8.4 scripted dynamics. Change points must be
    /// non-negative and strictly increasing.
    ///
    /// # Panics
    ///
    /// Panics if change points are not strictly increasing, or any is
    /// negative.
    pub fn steps(resolution_s: f64, changes: &[(f64, f64)]) -> FactorSeries {
        assert!(resolution_s > 0.0);
        let mut prev = -1.0;
        for &(t, _) in changes {
            assert!(t >= 0.0 && t > prev, "change points must increase");
            prev = t;
        }
        let horizon = changes.last().map(|&(t, _)| t).unwrap_or(0.0);
        let n = (horizon / resolution_s).ceil() as usize + 1;
        let mut samples = vec![1.0; n];
        for (i, sample) in samples.iter_mut().enumerate() {
            let t = i as f64 * resolution_s;
            let mut f = 1.0;
            for &(ct, cf) in changes {
                if t >= ct {
                    f = cf;
                }
            }
            *sample = f;
        }
        FactorSeries {
            interval_s: resolution_s,
            samples,
        }
    }

    /// The factor in effect at time `t`. Times before zero clamp to the
    /// first sample; times past the end hold the last sample.
    pub fn factor_at(&self, t: SimTime) -> f64 {
        if self.samples.len() == 1 {
            return self.samples[0];
        }
        let idx = (t.secs().max(0.0) / self.interval_s) as usize;
        self.samples[idx.min(self.samples.len() - 1)]
    }

    /// The first sample boundary after `t` at which the factor changes
    /// value, or `INFINITY` when it holds its value from `t` on.
    /// Boundaries where the next sample repeats the current one do
    /// not count.
    pub(crate) fn next_change_after(&self, t: SimTime) -> f64 {
        if self.samples.len() == 1 {
            return f64::INFINITY;
        }
        let idx = ((t.secs().max(0.0) / self.interval_s) as usize).min(self.samples.len() - 1);
        let current = self.samples[idx];
        self.samples[idx + 1..]
            .iter()
            .position(|&s| s != current)
            .map_or(f64::INFINITY, |k| (idx + 1 + k) as f64 * self.interval_s)
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Sampling interval in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Multiplies two series pointwise (resampling at the finer
    /// interval over the longer horizon).
    pub fn combine(&self, other: &FactorSeries) -> FactorSeries {
        if self.samples.len() == 1 && other.samples.len() == 1 {
            return FactorSeries::constant(self.samples[0] * other.samples[0]);
        }
        let interval = if self.samples.len() == 1 {
            other.interval_s
        } else if other.samples.len() == 1 {
            self.interval_s
        } else {
            self.interval_s.min(other.interval_s)
        };
        let horizon_a = if self.samples.len() == 1 {
            0.0
        } else {
            self.interval_s * self.samples.len() as f64
        };
        let horizon_b = if other.samples.len() == 1 {
            0.0
        } else {
            other.interval_s * other.samples.len() as f64
        };
        let horizon = horizon_a.max(horizon_b).max(interval);
        let n = (horizon / interval).ceil() as usize;
        // Sample each cell at its midpoint: a zero-order-hold cell is
        // constant, and midpoint sampling avoids float-boundary noise
        // at cell edges.
        let samples = (0..n)
            .map(|i| {
                let t = SimTime((i as f64 + 0.5) * interval);
                self.factor_at(t) * other.factor_at(t)
            })
            .collect();
        FactorSeries {
            interval_s: interval,
            samples,
        }
    }
}

/// Generates a 1-day EC2-style bandwidth factor trace (Fig. 2).
///
/// The paper measured pair-wise bandwidth between 8 EC2 regions every
/// 5 minutes for a day and observed 25–93 % deviation from the mean.
/// This generator draws a per-link relative deviation in that range and
/// produces truncated-Gaussian factors around 1.0 resampled every
/// `interval_s` seconds.
#[derive(Debug, Clone)]
pub struct Ec2TraceGenerator {
    /// Resample interval (the paper used 300 s).
    pub interval_s: f64,
    /// Trace duration in seconds (the paper used 86 400 s).
    pub duration_s: f64,
    /// Lower bound on the per-link deviation-from-mean ratio.
    pub min_deviation: f64,
    /// Upper bound on the per-link deviation-from-mean ratio.
    pub max_deviation: f64,
}

impl Default for Ec2TraceGenerator {
    fn default() -> Self {
        Ec2TraceGenerator {
            interval_s: 300.0,
            duration_s: 86_400.0,
            min_deviation: 0.25,
            max_deviation: 0.93,
        }
    }
}

impl Ec2TraceGenerator {
    /// Generates one link's factor series with the given seed.
    pub fn generate(&self, seed: u64) -> FactorSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = (self.duration_s / self.interval_s).ceil() as usize;
        // Per-link "spread" — how volatile this particular link is.
        let spread = truncated_normal(
            &mut rng,
            (self.min_deviation + self.max_deviation) / 2.0,
            0.2,
            self.min_deviation,
            self.max_deviation,
        );
        let samples = (0..n)
            .map(|_| truncated_normal(&mut rng, 1.0, spread / 2.0, 1.0 - spread, 1.0 + spread))
            .collect();
        FactorSeries {
            interval_s: self.interval_s,
            samples,
        }
    }
}

/// Generates a live random-walk factor trace (§8.6).
///
/// The paper's live experiment used bandwidth factors in `[0.51, 2.36]`
/// and workload factors in `[0.8, 2.4]`, changing unpredictably.
#[derive(Debug, Clone)]
pub struct WalkTraceGenerator {
    /// Resample interval in seconds.
    pub interval_s: f64,
    /// Trace duration in seconds.
    pub duration_s: f64,
    /// Lower factor bound.
    pub lo: f64,
    /// Upper factor bound.
    pub hi: f64,
    /// Per-step log-volatility of the walk.
    pub volatility: f64,
}

impl WalkTraceGenerator {
    /// The paper's live *bandwidth* variation envelope (0.51–2.36×).
    pub fn live_bandwidth(duration_s: f64) -> WalkTraceGenerator {
        WalkTraceGenerator {
            interval_s: 60.0,
            duration_s,
            lo: 0.51,
            hi: 2.36,
            volatility: 0.22,
        }
    }

    /// The paper's live *workload* variation envelope (0.8–2.4×).
    pub fn live_workload(duration_s: f64) -> WalkTraceGenerator {
        WalkTraceGenerator {
            interval_s: 60.0,
            duration_s,
            lo: 0.8,
            hi: 2.4,
            volatility: 0.18,
        }
    }

    /// Generates a factor series with the given seed.
    pub fn generate(&self, seed: u64) -> FactorSeries {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = ((self.lo + self.hi) / 2.0).min(1.0).max(self.lo);
        let mut walk = BoundedWalk::new(start, self.lo, self.hi, self.volatility);
        let n = (self.duration_s / self.interval_s).ceil().max(1.0) as usize;
        let samples = (0..n).map(|_| walk.step(&mut rng)).collect();
        FactorSeries {
            interval_s: self.interval_s,
            samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn constant_series_holds_forever() {
        let s = FactorSeries::constant(0.5);
        assert_eq!(s.factor_at(SimTime(0.0)), 0.5);
        assert_eq!(s.factor_at(SimTime(1e9)), 0.5);
    }

    #[test]
    fn steps_schedule_matches_paper_section_8_4() {
        // Bandwidth: halved at t=900, restored at t=1200.
        let s = FactorSeries::steps(1.0, &[(900.0, 0.5), (1200.0, 1.0)]);
        assert_eq!(s.factor_at(SimTime(0.0)), 1.0);
        assert_eq!(s.factor_at(SimTime(899.0)), 1.0);
        assert_eq!(s.factor_at(SimTime(900.0)), 0.5);
        assert_eq!(s.factor_at(SimTime(1199.0)), 0.5);
        assert_eq!(s.factor_at(SimTime(1200.0)), 1.0);
        assert_eq!(s.factor_at(SimTime(99_999.0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "must increase")]
    fn steps_reject_unordered_changes() {
        let _ = FactorSeries::steps(1.0, &[(10.0, 0.5), (5.0, 1.0)]);
    }

    #[test]
    fn ec2_trace_stays_positive_and_varies() {
        let g = Ec2TraceGenerator::default();
        let s = g.generate(11);
        assert_eq!(s.samples().len(), 288); // 86400 / 300
        let stats = summarize(s.samples()).unwrap();
        assert!(stats.min > 0.0, "bandwidth factor must stay positive");
        assert!(stats.std_dev > 0.02, "trace should vary");
        assert!((stats.mean - 1.0).abs() < 0.2, "mean near 1.0");
    }

    #[test]
    fn ec2_trace_is_deterministic_per_seed() {
        let g = Ec2TraceGenerator::default();
        assert_eq!(g.generate(5), g.generate(5));
        assert_ne!(g.generate(5), g.generate(6));
    }

    #[test]
    fn walk_trace_respects_live_envelopes() {
        let g = WalkTraceGenerator::live_bandwidth(1800.0);
        let s = g.generate(3);
        for &f in s.samples() {
            assert!((0.51..=2.36).contains(&f));
        }
        let g = WalkTraceGenerator::live_workload(1800.0);
        let s = g.generate(3);
        for &f in s.samples() {
            assert!((0.8..=2.4).contains(&f));
        }
    }

    #[test]
    fn combine_multiplies_pointwise() {
        let a = FactorSeries::steps(1.0, &[(10.0, 0.5)]);
        let b = FactorSeries::constant(2.0);
        let c = a.combine(&b);
        assert_eq!(c.factor_at(SimTime(0.0)), 2.0);
        assert_eq!(c.factor_at(SimTime(10.0)), 1.0);
        let d = FactorSeries::constant(3.0).combine(&FactorSeries::constant(0.5));
        assert_eq!(d.factor_at(SimTime(123.0)), 1.5);
    }

    #[test]
    fn combine_two_stepped_series() {
        let a = FactorSeries::steps(1.0, &[(5.0, 0.5)]);
        let b = FactorSeries::steps(2.0, &[(8.0, 4.0)]);
        let c = a.combine(&b);
        assert_eq!(c.factor_at(SimTime(0.0)), 1.0);
        assert_eq!(c.factor_at(SimTime(6.0)), 0.5);
        assert_eq!(c.factor_at(SimTime(9.0)), 2.0);
    }
}
