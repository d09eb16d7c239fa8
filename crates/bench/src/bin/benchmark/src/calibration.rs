//! Host-speed calibration of the end-to-end host metrics.
//!
//! On a shared sandbox the benchmark's speed drifts by tens of percent
//! over minutes while other tenants load the machine; the time a thread
//! waits for a CPU is not the cause (steal time stays near zero), so
//! CPU time drifts as much as wall time. A fixed memory-walk loop,
//! sampled next to the runs, slows down with the simulator (correlation
//! ~0.93 over 15 s windows on a 2-vCPU x86-64 sandbox), so each run's
//! host time is scaled by the loop's current speed over
//! [`REFERENCE_MOPS`]: the metrics read as if measured on a host where
//! the loop runs at that speed.

use crate::stats::quantile;
use std::hint::black_box;
use std::time::Instant;

/// The calibration loop's speed on the reference host, Mop/s (an idle
/// 2-vCPU x86-64 sandbox).
pub const REFERENCE_MOPS: f64 = 125.0;
/// 512 Ki entries of 8 bytes: 4 MB, larger than L2.
const TABLE: usize = 1 << 19;
/// Steps of one in-campaign sample (~4 ms on the reference host).
const SAMPLE_OPS: u64 = 500_000;
/// Minimum spacing of in-campaign samples.
const SAMPLE_EVERY_S: f64 = 0.1;
/// Samples the running median covers.
const WINDOW: usize = 5;

/// A data-dependent walk over a 4 MB table with float math, so that it
/// slows down under the same cache and memory contention that slows the
/// simulator.
pub struct Calibrator {
    table: Vec<u64>,
    last: Option<Instant>,
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator {
            table,
            last: None,
            samples: Vec::new(),
        }
    }

    /// Mop/s of `ops` steps of the walk.
    pub fn sample(&self, ops: u64) -> f64 {
        let mut acc = 0.0f64;
        let mut idx = 0usize;
        let t0 = Instant::now();
        for _ in 0..ops {
            let v = self.table[idx];
            idx = (v as usize) & (TABLE - 1);
            acc += (v as f64).sqrt() * 1e-12;
        }
        let secs = t0.elapsed().as_secs_f64();
        black_box(acc);
        ops as f64 / secs / 1e6
    }

    /// The factor that scales a host time measured now to the reference
    /// host: the running median of the last samples over
    /// [`REFERENCE_MOPS`]. Takes a new sample when the last one is older
    /// than [`SAMPLE_EVERY_S`].
    pub fn factor(&mut self) -> f64 {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= SAMPLE_EVERY_S)
        {
            self.samples.push(self.sample(SAMPLE_OPS));
            self.last = Some(Instant::now());
        }
        let recent = &self.samples[self.samples.len().saturating_sub(WINDOW)..];
        quantile(recent, 0.5) / REFERENCE_MOPS
    }
}
