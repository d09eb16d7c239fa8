//! Small numeric helpers: quantiles, histogram quantiles without bucket
//! steps, and the FNV-1a digest.

use wasp_metrics::LogHistogram;

/// The `q`-quantile of `xs`, linearly interpolated between order
/// statistics; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The weighted `q`-quantile of a log-bucketed histogram, interpolated
/// geometrically inside the bucket that holds it (the histogram's own
/// quantile reports the bucket's midpoint, a ~1 % step). 0 when empty.
pub fn hist_quantile(h: &LogHistogram, q: f64) -> f64 {
    let (Some(min), Some(max)) = (h.min(), h.max()) else {
        return 0.0;
    };
    let gamma = (1.0 + h.alpha()) / (1.0 - h.alpha());
    let target = q.clamp(0.0, 1.0) * h.count();
    let mut acc = 0.0;
    for (upper, w) in h.nonzero_buckets() {
        if acc + w >= target {
            if upper <= LogHistogram::MIN_TRACKABLE {
                return min;
            }
            let lower = upper / gamma;
            let frac = ((target - acc) / w).clamp(0.0, 1.0);
            return (lower * (upper / lower).powf(frac)).clamp(min, max);
        }
        acc += w;
    }
    max
}

/// 64-bit FNV-1a, fed incrementally.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
