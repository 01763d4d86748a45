//! Order statistics for latency samples.
//!
//! Every percentile here is the nearest-rank percentile: the sample at
//! 1-based rank `⌈p·n⌉` of the sorted samples, the rule the engine's own
//! `LatencyStats` uses. A tail percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie above its rank, so one outlier cannot set it.

/// Samples that must lie strictly above a reported tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down by [`tail`].
pub const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.9, 0.5];

/// 1-based nearest rank of percentile `p` (in `0.0..=1.0`) among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Number of samples strictly above percentile `p`'s rank among `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// The highest of [`TAIL_CANDIDATES`] with at least [`MIN_BEYOND`] samples
/// above its rank, or `None` when even the median has fewer (then the
/// sample maximum is the only honest tail figure).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A tail figure with the percentile it stands for and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used (`1.0` means the sample maximum).
    pub p: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The tail of `samples` by the [`tail_percentile`] rule; falls back to the
/// maximum when the run holds too few samples for any percentile.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let p = tail_percentile(n).unwrap_or(1.0);
    percentile(samples, p).map(|value| Tail { p, value, n })
}

/// Percentile `p` of `samples` when at least [`MIN_BEYOND`] samples lie
/// beyond it, else the maximum. A fixed tail percentile for a gated
/// figure: the highest qualifying one ([`tail`]) is too sensitive to the
/// share of calls a busy host slows down.
pub fn tail_at(samples: &[f64], p: f64) -> Option<f64> {
    let p = if beyond(samples.len(), p) >= MIN_BEYOND {
        p
    } else {
        1.0
    };
    percentile(samples, p)
}
