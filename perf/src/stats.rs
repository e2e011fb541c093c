//! Small statistics used by the report: medians, percentiles, the tail
//! percentile rule and the simulated-statistics digest.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Tail percentiles the report may quote, from low to high.
pub const TAIL_LADDER: [f64; 3] = [90.0, 99.0, 99.9];

/// Samples a percentile must leave beyond it before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// lowest does not (only the median is then quoted).
pub fn highest_tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| (n as f64 * (1.0 - p / 100.0) + 1e-9).floor() as usize >= MIN_BEYOND)
}

/// 64-bit FNV-1a over a stream of text records: the digest of every
/// simulated statistic a pass produced. Any change to a counter changes
/// the digest; host timing never enters it.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorb one record (a newline is absorbed after it, so record
    /// boundaries matter).
    pub fn add(&mut self, record: &str) {
        for b in record.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // Fewer than 100 samples: p90 would leave < 10 beyond it.
        assert_eq!(highest_tail_percentile(0), None);
        assert_eq!(highest_tail_percentile(10), None);
        assert_eq!(highest_tail_percentile(99), None);
        assert_eq!(highest_tail_percentile(100), Some(90.0));
        // A fault sweep pass has 190 cells: 19 beyond p90, 1.9 beyond p99.
        assert_eq!(highest_tail_percentile(190), Some(90.0));
        assert_eq!(highest_tail_percentile(999), Some(90.0));
        assert_eq!(highest_tail_percentile(1000), Some(99.0));
        assert_eq!(highest_tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn digest_sees_every_byte_and_boundary() {
        let mut a = Digest::default();
        a.add("ab");
        a.add("c");
        let mut b = Digest::default();
        b.add("a");
        b.add("bc");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.add("ab");
        c.add("c");
        assert_eq!(a.hex(), c.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
