//! Summary statistics over timing samples, plus the digest used to compare
//! outputs across passes.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Samples that must lie strictly beyond a tail percentile before it is
/// reported: below this, the "percentile" is one of a handful of values.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (nearest rank, `p` in (0, 1)) of `values`, but
/// only when at least [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile outside (0, 1)");
    let n = values.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of strictly positive values; `None` when empty or when
/// any value is not positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of a value's `Debug` rendering — every field, floats bit-exact
/// to their shortest round-trip form.
pub fn digest_of<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv64(format!("{value:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of n samples sits at rank ceil(0.9 n); n - rank must be >= 10.
        let under: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail_percentile(&under, 0.9), None);
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.9), Some(89.0));
        let beyond = enough.iter().filter(|&&v| v > 89.0).count();
        assert_eq!(beyond, MIN_TAIL_SAMPLES);
        // p50 needs only 20 samples.
        let small: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 0.5), Some(9.0));
        assert_eq!(tail_percentile(&small[..19], 0.5), None);
    }

    #[test]
    fn geomean_rejects_non_positive_values() {
        let g = geomean(&[1.0, 4.0]).expect("positive values");
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn digest_tracks_every_field() {
        assert_eq!(digest_of(&(1u32, 2.5f64)), digest_of(&(1u32, 2.5f64)));
        assert_ne!(digest_of(&(1u32, 2.5f64)), digest_of(&(1u32, 2.5000001f64)));
    }
}
