//! Incremental sliding-window Haar decomposition.
//!
//! The trainer asks for the horizon decomposition of `window[t+1−z ..= t]`
//! at every environment step — each request shifts the previous window by
//! one sample and recomputes every level from scratch. Decimated Haar
//! analysis pairs samples `(2i, 2i+1)`, so a shift of exactly
//! `2^levels` samples preserves the pairing at *every* level (level `l`'s
//! input shifts by `2^(levels−l)`, always even). [`SlidingDwt`] exploits
//! this with a ring of `2^levels` slots keyed by `end % 2^levels`: after a
//! warm-up of one period, every stride-1 request finds the slot filled by
//! `end − 2^levels` and only analyses the `2^levels` new samples
//! (`2^levels − 1` new coefficients) instead of the full `O(z · n)`
//! decomposition.
//!
//! A slot holds only its window and its Haar coefficients, packed into
//! one flat ring; the bands are rebuilt from the coefficients into buffers
//! the cache owns, with the masked synthesis [`horizon_scales`] runs.
//! Neither the slide nor the rebuild allocates once the ring exists.
//!
//! Cached results are **bitwise identical** to [`horizon_scales`]: the
//! incremental path evaluates exactly the same floating-point operations on
//! exactly the same operands as a cold decomposition, it just skips the
//! ones whose results are already known. Windows are matched by bit
//! pattern, so `-0.0` and `+0.0` samples never share a result. Windows
//! whose length is not a multiple of `2^levels` (odd-padding would break
//! pair alignment), and single-band requests, are computed in full on
//! every call and never cached.

use crate::horizon::horizon_scales;

const SQRT2: f64 = std::f64::consts::SQRT_2;

/// Hit/miss counters of a [`SlidingDwt`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DwtCacheStats {
    /// Requests answered entirely from cache (same `end`, same window).
    pub memo_hits: u64,
    /// Requests answered by an incremental tail update.
    pub incremental: u64,
    /// Requests that required a full decomposition.
    pub full: u64,
}

/// A sliding-window cache around [`horizon_scales`].
///
/// One instance serves one scalar series (one asset/feature pair); `end` is
/// the series index of the window's last sample, so consecutive calls with
/// `end, end+1, end+2, …` hit the incremental path once the ring is warm.
///
/// ```
/// use cit_dwt::{horizon_scales, SlidingDwt};
///
/// let series: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).sin() + 2.0).collect();
/// let (z, n_scales) = (16, 3); // z is a multiple of period() = 2^(n-1) = 4
/// let mut cache = SlidingDwt::new(z, n_scales);
/// for end in (z - 1)..series.len() {
///     let window = &series[end + 1 - z..=end];
///     // Bitwise identical to a cold decomposition of the same window.
///     assert_eq!(cache.scales_at(end, window), &horizon_scales(window, n_scales));
/// }
/// // After one warm-up period, stride-1 sweeps run incrementally.
/// let stats = cache.stats();
/// assert!(stats.incremental > stats.full, "{stats:?}");
/// ```
pub struct SlidingDwt {
    z: usize,
    n_scales: usize,
    levels: usize,
    /// Slide distance that preserves Haar pair alignment (`2^levels`).
    period: usize,
    /// Whether requests go through the ring at all: at least one level,
    /// and `z` a multiple of `period`.
    ringed: bool,
    /// Per ring slot, the series index of the window it holds. This and
    /// the buffers below are allocated on first use, so an idle cache
    /// costs no heap.
    ends: Vec<Option<usize>>,
    /// `period` slots of `2z` values. A slot is its window followed by the
    /// window's Haar coefficients, coarsest first: the approximation in
    /// `[0, z >> levels)`, detail level `l` in `[z >> (l+1), z >> l)`.
    ring: Vec<f64>,
    /// The bands of the latest request, rebuilt from its slot.
    bands: Vec<Vec<f64>>,
    /// The ring slot whose current state `bands` holds.
    bands_of: Option<usize>,
    /// Work buffer for analysis tails and synthesis steps.
    scratch: Vec<f64>,
    stats: DwtCacheStats,
}

impl SlidingDwt {
    /// Creates a cache for windows of length `z` split into `n_scales`
    /// horizon bands (mirroring [`horizon_scales`]).
    ///
    /// # Panics
    /// Panics if `z == 0` or `n_scales == 0`.
    pub fn new(z: usize, n_scales: usize) -> Self {
        assert!(z >= 1, "SlidingDwt: window length must be positive");
        assert!(n_scales >= 1, "SlidingDwt: need at least one scale");
        let levels = n_scales - 1;
        let period = 1usize << levels;
        SlidingDwt {
            z,
            n_scales,
            levels,
            period,
            ringed: levels >= 1 && z.is_multiple_of(period),
            ends: Vec::new(),
            ring: Vec::new(),
            bands: Vec::new(),
            bands_of: None,
            scratch: Vec::new(),
            stats: DwtCacheStats::default(),
        }
    }

    /// Cache counters so far.
    pub fn stats(&self) -> DwtCacheStats {
        self.stats
    }

    /// The slide distance (in samples) served incrementally: `2^(n_scales−1)`.
    pub fn period(&self) -> usize {
        self.period
    }

    /// The horizon bands of `window`, whose last sample has series index
    /// `end`. Semantically identical to `horizon_scales(window, n_scales)`.
    ///
    /// # Panics
    /// Panics if `window.len() != z`.
    pub fn scales_at(&mut self, end: usize, window: &[f64]) -> &[Vec<f64>] {
        let (z, period) = (self.z, self.period);
        assert_eq!(window.len(), z, "SlidingDwt: window length mismatch");
        if !self.ringed {
            self.stats.full += 1;
            self.bands = horizon_scales(window, self.n_scales);
            self.bands_of = None;
            return &self.bands;
        }
        if self.ring.is_empty() {
            self.ends = vec![None; period];
            self.ring = vec![0.0; period * 2 * z];
            self.bands = (0..self.n_scales).map(|_| Vec::with_capacity(z)).collect();
            self.scratch = Vec::with_capacity(z);
        }
        let idx = end % period;
        let (held, coefs) = self.ring[idx * 2 * z..(idx + 1) * 2 * z].split_at_mut(z);
        let fresh = match self.ends[idx] {
            Some(e) if e == end && same_bits(held, window) => {
                self.stats.memo_hits += 1;
                if self.bands_of == Some(idx) {
                    return &self.bands;
                }
                0
            }
            Some(e) if e + period == end && same_bits(&held[period..], &window[..z - period]) => {
                self.stats.incremental += 1;
                period
            }
            _ => {
                self.stats.full += 1;
                z
            }
        };
        if fresh > 0 {
            analyse_tail(held, coefs, window, fresh, self.levels, &mut self.scratch);
            self.ends[idx] = Some(end);
        }
        // Band 0 keeps the approximation; band k ≥ 1 keeps detail level
        // n − 1 − k, as in `horizon_scales`.
        for (k, band) in self.bands.iter_mut().enumerate() {
            let detail_level = (k >= 1).then(|| self.n_scales - 1 - k);
            masked_reconstruct_into(coefs, self.levels, detail_level, band, &mut self.scratch);
        }
        self.bands_of = Some(idx);
        &self.bands
    }
}

/// Slice equality by bit pattern: unlike `==`, tells `-0.0` from `+0.0`
/// (which the synthesis can turn into different outputs) and matches a
/// NaN with itself.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Moves a slot on by the last `k` samples of `window`: the held window
/// shifts left by `k` samples, detail level `l` by `k >> (l+1)`
/// coefficients and the approximation by `k >> levels`, and the vacated
/// tails receive the analysis of the new samples (the operations of
/// `haar_step`, cascaded down the levels). `k = z` is a full
/// decomposition, `k = 2^levels` one ring step. `tail` is a work buffer.
fn analyse_tail(
    held: &mut [f64],
    coefs: &mut [f64],
    window: &[f64],
    k: usize,
    levels: usize,
    tail: &mut Vec<f64>,
) {
    let z = window.len();
    held.copy_within(k.., 0);
    held[z - k..].copy_from_slice(&window[z - k..]);
    tail.clear();
    tail.extend_from_slice(&window[z - k..]);
    for l in 0..levels {
        // The new approximation of level l (written over the front of
        // `tail`) is exactly the input level l+1 needs.
        let details = &mut coefs[z >> (l + 1)..z >> l];
        let half = tail.len() / 2;
        details.copy_within(half.., 0);
        let at = details.len() - half;
        for i in 0..half {
            let (x0, x1) = (tail[2 * i], tail[2 * i + 1]);
            details[at + i] = (x0 - x1) / SQRT2;
            tail[i] = (x0 + x1) / SQRT2;
        }
        tail.truncate(half);
    }
    let approx = &mut coefs[..z >> levels];
    approx.copy_within(tail.len().., 0);
    let at = approx.len() - tail.len();
    approx[at..].copy_from_slice(tail);
}

/// Writes into `out` the band that keeps only the approximation
/// (`detail_level = None`) or only detail level `l` of the packed
/// coefficients `coefs`: the inverse steps `(a ± d)/√2` of
/// `reconstruct(&pyramid.masked(..))` on the same operands, a masked
/// coefficient being `0.0`. Allocates nothing once `out` and `scratch`
/// hold `z` values.
fn masked_reconstruct_into(
    coefs: &[f64],
    levels: usize,
    detail_level: Option<usize>,
    out: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) {
    let z = coefs.len();
    let (mut cur, mut next) = (out, scratch);
    let approx = &coefs[..z >> levels];
    cur.clear();
    if detail_level.is_none() {
        cur.extend_from_slice(approx);
    } else {
        cur.resize(approx.len(), 0.0);
    }
    for l in (0..levels).rev() {
        let details = &coefs[z >> (l + 1)..z >> l];
        let keep = detail_level == Some(l);
        next.clear();
        for (i, &a) in cur.iter().enumerate() {
            let d = if keep { details[i] } else { 0.0 };
            next.push((a + d) / SQRT2);
            next.push((a - d) / SQRT2);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    // `cur` and `next` are the two caller buffers, possibly exchanged.
    if levels % 2 == 1 {
        std::mem::swap(cur, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                100.0 + 0.2 * t + 3.0 * (t * 0.37).sin() + 0.8 * (t * 1.7).cos()
            })
            .collect()
    }

    /// Bands as bit patterns: `==` on floats would let `-0.0` pass for
    /// `+0.0`.
    fn bits(bands: &[Vec<f64>]) -> Vec<Vec<u64>> {
        bands
            .iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn assert_bitwise(cache: &mut SlidingDwt, end: usize, window: &[f64], what: &str) {
        let reference = horizon_scales(window, cache.n_scales);
        assert_eq!(
            bits(cache.scales_at(end, window)),
            bits(&reference),
            "{what} end={end}: cached bands must be bitwise identical"
        );
    }

    fn sweep_matches_reference(z: usize, n_scales: usize, steps: usize) -> DwtCacheStats {
        let x = series(z + steps);
        let mut cache = SlidingDwt::new(z, n_scales);
        for end in (z - 1)..(z - 1 + steps) {
            let window = &x[end + 1 - z..=end];
            assert_bitwise(&mut cache, end, window, &format!("z={z} n={n_scales}"));
        }
        cache.stats()
    }

    #[test]
    fn aligned_sweep_is_bitwise_identical_and_hits_incremental_path() {
        for (z, n) in [(16, 3), (16, 5), (32, 4), (64, 5), (8, 2)] {
            let stats = sweep_matches_reference(z, n, 40);
            let period = 1usize << (n - 1);
            assert_eq!(stats.full as usize, period, "one cold fill per ring slot");
            assert_eq!(stats.incremental as usize, 40 - period);
        }
    }

    #[test]
    fn misaligned_window_falls_back_to_full_compute() {
        // z = 10 is not a multiple of 2^2: every call is a full rebuild but
        // results still match the reference exactly.
        let stats = sweep_matches_reference(10, 3, 20);
        assert_eq!(stats.incremental, 0);
        assert_eq!(stats.full, 20);
    }

    #[test]
    fn repeated_end_is_memoised() {
        let x = series(64);
        let mut cache = SlidingDwt::new(32, 4);
        let w = &x[0..32];
        let first = bits(cache.scales_at(31, w));
        let second = bits(cache.scales_at(31, w));
        assert_eq!(first, second);
        assert_eq!(cache.stats().memo_hits, 1);
        assert_eq!(cache.stats().full, 1);
        // A memo hit on a slot whose bands were since overwritten by
        // another slot's request rebuilds them from its pyramid.
        cache.scales_at(32, &x[1..33]);
        assert_eq!(bits(cache.scales_at(31, w)), first);
        assert_eq!(cache.stats().memo_hits, 2);
    }

    #[test]
    fn single_scale_is_identity() {
        let x = series(16);
        let mut cache = SlidingDwt::new(16, 1);
        assert_eq!(bits(cache.scales_at(15, &x)), bits(&[x]));
    }

    #[test]
    fn non_unit_strides_and_gaps_stay_correct() {
        // Jumping by arbitrary strides must never poison the ring.
        let x = series(200);
        let z = 16;
        let n = 3;
        let mut cache = SlidingDwt::new(z, n);
        let mut end = z - 1;
        for stride in [1, 1, 4, 1, 7, 2, 1, 1, 16, 3, 1] {
            end += stride;
            let window = &x[end + 1 - z..=end];
            assert_bitwise(&mut cache, end, window, &format!("stride {stride}"));
        }
    }

    /// The paper's configuration (z = 32, five horizons, a ring of 16
    /// slots) over a rollout-like pattern: stride-1 runs of several
    /// periods, resets back in time, forward jumps, and revisits of a day
    /// already served.
    #[test]
    fn paper_configuration_sweep_with_resets_and_jumps_is_bitwise() {
        let (z, n) = (32, 5);
        let x = series(1200);
        let mut cache = SlidingDwt::new(z, n);
        assert_eq!(cache.period(), 16);
        let mut steps = 0;
        let runs: [(usize, usize); 7] = [
            (31, 70),
            (40, 25),
            (300, 60),
            (95, 3),
            (31, 40),
            (700, 90),
            (780, 20),
        ];
        for (start, len) in runs {
            for end in start..start + len {
                assert_bitwise(&mut cache, end, &x[end + 1 - z..=end], "paper");
                steps += 1;
            }
        }
        assert!(steps >= 200);
        let stats = cache.stats();
        assert!(stats.incremental > 150, "{stats:?}");
        assert!(stats.memo_hits > 0 && stats.full > 0, "{stats:?}");
    }

    /// Windows equal under `==` but not bit for bit (`-0.0` vs `+0.0`) can
    /// decompose into different bands; the cache must never hand out the
    /// bands of one for the other.
    #[test]
    fn signed_zeros_are_never_confused() {
        let (z, n) = (8, 3);
        let pos = [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0];
        let neg = pos.map(|v| if v == 0.0 { -0.0 } else { v });
        assert_ne!(
            bits(&horizon_scales(&pos, n)),
            bits(&horizon_scales(&neg, n)),
            "the test needs windows whose bands differ in sign bits"
        );
        let mut cache = SlidingDwt::new(z, n);
        assert_bitwise(&mut cache, 7, &pos, "+0.0 window");
        assert_bitwise(&mut cache, 7, &neg, "-0.0 window at the same end");
        // Sliding from a slot filled by the other zero sign.
        let mut longer = pos.to_vec();
        longer.extend_from_slice(&[5.0, -0.0, 0.0, 1.0]);
        let mut cache = SlidingDwt::new(z, n);
        assert_bitwise(&mut cache, 7, &neg, "-0.0 window");
        assert_bitwise(&mut cache, 11, &longer[4..], "slid window");
    }

    #[test]
    fn bands_still_sum_to_window_after_many_slides() {
        let x = series(100);
        let z = 32;
        let mut cache = SlidingDwt::new(z, 5);
        for end in (z - 1)..99 {
            let window = &x[end + 1 - z..=end];
            let bands = cache.scales_at(end, window);
            for t in 0..z {
                let sum: f64 = bands.iter().map(|b| b[t]).sum();
                assert!((sum - window[t]).abs() < 1e-9, "end={end} t={t}");
            }
        }
    }
}
