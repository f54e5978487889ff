//! Squared-L2 distance kernels: one reduction order, two implementations.
//!
//! Every similarity evaluation outside the ADC scan — coarse centroid
//! distances (Stage IVFDist), k-means assignment, sub-quantizer distances
//! (Stage BuildLUT, PQ encoding), exact scans and ground truth — runs on the
//! two kernels in this module. Each exists in a safe-Rust [`SimdTier::Portable`]
//! form and an AVX2-intrinsics [`SimdTier::Avx2`] form that return
//! **bit-identical** results, because both follow the same order of f32
//! operations (and neither fuses a multiply into an add):
//!
//! * **Row kernel** (`l2_sq`, `all_l2`, `argmin_l2`: the vectors are rows).
//!   The *canonical reduction order*: element `i` is accumulated into lane
//!   `i % 8` for the leading `len - len % 8` elements, the eight lanes are
//!   combined by the fixed tree `((a0+a4)+(a2+a6))+((a1+a5)+(a3+a7))`, and
//!   the `len % 8` tail elements are then added one by one.
//! * **Column kernel** (`l2_columns`: the vectors are stored
//!   dimension-major, as [`ProductQuantizer`](crate::pq::ProductQuantizer)
//!   keeps its transposed codebooks). The lanes run over *vectors*, and each
//!   vector's sum runs over the dimensions in index order — the order of a
//!   plain `for` loop, so lookup tables and PQ codes are unchanged by
//!   vectorisation.
//!
//! The free functions run on [`SimdTier::process_default`]; the methods on
//! [`SimdTier`] pin a tier (benches, equivalence tests).

pub use crate::dispatch::SimdTier;

const LANES: usize = 8;

/// Vectors per `argmin_l2` block: distances are produced a block at a time
/// into a stack buffer, then searched for their first minimum.
const ARGMIN_BLOCK: usize = 64;

/// Squared Euclidean (L2) distance.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    SimdTier::process_default().l2_sq(a, b)
}

/// Finds the index of the closest centroid (by squared L2) and its distance.
///
/// `centroids` is a flat row-major `[k * dim]` buffer. Ties break toward the
/// lower index so assignment is deterministic: the result is the first
/// minimum of [`all_l2`].
#[inline]
pub fn argmin_l2(vector: &[f32], centroids: &[f32], dim: usize) -> (usize, f32) {
    SimdTier::process_default().argmin_l2(vector, centroids, dim)
}

/// Computes the squared L2 distance from `vector` to every centroid into
/// `out` (cleared first). Used by Stage IVFDist, where *all* nlist centroid
/// distances are evaluated for each query. `out[i]` equals
/// `l2_sq(vector, centroid i)` bit for bit.
pub fn all_l2(vector: &[f32], centroids: &[f32], dim: usize, out: &mut Vec<f32>) {
    SimdTier::process_default().all_l2(vector, centroids, dim, out)
}

impl SimdTier {
    /// [`l2_sq`] on this tier.
    #[inline]
    pub fn l2_sq(self, a: &[f32], b: &[f32]) -> f32 {
        let mut out = [0.0f32];
        l2_rows(self, a, b, &mut out);
        out[0]
    }

    /// [`argmin_l2`] on this tier.
    pub fn argmin_l2(self, vector: &[f32], centroids: &[f32], dim: usize) -> (usize, f32) {
        debug_assert_eq!(vector.len(), dim);
        debug_assert!(!centroids.is_empty() && centroids.len().is_multiple_of(dim));
        let mut dists = [0.0f32; ARGMIN_BLOCK];
        let mut best = 0usize;
        let mut best_dist = f32::INFINITY;
        for (b, block) in centroids.chunks(ARGMIN_BLOCK * dim).enumerate() {
            let dists = &mut dists[..block.len() / dim];
            l2_rows(self, vector, block, dists);
            let (i, d) = first_min(dists);
            if d < best_dist {
                best_dist = d;
                best = b * ARGMIN_BLOCK + i;
            }
        }
        (best, best_dist)
    }

    /// [`all_l2`] on this tier.
    pub fn all_l2(self, vector: &[f32], centroids: &[f32], dim: usize, out: &mut Vec<f32>) {
        debug_assert_eq!(vector.len(), dim);
        out.clear();
        out.resize(centroids.len() / dim, 0.0);
        l2_rows(self, vector, centroids, out);
    }
}

/// Index and value of the first minimum of `row` under strict `<` from
/// `+inf` — what a `for` loop keeping `(best, best_d)` returns: NaNs are
/// skipped, ties break low, and `(0, +inf)` comes back when nothing is
/// below `+inf`.
pub(crate) fn first_min(row: &[f32]) -> (usize, f32) {
    // Per-lane running minimum and the chunk it was first seen in; the
    // lanes are independent, so the loop vectorises.
    let mut lane_min = [f32::INFINITY; LANES];
    let mut lane_chunk = [0u32; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for (i, chunk) in (&mut chunks).enumerate() {
        for l in 0..LANES {
            if chunk[l] < lane_min[l] {
                lane_min[l] = chunk[l];
                lane_chunk[l] = i as u32;
            }
        }
    }
    let (mut best, mut best_d) = (0usize, f32::INFINITY);
    for l in 0..LANES {
        let at = lane_chunk[l] as usize * LANES + l;
        let d = lane_min[l];
        if d < best_d || (d == best_d && d < f32::INFINITY && at < best) {
            best = at;
            best_d = d;
        }
    }
    let tail_start = row.len() - chunks.remainder().len();
    for (i, &d) in chunks.remainder().iter().enumerate() {
        if d < best_d {
            best = tail_start + i;
            best_d = d;
        }
    }
    (best, best_d)
}

/// The fixed pairwise tree that combines the eight lanes.
#[inline(always)]
fn reduce_lanes(a: [f32; LANES]) -> f32 {
    ((a[0] + a[4]) + (a[2] + a[6])) + ((a[1] + a[5]) + (a[3] + a[7]))
}

/// Row kernel: `out[r]` = squared L2 distance from `v` to row `r` of the
/// row-major `rows`, in the canonical reduction order.
///
/// # Panics
/// Panics unless `rows` holds exactly `out.len()` vectors of `v.len()` floats.
fn l2_rows(tier: SimdTier, v: &[f32], rows: &[f32], out: &mut [f32]) {
    let dim = v.len();
    assert_eq!(
        rows.len(),
        out.len() * dim,
        "rows must hold one vector of the query's length per output"
    );
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && crate::dispatch::avx2_available() {
        // SAFETY: AVX2 was just detected, and the assert above established
        // the length contract `x86::l2_rows` reads by.
        unsafe { x86::l2_rows(v, rows, out) };
        return;
    }
    let _ = tier;
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(dim)) {
        let mut acc = [0.0f32; LANES];
        let mut vc = v.chunks_exact(LANES);
        let mut rc = row.chunks_exact(LANES);
        for (x, y) in (&mut vc).zip(&mut rc) {
            for l in 0..LANES {
                let d = x[l] - y[l];
                acc[l] += d * d;
            }
        }
        let mut sum = reduce_lanes(acc);
        for (x, y) in vc.remainder().iter().zip(rc.remainder()) {
            let d = x - y;
            sum += d * d;
        }
        *o = sum;
    }
}

/// Column kernel: `out[c]` = squared L2 distance from `v` to vector `c` of
/// the dimension-major `columns` (`columns[d * out.len() + c]` is component
/// `d` of vector `c`), each sum taken over `d` in index order.
///
/// # Panics
/// Panics unless `columns` holds exactly `v.len() * out.len()` floats.
pub(crate) fn l2_columns(tier: SimdTier, v: &[f32], columns: &[f32], out: &mut [f32]) {
    let count = out.len();
    assert_eq!(
        columns.len(),
        v.len() * count,
        "columns must hold one component per dimension per output"
    );
    if count == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && crate::dispatch::avx2_available() {
        // SAFETY: AVX2 was just detected, and the assert above established
        // the length contract `x86::l2_columns` reads by.
        unsafe { x86::l2_columns(v, columns, out) };
        return;
    }
    let _ = tier;
    out.fill(0.0);
    for (&q, component) in v.iter().zip(columns.chunks_exact(count)) {
        for (o, &x) in out.iter_mut().zip(component) {
            let d = q - x;
            *o += d * d;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::LANES;
    use std::arch::x86_64::*;

    /// [`super::reduce_lanes`] on a vector register.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce_lanes(acc: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        // [a0+a4, a1+a5, a2+a6, a3+a7]
        let s = _mm_add_ps(lo, hi);
        // [(a0+a4)+(a2+a6), (a1+a5)+(a3+a7), ..]
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        _mm_cvtss_f32(_mm_add_ss(s, _mm_shuffle_ps::<1>(s, s)))
    }

    /// `(q - x)^2` accumulated into `acc`, as a separate multiply and add.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate(acc: __m256, q: __m256, x: *const f32) -> __m256 {
        let d = _mm256_sub_ps(q, _mm256_loadu_ps(x));
        _mm256_add_ps(acc, _mm256_mul_ps(d, d))
    }

    /// Lane reduction plus the scalar tail `from..dim` of one row.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn finish_row(
        acc: __m256,
        v: *const f32,
        row: *const f32,
        from: usize,
        dim: usize,
    ) -> f32 {
        let mut sum = reduce_lanes(acc);
        for i in from..dim {
            let d = *v.add(i) - *row.add(i);
            sum += d * d;
        }
        sum
    }

    /// # Safety
    /// Requires AVX2 and `rows.len() == out.len() * v.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn l2_rows(v: &[f32], rows: &[f32], out: &mut [f32]) {
        let dim = v.len();
        let body = dim - dim % LANES;
        let vp = v.as_ptr();
        let n = out.len();
        let mut r = 0usize;
        // Four rows in flight: every row still follows the canonical order
        // (bit-identical), but the four independent accumulator chains hide
        // the FP-add latency that throttles a single chain, and the query
        // chunk is loaded once for all four.
        while r + 4 <= n {
            let p0 = rows.as_ptr().add(r * dim);
            let (p1, p2, p3) = (p0.add(dim), p0.add(2 * dim), p0.add(3 * dim));
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            let mut i = 0usize;
            while i < body {
                let q = _mm256_loadu_ps(vp.add(i));
                a0 = accumulate(a0, q, p0.add(i));
                a1 = accumulate(a1, q, p1.add(i));
                a2 = accumulate(a2, q, p2.add(i));
                a3 = accumulate(a3, q, p3.add(i));
                i += LANES;
            }
            out[r] = finish_row(a0, vp, p0, body, dim);
            out[r + 1] = finish_row(a1, vp, p1, body, dim);
            out[r + 2] = finish_row(a2, vp, p2, body, dim);
            out[r + 3] = finish_row(a3, vp, p3, body, dim);
            r += 4;
        }
        while r < n {
            let p = rows.as_ptr().add(r * dim);
            let mut acc = _mm256_setzero_ps();
            let mut i = 0usize;
            while i < body {
                acc = accumulate(acc, _mm256_loadu_ps(vp.add(i)), p.add(i));
                i += LANES;
            }
            out[r] = finish_row(acc, vp, p, body, dim);
            r += 1;
        }
    }

    /// # Safety
    /// Requires AVX2 and `columns.len() == v.len() * out.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn l2_columns(v: &[f32], columns: &[f32], out: &mut [f32]) {
        let count = out.len();
        let cols = columns.as_ptr();
        let dst = out.as_mut_ptr();
        let mut c = 0usize;
        // 32 vectors in flight (four registers), for the same latency-hiding
        // reason as in `l2_rows`; the component broadcast is shared.
        while c + 4 * LANES <= count {
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for (d, &q) in v.iter().enumerate() {
                let q = _mm256_set1_ps(q);
                let p = cols.add(d * count + c);
                a0 = accumulate(a0, q, p);
                a1 = accumulate(a1, q, p.add(LANES));
                a2 = accumulate(a2, q, p.add(2 * LANES));
                a3 = accumulate(a3, q, p.add(3 * LANES));
            }
            _mm256_storeu_ps(dst.add(c), a0);
            _mm256_storeu_ps(dst.add(c + LANES), a1);
            _mm256_storeu_ps(dst.add(c + 2 * LANES), a2);
            _mm256_storeu_ps(dst.add(c + 3 * LANES), a3);
            c += 4 * LANES;
        }
        while c + LANES <= count {
            let mut acc = _mm256_setzero_ps();
            for (d, &q) in v.iter().enumerate() {
                acc = accumulate(acc, _mm256_set1_ps(q), cols.add(d * count + c));
            }
            _mm256_storeu_ps(dst.add(c), acc);
            c += LANES;
        }
        for (c, o) in out.iter_mut().enumerate().skip(c) {
            let mut acc = 0.0f32;
            for (d, &q) in v.iter().enumerate() {
                let diff = q - columns[d * count + c];
                acc += diff * diff;
            }
            *o = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sq_basic() {
        assert_eq!(l2_sq(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(l2_sq(&[1.0], &[1.0]), 0.0);
        assert_eq!(l2_sq(&[], &[]), 0.0);
    }

    #[test]
    fn argmin_picks_nearest_and_breaks_ties_low() {
        let centroids = [0.0f32, 0.0, 2.0, 0.0, 2.0, 0.0]; // three 2-d centroids
        let (idx, d) = argmin_l2(&[1.9, 0.0], &centroids, 2);
        assert_eq!(idx, 1);
        assert!((d - 0.01).abs() < 1e-5);
        // Equidistant from centroid 1 and 2 (identical centroids): pick 1.
        let (idx, _) = argmin_l2(&[2.0, 0.0], &centroids, 2);
        assert_eq!(idx, 1);
    }

    #[test]
    fn all_l2_matches_individual_calls() {
        let centroids = [0.0f32, 0.0, 1.0, 1.0, -2.0, 3.0];
        let q = [0.5f32, 0.5];
        let mut out = Vec::new();
        all_l2(&q, &centroids, 2, &mut out);
        assert_eq!(out.len(), 3);
        for (i, c) in centroids.chunks_exact(2).enumerate() {
            assert_eq!(out[i], l2_sq(&q, c));
        }
    }

    #[test]
    fn first_min_matches_a_strict_less_than_scan() {
        let scan = |row: &[f32]| {
            let (mut best, mut best_d) = (0usize, f32::INFINITY);
            for (i, &d) in row.iter().enumerate() {
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
            (best, best_d)
        };
        let inf = f32::INFINITY;
        let nan = f32::NAN;
        let mut rows: Vec<Vec<f32>> = vec![
            vec![],
            vec![3.0],
            vec![nan, inf],
            vec![nan; 11],
            vec![inf; 9],
            vec![2.0, 1.0, 1.0, 5.0],
            // The tie spans two lanes of different chunks and the tail.
            vec![
                9.0, 9.0, 9.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0,
                1.0, 0.5, 0.5,
            ],
            vec![0.0, -0.0, nan, 0.0, 7.0, 7.0, 7.0, 7.0, -0.0],
        ];
        // Pseudo-random rows with many duplicates, at every length up to 40.
        let mut state = 0x9E37_79B9u32;
        for len in 0..40 {
            rows.push(
                (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        ((state >> 24) % 6) as f32
                    })
                    .collect(),
            );
        }
        for row in &rows {
            let (want_i, want_d) = scan(row);
            let (got_i, got_d) = first_min(row);
            assert_eq!(got_i, want_i, "{row:?}");
            assert_eq!(got_d.to_bits(), want_d.to_bits(), "{row:?}");
        }
    }
}
