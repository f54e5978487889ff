//! Squared-L2 distance kernels: one reduction order, two implementations.
//!
//! Every similarity evaluation outside the ADC scan — coarse centroid
//! distances (Stage IVFDist), k-means training and assignment, sub-quantizer
//! distances (Stage BuildLUT, PQ encoding), exact scans and ground truth —
//! runs on the three kernels in this module. Each exists in a safe-Rust [`SimdTier::Portable`]
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
//! * **Block kernel** ([`SimdTier::argmin_l2_blocks`],
//!   [`SimdTier::l2_blocks`]: the vectors are rows re-laid as
//!   [`RowBlocks`], 8 rows per dimension-major block). The row kernel's
//!   canonical order with the lanes over the 8 rows of a block — one
//!   accumulator register per lane position — so it returns the row
//!   kernel's results bit for bit without a horizontal reduction per
//!   distance. k-means training runs on it.
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

    /// [`argmin_l2`] over rows laid out as [`RowBlocks`], on the block
    /// kernel: the same `(index, distance)` as
    /// `argmin_l2(vector, rows, dim)` on the row-major rows, bit for bit.
    ///
    /// # Panics
    /// Panics if `vector` and the rows differ in length.
    pub fn argmin_l2_blocks(self, vector: &[f32], rows: &RowBlocks) -> (usize, f32) {
        assert_eq!(vector.len(), rows.dim, "vector and rows differ in dim");
        let (lane_min, lane_block) = block_lane_minima(self, vector, &rows.blocks);
        // The first minimum over the lanes: lane `l` of block `b` is row
        // `8b + l`, and each lane holds its own first minimum.
        let (mut best, mut best_d) = (0usize, f32::INFINITY);
        for l in 0..LANES {
            let at = lane_block[l] as usize * LANES + l;
            let d = lane_min[l];
            if d < best_d || (d == best_d && d < f32::INFINITY && at < best) {
                best = at;
                best_d = d;
            }
        }
        // The rows after the last whole block come later than every block
        // row, so a strict `<` keeps ties low.
        let head = rows.blocks.len() / rows.dim;
        let mut tail = [0.0f32; LANES];
        let tail = &mut tail[..rows.tail.len() / rows.dim];
        l2_rows(self, vector, &rows.tail, tail);
        for (i, &d) in tail.iter().enumerate() {
            if d < best_d {
                best = head + i;
                best_d = d;
            }
        }
        (best, best_d)
    }

    /// `out[r]` = squared L2 distance between `vector` and row `r` of
    /// `rows`, on the block kernel. Equals `l2_sq(row r, vector)` bit for bit
    /// (the kernel computes `vector - row`, and `(a - b)²` is `(b - a)²` in
    /// IEEE f32).
    ///
    /// # Panics
    /// Panics if `vector` and the rows differ in length, or unless
    /// `out.len() == rows.len()`.
    pub fn l2_blocks(self, vector: &[f32], rows: &RowBlocks, out: &mut [f32]) {
        assert_eq!(vector.len(), rows.dim, "vector and rows differ in dim");
        assert_eq!(out.len(), rows.len(), "one output per row");
        let (head, tail) = out.split_at_mut(rows.blocks.len() / rows.dim);
        block_sweep(self, vector, &rows.blocks, head);
        l2_rows(self, vector, &rows.tail, tail);
    }
}

/// Row-major vectors re-laid for the block kernel
/// ([`SimdTier::argmin_l2_blocks`], [`SimdTier::l2_blocks`]). Each whole
/// block of 8 rows is stored dimension-major, so the kernel's lanes run over
/// the block's rows; the `len % 8` rows after the last whole block stay
/// row-major and go through the row kernel.
#[derive(Debug, Clone)]
pub struct RowBlocks {
    dim: usize,
    /// `blocks[(b * dim + d) * 8 + l]` is component `d` of row `8b + l`.
    blocks: Vec<f32>,
    tail: Vec<f32>,
}

impl RowBlocks {
    /// Re-lays the flat row-major `rows` (`dim` floats each).
    ///
    /// # Panics
    /// Panics if `dim == 0` or `rows.len()` is not a multiple of `dim`.
    pub fn new(rows: &[f32], dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            rows.len().is_multiple_of(dim),
            "rows length must be a multiple of dim"
        );
        let head = rows.len() - rows.len() % (LANES * dim);
        let mut blocks = vec![0.0f32; head];
        for (src, dst) in rows[..head]
            .chunks_exact(LANES * dim)
            .zip(blocks.chunks_exact_mut(LANES * dim))
        {
            for (l, row) in src.chunks_exact(dim).enumerate() {
                for (d, &x) in row.iter().enumerate() {
                    dst[d * LANES + l] = x;
                }
            }
        }
        Self {
            dim,
            blocks,
            tail: rows[head..].to_vec(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        (self.blocks.len() + self.tail.len()) / self.dim
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// Block kernel: the squared L2 distances from `x` to the 8 rows of one
/// dimension-major `block`, each in the canonical reduction order. Lane `l`
/// runs row `l`'s row-kernel arithmetic: component `i` goes into
/// accumulator `i % 8` for the leading `len - len % 8` components — the
/// first of them by assignment, as `0 + s` is `s` for every square — the
/// accumulators combine by the fixed tree, then the tail is added in order.
#[inline(always)]
fn block_l2(x: &[f32], block: &[f32]) -> [f32; LANES] {
    let body = x.len() - x.len() % LANES;
    let square = |i: usize, l: usize| {
        let d = x[i] - block[i * LANES + l];
        d * d
    };
    let mut sum = [0.0f32; LANES];
    if body > 0 {
        let mut acc = [[0.0f32; LANES]; LANES];
        for (j, acc) in acc.iter_mut().enumerate() {
            for (l, a) in acc.iter_mut().enumerate() {
                *a = square(j, l);
            }
        }
        for i in (LANES..body).step_by(LANES) {
            for (j, acc) in acc.iter_mut().enumerate() {
                for (l, a) in acc.iter_mut().enumerate() {
                    *a += square(i + j, l);
                }
            }
        }
        for (l, s) in sum.iter_mut().enumerate() {
            *s = reduce_lanes(std::array::from_fn(|j| acc[j][l]));
        }
    }
    for i in body..x.len() {
        for (l, s) in sum.iter_mut().enumerate() {
            *s += square(i, l);
        }
    }
    sum
}

/// Per lane, the first minimum under strict `<` of [`block_l2`] over the
/// whole blocks of `blocks`, and the block it was first seen in.
fn block_lane_minima(tier: SimdTier, x: &[f32], blocks: &[f32]) -> ([f32; LANES], [u32; LANES]) {
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && crate::dispatch::avx2_available() {
        // SAFETY: AVX2 was just detected; `blocks` holds whole blocks of
        // `x.len()`-dimensional rows by `RowBlocks`' construction, and the
        // caller asserted `x.len() == rows.dim > 0`.
        return unsafe { x86::block_lane_minima(x, blocks) };
    }
    let _ = tier;
    let mut lane_min = [f32::INFINITY; LANES];
    let mut lane_block = [0u32; LANES];
    for (b, block) in blocks.chunks_exact(LANES * x.len()).enumerate() {
        let d = block_l2(x, block);
        for l in 0..LANES {
            if d[l] < lane_min[l] {
                lane_min[l] = d[l];
                lane_block[l] = b as u32;
            }
        }
    }
    (lane_min, lane_block)
}

/// [`block_l2`] for every whole block of `blocks`, eight outputs a block.
fn block_sweep(tier: SimdTier, x: &[f32], blocks: &[f32], out: &mut [f32]) {
    debug_assert_eq!(blocks.len(), out.len() * x.len());
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && crate::dispatch::avx2_available() {
        // SAFETY: AVX2 was just detected, and `out` has one slot per row of
        // the whole blocks of `blocks` (`l2_blocks` splits it at
        // `blocks.len() / dim`, a multiple of 8).
        unsafe { x86::block_sweep(x, blocks, out) };
        return;
    }
    let _ = tier;
    for (o, block) in out
        .chunks_exact_mut(LANES)
        .zip(blocks.chunks_exact(LANES * x.len()))
    {
        o.copy_from_slice(&block_l2(x, block));
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

    /// `(x[i] - block row l, component i)²` for the eight rows `l`.
    ///
    /// # Safety
    /// Requires AVX2, `x` readable at `i` and `block` at `8i..8i + 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn square(x: *const f32, block: *const f32, i: usize) -> __m256 {
        let d = _mm256_sub_ps(
            _mm256_set1_ps(*x.add(i)),
            _mm256_loadu_ps(block.add(i * LANES)),
        );
        _mm256_mul_ps(d, d)
    }

    /// [`super::block_l2`] on vector registers: one accumulator register per
    /// lane position `i % 8`, each holding the eight rows.
    ///
    /// # Safety
    /// Requires AVX2, `dim` readable floats at `x` and `8 * dim` at `block`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block_l2(x: *const f32, block: *const f32, dim: usize) -> __m256 {
        let body = dim - dim % LANES;
        let mut sum = _mm256_setzero_ps();
        if body > 0 {
            let mut s = [_mm256_setzero_ps(); LANES];
            for (j, s) in s.iter_mut().enumerate() {
                *s = square(x, block, j);
            }
            let mut i = LANES;
            while i < body {
                for (j, s) in s.iter_mut().enumerate() {
                    *s = _mm256_add_ps(*s, square(x, block, i + j));
                }
                i += LANES;
            }
            sum = _mm256_add_ps(
                _mm256_add_ps(_mm256_add_ps(s[0], s[4]), _mm256_add_ps(s[2], s[6])),
                _mm256_add_ps(_mm256_add_ps(s[1], s[5]), _mm256_add_ps(s[3], s[7])),
            );
        }
        for i in body..dim {
            sum = _mm256_add_ps(sum, square(x, block, i));
        }
        sum
    }

    /// # Safety
    /// Requires AVX2 and `blocks.len()` a multiple of `8 * x.len() > 0`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_lane_minima(
        x: &[f32],
        blocks: &[f32],
    ) -> ([f32; LANES], [u32; LANES]) {
        // A constant 8 (PQ sub-spaces) lets the compiler hoist the eight
        // component broadcasts out of the block loop.
        if x.len() == LANES {
            lane_minima(x, blocks, LANES)
        } else {
            lane_minima(x, blocks, x.len())
        }
    }

    /// [`block_lane_minima`] at dimension `dim`.
    ///
    /// # Safety
    /// As [`block_lane_minima`], with `dim == x.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_minima(x: &[f32], blocks: &[f32], dim: usize) -> ([f32; LANES], [u32; LANES]) {
        let mut min = _mm256_set1_ps(f32::INFINITY);
        let mut at = _mm256_setzero_ps();
        for b in 0..blocks.len() / (LANES * dim) {
            let d = block_l2(x.as_ptr(), blocks.as_ptr().add(b * LANES * dim), dim);
            // Ordered `<`: false on NaN, so NaN is skipped and ties keep the
            // earlier block.
            let lt = _mm256_cmp_ps::<_CMP_LT_OQ>(d, min);
            min = _mm256_blendv_ps(min, d, lt);
            let block = _mm256_castsi256_ps(_mm256_set1_epi32(b as i32));
            at = _mm256_blendv_ps(at, block, lt);
        }
        let mut lane_min = [0.0f32; LANES];
        let mut lane_block = [0u32; LANES];
        _mm256_storeu_ps(lane_min.as_mut_ptr(), min);
        _mm256_storeu_si256(lane_block.as_mut_ptr().cast(), _mm256_castps_si256(at));
        (lane_min, lane_block)
    }

    /// # Safety
    /// Requires AVX2 and `blocks.len() == out.len() * x.len()`, `out.len()`
    /// a multiple of 8.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_sweep(x: &[f32], blocks: &[f32], out: &mut [f32]) {
        let dim = x.len();
        for b in 0..out.len() / LANES {
            let d = block_l2(x.as_ptr(), blocks.as_ptr().add(b * LANES * dim), dim);
            _mm256_storeu_ps(out.as_mut_ptr().add(b * LANES), d);
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
