//! f32 ADC scan kernels over a block-transposed [`CodeSlab`].
//!
//! Every kernel computes, for each code in the slab, the asymmetric
//! distance `Σ_j lut[j][code[j]]` — the exact arithmetic of
//! [`DistanceTable::adc`](fanns_quantize::pq::DistanceTable::adc) — but
//! processes [`BLOCK`] codes per iteration with one independent accumulator
//! per lane:
//!
//! * the portable kernels keep 8 scalar accumulators per block, which
//!   breaks the add-dependency chain that throttles the per-code scalar
//!   loop and gives the compiler a clean auto-vectorization target on any
//!   architecture;
//! * the AVX2 kernels (x86-64 only, runtime-dispatched) zero-extend 8
//!   adjacent code bytes to 32-bit lane indices and gather 8 LUT entries
//!   per sub-quantizer with `_mm256_i32gather_ps`, accumulating in one
//!   `__m256` register per block.
//!
//! Every lane sums its `m` entries in the same order as the scalar
//! reference, so per-code distances are **bit-identical** across scalar,
//! portable and AVX2 kernels (f32 addition is deterministic for a fixed
//! order — only the grouping across *codes* changes, never within one).
//!
//! Each kernel comes in two forms. [`scan_f32_portable`] /
//! [`scan_f32_avx2`] write every distance into a buffer: the split Stage
//! PQDist and the raw roofline benchmark. [`scan_select_f32_portable`] /
//! [`scan_select_f32_avx2`] fuse the scan with Stage SelK and prune: they
//! work in groups of four blocks (32 codes) and drop a group whose partial
//! sums have all reached the running top-k threshold after 4 or 8
//! sub-quantizers, before its remaining gathers. The pruning is exact (see
//! `docs/DATA_PLANE.md`, "Threshold pruning"): every LUT entry is `>= 0` or
//! NaN, so a partial sum never exceeds its final sum, and a code whose
//! final sum reaches the threshold is one [`TopK::push`] rejects.

use fanns_quantize::dispatch::avx2_available;
use fanns_quantize::pq::DistanceTable;

use super::slab::{CodeSlab, BLOCK};
use crate::search::TopK;

/// Blocks per pruning group.
const GROUP_BLOCKS: usize = 4;

// A group's lanes are the bits of the `keep` mask of `push_group`.
const _: () = assert!(GROUP_BLOCKS * BLOCK == u32::BITS as usize);

/// Numbers of summed sub-quantizers after which a group is tested against
/// the threshold (a test at `m` or later is skipped: the group is done).
const PRUNE_AT: [usize; 2] = [4, 8];

/// The ends of a group's accumulation segments: each pruning test, then
/// `m`.
fn segment_ends(m: usize) -> [usize; 3] {
    [PRUNE_AT[0].min(m), PRUNE_AT[1].min(m), m]
}

/// Computes per-code f32 ADC distances for the whole slab into `out`.
///
/// `out` must hold exactly [`CodeSlab::padded_len`] entries; tail-padding
/// lanes receive the distance of the zero code and must be ignored by the
/// caller (bound id loops with [`CodeSlab::len`]).
///
/// # Panics
/// Panics when shapes disagree (`slab.m() != lut.m()`, wrong `out` length,
/// a code byte `>= lut.ksub()`).
pub fn scan_f32_portable(slab: &CodeSlab, lut: &DistanceTable, out: &mut [f32]) {
    check_shapes(slab, lut, out.len(), slab.len());
    let m = slab.m();
    let ksub = lut.ksub();
    let table = lut.as_flat();
    let bytes = slab.as_bytes();
    for block in 0..slab.blocks() {
        let base = block * m * BLOCK;
        let mut acc = [0.0f32; BLOCK];
        for j in 0..m {
            let row = &table[j * ksub..(j + 1) * ksub];
            let lanes: &[u8] = &bytes[base + j * BLOCK..base + (j + 1) * BLOCK];
            for (a, &c) in acc.iter_mut().zip(lanes) {
                *a += row[c as usize];
            }
        }
        out[block * BLOCK..(block + 1) * BLOCK].copy_from_slice(&acc);
    }
}

/// AVX2 gather kernel: same contract as [`scan_f32_portable`], 8 codes per
/// iteration in one vector register. Falls back to the portable kernel when
/// AVX2 is not available (non-x86 builds keep the same entry point).
///
/// # Panics
/// As [`scan_f32_portable`].
pub fn scan_f32_avx2(slab: &CodeSlab, lut: &DistanceTable, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        check_shapes(slab, lut, out.len(), slab.len());
        // SAFETY: AVX2 support was just verified at runtime, and
        // `check_shapes` established the buffer contract the unsafe body
        // relies on (see `scan_f32_avx2_impl`).
        unsafe { x86::scan_f32_avx2_impl(slab, lut, out) };
        return;
    }
    scan_f32_portable(slab, lut, out);
}

/// Fused scan + select over one inverted list: offers `(distance, ids[i])`
/// of every code `i` to `topk`, in slot order, except for whole 32-code
/// groups pruned against `topk`'s threshold (re-read per group). Leaves
/// `topk` exactly as pushing every code would. Returns the number of codes
/// pruned.
///
/// # Panics
/// Panics when shapes disagree (`slab.m() != lut.m()`,
/// `ids.len() != slab.len()`, a code byte `>= lut.ksub()`).
pub fn scan_select_f32_portable(
    slab: &CodeSlab,
    lut: &DistanceTable,
    ids: &[u32],
    topk: &mut TopK,
) -> usize {
    check_shapes(slab, lut, slab.padded_len(), ids.len());
    let blocks = slab.blocks();
    let (mut block, mut pruned) = (0, 0);
    while block < blocks {
        let group = GROUP_BLOCKS.min(blocks - block);
        pruned += match group {
            4 => select_group::<4>(slab, lut, ids, topk, block),
            3 => select_group::<3>(slab, lut, ids, topk, block),
            2 => select_group::<2>(slab, lut, ids, topk, block),
            _ => select_group::<1>(slab, lut, ids, topk, block),
        };
        block += group;
    }
    pruned
}

/// [`scan_select_f32_portable`] on the AVX2 gather kernel (the portable
/// kernel when AVX2 is not available).
///
/// # Panics
/// As [`scan_select_f32_portable`].
pub fn scan_select_f32_avx2(
    slab: &CodeSlab,
    lut: &DistanceTable,
    ids: &[u32],
    topk: &mut TopK,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        check_shapes(slab, lut, slab.padded_len(), ids.len());
        // SAFETY: AVX2 support was just verified at runtime, and
        // `check_shapes` established the contract of
        // `x86::scan_select_avx2_impl`.
        return unsafe { x86::scan_select_avx2_impl(slab, lut, ids, topk) };
    }
    scan_select_f32_portable(slab, lut, ids, topk)
}

/// The shape contract every kernel body relies on: `out_len` is the
/// padded length (the fused kernels write no buffer and pass it), `ids_len`
/// the real length, the slab and LUT agree on `m`, and every code byte
/// indexes inside a LUT row.
fn check_shapes(slab: &CodeSlab, lut: &DistanceTable, out_len: usize, ids_len: usize) {
    assert_eq!(slab.m(), lut.m(), "slab and LUT disagree on m");
    assert_eq!(
        out_len,
        slab.padded_len(),
        "output buffer must hold padded_len() distances"
    );
    assert_eq!(ids_len, slab.len(), "one id per code");
    assert!(
        slab.max_code() < lut.ksub(),
        "code byte {} out of range for ksub {}",
        slab.max_code(),
        lut.ksub()
    );
}

/// Whether a group whose partial sums all reached `threshold` may be
/// skipped: only under a finite threshold, i.e. a full top-k. Before that
/// the threshold is `+inf`, which a `+inf` partial sum reaches although
/// its final sum may be NaN, and a top-k that is not full accepts NaN.
fn armed(threshold: f32) -> bool {
    threshold < f32::INFINITY
}

/// Codes of the group of `blocks` blocks from code `first` that are real
/// codes, not tail padding.
fn real_codes(slab: &CodeSlab, first: usize, blocks: usize) -> usize {
    (first + blocks * BLOCK).min(slab.len()) - first
}

/// Offers a finished group's codes `first..` to `topk` in slot order,
/// skipping padding lanes and lanes whose bit in `keep` is clear. A clear
/// bit marks a distance that reached the finite threshold read for this
/// group; the threshold never rises once finite, so `push` would reject it.
fn push_group(topk: &mut TopK, ids: &[u32], first: usize, dists: &[f32], keep: u32) {
    let ids = &ids[first..(first + dists.len()).min(ids.len())];
    if keep == u32::MAX {
        for (&d, &id) in dists.iter().zip(ids) {
            topk.push(d, id);
        }
        return;
    }
    let mut keep = keep & u32::MAX.checked_shr(32 - ids.len() as u32).unwrap_or(0);
    while keep != 0 {
        let i = keep.trailing_zeros() as usize;
        topk.push(dists[i], ids[i]);
        keep &= keep - 1;
    }
}

/// Blocks `block..block + NB` of the portable pruned kernel; returns the
/// codes pruned.
fn select_group<const NB: usize>(
    slab: &CodeSlab,
    lut: &DistanceTable,
    ids: &[u32],
    topk: &mut TopK,
    block: usize,
) -> usize {
    let (m, ksub, table) = (slab.m(), lut.ksub(), lut.as_flat());
    let stride = m * BLOCK;
    let bytes = &slab.as_bytes()[block * stride..(block + NB) * stride];
    let threshold = topk.threshold();
    let mut acc = [[0.0f32; BLOCK]; NB];
    let mut start = 0;
    for end in segment_ends(m) {
        // Block by block within a segment: one block's lanes stay in
        // registers while its rows stream by.
        for (lanes, codes) in acc.iter_mut().zip(bytes.chunks_exact(stride)) {
            let mut sums = *lanes;
            for j in start..end {
                let row = &table[j * ksub..(j + 1) * ksub];
                for (a, &c) in sums.iter_mut().zip(&codes[j * BLOCK..(j + 1) * BLOCK]) {
                    *a += row[c as usize];
                }
            }
            *lanes = sums;
        }
        start = end;
        if end < m && armed(threshold) && acc.as_flattened().iter().all(|&a| a >= threshold) {
            return real_codes(slab, block * BLOCK, NB);
        }
    }
    push_group(topk, ids, block * BLOCK, acc.as_flattened(), u32::MAX);
    0
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// Gathers the 8 LUT entries sub-quantizer `j` selects for one block.
    ///
    /// # Safety
    /// Requires AVX2; `base` must point at a full `m * BLOCK`-byte block and
    /// every `j * ksub + code` index must stay inside the `table` buffer.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather8(table: *const f32, base: *const u8, j: usize, ksub: usize) -> __m256 {
        // 8 adjacent code bytes = sub-quantizer j of 8 codes.
        let lanes = _mm_loadl_epi64(base.add(j * BLOCK) as *const __m128i);
        let idx = _mm256_cvtepu8_epi32(lanes);
        let idx = _mm256_add_epi32(idx, _mm256_set1_epi32((j * ksub) as i32));
        _mm256_i32gather_ps::<4>(table, idx)
    }

    /// # Safety
    /// Requires AVX2. Shape contract (checked by the caller): `out` holds
    /// `slab.padded_len()` entries, `slab.m() == lut.m()`, every code byte
    /// is `< lut.ksub()`, so every gather index is within the `m * ksub`
    /// LUT buffer.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_f32_avx2_impl(slab: &CodeSlab, lut: &DistanceTable, out: &mut [f32]) {
        let m = slab.m();
        let ksub = lut.ksub();
        let table = lut.as_flat().as_ptr();
        let bytes = slab.as_bytes().as_ptr();
        let out = out.as_mut_ptr();
        let blocks = slab.blocks();
        let stride = m * BLOCK;
        let mut block = 0usize;
        // Four blocks (32 codes) in flight: each lane still sums its m
        // entries in scalar order (bit-identical), but the four independent
        // accumulator chains hide the FP-add and gather latency that
        // throttles a single chain.
        while block + 4 <= blocks {
            let b0 = bytes.add(block * stride);
            let (b1, b2, b3) = (b0.add(stride), b0.add(2 * stride), b0.add(3 * stride));
            let mut a0 = _mm256_setzero_ps();
            let mut a1 = _mm256_setzero_ps();
            let mut a2 = _mm256_setzero_ps();
            let mut a3 = _mm256_setzero_ps();
            for j in 0..m {
                a0 = _mm256_add_ps(a0, gather8(table, b0, j, ksub));
                a1 = _mm256_add_ps(a1, gather8(table, b1, j, ksub));
                a2 = _mm256_add_ps(a2, gather8(table, b2, j, ksub));
                a3 = _mm256_add_ps(a3, gather8(table, b3, j, ksub));
            }
            let dst = out.add(block * BLOCK);
            _mm256_storeu_ps(dst, a0);
            _mm256_storeu_ps(dst.add(BLOCK), a1);
            _mm256_storeu_ps(dst.add(2 * BLOCK), a2);
            _mm256_storeu_ps(dst.add(3 * BLOCK), a3);
            block += 4;
        }
        while block < blocks {
            let base = bytes.add(block * stride);
            let mut acc = _mm256_setzero_ps();
            for j in 0..m {
                acc = _mm256_add_ps(acc, gather8(table, base, j, ksub));
            }
            _mm256_storeu_ps(out.add(block * BLOCK), acc);
            block += 1;
        }
    }

    /// The pruned fused kernel over the whole slab, group by group; returns
    /// the codes pruned.
    ///
    /// # Safety
    /// Requires AVX2 and the contract `check_shapes` asserts:
    /// `ids.len() == slab.len()`, `slab.m() == lut.m()` and every code byte
    /// `< lut.ksub()`, so every gather index `j * ksub + code` lies inside
    /// the `m * ksub` LUT buffer. Code bytes are read only from whole
    /// blocks below `slab.blocks()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_select_avx2_impl(
        slab: &CodeSlab,
        lut: &DistanceTable,
        ids: &[u32],
        topk: &mut TopK,
    ) -> usize {
        let blocks = slab.blocks();
        let (mut block, mut pruned) = (0, 0);
        while block < blocks {
            let group = GROUP_BLOCKS.min(blocks - block);
            // SAFETY: blocks `block..block + group` lie inside the slab, and
            // the caller guarantees the gather contract.
            pruned += unsafe {
                match group {
                    4 => select_group_avx2::<4>(slab, lut, ids, topk, block),
                    3 => select_group_avx2::<3>(slab, lut, ids, topk, block),
                    2 => select_group_avx2::<2>(slab, lut, ids, topk, block),
                    _ => select_group_avx2::<1>(slab, lut, ids, topk, block),
                }
            };
            block += group;
        }
        pruned
    }

    /// Blocks `block..block + NB`, one accumulator each: the NB
    /// independent chains hide the FP-add and gather latency that
    /// throttles a single chain, while each lane still sums its `m` entries
    /// in scalar order (bit-identical). After sub-quantizers 4 and 8, one
    /// `_CMP_GE_OQ` compare per accumulator, ANDed, and one movemask decide
    /// whether every lane has reached the threshold; NaN compares false and
    /// is never pruned. Returns the codes pruned.
    ///
    /// # Safety
    /// As [`scan_select_avx2_impl`], and `block + NB <= slab.blocks()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn select_group_avx2<const NB: usize>(
        slab: &CodeSlab,
        lut: &DistanceTable,
        ids: &[u32],
        topk: &mut TopK,
        block: usize,
    ) -> usize {
        let (m, ksub) = (slab.m(), lut.ksub());
        let table = lut.as_flat().as_ptr();
        let stride = m * BLOCK;
        let base = slab.as_bytes().as_ptr().add(block * stride);
        let threshold = topk.threshold();
        let armed = armed(threshold);
        let bound = _mm256_set1_ps(threshold);
        let mut acc = [_mm256_setzero_ps(); NB];
        let mut j = 0;
        for end in segment_ends(m) {
            while j < end {
                for (b, a) in acc.iter_mut().enumerate() {
                    *a = _mm256_add_ps(*a, gather8(table, base.add(b * stride), j, ksub));
                }
                j += 1;
            }
            if end < m && armed {
                let mut reached = _mm256_cmp_ps::<_CMP_GE_OQ>(acc[0], bound);
                for &a in &acc[1..] {
                    reached = _mm256_and_ps(reached, _mm256_cmp_ps::<_CMP_GE_OQ>(a, bound));
                }
                if _mm256_movemask_ps(reached) == 0xFF {
                    return real_codes(slab, block * BLOCK, NB);
                }
            }
        }
        // `keep`: under a finite threshold, the lanes not `>=` it, so the
        // top-k sees only the pushes that can change it.
        let mut dists = [0.0f32; GROUP_BLOCKS * BLOCK];
        let mut keep = if armed { 0 } else { u32::MAX };
        for (b, &a) in acc.iter().enumerate() {
            _mm256_storeu_ps(dists.as_mut_ptr().add(b * BLOCK), a);
            if armed {
                let below = _mm256_cmp_ps::<_CMP_NGE_UQ>(a, bound);
                keep |= (_mm256_movemask_ps(below) as u32) << (b * BLOCK);
            }
        }
        push_group(topk, ids, block * BLOCK, &dists[..NB * BLOCK], keep);
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanns_quantize::pq::DistanceTable;

    fn make_lut(m: usize, ksub: usize, seed: u64) -> DistanceTable {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / 1000.0
        };
        let table: Vec<f32> = (0..m * ksub).map(|_| next()).collect();
        DistanceTable::from_flat(m, ksub, table)
    }

    fn make_codes(n: usize, m: usize, ksub: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n * m)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as usize % ksub) as u8
            })
            .collect()
    }

    fn scalar_reference(codes: &[u8], m: usize, lut: &DistanceTable) -> Vec<f32> {
        codes.chunks_exact(m).map(|code| lut.adc(code)).collect()
    }

    #[test]
    fn portable_matches_scalar_bitwise() {
        for &(n, m, ksub) in &[
            (1usize, 4usize, 16usize),
            (13, 8, 64),
            (64, 16, 256),
            (97, 16, 256),
        ] {
            let lut = make_lut(m, ksub, 42);
            let codes = make_codes(n, m, ksub, 7);
            let slab = CodeSlab::from_codes(&codes, m);
            let mut out = vec![0.0f32; slab.padded_len()];
            scan_f32_portable(&slab, &lut, &mut out);
            let expected = scalar_reference(&codes, m, &lut);
            for i in 0..n {
                assert_eq!(
                    out[i].to_bits(),
                    expected[i].to_bits(),
                    "n={n} m={m} ksub={ksub} code {i}"
                );
            }
        }
    }

    #[test]
    fn avx2_matches_scalar_bitwise_when_available() {
        let (n, m, ksub) = (77usize, 16usize, 256usize);
        let lut = make_lut(m, ksub, 3);
        let codes = make_codes(n, m, ksub, 11);
        let slab = CodeSlab::from_codes(&codes, m);
        let mut out = vec![0.0f32; slab.padded_len()];
        scan_f32_avx2(&slab, &lut, &mut out);
        let expected = scalar_reference(&codes, m, &lut);
        for i in 0..n {
            assert_eq!(out[i].to_bits(), expected[i].to_bits(), "code {i}");
        }
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_is_rejected() {
        let lut = make_lut(4, 16, 1);
        let slab = CodeSlab::from_codes(&make_codes(8, 4, 16, 2), 4);
        let mut out = vec![0.0f32; 3]; // wrong length
        scan_f32_portable(&slab, &lut, &mut out);
    }
}
