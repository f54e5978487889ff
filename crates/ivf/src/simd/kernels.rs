//! f32 ADC scan kernels over a block-transposed [`CodeSlab`].
//!
//! Both kernels compute, for every code in the slab, the asymmetric distance
//! `Σ_j lut[j][code[j]]` — the exact arithmetic of
//! [`DistanceTable::adc`](fanns_quantize::pq::DistanceTable::adc) — but
//! process [`BLOCK`] codes per iteration with one independent accumulator
//! per lane:
//!
//! * [`scan_f32_portable`] keeps 8 scalar accumulators, which breaks the
//!   add-dependency chain that throttles the per-code scalar loop and gives
//!   the compiler a clean auto-vectorization target on any architecture;
//! * [`scan_f32_avx2`] (x86-64 only, runtime-dispatched) zero-extends 8
//!   adjacent code bytes to 32-bit lane indices and gathers 8 LUT entries
//!   per sub-quantizer with `_mm256_i32gather_ps`, accumulating in one
//!   `__m256` register.
//!
//! Every lane sums its `m` entries in the same order as the scalar
//! reference, so per-code distances are **bit-identical** across scalar,
//! portable and AVX2 kernels (f32 addition is deterministic for a fixed
//! order — only the grouping across *codes* changes, never within one).

use fanns_quantize::dispatch::avx2_available;
use fanns_quantize::pq::DistanceTable;

use super::slab::{CodeSlab, BLOCK};

/// Computes per-code f32 ADC distances for the whole slab into `out`.
///
/// `out` must hold exactly [`CodeSlab::padded_len`] entries; tail-padding
/// lanes receive the distance of the zero code and must be ignored by the
/// caller (bound id loops with [`CodeSlab::len`]).
///
/// # Panics
/// Panics when shapes disagree (`slab.m() != lut.m()`, wrong `out` length).
pub fn scan_f32_portable(slab: &CodeSlab, lut: &DistanceTable, out: &mut [f32]) {
    check_shapes(slab, lut.m(), out.len());
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
/// Panics when shapes disagree (`slab.m() != lut.m()`, wrong `out` length).
pub fn scan_f32_avx2(slab: &CodeSlab, lut: &DistanceTable, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        check_shapes(slab, lut.m(), out.len());
        // SAFETY: AVX2 support was just verified at runtime, and
        // `check_shapes` established the buffer contract the unsafe body
        // relies on (see `scan_f32_avx2_impl`).
        unsafe { x86::scan_f32_avx2_impl(slab, lut, out) };
        return;
    }
    scan_f32_portable(slab, lut, out);
}

fn check_shapes(slab: &CodeSlab, lut_m: usize, out_len: usize) {
    assert_eq!(slab.m(), lut_m, "slab and LUT disagree on m");
    assert_eq!(
        out_len,
        slab.padded_len(),
        "output buffer must hold padded_len() distances"
    );
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
    /// is `< lut.ksub()` (guaranteed by the PQ encoder), so every gather
    /// index is within the `m * ksub` LUT buffer.
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
