//! int8-LUT scan kernels: 8-bit table entries, integer-lane accumulation.
//!
//! The f32 LUT is affinely quantized to one byte per entry
//! ([`DistanceTable::quantize_i8`](fanns_quantize::pq::DistanceTable::quantize_i8)),
//! shrinking the table 4× (an `m=16 × ksub=256` table drops from 16 KiB to
//! 4 KiB — small enough to stay resident in L1 across the whole scan). The
//! per-code work becomes `m` byte loads plus integer adds; the quantized
//! entry sum is an affine image of the f32 distance, so ordering survives up
//! to the documented error bound and a fast integer first pass can rank
//! candidates that an exact f32 pass then re-ranks.
//!
//! Sums are accumulated in `u32` lanes (a `u16` lane would already hold
//! `m · 255` for any `m ≤ 257`; `u32` keeps the AVX2 gather path simple and
//! leaves headroom for large `m`). Portable and AVX2 variants are
//! bit-identical — integer arithmetic has no rounding to reorder.

use fanns_quantize::pq::QuantizedLut;

use super::avx2_available;
use super::slab::{CodeSlab, BLOCK};

/// Computes per-code quantized entry sums for the whole slab into `out`
/// (compare with [`QuantizedLut::dequantize`] or rank raw — the mapping is
/// affine with positive scale, so raw sums order identically).
///
/// `out` must hold [`CodeSlab::padded_len`] entries; tail-padding lanes
/// receive the sum of the zero code and must be ignored by the caller.
///
/// # Panics
/// Panics when shapes disagree (`slab.m() != qlut.m()`, wrong `out` length).
pub fn scan_i8_portable(slab: &CodeSlab, qlut: &QuantizedLut, out: &mut [u32]) {
    check_shapes(slab, qlut, out.len());
    let m = slab.m();
    let ksub = qlut.ksub();
    let table = qlut.as_flat();
    let bytes = slab.as_bytes();
    for block in 0..slab.blocks() {
        let base = block * m * BLOCK;
        let mut acc = [0u32; BLOCK];
        for j in 0..m {
            let row = &table[j * ksub..(j + 1) * ksub];
            let lanes: &[u8] = &bytes[base + j * BLOCK..base + (j + 1) * BLOCK];
            for (a, &c) in acc.iter_mut().zip(lanes) {
                *a += u32::from(row[c as usize]);
            }
        }
        out[block * BLOCK..(block + 1) * BLOCK].copy_from_slice(&acc);
    }
}

/// AVX2 variant of [`scan_i8_portable`]: gathers four bytes per lane from
/// the padded table and masks to the low byte, accumulating in `u32` lanes.
/// Falls back to the portable kernel when AVX2 is unavailable.
///
/// # Panics
/// Panics when shapes disagree (`slab.m() != qlut.m()`, wrong `out` length).
pub fn scan_i8_avx2(slab: &CodeSlab, qlut: &QuantizedLut, out: &mut [u32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        check_shapes(slab, qlut, out.len());
        // SAFETY: AVX2 verified at runtime; shape contract established by
        // `check_shapes`, and the gather source is the *padded* table so
        // 4-byte loads anchored at the last entry stay in bounds.
        unsafe { x86::scan_i8_avx2_impl(slab, qlut, out) };
        return;
    }
    scan_i8_portable(slab, qlut, out);
}

fn check_shapes(slab: &CodeSlab, qlut: &QuantizedLut, out_len: usize) {
    assert_eq!(slab.m(), qlut.m(), "slab and quantized LUT disagree on m");
    assert_eq!(
        out_len,
        slab.padded_len(),
        "output buffer must hold padded_len() sums"
    );
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// Gathers and masks the 8 byte entries sub-quantizer `j` selects for
    /// one block (byte-granular gather: scale 1, keep the low byte).
    ///
    /// # Safety
    /// Requires AVX2; `base` must point at a full `m * BLOCK`-byte block and
    /// the table must carry the gather pad so 4-byte loads anchored at any
    /// entry stay in bounds.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather8_bytes(table: *const u8, base: *const u8, j: usize, ksub: usize) -> __m256i {
        let lanes = _mm_loadl_epi64(base.add(j * BLOCK) as *const __m128i);
        let idx = _mm256_cvtepu8_epi32(lanes);
        let idx = _mm256_add_epi32(idx, _mm256_set1_epi32((j * ksub) as i32));
        let vals = _mm256_i32gather_epi32::<1>(table as *const i32, idx);
        _mm256_and_si256(vals, _mm256_set1_epi32(0xFF))
    }

    /// # Safety
    /// Requires AVX2. Shape contract checked by the caller; gather indices
    /// are `j*ksub + code < m*ksub`, and the table is padded by
    /// [`fanns_quantize::pq::QLUT_GATHER_PAD`] bytes so the 32-bit loads
    /// the gather performs never leave the allocation.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_i8_avx2_impl(slab: &CodeSlab, qlut: &QuantizedLut, out: &mut [u32]) {
        let m = slab.m();
        let ksub = qlut.ksub();
        let table = qlut.as_padded().as_ptr();
        let bytes = slab.as_bytes().as_ptr();
        let out = out.as_mut_ptr();
        let blocks = slab.blocks();
        let stride = m * BLOCK;
        let mut block = 0usize;
        // Four blocks in flight, mirroring the f32 kernel: integer adds are
        // cheap, but the independent chains keep more gathers in flight.
        while block + 4 <= blocks {
            let b0 = bytes.add(block * stride);
            let (b1, b2, b3) = (b0.add(stride), b0.add(2 * stride), b0.add(3 * stride));
            let mut a0 = _mm256_setzero_si256();
            let mut a1 = _mm256_setzero_si256();
            let mut a2 = _mm256_setzero_si256();
            let mut a3 = _mm256_setzero_si256();
            for j in 0..m {
                a0 = _mm256_add_epi32(a0, gather8_bytes(table, b0, j, ksub));
                a1 = _mm256_add_epi32(a1, gather8_bytes(table, b1, j, ksub));
                a2 = _mm256_add_epi32(a2, gather8_bytes(table, b2, j, ksub));
                a3 = _mm256_add_epi32(a3, gather8_bytes(table, b3, j, ksub));
            }
            let dst = out.add(block * BLOCK) as *mut __m256i;
            _mm256_storeu_si256(dst, a0);
            _mm256_storeu_si256(dst.add(1), a1);
            _mm256_storeu_si256(dst.add(2), a2);
            _mm256_storeu_si256(dst.add(3), a3);
            block += 4;
        }
        while block < blocks {
            let base = bytes.add(block * stride);
            let mut acc = _mm256_setzero_si256();
            for j in 0..m {
                acc = _mm256_add_epi32(acc, gather8_bytes(table, base, j, ksub));
            }
            _mm256_storeu_si256(out.add(block * BLOCK) as *mut __m256i, acc);
            block += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanns_quantize::pq::DistanceTable;

    fn setup(n: usize, m: usize, ksub: usize) -> (CodeSlab, DistanceTable, QuantizedLut) {
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let table: Vec<f32> = (0..m * ksub)
            .map(|_| (next() >> 40) as f32 / 512.0)
            .collect();
        let lut = DistanceTable::from_flat(m, ksub, table);
        let codes: Vec<u8> = (0..n * m).map(|_| (next() as usize % ksub) as u8).collect();
        let qlut = lut.quantize_i8();
        (CodeSlab::from_codes(&codes, m), lut, qlut)
    }

    #[test]
    fn portable_matches_per_code_reference() {
        let (slab, _, qlut) = setup(41, 16, 256);
        let mut out = vec![0u32; slab.padded_len()];
        scan_i8_portable(&slab, &qlut, &mut out);
        let mut code = vec![0u8; slab.m()];
        for (i, &got) in out.iter().enumerate().take(slab.len()) {
            slab.read_code(i, &mut code);
            let expected: u32 = code
                .iter()
                .enumerate()
                .map(|(j, &c)| u32::from(qlut.as_flat()[j * qlut.ksub() + c as usize]))
                .sum();
            assert_eq!(got, expected, "code {i}");
        }
    }

    #[test]
    fn avx2_matches_portable_exactly() {
        let (slab, _, qlut) = setup(53, 16, 256);
        let mut portable = vec![0u32; slab.padded_len()];
        let mut avx2 = vec![0u32; slab.padded_len()];
        scan_i8_portable(&slab, &qlut, &mut portable);
        scan_i8_avx2(&slab, &qlut, &mut avx2);
        assert_eq!(portable, avx2);
    }

    #[test]
    fn dequantized_sums_respect_the_error_bound() {
        let (slab, lut, qlut) = setup(64, 8, 64);
        let mut out = vec![0u32; slab.padded_len()];
        scan_i8_portable(&slab, &qlut, &mut out);
        let mut code = vec![0u8; slab.m()];
        let bound = qlut.max_abs_error() + 1e-4;
        for (i, &raw) in out.iter().enumerate().take(slab.len()) {
            slab.read_code(i, &mut code);
            let exact = lut.adc(&code);
            let approx = qlut.dequantize(raw);
            assert!(
                (approx - exact).abs() <= bound,
                "code {i}: {approx} vs {exact} (bound {bound})"
            );
        }
    }
}
