//! Property tests: every scan kernel is equivalent to the scalar ADC
//! reference across random shapes (`m`, `ksub`, list length, table and code
//! contents).
//!
//! The f32 kernels must match the scalar reference *bitwise* — each lane
//! sums its `m` LUT entries in the same order, so there is no 1-ulp slack to
//! grant.

use proptest::prelude::*;

use fanns_ivf::simd::{kernels, CodeSlab};
use fanns_quantize::pq::DistanceTable;

/// Deterministic xorshift stream for table/code contents.
struct Stream(u64);

impl Stream {
    fn new(seed: u64) -> Self {
        Stream(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / 257.0
    }
}

fn random_case(m: usize, ksub: usize, len: usize, seed: u64) -> (CodeSlab, Vec<u8>, DistanceTable) {
    let mut stream = Stream::new(seed);
    let table: Vec<f32> = (0..m * ksub).map(|_| stream.f32()).collect();
    let lut = DistanceTable::from_flat(m, ksub, table);
    let codes: Vec<u8> = (0..len * m)
        .map(|_| (stream.next() as usize % ksub) as u8)
        .collect();
    (CodeSlab::from_codes(&codes, m), codes, lut)
}

proptest! {
    /// The portable chunked kernel returns bit-identical distances to the
    /// per-code scalar reference for every shape.
    #[test]
    fn portable_matches_scalar_bitwise(
        m in 1usize..20,
        ksub in 2usize..257,
        len in 0usize..150,
        seed in 1u64..u64::MAX,
    ) {
        let (slab, codes, lut) = random_case(m, ksub, len, seed);
        let mut out = vec![0.0f32; slab.padded_len()];
        kernels::scan_f32_portable(&slab, &lut, &mut out);
        for (i, code) in codes.chunks_exact(m).enumerate() {
            prop_assert_eq!(out[i].to_bits(), lut.adc(code).to_bits());
        }
    }

    /// The AVX2 gather kernel (or its portable fallback on non-AVX2 hosts)
    /// returns bit-identical distances to the scalar reference.
    #[test]
    fn avx2_matches_scalar_bitwise(
        m in 1usize..20,
        ksub in 2usize..257,
        len in 0usize..150,
        seed in 1u64..u64::MAX,
    ) {
        let (slab, codes, lut) = random_case(m, ksub, len, seed);
        let mut out = vec![0.0f32; slab.padded_len()];
        kernels::scan_f32_avx2(&slab, &lut, &mut out);
        for (i, code) in codes.chunks_exact(m).enumerate() {
            prop_assert_eq!(out[i].to_bits(), lut.adc(code).to_bits());
        }
    }
}
