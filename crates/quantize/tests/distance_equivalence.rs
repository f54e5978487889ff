//! The distance kernels' contract, checked from outside the crate:
//!
//! * the portable and AVX2 tiers agree **bitwise** on every input (on a host
//!   without AVX2 the AVX2 tier demotes to portable and the comparison is
//!   trivially true; the forced-portable CI leg covers the other direction);
//! * the row kernel follows the documented canonical reduction order;
//! * the block kernel (rows re-laid as [`RowBlocks`]) returns the row
//!   kernel's argmin and distances bitwise, ties and non-finite values
//!   included;
//! * lookup tables and PQ codes equal a plain single-accumulator reference
//!   bitwise, so vectorising them changed no ADC distance and no code;
//! * every kernel stays within 1e-5 relative of an f64 reference;
//! * NaN and infinite components propagate to the output, never a panic.

use proptest::prelude::*;

use fanns_quantize::distance::{all_l2, argmin_l2, l2_sq, RowBlocks, SimdTier};
use fanns_quantize::pq::{DistanceTable, ProductQuantizer};

const TIERS: [SimdTier; 2] = [SimdTier::Portable, SimdTier::Avx2];

/// Deterministic xorshift stream of values in [-1, 1).
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
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }

    fn vec(&mut self, len: usize) -> Vec<f32> {
        (0..len).map(|_| self.f32()).collect()
    }
}

/// The loop the kernels replaced: one accumulator, index order.
fn single_accumulator_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// The documented canonical order, spelled out independently of the crate.
fn canonical_l2(a: &[f32], b: &[f32]) -> f32 {
    let body = a.len() - a.len() % 8;
    let mut lane = [0.0f32; 8];
    for i in 0..body {
        let d = a[i] - b[i];
        lane[i % 8] += d * d;
    }
    let mut sum =
        ((lane[0] + lane[4]) + (lane[2] + lane[6])) + ((lane[1] + lane[5]) + (lane[3] + lane[7]));
    for i in body..a.len() {
        let d = a[i] - b[i];
        sum += d * d;
    }
    sum
}

fn f64_l2(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (f64::from(x) - f64::from(y)).powi(2))
        .sum()
}

fn first_minimum(dists: &[f32]) -> (usize, f32) {
    let (mut best, mut best_d) = (0usize, f32::INFINITY);
    for (i, &d) in dists.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

fn assert_close(got: f32, want: f64, what: &str) {
    let tolerance = 1e-5 * want.abs().max(f64::MIN_POSITIVE);
    assert!(
        (f64::from(got) - want).abs() <= tolerance,
        "{what}: {got} vs f64 reference {want}"
    );
}

/// Row-kernel checks for one `(dim, rows)` shape.
fn check_rows(dim: usize, rows: usize, seed: u64) {
    let mut stream = Stream::new(seed);
    let v = stream.vec(dim);
    let mut centroids = stream.vec(rows * dim);
    if rows >= 3 {
        // An exact duplicate of the first row: a tie the argmin must break low.
        let (first, rest) = centroids.split_at_mut(dim);
        rest[(rows - 2) * dim..].copy_from_slice(first);
    }

    let mut per_tier = Vec::new();
    for tier in TIERS {
        let mut dists = Vec::new();
        tier.all_l2(&v, &centroids, dim, &mut dists);
        assert_eq!(dists.len(), rows);
        for (i, row) in centroids.chunks_exact(dim).enumerate() {
            assert_eq!(dists[i].to_bits(), tier.l2_sq(&v, row).to_bits());
            assert_eq!(dists[i].to_bits(), canonical_l2(&v, row).to_bits());
            assert_close(dists[i], f64_l2(&v, row), "row kernel");
        }
        let (at, d) = tier.argmin_l2(&v, &centroids, dim);
        let (want_at, want_d) = first_minimum(&dists);
        assert_eq!((at, d.to_bits()), (want_at, want_d.to_bits()));
        per_tier.push(dists);
    }
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&per_tier[0]), bits(&per_tier[1]), "portable vs avx2");

    // The free functions run one of the two tiers.
    let mut dists = Vec::new();
    all_l2(&v, &centroids, dim, &mut dists);
    assert_eq!(bits(&dists), bits(&per_tier[0]));
    assert_eq!(argmin_l2(&v, &centroids, dim).0, first_minimum(&dists).0);
    assert_eq!(
        l2_sq(&v, &centroids[..dim]).to_bits(),
        per_tier[0][0].to_bits()
    );
}

#[test]
fn row_kernel_tiers_agree_at_the_named_dimensions() {
    for dim in [1usize, 2, 7, 8, 9, 15, 16, 17, 100, 128, 131, 1023, 1024] {
        for rows in [1usize, 3, 4, 5, 9] {
            check_rows(dim, rows, (dim * 31 + rows) as u64);
        }
    }
    // More rows than one argmin block, with a trailing partial block.
    check_rows(8, 64, 5);
    check_rows(8, 65, 6);
    check_rows(3, 200, 7);
}

proptest! {
    /// Portable ≡ AVX2 ≡ the documented order, bitwise, for any dimension
    /// up to 1024 and any row count around the kernels' 4-row blocking.
    #[test]
    fn row_kernel_tiers_agree_bitwise(
        dim in 1usize..1025,
        rows in 1usize..12,
        seed in 1u64..u64::MAX,
    ) {
        check_rows(dim, rows, seed);
    }
}

/// `l2_blocks` subtracts in the other operand order from `l2_sq(row, v)`.
/// Squares of `a - b` and `b - a` are equal in IEEE f32, but when both
/// operands are NaN the payload of the result follows the operand order,
/// so NaN results are compared as NaN.
fn same_distance(got: f32, want: f32) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// Block-kernel checks for one query against one row set: the argmin
/// equals the row kernel's `argmin_l2` and the sweep equals per-row
/// `l2_sq`, bitwise, on both tiers.
fn check_blocks(v: &[f32], rows: &[f32], dim: usize, what: &str) {
    let blocks = RowBlocks::new(rows, dim);
    assert_eq!(blocks.len(), rows.len() / dim);
    for tier in TIERS {
        let (want_at, want_d) = tier.argmin_l2(v, rows, dim);
        let (at, d) = tier.argmin_l2_blocks(v, &blocks);
        assert_eq!(
            (at, d.to_bits()),
            (want_at, want_d.to_bits()),
            "{tier:?} argmin, {what}, dim {dim}, k {}",
            blocks.len()
        );
        let mut out = vec![0.0f32; blocks.len()];
        tier.l2_blocks(v, &blocks, &mut out);
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            let want = tier.l2_sq(row, v);
            assert!(
                same_distance(out[r], want),
                "{tier:?} sweep row {r}, {what}, dim {dim}: {} vs {want}",
                out[r]
            );
        }
    }
}

/// Random rows with exact duplicates planted across blocks, inside one
/// block and in the tail, queried by a random vector and by the duplicated
/// rows themselves (distance-0 ties the argmin must break low).
fn check_block_shape(dim: usize, k: usize, seed: u64) {
    let mut stream = Stream::new(seed);
    let mut rows = stream.vec(k * dim);
    let mut copy_row = |from: usize, to: usize| {
        if from < k && to < k && from != to {
            rows.copy_within(from * dim..(from + 1) * dim, to * dim);
        }
    };
    // Same lane in the next block, another lane of the next block, and the
    // last row (the tail when k % 8 != 0).
    copy_row(3, 11);
    copy_row(3, 12);
    copy_row(k / 2, k - 1);
    copy_row(1, 2);
    let v = stream.vec(dim);
    check_blocks(&v, &rows, dim, "random query");
    for r in [0, 3, k / 2, k - 1].into_iter().filter(|&r| r < k) {
        let v = rows[r * dim..(r + 1) * dim].to_vec();
        check_blocks(&v, &rows, dim, "query is a row");
    }
}

#[test]
fn block_kernel_equals_the_row_kernel_for_every_small_shape() {
    for dim in 1usize..=40 {
        for k in 1usize..=70 {
            check_block_shape(dim, k, (dim * 1000 + k) as u64);
        }
    }
    // The coarse quantiser's shape: dim 128, more rows than a block.
    check_block_shape(128, 256, 1);
    check_block_shape(128, 259, 2);
}

#[test]
fn block_kernel_handles_signed_zeros_and_non_finite_components() {
    let inf = f32::INFINITY;
    let nan = f32::NAN;
    for dim in [1usize, 7, 8, 9, 16, 19] {
        for k in [1usize, 5, 8, 13, 24, 27] {
            let mut stream = Stream::new((dim * 100 + k) as u64);
            let clean = stream.vec(k * dim);
            let v = stream.vec(dim);
            for at in [0, dim / 2, dim - 1] {
                // -0.0 against +0.0: the difference is zero either way.
                let mut rows = clean.clone();
                let mut zero_v = v.clone();
                zero_v[at] = -0.0;
                for row in rows.chunks_exact_mut(dim) {
                    row[at] = 0.0;
                }
                check_blocks(&zero_v, &rows, dim, "signed zeros");

                for poison in [nan, inf, -inf] {
                    // A poisoned query: every distance is NaN or +inf, so
                    // nothing is below +inf and the argmin is (0, +inf).
                    let mut bad_v = v.clone();
                    bad_v[at] = poison;
                    check_blocks(&bad_v, &clean, dim, "poisoned query");
                    let (got, d) =
                        SimdTier::Avx2.argmin_l2_blocks(&bad_v, &RowBlocks::new(&clean, dim));
                    assert_eq!((got, d), (0, inf));

                    // Poisoned rows in a block lane and in the tail: those
                    // rows are skipped, the others still compete.
                    let mut rows = clean.clone();
                    for r in [k / 3, k - 1] {
                        rows[r * dim + at] = poison;
                    }
                    check_blocks(&v, &rows, dim, "poisoned rows");
                    // inf - inf: a NaN distance inside an otherwise
                    // infinite field.
                    let mut inf_v = v.clone();
                    inf_v[at] = poison;
                    check_blocks(&inf_v, &rows, dim, "poisoned query and rows");
                }
            }
        }
    }
}

#[test]
fn block_kernel_all_nan_row_returns_the_first_index_at_infinity() {
    for dim in [1usize, 8, 12] {
        for k in [1usize, 8, 20] {
            let rows = vec![f32::NAN; k * dim];
            let v = vec![0.5f32; dim];
            check_blocks(&v, &rows, dim, "all NaN");
            for tier in TIERS {
                let (at, d) = tier.argmin_l2_blocks(&v, &RowBlocks::new(&rows, dim));
                assert_eq!((at, d), (0, f32::INFINITY));
            }
        }
    }
}

proptest! {
    /// The block kernel equals the row kernel for any dimension and row
    /// count around the 8-row blocking.
    #[test]
    fn block_kernel_equals_the_row_kernel(
        dim in 1usize..130,
        k in 1usize..80,
        seed in 1u64..u64::MAX,
    ) {
        check_block_shape(dim, k, seed);
    }
}

/// A quantizer with random codebooks (and one duplicated centroid per
/// sub-space, so encoding has ties to break).
fn random_pq(m: usize, ksub: usize, dsub: usize, stream: &mut Stream) -> ProductQuantizer {
    let mut books = stream.vec(m * ksub * dsub);
    for book in books.chunks_exact_mut(ksub * dsub) {
        let (first, rest) = book.split_at_mut(dsub);
        rest[(ksub - 2) * dsub..].copy_from_slice(first);
    }
    ProductQuantizer::from_codebooks(m * dsub, m, ksub, books)
}

fn reference_table(pq: &ProductQuantizer, query: &[f32]) -> Vec<f32> {
    let dsub = pq.dsub();
    let mut table = Vec::new();
    for j in 0..pq.m() {
        let sub = &query[j * dsub..(j + 1) * dsub];
        for cent in pq.codebook(j).chunks_exact(dsub) {
            table.push(single_accumulator_l2(sub, cent));
        }
    }
    table
}

fn reference_code(pq: &ProductQuantizer, v: &[f32]) -> Vec<u8> {
    reference_table(pq, v)
        .chunks_exact(pq.ksub())
        .map(|row| first_minimum(row).0 as u8)
        .collect()
}

#[test]
fn lut_and_codes_equal_the_single_accumulator_reference_bitwise() {
    let bits = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (m, ksub, dsub) in [
        (16usize, 256usize, 8usize),
        (8, 16, 4),
        (4, 256, 3),
        (1, 5, 7),
    ] {
        let mut stream = Stream::new((m * 1000 + ksub * 10 + dsub) as u64);
        let pq = random_pq(m, ksub, dsub, &mut stream);
        for _ in 0..8 {
            let v = stream.vec(m * dsub);
            let want = reference_table(&pq, &v);
            assert_eq!(bits(pq.build_distance_table(&v).as_flat()), bits(&want));
            // `_into` reuses one table across tiers and queries.
            let mut table = DistanceTable::default();
            for tier in TIERS {
                pq.build_distance_table_into(tier, &v, &mut table);
                assert_eq!((table.m(), table.ksub()), (m, ksub));
                assert_eq!(
                    bits(table.as_flat()),
                    bits(&want),
                    "{tier:?} ({m},{ksub},{dsub})"
                );
            }
            for (got, want) in want.iter().zip(reference_table_f64(&pq, &v)) {
                assert_close(*got, want, "column kernel");
            }
            assert_eq!(pq.encode(&v), reference_code(&pq, &v));
        }
        // A vector that *is* the duplicated centroid: distance 0 twice per
        // sub-space, and the lower index must win.
        let tie: Vec<f32> = (0..m)
            .flat_map(|j| pq.codebook(j)[..dsub].to_vec())
            .collect();
        assert_eq!(pq.encode(&tie), vec![0u8; m]);
        let data: Vec<f32> = (0..5).flat_map(|_| stream.vec(m * dsub)).collect();
        let want: Vec<u8> = data
            .chunks_exact(m * dsub)
            .flat_map(|v| reference_code(&pq, v))
            .collect();
        assert_eq!(pq.encode_all(&data), want);
    }
}

fn reference_table_f64(pq: &ProductQuantizer, query: &[f32]) -> Vec<f64> {
    let dsub = pq.dsub();
    (0..pq.m())
        .flat_map(|j| {
            let sub = &query[j * dsub..(j + 1) * dsub];
            pq.codebook(j)
                .chunks_exact(dsub)
                .map(|cent| f64_l2(sub, cent))
                .collect::<Vec<_>>()
        })
        .collect()
}

#[test]
fn nan_and_inf_components_propagate_without_a_panic() {
    let dim = 19; // two full lanes' worth of body plus a tail
    let mut stream = Stream::new(99);
    let clean = stream.vec(dim);
    let centroids = stream.vec(6 * dim);
    for poisoned_at in [0usize, 9, 18] {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut v = clean.clone();
            v[poisoned_at] = poison;
            for tier in TIERS {
                let mut dists = Vec::new();
                tier.all_l2(&v, &centroids, dim, &mut dists);
                for &d in &dists {
                    if poison.is_nan() {
                        assert!(d.is_nan());
                    } else {
                        assert_eq!(d, f32::INFINITY);
                    }
                }
                let (at, _) = tier.argmin_l2(&v, &centroids, dim);
                assert_eq!(at, 0, "nothing is below +inf: the first index stands");
            }
        }
    }
    // inf - inf inside one component is NaN, like the scalar loop.
    assert!(l2_sq(&[f32::INFINITY], &[f32::INFINITY]).is_nan());

    // The same through the quantizer: the poisoned sub-space's row carries
    // the poison, the others stay finite, and encoding still returns a code.
    let pq = random_pq(4, 16, 3, &mut stream);
    let mut v = stream.vec(12);
    v[4] = f32::NAN;
    for tier in TIERS {
        let mut table = DistanceTable::default();
        pq.build_distance_table_into(tier, &v, &mut table);
        assert!(table.row(1).iter().all(|d| d.is_nan()));
        assert!(table
            .row(0)
            .iter()
            .chain(table.row(2))
            .all(|d| d.is_finite()));
    }
    let code = pq.encode(&v);
    assert_eq!(code.len(), 4);
    assert_eq!(code[1], 0, "an all-NaN row encodes to the first centroid");
}
