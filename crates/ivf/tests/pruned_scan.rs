//! Threshold pruning is exact. The fused slab kernels skip a 32-code group
//! once every partial sum in it has reached the running top-k threshold;
//! these tests hold them to the unpruned scalar reference bit for bit (ids,
//! distance bits and order):
//!
//! * at the kernel level, over lists sharing one top-k, with lookup tables
//!   built so partial and final sums land exactly on the threshold, with
//!   `+inf` and NaN entries, and over every list length around the block
//!   and group sizes;
//! * end to end, on a heap and a mapped index whose lists have exactly
//!   those lengths, for `k` of 1, 10 and more than any list holds;
//! * for queries holding NaN or ±Inf, on every kernel.

use std::sync::OnceLock;

use proptest::prelude::*;

use fanns_dataset::synth::SyntheticSpec;
use fanns_dataset::types::{QuerySet, VectorDataset};
use fanns_ivf::search::{search_with_kernel, stage_scan_and_select_with, SearchResult, TopK};
use fanns_ivf::simd::{kernels, CodeSlab, ScanKernel, ScanScratch, ALL_KERNELS};
use fanns_ivf::source::IvfSource;
use fanns_ivf::storage::open_index;
use fanns_ivf::{IvfPqIndex, IvfPqTrainConfig};
use fanns_quantize::pq::DistanceTable;

/// List lengths around the block (8) and group (32) sizes.
const LENS: [usize; 8] = [0, 1, 7, 8, 31, 32, 33, 100];

/// Deterministic xorshift stream for table and code contents.
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

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn bits(results: &[SearchResult]) -> Vec<(u32, u32)> {
    results
        .iter()
        .map(|r| (r.id, r.distance.to_bits()))
        .collect()
}

/// One inverted list: row-major codes and their ids.
struct List {
    codes: Vec<u8>,
    ids: Vec<u32>,
}

/// One list per `(len, alphabet)`: `len` random codes whose bytes are
/// `< alphabet`, with ids consecutive across the lists.
fn lists(shape: &[(usize, usize)], m: usize, stream: &mut Stream) -> Vec<List> {
    let mut next_id = 0u32;
    shape
        .iter()
        .map(|&(len, alphabet)| {
            let codes = (0..len * m).map(|_| stream.below(alphabet) as u8).collect();
            let ids = (next_id..next_id + len as u32).collect();
            next_id += len as u32;
            List { codes, ids }
        })
        .collect()
}

/// The unpruned reference: every code's `lut.adc`, pushed in order.
fn scalar(lists: &[List], lut: &DistanceTable, k: usize) -> Vec<SearchResult> {
    let mut topk = TopK::new(k);
    for list in lists {
        for (code, &id) in list.codes.chunks_exact(lut.m()).zip(&list.ids) {
            topk.push(lut.adc(code), id);
        }
    }
    topk.into_sorted()
}

type Fused = fn(&CodeSlab, &DistanceTable, &[u32], &mut TopK) -> usize;

const FUSED: [(&str, Fused); 2] = [
    ("portable", kernels::scan_select_f32_portable),
    ("avx2", kernels::scan_select_f32_avx2),
];

/// The lists through a pruning kernel; also returns the codes pruned.
fn fused(
    kernel: Fused,
    lists: &[List],
    lut: &DistanceTable,
    k: usize,
) -> (Vec<SearchResult>, usize) {
    let mut topk = TopK::new(k);
    let pruned = lists
        .iter()
        .map(|list| {
            kernel(
                &CodeSlab::from_codes(&list.codes, lut.m()),
                lut,
                &list.ids,
                &mut topk,
            )
        })
        .sum();
    (topk.into_sorted(), pruned)
}

/// Asserts every pruning kernel equals the scalar reference; returns the
/// codes the portable kernel pruned (the AVX2 kernel prunes the same
/// groups).
fn check(lists: &[List], lut: &DistanceTable, k: usize, case: &str) -> usize {
    let want = bits(&scalar(lists, lut, k));
    let mut counts = Vec::new();
    for (name, kernel) in FUSED {
        let (got, pruned) = fused(kernel, lists, lut, k);
        assert_eq!(bits(&got), want, "{case} k={k} {name}");
        counts.push(pruned);
    }
    assert_eq!(
        counts[0], counts[1],
        "{case} k={k}: kernels pruned different groups"
    );
    counts[0]
}

/// A table whose entries are drawn from `values`.
fn table_from(m: usize, ksub: usize, values: &[f32], stream: &mut Stream) -> DistanceTable {
    let table = (0..m * ksub)
        .map(|_| values[stream.below(values.len())])
        .collect();
    DistanceTable::from_flat(m, ksub, table)
}

#[test]
fn ties_on_the_threshold_are_pruned_exactly() {
    let (m, ksub) = (16, 16);
    let mut stream = Stream::new(7);
    let mut pruned = 0;
    let coarse = [0.0, 0.5, 1.0];
    let fine: Vec<f32> = (0..256).map(|i| i as f32 / 256.0).collect();
    for case in 0..8 {
        // Rows of a few repeated values (thousands of exact ties), or of
        // finely spaced ones (final sums just below the threshold).
        let values: &[f32] = if case < 4 { &coarse } else { &fine };
        let mut lut = table_from(m, ksub, values, &mut stream);
        if case % 2 == 1 {
            // Rows 4.. all zero: each partial sum at the first pruning test
            // already *is* the final sum, so sums land exactly on the
            // threshold at the test.
            let mut table = lut.as_flat().to_vec();
            table[4 * ksub..].fill(0.0);
            lut = DistanceTable::from_flat(m, ksub, table);
        }
        let lists = lists(
            &[(100, ksub), (64, ksub), (33, ksub), (100, ksub)],
            m,
            &mut stream,
        );
        for k in [1, 10, 40] {
            pruned += check(&lists, &lut, k, &format!("ties case {case}"));
        }
    }
    assert!(pruned > 0, "the tie cases never pruned a group");
}

#[test]
fn every_list_length_and_k_matches_the_scalar_reference() {
    let (m, ksub) = (16, 256);
    let mut stream = Stream::new(11);
    // Like a real query's table: a few near centroids per row, the rest far.
    let near = ksub / 8;
    let table = (0..m * ksub)
        .map(|i| {
            let x = stream.below(1024) as f32 / 64.0;
            if i % ksub < near {
                x
            } else {
                100.0 + x
            }
        })
        .collect();
    let lut = DistanceTable::from_flat(m, ksub, table);
    let mut pruned = 0;
    for len in LENS {
        // Three lists of this length share the top-k: the first holds near
        // codes only, so the later ones are scanned against a low threshold.
        let lists = lists(&[(len, near), (len, ksub), (len, ksub)], m, &mut stream);
        for k in [1, 10, len + 5] {
            pruned += check(&lists, &lut, k, &format!("len {len}"));
        }
    }
    assert!(pruned > 0, "the sweep never pruned a group");
}

#[test]
fn infinite_and_nan_entries_match_the_scalar_reference() {
    // +inf entries in the first row make partial sums +inf before the
    // first pruning test; NaN entries in the last row turn some of those
    // into NaN final sums, which a top-k that is not yet full accepts.
    // Pruning must wait for a finite threshold to stay exact.
    let (m, ksub) = (16, 8);
    let mut stream = Stream::new(23);
    for case in 0..8 {
        let values = [0.0, 1.0, 2.0, 3.0];
        let mut table = table_from(m, ksub, &values, &mut stream).as_flat().to_vec();
        for c in 0..ksub {
            // Odd cases: every partial sum is +inf.
            if case % 2 == 1 || stream.below(2) == 0 {
                table[c] = f32::INFINITY;
            }
            if case % 4 < 2 && stream.below(3) == 0 {
                table[(m - 1) * ksub + c] = f32::NAN;
            }
        }
        let lut = DistanceTable::from_flat(m, ksub, table);
        let lists = lists(&[(40, ksub), (100, ksub), (7, ksub)], m, &mut stream);
        for k in [1, 10, 200] {
            check(&lists, &lut, k, &format!("non-finite case {case}"));
        }
    }
}

#[test]
#[should_panic(expected = "none may be negative")]
fn a_negative_table_entry_is_rejected() {
    DistanceTable::from_flat(1, 2, vec![0.5, -0.25]);
}

#[test]
#[should_panic(expected = "one id per code")]
fn a_short_id_list_is_rejected() {
    let lut = DistanceTable::from_flat(2, 4, vec![0.0; 8]);
    let slab = CodeSlab::from_codes(&[1, 2, 3, 0], 2);
    kernels::scan_select_f32_portable(&slab, &lut, &[0], &mut TopK::new(1));
}

#[test]
#[should_panic(expected = "out of range for ksub")]
fn a_code_outside_the_table_is_rejected() {
    let lut = DistanceTable::from_flat(2, 4, vec![0.0; 8]);
    let slab = CodeSlab::from_codes(&[1, 4], 2);
    kernels::scan_select_f32_avx2(&slab, &lut, &[0], &mut TopK::new(1));
}

proptest! {
    /// Random shapes, `k` and tables of few distinct values (so ties are
    /// common): every pruning kernel equals the scalar reference.
    #[test]
    fn pruned_fused_equals_scalar(
        m in 1usize..20,
        ksub in 2usize..257,
        lens in proptest::collection::vec(0usize..150, 1..4),
        k in 1usize..60,
        distinct in 1usize..40,
        seed in 1u64..u64::MAX,
    ) {
        let mut stream = Stream::new(seed);
        let values: Vec<f32> = (0..distinct).map(|i| i as f32 * 0.5).collect();
        let lut = table_from(m, ksub, &values, &mut stream);
        let shape: Vec<(usize, usize)> = lens.iter().map(|&len| (len, ksub)).collect();
        let lists = lists(&shape, m, &mut stream);
        let want = bits(&scalar(&lists, &lut, k));
        for (_, kernel) in FUSED {
            prop_assert_eq!(bits(&fused(kernel, &lists, &lut, k).0), want.clone());
        }
    }
}

/// A trained index whose eight lists hold exactly [`LENS`] codes, its
/// mapped twin, and the query pool; built once, shared by the tests.
struct Fixture {
    heap: IvfPqIndex,
    mapped: fanns_ivf::storage::MappedIndex,
    queries: QuerySet,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(build_fixture)
}

fn build_fixture() -> Fixture {
    let mut spec = SyntheticSpec::sift_small(17);
    spec.num_vectors = 4_000;
    let (db, queries) = spec.generate();
    let config = IvfPqTrainConfig::new(LENS.len())
        .with_m(16)
        .with_ksub(64)
        .with_train_sample(2_000)
        .with_seed(9);
    let mut heap = IvfPqIndex::train(&db, &config);
    // Pool the vectors by cell; the cell with the r-th largest pool gets
    // the r-th largest length.
    let mut pools = vec![Vec::new(); LENS.len()];
    for (i, v) in db.iter().enumerate() {
        pools[heap.coarse().assign(v).0].push(i);
    }
    let mut cells: Vec<usize> = (0..LENS.len()).collect();
    cells.sort_by_key(|&c| std::cmp::Reverse(pools[c].len()));
    let mut lens = LENS;
    lens.sort_by_key(|&len| std::cmp::Reverse(len));
    let rows: Vec<usize> = cells
        .iter()
        .zip(lens)
        .flat_map(|(&c, len)| pools[c][..len].to_vec())
        .collect();
    heap.add(&db.subset(&rows), 0);
    let mut sizes = heap.list_sizes();
    sizes.sort_unstable();
    assert_eq!(sizes, LENS, "the fixture's lists have the swept lengths");

    let dir = std::env::temp_dir().join(format!("fanns-pruned-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("lens.fanns");
    heap.write_index(&path).expect("write the index");
    let mapped = open_index(&path).expect("open the index");
    mapped.warm();
    Fixture {
        heap,
        mapped,
        queries,
    }
}

/// Every kernel's fused scan equals the scalar one on `source`, for every
/// query, `k` and `nprobe`; returns the codes the default slab kernel
/// pruned.
fn check_source(source: &dyn IvfSource, queries: &VectorDataset, tag: &str) -> usize {
    let mut scratch = ScanScratch::new();
    let mut pruned = 0;
    for (q, query) in queries.iter().enumerate() {
        for k in [1, 10, 150] {
            for nprobe in [1, 3, LENS.len()] {
                let want = bits(&search_with_kernel(
                    source,
                    query,
                    k,
                    nprobe,
                    ScanKernel::Scalar,
                    &mut scratch,
                ));
                assert_eq!(scratch.pruned(), 0, "the scalar kernel never prunes");
                for kernel in ALL_KERNELS {
                    let got = search_with_kernel(source, query, k, nprobe, kernel, &mut scratch);
                    assert_eq!(
                        bits(&got),
                        want,
                        "{tag} query {q} k {k} nprobe {nprobe} {kernel}"
                    );
                    if kernel == ScanKernel::Portable {
                        pruned += scratch.pruned();
                    }
                }
            }
        }
    }
    pruned
}

#[test]
fn heap_and_mapped_indexes_match_the_scalar_reference() {
    let fx = fixture();
    let queries = fx.queries.as_dataset();
    let heap = check_source(&fx.heap, queries, "heap");
    let mapped = check_source(&fx.mapped, queries, "mapped");
    assert!(heap > 0, "no query pruned a group");
    assert_eq!(heap, mapped, "heap and mapped lists pruned differently");
}

#[test]
fn non_finite_queries_return_what_scalar_returns() {
    let fx = fixture();
    let base = fx.queries.get(0);
    let dim = base.len();
    let with = |edits: &[(usize, f32)]| {
        let mut q = base.to_vec();
        for &(i, x) in edits {
            q[i] = x;
        }
        q
    };
    let queries = VectorDataset::from_vectors(
        dim,
        [
            with(&[(0, f32::NAN)]),
            with(&[(5, f32::INFINITY)]),
            with(&[(5, f32::NEG_INFINITY)]),
            // +inf in the first sub-space, NaN in the last: every partial
            // sum is +inf, every final sum NaN.
            with(&[(0, f32::INFINITY), (dim - 1, f32::NAN)]),
            with(&[(3, f32::INFINITY), (70, f32::NEG_INFINITY)]),
            vec![f32::NAN; dim],
            vec![f32::INFINITY; dim],
        ],
    );
    check_source(&fx.heap, &queries, "heap");
    check_source(&fx.mapped, &queries, "mapped");
    // The fused stage alone, over every cell.
    let mut scratch = ScanScratch::new();
    for query in queries.iter() {
        let cells: Vec<usize> = (0..LENS.len()).collect();
        let lut = fx.heap.pq().build_distance_table(query);
        let want = bits(&stage_scan_and_select_with(
            &fx.heap,
            &cells,
            &lut,
            10,
            ScanKernel::Scalar,
            &mut scratch,
        ));
        for kernel in ALL_KERNELS {
            let got = stage_scan_and_select_with(&fx.heap, &cells, &lut, 10, kernel, &mut scratch);
            assert_eq!(bits(&got), want, "{kernel}");
        }
    }
}
