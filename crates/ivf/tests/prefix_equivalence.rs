//! The query prefix (`QueryPrefix`: OPQ → IVFDist → SelCells → BuildLUT) is
//! one function shared by every search path. These tests pin what sharing it
//! must not change:
//!
//! * it computes exactly what the public single-stage functions compute,
//!   with and without an OPQ rotation;
//! * its portable and AVX2 tiers give identical results end to end (ids and
//!   f32 distance bits);
//! * `SegmentedIndex`, which now runs it once per query on the template
//!   instead of once per sealed segment, returns exactly what the
//!   per-segment computation returned — heap and mmap segments alike;
//! * the steady state allocates nothing in the scratch.

use std::sync::Arc;

use fanns_dataset::synth::SyntheticSpec;
use fanns_dataset::types::{QuerySet, VectorDataset};
use fanns_ivf::search::{
    search_with_kernel, stage_build_lut, stage_ivf_dist, stage_opq, stage_sel_cells, QueryPrefix,
    SearchResult, TopK,
};
use fanns_ivf::segmented::{SegmentedConfig, SegmentedIndex};
use fanns_ivf::simd::{ScanKernel, ScanScratch, ALL_KERNELS};
use fanns_ivf::source::IvfSource;
use fanns_ivf::storage::open_index;
use fanns_ivf::{IvfPqIndex, IvfPqTrainConfig};
use fanns_quantize::distance::l2_sq;

const NLIST: usize = 16;

fn config(opq: bool) -> IvfPqTrainConfig {
    IvfPqTrainConfig::new(NLIST)
        .with_m(16)
        .with_ksub(32)
        .with_opq(opq)
        .with_train_sample(600)
        .with_seed(5)
}

fn dataset(seed: u64) -> (VectorDataset, QuerySet) {
    SyntheticSpec::sift_small(seed).generate()
}

fn rows(all: &VectorDataset, range: std::ops::Range<usize>) -> VectorDataset {
    let dim = all.dim();
    VectorDataset::new(
        dim,
        all.as_flat()[range.start * dim..range.end * dim].to_vec(),
    )
}

fn bits(results: &[SearchResult]) -> Vec<(u32, u32)> {
    results
        .iter()
        .map(|r| (r.id, r.distance.to_bits()))
        .collect()
}

#[test]
fn prefix_equals_the_single_stage_functions() {
    for opq in [false, true] {
        let (db, queries) = dataset(61);
        let index = IvfPqIndex::build(&db, &config(opq));
        let mut prefix = QueryPrefix::default();
        for q in 0..8 {
            let query = queries.get(q);
            let rotated = stage_opq(&index, query);
            let dists = stage_ivf_dist(&index, &rotated);
            let cells = stage_sel_cells(&dists, 5);
            let lut = stage_build_lut(&index, &rotated);
            for kernel in ALL_KERNELS {
                let mut stages = Vec::new();
                prefix.compute(&index, query, 5, kernel, |stage| stages.push(stage));
                assert_eq!(stages, fanns_ivf::params::ALL_STAGES[..4]);
                assert_eq!(prefix.cells(), cells);
                let table = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(table(prefix.lut().as_flat()), table(lut.as_flat()));
            }
        }
    }
}

#[test]
fn portable_and_avx2_tiers_agree_end_to_end() {
    let (db, queries) = dataset(62);
    let index = IvfPqIndex::build(&db, &config(false));
    let mut scratch = ScanScratch::new();
    for q in 0..queries.len().min(32) {
        let query = queries.get(q);
        for nprobe in [1, 4, NLIST] {
            let portable = search_with_kernel(
                &index,
                query,
                10,
                nprobe,
                ScanKernel::Portable,
                &mut scratch,
            );
            let avx2 =
                search_with_kernel(&index, query, 10, nprobe, ScanKernel::Avx2, &mut scratch);
            assert_eq!(bits(&portable), bits(&avx2), "query {q} nprobe {nprobe}");
        }
    }
}

#[test]
fn scratch_stops_growing_after_the_first_query() {
    let (db, queries) = dataset(63);
    let index = IvfPqIndex::build(&db, &config(true));
    for kernel in ALL_KERNELS {
        let mut scratch = ScanScratch::new();
        // Full probe: the first query already touches the largest cell.
        search_with_kernel(&index, queries.get(0), 10, NLIST, kernel, &mut scratch);
        let warmed = scratch.capacity_bytes();
        assert!(warmed > 0);
        for i in 1..1_000 {
            let query = queries.get(i % queries.len());
            search_with_kernel(&index, query, 10, NLIST, kernel, &mut scratch);
            assert_eq!(scratch.capacity_bytes(), warmed, "{kernel} query {i}");
        }
    }
}

/// Two sealed segments over one set of trained quantizers, a handful of
/// write-segment vectors, and deletes in both kinds of segment.
struct Fixture {
    template: IvfPqIndex,
    sealed: Vec<IvfPqIndex>,
    written: Vec<(u32, Vec<f32>)>,
    deleted: Vec<u32>,
    queries: QuerySet,
}

fn fixture() -> Fixture {
    let (db, queries) = dataset(64);
    let template = IvfPqIndex::train(&db, &config(true));
    let mut first = template.clone();
    first.add(&rows(&db, 0..600), 0);
    let mut second = template.clone();
    second.add(&rows(&db, 600..1_000), 600);
    let written = (0..6)
        .map(|i| (1_000 + i as u32, queries.get(24 + i).to_vec()))
        .collect();
    Fixture {
        template,
        sealed: vec![first, second],
        written,
        deleted: vec![3, 599, 600, 777, 1_002],
        queries,
    }
}

/// What `SegmentedIndex::search_with_kernel` computed before the prefix was
/// shared: a full `search_with_kernel` (prefix included) per sealed segment,
/// then the exact write-segment scan, merged.
fn per_segment_reference(
    fx: &Fixture,
    sealed: &[Arc<dyn IvfSource>],
    query: &[f32],
    k: usize,
    nprobe: usize,
    kernel: ScanKernel,
) -> Vec<SearchResult> {
    let mut scratch = ScanScratch::new();
    let fetch = k + fx.deleted.len();
    let mut merged = TopK::new(k);
    for seg in sealed {
        for hit in search_with_kernel(seg, query, fetch, nprobe, kernel, &mut scratch) {
            if !fx.deleted.contains(&hit.id) {
                merged.push(hit.distance, hit.id);
            }
        }
    }
    for (id, v) in &fx.written {
        if !fx.deleted.contains(id) {
            merged.push(l2_sq(query, v), *id);
        }
    }
    merged.into_sorted()
}

fn check_segmented(fx: &Fixture, sealed: Vec<Arc<dyn IvfSource>>) {
    let segmented = SegmentedIndex::with_template(
        fx.template.clone(),
        sealed.clone(),
        SegmentedConfig::default(),
    );
    for (id, v) in &fx.written {
        assert_eq!(segmented.insert(v), *id);
    }
    for &id in &fx.deleted {
        assert!(segmented.delete(id));
    }
    assert_eq!(segmented.stats().sealed_segments, 2);
    let mut scratch = ScanScratch::new();
    for q in 0..24 {
        let query = fx.queries.get(q);
        for (k, nprobe) in [(10, 1), (10, 4), (25, NLIST)] {
            for kernel in ALL_KERNELS {
                let got = segmented.search_with_kernel(query, k, nprobe, kernel, &mut scratch);
                let want = per_segment_reference(fx, &sealed, query, k, nprobe, kernel);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "query {q} k {k} nprobe {nprobe} {kernel}"
                );
            }
            let want = per_segment_reference(
                fx,
                &sealed,
                query,
                k,
                nprobe,
                fanns_ivf::simd::default_kernel(),
            );
            assert_eq!(bits(&segmented.search(query, k, nprobe)), bits(&want));
        }
    }
}

#[test]
fn segmented_search_equals_the_per_segment_prefix_on_heap_segments() {
    let fx = fixture();
    let sealed = fx
        .sealed
        .iter()
        .map(|s| Arc::new(s.clone()) as Arc<dyn IvfSource>)
        .collect();
    check_segmented(&fx, sealed);
}

#[test]
fn segmented_search_equals_the_per_segment_prefix_on_mapped_segments() {
    let fx = fixture();
    let dir = std::env::temp_dir().join(format!("fanns-prefix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let sealed = fx
        .sealed
        .iter()
        .enumerate()
        .map(|(i, segment)| {
            let path = dir.join(format!("segment-{i}.fanns"));
            segment.write_index(&path).expect("write segment");
            Arc::new(open_index(&path).expect("open segment")) as Arc<dyn IvfSource>
        })
        .collect();
    check_segmented(&fx, sealed);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
}
