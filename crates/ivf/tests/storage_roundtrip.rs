//! Property tests: arbitrary indexes survive a write → `mmap`-open round
//! trip with bit-identical structure and bit-identical search results on
//! every scan kernel.
//!
//! The storage contract is stronger than "same recall": a mapped index must
//! run the *same arithmetic in the same order* as the heap index it was
//! written from, so every `SearchResult` — ids and f32 distances — must
//! compare equal bit for bit. The proptest sweep varies dimensionality,
//! sub-quantizer count, cell count, database size, OPQ on/off and the seed;
//! each case builds a real (tiny) index, persists it, reopens it and drives
//! both forms through identical queries.

use proptest::prelude::*;

use fanns_dataset::synth::{DatasetKind, SyntheticSpec};
use fanns_dataset::types::{QuerySet, VectorDataset};
use fanns_ivf::params::IvfPqParams;
use fanns_ivf::simd::ALL_KERNELS;
use fanns_ivf::source::IvfSource;
use fanns_ivf::storage::open_index;
use fanns_ivf::{CpuSearcher, IvfPqIndex, IvfPqTrainConfig};

fn scratch_path(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fanns-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{tag}-{seed}.fanns"))
}

/// A tiny clustered dataset of arbitrary dimensionality (the presets are
/// fixed at 128-d; `Custom` keeps property cases cheap).
fn tiny_dataset(dim: usize, n: usize, queries: usize, seed: u64) -> (VectorDataset, QuerySet) {
    SyntheticSpec {
        kind: DatasetKind::Custom(dim),
        num_vectors: n,
        num_queries: queries,
        n_concepts: 8,
        skew: 0.8,
        noise: 0.25,
        seed,
    }
    .generate()
}

/// Maps the drawn case onto a valid index shape: `m` ∈ {2, 4, 8} and
/// `dim = m * dim_units`, so `m` always divides `dim`.
fn case_shape(dim_units: usize, m_choice: usize) -> (usize, usize) {
    let m = [2usize, 4, 8][m_choice % 3];
    (m * dim_units, m)
}

fn tiny_config(nlist: usize, m: usize, opq: bool, seed: u64) -> IvfPqTrainConfig {
    IvfPqTrainConfig::new(nlist)
        .with_m(m)
        .with_ksub(8)
        .with_opq(opq)
        .with_train_sample(200)
        .with_seed(seed)
}

proptest! {
    /// Write → open preserves every structural field and every byte of every
    /// inverted list, and `to_owned_index` reproduces the heap form.
    #[test]
    fn structure_round_trips(
        dim_units in 2usize..5,
        m_choice in 0usize..3,
        nlist in 2usize..6,
        n in 50usize..220,
        opq_flag in 0usize..2,
        seed in 1u64..5_000,
    ) {
        let (dim, m) = case_shape(dim_units, m_choice);
        let (db, _) = tiny_dataset(dim, n, 1, seed);
        let index = IvfPqIndex::build(&db, &tiny_config(nlist, m, opq_flag == 1, seed));
        let path = scratch_path("structure", seed);
        index.write_index(&path).expect("write");
        let mapped = open_index(&path).expect("open");

        prop_assert_eq!(IvfSource::dim(&mapped), index.dim());
        prop_assert_eq!(IvfSource::m(&mapped), index.m());
        prop_assert_eq!(IvfSource::ksub(&mapped), index.pq().ksub());
        prop_assert_eq!(IvfSource::nlist(&mapped), index.nlist());
        prop_assert_eq!(IvfSource::ntotal(&mapped), index.ntotal());
        prop_assert_eq!(IvfSource::opq(&mapped).is_some(), index.has_opq());
        prop_assert_eq!(IvfSource::centroids(&mapped), index.coarse().centroids());
        for cell in 0..index.nlist() {
            prop_assert_eq!(mapped.list_ids(cell), &index.list(cell).ids[..]);
            prop_assert_eq!(mapped.list_codes(cell), &index.list(cell).codes[..]);
            prop_assert_eq!(IvfSource::slab(&mapped, cell), index.slab(cell));
        }
        let owned = mapped.to_owned_index();
        prop_assert_eq!(owned.ntotal(), index.ntotal());
        prop_assert_eq!(owned.coarse().centroids(), index.coarse().centroids());
        prop_assert_eq!(owned.pq().codebooks(), index.pq().codebooks());
        prop_assert_eq!(owned.config(), index.config());
        let _ = std::fs::remove_file(&path);
    }

    /// Searching the mapped index returns bit-identical results (ids and
    /// f32 distances) to the heap original on every scan kernel, for every
    /// shape and seed — the core acceptance criterion of the format.
    #[test]
    fn search_results_are_bit_identical(
        dim_units in 2usize..5,
        m_choice in 0usize..3,
        nlist in 2usize..6,
        n in 50usize..220,
        opq_flag in 0usize..2,
        seed in 1u64..5_000,
    ) {
        let (dim, m) = case_shape(dim_units, m_choice);
        let (db, queries) = tiny_dataset(dim, n, 4, seed);
        let index = IvfPqIndex::build(&db, &tiny_config(nlist, m, opq_flag == 1, seed));
        let path = scratch_path("search", seed);
        index.write_index(&path).expect("write");
        let mapped = open_index(&path).expect("open");
        if seed % 2 == 0 {
            mapped.warm(); // exercise both lazy and eager slab rebuilds
            // `warm()` releases the mapped codes from residency; they must
            // read back unchanged.
            for cell in 0..nlist {
                prop_assert_eq!(mapped.list_codes(cell), &index.list(cell).codes[..]);
            }
        }

        let params = IvfPqParams::new(nlist, (nlist / 2).max(1), 5).with_m(m);
        for kernel in ALL_KERNELS {
            if !kernel.is_available() {
                continue;
            }
            let heap = CpuSearcher::new(&index, params).with_kernel(kernel);
            let disk = CpuSearcher::new(&mapped, params).with_kernel(kernel);
            for q in 0..queries.len() {
                let expect = heap.search_one(queries.get(q));
                let got = disk.search_one(queries.get(q));
                prop_assert_eq!(expect.len(), got.len());
                for (e, g) in expect.iter().zip(&got) {
                    prop_assert_eq!(e.id, g.id);
                    prop_assert_eq!(e.distance.to_bits(), g.distance.to_bits());
                }
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
