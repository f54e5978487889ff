//! Integration tests for the SIMD ADC scan data plane: the f32 slab kernels
//! must be *bit-identical* to the scalar reference end-to-end (same top-k,
//! same distances, same ordering), and the serving backend must return the
//! same answers whichever kernel it is pinned to.

use fanns_dataset::synth::SyntheticSpec;
use fanns_ivf::baseline_cpu::CpuSearcher;
use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
use fanns_ivf::params::IvfPqParams;
use fanns_ivf::search::{search, search_with_kernel};
use fanns_ivf::simd::{ScanKernel, ScanScratch, ALL_KERNELS};
use fanns_serve::{CpuBackend, SearchBackend};

fn build(
    seed: u64,
) -> (
    fanns_dataset::types::VectorDataset,
    fanns_dataset::types::QuerySet,
    IvfPqIndex,
) {
    let (db, queries) = SyntheticSpec::sift_small(seed).generate();
    let index = IvfPqIndex::build(
        &db,
        &IvfPqTrainConfig::new(32)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(2_000)
            .with_seed(5),
    );
    (db, queries, index)
}

#[test]
fn f32_kernels_return_bit_identical_topk() {
    let (_, queries, index) = build(301);
    let mut scratch = ScanScratch::new();
    for q in 0..queries.len() {
        let query = queries.get(q);
        let expected = search(&index, query, 10, 8);
        for kernel in [ScanKernel::Portable, ScanKernel::Avx2] {
            let got = search_with_kernel(&index, query, 10, 8, kernel, &mut scratch);
            assert_eq!(got.len(), expected.len(), "query {q} kernel {kernel}");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.id, e.id, "query {q} kernel {kernel}");
                assert_eq!(
                    g.distance.to_bits(),
                    e.distance.to_bits(),
                    "query {q} kernel {kernel}"
                );
            }
        }
    }
}

#[test]
fn cpu_searcher_kernel_pins_agree_with_default() {
    let (_, queries, index) = build(303);
    let params = IvfPqParams::new(32, 8, 10).with_m(16);
    let default = CpuSearcher::new(&index, params);
    let expected = default.search_batch(&queries);
    for kernel in ALL_KERNELS {
        let pinned = CpuSearcher::new(&index, params).with_kernel(kernel);
        assert_eq!(
            pinned.search_batch(&queries),
            expected,
            "kernel {kernel} diverged from the default path"
        );
    }
}

#[test]
fn mmap_reopened_index_is_bit_identical_on_every_kernel() {
    // The full kernel-equivalence contract must survive a round trip through
    // the on-disk format: write → mmap-open → search, compared kernel by
    // kernel against the heap-built original.
    let (_, queries, index) = build(305);
    let dir = std::env::temp_dir().join(format!("fanns-simd-scan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("kernels.fanns");
    index.write_index(&path).expect("write index");
    let mapped = fanns_ivf::storage::open_index(&path).expect("open index");
    let params = IvfPqParams::new(32, 8, 10).with_m(16);
    for kernel in ALL_KERNELS {
        if !kernel.is_available() {
            continue;
        }
        let heap = CpuSearcher::new(&index, params).with_kernel(kernel);
        let disk = CpuSearcher::new(&mapped, params).with_kernel(kernel);
        for q in 0..queries.len() {
            let query = queries.get(q);
            let expected = heap.search_one(query);
            let got = disk.search_one(query);
            assert_eq!(got.len(), expected.len(), "query {q} kernel {kernel}");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.id, e.id, "query {q} kernel {kernel}");
                assert_eq!(
                    g.distance.to_bits(),
                    e.distance.to_bits(),
                    "query {q} kernel {kernel}"
                );
            }
        }
    }
    drop(mapped);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cpu_backend_serves_identically_on_every_kernel() {
    let (_, queries, index) = build(304);
    let params = IvfPqParams::new(32, 8, 10).with_m(16);
    let qs: Vec<&[f32]> = (0..16).map(|i| queries.get(i)).collect();
    let baseline = CpuBackend::new(index.clone(), params)
        .with_kernel(ScanKernel::Scalar)
        .search_batch(&qs);
    for kernel in ALL_KERNELS {
        if !kernel.is_available() {
            continue;
        }
        let backend = CpuBackend::new(index.clone(), params).with_kernel(kernel);
        assert!(backend.name().contains(kernel.name()));
        assert_eq!(
            backend.search_batch(&qs),
            baseline,
            "kernel {kernel}: every kernel must be bit-identical"
        );
    }
}
