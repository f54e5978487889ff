//! Golden training digests: index training must not change one output bit.
//!
//! Each case trains and fills a small index and checks the CRC-32 of its
//! `write_index` bytes (centroids, OPQ rotation, codebooks, inverted lists
//! and codes) against a constant recorded before the k-means kernels were
//! vectorised. A speed-up of k-means, k-means++ seeding or the distance
//! kernels that moves any centroid by one ulp moves the digest.
//!
//! The shapes cover both forms of the assignment kernel and their tails:
//! PQ sub-spaces of 8 and 16 dimensions, a sub-space width that is not a
//! multiple of 8, a codebook size that is not a multiple of 8, OPQ (which
//! trains its PQ through the same k-means), and a dataset of duplicate
//! points that leaves clusters empty, so the re-seeding fix-up runs. Run
//! under `FANNS_SCAN_KERNEL=portable` the same constants pin the portable
//! tier.

use fanns_dataset::synth::{DatasetKind, SyntheticSpec};
use fanns_dataset::types::VectorDataset;
use fanns_ivf::storage::{crc32, encode_index};
use fanns_ivf::{IvfPqIndex, IvfPqTrainConfig};

fn clustered(dim: usize, n: usize, seed: u64) -> VectorDataset {
    SyntheticSpec {
        kind: DatasetKind::Custom(dim),
        num_vectors: n,
        num_queries: 1,
        n_concepts: 24,
        skew: 0.8,
        noise: 0.25,
        seed,
    }
    .generate()
    .0
}

/// `distinct` points, each repeated `copies` times: fewer distinct points
/// than clusters, so k-means++ seeds duplicate centroids and Lloyd's
/// assignment leaves some of them empty.
fn duplicates(dim: usize, distinct: usize, copies: usize) -> VectorDataset {
    let base = clustered(dim, distinct, 11);
    let mut data = Vec::with_capacity(dim * distinct * copies);
    for _ in 0..copies {
        data.extend_from_slice(base.as_flat());
    }
    VectorDataset::new(dim, data)
}

fn digest(dataset: &VectorDataset, config: &IvfPqTrainConfig) -> u32 {
    crc32(&encode_index(&IvfPqIndex::build(dataset, config)))
}

fn config(nlist: usize, m: usize, ksub: usize, seed: u64) -> IvfPqTrainConfig {
    IvfPqTrainConfig::new(nlist)
        .with_m(m)
        .with_ksub(ksub)
        .with_train_sample(1_200)
        .with_seed(seed)
}

#[test]
fn m16_dsub8_digest_is_unchanged() {
    let data = clustered(128, 1_500, 1);
    assert_eq!(digest(&data, &config(32, 16, 256, 1)), 0xC82F_DB44);
}

#[test]
fn m8_dsub16_digest_is_unchanged() {
    let data = clustered(128, 1_500, 2);
    assert_eq!(digest(&data, &config(32, 8, 256, 2)), 0x137D_E650);
}

#[test]
fn dsub_with_a_tail_digest_is_unchanged() {
    // dim 60 = 6 × 10: every sub-space and the coarse space have a tail.
    let data = clustered(60, 1_500, 3);
    assert_eq!(digest(&data, &config(20, 6, 64, 3)), 0xE932_7510);
}

#[test]
fn ksub_20_digest_is_unchanged() {
    // 20 centroids: two blocks of 8 and a tail of 4.
    let data = clustered(64, 1_500, 4);
    assert_eq!(digest(&data, &config(12, 8, 20, 4)), 0xEAE6_C115);
}

#[test]
fn opq_digest_is_unchanged() {
    let data = clustered(32, 1_000, 5);
    assert_eq!(
        digest(&data, &config(8, 4, 32, 5).with_opq(true)),
        0xE3AF_7ACF
    );
}

#[test]
fn empty_cluster_fixup_digest_is_unchanged() {
    let data = duplicates(16, 40, 25);
    assert_eq!(digest(&data, &config(48, 2, 64, 6)), 0xE842_1886);
}
