//! Exact brute-force nearest-neighbour ground truth.
//!
//! Recall (the paper's quality metric, §2) is always measured against the
//! exact top-K neighbours under L2 distance. This module computes that ground
//! truth with a parallel brute-force scan — the same methodology the public
//! SIFT/Deep benchmarks use to ship their `groundtruth.ivecs` files.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::types::{QuerySet, VectorDataset};

/// Exact nearest-neighbour answers for a query set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroundTruth {
    k: usize,
    /// `neighbors[q]` lists the ids of the `k` nearest database vectors of
    /// query `q`, closest first.
    neighbors: Vec<Vec<usize>>,
    /// `distances[q][j]` is the squared L2 distance to `neighbors[q][j]`.
    distances: Vec<Vec<f32>>,
}

impl GroundTruth {
    /// Number of neighbours stored per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of queries covered.
    pub fn num_queries(&self) -> usize {
        self.neighbors.len()
    }

    /// The ids of the exact top-`k` neighbours of query `q`, closest first.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.neighbors[q]
    }

    /// Squared L2 distances matching [`GroundTruth::neighbors`].
    pub fn distances(&self, q: usize) -> &[f32] {
        &self.distances[q]
    }

    /// Truncates the ground truth to the top `k` neighbours (e.g. reuse a
    /// K=100 ground truth for an R@10 evaluation).
    pub fn truncated(&self, k: usize) -> GroundTruth {
        assert!(
            k <= self.k,
            "cannot extend ground truth from {} to {k}",
            self.k
        );
        GroundTruth {
            k,
            neighbors: self.neighbors.iter().map(|n| n[..k].to_vec()).collect(),
            distances: self.distances.iter().map(|d| d[..k].to_vec()).collect(),
        }
    }
}

/// Squared Euclidean distance between two equal-length slices: the
/// workspace's one distance kernel, so exact search and ground truth round
/// exactly like every other layer.
pub use fanns_quantize::distance::l2_sq;

/// A (distance, id) pair ordered so that a `BinaryHeap` keeps the *largest*
/// distance at the top, turning it into a fixed-size top-K structure.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f32,
    id: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .partial_cmp(&other.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Exact top-`k` neighbours of a single query under squared L2 distance.
///
/// Returns (ids, distances), closest first. Ties are broken by the smaller id
/// so results are fully deterministic.
pub fn exact_topk(database: &VectorDataset, query: &[f32], k: usize) -> (Vec<usize>, Vec<f32>) {
    assert_eq!(database.dim(), query.len(), "query dimensionality mismatch");
    let k = k.min(database.len());
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(k + 1);
    for (id, v) in database.iter().enumerate() {
        let dist = l2_sq(query, v);
        if heap.len() < k {
            heap.push(HeapEntry { dist, id });
        } else if let Some(top) = heap.peek() {
            if dist < top.dist || (dist == top.dist && id < top.id) {
                heap.pop();
                heap.push(HeapEntry { dist, id });
            }
        }
    }
    let mut entries: Vec<HeapEntry> = heap.into_vec();
    entries.sort();
    (
        entries.iter().map(|e| e.id).collect(),
        entries.iter().map(|e| e.dist).collect(),
    )
}

/// Computes the exact ground truth for every query in parallel.
pub fn ground_truth(database: &VectorDataset, queries: &QuerySet, k: usize) -> GroundTruth {
    assert!(
        !database.is_empty(),
        "cannot build ground truth on an empty database"
    );
    let results: Vec<(Vec<usize>, Vec<f32>)> = (0..queries.len())
        .into_par_iter()
        .map(|q| exact_topk(database, queries.get(q), k))
        .collect();
    let (neighbors, distances) = results.into_iter().unzip();
    GroundTruth {
        k: k.min(database.len()),
        neighbors,
        distances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticSpec;

    fn line_dataset() -> VectorDataset {
        // Vectors at x = 0, 1, 2, ..., 9 on a 1-d line.
        VectorDataset::from_vectors(1, (0..10).map(|i| [i as f32]))
    }

    #[test]
    fn l2_sq_matches_hand_computation() {
        assert_eq!(l2_sq(&[1.0, 2.0], &[4.0, 6.0]), 9.0 + 16.0);
        assert_eq!(l2_sq(&[0.0; 4], &[0.0; 4]), 0.0);
    }

    #[test]
    fn exact_topk_returns_sorted_nearest() {
        let db = line_dataset();
        let (ids, dists) = exact_topk(&db, &[3.2], 3);
        assert_eq!(ids, vec![3, 4, 2]);
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn exact_topk_clamps_k_to_database_size() {
        let db = line_dataset();
        let (ids, _) = exact_topk(&db, &[0.0], 100);
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn ground_truth_covers_all_queries() {
        let db = line_dataset();
        let queries = QuerySet::new(VectorDataset::from_vectors(1, [[0.1f32], [8.9]]));
        let gt = ground_truth(&db, &queries, 2);
        assert_eq!(gt.num_queries(), 2);
        assert_eq!(gt.neighbors(0), &[0, 1]);
        assert_eq!(gt.neighbors(1), &[9, 8]);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let db = line_dataset();
        let queries = QuerySet::new(VectorDataset::from_vectors(1, [[5.1f32]]));
        let gt = ground_truth(&db, &queries, 4);
        let gt2 = gt.truncated(2);
        assert_eq!(gt2.k(), 2);
        assert_eq!(gt2.neighbors(0), &gt.neighbors(0)[..2]);
    }

    #[test]
    fn ground_truth_distances_are_nondecreasing() {
        let (db, queries) = SyntheticSpec::sift_small(19).generate();
        let gt = ground_truth(&db, &queries, 10);
        for q in 0..gt.num_queries() {
            let d = gt.distances(q);
            assert!(d.windows(2).all(|w| w[0] <= w[1]), "distances not sorted");
        }
    }

    #[test]
    fn nearest_neighbor_is_self_when_query_in_database() {
        let db = line_dataset();
        let queries = QuerySet::new(VectorDataset::from_vectors(1, [[4.0f32]]));
        let gt = ground_truth(&db, &queries, 1);
        assert_eq!(gt.neighbors(0), &[4]);
        assert_eq!(gt.distances(0), &[0.0]);
    }
}
