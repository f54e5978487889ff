//! Lloyd's k-means with k-means++ seeding.
//!
//! k-means is used twice by IVF-PQ: once to train the coarse quantizer (the
//! `nlist` Voronoi cell centroids of the IVF index, §2.1.1) and once per PQ
//! sub-space to train the 256-entry codebooks (§2.1.2). Assignment — the
//! dominant cost — is parallelised over input vectors with rayon.
//!
//! Up to `BLOCK_KERNEL_MAX_DIM` (64) dimensions (every PQ sub-space) both
//! distance-heavy loops run on the block kernel of [`crate::distance`]:
//! assignment against the centroids re-laid as [`RowBlocks`] each iteration,
//! and each k-means++ pass as one sweep over the points re-laid once. Wider
//! spaces (the coarse quantizer) use the row kernel. Both kernels return the
//! same bits, so the trained model does not depend on which one ran; nor on
//! the tier. The empty-cluster fix-up ranks the points only in an iteration
//! that left a cluster empty.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::distance::{argmin_l2, RowBlocks, SimdTier};

/// Widest dimension at which training runs on the block kernel. Measured
/// on a 2-vCPU AVX2 host (20 000 points, 256 centroids): the block argmin
/// is 2–3.5× the row kernel at dims 8–32 and 1.05–1.75× at 64, but no
/// faster at 80–128.
const BLOCK_KERNEL_MAX_DIM: usize = 64;

/// Configuration for a k-means run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters to learn.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop early when the relative improvement of the mean squared error
    /// drops below this threshold.
    pub tol: f64,
    /// RNG seed for the k-means++ initialisation.
    pub seed: u64,
    /// Use k-means++ seeding (true) or uniform random seeding (false).
    pub plus_plus_init: bool,
}

impl KMeansConfig {
    /// A sensible default configuration for `k` clusters.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            max_iters: 20,
            tol: 1e-4,
            seed: 0x5EED,
            plus_plus_init: true,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style iteration-limit override.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

/// A trained k-means model: `k` centroids of dimensionality `dim`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeans {
    dim: usize,
    centroids: Vec<f32>,
    /// Mean squared distance of the training points to their centroid after
    /// the final iteration (the quantization error).
    pub mse: f64,
    /// Number of Lloyd iterations actually executed.
    pub iterations: usize,
}

impl KMeans {
    /// Trains k-means on `data` (flat row-major, `dim`-dimensional).
    ///
    /// If there are fewer points than clusters the surplus centroids are
    /// duplicates of sampled points; callers (e.g. tiny unit tests) still get
    /// a well-formed model.
    ///
    /// # Panics
    /// Panics if `data` is empty, `dim == 0`, or `config.k == 0`.
    pub fn train(data: &[f32], dim: usize, config: &KMeansConfig) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(!data.is_empty(), "cannot train k-means on an empty dataset");
        assert!(
            data.len().is_multiple_of(dim),
            "data length must be a multiple of dim"
        );
        assert!(config.k > 0, "k must be positive");
        let n = data.len() / dim;
        let k = config.k;

        let tier = SimdTier::process_default();
        let blocked = dim <= BLOCK_KERNEL_MAX_DIM;
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut centroids = if config.plus_plus_init {
            kmeanspp_init(data, dim, n, k, &mut rng, tier, blocked)
        } else {
            random_init(data, dim, n, k, &mut rng)
        };

        let mut prev_mse = f64::INFINITY;
        let mut mse = f64::INFINITY;
        let mut iterations = 0usize;

        for iter in 0..config.max_iters {
            iterations = iter + 1;
            // Assignment step (parallel over points).
            let blocks = blocked.then(|| RowBlocks::new(&centroids, dim));
            let assignments: Vec<(usize, f32)> = (0..n)
                .into_par_iter()
                .map(|i| {
                    let v = &data[i * dim..(i + 1) * dim];
                    match &blocks {
                        Some(blocks) => tier.argmin_l2_blocks(v, blocks),
                        None => tier.argmin_l2(v, &centroids, dim),
                    }
                })
                .collect();

            mse = assignments.iter().map(|(_, d)| *d as f64).sum::<f64>() / n as f64;

            // Update step: accumulate sums per centroid.
            let mut sums = vec![0.0f64; k * dim];
            let mut counts = vec![0usize; k];
            for (i, (c, _)) in assignments.iter().enumerate() {
                counts[*c] += 1;
                let v = &data[i * dim..(i + 1) * dim];
                let s = &mut sums[c * dim..(c + 1) * dim];
                for d in 0..dim {
                    s[d] += v[d] as f64;
                }
            }

            // Handle empty clusters by re-seeding them at the point farthest
            // from its centroid (standard Faiss-style fix-up). The points are
            // ranked only when some cluster is empty.
            let mut steal_iter = counts.contains(&0).then(|| {
                let mut farthest: Vec<usize> = (0..n).collect();
                farthest.sort_by(|&a, &b| {
                    assignments[b]
                        .1
                        .partial_cmp(&assignments[a].1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                farthest.into_iter()
            });

            for c in 0..k {
                if counts[c] == 0 {
                    if let Some(p) = steal_iter.as_mut().and_then(Iterator::next) {
                        centroids[c * dim..(c + 1) * dim]
                            .copy_from_slice(&data[p * dim..(p + 1) * dim]);
                    }
                } else {
                    for d in 0..dim {
                        centroids[c * dim + d] = (sums[c * dim + d] / counts[c] as f64) as f32;
                    }
                }
            }

            if prev_mse.is_finite() && (prev_mse - mse).abs() / prev_mse.max(1e-30) < config.tol {
                break;
            }
            prev_mse = mse;
        }

        Self {
            dim,
            centroids,
            mse,
            iterations,
        }
    }

    /// Rebuilds a model from a flat row-major centroid buffer (the inverse
    /// of [`KMeans::centroids`]) — used by the on-disk index loader, which
    /// persists only the centroids. Training statistics (`mse`,
    /// `iterations`) are not stored in the index format and reset to zero;
    /// no query-time computation reads them.
    ///
    /// # Panics
    /// Panics if `dim == 0`, the buffer is empty, or its length is not a
    /// multiple of `dim`.
    pub fn from_centroids(dim: usize, centroids: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(!centroids.is_empty(), "centroid buffer must not be empty");
        assert!(
            centroids.len().is_multiple_of(dim),
            "centroid buffer length {} is not a multiple of dim {dim}",
            centroids.len()
        );
        Self {
            dim,
            centroids,
            mse: 0.0,
            iterations: 0,
        }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Centroid dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Flat row-major centroid buffer.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Borrow centroid `i`.
    pub fn centroid(&self, i: usize) -> &[f32] {
        &self.centroids[i * self.dim..(i + 1) * self.dim]
    }

    /// Assigns a vector to its nearest centroid, returning (index, distance).
    pub fn assign(&self, v: &[f32]) -> (usize, f32) {
        argmin_l2(v, &self.centroids, self.dim)
    }

    /// Assigns every vector of a flat buffer in parallel.
    pub fn assign_all(&self, data: &[f32]) -> Vec<usize> {
        assert!(data.len().is_multiple_of(self.dim));
        let n = data.len() / self.dim;
        (0..n)
            .into_par_iter()
            .map(|i| self.assign(&data[i * self.dim..(i + 1) * self.dim]).0)
            .collect()
    }
}

/// k-means++ seeding: pick each next centroid with probability proportional to
/// its squared distance to the closest already-chosen centroid.
///
/// Each pass measures every point against the new centroid in one sweep:
/// the block kernel with lanes over points when `blocked`, else the row
/// kernel. Both equal `l2_sq(point, centroid)` bit for bit.
fn kmeanspp_init(
    data: &[f32],
    dim: usize,
    n: usize,
    k: usize,
    rng: &mut ChaCha8Rng,
    tier: SimdTier,
    blocked: bool,
) -> Vec<f32> {
    let points = blocked.then(|| RowBlocks::new(data, dim));
    let sweep = |centroid: &[f32], out: &mut Vec<f32>| match &points {
        Some(points) => tier.l2_blocks(centroid, points, out),
        None => tier.all_l2(centroid, data, dim, out),
    };

    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);

    let mut dists = vec![0.0f32; n];
    sweep(&centroids[0..dim], &mut dists);
    let mut fresh = vec![0.0f32; n];

    while centroids.len() < k * dim {
        let total: f64 = dists.iter().map(|&d| d as f64).sum();
        let chosen = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        let new_c = &data[chosen * dim..(chosen + 1) * dim];
        centroids.extend_from_slice(new_c);
        // Update the distance-to-nearest-centroid cache.
        // A select, not a conditional store, so the loop vectorises; a NaN
        // on either side keeps the cached value, as `f < d` is false.
        sweep(new_c, &mut fresh);
        for (d, &f) in dists.iter_mut().zip(&fresh) {
            *d = if f < *d { f } else { *d };
        }
    }
    centroids
}

/// Uniform random seeding (used when `plus_plus_init` is disabled).
fn random_init(data: &[f32], dim: usize, n: usize, k: usize, rng: &mut ChaCha8Rng) -> Vec<f32> {
    let mut centroids = Vec::with_capacity(k * dim);
    for _ in 0..k {
        let i = rng.gen_range(0..n);
        centroids.extend_from_slice(&data[i * dim..(i + 1) * dim]);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-d blobs.
    fn blobs() -> Vec<f32> {
        let mut data = Vec::new();
        let centers = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for &(cx, cy) in &centers {
            for _ in 0..50 {
                data.push(cx + rng.gen_range(-0.5..0.5));
                data.push(cy + rng.gen_range(-0.5..0.5));
            }
        }
        data
    }

    #[test]
    fn kmeans_recovers_well_separated_blobs() {
        let data = blobs();
        let model = KMeans::train(&data, 2, &KMeansConfig::new(3).with_seed(1));
        assert_eq!(model.k(), 3);
        assert!(
            model.mse < 1.0,
            "mse {} too high for separated blobs",
            model.mse
        );
        // Every blob centre should be close to some centroid.
        for &(cx, cy) in &[(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)] {
            let (_, d) = model.assign(&[cx, cy]);
            assert!(d < 1.0, "centroid far from blob centre: {d}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let data = blobs();
        let a = KMeans::train(&data, 2, &KMeansConfig::new(4).with_seed(9));
        let b = KMeans::train(&data, 2, &KMeansConfig::new(4).with_seed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn assign_all_matches_assign() {
        let data = blobs();
        let model = KMeans::train(&data, 2, &KMeansConfig::new(3));
        let all = model.assign_all(&data);
        for i in 0..all.len() {
            assert_eq!(all[i], model.assign(&data[i * 2..i * 2 + 2]).0);
        }
    }

    #[test]
    fn more_clusters_than_points_is_handled() {
        let data = vec![0.0f32, 0.0, 1.0, 1.0]; // two 2-d points
        let model = KMeans::train(&data, 2, &KMeansConfig::new(5));
        assert_eq!(model.k(), 5);
        // Every point should be at distance 0 from some centroid.
        assert!(model.assign(&[0.0, 0.0]).1 < 1e-9);
        assert!(model.assign(&[1.0, 1.0]).1 < 1e-9);
    }

    #[test]
    fn empty_clusters_are_reseeded() {
        // Many identical points plus one outlier: without the fix-up most
        // centroids would collapse onto the duplicate point.
        let mut data = vec![0.0f32; 2 * 40];
        data.extend_from_slice(&[100.0, 100.0]);
        let model = KMeans::train(&data, 2, &KMeansConfig::new(4).with_seed(2));
        // The outlier must be representable with tiny error.
        assert!(model.assign(&[100.0, 100.0]).1 < 1e-6);
    }

    #[test]
    fn random_init_also_converges() {
        let data = blobs();
        let cfg = KMeansConfig {
            plus_plus_init: false,
            ..KMeansConfig::new(3)
        };
        let model = KMeans::train(&data, 2, &cfg);
        assert!(model.mse < 5.0);
    }

    #[test]
    fn mse_decreases_with_more_clusters() {
        let data = blobs();
        let few = KMeans::train(&data, 2, &KMeansConfig::new(2).with_seed(5));
        let many = KMeans::train(&data, 2, &KMeansConfig::new(8).with_seed(5));
        assert!(many.mse <= few.mse);
    }
}
