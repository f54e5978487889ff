//! Optimized Product Quantization (OPQ).
//!
//! OPQ (Ge et al. 2013, cited as \[22\] in the paper) learns an orthonormal
//! rotation `R` of the vector space before product quantization so that the
//! PQ sub-spaces become independent and balanced, improving quantization
//! quality at the cost of one query-time vector–matrix multiplication — the
//! paper's Stage OPQ.
//!
//! Training alternates two steps (the standard OPQ-NP procedure):
//! 1. with `R` fixed, train/encode a PQ on the rotated data,
//! 2. with the PQ fixed, solve the orthogonal Procrustes problem
//!    `min_R ‖R·X − X̂‖_F` where `X̂` are the PQ reconstructions, via SVD.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::linalg::{nearest_orthonormal, orthonormalize_rows, Matrix};
use crate::pq::{PqConfig, ProductQuantizer};

/// A learned orthonormal rotation applied before PQ.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpqTransform {
    dim: usize,
    rotation: Matrix,
}

impl OpqTransform {
    /// The identity transform (equivalent to plain PQ).
    pub fn identity(dim: usize) -> Self {
        Self {
            dim,
            rotation: Matrix::identity(dim),
        }
    }

    /// Wraps an explicit rotation matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square with size `dim` or is far from
    /// orthonormal.
    pub fn from_rotation(dim: usize, rotation: Matrix) -> Self {
        assert_eq!(rotation.rows(), dim);
        assert_eq!(rotation.cols(), dim);
        assert!(
            rotation.orthogonality_error() < 1e-2,
            "rotation matrix is not orthonormal (error {})",
            rotation.orthogonality_error()
        );
        Self { dim, rotation }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The rotation matrix.
    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    /// Applies the rotation to a single vector (the Stage OPQ operation).
    pub fn apply(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim, "vector dimensionality mismatch");
        self.rotation.matvec(v)
    }

    /// [`OpqTransform::apply`] into a caller-owned buffer (resized to `dim`;
    /// reusing it across queries makes Stage OPQ allocation-free).
    pub fn apply_into(&self, v: &[f32], out: &mut Vec<f32>) {
        assert_eq!(v.len(), self.dim, "vector dimensionality mismatch");
        out.resize(self.dim, 0.0);
        self.rotation.matvec_into(v, out);
    }

    /// Applies the rotation to every vector of a flat buffer, returning a new
    /// flat buffer.
    pub fn apply_all(&self, data: &[f32]) -> Vec<f32> {
        assert!(data.len().is_multiple_of(self.dim));
        let mut out = Vec::with_capacity(data.len());
        for v in data.chunks_exact(self.dim) {
            out.extend_from_slice(&self.apply(v));
        }
        out
    }

    /// Number of multiply–accumulate operations performed per query — used by
    /// the performance model for the Stage OPQ PE.
    pub fn macs_per_query(&self) -> usize {
        self.dim * self.dim
    }
}

/// Result of OPQ training: the rotation plus the PQ trained on rotated data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedOpq {
    /// The learned rotation.
    pub transform: OpqTransform,
    /// The product quantizer trained on the rotated training set.
    pub pq: ProductQuantizer,
    /// Reconstruction error (in the rotated space) per outer iteration,
    /// useful for verifying that training monotonically improves.
    pub error_history: Vec<f64>,
}

/// Configuration for OPQ training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpqConfig {
    /// Underlying PQ configuration.
    pub pq: PqConfig,
    /// Number of outer alternating-optimisation iterations.
    pub outer_iters: usize,
    /// Start from a random rotation (true) or from the identity (false).
    pub random_init: bool,
    /// RNG seed for the random initial rotation.
    pub seed: u64,
}

impl OpqConfig {
    /// Default OPQ training configuration for `m`-byte codes.
    pub fn new(m: usize) -> Self {
        Self {
            pq: PqConfig::new(m),
            outer_iters: 4,
            random_init: false,
            seed: 0x09C4,
        }
    }
}

/// Trains OPQ on `training` data (flat row-major, `dim`-dimensional).
pub fn train_opq(training: &[f32], dim: usize, config: &OpqConfig) -> TrainedOpq {
    assert!(!training.is_empty(), "training set must not be empty");
    assert!(training.len().is_multiple_of(dim));
    let n = training.len() / dim;

    let mut rotation = if config.random_init {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let random = Matrix::from_vec(
            dim,
            dim,
            (0..dim * dim)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        );
        orthonormalize_rows(&random)
    } else {
        Matrix::identity(dim)
    };

    let mut error_history = Vec::with_capacity(config.outer_iters);
    let mut pq = None;

    for it in 0..config.outer_iters.max(1) {
        let transform = OpqTransform {
            dim,
            rotation: rotation.clone(),
        };
        let rotated = transform.apply_all(training);

        // Step 1: train PQ on the rotated data.
        let pq_cfg = PqConfig {
            seed: config.pq.seed.wrapping_add(it as u64),
            ..config.pq
        };
        let trained = ProductQuantizer::train(&rotated, dim, &pq_cfg);
        let err = trained.reconstruction_error(&rotated);
        error_history.push(err);

        // Step 2 (skipped on the last iteration): update R by solving the
        // Procrustes problem min_R ||R X - X_hat||_F, whose solution is the
        // nearest orthonormal matrix to X_hat Xᵀ.
        if it + 1 < config.outer_iters {
            // Accumulate C = X_hat · Xᵀ (dim × dim), where X columns are the
            // original vectors and X_hat columns are reconstructions of the
            // rotated vectors.
            let mut c = Matrix::zeros(dim, dim);
            for i in 0..n {
                let x = &training[i * dim..(i + 1) * dim];
                let rx = &rotated[i * dim..(i + 1) * dim];
                let code = trained.encode(rx);
                let xhat = trained.decode(&code);
                for (r, &xr) in xhat.iter().enumerate() {
                    if xr == 0.0 {
                        continue;
                    }
                    let row = c.row_mut(r);
                    for cidx in 0..dim {
                        row[cidx] += xr * x[cidx];
                    }
                }
            }
            rotation = nearest_orthonormal(&c);
        }

        pq = Some(trained);
    }

    TrainedOpq {
        transform: OpqTransform { dim, rotation },
        pq: pq.expect("at least one outer iteration runs"),
        error_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Data whose dimensions are strongly correlated — the case OPQ helps.
    fn correlated_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let base: f32 = rng.gen_range(-1.0..1.0);
            for d in 0..dim {
                // Each dimension is the shared latent value plus small noise,
                // with wildly different scales across dimensions.
                let scale = 1.0 + 3.0 * (d as f32 / dim as f32);
                out.push(scale * base + 0.05 * rng.gen_range(-1.0f32..1.0));
            }
        }
        out
    }

    #[test]
    fn identity_transform_is_a_noop() {
        let t = OpqTransform::identity(4);
        let v = vec![1.0f32, -2.0, 3.0, 0.5];
        assert_eq!(t.apply(&v), v);
        assert_eq!(t.macs_per_query(), 16);
    }

    #[test]
    fn apply_all_processes_every_vector() {
        let t = OpqTransform::identity(2);
        let data = vec![1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(t.apply_all(&data), data);
    }

    #[test]
    fn rotation_preserves_norms() {
        let data = correlated_data(200, 8, 3);
        let cfg = OpqConfig {
            outer_iters: 2,
            random_init: true,
            pq: PqConfig::new(4).with_ksub(16),
            seed: 5,
        };
        let trained = train_opq(&data, 8, &cfg);
        let v = &data[..8];
        let rv = trained.transform.apply(v);
        let n1: f32 = v.iter().map(|x| x * x).sum();
        let n2: f32 = rv.iter().map(|x| x * x).sum();
        assert!(
            (n1 - n2).abs() < 1e-2 * n1.max(1.0),
            "rotation changed the norm"
        );
    }

    #[test]
    fn trained_rotation_is_orthonormal() {
        let data = correlated_data(200, 8, 11);
        let cfg = OpqConfig {
            outer_iters: 3,
            random_init: false,
            pq: PqConfig::new(4).with_ksub(16),
            seed: 2,
        };
        let trained = train_opq(&data, 8, &cfg);
        assert!(trained.transform.rotation().orthogonality_error() < 1e-2);
    }

    #[test]
    fn opq_quality_is_comparable_to_plain_pq() {
        let dim = 8;
        let data = correlated_data(800, dim, 17);
        let pq_cfg = PqConfig::new(4).with_ksub(16).with_seed(1);

        let plain = ProductQuantizer::train(&data, dim, &pq_cfg);
        let plain_err = plain.reconstruction_error(&data);

        // Initialise from the identity so the first outer iteration starts at
        // exactly the plain-PQ objective and the alternation can only refine it.
        let opq_cfg = OpqConfig {
            pq: pq_cfg,
            outer_iters: 4,
            random_init: false,
            seed: 3,
        };
        let trained = train_opq(&data, dim, &opq_cfg);
        let rotated = trained.transform.apply_all(&data);
        let opq_err = trained.pq.reconstruction_error(&rotated);

        // OPQ optimises exactly this objective, but each outer iteration
        // retrains k-means from a fresh seed, so the comparison carries
        // sampling noise; require the two to stay in the same ballpark.
        assert!(
            opq_err <= plain_err * 1.30,
            "OPQ error {opq_err} much worse than PQ error {plain_err}"
        );
        // The first outer iteration starts from the identity rotation, so its
        // recorded error must match plain PQ closely.
        assert!(
            (trained.error_history[0] - plain_err).abs() <= plain_err * 0.15,
            "identity-init OPQ iteration should match plain PQ"
        );
    }

    #[test]
    fn error_history_has_one_entry_per_outer_iteration() {
        let data = correlated_data(150, 4, 9);
        let cfg = OpqConfig {
            pq: PqConfig::new(2).with_ksub(8),
            outer_iters: 3,
            random_init: false,
            seed: 7,
        };
        let trained = train_opq(&data, 4, &cfg);
        assert_eq!(trained.error_history.len(), 3);
        assert!(trained
            .error_history
            .iter()
            .all(|e| e.is_finite() && *e >= 0.0));
    }
}
