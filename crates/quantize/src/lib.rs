//! Quantization substrate for the FANNS reproduction.
//!
//! The IVF-PQ algorithm the paper accelerates (§2.1) is built from three
//! quantization components, all implemented here from scratch:
//!
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding, used both for the
//!   coarse (IVF) quantizer and for the per-subspace PQ codebooks,
//! * [`pq`] — product quantization: training, encoding into `m`-byte codes,
//!   and construction of the per-query asymmetric-distance lookup tables
//!   (Stage BuildLUT) plus the table-lookup distance evaluation (Stage PQDist,
//!   Equation 1 of the paper),
//! * [`opq`] — optimized product quantization: a learned rotation applied to
//!   the vector space before PQ (Stage OPQ at query time),
//! * [`linalg`] — the small dense-matrix kernel set (multiply, transpose,
//!   orthonormalisation, Jacobi eigendecomposition/SVD) needed to train the
//!   OPQ rotation without pulling in a LAPACK binding,
//! * [`distance`] — the squared-L2 kernels shared by everything (one
//!   reduction order, a portable and an AVX2 form),
//! * [`dispatch`] — the single site that picks the SIMD tier for them and for
//!   `fanns-ivf`'s scan kernels.

#![warn(missing_docs)]

pub mod dispatch;
pub mod distance;
pub mod kmeans;
pub mod linalg;
pub mod opq;
pub mod pq;

pub use dispatch::SimdTier;
pub use kmeans::{KMeans, KMeansConfig};
pub use linalg::Matrix;
pub use opq::OpqTransform;
pub use pq::{DistanceTable, PqConfig, ProductQuantizer};
