//! Minimal dense linear algebra used by OPQ training.
//!
//! OPQ (Ge et al., "Optimized Product Quantization") learns an orthonormal
//! rotation `R` by alternating between PQ encoding and solving an orthogonal
//! Procrustes problem, which requires an SVD of a `d × d` matrix. Pulling in a
//! LAPACK binding would violate the "build every substrate" rule of this
//! reproduction, so this module implements the handful of dense kernels we
//! need: matrix multiply, transpose, Gram-Schmidt orthonormalisation and a
//! one-sided Jacobi SVD. The matrices involved are at most 128 × 128, so the
//! simple O(d³)-per-sweep Jacobi method is more than fast enough.

use serde::{Deserialize, Serialize};

/// A dense row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size does not match shape");
        Self { rows, cols, data }
    }

    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        // ikj loop order keeps the innermost accesses contiguous.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                let out_row = out.row_mut(i);
                for j in 0..other_row.len() {
                    out_row[j] += a * other_row[j];
                }
            }
        }
        out
    }

    /// Applies the matrix to a vector: `y = self * x`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec`] into a caller-owned buffer of `rows` entries.
    pub fn matvec_into(&self, x: &[f32], y: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        assert_eq!(y.len(), self.rows, "output length must equal row count");
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut acc = 0.0f32;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi = acc;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Maximum absolute deviation from the identity of `selfᵀ · self`;
    /// zero (up to floating point) iff the matrix has orthonormal columns.
    pub fn orthogonality_error(&self) -> f32 {
        let gram = self.transpose().matmul(self);
        let mut max_err = 0.0f32;
        for i in 0..gram.rows {
            for j in 0..gram.cols {
                let target = if i == j { 1.0 } else { 0.0 };
                max_err = max_err.max((gram[(i, j)] - target).abs());
            }
        }
        max_err
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

/// Result of a singular value decomposition `A = U · diag(S) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors (columns).
    pub u: Matrix,
    /// Singular values, non-increasing.
    pub s: Vec<f32>,
    /// Right singular vectors (columns), i.e. `V` not `Vᵀ`.
    pub v: Matrix,
}

/// One-sided Jacobi SVD of a square matrix.
///
/// Rotates pairs of columns of a working copy of `A` until they are mutually
/// orthogonal; the column norms are then the singular values, the normalised
/// columns are `U`, and the accumulated rotations give `V`.
pub fn jacobi_svd(a: &Matrix, max_sweeps: usize, tol: f32) -> Svd {
    assert_eq!(a.rows(), a.cols(), "jacobi_svd expects a square matrix");
    let n = a.rows();
    let mut u = a.clone();
    let mut v = Matrix::identity(n);

    for _ in 0..max_sweeps {
        let mut off_diag = 0.0f32;
        for p in 0..n {
            for q in (p + 1)..n {
                // Column inner products.
                let mut alpha = 0.0f32;
                let mut beta = 0.0f32;
                let mut gamma = 0.0f32;
                for i in 0..n {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    alpha += up * up;
                    beta += uq * uq;
                    gamma += up * uq;
                }
                off_diag = off_diag.max(gamma.abs() / (alpha.sqrt() * beta.sqrt() + 1e-30));
                if gamma.abs() < 1e-30 {
                    continue;
                }
                // Jacobi rotation that zeroes the (p, q) column correlation.
                let zeta = (beta - alpha) / (2.0 * gamma);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..n {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off_diag < tol {
            break;
        }
    }

    // Column norms are the singular values; normalise U's columns.
    let mut s: Vec<f32> = (0..n)
        .map(|j| (0..n).map(|i| u[(i, j)] * u[(i, j)]).sum::<f32>().sqrt())
        .collect();
    for j in 0..n {
        if s[j] > 1e-30 {
            for i in 0..n {
                u[(i, j)] /= s[j];
            }
        } else {
            // Degenerate column: replace by a unit basis vector to keep U orthonormal-ish.
            for i in 0..n {
                u[(i, j)] = if i == j { 1.0 } else { 0.0 };
            }
        }
    }

    // Sort singular values (and the corresponding columns) in decreasing order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a_i, &b_i| s[b_i].partial_cmp(&s[a_i]).unwrap());
    let mut u_sorted = Matrix::zeros(n, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut s_sorted = vec![0.0f32; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        s_sorted[new_j] = s[old_j];
        for i in 0..n {
            u_sorted[(i, new_j)] = u[(i, old_j)];
            v_sorted[(i, new_j)] = v[(i, old_j)];
        }
    }
    s = s_sorted;

    Svd {
        u: u_sorted,
        s,
        v: v_sorted,
    }
}

/// Computes the orthonormal matrix closest (in Frobenius norm) to `A`, i.e.
/// the solution `R = U · Vᵀ` of the orthogonal Procrustes problem. This is the
/// inner step of OPQ training.
pub fn nearest_orthonormal(a: &Matrix) -> Matrix {
    let svd = jacobi_svd(a, 60, 1e-7);
    svd.u.matmul(&svd.v.transpose())
}

/// Modified Gram-Schmidt orthonormalisation of the rows of `A` (in place on a
/// copy). Used to turn a random matrix into a random rotation when
/// initialising OPQ.
pub fn orthonormalize_rows(a: &Matrix) -> Matrix {
    let mut m = a.clone();
    let cols = m.cols();
    for i in 0..m.rows() {
        for j in 0..i {
            let mut proj = 0.0f32;
            for c in 0..cols {
                proj += m[(i, c)] * m[(j, c)];
            }
            for c in 0..cols {
                let adj = proj * m[(j, c)];
                m[(i, c)] -= adj;
            }
        }
        let norm: f32 = (0..cols).map(|c| m[(i, c)] * m[(i, c)]).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for c in 0..cols {
                m[(i, c)] /= norm;
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_indexing() {
        let m = Matrix::identity(3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 0.0);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = a.matvec(&[5.0, 6.0]);
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn identity_is_orthonormal() {
        assert!(Matrix::identity(5).orthogonality_error() < 1e-6);
    }

    #[test]
    fn jacobi_svd_reconstructs_the_matrix() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0]);
        let svd = jacobi_svd(&a, 60, 1e-7);
        // Reconstruct A = U diag(S) V^T.
        let mut us = svd.u.clone();
        for j in 0..3 {
            for i in 0..3 {
                us[(i, j)] *= svd.s[j];
            }
        }
        let recon = us.matmul(&svd.v.transpose());
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (recon[(i, j)] - a[(i, j)]).abs() < 1e-3,
                    "reconstruction mismatch"
                );
            }
        }
        // Singular values sorted decreasing and positive.
        assert!(svd.s.windows(2).all(|w| w[0] >= w[1]));
        assert!(svd.s.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn nearest_orthonormal_of_rotation_is_itself() {
        // A 2-d rotation by 30 degrees embedded in 3x3.
        let (c, s) = (0.866_025_4f32, 0.5f32);
        let r = Matrix::from_vec(3, 3, vec![c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0]);
        let near = nearest_orthonormal(&r);
        for i in 0..3 {
            for j in 0..3 {
                assert!((near[(i, j)] - r[(i, j)]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn nearest_orthonormal_produces_orthonormal_output() {
        let a = Matrix::from_vec(4, 4, (0..16).map(|i| (i as f32) * 0.3 + 1.0).collect());
        let r = nearest_orthonormal(&a);
        assert!(
            r.orthogonality_error() < 1e-3,
            "error {}",
            r.orthogonality_error()
        );
    }

    #[test]
    fn gram_schmidt_orthonormalises_rows() {
        let a = Matrix::from_vec(3, 3, vec![1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0]);
        let q = orthonormalize_rows(&a);
        // Rows should be unit length and mutually orthogonal => Q Q^T = I.
        let qqt = q.matmul(&q.transpose());
        for i in 0..3 {
            for j in 0..3 {
                let target = if i == j { 1.0 } else { 0.0 };
                assert!((qqt[(i, j)] - target).abs() < 1e-4);
            }
        }
    }
}
