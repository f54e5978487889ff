//! Product quantization (PQ) and asymmetric distance computation (ADC).
//!
//! PQ (§2.1.2 of the paper) splits a `d`-dimensional vector into `m`
//! sub-vectors and quantizes each sub-vector with its own 256-entry codebook,
//! so a vector is stored as `m` bytes. At query time a *distance lookup table*
//! of shape `m × 256` is built once per query (Stage BuildLUT), and the
//! distance to any database vector is approximated by `m` table lookups plus
//! an add-reduction (Stage PQDist, Equation 1) — the operation the paper's
//! PQDist PEs implement with BRAM-backed tables and an add tree.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use crate::distance::{first_min, l2_columns, l2_sq, SimdTier};
use crate::kmeans::{KMeans, KMeansConfig};

/// Configuration of a product quantizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PqConfig {
    /// Number of sub-quantizers `m` (bytes per code). The paper uses m=16.
    pub m: usize,
    /// Number of centroids per sub-quantizer. The paper (and Faiss default)
    /// uses 256 so a sub-code fits in one byte; tests may use fewer.
    pub ksub: usize,
    /// k-means iterations per sub-quantizer.
    pub train_iters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl PqConfig {
    /// The paper's configuration: `m`-byte codes with 256-entry codebooks.
    pub fn new(m: usize) -> Self {
        Self {
            m,
            ksub: 256,
            train_iters: 15,
            seed: 0xC0DE,
        }
    }

    /// Builder-style override of the per-subspace codebook size.
    pub fn with_ksub(mut self, ksub: usize) -> Self {
        self.ksub = ksub;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A trained product quantizer.
#[derive(Debug, Clone, PartialEq)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    ksub: usize,
    dsub: usize,
    /// Codebooks stored as `m` blocks of `ksub * dsub` floats.
    codebooks: Vec<f32>,
    /// Dimension-major copy of the codebooks, `m` blocks of `dsub * ksub`
    /// floats (`[j][d][c]`): the layout the LUT/encode kernel streams with
    /// its lanes over centroids. Derived from `codebooks` on construction,
    /// never serialized; costs another `dim * ksub * 4` bytes.
    transposed: Vec<f32>,
    /// Mean squared reconstruction error measured on the training set.
    pub train_error: f64,
}

/// The serialized form of a [`ProductQuantizer`]: every field but the
/// derived transposed codebooks.
#[derive(Serialize, Deserialize)]
struct ProductQuantizerRepr {
    dim: usize,
    m: usize,
    ksub: usize,
    dsub: usize,
    codebooks: Vec<f32>,
    train_error: f64,
}

impl Serialize for ProductQuantizer {
    fn to_value(&self) -> serde::Value {
        ProductQuantizerRepr {
            dim: self.dim,
            m: self.m,
            ksub: self.ksub,
            dsub: self.dsub,
            codebooks: self.codebooks.clone(),
            train_error: self.train_error,
        }
        .to_value()
    }
}

impl Deserialize for ProductQuantizer {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let repr = ProductQuantizerRepr::from_value(value)?;
        let shape_ok = repr.m > 0
            && repr.dim.is_multiple_of(repr.m)
            && repr.dsub == repr.dim / repr.m
            && (2..=256).contains(&repr.ksub)
            && repr.dim.checked_mul(repr.ksub) == Some(repr.codebooks.len());
        if !shape_ok {
            return Err(serde::Error::new("inconsistent product quantizer shape"));
        }
        let mut pq = Self::from_codebooks(repr.dim, repr.m, repr.ksub, repr.codebooks);
        pq.train_error = repr.train_error;
        Ok(pq)
    }
}

/// A per-query asymmetric-distance lookup table: `m` rows of `ksub` partial
/// squared distances. Summing one entry per row reproduces Equation 1.
///
/// Every entry is a squared distance, so it is `>= 0` or NaN (a NaN or
/// infinite query component yields NaN or `+inf` entries; never a negative
/// one). The pruning scan kernels rely on this: a code's partial sum over
/// its first rows never exceeds its full sum. [`DistanceTable::from_flat`]
/// asserts it, and [`ProductQuantizer::build_distance_table_into`] holds it
/// by construction (it sums squares).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DistanceTable {
    m: usize,
    ksub: usize,
    /// Row-major `m × ksub` table.
    table: Vec<f32>,
}

impl DistanceTable {
    /// Builds a table directly from a flat row-major `m × ksub` buffer
    /// (tests that construct tables without a quantizer).
    ///
    /// # Panics
    /// Panics if `table.len() != m * ksub` or an entry is negative (see the
    /// type's docs; NaN is allowed).
    pub fn from_flat(m: usize, ksub: usize, table: Vec<f32>) -> Self {
        assert_eq!(table.len(), m * ksub, "table must be m x ksub entries");
        assert!(
            !table.iter().any(|&x| x < 0.0),
            "lookup-table entries are squared distances: none may be negative"
        );
        Self { m, ksub, table }
    }

    /// Number of sub-quantizers (rows).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codebook size (columns).
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Borrow row `i` (the partial distances for sub-space `i`).
    pub fn row(&self, i: usize) -> &[f32] {
        &self.table[i * self.ksub..(i + 1) * self.ksub]
    }

    /// The flat `m × ksub` buffer (used by the hardware simulator to model
    /// the BRAM-resident copy of the table, and by the SIMD scan kernels as
    /// the gather source). Entry `(j, c)` lives at `j * ksub + c`; `row(j)`
    /// is exactly `as_flat()[j*ksub .. (j+1)*ksub]`.
    ///
    /// ```
    /// use fanns_quantize::pq::DistanceTable;
    /// let t = DistanceTable::from_flat(2, 3, vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    /// assert_eq!(t.as_flat().len(), t.m() * t.ksub());
    /// assert_eq!(t.as_flat()[1 * t.ksub() + 2], 12.0);
    /// assert_eq!(t.row(1), &t.as_flat()[t.ksub()..]);
    /// ```
    pub fn as_flat(&self) -> &[f32] {
        &self.table
    }

    /// Asymmetric distance to a PQ code: `sum_i table[i][code[i]]`.
    #[inline]
    pub fn adc(&self, code: &[u8]) -> f32 {
        debug_assert_eq!(code.len(), self.m);
        let mut acc = 0.0f32;
        for (i, &c) in code.iter().enumerate() {
            acc += self.table[i * self.ksub + c as usize];
        }
        acc
    }

    /// Size of the table in bytes (what the accelerator must hold in BRAM per
    /// in-flight query).
    pub fn nbytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<f32>()
    }
}

impl ProductQuantizer {
    /// Trains a product quantizer on `training` (flat row-major, `dim`-dimensional).
    ///
    /// # Panics
    /// Panics if `dim` is not divisible by `config.m`, if `ksub > 256`
    /// (codes must fit in a byte), or if the training set is empty.
    pub fn train(training: &[f32], dim: usize, config: &PqConfig) -> Self {
        assert!(config.m > 0, "m must be positive");
        assert!(
            dim.is_multiple_of(config.m),
            "dimension {dim} is not divisible by m={}",
            config.m
        );
        assert!(
            config.ksub >= 2 && config.ksub <= 256,
            "ksub must be in [2, 256]"
        );
        assert!(!training.is_empty(), "training set must not be empty");
        let dsub = dim / config.m;
        let n = training.len() / dim;

        // Train the m sub-quantizers independently (and in parallel): slice
        // out the sub-vectors for sub-space j and run k-means on them.
        let sub_models: Vec<KMeans> = (0..config.m)
            .into_par_iter()
            .map(|j| {
                let mut sub_data = Vec::with_capacity(n * dsub);
                for i in 0..n {
                    let start = i * dim + j * dsub;
                    sub_data.extend_from_slice(&training[start..start + dsub]);
                }
                let cfg = KMeansConfig {
                    k: config.ksub,
                    max_iters: config.train_iters,
                    tol: 1e-4,
                    seed: config.seed.wrapping_add(j as u64),
                    plus_plus_init: true,
                };
                KMeans::train(&sub_data, dsub, &cfg)
            })
            .collect();

        let mut codebooks = Vec::with_capacity(config.m * config.ksub * dsub);
        let mut train_error = 0.0f64;
        for model in &sub_models {
            codebooks.extend_from_slice(model.centroids());
            train_error += model.mse;
        }

        let mut pq = Self::from_codebooks(dim, config.m, config.ksub, codebooks);
        pq.train_error = train_error;
        pq
    }

    /// Rebuilds a quantizer from its flat codebook buffer (`m` blocks of
    /// `ksub × dsub` floats, the layout [`ProductQuantizer::codebook`]
    /// exposes) — used by the on-disk index loader. The training error is
    /// not stored in the index format and resets to zero; no query-time
    /// computation reads it.
    ///
    /// # Panics
    /// Panics if the shape is invalid (`m == 0`, `dim` not divisible by
    /// `m`, `ksub` outside `[2, 256]`) or the buffer length is not
    /// `dim × ksub` (= `m × ksub × dsub`).
    pub fn from_codebooks(dim: usize, m: usize, ksub: usize, codebooks: Vec<f32>) -> Self {
        assert!(m > 0, "m must be positive");
        assert!(
            dim.is_multiple_of(m),
            "dimension {dim} is not divisible by m={m}"
        );
        assert!((2..=256).contains(&ksub), "ksub must be in [2, 256]");
        assert_eq!(
            codebooks.len(),
            dim * ksub,
            "codebook buffer must hold m * ksub * dsub = dim * ksub floats"
        );
        let dsub = dim / m;
        let mut transposed = vec![0.0f32; codebooks.len()];
        for (book, tbook) in codebooks
            .chunks_exact(ksub * dsub)
            .zip(transposed.chunks_exact_mut(ksub * dsub))
        {
            for (c, cent) in book.chunks_exact(dsub).enumerate() {
                for (d, &x) in cent.iter().enumerate() {
                    tbook[d * ksub + c] = x;
                }
            }
        }
        Self {
            dim,
            m,
            ksub,
            dsub,
            codebooks,
            transposed,
            train_error: 0.0,
        }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sub-quantizers (bytes per code).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Codebook size per sub-quantizer.
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Sub-vector dimensionality (`dim / m`).
    pub fn dsub(&self) -> usize {
        self.dsub
    }

    /// Borrow the codebook of sub-space `j` as a flat `ksub × dsub` buffer.
    pub fn codebook(&self, j: usize) -> &[f32] {
        let stride = self.ksub * self.dsub;
        &self.codebooks[j * stride..(j + 1) * stride]
    }

    /// The full flat codebook buffer (`m` consecutive `ksub × dsub` blocks)
    /// — the serialization view consumed by the on-disk index writer and
    /// accepted back by [`ProductQuantizer::from_codebooks`].
    pub fn codebooks(&self) -> &[f32] {
        &self.codebooks
    }

    /// Distances from sub-vector `j` of `v` to the `ksub` centroids of
    /// sub-quantizer `j`, into `row`: the kernel behind both the lookup
    /// table and the encoder.
    #[inline]
    fn sub_distances(&self, tier: SimdTier, v: &[f32], j: usize, row: &mut [f32]) {
        let stride = self.ksub * self.dsub;
        l2_columns(
            tier,
            &v[j * self.dsub..(j + 1) * self.dsub],
            &self.transposed[j * stride..(j + 1) * stride],
            row,
        );
    }

    /// Encodes a single vector into its `m`-byte PQ code.
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        let mut code = vec![0u8; self.m];
        self.encode_into(v, &mut code);
        code
    }

    /// [`ProductQuantizer::encode`] into a caller-owned `m`-byte buffer:
    /// byte `j` is the first (lowest-index) nearest centroid of sub-space
    /// `j`.
    pub fn encode_into(&self, v: &[f32], code: &mut [u8]) {
        assert_eq!(v.len(), self.dim, "vector dimensionality mismatch");
        assert_eq!(code.len(), self.m, "code length mismatch");
        let tier = SimdTier::process_default();
        let mut row = [0.0f32; 256];
        let row = &mut row[..self.ksub];
        for (j, byte) in code.iter_mut().enumerate() {
            self.sub_distances(tier, v, j, row);
            *byte = first_min(row).0 as u8;
        }
    }

    /// Encodes every vector of a flat buffer in parallel, returning a flat
    /// `n × m` code buffer.
    pub fn encode_all(&self, data: &[f32]) -> Vec<u8> {
        assert!(data.len().is_multiple_of(self.dim));
        let mut codes = vec![0u8; data.len() / self.dim * self.m];
        codes
            .chunks_exact_mut(self.m)
            .zip(data.chunks_exact(self.dim))
            .into_par_iter()
            .for_each(|(code, v)| self.encode_into(v, code));
        codes
    }

    /// Reconstructs (decodes) the vector approximated by a PQ code.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "code length mismatch");
        let mut v = Vec::with_capacity(self.dim);
        for (j, &c) in code.iter().enumerate() {
            let book = self.codebook(j);
            let cent = &book[c as usize * self.dsub..(c as usize + 1) * self.dsub];
            v.extend_from_slice(cent);
        }
        v
    }

    /// Builds the asymmetric-distance lookup table for a query (Stage
    /// BuildLUT): entry `(j, c)` is the squared distance between the query's
    /// j-th sub-vector and centroid `c` of sub-quantizer `j`.
    pub fn build_distance_table(&self, query: &[f32]) -> DistanceTable {
        let mut table = DistanceTable::default();
        self.build_distance_table_into(SimdTier::process_default(), query, &mut table);
        table
    }

    /// [`ProductQuantizer::build_distance_table`] on an explicit kernel tier
    /// into a caller-owned table, whose buffer is reused: rebuilding a table
    /// of the same shape allocates nothing. Both tiers write the same bits.
    pub fn build_distance_table_into(
        &self,
        tier: SimdTier,
        query: &[f32],
        table: &mut DistanceTable,
    ) {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        table.m = self.m;
        table.ksub = self.ksub;
        table.table.resize(self.m * self.ksub, 0.0);
        for (j, row) in table.table.chunks_exact_mut(self.ksub).enumerate() {
            self.sub_distances(tier, query, j, row);
        }
    }

    /// Exact (non-table) asymmetric distance between a raw query and a code;
    /// used by tests to validate that [`DistanceTable::adc`] is consistent.
    pub fn asymmetric_distance(&self, query: &[f32], code: &[u8]) -> f32 {
        l2_sq(query, &self.decode(code))
    }

    /// Mean squared reconstruction error over a dataset — the quantization
    /// quality metric OPQ optimises.
    pub fn reconstruction_error(&self, data: &[f32]) -> f64 {
        assert!(data.len().is_multiple_of(self.dim));
        let n = data.len() / self.dim;
        if n == 0 {
            return 0.0;
        }
        let total: f64 = (0..n)
            .into_par_iter()
            .map(|i| {
                let v = &data[i * self.dim..(i + 1) * self.dim];
                let code = self.encode(v);
                l2_sq(v, &self.decode(&code)) as f64
            })
            .sum();
        total / n as f64
    }

    /// Bytes needed to store `n` encoded vectors.
    pub fn code_bytes(&self, n: usize) -> usize {
        n * self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn small_pq() -> (ProductQuantizer, Vec<f32>) {
        let dim = 8;
        let data = random_data(500, dim, 7);
        let cfg = PqConfig::new(4).with_ksub(16).with_seed(1);
        (ProductQuantizer::train(&data, dim, &cfg), data)
    }

    #[test]
    fn shapes_are_consistent() {
        let (pq, _) = small_pq();
        assert_eq!(pq.dim(), 8);
        assert_eq!(pq.m(), 4);
        assert_eq!(pq.dsub(), 2);
        assert_eq!(pq.ksub(), 16);
        assert_eq!(pq.codebook(0).len(), 16 * 2);
    }

    #[test]
    fn encode_produces_m_bytes_within_ksub() {
        let (pq, data) = small_pq();
        let code = pq.encode(&data[..8]);
        assert_eq!(code.len(), 4);
        assert!(code.iter().all(|&c| (c as usize) < pq.ksub()));
    }

    #[test]
    fn encode_all_matches_encode() {
        let (pq, data) = small_pq();
        let flat = pq.encode_all(&data[..8 * 10]);
        assert_eq!(flat.len(), 10 * 4);
        for i in 0..10 {
            assert_eq!(
                &flat[i * 4..(i + 1) * 4],
                pq.encode(&data[i * 8..(i + 1) * 8])
            );
        }
    }

    #[test]
    fn decode_is_close_to_original() {
        let (pq, data) = small_pq();
        let err = pq.reconstruction_error(&data[..8 * 100]);
        // Random uniform data in [-1,1]: 16 centroids per 2-d sub-space keeps
        // the per-dimension error well below the data variance (~0.33).
        assert!(err < 8.0 * 0.33, "reconstruction error too high: {err}");
    }

    #[test]
    fn adc_equals_distance_to_decoded_vector() {
        let (pq, data) = small_pq();
        let query = &data[8 * 3..8 * 4];
        let table = pq.build_distance_table(query);
        for i in 10..20 {
            let v = &data[i * 8..(i + 1) * 8];
            let code = pq.encode(v);
            let adc = table.adc(&code);
            let exact = pq.asymmetric_distance(query, &code);
            assert!(
                (adc - exact).abs() < 1e-3 * exact.max(1.0),
                "ADC {adc} != exact {exact}"
            );
        }
    }

    #[test]
    fn distance_table_has_m_by_ksub_entries() {
        let (pq, data) = small_pq();
        let table = pq.build_distance_table(&data[..8]);
        assert_eq!(table.m(), 4);
        assert_eq!(table.ksub(), 16);
        assert_eq!(table.as_flat().len(), 64);
        assert_eq!(table.nbytes(), 64 * 4);
        assert_eq!(table.row(2).len(), 16);
    }

    #[test]
    fn training_is_deterministic() {
        let dim = 8;
        let data = random_data(300, dim, 9);
        let cfg = PqConfig::new(2).with_ksub(8).with_seed(4);
        let a = ProductQuantizer::train(&data, dim, &cfg);
        let b = ProductQuantizer::train(&data, dim, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn dimension_must_divide_by_m() {
        let data = random_data(10, 10, 1);
        let _ = ProductQuantizer::train(&data, 10, &PqConfig::new(3));
    }

    #[test]
    fn code_bytes_is_n_times_m() {
        let (pq, _) = small_pq();
        assert_eq!(pq.code_bytes(1000), 4000);
    }

    #[test]
    fn more_centroids_reduce_error() {
        let dim = 8;
        let data = random_data(600, dim, 3);
        let coarse =
            ProductQuantizer::train(&data, dim, &PqConfig::new(4).with_ksub(4).with_seed(2));
        let fine =
            ProductQuantizer::train(&data, dim, &PqConfig::new(4).with_ksub(64).with_seed(2));
        assert!(fine.reconstruction_error(&data) < coarse.reconstruction_error(&data));
    }
}
