//! The multithreaded CPU baseline (the stand-in for Faiss on the Xeon).
//!
//! The paper's CPU baseline runs Faiss' IVF-PQ on a 16-vCPU Xeon server in
//! two modes: offline batch processing (queries batched by 10K, throughput in
//! QPS — Figure 10) and online processing (one query at a time, latency
//! distribution — Figure 11). [`CpuSearcher`] reproduces both modes on top of
//! the from-scratch IVF-PQ implementation in this crate, parallelising over
//! queries with rayon exactly as Faiss parallelises with OpenMP.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

use fanns_dataset::types::QuerySet;

use crate::index::IvfPqIndex;
use crate::params::IvfPqParams;
use crate::search::{
    search_with_kernel, search_with_timings_kernel, with_thread_scratch, SearchResult, StageTimings,
};
use crate::simd::{self, ScanKernel, ScanScratch};
use crate::source::IvfSource;

/// Throughput/latency measurement for a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Queries processed.
    pub queries: usize,
    /// Wall-clock time for the whole batch.
    pub wall_seconds: f64,
    /// Queries per second.
    pub qps: f64,
}

/// Latency distribution for online (one-at-a-time) query processing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Per-query latencies in microseconds, in submission order.
    pub latencies_us: Vec<f64>,
}

impl LatencyReport {
    /// A percentile of the latency distribution (0–100), linear interpolation.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.latencies_us, p)
    }

    /// Median latency in microseconds.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Mean latency in microseconds.
    pub fn mean(&self) -> f64 {
        if self.latencies_us.is_empty() {
            return 0.0;
        }
        self.latencies_us.iter().sum::<f64>() / self.latencies_us.len() as f64
    }
}

/// Linear-interpolation percentile over an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0) / 100.0;
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A CPU searcher binding an index (heap-owned [`IvfPqIndex`] or an
/// mmap-backed [`crate::storage::MappedIndex`] — anything implementing
/// [`IvfSource`]) to a set of query-time parameters.
pub struct CpuSearcher<'a, S: IvfSource + ?Sized = IvfPqIndex> {
    index: &'a S,
    params: IvfPqParams,
    /// The scan kernel every query runs on: [`simd::default_kernel`] unless
    /// pinned with [`CpuSearcher::with_kernel`].
    kernel: ScanKernel,
}

// Manual impls: deriving would demand `S: Clone`/`S: Debug`, but the
// searcher only holds a shared reference.
impl<S: IvfSource + ?Sized> Clone for CpuSearcher<'_, S> {
    fn clone(&self) -> Self {
        Self {
            index: self.index,
            params: self.params,
            kernel: self.kernel,
        }
    }
}

impl<S: IvfSource + ?Sized> std::fmt::Debug for CpuSearcher<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuSearcher")
            .field("params", &self.params)
            .field("kernel", &self.kernel)
            .finish_non_exhaustive()
    }
}

impl<'a, S: IvfSource + ?Sized> CpuSearcher<'a, S> {
    /// Creates a searcher. `params.nlist` and `params.m` must match the index.
    pub fn new(index: &'a S, params: IvfPqParams) -> Self {
        assert_eq!(
            params.nlist,
            index.nlist(),
            "params.nlist must match the index"
        );
        assert_eq!(params.m, index.m(), "params.m must match the index");
        Self {
            index,
            params,
            kernel: simd::default_kernel(),
        }
    }

    /// Builder-style scan-kernel pin (benches and the per-kernel Figure 3
    /// breakdown; serving paths normally ride the process default).
    pub fn with_kernel(mut self, kernel: ScanKernel) -> Self {
        self.kernel = kernel;
        self
    }

    /// The scan kernel this searcher executes.
    pub fn kernel(&self) -> ScanKernel {
        self.kernel
    }

    /// The bound parameters.
    pub fn params(&self) -> IvfPqParams {
        self.params
    }

    /// Searches a single query on this thread's reusable scratch.
    pub fn search_one(&self, query: &[f32]) -> Vec<SearchResult> {
        with_thread_scratch(|scratch| {
            search_with_kernel(
                self.index,
                query,
                self.params.k,
                self.params.effective_nprobe(),
                self.kernel,
                scratch,
            )
        })
    }

    /// Searches every query in parallel (offline batch mode), returning the
    /// per-query results.
    pub fn search_batch(&self, queries: &QuerySet) -> Vec<Vec<SearchResult>> {
        (0..queries.len())
            .into_par_iter()
            .map(|q| self.search_one(queries.get(q)))
            .collect()
    }

    /// Batch mode with throughput measurement (Figure 10 methodology: no
    /// latency constraint, maximise QPS).
    pub fn measure_throughput(
        &self,
        queries: &QuerySet,
    ) -> (Vec<Vec<SearchResult>>, ThroughputReport) {
        let start = Instant::now();
        let results = self.search_batch(queries);
        let wall = start.elapsed();
        let report = ThroughputReport {
            queries: queries.len(),
            wall_seconds: wall.as_secs_f64(),
            qps: queries.len() as f64 / wall.as_secs_f64().max(1e-12),
        };
        (results, report)
    }

    /// Online mode: queries are processed one at a time and each latency is
    /// recorded (Figure 11 methodology).
    pub fn measure_latency(&self, queries: &QuerySet) -> (Vec<Vec<SearchResult>>, LatencyReport) {
        let mut results = Vec::with_capacity(queries.len());
        let mut latencies = Vec::with_capacity(queries.len());
        for q in 0..queries.len() {
            let start = Instant::now();
            results.push(self.search_one(queries.get(q)));
            latencies.push(start.elapsed().as_secs_f64() * 1e6);
        }
        (
            results,
            LatencyReport {
                latencies_us: latencies,
            },
        )
    }

    /// Runs every query sequentially with per-stage instrumentation and
    /// returns the aggregate breakdown (the Figure 3 measurement). One
    /// scratch (candidate buffer + kernel lanes) is reused across all
    /// queries, so Stage PQDist measures the scan, not allocator growth.
    pub fn profile_stages(&self, queries: &QuerySet) -> StageTimings {
        let mut timings = StageTimings::default();
        let mut scratch = ScanScratch::new();
        let kernel = self.kernel();
        for q in 0..queries.len() {
            let _ = search_with_timings_kernel(
                self.index,
                queries.get(q),
                self.params.k,
                self.params.effective_nprobe(),
                kernel,
                &mut timings,
                &mut scratch,
            );
        }
        timings
    }
}

// In its own non-generic impl so `CpuSearcher::ids_only(..)` keeps resolving
// without a type annotation (defaulted type parameters don't apply in
// expression position).
impl CpuSearcher<'_, IvfPqIndex> {
    /// Extracts plain id lists from search results (for recall evaluation).
    pub fn ids_only(results: &[Vec<SearchResult>]) -> Vec<Vec<usize>> {
        results
            .iter()
            .map(|r| r.iter().map(|h| h.id as usize).collect())
            .collect()
    }
}

/// Convenience: measure a duration in microseconds.
pub fn elapsed_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IvfPqTrainConfig;
    use fanns_dataset::ground_truth::ground_truth;
    use fanns_dataset::recall::recall_at_k;
    use fanns_dataset::synth::SyntheticSpec;

    fn setup() -> (fanns_dataset::types::VectorDataset, QuerySet, IvfPqIndex) {
        let (db, queries) = SyntheticSpec::sift_small(40).generate();
        let cfg = IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000)
            .with_seed(13);
        let index = IvfPqIndex::build(&db, &cfg);
        (db, queries, index)
    }

    #[test]
    fn percentile_interpolates() {
        let samples = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 4.0);
        assert!((percentile(&samples, 50.0) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn batch_results_match_single_query_results() {
        let (_, queries, index) = setup();
        let searcher = CpuSearcher::new(&index, IvfPqParams::new(16, 4, 10).with_m(16));
        let batch = searcher.search_batch(&queries);
        for (q, got) in batch.iter().enumerate() {
            assert_eq!(*got, searcher.search_one(queries.get(q)));
        }
    }

    #[test]
    fn throughput_report_is_consistent() {
        let (_, queries, index) = setup();
        let searcher = CpuSearcher::new(&index, IvfPqParams::new(16, 4, 10).with_m(16));
        let (results, report) = searcher.measure_throughput(&queries);
        assert_eq!(results.len(), queries.len());
        assert_eq!(report.queries, queries.len());
        assert!(report.qps > 0.0);
        assert!(report.wall_seconds > 0.0);
    }

    #[test]
    fn latency_report_covers_every_query() {
        let (_, queries, index) = setup();
        let searcher = CpuSearcher::new(&index, IvfPqParams::new(16, 4, 10).with_m(16));
        let (_, report) = searcher.measure_latency(&queries);
        assert_eq!(report.latencies_us.len(), queries.len());
        assert!(report.median() > 0.0);
        assert!(report.percentile(95.0) >= report.median());
        assert!(report.mean() > 0.0);
    }

    #[test]
    fn profile_stages_accumulates_all_queries() {
        let (_, queries, index) = setup();
        let searcher = CpuSearcher::new(&index, IvfPqParams::new(16, 8, 10).with_m(16));
        let timings = searcher.profile_stages(&queries);
        assert_eq!(timings.queries, queries.len());
        assert!(timings.total().as_nanos() > 0);
    }

    #[test]
    fn searcher_achieves_reasonable_recall() {
        let (db, queries, index) = setup();
        let gt = ground_truth(&db, &queries, 10);
        let searcher = CpuSearcher::new(&index, IvfPqParams::new(16, 16, 10).with_m(16));
        let results = searcher.search_batch(&queries);
        let report = recall_at_k(&CpuSearcher::ids_only(&results), &gt, 10);
        assert!(report.recall_at_k > 0.7, "recall {}", report.recall_at_k);
    }

    #[test]
    #[should_panic]
    fn mismatched_nlist_is_rejected() {
        let (_, _, index) = setup();
        let _ = CpuSearcher::new(&index, IvfPqParams::new(999, 4, 10).with_m(16));
    }
}
