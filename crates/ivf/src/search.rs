//! The six-stage IVF-PQ query pipeline with per-stage instrumentation.
//!
//! Queries run through the stages of §2.1.3 in order. Each stage is a
//! separate function so that (a) wall-clock time can be attributed per stage —
//! the measurement behind the bottleneck analysis of Figure 3 — and (b) the
//! stages map one-to-one onto the hardware PEs modelled in `fanns-hwsim`.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

use fanns_quantize::pq::DistanceTable;

use crate::params::{SearchStage, ALL_STAGES};
use crate::simd::{self, ScanKernel, ScanScratch};
use crate::source::IvfSource;

/// One search hit: database id and approximated squared distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Database vector id.
    pub id: u32,
    /// Approximated (ADC) squared L2 distance.
    pub distance: f32,
}

/// Wall-clock time spent in each of the six stages for one or more queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Nanoseconds spent per stage, indexed by [`SearchStage::position`].
    pub nanos: [u64; 6],
    /// Number of queries the timings cover.
    pub queries: usize,
}

impl StageTimings {
    /// Time spent in `stage`.
    pub fn get(&self, stage: SearchStage) -> Duration {
        Duration::from_nanos(self.nanos[stage.position()])
    }

    /// Adds a measurement for `stage`.
    pub fn record(&mut self, stage: SearchStage, elapsed: Duration) {
        self.nanos[stage.position()] += elapsed.as_nanos() as u64;
    }

    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.nanos.iter().sum())
    }

    /// Per-stage share of the total time (sums to 1 unless total is zero).
    /// This is the quantity plotted in Figure 3.
    pub fn fractions(&self) -> [f64; 6] {
        let total: u64 = self.nanos.iter().sum();
        let mut out = [0.0; 6];
        if total == 0 {
            return out;
        }
        for (o, &nanos) in out.iter_mut().zip(&self.nanos) {
            *o = nanos as f64 / total as f64;
        }
        out
    }

    /// The stage with the largest share of time — the bottleneck.
    pub fn bottleneck(&self) -> SearchStage {
        let mut best = SearchStage::Opq;
        let mut best_nanos = 0u64;
        for stage in ALL_STAGES {
            let n = self.nanos[stage.position()];
            if n > best_nanos {
                best_nanos = n;
                best = stage;
            }
        }
        best
    }

    /// Merges another timing record into this one.
    pub fn merge(&mut self, other: &StageTimings) {
        for i in 0..6 {
            self.nanos[i] += other.nanos[i];
        }
        self.queries += other.queries;
    }
}

/// A bounded max-heap keeping the `k` smallest (distance, id) pairs seen.
/// This is the software analogue of the hardware priority queues in Stage
/// SelCells / SelK.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    // Cached rejection threshold: +inf until the heap fills, then the root
    // distance. Keeping it in a dedicated field makes the common reject in
    // `push` a single load + compare with no heap access.
    threshold: f32,
    // (distance, id), organised as a binary max-heap on distance.
    heap: Vec<(f32, u32)>,
}

impl Default for TopK {
    /// An empty top-1 collector that owns no buffer yet.
    fn default() -> Self {
        Self {
            k: 1,
            threshold: f32::INFINITY,
            heap: Vec::new(),
        }
    }
}

impl TopK {
    /// Creates an empty top-K collector.
    pub fn new(k: usize) -> Self {
        Self {
            k: k.max(1),
            threshold: f32::INFINITY,
            heap: Vec::with_capacity(k.max(1)),
        }
    }

    /// Empties the collector and re-arms it for the best `k`, keeping its
    /// buffer.
    pub fn reset(&mut self, k: usize) {
        self.k = k.max(1);
        self.threshold = f32::INFINITY;
        self.heap.clear();
    }

    /// Number of elements currently held (≤ k).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no element has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Current worst (largest) retained distance, or infinity if not full.
    #[inline]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Offers a candidate; it is kept only if it beats the current threshold.
    /// The common scan-loop case — a full heap rejecting a far candidate —
    /// is one comparison against the cached threshold.
    #[inline]
    pub fn push(&mut self, distance: f32, id: u32) {
        if distance >= self.threshold {
            return;
        }
        self.insert(distance, id);
    }

    /// The accept path of [`TopK::push`], kept out of line so the reject
    /// fast path stays small enough to inline into scan loops.
    fn insert(&mut self, distance: f32, id: u32) {
        if self.heap.len() < self.k {
            self.heap.push((distance, id));
            self.sift_up(self.heap.len() - 1);
            if self.heap.len() == self.k {
                self.threshold = self.heap[0].0;
            }
        } else if distance < self.heap[0].0 {
            self.heap[0] = (distance, id);
            self.sift_down(0);
            self.threshold = self.heap[0].0;
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].0 > self.heap[parent].0 {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < self.heap.len() && self.heap[l].0 > self.heap[largest].0 {
                largest = l;
            }
            if r < self.heap.len() && self.heap[r].0 > self.heap[largest].0 {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }

    /// Sorts the kept pairs in place by increasing distance (ties broken by
    /// id for determinism), without allocating. The heap order is gone
    /// afterwards: [`TopK::reset`] before pushing again.
    fn sort(&mut self) {
        // total_cmp keeps the order total even if a NaN distance slips in
        // (NaN sorts last instead of silently corrupting the comparator).
        self.heap
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    /// Drains the collector into results sorted by increasing distance
    /// (ties broken by id for determinism).
    pub fn into_sorted(mut self) -> Vec<SearchResult> {
        self.sort();
        self.heap
            .into_iter()
            .map(|(distance, id)| SearchResult { id, distance })
            .collect()
    }
}

/// Stage OPQ: rotate the query if the index was trained with OPQ.
pub fn stage_opq<S: IvfSource + ?Sized>(index: &S, query: &[f32]) -> Vec<f32> {
    let mut rotated = Vec::new();
    opq_into(index, query, &mut rotated);
    rotated
}

fn opq_into<S: IvfSource + ?Sized>(index: &S, query: &[f32], rotated: &mut Vec<f32>) {
    match index.opq() {
        Some(t) => t.apply_into(query, rotated),
        None => {
            rotated.clear();
            rotated.extend_from_slice(query);
        }
    }
}

/// Stage IVFDist: distances from the (rotated) query to all cell centroids.
pub fn stage_ivf_dist<S: IvfSource + ?Sized>(index: &S, query: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    fanns_quantize::distance::all_l2(query, index.centroids(), index.dim(), &mut out);
    out
}

/// Stage SelCells: indices of the `nprobe` closest cells.
pub fn stage_sel_cells(centroid_dists: &[f32], nprobe: usize) -> Vec<usize> {
    let nprobe = nprobe.min(centroid_dists.len());
    let mut cells = Vec::new();
    sel_cells_into(centroid_dists, nprobe, &mut TopK::new(nprobe), &mut cells);
    cells
}

fn sel_cells_into(
    centroid_dists: &[f32],
    nprobe: usize,
    select: &mut TopK,
    cells: &mut Vec<usize>,
) {
    select.reset(nprobe.min(centroid_dists.len()));
    for (i, &d) in centroid_dists.iter().enumerate() {
        select.push(d, i as u32);
    }
    select.sort();
    cells.clear();
    cells.extend(select.heap.iter().map(|&(_, cell)| cell as usize));
}

/// Stage BuildLUT: the per-query asymmetric-distance lookup table.
pub fn stage_build_lut<S: IvfSource + ?Sized>(index: &S, query: &[f32]) -> DistanceTable {
    index.pq().build_distance_table(query)
}

/// The query prefix — stages OPQ, IVFDist, SelCells and BuildLUT, everything
/// a query needs before the scan — and the buffers it writes into. Reusing
/// one `QueryPrefix` across queries makes the prefix allocation-free once
/// the buffers have reached the index's shape.
///
/// This is the only place the four stages are sequenced; the `stage_*`
/// functions above are allocating single-stage wrappers over the same
/// pieces.
#[derive(Debug, Clone, Default)]
pub struct QueryPrefix {
    rotated: Vec<f32>,
    centroid_dists: Vec<f32>,
    select: TopK,
    cells: Vec<usize>,
    lut: DistanceTable,
}

impl QueryPrefix {
    /// Runs the four prefix stages for `query` on `kernel`'s distance tier
    /// (see [`ScanKernel::distance_tier`]; every tier computes the same
    /// bits). `stage_done` is called as each stage finishes, in order
    /// (`Opq`, `IvfDist`, `SelCells`, `BuildLut`), so a caller can timestamp
    /// the boundaries; pass `|_| {}` to observe nothing.
    pub fn compute<S: IvfSource + ?Sized>(
        &mut self,
        index: &S,
        query: &[f32],
        nprobe: usize,
        kernel: ScanKernel,
        mut stage_done: impl FnMut(SearchStage),
    ) {
        let tier = kernel.distance_tier();
        opq_into(index, query, &mut self.rotated);
        stage_done(SearchStage::Opq);
        tier.all_l2(
            &self.rotated,
            index.centroids(),
            index.dim(),
            &mut self.centroid_dists,
        );
        stage_done(SearchStage::IvfDist);
        sel_cells_into(
            &self.centroid_dists,
            nprobe,
            &mut self.select,
            &mut self.cells,
        );
        stage_done(SearchStage::SelCells);
        index
            .pq()
            .build_distance_table_into(tier, &self.rotated, &mut self.lut);
        stage_done(SearchStage::BuildLut);
    }

    /// The probed cells of the last [`QueryPrefix::compute`], nearest first.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// The lookup table of the last [`QueryPrefix::compute`].
    pub fn lut(&self) -> &DistanceTable {
        &self.lut
    }

    /// Bytes of buffer capacity held (constant once warmed up on an index).
    pub fn capacity_bytes(&self) -> usize {
        4 * (self.rotated.capacity() + self.centroid_dists.capacity())
            + self.lut.nbytes()
            + 8 * (self.select.heap.capacity() + self.cells.capacity())
    }
}

std::thread_local! {
    // Per-thread scratch for the entry points that keep the original
    // scratch-less signatures: each engine/rayon worker reuses its buffers
    // across queries instead of allocating per call.
    static SCAN_SCRATCH: std::cell::RefCell<ScanScratch> =
        std::cell::RefCell::new(ScanScratch::new());
}

/// Runs `f` with this thread's reusable scratch. A nested call on the same
/// thread (a backend whose search calls into another one) gets a fresh
/// scratch instead of the one its caller holds.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut ScanScratch) -> R) -> R {
    SCAN_SCRATCH.with(|scratch| match scratch.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ScanScratch::new()),
    })
}

/// Stages PQDist + SelK fused: scan the selected cells, computing ADC
/// distances and keeping the best `k`. The two stages are fused here for
/// cache efficiency (as Faiss does); [`search_with_timings_kernel`] still
/// reports them separately by running PQDist into a buffer first.
///
/// Executes on the process-default kernel ([`simd::default_kernel`]):
/// the AVX2 slab kernel when the host supports it, the portable chunked
/// kernel otherwise, or whatever `FANNS_SCAN_KERNEL` forces. Use
/// [`stage_scan_and_select_with`] to pin a kernel explicitly.
pub fn stage_scan_and_select<S: IvfSource + ?Sized>(
    index: &S,
    cells: &[usize],
    lut: &DistanceTable,
    k: usize,
) -> Vec<SearchResult> {
    with_thread_scratch(|scratch| {
        stage_scan_and_select_with(index, cells, lut, k, simd::default_kernel(), scratch)
    })
}

/// [`stage_scan_and_select`] with an explicit kernel and caller-owned
/// scratch. Every kernel returns bit-identical results; the slab kernels
/// skip codes that cannot enter the top `k` (counted in
/// [`ScanScratch::pruned`]).
pub fn stage_scan_and_select_with<S: IvfSource + ?Sized>(
    index: &S,
    cells: &[usize],
    lut: &DistanceTable,
    k: usize,
    kernel: ScanKernel,
    scratch: &mut ScanScratch,
) -> Vec<SearchResult> {
    simd::scan_and_select(index, cells, lut, k, kernel, scratch)
}

/// Stage SelK alone: select the `k` best candidates from the PQDist output.
pub fn stage_sel_k(candidates: &[(u32, f32)], k: usize) -> Vec<SearchResult> {
    let mut topk = TopK::new(k);
    for &(id, d) in candidates {
        topk.push(d, id);
    }
    topk.into_sorted()
}

/// Runs a full query through the six stages (fused PQDist/SelK fast path)
/// on the process-default scan kernel.
pub fn search<S: IvfSource + ?Sized>(
    index: &S,
    query: &[f32],
    k: usize,
    nprobe: usize,
) -> Vec<SearchResult> {
    with_thread_scratch(|scratch| {
        search_with_kernel(index, query, k, nprobe, simd::default_kernel(), scratch)
    })
}

/// [`search`] with an explicit scan kernel and caller-owned scratch (the
/// serving backends pin their kernel once and reuse one scratch per batch).
pub fn search_with_kernel<S: IvfSource + ?Sized>(
    index: &S,
    query: &[f32],
    k: usize,
    nprobe: usize,
    kernel: ScanKernel,
    scratch: &mut ScanScratch,
) -> Vec<SearchResult> {
    scratch.with_prefix(|prefix, scratch| {
        prefix.compute(index, query, nprobe, kernel, |_| {});
        stage_scan_and_select_with(index, prefix.cells(), prefix.lut(), k, kernel, scratch)
    })
}

/// Runs a full query keeping the stages separate and timing each one —
/// the measurement behind the per-kernel Figure 3 breakdown. Slightly slower
/// than [`search_with_kernel`] but returns identical results: Stage PQDist
/// runs the chosen kernel into the scratch's reused candidate buffer (no
/// per-query `Vec` growth) and SelK selects from that buffer.
pub fn search_with_timings_kernel<S: IvfSource + ?Sized>(
    index: &S,
    query: &[f32],
    k: usize,
    nprobe: usize,
    kernel: ScanKernel,
    timings: &mut StageTimings,
    scratch: &mut ScanScratch,
) -> Vec<SearchResult> {
    scratch.with_prefix(|prefix, scratch| {
        let mut last = Instant::now();
        let mut lap = |stage: SearchStage| {
            let now = Instant::now();
            timings.record(stage, now - last);
            last = now;
        };
        prefix.compute(index, query, nprobe, kernel, &mut lap);
        let (cells, lut) = (prefix.cells(), prefix.lut());

        simd::scan_pairs(index, cells, lut, kernel, scratch);
        lap(SearchStage::PqDist);

        let results = stage_sel_k(scratch.pairs(), k);
        lap(SearchStage::SelK);

        timings.queries += 1;
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IvfPqIndex, IvfPqTrainConfig};
    use fanns_dataset::ground_truth::ground_truth;
    use fanns_dataset::recall::recall_at_k;
    use fanns_dataset::synth::SyntheticSpec;

    fn build_small() -> (
        fanns_dataset::types::VectorDataset,
        fanns_dataset::types::QuerySet,
        IvfPqIndex,
    ) {
        let (db, queries) = SyntheticSpec::sift_small(21).generate();
        let cfg = IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000)
            .with_seed(3);
        let index = IvfPqIndex::build(&db, &cfg);
        (db, queries, index)
    }

    fn timed_search(
        index: &IvfPqIndex,
        query: &[f32],
        k: usize,
        nprobe: usize,
        timings: &mut StageTimings,
    ) -> Vec<SearchResult> {
        let (kernel, mut scratch) = (simd::default_kernel(), ScanScratch::new());
        search_with_timings_kernel(index, query, k, nprobe, kernel, timings, &mut scratch)
    }

    #[test]
    fn topk_keeps_the_smallest() {
        let mut t = TopK::new(3);
        for (i, d) in [5.0f32, 1.0, 4.0, 0.5, 9.0, 2.0].iter().enumerate() {
            t.push(*d, i as u32);
        }
        let out = t.into_sorted();
        let dists: Vec<f32> = out.iter().map(|r| r.distance).collect();
        assert_eq!(dists, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn topk_threshold_tracks_worst_kept() {
        let mut t = TopK::new(2);
        assert!(t.threshold().is_infinite());
        t.push(3.0, 0);
        t.push(1.0, 1);
        assert_eq!(t.threshold(), 3.0);
        t.push(2.0, 2);
        assert_eq!(t.threshold(), 2.0);
    }

    #[test]
    fn sel_cells_returns_nearest_cells_sorted_by_distance() {
        let dists = vec![3.0f32, 0.5, 2.0, 1.0];
        let cells = stage_sel_cells(&dists, 2);
        assert_eq!(cells, vec![1, 3]);
    }

    #[test]
    fn fused_and_split_paths_agree() {
        let (_, queries, index) = build_small();
        let bits = |r: &[SearchResult]| -> Vec<(u32, u32)> {
            r.iter().map(|h| (h.id, h.distance.to_bits())).collect()
        };
        let mut scratch = ScanScratch::new();
        for q in 0..4 {
            let query = queries.get(q);
            let expected = bits(&search(&index, query, 10, 4));
            for kernel in simd::ALL_KERNELS {
                let fused = search_with_kernel(&index, query, 10, 4, kernel, &mut scratch);
                let mut timings = StageTimings::default();
                let split = search_with_timings_kernel(
                    &index,
                    query,
                    10,
                    4,
                    kernel,
                    &mut timings,
                    &mut scratch,
                );
                assert_eq!(bits(&fused), expected, "query {q} kernel {kernel}");
                assert_eq!(bits(&split), expected, "query {q} kernel {kernel}");
                assert_eq!(timings.queries, 1);
                assert!(timings.total() > Duration::ZERO);
            }
        }
    }

    #[test]
    fn probing_all_cells_approaches_exhaustive_pq_search() {
        let (db, queries, index) = build_small();
        let gt = ground_truth(&db, &queries, 10);
        let results: Vec<Vec<usize>> = (0..queries.len())
            .map(|q| {
                search(&index, queries.get(q), 10, index.nlist())
                    .into_iter()
                    .map(|r| r.id as usize)
                    .collect()
            })
            .collect();
        let report = recall_at_k(&results, &gt, 10);
        // Scanning every cell, recall is limited only by PQ quantization
        // error; on this easy clustered dataset that should be high.
        assert!(
            report.recall_at_k > 0.7,
            "full-probe recall unexpectedly low: {}",
            report.recall_at_k
        );
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let (db, queries, index) = build_small();
        let gt = ground_truth(&db, &queries, 10);
        let run = |nprobe: usize| {
            let results: Vec<Vec<usize>> = (0..queries.len())
                .map(|q| {
                    search(&index, queries.get(q), 10, nprobe)
                        .into_iter()
                        .map(|r| r.id as usize)
                        .collect()
                })
                .collect();
            recall_at_k(&results, &gt, 10).recall_at_k
        };
        let low = run(1);
        let high = run(16);
        assert!(high >= low, "recall should not degrade with more probes");
        assert!(high > 0.7);
    }

    #[test]
    fn results_are_sorted_and_bounded_by_k() {
        let (_, queries, index) = build_small();
        let res = search(&index, queries.get(0), 10, 4);
        assert!(res.len() <= 10);
        assert!(res.windows(2).all(|w| w[0].distance <= w[1].distance));
    }

    #[test]
    fn timings_fractions_sum_to_one() {
        let (_, queries, index) = build_small();
        let mut timings = StageTimings::default();
        for q in 0..8 {
            let _ = timed_search(&index, queries.get(q), 10, 8, &mut timings);
        }
        let fractions = timings.fractions();
        let sum: f64 = fractions.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(timings.queries, 8);
        // The bottleneck must be one of the six stages.
        let _ = timings.bottleneck();
    }

    #[test]
    fn merge_accumulates_queries_and_time() {
        let mut a = StageTimings::default();
        a.record(SearchStage::PqDist, Duration::from_nanos(100));
        a.queries = 1;
        let mut b = StageTimings::default();
        b.record(SearchStage::PqDist, Duration::from_nanos(50));
        b.record(SearchStage::SelK, Duration::from_nanos(25));
        b.queries = 2;
        a.merge(&b);
        assert_eq!(a.queries, 3);
        assert_eq!(a.get(SearchStage::PqDist), Duration::from_nanos(150));
        assert_eq!(a.get(SearchStage::SelK), Duration::from_nanos(25));
    }
}
