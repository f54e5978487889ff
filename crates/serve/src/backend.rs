//! The [`SearchBackend`] abstraction and its concrete executors.
//!
//! A backend answers top-K queries for the partition of the database it
//! owns. Three implementations cover the paper's deployment matrix:
//!
//! * [`CpuBackend`] — the software IVF-PQ executor (the Faiss-CPU stand-in),
//! * [`AcceleratorBackend`] — the generated FANNS accelerator: functional
//!   results from the cycle-level simulator, which also reports the
//!   *simulated* device latency per query alongside the host wall clock,
//! * [`FlatBackend`] — exact brute-force search, used as the correctness
//!   reference for the sharded dispatcher.
//!
//! Backends are `Send + Sync` so engine workers and the sharded dispatcher
//! can drive them from multiple threads concurrently.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fanns_codegen::plan::{instantiate, AcceleratorPlan};
use fanns_ivf::flat::FlatIndex;
use fanns_ivf::index::IvfPqIndex;
use fanns_ivf::params::{IvfPqParams, SearchStage};
use fanns_ivf::search::{stage_scan_and_select_with, with_thread_scratch, SearchResult};
use fanns_ivf::simd::{default_kernel, ScanKernel, ScanScratch};
use fanns_ivf::source::IvfSource;
use fanns_ivf::storage::{MappedIndex, StorageError};

use crate::telemetry::{batch_traced, Stage, TelemetrySink};

/// One backend answer: the top-K hits plus, for simulated hardware, the
/// modelled device latency (µs) for this query.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendResponse {
    /// The K nearest neighbours, sorted by increasing distance.
    pub results: Vec<SearchResult>,
    /// Simulated device latency in microseconds, when the backend models
    /// hardware rather than executing natively.
    pub simulated_us: Option<f64>,
}

/// A backend-side failure: the replica could not serve the batch at all
/// (crash, timeout, injected fault). Carries the failing backend's name so
/// routing layers can attribute the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Name of the backend that failed.
    pub backend: String,
    /// What went wrong.
    pub message: String,
}

impl BackendError {
    /// A new error attributed to `backend`.
    pub fn new(backend: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            backend: backend.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "backend `{}` failed: {}", self.backend, self.message)
    }
}

impl std::error::Error for BackendError {}

/// A query-serving backend bound to (a partition of) the database.
pub trait SearchBackend: Send + Sync {
    /// Human-readable description (shown in reports).
    fn name(&self) -> String;

    /// Query dimensionality the backend expects.
    fn dim(&self) -> usize;

    /// Results returned per query.
    fn k(&self) -> usize;

    /// Answers a batch of queries. Must return exactly one response per
    /// query, in order.
    fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse>;

    /// Fallible variant of [`SearchBackend::search_batch`]. In-process
    /// executors never fail, so the default implementation simply delegates;
    /// backends that model remote or faulty replicas (the
    /// [`crate::fault::FaultInjector`] wrapper, a [`crate::replica::ReplicaSet`]
    /// with every replica down) override it to surface [`BackendError`].
    /// Routing layers and the engine's workers call this method so failures
    /// propagate instead of panicking.
    fn try_search_batch(&self, queries: &[&[f32]]) -> Result<Vec<BackendResponse>, BackendError> {
        Ok(self.search_batch(queries))
    }

    /// Whether this backend accepts live [`SearchBackend::insert`] /
    /// [`SearchBackend::delete`] traffic. Immutable backends (the default)
    /// report `false` and reject every mutation.
    fn supports_mutation(&self) -> bool {
        false
    }

    /// Inserts one vector into the served index, returning its assigned id,
    /// or `None` when the backend is immutable or rejected the vector (a
    /// wrong dimension). Mutable backends (see
    /// [`crate::mutable::MutableBackend`]) make an accepted vector findable
    /// by the very next search.
    fn insert(&self, _vector: &[f32]) -> Option<u32> {
        None
    }

    /// Tombstones one id in the served index. Returns `true` when the id was
    /// live and is now hidden from every subsequent search; `false` for
    /// unknown/already-deleted ids and for immutable backends.
    fn delete(&self, _id: u32) -> bool {
        false
    }
}

/// Shared backends are backends: lets R replicas route to one in-memory
/// index (`Arc<CpuBackend>` cloned per replica slot) without duplicating the
/// index, and lets wrappers like the fault injector own shared inners.
impl<T: SearchBackend + ?Sized> SearchBackend for std::sync::Arc<T> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
        (**self).search_batch(queries)
    }

    fn try_search_batch(&self, queries: &[&[f32]]) -> Result<Vec<BackendResponse>, BackendError> {
        (**self).try_search_batch(queries)
    }

    fn supports_mutation(&self) -> bool {
        (**self).supports_mutation()
    }

    fn insert(&self, vector: &[f32]) -> Option<u32> {
        (**self).insert(vector)
    }

    fn delete(&self, id: u32) -> bool {
        (**self).delete(id)
    }
}

/// Where a [`CpuBackend`]'s index lives: owned on the heap (built or
/// deserialized in-process) or shared out of a read-only `mmap` of an
/// on-disk index file. Both forms run the identical generic search stages,
/// so results are bit-identical across the two.
#[derive(Debug)]
enum BackendIndex {
    Heap(Box<IvfPqIndex>),
    Mapped(Arc<MappedIndex>),
}

impl BackendIndex {
    fn source(&self) -> &dyn IvfSource {
        match self {
            BackendIndex::Heap(i) => &**i,
            BackendIndex::Mapped(i) => &**i,
        }
    }
}

/// The multithreaded CPU IVF-PQ executor behind the serving interface.
#[derive(Debug)]
pub struct CpuBackend {
    index: BackendIndex,
    params: IvfPqParams,
    /// Optional telemetry sink for pipeline sub-stage spans (coarse
    /// quantization / LUT build / ADC scan).
    telemetry: Option<TelemetrySink>,
    /// Scan kernel override; `None` rides the process default
    /// ([`fanns_ivf::simd::default_kernel`]).
    kernel: Option<ScanKernel>,
}

impl CpuBackend {
    /// Binds an owned index to query-time parameters.
    ///
    /// # Panics
    /// Panics if `params.nlist` / `params.m` do not match the index.
    pub fn new(index: IvfPqIndex, params: IvfPqParams) -> Self {
        assert_eq!(
            params.nlist,
            index.nlist(),
            "params.nlist must match the index"
        );
        assert_eq!(params.m, index.m(), "params.m must match the index");
        Self {
            index: BackendIndex::Heap(Box::new(index)),
            params,
            telemetry: None,
            kernel: None,
        }
    }

    /// Binds a shared `mmap`-backed index (see [`fanns_ivf::storage`]) to
    /// query-time parameters. The mapping can be shared with other backends
    /// or replica threads via the `Arc`; search results are bit-identical to
    /// a [`CpuBackend::new`] backend over the equivalent heap index.
    ///
    /// # Panics
    /// Panics if `params.nlist` / `params.m` do not match the index.
    pub fn from_mapped(index: Arc<MappedIndex>, params: IvfPqParams) -> Self {
        assert_eq!(
            params.nlist,
            IvfSource::nlist(&*index),
            "params.nlist must match the index"
        );
        assert_eq!(
            params.m,
            IvfSource::m(&*index),
            "params.m must match the index"
        );
        Self {
            index: BackendIndex::Mapped(index),
            params,
            telemetry: None,
            kernel: None,
        }
    }

    /// Whether this backend serves out of an `mmap`-backed index.
    pub fn is_mapped(&self) -> bool {
        matches!(self.index, BackendIndex::Mapped(_))
    }

    /// Builder-style scan-kernel pin: forces every query this backend serves
    /// through the given ADC scan kernel instead of the process default.
    /// Every kernel returns bit-identical results.
    pub fn with_kernel(mut self, kernel: ScanKernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// The ADC scan kernel this backend executes.
    pub fn kernel(&self) -> ScanKernel {
        self.kernel.unwrap_or_else(default_kernel)
    }

    /// Builder-style attach of a telemetry sink: traced queries record one
    /// span per pipeline sub-stage — coarse quantization (OPQ + IVFDist +
    /// SelCells), LUT build, and ADC scan — the live analogue of the
    /// paper's Fig. 3 stage split. Which queries are traced follows the
    /// engine's batch-sampling decision when this backend serves an engine
    /// worker ([`crate::telemetry::batch_traced`]); driven standalone, the
    /// sink self-samples at its registry's configured rate. The traced path
    /// runs the same staged kernels as the fused one, so results stay
    /// bit-identical.
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// The bound parameters.
    pub fn params(&self) -> IvfPqParams {
        self.params
    }

    /// One query: the prefix (coarse quantisation + LUT build), then the
    /// scan. With a `sink`, one span per sub-stage is recorded. Both forms
    /// run the arithmetic of [`fanns_ivf::search::search`], so results are
    /// bit-identical; tracing adds four `Instant::now()` reads and three
    /// ring pushes.
    fn search_one(
        &self,
        sink: Option<&TelemetrySink>,
        query: &[f32],
        scratch: &mut ScanScratch,
    ) -> Vec<SearchResult> {
        let (index, kernel, k) = (self.index.source(), self.kernel(), self.params.k);
        let stamp = || sink.map(|_| Instant::now());
        let t0 = stamp();
        // End of coarse quantisation and of the LUT build.
        let (mut t1, mut t2) = (None, None);
        let results = scratch.with_prefix(|prefix, scratch| {
            let nprobe = self.params.effective_nprobe();
            prefix.compute(index, query, nprobe, kernel, |stage| match stage {
                SearchStage::SelCells => t1 = stamp(),
                SearchStage::BuildLut => t2 = stamp(),
                _ => {}
            });
            stage_scan_and_select_with(index, prefix.cells(), prefix.lut(), k, kernel, scratch)
        });
        if let (Some(sink), Some(t0), Some(t1), Some(t2)) = (sink, t0, t1, t2) {
            let qid = sink.next_id();
            sink.record_range(Stage::Coarse, qid, t0, t1);
            sink.record_range(Stage::BuildLut, qid, t1, t2);
            sink.record_range(Stage::Scan, qid, t2, Instant::now());
        }
        results
    }
}

impl SearchBackend for CpuBackend {
    fn name(&self) -> String {
        let mapped = match &self.index {
            BackendIndex::Mapped(_) => ", mmap",
            BackendIndex::Heap(_) => "",
        };
        format!(
            "cpu-ivfpq({}, nprobe={}, scan={}{mapped})",
            self.params.index_label(),
            self.params.effective_nprobe(),
            self.kernel()
        )
    }

    fn dim(&self) -> usize {
        self.index.source().dim()
    }

    fn k(&self) -> usize {
        self.params.k
    }

    fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
        // Trace this batch iff the engine worker sampled it; standalone
        // (no engine flag on this thread), self-sample at the sink's rate.
        let traced = self.telemetry.as_ref().and_then(|sink| {
            let on = batch_traced().unwrap_or_else(|| sink.self_sample());
            on.then_some(sink)
        });
        // This thread's scratch (prefix buffers, LUT, candidate buffers),
        // reused across batches: each engine worker drives its own backend
        // call, so this stays free of cross-thread contention.
        with_thread_scratch(|scratch| {
            queries
                .iter()
                .map(|q| BackendResponse {
                    results: self.search_one(traced, q, scratch),
                    simulated_us: None,
                })
                .collect()
        })
    }
}

/// Cold-start path: `mmap`-opens an on-disk index (full checksum/alignment
/// validation), eagerly warms its scan slabs, and binds it to a
/// [`CpuBackend`]. When a telemetry sink is supplied, the two phases are
/// recorded as [`Stage::IndexMap`] and [`Stage::IndexWarm`] infrastructure
/// spans, so dashboards see exactly what a restart or swap-from-disk cost.
///
/// Returns the backend plus the shared mapping, so callers can hand the
/// same `Arc<MappedIndex>` to further replicas without re-opening the file.
pub fn open_mapped_backend(
    path: &Path,
    params: IvfPqParams,
    telemetry: Option<&TelemetrySink>,
) -> Result<(CpuBackend, Arc<MappedIndex>), StorageError> {
    let t0 = Instant::now();
    let mapped = Arc::new(MappedIndex::open(path)?);
    let t1 = Instant::now();
    mapped.warm();
    let t2 = Instant::now();
    if let Some(sink) = telemetry {
        let id = sink.next_id();
        sink.record_range(Stage::IndexMap, id, t0, t1);
        sink.record_range(Stage::IndexWarm, id, t1, t2);
    }
    let backend = CpuBackend::from_mapped(Arc::clone(&mapped), params);
    Ok((backend, mapped))
}

/// The generated accelerator (cycle-level simulator) behind the serving
/// interface. Owns the index — the "database loaded in HBM" — plus the build
/// plan, mirroring a deployed bitstream.
#[derive(Debug)]
pub struct AcceleratorBackend {
    index: IvfPqIndex,
    plan: AcceleratorPlan,
}

impl AcceleratorBackend {
    /// Binds an owned index to an accelerator plan, validating that the plan
    /// instantiates against the index (the serving-time "bitstream load").
    ///
    /// # Panics
    /// Panics if the plan cannot be instantiated against the index; use the
    /// co-design workflow to produce matching pairs.
    pub fn new(index: IvfPqIndex, plan: AcceleratorPlan) -> Self {
        instantiate(&plan, &index).expect("accelerator plan must instantiate against its index");
        Self { index, plan }
    }

    /// The bound plan.
    pub fn plan(&self) -> &AcceleratorPlan {
        &self.plan
    }

    /// The bound index.
    pub fn index(&self) -> &IvfPqIndex {
        &self.index
    }
}

impl SearchBackend for AcceleratorBackend {
    fn name(&self) -> String {
        format!("fanns-accelerator({})", self.plan.name)
    }

    fn dim(&self) -> usize {
        self.index.dim()
    }

    fn k(&self) -> usize {
        self.plan.params.k
    }

    fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
        // Instantiation is a cheap validation pass (no data is copied); the
        // accelerator borrows the index owned by this backend.
        let accelerator =
            instantiate(&self.plan, &self.index).expect("plan was validated at construction");
        let freq = self.plan.design.freq_mhz;
        queries
            .iter()
            .map(|q| {
                let outcome = accelerator.simulate_query_fast(q);
                BackendResponse {
                    simulated_us: Some(outcome.latency_us(freq)),
                    results: outcome.results,
                }
            })
            .collect()
    }
}

/// Exact brute-force search behind the serving interface (correctness
/// reference; also the `nprobe = nlist = 1` extreme of the design space).
#[derive(Debug)]
pub struct FlatBackend {
    index: FlatIndex,
    k: usize,
}

impl FlatBackend {
    /// Wraps a flat index.
    pub fn new(index: FlatIndex, k: usize) -> Self {
        Self { index, k }
    }
}

impl SearchBackend for FlatBackend {
    fn name(&self) -> String {
        format!("flat-exact(n={})", self.index.ntotal())
    }

    fn dim(&self) -> usize {
        self.index.dim()
    }

    fn k(&self) -> usize {
        self.k
    }

    fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
        queries
            .iter()
            .map(|q| BackendResponse {
                results: self.index.search(q, self.k),
                simulated_us: None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanns_dataset::synth::SyntheticSpec;
    use fanns_hwsim::config::AcceleratorConfig;
    use fanns_ivf::index::IvfPqTrainConfig;
    use fanns_ivf::search::search;

    fn small_index() -> (fanns_dataset::types::QuerySet, IvfPqIndex) {
        let (db, queries) = SyntheticSpec::sift_small(91).generate();
        let index = IvfPqIndex::build(
            &db,
            &IvfPqTrainConfig::new(16)
                .with_m(16)
                .with_ksub(64)
                .with_train_sample(1_000),
        );
        (queries, index)
    }

    #[test]
    fn cpu_backend_matches_direct_search() {
        let (queries, index) = small_index();
        let params = IvfPqParams::new(16, 4, 10).with_m(16);
        let direct: Vec<_> = (0..4)
            .map(|i| search(&index, queries.get(i), 10, 4))
            .collect();
        let backend = CpuBackend::new(index, params);
        let qs: Vec<&[f32]> = (0..4).map(|i| queries.get(i)).collect();
        let responses = backend.search_batch(&qs);
        assert_eq!(responses.len(), 4);
        for (resp, expect) in responses.iter().zip(&direct) {
            assert_eq!(&resp.results, expect);
            assert!(resp.simulated_us.is_none());
        }
        // Called from inside a backend that holds this thread's scratch (a
        // wrapping backend): no double borrow, same results.
        let nested = with_thread_scratch(|_| backend.search_batch(&qs));
        for (resp, expect) in nested.iter().zip(&direct) {
            assert_eq!(&resp.results, expect);
        }
    }

    #[test]
    fn accelerator_backend_reports_simulated_latency() {
        let (queries, index) = small_index();
        let params = IvfPqParams::new(16, 4, 10).with_m(16);
        let plan = AcceleratorPlan::new(
            "serve_test",
            params.index_label(),
            params,
            AcceleratorConfig::balanced(),
            None,
        );
        let backend = AcceleratorBackend::new(index, plan);
        let qs: Vec<&[f32]> = (0..3).map(|i| queries.get(i)).collect();
        let responses = backend.search_batch(&qs);
        assert_eq!(responses.len(), 3);
        for resp in &responses {
            assert!(!resp.results.is_empty());
            let sim = resp.simulated_us.expect("simulated latency present");
            assert!(sim.is_finite() && sim > 0.0);
        }
        assert_eq!(backend.k(), 10);
        assert!(backend.name().contains("fanns-accelerator"));
    }

    #[test]
    fn flat_backend_is_exact() {
        let (db, queries) = SyntheticSpec::sift_small(92).generate();
        let gt = fanns_dataset::ground_truth::ground_truth(&db, &queries, 5);
        let backend = FlatBackend::new(FlatIndex::new(db), 5);
        let qs: Vec<&[f32]> = (0..queries.len()).map(|i| queries.get(i)).collect();
        let responses = backend.search_batch(&qs);
        for (i, resp) in responses.iter().enumerate() {
            let ids: Vec<usize> = resp.results.iter().map(|r| r.id as usize).collect();
            assert_eq!(ids, gt.neighbors(i)[..5].to_vec(), "query {i}");
        }
    }
}
