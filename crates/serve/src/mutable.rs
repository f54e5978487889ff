//! The mutable serving path: a [`SearchBackend`] over a
//! [`SegmentedIndex`] plus a background [`Compactor`].
//!
//! [`MutableBackend`] is the serving adapter for the segmented mutable IVF
//! layer (`fanns_ivf::segmented`, see `docs/MUTATION.md`): searches fan out
//! across the sealed segments + write segment with tombstone filtering, and
//! the [`SearchBackend::insert`] / [`SearchBackend::delete`] hooks are live.
//!
//! # Cache coherence
//!
//! When a [`QueryResultCache`] is attached, the backend keeps it coherent
//! with the index by advancing the cache generation:
//!
//! * **delete** — a cached reply might contain the tombstoned id, so serving
//!   it would violate the no-resurrection invariant; the cache is
//!   invalidated for *safety*.
//! * **insert** — a cached reply can never contain a wrong id, but it may
//!   omit a closer, newly inserted vector; the cache is invalidated for
//!   *freshness* (matching the "findable by the very next search" contract).
//! * **compaction swap** — sealed-segment distances are preserved
//!   bit-identically, but write-segment vectors transition exact → ADC, so
//!   replies computed before the swap are not reproducible after it; the
//!   cache is invalidated on every non-skipped compaction.
//!
//! The engine's stale-generation insert discard (see
//! [`QueryResultCache::insert`]) closes the race with in-flight queries:
//! a reply computed against the pre-mutation index cannot repopulate the
//! post-mutation cache.
//!
//! # Telemetry
//!
//! Traced queries record one [`Stage::SegmentScan`] span (the whole
//! fan-out-and-merge); every compaction records a [`Stage::Compact`]
//! infrastructure span, like the `index_map`/`index_warm` cold-start spans.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fanns_ivf::params::IvfPqParams;
use fanns_ivf::search::{with_thread_scratch, SearchResult};
use fanns_ivf::segmented::{CompactionReport, SegmentedIndex};
use fanns_ivf::simd::{default_kernel, ScanKernel, ScanScratch};

use crate::backend::{BackendResponse, SearchBackend};
use crate::cache::QueryResultCache;
use crate::telemetry::{batch_traced, Stage, TelemetrySink};

/// A [`SearchBackend`] serving live queries out of a [`SegmentedIndex`],
/// with live insert/delete and compaction-aware cache invalidation.
pub struct MutableBackend {
    index: Arc<SegmentedIndex>,
    params: IvfPqParams,
    kernel: Option<ScanKernel>,
    telemetry: Option<TelemetrySink>,
    cache: Option<Arc<QueryResultCache>>,
}

impl std::fmt::Debug for MutableBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MutableBackend")
            .field("index", &self.index)
            .field("params", &self.params)
            .field("kernel", &self.kernel)
            .finish()
    }
}

impl MutableBackend {
    /// Binds a shared segmented index to query-time parameters.
    ///
    /// # Panics
    /// Panics if `params.nlist` / `params.m` do not match the index.
    pub fn new(index: Arc<SegmentedIndex>, params: IvfPqParams) -> Self {
        assert_eq!(
            params.nlist,
            index.nlist(),
            "params.nlist must match the index"
        );
        assert_eq!(params.m, index.m(), "params.m must match the index");
        Self {
            index,
            params,
            kernel: None,
            telemetry: None,
            cache: None,
        }
    }

    /// Builder-style scan-kernel pin for the sealed-segment ADC scans (the
    /// write segment is always scanned exactly, kernel-independent).
    pub fn with_kernel(mut self, kernel: ScanKernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Builder-style telemetry attach: traced queries record one
    /// [`Stage::SegmentScan`] span; compactions record [`Stage::Compact`].
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Builder-style result-cache attach. The backend advances the cache
    /// generation on every insert, delete and compaction swap (see the
    /// module docs), keeping cached replies coherent with the live index.
    /// Pass the *same* `Arc` the engine consults
    /// ([`crate::QueryEngine::start_with_cache`]).
    pub fn with_result_cache(mut self, cache: Arc<QueryResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The served segmented index.
    pub fn index(&self) -> &Arc<SegmentedIndex> {
        &self.index
    }

    /// The bound parameters.
    pub fn params(&self) -> IvfPqParams {
        self.params
    }

    /// The ADC scan kernel the sealed-segment scans execute.
    pub fn kernel(&self) -> ScanKernel {
        self.kernel.unwrap_or_else(default_kernel)
    }

    /// Runs one compaction on the served index (seal + merge + swap),
    /// recording a [`Stage::Compact`] span and invalidating the attached
    /// result cache when a swap actually happened. Safe to call from any
    /// thread; concurrent calls serialize inside the index.
    pub fn compact(&self) -> CompactionReport {
        let t0 = Instant::now();
        let report = self.index.compact();
        let t1 = Instant::now();
        if let Some(sink) = &self.telemetry {
            let id = sink.next_id();
            sink.record_range(Stage::Compact, id, t0, t1);
        }
        if !report.skipped {
            if let Some(cache) = &self.cache {
                cache.invalidate_all();
            }
        }
        report
    }

    fn search_one(&self, query: &[f32], scratch: &mut ScanScratch) -> Vec<SearchResult> {
        self.index.search_with_kernel(
            query,
            self.params.k,
            self.params.effective_nprobe(),
            self.kernel(),
            scratch,
        )
    }
}

impl SearchBackend for MutableBackend {
    fn name(&self) -> String {
        format!(
            "mutable-ivfpq({}, nprobe={}, scan={})",
            self.params.index_label(),
            self.params.effective_nprobe(),
            self.kernel()
        )
    }

    fn dim(&self) -> usize {
        self.index.dim()
    }

    fn k(&self) -> usize {
        self.params.k
    }

    fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
        let traced = self.telemetry.as_ref().and_then(|sink| {
            let on = batch_traced().unwrap_or_else(|| sink.self_sample());
            on.then_some(sink)
        });
        with_thread_scratch(|scratch| {
            queries
                .iter()
                .map(|q| {
                    let results = match traced {
                        Some(sink) => {
                            let qid = sink.next_id();
                            let t0 = Instant::now();
                            let results = self.search_one(q, scratch);
                            sink.record_range(Stage::SegmentScan, qid, t0, Instant::now());
                            results
                        }
                        None => self.search_one(q, scratch),
                    };
                    BackendResponse {
                        results,
                        simulated_us: None,
                    }
                })
                .collect()
        })
    }

    fn supports_mutation(&self) -> bool {
        true
    }

    fn insert(&self, vector: &[f32]) -> Option<u32> {
        // Client input: a wrong-dimension vector is rejected, not asserted
        // on, and leaves the index and the cache generation untouched.
        if vector.len() != self.index.dim() {
            return None;
        }
        let id = self.index.insert(vector);
        if let Some(cache) = &self.cache {
            // Freshness: a cached reply may omit the new, closer vector.
            cache.invalidate_all();
        }
        Some(id)
    }

    fn delete(&self, id: u32) -> bool {
        let deleted = self.index.delete(id);
        if deleted {
            if let Some(cache) = &self.cache {
                // Safety: a cached reply may contain the tombstoned id.
                cache.invalidate_all();
            }
        }
        deleted
    }
}

/// A background thread that periodically compacts a [`MutableBackend`]'s
/// index whenever its policy advises it
/// ([`SegmentedIndex::needs_compaction`]), mirroring how serving systems run
/// merges off the query path.
pub struct Compactor {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<u64>>,
}

impl std::fmt::Debug for Compactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compactor")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl Compactor {
    /// Spawns the compaction thread: every `interval` it checks
    /// [`SegmentedIndex::needs_compaction`] and, when advised, runs
    /// [`MutableBackend::compact`] (telemetry + cache invalidation
    /// included).
    pub fn start(backend: Arc<MutableBackend>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("fanns-compactor".into())
            .spawn(move || {
                let mut performed = 0u64;
                while !stop_flag.load(Ordering::Acquire) {
                    if backend.index().needs_compaction() && !backend.compact().skipped {
                        performed += 1;
                    }
                    // Sleep in short slices so stop() returns promptly.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !stop_flag.load(Ordering::Acquire) {
                        let slice = remaining.min(Duration::from_millis(5));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
                performed
            })
            .expect("spawn compactor thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Signals the thread to exit and joins it, returning how many
    /// compactions it performed.
    pub fn stop(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            Some(h) => h.join().expect("compactor thread panicked"),
            None => 0,
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{QueryResultCache, ResultCacheConfig};
    use fanns_dataset::synth::SyntheticSpec;
    use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
    use fanns_ivf::segmented::SegmentedConfig;

    fn build_backend() -> (fanns_dataset::types::QuerySet, MutableBackend) {
        let (db, queries) = SyntheticSpec::sift_small(71).generate();
        let index = IvfPqIndex::build(
            &db,
            &IvfPqTrainConfig::new(8)
                .with_m(8)
                .with_ksub(16)
                .with_train_sample(1_000),
        );
        let segmented = Arc::new(SegmentedIndex::new(
            index,
            SegmentedConfig::default().with_seal_threshold(32),
        ));
        let params = IvfPqParams::new(8, 8, 10).with_m(8);
        (queries, MutableBackend::new(segmented, params))
    }

    #[test]
    fn mutation_hooks_are_live_and_results_filter_deletes() {
        let (queries, backend) = build_backend();
        assert!(backend.supports_mutation());
        let probe = queries.get(0).to_vec();
        let id = backend.insert(&probe).expect("mutable backend inserts");
        let got = backend.search_batch(&[&probe]);
        assert_eq!(got[0].results[0].id, id);
        assert!(backend.delete(id));
        assert!(!backend.delete(id));
        let got = backend.search_batch(&[&probe]);
        assert!(got[0].results.iter().all(|r| r.id != id));
    }

    #[test]
    fn immutable_backends_reject_mutation() {
        let (db, _) = SyntheticSpec::sift_small(72).generate();
        let index = IvfPqIndex::build(
            &db,
            &IvfPqTrainConfig::new(8)
                .with_m(8)
                .with_ksub(16)
                .with_train_sample(1_000),
        );
        let cpu = crate::backend::CpuBackend::new(index, IvfPqParams::new(8, 4, 10).with_m(8));
        assert!(!cpu.supports_mutation());
        assert_eq!(cpu.insert(&vec![0.0; cpu.dim()]), None);
        assert!(!cpu.delete(0));
    }

    #[test]
    fn mutations_and_compaction_advance_cache_generation() {
        let (queries, backend) = build_backend();
        let cache = Arc::new(QueryResultCache::new(ResultCacheConfig::new(64)));
        let backend = MutableBackend::new(Arc::clone(backend.index()), backend.params())
            .with_result_cache(Arc::clone(&cache));

        let g0 = cache.generation();
        let id = backend.insert(queries.get(0)).unwrap();
        assert!(cache.generation() > g0, "insert must invalidate");
        let g1 = cache.generation();
        assert!(backend.delete(id));
        assert!(cache.generation() > g1, "delete must invalidate");
        let g2 = cache.generation();
        let report = backend.compact();
        assert!(!report.skipped);
        assert!(cache.generation() > g2, "compaction swap must invalidate");
        let g3 = cache.generation();
        assert!(backend.compact().skipped);
        assert_eq!(cache.generation(), g3, "skipped compaction must not");
    }

    #[test]
    fn wrong_dimension_insert_is_rejected_without_invalidating() {
        let (queries, backend) = build_backend();
        let cache = Arc::new(QueryResultCache::new(ResultCacheConfig::new(64)));
        let backend = MutableBackend::new(Arc::clone(backend.index()), backend.params())
            .with_result_cache(Arc::clone(&cache));
        let (g0, live0) = (cache.generation(), backend.index().live());
        let query = queries.get(0);
        let long = [query, &[0.0]].concat();
        for bad in [&query[..query.len() - 1], &long[..], &[][..]] {
            assert_eq!(backend.insert(bad), None, "len {} accepted", bad.len());
        }
        assert_eq!(
            cache.generation(),
            g0,
            "a rejected insert must not invalidate"
        );
        assert_eq!(backend.index().live(), live0);
    }

    #[test]
    fn compactor_compacts_in_background() {
        let (queries, backend) = build_backend();
        let backend = Arc::new(backend);
        let compactor = Compactor::start(Arc::clone(&backend), Duration::from_millis(1));
        // Push the write segment past its seal threshold (32).
        for i in 0..64 {
            backend.insert(queries.get(i % queries.len()));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while backend.index().stats().compactions == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let performed = compactor.stop();
        assert!(performed >= 1, "compactor must have compacted");
        assert!(backend.index().stats().generation >= 1);
        assert_eq!(backend.index().live(), 1_064);
    }
}
