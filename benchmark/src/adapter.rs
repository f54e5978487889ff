//! The pinned API surface: the only file in the harness that names items of
//! the program under test. Later PRs cannot edit this directory, so every
//! `fanns_*` item used below must stay callable with these signatures (the
//! README lists them). Everything else in the harness goes through the
//! wrappers and re-exports here.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fanns_dataset::synth::SyntheticSpec;
use fanns_dataset::types::VectorDataset;
use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
use fanns_ivf::params::IvfPqParams;
use fanns_ivf::search::{
    search, stage_build_lut, stage_ivf_dist, stage_opq, stage_scan_and_select, stage_sel_cells,
};
use fanns_ivf::segmented::{SegmentedConfig, SegmentedIndex};
use fanns_ivf::simd::default_kernel;
use fanns_ivf::source::IvfSource;
use fanns_ivf::storage::{open_index, write_index, MappedIndex};
use fanns_serve::backend::CpuBackend;
use fanns_serve::cache::{QueryResultCache, ResultCacheConfig};
use fanns_serve::engine::{BatchPolicy, EngineConfig};
use fanns_serve::mutable::{Compactor, MutableBackend};

pub use fanns_ivf::search::SearchResult;
pub use fanns_ivf::segmented::SegmentedStats;
pub use fanns_serve::backend::{BackendError, BackendResponse, SearchBackend};
pub use fanns_serve::cache::CacheStats;
pub use fanns_serve::engine::{QueryEngine, QueryReply, QueryStatus, Ticket};

/// Row-major `n × dim` vectors.
pub type Vectors = VectorDataset;

/// `SyntheticSpec::sift_medium(seed)` resized: the database and query pool.
pub fn generate(seed: u64, vectors: usize, queries: usize) -> (Vectors, Vectors) {
    let (base, queries) = SyntheticSpec::sift_medium(seed)
        .with_vectors(vectors)
        .with_queries(queries)
        .generate();
    (base, queries.as_dataset().clone())
}

/// Rows `range` of `all` as their own dataset.
pub fn rows(all: &Vectors, range: std::ops::Range<usize>) -> Vectors {
    let dim = all.dim();
    Vectors::new(
        dim,
        all.as_flat()[range.start * dim..range.end * dim].to_vec(),
    )
}

/// Name of the ADC scan kernel the process dispatches to on this host.
pub fn kernel_name() -> &'static str {
    default_kernel().name()
}

#[derive(Debug, Clone, Copy)]
pub struct IndexShape {
    pub nlist: usize,
    pub m: usize,
    pub ksub: usize,
    pub train_sample: usize,
}

/// An index being built in memory (the offline half of set-up).
pub struct Builder(IvfPqIndex);

impl Builder {
    pub fn train(base: &Vectors, shape: IndexShape) -> Self {
        let config = IvfPqTrainConfig::new(shape.nlist)
            .with_m(shape.m)
            .with_ksub(shape.ksub)
            .with_train_sample(shape.train_sample);
        Builder(IvfPqIndex::train(base, &config))
    }

    pub fn add(&mut self, base: &Vectors) {
        self.0.add(base, 0);
    }

    /// Writes the on-disk format; returns the file size in bytes.
    pub fn write(&self, path: &Path) -> u64 {
        write_index(&self.0, path).expect("write the index file")
    }

    pub fn imbalance(&self) -> f64 {
        self.0.imbalance_factor()
    }

    pub fn code_bytes(&self) -> usize {
        self.0.code_bytes()
    }

    pub fn ntotal(&self) -> usize {
        self.0.ntotal()
    }
}

/// The instants between the query stages of one staged search:
/// start, OPQ done, IVFDist + SelCells done, BuildLUT done, scan + select done.
pub type StageStamps = [Instant; 5];

/// The index file re-opened the way an operator restarts a server.
#[derive(Clone)]
pub struct Mapped(Arc<MappedIndex>);

impl Mapped {
    pub fn open(path: &Path) -> Self {
        Mapped(Arc::new(open_index(path).expect("open the index file")))
    }

    pub fn warm(&self) {
        self.0.warm();
    }

    /// The fused query path, `fanns_ivf::search::search`.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<SearchResult> {
        search(&*self.0, query, k, nprobe)
    }

    /// The same query through the public stage functions one call at a
    /// time; also returns the exact number of PQ codes the scan visited.
    pub fn search_staged(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> (Vec<SearchResult>, StageStamps, usize) {
        let index = &*self.0;
        let t0 = Instant::now();
        let rotated = stage_opq(index, query);
        let t1 = Instant::now();
        let dists = stage_ivf_dist(index, &rotated);
        let cells = stage_sel_cells(&dists, nprobe);
        let t2 = Instant::now();
        let lut = stage_build_lut(index, &rotated);
        let t3 = Instant::now();
        let hits = stage_scan_and_select(index, &cells, &lut, k);
        let t4 = Instant::now();
        let codes = cells.iter().map(|&c| index.list_len(c)).sum();
        (hits, [t0, t1, t2, t3, t4], codes)
    }

    pub fn cpu_backend(&self, nprobe: usize, k: usize) -> Arc<dyn SearchBackend> {
        let params = params(self.0.nlist(), self.0.m(), nprobe, k);
        Arc::new(CpuBackend::from_mapped(Arc::clone(&self.0), params))
    }

    /// A mutable index whose first sealed segment is this mapping.
    pub fn segmented(&self, seal_threshold: usize, tombstone_ratio: f64) -> Mutable {
        let config = SegmentedConfig::default()
            .with_seal_threshold(seal_threshold)
            .with_tombstone_ratio(tombstone_ratio);
        Mutable(Arc::new(SegmentedIndex::from_mapped(
            Arc::clone(&self.0),
            config,
        )))
    }
}

fn params(nlist: usize, m: usize, nprobe: usize, k: usize) -> IvfPqParams {
    IvfPqParams::new(nlist, nprobe, k).with_m(m)
}

#[derive(Clone)]
pub struct Mutable(Arc<SegmentedIndex>);

impl Mutable {
    pub fn insert(&self, vector: &[f32]) -> u32 {
        self.0.insert(vector)
    }

    /// Seals and merges; returns how many write-segment vectors were sealed.
    pub fn compact(&self) -> usize {
        self.0.compact().sealed_from_write
    }

    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<SearchResult> {
        self.0.search(query, k, nprobe)
    }

    pub fn stats(&self) -> SegmentedStats {
        self.0.stats()
    }

    /// The serving backend over this index plus its background compactor.
    pub fn serve(
        &self,
        nprobe: usize,
        k: usize,
        poll: Duration,
    ) -> (Arc<dyn SearchBackend>, BackgroundCompactor) {
        let params = params(self.0.nlist(), self.0.m(), nprobe, k);
        let backend = Arc::new(MutableBackend::new(Arc::clone(&self.0), params));
        let compactor = Compactor::start(Arc::clone(&backend), poll);
        (backend, BackgroundCompactor(compactor))
    }
}

pub struct BackgroundCompactor(Compactor);

impl BackgroundCompactor {
    /// Stops and joins the thread; returns the compactions it performed.
    pub fn stop(self) -> u64 {
        self.0.stop()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EngineShape {
    pub max_batch: usize,
    pub max_wait: Duration,
    pub workers: usize,
    pub queue_depth: usize,
    /// Exact-fingerprint result cache of this many entries, if any.
    pub cache_entries: Option<usize>,
}

pub fn start_engine(backend: Arc<dyn SearchBackend>, shape: EngineShape) -> QueryEngine {
    let config = EngineConfig::new(BatchPolicy::new(shape.max_batch, shape.max_wait))
        .with_workers(shape.workers)
        .with_queue_depth(shape.queue_depth);
    match shape.cache_entries {
        Some(entries) => {
            let cache = Arc::new(QueryResultCache::new(ResultCacheConfig::new(entries)));
            QueryEngine::start_with_cache(backend, config, Some(cache))
        }
        None => QueryEngine::start(backend, config),
    }
}

pub fn cache_stats(engine: &QueryEngine) -> Option<CacheStats> {
    engine.cache().map(|c| c.stats())
}
