//! IVF-PQ vector search — the algorithm the paper accelerates.
//!
//! This crate implements the full software (CPU) side of IVF-PQ as described
//! in §2 of the paper:
//!
//! * [`params`] — the algorithm parameter space of Table 2 (`nlist`,
//!   `nprobe`, `K`, OPQ on/off, `m`),
//! * [`index`] — index training (coarse k-means + PQ, optionally OPQ) and
//!   population of the inverted lists,
//! * [`search`] — the six query-time stages (OPQ → IVFDist → SelCells →
//!   BuildLUT → PQDist → SelK) with per-stage wall-clock instrumentation used
//!   to reproduce the bottleneck analysis of Figure 3,
//! * [`flat`] — an exact flat index used for ground truth and sanity checks,
//! * [`baseline_cpu`] — the multithreaded batch/online CPU searcher standing
//!   in for the paper's Faiss CPU baseline,
//! * [`simd`] — the vectorized ADC scan data plane: 64-byte-aligned
//!   block-transposed code slabs and AVX2/portable f32 kernels, every one
//!   bit-identical to the scalar reference, runtime-dispatched per host (see
//!   `docs/DATA_PLANE.md`),
//! * [`source`] — the [`IvfSource`] abstraction every search stage is
//!   generic over, so heap-owned and mmap-backed indexes run identical
//!   arithmetic,
//! * [`storage`] — the versioned, checksummed on-disk index format and the
//!   zero-copy `mmap` loader (see `docs/STORAGE.md`),
//! * [`segmented`] — the mutable layer: live inserts/deletes over a write
//!   segment + immutable sealed segments with tombstones and generation-
//!   swapped compaction (see `docs/MUTATION.md`).

#![warn(missing_docs)]

pub mod baseline_cpu;
pub mod flat;
pub mod index;
pub mod params;
pub mod search;
pub mod segmented;
pub mod simd;
pub mod source;
pub mod storage;

pub use baseline_cpu::CpuSearcher;
pub use flat::FlatIndex;
pub use index::{IvfPqIndex, IvfPqTrainConfig};
pub use params::{IvfPqParams, SearchStage, ALL_STAGES};
pub use search::{SearchResult, StageTimings};
pub use segmented::{CompactionReport, SegmentedConfig, SegmentedIndex, SegmentedStats};
pub use simd::{CodeSlab, ScanKernel, ScanScratch};
pub use source::IvfSource;
pub use storage::{open_index, write_index, MappedIndex, StorageError};
