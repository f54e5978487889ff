//! `fanns-serve` — the online query-serving subsystem.
//!
//! Everything else in this workspace is offline: build an index, pick a
//! design, simulate a batch. This crate is the layer the paper's deployment
//! story actually needs — the component that accepts a *stream* of
//! concurrent queries and schedules them onto a backend:
//!
//! * [`backend`] — the [`SearchBackend`] trait plus executors: the CPU
//!   IVF-PQ searcher, the generated accelerator (cycle-level simulator, which
//!   also reports modelled device latency), and an exact flat reference,
//! * [`cache`] — the sharded LRU query-result cache the engine consults
//!   before admission, keyed on the query's exact bit pattern, with O(1)
//!   generation invalidation,
//! * [`engine`] — the multi-threaded [`QueryEngine`]: one bounded admission
//!   queue that a worker pool drains into batches itself (work-conserving,
//!   no scheduler thread), deadline-aware early shedding and
//!   earliest-deadline-first pickup over the whole queue, exact
//!   backpressure, graceful shutdown,
//! * [`dispatch`] — the sharded scatter/gather dispatcher with the paper's
//!   LogGP network cost charged per distributed query,
//! * [`replica`] — the [`ReplicaSet`]: R replicas per shard behind
//!   least-loaded routing, health tracking (consecutive-error and
//!   latency-outlier detection), and quarantine-then-probe failover,
//! * [`fault`] — the deterministic [`FaultInjector`] backend wrapper
//!   (delay / error / hang / every-nth modes) that exercises the failover
//!   machinery in tests and benchmarks,
//! * [`metrics`] — log-bucketed latency histograms, SLO attainment, goodput,
//!   per-replica utilization and the aggregated [`ServeReport`],
//! * [`telemetry`] — end-to-end query tracing: sampled per-stage span events
//!   in lock-free bounded rings, a [`TelemetryRegistry`] aggregating them
//!   into per-stage histograms, gauges and JSONL time-series snapshots,
//!   Chrome trace export, and a critical-path analyzer (see
//!   `docs/OBSERVABILITY.md`),
//! * [`loadgen`] — open-loop Poisson and closed-loop load generators,
//! * [`mutable`] — the live-mutation serving path: [`MutableBackend`] over a
//!   segmented mutable index (insert/delete/compact under traffic, cache
//!   generation invalidation on every mutation and compaction swap) plus the
//!   background [`Compactor`] (see `docs/MUTATION.md`).
//!
//! The deployment stack composes bottom-up: an executor backend, optionally
//! wrapped in a [`FaultInjector`], R of them behind a [`ReplicaSet`], one
//! set per shard under a [`ShardedBackend`], and the whole thing behind the
//! [`QueryEngine`] — every layer implements [`SearchBackend`], so each is
//! optional.
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use fanns_serve::{BatchPolicy, EngineConfig, OpenLoopConfig, QueryEngine};
//! use fanns_serve::backend::CpuBackend;
//! use fanns_serve::loadgen::run_open_loop;
//! use fanns_dataset::synth::SyntheticSpec;
//! use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
//! use fanns_ivf::params::IvfPqParams;
//!
//! let (db, queries) = SyntheticSpec::sift_small(1).generate();
//! let index = IvfPqIndex::build(&db, &IvfPqTrainConfig::new(16).with_m(16));
//! let backend = CpuBackend::new(index, IvfPqParams::new(16, 4, 10).with_m(16));
//! let engine = QueryEngine::start(
//!     Arc::new(backend),
//!     EngineConfig::new(BatchPolicy::new(32, Duration::from_millis(1))),
//! );
//! run_open_loop(&engine, &queries, OpenLoopConfig::new(1_000.0, 500));
//! println!("{}", engine.shutdown().summary());
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod dispatch;
pub mod engine;
pub mod fault;
pub mod loadgen;
pub mod metrics;
pub mod mutable;
pub mod replica;
pub mod telemetry;

pub use backend::{
    open_mapped_backend, AcceleratorBackend, BackendError, BackendResponse, CpuBackend,
    FlatBackend, SearchBackend,
};
pub use cache::{CacheStats, QueryResultCache, ResultCacheConfig};
pub use dispatch::{
    shard_cpu_backends, shard_flat_backends, shard_replicated_cpu_backends, ShardedBackend,
};
pub use engine::{
    AdmissionPolicy, BatchPolicy, EngineConfig, PickupOrder, QueryEngine, QueryReply, QueryStatus,
    SubmitError, Ticket,
};
pub use fault::{FaultHandle, FaultInjector, FaultMode};
pub use loadgen::{
    run_closed_loop, run_open_loop, LoadgenOutcome, OpenLoopConfig, QueryPopularity, ZipfSampler,
};
pub use metrics::{CacheReport, LatencyHistogram, ServeReport};
pub use mutable::{Compactor, MutableBackend};
pub use replica::{ReplicaHealthConfig, ReplicaSet, ReplicaSetStats, ReplicaSnapshot};
pub use telemetry::{
    analyze_critical_paths, chrome_trace_json, CriticalPathReport, EventRing, Gauge, QueryPath,
    SpanEvent, Stage, StageReport, StageRow, TelemetryConfig, TelemetryRegistry, TelemetrySink,
    TelemetrySnapshot,
};
