//! End-to-end query tracing and telemetry for the serving stack.
//!
//! The paper's core argument (Fig. 3) rests on *stage-level* time
//! attribution: knowing exactly where a query spends its time is what turns
//! "the system is slow" into "ADC scan is 62 % of the pipeline, so that is
//! the stage worth accelerating". This module brings the same discipline to
//! the live serving path. Every sampled query emits one [`SpanEvent`] per
//! lifecycle stage — submit, queue wait, batch formation, backend service,
//! reply delivery (or shed/failure), plus backend sub-stages (coarse
//! quantization, LUT build, ADC scan) and infrastructure spans (shard
//! service, replica service, failover) — into a lock-free bounded ring
//! buffer.
//!
//! Design constraints, in priority order:
//!
//! 1. **The hot path never blocks and never allocates.** [`EventRing`] is a
//!    bounded Vyukov-style MPMC queue of `Copy` events; when it is full,
//!    [`EventRing::push`] drops the event and increments a drop counter
//!    instead of waiting.
//! 2. **Sampling is cheap and deterministic.** A query is traced iff
//!    `id % sample_every == 0`, so traced runs are reproducible and the
//!    overhead scales down linearly with the sample rate.
//! 3. **Stage spans telescope.** For a completed query the per-stage
//!    durations partition the wall-clock interval exactly (shared boundary
//!    timestamps), so the per-stage breakdown reconciles with measured wall
//!    latency instead of merely correlating with it.
//!
//! A [`TelemetryRegistry`] owns the rings, drains them into per-stage
//! [`LatencyHistogram`]s and a bounded retained-event buffer, tracks live
//! gauges (queue depth, in-flight queries, batch size, cache occupancy,
//! healthy replicas), and renders three artifacts: a [`StageReport`]
//! (attached to `ServeReport.stages`), periodic [`TelemetrySnapshot`]s for
//! JSON-Lines time series, and a Chrome trace-event export via
//! [`chrome_trace_json`]. [`analyze_critical_paths`] turns retained events
//! into a per-query critical path and an aggregate attribution table — the
//! serving-path analogue of the paper's Figure 3.

use std::cell::{Cell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Serialize;

use crate::metrics::LatencyHistogram;

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// A lifecycle stage a query (or batch) passes through.
///
/// The *path* stages ([`Stage::is_query_path`]) partition a sampled query's
/// wall-clock time: their durations share boundary timestamps, so summing
/// them reproduces the [`Stage::Wall`] span exactly. The backend sub-stages
/// and infrastructure stages overlap the `Service` interval and are reported
/// as shares of their own group instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Admission-side work: dimension check, cache lookup, enqueue attempt.
    Submit,
    /// A query answered entirely from the result cache (whole wall time).
    CacheHit,
    /// Waiting in the bounded admission queue for a free worker.
    QueueWait,
    /// The pickup: from the instant a worker, holding the queue lock, sheds
    /// and selects its next batch, to the start of backend service.
    BatchForm,
    /// Backend service interval of the query's batch.
    Service,
    /// Reply delivery: metrics recording, cache fill, channel send.
    Reply,
    /// Terminal stage of a deadline-shed query (shed decision to reply).
    Shed,
    /// Terminal stage of a query whose batch failed (error to reply).
    Failed,
    /// End-to-end wall interval, submit to reply delivery (reference span).
    Wall,
    /// Backend sub-stage: OPQ rotation + coarse quantization + cell select.
    Coarse,
    /// Backend sub-stage: ADC lookup-table construction.
    BuildLut,
    /// Backend sub-stage: PQ distance scan + top-k selection.
    Scan,
    /// One shard worker serving its scattered slice of a batch.
    ShardService,
    /// The chosen replica serving a batch inside a replica set.
    ReplicaService,
    /// Instant event: a batch was rerouted to another replica.
    Failover,
    /// Infrastructure span: `mmap`-opening and validating an on-disk index
    /// (the cold-start cost [`crate::backend::open_mapped_backend`] pays).
    IndexMap,
    /// Infrastructure span: eager scan-slab rebuild of a mapped index
    /// ([`fanns_ivf::storage::MappedIndex::warm`]).
    IndexWarm,
    /// Backend sub-stage of the mutable path: one query fanned out across
    /// the segment set (sealed ADC scans + exact write-segment scan +
    /// tombstone-filtered merge) by a
    /// [`MutableBackend`](crate::mutable::MutableBackend).
    SegmentScan,
    /// Infrastructure span: one segment compaction — seal + merge + swap
    /// ([`fanns_ivf::segmented::SegmentedIndex::compact`]).
    Compact,
}

impl Stage {
    /// Number of distinct stages (histogram array size).
    pub const COUNT: usize = 19;

    /// All stages in display order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Submit,
        Stage::CacheHit,
        Stage::QueueWait,
        Stage::BatchForm,
        Stage::Service,
        Stage::Reply,
        Stage::Shed,
        Stage::Failed,
        Stage::Wall,
        Stage::Coarse,
        Stage::BuildLut,
        Stage::Scan,
        Stage::ShardService,
        Stage::ReplicaService,
        Stage::Failover,
        Stage::IndexMap,
        Stage::IndexWarm,
        Stage::SegmentScan,
        Stage::Compact,
    ];

    /// Dense index for per-stage arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in every export format.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::CacheHit => "cache_hit",
            Stage::QueueWait => "queue_wait",
            Stage::BatchForm => "batch_form",
            Stage::Service => "service",
            Stage::Reply => "reply",
            Stage::Shed => "shed",
            Stage::Failed => "failed",
            Stage::Wall => "wall",
            Stage::Coarse => "coarse",
            Stage::BuildLut => "build_lut",
            Stage::Scan => "scan",
            Stage::ShardService => "shard_service",
            Stage::ReplicaService => "replica_service",
            Stage::Failover => "failover",
            Stage::IndexMap => "index_map",
            Stage::IndexWarm => "index_warm",
            Stage::SegmentScan => "segment_scan",
            Stage::Compact => "compact",
        }
    }

    /// Stage from its dense index (inverse of [`Stage::idx`]).
    pub fn from_idx(idx: usize) -> Option<Stage> {
        Stage::ALL.get(idx).copied()
    }

    /// True for stages whose durations partition a query's wall time.
    ///
    /// Completed query: submit + queue_wait + batch_form + service + reply.
    /// Shed query: submit + queue_wait + shed. Cache hit: cache_hit. Failed
    /// query: the completed chain with `failed` as the terminal stage.
    /// Summing path-stage totals therefore reproduces the summed `wall`
    /// spans.
    pub fn is_query_path(self) -> bool {
        matches!(
            self,
            Stage::Submit
                | Stage::CacheHit
                | Stage::QueueWait
                | Stage::BatchForm
                | Stage::Service
                | Stage::Reply
                | Stage::Shed
                | Stage::Failed
        )
    }

    /// True for the backend-compute sub-stages (the Fig. 3 pipeline split).
    pub fn is_backend_substage(self) -> bool {
        matches!(self, Stage::Coarse | Stage::BuildLut | Stage::Scan)
    }

    /// True for stages whose `query` field is a real engine query id, so
    /// their events can be grouped into per-query paths. Backend sub-stage
    /// and infrastructure events carry private ordinals instead.
    pub fn is_query_scoped(self) -> bool {
        self.is_query_path() || self == Stage::Wall
    }
}

// ---------------------------------------------------------------------------
// Events and the lock-free ring
// ---------------------------------------------------------------------------

/// One traced span: a stage of one query (or batch), with microsecond
/// timestamps relative to the registry epoch. `Copy` and fixed-size so the
/// hot path moves it into the ring without allocating.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Engine query id for query-scoped stages; a recorder-local ordinal for
    /// backend sub-stages; the shard/replica index for infrastructure spans.
    pub query: u64,
    /// Which lifecycle stage this span covers.
    pub stage: Stage,
    /// Recording lane: a small dense id for the emitting thread.
    pub lane: u32,
    /// Span start, microseconds since the registry epoch.
    pub start_us: f64,
    /// Span duration in microseconds (0 for instant events).
    pub dur_us: f64,
}

struct RingSlot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<SpanEvent>>,
}

/// A bounded lock-free MPMC ring buffer of [`SpanEvent`]s (Vyukov queue).
///
/// Producers never block: when the ring is full, [`EventRing::push`] drops
/// the event and increments [`EventRing::dropped`]. Capacity is rounded up
/// to a power of two.
pub struct EventRing {
    slots: Box<[RingSlot]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    pushed: AtomicU64,
    dropped: AtomicU64,
}

// SAFETY: slots are only written by the producer that won the CAS on
// `enqueue_pos` and only read by the consumer that won the CAS on
// `dequeue_pos`; the per-slot `seq` (acquire/release) sequences the
// hand-off of the cell contents between them.
unsafe impl Send for EventRing {}
unsafe impl Sync for EventRing {}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.slots.len())
            .field("pushed", &self.pushed())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventRing {
    /// Creates a ring holding at least `capacity` events (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| RingSlot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        EventRing {
            slots,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            pushed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Pushes an event; returns `false` (and counts a drop) if the ring is
    /// full. Never blocks, never allocates.
    pub fn push(&self, event: SpanEvent) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive write
                        // access to this slot until the release store below.
                        unsafe { (*slot.value.get()).write(event) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        self.pushed.fetch_add(1, Ordering::Relaxed);
                        return true;
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                // The slot still holds an unconsumed event: ring is full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest event, or `None` if the ring is empty.
    pub fn pop(&self) -> Option<SpanEvent> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive read
                        // access; the producer's release store made the
                        // write visible.
                        let event = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(event);
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Total events successfully pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Total events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Lanes and the batch-traced flag
// ---------------------------------------------------------------------------

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Tri-state: 0 = unset, 1 = current batch untraced, 2 = traced.
    static BATCH_TRACED: Cell<u8> = const { Cell::new(0) };
}

fn current_lane() -> u32 {
    LANE.with(|lane| {
        let mut id = lane.get();
        if id == u32::MAX {
            id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            lane.set(id);
        }
        id
    })
}

/// Marks the current thread as serving a traced (or explicitly untraced)
/// batch. Set by the engine worker around the backend call so nested
/// recorders (backend sub-stages, shards, replicas) trace exactly the
/// batches the engine sampled.
pub fn set_batch_traced(traced: bool) {
    BATCH_TRACED.with(|flag| flag.set(if traced { 2 } else { 1 }));
}

/// Clears the per-thread batch-traced flag (back to "unset").
pub fn clear_batch_traced() {
    BATCH_TRACED.with(|flag| flag.set(0));
}

/// Returns the engine's tracing decision for the batch currently being
/// served on this thread, or `None` when no engine worker set one (e.g. a
/// backend driven directly); standalone recorders then self-sample.
pub fn batch_traced() -> Option<bool> {
    BATCH_TRACED.with(|flag| match flag.get() {
        1 => Some(false),
        2 => Some(true),
        _ => None,
    })
}

// ---------------------------------------------------------------------------
// Configuration, sink, gauges
// ---------------------------------------------------------------------------

/// Tuning knobs for the telemetry layer.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Trace one query in `sample_every` (by id); minimum 1 (= every query).
    pub sample_every: u64,
    /// Capacity of each recorder's event ring (rounded up to a power of 2).
    pub ring_capacity: usize,
    /// Cap on retained raw events for trace export / critical-path analysis;
    /// beyond this the registry keeps aggregating histograms but stops
    /// retaining raw events (counted, not silently).
    pub max_retained_events: usize,
}

impl TelemetryConfig {
    /// Default: sample 1-in-8 queries, 65 536-slot rings, retain ≤ 1 M events.
    pub fn new() -> Self {
        TelemetryConfig {
            sample_every: 8,
            ring_capacity: 1 << 16,
            max_retained_events: 1 << 20,
        }
    }

    /// Sets the sampling period (clamped to ≥ 1).
    pub fn with_sample_every(mut self, sample_every: u64) -> Self {
        self.sample_every = sample_every.max(1);
        self
    }

    /// Sets the per-recorder ring capacity.
    pub fn with_ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity;
        self
    }

    /// Sets the retained raw-event cap.
    pub fn with_max_retained_events(mut self, cap: usize) -> Self {
        self.max_retained_events = cap;
        self
    }

    /// Whether the query with this id is sampled.
    #[inline]
    pub fn samples(&self, query_id: u64) -> bool {
        query_id.is_multiple_of(self.sample_every)
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::new()
    }
}

/// A cloneable handle for recording span events into a registry-owned ring.
///
/// Cheap to clone (three `Arc`s); safe to share across threads — the ring is
/// MPMC and recording is wait-free aside from a bounded CAS loop.
#[derive(Debug, Clone)]
pub struct TelemetrySink {
    ring: Arc<EventRing>,
    epoch: Instant,
    sample_every: u64,
    probe: Arc<AtomicU64>,
    ids: Arc<AtomicU64>,
}

impl TelemetrySink {
    /// Microseconds elapsed since the registry epoch.
    #[inline]
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Records a span covering `start..end` (saturating if out of order).
    #[inline]
    pub fn record_range(&self, stage: Stage, query: u64, start: Instant, end: Instant) {
        let start_us = start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        let dur_us = end.saturating_duration_since(start).as_secs_f64() * 1e6;
        self.ring.push(SpanEvent {
            query,
            stage,
            lane: current_lane(),
            start_us,
            dur_us,
        });
    }

    /// Records a zero-duration instant event at "now".
    #[inline]
    pub fn record_instant(&self, stage: Stage, query: u64) {
        let now = Instant::now();
        self.record_range(stage, query, now, now);
    }

    /// Self-sampling decision for standalone recorders (backends or shard
    /// workers driven without an engine): true once per `sample_every` calls.
    #[inline]
    pub fn self_sample(&self) -> bool {
        self.probe
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample_every)
    }

    /// A fresh ordinal for correlating the sub-stage events of one query.
    #[inline]
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }
}

/// Live operational gauges tracked by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Requests waiting in the bounded admission queue.
    QueueDepth,
    /// Queries dispatched to workers and not yet resolved.
    InFlight,
    /// Size of the most recently dispatched batch.
    BatchSize,
    /// Entries currently resident in the query-result cache.
    CacheEntries,
    /// Healthy (non-quarantined) replicas across replica sets.
    HealthyReplicas,
}

impl Gauge {
    const COUNT: usize = 5;

    fn idx(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Aggregate {
    hists: Vec<LatencyHistogram>,
    totals: Vec<f64>,
    events: Vec<SpanEvent>,
    retained_truncated: u64,
    drained: u64,
}

/// Aggregates event rings into per-stage histograms, retains raw events for
/// trace export, and tracks operational gauges.
pub struct TelemetryRegistry {
    config: TelemetryConfig,
    epoch: Instant,
    rings: Mutex<Vec<Arc<EventRing>>>,
    agg: Mutex<Aggregate>,
    gauges: [AtomicI64; Gauge::COUNT],
}

impl TelemetryRegistry {
    /// Creates a registry with the given configuration.
    pub fn new(config: TelemetryConfig) -> Self {
        TelemetryRegistry {
            config,
            epoch: Instant::now(),
            rings: Mutex::new(Vec::new()),
            agg: Mutex::new(Aggregate {
                hists: (0..Stage::COUNT).map(|_| LatencyHistogram::new()).collect(),
                totals: vec![0.0; Stage::COUNT],
                events: Vec::new(),
                retained_truncated: 0,
                drained: 0,
            }),
            gauges: [const { AtomicI64::new(0) }; Gauge::COUNT],
        }
    }

    /// The registry's configuration.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// The instant all event timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Registers a new event ring and returns a sink recording into it.
    pub fn sink(&self) -> TelemetrySink {
        let ring = Arc::new(EventRing::with_capacity(self.config.ring_capacity));
        self.rings.lock().unwrap().push(Arc::clone(&ring));
        TelemetrySink {
            ring,
            epoch: self.epoch,
            sample_every: self.config.sample_every,
            probe: Arc::new(AtomicU64::new(0)),
            ids: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Drains every ring into the per-stage aggregate; returns the number of
    /// events consumed. Call periodically (or before reporting) — producers
    /// drop events once a ring fills.
    pub fn drain(&self) -> usize {
        let rings: Vec<Arc<EventRing>> = self.rings.lock().unwrap().clone();
        let mut agg = self.agg.lock().unwrap();
        let mut consumed = 0usize;
        for ring in &rings {
            while let Some(event) = ring.pop() {
                let idx = event.stage.idx();
                agg.hists[idx].record(event.dur_us);
                agg.totals[idx] += event.dur_us;
                if agg.events.len() < self.config.max_retained_events {
                    agg.events.push(event);
                } else {
                    agg.retained_truncated += 1;
                }
                consumed += 1;
            }
        }
        agg.drained += consumed as u64;
        consumed
    }

    /// Total events dropped at the rings because they were full.
    pub fn dropped(&self) -> u64 {
        self.rings.lock().unwrap().iter().map(|r| r.dropped()).sum()
    }

    /// Retained raw events (drains first). Clones the buffer so analysis can
    /// run while recording continues.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.drain();
        self.agg.lock().unwrap().events.clone()
    }

    /// Sets a gauge to an absolute value.
    pub fn set_gauge(&self, gauge: Gauge, value: i64) {
        self.gauges[gauge.idx()].store(value, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta to a gauge.
    pub fn add_gauge(&self, gauge: Gauge, delta: i64) {
        self.gauges[gauge.idx()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Current gauge value.
    pub fn gauge(&self, gauge: Gauge) -> i64 {
        self.gauges[gauge.idx()].load(Ordering::Relaxed)
    }

    /// Drains and returns a cumulative time-series snapshot (one JSONL row).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.drain();
        let agg = self.agg.lock().unwrap();
        let stages = Stage::ALL
            .iter()
            .filter(|s| !agg.hists[s.idx()].is_empty())
            .map(|s| {
                let h = &agg.hists[s.idx()];
                StageSnapshot {
                    stage: s.name().to_string(),
                    count: h.count(),
                    mean_us: h.mean(),
                    p50_us: h.percentile(50.0),
                    p99_us: h.percentile(99.0),
                }
            })
            .collect();
        TelemetrySnapshot {
            t_s: self.epoch.elapsed().as_secs_f64(),
            events: agg.drained,
            dropped: self.rings.lock().unwrap().iter().map(|r| r.dropped()).sum(),
            queue_depth: self.gauge(Gauge::QueueDepth),
            in_flight: self.gauge(Gauge::InFlight),
            batch_size: self.gauge(Gauge::BatchSize),
            cache_entries: self.gauge(Gauge::CacheEntries),
            healthy_replicas: self.gauge(Gauge::HealthyReplicas),
            stages,
        }
    }

    /// Drains and builds the per-stage breakdown attached to
    /// `ServeReport.stages`.
    pub fn stage_report(&self) -> StageReport {
        self.drain();
        let dropped = self.dropped();
        let agg = self.agg.lock().unwrap();

        let wall = &agg.hists[Stage::Wall.idx()];
        let wall_total = agg.totals[Stage::Wall.idx()];
        let path_total: f64 = Stage::ALL
            .iter()
            .filter(|s| s.is_query_path())
            .map(|s| agg.totals[s.idx()])
            .sum();
        let backend_total: f64 = Stage::ALL
            .iter()
            .filter(|s| s.is_backend_substage())
            .map(|s| agg.totals[s.idx()])
            .sum();

        let rows = Stage::ALL
            .iter()
            .filter(|s| !agg.hists[s.idx()].is_empty())
            .map(|s| {
                let h = &agg.hists[s.idx()];
                let total = agg.totals[s.idx()];
                let share = if s.is_query_path() && wall_total > 0.0 {
                    total / wall_total
                } else if s.is_backend_substage() && backend_total > 0.0 {
                    total / backend_total
                } else {
                    0.0
                };
                StageRow {
                    stage: s.name().to_string(),
                    count: h.count(),
                    mean_us: h.mean(),
                    p50_us: h.percentile(50.0),
                    p99_us: h.percentile(99.0),
                    total_us: total,
                    share,
                }
            })
            .collect();

        StageReport {
            sample_every: self.config.sample_every,
            events: agg.drained,
            dropped,
            retained_truncated: agg.retained_truncated,
            sampled_queries: wall.count(),
            wall_mean_us: wall.mean(),
            path_sum_mean_us: if wall.count() > 0 {
                path_total / wall.count() as f64
            } else {
                0.0
            },
            reconciliation: if wall_total > 0.0 {
                path_total / wall_total
            } else {
                0.0
            },
            rows,
        }
    }
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        TelemetryRegistry::new(TelemetryConfig::new())
    }
}

// ---------------------------------------------------------------------------
// Snapshots and reports
// ---------------------------------------------------------------------------

/// Per-stage cumulative statistics inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Serialize)]
pub struct StageSnapshot {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Spans recorded so far.
    pub count: u64,
    /// Mean span duration in microseconds.
    pub mean_us: f64,
    /// Median span duration in microseconds.
    pub p50_us: f64,
    /// 99th-percentile span duration in microseconds.
    pub p99_us: f64,
}

/// One cumulative time-series sample, serialized as a JSON Lines row.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetrySnapshot {
    /// Seconds since the registry epoch.
    pub t_s: f64,
    /// Events drained into the aggregate so far.
    pub events: u64,
    /// Events dropped at full rings so far.
    pub dropped: u64,
    /// Current admission-queue depth.
    pub queue_depth: i64,
    /// Queries dispatched and not yet resolved.
    pub in_flight: i64,
    /// Most recent dispatched batch size.
    pub batch_size: i64,
    /// Result-cache resident entries.
    pub cache_entries: i64,
    /// Healthy replicas (0 when no replica sets report).
    pub healthy_replicas: i64,
    /// Cumulative per-stage statistics (non-empty stages only).
    pub stages: Vec<StageSnapshot>,
}

/// One row of the per-stage breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct StageRow {
    /// Stage name ([`Stage::name`]).
    pub stage: String,
    /// Spans recorded for this stage.
    pub count: u64,
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Median duration in microseconds.
    pub p50_us: f64,
    /// 99th-percentile duration in microseconds.
    pub p99_us: f64,
    /// Summed duration in microseconds.
    pub total_us: f64,
    /// Share of summed wall time (path stages), share of backend compute
    /// (coarse/build_lut/scan), or 0 for infrastructure stages.
    pub share: f64,
}

/// The per-stage breakdown attached to `ServeReport.stages`.
#[derive(Debug, Clone, Serialize)]
pub struct StageReport {
    /// Sampling period the engine traced with (1 = every query).
    pub sample_every: u64,
    /// Events aggregated.
    pub events: u64,
    /// Events dropped at full rings (never blocks the hot path).
    pub dropped: u64,
    /// Events aggregated into histograms but not retained raw (cap hit).
    pub retained_truncated: u64,
    /// Sampled queries that reached a terminal stage (wall spans).
    pub sampled_queries: u64,
    /// Mean wall time of sampled queries, microseconds.
    pub wall_mean_us: f64,
    /// Mean summed path-stage time per sampled query, microseconds.
    pub path_sum_mean_us: f64,
    /// Σ path-stage time / Σ wall time — ≈ 1.0 when the breakdown fully
    /// accounts for wall latency.
    pub reconciliation: f64,
    /// Per-stage rows in lifecycle order (non-empty stages only).
    pub rows: Vec<StageRow>,
}

impl StageReport {
    /// Renders the one-screen stage-attribution table (the live-path Fig. 3
    /// analogue) printed by `serve_demo` and `serve_trace`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "stage attribution ({} sampled queries, 1-in-{} sampling, {} events, {} dropped)\n",
            self.sampled_queries, self.sample_every, self.events, self.dropped
        ));
        out.push_str(&format!(
            "  {:<14} {:>9} {:>11} {:>11} {:>11} {:>8}\n",
            "stage", "count", "mean_us", "p50_us", "p99_us", "share"
        ));
        let mut backend_header = false;
        let mut infra_header = false;
        for row in &self.rows {
            let stage = Stage::ALL
                .iter()
                .copied()
                .find(|s| s.name() == row.stage)
                .unwrap_or(Stage::Wall);
            if stage.is_backend_substage() && !backend_header {
                out.push_str("  -- backend pipeline (share of backend compute) --\n");
                backend_header = true;
            }
            if !stage.is_query_scoped() && !stage.is_backend_substage() && !infra_header {
                out.push_str("  -- infrastructure spans --\n");
                infra_header = true;
            }
            let share = if stage == Stage::Wall || (!stage.is_query_path() && row.share == 0.0) {
                "-".to_string()
            } else {
                format!("{:.1}%", row.share * 100.0)
            };
            out.push_str(&format!(
                "  {:<14} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>8}\n",
                row.stage, row.count, row.mean_us, row.p50_us, row.p99_us, share
            ));
        }
        out.push_str(&format!(
            "  path-sum mean {:.1} us vs wall mean {:.1} us (reconciliation {:.3})",
            self.path_sum_mean_us, self.wall_mean_us, self.reconciliation
        ));
        out
    }
}

// ---------------------------------------------------------------------------
// Critical-path analysis
// ---------------------------------------------------------------------------

/// One query's reconstructed lifecycle path.
#[derive(Debug, Clone)]
pub struct QueryPath {
    /// Engine query id.
    pub query: u64,
    /// Measured wall time in microseconds.
    pub wall_us: f64,
    /// Sum of path-stage durations in microseconds.
    pub path_us: f64,
    /// Path-stage durations in lifecycle order.
    pub spans: Vec<(Stage, f64)>,
    /// The stage that consumed the most time (the critical stage).
    pub dominant: Stage,
}

/// Aggregate output of [`analyze_critical_paths`].
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// Per-query paths, sorted by descending wall time.
    pub paths: Vec<QueryPath>,
    /// `(stage, total_us, share_of_total_wall)` in lifecycle order.
    pub attribution: Vec<(Stage, f64, f64)>,
    /// How many queries each stage dominated, sorted descending.
    pub dominant_counts: Vec<(Stage, u64)>,
}

impl CriticalPathReport {
    /// Renders the aggregate attribution plus dominant-stage counts.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path over {} sampled queries\n",
            self.paths.len()
        ));
        out.push_str(&format!(
            "  {:<14} {:>14} {:>8} {:>16}\n",
            "stage", "total_us", "share", "dominates_queries"
        ));
        for (stage, total, share) in &self.attribution {
            let dominated = self
                .dominant_counts
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            out.push_str(&format!(
                "  {:<14} {:>14.1} {:>7.1}% {:>16}\n",
                stage.name(),
                total,
                share * 100.0,
                dominated
            ));
        }
        if let Some(slowest) = self.paths.first() {
            out.push_str(&format!(
                "  slowest query #{}: wall {:.1} us, dominated by {}",
                slowest.query,
                slowest.wall_us,
                slowest.dominant.name()
            ));
        }
        out
    }
}

/// Groups query-scoped events by query id and computes each query's
/// critical path plus the aggregate stage attribution. Backend sub-stage
/// and infrastructure events (whose ids are private ordinals) are ignored.
pub fn analyze_critical_paths(events: &[SpanEvent]) -> CriticalPathReport {
    use std::collections::HashMap;

    let mut per_query: HashMap<u64, (f64, Vec<(Stage, f64)>)> = HashMap::new();
    for event in events {
        if !event.stage.is_query_scoped() {
            continue;
        }
        let entry = per_query.entry(event.query).or_insert((0.0, Vec::new()));
        if event.stage == Stage::Wall {
            entry.0 = event.dur_us;
        } else {
            entry.1.push((event.stage, event.dur_us));
        }
    }

    let stage_order = |s: Stage| s.idx();
    let mut paths: Vec<QueryPath> = per_query
        .into_iter()
        .filter(|(_, (wall, spans))| *wall > 0.0 && !spans.is_empty())
        .map(|(query, (wall_us, mut spans))| {
            spans.sort_by_key(|(s, _)| stage_order(*s));
            let path_us = spans.iter().map(|(_, d)| d).sum();
            let dominant = spans
                .iter()
                .cloned()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(s, _)| s)
                .unwrap_or(Stage::Wall);
            QueryPath {
                query,
                wall_us,
                path_us,
                spans,
                dominant,
            }
        })
        .collect();
    paths.sort_by(|a, b| b.wall_us.total_cmp(&a.wall_us));

    let total_wall: f64 = paths.iter().map(|p| p.wall_us).sum();
    let mut totals = [0.0f64; Stage::COUNT];
    let mut dominated = [0u64; Stage::COUNT];
    for path in &paths {
        for (stage, dur) in &path.spans {
            totals[stage.idx()] += dur;
        }
        dominated[path.dominant.idx()] += 1;
    }

    let attribution = Stage::ALL
        .iter()
        .copied()
        .filter(|s| s.is_query_path() && totals[s.idx()] > 0.0)
        .map(|s| {
            let total = totals[s.idx()];
            let share = if total_wall > 0.0 {
                total / total_wall
            } else {
                0.0
            };
            (s, total, share)
        })
        .collect();

    let mut dominant_counts: Vec<(Stage, u64)> = Stage::ALL
        .iter()
        .copied()
        .filter(|s| dominated[s.idx()] > 0)
        .map(|s| (s, dominated[s.idx()]))
        .collect();
    dominant_counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));

    CriticalPathReport {
        paths,
        attribution,
        dominant_counts,
    }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// Serializes events as Chrome trace-event JSON (the "JSON Object Format"
/// with a `traceEvents` array of `ph: "X"` complete events). Open the file
/// in `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are in
/// microseconds since the registry epoch; each recording thread maps to a
/// `tid`.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"serve\",\"ph\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"query\":{}}}}}",
            event.stage.name(),
            if event.dur_us == 0.0 && event.stage == Stage::Failover { "i" } else { "X" },
            event.start_us,
            event.dur_us,
            event.lane,
            event.query
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;
    use std::time::Duration;

    fn event(stage: Stage, query: u64, start_us: f64, dur_us: f64) -> SpanEvent {
        SpanEvent {
            query,
            stage,
            lane: 0,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn ring_roundtrips_in_fifo_order() {
        let ring = EventRing::with_capacity(8);
        for i in 0..5 {
            assert!(ring.push(event(Stage::Service, i, i as f64, 1.0)));
        }
        for i in 0..5 {
            assert_eq!(ring.pop().unwrap().query, i);
        }
        assert!(ring.pop().is_none());
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_blocking() {
        let ring = EventRing::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(event(Stage::Service, i, 0.0, 1.0)));
        }
        // The ring is full: pushes must return immediately with `false`
        // (drop-counted), never block the producer.
        let start = Instant::now();
        for _ in 0..100 {
            assert!(!ring.push(event(Stage::Service, 99, 0.0, 1.0)));
        }
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "full-ring pushes must not block"
        );
        assert_eq!(ring.dropped(), 100);
        assert_eq!(ring.pushed(), 4);
        // Earlier events are preserved, not overwritten.
        assert_eq!(ring.pop().unwrap().query, 0);
        // Space freed by the pop is reusable.
        assert!(ring.push(event(Stage::Service, 7, 0.0, 1.0)));
    }

    #[test]
    fn ring_capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(5).capacity(), 8);
        assert_eq!(EventRing::with_capacity(0).capacity(), 2);
        assert_eq!(EventRing::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn concurrent_producers_never_block_and_all_events_account() {
        let ring = Arc::new(EventRing::with_capacity(1 << 10));
        let stop = Arc::new(AtomicBool::new(false));
        let mut producers = Vec::new();
        for t in 0..4 {
            let ring = Arc::clone(&ring);
            producers.push(thread::spawn(move || {
                for i in 0..5_000u64 {
                    ring.push(event(Stage::Service, t * 1_000_000 + i, 0.0, 1.0));
                }
            }));
        }
        let consumer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                // Every successful pop is counted exactly once; the stop
                // flag is read *before* the pop, so the pop that comes back
                // empty after the flag was seen set happened after every
                // producer had finished.
                let mut popped = 0u64;
                loop {
                    let stopping = stop.load(Ordering::Acquire);
                    if ring.pop().is_some() {
                        popped += 1;
                    } else if stopping {
                        break popped;
                    }
                }
            })
        };
        for p in producers {
            p.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let popped = consumer.join().unwrap();
        // Whatever was not dropped was eventually popped.
        let mut rest = 0u64;
        while ring.pop().is_some() {
            rest += 1;
        }
        assert_eq!(ring.pushed(), popped + rest);
        assert_eq!(ring.pushed() + ring.dropped(), 20_000);
    }

    #[test]
    fn registry_aggregates_and_reconciles_telescoping_spans() {
        let registry = TelemetryRegistry::new(TelemetryConfig::new().with_sample_every(1));
        let sink = registry.sink();
        let epoch = registry.epoch();
        // Two synthetic queries with telescoping path spans.
        for q in 0..2u64 {
            let t0 = epoch + Duration::from_micros(10 * q);
            let t1 = t0 + Duration::from_micros(5);
            let t2 = t1 + Duration::from_micros(20);
            let t3 = t2 + Duration::from_micros(100);
            sink.record_range(Stage::Submit, q, t0, t1);
            sink.record_range(Stage::QueueWait, q, t1, t2);
            sink.record_range(Stage::Service, q, t2, t3);
            sink.record_range(Stage::Wall, q, t0, t3);
        }
        let report = registry.stage_report();
        assert_eq!(report.sampled_queries, 2);
        assert!(
            (report.reconciliation - 1.0).abs() < 1e-9,
            "telescoping spans must reconcile exactly, got {}",
            report.reconciliation
        );
        assert_eq!(report.events, 8);
        let service = report.rows.iter().find(|r| r.stage == "service").unwrap();
        assert_eq!(service.count, 2);
        assert!((service.mean_us - 100.0).abs() < 1e-6);
        // Share of wall: 100 / 125.
        assert!((service.share - 0.8).abs() < 1e-9);
        assert!(!report.table().is_empty());
    }

    #[test]
    fn gauges_track_set_and_add() {
        let registry = TelemetryRegistry::default();
        registry.set_gauge(Gauge::QueueDepth, 5);
        registry.add_gauge(Gauge::QueueDepth, -2);
        registry.add_gauge(Gauge::InFlight, 7);
        assert_eq!(registry.gauge(Gauge::QueueDepth), 3);
        assert_eq!(registry.gauge(Gauge::InFlight), 7);
        let snap = registry.snapshot();
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.in_flight, 7);
    }

    #[test]
    fn critical_path_attributes_dominant_stage() {
        let events = vec![
            event(Stage::Submit, 1, 0.0, 1.0),
            event(Stage::QueueWait, 1, 1.0, 500.0),
            event(Stage::BatchForm, 1, 501.0, 2.0),
            event(Stage::Service, 1, 503.0, 100.0),
            event(Stage::Reply, 1, 603.0, 3.0),
            event(Stage::Wall, 1, 0.0, 606.0),
            event(Stage::Submit, 2, 0.0, 1.0),
            event(Stage::QueueWait, 2, 1.0, 10.0),
            event(Stage::BatchForm, 2, 11.0, 2.0),
            event(Stage::Service, 2, 13.0, 800.0),
            event(Stage::Reply, 2, 813.0, 3.0),
            event(Stage::Wall, 2, 0.0, 816.0),
            // Sub-stage events with colliding ordinals must be ignored.
            event(Stage::Scan, 1, 0.0, 1e9),
        ];
        let report = analyze_critical_paths(&events);
        assert_eq!(report.paths.len(), 2);
        // Sorted by wall descending: query 2 first.
        assert_eq!(report.paths[0].query, 2);
        assert_eq!(report.paths[0].dominant, Stage::Service);
        assert_eq!(report.paths[1].dominant, Stage::QueueWait);
        for path in &report.paths {
            // The completed chain is five stages that telescope to wall.
            let stages: Vec<Stage> = path.spans.iter().map(|(s, _)| *s).collect();
            assert_eq!(
                stages,
                [
                    Stage::Submit,
                    Stage::QueueWait,
                    Stage::BatchForm,
                    Stage::Service,
                    Stage::Reply
                ]
            );
            assert!((path.path_us - path.wall_us).abs() < 1e-9);
        }
        let service = report
            .attribution
            .iter()
            .find(|(s, _, _)| *s == Stage::Service)
            .unwrap();
        assert!((service.1 - 900.0).abs() < 1e-9);
        assert!(!report.summary_table().is_empty());
    }

    #[test]
    fn chrome_trace_has_required_fields() {
        let events = vec![
            event(Stage::Service, 3, 12.5, 40.25),
            event(Stage::Failover, 0, 50.0, 0.0),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"service\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":12.500"));
        assert!(json.contains("\"dur\":40.250"));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn batch_traced_flag_is_tri_state_and_thread_local() {
        assert_eq!(batch_traced(), None);
        set_batch_traced(true);
        assert_eq!(batch_traced(), Some(true));
        set_batch_traced(false);
        assert_eq!(batch_traced(), Some(false));
        clear_batch_traced();
        assert_eq!(batch_traced(), None);
        // Another thread starts unset.
        std::thread::spawn(|| assert_eq!(batch_traced(), None))
            .join()
            .unwrap();
    }

    #[test]
    fn sampling_is_deterministic_by_id() {
        let config = TelemetryConfig::new().with_sample_every(4);
        assert!(config.samples(0));
        assert!(!config.samples(1));
        assert!(config.samples(4));
        let every = TelemetryConfig::new().with_sample_every(0);
        assert_eq!(every.sample_every, 1);
        assert!(every.samples(17));
    }
}
