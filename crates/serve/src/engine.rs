//! The multi-threaded [`QueryEngine`]: one bounded admission queue that a
//! worker pool over a [`SearchBackend`] drains into batches itself.
//!
//! Threading model (std threads, a mutex and two condvars — no async
//! runtime, no scheduler thread):
//!
//! ```text
//!  clients ──push──▶ [admission queue, bounded by queue_depth]
//!                        │  a free worker takes what is queued, up to
//!                        │  max_batch_size, under the queue lock:
//!                        │  shed expired → pick FIFO / EDF → dispatch
//!          worker 0 ◀────┤
//!          worker 1 ◀────┘  each: backend.search_batch
//!              │
//!              └──▶ per-request reply channel + shared metrics
//! ```
//!
//! The engine is work-conserving: a worker that is free never waits for
//! co-batched work, so an idle engine answers a lone query at once, and a
//! busy one batches by itself — arrivals accumulate while every worker is
//! inside the backend, and the next free worker takes them together.
//!
//! Backpressure is the queue bound: at most `queue_depth` accepted queries
//! wait at any instant (whatever the pickup order or shedding mode), and
//! beyond that [`QueryEngine::try_submit`] returns
//! [`SubmitError::QueueFull`] — the signal an upstream load balancer uses to
//! shed load — while [`QueryEngine::submit`] blocks until a worker makes
//! room. Shutdown is graceful: queued queries are drained, workers join, and
//! the final [`ServeReport`] accounts for every accepted query.
//!
//! Admission is optionally **deadline-aware**: when an SLO is configured,
//! every query carries an absolute deadline (`submitted + SLO`, or an
//! explicit per-query budget via [`QueryEngine::submit_with_budget`]). With
//! [`AdmissionPolicy::deadline_shedding`] enabled, each pickup first sheds
//! every queued query whose remaining budget is below the backend's modeled
//! service time — an EWMA the workers maintain from observed batches —
//! *before* wasting backend work on it, and the
//! [`PickupOrder::EarliestDeadlineFirst`] policy serves the most urgent
//! queries first. Both decisions see the whole queue. Shed queries are never
//! silently dropped: their tickets resolve with [`QueryStatus::Shed`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fanns_ivf::search::SearchResult;

use crate::backend::SearchBackend;
use crate::cache::{CacheKey, QueryResultCache};
use crate::metrics::{CacheReport, MetricsCollector, ServeReport};
use crate::telemetry::{self, Gauge, Stage, TelemetryRegistry, TelemetrySink};

/// Order in which a worker picks queued queries into a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PickupOrder {
    /// Arrival order — fair, and optimal when every query has the same
    /// deadline.
    #[default]
    Fifo,
    /// Earliest absolute deadline first: under overload, queries that can
    /// still meet their SLO are served before queries with more slack.
    /// Queries without a deadline sort after all deadlined ones, preserving
    /// arrival order among themselves.
    EarliestDeadlineFirst,
}

/// Batching policy: a free worker dispatches whatever is queued, up to
/// `max_batch_size` queries, and never waits for more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPolicy {
    /// Largest batch handed to the backend.
    pub max_batch_size: usize,
    /// How a worker orders queued queries into batches.
    pub pickup: PickupOrder,
}

impl BatchPolicy {
    /// A FIFO policy with the given size cap. `_max_wait` is accepted and
    /// unused: no worker waits for co-batched work, so there is no window
    /// to bound, and the parameter remains only because the repo's pinned
    /// benchmark calls this two-argument constructor.
    pub fn new(max_batch_size: usize, _max_wait: Duration) -> Self {
        Self {
            max_batch_size: max_batch_size.max(1),
            pickup: PickupOrder::Fifo,
        }
    }

    /// Builder-style pickup-order override.
    pub fn with_pickup(mut self, pickup: PickupOrder) -> Self {
        self.pickup = pickup;
        self
    }

    /// Latency-leaning default: batches of at most 8.
    pub fn low_latency() -> Self {
        Self::new(8, Duration::ZERO)
    }

    /// Throughput-leaning default: batches of up to 256.
    pub fn high_throughput() -> Self {
        Self::new(256, Duration::ZERO)
    }
}

/// Deadline-aware admission policy.
///
/// With shedding enabled, every pickup drops (with a resolved
/// [`QueryStatus::Shed`] ticket) any queued query whose deadline has passed
/// or whose remaining budget is below the modeled per-query service time, so
/// backend capacity is spent only on queries that can still meet their SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionPolicy {
    /// Shed queries that can no longer meet their deadline.
    pub deadline_shedding: bool,
    /// Seed for the modeled per-query service time (µs) before the workers
    /// have observed any batch; 0 means "shed only already-expired queries
    /// until the estimate warms up".
    pub initial_service_estimate_us: f64,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        Self {
            deadline_shedding: false,
            initial_service_estimate_us: 0.0,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The dynamic batching policy.
    pub batch: BatchPolicy,
    /// Worker threads executing batches on the backend.
    pub workers: usize,
    /// Capacity of the admission queue: the most accepted queries that may
    /// wait for a worker at once.
    pub queue_depth: usize,
    /// Latency SLO in microseconds; tracked in the report when set, and the
    /// source of each query's absolute deadline.
    pub slo_us: Option<f64>,
    /// Deadline-aware admission policy.
    pub admission: AdmissionPolicy,
}

impl EngineConfig {
    /// A sensible default: one worker per two cores, depth 1024, FIFO
    /// admission with no deadline shedding.
    pub fn new(batch: BatchPolicy) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| (n.get() / 2).max(1))
            .unwrap_or(1);
        Self {
            batch,
            workers,
            queue_depth: 1024,
            slo_us: None,
            admission: AdmissionPolicy::default(),
        }
    }

    /// Builder-style worker count override.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Builder-style queue depth override.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Builder-style SLO (µs). Queries submitted without an explicit budget
    /// get `submitted + SLO` as their absolute deadline.
    pub fn with_slo_us(mut self, slo_us: f64) -> Self {
        self.slo_us = Some(slo_us);
        self
    }

    /// Builder-style switch for deadline shedding (see [`AdmissionPolicy`]).
    pub fn with_deadline_shedding(mut self) -> Self {
        self.admission.deadline_shedding = true;
        self
    }

    /// Builder-style seed for the modeled per-query service time (µs) used
    /// by deadline shedding before any batch has been observed.
    pub fn with_service_estimate_us(mut self, estimate_us: f64) -> Self {
        self.admission.initial_service_estimate_us = estimate_us.max(0.0);
        self
    }
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The admission queue is full (backpressure) — retry later or shed.
    QueueFull,
    /// The engine is shutting down.
    ShuttingDown,
    /// The query's dimensionality does not match the backend.
    DimensionMismatch {
        /// Dimensionality the backend expects.
        expected: usize,
        /// Dimensionality of the rejected query.
        found: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "admission queue is full"),
            SubmitError::ShuttingDown => write!(f, "engine is shutting down"),
            SubmitError::DimensionMismatch { expected, found } => {
                write!(f, "query dim {found} does not match backend dim {expected}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// How a query's lifetime ended. Every accepted query resolves its ticket
/// with exactly one of these — nothing is silently dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// The backend answered; `results` holds the top-K hits.
    Completed,
    /// Deadline-aware admission shed the query before execution because it
    /// could no longer meet its deadline; `results` is empty.
    Shed,
    /// The backend failed the whole batch (e.g. every replica down);
    /// `results` is empty.
    Failed,
}

/// A finished query as delivered to its submitter.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// The id assigned at submission.
    pub id: u64,
    /// How the query ended; `results` is only meaningful for
    /// [`QueryStatus::Completed`].
    pub status: QueryStatus,
    /// The top-K hits (empty unless completed).
    pub results: Vec<SearchResult>,
    /// End-to-end wall latency (µs): submit → reply ready.
    pub latency_us: f64,
    /// Time spent queued before the batch formed (µs).
    pub queue_us: f64,
    /// Size of the batch this query was served in (0 when shed).
    pub batch_size: usize,
    /// Simulated device latency (µs) for simulated backends.
    pub simulated_us: Option<f64>,
}

/// A handle to a pending query.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<QueryReply>,
}

impl Ticket {
    /// The query id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the reply arrives. Returns `None` if the engine dropped
    /// the request (it was shut down mid-flight with the queue force-cleared).
    pub fn wait(self) -> Option<QueryReply> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll.
    pub fn poll(&self) -> Option<QueryReply> {
        self.rx.try_recv().ok()
    }
}

struct Request {
    id: u64,
    query: Vec<f32>,
    submitted: Instant,
    /// Absolute deadline (from the SLO or an explicit budget), when known.
    deadline: Option<Instant>,
    /// The query's result-cache key, when the engine has a cache and the
    /// lookup missed — the worker fills the cache under this key once the
    /// backend answers.
    cache_key: Option<CacheKey>,
    reply_tx: Sender<QueryReply>,
    /// Whether telemetry traces this query (`id % sample_every == 0`).
    /// Always `false` when the engine runs without a registry.
    sampled: bool,
    /// Stage boundary stamps, written as the request moves through the
    /// pipeline (only when `sampled`; initialized to `submitted` so spans
    /// degrade to zero duration rather than garbage if a stage is skipped).
    t_enqueued: Instant,
    t_picked: Instant,
}

impl Request {
    /// Resolves the ticket without backend results (shed / failed paths).
    /// `queue_us` is the time the query spent waiting for a batch; `None`
    /// means it never left the queue (shed), so queueing equals the wall
    /// time.
    fn resolve_empty(self, status: QueryStatus, batch_size: usize, queue_us: Option<f64>) {
        let wall_us = self.submitted.elapsed().as_secs_f64() * 1e6;
        // The client may have dropped its ticket; that is fine.
        let _ = self.reply_tx.send(QueryReply {
            id: self.id,
            status,
            results: Vec::new(),
            latency_us: wall_us,
            queue_us: queue_us.unwrap_or(wall_us),
            batch_size,
            simulated_us: None,
        });
    }
}

/// The workers' modeled per-query service time, read by the shedding
/// decision at every pickup.
type ServiceEstimate = crate::metrics::AtomicEwmaUs;

/// What the lock protects: the waiting queries and who is asleep on them.
struct QueueState {
    pending: VecDeque<Request>,
    /// Cleared by shutdown: no more admissions, workers exit once drained.
    open: bool,
    /// Workers asleep on `not_empty`.
    parked_workers: usize,
    /// Blocking submitters asleep on `not_full`.
    blocked_submitters: usize,
}

/// What one pickup removed from the queue.
struct Pickup {
    /// The next batch, at most `max_batch_size` queries (empty when the
    /// pickup shed everything that was waiting).
    batch: Vec<Request>,
    /// Queries that can no longer meet their deadline.
    shed: Vec<Request>,
}

/// The one queue between submitters and workers, bounded by `queue_depth`.
/// Submitters push under the lock; a free worker sheds, selects and removes
/// its next batch under the same lock, so both decisions see every waiting
/// query and the bound holds exactly.
struct AdmissionQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
    policy: BatchPolicy,
    admission: AdmissionPolicy,
    estimate: ServiceEstimate,
    telemetry: Option<Arc<TelemetryRegistry>>,
}

impl AdmissionQueue {
    fn new(config: &EngineConfig, telemetry: Option<Arc<TelemetryRegistry>>) -> Self {
        Self {
            state: Mutex::new(QueueState {
                pending: VecDeque::new(),
                open: true,
                parked_workers: 0,
                blocked_submitters: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: config.queue_depth,
            policy: config.batch,
            admission: config.admission,
            estimate: ServiceEstimate::new(config.admission.initial_service_estimate_us),
            telemetry,
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state
            .lock()
            .expect("admission queue lock poisoned: a thread panicked inside the queue")
    }

    fn publish_depth(&self, state: &QueueState) {
        if let Some(registry) = &self.telemetry {
            registry.set_gauge(Gauge::QueueDepth, state.pending.len() as i64);
        }
    }

    /// Appends an admitted request. A full queue refuses it, or with
    /// `wait_for_room` blocks until a pickup frees a slot.
    fn push(&self, mut request: Request, wait_for_room: bool) -> Result<(), SubmitError> {
        if request.sampled {
            request.t_enqueued = Instant::now();
        }
        let mut state = self.lock();
        while state.open && state.pending.len() >= self.depth {
            if !wait_for_room {
                return Err(SubmitError::QueueFull);
            }
            state.blocked_submitters += 1;
            state = self
                .not_full
                .wait(state)
                .expect("admission queue lock poisoned");
            state.blocked_submitters -= 1;
        }
        if !state.open {
            return Err(SubmitError::ShuttingDown);
        }
        state.pending.push_back(request);
        self.publish_depth(&state);
        // Only a parked worker needs waking. While every worker is busy
        // each looks at the queue again when its batch ends, so a submit
        // into a saturated engine makes no futex call.
        let wake = state.parked_workers > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Blocks until queries are waiting, then takes the next batch: sheds
    /// what can no longer meet its deadline, orders the rest by the pickup
    /// policy, and removes up to `max_batch_size` — all under the lock.
    /// `None` once the queue is closed and drained.
    fn next_pickup(&self) -> Option<Pickup> {
        let mut state = self.lock();
        while state.pending.is_empty() {
            if !state.open {
                return None;
            }
            state.parked_workers += 1;
            state = self
                .not_empty
                .wait(state)
                .expect("admission queue lock poisoned");
            state.parked_workers -= 1;
        }
        let now = Instant::now();
        let mut shed = Vec::new();
        if self.admission.deadline_shedding {
            // A query whose remaining budget is below the modeled service
            // time cannot meet its deadline: resolving it now costs nothing
            // and keeps backend capacity for queries that still can.
            let horizon = now + Duration::from_secs_f64(self.estimate.get_us().max(0.0) / 1e6);
            let late = |r: &Request| r.deadline.is_some_and(|deadline| horizon >= deadline);
            if state.pending.iter().any(late) {
                let mut kept = VecDeque::with_capacity(state.pending.len());
                for request in state.pending.drain(..) {
                    if late(&request) {
                        shed.push(request);
                    } else {
                        kept.push_back(request);
                    }
                }
                state.pending = kept;
            }
        }
        let take = state.pending.len().min(self.policy.max_batch_size);
        if self.policy.pickup == PickupOrder::EarliestDeadlineFirst {
            // Deadlined queries first, earliest first; the sort is stable,
            // so arrival order breaks ties and orders the deadline-less.
            // What stays behind is already in order for the next pickup.
            state
                .pending
                .make_contiguous()
                .sort_by_key(|r| (r.deadline.is_none(), r.deadline));
        }
        let mut batch: Vec<Request> = state.pending.drain(..take).collect();
        self.publish_depth(&state);
        let room_for_blocked = state.blocked_submitters > 0;
        drop(state);
        if room_for_blocked {
            self.not_full.notify_all();
        }
        for request in batch.iter_mut().chain(&mut shed) {
            if request.sampled {
                request.t_picked = now;
            }
        }
        Some(Pickup { batch, shed })
    }

    /// Stops admissions and wakes everyone: workers drain what is queued and
    /// exit, blocked submitters return [`SubmitError::ShuttingDown`].
    fn close(&self) {
        // Runs from `Drop`, so it must not panic: clearing a flag leaves the
        // state valid even if the lock was poisoned.
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .open = false;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// The online query-serving engine (see [`QueryEngine::start`] for a
/// runnable submit → wait → shutdown example).
pub struct QueryEngine {
    queue: Arc<AdmissionQueue>,
    workers: Vec<JoinHandle<()>>,
    metrics: Arc<Mutex<MetricsCollector>>,
    cache: Option<Arc<QueryResultCache>>,
    backend_name: String,
    dim: usize,
    k: usize,
    config: EngineConfig,
    next_id: AtomicU64,
    rejected: AtomicU64,
    cache_misses: AtomicU64,
    started: Instant,
    telemetry: Option<Arc<TelemetryRegistry>>,
    /// Sink for spans emitted on the submitter's thread (cache hits).
    front_sink: Option<TelemetrySink>,
}

/// The outcome of admitting one query: either the cache answered it on the
/// spot, or a request is ready for the admission queue.
enum Admission {
    /// Result-cache hit — the ticket's reply is already delivered.
    Resolved(Ticket),
    /// Cache miss (or no cache): enqueue the request.
    Enqueue(Request, Ticket),
}

impl QueryEngine {
    /// Starts the engine: spawns `config.workers` workers over the shared
    /// backend, all draining one admission queue.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use std::time::Duration;
    /// use fanns_serve::{BatchPolicy, EngineConfig, QueryEngine, QueryStatus};
    /// use fanns_serve::backend::FlatBackend;
    /// use fanns_dataset::types::VectorDataset;
    /// use fanns_ivf::flat::FlatIndex;
    ///
    /// // A tiny exact backend: 32 2-d vectors, top-3 per query.
    /// let db = VectorDataset::from_vectors(2, (0..32).map(|i| [i as f32, 0.0]));
    /// let backend = FlatBackend::new(FlatIndex::new(db), 3);
    ///
    /// // Start -> submit -> wait -> shutdown.
    /// let engine = QueryEngine::start(
    ///     Arc::new(backend),
    ///     EngineConfig::new(BatchPolicy::new(8, Duration::from_micros(200))),
    /// );
    /// let ticket = engine.submit(vec![5.2, 0.0]).expect("accepted");
    /// let reply = ticket.wait().expect("reply delivered");
    /// assert_eq!(reply.status, QueryStatus::Completed);
    /// assert_eq!(reply.results[0].id, 5);
    /// let report = engine.shutdown();
    /// assert_eq!(report.queries, 1);
    /// ```
    pub fn start(backend: Arc<dyn SearchBackend>, config: EngineConfig) -> Self {
        Self::start_with_cache(backend, config, None)
    }

    /// Starts the engine with a result cache in front of admission: every
    /// submission consults `cache` first, and a hit resolves the ticket as
    /// [`QueryStatus::Completed`] immediately — no queueing, no batching, no
    /// backend work, and none of the query's deadline budget consumed.
    /// Workers fill the cache as backend answers complete. The cache may be
    /// shared across engines (e.g. across an index swap — call
    /// [`QueryResultCache::invalidate_all`] when the backend changes).
    pub fn start_with_cache(
        backend: Arc<dyn SearchBackend>,
        config: EngineConfig,
        cache: Option<Arc<QueryResultCache>>,
    ) -> Self {
        Self::start_with_telemetry(backend, config, cache, None)
    }

    /// Starts the engine with tracing attached: when `telemetry` is `Some`,
    /// every `sample_every`-th query emits per-stage span events into the
    /// registry's lock-free rings, live gauges (queue depth, in-flight,
    /// batch size) are maintained, and [`QueryEngine::report`] /
    /// [`QueryEngine::shutdown`] attach the per-stage breakdown as
    /// `ServeReport.stages`. See `docs/OBSERVABILITY.md` for the event
    /// model and overhead budget.
    pub fn start_with_telemetry(
        backend: Arc<dyn SearchBackend>,
        config: EngineConfig,
        cache: Option<Arc<QueryResultCache>>,
        telemetry: Option<Arc<TelemetryRegistry>>,
    ) -> Self {
        let queue = Arc::new(AdmissionQueue::new(&config, telemetry.clone()));
        let metrics = Arc::new(Mutex::new(MetricsCollector::default()));

        let workers = (0..config.workers)
            .map(|w| {
                let ctx = WorkerCtx {
                    backend: Arc::clone(&backend),
                    queue: Arc::clone(&queue),
                    metrics: Arc::clone(&metrics),
                    cache: cache.clone(),
                    slo_us: config.slo_us,
                    sink: telemetry.as_ref().map(|t| t.sink()),
                };
                std::thread::Builder::new()
                    .name(format!("fanns-serve-worker-{w}"))
                    .spawn(move || ctx.run())
                    .expect("spawn worker thread")
            })
            .collect();

        Self {
            queue,
            workers,
            metrics,
            cache,
            backend_name: backend.name(),
            dim: backend.dim(),
            k: backend.k(),
            config,
            next_id: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            started: Instant::now(),
            front_sink: telemetry.as_ref().map(|t| t.sink()),
            telemetry,
        }
    }

    /// The backend's query dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Results per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Validates a submission and consults the result cache: a hit resolves
    /// the ticket on the caller's thread (no admission, no deadline budget
    /// consumed); a miss yields a queue-ready request carrying its cache key.
    fn admit(&self, query: Vec<f32>, budget: Option<Duration>) -> Result<Admission, SubmitError> {
        if query.len() != self.dim {
            return Err(SubmitError::DimensionMismatch {
                expected: self.dim,
                found: query.len(),
            });
        }
        let submitted = Instant::now();
        let mut cache_key = None;
        if let Some(cache) = &self.cache {
            let key = cache.key(&query);
            if let Some(results) = cache.get(&key) {
                let id = self.next_id.fetch_add(1, Ordering::Relaxed);
                let (reply_tx, reply_rx) = channel();
                let wall_us = submitted.elapsed().as_secs_f64() * 1e6;
                {
                    let mut collector = self.metrics.lock().expect("metrics lock");
                    collector.record_cache_hit(wall_us, self.config.slo_us);
                }
                if let (Some(registry), Some(sink)) = (&self.telemetry, &self.front_sink) {
                    if registry.config().samples(id) {
                        let done = Instant::now();
                        sink.record_range(Stage::CacheHit, id, submitted, done);
                        sink.record_range(Stage::Wall, id, submitted, done);
                    }
                }
                // The send cannot fail: the receiver is alive in our hands.
                let _ = reply_tx.send(QueryReply {
                    id,
                    status: QueryStatus::Completed,
                    results,
                    latency_us: wall_us,
                    queue_us: 0.0,
                    batch_size: 0,
                    simulated_us: None,
                });
                return Ok(Admission::Resolved(Ticket { id, rx: reply_rx }));
            }
            // Lock-free miss counting keeps the (common) miss path off the
            // metrics mutex — only hits pay for it, for the histogram.
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
            cache_key = Some(key);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel();
        // Explicit budget wins; otherwise the SLO sets the deadline.
        let deadline = budget.map(|b| submitted + b).or_else(|| {
            self.config
                .slo_us
                .map(|slo| submitted + Duration::from_secs_f64(slo / 1e6))
        });
        let sampled = match &self.telemetry {
            Some(registry) => registry.config().samples(id),
            None => false,
        };
        Ok(Admission::Enqueue(
            Request {
                id,
                query,
                submitted,
                deadline,
                cache_key,
                reply_tx,
                sampled,
                t_enqueued: submitted,
                t_picked: submitted,
            },
            Ticket { id, rx: reply_rx },
        ))
    }

    /// The one submission path: admit (a cache hit resolves here), then
    /// queue. `wait_for_room` is the closed-loop clients' blocking submit;
    /// without it a full queue is a counted rejection.
    fn submit_inner(
        &self,
        query: Vec<f32>,
        budget: Option<Duration>,
        wait_for_room: bool,
    ) -> Result<Ticket, SubmitError> {
        let (request, ticket) = match self.admit(query, budget)? {
            Admission::Resolved(ticket) => return Ok(ticket),
            Admission::Enqueue(request, ticket) => (request, ticket),
        };
        let pushed = self.queue.push(request, wait_for_room);
        if pushed == Err(SubmitError::QueueFull) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        pushed.map(|()| ticket)
    }

    /// Non-blocking submission; fails fast under backpressure. The query's
    /// deadline, if any, derives from the configured SLO. A result-cache hit
    /// resolves immediately and never touches the queue.
    pub fn try_submit(&self, query: Vec<f32>) -> Result<Ticket, SubmitError> {
        self.submit_inner(query, None, false)
    }

    /// Non-blocking submission with an explicit latency budget: the query's
    /// absolute deadline is `now + budget`, overriding the SLO-derived one.
    /// A result-cache hit resolves immediately regardless of the budget.
    pub fn try_submit_with_budget(
        &self,
        query: Vec<f32>,
        budget: Duration,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(query, Some(budget), false)
    }

    /// Blocking submission; waits for queue space (closed-loop clients).
    pub fn submit(&self, query: Vec<f32>) -> Result<Ticket, SubmitError> {
        self.submit_inner(query, None, true)
    }

    /// Blocking submission with an explicit latency budget (see
    /// [`QueryEngine::try_submit_with_budget`]).
    pub fn submit_with_budget(
        &self,
        query: Vec<f32>,
        budget: Duration,
    ) -> Result<Ticket, SubmitError> {
        self.submit_inner(query, Some(budget), true)
    }

    /// Queries rejected by backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The workers' current modeled per-query service time (µs) — the value
    /// deadline shedding compares remaining budgets against.
    pub fn service_estimate_us(&self) -> f64 {
        self.queue.estimate.get_us()
    }

    /// The result cache the engine consults, if one is attached.
    pub fn cache(&self) -> Option<&Arc<QueryResultCache>> {
        self.cache.as_ref()
    }

    /// The telemetry registry tracing this engine, if one is attached.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryRegistry>> {
        self.telemetry.as_ref()
    }

    /// Publishes point-in-time gauges the hot path cannot maintain
    /// incrementally (currently: result-cache occupancy). Call before
    /// snapshotting when both a cache and telemetry are attached; a no-op
    /// otherwise.
    pub fn publish_gauges(&self) {
        if let (Some(registry), Some(cache)) = (&self.telemetry, &self.cache) {
            registry.set_gauge(Gauge::CacheEntries, cache.stats().entries as i64);
        }
    }

    /// A point-in-time report over everything completed so far.
    pub fn report(&self) -> ServeReport {
        let collector = self.metrics.lock().expect("metrics lock");
        let report = ServeReport::from_collector(
            self.backend_name.clone(),
            &collector,
            self.started.elapsed().as_secs_f64(),
            self.rejected.load(Ordering::Relaxed),
            self.config.slo_us,
        );
        let report = match &self.cache {
            Some(cache) => report.with_cache_report(CacheReport::new(
                &collector,
                &cache.stats(),
                self.cache_misses.load(Ordering::Relaxed),
            )),
            None => report,
        };
        match &self.telemetry {
            Some(registry) => report.with_stage_report(registry.stage_report()),
            None => report,
        }
    }

    /// Graceful shutdown: stops admissions, drains queued queries, joins all
    /// threads, and returns the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.queue.close();
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread panicked");
        }
        self.report()
    }
}

impl Drop for QueryEngine {
    /// An engine dropped without [`QueryEngine::shutdown`] still closes its
    /// queue, so the (now detached) workers drain what was accepted and exit
    /// instead of sleeping on it forever.
    fn drop(&mut self) {
        self.queue.close();
    }
}

/// Everything a worker thread needs, bundled so the spawn site stays
/// readable (shared state, policies, telemetry).
struct WorkerCtx {
    backend: Arc<dyn SearchBackend>,
    queue: Arc<AdmissionQueue>,
    metrics: Arc<Mutex<MetricsCollector>>,
    cache: Option<Arc<QueryResultCache>>,
    slo_us: Option<f64>,
    /// This worker's span sink; `Some` exactly when the queue has a registry.
    sink: Option<TelemetrySink>,
}

impl WorkerCtx {
    /// A worker loop: takes the next batch the moment it is free, resolves
    /// what the pickup shed, executes the batch and delivers replies.
    fn run(self) {
        while let Some(Pickup { batch, shed }) = self.queue.next_pickup() {
            self.resolve_shed(shed);
            if !batch.is_empty() {
                self.serve(batch);
            }
        }
    }

    fn resolve_shed(&self, shed: Vec<Request>) {
        if shed.is_empty() {
            return;
        }
        let mut collector = self.metrics.lock().expect("metrics lock");
        collector.record_shed(shed.len() as u64);
        drop(collector);
        for req in shed {
            if let Some(sink) = self.sink.as_ref().filter(|_| req.sampled) {
                let done = Instant::now();
                sink.record_range(Stage::Submit, req.id, req.submitted, req.t_enqueued);
                sink.record_range(Stage::QueueWait, req.id, req.t_enqueued, req.t_picked);
                sink.record_range(Stage::Shed, req.id, req.t_picked, done);
                sink.record_range(Stage::Wall, req.id, req.submitted, done);
            }
            req.resolve_empty(QueryStatus::Shed, 0, None);
        }
    }

    fn serve(&self, batch: Vec<Request>) {
        let batch_size = batch.len();
        if let Some(registry) = &self.queue.telemetry {
            registry.add_gauge(Gauge::InFlight, batch_size as i64);
            registry.set_gauge(Gauge::BatchSize, batch_size as i64);
        }
        let queries: Vec<&[f32]> = batch.iter().map(|r| r.query.as_slice()).collect();
        // Mark the thread so nested recorders (backend sub-stages, shard
        // workers, replica sets) trace exactly the batches the engine
        // sampled, instead of self-sampling on their own cadence.
        if self.sink.is_some() {
            telemetry::set_batch_traced(batch.iter().any(|r| r.sampled));
        }
        let service_start = Instant::now();
        let outcome = self.backend.try_search_batch(&queries);
        let service_end = Instant::now();
        if self.sink.is_some() {
            telemetry::clear_batch_traced();
        }
        let service_us = (service_end - service_start).as_secs_f64() * 1e6;
        // The telescoping path spans of one resolved request: every boundary
        // instant is shared with the adjacent stage, so the stage durations
        // partition `submitted..done` exactly and the breakdown reconciles
        // with wall latency by construction. `terminal` is `Reply` for
        // completions and `Failed` for batch failures.
        let emit_spans = |req: &Request, terminal: Stage| {
            if let Some(sink) = self.sink.as_ref().filter(|_| req.sampled) {
                let done = Instant::now();
                sink.record_range(Stage::Submit, req.id, req.submitted, req.t_enqueued);
                sink.record_range(Stage::QueueWait, req.id, req.t_enqueued, req.t_picked);
                sink.record_range(Stage::BatchForm, req.id, req.t_picked, service_start);
                sink.record_range(Stage::Service, req.id, service_start, service_end);
                sink.record_range(terminal, req.id, service_end, done);
                sink.record_range(Stage::Wall, req.id, req.submitted, done);
            }
        };

        match outcome {
            Ok(responses) => {
                // A backend returning the wrong arity must fail loudly: a
                // silent zip truncation would drop the tail requests' replies
                // and break the "every accepted query is accounted for"
                // guarantee.
                assert_eq!(
                    responses.len(),
                    batch_size,
                    "backend returned {} responses for a batch of {batch_size}",
                    responses.len()
                );
                self.queue
                    .estimate
                    .observe_us(service_us / batch_size as f64);

                let completed = Instant::now();
                {
                    // Metrics only under the shared lock; cache fills and
                    // reply sends (clones, cache-shard locks) happen after it
                    // is released so submitters and sibling workers are not
                    // serialized behind this batch's delivery.
                    let mut collector = self.metrics.lock().expect("metrics lock");
                    collector.record_batch(batch_size, service_us);
                    for (request, response) in batch.iter().zip(&responses) {
                        let wall_us = (completed - request.submitted).as_secs_f64() * 1e6;
                        let queue_us = (service_start - request.submitted).as_secs_f64() * 1e6;
                        collector.record_query(
                            wall_us,
                            queue_us,
                            response.simulated_us,
                            self.slo_us,
                        );
                    }
                }
                for (request, response) in batch.into_iter().zip(responses) {
                    let wall_us = (completed - request.submitted).as_secs_f64() * 1e6;
                    let queue_us = (service_start - request.submitted).as_secs_f64() * 1e6;
                    // Fill the result cache so the next identical query
                    // short-circuits at admission — before the reply is
                    // delivered, so a client that waits on its ticket and
                    // resubmits the same query is guaranteed a hit. The
                    // insert checks the key's generation, so an answer
                    // computed against a since-swapped index is dropped.
                    if let (Some(cache), Some(key)) = (&self.cache, &request.cache_key) {
                        cache.insert(key, response.results.clone());
                    }
                    // The client may have dropped its ticket; that is fine.
                    let _ = request.reply_tx.send(QueryReply {
                        id: request.id,
                        status: QueryStatus::Completed,
                        results: response.results,
                        latency_us: wall_us,
                        queue_us,
                        batch_size,
                        simulated_us: response.simulated_us,
                    });
                    // Spans are stamped after the send, so the reply stage
                    // covers the full delivery (cache fill included).
                    emit_spans(&request, Stage::Reply);
                }
            }
            Err(_) => {
                // The whole batch failed (e.g. every replica down). Resolve
                // every ticket as Failed — accepted queries are never
                // silently dropped — and keep serving later batches.
                let mut collector = self.metrics.lock().expect("metrics lock");
                collector.record_failed(batch_size as u64);
                drop(collector);
                for request in batch {
                    let queue_us = (service_start - request.submitted).as_secs_f64() * 1e6;
                    emit_spans(&request, Stage::Failed);
                    request.resolve_empty(QueryStatus::Failed, batch_size, Some(queue_us));
                }
            }
        }
        if let Some(registry) = &self.queue.telemetry {
            registry.add_gauge(Gauge::InFlight, -(batch_size as i64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendResponse, SearchBackend};

    /// A deterministic toy backend: returns the query's first component as
    /// the "distance" and optionally sleeps to emulate service time.
    struct ToyBackend {
        dim: usize,
        k: usize,
        service: Duration,
    }

    impl SearchBackend for ToyBackend {
        fn name(&self) -> String {
            "toy".into()
        }

        fn dim(&self) -> usize {
            self.dim
        }

        fn k(&self) -> usize {
            self.k
        }

        fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
            if !self.service.is_zero() {
                std::thread::sleep(self.service);
            }
            echo(queries, Some(1.0))
        }
    }

    /// Every toy backend's answer: the query's first component as both the
    /// hit id and its distance.
    fn echo(queries: &[&[f32]], simulated_us: Option<f64>) -> Vec<BackendResponse> {
        queries
            .iter()
            .map(|q| BackendResponse {
                results: vec![SearchResult {
                    id: q[0] as u32,
                    distance: q[0],
                }],
                simulated_us,
            })
            .collect()
    }

    fn toy_engine(service: Duration, config: EngineConfig) -> QueryEngine {
        QueryEngine::start(
            Arc::new(ToyBackend {
                dim: 2,
                k: 1,
                service,
            }),
            config,
        )
    }

    #[test]
    fn replies_match_their_queries() {
        let engine = toy_engine(
            Duration::ZERO,
            EngineConfig::new(BatchPolicy::new(4, Duration::from_micros(100))).with_workers(2),
        );
        let tickets: Vec<Ticket> = (0..50)
            .map(|i| engine.submit(vec![i as f32, 0.0]).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let reply = t.wait().expect("reply delivered");
            assert_eq!(reply.results[0].id, i as u32);
            assert!(reply.latency_us >= 0.0);
            assert!(reply.batch_size >= 1);
            assert_eq!(reply.simulated_us, Some(1.0));
        }
        let report = engine.shutdown();
        assert_eq!(report.queries, 50);
        assert!(report.qps > 0.0);
    }

    #[test]
    fn dimension_mismatch_is_rejected_up_front() {
        let engine = toy_engine(
            Duration::ZERO,
            EngineConfig::new(BatchPolicy::low_latency()),
        );
        let err = engine.submit(vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(
            err,
            SubmitError::DimensionMismatch {
                expected: 2,
                found: 3
            }
        ));
        engine.shutdown();
    }

    #[test]
    fn batches_form_up_to_the_size_cap() {
        // Slow service + burst submission => later queries coalesce.
        let engine = toy_engine(
            Duration::from_millis(5),
            EngineConfig::new(BatchPolicy::new(16, Duration::from_millis(20))).with_workers(1),
        );
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| engine.submit(vec![i as f32, 0.0]).unwrap())
            .collect();
        let max_batch = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().batch_size)
            .max()
            .unwrap();
        assert!(
            max_batch > 1,
            "burst traffic should batch (max {max_batch})"
        );
        assert!(max_batch <= 16, "batch cap respected (max {max_batch})");
        let report = engine.shutdown();
        assert_eq!(report.queries, 64);
        assert!(report.mean_batch_size > 1.0);
    }

    #[test]
    fn backpressure_rejects_when_saturated() {
        // One very slow worker and a tiny queue: try_submit must eventually
        // report QueueFull instead of blocking.
        let engine = toy_engine(
            Duration::from_millis(50),
            EngineConfig::new(BatchPolicy::new(1, Duration::ZERO))
                .with_workers(1)
                .with_queue_depth(2),
        );
        let mut accepted = Vec::new();
        let mut rejections = 0u64;
        for i in 0..64 {
            match engine.try_submit(vec![i as f32, 0.0]) {
                Ok(t) => accepted.push(t),
                Err(SubmitError::QueueFull) => rejections += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(rejections > 0, "saturated engine must shed load");
        for t in accepted {
            assert!(t.wait().is_some(), "accepted queries still complete");
        }
        let report = engine.shutdown();
        assert_eq!(report.rejected, rejections);
        assert_eq!(report.queries + report.rejected, 64);
    }

    #[test]
    fn fifo_backpressure_is_bounded_without_shedding() {
        // The admission queue is the only place accepted queries wait: a
        // busy worker may not hoard arrivals outside it, so a saturated
        // engine rejects even a slow trickle of submissions (anything that
        // drained the queue ahead of the worker would keep it from ever
        // filling and accept everything, unboundedly).
        let engine = toy_engine(
            Duration::from_millis(50),
            EngineConfig::new(BatchPolicy::new(1, Duration::ZERO))
                .with_workers(1)
                .with_queue_depth(2),
        );
        let mut accepted = Vec::new();
        let mut rejections = 0u64;
        for i in 0..32 {
            // Slow enough that anything draining the queue ahead of the
            // worker would always win the race and never leave it full.
            std::thread::sleep(Duration::from_micros(200));
            match engine.try_submit(vec![i as f32, 0.0]) {
                Ok(t) => accepted.push(t),
                Err(SubmitError::QueueFull) => rejections += 1,
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(
            rejections > 0,
            "bounded admission must reject under sustained overload"
        );
        for t in accepted {
            assert!(t.wait().is_some());
        }
        engine.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let engine = toy_engine(
            Duration::from_millis(1),
            EngineConfig::new(BatchPolicy::new(8, Duration::from_micros(500))).with_workers(2),
        );
        let tickets: Vec<Ticket> = (0..200)
            .map(|i| engine.submit(vec![i as f32, 0.0]).unwrap())
            .collect();
        // Shut down immediately; every accepted query must still complete.
        let report = engine.shutdown();
        assert_eq!(report.queries, 200);
        for t in tickets {
            assert!(t.wait().is_some());
        }
    }

    #[test]
    fn deadline_shedding_resolves_expired_queries() {
        // Slow backend (5 ms/batch), 1 ms SLO: the first few batches fill
        // the pipeline; everything queued behind them exceeds its budget
        // while waiting and is shed -- with a resolved ticket, never dropped.
        let engine = toy_engine(
            Duration::from_millis(5),
            EngineConfig::new(BatchPolicy::new(1, Duration::ZERO))
                .with_workers(1)
                .with_slo_us(1_000.0)
                .with_deadline_shedding()
                .with_service_estimate_us(500.0),
        );
        let tickets: Vec<Ticket> = (0..32)
            .map(|i| engine.submit(vec![i as f32, 0.0]).unwrap())
            .collect();
        let mut completed = 0u64;
        let mut shed = 0u64;
        for t in tickets {
            let reply = t.wait().expect("every ticket resolves");
            match reply.status {
                QueryStatus::Completed => completed += 1,
                QueryStatus::Shed => {
                    shed += 1;
                    assert!(reply.results.is_empty());
                }
                QueryStatus::Failed => panic!("no failures expected"),
            }
        }
        assert!(shed > 0, "overloaded engine must shed");
        let report = engine.shutdown();
        assert_eq!(report.queries, completed);
        assert_eq!(report.shed, shed);
        assert_eq!(report.queries + report.shed, 32);
        assert!(report.goodput_qps <= report.qps || report.qps == 0.0);
    }

    #[test]
    fn queries_with_slack_are_not_shed() {
        let engine = toy_engine(
            Duration::ZERO,
            EngineConfig::new(BatchPolicy::low_latency())
                .with_slo_us(10_000_000.0)
                .with_deadline_shedding(),
        );
        for i in 0..20 {
            let reply = engine.submit(vec![i as f32, 0.0]).unwrap().wait().unwrap();
            assert_eq!(reply.status, QueryStatus::Completed);
        }
        let report = engine.shutdown();
        assert_eq!(report.queries, 20);
        assert_eq!(report.shed, 0);
    }

    #[test]
    fn edf_pickup_serves_urgent_queries_first() {
        // One worker at 30 ms/batch, batches of one. The fillers keep the
        // worker busy, so the relaxed and urgent queries accumulate in the
        // queue behind them. At its next pickup EDF must dispatch the urgent
        // one (tighter absolute deadline) first, even though the relaxed one
        // arrived earlier, and both before the deadline-less fillers.
        let engine = toy_engine(
            Duration::from_millis(30),
            EngineConfig::new(
                BatchPolicy::new(1, Duration::ZERO).with_pickup(PickupOrder::EarliestDeadlineFirst),
            )
            .with_workers(1),
        );
        let fillers: Vec<Ticket> = (0..4)
            .map(|i| engine.submit(vec![i as f32, 0.0]).unwrap())
            .collect();
        std::thread::sleep(Duration::from_millis(2));
        let relaxed = engine
            .submit_with_budget(vec![10.0, 0.0], Duration::from_secs(600))
            .unwrap();
        let urgent = engine
            .submit_with_budget(vec![11.0, 0.0], Duration::from_secs(300))
            .unwrap();
        let urgent_reply = urgent.wait().unwrap();
        let relaxed_reply = relaxed.wait().unwrap();
        for t in fillers {
            assert_eq!(t.wait().unwrap().status, QueryStatus::Completed);
        }
        assert_eq!(urgent_reply.status, QueryStatus::Completed);
        assert!(
            urgent_reply.latency_us < relaxed_reply.latency_us,
            "urgent ({:.0} us) must finish before relaxed ({:.0} us)",
            urgent_reply.latency_us,
            relaxed_reply.latency_us
        );
        engine.shutdown();
    }

    #[test]
    fn failed_batches_resolve_every_ticket() {
        struct BrokenBackend;
        impl SearchBackend for BrokenBackend {
            fn name(&self) -> String {
                "broken".into()
            }
            fn dim(&self) -> usize {
                2
            }
            fn k(&self) -> usize {
                1
            }
            fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
                let _ = queries;
                unreachable!("engine must use the fallible path")
            }
            fn try_search_batch(
                &self,
                queries: &[&[f32]],
            ) -> Result<Vec<BackendResponse>, crate::backend::BackendError> {
                let _ = queries;
                Err(crate::backend::BackendError::new("broken", "always down"))
            }
        }
        let engine = QueryEngine::start(
            Arc::new(BrokenBackend),
            EngineConfig::new(BatchPolicy::new(4, Duration::from_micros(100))).with_workers(2),
        );
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| engine.submit(vec![i as f32, 0.0]).unwrap())
            .collect();
        for t in tickets {
            let reply = t.wait().expect("failed queries still resolve");
            assert_eq!(reply.status, QueryStatus::Failed);
            assert!(reply.results.is_empty());
        }
        let report = engine.shutdown();
        assert_eq!(report.queries, 0);
        assert_eq!(report.failed, 16);
    }

    #[test]
    fn service_estimate_warms_up_from_observations() {
        let engine = toy_engine(
            Duration::from_millis(2),
            EngineConfig::new(BatchPolicy::new(1, Duration::ZERO)).with_workers(1),
        );
        assert_eq!(engine.service_estimate_us(), 0.0);
        for i in 0..8 {
            engine.submit(vec![i as f32, 0.0]).unwrap().wait().unwrap();
        }
        let est = engine.service_estimate_us();
        assert!(
            est >= 1_000.0,
            "estimate must reflect the ~2 ms service time: {est}"
        );
        engine.shutdown();
    }

    #[test]
    fn cache_hits_skip_the_backend_entirely() {
        use crate::cache::{QueryResultCache, ResultCacheConfig};
        use std::sync::atomic::AtomicUsize;

        /// Counts every query that reaches the backend.
        struct CountingBackend {
            served: AtomicUsize,
        }
        impl SearchBackend for CountingBackend {
            fn name(&self) -> String {
                "counting".into()
            }
            fn dim(&self) -> usize {
                2
            }
            fn k(&self) -> usize {
                1
            }
            fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
                self.served.fetch_add(queries.len(), Ordering::Relaxed);
                echo(queries, None)
            }
        }

        let backend = Arc::new(CountingBackend {
            served: AtomicUsize::new(0),
        });
        let cache = Arc::new(QueryResultCache::new(ResultCacheConfig::new(64)));
        let engine = QueryEngine::start_with_cache(
            Arc::clone(&backend) as Arc<dyn SearchBackend>,
            EngineConfig::new(BatchPolicy::new(4, Duration::from_micros(100))).with_workers(2),
            Some(Arc::clone(&cache)),
        );
        // Warm: 8 distinct queries reach the backend.
        for i in 0..8 {
            let reply = engine.submit(vec![i as f32, 0.0]).unwrap().wait().unwrap();
            assert_eq!(reply.status, QueryStatus::Completed);
        }
        let after_warm = backend.served.load(Ordering::Relaxed);
        assert_eq!(after_warm, 8);
        // Replay: identical queries must be served from the cache with the
        // same results and zero additional backend work.
        for i in 0..8 {
            let reply = engine.submit(vec![i as f32, 0.0]).unwrap().wait().unwrap();
            assert_eq!(reply.status, QueryStatus::Completed);
            assert_eq!(reply.results[0].id, i as u32);
            assert_eq!(reply.batch_size, 0, "hits never join a batch");
        }
        assert_eq!(
            backend.served.load(Ordering::Relaxed),
            after_warm,
            "replayed queries must not reach the backend"
        );
        let report = engine.shutdown();
        assert_eq!(report.queries, 16, "hits count as completed queries");
        let cache_report = report.cache.expect("cache section present");
        assert_eq!(cache_report.hits, 8);
        assert_eq!(cache_report.misses, 8);
        assert!((cache_report.hit_rate - 0.5).abs() < 1e-12);
        assert!(cache_report.hit_p50_us >= 0.0);
        assert_eq!(cache_report.insertions, 8);
    }

    #[test]
    fn cache_hits_do_not_consume_deadline_budget() {
        use crate::cache::{QueryResultCache, ResultCacheConfig};
        // Slow backend + aggressive shedding: a warm cache must answer even
        // queries whose budget is far below the modeled service time.
        let cache = Arc::new(QueryResultCache::new(ResultCacheConfig::new(16)));
        let engine = QueryEngine::start_with_cache(
            Arc::new(ToyBackend {
                dim: 2,
                k: 1,
                service: Duration::from_millis(5),
            }),
            EngineConfig::new(BatchPolicy::new(1, Duration::ZERO))
                .with_workers(1)
                .with_slo_us(1_000_000.0)
                .with_deadline_shedding()
                .with_service_estimate_us(5_000.0),
            Some(Arc::clone(&cache)),
        );
        // Warm the cache with a generous budget.
        let reply = engine
            .submit_with_budget(vec![3.0, 0.0], Duration::from_secs(60))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.status, QueryStatus::Completed);
        // A 1 µs budget is impossible for the 5 ms backend — but the hit
        // path never consults the deadline.
        let reply = engine
            .submit_with_budget(vec![3.0, 0.0], Duration::from_micros(1))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(
            reply.status,
            QueryStatus::Completed,
            "a cache hit must resolve without consuming deadline budget"
        );
        let report = engine.shutdown();
        assert_eq!(report.shed, 0);
        assert_eq!(report.cache.expect("cache section").hits, 1);
    }

    #[test]
    fn slo_attainment_is_tracked() {
        let engine = toy_engine(
            Duration::ZERO,
            EngineConfig::new(BatchPolicy::low_latency()).with_slo_us(10_000_000.0),
        );
        for i in 0..20 {
            engine.submit(vec![i as f32, 0.0]).unwrap().wait().unwrap();
        }
        let report = engine.shutdown();
        let attainment = report.slo_attainment.expect("slo configured");
        assert!(
            attainment > 0.99,
            "10 s SLO should always be met: {attainment}"
        );
    }
    /// A backend the test holds shut: every `search_batch` call announces
    /// the batch it was handed (each query's first component) and then
    /// blocks until the test lets one batch through.
    struct GatedBackend {
        entered: Mutex<Sender<Vec<u32>>>,
        release: Mutex<Receiver<()>>,
    }

    /// The test's side of a [`GatedBackend`]. Dropping it opens the gate for
    /// good.
    struct Gate {
        entered: Receiver<Vec<u32>>,
        release: Sender<()>,
    }

    impl Gate {
        /// Blocks until a worker is latched inside the backend; returns the
        /// batch it holds.
        fn entered(&self) -> Vec<u32> {
            self.entered
                .recv_timeout(Duration::from_secs(30))
                .expect("a worker enters the backend")
        }

        /// Lets the longest-latched batch finish.
        fn release_one(&self) {
            self.release.send(()).expect("backend alive");
        }
    }

    impl SearchBackend for GatedBackend {
        fn name(&self) -> String {
            "gated".into()
        }

        fn dim(&self) -> usize {
            2
        }

        fn k(&self) -> usize {
            1
        }

        fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
            let ids = queries.iter().map(|q| q[0] as u32).collect();
            // Either side of the gate may be gone once the test opened it.
            let _ = self.entered.lock().unwrap().send(ids);
            let _ = self.release.lock().unwrap().recv();
            echo(queries, None)
        }
    }

    fn gated_engine(config: EngineConfig) -> (QueryEngine, Gate) {
        let (entered_tx, entered_rx) = channel();
        let (release_tx, release_rx) = channel();
        let backend = GatedBackend {
            entered: Mutex::new(entered_tx),
            release: Mutex::new(release_rx),
        };
        let gate = Gate {
            entered: entered_rx,
            release: release_tx,
        };
        (QueryEngine::start(Arc::new(backend), config), gate)
    }

    fn query(id: u32) -> Vec<f32> {
        vec![id as f32, 0.0]
    }

    #[test]
    fn an_idle_worker_dispatches_a_lone_query_at_once() {
        // The wait bound is accepted and ignored: nothing holds a query back
        // for co-batched work while a worker is free.
        let engine = toy_engine(
            Duration::ZERO,
            EngineConfig::new(BatchPolicy::new(8, Duration::from_secs(5))).with_workers(1),
        );
        let started = Instant::now();
        let reply = engine.submit(query(7)).unwrap().wait().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "a lone query waited {:?} on an idle engine",
            started.elapsed()
        );
        assert_eq!(reply.status, QueryStatus::Completed);
        assert_eq!(reply.batch_size, 1);
        engine.shutdown();
    }

    #[test]
    fn queries_queued_behind_a_busy_worker_form_one_batch() {
        let (engine, gate) =
            gated_engine(EngineConfig::new(BatchPolicy::new(4, Duration::ZERO)).with_workers(1));
        let mut tickets = vec![engine.submit(query(0)).unwrap()];
        assert_eq!(gate.entered(), [0], "the idle worker takes the first alone");
        // Fewer than the cap: the free worker takes all of them together.
        tickets.extend((1..=3).map(|i| engine.submit(query(i)).unwrap()));
        gate.release_one();
        assert_eq!(gate.entered(), [1, 2, 3]);
        // More than the cap: a full batch, then the remainder.
        tickets.extend((4..=9).map(|i| engine.submit(query(i)).unwrap()));
        gate.release_one();
        assert_eq!(gate.entered(), [4, 5, 6, 7]);
        gate.release_one();
        assert_eq!(gate.entered(), [8, 9]);
        drop(gate);
        let sizes: Vec<usize> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().batch_size)
            .collect();
        assert_eq!(sizes, [1, 3, 3, 3, 4, 4, 4, 4, 2, 2]);
        assert_eq!(engine.shutdown().queries, 10);
    }

    #[test]
    fn admission_is_bounded_by_queue_depth_in_every_mode() {
        let fifo = BatchPolicy::new(2, Duration::ZERO);
        let edf = fifo.with_pickup(PickupOrder::EarliestDeadlineFirst);
        let modes = [
            ("fifo", EngineConfig::new(fifo)),
            ("edf", EngineConfig::new(edf)),
            (
                "shedding",
                EngineConfig::new(fifo)
                    .with_slo_us(600e6)
                    .with_deadline_shedding(),
            ),
        ];
        for (mode, config) in modes {
            let (engine, gate) = gated_engine(config.with_workers(1).with_queue_depth(5));
            let mut tickets = vec![engine.try_submit(query(0)).unwrap()];
            gate.entered(); // the worker holds query 0; the queue is empty
            for i in 1..=5 {
                let accepted = engine.try_submit(query(i));
                assert!(accepted.is_ok(), "{mode}: query {i} fits the queue");
                tickets.extend(accepted);
            }
            assert_eq!(
                engine.try_submit(query(6)).unwrap_err(),
                SubmitError::QueueFull,
                "{mode}: the queue holds exactly queue_depth queries"
            );
            assert_eq!(engine.rejected(), 1, "{mode}");
            drop(gate);
            for ticket in tickets {
                assert_eq!(ticket.wait().unwrap().status, QueryStatus::Completed);
            }
            let report = engine.shutdown();
            assert_eq!((report.queries, report.rejected), (6, 1), "{mode}");
        }
    }

    #[test]
    fn a_blocked_submit_resumes_when_a_pickup_frees_room() {
        let (engine, gate) = gated_engine(
            EngineConfig::new(BatchPolicy::new(2, Duration::ZERO))
                .with_workers(1)
                .with_queue_depth(2),
        );
        let mut tickets = vec![engine.submit(query(0)).unwrap()];
        assert_eq!(gate.entered(), [0]);
        // The worker is latched; these two fill the queue.
        tickets.extend((1..=2).map(|i| engine.submit(query(i)).unwrap()));
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| engine.submit(query(3)).unwrap());
            while engine.queue.lock().blocked_submitters != 1 {
                std::thread::yield_now();
            }
            assert_eq!(engine.rejected(), 0, "a blocking submit is not a rejection");
            gate.release_one();
            assert_eq!(gate.entered(), [1, 2]);
            // The pickup made room, so the submit returns while the worker
            // is still latched on the batch that made it.
            let ticket = blocked.join().unwrap();
            drop(gate);
            assert_eq!(ticket.wait().unwrap().status, QueryStatus::Completed);
        });
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().status, QueryStatus::Completed);
        }
        assert_eq!(engine.shutdown().queries, 4);
    }

    #[test]
    fn edf_and_shedding_see_the_whole_queue() {
        let policy =
            BatchPolicy::new(2, Duration::ZERO).with_pickup(PickupOrder::EarliestDeadlineFirst);
        let (engine, gate) = gated_engine(
            EngineConfig::new(policy)
                .with_workers(1)
                .with_deadline_shedding(),
        );
        let first = engine.submit(query(0)).unwrap();
        gate.entered();
        // Behind the busy worker, in arrival order: four relaxed queries,
        // then one whose budget is already spent, then the most urgent.
        let budgets_s = [600, 500, 400, 300, 0, 100];
        let tickets: Vec<Ticket> = (1u32..)
            .zip(budgets_s)
            .map(|(id, secs)| {
                engine
                    .submit_with_budget(query(id), Duration::from_secs(secs))
                    .unwrap()
            })
            .collect();
        // One pickup of two must reach past the first two arrivals: it
        // sheds arrival 5 and serves arrivals 6 and 4.
        gate.release_one();
        assert_eq!(gate.entered(), [6, 4]);
        gate.release_one();
        assert_eq!(gate.entered(), [3, 2]);
        gate.release_one();
        assert_eq!(gate.entered(), [1]);
        drop(gate);
        assert_eq!(first.wait().unwrap().status, QueryStatus::Completed);
        for (ticket, secs) in tickets.into_iter().zip(budgets_s) {
            let expected = match secs {
                0 => QueryStatus::Shed,
                _ => QueryStatus::Completed,
            };
            assert_eq!(ticket.wait().unwrap().status, expected, "budget {secs} s");
        }
        let report = engine.shutdown();
        assert_eq!((report.queries, report.shed), (6, 1));
    }

    #[test]
    fn shutdown_drains_the_queue_past_latched_and_parked_workers() {
        let (engine, gate) =
            gated_engine(EngineConfig::new(BatchPolicy::new(4, Duration::ZERO)).with_workers(2));
        let mut tickets = vec![engine.submit(query(0)).unwrap()];
        assert_eq!(gate.entered(), [0]);
        // One worker is latched; the other has nothing to do and parks.
        while engine.queue.lock().parked_workers != 1 {
            std::thread::yield_now();
        }
        // The parked worker wakes for these and is latched in turn with up
        // to four of them; the rest wait with no free worker.
        tickets.extend((1..=9).map(|i| engine.submit(query(i)).unwrap()));
        let second = gate.entered();
        assert!((1..=4).contains(&second.len()), "second batch {second:?}");
        // Admissions close with work still queued and both workers busy;
        // only then does the backend let anything through.
        engine.queue.close();
        assert_eq!(
            engine.try_submit(query(10)).unwrap_err(),
            SubmitError::ShuttingDown
        );
        drop(gate);
        let report = engine.shutdown();
        assert_eq!(report.queries, 10);
        for ticket in tickets {
            assert_eq!(ticket.wait().unwrap().status, QueryStatus::Completed);
        }
    }
}
