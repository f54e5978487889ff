//! The load generator: one generator thread (the caller) and one completion
//! collector. Everything is stamped on one [`Clock`], from outside the
//! program: around `submit`, at ticket resolution, and around the backend
//! call through the [`TracedBackend`] decorator.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::adapter::{
    BackendError, BackendResponse, QueryEngine, QueryReply, QueryStatus, SearchBackend,
    SegmentedStats, Ticket, Vectors,
};
use crate::fixture::K;
use crate::gen::{permutation, PoissonSchedule, Rng, Zipf};

/// Nanoseconds since the start of a run, shared by every stamping thread.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.0).as_nanos() as u64
    }
}

/// One backend call as the decorator saw it. `queries` are the addresses of
/// the query buffers, which survive the move into the engine and so link the
/// batch back to the requests that were submitted with those buffers.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    pub start_ns: u64,
    pub end_ns: u64,
    pub queries: Vec<usize>,
}

/// A [`SearchBackend`] that stamps every batch the engine hands to the
/// backend it wraps. Only traced runs use it.
pub struct TracedBackend {
    inner: Arc<dyn SearchBackend>,
    clock: Clock,
    log: Mutex<Vec<BatchRecord>>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn SearchBackend>, clock: Clock, capacity: usize) -> Self {
        Self {
            inner,
            clock,
            log: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    pub fn take_log(&self) -> Vec<BatchRecord> {
        std::mem::take(&mut *self.log.lock().expect("batch log lock"))
    }
}

impl SearchBackend for TracedBackend {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
        self.inner.search_batch(queries)
    }

    fn try_search_batch(&self, queries: &[&[f32]]) -> Result<Vec<BackendResponse>, BackendError> {
        let start_ns = self.clock.now_ns();
        let outcome = self.inner.try_search_batch(queries);
        let end_ns = self.clock.now_ns();
        self.log.lock().expect("batch log lock").push(BatchRecord {
            start_ns,
            end_ns,
            queries: queries.iter().map(|q| q.as_ptr() as usize).collect(),
        });
        outcome
    }

    fn supports_mutation(&self) -> bool {
        self.inner.supports_mutation()
    }

    fn insert(&self, vector: &[f32]) -> Option<u32> {
        self.inner.insert(vector)
    }

    fn delete(&self, id: u32) -> bool {
        self.inner.delete(id)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loop {
    /// Poisson arrivals at this rate; the generator sleeps to each due time
    /// and never spins, and latency counts from the due instant.
    Open { rate_per_s: f64 },
    /// This many requests in flight; the next is sent when one completes.
    Closed { in_flight: usize },
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    RoundRobin,
    Zipf { theta: f64 },
}

/// Writes beside reads: one mutation before every 2nd query, alternating
/// insert (next held-out vector) and delete (next id of a seeded permutation
/// of the initial ids), so the live count stays constant.
pub struct Mutation<'a> {
    pub backend: Arc<dyn SearchBackend>,
    pub insert_pool: &'a Vectors,
    pub initial_ids: usize,
    pub stats: &'a dyn Fn() -> SegmentedStats,
}

const QUERIES_PER_MUTATION: u64 = 2;
/// Every this-many-th insert is followed by a query for the inserted vector.
const INSERTS_PER_PROBE: u64 = 64;
const MUTATIONS_PER_STATS_SAMPLE: u64 = 64;

/// When to measure: after `warmup`, `segments` windows of `segment` each.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    pub warmup: Duration,
    pub segment: Duration,
    pub segments: usize,
}

impl Windows {
    pub fn end_ns(&self) -> u64 {
        (self.warmup + self.segment * self.segments as u32).as_nanos() as u64
    }

    pub fn measured_s(&self) -> f64 {
        self.segment.as_secs_f64() * self.segments as f64
    }

    /// The measured segment `t_ns` falls in, if any.
    pub fn segment_of(&self, t_ns: u64) -> Option<usize> {
        let t = t_ns.checked_sub(self.warmup.as_nanos() as u64)?;
        let idx = (t / self.segment.as_nanos() as u64) as usize;
        (idx < self.segments).then_some(idx)
    }
}

/// One request as stamped from outside (traced runs keep all of them).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due instant (open loop) or submit instant (closed loop).
    pub start_ns: u64,
    pub submit_ns: u64,
    pub done_ns: u64,
    /// `QueryReply::queue_us`, `latency_us`, `batch_size` (0 = cache hit).
    pub queue_us: f32,
    pub engine_us: f32,
    pub batch_size: u32,
    pub buffer: usize,
}

/// A reply's ids, kept on the mutable workload for the delete gate.
#[derive(Debug, Clone, Copy)]
struct ReplyIds {
    submit_ns: u64,
    ids: [u32; K],
}

/// What one thread (generator or collector) observed.
#[derive(Debug, Default)]
struct Tally {
    latencies_us: Vec<Vec<f64>>,
    completed: Vec<u64>,
    attempted: u64,
    failed: u64,
    probe_misses: u64,
    samples: Vec<Sample>,
    replies: Vec<ReplyIds>,
}

/// A submitted request, as the generator stamped it.
struct Pending {
    start_ns: u64,
    submit_ns: u64,
    buffer: usize,
    /// For a probe query: the id that must come back first.
    expect_first: Option<u32>,
}

#[derive(Clone, Copy)]
struct Recording {
    windows: Windows,
    clock: Clock,
    keep_samples: bool,
    keep_replies: bool,
}

impl Tally {
    fn new(windows: Windows) -> Self {
        Tally {
            latencies_us: vec![Vec::new(); windows.segments],
            completed: vec![0; windows.segments],
            ..Tally::default()
        }
    }

    /// Books one resolved (or lost) request. A reply that is missing, not
    /// `Completed`, empty or longer than `K` is a failed operation; it has
    /// no latency, so it misses any latency limit. (A reply may be shorter
    /// than `K`: at nprobe 1 a probed list can hold fewer vectors.)
    fn record(&mut self, rec: &Recording, p: &Pending, reply: Option<QueryReply>, done_ns: u64) {
        let measured = rec.windows.segment_of(p.start_ns);
        if measured.is_some() {
            self.attempted += 1;
        }
        let reply = reply
            .filter(|r| r.status == QueryStatus::Completed && (1..=K).contains(&r.results.len()));
        let Some(reply) = reply else {
            self.failed += u64::from(measured.is_some());
            return;
        };
        if let Some(expected) = p.expect_first {
            self.probe_misses += u64::from(reply.results[0].id != expected);
        }
        if let Some(seg) = measured {
            self.latencies_us[seg].push((done_ns - p.start_ns) as f64 / 1e3);
        }
        if let Some(seg) = rec.windows.segment_of(done_ns) {
            self.completed[seg] += 1;
        }
        if rec.keep_samples && measured.is_some() {
            self.samples.push(Sample {
                start_ns: p.start_ns,
                submit_ns: p.submit_ns,
                done_ns,
                queue_us: reply.queue_us as f32,
                engine_us: reply.latency_us as f32,
                batch_size: reply.batch_size as u32,
                buffer: p.buffer,
            });
        }
        if rec.keep_replies {
            let mut ids = [u32::MAX; K];
            for (slot, hit) in ids.iter_mut().zip(&reply.results) {
                *slot = hit.id;
            }
            self.replies.push(ReplyIds {
                submit_ns: p.submit_ns,
                ids,
            });
        }
    }

    fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.latencies_us.iter_mut().zip(other.latencies_us) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.completed.iter_mut().zip(other.completed) {
            *mine += theirs;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.probe_misses += other.probe_misses;
        self.samples.extend(other.samples);
        self.replies.extend(other.replies);
    }
}

/// What the generator saw of its own mutations.
#[derive(Debug, Default)]
pub struct MutationLog {
    pub insert_ns: Vec<u64>,
    pub delete_ns: Vec<u64>,
    pub write_vectors: Vec<usize>,
    /// Replies that held a deleted id, probes whose vector was not first,
    /// and deletes of a live id that reported `false`.
    pub violations: u64,
    pub probes: u64,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct RunOutput {
    pub windows: Windows,
    /// Per measured segment: latencies (µs) of the requests due in it.
    pub latencies_us: Vec<Vec<f64>>,
    /// Per measured segment: requests that completed in it.
    pub completed: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Submit-side lateness (µs) of measured open-loop requests.
    pub lateness_us: Vec<f64>,
    pub samples: Vec<Sample>,
    pub mutation: MutationLog,
}

pub struct Drive<'a> {
    pub engine: &'a QueryEngine,
    pub queries: &'a Vectors,
    pub looping: Loop,
    pub draw: Draw,
    pub seed: u64,
    pub clock: Clock,
    pub windows: Windows,
    pub keep_samples: bool,
    pub mutation: Option<Mutation<'a>>,
}

/// Picks pool queries in the workload's order.
struct Picker {
    next: usize,
    pool: usize,
    zipf: Option<Zipf>,
}

impl Picker {
    fn pick(&mut self) -> usize {
        match &mut self.zipf {
            Some(zipf) => zipf.draw(),
            None => {
                self.next = (self.next + 1) % self.pool;
                self.next
            }
        }
    }
}

struct Mutator<'a> {
    target: Mutation<'a>,
    delete_order: Vec<u32>,
    queries_seen: u64,
    inserts: u64,
    deletes: usize,
    deleted_at_ns: HashMap<u32, u64>,
    log: MutationLog,
}

impl Mutator<'_> {
    /// Runs the mutation due before this query, if one is. Returns the
    /// probe (vector, id) when the next query must be the inserted vector.
    fn before_query(&mut self, clock: Clock) -> Option<(Vec<f32>, u32)> {
        self.queries_seen += 1;
        if !self.queries_seen.is_multiple_of(QUERIES_PER_MUTATION)
            || self.deletes >= self.delete_order.len()
        {
            return None;
        }
        let mutations = self.inserts + self.deletes as u64;
        if mutations.is_multiple_of(MUTATIONS_PER_STATS_SAMPLE) {
            self.log
                .write_vectors
                .push((self.target.stats)().write_vectors);
        }
        if mutations.is_multiple_of(2) {
            let pool = self.target.insert_pool;
            let slot = self.inserts as usize;
            let vector = pool.get(slot % pool.len());
            let t = Instant::now();
            let id = self
                .target
                .backend
                .insert(vector)
                .expect("a mutable backend");
            self.log.insert_ns.push(t.elapsed().as_nanos() as u64);
            self.inserts += 1;
            // Once the pool wraps, an older copy of the vector is live too
            // and may rank first; probe only the first pass.
            let probe = self.inserts.is_multiple_of(INSERTS_PER_PROBE) && slot < pool.len();
            probe.then(|| {
                self.log.probes += 1;
                (vector.to_vec(), id)
            })
        } else {
            let id = self.delete_order[self.deletes];
            self.deletes += 1;
            let t = Instant::now();
            let was_live = self.target.backend.delete(id);
            self.log.delete_ns.push(t.elapsed().as_nanos() as u64);
            self.deleted_at_ns.insert(id, clock.now_ns());
            self.log.violations += u64::from(!was_live);
            None
        }
    }
}

/// The submitting side of a run: draws queries, runs the mutations due
/// before them, stamps and submits, and books whatever resolves at once.
struct Client<'a> {
    engine: &'a QueryEngine,
    queries: &'a Vectors,
    rec: Recording,
    picker: Picker,
    mutator: Option<Mutator<'a>>,
    tally: Tally,
    lateness_us: Vec<f64>,
}

impl Client<'_> {
    /// Submits the next request; `due_ns` is its due instant on an open
    /// loop. Returns the ticket if the reply is still to come.
    fn submit_next(&mut self, due_ns: Option<u64>) -> Option<(Ticket, Pending)> {
        let clock = self.rec.clock;
        let probe = self.mutator.as_mut().and_then(|m| m.before_query(clock));
        let (query, expect_first) = match probe {
            Some((vector, id)) => (vector, Some(id)),
            None => (self.queries.get(self.picker.pick()).to_vec(), None),
        };
        let buffer = query.as_ptr() as usize;
        let submit_ns = clock.now_ns();
        // Open loop: refuse rather than wait when the queue is full, and
        // count latency from when the request was due, not when it left.
        let submitted = if due_ns.is_some() {
            self.engine.try_submit(query)
        } else {
            self.engine.submit(query)
        };
        let pending = Pending {
            start_ns: due_ns.unwrap_or(submit_ns),
            submit_ns,
            buffer,
            expect_first,
        };
        if let Some(due) = due_ns.filter(|&due| self.rec.windows.segment_of(due).is_some()) {
            self.lateness_us.push((submit_ns - due) as f64 / 1e3);
        }
        let Ok(ticket) = submitted else {
            // Refused at admission: attempted and failed.
            self.tally.record(&self.rec, &pending, None, submit_ns);
            return None;
        };
        // A cache hit resolves on the submitting thread.
        match ticket.poll() {
            Some(reply) => {
                let done_ns = clock.now_ns();
                // Resolved once: nothing more may arrive on the ticket.
                let again = ticket.poll().is_some();
                self.tally
                    .record(&self.rec, &pending, (!again).then_some(reply), done_ns);
                None
            }
            None => Some((ticket, pending)),
        }
    }

    /// Open loop: sleep to each due time (never spin: on two cores a
    /// spinning generator steals the engine's CPU), hand tickets to the
    /// collector thread, which waits for them in order.
    fn run_open(&mut self, rate_per_s: f64, seed: u64, tickets: Sender<(Ticket, Pending)>) {
        let end_ns = self.rec.windows.end_ns();
        for due_ns in PoissonSchedule::new(seed, rate_per_s) {
            if due_ns >= end_ns {
                break;
            }
            let now_ns = self.rec.clock.now_ns();
            if due_ns > now_ns {
                std::thread::sleep(Duration::from_nanos(due_ns - now_ns));
            }
            if let Some(pending) = self.submit_next(Some(due_ns)) {
                tickets.send(pending).expect("collector alive");
            }
        }
    }

    /// Closed loop, on this thread alone: collect what has resolved (oldest
    /// first), refill to `limit` in flight, and only when full block on the
    /// oldest ticket. A second client thread would compete with the
    /// engine's batcher and worker for the two cores.
    fn run_closed(&mut self, limit: usize) {
        let end_ns = self.rec.windows.end_ns();
        let mut in_flight: VecDeque<(Ticket, Pending)> = VecDeque::with_capacity(limit);
        loop {
            while let Some(reply) = in_flight.front().and_then(|(ticket, _)| ticket.poll()) {
                let done_ns = self.rec.clock.now_ns();
                let (_, pending) = in_flight.pop_front().expect("polled the front");
                self.tally.record(&self.rec, &pending, Some(reply), done_ns);
            }
            if self.rec.clock.now_ns() >= end_ns {
                break;
            }
            if in_flight.len() < limit {
                in_flight.extend(self.submit_next(None));
            } else {
                let (ticket, pending) = in_flight.pop_front().expect("limit is at least 1");
                let reply = ticket.wait();
                let done_ns = self.rec.clock.now_ns();
                self.tally.record(&self.rec, &pending, reply, done_ns);
            }
        }
        for (ticket, pending) in in_flight {
            let reply = ticket.wait();
            let done_ns = self.rec.clock.now_ns();
            self.tally.record(&self.rec, &pending, reply, done_ns);
        }
    }
}

/// The open loop's collector: waits for every ticket, in submit order.
fn collect(rec: Recording, tickets: Receiver<(Ticket, Pending)>) -> Tally {
    let mut tally = Tally::new(rec.windows);
    for (ticket, pending) in tickets {
        // `None`: the engine dropped the request without resolving it.
        let reply = ticket.wait();
        let done_ns = rec.clock.now_ns();
        tally.record(&rec, &pending, reply, done_ns);
    }
    tally
}

impl Drive<'_> {
    /// Generates load until the last measured segment ends, then drains what
    /// is in flight. Every accepted ticket is waited for exactly once.
    pub fn run(self) -> RunOutput {
        let rec = Recording {
            windows: self.windows,
            clock: self.clock,
            keep_samples: self.keep_samples,
            keep_replies: self.mutation.is_some(),
        };
        let mut client = Client {
            engine: self.engine,
            queries: self.queries,
            rec,
            picker: Picker {
                next: 0,
                pool: self.queries.len(),
                zipf: match self.draw {
                    Draw::RoundRobin => None,
                    Draw::Zipf { theta } => Some(Zipf::new(self.seed, self.queries.len(), theta)),
                },
            },
            mutator: self.mutation.map(|target| Mutator {
                delete_order: permutation(
                    &mut Rng::stream(self.seed, "delete-order"),
                    target.initial_ids,
                ),
                target,
                queries_seen: 0,
                inserts: 0,
                deletes: 0,
                deleted_at_ns: HashMap::new(),
                log: MutationLog::default(),
            }),
            tally: Tally::new(rec.windows),
            lateness_us: Vec::new(),
        };
        match self.looping {
            Loop::Open { rate_per_s } => {
                let (tickets_tx, tickets_rx) = channel();
                let collected = std::thread::scope(|scope| {
                    let collector = scope.spawn(move || collect(rec, tickets_rx));
                    client.run_open(rate_per_s, self.seed, tickets_tx);
                    collector.join().expect("collector thread")
                });
                client.tally.merge(collected);
            }
            Loop::Closed { in_flight } => client.run_closed(in_flight),
        }

        let tally = client.tally;
        let mut mutation = MutationLog::default();
        if let Some(m) = client.mutator {
            mutation = m.log;
            mutation.violations += tally.probe_misses;
            for reply in &tally.replies {
                let stale = reply.ids.iter().any(|id| {
                    m.deleted_at_ns
                        .get(id)
                        .is_some_and(|&deleted| deleted < reply.submit_ns)
                });
                mutation.violations += u64::from(stale);
            }
        }
        RunOutput {
            windows: rec.windows,
            latencies_us: tally.latencies_us,
            completed: tally.completed,
            attempted: tally.attempted,
            failed: tally.failed,
            lateness_us: client.lateness_us,
            samples: tally.samples,
            mutation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{start_engine, EngineShape, SearchResult};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Answers instantly, except for one call that stalls.
    struct StallBackend {
        calls: AtomicUsize,
        stall_on_call: usize,
        stall: Duration,
    }

    impl SearchBackend for StallBackend {
        fn name(&self) -> String {
            "stall".to_string()
        }

        fn dim(&self) -> usize {
            4
        }

        fn k(&self) -> usize {
            K
        }

        fn search_batch(&self, queries: &[&[f32]]) -> Vec<BackendResponse> {
            if self.calls.fetch_add(1, Ordering::SeqCst) == self.stall_on_call {
                std::thread::sleep(self.stall);
            }
            let results: Vec<SearchResult> = (0..K as u32)
                .map(|id| SearchResult {
                    id,
                    distance: id as f32,
                })
                .collect();
            queries
                .iter()
                .map(|_| BackendResponse {
                    results: results.clone(),
                    simulated_us: None,
                })
                .collect()
        }
    }

    #[test]
    fn an_open_loop_charges_a_backend_stall_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(50);
        let backend = Arc::new(StallBackend {
            calls: AtomicUsize::new(0),
            stall_on_call: 20,
            stall,
        });
        let engine = start_engine(
            backend,
            EngineShape {
                max_batch: 8,
                max_wait: Duration::from_micros(200),
                workers: 1,
                queue_depth: 4096,
                cache_entries: None,
            },
        );
        let queries = Vectors::new(4, vec![0.5; 4 * 16]);
        let rate_per_s = 2000.0;
        let run = Drive {
            engine: &engine,
            queries: &queries,
            looping: Loop::Open { rate_per_s },
            draw: Draw::RoundRobin,
            seed: 5,
            clock: Clock::start(),
            windows: Windows {
                warmup: Duration::ZERO,
                segment: Duration::from_millis(400),
                segments: 1,
            },
            keep_samples: true,
            mutation: None,
        }
        .run();
        engine.shutdown();

        assert_eq!(run.failed, 0);
        assert_eq!(run.attempted as usize, run.latencies_us[0].len());
        assert_eq!(run.samples.len(), run.latencies_us[0].len());
        let expected = rate_per_s * 0.4;
        assert!(
            (run.attempted as f64 - expected).abs() < expected * 0.2,
            "{}",
            run.attempted
        );

        // The schedule kept running while the backend stalled, so about
        // rate x stall requests fell due behind it. Each waited out what was
        // left of the stall: the k-th of them at least (stall - k / rate).
        let slow = run.latencies_us[0]
            .iter()
            .filter(|&&us| us > 10_000.0)
            .count();
        assert!(
            slow as f64 >= rate_per_s * 0.040 * 0.6,
            "only {slow} requests saw the stall"
        );
        let worst = run.latencies_us[0].iter().copied().fold(0.0, f64::max);
        assert!(
            worst >= 45_000.0,
            "worst latency {worst} us hides the 50 ms stall"
        );
        // Latency counts from the due instant, never from a later submit.
        assert!(run.samples.iter().all(|s| s.start_ns <= s.submit_ns));
        assert_eq!(run.lateness_us.len(), run.attempted as usize);
    }

    #[test]
    fn windows_assign_instants_to_measured_segments() {
        let w = Windows {
            warmup: Duration::from_millis(10),
            segment: Duration::from_millis(5),
            segments: 3,
        };
        assert_eq!(w.segment_of(9_999_999), None);
        assert_eq!(w.segment_of(10_000_000), Some(0));
        assert_eq!(w.segment_of(24_999_999), Some(2));
        assert_eq!(w.segment_of(25_000_000), None);
        assert_eq!(w.end_ns(), 25_000_000);
    }
}
