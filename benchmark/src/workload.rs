//! The five serving workloads and the process that runs one of them:
//! re-open the index, check the gates, drive load untraced, then traced.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;

use crate::adapter::{
    self, BackgroundCompactor, EngineShape, Mapped, Mutable, QueryEngine, SearchBackend, Vectors,
};
use crate::drive::{Clock, Draw, Drive, Loop, Mutation, RunOutput, TracedBackend, Windows};
use crate::fixture::{index_path, load_insert_pool, Fixture, Scale, K};
use crate::layers::{self, Replay};
use crate::report::{obj, MetricValues, END_TO_END};
use crate::stats::{self, segment_percentile, Segmented};
use crate::trace::{self, Recorder};

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line: the layer this workload isolates.
    pub why: &'static str,
    pub looping: Loop,
    pub draw: Draw,
    pub nprobe: usize,
    pub engine: EngineShape,
    /// Serve a `MutableBackend` and mutate beside the reads.
    pub mutable: bool,
}

const fn engine(
    max_batch: usize,
    max_wait_us: u64,
    workers: usize,
    queue_depth: usize,
) -> EngineShape {
    EngineShape {
        max_batch,
        max_wait: Duration::from_micros(max_wait_us),
        workers,
        queue_depth,
        cache_entries: None,
    }
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "online_read",
        why: "open loop, Poisson 1000 qps, nprobe 16: the batcher's fill window and thread hops, not compute, are most of the latency; engine admission and batching changes show here",
        looping: Loop::Open { rate_per_s: 1000.0 },
        draw: Draw::RoundRobin,
        nprobe: 16,
        engine: engine(8, 200, 1, 4096),
        mutable: false,
    },
    WorkloadSpec {
        name: "batch_light",
        why: "closed loop, 32 in flight, nprobe 1: coarse quantisation, LUT build and the per-query engine hop dominate and the scan does little",
        looping: Loop::Closed { in_flight: 32 },
        draw: Draw::RoundRobin,
        nprobe: 1,
        engine: engine(16, 500, 1, 1024),
        mutable: false,
    },
    WorkloadSpec {
        name: "batch_scan",
        why: "closed loop, 64 in flight, nprobe 64, 2 workers: ADC scan and select are most of the compute; the layer a scan kernel, slab layout or select change must move",
        looping: Loop::Closed { in_flight: 64 },
        draw: Draw::RoundRobin,
        nprobe: 64,
        engine: engine(32, 1000, 2, 1024),
        mutable: false,
    },
    WorkloadSpec {
        name: "cached_zipf",
        why: "closed loop, 16 in flight, Zipf(1.0) over a pool 16x the 512-entry result cache: the only workload with a cache, so throughput follows hit rate and both path costs",
        looping: Loop::Closed { in_flight: 16 },
        draw: Draw::Zipf { theta: 1.0 },
        nprobe: 16,
        engine: EngineShape {
            cache_entries: Some(512),
            ..engine(8, 200, 1, 1024)
        },
        mutable: false,
    },
    WorkloadSpec {
        name: "mixed_rw",
        why: "closed loop, 8 in flight, an insert or delete before every 2nd query on a segmented index with a background compactor: writes beside reads, p95 carries compaction interference",
        looping: Loop::Closed { in_flight: 8 },
        draw: Draw::RoundRobin,
        nprobe: 16,
        engine: engine(8, 200, 1, 1024),
        mutable: true,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const SEAL_THRESHOLD: usize = 512;
const TOMBSTONE_RATIO: f64 = 0.02;
const COMPACTOR_POLL: Duration = Duration::from_millis(5);

/// Measured segments of a full run; a half run has half of them.
pub const SEGMENTS: usize = 6;
const SETUP_REPS: usize = 5;
/// Spans of each kind kept in the trace file (the tables use all spans).
const TRACE_FILE_SPANS: usize = 30_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// A full untraced run: the end-to-end metrics.
    Off,
    /// A half untraced run, then a half traced run: the per-layer metrics.
    On,
    /// A full untraced run, then a half traced run: both.
    Both,
}

/// The serving stack of one workload, as an operator would start it.
struct Stack {
    engine: QueryEngine,
    backend: Arc<dyn SearchBackend>,
    tap: Option<Arc<TracedBackend>>,
    mutable: Option<(Mutable, BackgroundCompactor)>,
}

impl Stack {
    fn start(mapped: &Mapped, spec: &WorkloadSpec, traced: Option<Clock>) -> Self {
        let (backend, mutable) = if spec.mutable {
            let index = mapped.segmented(SEAL_THRESHOLD, TOMBSTONE_RATIO);
            let (backend, compactor) = index.serve(spec.nprobe, K, COMPACTOR_POLL);
            (backend, Some((index, compactor)))
        } else {
            (mapped.cpu_backend(spec.nprobe, K), None)
        };
        let tap =
            traced.map(|clock| Arc::new(TracedBackend::new(Arc::clone(&backend), clock, 1 << 16)));
        let served: Arc<dyn SearchBackend> = match &tap {
            Some(tap) => Arc::clone(tap) as Arc<dyn SearchBackend>,
            None => Arc::clone(&backend),
        };
        Stack {
            engine: adapter::start_engine(served, spec.engine),
            backend,
            tap,
            mutable,
        }
    }

    /// Shuts the engine down (joining its threads) and the compactor.
    fn stop(self) -> u64 {
        let compactions = self.mutable.map_or(0, |(_, compactor)| compactor.stop());
        self.engine.shutdown();
        compactions
    }
}

/// Outcome of sending the ground-truth queries through the engine once.
struct TruthGate {
    ids_identical: bool,
    /// Mean share of a query's 10 true neighbours among the 10 returned.
    recall_at_10: f64,
    /// Share of queries whose true nearest neighbour was returned.
    nearest_recall: f64,
    failed: u64,
}

fn truth_gate(stack: &Stack, mapped: &Mapped, fixture: &Fixture, spec: &WorkloadSpec) -> TruthGate {
    let queries = fixture.truth.len() / K;
    let tickets: Vec<_> = (0..queries)
        .map(|q| stack.engine.submit(fixture.queries.get(q).to_vec()))
        .collect();
    let (mut identical, mut failed, mut nearest, mut overlap) = (true, 0, 0usize, 0usize);
    for (q, ticket) in tickets.into_iter().enumerate() {
        let Some(reply) = ticket.ok().and_then(|t| t.wait()) else {
            failed += 1;
            continue;
        };
        let ids: Vec<u32> = reply.results.iter().map(|r| r.id).collect();
        let direct: Vec<u32> = mapped
            .search(fixture.queries.get(q), K, spec.nprobe)
            .iter()
            .map(|r| r.id)
            .collect();
        identical &= ids == direct;
        let truth = &fixture.truth[q * K..(q + 1) * K];
        nearest += usize::from(ids.contains(&truth[0]));
        overlap += truth.iter().filter(|t| ids.contains(t)).count();
    }
    TruthGate {
        ids_identical: identical,
        recall_at_10: overlap as f64 / (queries * K) as f64,
        nearest_recall: nearest as f64 / queries as f64,
        failed,
    }
}

struct Latency {
    p50: Segmented,
    p95: Segmented,
    qps: Segmented,
}

impl Latency {
    fn rows(&self) -> [(&'static str, &Segmented); 3] {
        [
            ("p50_us", &self.p50),
            ("p95_us", &self.p95),
            ("qps", &self.qps),
        ]
    }
}

/// `None` when a segment has too few samples to support a percentile.
fn latency(run: &mut RunOutput) -> Option<Latency> {
    let segment_s = run.windows.segment.as_secs_f64();
    Some(Latency {
        p50: segment_percentile(&mut run.latencies_us, 0.50)?,
        p95: segment_percentile(&mut run.latencies_us, 0.95)?,
        qps: Segmented {
            per_segment: run
                .completed
                .iter()
                .map(|&c| c as f64 / segment_s)
                .collect(),
            min_samples: run.completed.iter().copied().min().unwrap_or(0) as usize,
        },
    })
}

/// Steal and total jiffies of all CPUs: time the hypervisor gave to others.
fn cpu_jiffies() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn percentile_us(ns: &[u64], p: f64) -> f64 {
    stats::percentile_of(ns.iter().map(|&n| n as f64 / 1e3).collect(), p)
}

/// One workload's run in this process.
pub struct Job<'a> {
    /// The fixture directory `prepare` filled.
    pub dir: &'a Path,
    /// Where the trace file goes.
    pub out: &'a Path,
    pub spec: &'a WorkloadSpec,
    pub seed: u64,
    /// Measured seconds of a full run.
    pub seconds: f64,
    pub mode: TraceMode,
    pub scale: Scale,
    pub dim: usize,
    /// The committed `recall_at_10` for this seed, if there is one.
    pub committed_recall: Option<f64>,
}

/// What a job has found out so far.
#[derive(Default)]
struct Findings {
    e2e: MetricValues,
    layer: MetricValues,
    gates: Vec<(&'static str, bool)>,
    segments: Vec<(String, Value)>,
}

struct Inputs {
    mapped: Mapped,
    fixture: Fixture,
    insert_pool: Option<Vectors>,
}

struct Untraced {
    run: RunOutput,
    latency: Option<Latency>,
    truth_failed: u64,
    compactions: u64,
}

impl Job<'_> {
    fn segment(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / SEGMENTS as f64)
    }

    /// Set-up, the restart path: open + warm + start, several times.
    /// Returns the median seconds of the whole path.
    fn restart_path(&self, found: &mut Findings) -> f64 {
        let path = index_path(self.dir);
        let (mut open_ms, mut warm_ms, mut total_s) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let mapped = Mapped::open(&path);
            let t1 = Instant::now();
            mapped.warm();
            let t2 = Instant::now();
            let stack = Stack::start(&mapped, self.spec, None);
            let t3 = Instant::now();
            stack.stop();
            open_ms.push((t1 - t0).as_secs_f64() * 1e3);
            warm_ms.push((t2 - t1).as_secs_f64() * 1e3);
            total_s.push((t3 - t0).as_secs_f64());
        }
        found.layer.set("storage.open_ms", stats::median(&open_ms));
        found.layer.set("storage.warm_ms", stats::median(&warm_ms));
        stats::median(&total_s)
    }

    fn drive(&self, stack: &Stack, inputs: &Inputs, clock: Clock, windows: Windows) -> RunOutput {
        let stats = || {
            let (index, _) = stack.mutable.as_ref().expect("mutable stack");
            index.stats()
        };
        Drive {
            engine: &stack.engine,
            queries: &inputs.fixture.queries,
            looping: self.spec.looping,
            draw: self.spec.draw,
            seed: self.seed,
            clock,
            windows,
            keep_samples: stack.tap.is_some(),
            mutation: inputs.insert_pool.as_ref().map(|insert_pool| Mutation {
                backend: Arc::clone(&stack.backend),
                insert_pool,
                initial_ids: self.scale.indexed,
                stats: &stats,
            }),
        }
        .run()
    }

    /// The untraced run: gates, warm-up, measured segments; the end-to-end
    /// metrics come from here.
    fn untraced(&self, inputs: &Inputs, found: &mut Findings) -> Untraced {
        let spec = self.spec;
        let windows = Windows {
            warmup: self.scale.warmup,
            segment: self.segment(),
            segments: match self.mode {
                TraceMode::On => SEGMENTS / 2,
                TraceMode::Off | TraceMode::Both => SEGMENTS,
            },
        };
        let stack = Stack::start(&inputs.mapped, spec, None);
        let truth = truth_gate(&stack, &inputs.mapped, &inputs.fixture, spec);
        let jiffies_before = cpu_jiffies();
        let mut run = self.drive(&stack, inputs, Clock::start(), windows);
        let rejected = stack.engine.rejected();
        let compactions = stack.stop();
        if let (Some((steal0, total0)), Some((steal1, total1))) = (jiffies_before, cpu_jiffies()) {
            // Not a metric: a disturbed run's own excuse.
            println!(
                "[{}] cpu time stolen by the hypervisor during the untraced run: {:.1}%",
                spec.name,
                (steal1 - steal0) / (total1 - total0).max(1.0) * 100.0
            );
        }
        // Read here: the traced run's span buffers are the harness's own,
        // not this workload's serving memory.
        found.e2e.set("peak_rss_mib", peak_rss_mib());
        found.e2e.set("recall_at_10", truth.recall_at_10);

        found
            .gates
            .push(("engine_ids_equal_direct_search", truth.ids_identical));
        found
            .gates
            .push(("truth_queries_all_answered", truth.failed == 0));
        if let Some(committed) = self.committed_recall {
            let bound = END_TO_END
                .iter()
                .find(|m| m.name == "recall_at_10")
                .expect("recall in the dictionary")
                .bound;
            found.gates.push((
                "recall_within_bound_of_committed",
                (truth.recall_at_10 - committed).abs() <= bound * committed,
            ));
        }
        found
            .gates
            .push(("no_failed_operations", run.failed == 0 && rejected == 0));
        found
            .gates
            .push(("mutation_invariants_hold", run.mutation.violations == 0));
        let latency = latency(&mut run);
        found
            .gates
            .push(("percentiles_have_10_samples_beyond", latency.is_some()));

        println!(
            "[{}] untraced: attempted {} failed {} | recall@10 {:.4} (true nearest returned: {:.4}) | ids identical: {}",
            spec.name, run.attempted, run.failed, truth.recall_at_10, truth.nearest_recall,
            truth.ids_identical
        );
        if let Some(l) = &latency {
            for (name, stat) in l.rows() {
                found.e2e.set(name, stat.value());
                found
                    .segments
                    .push((name.to_string(), floats(&stat.per_segment)));
                println!(
                    "[{}]   {name:<8} {:>12.3}  segments {:?}  (max-min)/median {:.3}  min samples/segment {}",
                    spec.name,
                    stat.value(),
                    stat.per_segment.iter().map(|v| (v * 10.0).round() / 10.0).collect::<Vec<_>>(),
                    stat.noise(),
                    stat.min_samples
                );
            }
            if matches!(spec.looping, Loop::Open { .. }) {
                // A growing backlog makes every later latency meaningless.
                let p50 = &l.p50.per_segment;
                found
                    .gates
                    .push(("no_growing_backlog", p50[p50.len() - 1] <= 2.0 * p50[0]));
            }
        }
        Untraced {
            run,
            latency,
            truth_failed: truth.failed,
            compactions,
        }
    }

    /// The traced run and the replays: the per-layer metrics and the trace.
    fn traced(&self, inputs: &Inputs, untraced: &Untraced, found: &mut Findings) {
        let spec = self.spec;
        let clock = Clock::start();
        // Half the warm-up: only the new stack is cold, not the process.
        let windows = Windows {
            warmup: self.scale.warmup / 2,
            segment: self.segment(),
            segments: SEGMENTS / 2,
        };
        let stack = Stack::start(&inputs.mapped, spec, Some(clock));
        let mut run = self.drive(&stack, inputs, clock, windows);
        let batches = stack
            .tap
            .as_ref()
            .expect("traced stack has a tap")
            .take_log();
        let layer = &mut found.layer;
        layer.set("engine.rejected", stack.engine.rejected() as f64);
        if let Some(cache) = adapter::cache_stats(&stack.engine) {
            layer.set("cache.insertions", cache.insertions as f64);
            layer.set("cache.evictions", cache.evictions as f64);
        }
        let end_state = stack.mutable.as_ref().map(|(index, _)| index.clone());
        let compactions = stack.stop();
        found
            .gates
            .push(("traced_run_no_failed_operations", run.failed == 0));
        found.gates.push((
            "traced_run_mutation_invariants_hold",
            run.mutation.violations == 0,
        ));

        let mut requests = Recorder::with_capacity(run.samples.len() * 5);
        layers::serving_layers(
            &run,
            &batches,
            spec.looping,
            spec.engine.workers,
            &mut requests,
            layer,
        );
        if spec.engine.cache_entries.is_some() {
            let hits = run.samples.iter().filter(|s| s.batch_size == 0).count();
            layer.set(
                "cache.hit_rate",
                hits as f64 / run.samples.len().max(1) as f64,
            );
        }
        let replayed = Replay {
            queries: &inputs.fixture.queries,
            count: self.scale.replay_queries,
            nprobe: spec.nprobe,
        };
        if let Some(index) = end_state {
            let log = &run.mutation;
            layer.set(
                "segmented.insert_p50_us",
                percentile_us(&log.insert_ns, 0.50),
            );
            layer.set(
                "segmented.insert_p95_us",
                percentile_us(&log.insert_ns, 0.95),
            );
            layer.set(
                "segmented.delete_p50_us",
                percentile_us(&log.delete_ns, 0.50),
            );
            layer.set(
                "segmented.search_us",
                layers::replay_segmented(&index, &replayed),
            );
            // Over both runs: compactions need seconds to add up.
            layer.set(
                "segmented.compactions",
                (untraced.compactions + compactions) as f64,
            );
            layer.set(
                "segmented.write_vectors_mean",
                log.write_vectors.iter().sum::<usize>() as f64
                    / log.write_vectors.len().max(1) as f64,
            );
            layer.set(
                "segmented.pending_tombstones_end",
                index.stats().pending_tombstones as f64,
            );
            layer.set(
                "segmented.violations",
                (log.violations + untraced.run.mutation.violations) as f64,
            );
            println!(
                "[{}] traced run: {} inserts, {} deletes, {} probes, {} compactions ({} in the untraced run)",
                spec.name, log.insert_ns.len(), log.delete_ns.len(), log.probes, compactions, untraced.compactions
            );
        }
        if let (Some(traced), Some(untraced)) = (latency(&mut run), &untraced.latency) {
            layer.set(
                "trace.overhead_share",
                (traced.p50.value() - untraced.p50.value()) / untraced.p50.value(),
            );
            if spec.mutable {
                // Later half over earlier half: a workload that measures its
                // own generator (lists skewing, tombstones piling up) decays.
                let qps = &untraced.qps.per_segment;
                let (early, late) = qps.split_at(qps.len() / 2);
                let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
                layer.set("segmented.drift_ratio", mean(late) / mean(early));
            }
        }

        let mut replay = Recorder::with_capacity(self.scale.replay_queries * 6);
        layers::replay_search(
            &inputs.mapped,
            &replayed,
            self.scale.shape.m,
            clock,
            &mut replay,
            layer,
        );
        let direct = inputs.mapped.cpu_backend(spec.nprobe, K);
        layers::replay_backend(&*direct, &replayed, spec.engine.max_batch, layer);

        let request_table = trace::breakdown(requests.spans());
        let replay_table = trace::breakdown(replay.spans());
        for (title, table) in [("request", &request_table), ("replay", &replay_table)] {
            println!("[{}] {title} spans: self time by layer", spec.name);
            for row in &table.layers {
                println!(
                    "[{}]   {:<22} count {:>8}  self {:>12.3} ms  share of root spans {:>6.3}",
                    spec.name,
                    row.name,
                    row.count,
                    row.self_ns as f64 / 1e6,
                    row.share_of_request
                );
            }
        }
        let coverage = &request_table.coverage;
        if !coverage.is_empty() {
            let within = coverage
                .iter()
                .filter(|c| (0.95..=1.05).contains(*c))
                .count();
            println!(
                "[{}] children's self time / root span: median {:.4}, {:.1}% of {} requests within 0.95-1.05",
                spec.name,
                stats::median(coverage),
                within as f64 / coverage.len() as f64 * 100.0,
                coverage.len()
            );
        }
        let file = self.out.join(format!("{}.trace.json", spec.name));
        let shown = |r: &Recorder| r.spans().len().min(TRACE_FILE_SPANS);
        trace::write_chrome_trace(
            &file,
            &[
                &requests.spans()[..shown(&requests)],
                &replay.spans()[..shown(&replay)],
            ],
        )
        .expect("write the trace file");
        println!("[{}] trace: {}", spec.name, file.display());
    }

    /// Runs the workload and returns its result document.
    pub fn run(&self) -> Value {
        let mut found = Findings::default();
        let setup_s = self.restart_path(&mut found);
        found.e2e.set("setup_s", setup_s);

        let mapped = Mapped::open(&index_path(self.dir));
        mapped.warm();
        let inputs = Inputs {
            mapped,
            fixture: Fixture::load(self.dir, self.dim),
            insert_pool: self
                .spec
                .mutable
                .then(|| load_insert_pool(self.dir, self.dim)),
        };
        let untraced = self.untraced(&inputs, &mut found);
        if self.mode != TraceMode::Off {
            self.traced(&inputs, &untraced, &mut found);
        }

        for (gate, ok) in &found.gates {
            println!(
                "[{}] gate {gate}: {}",
                self.spec.name,
                if *ok { "pass" } else { "FAIL" }
            );
        }
        obj([
            ("workload", Value::Str(self.spec.name.to_string())),
            (
                "correct",
                Value::Bool(found.gates.iter().all(|(_, ok)| *ok)),
            ),
            ("attempted", Value::UInt(untraced.run.attempted)),
            (
                "failed",
                Value::UInt(untraced.run.failed + untraced.truth_failed),
            ),
            (
                "gates",
                Value::Map(
                    found
                        .gates
                        .iter()
                        .map(|(g, ok)| (g.to_string(), Value::Bool(*ok)))
                        .collect(),
                ),
            ),
            ("end_to_end", found.e2e.to_value()),
            ("per_layer", found.layer.to_value()),
            ("segments", Value::Map(found.segments)),
        ])
    }
}

fn floats(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|&v| Value::Float(v)).collect())
}
