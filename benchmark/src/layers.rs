//! Per-layer measurements: single-threaded replays through the program's
//! public functions, and the request spans assembled from a traced run.

use std::collections::HashMap;
use std::time::Instant;

use crate::adapter::{Mapped, Mutable, SearchBackend, Vectors};
use crate::drive::{BatchRecord, Clock, Loop, RunOutput, Sample};
use crate::fixture::K;
use crate::report::MetricValues;
use crate::stats::{median, percentile_of};
use crate::trace::Recorder;

fn p50(samples: Vec<f64>) -> f64 {
    percentile_of(samples, 0.50)
}

fn p95(samples: Vec<f64>) -> f64 {
    percentile_of(samples, 0.95)
}

fn us(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

/// The leading pool queries a single-threaded replay runs, and at which
/// `nprobe`.
pub struct Replay<'a> {
    pub queries: &'a Vectors,
    pub count: usize,
    pub nprobe: usize,
}

impl Replay<'_> {
    fn queries(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.count.min(self.queries.len())).map(|i| self.queries.get(i))
    }
}

/// Replays pool queries one at a time through the five public stage
/// functions and through the fused `search()`, one span per call.
pub fn replay_search(
    mapped: &Mapped,
    replay: &Replay,
    code_bytes: usize,
    clock: Clock,
    recorder: &mut Recorder,
    m: &mut MetricValues,
) {
    let nprobe = replay.nprobe;
    let (mut opq, mut coarse, mut lut, mut scan, mut fused) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut staged_total, mut codes_total) = (0.0, 0usize);
    for (i, query) in replay.queries().enumerate() {
        // Alternate the order so neither path always runs on warm caches.
        let fused_first = i % 2 == 0;
        let run_fused = |recorder: &mut Recorder, fused: &mut Vec<f64>| {
            let t0 = Instant::now();
            let hits = mapped.search(query, K, nprobe);
            let t1 = Instant::now();
            std::hint::black_box(hits);
            recorder.push(
                "search.total",
                clock.ns_of(t0),
                clock.ns_of(t1),
                None,
                i as u64,
            );
            fused.push(us(t0, t1));
        };
        if fused_first {
            run_fused(recorder, &mut fused);
        }
        let (hits, t, codes) = mapped.search_staged(query, K, nprobe);
        std::hint::black_box(hits);
        let root = recorder.push(
            "search.staged",
            clock.ns_of(t[0]),
            clock.ns_of(t[4]),
            None,
            i as u64,
        );
        for (name, from, to) in [
            ("search.opq", t[0], t[1]),
            ("search.coarse", t[1], t[2]),
            ("search.build_lut", t[2], t[3]),
            ("search.scan_select", t[3], t[4]),
        ] {
            recorder.push(
                name,
                clock.ns_of(from),
                clock.ns_of(to),
                Some(root),
                i as u64,
            );
        }
        opq.push(us(t[0], t[1]));
        coarse.push(us(t[1], t[2]));
        lut.push(us(t[2], t[3]));
        scan.push(us(t[3], t[4]));
        staged_total += us(t[0], t[4]);
        codes_total += codes;
        if !fused_first {
            run_fused(recorder, &mut fused);
        }
    }
    let replayed = scan.len().max(1);
    let fused_total: f64 = fused.iter().sum();
    let scan_total_s: f64 = scan.iter().sum::<f64>() / 1e6;
    m.set("search.opq_us", p50(opq));
    m.set("search.coarse_us", p50(coarse));
    m.set("search.build_lut_us", p50(lut));
    m.set("search.scan_select_us", p50(scan));
    m.set("search.codes_scanned", codes_total as f64 / replayed as f64);
    m.set(
        "simd.scan_mcodes_per_s",
        codes_total as f64 / scan_total_s / 1e6,
    );
    // Computed, not measured: codes scanned x bytes per code / scan time.
    m.set(
        "simd.scan_gbps",
        (codes_total * code_bytes) as f64 / scan_total_s / 1e9,
    );
    m.set("search.total_us", p50(fused));
    m.set("search.stage_sum_over_total", staged_total / fused_total);
}

/// Direct `search_batch` calls at the workload's batch size: what the
/// backend costs per query with no engine in front of it.
pub fn replay_backend(
    backend: &dyn SearchBackend,
    replay: &Replay,
    batch: usize,
    m: &mut MetricValues,
) {
    let refs: Vec<&[f32]> = replay.queries().collect();
    let per_query: Vec<f64> = refs
        .chunks(batch)
        .map(|chunk| {
            let t = Instant::now();
            let replies = backend.search_batch(chunk);
            let elapsed = us(t, Instant::now());
            std::hint::black_box(replies);
            elapsed / chunk.len() as f64
        })
        .collect();
    let per_query = p50(per_query);
    m.set("backend.us_per_query", per_query);
    m.set(
        "backend.overhead_us",
        per_query - m.get("search.total_us").unwrap_or(0.0),
    );
}

/// Direct `SegmentedIndex::search` on the index as the run left it.
pub fn replay_segmented(index: &Mutable, replay: &Replay) -> f64 {
    p50(replay
        .queries()
        .map(|query| {
            let t = Instant::now();
            let hits = index.search(query, K, replay.nprobe);
            let elapsed = us(t, Instant::now());
            std::hint::black_box(hits);
            elapsed
        })
        .collect())
}

/// One `ingest_vps` burst: inserts, then one `compact()`.
#[derive(Debug, Clone, Copy)]
pub struct Burst {
    pub vectors_per_s: f64,
    pub insert_ms: f64,
    pub compact_ms: f64,
}

/// Bursts per window. A workload's `ingest_vps` is the median over the
/// window before it and the window after it.
const BURSTS_PER_WINDOW: usize = 2;

/// Measures `ingest_vps` between workloads, in the parent process, so the
/// bursts of one workload lie seconds apart: this host's speed flips
/// between two states every few seconds, and bursts taken back to back
/// would all land in one of them.
pub struct IngestProbe {
    mapped: Mapped,
    pool: Vectors,
    vectors: usize,
}

impl IngestProbe {
    pub fn new(mapped: Mapped, pool: Vectors, vectors: usize) -> Self {
        mapped.warm();
        let vectors = vectors.min(pool.len());
        IngestProbe {
            mapped,
            pool,
            vectors,
        }
    }

    /// A few bursts, each on a mutable index of its own with no traffic.
    pub fn window(&self) -> Vec<Burst> {
        (0..BURSTS_PER_WINDOW)
            .map(|_| {
                // This policy never asks for a compaction by itself.
                let index = self.mapped.segmented(usize::MAX, 1.0);
                let t0 = Instant::now();
                for i in 0..self.vectors {
                    index.insert(self.pool.get(i));
                }
                let t1 = Instant::now();
                let sealed = index.compact();
                let t2 = Instant::now();
                assert_eq!(sealed, self.vectors, "compact() seals every insert");
                assert_eq!(index.stats().write_vectors, 0);
                Burst {
                    vectors_per_s: self.vectors as f64 / (t2 - t0).as_secs_f64(),
                    insert_ms: us(t0, t1) / 1e3,
                    compact_ms: us(t1, t2) / 1e3,
                }
            })
            .collect()
    }
}

/// The middle burst of each quantity.
pub fn median_burst(bursts: &[Burst]) -> Burst {
    let of = |f: fn(&Burst) -> f64| median(&bursts.iter().map(f).collect::<Vec<_>>());
    Burst {
        vectors_per_s: of(|b| b.vectors_per_s),
        insert_ms: of(|b| b.insert_ms),
        compact_ms: of(|b| b.compact_ms),
    }
}

/// Which batch served each sample: the batch that held the sample's query
/// buffer while the request was in flight.
fn link_batches(samples: &[Sample], batches: &[BatchRecord]) -> Vec<Option<usize>> {
    let mut by_buffer: HashMap<usize, Vec<(u64, usize)>> = HashMap::new();
    for (i, s) in samples.iter().enumerate() {
        by_buffer
            .entry(s.buffer)
            .or_default()
            .push((s.submit_ns, i));
    }
    for requests in by_buffer.values_mut() {
        requests.sort_unstable();
    }
    let mut linked = vec![None; samples.len()];
    for (b, batch) in batches.iter().enumerate() {
        for buffer in &batch.queries {
            let Some(requests) = by_buffer.get(buffer) else {
                continue;
            };
            // The allocator reuses addresses: take the latest request
            // submitted with this buffer before the batch started.
            let at = requests.partition_point(|&(submit, _)| submit <= batch.start_ns);
            if at > 0 {
                let sample = requests[at - 1].1;
                if samples[sample].done_ns >= batch.end_ns {
                    linked[sample] = Some(b);
                }
            }
        }
    }
    linked
}

/// Serving-layer metrics and request spans from one traced run.
pub fn serving_layers(
    run: &RunOutput,
    batches: &[BatchRecord],
    looping: Loop,
    workers: usize,
    recorder: &mut Recorder,
    m: &mut MetricValues,
) {
    let linked = link_batches(&run.samples, batches);
    let warmup_ns = run.windows.warmup.as_nanos() as u64;
    let end_ns = run.windows.end_ns();

    let (mut queue, mut overhead, mut reply_lag, mut hits, mut misses) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut batch_sizes = 0u64;
    for (i, s) in run.samples.iter().enumerate() {
        let client_us = (s.done_ns - s.submit_ns) as f64 / 1e3;
        let root = recorder.push("request", s.start_ns, s.done_ns, None, i as u64);
        if s.submit_ns > s.start_ns {
            recorder.push(
                "gen.lateness",
                s.start_ns,
                s.submit_ns,
                Some(root),
                i as u64,
            );
        }
        if s.batch_size == 0 {
            // Resolved from the result cache on the submitting thread.
            recorder.push("cache.hit", s.submit_ns, s.done_ns, Some(root), i as u64);
            hits.push(client_us);
            continue;
        }
        misses.push(client_us);
        queue.push(f64::from(s.queue_us));
        batch_sizes += u64::from(s.batch_size);
        reply_lag.push(client_us - f64::from(s.engine_us));
        let queued_until = s.submit_ns + (f64::from(s.queue_us) * 1e3) as u64;
        recorder.push(
            "engine.queue_wait",
            s.submit_ns,
            queued_until,
            Some(root),
            i as u64,
        );
        if let Some(b) = linked[i] {
            let batch = &batches[b];
            recorder.push(
                "backend.search_batch",
                batch.start_ns,
                batch.end_ns,
                Some(root),
                i as u64,
            );
            recorder.push(
                "engine.reply",
                batch.end_ns,
                s.done_ns,
                Some(root),
                i as u64,
            );
            let service_us = (batch.end_ns - batch.start_ns) as f64 / 1e3;
            overhead.push(client_us - f64::from(s.queue_us) - service_us);
        }
    }

    let served = misses.len().max(1) as f64;
    let in_window: Vec<&BatchRecord> = batches
        .iter()
        .filter(|b| b.start_ns >= warmup_ns && b.end_ns <= end_ns)
        .collect();
    let busy_ns: u64 = in_window.iter().map(|b| b.end_ns - b.start_ns).sum();
    m.set("engine.queue_wait_p50_us", p50(queue.clone()));
    m.set("engine.queue_wait_p95_us", p95(queue));
    m.set("engine.batch_size_mean", batch_sizes as f64 / served);
    m.set(
        "engine.service_p50_us",
        p50(in_window
            .iter()
            .map(|b| (b.end_ns - b.start_ns) as f64 / 1e3)
            .collect()),
    );
    m.set(
        "engine.worker_busy_share",
        busy_ns as f64 / ((end_ns - warmup_ns) as f64 * workers as f64),
    );
    m.set("engine.overhead_p50_us", p50(overhead));
    m.set("engine.reply_lag_p50_us", p50(reply_lag));
    if matches!(looping, Loop::Open { .. }) {
        m.set("gen.lateness_p50_us", p50(run.lateness_us.clone()));
        m.set("gen.lateness_p95_us", p95(run.lateness_us.clone()));
    }
    m.set(
        "gen.offered_qps",
        run.attempted as f64 / run.windows.measured_s(),
    );
    if !hits.is_empty() {
        m.set("cache.hit_p50_us", p50(hits));
        m.set("cache.miss_p50_us", p50(misses));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(buffer: usize, submit_ns: u64, done_ns: u64) -> Sample {
        Sample {
            start_ns: submit_ns,
            submit_ns,
            done_ns,
            queue_us: 0.0,
            engine_us: 0.0,
            batch_size: 1,
            buffer,
        }
    }

    #[test]
    fn a_reused_buffer_links_to_the_request_in_flight() {
        // Buffer 0xA serves request 0, is freed, then serves request 2.
        let samples = [
            sample(0xA, 0, 100),
            sample(0xB, 10, 110),
            sample(0xA, 200, 300),
        ];
        let batches = [
            BatchRecord {
                start_ns: 20,
                end_ns: 90,
                queries: vec![0xA, 0xB],
            },
            BatchRecord {
                start_ns: 220,
                end_ns: 290,
                queries: vec![0xA],
            },
            // A batch of requests outside the measured window: no sample.
            BatchRecord {
                start_ns: 400,
                end_ns: 450,
                queries: vec![0xC],
            },
        ];
        assert_eq!(
            link_batches(&samples, &batches),
            vec![Some(0), Some(0), Some(1)]
        );
    }
}
