//! Latency accounting for the serving path: log-bucketed histograms, SLO
//! attainment tracking, goodput, and the aggregated [`ServeReport`].

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::cache::CacheStats;
use crate::replica::{ReplicaSetStats, ReplicaSnapshot};
use crate::telemetry::StageReport;

/// EWMA smoothing factor shared by every service-time model in this crate
/// (the engine's shedding estimate, each replica's health tracker).
const EWMA_ALPHA: f64 = 0.2;

/// A lock-free EWMA over microsecond samples, stored as `f64` bits in an
/// atomic. `0` means "no sample yet"; the first sample seeds the average.
/// Updates are plain load/store — a lost update between racing writers only
/// slows convergence of an already-approximate model.
#[derive(Debug)]
pub(crate) struct AtomicEwmaUs {
    bits: AtomicU64,
}

impl AtomicEwmaUs {
    /// An EWMA seeded at `initial_us` (0 = unset).
    pub(crate) fn new(initial_us: f64) -> Self {
        Self {
            bits: AtomicU64::new(initial_us.to_bits()),
        }
    }

    /// The current average (µs); 0 until the first sample.
    pub(crate) fn get_us(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Folds one sample into the average and returns the **previous** value
    /// (callers use it for outlier comparisons). Non-finite or negative
    /// samples are ignored.
    pub(crate) fn observe_us(&self, sample_us: f64) -> f64 {
        let prev = self.get_us();
        if !sample_us.is_finite() || sample_us < 0.0 {
            return prev;
        }
        let next = if prev == 0.0 {
            sample_us
        } else {
            (1.0 - EWMA_ALPHA) * prev + EWMA_ALPHA * sample_us
        };
        self.bits.store(next.to_bits(), Ordering::Relaxed);
        prev
    }
}

/// A log-bucketed latency histogram over microseconds.
///
/// Buckets grow geometrically (~5 % per bucket), so quantile estimates are
/// accurate to a few percent across nine orders of magnitude while using a
/// fixed, allocation-free footprint per recording site. Exact minimum,
/// maximum and sum are tracked alongside the buckets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: f64,
    min_us: f64,
    max_us: f64,
}

/// Smallest resolvable latency (0.1 µs).
const FLOOR_US: f64 = 0.1;
/// Geometric bucket growth factor.
const GROWTH: f64 = 1.05;
/// Bucket count: covers 0.1 µs … >10 s.
const BUCKETS: usize = 400;

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0.0,
            min_us: f64::INFINITY,
            max_us: 0.0,
        }
    }

    fn bucket_for(us: f64) -> usize {
        if us <= FLOOR_US {
            return 0;
        }
        let idx = (us / FLOOR_US).ln() / GROWTH.ln();
        (idx as usize).min(BUCKETS - 1)
    }

    /// Lower edge of a bucket in microseconds.
    fn bucket_floor(idx: usize) -> f64 {
        FLOOR_US * GROWTH.powi(idx as i32)
    }

    /// Ceiling for one sample (µs, ≈ 31 years): non-finite or absurd samples
    /// clamp here so they land in the top bucket while every aggregate
    /// (sum, mean, max, merge) stays finite.
    pub const SAMPLE_CAP_US: f64 = 1e15;

    /// Records one latency sample (µs). Non-finite samples are clamped to
    /// [`Self::SAMPLE_CAP_US`] so they surface in the tail instead of
    /// vanishing or corrupting the mean.
    pub fn record(&mut self, us: f64) {
        let us = if us.is_finite() {
            us.clamp(0.0, Self::SAMPLE_CAP_US)
        } else {
            Self::SAMPLE_CAP_US
        };
        self.counts[Self::bucket_for(us)] += 1;
        self.count += 1;
        self.sum_us += us;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean latency (µs), 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us / self.count as f64
        }
    }

    /// Exact minimum (µs), 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min_us
        }
    }

    /// Exact maximum (µs), 0 when empty.
    pub fn max(&self) -> f64 {
        self.max_us
    }

    /// Quantile estimate (p in 0–100): rank-interpolated within the bucket
    /// containing the p-th sample, clamped to the exact min/max.
    ///
    /// Reporting a fixed point of the bucket (its lower edge, or even the
    /// geometric midpoint) biases dense quantiles by up to half a bucket
    /// width. Instead, the estimate places the p-th sample at its rank
    /// position *within* the bucket on the geometric scale: the j-th of c
    /// samples in a bucket maps to `floor · G^((j - 0.5) / c)`. For a
    /// single-sample bucket this reduces to the geometric midpoint; for
    /// dense buckets it removes the systematic offset entirely.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                if idx == BUCKETS - 1 {
                    // Overflow bucket: interpolation is meaningless, report
                    // the exact maximum.
                    return self.max_us;
                }
                let within = (rank - seen) as f64; // 1..=c
                let frac = ((within - 0.5) / c as f64).clamp(0.0, 1.0);
                let estimate = Self::bucket_floor(idx) * GROWTH.powf(frac);
                return estimate.clamp(self.min_us, self.max_us);
            }
            seen += c;
        }
        self.max_us
    }

    /// Fraction of samples at or below `threshold_us` (exact at bucket
    /// granularity), 1.0 when empty.
    pub fn fraction_below(&self, threshold_us: f64) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let cutoff = Self::bucket_for(threshold_us);
        let below: u64 = self.counts[..=cutoff].iter().sum();
        below as f64 / self.count as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Mutable serving-side metric state, shared by the engine's workers.
#[derive(Debug, Default)]
pub struct MetricsCollector {
    /// End-to-end wall latency (submit → reply), µs.
    pub wall: LatencyHistogram,
    /// Time spent queued before a batch formed, µs.
    pub queue: LatencyHistogram,
    /// Backend service time per batch, µs.
    pub service: LatencyHistogram,
    /// Backend-simulated device latency (accelerator backends), µs.
    pub simulated: LatencyHistogram,
    /// Completed queries.
    pub completed: u64,
    /// Executed batches.
    pub batches: u64,
    /// Sum of batch sizes (for the mean batch size).
    pub batch_size_sum: u64,
    /// Queries meeting the SLO (when one is configured).
    pub slo_hits: u64,
    /// Queries shed by deadline-aware admission (resolved, not executed).
    pub shed: u64,
    /// Queries whose batch failed on the backend (resolved without results).
    pub failed: u64,
    /// End-to-end wall latency of cache-hit completions, µs. Hits are kept
    /// out of `wall` so the headline percentiles keep measuring the backend
    /// (cache-miss) path; hit latency is reported alongside in the report's
    /// cache section.
    pub cache_hit_wall: LatencyHistogram,
    /// Queries answered from the result cache at submission. (Misses are
    /// counted lock-free on the engine so the common path never takes this
    /// collector's lock just to bump a counter.)
    pub cache_hits: u64,
}

impl MetricsCollector {
    /// Records one completed query.
    pub fn record_query(
        &mut self,
        wall_us: f64,
        queue_us: f64,
        simulated_us: Option<f64>,
        slo_us: Option<f64>,
    ) {
        self.wall.record(wall_us);
        self.queue.record(queue_us);
        if let Some(sim) = simulated_us {
            self.simulated.record(sim);
        }
        if let Some(slo) = slo_us {
            if wall_us <= slo {
                self.slo_hits += 1;
            }
        }
        self.completed += 1;
    }

    /// Records one executed batch.
    pub fn record_batch(&mut self, size: usize, service_us: f64) {
        self.batches += 1;
        self.batch_size_sum += size as u64;
        self.service.record(service_us);
    }

    /// Records `n` queries shed by deadline-aware admission.
    pub fn record_shed(&mut self, n: u64) {
        self.shed += n;
    }

    /// Records `n` queries that failed on the backend.
    pub fn record_failed(&mut self, n: u64) {
        self.failed += n;
    }

    /// Records one query answered from the result cache: it counts as a
    /// completed (and, trivially, in-SLO) query, but its latency lands in
    /// the cache-hit histogram rather than the backend-path one.
    pub fn record_cache_hit(&mut self, wall_us: f64, slo_us: Option<f64>) {
        self.cache_hit_wall.record(wall_us);
        if let Some(slo) = slo_us {
            if wall_us <= slo {
                self.slo_hits += 1;
            }
        }
        self.completed += 1;
        self.cache_hits += 1;
    }
}

/// The cache section of a [`ServeReport`]: engine-observed hit/miss traffic
/// and latency, combined with the cache's own lifetime counters.
#[derive(Debug, Clone, Serialize)]
pub struct CacheReport {
    /// Queries this engine answered from the cache.
    pub hits: u64,
    /// Submissions that consulted the cache and fell through.
    pub misses: u64,
    /// `hits / (hits + misses)` for this engine's traffic.
    pub hit_rate: f64,
    /// Median end-to-end latency of cache-hit completions (µs).
    pub hit_p50_us: f64,
    /// 99th-percentile latency of cache-hit completions (µs).
    pub hit_p99_us: f64,
    /// Median end-to-end latency of backend-path (cache-miss) completions
    /// (µs) — identical to the report's `p50_us`, duplicated here so a hit
    /// vs. miss comparison needs only the cache section.
    pub miss_p50_us: f64,
    /// Entries written over the cache's lifetime.
    pub insertions: u64,
    /// Entries evicted by LRU capacity pressure over the cache's lifetime.
    pub evictions: u64,
    /// Entries dropped by generation invalidation.
    pub invalidated: u64,
    /// Entries resident when the report was taken.
    pub entries: usize,
    /// Total cache capacity.
    pub capacity: usize,
}

impl CacheReport {
    /// Combines the engine's view (hit count and latency histograms from the
    /// collector, the lock-free per-engine miss count) with the cache's
    /// lifetime stats (insert/evict/invalidate counters, occupancy, capacity —
    /// which aggregate across every engine sharing the cache).
    pub fn new(collector: &MetricsCollector, cache_stats: &CacheStats, misses: u64) -> Self {
        let lookups = collector.cache_hits + misses;
        Self {
            hits: collector.cache_hits,
            misses,
            hit_rate: if lookups == 0 {
                0.0
            } else {
                collector.cache_hits as f64 / lookups as f64
            },
            hit_p50_us: collector.cache_hit_wall.percentile(50.0),
            hit_p99_us: collector.cache_hit_wall.percentile(99.0),
            miss_p50_us: collector.wall.percentile(50.0),
            insertions: cache_stats.insertions,
            evictions: cache_stats.evictions,
            invalidated: cache_stats.invalidated,
            entries: cache_stats.entries,
            capacity: cache_stats.capacity,
        }
    }
}

/// The aggregated outcome of a serving run — the serving analogue of the
/// offline `SimulationReport`.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Backend description.
    pub backend: String,
    /// Completed queries.
    pub queries: u64,
    /// Queries rejected by backpressure (queue full).
    pub rejected: u64,
    /// Queries shed by deadline-aware admission — accepted, then resolved as
    /// [`crate::engine::QueryStatus::Shed`] because they could no longer
    /// meet their deadline. Counted separately from `rejected`.
    pub shed: u64,
    /// Queries whose batch failed on the backend (resolved as
    /// [`crate::engine::QueryStatus::Failed`]).
    pub failed: u64,
    /// Executed batches.
    pub batches: u64,
    /// Mean formed batch size.
    pub mean_batch_size: f64,
    /// Wall-clock span of the measurement (s).
    pub wall_seconds: f64,
    /// Achieved throughput (completed / wall_seconds).
    pub qps: f64,
    /// **Goodput**: completed-in-SLO queries per second. Equal to `qps` when
    /// no SLO is configured; the deployment-quality metric otherwise — shed,
    /// failed and SLO-missing queries all reduce it.
    pub goodput_qps: f64,
    /// Median end-to-end latency (µs).
    pub p50_us: f64,
    /// 95th-percentile end-to-end latency (µs).
    pub p95_us: f64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_us: f64,
    /// Mean end-to-end latency (µs).
    pub mean_us: f64,
    /// Maximum end-to-end latency (µs).
    pub max_us: f64,
    /// Mean time spent queued (µs).
    pub mean_queue_us: f64,
    /// Mean backend service time per batch (µs).
    pub mean_service_us: f64,
    /// The latency SLO this run was measured against (µs), if any.
    pub slo_us: Option<f64>,
    /// Fraction of queries within the SLO, if one was configured.
    pub slo_attainment: Option<f64>,
    /// Median simulated device latency (accelerator backends), µs.
    pub simulated_p50_us: Option<f64>,
    /// 99th-percentile simulated device latency, µs.
    pub simulated_p99_us: Option<f64>,
    /// Batches rerouted after a replica failure, summed over every attached
    /// replica set (0 until [`ServeReport::with_replica_stats`] is called).
    pub failover_count: u64,
    /// Per-replica utilization snapshots, in (shard-major, replica-minor)
    /// order (empty until [`ServeReport::with_replica_stats`] is called).
    pub replicas: Vec<ReplicaSnapshot>,
    /// Result-cache traffic and occupancy (`None` when the engine runs
    /// without a cache).
    pub cache: Option<CacheReport>,
    /// Per-stage latency breakdown from the telemetry layer (`None` when the
    /// engine runs without tracing). See
    /// [`crate::telemetry::TelemetryRegistry::stage_report`].
    pub stages: Option<StageReport>,
}

impl ServeReport {
    /// Builds a report from collected metrics.
    pub fn from_collector(
        backend: String,
        collector: &MetricsCollector,
        wall_seconds: f64,
        rejected: u64,
        slo_us: Option<f64>,
    ) -> Self {
        let completed = collector.completed;
        let slo_attainment = slo_us.map(|_| {
            if completed == 0 {
                0.0
            } else {
                collector.slo_hits as f64 / completed as f64
            }
        });
        let (simulated_p50_us, simulated_p99_us) = if collector.simulated.is_empty() {
            (None, None)
        } else {
            (
                Some(collector.simulated.percentile(50.0)),
                Some(collector.simulated.percentile(99.0)),
            )
        };
        let goodput_qps = if wall_seconds > 0.0 {
            match slo_us {
                Some(_) => collector.slo_hits as f64 / wall_seconds,
                None => completed as f64 / wall_seconds,
            }
        } else {
            0.0
        };
        Self {
            backend,
            queries: completed,
            rejected,
            shed: collector.shed,
            failed: collector.failed,
            batches: collector.batches,
            mean_batch_size: if collector.batches == 0 {
                0.0
            } else {
                collector.batch_size_sum as f64 / collector.batches as f64
            },
            wall_seconds,
            qps: if wall_seconds > 0.0 {
                completed as f64 / wall_seconds
            } else {
                0.0
            },
            goodput_qps,
            p50_us: collector.wall.percentile(50.0),
            p95_us: collector.wall.percentile(95.0),
            p99_us: collector.wall.percentile(99.0),
            mean_us: collector.wall.mean(),
            max_us: collector.wall.max(),
            mean_queue_us: collector.queue.mean(),
            mean_service_us: collector.service.mean(),
            slo_us,
            slo_attainment,
            simulated_p50_us,
            simulated_p99_us,
            failover_count: 0,
            replicas: Vec::new(),
            cache: None,
            stages: None,
        }
    }

    /// Attaches the cache section (see [`CacheReport::new`]).
    pub fn with_cache_report(mut self, cache: CacheReport) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches the telemetry per-stage breakdown.
    pub fn with_stage_report(mut self, stages: StageReport) -> Self {
        self.stages = Some(stages);
        self
    }

    /// Folds live replica-set statistics into the report: sums failovers
    /// across sets and snapshots each replica's utilization against this
    /// report's wall-clock window. Pass the stats handles kept from each
    /// shard's [`crate::replica::ReplicaSet`] (one handle per shard).
    pub fn with_replica_stats(mut self, sets: &[ReplicaSetStats]) -> Self {
        self.failover_count = sets.iter().map(ReplicaSetStats::failovers).sum();
        self.replicas = sets
            .iter()
            .flat_map(|s| s.snapshot(self.wall_seconds))
            .collect();
        self
    }

    /// One-paragraph human-readable summary.
    pub fn summary(&self) -> String {
        let slo = match (self.slo_us, self.slo_attainment) {
            (Some(slo), Some(hit)) => {
                format!(
                    ", SLO {:.0} us met by {:.1}% (goodput {:.0} QPS)",
                    slo,
                    hit * 100.0,
                    self.goodput_qps
                )
            }
            _ => String::new(),
        };
        let drops = if self.shed > 0 || self.failed > 0 {
            format!(" | shed {}, failed {}", self.shed, self.failed)
        } else {
            String::new()
        };
        let failover = if self.failover_count > 0 {
            format!(" | failovers {}", self.failover_count)
        } else {
            String::new()
        };
        let cache = match &self.cache {
            Some(c) => format!(
                " | cache hit-rate {:.1}% (hit p50 {:.1} us)",
                c.hit_rate * 100.0,
                c.hit_p50_us
            ),
            None => String::new(),
        };
        format!(
            "{}: {} queries in {:.2} s -> {:.0} QPS | latency p50 {:.0} us, p95 {:.0} us, p99 {:.0} us | mean batch {:.1}{}{}{}{cache}",
            self.backend,
            self.queries,
            self.wall_seconds,
            self.qps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.mean_batch_size,
            slo,
            drops,
            failover
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_ordered_and_close() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p50 < p99);
        // Rank interpolation keeps dense-distribution quantiles within half
        // a bucket width (~2.5 % at 5 % growth) of the exact values.
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.03, "p50 estimate {p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.03, "p99 estimate {p99}");
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 10_000.0);
    }

    #[test]
    fn percentile_interpolates_rank_within_bucket() {
        // 490 µs and 510 µs share one bucket (5 % growth); interpolated
        // quantiles must stay inside that bucket and increase with p
        // instead of collapsing to a fixed bucket point.
        let mut h = LatencyHistogram::new();
        for _ in 0..50 {
            h.record(490.0);
            h.record(510.0);
        }
        let p25 = h.percentile(25.0);
        let p75 = h.percentile(75.0);
        assert!(p25 < p75, "p25 {p25} must rank below p75 {p75}");
        // One bucket spans a 5 % ratio; both estimates are within it.
        assert!(p75 / p25 < 1.05 + 1e-9, "p25 {p25} p75 {p75}");
        assert!((490.0..=510.0).contains(&p25));
        assert!((490.0..=510.0).contains(&p75));
        // A single sample reduces to the geometric midpoint — and the
        // min/max clamp pins it to the exact value here.
        let mut single = LatencyHistogram::new();
        single.record(123.0);
        assert_eq!(single.percentile(50.0), 123.0);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0.0);
        h.record(f64::INFINITY);
        h.record(1e12);
        assert_eq!(h.count(), 3);
        assert!(h.percentile(100.0) >= 1e12);
        // Aggregates stay finite even after non-finite samples and merges.
        assert!(h.mean().is_finite());
        assert_eq!(h.max(), LatencyHistogram::SAMPLE_CAP_US);
        let mut other = LatencyHistogram::new();
        other.record(f64::NAN);
        h.merge(&other);
        assert!(h.mean().is_finite());
    }

    #[test]
    fn fraction_below_tracks_slo() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(100.0);
        }
        for _ in 0..10 {
            h.record(10_000.0);
        }
        let frac = h.fraction_below(1_000.0);
        assert!((frac - 0.9).abs() < 1e-9, "fraction {frac}");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        a.record(10.0);
        let mut b = LatencyHistogram::new();
        b.record(1000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10.0);
        assert_eq!(a.max(), 1000.0);
    }

    #[test]
    fn report_aggregates_collector_state() {
        let mut c = MetricsCollector::default();
        for i in 0..100u64 {
            c.record_query(100.0 + i as f64, 5.0, Some(50.0), Some(150.0));
        }
        c.record_batch(100, 900.0);
        let report = ServeReport::from_collector("test".into(), &c, 2.0, 3, Some(150.0));
        assert_eq!(report.queries, 100);
        assert_eq!(report.rejected, 3);
        assert_eq!(report.qps, 50.0);
        assert!(report.p50_us <= report.p99_us);
        assert!(report.slo_attainment.unwrap() > 0.0);
        assert!(report.simulated_p50_us.is_some());
        assert!(report.summary().contains("QPS"));
        // Goodput counts only in-SLO completions: 50 of 100 queries are at
        // or below 150 µs (wall 100..=149 µs qualify), over 2 s.
        assert_eq!(report.goodput_qps, c.slo_hits as f64 / 2.0);
        assert!(report.goodput_qps <= report.qps);
    }

    #[test]
    fn shed_and_failed_are_counted_separately_from_rejected() {
        let mut c = MetricsCollector::default();
        for _ in 0..10 {
            c.record_query(100.0, 5.0, None, None);
        }
        c.record_shed(4);
        c.record_failed(2);
        let report = ServeReport::from_collector("test".into(), &c, 1.0, 7, None);
        assert_eq!(report.queries, 10);
        assert_eq!(report.shed, 4);
        assert_eq!(report.failed, 2);
        assert_eq!(report.rejected, 7);
        // Without an SLO goodput degenerates to throughput.
        assert_eq!(report.goodput_qps, report.qps);
        assert!(report.summary().contains("shed 4"));
        // No replica stats attached yet.
        assert_eq!(report.failover_count, 0);
        assert!(report.replicas.is_empty());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn filled(samples: &[f64]) -> LatencyHistogram {
            let mut h = LatencyHistogram::new();
            for &s in samples {
                h.record(s);
            }
            h
        }

        proptest! {
            /// `merge` is order-independent: merging A into B and B into A
            /// yield identical aggregates and quantiles.
            #[test]
            fn merge_is_order_independent(
                a in prop::collection::vec(0.1f64..1e7, 0..60),
                b in prop::collection::vec(0.1f64..1e7, 0..60),
                p in 0.0f64..100.0,
            ) {
                let mut ab = filled(&a);
                ab.merge(&filled(&b));
                let mut ba = filled(&b);
                ba.merge(&filled(&a));
                prop_assert_eq!(ab.count(), ba.count());
                prop_assert_eq!(ab.min(), ba.min());
                prop_assert_eq!(ab.max(), ba.max());
                prop_assert_eq!(ab.mean(), ba.mean());
                prop_assert_eq!(ab.percentile(p), ba.percentile(p));
                prop_assert_eq!(ab.percentile(50.0), ba.percentile(50.0));
            }

            /// Quantile estimates stay within one bucket width (a factor of
            /// `GROWTH`) of the exact order statistic at the same rank.
            #[test]
            fn quantiles_stay_within_one_bucket_of_exact(
                samples in prop::collection::vec(0.1f64..1e7, 1..80),
                p in 0.0f64..100.0,
            ) {
                let h = filled(&samples);
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
                let exact = sorted[rank - 1];
                let estimate = h.percentile(p);
                prop_assert!(
                    estimate >= exact / GROWTH && estimate <= exact * GROWTH,
                    "estimate {} vs exact {} at p{} (n={})",
                    estimate,
                    exact,
                    p,
                    sorted.len()
                );
            }
        }
    }
}
