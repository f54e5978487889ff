//! Cached-serving sweep: Zipf skew θ × result-cache capacity × offered QPS
//! over a CPU IVF-PQ backend behind the `QueryEngine` and its query-result
//! cache, one JSON row per configuration.
//!
//! ```sh
//! FANNS_SCALE=small cargo run --release --bin serve_cache
//! ```
//!
//! Real serving traffic is Zipf-skewed — repeated queries dominate — so a
//! result cache in front of the engine converts the hot set into
//! sub-microsecond completions that consume no backend capacity and no
//! deadline budget. The sweep drives an open-loop Poisson arrival process
//! whose query choice follows Zipf(θ) over a fixed finite pool, and reports
//! the cache's hit rate plus the hit-path vs. backend-path latency split.
//! Two properties are asserted after the grid (the acceptance criteria of
//! the caching work):
//!
//! * at fixed capacity and offered load, the hit rate is monotonically
//!   non-decreasing in θ (more skew → more reuse), and
//! * cache-hit p50 latency is at least 10× below cache-miss p50.
//!
//! `capacity = 0` rows run the identical workload with caching disabled —
//! the baseline the cached rows are compared against.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use fanns_bench::baseline;
use fanns_bench::{print_header, Scale};
use fanns_dataset::synth::SyntheticSpec;
use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
use fanns_ivf::params::IvfPqParams;
use fanns_serve::loadgen::{run_open_loop, OpenLoopConfig};
use fanns_serve::{
    BatchPolicy, CpuBackend, EngineConfig, QueryEngine, QueryResultCache, ResultCacheConfig,
};

/// One sweep point, printed as a JSON row.
#[derive(Debug, Serialize)]
struct SweepRow {
    backend: String,
    /// Zipf skew of the offered query stream (0 = uniform over the pool).
    theta: f64,
    /// Result-cache capacity in entries (0 = caching disabled).
    capacity: usize,
    /// Distinct queries in the pool the generator resamples from.
    query_pool: usize,
    target_qps: f64,
    offered_qps: f64,
    /// Completed-query throughput (hits + backend completions).
    qps: f64,
    /// In-SLO throughput.
    goodput_qps: f64,
    slo_us: f64,
    /// Completed queries (cache hits included).
    queries: u64,
    /// Result-cache hits observed by the engine (0 when disabled).
    hits: u64,
    /// Result-cache misses observed by the engine.
    misses: u64,
    /// `hits / (hits + misses)`; 0 when the cache is disabled.
    hit_rate: f64,
    /// Median latency of cache-hit completions (µs); `null` when disabled.
    hit_p50_us: Option<f64>,
    /// Median latency of backend-path completions (µs) — the cache-miss p50.
    miss_p50_us: f64,
    /// 99th-percentile backend-path latency (µs).
    p99_us: f64,
    /// LRU evictions over the run.
    evictions: u64,
    /// Entries written over the run.
    insertions: u64,
    rejected: u64,
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "serve_cache",
        "cached serving sweep: Zipf theta x cache capacity x offered load (open loop)",
    );

    // A fixed 256-query pool regardless of scale: capacities below stay
    // strictly smaller than the pool, so hit rate is a real function of
    // skew and eviction rather than trivially saturating at 100 %.
    let query_pool = 256usize;
    let (database, queries) = SyntheticSpec::sift_medium(4242)
        .with_vectors(scale.num_vectors().min(50_000))
        .with_queries(query_pool)
        .generate();
    println!(
        "dataset: {} vectors x {} dims, {} distinct queries, scale {:?}",
        database.len(),
        database.dim(),
        queries.len(),
        scale
    );

    let nlist = 64usize;
    let params = IvfPqParams::new(nlist, 8, 10).with_m(16);
    let train = IvfPqTrainConfig::new(nlist)
        .with_m(16)
        .with_ksub(64)
        .with_train_sample(30_000)
        .with_seed(7);
    let index = IvfPqIndex::build(&database, &train);

    let thetas = [0.0f64, 0.6, 1.0, 1.4];
    let capacities = [0usize, 32, 128];
    let target_qps_grid = [2_000.0f64, 8_000.0];
    let slo_us = 10_000.0;
    let num_queries = match scale {
        Scale::Small => 2_000,
        Scale::Medium => 8_000,
        Scale::Large => 16_000,
    };

    // hit rates per (capacity, qps) in theta order, for the monotonicity
    // check; hit/miss p50 pairs for the latency-split check.
    let mut hit_rate_curves: HashMap<(usize, u64), Vec<f64>> = HashMap::new();
    let mut latency_splits: Vec<(f64, f64)> = Vec::new();
    let mut canonical: BTreeMap<String, f64> = BTreeMap::new();

    for &capacity in &capacities {
        for &target_qps in &target_qps_grid {
            for &theta in &thetas {
                // Fresh result cache per run so counters and occupancy start
                // clean.
                let result_cache = (capacity > 0)
                    .then(|| Arc::new(QueryResultCache::new(ResultCacheConfig::new(capacity))));

                let engine = QueryEngine::start_with_cache(
                    Arc::new(CpuBackend::new(index.clone(), params)),
                    EngineConfig::new(BatchPolicy::new(32, Duration::from_micros(500)))
                        .with_workers(2)
                        .with_queue_depth(4_096)
                        .with_slo_us(slo_us),
                    result_cache.clone(),
                );
                let outcome = run_open_loop(
                    &engine,
                    &queries,
                    OpenLoopConfig::new(target_qps, num_queries)
                        .with_seed(0x5EED_CAFE)
                        .with_zipf(theta),
                );
                let report = engine.shutdown();

                let cache = report.cache.as_ref();
                let row = SweepRow {
                    backend: report.backend.clone(),
                    theta,
                    capacity,
                    query_pool,
                    target_qps,
                    offered_qps: outcome.offered_qps,
                    qps: report.qps,
                    goodput_qps: report.goodput_qps,
                    slo_us,
                    queries: report.queries,
                    hits: cache.map(|c| c.hits).unwrap_or(0),
                    misses: cache.map(|c| c.misses).unwrap_or(0),
                    hit_rate: cache.map(|c| c.hit_rate).unwrap_or(0.0),
                    hit_p50_us: cache.map(|c| c.hit_p50_us),
                    miss_p50_us: report.p50_us,
                    p99_us: report.p99_us,
                    evictions: cache.map(|c| c.evictions).unwrap_or(0),
                    insertions: cache.map(|c| c.insertions).unwrap_or(0),
                    rejected: report.rejected,
                };
                println!(
                    "{}",
                    serde_json::to_string(&row).expect("sweep row serialises")
                );
                let point = format!("cap{capacity}_qps{target_qps:.0}_theta{theta:.1}");
                canonical.insert(format!("{point}_hit_rate"), row.hit_rate);
                canonical.insert(format!("{point}_miss_p50_us"), row.miss_p50_us);

                if capacity > 0 {
                    hit_rate_curves
                        .entry((capacity, target_qps as u64))
                        .or_default()
                        .push(row.hit_rate);
                    if let Some(hit_p50) = row.hit_p50_us {
                        if row.hits > 0 {
                            latency_splits.push((hit_p50, row.miss_p50_us));
                        }
                    }
                }
            }
        }
    }

    // Acceptance checks over the grid (see the module docs).
    for ((capacity, qps), curve) in &hit_rate_curves {
        for pair in curve.windows(2) {
            assert!(
                pair[1] >= pair[0] - 0.02,
                "hit rate must be monotone in theta at capacity {capacity}, {qps} QPS: {curve:?}"
            );
        }
        assert!(
            curve.last().unwrap() > curve.first().unwrap(),
            "skew must raise the hit rate at capacity {capacity}, {qps} QPS: {curve:?}"
        );
    }
    for &(hit_p50, miss_p50) in &latency_splits {
        assert!(
            hit_p50 * 10.0 <= miss_p50,
            "cache-hit p50 {hit_p50:.2} us must be >= 10x below miss p50 {miss_p50:.2} us"
        );
    }
    let out = baseline::update_section(&baseline::bench_out_path(), "serve_cache", &canonical);
    eprintln!(
        "serve_cache: wrote {} metrics to {}",
        canonical.len(),
        out.display()
    );
    eprintln!(
        "serve_cache OK: hit rate monotone in theta on {} curves; hit p50 >= 10x below miss p50 on {} rows",
        hit_rate_curves.len(),
        latency_splits.len()
    );
}
