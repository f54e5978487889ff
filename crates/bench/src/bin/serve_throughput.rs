//! Online-serving throughput sweep: batch-size x shard-count grid over the
//! CPU IVF-PQ backend behind the `fanns-serve` QueryEngine, one JSON row per
//! configuration (machine-greppable, like the figure binaries).
//!
//! ```sh
//! FANNS_SCALE=small cargo run --release --bin serve_throughput
//! ```
//!
//! Sweeps show the two serving levers the paper's deployment story turns on:
//! batching trades latency for throughput, sharding trades replica count for
//! per-query fan-out cost. Wall percentiles (`p50_us` …) are host-measured
//! on co-located replicas; the *modeled* distributed latency — slowest
//! shard's service time plus the LogGP scatter/gather cost — is reported
//! separately as `modeled_p50_us` / `modeled_p99_us`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use fanns_bench::baseline;
use fanns_bench::{print_header, sift_workload, Scale};
use fanns_ivf::index::IvfPqTrainConfig;
use fanns_ivf::params::IvfPqParams;
use fanns_scaleout::loggp::LogGpParams;
use fanns_serve::loadgen::run_closed_loop;
use fanns_serve::{shard_cpu_backends, BatchPolicy, EngineConfig, QueryEngine, SearchBackend};

/// One sweep point, printed as a JSON row.
#[derive(Debug, Serialize)]
struct SweepRow {
    backend: String,
    shards: usize,
    max_batch_size: usize,
    workers: usize,
    network_us_per_query: f64,
    queries: u64,
    qps: f64,
    mean_batch_size: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_queue_us: f64,
    /// Modeled distributed latency (slowest shard + LogGP), when sharded.
    modeled_p50_us: Option<f64>,
    modeled_p99_us: Option<f64>,
}

fn main() {
    let scale = Scale::from_env();
    let workload = sift_workload(scale);
    print_header(
        "serve_throughput",
        "online serving sweep: batch size cap x shard count (closed loop)",
    );
    println!(
        "dataset: {} vectors x {} dims, {} distinct queries, scale {:?}",
        workload.database.len(),
        workload.database.dim(),
        workload.queries.len(),
        scale
    );

    let nlist = scale.default_nlist();
    let params = IvfPqParams::new(nlist, 8, 10).with_m(16);
    let train = IvfPqTrainConfig::new(nlist)
        .with_m(16)
        .with_ksub(64)
        .with_train_sample(30_000)
        .with_seed(7);

    let shard_counts = [1usize, 2, 4];
    let batch_sizes = [1usize, 16, 64, 256];
    let num_queries = match scale {
        Scale::Small => 2_000,
        Scale::Medium => 10_000,
        Scale::Large => 20_000,
    };

    let mut canonical: BTreeMap<String, f64> = BTreeMap::new();
    for &shards in &shard_counts {
        // Each replica trains an index over its partition; queries fan out to
        // every replica and merge, paying the LogGP scatter/gather cost. The
        // backend is built once per shard count and shared across engines.
        let network = (shards > 1).then(LogGpParams::paper_infiniband);
        let backend = Arc::new(shard_cpu_backends(
            &workload.database,
            shards,
            &train,
            params,
            network,
        ));
        let network_us = backend.network_us_per_query();
        let backend_name = backend.name();

        for &max_batch in &batch_sizes {
            let config = EngineConfig::new(BatchPolicy::new(max_batch, Duration::ZERO))
                .with_workers(2)
                .with_queue_depth(4_096);
            let engine = QueryEngine::start(backend.clone(), config);
            let concurrency = (max_batch * 2).clamp(8, 512);
            let outcome = run_closed_loop(&engine, &workload.queries, concurrency, num_queries);
            let report = engine.shutdown();
            let row = SweepRow {
                backend: backend_name.clone(),
                shards,
                max_batch_size: max_batch,
                workers: config.workers,
                network_us_per_query: network_us,
                queries: report.queries,
                qps: report.qps,
                mean_batch_size: report.mean_batch_size,
                p50_us: report.p50_us,
                p95_us: report.p95_us,
                p99_us: report.p99_us,
                mean_queue_us: report.mean_queue_us,
                modeled_p50_us: report.simulated_p50_us,
                modeled_p99_us: report.simulated_p99_us,
            };
            println!(
                "{}",
                serde_json::to_string(&row).expect("sweep row serialises")
            );
            canonical.insert(format!("s{shards}_b{max_batch}_qps"), row.qps);
            canonical.insert(format!("s{shards}_b{max_batch}_p50_us"), row.p50_us);
            debug_assert_eq!(outcome.completed as u64, report.queries);
        }
    }

    // Canonical baseline trajectory: one section of BENCH_serve.json, keyed
    // by sweep point, compared against by `bench_compare` (see
    // `fanns_bench::baseline`).
    let out = baseline::update_section(&baseline::bench_out_path(), "serve_throughput", &canonical);
    eprintln!(
        "serve_throughput: wrote {} metrics to {}",
        canonical.len(),
        out.display()
    );
}
