//! Integration tests for the online serving path: the batched, sharded
//! engine must be *correct* (identical results to single-threaded sequential
//! search) and its measurements must be sane under load.

use std::sync::Arc;
use std::time::Duration;

use fanns::framework::{Fanns, FannsRequest};
use fanns_dataset::synth::SyntheticSpec;
use fanns_ivf::flat::FlatIndex;
use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
use fanns_ivf::params::IvfPqParams;
use fanns_ivf::search::search;
use fanns_scaleout::loggp::LogGpParams;
use fanns_serve::loadgen::{run_closed_loop, run_open_loop, OpenLoopConfig};
use fanns_serve::{
    analyze_critical_paths, chrome_trace_json, shard_flat_backends, BatchPolicy, CpuBackend,
    EngineConfig, FaultInjector, FaultMode, FlatBackend, QueryEngine, QueryResultCache,
    QueryStatus, ReplicaHealthConfig, ReplicaSet, ResultCacheConfig, SearchBackend,
    TelemetryConfig, TelemetryRegistry, Ticket,
};

#[test]
fn batched_engine_matches_sequential_search() {
    // The engine batches and parallelises; results must equal the plain
    // single-threaded sequential search on the same index, query for query.
    let (db, queries) = SyntheticSpec::sift_small(2024).generate();
    let index = IvfPqIndex::build(
        &db,
        &IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000),
    );
    let params = IvfPqParams::new(16, 4, 10).with_m(16);

    let expected: Vec<_> = (0..queries.len())
        .map(|q| search(&index, queries.get(q), 10, 4))
        .collect();

    let engine = QueryEngine::start(
        Arc::new(CpuBackend::new(index, params)),
        EngineConfig::new(BatchPolicy::new(16, Duration::from_micros(300))).with_workers(4),
    );
    let tickets: Vec<Ticket> = (0..queries.len())
        .map(|q| engine.submit(queries.get(q).to_vec()).unwrap())
        .collect();
    for (q, ticket) in tickets.into_iter().enumerate() {
        let reply = ticket.wait().expect("reply delivered");
        assert_eq!(
            reply.results, expected[q],
            "query {q} diverged under batching"
        );
    }
    let report = engine.shutdown();
    assert_eq!(report.queries as usize, queries.len());
}

#[test]
fn sharded_dispatch_matches_sequential_topk() {
    // Exact backends make sharding exactly mergeable: the scatter/gather
    // over 4 partitions must reproduce global sequential top-k.
    let (db, queries) = SyntheticSpec::sift_small(2025).generate();
    let global = FlatIndex::new(db.clone());
    let sharded = shard_flat_backends(&db, 4, 10, Some(LogGpParams::paper_infiniband()));

    let engine = QueryEngine::start(
        Arc::new(sharded),
        EngineConfig::new(BatchPolicy::new(8, Duration::from_micros(300))).with_workers(2),
    );
    let n = queries.len().min(64);
    let tickets: Vec<Ticket> = (0..n)
        .map(|q| engine.submit(queries.get(q).to_vec()).unwrap())
        .collect();
    for (q, ticket) in tickets.into_iter().enumerate() {
        let reply = ticket.wait().expect("reply delivered");
        let expected = global.search(queries.get(q), 10);
        assert_eq!(
            reply.results, expected,
            "query {q}: sharded merge diverged from sequential top-k"
        );
        // The LogGP fan-out cost is charged on the simulated path only when
        // shard backends simulate hardware; flat shards are native, so the
        // reply's wall latency is the observable quantity here.
        assert!(reply.latency_us.is_finite() && reply.latency_us >= 0.0);
    }
    engine.shutdown();
}

#[test]
fn generated_accelerator_serves_online() {
    // End-to-end: co-design -> into_backend -> engine -> load -> report.
    let (db, queries) = SyntheticSpec::sift_small(2026).generate();
    let request = FannsRequest::recall_goal(10, 0.35).test_scale();
    let generated = Fanns::new(request)
        .run(&db, &queries)
        .expect("co-design succeeds");
    let backend = Arc::new(generated.into_backend());

    let engine = QueryEngine::start(
        backend,
        EngineConfig::new(BatchPolicy::new(32, Duration::from_micros(500)))
            .with_workers(2)
            .with_slo_us(50_000.0),
    );
    let outcome = run_closed_loop(&engine, &queries, 8, 300);
    assert_eq!(outcome.completed, 300);

    let report = engine.shutdown();
    assert_eq!(report.queries, 300);
    assert!(report.qps > 0.0, "QPS must be positive: {}", report.qps);
    assert!(report.p50_us > 0.0 && report.p50_us.is_finite());
    assert!(report.p50_us <= report.p99_us, "p50 must not exceed p99");
    let sim_p50 = report
        .simulated_p50_us
        .expect("accelerator reports simulated latency");
    assert!(sim_p50.is_finite() && sim_p50 > 0.0);
    assert!(report.slo_attainment.is_some());
}

/// Builds a 3-replica set of exact flat backends over a shared index, each
/// behind a fault injector, and returns the set with the fault handles.
fn fault_injectable_flat_replicas(
    db: &fanns_dataset::types::VectorDataset,
    k: usize,
) -> (ReplicaSet, Vec<fanns_serve::FaultHandle>) {
    let shared: std::sync::Arc<dyn SearchBackend> =
        Arc::new(FlatBackend::new(FlatIndex::new(db.clone()), k));
    let mut handles = Vec::new();
    let slots: Vec<Box<dyn SearchBackend>> = (0..3)
        .map(|_| {
            let (injector, handle) =
                FaultInjector::new(Box::new(Arc::clone(&shared)) as Box<dyn SearchBackend>);
            handles.push(handle);
            Box::new(injector) as Box<dyn SearchBackend>
        })
        .collect();
    (
        ReplicaSet::new(slots, ReplicaHealthConfig::default(), None),
        handles,
    )
}

#[test]
fn failover_preserves_ground_truth_results() {
    // (a) With one replica killed mid-run, every completed query must still
    // equal the sequential exact search: failover changes *where* a query
    // runs, never *what* it answers.
    let (db, queries) = SyntheticSpec::sift_small(2028).generate();
    let global = FlatIndex::new(db.clone());
    let (set, handles) = fault_injectable_flat_replicas(&db, 10);
    let stats = set.stats();

    let engine = QueryEngine::start(
        Arc::new(set),
        EngineConfig::new(BatchPolicy::new(4, Duration::from_micros(200))).with_workers(2),
    );
    let n = queries.len().min(64);
    let mut tickets: Vec<(usize, Ticket)> = Vec::new();
    for (i, q) in (0..n).map(|i| (i, queries.get(i))).collect::<Vec<_>>() {
        // Kill replica 0 a third of the way through the stream.
        if i == n / 3 {
            handles[0].set(FaultMode::Error);
        }
        tickets.push((i, engine.submit(q.to_vec()).unwrap()));
    }
    for (i, ticket) in tickets {
        let reply = ticket.wait().expect("reply delivered");
        assert_eq!(reply.status, QueryStatus::Completed, "query {i}");
        let expected = global.search(queries.get(i), 10);
        assert_eq!(
            reply.results, expected,
            "query {i}: failover diverged from sequential ground truth"
        );
    }
    let report = engine.shutdown().with_replica_stats(&[stats]);
    assert_eq!(report.queries as usize, n);
    assert_eq!(report.failed, 0, "survivors must absorb the killed replica");
    assert!(
        report.failover_count > 0,
        "the killed replica must have caused failovers"
    );
    let killed = &report.replicas[0];
    assert!(
        killed.quarantines >= 1,
        "killed replica must be quarantined"
    );
}

#[test]
fn shed_queries_always_resolve_their_tickets() {
    // (b) Deadline shedding must never silently drop a query: every accepted
    // ticket resolves with Completed or Shed, even under an impossible SLO.
    let (db, queries) = SyntheticSpec::sift_small(2029).generate();
    let index = IvfPqIndex::build(
        &db,
        &IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000),
    );
    let engine = QueryEngine::start(
        Arc::new(CpuBackend::new(
            index,
            IvfPqParams::new(16, 8, 10).with_m(16),
        )),
        EngineConfig::new(BatchPolicy::new(8, Duration::from_micros(100)))
            .with_workers(1)
            // 50 µs end-to-end SLO: essentially every query expires in queue
            // once the service estimate warms up.
            .with_slo_us(50.0)
            .with_deadline_shedding()
            .with_service_estimate_us(100.0),
    );
    let tickets: Vec<Ticket> = (0..300)
        .map(|i| {
            engine
                .submit(queries.get(i % queries.len()).to_vec())
                .unwrap()
        })
        .collect();
    let mut completed = 0u64;
    let mut shed = 0u64;
    for t in tickets {
        match t.wait().expect("every accepted ticket resolves").status {
            QueryStatus::Completed => completed += 1,
            QueryStatus::Shed => shed += 1,
            QueryStatus::Failed => panic!("no backend failures in this test"),
        }
    }
    assert_eq!(completed + shed, 300, "nothing may vanish");
    assert!(shed > 0, "an impossible SLO must shed");
    let report = engine.shutdown();
    assert_eq!(report.queries, completed);
    assert_eq!(report.shed, shed);
}

#[test]
fn goodput_counters_reconcile_with_offered_load() {
    // (c) The report's accounting identity: completed + shed + failed equals
    // accepted, accepted + rejected equals offered, and goodput counts only
    // in-SLO completions.
    let (db, queries) = SyntheticSpec::sift_small(2030).generate();
    let (set, handles) = fault_injectable_flat_replicas(&db, 10);
    let stats = set.stats();
    // Flaky replicas: every 25th call on each replica errors, so failovers
    // happen while most traffic completes.
    for h in &handles {
        h.set(FaultMode::ErrorEveryNth(25));
    }
    let engine = QueryEngine::start(
        Arc::new(set),
        EngineConfig::new(BatchPolicy::new(16, Duration::from_micros(300)))
            .with_workers(2)
            .with_queue_depth(64)
            .with_slo_us(20_000.0)
            .with_deadline_shedding(),
    );
    let outcome = run_open_loop(&engine, &queries, OpenLoopConfig::new(30_000.0, 1_000));
    let report = engine.shutdown().with_replica_stats(&[stats]);

    assert_eq!(outcome.offered, 1_000);
    assert_eq!(outcome.accepted + outcome.shed, outcome.offered);
    assert_eq!(report.rejected as usize, outcome.shed);
    assert_eq!(
        report.queries + report.shed + report.failed,
        outcome.accepted as u64,
        "every accepted query resolves exactly once"
    );
    assert_eq!(report.queries as usize, outcome.completed);
    assert_eq!(report.shed as usize, outcome.deadline_shed);
    assert_eq!(report.failed as usize, outcome.failed);
    // Goodput can never exceed throughput, and with an SLO configured it is
    // exactly in-SLO completions over the wall window.
    assert!(report.goodput_qps <= report.qps + 1e-9);
    let attainment = report.slo_attainment.expect("slo configured");
    assert!(
        (report.goodput_qps - attainment * report.qps).abs() <= report.qps * 1e-6 + 1e-9,
        "goodput {} must equal attainment {} x qps {}",
        report.goodput_qps,
        attainment,
        report.qps
    );
}

#[test]
fn cached_engine_matches_uncached_engine_on_a_replayed_trace() {
    // The result cache must be semantically invisible: a replayed query
    // trace gets bit-identical results with caching on and off, even though
    // most of the cached run never touches the backend.
    let (db, queries) = SyntheticSpec::sift_small(2031).generate();
    let index = IvfPqIndex::build(
        &db,
        &IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000),
    );
    let params = IvfPqParams::new(16, 4, 10).with_m(16);
    let expected: Vec<_> = (0..queries.len())
        .map(|q| search(&index, queries.get(q), 10, 4))
        .collect();

    // A trace that revisits a 16-query hot set many times.
    let trace: Vec<usize> = (0..300).map(|i| i % 16).collect();

    let cache = Arc::new(QueryResultCache::new(ResultCacheConfig::new(64)));
    let engine = QueryEngine::start_with_cache(
        Arc::new(CpuBackend::new(index, params)),
        EngineConfig::new(BatchPolicy::new(16, Duration::from_micros(300))).with_workers(4),
        Some(Arc::clone(&cache)),
    );
    // Warm pass: one synchronous round over the hot set fills the cache
    // (workers insert before delivering the reply), so the async replay
    // below actually exercises the hit path instead of racing 300
    // not-yet-cached submissions into the queue at once.
    for (q, expected) in expected.iter().enumerate().take(16) {
        let reply = engine
            .submit(queries.get(q).to_vec())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(reply.results, *expected, "warm query {q}");
    }
    let tickets: Vec<(usize, Ticket)> = trace
        .iter()
        .map(|&q| (q, engine.submit(queries.get(q).to_vec()).unwrap()))
        .collect();
    for (q, ticket) in tickets {
        let reply = ticket.wait().expect("reply delivered");
        assert_eq!(reply.status, QueryStatus::Completed);
        assert_eq!(
            reply.results, expected[q],
            "query {q}: cached serving diverged from sequential search"
        );
    }
    let report = engine.shutdown();
    assert_eq!(report.queries as usize, trace.len() + 16);
    let cache_report = report.cache.expect("cache section present");
    assert_eq!(
        cache_report.hits,
        trace.len() as u64,
        "after the warm pass every replayed submission must hit"
    );
    assert_eq!(
        cache_report.hits + cache_report.misses,
        (trace.len() + 16) as u64,
        "every submission consults the cache exactly once"
    );
}

#[test]
fn tiny_cache_never_serves_stale_results_across_an_index_swap() {
    // A capacity-4 cache under a 64-query stream churns through eviction
    // constantly; after the backend's dataset is swapped and the cache
    // invalidated, every reply must reflect the *new* dataset — a stale hit
    // would reproduce the old dataset's neighbours instead.
    let (db_a, queries) = SyntheticSpec::sift_small(2032).generate();
    let (db_b, _) = SyntheticSpec::sift_small(9932).generate();
    let truth_a = FlatIndex::new(db_a.clone());
    let truth_b = FlatIndex::new(db_b.clone());
    let cache = Arc::new(QueryResultCache::new(
        ResultCacheConfig::new(4).with_shards(1),
    ));

    // Serve dataset A twice over (fills, evicts, and hits), checking against
    // A's ground truth.
    let engine_a = QueryEngine::start_with_cache(
        Arc::new(FlatBackend::new(FlatIndex::new(db_a), 10)),
        EngineConfig::new(BatchPolicy::new(8, Duration::from_micros(200))).with_workers(2),
        Some(Arc::clone(&cache)),
    );
    // Each query runs twice back-to-back: the first fills, the immediate
    // repeat hits while the entry is still resident (the cyclic scan itself
    // evicts constantly at capacity 4).
    for i in 0..queries.len() {
        for rep in 0..2 {
            let reply = engine_a
                .submit(queries.get(i).to_vec())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                reply.results,
                truth_a.search(queries.get(i), 10),
                "rep {rep}, query {i}: wrong results against dataset A"
            );
        }
    }
    let report_a = engine_a.shutdown();
    let stats_a = report_a.cache.expect("cache section");
    assert!(
        stats_a.evictions > 0,
        "a capacity-4 cache under 64 distinct queries must evict"
    );

    // Swap the index: new backend over dataset B, same cache object. The
    // invalidation makes every surviving entry (and any in-flight insert
    // keyed against the old generation) unservable.
    cache.invalidate_all();
    let engine_b = QueryEngine::start_with_cache(
        Arc::new(FlatBackend::new(FlatIndex::new(db_b), 10)),
        EngineConfig::new(BatchPolicy::new(8, Duration::from_micros(200))).with_workers(2),
        Some(Arc::clone(&cache)),
    );
    for i in 0..queries.len() {
        for rep in 0..2 {
            let reply = engine_b
                .submit(queries.get(i).to_vec())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                reply.results,
                truth_b.search(queries.get(i), 10),
                "rep {rep}, query {i}: stale dataset-A results served after the swap"
            );
        }
    }
    let report_b = engine_b.shutdown();
    let stats_b = report_b.cache.expect("cache section");
    assert!(
        stats_b.hits > 0,
        "immediate repeats over dataset B must hit B-generation entries"
    );
}

#[test]
fn open_loop_load_generator_measures_finite_nonzero_rates() {
    let (db, queries) = SyntheticSpec::sift_small(2027).generate();
    let index = IvfPqIndex::build(
        &db,
        &IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000),
    );
    let engine = QueryEngine::start(
        Arc::new(CpuBackend::new(
            index,
            IvfPqParams::new(16, 4, 10).with_m(16),
        )),
        EngineConfig::new(BatchPolicy::new(32, Duration::from_micros(500))).with_workers(2),
    );
    let outcome = run_open_loop(&engine, &queries, OpenLoopConfig::new(5_000.0, 500));
    assert_eq!(outcome.accepted + outcome.shed, 500);
    assert_eq!(outcome.completed, outcome.accepted);
    assert!(outcome.offered_qps.is_finite() && outcome.offered_qps > 0.0);
    assert!(outcome.achieved_qps.is_finite() && outcome.achieved_qps > 0.0);

    let report = engine.shutdown();
    assert!(
        report.qps.is_finite() && report.qps > 0.0,
        "measured QPS: {}",
        report.qps
    );
    assert!(
        report.p99_us.is_finite() && report.p99_us > 0.0,
        "measured p99: {}",
        report.p99_us
    );
    assert!(report.p50_us <= report.p99_us);
}

#[test]
fn traced_engine_matches_untraced_engine_and_reconciles_stage_sums() {
    // Tracing is observational: with the registry attached (sampling every
    // query) results must be bit-identical to the untraced engine, the
    // report must carry the per-stage breakdown, and the telescoping stage
    // spans must account for measured wall latency.
    let (db, queries) = SyntheticSpec::sift_small(2028).generate();
    let index = IvfPqIndex::build(
        &db,
        &IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000),
    );
    let params = IvfPqParams::new(16, 4, 10).with_m(16);

    let run = |telemetry: Option<Arc<TelemetryRegistry>>| {
        let mut backend = CpuBackend::new(index.clone(), params);
        if let Some(reg) = &telemetry {
            backend = backend.with_telemetry(reg.sink());
        }
        let engine = QueryEngine::start_with_telemetry(
            Arc::new(backend),
            EngineConfig::new(BatchPolicy::new(16, Duration::from_micros(300))).with_workers(2),
            None,
            telemetry,
        );
        let tickets: Vec<Ticket> = (0..queries.len())
            .map(|q| engine.submit(queries.get(q).to_vec()).unwrap())
            .collect();
        let replies: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("reply delivered").results)
            .collect();
        (replies, engine.shutdown())
    };

    let (untraced_replies, untraced_report) = run(None);
    let registry = Arc::new(TelemetryRegistry::new(
        TelemetryConfig::new().with_sample_every(1),
    ));
    let (traced_replies, traced_report) = run(Some(Arc::clone(&registry)));

    assert_eq!(
        traced_replies, untraced_replies,
        "tracing must not change results"
    );
    assert!(untraced_report.stages.is_none());

    let stages = traced_report.stages.expect("traced report has breakdown");
    assert_eq!(stages.sample_every, 1);
    assert_eq!(stages.sampled_queries as usize, queries.len());
    assert_eq!(stages.dropped, 0, "rings must not overflow at this volume");
    assert!(
        (0.95..=1.05).contains(&stages.reconciliation),
        "path-stage sums must reconcile with wall latency, got {:.3}",
        stages.reconciliation
    );
    // Every query-path stage the engine walks must be present with one span
    // per query; backend sub-stages must cover every query too.
    for name in [
        "submit",
        "queue_wait",
        "batch_form",
        "service",
        "reply",
        "wall",
    ] {
        let row = stages
            .rows
            .iter()
            .find(|r| r.stage == name)
            .unwrap_or_else(|| panic!("stage `{name}` missing from breakdown"));
        assert_eq!(row.count as usize, queries.len(), "stage `{name}` count");
    }
    for name in ["coarse", "build_lut", "scan"] {
        let row = stages
            .rows
            .iter()
            .find(|r| r.stage == name)
            .unwrap_or_else(|| panic!("backend sub-stage `{name}` missing"));
        assert_eq!(
            row.count as usize,
            queries.len(),
            "sub-stage `{name}` count"
        );
    }

    // The retained events reconstruct per-query critical paths, and the
    // Chrome trace renders them with the required keys.
    let events = registry.events();
    let critical = analyze_critical_paths(&events);
    assert_eq!(critical.paths.len(), queries.len());
    for path in &critical.paths {
        assert!(
            path.wall_us > 0.0 && path.path_us <= path.wall_us * 1.10,
            "query {} path {:.1} us vs wall {:.1} us",
            path.query,
            path.path_us,
            path.wall_us
        );
    }
    let trace = chrome_trace_json(&events);
    let doc = serde_json::parse(&trace).expect("chrome trace parses");
    let serde::Value::Seq(items) = doc.get("traceEvents").expect("traceEvents key") else {
        panic!("traceEvents must be an array");
    };
    assert!(items.len() >= events.len());
}

#[test]
fn sampled_tracing_traces_only_every_nth_query() {
    // At 1-in-4 sampling only ~a quarter of queries pay for span recording,
    // and the wall-span count says exactly which fraction was observed.
    let (db, queries) = SyntheticSpec::sift_small(2029).generate();
    let index = IvfPqIndex::build(
        &db,
        &IvfPqTrainConfig::new(16)
            .with_m(16)
            .with_ksub(64)
            .with_train_sample(1_000),
    );
    let registry = Arc::new(TelemetryRegistry::new(
        TelemetryConfig::new().with_sample_every(4),
    ));
    let engine = QueryEngine::start_with_telemetry(
        Arc::new(CpuBackend::new(
            index,
            IvfPqParams::new(16, 4, 10).with_m(16),
        )),
        EngineConfig::new(BatchPolicy::new(16, Duration::from_micros(300))).with_workers(2),
        None,
        Some(Arc::clone(&registry)),
    );
    let total = 200usize;
    let tickets: Vec<Ticket> = (0..total)
        .map(|q| {
            engine
                .submit(queries.get(q % queries.len()).to_vec())
                .unwrap()
        })
        .collect();
    for ticket in tickets {
        ticket.wait().expect("reply delivered");
    }
    let report = engine.shutdown();
    let stages = report.stages.expect("breakdown present");
    // Engine ids count up from 0, so exactly ceil(total/4) are sampled.
    assert_eq!(stages.sampled_queries as usize, total.div_ceil(4));
}
