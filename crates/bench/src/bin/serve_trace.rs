//! End-to-end query tracing under Zipf replay: overhead guardrail, Chrome
//! trace export, telemetry time-series, and critical-path attribution.
//!
//! ```sh
//! FANNS_SCALE=small cargo run --release --bin serve_trace
//! ```
//!
//! Drives the `QueryEngine` (CPU IVF-PQ backend, no result cache, so every
//! query walks the full pipeline) with an open-loop Zipf(1.0) arrival
//! process, twice per mode in alternation — untraced, traced, untraced,
//! traced — and then:
//!
//! 1. **Overhead guardrail.** Compares the best (minimum) untraced p50
//!    against the best traced p50 at the default 1-in-8 sampling rate and
//!    asserts `traced_p50 <= untraced_p50 * 1.05 + 25 us` — the ≤ 5 %
//!    (plus a fixed jitter floor for sub-millisecond medians) budget
//!    documented in `docs/OBSERVABILITY.md`. CI runs this binary at small
//!    scale, so a tracing hot-path regression fails the build.
//! 2. **Chrome trace export.** Writes the final traced run's retained span
//!    events as a Chrome trace-event JSON (`trace.json`) — open it at
//!    `chrome://tracing` or <https://ui.perfetto.dev>.
//! 3. **Time-series export.** A sampler thread snapshots the registry every
//!    200 ms during the traced runs; the rows land in `timeseries.jsonl`,
//!    one cumulative `TelemetrySnapshot` per line.
//! 4. **Schema validation.** Both files are re-parsed and structurally
//!    checked (trace: `traceEvents` array with `name`/`ph`/`ts`/`pid`/`tid`
//!    per event; JSONL: `t_s`/`events`/`stages` per row) — export bugs fail
//!    the run, not the downstream viewer.
//! 5. **Critical-path analysis.** Prints the per-stage attribution table
//!    (the live-path Fig. 3 analogue), the dominant-stage census and the
//!    slowest query's breakdown, and asserts the stage sums reconcile with
//!    measured wall latency to within ±5 %.
//! 6. **Baseline.** Rewrites the `serve_trace` section of
//!    `BENCH_serve.json` (`FANNS_BENCH_OUT` redirects it): the two medians
//!    of the overhead gate and the p50 of every query-path stage of the
//!    final traced run, so the committed baseline says where a query's time
//!    goes, not only how long it took.
//!
//! Outputs land in `target/serve_trace/` (override with `FANNS_TRACE_DIR`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use fanns_bench::{baseline, print_header, Scale};
use fanns_dataset::synth::SyntheticSpec;
use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
use fanns_ivf::params::IvfPqParams;
use fanns_serve::loadgen::{run_open_loop, OpenLoopConfig};
use fanns_serve::{
    analyze_critical_paths, chrome_trace_json, BatchPolicy, CpuBackend, EngineConfig, QueryEngine,
    ServeReport, TelemetryConfig, TelemetryRegistry,
};
use serde::Value;

/// Documented overhead bound: traced p50 may exceed untraced p50 by at most
/// this relative factor...
const OVERHEAD_REL: f64 = 0.05;
/// ...plus this absolute jitter floor (µs), so sub-millisecond medians are
/// not gated on scheduler noise smaller than a timeslice.
const OVERHEAD_ABS_US: f64 = 25.0;

struct RunOutput {
    report: ServeReport,
    registry: Option<Arc<TelemetryRegistry>>,
    timeseries: Vec<String>,
    completed: usize,
}

fn run_once(
    index: &IvfPqIndex,
    params: IvfPqParams,
    queries: &fanns_dataset::types::QuerySet,
    target_qps: f64,
    num_queries: usize,
    traced: bool,
) -> RunOutput {
    let registry = traced.then(|| Arc::new(TelemetryRegistry::new(TelemetryConfig::new())));
    let mut backend = CpuBackend::new(index.clone(), params);
    if let Some(reg) = &registry {
        backend = backend.with_telemetry(reg.sink());
    }
    let engine = QueryEngine::start_with_telemetry(
        Arc::new(backend),
        EngineConfig::new(BatchPolicy::new(32, Duration::from_micros(500)))
            .with_workers(2)
            .with_queue_depth(8_192),
        None,
        registry.clone(),
    );

    // The sampler owns only the registry handle: it drains rings and emits
    // one cumulative JSONL row every 200 ms while the run is in flight.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = registry.as_ref().map(|reg| {
        let reg = Arc::clone(reg);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rows = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(200));
                let snap = reg.snapshot();
                rows.push(serde_json::to_string(&snap).expect("snapshot serialises"));
            }
            rows
        })
    });

    let outcome = run_open_loop(
        &engine,
        queries,
        OpenLoopConfig::new(target_qps, num_queries)
            .with_seed(0xC0FF_EE00)
            .with_zipf(1.0),
    );
    let report = engine.shutdown();
    stop.store(true, Ordering::Relaxed);
    let timeseries = sampler
        .map(|h| h.join().expect("sampler joins"))
        .unwrap_or_default();

    RunOutput {
        report,
        registry,
        timeseries,
        completed: outcome.completed,
    }
}

/// Structural check of the Chrome trace-event document.
fn validate_chrome_trace(text: &str) -> usize {
    let doc = serde_json::parse(text).expect("trace.json parses as JSON");
    let events = doc
        .get("traceEvents")
        .expect("trace.json has a traceEvents key");
    let Value::Seq(items) = events else {
        panic!("traceEvents must be an array");
    };
    assert!(!items.is_empty(), "traceEvents must not be empty");
    for item in items {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(
                item.get(key).is_some(),
                "trace event missing required key `{key}`"
            );
        }
    }
    items.len()
}

/// Structural check of the JSONL time-series rows.
fn validate_timeseries(rows: &[String]) {
    for row in rows {
        let doc = serde_json::parse(row).expect("timeseries row parses as JSON");
        for key in ["t_s", "events", "dropped", "queue_depth", "stages"] {
            assert!(
                doc.get(key).is_some(),
                "timeseries row missing required key `{key}`"
            );
        }
    }
}

fn trace_dir() -> PathBuf {
    match std::env::var("FANNS_TRACE_DIR") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/serve_trace"),
    }
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "serve_trace",
        "end-to-end tracing: overhead guardrail, Chrome trace, time-series, critical path",
    );

    // ≥ 10k completed queries even at small scale — the trace must cover a
    // statistically meaningful Zipf replay, not a toy burst.
    let (target_qps, num_queries) = match scale {
        Scale::Small => (2_500.0, 12_000),
        Scale::Medium => (4_000.0, 20_000),
        Scale::Large => (6_000.0, 40_000),
    };
    let (database, queries) = SyntheticSpec::sift_medium(777)
        .with_vectors(scale.num_vectors().min(50_000))
        .with_queries(512)
        .generate();
    println!(
        "dataset: {} vectors x {} dims, {} distinct queries, scale {:?}",
        database.len(),
        database.dim(),
        queries.len(),
        scale
    );
    println!(
        "replay: {num_queries} queries, Zipf(1.0) over {} distinct, {target_qps:.0} QPS offered",
        queries.len()
    );

    let nlist = 64usize;
    let params = IvfPqParams::new(nlist, 8, 10).with_m(16);
    let train = IvfPqTrainConfig::new(nlist)
        .with_m(16)
        .with_ksub(64)
        .with_train_sample(30_000)
        .with_seed(7);
    let index = IvfPqIndex::build(&database, &train);

    // Interleave untraced/traced runs so drift (thermal, page cache) hits
    // both modes evenly; score each mode by its best run.
    let mut untraced_p50 = f64::INFINITY;
    let mut traced_p50 = f64::INFINITY;
    let mut last_traced: Option<RunOutput> = None;
    for round in 0..2 {
        let off = run_once(&index, params, &queries, target_qps, num_queries, false);
        untraced_p50 = untraced_p50.min(off.report.p50_us);
        println!(
            "round {round} untraced: p50 {:.1} us, p99 {:.1} us, {} completed",
            off.report.p50_us, off.report.p99_us, off.completed
        );
        let on = run_once(&index, params, &queries, target_qps, num_queries, true);
        traced_p50 = traced_p50.min(on.report.p50_us);
        println!(
            "round {round} traced:   p50 {:.1} us, p99 {:.1} us, {} completed",
            on.report.p50_us, on.report.p99_us, on.completed
        );
        last_traced = Some(on);
    }
    let traced_run = last_traced.expect("at least one traced run");

    // 1. Overhead guardrail (the CI gate).
    let bound = untraced_p50 * (1.0 + OVERHEAD_REL) + OVERHEAD_ABS_US;
    println!(
        "overhead: untraced p50 {untraced_p50:.1} us, traced p50 {traced_p50:.1} us, bound {bound:.1} us"
    );
    assert!(
        traced_p50 <= bound,
        "tracing overhead exceeds budget: traced p50 {traced_p50:.1} us > \
         untraced p50 {untraced_p50:.1} us * {:.2} + {OVERHEAD_ABS_US} us",
        1.0 + OVERHEAD_REL
    );

    // 2.–4. Exports and schema validation from the final traced run.
    let registry = traced_run
        .registry
        .as_ref()
        .expect("traced run has registry");
    let events = registry.events();
    assert!(!events.is_empty(), "traced run must retain span events");
    let dir = trace_dir();
    std::fs::create_dir_all(&dir).expect("create trace output dir");

    let trace_path = dir.join("trace.json");
    let trace_text = chrome_trace_json(&events);
    std::fs::write(&trace_path, &trace_text).expect("write trace.json");
    let trace_events = validate_chrome_trace(&trace_text);

    let ts_path = dir.join("timeseries.jsonl");
    assert!(
        !traced_run.timeseries.is_empty(),
        "sampler must emit at least one snapshot"
    );
    validate_timeseries(&traced_run.timeseries);
    std::fs::write(&ts_path, traced_run.timeseries.join("\n") + "\n")
        .expect("write timeseries.jsonl");
    println!(
        "exports: {} ({trace_events} events), {} ({} rows) — both schema-validated",
        trace_path.display(),
        ts_path.display(),
        traced_run.timeseries.len()
    );

    // 5. Stage attribution and per-query critical paths.
    let stages = traced_run
        .report
        .stages
        .as_ref()
        .expect("traced report carries the stage breakdown");
    println!("\n{}\n", stages.table());
    let critical = analyze_critical_paths(&events);
    println!("{}\n", critical.summary_table());

    assert!(
        traced_run.completed >= num_queries.min(10_000),
        "traced run completed only {} of {num_queries} queries",
        traced_run.completed
    );
    assert!(
        stages.sampled_queries > 0,
        "stage report saw no sampled queries"
    );
    assert!(
        (0.95..=1.05).contains(&stages.reconciliation),
        "stage sums must reconcile with wall latency: reconciliation {:.3}",
        stages.reconciliation
    );

    let mut canonical: BTreeMap<String, f64> = BTreeMap::new();
    canonical.insert("untraced_p50_us".into(), untraced_p50);
    canonical.insert("traced_p50_us".into(), traced_p50);
    let path_stages = ["submit", "queue_wait", "batch_form", "service", "reply"];
    for row in &stages.rows {
        if path_stages.contains(&row.stage.as_str()) {
            canonical.insert(format!("stage_{}_p50_us", row.stage), row.p50_us);
        }
    }
    let out = baseline::update_section(&baseline::bench_out_path(), "serve_trace", &canonical);
    eprintln!(
        "serve_trace: wrote {} metrics to {}",
        canonical.len(),
        out.display()
    );

    eprintln!(
        "serve_trace OK: overhead within {:.0}%+{OVERHEAD_ABS_US}us budget, \
         {trace_events} trace events, {} snapshots, reconciliation {:.3}",
        OVERHEAD_REL * 100.0,
        traced_run.timeseries.len(),
        stages.reconciliation
    );
}
