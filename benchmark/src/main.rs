//! The repo's benchmark: five serving workloads measured from outside the
//! program, end to end and layer by layer. See `README.md` in this directory.
//!
//! ```text
//! fanns-benchmark [--seed N] [--workload NAME] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--repeat N] [--results FILE]
//! fanns-benchmark compare A.json B.json
//! fanns-benchmark manifest
//! ```

mod adapter;
mod drive;
mod fixture;
mod gen;
mod layers;
mod oracle;
mod report;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde::Value;

use adapter::Mapped;
use fixture::Scale;
use layers::IngestProbe;
use report::{obj, MetricValues, END_TO_END, PER_LAYER};
use workload::{TraceMode, WorkloadSpec, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
/// The builder's final run: the committed numbers and their host.
const BASELINE: &str = include_str!("../baseline.json");

#[derive(Debug, Clone)]
struct Options {
    seed: u64,
    workload: Option<&'static WorkloadSpec>,
    seconds: f64,
    trace: TraceMode,
    smoke: bool,
    repeat: usize,
    results: Option<PathBuf>,
    /// Internal: the fixture directory of a `prepare` / `run-workload` child.
    dir: Option<PathBuf>,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: fanns-benchmark [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] \
         [--smoke] [--repeat N] [--results FILE]\n       \
         fanns-benchmark compare A.json B.json\n       fanns-benchmark manifest\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: DEFAULT_SEED,
        workload: None,
        seconds: report::RUN_SECONDS as f64,
        trace: TraceMode::Both,
        smoke: false,
        repeat: 1,
        results: None,
        dir: None,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(workload::find(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds >= 0.5 && o.seconds <= 600.0) {
                    return Err("--seconds must be between 0.5 and 600".to_string());
                }
                seconds_given = true;
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => TraceMode::Off,
                    "1" => TraceMode::On,
                    "both" => TraceMode::Both,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => o.smoke = true,
            "--repeat" => {
                o.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--results" => o.results = Some(PathBuf::from(value()?)),
            "--dir" => o.dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.smoke && !seconds_given {
        // Half-second segments.
        o.seconds = workload::SEGMENTS as f64 / 2.0;
    }
    Ok(o)
}

/// `benchmark/out`, wherever the checkout is.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    Path::new(&manifest_dir).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest());
            ExitCode::SUCCESS
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)),
            _ => usage("compare takes two result files"),
        },
        Some("prepare") => with_options(&args[1..], child_prepare),
        Some("run-workload") => with_options(&args[1..], child_run_workload),
        _ => with_options(&args, suite),
    }
}

fn with_options(args: &[String], run: fn(Options) -> ExitCode) -> ExitCode {
    match parse(args) {
        Ok(options) => run(options),
        Err(problem) => usage(&problem),
    }
}

fn compare(a: &Path, b: &Path) -> ExitCode {
    let docs = report::read_json(a).and_then(|a| Ok((a, report::read_json(b)?)));
    match docs.and_then(|(a, b)| report::compare(&a, &b)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(problem) => {
            eprintln!("{problem}");
            ExitCode::from(2)
        }
    }
}

fn child_prepare(o: Options) -> ExitCode {
    let dir = o.dir.expect("prepare needs --dir");
    let doc = fixture::prepare(&dir, o.seed, Scale::new(o.smoke));
    write_json(&dir.join("prepare.json"), &doc);
    ExitCode::SUCCESS
}

fn prepared_dim(dir: &Path) -> usize {
    let prepared = report::read_json(&dir.join("prepare.json")).expect("prepare.json");
    prepared.get("dim").and_then(Value::as_u64).expect("dim") as usize
}

fn child_run_workload(o: Options) -> ExitCode {
    let dir = o.dir.expect("run-workload needs --dir");
    let spec = o.workload.expect("run-workload needs --workload");
    let dim = prepared_dim(&dir);
    let doc = workload::Job {
        dir: &dir,
        out: &out_dir(),
        spec,
        seed: o.seed,
        seconds: o.seconds,
        mode: o.trace,
        scale: Scale::new(o.smoke),
        dim,
        committed_recall: committed_recall(spec.name, o.seed, o.smoke),
    }
    .run();
    write_json(&dir.join(format!("result-{}.json", spec.name)), &doc);
    ExitCode::SUCCESS
}

/// The committed `recall_at_10` of a workload, if the baseline is for this
/// seed at full scale (recall is a property of the seed's dataset).
fn committed_recall(workload: &str, seed: u64, smoke: bool) -> Option<f64> {
    let baseline = serde_json::parse(BASELINE).ok()?;
    if smoke || baseline.get("fingerprint")?.get("seed")?.as_u64()? != seed {
        return None;
    }
    let Value::Seq(runs) = baseline.get("runs")? else {
        return None;
    };
    runs.first()?
        .get(workload)?
        .get("end_to_end")?
        .get("recall_at_10")?
        .as_f64()
}

fn write_json(path: &Path, doc: &Value) {
    let text = serde_json::to_string_pretty(doc).expect("serialise a result");
    std::fs::write(path, text + "\n").expect("write a result file");
}

/// Runs this executable again as a child and waits for it, killing it at
/// the deadline (a ticket that never resolves must not hang the benchmark).
fn run_child(args: &[String], deadline: Duration) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", args[0]))?;
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("{} exited with {status}", args[0])),
            Ok(None) if started.elapsed() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} did not finish within {deadline:?}", args[0]));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait for {}: {e}", args[0]));
            }
        }
    }
}

/// One pass over the selected workloads: prepare once, then one process per
/// workload. Returns the run's document, workload name → result.
fn run_once(o: &Options) -> Result<Value, String> {
    let out = out_dir();
    let dir = out.join(format!("fixture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = run_in(o, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

fn run_in(o: &Options, dir: &Path) -> Result<Value, String> {
    let mut common = vec![
        "--dir".to_string(),
        dir.display().to_string(),
        "--seed".to_string(),
        o.seed.to_string(),
        "--seconds".to_string(),
        o.seconds.to_string(),
    ];
    if o.smoke {
        common.push("--smoke".to_string());
    }
    let started = Instant::now();
    run_child(
        &[vec!["prepare".to_string()], common.clone()].concat(),
        Duration::from_secs(600),
    )?;
    let prepared = report::read_json(&dir.join("prepare.json"))?;
    let prepare_setup_s = prepared
        .get("setup_s")
        .and_then(Value::as_f64)
        .ok_or("prepare.json: setup_s")?;
    let shared_layers =
        MetricValues::from_value(prepared.get("layers").ok_or("prepare.json: layers")?);
    println!("[prepare] {:.1} s", started.elapsed().as_secs_f64());

    let dim = prepared_dim(dir);
    let probe = IngestProbe::new(
        Mapped::open(&fixture::index_path(dir)),
        fixture::load_insert_pool(dir, dim),
        Scale::new(o.smoke).ingest_vectors,
    );

    let selected: Vec<&WorkloadSpec> = match o.workload {
        Some(spec) => vec![spec],
        None => WORKLOADS.iter().collect(),
    };
    let trace = match o.trace {
        TraceMode::Off => "0",
        TraceMode::On => "1",
        TraceMode::Both => "both",
    };
    let mut run = Vec::new();
    let mut window = probe.window();
    for spec in selected {
        let started = Instant::now();
        let mut args = vec!["run-workload".to_string()];
        args.extend(common.iter().cloned());
        args.extend(["--workload", spec.name, "--trace", trace].map(String::from));
        run_child(&args, Duration::from_secs_f64(o.seconds * 3.0 + 120.0))?;
        let mut doc = report::read_json(&dir.join(format!("result-{}.json", spec.name)))?;

        // Ingest bursts from before and after the workload; the later
        // window is also the next workload's earlier one.
        let mut bursts = window;
        window = probe.window();
        bursts.extend(&window);
        let ingest = layers::median_burst(&bursts);
        println!(
            "[{}] ingest: {:.0} vectors/s over {} bursts of {} inserts {:.2} ms + compact {:.2} ms",
            spec.name,
            ingest.vectors_per_s,
            bursts.len(),
            Scale::new(o.smoke).ingest_vectors,
            ingest.insert_ms,
            ingest.compact_ms
        );

        // Set-up is the shared offline build plus the workload's restart path.
        let mut e2e = MetricValues::from_value(doc.get("end_to_end").ok_or("result: end_to_end")?);
        e2e.set(
            "setup_s",
            e2e.get("setup_s").unwrap_or(0.0) + prepare_setup_s,
        );
        e2e.set("ingest_vps", ingest.vectors_per_s);
        let mut per_layer = shared_layers.clone();
        per_layer.set("segmented.ingest_insert_ms", ingest.insert_ms);
        per_layer.set("segmented.ingest_compact_ms", ingest.compact_ms);
        per_layer.extend(&MetricValues::from_value(
            doc.get("per_layer").ok_or("result: per_layer")?,
        ));
        if let Value::Map(entries) = &mut doc {
            for (key, value) in entries.iter_mut() {
                match key.as_str() {
                    "end_to_end" => *value = e2e.to_value(),
                    "per_layer" => *value = per_layer.to_value(),
                    _ => {}
                }
            }
        }
        println!("[{}] {:.1} s", spec.name, started.elapsed().as_secs_f64());
        run.push((spec.name.to_string(), doc));
    }
    Ok(Value::Map(run))
}

fn print_metrics(name: &str, doc: &Value, trace: TraceMode) {
    let value = |section: &str, metric: &str| doc.get(section)?.get(metric)?.as_f64();
    println!("== {name}: end-to-end");
    for m in &END_TO_END {
        if let Some(v) = value("end_to_end", m.name) {
            println!(
                "   {:<14} {:>16.4} {:<6} bound {:>4.1}%  {}",
                m.name,
                v,
                m.unit,
                m.bound * 100.0,
                m.meaning
            );
        }
    }
    if trace == TraceMode::Off {
        return;
    }
    println!("== {name}: per layer (0 = not on this workload's path)");
    for m in &PER_LAYER {
        let v = value("per_layer", m.name).unwrap_or(0.0);
        println!("   {:<34} {:>16.4} {:<9} -> {}", m.name, v, m.unit, m.moves);
    }
}

fn suite(o: Options) -> ExitCode {
    let mut runs = Vec::new();
    for rep in 0..o.repeat {
        if o.repeat > 1 {
            println!("--- run {} of {}", rep + 1, o.repeat);
        }
        match run_once(&o) {
            Ok(run) => runs.push(run),
            Err(problem) => {
                eprintln!("benchmark failed: {problem}");
                return ExitCode::from(1);
            }
        }
    }
    let results_of = |run: &Value| match run {
        Value::Map(workloads) => workloads.clone(),
        _ => unreachable!("a run is a map of workloads"),
    };
    let correct = runs.iter().all(|run| {
        results_of(run)
            .iter()
            .all(|(_, result)| result.get("correct") == Some(&Value::Bool(true)))
    });
    let last = results_of(runs.last().expect("at least one run"));
    for (name, result) in &last {
        print_metrics(name, result, o.trace);
    }

    let doc = obj([
        ("fingerprint", report::fingerprint(o.seed)),
        ("seconds", Value::Float(o.seconds)),
        ("smoke", Value::Bool(o.smoke)),
        ("runs", Value::Seq(runs)),
    ]);
    if o.repeat > 1 {
        report::print_spreads(&doc);
    }
    let results = o
        .results
        .clone()
        .unwrap_or_else(|| out_dir().join("results.json"));
    if let Some(parent) = results.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    write_json(&results, &doc);
    println!("results: {}", results.display());

    // The last line: with `--workload`, that workload's result in the
    // driver's schema.
    match (o.workload, last.first()) {
        (Some(_), Some((_, result))) => {
            let count = |key: &str| result.get(key).and_then(Value::as_u64).unwrap_or(0);
            let (section, names): (&str, Vec<&'static str>) = match o.trace {
                TraceMode::On => ("per_layer", PER_LAYER.iter().map(|m| m.name).collect()),
                _ => ("end_to_end", END_TO_END.iter().map(|m| m.name).collect()),
            };
            let values = MetricValues::from_value(result.get(section).unwrap_or(&Value::Null));
            println!(
                "{}",
                report::contract_line(
                    correct,
                    count("attempted").max(1),
                    count("failed"),
                    names.into_iter(),
                    &values
                )
            );
        }
        _ => println!(
            "{}",
            serde_json::to_string(&obj([("correct", Value::Bool(correct))])).expect("json")
        ),
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
