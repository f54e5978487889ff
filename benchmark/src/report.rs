//! The metric dictionary (names, units, directions, bounds), the result
//! documents built from it, and `compare`.

use std::path::Path;

use serde::Value;

use crate::stats;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "p50_us", unit: "us", better: Lower, bound: 0.25,
        meaning: "median query latency; open loop: from the instant the request was due, closed loop: from submit" },
    EndToEnd { name: "p95_us", unit: "us", better: Lower, bound: 0.25,
        meaning: "95th percentile of the same" },
    EndToEnd { name: "qps", unit: "1/s", better: Higher, bound: 0.25,
        meaning: "queries completed per second of measured window" },
    EndToEnd { name: "recall_at_10", unit: "ratio", better: Higher, bound: 0.25,
        meaning: "mean share of a ground-truth query's 10 exact neighbours among the 10 ids the engine returned" },
    EndToEnd { name: "ingest_vps", unit: "1/s", better: Higher, bound: 0.25,
        meaning: "vectors made sealed-searchable per second: bursts of inserts, each then one compact(), with no traffic; median of the bursts before and after the workload" },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25,
        meaning: "train + add + write + open + warm + backend and engine start" },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Lower, bound: 0.20,
        meaning: "VmHWM of the workload's process after the untraced run" },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric × workload this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: [PerLayer; 49] = [
    // Set-up layers, timed around the public calls in prepare / open.
    layer(
        "dataset.generate_s",
        "s",
        Lower,
        "wall time of a run only (harness input generation)",
    ),
    layer(
        "dataset.ground_truth_s",
        "s",
        Lower,
        "wall time of a run only (harness oracle)",
    ),
    layer("index.train_s", "s", Lower, "setup_s (all)"),
    layer("index.add_s", "s", Lower, "setup_s (all)"),
    layer("index.imbalance", "ratio", Lower, "batch_scan.qps"),
    layer(
        "index.code_bytes_per_vector",
        "B",
        Lower,
        "peak_rss_mib (all)",
    ),
    layer("storage.write_ms", "ms", Lower, "setup_s (all)"),
    layer("storage.open_ms", "ms", Lower, "setup_s (all)"),
    layer(
        "storage.warm_ms",
        "ms",
        Lower,
        "setup_s, peak_rss_mib (all)",
    ),
    layer(
        "storage.file_bytes_per_vector",
        "B",
        Lower,
        "peak_rss_mib (all)",
    ),
    // Query layers, from a single-threaded replay through the stage functions.
    layer("search.opq_us", "us", Lower, "batch_light.qps"),
    layer(
        "search.coarse_us",
        "us",
        Lower,
        "batch_light.qps; no change on batch_scan.qps, online_read.p50_us",
    ),
    layer(
        "search.build_lut_us",
        "us",
        Lower,
        "batch_light.qps; no change on batch_scan.qps, online_read.p50_us",
    ),
    layer(
        "search.scan_select_us",
        "us",
        Lower,
        "batch_scan.qps, batch_scan.p95_us; no change on batch_light",
    ),
    layer("search.codes_scanned", "count", Lower, "batch_scan.qps"),
    layer(
        "simd.scan_mcodes_per_s",
        "Mcodes/s",
        Higher,
        "batch_scan.qps",
    ),
    layer(
        "simd.scan_gbps",
        "GB/s",
        Higher,
        "batch_scan.qps (computed: codes x m bytes / scan time)",
    ),
    layer("search.total_us", "us", Lower, "qps of the closed loops"),
    layer(
        "search.stage_sum_over_total",
        "ratio",
        Lower,
        "none: reconciliation, expect 0.95-1.05",
    ),
    layer(
        "backend.us_per_query",
        "us",
        Lower,
        "batch_light.qps, batch_scan.qps",
    ),
    layer("backend.overhead_us", "us", Lower, "batch_light.qps"),
    // Serving layers, from QueryReply fields and the TracedBackend decorator.
    layer(
        "engine.queue_wait_p50_us",
        "us",
        Lower,
        "online_read.p50_us; no change on batch_*",
    ),
    layer(
        "engine.queue_wait_p95_us",
        "us",
        Lower,
        "online_read.p95_us; no change on batch_*",
    ),
    layer(
        "engine.batch_size_mean",
        "count",
        Higher,
        "batch_scan.qps, batch_light.qps",
    ),
    layer(
        "engine.service_p50_us",
        "us",
        Lower,
        "batch_scan.qps, batch_light.qps",
    ),
    layer(
        "engine.worker_busy_share",
        "ratio",
        Lower,
        "batch_scan.qps, batch_light.qps",
    ),
    layer(
        "engine.overhead_p50_us",
        "us",
        Lower,
        "batch_light.qps, online_read.p50_us",
    ),
    layer(
        "engine.reply_lag_p50_us",
        "us",
        Lower,
        "batch_light.qps, online_read.p50_us",
    ),
    layer("engine.rejected", "count", Lower, "failed operations (all)"),
    layer(
        "gen.lateness_p50_us",
        "us",
        Lower,
        "none: the harness's own error bar on online_read",
    ),
    layer(
        "gen.lateness_p95_us",
        "us",
        Lower,
        "none: the harness's own error bar on online_read",
    ),
    layer(
        "gen.offered_qps",
        "1/s",
        Higher,
        "none: the rate the generator achieved",
    ),
    layer(
        "cache.hit_rate",
        "ratio",
        Higher,
        "cached_zipf.qps, cached_zipf.p95_us; no change elsewhere",
    ),
    layer(
        "cache.hit_p50_us",
        "us",
        Lower,
        "cached_zipf.qps, cached_zipf.p50_us",
    ),
    layer(
        "cache.miss_p50_us",
        "us",
        Lower,
        "cached_zipf.qps, cached_zipf.p95_us",
    ),
    layer("cache.insertions", "count", Lower, "cached_zipf.qps"),
    layer("cache.evictions", "count", Lower, "cached_zipf.qps"),
    layer("segmented.insert_p50_us", "us", Lower, "mixed_rw.qps"),
    layer("segmented.insert_p95_us", "us", Lower, "mixed_rw.p95_us"),
    layer("segmented.delete_p50_us", "us", Lower, "mixed_rw.qps"),
    layer("segmented.search_us", "us", Lower, "mixed_rw.qps"),
    layer("segmented.compactions", "count", Higher, "mixed_rw.p95_us"),
    layer(
        "segmented.write_vectors_mean",
        "count",
        Lower,
        "mixed_rw.qps",
    ),
    layer(
        "segmented.pending_tombstones_end",
        "count",
        Lower,
        "mixed_rw.qps",
    ),
    layer(
        "segmented.drift_ratio",
        "ratio",
        Higher,
        "none: later / earlier half of the segments' qps, expect 0.95-1.05",
    ),
    layer(
        "segmented.violations",
        "count",
        Lower,
        "correctness of mixed_rw (must be 0)",
    ),
    layer(
        "segmented.ingest_insert_ms",
        "ms",
        Lower,
        "ingest_vps (all)",
    ),
    layer(
        "segmented.ingest_compact_ms",
        "ms",
        Lower,
        "ingest_vps (all)",
    ),
    layer(
        "trace.overhead_share",
        "ratio",
        Lower,
        "none: (traced p50 - untraced p50) / untraced p50",
    ),
];

/// Seconds one run measures; also `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

pub fn obj<const N: usize>(entries: [(&str, Value); N]) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

/// Named metric values in recording order.
#[derive(Debug, Clone, Default)]
pub struct MetricValues(Vec<(String, f64)>);

impl MetricValues {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "`{name}` is not in the metric dictionary"
        );
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: &MetricValues) {
        for (name, value) in &other.0 {
            self.set(name, *value);
        }
    }

    pub fn to_value(&self) -> Value {
        Value::Map(
            self.0
                .iter()
                .map(|(n, v)| (n.clone(), Value::Float(*v)))
                .collect(),
        )
    }

    pub fn from_value(value: &Value) -> Self {
        match value {
            Value::Map(entries) => MetricValues(
                entries
                    .iter()
                    .filter_map(|(n, v)| v.as_f64().map(|v| (n.clone(), v)))
                    .collect(),
            ),
            _ => MetricValues::default(),
        }
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// The last line of standard output: the result in the driver's schema.
/// A per-layer metric a workload's path never touches reads 0.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: impl Iterator<Item = &'static str>,
    values: &MetricValues,
) -> String {
    let metrics = names
        .map(|name| {
            let entry = obj([
                ("value", Value::Float(values.get(name).unwrap_or(0.0))),
                ("unit", text(unit_of(name).expect("dictionary name"))),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted)),
        ("failed", Value::UInt(failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("serialise the result")
}

/// `BENCHMARK.json`, generated from the dictionary so the two cannot drift.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let doc = obj([
        (
            "command",
            Value::Seq(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Seq(vec![text("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("serialise the manifest") + "\n"
}

/// What must match for two result files to be comparable.
pub fn fingerprint(seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    obj([
        ("logical_cores", Value::UInt(cores as u64)),
        ("cpu_model", Value::Str(cpu)),
        ("scan_kernel", text(crate::adapter::kernel_name())),
        ("rustc", Value::Str(rustc)),
        ("seed", Value::UInt(seed)),
    ])
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every run's value of one end-to-end metric on one workload.
fn series(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Value::Seq(runs)) = doc.get("runs") else {
        return Vec::new();
    };
    runs.iter()
        .filter_map(|run| run.get(workload)?.get("end_to_end")?.get(metric)?.as_f64())
        .collect()
}

fn series_spread(values: &[f64]) -> f64 {
    match values.len() {
        0 | 1 => 0.0,
        2 | 3 => stats::range_share(values),
        _ => stats::iqr_share(values),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The run-to-run spread is wider than the bound, and the two sets of
    /// runs overlap.
    Unresolved,
}

/// Applies one metric's bound to two sets of runs (section 6.5 of the
/// choosing-metrics guide).
pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = b is worse, as a share of a's median.
    let worse_by = match metric.better {
        Lower => (mb - ma) / ma,
        Higher => (ma - mb) / ma,
    };
    let spread = series_spread(a).max(series_spread(b));
    if spread > metric.bound {
        let b_always_better = match metric.better {
            Lower => stats::max(b) < stats::min(a),
            Higher => stats::min(b) > stats::max(a),
        };
        if !b_always_better {
            return Verdict::Unresolved;
        }
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// `compare a.json b.json`: refuses different hosts, else one row per
/// metric × workload. Returns whether no row is worse or unresolved.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let (fa, fb) = (a.get("fingerprint"), b.get("fingerprint"));
    if fa.is_none() || fa != fb {
        return Err(format!(
            "host fingerprints differ; results are not comparable\n  a: {}\n  b: {}",
            fa.map_or("missing".to_string(), |f| serde_json::to_string(f)
                .unwrap_or_default()),
            fb.map_or("missing".to_string(), |f| serde_json::to_string(f)
                .unwrap_or_default()),
        ));
    }
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "spread", "bound"
    );
    let mut clean = true;
    for w in WORKLOADS.iter() {
        for metric in END_TO_END.iter() {
            let (va, vb) = (
                series(a, w.name, metric.name),
                series(b, w.name, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(metric, &va, &vb);
            clean &= matches!(v, Verdict::Better | Verdict::WithinBound);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>+7.2}% {:>7.2}% {:>6.1}%  {}",
                w.name,
                metric.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                series_spread(&va).max(series_spread(&vb)) * 100.0,
                metric.bound * 100.0,
                match v {
                    Verdict::Better => "better",
                    Verdict::WithinBound => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
                }
            );
        }
    }
    Ok(clean)
}

/// `--repeat N`: each metric's spread over the runs against its bound.
pub fn print_spreads(doc: &Value) {
    println!(
        "{:<12} {:<14} {:>14} {:>8} {:>7}  runs",
        "workload", "metric", "median", "spread", "bound"
    );
    for w in WORKLOADS.iter() {
        for metric in END_TO_END.iter() {
            let values = series(doc, w.name, metric.name);
            if values.len() < 2 {
                continue;
            }
            let spread = series_spread(&values);
            println!(
                "{:<12} {:<14} {:>14.4} {:>7.2}% {:>6.1}%  {}{}",
                w.name,
                metric.name,
                stats::median(&values),
                spread * 100.0,
                metric.bound * 100.0,
                values
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" "),
                if spread > metric.bound {
                    "  <-- wider than bound"
                } else {
                    ""
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_fit_the_manifest_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16 && unit.chars().all(unit_ok), "{unit}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for w in WORKLOADS.iter() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }

    fn metric(better: Better, bound: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "1",
            better,
            bound,
            meaning: "",
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let (qps, p95) = (metric(Higher, 0.08), metric(Lower, 0.15));
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |f: f64| a.map(|v| v * f);
        assert_eq!(verdict(&qps, &a, &shifted(1.0)), Verdict::WithinBound);
        assert_eq!(verdict(&qps, &a, &shifted(0.95)), Verdict::WithinBound);
        assert_eq!(verdict(&qps, &a, &shifted(0.80)), Verdict::Worse);
        assert_eq!(verdict(&qps, &a, &shifted(1.20)), Verdict::Better);
        assert_eq!(verdict(&p95, &a, &shifted(1.20)), Verdict::Worse);
        assert_eq!(verdict(&p95, &a, &shifted(0.80)), Verdict::Better);
        // Spread wider than the bound and overlapping runs: no verdict.
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&qps, &noisy, &shifted(1.0)), Verdict::Unresolved);
        // ...unless every run of b beats every run of a.
        assert_eq!(verdict(&qps, &noisy, &shifted(2.0)), Verdict::Better);
    }

    #[test]
    fn compare_refuses_results_from_another_host() {
        let doc = |cores: u64| {
            obj([
                ("fingerprint", obj([("logical_cores", Value::UInt(cores))])),
                ("runs", Value::Seq(Vec::new())),
            ])
        };
        assert!(compare(&doc(2), &doc(4)).is_err());
        assert_eq!(compare(&doc(2), &doc(2)), Ok(true));
    }
}
