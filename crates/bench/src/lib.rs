//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see DESIGN.md's per-experiment index). They share the workload
//! construction and reporting helpers defined here so that all experiments
//! run on the same seeded datasets and print uniform, machine-greppable rows.

pub mod baseline;

use fanns_dataset::ground_truth::{ground_truth, GroundTruth};
use fanns_dataset::synth::SyntheticSpec;
use fanns_dataset::types::{QuerySet, VectorDataset};
use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};

/// Experiment scale, selected through the `FANNS_SCALE` environment variable
/// (`small` for CI/smoke runs, `medium` — the default — for the numbers in
/// EXPERIMENTS.md, `large` for longer runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~10K vectors, dozens of queries: seconds per experiment.
    Small,
    /// ~100K vectors, hundreds of queries: the default reporting scale.
    Medium,
    /// ~400K vectors: closer to the paper's regime, minutes per experiment.
    Large,
}

impl Scale {
    /// Reads the scale from `FANNS_SCALE` (defaults to `small` so that
    /// `cargo bench`/CI runs stay fast; EXPERIMENTS.md uses `medium`).
    pub fn from_env() -> Self {
        match std::env::var("FANNS_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "medium" => Scale::Medium,
            "large" => Scale::Large,
            _ => Scale::Small,
        }
    }

    /// Database size at this scale.
    pub fn num_vectors(&self) -> usize {
        match self {
            Scale::Small => 10_000,
            Scale::Medium => 100_000,
            Scale::Large => 400_000,
        }
    }

    /// Query-set size at this scale.
    pub fn num_queries(&self) -> usize {
        match self {
            Scale::Small => 64,
            Scale::Medium => 256,
            Scale::Large => 512,
        }
    }

    /// IVF cell counts appropriate for this database size.
    pub fn nlist_grid(&self) -> Vec<usize> {
        match self {
            Scale::Small => vec![32, 64, 128],
            Scale::Medium => vec![64, 128, 256, 512],
            Scale::Large => vec![128, 256, 512, 1024],
        }
    }

    /// A mid-sized nlist used by experiments that fix the index.
    pub fn default_nlist(&self) -> usize {
        match self {
            Scale::Small => 64,
            Scale::Medium => 256,
            Scale::Large => 512,
        }
    }
}

/// A fully prepared workload: database, queries, exact ground truth.
pub struct Workload {
    /// Human-readable dataset name (`SIFT-like` / `Deep-like`).
    pub name: String,
    /// The database vectors.
    pub database: VectorDataset,
    /// The query set.
    pub queries: QuerySet,
    /// Exact top-100 ground truth (truncate for smaller K).
    pub ground_truth: GroundTruth,
}

/// Builds the SIFT-like workload at the given scale (seeded, reproducible).
pub fn sift_workload(scale: Scale) -> Workload {
    let spec = SyntheticSpec::sift_medium(42)
        .with_vectors(scale.num_vectors())
        .with_queries(scale.num_queries());
    build_workload("SIFT-like", spec)
}

/// Builds the Deep-like workload at the given scale.
pub fn deep_workload(scale: Scale) -> Workload {
    let spec = SyntheticSpec::deep_medium(43)
        .with_vectors(scale.num_vectors())
        .with_queries(scale.num_queries());
    build_workload("Deep-like", spec)
}

fn build_workload(name: &str, spec: SyntheticSpec) -> Workload {
    let (database, queries) = spec.generate();
    let ground_truth = ground_truth(&database, &queries, 100);
    Workload {
        name: name.to_string(),
        database,
        queries,
        ground_truth,
    }
}

/// The training configuration [`build_index`] uses: the paper's m=16
/// codes, 256-entry codebooks and a 30 000-vector training sample.
pub fn train_config(nlist: usize, opq: bool, seed: u64) -> IvfPqTrainConfig {
    IvfPqTrainConfig::new(nlist)
        .with_m(16)
        .with_ksub(256)
        .with_opq(opq)
        .with_train_sample(30_000)
        .with_seed(seed)
}

/// Builds an IVF-PQ index on a workload with the paper's m=16 codes.
///
/// When `FANNS_INDEX_DIR` names a directory, built indexes are persisted
/// there in the on-disk storage format (`fanns_ivf::storage`) keyed by the
/// workload/parameter fingerprint, and subsequent runs `mmap`-load instead
/// of retraining — the figure binaries then start in milliseconds. A cache
/// file that fails validation (corruption, format bump) is rebuilt, not
/// trusted.
pub fn build_index(workload: &Workload, nlist: usize, opq: bool, seed: u64) -> IvfPqIndex {
    let cfg = train_config(nlist, opq, seed);
    let cache_path = std::env::var_os("FANNS_INDEX_DIR").map(|dir| {
        std::path::PathBuf::from(dir).join(format!(
            "{}-n{}-nlist{nlist}-opq{}-seed{seed}.fanns",
            workload.name.to_lowercase().replace([' ', '/'], "_"),
            workload.database.len(),
            u8::from(opq),
        ))
    });
    if let Some(path) = &cache_path {
        if path.is_file() {
            match fanns_ivf::storage::open_index(path) {
                Ok(mapped) => {
                    let start = std::time::Instant::now();
                    let index = mapped.to_owned_index();
                    println!(
                        "[index-cache] loaded {} in {:.1} ms (cold start, mmap)",
                        path.display(),
                        start.elapsed().as_secs_f64() * 1e3
                    );
                    if index.config() == &cfg {
                        return index;
                    }
                    println!("[index-cache] config mismatch, rebuilding");
                }
                Err(err) => println!("[index-cache] {}: {err}; rebuilding", path.display()),
            }
        }
    }
    let index = IvfPqIndex::build(&workload.database, &cfg);
    if let Some(path) = &cache_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match index.write_index(path) {
            Ok(bytes) => println!(
                "[index-cache] saved {} ({:.1} MiB)",
                path.display(),
                bytes as f64 / (1024.0 * 1024.0)
            ),
            Err(err) => println!("[index-cache] save failed: {err}"),
        }
    }
    index
}

/// Prints a section header so experiment output is easy to navigate.
pub fn print_header(experiment: &str, description: &str) {
    println!("\n==================================================================");
    println!("{experiment}: {description}");
    println!("==================================================================");
}

/// Formats a fraction as a percentage string.
pub fn pct(f: f64) -> String {
    format!("{:.1}%", f * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_small() {
        // The env var is not set in the test environment.
        if std::env::var("FANNS_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Small);
        }
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Small.num_vectors() < Scale::Medium.num_vectors());
        assert!(Scale::Medium.num_vectors() < Scale::Large.num_vectors());
        assert!(!Scale::Small.nlist_grid().is_empty());
    }

    #[test]
    fn pct_formats_fractions() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(0.317), "31.7%");
    }
}
