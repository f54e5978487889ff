//! The shared fixture: dataset, ground truth and index file. `prepare`
//! builds it in its own process (so its memory is not charged to a
//! workload) and workloads load it back from the files.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde::Value;

use crate::adapter::{self, Builder, IndexShape, Vectors};
use crate::oracle;
use crate::report::{obj, MetricValues};

pub const K: usize = 10;

/// Sizes of everything the fixture holds. `full` is what the committed
/// numbers use; `smoke` only checks the gates and the output schema.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub indexed: usize,
    /// Held-out vectors of the same distribution, for inserts.
    pub insert_pool: usize,
    pub query_pool: usize,
    /// Leading pool queries with brute-force ground truth.
    pub truth_queries: usize,
    pub shape: IndexShape,
    /// Vectors per `ingest_vps` burst.
    pub ingest_vectors: usize,
    /// Pool queries replayed for the per-layer query metrics.
    pub replay_queries: usize,
    pub warmup: Duration,
}

impl Scale {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Scale {
                indexed: 10_000,
                insert_pool: 8_000,
                query_pool: 2_048,
                truth_queries: 128,
                shape: IndexShape {
                    nlist: 64,
                    m: 16,
                    ksub: 256,
                    train_sample: 5_000,
                },
                ingest_vectors: 1_024,
                replay_queries: 256,
                warmup: Duration::from_millis(500),
            }
        } else {
            Scale {
                indexed: 100_000,
                insert_pool: 32_000,
                query_pool: 8_192,
                truth_queries: 512,
                shape: IndexShape {
                    nlist: 256,
                    m: 16,
                    ksub: 256,
                    train_sample: 20_000,
                },
                ingest_vectors: 8_192,
                replay_queries: 2_048,
                warmup: Duration::from_secs(1),
            }
        }
    }
}

pub fn index_path(dir: &Path) -> PathBuf {
    dir.join("index.fanns")
}

/// How many times `prepare` writes the index file; the middle time counts.
const WRITE_REPS: usize = 5;

/// Generates the dataset, computes ground truth, builds and writes the
/// index. Returns the set-up layer metrics and the seconds of them that
/// belong to `setup_s` (train + add + write: the program's own work, not
/// the harness's data generation and oracle).
pub fn prepare(dir: &Path, seed: u64, scale: Scale) -> Value {
    std::fs::create_dir_all(dir).expect("create the fixture directory");
    let mut m = MetricValues::default();

    let t = Instant::now();
    let (all, queries) =
        adapter::generate(seed, scale.indexed + scale.insert_pool, scale.query_pool);
    m.set("dataset.generate_s", t.elapsed().as_secs_f64());
    let base = adapter::rows(&all, 0..scale.indexed);
    let pool = adapter::rows(&all, scale.indexed..all.len());
    drop(all);

    let t = Instant::now();
    let truth = oracle::exact_neighbours(
        base.as_flat(),
        &queries.as_flat()[..scale.truth_queries * base.dim()],
        base.dim(),
        K,
    );
    m.set("dataset.ground_truth_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let mut index = Builder::train(&base, scale.shape);
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    index.add(&base);
    let add_s = t.elapsed().as_secs_f64();
    assert_eq!(index.ntotal(), scale.indexed);

    let path = index_path(dir);
    let mut write_ms = Vec::with_capacity(WRITE_REPS);
    let mut file_bytes = 0;
    for _ in 0..WRITE_REPS {
        let t = Instant::now();
        file_bytes = index.write(&path);
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let write_ms = crate::stats::median(&write_ms);

    m.set("index.train_s", train_s);
    m.set("index.add_s", add_s);
    m.set("index.imbalance", index.imbalance());
    m.set(
        "index.code_bytes_per_vector",
        index.code_bytes() as f64 / scale.indexed as f64,
    );
    m.set("storage.write_ms", write_ms);
    m.set(
        "storage.file_bytes_per_vector",
        file_bytes as f64 / scale.indexed as f64,
    );

    write_f32(&dir.join("queries.f32"), queries.as_flat());
    write_f32(&dir.join("pool.f32"), pool.as_flat());
    let truth_bytes: Vec<u8> = truth.iter().flat_map(|id| id.to_le_bytes()).collect();
    std::fs::write(dir.join("truth.u32"), truth_bytes).expect("write ground truth");

    obj([
        ("setup_s", Value::Float(train_s + add_s + write_ms / 1e3)),
        ("dim", Value::UInt(base.dim() as u64)),
        ("layers", m.to_value()),
    ])
}

/// What a workload process loads back.
pub struct Fixture {
    pub queries: Vectors,
    /// `truth_queries × K` exact neighbour ids.
    pub truth: Vec<u32>,
}

impl Fixture {
    pub fn load(dir: &Path, dim: usize) -> Self {
        let truth = std::fs::read(dir.join("truth.u32"))
            .expect("read ground truth")
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Fixture {
            queries: Vectors::new(dim, read_f32(&dir.join("queries.f32"))),
            truth,
        }
    }
}

/// The held-out insert pool, loaded only where inserts happen so that it
/// is not resident while a read-only workload's memory is measured.
pub fn load_insert_pool(dir: &Path, dim: usize) -> Vectors {
    Vectors::new(dim, read_f32(&dir.join("pool.f32")))
}

fn write_f32(path: &Path, values: &[f32]) {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(path, bytes).expect("write a fixture file");
}

fn read_f32(path: &Path) -> Vec<f32> {
    std::fs::read(path)
        .expect("read a fixture file")
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}
