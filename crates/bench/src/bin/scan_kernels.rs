//! ADC scan-kernel microbenchmark: kernel x nlist x m sweep over the slab
//! data plane, one JSON row per point (see README's "scan_kernels" schema).
//!
//! ```sh
//! FANNS_SCALE=small cargo run --release --bin scan_kernels
//! ```
//!
//! Two timed regions per sweep point, both downstream of identical
//! precomputed probe sets (OPQ, IVFDist, SelCells and the LUT build run
//! once per query, untimed):
//!
//! * **scan** — the distance computation alone (Stage PQDist): for the
//!   scalar reference, the pre-data-plane per-code tuple loop, kept
//!   bin-local in `scan_kernels` (`(id, f32)` tuple pushes into a per-query
//!   Vec, `lut.adc` one entry at a time); the slab kernel for the rest.
//!   This is the throughput the tentpole gate tests (`*_mcodes_per_s`,
//!   `*_gbps`, `*_speedup`).
//! * **fused** — the full scan+select stage the serving path executes
//!   (`stage_scan_and_select_with`, Stage PQDist + SelK), reported as
//!   `*_fused_effective_mcodes_per_s` (codes in the probed lists over time)
//!   so the end-to-end win stays visible next to the kernel-only number.
//!   The slab kernels prune here — they skip 32-code groups that cannot
//!   enter the top k — so each fused row also reports the share of codes
//!   pruned. The raw **scan** rows never prune: they are the roofline.
//!
//! The binary asserts the tentpole target at the end: the best f32 SIMD
//! *scan* speedup must reach 4x (AVX2 hosts) or 1.5x (portable-only hosts)
//! over the scalar reference — override with `FANNS_SCAN_GATE` for exotic
//! hosts. It also exits non-zero when a slab kernel's fused results differ
//! from the scalar kernel's in any id or distance bit, or when its pruned
//! share falls below `PRUNED_SHARE_FLOOR`, so pruning cannot be switched
//! off unnoticed.
//!
//! Each sweep point also prints one **prefix** row per distance-kernel tier
//! (`fanns_quantize::distance`): coarse quantisation (`all_l2` over the
//! `nlist` centroids) and the LUT build in microseconds per query, against
//! a bin-local scalar reference — the single-accumulator loops both stages
//! ran on before they were vectorised. They land in the `prefix_kernels`
//! section of the baseline and are gated like the scan: each tier's best
//! speedup, on both stages, must reach 4x (AVX2) / 2x (portable).

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

use fanns_bench::baseline;
use fanns_bench::{print_header, sift_workload, Scale};
use fanns_dataset::types::QuerySet;
use fanns_ivf::index::{IvfPqIndex, IvfPqTrainConfig};
use fanns_ivf::search::{
    stage_build_lut, stage_ivf_dist, stage_opq, stage_scan_and_select_with, stage_sel_cells,
};
use fanns_ivf::simd::{avx2_available, kernels, ScanKernel, ScanScratch, ALL_KERNELS};
use fanns_quantize::distance::SimdTier;
use fanns_quantize::pq::DistanceTable;

/// One sweep point, printed as a JSON row.
#[derive(Debug, Serialize)]
struct KernelRow {
    kernel: String,
    m: usize,
    nlist: usize,
    nprobe: usize,
    k: usize,
    queries: usize,
    reps: usize,
    /// Codes scanned per query (sum of probed list lengths).
    codes_per_query: f64,
    /// Scan-only throughput in millions of codes per second.
    mcodes_per_s: f64,
    /// Effective slab bandwidth in GB/s (codes x m bytes).
    scan_gbps: f64,
    /// Scan-only throughput relative to the scalar reference.
    speedup_vs_scalar: f64,
    /// Fused scan+select (Stage PQDist + SelK) throughput, Mcodes/s of
    /// codes in the probed lists, pruned or not.
    fused_effective_mcodes_per_s: f64,
    /// Share of the probed codes the fused stage pruned (0 for `scalar`).
    fused_pruned_share: f64,
}

/// One distance-kernel tier at one sweep point, printed as a JSON row.
#[derive(Debug, Serialize)]
struct PrefixRow {
    /// `scalar` (the bin-local reference), `portable` or `avx2`.
    tier: String,
    m: usize,
    nlist: usize,
    queries: usize,
    reps: usize,
    /// Stage IVFDist: all `nlist` centroid distances, microseconds per query.
    coarse_us: f64,
    /// Stage BuildLUT: the `m x ksub` table, microseconds per query.
    lut_us: f64,
    coarse_speedup_vs_scalar: f64,
    lut_speedup_vs_scalar: f64,
}

/// Precomputed per-query scan inputs (everything upstream of PQDist).
struct PreparedQuery {
    cells: Vec<usize>,
    lut: DistanceTable,
}

fn prepare(index: &IvfPqIndex, queries: &QuerySet, nprobe: usize) -> Vec<PreparedQuery> {
    (0..queries.len())
        .map(|q| {
            let rotated = stage_opq(index, queries.get(q));
            let dists = stage_ivf_dist(index, &rotated);
            let cells = stage_sel_cells(&dists, nprobe);
            let lut = stage_build_lut(index, &rotated);
            PreparedQuery { cells, lut }
        })
        .collect()
}

/// Total codes one pass over all prepared queries scans.
fn codes_per_pass(index: &IvfPqIndex, prepared: &[PreparedQuery]) -> usize {
    prepared
        .iter()
        .map(|p| p.cells.iter().map(|&c| index.slab(c).len()).sum::<usize>())
        .sum()
}

/// Times `reps` passes of the distance computation alone and returns the
/// *minimum* single-pass seconds — scheduler noise only ever adds time, so
/// min-of-reps is the robust throughput estimator on shared hosts.
/// The scalar reference walks the canonical row-major lists with `lut.adc`;
/// slab kernels scan the block-transposed slabs.
fn time_scan(
    index: &IvfPqIndex,
    prepared: &[PreparedQuery],
    kernel: ScanKernel,
    reps: usize,
    dists: &mut Vec<f32>,
) -> f64 {
    let m = index.m();
    let mut pass = |timed: bool| -> f64 {
        let start = Instant::now();
        for p in prepared {
            if kernel == ScanKernel::Scalar {
                // The scalar reference is the pre-data-plane per-code tuple
                // loop, kept bin-local here: one `(id, distance)` tuple
                // pushed per code into a per-query Vec, `lut.adc` gathering
                // m entries one f32 at a time. The allocation and tuple
                // traffic were part of the cost the data plane removed, so
                // they are part of the baseline.
                let mut out: Vec<(u32, f32)> = Vec::new();
                for &cell in &p.cells {
                    let list = index.list(cell);
                    out.reserve(list.len());
                    for (slot, code) in list.codes.chunks_exact(m).enumerate() {
                        out.push((list.ids[slot], p.lut.adc(code)));
                    }
                }
                std::hint::black_box(&out);
                continue;
            }
            for &cell in &p.cells {
                let slab = index.slab(cell);
                if slab.is_empty() {
                    continue;
                }
                dists.resize(slab.padded_len(), 0.0);
                match kernel {
                    ScanKernel::Avx2 => kernels::scan_f32_avx2(slab, &p.lut, dists),
                    _ => kernels::scan_f32_portable(slab, &p.lut, dists),
                }
                std::hint::black_box(&dists);
            }
        }
        if timed {
            start.elapsed().as_secs_f64()
        } else {
            0.0
        }
    };
    pass(false); // warm-up: caches hot, buffers grown
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        best = best.min(pass(true));
    }
    best
}

/// What one kernel's fused stage returned on the untimed warm-up pass.
struct FusedPass {
    /// Per query, the `(id, distance bits)` results in order.
    results: Vec<Vec<(u32, u32)>>,
    /// Codes pruned over the whole pass.
    pruned: usize,
}

/// Times `reps` passes of the fused scan+select stage and returns the
/// minimum single-pass seconds (same min-of-reps estimator as `time_scan`),
/// plus the results and pruning count of the warm-up pass.
fn time_fused(
    index: &IvfPqIndex,
    prepared: &[PreparedQuery],
    k: usize,
    kernel: ScanKernel,
    reps: usize,
    scratch: &mut ScanScratch,
) -> (f64, FusedPass) {
    let mut warm = FusedPass {
        results: Vec::with_capacity(prepared.len()),
        pruned: 0,
    };
    for p in prepared {
        let hits = stage_scan_and_select_with(index, &p.cells, &p.lut, k, kernel, scratch);
        warm.pruned += scratch.pruned();
        let bits = hits.iter().map(|h| (h.id, h.distance.to_bits()));
        warm.results.push(bits.collect());
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for p in prepared {
            std::hint::black_box(stage_scan_and_select_with(
                index, &p.cells, &p.lut, k, kernel, scratch,
            ));
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, warm)
}

/// The least share of probed codes a slab kernel's fused stage must prune
/// at every sweep point: half the smallest share measured at
/// `FANNS_SCALE=small` (k = 10, nprobe = nlist / 4), where every point
/// pruned 0.70 to 0.74 of its codes. The share is a property of the data
/// and the search parameters, not of the host, so it holds on any runner.
const PRUNED_SHARE_FLOOR: f64 = 0.35;

/// The loop both prefix stages ran on before they were vectorised.
fn scalar_l2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        let d = a[i] - b[i];
        acc += d * d;
    }
    acc
}

/// Minimum seconds of one `pass` over `reps` timed passes, after a warm-up.
fn min_pass_secs(reps: usize, mut pass: impl FnMut()) -> f64 {
    pass();
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Microseconds per query of (coarse quantisation, LUT build) on `tier`, or
/// on the scalar reference for `None`.
fn time_prefix(
    index: &IvfPqIndex,
    rotated: &[Vec<f32>],
    tier: Option<SimdTier>,
    reps: usize,
) -> (f64, f64) {
    let (dim, pq) = (index.dim(), index.pq());
    let centroids = index.coarse().centroids();
    let mut dists = Vec::new();
    let coarse = min_pass_secs(reps, || {
        for q in rotated {
            match tier {
                Some(tier) => tier.all_l2(q, centroids, dim, &mut dists),
                None => {
                    dists.clear();
                    dists.extend(centroids.chunks_exact(dim).map(|c| scalar_l2(q, c)));
                }
            }
            std::hint::black_box(&dists);
        }
    });
    let mut lut = DistanceTable::default();
    let mut table = Vec::new();
    let build = min_pass_secs(reps, || {
        for q in rotated {
            match tier {
                Some(tier) => {
                    pq.build_distance_table_into(tier, q, &mut lut);
                    std::hint::black_box(&lut);
                }
                None => {
                    table.clear();
                    for (j, sub) in q.chunks_exact(pq.dsub()).enumerate() {
                        let book = pq.codebook(j).chunks_exact(pq.dsub());
                        table.extend(book.map(|cent| scalar_l2(sub, cent)));
                    }
                    std::hint::black_box(&table);
                }
            }
        }
    });
    let per_query_us = 1e6 / rotated.len() as f64;
    (coarse * per_query_us, build * per_query_us)
}

/// What is wrong with a slab kernel's fused row: results that differ from
/// the scalar row's, or a pruned share under the floor.
fn fused_failures(
    results: &[Vec<(u32, u32)>],
    scalar: &[Vec<(u32, u32)>],
    pruned_share: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    if let Some(q) = (0..scalar.len()).find(|&q| results.get(q) != scalar.get(q)) {
        failures.push(format!("fused results differ from scalar at query {q}"));
    }
    if pruned_share < PRUNED_SHARE_FLOOR {
        failures.push(format!(
            "pruned share {pruned_share:.3} under the {PRUNED_SHARE_FLOOR} floor"
        ));
    }
    failures
}

/// The speedup gate: `FANNS_SCAN_GATE` when set, else `default_gate`.
fn gate_from_env(default_gate: f64) -> f64 {
    std::env::var("FANNS_SCAN_GATE")
        .ok()
        .and_then(|raw| raw.parse::<f64>().ok())
        .filter(|g| g.is_finite() && *g >= 0.0)
        .unwrap_or(default_gate)
}

fn main() {
    let scale = Scale::from_env();
    let workload = sift_workload(scale);
    print_header(
        "scan_kernels",
        "ADC scan data plane: kernel x nlist x m throughput sweep",
    );
    println!(
        "dataset: {} vectors x {} dims, {} queries, scale {:?}, avx2={}",
        workload.database.len(),
        workload.database.dim(),
        workload.queries.len(),
        scale,
        avx2_available()
    );

    let k = 10usize;
    let reps = match scale {
        Scale::Small => 20,
        Scale::Medium => 6,
        Scale::Large => 3,
    };
    let grid = scale.nlist_grid();
    let mut nlists = vec![grid[0], scale.default_nlist()];
    nlists.dedup();

    let mut canonical: BTreeMap<String, f64> = BTreeMap::new();
    let mut best_f32_speedup = 0.0f64;
    let mut fused_tripwire: Vec<String> = Vec::new();
    let mut prefix_metrics: BTreeMap<String, f64> = BTreeMap::new();
    // Per tier, the best (coarse, LUT) speedup over the sweep.
    let mut best_prefix_speedup: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for &m in &[8usize, 16] {
        for &nlist in &nlists {
            let cfg = IvfPqTrainConfig::new(nlist)
                .with_m(m)
                .with_ksub(256)
                .with_train_sample(30_000)
                .with_seed(7);
            let index = IvfPqIndex::build(&workload.database, &cfg);
            let nprobe = (nlist / 4).clamp(8, nlist);
            let prepared = prepare(&index, &workload.queries, nprobe);
            let pass_codes = codes_per_pass(&index, &prepared);
            let mut scratch = ScanScratch::new();
            let mut dists = Vec::new();

            let mut scalar_codes_per_s = 0.0f64;
            let mut scalar_results = Vec::new();
            for kernel in ALL_KERNELS {
                if !kernel.is_available() {
                    eprintln!("scan_kernels: skipping {kernel} (unavailable on this host)");
                    continue;
                }
                let scan_secs = time_scan(&index, &prepared, kernel, reps, &mut dists);
                let (fused_secs, fused) =
                    time_fused(&index, &prepared, k, kernel, reps, &mut scratch);
                let pruned_share = fused.pruned as f64 / pass_codes.max(1) as f64;
                if kernel == ScanKernel::Scalar {
                    scalar_results = fused.results;
                } else {
                    let failures = fused_failures(&fused.results, &scalar_results, pruned_share);
                    let point = format!("{kernel} m={m} nlist={nlist}");
                    fused_tripwire.extend(failures.into_iter().map(|f| format!("{point}: {f}")));
                }
                let codes_per_s = pass_codes as f64 / scan_secs.max(1e-12);
                if kernel == ScanKernel::Scalar {
                    scalar_codes_per_s = codes_per_s;
                }
                let speedup = codes_per_s / scalar_codes_per_s.max(1e-12);
                if kernel != ScanKernel::Scalar {
                    best_f32_speedup = best_f32_speedup.max(speedup);
                }
                let row = KernelRow {
                    kernel: kernel.name().to_string(),
                    m,
                    nlist,
                    nprobe,
                    k,
                    queries: workload.queries.len(),
                    reps,
                    codes_per_query: pass_codes as f64 / workload.queries.len() as f64,
                    mcodes_per_s: codes_per_s / 1e6,
                    scan_gbps: codes_per_s * m as f64 / 1e9,
                    speedup_vs_scalar: speedup,
                    fused_effective_mcodes_per_s: pass_codes as f64 / fused_secs.max(1e-12) / 1e6,
                    fused_pruned_share: pruned_share,
                };
                println!(
                    "{}",
                    serde_json::to_string(&row).expect("kernel row serialises")
                );
                let key = format!("m{m}_nlist{nlist}_{kernel}");
                canonical.insert(format!("{key}_mcodes_per_s"), row.mcodes_per_s);
                canonical.insert(format!("{key}_gbps"), row.scan_gbps);
                canonical.insert(format!("{key}_speedup"), row.speedup_vs_scalar);
                canonical.insert(
                    format!("{key}_fused_effective_mcodes_per_s"),
                    row.fused_effective_mcodes_per_s,
                );
                canonical.insert(format!("{key}_fused_pruned_share"), row.fused_pruned_share);
            }

            let rotated: Vec<Vec<f32>> = (0..workload.queries.len())
                .map(|q| stage_opq(&index, workload.queries.get(q)))
                .collect();
            let (scalar_coarse_us, scalar_lut_us) = time_prefix(&index, &rotated, None, reps);
            for tier in [None, Some(SimdTier::Portable), Some(SimdTier::Avx2)] {
                if tier == Some(SimdTier::Avx2) && !avx2_available() {
                    continue;
                }
                let (coarse_us, lut_us) = match tier {
                    None => (scalar_coarse_us, scalar_lut_us),
                    Some(_) => time_prefix(&index, &rotated, tier, reps),
                };
                let row = PrefixRow {
                    tier: tier.map_or("scalar", |t| t.name()).to_string(),
                    m,
                    nlist,
                    queries: rotated.len(),
                    reps,
                    coarse_us,
                    lut_us,
                    coarse_speedup_vs_scalar: scalar_coarse_us / coarse_us.max(1e-9),
                    lut_speedup_vs_scalar: scalar_lut_us / lut_us.max(1e-9),
                };
                println!(
                    "{}",
                    serde_json::to_string(&row).expect("prefix row serialises")
                );
                let key = format!("m{m}_nlist{nlist}_{}", row.tier);
                prefix_metrics.insert(format!("{key}_coarse_us"), row.coarse_us);
                prefix_metrics.insert(format!("{key}_lut_us"), row.lut_us);
                if let Some(tier) = tier {
                    let speedups = (row.coarse_speedup_vs_scalar, row.lut_speedup_vs_scalar);
                    prefix_metrics.insert(format!("{key}_coarse_speedup"), speedups.0);
                    prefix_metrics.insert(format!("{key}_lut_speedup"), speedups.1);
                    let best = best_prefix_speedup.entry(tier.name()).or_insert((0.0, 0.0));
                    *best = (best.0.max(speedups.0), best.1.max(speedups.1));
                }
            }
        }
    }

    let out = baseline::update_section(&baseline::bench_out_path(), "scan_kernels", &canonical);
    baseline::update_section(&out, "prefix_kernels", &prefix_metrics);
    eprintln!(
        "scan_kernels: wrote {} scan and {} prefix metrics to {}",
        canonical.len(),
        prefix_metrics.len(),
        out.display()
    );

    for failure in &fused_tripwire {
        eprintln!("scan_kernels: {failure}");
    }
    assert!(
        fused_tripwire.is_empty(),
        "{} fused-stage check(s) failed",
        fused_tripwire.len()
    );

    // The tentpole acceptance gate: vectorized f32 scan must beat the scalar
    // reference by 4x with AVX2 (1.5x portable-only). Loose enough to
    // tolerate host noise, tight enough to catch a data-plane collapse.
    let gate = gate_from_env(if avx2_available() { 4.0 } else { 1.5 });
    println!("best f32 SIMD scan speedup vs scalar: {best_f32_speedup:.2}x (gate: >={gate:.2}x)");
    assert!(
        best_f32_speedup >= gate,
        "f32 SIMD scan speedup {best_f32_speedup:.2}x under the {gate:.2}x gate"
    );

    // The prefix gate: each distance-kernel tier must beat the scalar loops
    // on both stages, 4x with AVX2 and 2x on the portable lanes.
    for (tier, (coarse, lut)) in best_prefix_speedup {
        let gate = gate_from_env(if tier == SimdTier::Avx2.name() {
            4.0
        } else {
            2.0
        });
        println!(
            "best {tier} prefix speedup vs scalar: coarse {coarse:.2}x, LUT {lut:.2}x (gate: >={gate:.2}x)"
        );
        assert!(
            coarse.min(lut) >= gate,
            "{tier} prefix speedup (coarse {coarse:.2}x, LUT {lut:.2}x) under the {gate:.2}x gate"
        );
    }
}
