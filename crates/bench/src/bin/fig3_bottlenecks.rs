//! Figure 3: IVF-PQ bottleneck analysis on CPU (measured) and GPU (modelled).
//!
//! Reproduces the three parameter sweeps of Figure 3 — nprobe, nlist and K —
//! and prints the per-stage share of query time for each point. The paper's
//! observation to reproduce: the bottleneck *shifts* across parameters
//! (PQDist/SelK grow with nprobe and K, IVFDist grows with nlist).

use fanns_baselines::gpu::GpuModel;
use fanns_bench::{build_index, print_header, sift_workload, Scale};
use fanns_ivf::baseline_cpu::CpuSearcher;
use fanns_ivf::params::{IvfPqParams, ALL_STAGES};
use fanns_ivf::simd::ALL_KERNELS;
use fanns_perfmodel::qps::WorkloadModel;

fn print_row(label: &str, fractions: &[f64; 6]) {
    print!("{label:<28}");
    for f in fractions {
        print!(" {:>9.1}%", f * 100.0);
    }
    println!();
}

fn stage_header(first_col: &str) {
    print!("{first_col:<28}");
    for s in ALL_STAGES {
        print!(" {:>10}", s.name());
    }
    println!();
}

fn main() {
    let scale = Scale::from_env();
    let workload = sift_workload(scale);
    let gpu = GpuModel::v100();

    print_header(
        "Figure 3",
        "per-stage time share on CPU (measured) and GPU (modelled), SIFT-like dataset",
    );

    // --- Column 1: sweep nprobe at a fixed index. ---
    let nlist = scale.default_nlist();
    let index = build_index(&workload, nlist, false, 7);
    println!("\n[CPU] sweep nprobe (nlist={nlist}, K=10)");
    stage_header("nprobe");
    for nprobe in [1usize, 4, 16, 64] {
        let params = IvfPqParams::new(nlist, nprobe, 10);
        let searcher = CpuSearcher::new(&index, params);
        let timings = searcher.profile_stages(&workload.queries);
        print_row(&format!("nprobe={nprobe}"), &timings.fractions());
    }
    println!("\n[GPU model] sweep nprobe (nlist={nlist}, K=10)");
    stage_header("nprobe");
    for nprobe in [1usize, 4, 16, 64] {
        let params = IvfPqParams::new(nlist, nprobe, 10);
        let wm = WorkloadModel::from_index(&index, &params);
        let times = gpu.stage_times_s(&wm, 10_000);
        let total: f64 = times.iter().sum();
        let fractions = times.map(|t| t / total.max(1e-30));
        print_row(&format!("nprobe={nprobe}"), &fractions);
    }

    // --- Column 2: sweep nlist at fixed nprobe=16. ---
    println!("\n[CPU] sweep nlist (nprobe=16, K=10)");
    stage_header("nlist");
    for nlist in scale.nlist_grid() {
        let index = build_index(&workload, nlist, false, 7);
        let params = IvfPqParams::new(nlist, 16, 10);
        let searcher = CpuSearcher::new(&index, params);
        let timings = searcher.profile_stages(&workload.queries);
        print_row(&format!("nlist={nlist}"), &timings.fractions());
    }
    println!("\n[GPU model] sweep nlist (nprobe=16, K=10), paper-scale nlist values");
    stage_header("nlist");
    for nlist in [1usize << 12, 1 << 14, 1 << 16, 1 << 18] {
        let params = IvfPqParams::new(nlist, 16, 10);
        let wm = WorkloadModel::analytic(128, 16, 256, 100_000_000, &params);
        let times = gpu.stage_times_s(&wm, 10_000);
        let total: f64 = times.iter().sum();
        print_row(
            &format!("nlist={nlist}"),
            &times.map(|t| t / total.max(1e-30)),
        );
    }

    // --- Column 3: sweep K at a fixed index. ---
    let index = build_index(&workload, nlist, false, 7);
    println!("\n[CPU] sweep K (nlist={nlist}, nprobe=16)");
    stage_header("K");
    for k in [1usize, 10, 100] {
        let params = IvfPqParams::new(nlist, 16, k);
        let searcher = CpuSearcher::new(&index, params);
        let timings = searcher.profile_stages(&workload.queries);
        print_row(&format!("K={k}"), &timings.fractions());
    }
    println!("\n[GPU model] sweep K (nlist={nlist}, nprobe=16)");
    stage_header("K");
    for k in [1usize, 10, 100] {
        let params = IvfPqParams::new(nlist, 16, k);
        let wm = WorkloadModel::from_index(&index, &params);
        let times = gpu.stage_times_s(&wm, 10_000);
        let total: f64 = times.iter().sum();
        print_row(&format!("K={k}"), &times.map(|t| t / total.max(1e-30)));
    }

    // --- Per-kernel breakdown: how the SIMD data plane moves the CPU
    // bottleneck (scalar vs slab kernels; README's Figure 3 notes). ---
    println!("\n[CPU] per-scan-kernel breakdown (nlist={nlist}, nprobe=16, K=10)");
    stage_header("kernel");
    let params = IvfPqParams::new(nlist, 16, 10);
    for kernel in ALL_KERNELS {
        if !kernel.is_available() {
            println!(
                "{:<28} (unavailable on this host)",
                format!("scan={kernel}")
            );
            continue;
        }
        let searcher = CpuSearcher::new(&index, params).with_kernel(kernel);
        let timings = searcher.profile_stages(&workload.queries);
        let us_per_query = timings.total().as_secs_f64() * 1e6 / timings.queries.max(1) as f64;
        print_row(
            &format!("scan={kernel} ({us_per_query:.0}us/q)"),
            &timings.fractions(),
        );
    }

    println!("\nExpected shape (paper): PQDist+SelK share grows with nprobe and K; IVFDist share grows with nlist.");
    println!("Per-kernel rows: the SIMD scan kernels shrink the PQDist share; IVFDist and BuildLUT run on the vectorised distance kernels and stay small, so what grows is the selection stages (SelCells/SelK) — the software analogue of the paper's motivation for giving every stage its own PEs.");
}
