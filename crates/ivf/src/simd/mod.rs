//! The vectorized ADC scan data plane: aligned code slabs, SIMD kernels,
//! and runtime kernel dispatch.
//!
//! Every serving number this repo reports bottoms out in the PQ scan loop
//! (Stage PQDist/SelK), which the scalar reference executes one `f32` table
//! lookup at a time. This module family replaces that loop with a
//! register-blocked data plane (see `docs/DATA_PLANE.md`):
//!
//! * [`slab`] — contiguous 64-byte-aligned, block-transposed PQ code storage
//!   built at index construction,
//! * [`kernels`] — f32 scan kernels: a portable 8-lane chunked kernel and an
//!   AVX2 gather kernel, both bit-identical to the scalar reference,
//! * [`int8`] — the int8-quantized-LUT first pass (integer lanes, 4× smaller
//!   table) re-ranked by exact f32 ADC so end-to-end recall is unchanged,
//! * [`ScanKernel`] — the dispatch enum, selected at runtime from CPU
//!   features with an environment override (`FANNS_SCAN_KERNEL`).

pub mod int8;
pub mod kernels;
pub mod slab;

pub use fanns_quantize::dispatch::avx2_available;
pub use slab::{CodeSlab, BLOCK, SLAB_ALIGN};

use std::sync::OnceLock;

use fanns_quantize::dispatch::{kernel_override, SimdTier};
use fanns_quantize::pq::DistanceTable;

use crate::search::{QueryPrefix, SearchResult, TopK};
use crate::source::IvfSource;

/// Which ADC scan implementation executes Stage PQDist/SelK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanKernel {
    /// Per-code scalar reference over the canonical inverted-list layout
    /// (the pre-SIMD baseline; still the arbiter of correctness).
    Scalar,
    /// Register-blocked chunked-scalar kernel over the code slab — the
    /// portable fallback used on non-x86 hosts, bit-identical to `Scalar`.
    Portable,
    /// AVX2 gather kernel over the code slab (x86-64 with AVX2 only),
    /// bit-identical to `Scalar`.
    Avx2,
    /// int8-quantized-LUT first pass over the code slab with exact f32
    /// re-ranking of the surviving candidates (recall-preserving, not
    /// bit-identical: far-away candidates may rank differently below the
    /// re-rank horizon).
    Int8,
}

/// Every kernel, in the order benches sweep them.
pub const ALL_KERNELS: [ScanKernel; 4] = [
    ScanKernel::Scalar,
    ScanKernel::Portable,
    ScanKernel::Avx2,
    ScanKernel::Int8,
];

impl ScanKernel {
    /// Short lowercase label used in bench rows and env overrides.
    pub fn name(&self) -> &'static str {
        match self {
            ScanKernel::Scalar => "scalar",
            ScanKernel::Portable => "portable",
            ScanKernel::Avx2 => "avx2",
            ScanKernel::Int8 => "int8",
        }
    }

    /// Whether this kernel can execute on the current host. Only
    /// [`ScanKernel::Avx2`] is feature-gated; everything else is portable
    /// ([`ScanKernel::Int8`] uses AVX2 internally when present and falls
    /// back to integer chunked-scalar otherwise).
    pub fn is_available(&self) -> bool {
        match self {
            ScanKernel::Avx2 => avx2_available(),
            _ => true,
        }
    }

    /// Parses a kernel name as used by the `FANNS_SCAN_KERNEL` env override
    /// (`auto` and unknown values map to `None` = auto-select).
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(ScanKernel::Scalar),
            "portable" => Some(ScanKernel::Portable),
            "avx2" => Some(ScanKernel::Avx2),
            "int8" => Some(ScanKernel::Int8),
            _ => None,
        }
    }

    /// The tier of the distance kernels (coarse quantisation, LUT build)
    /// that goes with this scan kernel: the portable tier beside the two
    /// non-SIMD scan kernels, the best the host has beside the others.
    pub fn distance_tier(&self) -> SimdTier {
        match self {
            ScanKernel::Scalar | ScanKernel::Portable => SimdTier::Portable,
            ScanKernel::Avx2 | ScanKernel::Int8 => SimdTier::best_available(),
        }
    }
}

impl std::fmt::Display for ScanKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fastest bit-identical kernel this host supports: AVX2 when detected,
/// the portable chunked kernel otherwise. (Int8 trades exactness for speed
/// and is opt-in via `FANNS_SCAN_KERNEL=int8` or an explicit kernel.)
pub fn auto_kernel() -> ScanKernel {
    if avx2_available() {
        ScanKernel::Avx2
    } else {
        ScanKernel::Portable
    }
}

/// The process-wide default kernel: `FANNS_SCAN_KERNEL` when set to a known
/// name (`scalar` | `portable` | `avx2` | `int8`; an unavailable `avx2`
/// demotes to `portable`), else [`auto_kernel`]. The variable is read (once
/// per process) and the CPU probed in [`fanns_quantize::dispatch`], the same
/// site the distance kernels dispatch from, so the two kernel families
/// always agree; [`ScanKernel::distance_tier`] of this kernel is
/// [`SimdTier::process_default`].
pub fn default_kernel() -> ScanKernel {
    static DEFAULT: OnceLock<ScanKernel> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let requested = kernel_override().and_then(ScanKernel::from_name);
        match requested {
            Some(kernel) if kernel.is_available() => kernel,
            Some(_) => ScanKernel::Portable,
            None => auto_kernel(),
        }
    })
}

/// Number of candidates the int8 first pass hands to the exact f32 re-rank:
/// `max(4k, k + 32)`. The quantization error bound is additive and small
/// relative to inter-candidate gaps on real tables, so a 4× horizon keeps
/// the true top-k inside the re-rank set in practice (the equivalence tests
/// assert recall parity on the synthetic workloads).
pub fn rerank_depth(k: usize) -> usize {
    (4 * k).max(k + 32)
}

/// Reusable per-thread scratch for a query: the prefix buffers (rotated
/// query, centroid distances, probed cells, lookup table) and the scan
/// kernels' distance/sum buffers sized to the largest probed cell plus the
/// int8 candidate list. One instance per searcher thread removes every
/// per-query allocation from the pipeline except the returned result list.
#[derive(Debug, Default, Clone)]
pub struct ScanScratch {
    /// Output buffers of the query prefix.
    prefix: QueryPrefix,
    /// f32 distances per code, padded to whole blocks.
    dists: Vec<f32>,
    /// int8 entry sums per code, padded to whole blocks.
    sums: Vec<u32>,
    /// (cell, slot) of int8 first-pass survivors, indexed by candidate id.
    cands: Vec<(u32, u32)>,
    /// Row-major code buffer for the re-rank pass.
    code: Vec<u8>,
    /// Candidate pairs for the split PQDist stage (id, distance).
    pairs: Vec<(u32, f32)>,
}

impl ScanScratch {
    /// A fresh scratch (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// The (id, distance) candidate buffer of the last split-stage scan.
    pub fn pairs(&self) -> &[(u32, f32)] {
        &self.pairs
    }

    /// Runs `f` with the prefix buffers split off from the rest of the
    /// scratch, so a scan can read the prefix's cells and lookup table while
    /// it writes the scan buffers.
    pub fn with_prefix<R>(&mut self, f: impl FnOnce(&mut QueryPrefix, &mut Self) -> R) -> R {
        let mut prefix = std::mem::take(&mut self.prefix);
        let out = f(&mut prefix, self);
        self.prefix = prefix;
        out
    }

    /// Bytes of buffer capacity held. Constant from the second query on for
    /// a fixed index and `nprobe`: the steady state allocates nothing here.
    pub fn capacity_bytes(&self) -> usize {
        self.prefix.capacity_bytes()
            + 4 * (self.dists.capacity() + self.sums.capacity())
            + 8 * (self.cands.capacity() + self.pairs.capacity())
            + self.code.capacity()
    }
}

/// Scans the selected cells with an f32 slab kernel and keeps the best `k`
/// — the vectorized fused Stage PQDist + SelK. Bit-identical to the scalar
/// reference for any list content.
pub fn scan_and_select_f32<S: IvfSource + ?Sized>(
    index: &S,
    cells: &[usize],
    lut: &DistanceTable,
    k: usize,
    kernel: ScanKernel,
    scratch: &mut ScanScratch,
) -> Vec<SearchResult> {
    let mut topk = TopK::new(k);
    for &cell in cells {
        let slab = index.slab(cell);
        if slab.is_empty() {
            continue;
        }
        scratch.dists.resize(slab.padded_len(), 0.0);
        match kernel {
            ScanKernel::Avx2 => kernels::scan_f32_avx2(slab, lut, &mut scratch.dists),
            _ => kernels::scan_f32_portable(slab, lut, &mut scratch.dists),
        }
        let ids = index.list_ids(cell);
        for (slot, &d) in scratch.dists[..slab.len()].iter().enumerate() {
            topk.push(d, ids[slot]);
        }
    }
    topk.into_sorted()
}

/// Scans the selected cells through the int8 first pass and re-ranks the
/// survivors with exact f32 ADC — the fast-first-pass configuration of the
/// data plane. The first pass ranks raw integer entry sums (affine in the
/// true distance); [`rerank_depth`] survivors then get exact distances, so
/// the returned top-k matches the scalar reference whenever the true top-k
/// lies within the re-rank horizon.
pub fn scan_and_select_int8<S: IvfSource + ?Sized>(
    index: &S,
    cells: &[usize],
    lut: &DistanceTable,
    k: usize,
    scratch: &mut ScanScratch,
) -> Vec<SearchResult> {
    let qlut = lut.quantize_i8();
    let depth = rerank_depth(k);
    scratch.cands.clear();
    let mut top_approx = TopK::new(depth);
    for &cell in cells {
        let slab = index.slab(cell);
        if slab.is_empty() {
            continue;
        }
        scratch.sums.resize(slab.padded_len(), 0);
        scan_i8_auto(slab, &qlut, &mut scratch.sums);
        for (slot, &sum) in scratch.sums[..slab.len()].iter().enumerate() {
            // Rank raw sums: monotone in the dequantized distance. Only
            // accepted candidates are materialised in the candidate list.
            let approx = sum as f32;
            if approx < top_approx.threshold() {
                let cand = scratch.cands.len() as u32;
                scratch.cands.push((cell as u32, slot as u32));
                top_approx.push(approx, cand);
            }
        }
    }
    // Exact re-rank of the survivors.
    let m = index.m();
    scratch.code.resize(m, 0);
    let mut topk = TopK::new(k);
    for hit in top_approx.into_sorted() {
        let (cell, slot) = scratch.cands[hit.id as usize];
        let slab = index.slab(cell as usize);
        slab.read_code(slot as usize, &mut scratch.code);
        let exact = lut.adc(&scratch.code);
        topk.push(exact, index.list_ids(cell as usize)[slot as usize]);
    }
    topk.into_sorted()
}

/// int8 slab scan with the best integer kernel for this host.
fn scan_i8_auto(slab: &CodeSlab, qlut: &fanns_quantize::pq::QuantizedLut, out: &mut [u32]) {
    if avx2_available() {
        int8::scan_i8_avx2(slab, qlut, out);
    } else {
        int8::scan_i8_portable(slab, qlut, out);
    }
}

/// Computes per-code (id, distance) pairs for the selected cells with a
/// slab kernel into the scratch's pair buffer — the vectorized *split*
/// Stage PQDist used by the instrumented pipeline. For [`ScanKernel::Int8`]
/// the pairs carry dequantized first-pass distances (the stage split exists
/// for attribution, not for serving, so no re-rank runs here).
pub fn scan_pairs<S: IvfSource + ?Sized>(
    index: &S,
    cells: &[usize],
    lut: &DistanceTable,
    kernel: ScanKernel,
    scratch: &mut ScanScratch,
) {
    scratch.pairs.clear();
    match kernel {
        ScanKernel::Scalar => {
            let m = index.m();
            for &cell in cells {
                let ids = index.list_ids(cell).iter();
                let codes = index.list_codes(cell).chunks_exact(m);
                scratch
                    .pairs
                    .extend(ids.zip(codes).map(|(&id, code)| (id, lut.adc(code))));
            }
        }
        ScanKernel::Portable | ScanKernel::Avx2 => {
            for &cell in cells {
                let slab = index.slab(cell);
                if slab.is_empty() {
                    continue;
                }
                scratch.dists.resize(slab.padded_len(), 0.0);
                match kernel {
                    ScanKernel::Avx2 => kernels::scan_f32_avx2(slab, lut, &mut scratch.dists),
                    _ => kernels::scan_f32_portable(slab, lut, &mut scratch.dists),
                }
                let ids = index.list_ids(cell);
                scratch.pairs.reserve(slab.len());
                for (slot, &d) in scratch.dists[..slab.len()].iter().enumerate() {
                    scratch.pairs.push((ids[slot], d));
                }
            }
        }
        ScanKernel::Int8 => {
            let qlut = lut.quantize_i8();
            for &cell in cells {
                let slab = index.slab(cell);
                if slab.is_empty() {
                    continue;
                }
                scratch.sums.resize(slab.padded_len(), 0);
                scan_i8_auto(slab, &qlut, &mut scratch.sums);
                let ids = index.list_ids(cell);
                scratch.pairs.reserve(slab.len());
                for (slot, &sum) in scratch.sums[..slab.len()].iter().enumerate() {
                    scratch.pairs.push((ids[slot], qlut.dequantize(sum)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for kernel in ALL_KERNELS {
            assert_eq!(ScanKernel::from_name(kernel.name()), Some(kernel));
        }
        assert_eq!(ScanKernel::from_name("AUTO"), None);
        assert_eq!(ScanKernel::from_name("AVX2"), Some(ScanKernel::Avx2));
    }

    #[test]
    fn auto_kernel_is_available_and_exact() {
        let kernel = auto_kernel();
        assert!(kernel.is_available());
        assert!(matches!(kernel, ScanKernel::Avx2 | ScanKernel::Portable));
    }

    #[test]
    fn default_kernel_is_always_available() {
        assert!(default_kernel().is_available());
    }

    #[test]
    fn rerank_depth_dominates_k() {
        assert_eq!(rerank_depth(1), 33);
        assert_eq!(rerank_depth(10), 42);
        assert_eq!(rerank_depth(100), 400);
        for k in [1usize, 7, 10, 100, 1000] {
            assert!(rerank_depth(k) >= k + 32 || rerank_depth(k) >= 4 * k);
            assert!(rerank_depth(k) > k);
        }
    }
}
