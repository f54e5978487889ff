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
//!   AVX2 gather kernel,
//! * [`ScanKernel`] — the dispatch enum, selected at runtime from CPU
//!   features with an environment override (`FANNS_SCAN_KERNEL`).
//!
//! Every kernel is bit-identical to the scalar reference: same distances,
//! same ranking, same results.

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
}

/// Every kernel, in the order benches sweep them.
pub const ALL_KERNELS: [ScanKernel; 3] =
    [ScanKernel::Scalar, ScanKernel::Portable, ScanKernel::Avx2];

impl ScanKernel {
    /// Short lowercase label used in bench rows and env overrides.
    pub fn name(&self) -> &'static str {
        match self {
            ScanKernel::Scalar => "scalar",
            ScanKernel::Portable => "portable",
            ScanKernel::Avx2 => "avx2",
        }
    }

    /// Whether this kernel can execute on the current host. Only
    /// [`ScanKernel::Avx2`] is feature-gated; the other two are portable.
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
            _ => None,
        }
    }

    /// The tier of the distance kernels (coarse quantisation, LUT build)
    /// that goes with this scan kernel: the portable tier beside the two
    /// non-SIMD scan kernels, the best the host has beside AVX2.
    pub fn distance_tier(&self) -> SimdTier {
        match self {
            ScanKernel::Scalar | ScanKernel::Portable => SimdTier::Portable,
            ScanKernel::Avx2 => SimdTier::best_available(),
        }
    }
}

impl std::fmt::Display for ScanKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The fastest kernel this host supports: AVX2 when detected, the portable
/// chunked kernel otherwise.
pub fn auto_kernel() -> ScanKernel {
    if avx2_available() {
        ScanKernel::Avx2
    } else {
        ScanKernel::Portable
    }
}

/// The process-wide default kernel: `FANNS_SCAN_KERNEL` when set to a known
/// name (`scalar` | `portable` | `avx2`; an unavailable `avx2` demotes to
/// `portable`), else [`auto_kernel`]. The variable is read (once per
/// process) and the CPU probed in [`fanns_quantize::dispatch`], the same
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

/// Reusable per-thread scratch for a query: the prefix buffers (rotated
/// query, centroid distances, probed cells, lookup table), the split path's
/// distance buffer (sized to the largest probed cell) and candidate pairs,
/// and the pruning count of the last fused scan. One instance per searcher
/// thread removes every per-query allocation from the pipeline except the
/// returned result list.
#[derive(Debug, Default, Clone)]
pub struct ScanScratch {
    /// Output buffers of the query prefix.
    prefix: QueryPrefix,
    /// f32 distances per code, padded to whole blocks.
    dists: Vec<f32>,
    /// Candidate pairs for the split PQDist stage (id, distance).
    pairs: Vec<(u32, f32)>,
    /// Codes the last fused scan skipped by threshold pruning.
    pruned: usize,
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

    /// Codes the last fused scan ([`crate::search::stage_scan_and_select_with`])
    /// pruned: skipped against the top-k threshold before all `m` lookups.
    /// Always 0 after a [`ScanKernel::Scalar`] scan, which never prunes.
    pub fn pruned(&self) -> usize {
        self.pruned
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
        self.prefix.capacity_bytes() + 4 * self.dists.capacity() + 8 * self.pairs.capacity()
    }
}

/// Scans the selected cells with `kernel` and keeps the best `k` — the
/// fused Stage PQDist + SelK behind
/// [`crate::search::stage_scan_and_select_with`]. The slab kernels prune
/// against the running top-k threshold and record the codes pruned in
/// `scratch`; [`ScanKernel::Scalar`] computes every distance and is the
/// reference they equal bit for bit.
pub(crate) fn scan_and_select<S: IvfSource + ?Sized>(
    index: &S,
    cells: &[usize],
    lut: &DistanceTable,
    k: usize,
    kernel: ScanKernel,
    scratch: &mut ScanScratch,
) -> Vec<SearchResult> {
    let mut topk = TopK::new(k);
    scratch.pruned = 0;
    for &cell in cells {
        let ids = index.list_ids(cell);
        scratch.pruned += match kernel {
            ScanKernel::Scalar => {
                let codes = index.list_codes(cell).chunks_exact(index.m());
                for (&id, code) in ids.iter().zip(codes) {
                    topk.push(lut.adc(code), id);
                }
                0
            }
            ScanKernel::Portable => {
                kernels::scan_select_f32_portable(index.slab(cell), lut, ids, &mut topk)
            }
            ScanKernel::Avx2 => {
                kernels::scan_select_f32_avx2(index.slab(cell), lut, ids, &mut topk)
            }
        };
    }
    topk.into_sorted()
}

/// Computes per-code (id, distance) pairs for the selected cells with
/// `kernel` into the scratch's pair buffer — the *split* Stage PQDist used
/// by the instrumented pipeline.
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
}
