//! The one place the workspace decides which SIMD tier runs.
//!
//! Both kernel families — the distance kernels of [`crate::distance`] and
//! the ADC scan kernels of `fanns-ivf` — take their decision from here: the
//! CPU is probed here, and the `FANNS_SCAN_KERNEL` environment override is
//! read here, once per process.

use std::sync::OnceLock;

/// Whether AVX2 kernels can run on this host.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The lowercased value of the `FANNS_SCAN_KERNEL` environment variable,
/// read once and cached (the serving path must not pay a `getenv` per
/// query). `fanns-ivf` parses it into its scan-kernel enum; this crate maps
/// it onto a [`SimdTier`].
pub fn kernel_override() -> Option<&'static str> {
    static OVERRIDE: OnceLock<Option<String>> = OnceLock::new();
    OVERRIDE
        .get_or_init(|| {
            std::env::var("FANNS_SCAN_KERNEL")
                .ok()
                .map(|raw| raw.to_ascii_lowercase())
        })
        .as_deref()
}

/// Which implementation of the distance kernels executes. The two tiers
/// share one reduction order and return bit-identical results (see
/// [`crate::distance`]), so the choice only affects speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdTier {
    /// Safe-Rust 8-lane kernels; runs everywhere.
    Portable,
    /// AVX2 intrinsics (x86-64 with AVX2). Demotes to [`SimdTier::Portable`]
    /// on a host without AVX2, so it is always safe to name.
    Avx2,
}

impl SimdTier {
    /// The fastest tier this host supports.
    pub fn best_available() -> Self {
        if avx2_available() {
            SimdTier::Avx2
        } else {
            SimdTier::Portable
        }
    }

    /// The process-wide tier: [`SimdTier::Portable`] when
    /// `FANNS_SCAN_KERNEL` forces a non-SIMD scan kernel (`scalar` or
    /// `portable`), else [`SimdTier::best_available`].
    pub fn process_default() -> Self {
        match kernel_override() {
            Some("scalar" | "portable") => SimdTier::Portable,
            _ => SimdTier::best_available(),
        }
    }

    /// Short lowercase label used in bench rows.
    pub fn name(&self) -> &'static str {
        match self {
            SimdTier::Portable => "portable",
            SimdTier::Avx2 => "avx2",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_default_never_exceeds_the_host() {
        let tier = SimdTier::process_default();
        assert!(tier == SimdTier::Portable || avx2_available());
        assert_eq!(
            SimdTier::best_available() == SimdTier::Avx2,
            avx2_available()
        );
    }
}
