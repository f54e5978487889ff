//! Cache-aligned, block-transposed PQ code storage for the SIMD scan kernels.
//!
//! The canonical inverted-list layout ([`crate::index::InvertedList::codes`])
//! is row-major: code `i` occupies bytes `[i*m, (i+1)*m)`. That layout is
//! what the hardware simulator streams from HBM, but it is hostile to a
//! register-blocked CPU scan: computing 8 distances at once needs the *j*-th
//! sub-code of 8 *different* vectors, which are `m` bytes apart.
//!
//! A [`CodeSlab`] stores the same codes **block-transposed**: codes are
//! grouped into blocks of [`BLOCK`] consecutive vectors, and inside a block
//! the bytes are laid out sub-quantizer-major, so the 8 lanes a SIMD
//! iteration needs are 8 *adjacent* bytes:
//!
//! ```text
//! byte offset of (code i, sub-quantizer j):
//!     block = i / BLOCK, lane = i % BLOCK
//!     offset = block * (m * BLOCK) + j * BLOCK + lane
//! ```
//!
//! The backing buffer is 64-byte aligned (one x86 cache line, also the DMA
//! burst granularity the paper's accelerator assumes) and the tail block is
//! zero-padded, so kernels always consume whole blocks and never touch
//! unaligned or out-of-bounds memory. Padding lanes are skipped at selection
//! time by bounding the id loop with [`CodeSlab::len`].

use serde::{Deserialize, Serialize, Value};

/// Number of codes per transposed block — one AVX2 register of `f32`
/// distances (8 lanes), and the unroll factor of the portable kernel.
pub const BLOCK: usize = 8;

/// Alignment of the slab's backing buffer in bytes (one cache line).
pub const SLAB_ALIGN: usize = 64;

/// One cache line of storage; `Vec<Chunk>` gives the slab a stable 64-byte
/// aligned base address without unstable allocator APIs.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Chunk([u8; SLAB_ALIGN]);

/// A contiguous, 64-byte-aligned, block-transposed copy of one inverted
/// list's PQ codes (see the module docs for the exact byte layout).
#[derive(Clone)]
pub struct CodeSlab {
    m: usize,
    len: usize,
    /// The largest code byte stored (0 when empty): the scan kernels check
    /// it against the LUT's `ksub` once per list instead of per gather.
    max_code: u8,
    chunks: Vec<Chunk>,
}

impl std::fmt::Debug for CodeSlab {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CodeSlab")
            .field("m", &self.m)
            .field("len", &self.len)
            .field("blocks", &self.blocks())
            .field("nbytes", &self.nbytes())
            .finish()
    }
}

impl PartialEq for CodeSlab {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && self.len == other.len && self.as_bytes() == other.as_bytes()
    }
}

impl CodeSlab {
    /// Builds a slab from the canonical flat row-major code buffer
    /// (`len × m`, the [`crate::index::InvertedList::codes`] layout).
    ///
    /// # Panics
    /// Panics when `m == 0` or `codes.len()` is not a multiple of `m`.
    pub fn from_codes(codes: &[u8], m: usize) -> Self {
        assert!(m > 0, "m must be positive");
        assert!(
            codes.len().is_multiple_of(m),
            "code buffer length {} is not a multiple of m={m}",
            codes.len()
        );
        let len = codes.len() / m;
        let blocks = len.div_ceil(BLOCK);
        let nbytes = blocks * m * BLOCK;
        let mut chunks = vec![Chunk([0u8; SLAB_ALIGN]); nbytes.div_ceil(SLAB_ALIGN)];
        {
            // SAFETY: `chunks` is a contiguous allocation of
            // `chunks.len() * 64` initialised bytes; `Chunk` is a
            // `#[repr(C)]` byte array so reinterpreting as `&mut [u8]` is
            // valid and cannot alias anything else.
            let bytes: &mut [u8] = unsafe {
                std::slice::from_raw_parts_mut(
                    chunks.as_mut_ptr() as *mut u8,
                    chunks.len() * SLAB_ALIGN,
                )
            };
            for i in 0..len {
                let (block, lane) = (i / BLOCK, i % BLOCK);
                let base = block * m * BLOCK;
                for j in 0..m {
                    bytes[base + j * BLOCK + lane] = codes[i * m + j];
                }
            }
        }
        let max_code = codes.iter().copied().max().unwrap_or(0);
        Self {
            m,
            len,
            max_code,
            chunks,
        }
    }

    /// Number of codes stored (padding lanes excluded).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no codes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes per code (number of PQ sub-quantizers).
    pub fn m(&self) -> usize {
        self.m
    }

    /// The largest code byte stored (0 for an empty slab).
    pub fn max_code(&self) -> usize {
        self.max_code as usize
    }

    /// Number of [`BLOCK`]-code transposed blocks (the tail block padded).
    pub fn blocks(&self) -> usize {
        self.len.div_ceil(BLOCK)
    }

    /// Number of code slots including tail padding (`blocks() * BLOCK`).
    pub fn padded_len(&self) -> usize {
        self.blocks() * BLOCK
    }

    /// The transposed byte buffer, `blocks() * m * BLOCK` bytes long and
    /// guaranteed 64-byte aligned. This is the view the kernels stream.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: same representation argument as in `from_codes`; the
        // logical prefix of the chunk storage is always fully initialised.
        let all = unsafe {
            std::slice::from_raw_parts(
                self.chunks.as_ptr() as *const u8,
                self.chunks.len() * SLAB_ALIGN,
            )
        };
        &all[..self.blocks() * self.m * BLOCK]
    }

    /// Size of the transposed buffer in bytes (including tail padding).
    pub fn nbytes(&self) -> usize {
        self.blocks() * self.m * BLOCK
    }

    /// Reconstructs the canonical flat row-major code buffer (`len × m`) —
    /// the inverse of [`CodeSlab::from_codes`], used for serialization.
    pub fn to_flat_codes(&self) -> Vec<u8> {
        let mut flat = vec![0u8; self.len * self.m];
        let bytes = self.as_bytes();
        for i in 0..self.len {
            let (block, lane) = (i / BLOCK, i % BLOCK);
            let base = block * self.m * BLOCK;
            for j in 0..self.m {
                flat[i * self.m + j] = bytes[base + j * BLOCK + lane];
            }
        }
        flat
    }
}

// The aligned backing store is a scan-time mirror; serialize the canonical
// row-major codes and rebuild the transpose on deserialization so the wire
// format stays layout-independent.
impl Serialize for CodeSlab {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("m".to_string(), self.m.to_value()),
            ("codes".to_string(), self.to_flat_codes().to_value()),
        ])
    }
}

impl Deserialize for CodeSlab {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let m = usize::from_value(value.field("m")?)?;
        let codes = Vec::<u8>::from_value(value.field("codes")?)?;
        if m == 0 || codes.len() % m != 0 {
            return Err(serde::Error::new(format!(
                "CodeSlab: {} code bytes is not a multiple of m={m}",
                codes.len()
            )));
        }
        Ok(Self::from_codes(&codes, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_codes(len: usize, m: usize) -> Vec<u8> {
        (0..len * m).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn transpose_round_trips() {
        for (len, m) in [(0, 4), (1, 4), (7, 8), (8, 8), (9, 16), (100, 16)] {
            let codes = ramp_codes(len, m);
            let slab = CodeSlab::from_codes(&codes, m);
            assert_eq!(slab.len(), len);
            assert_eq!(slab.m(), m);
            assert_eq!(slab.to_flat_codes(), codes, "len={len} m={m}");
        }
    }

    #[test]
    fn buffer_is_cache_aligned_and_block_padded() {
        let slab = CodeSlab::from_codes(&ramp_codes(13, 8), 8);
        assert_eq!(slab.as_bytes().as_ptr() as usize % SLAB_ALIGN, 0);
        assert_eq!(slab.blocks(), 2);
        assert_eq!(slab.padded_len(), 16);
        assert_eq!(slab.nbytes(), 2 * 8 * BLOCK);
        assert_eq!(slab.as_bytes().len(), slab.nbytes());
    }

    #[test]
    fn padding_lanes_are_zero() {
        let slab = CodeSlab::from_codes(&ramp_codes(9, 4), 4);
        let bytes = slab.as_bytes();
        // Block 1 holds code 8 in lane 0; lanes 1..8 of every sub-quantizer
        // group must be zero.
        let base = 4 * BLOCK;
        for j in 0..4 {
            for lane in 1..BLOCK {
                assert_eq!(bytes[base + j * BLOCK + lane], 0);
            }
        }
    }

    #[test]
    fn lanes_are_adjacent_within_a_block() {
        // Codes 0..8, m=2: sub-quantizer 0's bytes of all 8 codes must be
        // contiguous at the block start.
        let mut codes = Vec::new();
        for i in 0..8u8 {
            codes.push(i); // sub-quantizer 0
            codes.push(100 + i); // sub-quantizer 1
        }
        let slab = CodeSlab::from_codes(&codes, 2);
        let bytes = slab.as_bytes();
        assert_eq!(&bytes[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(&bytes[8..16], &[100, 101, 102, 103, 104, 105, 106, 107]);
    }

    #[test]
    fn serde_round_trips() {
        let codes = ramp_codes(11, 8);
        let slab = CodeSlab::from_codes(&codes, 8);
        let value = slab.to_value();
        let back = CodeSlab::from_value(&value).expect("round trip");
        assert_eq!(back, slab);
    }

    #[test]
    fn empty_slab_is_well_formed() {
        let slab = CodeSlab::from_codes(&[], 16);
        assert!(slab.is_empty());
        assert_eq!(slab.blocks(), 0);
        assert_eq!(slab.as_bytes().len(), 0);
        assert!(slab.to_flat_codes().is_empty());
    }
}
