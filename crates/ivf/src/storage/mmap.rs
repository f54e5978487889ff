//! Zero-copy `mmap` loader for the on-disk index format.
//!
//! [`MappedIndex`] opens a file written by [`super::write_index`], validates
//! every header, table and section checksum, and then serves searches
//! directly out of the read-only mapping: centroids, inverted-list offsets,
//! ids and codes are *typed views into the mapped bytes* — no
//! deserialization, no per-list heap copies. Only two small structures are
//! rebuilt on the heap at open time, because the search arithmetic contract
//! requires byte-identical behaviour with the heap index:
//!
//! * the [`ProductQuantizer`] (so Stage BuildLUT runs exactly the same code as
//!   the in-memory path — `dim × ksub` floats, a few hundred KiB at most),
//! * the optional [`OpqTransform`].
//!
//! The block-transposed [`CodeSlab`] mirrors the SIMD kernels stream are not
//! stored on disk (they are derivable, and keeping the canonical row-major
//! codes as the single source of truth keeps the format layout-independent).
//! They are rebuilt **lazily per list on first touch** via `OnceLock`, or
//! eagerly for every list by [`MappedIndex::warm`].
//!
//! # Safety argument
//!
//! The mapping is `PROT_READ` + `MAP_PRIVATE`: the kernel never lets anyone
//! write through it, and writes to the underlying file by other processes
//! are not guaranteed to be (and on Linux private mappings effectively are
//! not expected to be) part of our snapshot — the format's contract is that
//! index files are immutable once written (writers create a new file and
//! swap paths). Typed views (`&[f32]`, `&[u32]`, `&[u64]`) are only created
//! after `open` has verified that every section offset is 64-byte aligned,
//! in bounds, exactly the length the header shape implies, and CRC-clean;
//! the base address of an `mmap` is page-aligned, so section alignment in
//! the file carries over to alignment in memory (and is re-checked against
//! the live pointer anyway). All integer/float payloads are little-endian;
//! big-endian hosts are rejected at open rather than silently mis-read.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use rayon::prelude::*;

use fanns_quantize::kmeans::KMeans;
use fanns_quantize::linalg::Matrix;
use fanns_quantize::opq::OpqTransform;
use fanns_quantize::pq::ProductQuantizer;

use crate::index::{InvertedList, IvfPqIndex, IvfPqTrainConfig};
use crate::simd::CodeSlab;
use crate::source::IvfSource;

use super::format::{
    parse_header, parse_sections, IndexHeader, SectionKind, StorageError, HEADER_LEN, SECTION_ALIGN,
};

// ---------------------------------------------------------------------------
// The raw mapping
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    #[cfg(target_os = "linux")]
    pub const MADV_RANDOM: i32 = 1;
    #[cfg(target_os = "linux")]
    pub const MADV_DONTNEED: i32 = 4;
    /// `_SC_PAGESIZE` on Linux (glibc and musl).
    #[cfg(target_os = "linux")]
    pub const SC_PAGESIZE: i32 = 30;

    // Self-declared prototypes (no libc crate in the build environment);
    // these match the POSIX ABI on every 64-bit unix we target.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        #[cfg(target_os = "linux")]
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        #[cfg(target_os = "linux")]
        pub fn sysconf(name: i32) -> i64;
    }

    pub fn map_failed(ptr: *mut c_void) -> bool {
        ptr as isize == -1
    }
}

/// A 64-byte-aligned heap buffer — the no-`mmap` fallback backing store.
#[cfg(not(unix))]
struct AlignedBytes {
    chunks: Vec<Align64>,
    len: usize,
}

#[cfg(not(unix))]
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Align64([u8; 64]);

#[cfg(not(unix))]
impl AlignedBytes {
    fn from_vec(bytes: &[u8]) -> Self {
        let mut chunks = vec![Align64([0u8; 64]); bytes.len().div_ceil(64)];
        // SAFETY: `chunks` is a contiguous `chunks.len() * 64`-byte
        // allocation of plain bytes; copying into its prefix is in bounds.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                chunks.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
        }
        Self {
            chunks,
            len: bytes.len(),
        }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: the prefix `[0, len)` of the chunk storage was initialised
        // in `from_vec` (and the rest is zeroed).
        unsafe { std::slice::from_raw_parts(self.chunks.as_ptr() as *const u8, self.len) }
    }
}

/// The backing bytes of a [`MappedIndex`]: a real `mmap` on unix, an aligned
/// heap read elsewhere (or when `mmap` is unavailable).
enum Mapping {
    #[cfg(unix)]
    Mmap { ptr: *const u8, len: usize },
    #[cfg(not(unix))]
    Heap(AlignedBytes),
}

// SAFETY: the mmap variant is a private, read-only mapping that nothing can
// write through for the lifetime of the value; sharing immutable byte views
// across threads is sound. The heap variant is an ordinary owned buffer.
unsafe impl Send for Mapping {}
unsafe impl Sync for Mapping {}

impl Mapping {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes, unmapped only in `Drop`.
            Mapping::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            #[cfg(not(unix))]
            Mapping::Heap(buf) => buf.as_slice(),
        }
    }

    fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            Mapping::Mmap { .. } => true,
            #[cfg(not(unix))]
            Mapping::Heap(_) => false,
        }
    }

    /// Lets the kernel drop the resident pages that lie wholly inside
    /// `range`, without unmapping them: the bytes stay readable, and a later
    /// read faults them back in from the file. The range is first marked
    /// `MADV_RANDOM` — true of whatever still reads it, and it makes the
    /// range its own VMA, so faults on neighbouring sections (which map
    /// whole page-cache folios, up to 2 MiB) cannot map it back in. Best
    /// effort: a no-op off Linux or if the kernel refuses.
    fn release_pages(&self, range: &ByteRange) {
        #[cfg(target_os = "linux")]
        {
            let Mapping::Mmap { ptr, .. } = self;
            // SAFETY: sysconf has no preconditions.
            let page = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
            let Some(page) = usize::try_from(page).ok().filter(|&p| p > 0) else {
                return;
            };
            let start = (*ptr as usize + range.start).next_multiple_of(page);
            let end = (*ptr as usize + range.end) / page * page;
            if start < end {
                let addr = start as *mut std::ffi::c_void;
                // SAFETY: `[start, end)` is page-aligned and inside the live
                // mapping (`range` is a validated section of it). The
                // mapping is read-only and file-backed, so dropping its
                // pages loses nothing: the next read repopulates them with
                // the same file bytes, and no reference is invalidated.
                unsafe {
                    sys::madvise(addr, end - start, sys::MADV_RANDOM);
                    sys::madvise(addr, end - start, sys::MADV_DONTNEED);
                }
            }
        }
        #[cfg(not(target_os = "linux"))]
        let _ = range;
    }

    #[cfg(unix)]
    fn open_mmap(path: &Path, len: usize) -> Result<Self, StorageError> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        // SAFETY: fd is valid for the duration of the call; a private
        // read-only mapping of a regular file has no other preconditions.
        // The mapping outlives the fd (POSIX keeps it after close).
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if sys::map_failed(ptr) {
            return Err(StorageError::Io(std::io::Error::last_os_error()));
        }
        Ok(Mapping::Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    fn open(path: &Path) -> Result<Self, StorageError> {
        let meta = std::fs::metadata(path)?;
        let len = meta.len();
        if len < HEADER_LEN as u64 {
            return Err(StorageError::Truncated {
                expected: HEADER_LEN as u64,
                actual: len,
            });
        }
        #[cfg(unix)]
        {
            Mapping::open_mmap(path, len as usize)
        }
        #[cfg(not(unix))]
        {
            Ok(Mapping::Heap(AlignedBytes::from_vec(
                &super::format::read_file_bytes(path)?,
            )))
        }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        {
            let Mapping::Mmap { ptr, len } = self;
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once, here.
            unsafe {
                sys::munmap(*ptr as *mut std::ffi::c_void, *len);
            }
        }
    }
}

// Little-endian only: the typed views below reinterpret the mapped bytes
// directly, which is only correct when host order matches file order.
#[cfg(target_endian = "big")]
compile_error!("the FANNS index format requires a little-endian host");

// ---------------------------------------------------------------------------
// MappedIndex
// ---------------------------------------------------------------------------

type ByteRange = std::ops::Range<usize>;

/// A read-only, searchable IVF-PQ index backed by an `mmap` of an on-disk
/// index file. Implements [`IvfSource`], so every search stage, scan kernel
/// and `CpuSearcher`/`CpuBackend` path accepts it interchangeably with a
/// heap-owned [`IvfPqIndex`] — with bit-identical results.
pub struct MappedIndex {
    mapping: Mapping,
    path: PathBuf,
    header: IndexHeader,
    centroids: ByteRange,
    list_offsets: ByteRange,
    ids: ByteRange,
    codes: ByteRange,
    pq: ProductQuantizer,
    opq: Option<OpqTransform>,
    slabs: Vec<OnceLock<CodeSlab>>,
}

impl std::fmt::Debug for MappedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedIndex")
            .field("path", &self.path)
            .field("dim", &self.header.dim)
            .field("m", &self.header.m)
            .field("ksub", &self.header.ksub)
            .field("nlist", &self.header.nlist)
            .field("ntotal", &self.header.ntotal)
            .field("has_opq", &self.header.has_opq)
            .field("mmap", &self.mapping.is_mmap())
            .finish()
    }
}

impl MappedIndex {
    /// Opens and fully validates an on-disk index. Every checksum is
    /// verified and every section offset is alignment- and bounds-checked
    /// before any typed view is created; malformed input of any kind yields
    /// a typed [`StorageError`], never a panic or undefined behaviour.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let mapping = Mapping::open(path)?;
        let bytes = mapping.bytes();
        let header = parse_header(bytes)?;
        let sections = parse_sections(bytes, &header)?;

        let mut centroids = None;
        let mut codebooks = None;
        let mut rotation = None;
        let mut list_offsets = None;
        let mut ids = None;
        let mut codes = None;
        for entry in &sections {
            let range = entry.offset as usize..(entry.offset + entry.len) as usize;
            // Belt-and-braces: re-check element alignment against the live
            // pointer (mmap bases are page-aligned, so this cannot fire for
            // a real mapping, but it keeps the typed views locally provable).
            let elem_align = match entry.kind {
                SectionKind::ListOffsets => std::mem::align_of::<u64>(),
                SectionKind::Ids => std::mem::align_of::<u32>(),
                SectionKind::Codes => 1,
                _ => std::mem::align_of::<f32>(),
            };
            if !(bytes.as_ptr() as usize + range.start).is_multiple_of(elem_align.max(1)) {
                return Err(StorageError::Misaligned(entry.kind));
            }
            match entry.kind {
                SectionKind::Centroids => centroids = Some(range),
                SectionKind::PqCodebooks => codebooks = Some(range),
                SectionKind::OpqRotation => rotation = Some(range),
                SectionKind::ListOffsets => list_offsets = Some(range),
                SectionKind::Ids => ids = Some(range),
                SectionKind::Codes => codes = Some(range),
            }
        }
        // parse_sections guarantees the full expected kind set in order.
        let centroids = centroids.expect("validated section set");
        let codebooks = codebooks.expect("validated section set");
        let list_offsets = list_offsets.expect("validated section set");
        let ids = ids.expect("validated section set");
        let codes = codes.expect("validated section set");

        // Rebuild the small owned quantizer structures.
        let codebook_floats = read_f32s(&bytes[codebooks]);
        let pq =
            ProductQuantizer::from_codebooks(header.dim, header.m, header.ksub, codebook_floats);
        let opq = match rotation {
            Some(range) => {
                let data = read_f32s(&bytes[range]);
                let matrix = Matrix::from_vec(header.dim, header.dim, data);
                // `OpqTransform::from_rotation` asserts orthonormality;
                // check it here first so corruption that survives CRC
                // re-signing (in tests) still surfaces as a typed error.
                let err = matrix.orthogonality_error();
                if err >= 1e-2 {
                    return Err(StorageError::Inconsistent(format!(
                        "OPQ rotation is not orthonormal (error {err})"
                    )));
                }
                Some(OpqTransform::from_rotation(header.dim, matrix))
            }
            None => None,
        };

        let index = Self {
            mapping,
            path: path.to_path_buf(),
            header,
            centroids,
            list_offsets,
            ids,
            codes,
            pq,
            opq,
            slabs: (0..header.nlist).map(|_| OnceLock::new()).collect(),
        };

        // Inverted-list structure: prefix sums must start at 0, end at
        // ntotal and never decrease — everything list slicing relies on.
        let offsets = index.list_offset_view();
        if offsets.first() != Some(&0) || offsets.last() != Some(&(header.ntotal as u64)) {
            return Err(StorageError::Inconsistent(
                "list offsets do not span [0, ntotal]".to_string(),
            ));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(StorageError::Inconsistent(
                "list offsets are not monotone".to_string(),
            ));
        }
        Ok(index)
    }

    /// The parsed file header.
    pub fn header(&self) -> &IndexHeader {
        &self.header
    }

    /// The path the index was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total size of the backing file in bytes.
    pub fn file_len(&self) -> usize {
        self.mapping.bytes().len()
    }

    /// Whether the backing store is a real `mmap` (false on the heap-read
    /// fallback used by non-unix targets).
    pub fn is_mmap(&self) -> bool {
        self.mapping.is_mmap()
    }

    /// The training configuration recorded in the header (informational
    /// fields round-trip; retraining from it reproduces an equivalent
    /// index only when the same dataset is supplied).
    pub fn train_config(&self) -> IvfPqTrainConfig {
        IvfPqTrainConfig {
            nlist: self.header.nlist,
            m: self.header.m,
            ksub: self.header.ksub,
            use_opq: self.header.has_opq,
            train_sample: self.header.train_sample as usize,
            coarse_iters: self.header.coarse_iters as usize,
            seed: self.header.seed,
        }
    }

    fn view<T: Copy>(&self, range: &ByteRange) -> &[T] {
        let bytes = &self.mapping.bytes()[range.clone()];
        debug_assert_eq!(bytes.len() % std::mem::size_of::<T>(), 0);
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: alignment and exact length were validated at open; T is a
        // plain Copy number type with no invalid bit patterns; the mapping
        // is immutable and outlives `&self`.
        unsafe {
            std::slice::from_raw_parts(
                bytes.as_ptr() as *const T,
                bytes.len() / std::mem::size_of::<T>(),
            )
        }
    }

    fn list_offset_view(&self) -> &[u64] {
        self.view::<u64>(&self.list_offsets)
    }

    fn list_bounds(&self, cell: usize) -> (usize, usize) {
        let offsets = self.list_offset_view();
        (offsets[cell] as usize, offsets[cell + 1] as usize)
    }

    /// Eagerly rebuilds the block-transposed scan slab of every inverted
    /// list (in parallel), so the first queries don't pay the lazy rebuild.
    /// Returns the total slab bytes materialised.
    ///
    /// Every scan then streams the slabs, so the mapped canonical codes —
    /// all just read once — are released from residency: they stay readable
    /// (`list_codes`, compaction, `to_owned_index` fault them back in), but
    /// a warmed index no longer keeps two resident copies of its codes.
    pub fn warm(&self) -> usize {
        let slab_bytes = (0..self.header.nlist)
            .into_par_iter()
            .map(|cell| IvfSource::slab(self, cell).nbytes())
            .sum();
        self.mapping.release_pages(&self.codes);
        slab_bytes
    }

    /// Copies the mapped data into a fully heap-owned [`IvfPqIndex`] —
    /// useful when an owner wants to drop the file, or to compare the two
    /// representations in tests.
    pub fn to_owned_index(&self) -> IvfPqIndex {
        let lists: Vec<InvertedList> = (0..self.header.nlist)
            .map(|cell| InvertedList {
                ids: IvfSource::list_ids(self, cell).to_vec(),
                codes: IvfSource::list_codes(self, cell).to_vec(),
            })
            .collect();
        let coarse = KMeans::from_centroids(self.header.dim, IvfSource::centroids(self).to_vec());
        IvfPqIndex::from_parts(
            self.header.dim,
            coarse,
            self.opq.clone(),
            self.pq.clone(),
            lists,
            self.header.ntotal,
            self.train_config(),
        )
    }
}

impl IvfSource for MappedIndex {
    fn dim(&self) -> usize {
        self.header.dim
    }

    fn m(&self) -> usize {
        self.header.m
    }

    fn ksub(&self) -> usize {
        self.header.ksub
    }

    fn nlist(&self) -> usize {
        self.header.nlist
    }

    fn ntotal(&self) -> usize {
        self.header.ntotal
    }

    fn opq(&self) -> Option<&OpqTransform> {
        self.opq.as_ref()
    }

    fn centroids(&self) -> &[f32] {
        self.view::<f32>(&self.centroids)
    }

    fn pq(&self) -> &ProductQuantizer {
        &self.pq
    }

    fn list_len(&self, cell: usize) -> usize {
        let (start, end) = self.list_bounds(cell);
        end - start
    }

    fn list_ids(&self, cell: usize) -> &[u32] {
        let (start, end) = self.list_bounds(cell);
        &self.view::<u32>(&self.ids)[start..end]
    }

    fn list_codes(&self, cell: usize) -> &[u8] {
        let (start, end) = self.list_bounds(cell);
        let m = self.header.m;
        &self.mapping.bytes()[self.codes.clone()][start * m..end * m]
    }

    fn slab(&self, cell: usize) -> &CodeSlab {
        self.slabs[cell].get_or_init(|| CodeSlab::from_codes(self.list_codes(cell), self.header.m))
    }
}

fn read_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

// Compile-time reminder that SECTION_ALIGN covers every element type we view.
const _: () = assert!(SECTION_ALIGN >= std::mem::align_of::<u64>());
