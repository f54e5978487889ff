//! The [`IvfSource`] abstraction: everything the query pipeline needs from
//! an IVF-PQ index, independent of where the index lives.
//!
//! Two implementations exist:
//!
//! * [`IvfPqIndex`] — the heap-owned index built
//!   by training (`lists` own their id/code buffers, slabs are materialised
//!   eagerly),
//! * [`MappedIndex`](crate::storage::MappedIndex) — a read-only view over an
//!   on-disk index opened with `mmap` (ids/codes/centroids are zero-copy
//!   typed views into the mapping; scan slabs are rebuilt lazily per list or
//!   eagerly via `warm()`).
//!
//! Every stage function in [`crate::search`] and every scan entry point in
//! [`crate::simd`] is generic over this trait, so the two index forms are
//! guaranteed to run the *same* arithmetic in the *same* order — the
//! bit-identical-results contract the storage test battery asserts.

use fanns_quantize::opq::OpqTransform;
use fanns_quantize::pq::ProductQuantizer;

use crate::index::IvfPqIndex;
use crate::simd::CodeSlab;

/// Read access to a searchable IVF-PQ index, heap-owned or mmap-backed.
///
/// Implementations must be immutable for the lifetime of any borrow handed
/// out (the serving layers share one source across worker threads).
pub trait IvfSource: Send + Sync {
    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Number of PQ sub-quantizers (code bytes).
    fn m(&self) -> usize;

    /// PQ codebook size per sub-space.
    fn ksub(&self) -> usize;

    /// Number of Voronoi cells (inverted lists).
    fn nlist(&self) -> usize;

    /// Total number of indexed vectors.
    fn ntotal(&self) -> usize;

    /// The OPQ rotation, when the index was trained with one.
    fn opq(&self) -> Option<&OpqTransform>;

    /// The coarse-quantizer centroid table, flat `nlist × dim` row-major.
    fn centroids(&self) -> &[f32];

    /// The product quantizer (Stage BuildLUT builds the per-query ADC lookup
    /// table from it).
    fn pq(&self) -> &ProductQuantizer;

    /// Number of vectors in cell `cell`.
    fn list_len(&self, cell: usize) -> usize {
        self.list_ids(cell).len()
    }

    /// Database ids of cell `cell`, in insertion order.
    fn list_ids(&self, cell: usize) -> &[u32];

    /// Canonical row-major `len × m` PQ code buffer of cell `cell`.
    fn list_codes(&self, cell: usize) -> &[u8];

    /// The 64-byte-aligned block-transposed scan mirror of cell `cell`
    /// (see [`crate::simd::slab`]). Mapped indexes may build this lazily on
    /// first touch.
    fn slab(&self, cell: usize) -> &CodeSlab;
}

impl IvfSource for IvfPqIndex {
    fn dim(&self) -> usize {
        IvfPqIndex::dim(self)
    }

    fn m(&self) -> usize {
        IvfPqIndex::m(self)
    }

    fn ksub(&self) -> usize {
        self.pq().ksub()
    }

    fn nlist(&self) -> usize {
        IvfPqIndex::nlist(self)
    }

    fn ntotal(&self) -> usize {
        IvfPqIndex::ntotal(self)
    }

    fn opq(&self) -> Option<&OpqTransform> {
        IvfPqIndex::opq(self)
    }

    fn centroids(&self) -> &[f32] {
        self.coarse().centroids()
    }

    fn pq(&self) -> &ProductQuantizer {
        IvfPqIndex::pq(self)
    }

    fn list_len(&self, cell: usize) -> usize {
        self.list(cell).len()
    }

    fn list_ids(&self, cell: usize) -> &[u32] {
        &self.list(cell).ids
    }

    fn list_codes(&self, cell: usize) -> &[u8] {
        &self.list(cell).codes
    }

    fn slab(&self, cell: usize) -> &CodeSlab {
        IvfPqIndex::slab(self, cell)
    }
}

/// Blanket impl so `Arc<MappedIndex>` / `Arc<IvfPqIndex>` (and any other
/// shared pointer deref-ing to a source) can be searched directly.
impl<T: IvfSource + ?Sized> IvfSource for std::sync::Arc<T> {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn m(&self) -> usize {
        (**self).m()
    }

    fn ksub(&self) -> usize {
        (**self).ksub()
    }

    fn nlist(&self) -> usize {
        (**self).nlist()
    }

    fn ntotal(&self) -> usize {
        (**self).ntotal()
    }

    fn opq(&self) -> Option<&OpqTransform> {
        (**self).opq()
    }

    fn centroids(&self) -> &[f32] {
        (**self).centroids()
    }

    fn pq(&self) -> &ProductQuantizer {
        (**self).pq()
    }

    fn list_len(&self, cell: usize) -> usize {
        (**self).list_len(cell)
    }

    fn list_ids(&self, cell: usize) -> &[u32] {
        (**self).list_ids(cell)
    }

    fn list_codes(&self, cell: usize) -> &[u8] {
        (**self).list_codes(cell)
    }

    fn slab(&self, cell: usize) -> &CodeSlab {
        (**self).slab(cell)
    }
}
