//! Segmented mutable IVF: live inserts and deletes over immutable sealed
//! segments, with background-compactable tombstones.
//!
//! Every other index in this workspace is build-once/search-forever, but
//! production indexes churn. [`SegmentedIndex`] closes that gap with the
//! classic LSM-flavoured segment design (see `docs/MUTATION.md`):
//!
//! * a **write segment** — raw vectors appended by [`SegmentedIndex::insert`]
//!   and scanned *exactly* (brute-force L2) at query time, so freshly
//!   inserted vectors are findable immediately with no quantization error,
//! * **sealed segments** — immutable [`IvfSource`]s (heap-owned
//!   [`IvfPqIndex`]es or `mmap`-backed
//!   [`MappedIndex`](crate::storage::MappedIndex)es) scanned through the
//!   ordinary SIMD ADC data plane,
//! * a **deletion bitmap** — [`SegmentedIndex::delete`] marks ids as
//!   tombstoned; queries filter tombstones out of every candidate list, so a
//!   deleted id is never returned even before its bytes are reclaimed,
//! * **compaction** — [`SegmentedIndex::compact`] seals the write segment
//!   (encoding its vectors with the shared trained quantizers), merges every
//!   sealed segment into one, physically drops tombstoned ids, rebuilds the
//!   transposed scan slabs, and publishes the new segment set under an
//!   atomic **generation** bump — the signal the serving layer's
//!   `QueryResultCache` generation invalidation already understands.
//!
//! # Correctness contract
//!
//! The invariants the model-based test battery
//! (`crates/ivf/tests/mutation_model.rs`) enforces:
//!
//! 1. **No resurrection** — a search never returns a tombstoned id, no
//!    matter how operations interleave with compactions.
//! 2. **Live vectors stay findable** — with `nprobe = nlist` and
//!    `k ≥ live()`, a search returns exactly the live id set.
//! 3. **Compaction is result-invariant** — under full probe the returned id
//!    set is unchanged by a compaction, and ids that were already sealed
//!    keep *bit-identical* ADC distances (their PQ codes are copied
//!    verbatim, never re-encoded). Write-segment vectors transition from
//!    exact to ADC distances when sealed — the one quantization step the
//!    design admits, bounded by the PQ error the recall tests cover.
//!
//! All sealed segments must share the template's trained quantizers (same
//! coarse centroids, OPQ rotation and PQ codebooks); [`SegmentedIndex`]
//! asserts the cheap shape half of that contract (`dim`/`m`/`ksub`/`nlist`)
//! when a segment is attached.
//!
//! # Concurrency
//!
//! Readers take a shared lock for the duration of one query, so a query
//! always sees one coherent segment set + bitmap — never a torn mix of
//! pre- and post-compaction state. Inserts and deletes take the exclusive
//! lock briefly (an append / a bitmap flip). Compaction does its O(ntotal)
//! rebuild *outside* the lock on a snapshot and re-acquires it only for the
//! final swap; inserts and deletes that land during the rebuild are
//! reconciled at swap time (late inserts stay in the write segment, late
//! deletes stay tombstoned in the bitmap and are reclaimed by the next
//! compaction).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use fanns_dataset::types::VectorDataset;
use fanns_quantize::distance::l2_sq;

use crate::index::{InvertedList, IvfPqIndex};
use crate::search::{self, SearchResult, TopK};
use crate::simd::{default_kernel, ScanKernel, ScanScratch};
use crate::source::IvfSource;

/// Mutation-policy knobs for a [`SegmentedIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentedConfig {
    /// Write-segment size at which [`SegmentedIndex::needs_compaction`]
    /// starts reporting `true`. The write segment is scanned exactly
    /// (O(`len · dim`) per query), so this bounds the non-SIMD share of the
    /// scan.
    pub seal_threshold: usize,
    /// Pending-tombstone fraction of the indexed total at which
    /// [`SegmentedIndex::needs_compaction`] starts reporting `true`
    /// (tombstones inflate every query's candidate over-fetch until they
    /// are reclaimed).
    pub tombstone_ratio: f64,
    /// Sealed-segment count above which compaction is advised regardless of
    /// churn (each extra segment adds one scan fan-out to every query).
    pub max_sealed_segments: usize,
}

impl Default for SegmentedConfig {
    fn default() -> Self {
        Self {
            seal_threshold: 4_096,
            tombstone_ratio: 0.25,
            max_sealed_segments: 4,
        }
    }
}

impl SegmentedConfig {
    /// Builder-style write-segment seal threshold.
    pub fn with_seal_threshold(mut self, threshold: usize) -> Self {
        self.seal_threshold = threshold.max(1);
        self
    }

    /// Builder-style pending-tombstone compaction trigger.
    pub fn with_tombstone_ratio(mut self, ratio: f64) -> Self {
        self.tombstone_ratio = ratio.max(0.0);
        self
    }

    /// Builder-style sealed-segment-count compaction trigger.
    pub fn with_max_sealed_segments(mut self, n: usize) -> Self {
        self.max_sealed_segments = n.max(1);
        self
    }
}

/// Growable bitmap over the global id space. Ids are assigned monotonically
/// and never reused, so a set bit is a permanent tombstone.
#[derive(Debug, Clone, Default)]
struct DeletionBitmap {
    words: Vec<u64>,
    marked: usize,
}

impl DeletionBitmap {
    #[inline]
    fn is_deleted(&self, id: u32) -> bool {
        let word = (id as usize) / 64;
        self.words
            .get(word)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Marks `id`; returns `false` when it was already marked.
    fn mark(&mut self, id: u32) -> bool {
        let word = (id as usize) / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1u64 << (id % 64);
        if self.words[word] & bit != 0 {
            return false;
        }
        self.words[word] |= bit;
        self.marked += 1;
        true
    }
}

/// The mutable state a query reads under one shared lock: the sealed
/// segment list, the write segment, and the deletion bitmap.
struct SegmentState {
    sealed: Vec<Arc<dyn IvfSource>>,
    write_ids: Vec<u32>,
    write_vectors: VectorDataset,
    deleted: DeletionBitmap,
    /// Tombstoned ids still physically present in some segment — the
    /// per-query candidate over-fetch needed to guarantee `k` live results.
    pending_tombstones: usize,
    live: usize,
    next_id: u32,
}

impl SegmentState {
    fn sealed_total(&self) -> usize {
        self.sealed.iter().map(|s| s.ntotal()).sum()
    }
}

/// Outcome of one [`SegmentedIndex::compact`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// `true` when there was nothing to do (no write vectors, no pending
    /// tombstones, at most one sealed segment) — no swap happened and the
    /// generation did **not** advance.
    pub skipped: bool,
    /// Write-segment vectors encoded into the new sealed segment.
    pub sealed_from_write: usize,
    /// Tombstoned ids physically dropped by the merge.
    pub dropped_tombstones: usize,
    /// Sealed segments merged into the one new segment.
    pub merged_segments: usize,
    /// Live vectors after the swap.
    pub live: usize,
    /// The generation published by the swap (unchanged when skipped).
    pub generation: u64,
}

/// A point-in-time summary of a [`SegmentedIndex`] (see the field docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentedStats {
    /// Immutable sealed segments currently searched.
    pub sealed_segments: usize,
    /// Vectors stored across sealed segments (tombstoned ones included
    /// until a compaction reclaims them).
    pub sealed_vectors: usize,
    /// Vectors in the exact-scanned write segment (tombstoned included).
    pub write_vectors: usize,
    /// Live (inserted and not deleted) vectors.
    pub live: usize,
    /// Tombstoned ids still physically present in some segment.
    pub pending_tombstones: usize,
    /// Ids ever tombstoned (monotone; never reset).
    pub deleted_total: usize,
    /// Current segment-set generation (bumped by every compaction swap).
    pub generation: u64,
    /// Compactions performed (skipped calls excluded).
    pub compactions: u64,
    /// Next id [`SegmentedIndex::insert`] will assign.
    pub next_id: u32,
}

/// A mutable IVF-PQ index built from one mutable write segment plus
/// immutable sealed segments — see the module docs for the design and
/// `docs/MUTATION.md` for the operating guide.
pub struct SegmentedIndex {
    /// Quantizer holder: the shared coarse k-means, optional OPQ rotation
    /// and PQ codebooks every segment was (or will be) encoded with. Its
    /// inverted lists are empty — data lives in the segments.
    template: IvfPqIndex,
    config: SegmentedConfig,
    state: RwLock<SegmentState>,
    /// Serialises compactions (the swap itself is under `state`'s write
    /// lock; this keeps two concurrent rebuilds from racing each other).
    compaction: Mutex<()>,
    generation: AtomicU64,
    compactions: AtomicU64,
}

impl std::fmt::Debug for SegmentedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("SegmentedIndex")
            .field("dim", &self.template.dim())
            .field("nlist", &self.template.nlist())
            .field("stats", &stats)
            .finish()
    }
}

impl SegmentedIndex {
    /// Wraps a built index as the first sealed segment of a mutable index.
    /// The index's trained quantizers become the shared template every
    /// future seal encodes with.
    pub fn new(initial: IvfPqIndex, config: SegmentedConfig) -> Self {
        let template = strip_to_template(&initial);
        let sealed: Vec<Arc<dyn IvfSource>> = if initial.ntotal() > 0 {
            vec![Arc::new(initial)]
        } else {
            Vec::new()
        };
        Self::with_template(template, sealed, config)
    }

    /// Wraps an `mmap`-backed on-disk index as the first sealed segment.
    /// The template quantizers are materialised from the mapping once (the
    /// segment itself keeps serving zero-copy).
    pub fn from_mapped(mapped: Arc<crate::storage::MappedIndex>, config: SegmentedConfig) -> Self {
        let template = strip_to_template(&mapped.to_owned_index());
        let sealed: Vec<Arc<dyn IvfSource>> = vec![mapped];
        Self::with_template(template, sealed, config)
    }

    /// The general constructor: a quantizer template plus any number of
    /// already-sealed segments (heap or mapped).
    ///
    /// # Panics
    /// Panics when a sealed segment's shape (`dim`/`m`/`ksub`/`nlist`)
    /// disagrees with the template — segments must share the template's
    /// trained quantizers (the searchable half of that contract).
    pub fn with_template(
        template: IvfPqIndex,
        sealed: Vec<Arc<dyn IvfSource>>,
        config: SegmentedConfig,
    ) -> Self {
        let mut next_id = 0u32;
        let mut live = 0usize;
        for (s, seg) in sealed.iter().enumerate() {
            assert_eq!(seg.dim(), template.dim(), "segment {s}: dim mismatch");
            assert_eq!(seg.m(), IvfSource::m(&template), "segment {s}: m mismatch");
            assert_eq!(
                seg.ksub(),
                IvfSource::ksub(&template),
                "segment {s}: ksub mismatch"
            );
            assert_eq!(seg.nlist(), template.nlist(), "segment {s}: nlist mismatch");
            live += seg.ntotal();
            for cell in 0..seg.nlist() {
                for &id in seg.list_ids(cell) {
                    next_id = next_id.max(id + 1);
                }
            }
        }
        let dim = template.dim();
        Self {
            template,
            config,
            state: RwLock::new(SegmentState {
                sealed,
                write_ids: Vec::new(),
                write_vectors: VectorDataset::empty(dim),
                deleted: DeletionBitmap::default(),
                pending_tombstones: 0,
                live,
                next_id,
            }),
            compaction: Mutex::new(()),
            generation: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
        }
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.template.dim()
    }

    /// Number of Voronoi cells of every segment.
    pub fn nlist(&self) -> usize {
        self.template.nlist()
    }

    /// PQ code bytes per vector.
    pub fn m(&self) -> usize {
        IvfSource::m(&self.template)
    }

    /// The mutation-policy configuration.
    pub fn config(&self) -> SegmentedConfig {
        self.config
    }

    /// Vectors physically present across all segments (tombstoned ids
    /// included until a compaction reclaims them).
    pub fn ntotal(&self) -> usize {
        let state = self.state.read().expect("segment state lock");
        state.sealed_total() + state.write_ids.len()
    }

    /// Live (inserted and not deleted) vectors.
    pub fn live(&self) -> usize {
        self.state.read().expect("segment state lock").live
    }

    /// The current segment-set generation. Bumped by every compaction swap;
    /// serving layers key their result-cache invalidation off this.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> SegmentedStats {
        let state = self.state.read().expect("segment state lock");
        SegmentedStats {
            sealed_segments: state.sealed.len(),
            sealed_vectors: state.sealed_total(),
            write_vectors: state.write_ids.len(),
            live: state.live,
            pending_tombstones: state.pending_tombstones,
            deleted_total: state.deleted.marked,
            generation: self.generation.load(Ordering::Acquire),
            compactions: self.compactions.load(Ordering::Acquire),
            next_id: state.next_id,
        }
    }

    /// Ids currently stored in sealed segments (tombstoned included), in
    /// unspecified order. Used by the mutation test battery to pin down
    /// which ids must keep bit-identical distances across a compaction.
    pub fn sealed_ids(&self) -> Vec<u32> {
        let state = self.state.read().expect("segment state lock");
        let mut ids = Vec::with_capacity(state.sealed_total());
        for seg in &state.sealed {
            for cell in 0..seg.nlist() {
                ids.extend_from_slice(seg.list_ids(cell));
            }
        }
        ids
    }

    /// Ids currently live, in unspecified order.
    pub fn live_ids(&self) -> Vec<u32> {
        let state = self.state.read().expect("segment state lock");
        let mut ids = Vec::with_capacity(state.live);
        for seg in &state.sealed {
            for cell in 0..seg.nlist() {
                for &id in seg.list_ids(cell) {
                    if !state.deleted.is_deleted(id) {
                        ids.push(id);
                    }
                }
            }
        }
        for &id in &state.write_ids {
            if !state.deleted.is_deleted(id) {
                ids.push(id);
            }
        }
        ids
    }

    /// Appends one vector to the write segment and returns its id. The
    /// vector is findable by the very next search (exact-scanned until a
    /// compaction seals it into PQ form).
    ///
    /// # Panics
    /// Panics when `vector.len()` differs from the index dimensionality.
    pub fn insert(&self, vector: &[f32]) -> u32 {
        assert_eq!(
            vector.len(),
            self.template.dim(),
            "insert dimensionality mismatch"
        );
        let mut state = self.state.write().expect("segment state lock");
        let id = state.next_id;
        state.next_id = state
            .next_id
            .checked_add(1)
            .expect("id space exhausted (u32)");
        state.write_ids.push(id);
        state.write_vectors.push(vector);
        state.live += 1;
        id
    }

    /// Tombstones `id`. Returns `true` when the id was live (the delete took
    /// effect), `false` when it was never inserted or already deleted. The
    /// id disappears from search results immediately; its bytes are
    /// reclaimed by the next compaction.
    pub fn delete(&self, id: u32) -> bool {
        let mut state = self.state.write().expect("segment state lock");
        if id >= state.next_id {
            return false;
        }
        if !state.deleted.mark(id) {
            return false;
        }
        state.live -= 1;
        // Every non-tombstoned id < next_id is physically present in exactly
        // one segment, so a successful delete adds one pending tombstone.
        state.pending_tombstones += 1;
        true
    }

    /// Top-`k` search across every segment on the process-default scan
    /// kernel (see [`default_kernel`]).
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<SearchResult> {
        search::with_thread_scratch(|scratch| {
            self.search_with_kernel(query, k, nprobe, default_kernel(), scratch)
        })
    }

    /// Top-`k` search across every segment with an explicit kernel and
    /// caller-owned scratch: sealed segments run the ordinary IVF-PQ
    /// pipeline (ADC distances), the write segment is scanned exactly, and
    /// tombstoned candidates are filtered before the final merge. Sealed
    /// segments are over-fetched by the pending-tombstone count so the
    /// filter can never starve the merged top-`k` of live candidates.
    ///
    /// The query prefix (OPQ, coarse distances, probed cells, lookup table)
    /// depends only on the quantizers every sealed segment shares with the
    /// template, so it is computed once on the template and each segment is
    /// only scanned.
    pub fn search_with_kernel(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        kernel: ScanKernel,
        scratch: &mut ScanScratch,
    ) -> Vec<SearchResult> {
        let state = self.state.read().expect("segment state lock");
        let fetch = k.saturating_add(state.pending_tombstones);
        let mut merged = TopK::new(k);
        if !state.sealed.is_empty() {
            scratch.with_prefix(|prefix, scratch| {
                prefix.compute(&self.template, query, nprobe, kernel, |_| {});
                let (cells, lut) = (prefix.cells(), prefix.lut());
                for seg in &state.sealed {
                    for hit in
                        search::stage_scan_and_select_with(seg, cells, lut, fetch, kernel, scratch)
                    {
                        if !state.deleted.is_deleted(hit.id) {
                            merged.push(hit.distance, hit.id);
                        }
                    }
                }
            });
        }
        for (slot, &id) in state.write_ids.iter().enumerate() {
            if !state.deleted.is_deleted(id) {
                merged.push(l2_sq(query, state.write_vectors.get(slot)), id);
            }
        }
        merged.into_sorted()
    }

    /// Whether the configured compaction policy advises a [`compact`]
    /// (write segment at/over its seal threshold, pending tombstones over
    /// the configured fraction of the indexed total, or too many sealed
    /// segments).
    ///
    /// [`compact`]: SegmentedIndex::compact
    pub fn needs_compaction(&self) -> bool {
        let state = self.state.read().expect("segment state lock");
        if state.write_ids.len() >= self.config.seal_threshold {
            return true;
        }
        if state.sealed.len() > self.config.max_sealed_segments {
            return true;
        }
        let total = state.sealed_total() + state.write_ids.len();
        state.pending_tombstones > 0
            && (state.pending_tombstones as f64) >= self.config.tombstone_ratio * (total as f64)
    }

    /// Seals the write segment, merges every sealed segment into one,
    /// drops tombstoned ids, rebuilds the PQ codes + scan slabs, and
    /// publishes the new segment set under a generation bump.
    ///
    /// The O(ntotal) rebuild runs on a snapshot outside the reader lock;
    /// queries keep flowing against the old segment set and observe the new
    /// one atomically at the swap. Inserts that land during the rebuild
    /// stay in the write segment; deletes stay tombstoned in the bitmap
    /// (their bytes are reclaimed by the *next* compaction). Returns a
    /// [`CompactionReport`]; when there is nothing to do the call is a
    /// no-op with `skipped = true` and the generation does not move.
    pub fn compact(&self) -> CompactionReport {
        let _serialise = self.compaction.lock().expect("compaction lock");

        // Snapshot under the shared lock: cheap Arc clones of the sealed
        // set, a copy of the write segment, and the bitmap as of now.
        let (sealed, write_ids, write_vectors, deleted) = {
            let state = self.state.read().expect("segment state lock");
            if state.write_ids.is_empty()
                && state.pending_tombstones == 0
                && state.sealed.len() <= 1
            {
                return CompactionReport {
                    skipped: true,
                    sealed_from_write: 0,
                    dropped_tombstones: 0,
                    merged_segments: state.sealed.len(),
                    live: state.live,
                    generation: self.generation.load(Ordering::Acquire),
                };
            }
            (
                state.sealed.clone(),
                state.write_ids.clone(),
                state.write_vectors.clone(),
                state.deleted.clone(),
            )
        };

        // Rebuild outside the lock: copy surviving sealed codes verbatim
        // (bit-identical distances), encode surviving write vectors with
        // the shared template quantizers.
        let m = IvfSource::m(&self.template);
        let nlist = self.template.nlist();
        let mut lists = vec![InvertedList::default(); nlist];
        let mut dropped = 0usize;
        for seg in &sealed {
            for (cell, list) in lists.iter_mut().enumerate() {
                let ids = seg.list_ids(cell);
                let codes = seg.list_codes(cell);
                for (slot, &id) in ids.iter().enumerate() {
                    if deleted.is_deleted(id) {
                        dropped += 1;
                        continue;
                    }
                    list.ids.push(id);
                    list.codes
                        .extend_from_slice(&codes[slot * m..(slot + 1) * m]);
                }
            }
        }
        let mut sealed_from_write = 0usize;
        for (slot, &id) in write_ids.iter().enumerate() {
            if deleted.is_deleted(id) {
                dropped += 1;
                continue;
            }
            let raw = write_vectors.get(slot);
            let rotated;
            let v: &[f32] = match self.template.opq() {
                Some(t) => {
                    rotated = t.apply(raw);
                    &rotated
                }
                None => raw,
            };
            let (cell, _) = self.template.coarse().assign(v);
            let list = &mut lists[cell];
            list.ids.push(id);
            let at = list.codes.len();
            list.codes.resize(at + m, 0);
            self.template.pq().encode_into(v, &mut list.codes[at..]);
            sealed_from_write += 1;
        }
        let ntotal = lists.iter().map(|l| l.len()).sum();
        let merged = IvfPqIndex::from_parts(
            self.template.dim(),
            self.template.coarse().clone(),
            self.template.opq().cloned(),
            self.template.pq().clone(),
            lists,
            ntotal,
            *self.template.config(),
        );
        let merged: Arc<dyn IvfSource> = Arc::new(merged);

        // Swap under the exclusive lock, reconciling whatever landed while
        // the rebuild ran.
        let mut state = self.state.write().expect("segment state lock");
        state.write_ids.drain(..write_ids.len());
        let mut remaining = VectorDataset::empty(self.template.dim());
        for slot in 0..state.write_ids.len() {
            // Vectors for the surviving (post-snapshot) write ids sit after
            // the drained prefix in the old buffer.
            remaining.push(state.write_vectors.get(write_ids.len() + slot));
        }
        state.write_vectors = remaining;
        state.sealed = vec![merged];
        // Tombstones that arrived during the rebuild are still physically
        // present (in the merged segment or the surviving write tail);
        // recount them against the *current* bitmap.
        let mut pending = 0usize;
        for seg in &state.sealed {
            for cell in 0..seg.nlist() {
                for &id in seg.list_ids(cell) {
                    if state.deleted.is_deleted(id) {
                        pending += 1;
                    }
                }
            }
        }
        for &id in &state.write_ids {
            if state.deleted.is_deleted(id) {
                pending += 1;
            }
        }
        state.pending_tombstones = pending;
        let live = state.live;
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.compactions.fetch_add(1, Ordering::AcqRel);
        drop(state);

        CompactionReport {
            skipped: false,
            sealed_from_write,
            dropped_tombstones: dropped,
            merged_segments: sealed.len(),
            live,
            generation,
        }
    }
}

/// Clones an index's trained quantizers into an empty-list template (the
/// shared encoder every future seal uses), without copying any codes.
fn strip_to_template(index: &IvfPqIndex) -> IvfPqIndex {
    IvfPqIndex::from_parts(
        index.dim(),
        index.coarse().clone(),
        index.opq().cloned(),
        index.pq().clone(),
        vec![InvertedList::default(); index.nlist()],
        0,
        *index.config(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fanns_dataset::synth::SyntheticSpec;
    use std::collections::HashSet;

    fn tiny_config(nlist: usize) -> crate::index::IvfPqTrainConfig {
        crate::index::IvfPqTrainConfig::new(nlist)
            .with_m(8)
            .with_ksub(16)
            .with_train_sample(1_000)
            .with_seed(11)
    }

    fn build_segmented(seed: u64) -> (fanns_dataset::types::QuerySet, SegmentedIndex) {
        let (db, queries) = SyntheticSpec::sift_small(seed).generate();
        let index = IvfPqIndex::build(&db, &tiny_config(8));
        let segmented =
            SegmentedIndex::new(index, SegmentedConfig::default().with_seal_threshold(64));
        (queries, segmented)
    }

    fn result_ids(results: &[SearchResult]) -> Vec<u32> {
        results.iter().map(|r| r.id).collect()
    }

    #[test]
    fn insert_is_immediately_findable_with_exact_distance() {
        let (queries, segmented) = build_segmented(41);
        let probe = queries.get(0).to_vec();
        let id = segmented.insert(&probe);
        let results = segmented.search(&probe, 1, segmented.nlist());
        assert_eq!(results[0].id, id);
        assert_eq!(results[0].distance, 0.0, "exact scan of the write segment");
        assert_eq!(segmented.live(), 1_001);
    }

    #[test]
    fn delete_hides_the_id_immediately() {
        let (queries, segmented) = build_segmented(42);
        let probe = queries.get(1).to_vec();
        let id = segmented.insert(&probe);
        assert!(segmented.delete(id));
        assert!(!segmented.delete(id), "double delete is a no-op");
        assert!(!segmented.delete(9_999), "unknown id is a no-op");
        let results = segmented.search(&probe, 10, segmented.nlist());
        assert!(!result_ids(&results).contains(&id));
        assert_eq!(segmented.live(), 1_000);
    }

    #[test]
    fn deleted_sealed_id_never_returned_and_k_still_filled() {
        let (queries, segmented) = build_segmented(43);
        // Delete the exact nearest sealed neighbours of a probe; the next
        // search must both hide them and still return k live results.
        let probe = queries.get(2);
        let before = segmented.search(probe, 5, segmented.nlist());
        let victims: Vec<u32> = result_ids(&before);
        for &id in &victims {
            assert!(segmented.delete(id));
        }
        let after = segmented.search(probe, 5, segmented.nlist());
        assert_eq!(after.len(), 5, "over-fetch must keep k live candidates");
        for id in result_ids(&after) {
            assert!(!victims.contains(&id), "deleted id resurfaced");
        }
    }

    #[test]
    fn compaction_preserves_live_id_set_and_sealed_distances() {
        let (queries, segmented) = build_segmented(44);
        for q in 0..8 {
            segmented.insert(queries.get(q));
        }
        let victims = [3u32, 700, 999];
        for &id in &victims {
            assert!(segmented.delete(id));
        }
        let probe = queries.get(3);
        let sealed_before: HashSet<u32> = segmented.sealed_ids().into_iter().collect();
        let before = segmented.search(probe, 50, segmented.nlist());
        let report = segmented.compact();
        assert!(!report.skipped);
        assert_eq!(report.sealed_from_write, 8);
        assert_eq!(report.dropped_tombstones, 3);
        assert_eq!(report.generation, segmented.generation());
        let after = segmented.search(probe, 50, segmented.nlist());
        // Id set invariant under full probe with identical k.
        let ids_before: HashSet<u32> = result_ids(&before).into_iter().collect();
        let ids_after: HashSet<u32> = result_ids(&after).into_iter().collect();
        assert_eq!(ids_before, ids_after, "compaction changed the id set");
        // Already-sealed ids keep bit-identical ADC distances.
        let after_by_id: std::collections::HashMap<u32, f32> =
            after.iter().map(|r| (r.id, r.distance)).collect();
        for r in &before {
            if sealed_before.contains(&r.id) {
                assert_eq!(
                    after_by_id.get(&r.id).copied(),
                    Some(r.distance),
                    "sealed id {} distance changed across compaction",
                    r.id
                );
            }
        }
        // All tombstones were reclaimed; structure collapsed to one segment.
        let stats = segmented.stats();
        assert_eq!(stats.sealed_segments, 1);
        assert_eq!(stats.write_vectors, 0);
        assert_eq!(stats.pending_tombstones, 0);
        assert_eq!(stats.live, 1_005);
    }

    #[test]
    fn compaction_skips_when_nothing_to_do() {
        let (_, segmented) = build_segmented(45);
        let report = segmented.compact();
        assert!(report.skipped);
        assert_eq!(segmented.generation(), 0);
        assert_eq!(segmented.stats().compactions, 0);
    }

    #[test]
    fn needs_compaction_triggers() {
        let (queries, segmented) = build_segmented(46);
        assert!(!segmented.needs_compaction());
        // Tombstone trigger.
        for id in 0..300u32 {
            assert!(segmented.delete(id));
        }
        assert!(segmented.needs_compaction(), "25% tombstones must trigger");
        segmented.compact();
        assert!(!segmented.needs_compaction());
        // Write-segment trigger (threshold 64).
        for i in 0..64 {
            segmented.insert(queries.get(i % queries.len()));
        }
        assert!(segmented.needs_compaction(), "full write segment triggers");
    }

    #[test]
    fn inserts_after_compaction_get_fresh_ids() {
        let (queries, segmented) = build_segmented(47);
        let a = segmented.insert(queries.get(0));
        segmented.compact();
        let b = segmented.insert(queries.get(1));
        assert!(b > a, "ids stay monotone across compactions");
        let live: HashSet<u32> = segmented.live_ids().into_iter().collect();
        assert!(live.contains(&a) && live.contains(&b));
    }

    #[test]
    fn empty_initial_index_supports_insert_then_compact() {
        let (db, queries) = SyntheticSpec::sift_small(48).generate();
        let trained = IvfPqIndex::train(&db, &tiny_config(8));
        let segmented = SegmentedIndex::new(trained, SegmentedConfig::default());
        assert_eq!(segmented.live(), 0);
        for q in 0..16 {
            segmented.insert(queries.get(q));
        }
        let report = segmented.compact();
        assert_eq!(report.sealed_from_write, 16);
        let results = segmented.search(queries.get(0), 4, segmented.nlist());
        assert!(!results.is_empty());
        assert_eq!(segmented.live(), 16);
    }
}
