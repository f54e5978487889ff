//! The query-result cache in front of the engine.
//!
//! Real vector-search traffic is heavily skewed — a small hot set of repeated
//! queries dominates — while the paper's cost model assumes every query pays
//! the full IVF-PQ pipeline. [`QueryResultCache`] is a sharded, thread-safe
//! map from a query's exact bit pattern to its finished top-K results. The
//! [`crate::QueryEngine`] consults it at submission: a hit resolves the ticket
//! as [`crate::QueryStatus::Completed`] immediately, skipping admission,
//! batching and the backend entirely (and therefore consuming none of the
//! query's deadline budget). Eviction is LRU, and a generation counter
//! ([`QueryResultCache::invalidate_all`]) drops every cached entry in O(1)
//! when the underlying index is swapped or mutated.
//!
//! # Keying
//!
//! Two queries share an entry only when every `f32` is bit-identical. That is
//! the one key under which a hit returns exactly what the backend would have:
//! cache-on results equal cache-off results for any replayed trace (the
//! integration tests prove this), whereas any coarser key answers one query
//! with another query's neighbours. The key keeps the query's bit pattern
//! beside its 64-bit hash and compares it on lookup, so hash collisions
//! degrade to misses, never to wrong results.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::Serialize;

use fanns_ivf::search::SearchResult;

/// A prepared cache key: the hash, the query bit pattern it must match, and
/// the cache generation it was computed under (inserts from before an
/// [`QueryResultCache::invalidate_all`] are discarded, closing the race
/// between an in-flight query and an index swap).
#[derive(Debug, Clone)]
pub struct CacheKey {
    hash: u64,
    canon: Vec<u32>,
    generation: u64,
}

/// Sentinel for "no slot" in the intrusive LRU list.
const NIL: usize = usize::MAX;

/// One resident entry: the key it answers for, its results, and its position
/// in the shard's recency list.
#[derive(Debug)]
struct Entry {
    key: u64,
    canon: Vec<u32>,
    results: Vec<SearchResult>,
    generation: u64,
    prev: usize,
    next: usize,
}

/// Why a lookup failed (drives the `invalidated` counter).
#[derive(Debug)]
enum MissKind {
    /// Key absent (or a hash collision with a different bit pattern).
    Absent,
    /// Present but from a previous generation; the entry was removed.
    Invalidated,
}

/// One lock's worth of LRU state: a hash map into a slot arena threaded as a
/// doubly-linked recency list (head = most recent, tail = eviction victim).
#[derive(Debug)]
struct LruShard {
    map: HashMap<u64, usize>,
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruShard {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity(capacity.min(1024)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn entry(&self, slot: usize) -> &Entry {
        self.slots[slot].as_ref().expect("slot is live")
    }

    fn entry_mut(&mut self, slot: usize) -> &mut Entry {
        self.slots[slot].as_mut().expect("slot is live")
    }

    /// Unthreads `slot` from the recency list (it stays in the arena).
    fn detach(&mut self, slot: usize) {
        let (prev, next) = {
            let e = self.entry(slot);
            (e.prev, e.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.entry_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entry_mut(n).prev = prev,
        }
    }

    /// Threads `slot` in as most-recently-used.
    fn push_front(&mut self, slot: usize) {
        let old_head = self.head;
        {
            let e = self.entry_mut(slot);
            e.prev = NIL;
            e.next = old_head;
        }
        match old_head {
            NIL => self.tail = slot,
            h => self.entry_mut(h).prev = slot,
        }
        self.head = slot;
    }

    /// Removes `slot` entirely, returning its arena cell to the free list.
    fn remove(&mut self, slot: usize) {
        self.detach(slot);
        let entry = self.slots[slot].take().expect("slot is live");
        self.map.remove(&entry.key);
        self.free.push(slot);
    }

    /// Looks `key` up; on a hit the entry is promoted to most-recent and its
    /// results cloned out.
    fn get(
        &mut self,
        key: u64,
        canon: &[u32],
        generation: u64,
    ) -> Result<Vec<SearchResult>, MissKind> {
        let Some(&slot) = self.map.get(&key) else {
            return Err(MissKind::Absent);
        };
        if self.entry(slot).canon != canon {
            // 64-bit hash collision: a different query owns the slot. Treat
            // as a miss; the resident entry keeps its place.
            return Err(MissKind::Absent);
        }
        if self.entry(slot).generation != generation {
            self.remove(slot);
            return Err(MissKind::Invalidated);
        }
        self.detach(slot);
        self.push_front(slot);
        Ok(self.entry(slot).results.clone())
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// resident if the shard is full. Returns whether an entry was evicted.
    fn insert(
        &mut self,
        key: u64,
        canon: Vec<u32>,
        results: Vec<SearchResult>,
        generation: u64,
    ) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            // Refresh in place (covers both a re-insert of the same query
            // and a hash collision, where the newer query wins the slot).
            let e = self.entry_mut(slot);
            e.canon = canon;
            e.results = results;
            e.generation = generation;
            self.detach(slot);
            self.push_front(slot);
            return false;
        }
        let evicted = self.map.len() >= self.capacity;
        if evicted {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full shard must have a tail");
            self.remove(victim);
        }
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[slot] = Some(Entry {
            key,
            canon,
            results,
            generation,
            prev: NIL,
            next: NIL,
        });
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }
}

/// A point-in-time snapshot of the cache's counters (serialisable — embedded
/// in bench rows and in [`crate::metrics::ServeReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through (absent or invalidated).
    pub misses: u64,
    /// Entries written.
    pub insertions: u64,
    /// Entries evicted by LRU capacity pressure.
    pub evictions: u64,
    /// Entries dropped because the cache generation moved past them.
    pub invalidated: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Total capacity across shards.
    pub capacity: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, 0 when no lookup has happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// `entries / capacity` — the fill fraction behind the
    /// [`CacheEntries`](crate::telemetry::Gauge::CacheEntries) gauge; 0 for a
    /// zero-capacity (disabled) cache.
    pub fn occupancy(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.entries as f64 / self.capacity as f64
        }
    }
}

/// Configuration of a [`QueryResultCache`].
#[derive(Debug, Clone)]
pub struct ResultCacheConfig {
    /// Maximum resident entries across all shards.
    pub capacity: usize,
    /// Number of independently locked shards (contention control).
    pub shards: usize,
}

impl ResultCacheConfig {
    /// A cache of `capacity` entries over 8 shards.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            shards: 8,
        }
    }

    /// Builder-style shard-count override.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// The sharded, thread-safe query-result cache (see the module docs).
///
/// ```
/// use fanns_serve::cache::{QueryResultCache, ResultCacheConfig};
/// use fanns_ivf::search::SearchResult;
///
/// let cache = QueryResultCache::new(ResultCacheConfig::new(128));
/// let query = [1.0f32, 2.0];
/// assert!(cache.lookup(&query).is_none());             // cold
/// let key = cache.key(&query);
/// cache.insert(&key, vec![SearchResult { id: 7, distance: 0.5 }]);
/// assert_eq!(cache.lookup(&query).unwrap()[0].id, 7);  // warm
/// cache.invalidate_all();                              // index swapped
/// assert!(cache.lookup(&query).is_none());             // cold again
/// ```
#[derive(Debug)]
pub struct QueryResultCache {
    shards: Vec<Mutex<LruShard>>,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidated: AtomicU64,
    capacity: usize,
}

impl QueryResultCache {
    /// Builds an empty cache; capacity is split evenly over the shards
    /// (rounded up, so the effective total is at least `config.capacity`).
    pub fn new(config: ResultCacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard = config.capacity.div_ceil(shards);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            capacity: per_shard * shards,
        }
    }

    fn shard_for(&self, hash: u64) -> &Mutex<LruShard> {
        // High bits pick the shard so the map's low-bit bucketing inside a
        // shard stays independent of shard selection.
        let idx = (hash >> 32) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Keys a query on its exact bit pattern. The key also captures the
    /// current generation, so an [`QueryResultCache::insert`] computed
    /// against a since-swapped index is discarded instead of poisoning the
    /// new generation.
    pub fn key(&self, query: &[f32]) -> CacheKey {
        let canon: Vec<u32> = query.iter().map(|x| x.to_bits()).collect();
        let mut h = DefaultHasher::new();
        canon.hash(&mut h);
        CacheKey {
            hash: h.finish(),
            canon,
            generation: self.generation.load(Ordering::Acquire),
        }
    }

    /// Looks a prepared key up, counting the hit or miss.
    pub fn get(&self, key: &CacheKey) -> Option<Vec<SearchResult>> {
        let generation = self.generation.load(Ordering::Acquire);
        let outcome = self
            .shard_for(key.hash)
            .lock()
            .expect("cache shard lock")
            .get(key.hash, &key.canon, generation);
        match outcome {
            Ok(results) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(results)
            }
            Err(kind) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let MissKind::Invalidated = kind {
                    self.invalidated.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Convenience: [`QueryResultCache::key`] + [`QueryResultCache::get`].
    pub fn lookup(&self, query: &[f32]) -> Option<Vec<SearchResult>> {
        self.get(&self.key(query))
    }

    /// Caches the results for `key`. A no-op when the cache generation has
    /// moved past the key (the index was swapped while the query was in
    /// flight — its results describe the old index).
    pub fn insert(&self, key: &CacheKey, results: Vec<SearchResult>) {
        if self.generation.load(Ordering::Acquire) != key.generation {
            return;
        }
        let evicted = self
            .shard_for(key.hash)
            .lock()
            .expect("cache shard lock")
            .insert(key.hash, key.canon.clone(), results, key.generation);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops every cached entry in O(1) by advancing the generation; stale
    /// entries are reclaimed lazily as lookups touch them. Call this
    /// whenever the backend's index is swapped or retrained.
    pub fn invalidate_all(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// The current cache generation. Advances on every
    /// [`QueryResultCache::invalidate_all`]; keys minted before an advance
    /// can neither hit nor insert. Exposed so tests and serving layers can
    /// assert an index swap actually invalidated the cache.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Entries currently resident (stale-generation entries count until a
    /// lookup reclaims them).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").len())
            .sum()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn occupancy_is_fill_fraction_and_zero_when_disabled() {
        let stats = CacheStats {
            entries: 25,
            capacity: 100,
            ..CacheStats::default()
        };
        assert!((stats.occupancy() - 0.25).abs() < 1e-12);
        let disabled = CacheStats::default();
        assert_eq!(disabled.occupancy(), 0.0);
    }

    fn hits(cache: &QueryResultCache) -> u64 {
        cache.stats().hits
    }

    fn result(id: u32) -> Vec<SearchResult> {
        vec![SearchResult {
            id,
            distance: id as f32,
        }]
    }

    #[test]
    fn exact_cache_round_trips() {
        let cache = QueryResultCache::new(ResultCacheConfig::new(16));
        let q = [0.5f32, -1.25, 3.0];
        assert!(cache.lookup(&q).is_none());
        let key = cache.key(&q);
        cache.insert(&key, result(9));
        assert_eq!(cache.lookup(&q).unwrap(), result(9));
        // A bit-different query misses.
        assert!(cache.lookup(&[0.5f32, -1.25, 3.0001]).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // One shard so recency order is global and deterministic.
        let cache = QueryResultCache::new(ResultCacheConfig::new(2).with_shards(1));
        let (a, b, c) = ([1.0f32], [2.0f32], [3.0f32]);
        cache.insert(&cache.key(&a), result(1));
        cache.insert(&cache.key(&b), result(2));
        // Touch `a` so `b` becomes the LRU victim.
        assert!(cache.lookup(&a).is_some());
        cache.insert(&cache.key(&c), result(3));
        assert!(cache.lookup(&a).is_some(), "recently used must survive");
        assert!(cache.lookup(&b).is_none(), "LRU entry must be evicted");
        assert!(cache.lookup(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalidate_all_drops_every_entry_and_stale_inserts() {
        let cache = QueryResultCache::new(ResultCacheConfig::new(8));
        let q = [1.0f32, 2.0];
        let pre_swap_key = cache.key(&q);
        cache.insert(&pre_swap_key, result(1));
        assert!(cache.lookup(&q).is_some());

        cache.invalidate_all();
        assert!(cache.lookup(&q).is_none(), "old generation must not serve");
        assert_eq!(cache.stats().invalidated, 1);

        // An insert whose key predates the invalidation is discarded: its
        // results were computed against the swapped-out index.
        cache.insert(&pre_swap_key, result(1));
        assert!(cache.lookup(&q).is_none(), "stale insert must be discarded");

        // A fresh key inserts fine.
        cache.insert(&cache.key(&q), result(2));
        assert_eq!(cache.lookup(&q).unwrap(), result(2));
    }

    #[test]
    fn hash_collision_misses_without_displacing_and_a_later_insert_takes_the_slot() {
        // Two bit patterns forced under one 64-bit hash.
        let cache = QueryResultCache::new(ResultCacheConfig::new(4).with_shards(1));
        let colliding = |bits: u32| CacheKey {
            hash: 0xC0FFEE,
            canon: vec![bits],
            generation: 0,
        };
        let (a, b) = (colliding(1), colliding(2));
        cache.insert(&a, result(1));

        // The other form is an absent-miss at the shard (not an
        // invalidation), and the resident entry keeps its slot.
        let peek = cache.shards[0]
            .lock()
            .unwrap()
            .get(b.hash, &b.canon, b.generation);
        assert!(matches!(peek, Err(MissKind::Absent)), "got {peek:?}");
        assert_eq!(cache.get(&b), None);
        assert_eq!(cache.get(&a), Some(result(1)), "resident must survive");

        // A later insert of the other form takes the slot.
        cache.insert(&b, result(2));
        assert_eq!(cache.get(&b), Some(result(2)));
        assert_eq!(cache.get(&a), None, "displaced form must miss");

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (2, 2, 2));
        assert_eq!(
            (stats.evictions, stats.invalidated, stats.entries),
            (0, 0, 1)
        );
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = Arc::new(QueryResultCache::new(ResultCacheConfig::new(64)));
        let threads: Vec<_> = (0..4u32)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let q = [(i % 32) as f32, t as f32];
                        match cache.lookup(&q) {
                            Some(r) => assert_eq!(r[0].id, i % 32),
                            None => cache.insert(&cache.key(&q), result(i % 32)),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "repeated keys must hit");
        assert!(stats.entries <= stats.capacity);
        assert!(hits(&cache) == stats.hits);
    }

    #[test]
    fn capacity_is_bounded_under_churn() {
        let cache = QueryResultCache::new(ResultCacheConfig::new(10).with_shards(2));
        for i in 0..1000u32 {
            let q = [i as f32];
            cache.insert(&cache.key(&q), result(i));
        }
        assert!(cache.len() <= cache.capacity());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 1000);
        assert!(stats.evictions >= 1000 - cache.capacity() as u64);
    }
}
