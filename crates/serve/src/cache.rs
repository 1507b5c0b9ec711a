//! Bounded LRU response cache keyed by interned sorted ingredient-id
//! sets.
//!
//! # Keying
//!
//! A [`CacheKey`] is four fixed-width fields: the endpoint, the region
//! index, an endpoint-specific parameter (`k` for top-k), and an
//! interned-set slot. Ingredient-id sets are normalized (sorted,
//! deduplicated) and interned once in a set interner — the key then
//! carries a `u32` slot instead of the set itself, so two textually
//! different requests for the same set (`PAIR ITA 3,1,3` and
//! `PAIR ITA 1,3`) share one entry, and key hashing/compares are O(1).
//!
//! # Eviction and bounded memory
//!
//! Entries live in a slab (`Vec` + free list) threaded as a doubly
//! linked LRU list; `get` promotes to MRU, `insert` at capacity evicts
//! the LRU entry first. Evicting an entry releases its interned-set
//! reference; the interner frees a set's slot when the last reference
//! goes, so resident memory is bounded by the entry capacity no matter
//! how many distinct sets pass through.
//!
//! # Generations and invalidation
//!
//! Every entry is stamped with the cache's **generation** at store
//! time. Ingesting new data bumps the generation
//! ([`ResponseCache::set_generation`]); entries stamped with an older
//! generation are *stale* — they answer for data that no longer
//! exists — and are evicted lazily the next time a lookup touches
//! them, counted as `invalidations` (plus a regular miss). Lazy
//! eviction keeps the bump O(1): no sweep over the slab on ingest,
//! stale entries age out through lookups and LRU pressure.
//!
//! # Counters
//!
//! The cache counts into the registry it is built with: its
//! `serve.cache.{hits,misses,evictions,invalidations}` handles are the
//! only copies of those counts, so [`ResponseCache::stats`], the
//! `METRICS` endpoint and `HEALTH`'s hit rate read the same atomics. A
//! disabled registry makes them read 0.

use std::collections::HashMap;
use std::num::NonZeroUsize;

use culinaria_flavordb::IngredientId;
use culinaria_obs::{Counter, Metrics};

/// Sentinel slab index (`no entry` / `no set`).
const NIL: u32 = u32::MAX;

/// The cacheable endpoints. `METRICS`/`PING`/`SCORE` are never cached
/// (volatile or free-text-keyed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Endpoint {
    Pair = 0,
    ZProf = 1,
    TopK = 2,
}

/// Fixed-width cache key; see the module docs for the fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    endpoint: Endpoint,
    /// `Region::index()`, `u8::MAX` for region-less (global) requests.
    region: u8,
    /// Endpoint parameter (`k` for top-k, 0 otherwise).
    param: u64,
    /// Interned-set slot, [`NIL`] when the key carries no set.
    set: u32,
}

/// Region field for a global (region-less) request.
pub const NO_REGION: u8 = u8::MAX;

/// Interner for normalized ingredient-id sets with per-set reference
/// counts (one reference per live cache entry).
#[derive(Debug, Default)]
struct SetInterner {
    map: HashMap<Box<[u32]>, u32>,
    /// `(set, refcount)` per slot; `None` slots are free.
    slots: Vec<Option<(Box<[u32]>, u32)>>,
    free: Vec<u32>,
}

impl SetInterner {
    /// Slot of an already-interned set, without touching refcounts.
    fn peek(&self, set: &[u32]) -> Option<u32> {
        self.map.get(set).copied()
    }

    /// Intern (or re-reference) a set.
    fn acquire(&mut self, set: &[u32]) -> u32 {
        if let Some(&slot) = self.map.get(set) {
            if let Some(entry) = self.slots[slot as usize].as_mut() {
                entry.1 += 1;
                return slot;
            }
            // Map/slot drift cannot happen by construction; if it ever
            // did, drop the dangling mapping and re-intern below.
            self.map.remove(set);
        }
        let boxed: Box<[u32]> = set.into();
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some((boxed.clone(), 1));
                s
            }
            None => {
                self.slots.push(Some((boxed.clone(), 1)));
                (self.slots.len() - 1) as u32
            }
        };
        self.map.insert(boxed, slot);
        slot
    }

    /// Drop one reference; frees the slot at zero. A release against a
    /// freed slot (impossible by construction) is a no-op.
    fn release(&mut self, slot: u32) {
        let Some(entry) = self.slots[slot as usize].as_mut() else {
            return;
        };
        entry.1 = entry.1.saturating_sub(1);
        if entry.1 == 0 {
            if let Some((set, _)) = self.slots[slot as usize].take() {
                self.map.remove(&set);
                self.free.push(slot);
            }
        }
    }

    fn live(&self) -> usize {
        self.map.len()
    }

    /// Approximate resident bytes of the interned sets.
    fn resident_bytes(&self) -> usize {
        self.map.keys().map(|k| k.len() * 4).sum()
    }
}

/// One slab entry in the LRU list.
#[derive(Debug)]
struct Entry {
    key: CacheKey,
    value: String,
    /// Cache generation at store time; stale when it trails the
    /// cache's current generation.
    generation: u64,
    prev: u32,
    next: u32,
}

/// A point-in-time read of the cache's counters and occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Stale-generation entries evicted on lookup after an ingest
    /// bumped the generation (each also counts as a miss).
    pub invalidations: u64,
    /// Live entries (≤ capacity).
    pub entries: usize,
    /// Live interned sets (≤ entries).
    pub interned_sets: usize,
    /// Approximate bytes held by interned sets.
    pub interned_bytes: usize,
}

/// The bounded LRU response cache.
#[derive(Debug)]
pub struct ResponseCache {
    capacity: usize,
    interner: SetInterner,
    map: HashMap<CacheKey, u32>,
    entries: Vec<Entry>,
    free: Vec<u32>,
    /// MRU end of the list.
    head: u32,
    /// LRU end of the list (next eviction victim).
    tail: u32,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    invalidations: Counter,
    generation: u64,
}

impl ResponseCache {
    /// An empty cache holding at most `capacity` entries, counting into
    /// `metrics`' `serve.cache.*` counters.
    pub fn new(capacity: NonZeroUsize, metrics: &Metrics) -> ResponseCache {
        ResponseCache {
            capacity: capacity.get(),
            interner: SetInterner::default(),
            map: HashMap::new(),
            entries: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: metrics.counter("serve.cache.hits"),
            misses: metrics.counter("serve.cache.misses"),
            evictions: metrics.counter("serve.cache.evictions"),
            invalidations: metrics.counter("serve.cache.invalidations"),
            generation: 0,
        }
    }

    /// Move the cache to a new data generation, making every entry
    /// stored under an older generation stale. O(1): stale entries are
    /// evicted lazily on lookup and counted as `invalidations`.
    ///
    /// ```
    /// use std::num::NonZeroUsize;
    ///
    /// use culinaria_obs::Metrics;
    /// use culinaria_serve::cache::{Endpoint, ResponseCache};
    ///
    /// let capacity = NonZeroUsize::new(4).unwrap();
    /// let mut c = ResponseCache::new(capacity, &Metrics::enabled());
    /// c.store(Endpoint::ZProf, 1, 0, None, "old answer".into());
    /// assert!(c.lookup(Endpoint::ZProf, 1, 0, None).is_some());
    ///
    /// c.set_generation(1); // new recipes ingested: old answers stale
    /// assert_eq!(c.lookup(Endpoint::ZProf, 1, 0, None), None);
    /// assert_eq!(c.stats().invalidations, 1);
    ///
    /// // Re-stored under the new generation, it serves again.
    /// c.store(Endpoint::ZProf, 1, 0, None, "new answer".into());
    /// assert_eq!(c.lookup(Endpoint::ZProf, 1, 0, None).as_deref(), Some("new answer"));
    /// ```
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// The generation new entries are stamped with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Normalize an id set for keying: sorted, deduplicated raw ids.
    fn normalize(ids: &[IngredientId]) -> Vec<u32> {
        let mut raw: Vec<u32> = ids.iter().map(|id| id.0).collect();
        raw.sort_unstable();
        raw.dedup();
        raw
    }

    /// Look up a response. Counts a hit (and promotes the entry to MRU)
    /// or a miss.
    pub fn lookup(
        &mut self,
        endpoint: Endpoint,
        region: u8,
        param: u64,
        ids: Option<&[IngredientId]>,
    ) -> Option<String> {
        let got = self.find(endpoint, region, param, ids);
        match got {
            Some(_) => self.hits.incr(),
            None => self.misses.incr(),
        }
        got
    }

    /// The live entry for a key, promoted to MRU. A stale-generation
    /// entry answers for data that no longer exists: it is evicted and
    /// reported as absent, so the caller recomputes.
    fn find(
        &mut self,
        endpoint: Endpoint,
        region: u8,
        param: u64,
        ids: Option<&[IngredientId]>,
    ) -> Option<String> {
        let set = match ids {
            // An unseen set cannot have an entry.
            Some(ids) => self.interner.peek(&Self::normalize(ids))?,
            None => NIL,
        };
        let key = CacheKey {
            endpoint,
            region,
            param,
            set,
        };
        let e = *self.map.get(&key)?;
        if self.entries[e as usize].generation != self.generation {
            self.evict_entry(e);
            self.invalidations.incr();
            return None;
        }
        self.unlink(e);
        self.push_front(e);
        Some(self.entries[e as usize].value.clone())
    }

    /// Store a response, evicting the LRU entry when at capacity.
    pub fn store(
        &mut self,
        endpoint: Endpoint,
        region: u8,
        param: u64,
        ids: Option<&[IngredientId]>,
        value: String,
    ) {
        let norm = ids.map(Self::normalize);
        // Refresh in place when the key already has an entry (its set,
        // if any, must already be interned for the probe to hit).
        let probe_slot = match &norm {
            Some(s) => self.interner.peek(s),
            None => Some(NIL),
        };
        if let Some(set) = probe_slot {
            let key = CacheKey {
                endpoint,
                region,
                param,
                set,
            };
            if let Some(&e) = self.map.get(&key) {
                self.entries[e as usize].value = value;
                self.entries[e as usize].generation = self.generation;
                self.unlink(e);
                self.push_front(e);
                return;
            }
        }
        // Evict *before* interning the new set, so neither the slab
        // nor the interner ever holds more than `capacity` slots.
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let set = match &norm {
            Some(s) => self.interner.acquire(s),
            None => NIL,
        };
        let key = CacheKey {
            endpoint,
            region,
            param,
            set,
        };
        let entry = Entry {
            key,
            value,
            generation: self.generation,
            prev: NIL,
            next: NIL,
        };
        let e = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.map.insert(key, e);
        self.push_front(e);
    }

    fn evict_lru(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "evict called on an empty cache");
        self.evict_entry(victim);
        self.evictions.incr();
    }

    /// Remove one entry from the map, list, slab, and interner.
    /// Counter bookkeeping (capacity eviction vs invalidation) is the
    /// caller's.
    fn evict_entry(&mut self, victim: u32) {
        self.unlink(victim);
        let key = self.entries[victim as usize].key;
        self.map.remove(&key);
        if key.set != NIL {
            self.interner.release(key.set);
        }
        self.entries[victim as usize].value = String::new();
        self.free.push(victim);
    }

    fn unlink(&mut self, e: u32) {
        let (prev, next) = {
            let entry = &self.entries[e as usize];
            (entry.prev, entry.next)
        };
        if prev != NIL {
            self.entries[prev as usize].next = next;
        } else if self.head == e {
            self.head = next;
        }
        if next != NIL {
            self.entries[next as usize].prev = prev;
        } else if self.tail == e {
            self.tail = prev;
        }
        let entry = &mut self.entries[e as usize];
        entry.prev = NIL;
        entry.next = NIL;
    }

    fn push_front(&mut self, e: u32) {
        self.entries[e as usize].next = self.head;
        self.entries[e as usize].prev = NIL;
        if self.head != NIL {
            self.entries[self.head as usize].prev = e;
        }
        self.head = e;
        if self.tail == NIL {
            self.tail = e;
        }
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            entries: self.map.len(),
            interned_sets: self.interner.live(),
            interned_bytes: self.interner.resident_bytes(),
        }
    }

    /// Total slab slots ever allocated — the bounded-memory invariant
    /// the tests pin down (`slab_slots() ≤ capacity`).
    pub fn slab_slots(&self) -> usize {
        self.entries.len()
    }

    /// Total interner slots ever allocated (free-list reuse keeps this
    /// ≤ capacity as well).
    pub fn interner_slots(&self) -> usize {
        self.interner.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<IngredientId> {
        raw.iter().map(|&r| IngredientId(r)).collect()
    }

    fn cache(capacity: usize) -> ResponseCache {
        ResponseCache::new(NonZeroUsize::new(capacity).unwrap(), &Metrics::enabled())
    }

    #[test]
    fn hit_after_store_and_order_normalization() {
        let mut c = cache(4);
        assert!(c
            .lookup(Endpoint::Pair, 0, 0, Some(&ids(&[3, 1])))
            .is_none());
        c.store(Endpoint::Pair, 0, 0, Some(&ids(&[3, 1])), "v".into());
        // Different order and a duplicate — same normalized set.
        assert_eq!(
            c.lookup(Endpoint::Pair, 0, 0, Some(&ids(&[1, 3, 1]))),
            Some("v".into())
        );
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_order_with_promotion() {
        let mut c = cache(2);
        c.store(Endpoint::ZProf, 1, 0, None, "a".into());
        c.store(Endpoint::ZProf, 2, 0, None, "b".into());
        // Touch region 1 so region 2 becomes the LRU victim.
        assert!(c.lookup(Endpoint::ZProf, 1, 0, None).is_some());
        c.store(Endpoint::ZProf, 3, 0, None, "c".into());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.lookup(Endpoint::ZProf, 2, 0, None).is_none(), "evicted");
        assert!(c.lookup(Endpoint::ZProf, 1, 0, None).is_some());
        assert!(c.lookup(Endpoint::ZProf, 3, 0, None).is_some());
    }

    #[test]
    fn bounded_memory_under_churn() {
        let cap = 8;
        let mut c = cache(cap);
        for i in 0..1000u32 {
            c.store(Endpoint::Pair, 0, 0, Some(&ids(&[i, i + 1])), "x".into());
        }
        let s = c.stats();
        assert_eq!(s.entries, cap);
        assert_eq!(s.interned_sets, cap);
        assert_eq!(s.evictions, 1000 - cap as u64);
        assert!(c.slab_slots() <= cap, "slab grew past capacity");
        assert!(c.interner_slots() <= cap, "interner grew past capacity");
        assert_eq!(s.interned_bytes, cap * 2 * 4);
    }

    #[test]
    fn shared_set_across_keys_survives_one_eviction() {
        let mut c = cache(2);
        let set = ids(&[5, 9]);
        // Same set under two keys (region shard and global).
        c.store(Endpoint::Pair, 0, 0, Some(&set), "regional".into());
        c.store(Endpoint::Pair, NO_REGION, 0, Some(&set), "global".into());
        assert_eq!(c.stats().interned_sets, 1);
        // Evict the older key; the set must stay interned for the other.
        c.store(Endpoint::ZProf, 1, 0, None, "z".into());
        assert_eq!(c.stats().interned_sets, 1);
        assert_eq!(
            c.lookup(Endpoint::Pair, NO_REGION, 0, Some(&set)),
            Some("global".into())
        );
        // Evict the last set-bearing entry: interner must free the slot.
        c.store(Endpoint::ZProf, 2, 0, None, "z2".into());
        c.store(Endpoint::ZProf, 3, 0, None, "z3".into());
        assert_eq!(c.stats().interned_sets, 0);
        assert_eq!(c.stats().interned_bytes, 0);
    }

    #[test]
    fn store_existing_key_refreshes_without_duplicating() {
        let mut c = cache(2);
        let set = ids(&[1, 2]);
        c.store(Endpoint::Pair, 0, 0, Some(&set), "old".into());
        c.store(Endpoint::Pair, 0, 0, Some(&set), "new".into());
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().interned_sets, 1);
        assert_eq!(
            c.lookup(Endpoint::Pair, 0, 0, Some(&set)),
            Some("new".into())
        );
    }

    #[test]
    fn generation_bump_invalidates_lazily() {
        let mut c = cache(4);
        let set = ids(&[1, 2]);
        c.store(Endpoint::Pair, 0, 0, Some(&set), "g0".into());
        c.store(Endpoint::ZProf, 1, 0, None, "z0".into());
        assert_eq!(c.stats().entries, 2);

        c.set_generation(1);
        assert_eq!(c.generation(), 1);
        // Entries survive the bump (lazy) but the first touch evicts.
        assert_eq!(c.stats().entries, 2);
        assert_eq!(c.lookup(Endpoint::Pair, 0, 0, Some(&set)), None);
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 1);
        // Interned set released with the stale entry.
        assert_eq!(s.interned_sets, 0);

        // Fresh store under generation 1 hits; the untouched stale
        // entry still invalidates on its own first lookup.
        c.store(Endpoint::Pair, 0, 0, Some(&set), "g1".into());
        assert_eq!(
            c.lookup(Endpoint::Pair, 0, 0, Some(&set)).as_deref(),
            Some("g1")
        );
        assert_eq!(c.lookup(Endpoint::ZProf, 1, 0, None), None);
        assert_eq!(c.stats().invalidations, 2);
        // Capacity evictions are counted separately.
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn refresh_in_place_restamps_generation() {
        let mut c = cache(2);
        c.store(Endpoint::ZProf, 1, 0, None, "old".into());
        c.set_generation(3);
        // A lookup would invalidate; a store refreshes *and* restamps.
        c.store(Endpoint::ZProf, 1, 0, None, "new".into());
        assert_eq!(
            c.lookup(Endpoint::ZProf, 1, 0, None).as_deref(),
            Some("new")
        );
        assert_eq!(c.stats().invalidations, 0);
    }
}
