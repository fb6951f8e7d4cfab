//! A fixed-capacity LRU cache.
//!
//! The serve-mode bound on provider-wide state: [`IpReputation`] keys
//! its per-IP activity by this cache so memory stays O(capacity) no
//! matter how many distinct addresses a login stream touches. The
//! implementation is the classic intrusive doubly-linked recency list
//! over a slot arena plus a `HashMap` index — `get`/insert/evict are
//! all O(1) (amortized), with no per-operation allocation once the
//! arena is full. Both the arena and the index grow with use, so a
//! cache that sees few keys holds little, whatever its capacity.
//!
//! The index hashes with `FoldHasher`, a folded multiply, in place of
//! SipHash: it runs on every login. Its keys are addresses the
//! simulator made, the map is never iterated (so its order reaches no
//! output), and the capacity bounds the table, so keys crafted to
//! collide could only slow a cache, never grow it.
//!
//! [`IpReputation`]: crate::signals::IpReputation

#![deny(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Sentinel for "no slot" in the intrusive list.
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    /// Towards the most-recently-used end.
    prev: usize,
    /// Towards the least-recently-used end.
    next: usize,
}

/// A fixed, unkeyed hasher: each word written is folded into the state
/// by a 64×64→128-bit multiply whose halves are XORed, which mixes
/// every input bit into both the high bits (hashbrown's tag) and the
/// low bits (its bucket index).
#[derive(Debug, Clone, Copy)]
struct FoldHasher(u64);

impl Default for FoldHasher {
    fn default() -> Self {
        FoldHasher(0x243f_6a88_85a3_08d3)
    }
}

impl FoldHasher {
    /// An odd constant with no short bit pattern (2^64 / φ).
    const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

    fn mix(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(Self::MULTIPLIER);
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    /// An `IpAddr` key hashes as one `u32`.
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A bounded map that evicts the least-recently-used entry on overflow.
///
/// Recency is updated by [`get_mut`](LruCache::get_mut) and
/// [`get_or_insert_with`](LruCache::get_or_insert_with);
/// [`peek`](LruCache::peek) reads without touching the recency order.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<FoldHasher>>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot (NIL when empty).
    head: usize,
    /// Least recently used slot (NIL when empty).
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Copy, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        LruCache {
            map: HashMap::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The live values, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().map(|slot| &slot.value)
    }

    /// Bytes of the cache's own tables: the slot arena's capacity and
    /// the index's buckets (estimated as a hashbrown table's: one entry
    /// and one control byte per bucket, 7/8 of buckets usable). Heap
    /// owned by the values is not counted.
    pub fn storage_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<K, V>>()
            + self.map.capacity() * 8 / 7 * (std::mem::size_of::<(K, usize)>() + 1)
    }

    /// Unlink slot `i` from the recency list.
    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Link slot `i` in at the most-recently-used end.
    fn attach_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Mutable access, marking the entry most recently used.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.detach(i);
            self.attach_front(i);
        }
        Some(&mut self.slots[i].value)
    }

    /// Read-only access that does NOT touch the recency order.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.slots[i].value)
    }

    /// Drop every entry, keeping the configured capacity. The slot
    /// arena is released too (a wiped cache rebuilds it on demand) —
    /// this is the serve tier's `cache-wipe` fault, so it must model a
    /// genuinely cold cache, not a warm arena with empty entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Fetch `key` (touching it) or insert `default()`, evicting the
    /// least-recently-used entry if the cache is at capacity. Returns
    /// the entry's value.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        if let Some(&i) = self.map.get(&key) {
            if self.head != i {
                self.detach(i);
                self.attach_front(i);
            }
            return &mut self.slots[i].value;
        }
        let i = if self.slots.len() < self.capacity {
            // Arena not yet full: allocate a fresh slot.
            self.slots.push(Slot { key, value: default(), prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            // Reuse the least-recently-used slot in place.
            let i = self.tail;
            self.detach(i);
            self.map.remove(&self.slots[i].key);
            self.slots[i].key = key;
            self.slots[i].value = default();
            i
        };
        self.map.insert(key, i);
        self.attach_front(i);
        &mut self.slots[i].value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserts_and_reads_back() {
        let mut c: LruCache<u32, &str> = LruCache::new(4);
        *c.get_or_insert_with(1, || "a") = "a";
        c.get_or_insert_with(2, || "b");
        assert_eq!(c.peek(&1), Some(&"a"));
        assert_eq!(c.peek(&2), Some(&"b"));
        assert_eq!(c.peek(&3), None);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(3);
        for k in 0..3 {
            c.get_or_insert_with(k, || k * 10);
        }
        // Touch 0 so 1 becomes the LRU entry.
        c.get_mut(&0);
        c.get_or_insert_with(3, || 30);
        assert_eq!(c.peek(&1), None, "untouched entry evicted");
        assert_eq!(c.peek(&0), Some(&0));
        assert_eq!(c.peek(&2), Some(&20));
        assert_eq!(c.peek(&3), Some(&30));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn capacity_bound_holds_under_churn() {
        let mut c: LruCache<u64, u64> = LruCache::new(64);
        for k in 0..100_000u64 {
            *c.get_or_insert_with(k, || 0) = k;
        }
        assert_eq!(c.len(), 64);
        // The survivors are exactly the most recent 64 keys.
        for k in 100_000 - 64..100_000 {
            assert_eq!(c.peek(&k), Some(&k));
        }
        assert_eq!(c.peek(&0), None);
    }

    #[test]
    fn peek_does_not_touch_recency() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.get_or_insert_with(1, || 1);
        c.get_or_insert_with(2, || 2);
        c.peek(&1); // no touch: 1 is still the LRU entry
        c.get_or_insert_with(3, || 3);
        assert_eq!(c.peek(&1), None);
        assert_eq!(c.peek(&2), Some(&2));
    }

    #[test]
    fn reinserting_existing_key_touches_instead_of_growing() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.get_or_insert_with(1, || 1);
        c.get_or_insert_with(2, || 2);
        c.get_or_insert_with(1, || 99); // existing: value kept, touched
        assert_eq!(c.peek(&1), Some(&1));
        c.get_or_insert_with(3, || 3); // evicts 2, not 1
        assert_eq!(c.peek(&2), None);
        assert_eq!(c.peek(&1), Some(&1));
    }

    #[test]
    fn single_slot_cache_works() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.get_or_insert_with(1, || 1);
        c.get_or_insert_with(2, || 2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&1), None);
        assert_eq!(c.peek(&2), Some(&2));
    }
}
