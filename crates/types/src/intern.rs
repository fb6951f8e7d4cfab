//! Dense interning for the hot data layer.
//!
//! At paper scale (millions of accounts) the simulator cannot afford a
//! heap-allocated `String` per password, a `HashMap<EmailAddress, _>`
//! probe per delivered message, or a hash-map entry per account of
//! defense history. This module provides the three primitives the rest
//! of the workspace uses to keep per-entity state dense and index-addressed:
//!
//! * [`Interner<T>`] — deduplicating value → dense-`u32` symbol table.
//!   The mail provider interns every [`crate::EmailAddress`] it creates,
//!   so address → account resolution is one probe against a table whose
//!   symbols are exactly the dense account indices.
//! * [`StrArena`] — append-only string storage handing out [`Span`]
//!   handles. One allocation amortized over every password in the world
//!   instead of one `String` per credential.
//! * [`DenseMap<V>`] — a map keyed by dense `u32` indices (any id made
//!   by `define_id!`, or an interner symbol) that stores values in a
//!   `Vec` while tolerating sparse/namespaced keys via an overflow map.
//!
//! Everything here is deterministic: symbols and spans are allocated in
//! insertion order, so two runs that intern the same values in the same
//! order produce identical indices — a requirement for the engine's
//! byte-identical-digest contract.

use std::collections::HashMap;
use std::hash::Hash;
use std::marker::PhantomData;

/// A dense symbol naming one interned value of type `T`.
///
/// Symbols are plain `u32` indices under the hood: `Copy`, 4 bytes,
/// and usable directly as a `Vec` index for side tables keyed by the
/// interned value. The phantom type parameter keeps symbols from
/// different interners (addresses vs. subjects, say) from mixing.
#[derive(Debug)]
pub struct Sym<T>(u32, PhantomData<fn() -> T>);

// Manual impls: derived ones would bound on `T: Copy` etc., but a
// symbol is always copyable regardless of what it names.
impl<T> Clone for Sym<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Sym<T> {}
impl<T> PartialEq for Sym<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for Sym<T> {}
impl<T> PartialOrd for Sym<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Sym<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}
impl<T> Hash for Sym<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl<T> Sym<T> {
    /// Construct from a dense index (the inverse of [`Sym::index`]).
    pub const fn from_index(i: usize) -> Self {
        Sym(i as u32, PhantomData)
    }

    /// Dense index for `Vec`-backed side tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A deduplicating value → dense-symbol table.
///
/// Symbols are handed out in insertion order starting at 0, so the
/// `n`-th distinct value interned gets symbol index `n` — two runs
/// interning the same sequence of values agree on every symbol, which
/// is what lets interned indices appear inside digested log records.
///
/// ```
/// use mhw_types::intern::Interner;
///
/// let mut names = Interner::new();
/// let alice = names.intern("alice".to_string());
/// let bob = names.intern("bob".to_string());
/// assert_eq!(names.intern("alice".to_string()), alice); // dedup hit
/// assert_eq!(alice.index(), 0);
/// assert_eq!(bob.index(), 1);
/// assert_eq!(names.resolve(bob), "bob");
/// assert_eq!(names.lookup(&"alice".to_string()), Some(alice));
/// assert_eq!(names.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner<T: Eq + Hash + Clone> {
    values: Vec<T>,
    index: HashMap<T, u32>,
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// An empty interner.
    pub fn new() -> Self {
        Interner { values: Vec::new(), index: HashMap::new() }
    }

    /// An empty interner pre-sized for `n` distinct values.
    pub fn with_capacity(n: usize) -> Self {
        Interner {
            values: Vec::with_capacity(n),
            index: HashMap::with_capacity(n),
        }
    }

    /// Intern `value`, returning its symbol — the existing one on a
    /// dedup hit, the next dense index otherwise.
    pub fn intern(&mut self, value: T) -> Sym<T> {
        if let Some(&i) = self.index.get(&value) {
            return Sym(i, PhantomData);
        }
        let i = u32::try_from(self.values.len()).expect("interner overflow: > u32::MAX symbols");
        self.values.push(value.clone());
        self.index.insert(value, i);
        Sym(i, PhantomData)
    }

    /// The symbol for `value` if it has been interned.
    pub fn lookup(&self, value: &T) -> Option<Sym<T>> {
        self.index.get(value).map(|&i| Sym(i, PhantomData))
    }

    /// The value a symbol names. Panics if `sym` came from a different
    /// interner (index out of range).
    pub fn resolve(&self, sym: Sym<T>) -> &T {
        &self.values[sym.index()]
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The interned values in symbol order (symbol `i` names the `i`-th
    /// element).
    pub fn values(&self) -> &[T] {
        &self.values
    }
}

/// Handle into a [`StrArena`]: byte offset + length of one stored string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// Length in bytes of the spanned string.
    pub const fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the span covers the empty string.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// Append-only string arena.
///
/// All strings live in one growable byte buffer; [`Span`] handles are
/// 8-byte `Copy` values, so a million passwords cost one allocation
/// (amortized) instead of a million. Strings are never freed or moved —
/// spans stay valid for the arena's lifetime.
///
/// ```
/// use mhw_types::intern::StrArena;
///
/// let mut arena = StrArena::new();
/// let hunter2 = arena.push("hunter2");
/// let empty = arena.push("");
/// assert_eq!(arena.get(hunter2), "hunter2");
/// assert_eq!(arena.get(empty), "");
/// assert_eq!(arena.bytes(), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StrArena {
    buf: String,
}

impl StrArena {
    /// An empty arena.
    pub fn new() -> Self {
        StrArena { buf: String::new() }
    }

    /// An empty arena pre-sized for `bytes` of string data.
    pub fn with_capacity(bytes: usize) -> Self {
        StrArena { buf: String::with_capacity(bytes) }
    }

    /// Store a copy of `s`, returning its span.
    pub fn push(&mut self, s: &str) -> Span {
        let start = u32::try_from(self.buf.len()).expect("arena overflow: > 4 GiB of strings");
        let len = u32::try_from(s.len()).expect("arena string > 4 GiB");
        self.buf.push_str(s);
        Span { start, len }
    }

    /// The string a span covers.
    pub fn get(&self, span: Span) -> &str {
        &self.buf[span.start as usize..span.start as usize + span.len as usize]
    }

    /// Total bytes of string data stored.
    pub fn bytes(&self) -> usize {
        self.buf.len()
    }
}

/// A map keyed by dense `u32` indices with `Vec`-backed storage.
///
/// The common case — keys allocated densely from 0 (account ids, user
/// ids, interner symbols) — costs one bounds check and no hashing.
/// Sparse keys (a shard-namespaced message id with a shard tag in the
/// high byte, or an isolated far-out key) transparently land in an
/// overflow hash map rather than forcing a multi-gigabyte `Vec`: a key
/// is only admitted to the dense `Vec` when it extends the populated
/// region by at most [`DenseMap::DENSE_SLACK`] slots (or falls inside a
/// [`DenseMap::with_dense_capacity`] pre-sizing), and never at or past
/// [`DenseMap::DENSE_LIMIT`].
///
/// ```
/// use mhw_types::intern::DenseMap;
///
/// let mut seen: DenseMap<&'static str> = DenseMap::new();
/// seen.insert(2, "two");
/// seen.insert(0xFF00_0001, "sparse"); // far past the dense region
/// assert_eq!(seen.get(2), Some(&"two"));
/// assert_eq!(seen.get(3), None);
/// assert_eq!(seen.get(0xFF00_0001), Some(&"sparse"));
/// assert_eq!(seen.remove(2), Some("two"));
/// assert_eq!(seen.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DenseMap<V> {
    dense: Vec<Option<V>>,
    /// Keys the dense-admission policy rejected.
    overflow: HashMap<u32, V>,
    /// Keys below this are always dense-admitted (set by
    /// [`DenseMap::with_dense_capacity`]).
    dense_floor: usize,
    present: usize,
}

impl<V> Default for DenseMap<V> {
    fn default() -> Self {
        DenseMap::new()
    }
}

impl<V> DenseMap<V> {
    /// Hard ceiling on the dense `Vec`; keys at or above always land in
    /// the overflow map. 2^24 entries ≈ the largest id namespace one
    /// shard allocates before the engine's shard tag kicks in.
    pub const DENSE_LIMIT: u32 = 1 << 24;

    /// How far past the current dense end a key may extend the `Vec`.
    /// Densely allocated ids grow the region smoothly; an isolated
    /// sparse key (say, 4 million on an empty map) goes to overflow
    /// instead of materializing millions of empty slots.
    pub const DENSE_SLACK: usize = 1024;

    /// An empty map.
    pub fn new() -> Self {
        DenseMap { dense: Vec::new(), overflow: HashMap::new(), dense_floor: 0, present: 0 }
    }

    /// An empty map that admits keys `0..n` to the dense region
    /// unconditionally (use when the population size is known up front).
    pub fn with_dense_capacity(n: usize) -> Self {
        DenseMap {
            dense: Vec::with_capacity(n),
            overflow: HashMap::new(),
            dense_floor: n,
            present: 0,
        }
    }

    /// Dense-admission policy: below the hard limit, and either inside
    /// the pre-sized floor or within [`Self::DENSE_SLACK`] of the
    /// current dense end.
    fn admits_dense(&self, key: u32) -> bool {
        key < Self::DENSE_LIMIT
            && (key as usize) < self.dense.len().max(self.dense_floor) + Self::DENSE_SLACK
    }

    /// Insert or replace the value at `key`, returning the previous one.
    pub fn insert(&mut self, key: u32, value: V) -> Option<V> {
        if self.admits_dense(key) {
            let i = key as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, || None);
            }
            // The key may be stranded in overflow from before the dense
            // region grew out to cover it.
            let prev = self.dense[i].replace(value).or_else(|| self.overflow.remove(&key));
            if prev.is_none() {
                self.present += 1;
            }
            prev
        } else {
            let prev = self.overflow.insert(key, value);
            if prev.is_none() {
                self.present += 1;
            }
            prev
        }
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: u32) -> Option<&V> {
        match self.dense.get(key as usize) {
            Some(Some(v)) => Some(v),
            _ => self.overflow.get(&key),
        }
    }

    /// Mutable access to the value at `key`, if present.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut V> {
        let i = key as usize;
        if i < self.dense.len() && self.dense[i].is_some() {
            return self.dense[i].as_mut();
        }
        self.overflow.get_mut(&key)
    }

    /// Remove and return the value at `key`.
    pub fn remove(&mut self, key: u32) -> Option<V> {
        let prev = self
            .dense
            .get_mut(key as usize)
            .and_then(|slot| slot.take())
            .or_else(|| self.overflow.remove(&key));
        if prev.is_some() {
            self.present -= 1;
        }
        prev
    }

    /// Number of present entries.
    pub fn len(&self) -> usize {
        self.present
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Bytes of the map's own tables: the dense `Vec`'s capacity and
    /// the overflow map's buckets (estimated as a hashbrown table's:
    /// one slot and one control byte per bucket, 7/8 of buckets usable).
    /// Heap owned by the values is not counted.
    pub fn storage_bytes(&self) -> usize {
        self.dense.capacity() * std::mem::size_of::<Option<V>>()
            + self.overflow.capacity() * 8 / 7 * (std::mem::size_of::<(u32, V)>() + 1)
    }

    /// Iterator over present values, dense region first (in key order),
    /// then overflow entries (unordered).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.dense.iter().filter_map(|slot| slot.as_ref()).chain(self.overflow.values())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_round_trips_and_dedups() {
        let mut i: Interner<String> = Interner::new();
        let a = i.intern("a".into());
        let b = i.intern("b".into());
        let a2 = i.intern("a".into());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "a");
        assert_eq!(i.resolve(b), "b");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn interner_symbols_are_dense_in_insertion_order() {
        // The determinism contract: symbol index == insertion rank of
        // the distinct value, regardless of what was interned between.
        let mut i: Interner<u64> = Interner::new();
        let order = [10u64, 7, 10, 3, 7, 99];
        let syms: Vec<usize> = order.iter().map(|&v| i.intern(v).index()).collect();
        assert_eq!(syms, vec![0, 1, 0, 2, 1, 3]);
        assert_eq!(i.values(), &[10, 7, 3, 99]);
        // A second interner fed the same sequence agrees exactly.
        let mut j: Interner<u64> = Interner::new();
        let again: Vec<usize> = order.iter().map(|&v| j.intern(v).index()).collect();
        assert_eq!(syms, again);
    }

    #[test]
    fn interner_lookup_without_insert() {
        let mut i: Interner<String> = Interner::new();
        assert_eq!(i.lookup(&"x".to_string()), None);
        let x = i.intern("x".into());
        assert_eq!(i.lookup(&"x".to_string()), Some(x));
        assert_eq!(i.len(), 1, "lookup must not intern");
    }

    #[test]
    fn arena_spans_are_stable_across_growth() {
        let mut arena = StrArena::with_capacity(4); // force reallocation
        let spans: Vec<Span> = (0..100).map(|n| arena.push(&format!("pw-{n}"))).collect();
        for (n, span) in spans.iter().enumerate() {
            assert_eq!(arena.get(*span), format!("pw-{n}"));
        }
    }

    #[test]
    fn dense_map_spans_dense_and_overflow_regions() {
        let mut m: DenseMap<u64> = DenseMap::new();
        assert!(m.is_empty());
        m.insert(0, 100);
        m.insert(5, 105);
        let sparse = DenseMap::<u64>::DENSE_LIMIT + 7;
        m.insert(sparse, 999);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0), Some(&100));
        assert_eq!(m.get(1), None);
        assert_eq!(m.get(sparse), Some(&999));
        *m.get_mut(5).unwrap() += 1;
        assert_eq!(m.get(5), Some(&106));
        assert_eq!(m.remove(5), Some(106));
        assert_eq!(m.remove(5), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn dense_map_rejects_isolated_sparse_keys() {
        // An isolated far-out key on an empty map must not materialize
        // millions of empty dense slots.
        let mut m: DenseMap<u8> = DenseMap::new();
        m.insert(4_000_000, 1);
        assert!(m.dense.is_empty(), "sparse key must overflow, not grow the Vec");
        assert_eq!(m.get(4_000_000), Some(&1));
        // Pre-sizing admits the same key densely.
        let mut p: DenseMap<u8> = DenseMap::with_dense_capacity(5_000_000);
        p.insert(4_000_000, 2);
        assert_eq!(p.dense.len(), 4_000_001);
        assert_eq!(p.get(4_000_000), Some(&2));
    }

    #[test]
    fn dense_map_recovers_stranded_overflow_keys() {
        let mut m: DenseMap<u32> = DenseMap::new();
        m.insert(2_000, 7); // beyond slack of an empty map → overflow
        assert!(m.dense.is_empty());
        for k in 0..3_000u32 {
            m.insert(k, k);
        }
        // The dense region grew over the stranded key; the re-insert
        // replaced (not duplicated) it.
        assert_eq!(m.len(), 3_000);
        assert_eq!(m.get(2_000), Some(&2_000));
        assert_eq!(m.remove(2_000), Some(2_000));
        assert_eq!(m.get(2_000), None);
    }

    #[test]
    fn dense_map_insert_replaces() {
        let mut m: DenseMap<&str> = DenseMap::new();
        assert_eq!(m.insert(3, "first"), None);
        assert_eq!(m.insert(3, "second"), Some("first"));
        assert_eq!(m.len(), 1);
    }
}
