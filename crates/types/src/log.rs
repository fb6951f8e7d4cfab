//! The unified event-log API.
//!
//! Every subsystem that records history — the identity stack's login
//! log, the mail provider's activity log, the defense notification log —
//! writes through the same two pieces:
//!
//! * [`LogStore<T>`]: an append-only log *segment* whose entries are
//!   stamped with a globally orderable [`LogKey`] `(at, shard, seq)`.
//!   A single-threaded scenario owns one segment per log (shard 0); the
//!   sharded engine gives every logical shard its own segment and merges
//!   them afterwards.
//! * [`EventSink<T>`]: the write interface, so code that only needs to
//!   emit records (world adapters, defense hooks) does not care which
//!   segment it is writing into.
//!
//! # Columnar layout
//!
//! A segment stores its entries as *columns*, not an array of structs:
//! a timestamp column (`Vec<SimTime>`) and a payload column (`Vec<T>`).
//! The rest of the key is implicit — `shard` is constant per segment
//! and `seq` is the dense append counter, i.e. the row index — so the
//! key column costs nothing to materialize. The win at scale: scans
//! that only need timestamps (merge cursors, day-window queries) touch
//! 8 bytes per row instead of dragging whole records through cache,
//! and a segment of `n` records costs two allocations, not `n`.
//!
//! Borrowing iteration yields [`Entry`] — a `Copy` (key, `&record`)
//! pair that derefs to the record, so call sites read `e.at`, `e.kind`
//! etc. exactly as they did when entries were stored as structs. The
//! owned form [`Stamped`] survives for consumers that need to hold
//! records outside the segment's lifetime.
//!
//! The key design constraint is determinism: `seq` is allocated densely
//! per shard in append order, so a segment's contents are a pure
//! function of the events that shard processed — independent of how
//! many worker threads drove the run. [`LogStore::merge`] then produces
//! one globally ordered view, sorted by `(at, shard, seq)`; since every
//! key is unique the merged order is total and reproducible, which is
//! what makes whole-dataset digests byte-identical across worker
//! counts.
//!
//! Merging is a true k-way merge, not concatenate-then-sort: each
//! segment tracks whether its appends arrived in time order (they
//! almost always do — a shard emits while advancing its simulated
//! clock), sorted segments are consumed straight off their columns, the
//! rare unsorted segment is sorted *on its own*, and a cursor heap
//! interleaves the k sorted streams in `O(n log k)`.
//! [`LogStore::merge_into`] exposes the same merge over a caller-owned,
//! pre-sized output buffer so repeated merges reuse one allocation.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Deref;

/// Identifier of the logical shard a record was produced on.
///
/// Shard assignment is part of scenario *semantics* (like the seed):
/// records keep their shard id through merging, and a scenario's shard
/// count changes its event interleaving just as a different seed would.
/// Worker-thread count, by contrast, must never influence log contents.
pub type ShardId = u16;

/// Globally unique, totally ordered key carried by every log record.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct LogKey {
    /// Simulated instant the record was emitted.
    pub at: SimTime,
    /// Logical shard that produced the record.
    pub shard: ShardId,
    /// Dense per-shard append counter; breaks ties among same-instant
    /// records on one shard while preserving their emission order.
    pub seq: u64,
}

/// A log record together with its ordering key, owned.
///
/// The borrowing analogue handed out by segment iteration is
/// [`Entry`]; `Stamped` is for consumers that keep records beyond the
/// segment's lifetime (e.g. [`LogStore::merge_owned`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped<T> {
    /// The global ordering key: `(SimTime, shard, seq)`.
    pub key: LogKey,
    /// The domain record itself.
    pub record: T,
}

impl<T> Deref for Stamped<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.record
    }
}

impl<T> AsRef<T> for Stamped<T> {
    fn as_ref(&self) -> &T {
        &self.record
    }
}

/// A borrowed log entry: the ordering key (reassembled from the
/// segment's columns) plus a reference into the payload column.
///
/// `Entry` is `Copy` and derefs to the record, so existing call sites
/// (`r.at`, `r.actor`, `matches!(e.kind, ..)`) work unchanged on
/// entries read out of a columnar segment.
#[derive(Debug)]
pub struct Entry<'a, T> {
    /// The global ordering key: `(SimTime, shard, seq)`.
    pub key: LogKey,
    /// The domain record, borrowed from the segment's payload column.
    pub record: &'a T,
}

impl<'a, T> Clone for Entry<'a, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, T> Copy for Entry<'a, T> {}

impl<'a, T> Deref for Entry<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.record
    }
}

impl<'a, T> AsRef<T> for Entry<'a, T> {
    fn as_ref(&self) -> &T {
        self.record
    }
}

impl<'a, T: PartialEq> PartialEq for Entry<'a, T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.record == other.record
    }
}

impl<'a, T> Entry<'a, T> {
    /// Clone into an owned [`Stamped`] record.
    pub fn to_stamped(self) -> Stamped<T>
    where
        T: Clone,
    {
        Stamped { key: self.key, record: self.record.clone() }
    }
}

/// Write interface shared by every log producer.
pub trait EventSink<T> {
    /// Append `record` as happening at `at`, returning the key it was
    /// stamped with.
    fn emit(&mut self, at: SimTime, record: T) -> LogKey;
}

/// An append-only columnar log segment.
///
/// Entries arrive in emission order, which is *approximately* — not
/// exactly — time order (concurrent sessions interleave, exactly like
/// real log ingestion). Queries must therefore not assume the segment
/// is time-sorted; [`LogStore::merge`] sorts by key when a globally
/// ordered view is needed.
///
/// ```
/// use mhw_types::{LogStore, SimTime};
///
/// let mut log = LogStore::for_shard(2);
/// log.append(SimTime::from_secs(10), "login");
/// log.append(SimTime::from_secs(11), "send");
/// let last = log.last().unwrap();
/// assert_eq!((*last.record, last.key.seq, last.key.shard), ("send", 1, 2));
/// assert_eq!(log.ats(), &[SimTime::from_secs(10), SimTime::from_secs(11)]);
/// ```
#[derive(Debug, Clone)]
pub struct LogStore<T> {
    shard: ShardId,
    /// Timestamp column: `ats[i]` is the emission instant of row `i`.
    ats: Vec<SimTime>,
    /// Payload column: `records[i]` is the domain record of row `i`.
    /// The row index doubles as the key's `seq`.
    records: Vec<T>,
    /// Whether appends have arrived in non-decreasing `at` order so far.
    /// Maintained incrementally by [`LogStore::append`]; lets
    /// [`LogStore::merge`] consume the segment without re-sorting it.
    time_sorted: bool,
}

impl<T> Default for LogStore<T> {
    fn default() -> Self {
        LogStore::new()
    }
}

impl<T> LogStore<T> {
    /// A shard-0 segment (single-threaded scenarios).
    pub fn new() -> Self {
        Self::for_shard(0)
    }

    /// A segment owned by logical shard `shard`.
    pub fn for_shard(shard: ShardId) -> Self {
        LogStore {
            shard,
            ats: Vec::new(),
            records: Vec::new(),
            time_sorted: true,
        }
    }

    /// The logical shard this segment belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Append in emission order, stamping the next dense sequence
    /// number for this shard.
    pub fn append(&mut self, at: SimTime, record: T) -> LogKey {
        if let Some(&last) = self.ats.last() {
            if at < last {
                self.time_sorted = false;
            }
        }
        let key = LogKey {
            at,
            shard: self.shard,
            seq: self.ats.len() as u64,
        };
        self.ats.push(at);
        self.records.push(record);
        key
    }

    /// Whether every append so far arrived in non-decreasing time
    /// order. When true, the segment is already in `(at, shard, seq)`
    /// key order (shard is constant and `seq` ascends), so merges
    /// consume it without sorting.
    pub fn is_time_sorted(&self) -> bool {
        self.time_sorted
    }

    /// The timestamp column: emission instant per row, in append order.
    /// Timestamp-only scans (day windows, merge planning) read this
    /// without touching the payload column.
    pub fn ats(&self) -> &[SimTime] {
        &self.ats
    }

    /// The key of row `i` (reassembled: shard is constant, `seq == i`).
    fn key_at(&self, i: usize) -> LogKey {
        LogKey { at: self.ats[i], shard: self.shard, seq: i as u64 }
    }

    /// All entries in emission order.
    pub fn entries(&self) -> Entries<'_, T> {
        self.iter()
    }

    /// The records alone, in emission order (a straight scan of the
    /// payload column).
    pub fn records(&self) -> std::slice::Iter<'_, T> {
        self.records.iter()
    }

    /// Iterator over the stamped entries in emission order.
    pub fn iter(&self) -> Entries<'_, T> {
        self.iter_from(0)
    }

    /// Iterator over entries starting at row `start` — the incremental
    /// form cursor-based consumers (the behavioral monitor) use to see
    /// only what appeared since their last drain.
    pub fn iter_from(&self, start: usize) -> Entries<'_, T> {
        let start = start.min(self.records.len());
        Entries {
            ats: &self.ats[start..],
            records: self.records[start..].iter(),
            shard: self.shard,
            next_seq: start as u64,
        }
    }

    /// Number of records in this segment.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The entry at row `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<Entry<'_, T>> {
        self.records.get(i).map(|record| Entry { key: self.key_at(i), record })
    }

    /// The first emitted entry, if any.
    pub fn first(&self) -> Option<Entry<'_, T>> {
        self.get(0)
    }

    /// The most recently emitted entry, if any.
    pub fn last(&self) -> Option<Entry<'_, T>> {
        self.len().checked_sub(1).and_then(|i| self.get(i))
    }

    /// Merge per-shard segments into one globally ordered view, sorted
    /// by `(at, shard, seq)`. Keys are unique, so the result is a total
    /// order independent of the segment iteration order.
    ///
    /// This is a k-way merge over the per-segment streams, not a sort
    /// of the concatenation: time-sorted segments (the overwhelmingly
    /// common case — see [`LogStore::is_time_sorted`]) are consumed
    /// straight off their columns, and only a segment that recorded
    /// out-of-order appends is sorted, on its own, before merging.
    pub fn merge<'a>(segments: impl IntoIterator<Item = &'a LogStore<T>>) -> Vec<Entry<'a, T>>
    where
        T: 'a,
    {
        let mut out = Vec::new();
        Self::merge_into(segments, &mut out);
        out
    }

    /// [`LogStore::merge`] into a caller-owned buffer, so repeated
    /// merges (benchmark loops, digest passes) reuse one allocation.
    /// The buffer is cleared, then reserved to the exact total size
    /// before any entry is pushed.
    pub fn merge_into<'a>(
        segments: impl IntoIterator<Item = &'a LogStore<T>>,
        out: &mut Vec<Entry<'a, T>>,
    ) where
        T: 'a,
    {
        out.clear();
        let mut total = 0usize;
        let mut cursors: Vec<MergeCursor<'a, T>> = Vec::new();
        for seg in segments {
            if seg.is_empty() {
                continue;
            }
            total += seg.len();
            if seg.time_sorted {
                debug_assert!(
                    seg.ats.windows(2).all(|w| w[0] <= w[1]),
                    "segment flagged time-sorted has out-of-order timestamps (shard {})",
                    seg.shard
                );
                cursors.push(MergeCursor::Sorted(seg.iter()));
            } else {
                let mut view: Vec<Entry<'a, T>> = seg.iter().collect();
                view.sort_by_key(|e| e.key);
                cursors.push(MergeCursor::Resorted(view.into_iter()));
            }
        }
        out.reserve(total);
        match cursors.len() {
            0 => {}
            1 => out.extend(std::iter::from_fn(move || cursors[0].next())),
            _ => {
                let mut heads: Vec<Option<Entry<'a, T>>> =
                    cursors.iter_mut().map(MergeCursor::next).collect();
                let mut heap: BinaryHeap<Reverse<(LogKey, usize)>> = heads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, head)| head.map(|e| Reverse((e.key, i))))
                    .collect();
                while let Some(Reverse((key, i))) = heap.pop() {
                    let entry = heads[i].take().expect("popped cursor has a head");
                    debug_assert!(
                        out.last().is_none_or(|prev| prev.key < key),
                        "k-way merge produced out-of-order output"
                    );
                    out.push(entry);
                    if let Some(next) = cursors[i].next() {
                        debug_assert!(
                            next.key > key,
                            "merge input segment is not sorted: {:?} after {key:?}",
                            next.key
                        );
                        heads[i] = Some(next);
                        heap.push(Reverse((next.key, i)));
                    }
                }
            }
        }
        debug_assert_eq!(out.len(), total, "k-way merge dropped or duplicated entries");
    }

    /// Consuming variant of [`LogStore::merge`], for assembling the
    /// final global log out of finished shard segments. Same k-way
    /// strategy: per-segment sort only when a segment recorded
    /// out-of-order appends, never a sort of the concatenation.
    pub fn merge_owned(segments: impl IntoIterator<Item = LogStore<T>>) -> Vec<Stamped<T>> {
        let mut total = 0usize;
        let mut iters: Vec<std::vec::IntoIter<Stamped<T>>> = Vec::new();
        for seg in segments {
            if seg.is_empty() {
                continue;
            }
            total += seg.len();
            let shard = seg.shard;
            let time_sorted = seg.time_sorted;
            let mut entries: Vec<Stamped<T>> = seg
                .ats
                .into_iter()
                .zip(seg.records)
                .enumerate()
                .map(|(i, (at, record))| Stamped {
                    key: LogKey { at, shard, seq: i as u64 },
                    record,
                })
                .collect();
            if !time_sorted {
                entries.sort_by_key(|e| e.key);
            }
            iters.push(entries.into_iter());
        }
        let mut out = Vec::with_capacity(total);
        let mut heads: Vec<Option<Stamped<T>>> = iters.iter_mut().map(Iterator::next).collect();
        let mut heap: BinaryHeap<Reverse<(LogKey, usize)>> = heads
            .iter()
            .enumerate()
            .filter_map(|(i, head)| head.as_ref().map(|e| Reverse((e.key, i))))
            .collect();
        while let Some(Reverse((key, i))) = heap.pop() {
            let entry = heads[i].take().expect("popped cursor has a head");
            debug_assert_eq!(entry.key, key);
            out.push(entry);
            if let Some(next) = iters[i].next() {
                debug_assert!(next.key > key, "merge input segment is not sorted");
                heap.push(Reverse((next.key, i)));
                heads[i] = Some(next);
            }
        }
        out
    }
}

pub use crate::fnv::Fnv1a;

/// Borrowing iterator over a segment's entries, reassembling each
/// [`LogKey`] from the timestamp column and the implicit (shard, seq)
/// coordinates.
#[derive(Debug, Clone)]
pub struct Entries<'a, T> {
    ats: &'a [SimTime],
    records: std::slice::Iter<'a, T>,
    shard: ShardId,
    next_seq: u64,
}

impl<'a, T> Iterator for Entries<'a, T> {
    type Item = Entry<'a, T>;

    fn next(&mut self) -> Option<Entry<'a, T>> {
        let record = self.records.next()?;
        let (&at, rest) = self.ats.split_first().expect("columns same length");
        self.ats = rest;
        let key = LogKey { at, shard: self.shard, seq: self.next_seq };
        self.next_seq += 1;
        Some(Entry { key, record })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl<'a, T> ExactSizeIterator for Entries<'a, T> {}

/// One segment's position in an in-progress k-way merge: a plain
/// column-walking iterator for segments already in key order, an owned
/// sorted view for the rare segment that recorded out-of-order appends.
enum MergeCursor<'a, T> {
    Sorted(Entries<'a, T>),
    Resorted(std::vec::IntoIter<Entry<'a, T>>),
}

impl<'a, T> MergeCursor<'a, T> {
    fn next(&mut self) -> Option<Entry<'a, T>> {
        match self {
            MergeCursor::Sorted(it) => it.next(),
            MergeCursor::Resorted(it) => it.next(),
        }
    }
}

impl<T> EventSink<T> for LogStore<T> {
    fn emit(&mut self, at: SimTime, record: T) -> LogKey {
        self.append(at, record)
    }
}

impl<'a, T> IntoIterator for &'a LogStore<T> {
    type Item = Entry<'a, T>;
    type IntoIter = Entries<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_dense_and_ordered_per_shard() {
        let mut log = LogStore::for_shard(3);
        let k0 = log.append(SimTime::from_secs(10), "a");
        let k1 = log.append(SimTime::from_secs(10), "b");
        let k2 = log.append(SimTime::from_secs(5), "c"); // out-of-order arrival
        assert_eq!((k0.shard, k0.seq), (3, 0));
        assert_eq!((k1.shard, k1.seq), (3, 1));
        assert_eq!((k2.shard, k2.seq), (3, 2));
        assert!(k0 < k1, "same instant breaks ties by seq");
        assert!(k2 < k0, "earlier instant sorts first regardless of seq");
    }

    #[test]
    fn deref_exposes_record_fields() {
        let mut log = LogStore::new();
        log.append(SimTime::from_secs(1), (7u32, "x"));
        let entry = log.last().unwrap();
        assert_eq!(entry.0, 7);
        assert_eq!(entry.key.seq, 0);
    }

    #[test]
    fn columns_reassemble_the_entries() {
        let mut log = LogStore::for_shard(5);
        for i in 0..10u64 {
            log.append(SimTime::from_secs(100 + i), i * i);
        }
        assert_eq!(log.ats().len(), 10);
        for (i, e) in log.iter().enumerate() {
            assert_eq!(e.key, LogKey { at: log.ats()[i], shard: 5, seq: i as u64 });
            assert_eq!(*e.record, (i * i) as u64);
            assert_eq!(log.get(i).unwrap(), e);
        }
        assert_eq!(log.iter_from(7).count(), 3);
        assert_eq!(log.iter_from(7).next().unwrap().key.seq, 7);
        assert!(log.iter_from(99).next().is_none());
        assert_eq!(log.first().unwrap().key.seq, 0);
    }

    #[test]
    fn merge_is_globally_ordered_and_complete() {
        let mut a = LogStore::for_shard(0);
        let mut b = LogStore::for_shard(1);
        a.append(SimTime::from_secs(10), "a0");
        a.append(SimTime::from_secs(30), "a1");
        b.append(SimTime::from_secs(20), "b0");
        b.append(SimTime::from_secs(10), "b1");
        let merged = LogStore::merge([&a, &b]);
        assert_eq!(merged.len(), 4);
        for w in merged.windows(2) {
            assert!(w[0].key < w[1].key);
        }
        // Same-instant records from different shards order by shard id.
        assert_eq!(*merged[0].record, "a0");
        assert_eq!(*merged[1].record, "b1");
    }

    #[test]
    fn merge_owned_matches_borrowing_merge() {
        let mut a = LogStore::for_shard(0);
        let mut b = LogStore::for_shard(1);
        for i in 0..10u64 {
            a.append(SimTime::from_secs(100 - i), i);
            b.append(SimTime::from_secs(i), 100 + i);
        }
        let borrowed: Vec<LogKey> = LogStore::merge([&a, &b]).iter().map(|e| e.key).collect();
        let owned: Vec<LogKey> = LogStore::merge_owned([a, b]).iter().map(|e| e.key).collect();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn time_sorted_flag_tracks_append_order() {
        let mut log = LogStore::for_shard(1);
        assert!(log.is_time_sorted(), "empty segment is trivially sorted");
        log.append(SimTime::from_secs(5), "a");
        log.append(SimTime::from_secs(5), "b"); // equal instants stay sorted
        log.append(SimTime::from_secs(9), "c");
        assert!(log.is_time_sorted());
        log.append(SimTime::from_secs(2), "d"); // regression
        assert!(!log.is_time_sorted());
    }

    #[test]
    fn merge_handles_empty_and_unsorted_segments() {
        let empty: LogStore<&str> = LogStore::for_shard(9);
        let mut sorted = LogStore::for_shard(0);
        sorted.append(SimTime::from_secs(1), "s0");
        sorted.append(SimTime::from_secs(4), "s1");
        let mut unsorted = LogStore::for_shard(1);
        unsorted.append(SimTime::from_secs(3), "u0");
        unsorted.append(SimTime::from_secs(1), "u1");
        unsorted.append(SimTime::from_secs(3), "u2");
        assert!(!unsorted.is_time_sorted());
        let merged = LogStore::merge([&empty, &sorted, &unsorted]);
        let records: Vec<&str> = merged.iter().map(|e| *e.record).collect();
        assert_eq!(records, vec!["s0", "u1", "u0", "u2", "s1"]);
        for w in merged.windows(2) {
            assert!(w[0].key < w[1].key);
        }
    }

    #[test]
    fn merge_into_reuses_the_output_buffer() {
        let mut a = LogStore::for_shard(0);
        let mut b = LogStore::for_shard(1);
        for i in 0..50u64 {
            a.append(SimTime::from_secs(2 * i), i);
            b.append(SimTime::from_secs(2 * i + 1), i);
        }
        let mut out = Vec::new();
        LogStore::merge_into([&a, &b], &mut out);
        assert_eq!(out.len(), 100);
        let capacity = out.capacity();
        LogStore::merge_into([&a, &b], &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(out.capacity(), capacity, "repeat merge must not reallocate");
        assert_eq!(out, LogStore::merge([&a, &b]));
    }

    #[test]
    fn sink_trait_object_compatible_generics() {
        fn emit_twice<S: EventSink<u32>>(sink: &mut S) {
            sink.emit(SimTime::from_secs(1), 1);
            sink.emit(SimTime::from_secs(2), 2);
        }
        let mut log = LogStore::new();
        emit_twice(&mut log);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn fnv_constants_match_the_reference_vectors() {
        // Known FNV-1a test vectors.
        let mut h = Fnv1a::new();
        h.write(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
