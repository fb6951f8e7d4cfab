//! A short ordered list that keeps its first few entries inline.
//!
//! The per-account device and failure windows and the per-IP account
//! list are almost always tiny (an owner holds one device and a
//! failure or two; a home IP serves one account), yet each used to be
//! a heap collection of its own. [`SmallList`] holds up to `N` entries
//! inside its owner and moves the whole list to a `Vec` only once it
//! outgrows them, so scoring a login reads one flat record with no
//! heap hop, and a typical record allocates nothing.
//!
//! Order is insertion order, oldest first — the `VecDeque` semantics
//! the windows had: [`push`](SmallList::push) appends, and
//! [`drop_front`](SmallList::drop_front) / [`remove`](SmallList::remove)
//! close the gap they leave.

use mhw_types::{AccountId, DeviceId, SimTime};

/// A value that fills unused inline slots. It is never read back.
pub(crate) trait Filler: Copy {
    /// The filler value.
    const FILLER: Self;
}

impl Filler for DeviceId {
    const FILLER: Self = DeviceId(0);
}

impl Filler for AccountId {
    const FILLER: Self = AccountId(0);
}

impl Filler for SimTime {
    const FILLER: Self = SimTime::EPOCH;
}

/// Up to `N` entries inline; the whole list on the heap beyond that.
#[derive(Debug, Clone)]
pub(crate) enum SmallList<T, const N: usize> {
    /// The first `len` of `items` are the list.
    Inline { len: u8, items: [T; N] },
    /// The list outgrew `N` entries.
    Spilled(Vec<T>),
}

impl<T: Filler, const N: usize> Default for SmallList<T, N> {
    fn default() -> Self {
        const { assert!(N <= u8::MAX as usize, "the inline length is a u8") };
        SmallList::Inline { len: 0, items: [T::FILLER; N] }
    }
}

impl<T: Filler + PartialEq, const N: usize> SmallList<T, N> {
    /// The entries, oldest first.
    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            SmallList::Inline { len, items } => &items[..*len as usize],
            SmallList::Spilled(v) => v,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether `value` is in the list.
    pub(crate) fn contains(&self, value: &T) -> bool {
        self.as_slice().contains(value)
    }

    /// Append `value` as the newest entry, spilling to the heap when
    /// the inline slots are full.
    pub(crate) fn push(&mut self, value: T) {
        match self {
            SmallList::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = value;
                *len += 1;
            }
            SmallList::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N.max(1));
                spilled.extend_from_slice(items);
                spilled.push(value);
                *self = SmallList::Spilled(spilled);
            }
            SmallList::Spilled(v) => v.push(value),
        }
    }

    /// Remove the entry at `index`, keeping the others in order.
    pub(crate) fn remove(&mut self, index: usize) {
        match self {
            SmallList::Inline { len, items } => {
                items.copy_within(index + 1..*len as usize, index);
                *len -= 1;
            }
            SmallList::Spilled(v) => {
                v.remove(index);
            }
        }
    }

    /// Remove the `n` oldest entries (all of them if fewer).
    pub(crate) fn drop_front(&mut self, n: usize) {
        match self {
            SmallList::Inline { len, items } => {
                let n = n.min(*len as usize);
                items.copy_within(n..*len as usize, 0);
                *len -= n as u8;
            }
            SmallList::Spilled(v) => {
                v.drain(..n.min(v.len()));
            }
        }
    }

    /// Bytes held on the heap (zero until the list spills).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            SmallList::Inline { .. } => 0,
            SmallList::Spilled(v) => v.capacity() * std::mem::size_of::<T>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_the_inline_slots_and_keeps_order() {
        let mut list: SmallList<DeviceId, 2> = SmallList::default();
        list.push(DeviceId(1));
        list.push(DeviceId(2));
        assert_eq!(list.heap_bytes(), 0, "two entries fit inline");
        list.push(DeviceId(3));
        assert!(list.heap_bytes() > 0, "the third entry spills");
        assert_eq!(list.as_slice(), [DeviceId(1), DeviceId(2), DeviceId(3)]);
        list.remove(1);
        list.drop_front(1);
        assert_eq!(list.as_slice(), [DeviceId(3)]);
        list.drop_front(5);
        assert_eq!(list.len(), 0);
    }

    #[test]
    fn inline_remove_and_drop_front_close_the_gap() {
        let mut list: SmallList<SimTime, 4> = SmallList::default();
        for t in 1..=4 {
            list.push(SimTime::from_secs(t));
        }
        list.remove(1);
        assert_eq!(list.as_slice(), [1, 3, 4].map(SimTime::from_secs));
        list.drop_front(2);
        assert_eq!(list.as_slice(), [SimTime::from_secs(4)]);
        assert!(list.contains(&SimTime::from_secs(4)));
        assert_eq!(list.heap_bytes(), 0);
    }
}
