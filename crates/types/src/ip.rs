//! IPv4 addresses and CIDR-style blocks.
//!
//! The simulator models the IPv4 space abstractly: countries own disjoint
//! address blocks (assigned by `mhw-netmodel`), and geolocating an address
//! means finding its covering block. A thin newtype keeps addresses `Copy`
//! and avoids dragging `std::net` semantics (scopes, v6) into log records.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An IPv4 address as a 32-bit integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// An address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four dotted-quad octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for IpAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// A contiguous block of IPv4 addresses (`base/prefix_len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpBlock {
    base: u32,
    prefix_len: u8,
}

impl IpBlock {
    /// Create a block; the base is masked down to the prefix boundary.
    ///
    /// # Panics
    /// Panics if `prefix_len > 32`.
    pub fn new(base: IpAddr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length must be <= 32");
        IpBlock { base: base.0 & Self::mask(prefix_len), prefix_len }
    }

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// The first address of the block.
    pub fn base(self) -> IpAddr {
        IpAddr(self.base)
    }

    /// The CIDR prefix length.
    pub fn prefix_len(self) -> u8 {
        self.prefix_len
    }

    /// Number of addresses in the block.
    pub fn size(self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// Whether `ip` falls inside this block.
    pub fn contains(self, ip: IpAddr) -> bool {
        ip.0 & Self::mask(self.prefix_len) == self.base
    }

    /// The `i`-th address of the block (wrapping within the block), used
    /// to hand out deterministic per-host addresses.
    pub fn addr(self, i: u64) -> IpAddr {
        IpAddr(self.base | (i % self.size()) as u32)
    }
}

impl fmt::Display for IpBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", IpAddr(self.base), self.prefix_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_round_trip() {
        let ip = IpAddr::new(203, 0, 113, 42);
        assert_eq!(ip.octets(), [203, 0, 113, 42]);
        assert_eq!(ip.to_string(), "203.0.113.42");
    }

    #[test]
    fn block_masks_base() {
        let b = IpBlock::new(IpAddr::new(10, 1, 2, 3), 16);
        assert_eq!(b.base(), IpAddr::new(10, 1, 0, 0));
        assert_eq!(b.to_string(), "10.1.0.0/16");
        assert_eq!(b.size(), 65536);
    }

    #[test]
    fn contains_respects_boundary() {
        let b = IpBlock::new(IpAddr::new(10, 1, 0, 0), 16);
        assert!(b.contains(IpAddr::new(10, 1, 255, 255)));
        assert!(!b.contains(IpAddr::new(10, 2, 0, 0)));
    }

    #[test]
    fn addr_wraps_in_block() {
        let b = IpBlock::new(IpAddr::new(192, 168, 1, 0), 24);
        assert_eq!(b.addr(0), IpAddr::new(192, 168, 1, 0));
        assert_eq!(b.addr(255), IpAddr::new(192, 168, 1, 255));
        assert_eq!(b.addr(256), IpAddr::new(192, 168, 1, 0)); // wraps
        assert!(b.contains(b.addr(12345)));
    }

    #[test]
    fn zero_and_full_prefix() {
        let whole = IpBlock::new(IpAddr::new(1, 2, 3, 4), 0);
        assert!(whole.contains(IpAddr::new(255, 255, 255, 255)));
        assert_eq!(whole.size(), 1u64 << 32);
        let host = IpBlock::new(IpAddr::new(1, 2, 3, 4), 32);
        assert_eq!(host.size(), 1);
        assert!(host.contains(IpAddr::new(1, 2, 3, 4)));
        assert!(!host.contains(IpAddr::new(1, 2, 3, 5)));
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn oversized_prefix_panics() {
        IpBlock::new(IpAddr::new(0, 0, 0, 0), 33);
    }
}
