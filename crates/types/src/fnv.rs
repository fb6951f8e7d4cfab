//! FNV-1a — the workspace's one and only digest primitive.
//!
//! Every digest in the workspace — dataset digests, checkpoint state
//! digests, RNG stream labels, serve verdict digests — is 64-bit
//! FNV-1a. It is stable across platforms and Rust versions (unlike
//! `DefaultHasher`), has no lookup tables or per-hasher allocation, and
//! is cheap enough to run over every log record of a million-user
//! world. This module is the single definition; the incremental
//! [`Fnv1a`] hasher and the free [`fnv1a`]/[`digest`] functions below
//! are the same algorithm in streaming and one-shot form.
//!
//! # Folded literals
//!
//! Hashing a *constant* string need not walk its bytes. XOR with a byte
//! changes only a state's low 8 bits, and the low 8 bits of a product
//! depend only on the low 8 bits of its factors, so for a string `s` of
//! length `n`, FNV-1a from any state `h` is
//! `h·PRIMEⁿ + T_s[h mod 256]` (mod 2⁶⁴). [`Folded`] precomputes `PRIMEⁿ`
//! and the 256-entry table `T_s` at compile time; hashing the literal is
//! then one multiply, one load and one add however long it is.

/// The FNV-1a 64-bit offset basis (the initial hash state).
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an in-progress FNV-1a hash state. Start from
/// [`OFFSET`]; feeding chunks through repeated calls is identical to
/// one call over the concatenation.
#[must_use]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One-shot digest of a byte slice: `fnv1a(OFFSET, bytes)`.
#[must_use]
pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(OFFSET, bytes)
}

/// A constant byte string folded for FNV-1a (see the module docs):
/// [`Folded::apply`] equals [`fnv1a`] over the string from any state.
/// Build one with [`Folded::new`] in a `static`; each costs 2 KiB.
///
/// ```
/// use mhw_types::fnv::{fnv1a, Folded, OFFSET};
///
/// static COMMA: Folded = Folded::new(b", account: ");
/// let h = fnv1a(OFFSET, b"LoginRecord");
/// assert_eq!(COMMA.apply(h), fnv1a(h, b", account: "));
/// ```
#[derive(Debug)]
pub struct Folded {
    /// `PRIMEⁿ` for a string of length `n`.
    pow: u64,
    /// `table[x]` is `fnv1a(x, s) - x·PRIMEⁿ` for the low byte `x`.
    table: [u64; 256],
}

impl Folded {
    /// Fold `bytes`. Meant for compile time: `256·len` FNV steps.
    #[must_use]
    pub const fn new(bytes: &[u8]) -> Folded {
        let mut pow = 1u64;
        let mut i = 0;
        while i < bytes.len() {
            pow = pow.wrapping_mul(PRIME);
            i += 1;
        }
        let mut table = [0u64; 256];
        let mut x = 0;
        while x < 256 {
            let mut h = x as u64;
            let mut i = 0;
            while i < bytes.len() {
                h = (h ^ bytes[i] as u64).wrapping_mul(PRIME);
                i += 1;
            }
            table[x] = h.wrapping_sub((x as u64).wrapping_mul(pow));
            x += 1;
        }
        Folded { pow, table }
    }

    /// `fnv1a(hash, s)` for the folded string `s`.
    #[inline]
    #[must_use]
    pub fn apply(&self, hash: u64) -> u64 {
        hash.wrapping_mul(self.pow).wrapping_add(self.table[usize::from(hash as u8)])
    }
}

/// Incremental FNV-1a hasher — the workspace's standard digest for
/// datasets and state snapshots.
///
/// ```
/// use mhw_types::fnv::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"hello");
/// let once = h.finish();
/// let mut again = Fnv1a::new();
/// again.write(b"hel");
/// again.write(b"lo");
/// assert_eq!(once, again.finish(), "chunking never changes the digest");
/// ```
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// The FNV-1a 64-bit offset basis.
    pub const OFFSET: u64 = OFFSET;
    /// The FNV-1a 64-bit prime.
    pub const PRIME: u64 = PRIME;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Absorb `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(digest(b""), OFFSET);
        assert_eq!(Fnv1a::new().finish(), OFFSET);
    }

    #[test]
    fn published_reference_vectors() {
        // Official FNV-1a 64-bit test vectors (Noll's reference set).
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"handcrafted fraud and extortion";
        let mut h = Fnv1a::new();
        for chunk in data.chunks(3) {
            h.write(chunk);
        }
        assert_eq!(h.finish(), digest(data));
        assert_eq!(fnv1a(fnv1a(OFFSET, &data[..10]), &data[10..]), digest(data));
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(digest(b"shard-0"), digest(b"shard-1"));
        assert_ne!(digest(b"ab"), digest(b"ba"), "order matters");
    }

    proptest::proptest! {
        /// A folded literal hashes exactly like `fnv1a` over its bytes,
        /// from any state, at any length — empty and 1-byte included.
        #[test]
        fn folded_literals_match_fnv1a_from_any_state(
            bytes in proptest::collection::vec(0u8..=255, 0..40),
            h in 0u64..=u64::MAX,
        ) {
            let byte = [h.rotate_left(17) as u8];
            for literal in [&bytes[..], &[], &byte] {
                assert_eq!(Folded::new(literal).apply(h), fnv1a(h, literal));
            }
        }
    }
}
