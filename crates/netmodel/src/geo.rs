//! Country IPv4 allocations and geolocation.
//!
//! Each modelled country owns a disjoint set of address blocks inside a
//! country-unique /8 (a deliberately clean version of real RIR
//! allocations — the measurement code only ever needs block→country
//! lookups, never routing). Geolocating an address binary-searches the
//! block table by base address, exactly how a GeoIP database behaves
//! from the consumer's perspective.

use mhw_simclock::SimRng;
use mhw_types::{CountryCode, IpAddr, IpBlock};

/// Number of /16 blocks each country receives inside its /8.
const BLOCKS_PER_COUNTRY: u32 = 8;

/// A geolocation database over the synthetic address plan.
#[derive(Debug, Clone)]
pub struct GeoDb {
    /// The plan, country by country, in allocation order.
    entries: Vec<(IpBlock, CountryCode)>,
    /// `entries` sorted by base address, for [`GeoDb::locate`].
    sorted: Vec<(IpBlock, CountryCode)>,
    /// Each country's blocks in plan order, indexed by `country as
    /// usize` — [`GeoDb::blocks_for`] without the scan.
    by_country: Vec<Vec<IpBlock>>,
}

impl Default for GeoDb {
    fn default() -> Self {
        Self::new()
    }
}

impl GeoDb {
    /// Build the standard address plan: country `i` owns
    /// `BLOCKS_PER_COUNTRY` /16s inside the `(40 + i).0.0.0/8` space.
    /// Octet 40 keeps the plan clear of common private/reserved ranges,
    /// which avoids confusing anyone eyeballing logs.
    pub fn new() -> Self {
        let mut entries = Vec::new();
        for (i, country) in CountryCode::ALL.iter().enumerate() {
            let first_octet = 40 + i as u8;
            for b in 0..BLOCKS_PER_COUNTRY {
                // Spread the /16s across the /8 (second octet stride 29
                // so blocks are non-adjacent, like real allocations).
                let second = (b * 29 % 256) as u8;
                let block = IpBlock::new(IpAddr::new(first_octet, second, 0, 0), 16);
                entries.push((block, *country));
            }
        }
        let mut sorted = entries.clone();
        sorted.sort_by_key(|(block, _)| block.base());
        let mut by_country = vec![Vec::new(); CountryCode::ALL.len()];
        for (block, country) in &entries {
            by_country[*country as usize].push(*block);
        }
        GeoDb { entries, sorted, by_country }
    }

    /// All blocks allocated to `country`, in plan order.
    pub fn blocks_for(&self, country: CountryCode) -> Vec<IpBlock> {
        self.entries
            .iter()
            .filter(|(_, c)| *c == country)
            .map(|(b, _)| *b)
            .collect()
    }

    /// Geolocate an address. `None` for addresses outside the plan
    /// (which the simulator never emits, but logs are data: be total).
    pub fn locate(&self, ip: IpAddr) -> Option<CountryCode> {
        // The blocks are disjoint, so the only one that can hold `ip`
        // is the last whose base is at or below it.
        let after = self.sorted.partition_point(|(b, _)| b.base() <= ip);
        let (block, country) = self.sorted[..after].last()?;
        block.contains(ip).then_some(*country)
    }

    /// `country`'s blocks, in [`GeoDb::blocks_for`]'s order.
    fn country_blocks(&self, country: CountryCode) -> &[IpBlock] {
        &self.by_country[country as usize]
    }

    /// Draw a random address located in `country`.
    pub fn random_ip(&self, country: CountryCode, rng: &mut SimRng) -> IpAddr {
        let blocks = self.country_blocks(country);
        let block = blocks[rng.below(blocks.len() as u64) as usize];
        // Avoid .0 and .255 hosts for cosmetic realism.
        let host = rng.range_inclusive(1, block.size() - 2);
        block.addr(host)
    }

    /// Deterministically assign the `i`-th host address in `country`
    /// (used to give long-lived agents stable addresses).
    pub fn stable_ip(&self, country: CountryCode, i: u64) -> IpAddr {
        let blocks = self.country_blocks(country);
        let block = blocks[(i % blocks.len() as u64) as usize];
        block.addr(1 + i / blocks.len() as u64)
    }
}

/// The linear scan `locate` replaced: the first plan block holding `ip`.
#[cfg(test)]
fn locate_by_scan(db: &GeoDb, ip: IpAddr) -> Option<CountryCode> {
    db.entries.iter().find(|(b, _)| b.contains(ip)).map(|(_, c)| *c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_country_has_blocks() {
        let db = GeoDb::new();
        for c in CountryCode::ALL {
            assert_eq!(db.blocks_for(c).len(), BLOCKS_PER_COUNTRY as usize, "{c}");
        }
    }

    #[test]
    fn blocks_are_disjoint() {
        let db = GeoDb::new();
        for (i, (a, _)) in db.entries.iter().enumerate() {
            for (b, _) in db.entries.iter().skip(i + 1) {
                assert!(
                    !a.contains(b.base()) && !b.contains(a.base()),
                    "{a} overlaps {b}"
                );
            }
        }
    }

    #[test]
    fn locate_round_trips_random_ips() {
        let db = GeoDb::new();
        let mut rng = SimRng::from_seed(1);
        for c in CountryCode::ALL {
            for _ in 0..20 {
                let ip = db.random_ip(c, &mut rng);
                assert_eq!(db.locate(ip), Some(c), "{ip} should be in {c}");
            }
        }
    }

    #[test]
    fn locate_matches_the_scan_at_every_block_edge() {
        let db = GeoDb::new();
        for (block, _) in &db.entries {
            let first = block.base().0;
            let last = first + (block.size() - 1) as u32;
            let edges =
                [first.wrapping_sub(1), first, first + 1, last - 1, last, last.wrapping_add(1)];
            for ip in edges.map(IpAddr) {
                assert_eq!(db.locate(ip), locate_by_scan(&db, ip), "{ip}");
            }
        }
        for ip in [IpAddr(0), IpAddr(u32::MAX)] {
            assert_eq!(db.locate(ip), None);
        }
    }

    #[test]
    fn country_blocks_are_blocks_for() {
        let db = GeoDb::new();
        for c in CountryCode::ALL {
            assert_eq!(db.country_blocks(c), db.blocks_for(c), "{c}");
        }
    }

    #[test]
    fn locate_unknown_is_none() {
        let db = GeoDb::new();
        assert_eq!(db.locate(IpAddr::new(8, 8, 8, 8)), None);
        assert_eq!(db.locate(IpAddr::new(192, 168, 0, 1)), None);
    }

    #[test]
    fn stable_ips_are_stable_and_located() {
        let db = GeoDb::new();
        let a = db.stable_ip(CountryCode::NG, 17);
        let b = db.stable_ip(CountryCode::NG, 17);
        assert_eq!(a, b);
        assert_eq!(db.locate(a), Some(CountryCode::NG));
        // Distinct indices give distinct addresses (within plan capacity).
        assert_ne!(db.stable_ip(CountryCode::NG, 1), db.stable_ip(CountryCode::NG, 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every address handed out by the plan geolocates back to the
        /// country it was allocated for.
        #[test]
        fn allocation_geolocates_home(country_idx in 0usize..CountryCode::ALL.len(), host in 0u64..1_000_000) {
            let db = GeoDb::new();
            let country = CountryCode::ALL[country_idx];
            let ip = db.stable_ip(country, host);
            prop_assert_eq!(db.locate(ip), Some(country));
        }

        /// Geolocation is a partial function: any IP maps to at most one
        /// country (blocks are disjoint), and `locate` names it.
        #[test]
        fn locate_is_unambiguous(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255, d in 0u8..=255) {
            let db = GeoDb::new();
            let ip = IpAddr::new(a, b, c, d);
            let hits: Vec<CountryCode> = CountryCode::ALL
                .into_iter()
                .filter(|country| db.blocks_for(*country).iter().any(|blk| blk.contains(ip)))
                .collect();
            prop_assert!(hits.len() <= 1);
            prop_assert_eq!(db.locate(ip), hits.first().copied());
        }

        /// The binary search agrees with the linear scan inside and
        /// around the plan's /8s, where most addresses are near a block.
        #[test]
        fn locate_matches_the_scan(a in 38u8..60, b in 0u8..=255, c in 0u8..=255, d in 0u8..=255) {
            let db = GeoDb::new();
            let ip = IpAddr::new(a, b, c, d);
            prop_assert_eq!(db.locate(ip), locate_by_scan(&db, ip));
        }

        /// Drawing addresses from the per-country slices picks the same
        /// blocks as drawing them from `blocks_for`, so the RNG streams
        /// and stable addresses are unchanged.
        #[test]
        fn addresses_follow_blocks_for(
            country_idx in 0usize..CountryCode::ALL.len(),
            host in 0u64..1_000_000,
            seed in 0u64..1_000,
        ) {
            let db = GeoDb::new();
            let country = CountryCode::ALL[country_idx];
            let blocks = db.blocks_for(country);
            let n = blocks.len() as u64;
            let stable = blocks[(host % n) as usize].addr(1 + host / n);
            prop_assert_eq!(db.stable_ip(country, host), stable);
            let (mut rng, mut reference) = (SimRng::from_seed(seed), SimRng::from_seed(seed));
            let block = blocks[reference.below(n) as usize];
            let expected = block.addr(reference.range_inclusive(1, block.size() - 2));
            prop_assert_eq!(db.random_ip(country, &mut rng), expected);
        }
    }
}
