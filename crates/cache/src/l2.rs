//! The device-wide L2 cache.
//!
//! "Texture, constant, and global memories share a last-level L2 cache
//! distributed over multiple streaming multiprocessors" (paper Section
//! II-A). Placement moves between those spaces therefore *interfere* in
//! L2 — one of the caching effects the models must capture. The L2
//! counts transactions per traffic source (the simulator reports the
//! texture path's share) and misses in total (the `L2_miss` event and
//! the AMAT miss ratio).

use hms_types::CacheGeometry;

use crate::setassoc::{AccessOutcome, SetAssocCache};

/// Which off-chip path a transaction entered L2 through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Source {
    Global,
    Texture,
    Constant,
}

impl L2Source {
    const COUNT: usize = 3;

    #[inline]
    fn idx(self) -> usize {
        match self {
            L2Source::Global => 0,
            L2Source::Texture => 1,
            L2Source::Constant => 2,
        }
    }
}

/// The shared L2 with per-source transaction counts.
#[derive(Debug, Clone)]
pub struct L2Cache {
    cache: SetAssocCache,
    accesses: [u64; L2Source::COUNT],
    misses: u64,
}

impl L2Cache {
    pub fn new(geometry: CacheGeometry) -> Self {
        L2Cache {
            cache: SetAssocCache::new(geometry),
            accesses: [0; L2Source::COUNT],
            misses: 0,
        }
    }

    /// One 32-byte-sector-aligned transaction from `source`; returns the
    /// outcome (a miss proceeds to DRAM).
    pub fn access(&mut self, addr: u64, source: L2Source) -> AccessOutcome {
        self.access_rw(addr, source, false)
    }

    /// [`Self::access`] with a write flag: stores dirty the line, and
    /// dirty evictions are counted as write-back traffic.
    pub fn access_rw(&mut self, addr: u64, source: L2Source, write: bool) -> AccessOutcome {
        let out = self.cache.access_rw(addr, write);
        self.accesses[source.idx()] += 1;
        if !out.is_hit() {
            self.misses += 1;
        }
        out
    }

    /// Dirty lines written back to DRAM so far.
    pub fn writebacks(&self) -> u64 {
        self.cache.dirty_evictions()
    }

    /// Total L2 transactions (the `L2_trans` event of the paper's
    /// Table I).
    pub fn transactions(&self) -> u64 {
        self.accesses.iter().sum()
    }

    pub fn transactions_from(&self, source: L2Source) -> u64 {
        self.accesses[source.idx()]
    }

    /// Total L2 misses (the `L2_miss` event; every miss goes to DRAM).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn flush(&mut self) {
        self.cache.flush();
    }

    /// Return to the just-constructed state in O(1) (generation bump in
    /// the underlying array; see [`SetAssocCache::reset`]) so the
    /// engine's replay path can reuse one allocation per thread instead
    /// of zeroing a fresh line array per candidate.
    pub fn reset(&mut self) {
        self.cache.reset();
        self.accesses = [0; L2Source::COUNT];
        self.misses = 0;
    }

    /// The geometry this cache was built with (used to validate that a
    /// pooled instance may be reset and reused rather than rebuilt).
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> L2Cache {
        L2Cache::new(CacheGeometry::new(8 * 1024, 128, 4))
    }

    #[test]
    fn per_source_accounting() {
        let mut c = l2();
        assert!(!c.access(0, L2Source::Global).is_hit());
        assert!(c.access(0, L2Source::Texture).is_hit()); // same line
        assert!(!c.access(4096, L2Source::Constant).is_hit());
        assert_eq!(c.transactions(), 3);
        assert_eq!(c.transactions_from(L2Source::Global), 1);
        assert_eq!(c.transactions_from(L2Source::Texture), 1);
        assert_eq!(c.transactions_from(L2Source::Constant), 1);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn writeback_counting_through_l2() {
        let mut c = l2();
        c.access_rw(0, L2Source::Global, true);
        // Stream enough clean lines through set 0 to evict the dirty one.
        for i in 1..=4u64 {
            c.access_rw(i * 8 * 1024, L2Source::Global, false);
        }
        assert!(c.writebacks() >= 1);
    }

    #[test]
    fn sources_share_capacity_and_interfere() {
        // Fill L2 from the global path, then show texture traffic evicts
        // it — the interference effect of moving data between spaces.
        let mut c = l2();
        c.access(0, L2Source::Global);
        assert!(c.access(0, L2Source::Global).is_hit());
        // Stream enough texture lines to evict everything.
        for i in 0..1024u64 {
            c.access(100_000 + i * 128, L2Source::Texture);
        }
        assert!(!c.access(0, L2Source::Global).is_hit());
    }
}
