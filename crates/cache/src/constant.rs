//! The per-SM constant cache with broadcast access semantics.
//!
//! Constant memory is built for *uniform* access: when every active lane
//! of a warp reads the same address, the cache serves all 32 lanes with
//! one transaction. Divergent addresses serialize — "address divergence in
//! an indexed constant load" is instruction-replay cause (3) in the
//! paper, and "constant cache misses" is cause (2).

use hms_types::CacheGeometry;

use crate::setassoc::SetAssocCache;

/// Result of one warp-level constant access.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConstAccessResult {
    /// Distinct addresses served (>= 1 for any active warp access).
    pub transactions: u32,
    /// Cache misses among those transactions; each miss continues to L2.
    pub misses: u32,
    /// Instruction replays: divergence replays (`transactions - 1`) plus
    /// one per miss, per the paper's replay quantification rules (2)–(3).
    pub replays: u32,
    /// Line-aligned byte addresses that missed and continue to L2.
    pub missed_lines: Vec<u64>,
}

/// Per-SM constant cache. It keeps no lifetime counters: each access
/// returns its own transactions and misses, which is all any caller
/// reads.
#[derive(Debug, Clone)]
pub struct ConstantCache {
    cache: SetAssocCache,
}

impl ConstantCache {
    pub fn new(geometry: CacheGeometry) -> Self {
        ConstantCache {
            cache: SetAssocCache::new(geometry),
        }
    }

    /// Serve one warp constant load given the active lanes' byte
    /// addresses. The addresses are deduplicated to whole cache-line
    /// granules first (the broadcast unit matches on the fetched word).
    pub fn access_warp(&mut self, lane_addrs: &[u64]) -> ConstAccessResult {
        if lane_addrs.is_empty() {
            return ConstAccessResult::default();
        }
        // Distinct addresses at word granularity define the serialized
        // broadcast groups.
        let mut distinct: Vec<u64> = lane_addrs.iter().map(|a| a / 4 * 4).collect();
        distinct.sort_unstable();
        distinct.dedup();
        self.access_words(&distinct)
    }

    /// Serve one warp load already deduplicated to sorted, word-aligned
    /// byte addresses — the form the incremental search engine memoizes.
    /// [`access_warp`](Self::access_warp) delegates here, so both entry
    /// points apply identical state transitions.
    pub fn access_words(&mut self, words: &[u64]) -> ConstAccessResult {
        let mut missed_lines = Vec::new();
        let (transactions, misses) = self.access_words_into(words, &mut missed_lines);
        ConstAccessResult {
            transactions,
            misses,
            replays: transactions.saturating_sub(1) + misses,
            missed_lines,
        }
    }

    /// Allocation-free [`access_words`](Self::access_words): missed
    /// line addresses land in the caller's `missed` buffer (cleared
    /// first), and the `(transactions, misses)` pair is returned
    /// directly — the replay's divergence replays are `transactions -
    /// 1` and its miss replays `misses`, both derivable by the caller.
    /// The engine's lane-batched replay calls this once per constant
    /// body event per lane, so the result buffer must be reusable
    /// scratch.
    pub fn access_words_into(&mut self, words: &[u64], missed: &mut Vec<u64>) -> (u32, u32) {
        missed.clear();
        if words.is_empty() {
            return (0, 0);
        }
        let mut misses = 0u32;
        let line = self.cache.geometry().line_bytes;
        // Each distinct word probes the cache (line granularity inside).
        for &addr in words {
            if !self.cache.access(addr).is_hit() {
                misses += 1;
                let la = addr / line * line;
                if missed.last() != Some(&la) {
                    missed.push(la);
                }
            }
        }
        (words.len() as u32, misses)
    }

    pub fn flush(&mut self) {
        self.cache.flush();
    }

    /// O(1) return to the just-constructed state (see
    /// [`SetAssocCache::reset`]); lets the engine reuse per-SM cache
    /// allocations across replays.
    pub fn reset(&mut self) {
        self.cache.reset();
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> &CacheGeometry {
        self.cache.geometry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> ConstantCache {
        ConstantCache::new(CacheGeometry::new(1024, 64, 2))
    }

    #[test]
    fn uniform_access_is_one_transaction() {
        let mut c = cc();
        let addrs = vec![128u64; 32];
        let r = c.access_warp(&addrs);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.misses, 1); // cold
        assert_eq!(r.replays, 1); // the miss replays once
        let r2 = c.access_warp(&addrs);
        assert_eq!(r2.misses, 0);
        assert_eq!(r2.replays, 0); // warm uniform access is free
    }

    #[test]
    fn divergent_access_serializes() {
        let mut c = cc();
        // 32 lanes reading 32 different words: 32 transactions, 31
        // divergence replays.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        let r = c.access_warp(&addrs);
        assert_eq!(r.transactions, 32);
        assert_eq!(r.divergence_replays_check(), 31);
        // 32 words span 2 x 64-byte lines -> 2 cold misses... but each
        // distinct word probes the cache, and words in an already-fetched
        // line hit. First word of each line misses.
        assert_eq!(r.misses, 2);
        assert_eq!(r.replays, 31 + 2);
    }

    #[test]
    fn two_address_groups() {
        let mut c = cc();
        let mut addrs = vec![0u64; 16];
        addrs.extend(vec![256u64; 16]);
        let r = c.access_warp(&addrs);
        assert_eq!(r.transactions, 2);
        assert_eq!(r.replays, 1 + 2); // 1 divergence + 2 cold misses
    }

    #[test]
    fn empty_warp_is_noop() {
        let mut c = cc();
        let r = c.access_warp(&[]);
        assert_eq!(r, ConstAccessResult::default());
        assert_eq!(c.access_words(&[]), ConstAccessResult::default());
        // The empty accesses touched nothing: the first real one is cold.
        assert_eq!(c.access_warp(&[0]).misses, 1);
    }

    #[test]
    fn access_words_matches_access_warp() {
        let mut via_warp = cc();
        let mut via_words = cc();
        let warps: Vec<Vec<u64>> = (0..16u64)
            .map(|i| (0..32u64).map(|l| (i * 29 + l * (i % 3)) % 2048).collect())
            .collect();
        for addrs in &warps {
            let mut words: Vec<u64> = addrs.iter().map(|a| a / 4 * 4).collect();
            words.sort_unstable();
            words.dedup();
            assert_eq!(via_warp.access_warp(addrs), via_words.access_words(&words));
        }
    }

    impl ConstAccessResult {
        fn divergence_replays_check(&self) -> u32 {
            self.transactions - 1
        }
    }
}
