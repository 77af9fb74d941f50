//! The per-SM texture (read-only data) cache.
//!
//! Texture fetches go through a dedicated cache optimized for 2-D spatial
//! locality; the locality itself comes from the block-linear address
//! layout ([`hms_types::layout::tex2d_offset`]) — by the time addresses
//! reach this cache they are plain bytes, so the cache model is an
//! ordinary set-associative array with small (32-byte) lines, as in
//! GPGPUSim.

use hms_types::CacheGeometry;

use crate::setassoc::SetAssocCache;

/// Result of one warp-level texture fetch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TexAccessResult {
    /// Distinct cache lines touched by the warp.
    pub transactions: u32,
    /// Lines that missed and continue to L2.
    pub misses: u32,
    /// Line-aligned byte addresses of the missing lines.
    pub missed_lines: Vec<u64>,
}

/// Per-SM texture cache. It keeps no lifetime counters: each fetch
/// returns its own transactions and misses, which is all any caller
/// reads.
#[derive(Debug, Clone)]
pub struct TextureCache {
    cache: SetAssocCache,
}

impl TextureCache {
    pub fn new(geometry: CacheGeometry) -> Self {
        TextureCache {
            cache: SetAssocCache::new(geometry),
        }
    }

    /// Serve one warp texture fetch given active lanes' byte addresses.
    pub fn access_warp(&mut self, lane_addrs: &[u64]) -> TexAccessResult {
        if lane_addrs.is_empty() {
            return TexAccessResult::default();
        }
        let line = self.cache.geometry().line_bytes;
        let mut lines: Vec<u64> = lane_addrs.iter().map(|a| a / line * line).collect();
        lines.sort_unstable();
        lines.dedup();
        self.access_lines(&lines)
    }

    /// Serve one warp fetch already deduplicated to sorted, line-aligned
    /// byte addresses — the form the incremental search engine memoizes.
    /// [`access_warp`](Self::access_warp) delegates here, so both entry
    /// points apply identical state transitions.
    pub fn access_lines(&mut self, lines: &[u64]) -> TexAccessResult {
        let mut missed_lines = Vec::new();
        let (transactions, misses) = self.access_lines_into(lines, &mut missed_lines);
        TexAccessResult {
            transactions,
            misses,
            missed_lines,
        }
    }

    /// Allocation-free [`access_lines`](Self::access_lines): missing
    /// lines land in the caller's `missed` buffer (cleared first), and
    /// the `(transactions, misses)` pair is returned directly. The
    /// engine's lane-batched replay calls this once per texture body
    /// event per lane, so the result buffer must be reusable scratch.
    pub fn access_lines_into(&mut self, lines: &[u64], missed: &mut Vec<u64>) -> (u32, u32) {
        missed.clear();
        if lines.is_empty() {
            return (0, 0);
        }
        let mut misses = 0u32;
        for &l in lines {
            if !self.cache.access(l).is_hit() {
                misses += 1;
                missed.push(l);
            }
        }
        (lines.len() as u32, misses)
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
    use hms_types::layout::{row_major_offset, tex2d_offset};

    fn tc() -> TextureCache {
        TextureCache::new(CacheGeometry::new(2048, 32, 2))
    }

    #[test]
    fn warp_reading_one_line_is_one_transaction() {
        let mut c = tc();
        let addrs: Vec<u64> = (0..32u64).map(|i| i % 8 * 4).collect(); // 32 bytes
        let r = c.access_warp(&addrs);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.misses, 1);
        let r2 = c.access_warp(&addrs);
        assert_eq!(r2.misses, 0);
    }

    #[test]
    fn tiled_layout_beats_row_major_for_2d_block_reuse() {
        // A warp reading an 8x4 2-D block of a wide array, twice. With
        // row-major addressing the four row segments sit 4 KiB apart and
        // collide in the same cache set, so the re-read thrashes; the
        // block-linear texture layout packs the block into adjacent
        // lines that spread over sets and are retained. This is the 2-D
        // spatial locality that makes Texture2D placements win for
        // neighbourhood access patterns (stencils, matrixMul operands).
        let width = 1024u64;
        let block = |f: &dyn Fn(u64, u64) -> u64| -> Vec<u64> {
            (0..4u64)
                .flat_map(|y| (0..8u64).map(move |x| (x, y)))
                .map(|(x, y)| f(x, y))
                .collect()
        };
        let rm_addrs = block(&|x, y| row_major_offset(x, y, width, 4));
        let tex_addrs = block(&|x, y| tex2d_offset(x, y, width, 4, 8));

        let mut c_rm = tc();
        let mut c_tex = tc();
        let rm1 = c_rm.access_warp(&rm_addrs);
        let tex1 = c_tex.access_warp(&tex_addrs);
        // Cold pass: same transaction and miss counts.
        assert_eq!(rm1.transactions, 4);
        assert_eq!(tex1.transactions, 4);
        // Warm pass: the tiled layout retains the whole block.
        let rm2 = c_rm.access_warp(&rm_addrs);
        let tex2 = c_tex.access_warp(&tex_addrs);
        assert_eq!(tex2.misses, 0);
        assert!(rm2.misses > 0, "row-major set collisions must thrash");
    }

    #[test]
    fn empty_warp_is_noop() {
        let mut c = tc();
        assert_eq!(c.access_warp(&[]), TexAccessResult::default());
        assert_eq!(c.access_lines(&[]), TexAccessResult::default());
        // The empty fetches touched nothing: the first real one is cold.
        assert_eq!(c.access_warp(&[0]).misses, 1);
    }

    #[test]
    fn access_lines_matches_access_warp() {
        // Two caches fed the same stream through the two entry points
        // must stay in lockstep — the engine's replay depends on it.
        let mut via_warp = tc();
        let mut via_lines = tc();
        let line = 32u64;
        let warps: Vec<Vec<u64>> = (0..16u64)
            .map(|i| (0..32u64).map(|l| (i * 37 + l * 13) % 4096).collect())
            .collect();
        for addrs in &warps {
            let mut lines: Vec<u64> = addrs.iter().map(|a| a / line * line).collect();
            lines.sort_unstable();
            lines.dedup();
            assert_eq!(via_warp.access_warp(addrs), via_lines.access_lines(&lines));
        }
    }

    #[test]
    fn flush_forgets_lines() {
        let mut c = tc();
        c.access_warp(&[0]);
        c.flush();
        let r = c.access_warp(&[0]);
        assert_eq!(r.misses, 1);
    }
}
