//! Generic set-associative cache with true-LRU replacement.
//!
//! The replacement policy matches what the paper assumes for the GPU L2
//! ("LRU-like policy at L2 cache for off-chip memories", Section I). Tags
//! are stored per set with a monotonically increasing use-stamp.

use hms_types::CacheGeometry;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    Hit,
    /// Miss; `evicted` reports whether a valid line was displaced.
    Miss {
        evicted: bool,
    },
}

impl AccessOutcome {
    #[inline]
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A set-associative LRU cache over byte addresses.
///
/// Line state is struct-of-arrays: the hit path scans a contiguous run
/// of liveness marks and tags (two cache lines for 16 ways) instead of
/// striding over 32-byte line structs, and `last_use` / dirty bits are
/// only touched on the way that hits. Address decomposition is
/// strength-reduced: power-of-two line sizes and set counts index by
/// shift/mask, and a non-power-of-two set count (the K80 L2 has 768
/// sets) costs a single division — the quotient *is* the tag and the
/// remainder the set — where the naive `%` + `/` pair cost two.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: u64,
    ways: usize,
    /// `log2(line_bytes)` when the line size is a power of two.
    line_shift: Option<u32>,
    set_index: SetIndexer,
    tags: Vec<u64>,
    last_use: Vec<u64>,
    /// Per line: liveness marker. A line is live iff its mark equals
    /// `live_mark`; 0 is never a live mark, so freshly-zeroed and
    /// flushed lines are dead in every generation. [`Self::reset`]
    /// bumps `live_mark`, lazily invalidating every line in O(1) — one
    /// u32 compare replaces the old `valid && gen == gen` pair.
    marks: Vec<u32>,
    dirty: Vec<bool>,
    live_mark: u32,
    /// Monotone use-stamp; bumped once per access, so it doubles as the
    /// access counter.
    clock: u64,
    dirty_evictions: u64,
}

/// How an address's line number splits into `(set, tag)`. Power-of-two
/// set counts shift/mask; everything else divides once — and that
/// division is strength-reduced to a 128-bit reciprocal multiply
/// (Granlund–Montgomery round-up method) for the quotients the
/// exactness bound covers. Real GPU geometries have non-power-of-two
/// set counts (the K80 L2 has 768 sets, its texture cache 96), so this
/// is the hot path of every cache access in the replay engine.
#[derive(Debug, Clone, Copy)]
enum SetIndexer {
    /// `sets` is a power of two: set = mask, tag = shift.
    Pow2(u32),
    /// `m = floor(2^64 / sets) + 1`; `x * m >> 64 == x / sets` exactly
    /// for every `x < limit` (`limit = floor(2^64 / e)` with
    /// `e = m * sets - 2^64`). Larger line numbers — beyond any real
    /// address stream — fall back to the hardware divide.
    Magic { m: u64, limit: u64 },
}

impl SetIndexer {
    fn for_sets(sets: u64) -> SetIndexer {
        if sets.is_power_of_two() {
            return SetIndexer::Pow2(sets.trailing_zeros());
        }
        // Round-up reciprocal: exact because a non-power-of-two divisor
        // never divides 2^64, so e >= 1 (and e <= sets).
        let two64 = 1u128 << 64;
        let m = (two64 / u128::from(sets) + 1) as u64;
        let e = (u128::from(m) * u128::from(sets) - two64) as u64;
        SetIndexer::Magic {
            m,
            limit: (two64 / u128::from(e)) as u64,
        }
    }

    /// `line_addr / sets` (the tag); the caller recovers the set as
    /// `line_addr - tag * sets`.
    #[inline]
    fn quotient(self, line_addr: u64, sets: u64) -> u64 {
        match self {
            SetIndexer::Pow2(s) => line_addr >> s,
            SetIndexer::Magic { m, limit } => {
                if line_addr < limit {
                    ((u128::from(line_addr) * u128::from(m)) >> 64) as u64
                } else {
                    line_addr / sets
                }
            }
        }
    }
}

impl SetAssocCache {
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets().max(1);
        let ways = geometry.ways.max(1) as usize;
        let lines = sets as usize * ways;
        let pow2_shift = |n: u64| {
            if n.is_power_of_two() {
                Some(n.trailing_zeros())
            } else {
                None
            }
        };
        SetAssocCache {
            sets,
            ways,
            line_shift: pow2_shift(geometry.line_bytes),
            set_index: SetIndexer::for_sets(sets),
            geometry,
            tags: vec![0; lines],
            last_use: vec![0; lines],
            marks: vec![0; lines],
            dirty: vec![false; lines],
            live_mark: 1,
            clock: 0,
            dirty_evictions: 0,
        }
    }

    /// Return the cache to its just-constructed state without touching
    /// the line arrays: the liveness mark advances, so every line is
    /// lazily invalid, and all counters restart from zero. The observable
    /// behaviour after `reset()` is bit-identical to a fresh
    /// [`SetAssocCache::new`] with the same geometry — stale lines rank
    /// exactly like invalid ones in victim selection (both key to 0) and
    /// are overwritten wholesale on fill. Unlike [`Self::flush`], no
    /// write-backs are counted: this models reuse of the allocation, not
    /// a kernel-boundary invalidation.
    pub fn reset(&mut self) {
        if self.live_mark == u32::MAX {
            // One eager sweep per 2^32 resets keeps the wrap from
            // resurrecting lines stamped with a recycled mark.
            self.marks.fill(0);
            self.dirty.fill(false);
            self.live_mark = 1;
        } else {
            self.live_mark += 1;
        }
        self.clock = 0;
        self.dirty_evictions = 0;
    }

    /// Split `addr` into the index of its set's first way and its tag.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line_addr = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.geometry.line_bytes,
        };
        // Quotient = tag, remainder = set: one (strength-reduced)
        // division covers both.
        let tag = self.set_index.quotient(line_addr, self.sets);
        let set = (line_addr - tag * self.sets) as usize;
        (set * self.ways, tag)
    }

    /// Access the line containing `addr`; allocate on miss (loads and
    /// stores are both write-allocate at the GPU L2).
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.access_rw(addr, false)
    }

    /// [`Self::access`] with an explicit read/write flag: writes mark the
    /// line dirty (write-back policy), and evicting a dirty line counts
    /// a write-back — the off-chip write traffic a pure read-miss model
    /// would miss.
    pub fn access_rw(&mut self, addr: u64, write: bool) -> AccessOutcome {
        // Dispatch to a fixed-associativity body for the way counts real
        // geometries use (K80: L2 16, texture/constant 4): with `W`
        // const the compiler fully unrolls and vectorizes the way scans,
        // which sit under every cache access the replay engine makes.
        match self.ways {
            4 => self.access_rw_ways::<4>(addr, write),
            8 => self.access_rw_ways::<8>(addr, write),
            16 => self.access_rw_ways::<16>(addr, write),
            _ => self.access_rw_ways_dyn(addr, write),
        }
    }

    /// Fixed-associativity access body. Requires `self.ways == W`.
    /// Behaviour is identical to [`Self::access_rw_ways_dyn`]: the hit
    /// mask's first set bit is the first matching way (what `position`
    /// finds), and the victim loop's strict `<` keeps the first minimal
    /// way (what `min_by_key` keeps).
    #[inline]
    fn access_rw_ways<const W: usize>(&mut self, addr: u64, write: bool) -> AccessOutcome {
        debug_assert_eq!(self.ways, W);
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        let mark = self.live_mark;

        let marks: &[u32; W] = self.marks[base..base + W].try_into().expect("way run");
        let tags: &[u64; W] = self.tags[base..base + W].try_into().expect("way run");
        // Tag-only match mask first (a branchless compare the compiler
        // can vectorize over the fixed-width run); liveness is verified
        // only on the rare candidate ways whose tag matches. Walking the
        // mask in bit order keeps "first matching live way" semantics —
        // a dead way with a stale matching tag is skipped, exactly as
        // the combined scan would.
        let mut cand = 0u32;
        for w in 0..W {
            cand |= u32::from(tags[w] == tag) << w;
        }
        while cand != 0 {
            let w = cand.trailing_zeros() as usize;
            if marks[w] == mark {
                let w = base + w;
                self.last_use[w] = self.clock;
                self.dirty[w] |= write;
                return AccessOutcome::Hit;
            }
            cand &= cand - 1;
        }
        // Miss: fill the invalid way, else evict true-LRU. Stale lines
        // key to 0 just like invalid ones (live `last_use` is >= 1), so
        // a reset cache picks victims in exactly the order a fresh cache
        // would.
        let last_use: &[u64; W] = self.last_use[base..base + W].try_into().expect("way run");
        let mut victim = 0;
        let mut best = u64::MAX;
        for w in 0..W {
            let key = if marks[w] == mark { last_use[w] } else { 0 };
            if key < best {
                best = key;
                victim = w;
            }
        }
        self.fill(base + victim, tag, write)
    }

    /// Runtime-associativity fallback for geometries outside the
    /// specialized way counts.
    fn access_rw_ways_dyn(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        let (base, tag) = self.locate(addr);
        let mark = self.live_mark;

        // Hit path: scan marks + tags only (as slices, so the way loop
        // carries no bounds checks); the other arrays are touched just
        // for the hitting way.
        let marks = &self.marks[base..base + self.ways];
        let tags = &self.tags[base..base + self.ways];
        if let Some(w) = marks
            .iter()
            .zip(tags)
            .position(|(&mk, &tg)| mk == mark && tg == tag)
        {
            let w = base + w;
            self.last_use[w] = self.clock;
            self.dirty[w] |= write;
            return AccessOutcome::Hit;
        }
        // Miss: strict `<` keeps the first minimal way, matching
        // `min_by_key`.
        let mut victim = base;
        let mut best = u64::MAX;
        for (w, (&mk, &lu)) in marks
            .iter()
            .zip(&self.last_use[base..base + self.ways])
            .enumerate()
        {
            let key = if mk == mark { lu } else { 0 };
            if key < best {
                best = key;
                victim = base + w;
            }
        }
        self.fill(victim, tag, write)
    }

    /// Install `tag` in `victim` (a global line index), accounting the
    /// eviction of whatever live line it displaces.
    #[inline]
    fn fill(&mut self, victim: usize, tag: u64, write: bool) -> AccessOutcome {
        let evicted = self.marks[victim] == self.live_mark;
        if evicted && self.dirty[victim] {
            self.dirty_evictions += 1;
        }
        self.tags[victim] = tag;
        self.marks[victim] = self.live_mark;
        self.dirty[victim] = write;
        self.last_use[victim] = self.clock;
        AccessOutcome::Miss { evicted }
    }

    /// Non-mutating lookup: would `addr` hit right now?
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.locate(addr);
        (base..base + self.ways).any(|w| self.marks[w] == self.live_mark && self.tags[w] == tag)
    }

    /// Invalidate everything (kernel-launch boundary). Dirty lines are
    /// counted as write-backs on their way out.
    pub fn flush(&mut self) {
        for w in 0..self.marks.len() {
            if self.marks[w] == self.live_mark && self.dirty[w] {
                self.dirty_evictions += 1;
            }
            self.marks[w] = 0;
            self.dirty[w] = false;
        }
    }

    /// Dirty lines evicted (or flushed) so far: the write-back traffic
    /// of the write-back, write-allocate policy.
    pub fn dirty_evictions(&self) -> u64 {
        self.dirty_evictions
    }

    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    pub fn accesses(&self) -> u64 {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_types::CacheGeometry;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64-byte lines = 256 bytes.
        SetAssocCache::new(CacheGeometry::new(256, 64, 2))
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0), AccessOutcome::Miss { evicted: false });
        assert_eq!(c.access(0), AccessOutcome::Hit);
        assert_eq!(c.access(63), AccessOutcome::Hit); // same line
        assert_eq!(c.access(64), AccessOutcome::Miss { evicted: false }); // next line
        assert_eq!(c.accesses(), 4);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with even line index. Fill both ways.
        c.access(0); // line 0 -> set 0
        c.access(128); // line 2 -> set 0
        c.access(0); // touch line 0, line 2 becomes LRU
        assert_eq!(c.access(256), AccessOutcome::Miss { evicted: true }); // line 4 evicts line 2
        assert!(c.probe(0));
        assert!(!c.probe(128));
        assert!(c.probe(256));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(64); // set 1
        c.access(128); // set 0
        c.access(192); // set 1
                       // Both sets full, nothing evicted yet.
        assert!(c.probe(0) && c.probe(64) && c.probe(128) && c.probe(192));
    }

    #[test]
    fn flush_invalidates() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.access(0), AccessOutcome::Miss { evicted: false });
    }

    #[test]
    fn miss_ratio_tracks_reuse() {
        let mut c = tiny();
        let misses = (0..10).filter(|_| !c.access(0).is_hit()).count();
        assert_eq!(misses, 1);
        assert_eq!(c.accesses(), 10);
    }

    #[test]
    fn dirty_eviction_accounting() {
        let mut c = tiny();
        // Write line 0 (set 0), then stream two clean lines through the
        // same set: evicting the dirty line counts one write-back.
        c.access_rw(0, true);
        c.access_rw(128, false);
        c.access_rw(256, false); // evicts LRU = dirty line 0
        assert_eq!(c.dirty_evictions(), 1);
        // Clean evictions don't count.
        c.access_rw(384, false);
        assert_eq!(c.dirty_evictions(), 1);
    }

    #[test]
    fn flush_writes_back_dirty_lines() {
        let mut c = tiny();
        c.access_rw(0, true);
        c.access_rw(64, true);
        c.access_rw(128, false);
        c.flush();
        assert_eq!(c.dirty_evictions(), 2);
    }

    #[test]
    fn reset_is_bit_identical_to_fresh() {
        // Drive a pseudo-random mixed read/write stream, reset, then
        // replay a second stream against both the reset cache and a
        // fresh one: every outcome, probe, and count must match.
        let mut reset = tiny();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for _ in 0..200 {
            let a = step() % 4096;
            let w = step() % 2 == 0;
            reset.access_rw(a, w);
        }
        reset.reset();
        let mut fresh = tiny();
        assert_eq!(reset.accesses(), 0);
        assert_eq!(reset.dirty_evictions(), 0);
        for _ in 0..400 {
            let a = step() % 4096;
            let w = step() % 2 == 0;
            assert_eq!(reset.access_rw(a, w), fresh.access_rw(a, w));
            let p = step() % 4096;
            assert_eq!(reset.probe(p), fresh.probe(p));
        }
        assert_eq!(reset.accesses(), fresh.accesses());
        assert_eq!(reset.dirty_evictions(), fresh.dirty_evictions());
        // flush after reset counts only post-reset dirty lines.
        reset.flush();
        fresh.flush();
        assert_eq!(reset.dirty_evictions(), fresh.dirty_evictions());
    }

    #[test]
    fn capacity_thrash_produces_all_misses() {
        let mut c = tiny();
        // A cyclic working set of 3 lines per 2-way set thrashes LRU.
        for round in 0..5 {
            for line in 0..3u64 {
                let out = c.access(line * 128); // all map to set 0
                if round > 0 {
                    assert!(!out.is_hit(), "LRU must thrash on cyclic over-capacity set");
                }
            }
        }
    }
}
