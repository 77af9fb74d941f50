//! Deterministic pseudo-random number generation, in-repo.
//!
//! The workspace's hermetic-build policy (no crates.io dependencies in
//! the default graph) needs a replacement for `rand`: every irregular
//! workload (sparse matrices, neighbor lists, graphs) and every
//! resampling procedure draws from a seeded generator, so builds and
//! tests are bit-reproducible on any machine with no network access.
//!
//! The generator is **xoshiro256++** (Blackman & Vigna), seeded by
//! expanding a 64-bit seed through **SplitMix64** — the standard
//! pairing: SplitMix64 decorrelates low-entropy seeds (consecutive
//! integers, ASCII tags) before they reach the xoshiro state, and
//! xoshiro256++ passes BigCrush while needing four words of state and
//! a handful of ALU ops per draw.
//!
//! The API mirrors the `rand` subset the workspace used: `seed_from_u64`,
//! `gen_range` over integer ranges, `gen_bool`, `gen_f64`, plus
//! `shuffle` and `fill` helpers. **The stream is part of the repo's
//! contract**: generated workloads are checksummed in
//! `hms-kernels/tests/workload_checksums.rs`, so any change to the
//! generator or to how call sites consume it is a deliberate,
//! test-visible event.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Public because the property-test harness also uses it to derive
/// per-case seeds from a base seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed via SplitMix64 expansion of a 64-bit seed (never yields the
    /// all-zero state, which xoshiro cannot escape).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The xoshiro256++ core: rotl(s0 + s3, 23) + s0.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`: the top 53 bits over 2^53.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform draw from an integer range, e.g. `rng.gen_range(0..n)`
    /// or `rng.gen_range(-32i64..=32)`. Panics on an empty range, like
    /// `rand`.
    #[inline]
    pub fn gen_range<R: UniformRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// Unbiased uniform draw in `[0, bound)` by rejection on the widening
    /// multiply (Lemire's method). `bound` must be non-zero.
    #[inline]
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
            // Rejected: retry keeps the distribution exactly uniform.
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Fill a slice with independent draws.
    pub fn fill(&mut self, dest: &mut [u64]) {
        for d in dest {
            *d = self.next_u64();
        }
    }
}

/// Integer range types accepted by [`Rng::gen_range`].
pub trait UniformRange {
    type Output;
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end - self.start) as u64;
                self.start + rng.bounded_u64(span) as $t
            }
        }
        impl UniformRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span + 1) as $t
            }
        }
    )*};
}

impl_uniform_unsigned!(u64, u32, usize);

macro_rules! impl_uniform_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl UniformRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(rng.bounded_u64(span) as $t)
            }
        }
        impl UniformRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(rng.bounded_u64(span + 1) as $t)
            }
        }
    )*};
}

impl_uniform_signed!(i64 => u64, i32 => u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors_match_splitmix64() {
        // Canonical SplitMix64 vectors (https://prng.di.unimi.it/splitmix64.c).
        let mut sm = 0u64;
        assert_eq!(splitmix64(&mut sm), 0xE220_A839_7B1D_CDAF);
        let mut sm = 1u64;
        assert_eq!(splitmix64(&mut sm), 0x910A_2DEC_8902_5CC1);
        // And the xoshiro256++ output combiner on the seeded state:
        // rotl(s0 + s3, 23) + s0.
        let mut rng = Rng::seed_from_u64(1);
        let s = rng.s;
        let expect0 = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        assert_eq!(rng.next_u64(), expect0);
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..2000 {
            let x = rng.gen_range(10u64..17);
            assert!((10..17).contains(&x));
            let y = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&y));
            let z = rng.gen_range(0usize..3);
            assert!(z < 3);
            let w = rng.gen_range(3u32..=3);
            assert_eq!(w, 3);
        }
    }

    #[test]
    fn gen_range_covers_the_range() {
        let mut rng = Rng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..400 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "8-way range not covered in 400 draws"
        );
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.7)).count();
        assert!((6_600..=7_400).contains(&hits), "p=0.7 gave {hits}/10000");
        assert!(!Rng::seed_from_u64(1).gen_bool(0.0));
        assert!(Rng::seed_from_u64(1).gen_bool(1.0));
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "50-element shuffle left input in order"
        );
    }

    #[test]
    fn fill_writes_every_slot() {
        let mut rng = Rng::seed_from_u64(13);
        let mut buf = [0u64; 16];
        rng.fill(&mut buf);
        assert!(buf.iter().any(|&x| x != 0));
    }

    #[test]
    fn signed_ranges_handle_negative_spans() {
        let mut rng = Rng::seed_from_u64(21);
        let mut saw_neg = false;
        let mut saw_pos = false;
        for _ in 0..500 {
            let x = rng.gen_range(-64i64..=64);
            assert!((-64..=64).contains(&x));
            saw_neg |= x < 0;
            saw_pos |= x > 0;
        }
        assert!(saw_neg && saw_pos);
    }
}
