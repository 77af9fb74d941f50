//! Property tests for the set-associative cache against a naive
//! reference model, plus invariants of the warp-level models. Runs on
//! the in-repo `hms_stats::proptest_lite` harness; failures print an
//! `HMS_PROPTEST_SEED` replay line.

use hms_cache::{shared_conflict_passes, AccessOutcome, SetAssocCache};
use hms_stats::proptest_lite::{check_shrink, shrink_vec, Config};
use hms_types::CacheGeometry;

/// A trivially-correct LRU cache: a vector of (set, tag) in recency
/// order per set.
struct RefLru {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    state: Vec<Vec<u64>>, // per set: tags, most-recent last
}

impl RefLru {
    fn new(g: CacheGeometry) -> Self {
        RefLru {
            line_bytes: g.line_bytes,
            sets: g.sets().max(1),
            ways: g.ways as usize,
            state: vec![Vec::new(); g.sets().max(1) as usize],
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line % self.sets) as usize;
        let tag = line / self.sets;
        let s = &mut self.state[set];
        if let Some(pos) = s.iter().position(|&t| t == tag) {
            s.remove(pos);
            s.push(tag);
            true
        } else {
            if s.len() == self.ways {
                s.remove(0);
            }
            s.push(tag);
            false
        }
    }
}

/// The production cache and the reference LRU agree on every hit/miss
/// outcome for arbitrary address streams and geometries.
#[test]
fn setassoc_matches_reference_lru() {
    check_shrink(
        "setassoc_matches_reference_lru",
        &Config::with_cases(128),
        |rng| {
            let n = rng.gen_range(1usize..400);
            let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..16_384)).collect();
            let sets_pow = rng.gen_range(0u32..4);
            let ways = rng.gen_range(1u32..5);
            (addrs, sets_pow, ways)
        },
        |(addrs, sets_pow, ways)| {
            shrink_vec(addrs)
                .into_iter()
                .map(|a| (a, *sets_pow, *ways))
                .collect()
        },
        |(addrs, sets_pow, ways)| {
            let line = 64u64;
            let sets = 1u64 << sets_pow;
            let g = CacheGeometry::new(sets * line * u64::from(*ways), line, *ways);
            let mut real = SetAssocCache::new(g);
            let mut reference = RefLru::new(g);
            for &a in addrs {
                let want_hit = reference.access(a);
                let got = real.access(a);
                if got.is_hit() != want_hit {
                    return Err(format!("diverged at addr {a}: real hit={}", got.is_hit()));
                }
            }
            if real.accesses() != addrs.len() as u64 {
                return Err("access count wrong".into());
            }
            Ok(())
        },
    );
}

/// Hit count never decreases when the cache gets more ways at the same
/// set count (LRU is a stack algorithm per set).
#[test]
fn more_ways_never_hurt() {
    check_shrink(
        "more_ways_never_hurt",
        &Config::with_cases(128),
        |rng| {
            let n = rng.gen_range(1usize..300);
            (0..n)
                .map(|_| rng.gen_range(0u64..4096))
                .collect::<Vec<_>>()
        },
        |addrs| shrink_vec(addrs),
        |addrs| {
            let line = 64u64;
            let sets = 4u64;
            let hits = |ways: u32| {
                let g = CacheGeometry::new(sets * line * u64::from(ways), line, ways);
                let mut c = SetAssocCache::new(g);
                addrs.iter().filter(|&&a| c.access(a).is_hit()).count()
            };
            if hits(4) < hits(2) {
                return Err("4 ways hit less than 2".into());
            }
            if hits(2) < hits(1) {
                return Err("2 ways hit less than 1".into());
            }
            Ok(())
        },
    );
}

/// Shared-memory conflict passes are within [1, active lanes] and
/// invariant under lane permutation.
#[test]
fn conflict_passes_bounds_and_symmetry() {
    check_shrink(
        "conflict_passes_bounds_and_symmetry",
        &Config::with_cases(128),
        |rng| {
            let n = rng.gen_range(1usize..32);
            (0..n)
                .map(|_| rng.gen_range(0u64..4096) * 4)
                .collect::<Vec<_>>()
        },
        |addrs| shrink_vec(addrs),
        |addrs| {
            if addrs.is_empty() {
                return Ok(());
            }
            let p = shared_conflict_passes(addrs, 32);
            if p < 1 {
                return Err("zero passes".into());
            }
            if p > addrs.len() as u32 {
                return Err(format!("{p} passes for {} lanes", addrs.len()));
            }
            let mut rev = addrs.clone();
            rev.reverse();
            if shared_conflict_passes(&rev, 32) != p {
                return Err("passes changed under lane reversal".into());
            }
            Ok(())
        },
    );
}

/// Dirty-eviction count is bounded by the number of write accesses.
#[test]
fn writebacks_bounded_by_writes() {
    check_shrink(
        "writebacks_bounded_by_writes",
        &Config::with_cases(128),
        |rng| {
            let n = rng.gen_range(1usize..300);
            (0..n)
                .map(|_| (rng.gen_range(0u64..8192), rng.gen_bool(0.5)))
                .collect::<Vec<_>>()
        },
        |ops| shrink_vec(ops),
        |ops| {
            let g = CacheGeometry::new(512, 64, 2);
            let mut c = SetAssocCache::new(g);
            let mut writes = 0u64;
            for &(a, w) in ops {
                if w {
                    writes += 1;
                }
                let _ = c.access_rw(a, w);
            }
            c.flush();
            if c.dirty_evictions() > writes {
                return Err(format!(
                    "{} writebacks > {writes} writes",
                    c.dirty_evictions()
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn outcome_reports_eviction_only_when_full() {
    let g = CacheGeometry::new(128, 64, 2); // 1 set, 2 ways
    let mut c = SetAssocCache::new(g);
    assert_eq!(c.access(0), AccessOutcome::Miss { evicted: false });
    assert_eq!(c.access(64), AccessOutcome::Miss { evicted: false });
    assert_eq!(c.access(128), AccessOutcome::Miss { evicted: true });
}
