//! Equivalence suite for the incremental search engine (see DESIGN.md,
//! "Delta evaluation & search engine").
//!
//! The engine's contract is *bit-identity*: composing a candidate's
//! `TraceAnalysis` from one recorded skeleton walk plus memoized
//! per-`(array, space)` deltas must reproduce the naive
//! rewrite-per-candidate path exactly — same prediction bits, same
//! ranking, for every kernel in the registry and every worker count.

use gpu_hms::prelude::*;
use hms_core::Engine;
use hms_kernels::{registry, Scale};
use hms_stats::proptest_lite::{check, Config};
use hms_types::MemorySpace;

fn bits(ranked: &[hms_core::RankedPlacement]) -> Vec<(String, u64)> {
    ranked
        .iter()
        .map(|r| (format!("{:?}", r.placement), r.predicted_cycles.to_bits()))
        .collect()
}

/// For every registered kernel: the engine ranking over the full legal
/// space equals the naive ranking bit for bit, at 1, 2, and all
/// workers — and no skeleton ever fails its self-check. The `bnb`
/// spelling returns that same ranking under its own wire name.
#[test]
fn incremental_ranking_is_bit_identical_to_naive_registry_wide() {
    let cfg = GpuConfig::test_small();
    for spec in registry() {
        let kt = (spec.build)(Scale::Test);
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg.clone());
        let ids: Vec<ArrayId> = kt.arrays.iter().map(|a| a.id).collect();
        let space = enumerate_placements(&kt.arrays, &base, &ids, &cfg, 256);
        let naive = hms_core::rank_placements_naive(&predictor, &profile, &space, 1).unwrap();
        for threads in [1usize, 2, 0] {
            let outcome = SearchRequest::new(&kt.arrays, &base)
                .limit(256)
                .threads(threads)
                .run(&predictor, &profile)
                .unwrap();
            assert_eq!(
                bits(&naive),
                bits(&outcome.ranked),
                "{}: incremental ranking diverged from naive at {threads} workers",
                spec.name
            );
            assert_eq!(
                outcome.stats.exact_fallbacks, 0,
                "{}: a skeleton failed its self-check",
                spec.name
            );
            assert!(outcome.stats.full_rewrites <= outcome.stats.candidates_evaluated);
            let bnb = SearchRequest::new(&kt.arrays, &base)
                .limit(256)
                .threads(threads)
                .strategy(SearchStrategy::parse("bnb", None, None).unwrap())
                .run(&predictor, &profile)
                .unwrap();
            assert_eq!(
                bits(&outcome.ranked),
                bits(&bnb.ranked),
                "{}: bnb ranking diverged from exhaustive at {threads} workers",
                spec.name
            );
            assert_eq!(bnb.stats.strategy, "branch_and_bound");
        }
    }
}

/// Property: for a random kernel and a random *legal* placement, the
/// engine's single prediction is bit-identical to the naive predictor's
/// (analysis and all).
#[test]
fn engine_prediction_matches_naive_on_random_placements() {
    let cfg = GpuConfig::test_small();
    let setups: Vec<_> = registry()
        .iter()
        .map(|spec| {
            let kt = (spec.build)(Scale::Test);
            let base = kt.default_placement();
            let profile = profile_sample(&kt, &base, &cfg).unwrap();
            (spec.name, kt, profile)
        })
        .collect();
    let predictor = Predictor::new(cfg.clone());
    check(
        "engine_matches_naive",
        &Config::with_cases(48),
        |rng| {
            let k = rng.gen_range(0u64..setups.len() as u64) as usize;
            let (_, kt, _) = &setups[k];
            // Draw random spaces until the joint placement is legal.
            loop {
                let mut pm = kt.default_placement();
                for (i, _) in kt.arrays.iter().enumerate() {
                    let s =
                        MemorySpace::ALL[rng.gen_range(0..MemorySpace::ALL.len() as u64) as usize];
                    pm = pm.with(ArrayId(i as u32), s);
                }
                if pm.validate(&kt.arrays, &cfg).is_ok() {
                    return (k, pm);
                }
            }
        },
        |(k, pm)| {
            let (name, _, profile) = &setups[*k];
            let engine = Engine::new(&predictor, profile);
            let fast = engine.predict(pm).map_err(|e| e.to_string())?;
            let slow = predictor.predict(profile, pm).map_err(|e| e.to_string())?;
            if fast.cycles.to_bits() != slow.cycles.to_bits() {
                return Err(format!(
                    "{name}: engine {} != naive {} for {pm:?}",
                    fast.cycles, slow.cycles
                ));
            }
            if fast.analysis != slow.analysis {
                return Err(format!("{name}: composed analysis drifted for {pm:?}"));
            }
            Ok(())
        },
    );
}

/// Property: the one-candidate skeleton replay is bit-identical to the
/// naive path for random kernels at every worker count — including the
/// poisoned-skeleton case, where every candidate must route through the
/// exact per-candidate fallback instead of a replay and still rank
/// identically.
#[test]
fn replay_is_bit_identical_across_workers() {
    let cfg = GpuConfig::test_small();
    let setups: Vec<_> = registry()
        .iter()
        .map(|spec| {
            let kt = (spec.build)(Scale::Test);
            let base = kt.default_placement();
            let profile = profile_sample(&kt, &base, &cfg).unwrap();
            let predictor = Predictor::new(cfg.clone());
            let ids: Vec<ArrayId> = kt.arrays.iter().map(|a| a.id).collect();
            let space = enumerate_placements(&kt.arrays, &base, &ids, &cfg, 128);
            let naive = hms_core::rank_placements_naive(&predictor, &profile, &space, 1).unwrap();
            (spec.name, profile, space, naive)
        })
        .collect();
    let predictor = Predictor::new(cfg.clone());
    check(
        "replay_matches_naive",
        &Config::with_cases(24),
        |rng| {
            let k = rng.gen_range(0u64..setups.len() as u64) as usize;
            let threads = [1usize, 2, 8][rng.gen_range(0..3) as usize];
            let poison = rng.gen_range(0..4) == 0;
            (k, threads, poison)
        },
        |&(k, threads, poison)| {
            let (name, profile, space, naive) = &setups[k];
            // Fresh engine per case: the skeleton cache must not leak a
            // (possibly poisoned) skeleton across cases.
            let engine = Engine::new(&predictor, profile);
            engine.inject_poison(poison);
            let ranked = engine.rank(space, threads).map_err(|e| e.to_string())?;
            if bits(naive) != bits(&ranked) {
                return Err(format!(
                    "{name}: ranking diverged from naive (threads={threads}, poison={poison})"
                ));
            }
            let stats = engine.stats();
            let n = space.len() as u64;
            if poison {
                if stats.exact_fallbacks != n || stats.events_streamed != 0 {
                    return Err(format!(
                        "{name}: poisoned skeleton fell back {} of {n} times and \
                         streamed {} events",
                        stats.exact_fallbacks, stats.events_streamed
                    ));
                }
            } else if stats.exact_fallbacks != 0
                || stats.delta_cache_hits != n
                || stats.events_streamed == 0
            {
                return Err(format!(
                    "{name}: healthy skeleton replayed {} of {n} candidates, \
                     fell back {} times and streamed {} events",
                    stats.delta_cache_hits, stats.exact_fallbacks, stats.events_streamed
                ));
            }
            Ok(())
        },
    );
}

/// Persistent skeletons: for every registry kernel, a warm restart
/// that reads its skeletons back from disk ranks bit-identically to
/// both the cold run that wrote them and the naive path — while
/// rebuilding nothing.
#[test]
fn persistent_skeletons_reload_bit_identically_registry_wide() {
    let cfg = GpuConfig::test_small();
    let dir = std::env::temp_dir().join(format!(
        "hms-skel-eqv-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    for spec in registry() {
        let kt = (spec.build)(Scale::Test);
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg.clone());
        let ids: Vec<ArrayId> = kt.arrays.iter().map(|a| a.id).collect();
        let space = enumerate_placements(&kt.arrays, &base, &ids, &cfg, 256);
        let naive = hms_core::rank_placements_naive(&predictor, &profile, &space, 1).unwrap();
        let req = SearchRequest::new(&kt.arrays, &base)
            .limit(256)
            .skeleton_cache(&dir);
        let cold = req.run(&predictor, &profile).unwrap();
        let warm = req.run(&predictor, &profile).unwrap();
        assert_eq!(
            bits(&naive),
            bits(&cold.ranked),
            "{}: cold persistent run diverged from naive",
            spec.name
        );
        assert_eq!(
            bits(&cold.ranked),
            bits(&warm.ranked),
            "{}: warm restart diverged from the cold run",
            spec.name
        );
        assert_eq!(
            warm.stats.skeletons_built, 0,
            "{}: warm restart rebuilt a skeleton",
            spec.name
        );
        assert!(
            warm.stats.skeleton_disk_hits > 0,
            "{}: warm restart never touched the disk cache",
            spec.name
        );
        assert_eq!(
            cold.stats.skeleton_disk_hits, 0,
            "{}: cold run hit a cache that should have been empty",
            spec.name
        );
        assert!(
            cold.stats.skeleton_disk_writes > 0,
            "{}: cold run persisted nothing",
            spec.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance: on a three-array search over read-only arrays, the
/// engine performs at least five times fewer full trace rewrites than
/// candidate evaluations, while staying bit-identical to the naive
/// path.
#[test]
fn three_array_search_reuses_rewrites_five_fold() {
    let cfg = GpuConfig::test_small();
    let mut checked = 0;
    for spec in registry() {
        let kt = (spec.build)(Scale::Test);
        let read_only: Vec<ArrayId> = kt
            .arrays
            .iter()
            .filter(|a| !a.written)
            .map(|a| a.id)
            .collect();
        if read_only.len() < 3 {
            continue;
        }
        checked += 1;
        let candidates = &read_only[..3];
        let base = kt.default_placement();
        let profile = profile_sample(&kt, &base, &cfg).unwrap();
        let predictor = Predictor::new(cfg.clone());
        let outcome = SearchRequest::new(&kt.arrays, &base)
            .candidates(candidates)
            .run(&predictor, &profile)
            .unwrap();
        assert!(
            outcome.stats.rewrite_reduction() >= 5.0,
            "{}: only {:.2}x rewrite reduction ({} evals / {} rewrites)",
            spec.name,
            outcome.stats.rewrite_reduction(),
            outcome.stats.candidates_evaluated,
            outcome.stats.full_rewrites
        );
        let space = enumerate_placements(&kt.arrays, &base, candidates, &cfg, 4096);
        let naive = hms_core::rank_placements_naive(&predictor, &profile, &space, 0).unwrap();
        assert_eq!(bits(&naive), bits(&outcome.ranked), "{}", spec.name);
    }
    assert!(
        checked >= 2,
        "registry lost its kernels with >= 3 read-only arrays"
    );
}
