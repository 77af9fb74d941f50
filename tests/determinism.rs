//! End-to-end determinism: the full prediction + placement-search
//! pipeline over every registered kernel is bit-identical between runs
//! and across worker counts.
//!
//! This is the guarantee that makes the parallel search trustworthy: the
//! `hms_stats::par` pool reassembles results in input order and the
//! ranking sort is stable, so scheduling nondeterminism can never leak
//! into model output (see DESIGN.md, "Hermetic build & determinism").

use gpu_hms::prelude::*;
use hms_kernels::{registry, Scale};

/// One search outcome, reduced to exactly-comparable form: the best
/// placement, the bit pattern of every ranked prediction, and the
/// engine's work counts that do not depend on the worker count (the
/// counts the CI search gate holds at their committed values). The
/// replay counters (`batched_replays`, `lane_width`, `events_streamed`)
/// are left out: autosized lanes split by worker count.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    kernel: &'static str,
    best: String,
    prediction_bits: Vec<u64>,
    skeletons_built: u64,
    full_rewrites: u64,
    memo_tables_built: u64,
    delta_cache_hits: u64,
    candidates_evaluated: u64,
}

fn search_all(threads: usize, limit: usize) -> Vec<Outcome> {
    let cfg = GpuConfig::test_small();
    registry()
        .iter()
        .map(|spec| {
            let kt = (spec.build)(Scale::Test);
            let base = kt.default_placement();
            let profile = profile_sample(&kt, &base, &cfg).unwrap();
            let predictor = Predictor::new(cfg.clone());
            let outcome = SearchRequest::new(&kt.arrays, &base)
                .limit(limit)
                .threads(threads)
                .run(&predictor, &profile)
                .unwrap();
            let (ranked, stats) = (outcome.ranked, outcome.stats);
            assert!(!ranked.is_empty(), "{}: empty search space", spec.name);
            Outcome {
                kernel: spec.name,
                best: format!("{:?}", ranked[0].placement),
                prediction_bits: ranked
                    .iter()
                    .map(|r| r.predicted_cycles.to_bits())
                    .collect(),
                skeletons_built: stats.skeletons_built,
                full_rewrites: stats.full_rewrites,
                memo_tables_built: stats.memo_tables_built,
                delta_cache_hits: stats.delta_cache_hits,
                candidates_evaluated: stats.candidates_evaluated,
            }
        })
        .collect()
}

#[test]
fn predictor_and_search_are_bit_deterministic() {
    const LIMIT: usize = 16;
    // Two independent runs at full parallelism must agree bit-for-bit.
    let first = search_all(0, LIMIT);
    let second = search_all(0, LIMIT);
    assert_eq!(first, second, "repeated runs diverged");
    // And the worker count (1, 2, all cores) must not matter either.
    for threads in [1usize, 2] {
        let other = search_all(threads, LIMIT);
        assert_eq!(
            first, other,
            "search with {threads} worker(s) diverged from the all-cores run"
        );
    }
}

/// The engine's deterministic work counts for one search, in the order
/// of [`GOLDEN_WORK`]'s columns.
type Work = [u64; 10];

fn work(s: &EngineStats) -> Work {
    [
        s.candidates_enumerated,
        s.candidates_evaluated,
        s.candidates_visited,
        s.skeletons_built,
        s.full_rewrites,
        s.memo_tables_built,
        s.delta_cache_hits,
        s.exact_fallbacks,
        s.skeleton_disk_hits,
        s.skeleton_disk_misses,
    ]
}

/// Exact work of one Test-scale wide8 search per strategy, first over
/// an empty skeleton cache (cold) and then over the one it filled
/// (warm). Columns: candidates enumerated, evaluated and visited,
/// skeletons built, full rewrites, memo tables, delta hits, exact
/// fallbacks, disk hits, disk misses.
#[rustfmt::skip]
const GOLDEN_WORK: [(&str, Work, Work); 4] = [
    ("exhaustive",
     [4096, 4096, 0, 64, 64, 27, 4096, 0, 0, 64],
     [4096, 4096, 0, 0, 0, 27, 4096, 0, 64, 0]),
    ("beam",
     [8, 8, 216, 5, 5, 15, 8, 0, 0, 5],
     [8, 8, 216, 0, 0, 15, 8, 0, 5, 0]),
    ("halving",
     [4096, 927, 4096, 64, 64, 27, 927, 0, 0, 64],
     [4096, 927, 4096, 0, 0, 27, 927, 0, 64, 0]),
    ("local",
     [307, 307, 384, 61, 61, 33, 307, 0, 0, 61],
     [307, 307, 384, 0, 0, 33, 307, 0, 61, 0]),
];

/// Every count the engine keeps is pinned both ways: the CI work gate
/// only catches a count that grows, this also catches one that is lost
/// (a bump dropped, or a race that double-counts at more workers).
#[test]
fn search_work_counts_are_golden() {
    let cfg = GpuConfig::test_small();
    let kt = by_name("wide8", Scale::Test).unwrap();
    let base = kt.default_placement();
    let profile = profile_sample(&kt, &base, &cfg).unwrap();
    let predictor = Predictor::new(cfg);
    for threads in [1usize, 0] {
        for &(name, cold, warm) in &GOLDEN_WORK {
            let strategy = SearchStrategy::parse(name, None, None).unwrap();
            let dir = std::env::temp_dir().join(format!(
                "hms-golden-work-{}-{name}-{threads}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let run = || {
                SearchRequest::new(&kt.arrays, &base)
                    .strategy(strategy)
                    .threads(threads)
                    .skeleton_cache(&dir)
                    .run(&predictor, &profile)
                    .unwrap()
            };
            let got = (work(&run().stats), work(&run().stats));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(got, (cold, warm), "{name} at {threads} worker(s)");
        }
    }
}
