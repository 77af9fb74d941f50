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
