//! Anytime search strategies with reported optimality gaps.
//!
//! The paper's search is exhaustive over `5^k` placements; real kernels
//! have 6–10 arrays, where `5^10 ≈ 10M` candidates makes exhaustive
//! ranking impossible under any interactive deadline. The strategies in
//! this module trade coverage for time *explicitly*: each one returns
//! the usual [`SearchOutcome`](crate::search::SearchOutcome) plus a
//! **sound gap upper bound** in
//! [`EngineStats::gap_upper_bound`](crate::engine::EngineStats), so a
//! caller always knows how far from optimal the answer can be.
//!
//! # Gap semantics
//!
//! Every strategy derives a *floor* `F` — a proven lower bound on the
//! predicted cycles of the true optimum over the request's whole legal
//! space — and reports
//!
//! ```text
//! gap_upper_bound = max(best_found / F − 1, 0)
//! ```
//!
//! which guarantees `optimum ≤ best_found ≤ optimum × (1 + gap)`. The
//! floors come from the engine's monotone lower bound
//! ([`Engine::lower_bound`]), which never exceeds the model's
//! prediction for any completion of a partial assignment:
//!
//! * [`beam`] — the minimum bound over every prefix it *dropped* (and
//!   every leaf it could not evaluate before the deadline). If nothing
//!   was dropped the search was exhaustive and the gap is 0.
//! * [`halving`] — the minimum bound over every enumerated candidate it
//!   *retired unevaluated*, widened to the all-free floor only when
//!   enumeration itself was truncated by the request limit.
//! * [`local`] — the all-free floor (a stochastic search proves nothing
//!   about the space it never visited).
//!
//! The exhaustive search reports gap 0 when it completes; when a
//! deadline cuts it short, `SearchRequest::run` falls back to the
//! same floor construction so a partial result still carries a sound
//! bound.
//!
//! # Determinism contract
//!
//! All three strategies follow the exhaustive search's discipline:
//! leaves are evaluated in fixed-size
//! [`EVAL_BATCH`](crate::search::EVAL_BATCH) chunks, the deadline is
//! checked **only between chunks**, and at least one chunk is always
//! evaluated — so every returned prediction is bit-identical to what a
//! deadline-free run would have produced, at any worker count. [`local`] goes further: the RNG stream is a
//! pure function of the seed and consumes draws in an order independent
//! of scheduling, so the entire outcome is bit-identical across
//! `--threads 1/2/8`.

pub mod beam;
pub mod halving;
pub mod local;

use hms_types::{ArrayId, MemorySpace, PlacementMap};

use crate::engine::Engine;
use crate::search::SearchRequest;

/// The gap implied by a best-found cost and a sound floor on the
/// optimum. `None` (no legal candidate evaluated) reports 0 — there is
/// nothing to bound.
pub(crate) fn gap_from_floor(best: Option<f64>, floor: f64) -> f64 {
    match best {
        Some(b) if floor > 0.0 && floor.is_finite() => (b / floor - 1.0).max(0.0),
        _ => 0.0,
    }
}

/// The partial-assignment template for a request: candidate arrays
/// free (`None`), everything else pinned to its base space.
pub(crate) fn template(req: &SearchRequest<'_>) -> Vec<Option<MemorySpace>> {
    (0..req.arrays.len())
        .map(|i| {
            let id = ArrayId(i as u32);
            if req.candidates.contains(&id) {
                None
            } else {
                Some(req.base.space(id))
            }
        })
        .collect()
}

/// The weakest sound floor: the bound with every candidate array free.
/// Valid for the whole legal space by the bound's monotonicity.
pub(crate) fn all_free_floor(engine: &Engine<'_>, req: &SearchRequest<'_>) -> f64 {
    engine.lower_bound(&template(req))
}

/// The complete-assignment vector of a fully placed candidate.
pub(crate) fn full_assignment(pm: &PlacementMap, n: usize) -> Vec<Option<MemorySpace>> {
    (0..n).map(|i| Some(pm.space(ArrayId(i as u32)))).collect()
}

/// Floor over a set of *unevaluated* complete candidates: the minimum
/// of their individual bounds, widened to the all-free floor when the
/// enumeration that produced them was `truncated` (candidates beyond
/// the request limit were never materialized, so only the free bound
/// covers them).
pub(crate) fn space_floor<'p>(
    engine: &Engine<'_>,
    req: &SearchRequest<'_>,
    unevaluated: impl Iterator<Item = &'p PlacementMap>,
    truncated: bool,
) -> f64 {
    let n = req.arrays.len();
    let mut floor = f64::INFINITY;
    for pm in unevaluated {
        floor = floor.min(engine.lower_bound(&full_assignment(pm, n)));
    }
    if truncated {
        floor = floor.min(all_free_floor(engine, req));
    }
    floor
}

#[cfg(test)]
mod tests {
    use hms_types::GpuConfig;

    use crate::predictor::Predictor;
    use crate::profile::profile_sample;
    use crate::search::{SearchRequest, SearchStrategy};

    fn setup() -> (Predictor, crate::profile::Profile, Vec<hms_types::ArrayDef>) {
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::by_name("vecadd", hms_kernels::Scale::Test).unwrap();
        let profile = profile_sample(&kt, &kt.default_placement(), &cfg).unwrap();
        (Predictor::new(cfg), profile, kt.arrays)
    }

    fn all_strategies() -> [SearchStrategy; 3] {
        [
            SearchStrategy::Beam { width: 4 },
            SearchStrategy::SuccessiveHalving,
            SearchStrategy::LocalSearch { seed: 7 },
        ]
    }

    #[test]
    fn every_strategy_respects_the_sandwich_bound() {
        let (predictor, profile, arrays) = setup();
        let base = profile.trace.placement.clone();
        let exact = SearchRequest::new(&arrays, &base)
            .run(&predictor, &profile)
            .unwrap();
        let optimum = exact.best().unwrap().predicted_cycles;
        for strategy in all_strategies() {
            let out = SearchRequest::new(&arrays, &base)
                .strategy(strategy)
                .run(&predictor, &profile)
                .unwrap();
            let best = out.best().expect("non-empty").predicted_cycles;
            let gap = out.stats.gap_upper_bound;
            assert!(gap >= 0.0 && gap.is_finite(), "{strategy:?}: gap {gap}");
            assert!(
                best >= optimum,
                "{strategy:?}: best {best} beats the exhaustive optimum {optimum}"
            );
            assert!(
                best <= optimum * (1.0 + gap) + 1e-6,
                "{strategy:?}: best {best} outside optimum {optimum} x (1 + {gap})"
            );
            assert_eq!(out.stats.strategy, strategy.name());
            assert!(out.stats.anytime());
            assert!(out.stats.candidates_visited > 0);
        }
    }

    #[test]
    fn wide_beam_is_exhaustive_with_zero_gap() {
        let (predictor, profile, arrays) = setup();
        let base = profile.trace.placement.clone();
        let exact = SearchRequest::new(&arrays, &base)
            .run(&predictor, &profile)
            .unwrap();
        // A beam wider than the whole space never drops a prefix: the
        // best must be the true optimum and the gap exactly 0.
        let out = SearchRequest::new(&arrays, &base)
            .strategy(SearchStrategy::Beam { width: 4096 })
            .run(&predictor, &profile)
            .unwrap();
        assert_eq!(out.stats.gap_upper_bound, 0.0);
        assert_eq!(
            out.best().unwrap().predicted_cycles.to_bits(),
            exact.best().unwrap().predicted_cycles.to_bits()
        );
    }

    #[test]
    fn local_search_is_bit_identical_across_worker_counts() {
        let (predictor, profile, arrays) = setup();
        let base = profile.trace.placement.clone();
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                SearchRequest::new(&arrays, &base)
                    .strategy(SearchStrategy::LocalSearch { seed: 99 })
                    .threads(threads)
                    .run(&predictor, &profile)
                    .unwrap()
            })
            .collect();
        for other in &runs[1..] {
            assert_eq!(runs[0].ranked.len(), other.ranked.len());
            for (a, b) in runs[0].ranked.iter().zip(&other.ranked) {
                assert_eq!(a.placement, b.placement);
                assert_eq!(a.predicted_cycles.to_bits(), b.predicted_cycles.to_bits());
            }
            assert_eq!(
                runs[0].stats.gap_upper_bound.to_bits(),
                other.stats.gap_upper_bound.to_bits()
            );
        }
        // And a different seed is a different (but still valid) run.
        let reseeded = SearchRequest::new(&arrays, &base)
            .strategy(SearchStrategy::LocalSearch { seed: 100 })
            .run(&predictor, &profile)
            .unwrap();
        assert!(!reseeded.ranked.is_empty());
    }

    #[test]
    fn expired_deadline_cuts_every_strategy_without_panicking() {
        // Regression: a deadline landing mid-rung used to slice past the
        // evaluated prefix in successive halving.
        let cfg = GpuConfig::test_small();
        let kt = hms_kernels::by_name("wide4", hms_kernels::Scale::Test).unwrap();
        let profile = profile_sample(&kt, &kt.default_placement(), &cfg).unwrap();
        let predictor = Predictor::new(cfg);
        let base = profile.trace.placement.clone();
        for strategy in all_strategies() {
            let out = SearchRequest::new(&kt.arrays, &base)
                .strategy(strategy)
                .deadline(Some(std::time::Instant::now()))
                .run(&predictor, &profile)
                .unwrap();
            // At least one batch is always evaluated, and the gap stays
            // a sound finite bound even on the truncated run.
            assert!(!out.ranked.is_empty(), "{strategy:?}: empty ranking");
            assert!(
                out.stats.gap_upper_bound >= 0.0 && out.stats.gap_upper_bound.is_finite(),
                "{strategy:?}: bad gap {}",
                out.stats.gap_upper_bound
            );
        }
    }

    #[test]
    fn strategy_parse_accepts_both_spellings_and_rejects_bad_knobs() {
        assert_eq!(
            SearchStrategy::parse("beam", Some(3), None).unwrap(),
            SearchStrategy::Beam { width: 3 }
        );
        assert_eq!(
            SearchStrategy::parse("beam", None, None).unwrap(),
            SearchStrategy::Beam {
                width: SearchStrategy::DEFAULT_BEAM_WIDTH
            }
        );
        assert_eq!(
            SearchStrategy::parse("halving", None, None).unwrap(),
            SearchStrategy::SuccessiveHalving
        );
        assert_eq!(
            SearchStrategy::parse("successive_halving", None, None).unwrap(),
            SearchStrategy::SuccessiveHalving
        );
        assert_eq!(
            SearchStrategy::parse("local", None, Some(5)).unwrap(),
            SearchStrategy::LocalSearch { seed: 5 }
        );
        assert_eq!(
            SearchStrategy::parse("bnb", None, None).unwrap(),
            SearchStrategy::BranchAndBound
        );
        assert!(SearchStrategy::parse("warp_drive", None, None).is_err());
        assert!(SearchStrategy::parse("beam", Some(0), None).is_err());
        assert!(SearchStrategy::parse("local", Some(4), None).is_err());
        assert!(SearchStrategy::parse("beam", None, Some(1)).is_err());
        assert!(SearchStrategy::parse("exhaustive", Some(4), None).is_err());
    }
}
