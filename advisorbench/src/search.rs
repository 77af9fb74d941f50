//! The search-cold and search-warm workloads: `SearchRequest::run` at
//! Full scale over the five search kernels, one kernel per op, in
//! seeded rounds that hold every kernel exactly once.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hms_core::{EngineStats, Predictor, RankedPlacement, SearchStrategy};

use crate::plan::{search_round, SEARCH_KERNELS};
use crate::report::{Budget, Metric, Phase};
use crate::setup::{nproc, same_ranking, trained_predictor, Kernel, STRATEGIES};
use crate::spans::Tracer;

pub struct SearchSetup {
    pub predictor: Predictor,
    pub kernels: Vec<Kernel>,
    /// search-warm only: the skeleton cache set-up filled.
    pub skel_dir: Option<PathBuf>,
    /// search-warm only: the cold exhaustive and branch-and-bound
    /// ranking of every kernel, computed while filling the cache.
    pub cold: HashMap<(usize, &'static str), Vec<RankedPlacement>>,
}

/// Set-up: train the model, build and profile the kernels and, for
/// search-warm, fill the skeleton cache with every strategy's skeletons.
pub fn setup(skel_dir: Option<&Path>, tr: &mut Tracer) -> SearchSetup {
    let predictor = trained_predictor(tr);
    let kernels: Vec<Kernel> = SEARCH_KERNELS.iter().map(|n| Kernel::load(n, tr)).collect();
    // The placement-invariant engine statics are cached in each profile,
    // as in a server that has profiled the kernel; build them here so no
    // timed op pays for them.
    for k in &kernels {
        drop(hms_core::Engine::new(&predictor, &k.profile));
    }
    let mut cold = HashMap::new();
    if let Some(dir) = skel_dir {
        let span = tr.enter("skelcache.populate", 0);
        let _ = std::fs::remove_dir_all(dir);
        for (ki, k) in kernels.iter().enumerate() {
            for s in STRATEGIES {
                let out = k
                    .request(s, nproc())
                    .skeleton_cache(dir)
                    .run(&predictor, &k.profile)
                    .expect("cold search fills the skeleton cache");
                if !s.is_anytime() {
                    cold.insert((ki, s.name()), out.ranked);
                }
            }
        }
        tr.exit(span);
    }
    SearchSetup {
        predictor,
        kernels,
        skel_dir: skel_dir.map(Path::to_path_buf),
        cold,
    }
}

/// Span name of one strategy's search inside an op.
fn strategy_span(s: SearchStrategy) -> &'static str {
    match s {
        SearchStrategy::Exhaustive => "strategy.exhaustive",
        SearchStrategy::BranchAndBound => "strategy.branch_and_bound",
        SearchStrategy::Beam { .. } => "strategy.beam",
        SearchStrategy::SuccessiveHalving => "strategy.successive_halving",
        SearchStrategy::LocalSearch { .. } => "strategy.local_search",
    }
}

/// One search inside an op.
struct Rec {
    strategy: &'static str,
    stats: EngineStats,
}

/// The timed phase. Cold: each op is one exhaustive search with a fresh
/// engine and no skeleton cache. Warm: each op searches one kernel
/// under all five strategies, every search a fresh engine reading the
/// skeleton cache.
pub fn run(setup: &SearchSetup, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
    let warm = setup.skel_dir.is_some();
    let strategies: &[SearchStrategy] = if warm { &STRATEGIES } else { &STRATEGIES[..1] };
    let threads = nproc();
    let mut phase = Phase::new(SEARCH_KERNELS.to_vec());
    let mut recs: Vec<Rec> = Vec::new();
    // The first ranking of each (kernel, strategy); warm exhaustive and
    // branch-and-bound must match the cold rankings from set-up.
    let mut reference = setup.cold.clone();

    let start = Instant::now();
    let mut round = 0u64;
    while !budget.spent(round as usize, start) {
        for ki in search_round(seed, round) {
            let k = &setup.kernels[ki];
            let op = phase.attempted();
            let span = tr.enter("search.op", op);
            let t0 = Instant::now();
            let mut outs = Vec::with_capacity(strategies.len());
            for &s in strategies {
                let mut req = k.request(s, threads);
                if let Some(dir) = &setup.skel_dir {
                    req = req.skeleton_cache(dir);
                }
                let span = if warm {
                    strategy_span(s)
                } else {
                    "search.cold"
                };
                outs.push((
                    s,
                    tr.time(span, op, || req.run(&setup.predictor, &k.profile)),
                ));
            }
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            tr.exit(span);

            let mut ok = true;
            let mut candidates = 0;
            for (s, out) in outs {
                let Ok(out) = out else {
                    ok = false;
                    continue;
                };
                ok &= !out.partial;
                candidates += out.stats.candidates_evaluated;
                let want = reference
                    .entry((ki, s.name()))
                    .or_insert_with(|| out.ranked.clone());
                ok &= same_ranking(want, &out.ranked);
                recs.push(Rec {
                    strategy: s.name(),
                    stats: out.stats,
                });
            }
            phase.record(ki, ms, ok, candidates);
        }
        round += 1;
    }

    if !warm {
        // Every cold op matched its kernel's first ranking; that one
        // must be bit-identical to the naive rewrite-per-candidate path.
        for (ki, k) in setup.kernels.iter().enumerate() {
            let Some(first) = reference.get(&(ki, "exhaustive")) else {
                continue;
            };
            let ids: Vec<_> =
                k.kt.arrays
                    .iter()
                    .filter(|a| !a.written)
                    .map(|a| a.id)
                    .collect();
            let space = hms_core::enumerate_placements(
                &k.kt.arrays,
                &k.sample,
                &ids,
                &setup.predictor.cfg,
                crate::plan::search_limit(k.name),
            );
            let naive =
                hms_core::rank_placements_naive(&setup.predictor, &k.profile, &space, threads);
            if !naive.is_ok_and(|n| same_ranking(&n, first)) {
                phase.fail_class(ki);
            }
        }
    }
    phase.layers = layers(&recs, tr, warm);
    let fallbacks: u64 = recs.iter().map(|r| r.stats.exact_fallbacks).sum();
    if fallbacks > 0 {
        phase.violation(format!("engine.exact_fallbacks = {fallbacks}"));
    }
    if warm {
        let misses: u64 = recs.iter().map(|r| r.stats.skeleton_disk_misses).sum();
        if misses > 0 {
            phase.violation(format!(
                "skelcache.disk_misses = {misses} in the timed phase"
            ));
        }
    }
    phase
}

/// Per-layer metrics from the engine's per-search counters and the
/// strategy spans. Cold reports the prepare side, warm the replay and
/// strategy side.
fn layers(recs: &[Rec], tr: &Tracer, warm: bool) -> Vec<Metric> {
    let n = recs.len().max(1) as f64;
    let sum =
        |f: &dyn Fn(&EngineStats) -> u64| recs.iter().map(|r| f(&r.stats)).sum::<u64>() as f64;
    let mean = |f: &dyn Fn(&EngineStats) -> u64| sum(f) / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = Vec::new();
    let mut push =
        |name: &str, value: f64, unit: &'static str| out.push(Metric::new(name, value, unit));
    if !warm {
        push("engine.prepare_ms", mean(&|s| s.prepare_nanos) / 1e6, "ms");
        push(
            "engine.enumerate_ms",
            mean(&|s| s.enumerate_nanos) / 1e6,
            "ms",
        );
        push(
            "engine.skeletons_built",
            mean(&|s| s.skeletons_built),
            "count",
        );
        push("engine.full_rewrites", mean(&|s| s.full_rewrites), "count");
        push(
            "engine.memo_tables_built",
            mean(&|s| s.memo_tables_built),
            "count",
        );
        push(
            "engine.delta_cache_hits",
            mean(&|s| s.delta_cache_hits),
            "count",
        );
        return out;
    }
    let evaluated = sum(&|s| s.candidates_evaluated);
    push(
        "engine.evaluate_ms",
        mean(&|s| s.evaluate_nanos) / 1e6,
        "ms",
    );
    push(
        "engine.eval_us_per_candidate",
        ratio(sum(&|s| s.evaluate_nanos) / 1e3, evaluated),
        "us",
    );
    push(
        "engine.batched_replays",
        mean(&|s| s.batched_replays),
        "count",
    );
    push(
        "engine.events_streamed",
        mean(&|s| s.events_streamed),
        "count",
    );
    push(
        "engine.events_per_candidate",
        ratio(sum(&|s| s.events_streamed), evaluated),
        "count",
    );
    let peak = recs.iter().map(|r| r.stats.lane_width).max().unwrap_or(0);
    push("engine.peak_lane_width", peak as f64, "count");
    push(
        "engine.exact_fallbacks",
        sum(&|s| s.exact_fallbacks),
        "count",
    );
    let hits = sum(&|s| s.skeleton_disk_hits);
    let misses = sum(&|s| s.skeleton_disk_misses);
    push("skelcache.disk_hits", hits, "count");
    push("skelcache.disk_misses", misses, "count");
    push(
        "skelcache.disk_writes",
        sum(&|s| s.skeleton_disk_writes),
        "count",
    );
    push("skelcache.hit_ratio", ratio(hits, hits + misses), "ratio");

    let totals = tr.totals();
    for s in STRATEGIES {
        let of: Vec<&EngineStats> = recs
            .iter()
            .filter(|r| r.strategy == s.name())
            .map(|r| &r.stats)
            .collect();
        let m = of.len().max(1) as f64;
        let per = |f: &dyn Fn(&EngineStats) -> u64| of.iter().map(|st| f(st)).sum::<u64>() as f64;
        let name = s.name();
        let ms = totals
            .get(strategy_span(s))
            .map_or(0.0, |t| t.mean_self_ms());
        push(&format!("strategy.{name}.ms"), ms, "ms");
        push(
            &format!("strategy.{name}.candidates_visited"),
            per(&|st| st.candidates_visited) / m,
            "count",
        );
        push(
            &format!("strategy.{name}.candidates_evaluated"),
            per(&|st| st.candidates_evaluated) / m,
            "count",
        );
        push(
            &format!("strategy.{name}.candidates_pruned"),
            per(&|st| st.candidates_pruned) / m,
            "count",
        );
        let pruned = per(&|st| st.candidates_pruned);
        push(
            &format!("strategy.{name}.prune_rate"),
            ratio(pruned, pruned + per(&|st| st.candidates_evaluated)),
            "ratio",
        );
        push(
            &format!("strategy.{name}.subtrees_pruned"),
            per(&|st| st.subtrees_pruned) / m,
            "count",
        );
    }
    out
}
