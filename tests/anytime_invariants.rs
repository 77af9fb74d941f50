//! Invariants of the anytime search strategies (DESIGN.md §14).
//!
//! Three contracts, checked end to end:
//!
//! * **Sandwich** — for any strategy and any knob setting, the best
//!   placement found never beats the exhaustive optimum, and the
//!   reported gap bound always covers the distance back to it:
//!   `optimum ≤ best ≤ optimum × (1 + gap_upper_bound)`.
//! * **Determinism** — a seeded local search is bit-identical at any
//!   worker count: same ranking, same prediction bits, same gap.
//! * **Partial results are never cached** — a deadline-cut ranking
//!   reflects that request's deadline, not the query; the server must
//!   recompute it on the next identical request instead of serving the
//!   truncated body forever.

use std::time::Duration;

use gpu_hms::faults::Client;
use gpu_hms::prelude::*;
use hms_stats::proptest_lite::{check, Config};

fn setup(kernel: &str) -> (Predictor, Profile, Vec<hms_types::ArrayDef>) {
    let cfg = GpuConfig::test_small();
    let kt = by_name(kernel, Scale::Test).unwrap();
    let profile = profile_sample(&kt, &kt.default_placement(), &cfg).unwrap();
    (Predictor::new(cfg), profile, kt.arrays)
}

/// Property: every strategy, at randomly drawn knobs, respects the
/// sandwich bound against the exhaustive optimum on kernels small
/// enough to rank completely.
#[test]
fn sandwich_property_holds_for_random_strategies_and_knobs() {
    let setups: Vec<_> = ["vecadd", "wide4", "wide5"]
        .iter()
        .map(|name| {
            let (predictor, profile, arrays) = setup(name);
            let base = profile.trace.placement.clone();
            let optimum = SearchRequest::new(&arrays, &base)
                .run(&predictor, &profile)
                .unwrap()
                .best()
                .unwrap()
                .predicted_cycles;
            (*name, predictor, profile, arrays, base, optimum)
        })
        .collect();
    check(
        "anytime_sandwich",
        &Config::with_cases(32),
        |rng| {
            let k = rng.gen_range(0u64..3) as usize;
            let strategy = match rng.gen_range(0u64..3) {
                0 => SearchStrategy::Beam {
                    width: rng.gen_range(1u64..13) as usize,
                },
                1 => SearchStrategy::SuccessiveHalving,
                _ => SearchStrategy::LocalSearch {
                    seed: rng.next_u64(),
                },
            };
            (k, strategy)
        },
        |(k, strategy)| {
            let (name, predictor, profile, arrays, base, optimum) = &setups[*k];
            let out = SearchRequest::new(arrays, base)
                .strategy(*strategy)
                .run(predictor, profile)
                .map_err(|e| e.to_string())?;
            let best = out.best().expect("non-empty ranking").predicted_cycles;
            let gap = out.stats.gap_upper_bound;
            if !(gap.is_finite() && gap >= 0.0) {
                return Err(format!("{name} {strategy:?}: bad gap {gap}"));
            }
            if best < *optimum {
                return Err(format!(
                    "{name} {strategy:?}: best {best} beats the optimum {optimum}"
                ));
            }
            if best > optimum * (1.0 + gap) + 1e-6 {
                return Err(format!(
                    "{name} {strategy:?}: best {best} outside optimum {optimum} x (1 + {gap})"
                ));
            }
            Ok(())
        },
    );
}

/// A seeded local search over a wide kernel is bit-identical across
/// worker counts — ranking order, prediction bits, and the reported
/// gap all match at 1, 2, and 8 workers.
#[test]
fn local_search_is_bit_identical_across_worker_counts_on_wide_kernels() {
    let (predictor, profile, arrays) = setup("wide6");
    let base = profile.trace.placement.clone();
    for seed in [7u64, 42, 0xDEAD_BEEF] {
        let runs: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                SearchRequest::new(&arrays, &base)
                    .strategy(SearchStrategy::LocalSearch { seed })
                    .threads(threads)
                    .run(&predictor, &profile)
                    .unwrap()
            })
            .collect();
        for (i, other) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                runs[0].ranked.len(),
                other.ranked.len(),
                "seed {seed}: ranking length diverged at run {i}"
            );
            for (a, b) in runs[0].ranked.iter().zip(&other.ranked) {
                assert_eq!(a.placement, b.placement, "seed {seed}");
                assert_eq!(
                    a.predicted_cycles.to_bits(),
                    b.predicted_cycles.to_bits(),
                    "seed {seed}"
                );
            }
            assert_eq!(
                runs[0].stats.gap_upper_bound.to_bits(),
                other.stats.gap_upper_bound.to_bits(),
                "seed {seed}: gap diverged"
            );
            assert_eq!(
                runs[0].stats.candidates_visited,
                other.stats.candidates_visited
            );
        }
    }
}

/// A deadline-cut (`"partial": true`) or degraded search response must
/// never enter the rank cache: the identical follow-up request
/// recomputes. A
/// completed search on the same server IS cached, proving the cache
/// itself works and only partial results are excluded.
#[test]
fn partial_deadline_cut_searches_are_never_cached() {
    let advisor = || {
        Advisor::new(
            GpuConfig::test_small(),
            Predictor::new(GpuConfig::test_small()),
        )
    };
    let hits = |c: &mut Client| {
        let (status, text) = c.request("GET", "/metrics", "").expect("response");
        assert_eq!(status, 200);
        Metrics::scrape_counter(&text, "hms_search_cache_hits_total").unwrap()
    };

    // Contrast server, generous default deadline: a search that
    // completes is served from cache on repeat.
    let relaxed = ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(1)
        .spawn(ConfigRegistry::new("default", advisor()))
        .expect("binds");
    let mut c = Client::connect(relaxed.addr()).expect("connects");
    let small = r#"{"kernel":"vecadd","scale":"test","top":1}"#;
    let (status, body) = c.request("POST", "/v1/search", small).expect("response");
    assert_eq!(status, 200);
    assert!(!body.contains("\"partial\""), "vecadd was cut: {body}");
    let (status, _) = c.request("POST", "/v1/search", small).expect("response");
    assert_eq!(status, 200);
    assert_eq!(hits(&mut c), 1.0, "completed search must be cached");
    relaxed.shutdown();

    // Partial server: a generous wall-clock deadline, with the deadline
    // clock skewed ahead by all of it. The skew drains every search's
    // budget to zero, so each one is cut after its first evaluation
    // batch however late the worker picks it up, while the wall-clock
    // 504 check never fires. A drained budget also puts the ladder at
    // its last level: exhaustive and halving come back degraded to
    // local search, and a local search (already at the cap) comes back
    // partial only. None of these bodies may enter the cache.
    let deadline = Duration::from_secs(60);
    let tight = ServerConfig::new()
        .bind("127.0.0.1:0")
        .workers(1)
        .deadline(deadline)
        .spawn(ConfigRegistry::new("default", advisor()))
        .expect("binds");
    tight.set_clock_skew(deadline);
    let mut c = Client::connect(tight.addr()).expect("connects");
    for (body, degraded) in [
        (r#"{"kernel":"wide8","scale":"test","top":1}"#, true),
        (
            r#"{"kernel":"wide8","scale":"test","top":1,"strategy":"halving"}"#,
            true,
        ),
        (
            r#"{"kernel":"wide8","scale":"test","top":1,"strategy":"local"}"#,
            false,
        ),
    ] {
        for round in 0..2 {
            let (status, text) = c.request("POST", "/v1/search", body).expect("response");
            assert_eq!(status, 200, "round {round}: {text}");
            assert!(
                text.contains("\"partial\": true"),
                "round {round}: expected a deadline cut: {body}"
            );
            assert_eq!(
                text.contains("\"degraded\": true"),
                degraded,
                "round {round}: {body} -> {text}"
            );
        }
    }
    assert_eq!(
        hits(&mut c),
        0.0,
        "a partial or degraded search body was served from cache"
    );
    tight.shutdown();
}
