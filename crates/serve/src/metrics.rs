//! Server observability: counters, latency histograms and cumulative
//! engine stats, rendered in the Prometheus text exposition format at
//! `GET /metrics`.
//!
//! Server counters are fixed-shape atomics — no allocation on the
//! request path — and rendering iterates in a fixed order, so the
//! exposition is deterministic modulo the counter values themselves.
//! The engine counters are one cumulative [`EngineStats`] behind a
//! mutex, folded once per search by [`EngineStats::accumulate`] (which
//! also owns the anytime-only rules for `candidates_visited` and the
//! last-wins gap gauge) and rendered through one name/help/field table.
//! The metrics the acceptance criteria lean on:
//!
//! * `hms_prediction_cache_{hits,misses}_total` and
//!   `hms_profile_cache_{hits,misses}_total` — a warm repeat query must
//!   hit the former without missing the latter;
//! * `hms_simulations_total` / `hms_predictions_computed_total` — must
//!   *not* advance on a warm hit (no re-simulation, no re-rewrite);
//! * `hms_engine_*` — cumulative [`EngineStats`] from every search the
//!   server actually ran.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use hms_core::EngineStats;

/// The routes the server distinguishes in its per-route metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Predict,
    Advise,
    Search,
    Kernels,
    Metrics,
    Healthz,
    Readyz,
    Other,
}

impl Route {
    pub const ALL: [Route; 8] = [
        Route::Predict,
        Route::Advise,
        Route::Search,
        Route::Kernels,
        Route::Metrics,
        Route::Healthz,
        Route::Readyz,
        Route::Other,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Route::Predict => "predict",
            Route::Advise => "advise",
            Route::Search => "search",
            Route::Kernels => "kernels",
            Route::Metrics => "metrics",
            Route::Healthz => "healthz",
            Route::Readyz => "readyz",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        Route::ALL.iter().position(|r| *r == self).expect("in ALL")
    }
}

/// Status classes tracked per route (the exact codes the server emits).
const STATUSES: [u16; 10] = [200, 400, 404, 405, 408, 413, 429, 500, 503, 504];

/// Upper bounds (microseconds) of the latency histogram buckets, plus an
/// implicit `+Inf`. Spans cache-hit microseconds to full-scale
/// simulation seconds.
const BUCKET_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 500_000, 1_000_000,
    5_000_000,
];

#[derive(Default)]
struct Histogram {
    buckets: [AtomicU64; BUCKET_US.len()],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Histogram {
    fn observe(&self, d: Duration) {
        let us = d.as_micros().min(u128::from(u64::MAX)) as u64;
        for (i, &ub) in BUCKET_US.iter().enumerate() {
            if us <= ub {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }
}

/// The `hms_engine_*` counters: series name, help text, and the field of
/// the cumulative [`EngineStats`] each one reads. Deterministic fields
/// only — wall-clock nanos stay out of the exposition so warm-cache
/// assertions can compare exact values.
const ENGINE_COUNTERS: [(&str, &str, fn(&EngineStats) -> u64); 11] = [
    (
        "hms_engine_full_rewrites_total",
        "Whole-trace rewrite+analyze runs across all searches.",
        |s| s.full_rewrites,
    ),
    (
        "hms_engine_delta_cache_hits_total",
        "Candidates composed from memoized deltas.",
        |s| s.delta_cache_hits,
    ),
    (
        "hms_engine_skeletons_built_total",
        "Distinct walk skeletons built.",
        |s| s.skeletons_built,
    ),
    (
        "hms_engine_exact_fallbacks_total",
        "Candidates that fell back to the exact path.",
        |s| s.exact_fallbacks,
    ),
    (
        "hms_engine_candidates_evaluated_total",
        "Candidates evaluated by the model.",
        |s| s.candidates_evaluated,
    ),
    (
        "hms_engine_candidates_visited_total",
        "Partial assignments scored by anytime strategies.",
        |s| s.candidates_visited,
    ),
    (
        "hms_engine_skeleton_disk_hits_total",
        "Skeletons loaded from the persistent cache.",
        |s| s.skeleton_disk_hits,
    ),
    (
        "hms_engine_skeleton_disk_misses_total",
        "Persistent-cache probes that fell back to a rebuild.",
        |s| s.skeleton_disk_misses,
    ),
    (
        "hms_engine_skeleton_disk_writes_total",
        "Healthy skeletons persisted to disk.",
        |s| s.skeleton_disk_writes,
    ),
    (
        "hms_engine_skeleton_tmp_swept_total",
        "Stale skeleton temp files swept at cache open.",
        |s| s.skeleton_disk_tmp_swept,
    ),
    (
        "hms_engine_events_streamed_total",
        "Skeleton events streamed by replays.",
        |s| s.events_streamed,
    ),
];

/// All server metrics. One instance per server, shared by `Arc`.
#[derive(Default)]
pub struct Metrics {
    requests: [AtomicU64; Route::ALL.len()],
    responses: [[AtomicU64; STATUSES.len()]; Route::ALL.len()],
    latency: [Histogram; Route::ALL.len()],
    pub prediction_cache_hits: AtomicU64,
    pub prediction_cache_misses: AtomicU64,
    pub search_cache_hits: AtomicU64,
    pub search_cache_misses: AtomicU64,
    pub profile_cache_hits: AtomicU64,
    pub profile_cache_misses: AtomicU64,
    /// Sample simulations actually run (profile-cache misses end here).
    pub simulations: AtomicU64,
    /// Predictions actually computed (prediction-cache misses end here).
    pub predictions_computed: AtomicU64,
    /// Requests refused with 503 because the accept queue was full.
    pub shed: AtomicU64,
    /// Requests refused with 504 because their deadline passed.
    pub deadline_exceeded: AtomicU64,
    /// Connections currently queued waiting for a worker.
    pub queue_depth: AtomicU64,
    /// Requests currently being handled by workers.
    pub inflight: AtomicU64,
    /// Readiness state as `/readyz` reports it: 0 = ready, 1 = degraded
    /// (shedding), 2 = draining (shutdown in progress).
    pub ready_state: AtomicU64,
    /// Requests that hit the cumulative read deadline (slowloris /
    /// stalled peers answered 408).
    pub read_timeouts: AtomicU64,
    /// Requests answered by joining another identical in-flight request
    /// (single-flight followers — they cost zero model work).
    pub coalesced_requests: AtomicU64,
    /// Cold requests that led a single-flight computation.
    pub singleflight_leaders: AtomicU64,
    /// Connections currently registered with the event loops.
    pub open_connections: AtomicU64,
    /// Requests refused with 429 by a tenant's token-bucket quota.
    pub admission_rejected: AtomicU64,
    /// Stalled compute slots the watchdog force-claimed (answered 504).
    pub watchdog_cancels: AtomicU64,
    /// Search responses served with a downgraded strategy (stamped
    /// `"degraded": true` on the wire).
    pub degraded_responses: AtomicU64,
    /// Current degradation-ladder level: 0 = normal, 1 = capped at beam
    /// search, 2 = capped at local search.
    pub degradation_level: AtomicU64,
    /// Circuit-breaker state of the most recently evaluated tenant:
    /// 0 = closed, 1 = half-open, 2 = open.
    pub breaker_state: AtomicU64,
    /// Cumulative engine counters of every search the server ran.
    engine: Mutex<EngineStats>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    pub fn on_request(&self, route: Route) {
        self.requests[route.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_response(&self, route: Route, status: u16, latency: Duration) {
        if let Some(si) = STATUSES.iter().position(|&s| s == status) {
            self.responses[route.index()][si].fetch_add(1, Ordering::Relaxed);
        }
        self.latency[route.index()].observe(latency);
    }

    /// Fold one search's engine counters into the cumulative totals.
    pub fn on_engine_stats(&self, s: &EngineStats) {
        self.engine().accumulate(s);
    }

    fn engine(&self) -> MutexGuard<'_, EngineStats> {
        self.engine
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Render the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        let g = |out: &mut String, name: &str, help: &str, kind: &str| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        };

        g(
            &mut out,
            "hms_requests_total",
            "Requests received, by route.",
            "counter",
        );
        for r in Route::ALL {
            out.push_str(&format!(
                "hms_requests_total{{route=\"{}\"}} {}\n",
                r.label(),
                self.requests[r.index()].load(Ordering::Relaxed)
            ));
        }

        g(
            &mut out,
            "hms_responses_total",
            "Responses sent, by route and status.",
            "counter",
        );
        for r in Route::ALL {
            for (si, &status) in STATUSES.iter().enumerate() {
                let n = self.responses[r.index()][si].load(Ordering::Relaxed);
                if n > 0 {
                    out.push_str(&format!(
                        "hms_responses_total{{route=\"{}\",status=\"{status}\"}} {n}\n",
                        r.label()
                    ));
                }
            }
        }

        g(
            &mut out,
            "hms_request_duration_seconds",
            "Request handling latency.",
            "histogram",
        );
        for r in Route::ALL {
            let h = &self.latency[r.index()];
            let count = h.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let mut cumulative = 0u64;
            for (i, &ub) in BUCKET_US.iter().enumerate() {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                out.push_str(&format!(
                    "hms_request_duration_seconds_bucket{{route=\"{}\",le=\"{}\"}} {cumulative}\n",
                    r.label(),
                    ub as f64 / 1e6,
                ));
            }
            out.push_str(&format!(
                "hms_request_duration_seconds_bucket{{route=\"{}\",le=\"+Inf\"}} {count}\n",
                r.label()
            ));
            out.push_str(&format!(
                "hms_request_duration_seconds_sum{{route=\"{}\"}} {}\n",
                r.label(),
                h.sum_us.load(Ordering::Relaxed) as f64 / 1e6,
            ));
            out.push_str(&format!(
                "hms_request_duration_seconds_count{{route=\"{}\"}} {count}\n",
                r.label()
            ));
        }

        let counters: [(&str, &str, &AtomicU64); 16] = [
            (
                "hms_prediction_cache_hits_total",
                "Predict queries answered from the prediction cache.",
                &self.prediction_cache_hits,
            ),
            (
                "hms_prediction_cache_misses_total",
                "Predict queries that had to run the model.",
                &self.prediction_cache_misses,
            ),
            (
                "hms_search_cache_hits_total",
                "Advise/search queries answered from the result cache.",
                &self.search_cache_hits,
            ),
            (
                "hms_search_cache_misses_total",
                "Advise/search queries that had to run the engine.",
                &self.search_cache_misses,
            ),
            (
                "hms_profile_cache_hits_total",
                "Sample profiles reused from cache.",
                &self.profile_cache_hits,
            ),
            (
                "hms_profile_cache_misses_total",
                "Sample profiles that had to be simulated.",
                &self.profile_cache_misses,
            ),
            (
                "hms_simulations_total",
                "Sample simulations actually run.",
                &self.simulations,
            ),
            (
                "hms_predictions_computed_total",
                "Predictions actually computed (cache misses).",
                &self.predictions_computed,
            ),
            (
                "hms_shed_total",
                "Requests refused with 503 because the queue was full.",
                &self.shed,
            ),
            (
                "hms_deadline_exceeded_total",
                "Requests refused with 504 past their deadline.",
                &self.deadline_exceeded,
            ),
            (
                "hms_read_timeouts_total",
                "Requests answered 408: not fully received within the read deadline.",
                &self.read_timeouts,
            ),
            (
                "hms_coalesced_requests_total",
                "Requests answered by joining an identical in-flight computation.",
                &self.coalesced_requests,
            ),
            (
                "hms_singleflight_leaders_total",
                "Cold requests that led a single-flight computation.",
                &self.singleflight_leaders,
            ),
            (
                "hms_admission_rejected_total",
                "Requests refused with 429 by a tenant quota.",
                &self.admission_rejected,
            ),
            (
                "hms_watchdog_cancels_total",
                "Stalled compute slots force-claimed by the pool watchdog.",
                &self.watchdog_cancels,
            ),
            (
                "hms_degraded_responses_total",
                "Search responses served with a ladder-downgraded strategy.",
                &self.degraded_responses,
            ),
        ];
        for (name, help, v) in counters {
            g(&mut out, name, help, "counter");
            out.push_str(&format!("{name} {}\n", v.load(Ordering::Relaxed)));
        }

        let engine = *self.engine();
        for (name, help, field) in ENGINE_COUNTERS {
            g(&mut out, name, help, "counter");
            out.push_str(&format!("{name} {}\n", field(&engine)));
        }

        let gauges: [(&str, &str, &AtomicU64); 6] = [
            (
                "hms_queue_depth",
                "Jobs waiting for a worker.",
                &self.queue_depth,
            ),
            (
                "hms_open_connections",
                "Connections currently registered with the event loops.",
                &self.open_connections,
            ),
            (
                "hms_inflight_requests",
                "Requests currently being handled.",
                &self.inflight,
            ),
            (
                "hms_ready_state",
                "Readiness: 0=ready, 1=degraded (shedding), 2=draining.",
                &self.ready_state,
            ),
            (
                "hms_degradation_level",
                "Degradation ladder: 0=normal, 1=beam cap, 2=local-search cap.",
                &self.degradation_level,
            ),
            (
                "hms_breaker_state",
                "Circuit breaker: 0=closed, 1=half-open, 2=open.",
                &self.breaker_state,
            ),
        ];
        for (name, help, v) in gauges {
            g(&mut out, name, help, "gauge");
            out.push_str(&format!("{name} {}\n", v.load(Ordering::Relaxed)));
        }
        g(
            &mut out,
            "hms_engine_gap_upper_bound",
            "Reported optimality-gap upper bound of the most recent anytime search.",
            "gauge",
        );
        out.push_str(&format!(
            "hms_engine_gap_upper_bound {}\n",
            engine.gap_upper_bound
        ));
        out
    }

    /// Parse a single counter value back out of a rendered exposition —
    /// test/bench helper, not a full Prometheus parser. Labelled series
    /// need the full `name{labels}` string.
    pub fn scrape_counter(exposition: &str, series: &str) -> Option<f64> {
        exposition.lines().find_map(|l| {
            let rest = l.strip_prefix(series)?;
            let rest = rest.strip_prefix(' ')?;
            rest.trim().parse().ok()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_core_series() {
        let m = Metrics::new();
        m.on_request(Route::Predict);
        m.on_response(Route::Predict, 200, Duration::from_micros(120));
        m.prediction_cache_hits.fetch_add(3, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("hms_requests_total{route=\"predict\"} 1"));
        assert!(text.contains("hms_responses_total{route=\"predict\",status=\"200\"} 1"));
        assert!(text.contains("hms_prediction_cache_hits_total 3"));
        assert!(
            text.contains("hms_request_duration_seconds_bucket{route=\"predict\",le=\"+Inf\"} 1")
        );
        assert!(text.contains("# TYPE hms_request_duration_seconds histogram"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.on_response(Route::Search, 200, Duration::from_micros(60));
        m.on_response(Route::Search, 200, Duration::from_micros(60_000));
        let text = m.render();
        // 60 us lands in le=0.0001; both land in le=0.1.
        assert!(
            text.contains("hms_request_duration_seconds_bucket{route=\"search\",le=\"0.0001\"} 1")
        );
        assert!(text.contains("hms_request_duration_seconds_bucket{route=\"search\",le=\"0.1\"} 2"));
        assert!(text.contains("hms_request_duration_seconds_count{route=\"search\"} 2"));
    }

    #[test]
    fn engine_stats_accumulate() {
        let m = Metrics::new();
        let s = EngineStats {
            full_rewrites: 4,
            delta_cache_hits: 12,
            candidates_evaluated: 16,
            ..EngineStats::default()
        };
        m.on_engine_stats(&s);
        m.on_engine_stats(&s);
        let text = m.render();
        assert!(text.contains("hms_engine_full_rewrites_total 8"));
        assert!(text.contains("hms_engine_delta_cache_hits_total 24"));
        assert!(text.contains("hms_engine_candidates_evaluated_total 32"));
    }

    #[test]
    fn events_streamed_accumulates() {
        let m = Metrics::new();
        for events_streamed in [900, 100] {
            m.on_engine_stats(&EngineStats {
                events_streamed,
                ..EngineStats::default()
            });
        }
        let text = m.render();
        assert!(text.contains("hms_engine_events_streamed_total 1000"));
    }

    #[test]
    fn anytime_stats_feed_visited_counter_and_gap_gauge() {
        let m = Metrics::new();
        // Exact searches leave both series untouched.
        let exact = EngineStats {
            strategy: "exhaustive",
            candidates_visited: 99,
            gap_upper_bound: 0.5,
            ..EngineStats::default()
        };
        m.on_engine_stats(&exact);
        let text = m.render();
        assert!(text.contains("hms_engine_candidates_visited_total 0"));
        assert!(text.contains("hms_engine_gap_upper_bound 0\n"));
        // Anytime searches accumulate visits; the gauge is last-wins.
        let beam = EngineStats {
            strategy: "beam",
            candidates_visited: 10,
            gap_upper_bound: 0.25,
            ..EngineStats::default()
        };
        m.on_engine_stats(&beam);
        m.on_engine_stats(&beam);
        let text = m.render();
        assert!(text.contains("hms_engine_candidates_visited_total 20"));
        assert_eq!(
            Metrics::scrape_counter(&text, "hms_engine_gap_upper_bound"),
            Some(0.25)
        );
    }

    /// The whole `hms_engine_*` exposition — names, HELP, TYPE, order
    /// and values — after folding a fixed mix of exact and anytime
    /// searches.
    #[test]
    fn engine_block_exposition_is_golden() {
        let m = Metrics::new();
        let exhaustive = EngineStats {
            strategy: "exhaustive",
            skeletons_built: 3,
            full_rewrites: 4,
            delta_cache_hits: 60,
            exact_fallbacks: 1,
            memo_tables_built: 9,
            skeleton_disk_hits: 2,
            skeleton_disk_misses: 1,
            skeleton_disk_writes: 1,
            skeleton_disk_tmp_swept: 1,
            candidates_enumerated: 64,
            candidates_evaluated: 64,
            candidates_visited: 99,
            gap_upper_bound: 0.5,
            events_streamed: 1000,
            prepare_nanos: 123,
            evaluate_nanos: 456,
            ..EngineStats::default()
        };
        let beam = EngineStats {
            strategy: "beam",
            skeletons_built: 1,
            full_rewrites: 1,
            delta_cache_hits: 20,
            candidates_evaluated: 21,
            candidates_visited: 40,
            gap_upper_bound: 0.125,
            events_streamed: 300,
            ..EngineStats::default()
        };
        let local = EngineStats {
            strategy: "local_search",
            delta_cache_hits: 11,
            candidates_evaluated: 11,
            candidates_visited: 11,
            gap_upper_bound: 0.0625,
            events_streamed: 700,
            ..EngineStats::default()
        };
        let bnb = EngineStats {
            strategy: "branch_and_bound",
            skeletons_built: 1,
            full_rewrites: 2,
            delta_cache_hits: 5,
            candidates_evaluated: 5,
            candidates_visited: 3,
            gap_upper_bound: 0.9,
            events_streamed: 50,
            ..EngineStats::default()
        };
        for s in [&exhaustive, &beam, &local, &bnb] {
            m.on_engine_stats(s);
        }
        let text = m.render();
        let block: Vec<&str> = text.lines().filter(|l| l.contains("hms_engine_")).collect();
        let expected = "\
# HELP hms_engine_full_rewrites_total Whole-trace rewrite+analyze runs across all searches.
# TYPE hms_engine_full_rewrites_total counter
hms_engine_full_rewrites_total 7
# HELP hms_engine_delta_cache_hits_total Candidates composed from memoized deltas.
# TYPE hms_engine_delta_cache_hits_total counter
hms_engine_delta_cache_hits_total 96
# HELP hms_engine_skeletons_built_total Distinct walk skeletons built.
# TYPE hms_engine_skeletons_built_total counter
hms_engine_skeletons_built_total 5
# HELP hms_engine_exact_fallbacks_total Candidates that fell back to the exact path.
# TYPE hms_engine_exact_fallbacks_total counter
hms_engine_exact_fallbacks_total 1
# HELP hms_engine_candidates_evaluated_total Candidates evaluated by the model.
# TYPE hms_engine_candidates_evaluated_total counter
hms_engine_candidates_evaluated_total 101
# HELP hms_engine_candidates_visited_total Partial assignments scored by anytime strategies.
# TYPE hms_engine_candidates_visited_total counter
hms_engine_candidates_visited_total 51
# HELP hms_engine_skeleton_disk_hits_total Skeletons loaded from the persistent cache.
# TYPE hms_engine_skeleton_disk_hits_total counter
hms_engine_skeleton_disk_hits_total 2
# HELP hms_engine_skeleton_disk_misses_total Persistent-cache probes that fell back to a rebuild.
# TYPE hms_engine_skeleton_disk_misses_total counter
hms_engine_skeleton_disk_misses_total 1
# HELP hms_engine_skeleton_disk_writes_total Healthy skeletons persisted to disk.
# TYPE hms_engine_skeleton_disk_writes_total counter
hms_engine_skeleton_disk_writes_total 1
# HELP hms_engine_skeleton_tmp_swept_total Stale skeleton temp files swept at cache open.
# TYPE hms_engine_skeleton_tmp_swept_total counter
hms_engine_skeleton_tmp_swept_total 1
# HELP hms_engine_events_streamed_total Skeleton events streamed by replays.
# TYPE hms_engine_events_streamed_total counter
hms_engine_events_streamed_total 2050
# HELP hms_engine_gap_upper_bound Reported optimality-gap upper bound of the most recent anytime search.
# TYPE hms_engine_gap_upper_bound gauge
hms_engine_gap_upper_bound 0.0625";
        assert_eq!(block.join("\n"), expected);
    }

    #[test]
    fn scrape_counter_reads_back() {
        let m = Metrics::new();
        m.simulations.fetch_add(7, Ordering::Relaxed);
        m.on_request(Route::Advise);
        let text = m.render();
        assert_eq!(
            Metrics::scrape_counter(&text, "hms_simulations_total"),
            Some(7.0)
        );
        assert_eq!(
            Metrics::scrape_counter(&text, "hms_requests_total{route=\"advise\"}"),
            Some(1.0)
        );
        assert_eq!(Metrics::scrape_counter(&text, "hms_nope"), None);
    }
}
