//! The serve-predict workload: a closed loop of HTTP/1.1 requests from
//! one client thread over one keep-alive connection to an in-process
//! `hms-serve` (`shards(1)`, `workers(nproc)`).
//!
//! A *pass* is one server lifetime: spawn, warm up, then 55 blocks of
//! 20 requests (see [`crate::plan`]). Every pass starts from a fresh
//! server, so its misses are never-seen placements for the server, and
//! the run's passes never draw the same placement twice.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use hms_core::analysis::analyze;
use hms_core::{Predictor, Profile};
use hms_kernels::Scale;
use hms_serve::http::{parse_request_bytes, write_response, Parse};
use hms_serve::{
    decode, Advisor, ConfigRegistry, Effort, Metrics, PredictQuery, RankQuery, ServerConfig,
    ServerHandle,
};
use hms_trace::KernelTrace;
use hms_types::PlacementMap;

use crate::plan::{
    max_passes, plan_pass, predict_body, search_body, Class, MissKernel, Op, BLOCKS_PER_PASS,
    BLOCK_LEN,
};
use crate::report::{Budget, Metric, Phase};
use crate::setup::{cfg, nproc, trained_predictor};
use crate::spans::Tracer;

/// The never-seen placements of spmv and wide8: every legal placement
/// of every array, in enumeration order, minus the sample placement.
pub struct Pools {
    kernels: [Arc<KernelTrace>; 2],
    pools: [Vec<PlacementMap>; 2],
}

impl Pools {
    pub fn new() -> Pools {
        let kernels = MissKernel::ALL.map(|k| {
            Arc::new(
                hms_kernels::by_name(k.name(), Scale::Full).expect("miss kernel is registered"),
            )
        });
        let pools = MissKernel::ALL.map(|k| {
            let kt = &kernels[k.index()];
            let sample = kt.default_placement();
            let ids: Vec<_> = kt.arrays.iter().map(|a| a.id).collect();
            let mut all =
                hms_core::enumerate_placements(&kt.arrays, &sample, &ids, &cfg(), usize::MAX);
            all.retain(|pm| *pm != sample);
            all
        });
        Pools { kernels, pools }
    }

    fn lens(&self) -> [usize; 2] {
        [self.pools[0].len(), self.pools[1].len()]
    }

    /// The placement a target names: `None` is the sample placement.
    fn placement(&self, k: MissKernel, index: Option<usize>) -> PlacementMap {
        match index {
            Some(i) => self.pools[k.index()][i].clone(),
            None => self.kernels[k.index()].default_placement(),
        }
    }

    fn body(&self, k: MissKernel, index: Option<usize>, variant: u32) -> String {
        let kt = &self.kernels[k.index()];
        let pm = self.placement(k, index);
        let names: Vec<&str> = kt.arrays.iter().map(|a| a.name.as_str()).collect();
        let spaces: Vec<&str> = kt.arrays.iter().map(|a| pm.space(a.id).short()).collect();
        predict_body(k.name(), &names, &spaces, variant)
    }
}

pub struct ServeSetup {
    predictor: Predictor,
    /// In-process advisor: the reference bodies and the traced re-runs.
    advisor: Advisor,
    /// The server the next pass talks to, already warmed up.
    server: Option<Warm>,
}

/// A spawned, warmed-up server and the answers its warm-up received.
struct Warm {
    handle: ServerHandle,
    search_bodies: [String; 2],
}

/// Spawn a server over a trained model and warm it up: one predict of
/// each sample placement (building the kernel and simulating its
/// profile) and one search per kernel, whose respellings later hit
/// `rank_cache`.
fn spawn(predictor: &Predictor, pools: &Pools) -> Result<Warm, String> {
    let advisor = Advisor::new(cfg(), predictor.clone());
    let handle = ServerConfig::new()
        .bind("127.0.0.1:0")
        .shards(1)
        .workers(nproc())
        .spawn(ConfigRegistry::new("default", advisor))
        .map_err(|e| format!("server spawn: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut search_bodies = [String::new(), String::new()];
    for k in MissKernel::ALL {
        let (status, _) = client.post("/v1/predict", &pools.body(k, None, 0))?;
        let (s2, body) = client.post("/v1/search", &search_body(k.name(), 0))?;
        if status != 200 || s2 != 200 {
            return Err(format!("warm-up of {} answered {status}/{s2}", k.name()));
        }
        search_bodies[k.index()] = body;
    }
    Ok(Warm {
        handle,
        search_bodies,
    })
}

impl ServeSetup {
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }
}

pub fn setup(pools: &Pools, tr: &mut Tracer) -> ServeSetup {
    let predictor = trained_predictor(tr);
    let advisor = Advisor::new(cfg(), predictor.clone());
    for k in MissKernel::ALL {
        let kt = tr.time("kernels.build", 0, || {
            advisor
                .kernel(k.name(), Scale::Full)
                .expect("miss kernel is registered")
        });
        tr.time("profile.simulate", 0, || {
            advisor
                .profile(&kt, Scale::Full, &mut Effort::default())
                .expect("sample placement profiles")
        });
    }
    let server = tr.time("serve.spawn", 0, || {
        spawn(&predictor, pools).expect("server starts")
    });
    ServeSetup {
        predictor,
        advisor,
        server: Some(server),
    }
}

/// What one response named, for the answer checks.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    Predict(MissKernel, Option<usize>),
    Search(MissKernel),
}

struct Answer {
    target: Target,
    status: u16,
    body: String,
}

/// Counters scraped from `/metrics`, summed over passes.
#[derive(Default)]
struct Counters {
    values: HashMap<&'static str, f64>,
}

const SCRAPED: [&str; 12] = [
    "hms_prediction_cache_hits_total",
    "hms_prediction_cache_misses_total",
    "hms_search_cache_hits_total",
    "hms_search_cache_misses_total",
    "hms_predictions_computed_total",
    "hms_simulations_total",
    "hms_coalesced_requests_total",
    "hms_shed_total",
    "hms_deadline_exceeded_total",
    "hms_admission_rejected_total",
    "hms_degraded_responses_total",
    "hms_request_duration_seconds_count{route=\"predict\"}",
];
const PREDICT_SECONDS_SUM: &str = "hms_request_duration_seconds_sum{route=\"predict\"}";

impl Counters {
    fn add_delta(&mut self, before: &str, after: &str) {
        for name in SCRAPED.iter().chain([&PREDICT_SECONDS_SUM]) {
            let v = |text: &str| Metrics::scrape_counter(text, name).unwrap_or(0.0);
            *self.values.entry(name).or_default() += v(after) - v(before);
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// What the traced re-runs found beyond their spans.
#[derive(Default)]
struct Traced {
    residual_ms: Vec<f64>,
    model: ModelStats,
    disagreements: u64,
}

#[derive(Default)]
struct ModelStats {
    l2_transactions: u64,
    l2_misses: u64,
    tex_misses: u64,
    const_misses: u64,
    dram_requests: u64,
    replays: u64,
}

/// The timed phase: whole passes while the next one is expected to end
/// within the budget (at least one), or a fixed number of blocks of the
/// first pass.
pub fn run(
    setup: &mut ServeSetup,
    pools: &Pools,
    seed: u64,
    budget: Budget,
    tr: &mut Tracer,
) -> Phase {
    let mut phase = Phase::new(Class::ALL.iter().map(|c| c.name()).collect());
    let mut answers: Vec<Answer> = Vec::new();
    let mut counters = Counters::default();
    let mut traced = Traced::default();
    let mut search_bodies: Vec<[String; 2]> = Vec::new();
    let start = Instant::now();
    let mut last_pass_s = 0.0;
    for pass in 0..max_passes(pools.lens()) {
        let blocks = match budget {
            Budget::Seconds(s) => {
                if pass > 0 && start.elapsed().as_secs_f64() + last_pass_s > s {
                    break;
                }
                BLOCKS_PER_PASS
            }
            Budget::Units(n) => {
                if pass > 0 {
                    break;
                }
                n.min(BLOCKS_PER_PASS)
            }
        };
        let t_pass = Instant::now();
        let warm = match setup.server.take() {
            Some(w) => w,
            None => match spawn(&setup.predictor, pools) {
                Ok(w) => w,
                Err(e) => {
                    phase.violation(e);
                    break;
                }
            },
        };
        let before = warm.handle.metrics().render();
        let ops = &plan_pass(seed, pass, pools.lens())[..blocks * BLOCK_LEN];
        if let Err(e) = run_pass(
            setup,
            pools,
            &warm,
            ops,
            &mut phase,
            &mut answers,
            &mut traced,
            tr,
        ) {
            phase.violation(e);
        }
        counters.add_delta(&before, &warm.handle.metrics().render());
        search_bodies.push(warm.search_bodies.clone());
        warm.handle.shutdown();
        last_pass_s = t_pass.elapsed().as_secs_f64();
    }

    check_answers(setup, pools, &answers, &search_bodies, &mut phase);
    check_counters(&counters, &mut phase);
    if traced.disagreements > 0 {
        phase.violation(format!(
            "{} layer decompositions disagree with Advisor::predict",
            traced.disagreements
        ));
    }
    phase.layers = layers(&phase, &counters, &traced, tr);
    phase
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    setup: &ServeSetup,
    pools: &Pools,
    warm: &Warm,
    ops: &[Op],
    phase: &mut Phase,
    answers: &mut Vec<Answer>,
    traced: &mut Traced,
    tr: &mut Tracer,
) -> Result<(), String> {
    let mut client = Client::connect(warm.handle.addr()).map_err(|e| format!("connect: {e}"))?;
    // Predict bodies sent so far and the placement each names; answered
    // placements in order. The warm-up's sample predicts come first.
    let mut bodies: Vec<(String, usize)> = Vec::new();
    let mut answered: Vec<(MissKernel, Option<usize>)> = Vec::new();
    for k in MissKernel::ALL {
        bodies.push((pools.body(k, None, 0), answered.len()));
        answered.push((k, None));
    }
    for op in ops {
        let (path, body, target) = match *op {
            Op::Miss { kernel, index } => {
                answered.push((kernel, Some(index)));
                let body = pools.body(kernel, Some(index), 0);
                bodies.push((body.clone(), answered.len() - 1));
                ("/v1/predict", body, Target::Predict(kernel, Some(index)))
            }
            Op::Repeat { body } => {
                let (text, j) = &bodies[body];
                let (k, i) = answered[*j];
                ("/v1/predict", text.clone(), Target::Predict(k, i))
            }
            Op::RespellPredict { placement, variant } => {
                let (k, i) = answered[placement];
                let body = pools.body(k, i, variant);
                bodies.push((body.clone(), placement));
                ("/v1/predict", body, Target::Predict(k, i))
            }
            Op::RespellSearch { kernel, variant } => (
                "/v1/search",
                search_body(kernel.name(), variant),
                Target::Search(kernel),
            ),
        };
        let raw = request_bytes(path, &body);
        let id = phase.attempted();
        let span = tr.enter("serve.op", id);
        let t0 = Instant::now();
        let reply = tr.time("serve.rtt", id, || client.roundtrip(&raw));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if tr.is_on() {
            if let Ok((_, resp)) = &reply {
                rerun(setup, pools, op, target, &raw, resp, ms, id, traced, tr);
            }
        }
        tr.exit(span);
        let (status, resp) = reply.unwrap_or((0, String::new()));
        let class = Class::ALL
            .iter()
            .position(|c| *c == op.class())
            .expect("known class");
        phase.record(
            class,
            ms,
            status == 200,
            u64::from(op.class() == Class::Miss),
        );
        answers.push(Answer {
            target,
            status,
            body: resp,
        });
    }
    Ok(())
}

fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The traced run's per-layer timings: re-run the server's stages on the
/// same request bytes, and for a miss the model layers on its placement.
#[allow(clippy::too_many_arguments)]
fn rerun(
    setup: &ServeSetup,
    pools: &Pools,
    op: &Op,
    target: Target,
    raw: &[u8],
    resp: &str,
    rtt_ms: f64,
    id: u64,
    traced: &mut Traced,
    tr: &mut Tracer,
) {
    let t_parse = Instant::now();
    let req = tr.time("serve.parse", id, || match parse_request_bytes(raw) {
        Parse::Complete { req, .. } => Some(req),
        _ => None,
    });
    let parse_ms = t_parse.elapsed().as_secs_f64() * 1e3;
    let Some(req) = req else {
        return;
    };
    let query = tr.time("serve.decode", id, || {
        let v = decode(std::str::from_utf8(&req.body).ok()?).ok()?;
        match target {
            Target::Predict(..) => PredictQuery::from_json(&v).ok().map(Some),
            Target::Search(_) => RankQuery::from_json(&v, true).ok().map(|_| None),
        }
    });
    let t_write = Instant::now();
    tr.time("serve.write", id, || {
        let mut sink = Vec::with_capacity(resp.len() + 128);
        write_response(&mut sink, 200, "application/json", resp.as_bytes(), false).ok();
        black_box(sink)
    });
    let write_ms = t_write.elapsed().as_secs_f64() * 1e3;
    if matches!(op, Op::Repeat { .. }) {
        traced.residual_ms.push(rtt_ms - parse_ms - write_ms);
    }
    let (Some(Some(q)), Target::Predict(k, i), Op::Miss { .. }) = (query, target, op) else {
        return;
    };
    let pred = tr.time("serve.compute", id, || {
        setup.advisor.predict(&q, &mut Effort::default())
    });
    let Ok((json, pred)) = pred else {
        return;
    };
    tr.time("serve.encode", id, || black_box(json.encode_pretty()));

    // The model layers of Eq. 1 on the miss's placement.
    let Ok(kt) = setup.advisor.kernel(k.name(), Scale::Full) else {
        return;
    };
    let Ok(profile) = setup
        .advisor
        .profile(&kt, Scale::Full, &mut Effort::default())
    else {
        return;
    };
    let pm = pools.placement(k, i);
    let p: &Predictor = &setup.predictor;
    let c = &p.cfg;
    let profile: &Profile = &profile;
    let Ok(trace) = tr.time("trace.rewrite", id, || {
        hms_trace::rewrite(&profile.trace, &pm, c)
    }) else {
        return;
    };
    let a = tr.time("analysis.walk", id, || analyze(&trace, c));
    let tc = tr.time("tcomp", id, || {
        hms_core::tcomp::tcomp(profile, &a, c, p.options.detailed_instr)
    });
    tr.time("tmem.dram_estimate", id, || {
        black_box(hms_core::tmem::dram_estimate(
            profile,
            &a,
            c,
            p.options.queuing,
        ))
    });
    let tm = tr.time("tmem", id, || {
        hms_core::tmem::tmem(profile, &a, c, p.options.queuing)
    });
    let to = tr.time("toverlap", id, || {
        p.overlap.t_overlap(&a, c, tc.cycles, tm.cycles)
    });
    if (tc.cycles + tm.cycles - to).max(1.0).to_bits() != pred.cycles.to_bits() {
        traced.disagreements += 1;
    }
    let m = &mut traced.model;
    m.l2_transactions += a.l2_transactions;
    m.l2_misses += a.l2_misses;
    m.tex_misses += a.tex_misses;
    m.const_misses += a.const_misses;
    m.dram_requests += a.dram.len() as u64;
    m.replays += a.replays_1_to_4();
}

/// Every predict body must be byte-identical to the in-process
/// `Advisor::predict` answer for its placement (encoded as the server
/// encodes it), and every respelled search to the pass's first answer.
fn check_answers(
    setup: &ServeSetup,
    pools: &Pools,
    answers: &[Answer],
    search_bodies: &[[String; 2]],
    phase: &mut Phase,
) {
    let mut distinct: Vec<(MissKernel, Option<usize>)> = answers
        .iter()
        .filter_map(|a| match a.target {
            Target::Predict(k, i) => Some((k, i)),
            Target::Search(_) => None,
        })
        .collect();
    distinct.sort_by_key(|(k, i)| (k.index(), *i));
    distinct.dedup();
    let expected: Vec<Option<String>> = hms_stats::par::par_map(&distinct, |(k, i)| {
        let body = pools.body(*k, *i, 0);
        let q = PredictQuery::from_json(&decode(&body).ok()?).ok()?;
        let (json, _) = setup.advisor.predict(&q, &mut Effort::default()).ok()?;
        Some(json.encode_pretty())
    });
    let expected: HashMap<_, _> = distinct.into_iter().zip(expected).collect();
    // Answers are in op order; passes follow one another, so the pass of
    // an answer is found by counting ops.
    let per_pass = BLOCK_LEN * BLOCKS_PER_PASS;
    for (n, a) in answers.iter().enumerate() {
        let ok = a.status == 200
            && match a.target {
                Target::Predict(k, i) => expected
                    .get(&(k, i))
                    .and_then(|e| e.as_deref())
                    .is_some_and(|e| e == a.body),
                Target::Search(k) => search_bodies
                    .get(n / per_pass)
                    .is_some_and(|b| b[k.index()] == a.body),
            };
        if !ok {
            phase.fail_op(n);
        }
    }
}

/// The cache counters must show exactly the planned traffic.
fn check_counters(c: &Counters, phase: &mut Phase) {
    let hits = c.get("hms_prediction_cache_hits_total") + c.get("hms_search_cache_hits_total");
    let misses =
        c.get("hms_prediction_cache_misses_total") + c.get("hms_search_cache_misses_total");
    // 75% hits is exactly three hits per miss.
    if hits != 3.0 * misses {
        phase.violation(format!(
            "hit ratio {hits}/{} is not the planned 75%",
            hits + misses
        ));
    }
    let miss_ops = phase.candidates as f64;
    if c.get("hms_predictions_computed_total") != miss_ops {
        phase.violation(format!(
            "{} predictions computed for {miss_ops} planned misses",
            c.get("hms_predictions_computed_total")
        ));
    }
    for name in [
        "hms_simulations_total",
        "hms_coalesced_requests_total",
        "hms_shed_total",
        "hms_deadline_exceeded_total",
        "hms_admission_rejected_total",
        "hms_degraded_responses_total",
    ] {
        if c.get(name) != 0.0 {
            phase.violation(format!("{name} = {} in the timed phase", c.get(name)));
        }
    }
}

fn layers(phase: &Phase, c: &Counters, t: &Traced, tr: &Tracer) -> Vec<Metric> {
    let totals = tr.totals();
    let ms = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_ms());
    let class_mean = |class: Class| {
        let idx = Class::ALL
            .iter()
            .position(|c| *c == class)
            .expect("known class");
        let xs: Vec<f64> = phase
            .lat_ms
            .iter()
            .zip(&phase.class)
            .filter(|(_, c)| **c == idx)
            .map(|(l, _)| *l)
            .collect();
        crate::stats::mean(&xs)
    };
    let hits = c.get("hms_prediction_cache_hits_total") + c.get("hms_search_cache_hits_total");
    let misses =
        c.get("hms_prediction_cache_misses_total") + c.get("hms_search_cache_misses_total");
    let count = c.get("hms_request_duration_seconds_count{route=\"predict\"}");
    let server_ms = if count > 0.0 {
        c.get(PREDICT_SECONDS_SUM) / count * 1e3
    } else {
        0.0
    };
    let m = &t.model;
    let analysis_calls = totals.get("analysis.walk").map_or(0, |t| t.count);
    let mut out = vec![
        Metric::new("trace.rewrite_ms", ms("trace.rewrite"), "ms"),
        Metric::new("analysis.walk_ms", ms("analysis.walk"), "ms"),
        Metric::new("analysis.calls", analysis_calls as f64, "count"),
        Metric::new(
            "tmem.dram_estimate_us",
            ms("tmem.dram_estimate") * 1e3,
            "us",
        ),
        Metric::new("tmem.us", ms("tmem") * 1e3, "us"),
        Metric::new("tcomp.us", ms("tcomp") * 1e3, "us"),
        Metric::new("toverlap.us", ms("toverlap") * 1e3, "us"),
        Metric::new("cache.l2_transactions", m.l2_transactions as f64, "count"),
        Metric::new("cache.l2_misses", m.l2_misses as f64, "count"),
        Metric::new("cache.tex_misses", m.tex_misses as f64, "count"),
        Metric::new("cache.const_misses", m.const_misses as f64, "count"),
        Metric::new("dram.requests", m.dram_requests as f64, "count"),
        Metric::new("replays.placement_dependent", m.replays as f64, "count"),
        Metric::new("serve.rtt_repeat_ms", class_mean(Class::Repeat), "ms"),
        Metric::new("serve.rtt_respelled_ms", class_mean(Class::Respelled), "ms"),
        Metric::new("serve.rtt_miss_ms", class_mean(Class::Miss), "ms"),
        Metric::new(
            "serve.parse_us",
            (ms("serve.parse") + ms("serve.decode")) * 1e3,
            "us",
        ),
        Metric::new(
            "serve.encode_us",
            (ms("serve.encode") + ms("serve.write")) * 1e3,
            "us",
        ),
        Metric::new(
            "serve.residual_ms",
            crate::stats::mean(&t.residual_ms),
            "ms",
        ),
        Metric::new("serve.compute_ms", ms("serve.compute"), "ms"),
        Metric::new("serve.server_ms", server_ms, "ms"),
        Metric::new("serve.cache_hits", hits, "count"),
        Metric::new("serve.cache_misses", misses, "count"),
        Metric::new(
            "serve.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
            "ratio",
        ),
    ];
    for (name, series) in [
        (
            "serve.predictions_computed",
            "hms_predictions_computed_total",
        ),
        ("serve.simulations", "hms_simulations_total"),
        ("serve.coalesced", "hms_coalesced_requests_total"),
        ("serve.shed", "hms_shed_total"),
        ("serve.deadline_exceeded", "hms_deadline_exceeded_total"),
        ("serve.admission_rejected", "hms_admission_rejected_total"),
        ("serve.degraded", "hms_degraded_responses_total"),
    ] {
        out.push(Metric::new(name, c.get(series), "count"));
    }
    out
}

/// One blocking keep-alive HTTP/1.1 connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), String> {
        self.roundtrip(&request_bytes(path, body))
    }

    /// Send one request and read its whole response: (status, body).
    fn roundtrip(&mut self, raw: &[u8]) -> Result<(u16, String), String> {
        let io = |e: std::io::Error| e.to_string();
        self.writer.write_all(raw).map_err(io)?;
        let mut line = String::new();
        self.reader.read_line(&mut line).map_err(io)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{line}`"))?;
        let mut length = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line).map_err(io)?;
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some(v) = l.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().map_err(|_| format!("bad header `{l}`"))?;
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).map_err(io)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| "non-UTF-8 body".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pool sizes the plan's tests assume.
    #[test]
    fn pools_hold_every_placement_but_the_sample() {
        let pools = Pools::new();
        assert_eq!(pools.lens(), [447, 63_992]);
        assert!(max_passes(pools.lens()) >= 4);
    }
}
