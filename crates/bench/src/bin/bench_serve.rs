//! Serving load benchmark: spins up an in-process `hms-serve` instance
//! on an ephemeral port and drives it with an **open-loop** load
//! generator — requests arrive on a fixed schedule over hundreds of
//! pipelined keep-alive connections, whether or not earlier responses
//! have come back — then reports offered vs achieved rate, latency
//! percentiles from a coordinated-omission-safe histogram, cache and
//! coalescing behaviour as `target/bench/BENCH_serve.json`.
//!
//! ```text
//! cargo run -p hms-bench --release --bin bench_serve [-- test|gate]
//! ```
//!
//! * *(default)* — the full run: 256 connections, several seconds.
//! * `gate` — the CI regression gate: 256 connections, shorter wall
//!   time, same offered rate.
//! * `test` — a smoke run (64 connections, well under a second of load)
//!   so CI can exercise the whole path cheaply.
//!
//! Latency here is measured from each request's **scheduled arrival**
//! (its slot in the open-loop plan) to its response, not from the
//! moment the client got around to writing it — a server that stalls
//! inflates the tail instead of quietly slowing the clock that feeds
//! it (the closed-loop bias the old harness had).
//!
//! After the timed phase, two storms run against the same server:
//!
//! * a *coalescing storm* — many connections fire one byte-identical
//!   cold query at once; `/metrics` must show a single single-flight
//!   leader and the rest coalesced onto it;
//! * a *fault storm* — a seed-pinned [`FaultPlan`] committed while a
//!   good client keeps issuing requests through `retry_with_backoff`,
//!   so a fault-path regression is as visible as a cache regression;
//! * a *degraded phase* — the deadline clock is skewed far past the
//!   budget so the degradation ladder caps every cold search, measuring
//!   `degraded_throughput_rps` (the floor the server holds while
//!   answering gap-bounded approximations) and `recovery_ms` (how long
//!   `/readyz` takes to report plain `ready` once the skew clears).

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hms_bench::Histogram;
use hms_core::Predictor;
use hms_faults::{retry_with_backoff, BackoffPolicy, Client, FaultClient, FaultOutcome, FaultPlan};
use hms_serve::{Advisor, ConfigRegistry, Json, Metrics, ServerConfig};
use hms_stats::rng::Rng;
use hms_types::GpuConfig;

/// The request mix, cycled across the schedule: mostly repeat predicts
/// (cache hits after warmup), a few distinct placements, periodic
/// searches.
const PREDICT_BODIES: &[&str] = &[
    r#"{"kernel":"vecadd","scale":"test","moves":[{"array":"a","space":"T"}]}"#,
    r#"{"kernel":"vecadd","scale":"test","moves":[{"array":"b","space":"C"}]}"#,
    r#"{"kernel":"spmv","scale":"test","moves":[{"array":"d_vec","space":"T"}]}"#,
    r#"{"kernel":"vecadd","scale":"test","placement":{"a":"C","b":"T"}}"#,
];
const SEARCH_BODY: &str = r#"{"kernel":"vecadd","scale":"test","top":3}"#;
/// Fired cold by every storm connection at once: distinct from the
/// warm mix, so the only thing that can answer the followers is the
/// single-flight table.
const STORM_BODY: &str = r#"{"kernel":"spmv","scale":"test","top":4}"#;

struct Mode {
    name: &'static str,
    connections: usize,
    offered_rps: f64,
    duration: Duration,
    storm_conns: usize,
    fault_cases: usize,
}

fn mode() -> Mode {
    match std::env::args().nth(1).as_deref() {
        Some("test") => Mode {
            name: "test",
            connections: 64,
            offered_rps: 30_000.0,
            duration: Duration::from_millis(400),
            storm_conns: 16,
            fault_cases: 6,
        },
        Some("gate") => Mode {
            name: "gate",
            connections: 256,
            offered_rps: 160_000.0,
            duration: Duration::from_millis(1_500),
            storm_conns: 64,
            fault_cases: 8,
        },
        _ => Mode {
            name: "full",
            connections: 256,
            offered_rps: 160_000.0,
            duration: Duration::from_secs(4),
            storm_conns: 64,
            fault_cases: 20,
        },
    }
}

fn main() {
    let mode = mode();

    let cfg = GpuConfig::tesla_k80();
    let advisor = Advisor::new(cfg.clone(), Predictor::new(cfg));
    let handle = ServerConfig::new()
        .bind("127.0.0.1:0")
        .queue_depth(1024)
        .spawn(ConfigRegistry::new("default", advisor))
        .expect("binds ephemeral port");
    let addr = handle.addr();

    // Warmup: one of each body, so the timed run measures steady state.
    {
        let mut c = Client::connect(addr).expect("warmup connects");
        let mut warm = |path, body| c.request("POST", path, body).expect("warmup request").0;
        for body in PREDICT_BODIES {
            assert_eq!(warm("/v1/predict", body), 200);
        }
        assert_eq!(warm("/v1/search", SEARCH_BODY), 200);
    }

    let load = open_loop(addr, &mode);

    // Coalescing storm: every storm connection fires the same cold
    // query at once; the flight table must answer all but one of them
    // from the leader's single evaluation.
    let before = handle.metrics().render();
    let storm_bodies = storm(addr, mode.storm_conns);
    assert!(
        storm_bodies.windows(2).all(|w| w[0] == w[1]),
        "storm followers saw different bodies"
    );
    let after = handle.metrics().render();
    let delta = |series: &str| {
        Metrics::scrape_counter(&after, series).unwrap_or(0.0)
            - Metrics::scrape_counter(&before, series).unwrap_or(0.0)
    };
    let storm_leaders = delta("hms_singleflight_leaders_total");
    let storm_coalesced = delta("hms_coalesced_requests_total");
    assert!(
        storm_coalesced >= 1.0,
        "no coalescing observed across {} identical concurrent requests",
        mode.storm_conns
    );

    // Fault storm: commit a pinned fault schedule while a good client
    // keeps the request stream flowing through the retry path. Every
    // good request must still come back 200 — faults cost their own
    // connection, never a neighbour's.
    const FAULT_SEED: u64 = 0xFA_17;
    let plan = FaultPlan::from_seed(FAULT_SEED, mode.fault_cases);
    let mut fault_client = FaultClient::new(addr);
    fault_client.trickle_delay = Duration::from_millis(1);
    let mut good = Client::connect(addr).expect("good client connects");
    let mut rng = Rng::seed_from_u64(FAULT_SEED);
    let policy = BackoffPolicy::default();
    let mut fault_errors_4xx = 0u64;
    let mut faulted_requests = 0u64;
    let tf = Instant::now();
    for case in &plan.cases {
        let outcome = fault_client.commit(*case, "/v1/predict", PREDICT_BODIES[0].as_bytes());
        if let FaultOutcome::Status(s) = outcome {
            if (400..500).contains(&s) {
                fault_errors_4xx += 1;
            }
        }
        for (i, body) in PREDICT_BODIES.iter().enumerate() {
            let (path, body) = if i == 0 {
                ("/v1/search", SEARCH_BODY)
            } else {
                ("/v1/predict", *body)
            };
            let status = post_with_retry(&mut good, addr, path, body, &policy, &mut rng);
            assert_eq!(status, 200, "good traffic failed during fault storm");
            faulted_requests += 1;
        }
    }
    let faulted_wall = tf.elapsed().as_secs_f64();
    let faulted_throughput = faulted_requests as f64 / faulted_wall.max(1e-9);

    // Degraded phase: skew the deadline clock far past the budget so
    // every cold search is capped by the degradation ladder, then
    // measure the throughput floor the server holds while serving
    // gap-bounded approximations, and how fast `/readyz` reports plain
    // `ready` again once the skew clears.
    let degraded_requests: u64 = match mode.name {
        "test" => 50,
        _ => 200,
    };
    handle.set_clock_skew(Duration::from_secs(60));
    let mut degraded = Client::connect(addr).expect("degraded client connects");
    let mut degraded_flagged = 0u64;
    let td = Instant::now();
    for i in 0..degraded_requests {
        // Distinct cold queries: cache hits bypass the ladder.
        let body = format!(r#"{{"kernel":"vecadd","scale":"test","top":{}}}"#, 200 + i);
        let (status, text) = degraded
            .request("POST", "/v1/search", &body)
            .expect("degraded-phase request");
        assert_eq!(status, 200, "degraded search failed: {text}");
        if text.contains("\"degraded\": true") {
            degraded_flagged += 1;
        }
    }
    let degraded_wall = td.elapsed().as_secs_f64();
    let degraded_throughput = degraded_requests as f64 / degraded_wall.max(1e-9);
    assert!(
        degraded_flagged > 0,
        "no search was ladder-capped under a 60 s clock skew"
    );
    handle.set_clock_skew(Duration::ZERO);
    let tr = Instant::now();
    let recovery_ms = loop {
        let (status, text) = degraded
            .request("GET", "/readyz", "")
            .expect("readiness poll");
        if status == 200 && text == "ready\n" {
            break tr.elapsed().as_secs_f64() * 1e3;
        }
        assert!(
            tr.elapsed() < Duration::from_secs(10),
            "server never recovered from the degraded phase: {status} {text}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };

    let metrics = handle.metrics().render();
    let counter = |series: &str| Metrics::scrape_counter(&metrics, series).unwrap_or(0.0);
    let hits = counter("hms_prediction_cache_hits_total");
    let misses = counter("hms_prediction_cache_misses_total");
    let hit_rate = hits / (hits + misses).max(1.0);
    let simulations = counter("hms_simulations_total");
    handle.shutdown();

    let secs = |ns: u64| ns as f64 / 1e9;
    let achieved = load.completed as f64 / load.wall.max(1e-9);
    println!(
        "serve load benchmark ({} mode: {} connections, open loop)",
        mode.name, mode.connections
    );
    println!("  offered rate:     {:.0} req/s", mode.offered_rps);
    println!(
        "  achieved rate:    {achieved:.0} req/s ({} requests)",
        load.completed
    );
    println!(
        "  latency p50/p99/p999: {:.3} / {:.3} / {:.3} ms",
        secs(load.hist.percentile(0.50)) * 1e3,
        secs(load.hist.percentile(0.99)) * 1e3,
        secs(load.hist.percentile(0.999)) * 1e3,
    );
    println!("  cache hit rate:   {:.1}%", hit_rate * 100.0);
    println!("  simulations run:  {simulations:.0}");
    println!(
        "  coalescing storm: {} conns -> {storm_leaders:.0} leader, {storm_coalesced:.0} coalesced",
        mode.storm_conns
    );
    println!(
        "  fault storm:      {faulted_requests} good req at {faulted_throughput:.0} req/s, {fault_errors_4xx} fault 4xx",
    );
    println!(
        "  degraded phase:   {degraded_requests} cold searches at {degraded_throughput:.0} req/s ({degraded_flagged} ladder-capped), ready again in {recovery_ms:.1} ms",
    );

    let json = Json::Obj(vec![
        ("mode".into(), Json::Str(mode.name.into())),
        ("connections".into(), Json::Num(mode.connections as f64)),
        ("offered_rps".into(), Json::Num(mode.offered_rps)),
        ("requests".into(), Json::Num(load.completed as f64)),
        ("wall_secs".into(), Json::Num(load.wall)),
        ("throughput_rps".into(), Json::Num(achieved)),
        (
            "p50_secs".into(),
            Json::Num(secs(load.hist.percentile(0.50))),
        ),
        (
            "p90_secs".into(),
            Json::Num(secs(load.hist.percentile(0.90))),
        ),
        (
            "p99_secs".into(),
            Json::Num(secs(load.hist.percentile(0.99))),
        ),
        (
            "p999_secs".into(),
            Json::Num(secs(load.hist.percentile(0.999))),
        ),
        ("max_secs".into(), Json::Num(secs(load.hist.max()))),
        ("prediction_cache_hits".into(), Json::Num(hits)),
        ("prediction_cache_misses".into(), Json::Num(misses)),
        ("cache_hit_rate".into(), Json::Num(hit_rate)),
        ("simulations".into(), Json::Num(simulations)),
        (
            "storm_connections".into(),
            Json::Num(mode.storm_conns as f64),
        ),
        ("storm_leaders".into(), Json::Num(storm_leaders)),
        ("storm_coalesced".into(), Json::Num(storm_coalesced)),
        (
            "faulted_requests".into(),
            Json::Num(faulted_requests as f64),
        ),
        (
            "faulted_throughput_rps".into(),
            Json::Num(faulted_throughput),
        ),
        (
            "fault_errors_4xx".into(),
            Json::Num(fault_errors_4xx as f64),
        ),
        (
            "degraded_requests".into(),
            Json::Num(degraded_requests as f64),
        ),
        (
            "degraded_flagged".into(),
            Json::Num(degraded_flagged as f64),
        ),
        (
            "degraded_throughput_rps".into(),
            Json::Num(degraded_throughput),
        ),
        ("recovery_ms".into(), Json::Num(recovery_ms)),
    ])
    .encode_pretty();
    hms_bench::write_bench_json("BENCH_serve.json", &json);
}

/// One nonblocking pipelined connection of the load generator.
struct LoadConn {
    stream: TcpStream,
    /// Bytes queued but not yet accepted by the kernel.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Response bytes not yet parsed.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Scheduled-arrival stamps (ns since the run origin) of requests
    /// in flight on this connection, FIFO — HTTP/1.1 pipelining
    /// guarantees responses come back in order.
    due: VecDeque<u64>,
}

struct LoadResult {
    completed: u64,
    wall: f64,
    hist: Histogram,
}

/// Cap on requests in flight across all connections: past it the
/// schedule keeps *accruing* (latency stays anchored to the plan) but
/// no new bytes are written, bounding memory under overload.
const MAX_OUTSTANDING: usize = 8 * 1024;

/// Drive the open-loop phase from one thread: schedule, write, read,
/// parse — nonblocking throughout, sleeping only when ahead of plan.
fn open_loop(addr: SocketAddr, mode: &Mode) -> LoadResult {
    // Pre-render every request in the mix once.
    let render = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    let mix: Vec<Vec<u8>> = PREDICT_BODIES
        .iter()
        .map(|b| render("/v1/predict", b))
        .chain(std::iter::once(render("/v1/search", SEARCH_BODY)))
        .collect();
    // Request i: every 16th a search, otherwise cycle the predicts.
    let pick = |i: u64| -> &[u8] {
        if i % 16 == 15 {
            &mix[mix.len() - 1]
        } else {
            &mix[(i % 4) as usize]
        }
    };

    let mut conns: Vec<LoadConn> = (0..mode.connections)
        .map(|_| {
            let stream = connect_retry(addr);
            stream.set_nodelay(true).ok();
            stream.set_nonblocking(true).expect("nonblocking");
            LoadConn {
                stream,
                wbuf: Vec::with_capacity(16 * 1024),
                wpos: 0,
                rbuf: Vec::with_capacity(64 * 1024),
                rpos: 0,
                due: VecDeque::new(),
            }
        })
        .collect();

    let mut hist = Histogram::new();
    let mut scheduled = 0u64;
    let mut completed = 0u64;
    let mut errors = 0u64;
    let mut scratch = vec![0u8; 64 * 1024];
    let ns_per_req = 1e9 / mode.offered_rps;
    let t0 = Instant::now();
    let deadline = mode.duration;
    // Give the drain tail a hard stop so a wedged server fails loudly
    // instead of hanging CI.
    let hard_stop = mode.duration * 3 + Duration::from_secs(5);

    loop {
        let now = t0.elapsed();
        let now_ns = now.as_nanos() as u64;

        // 1. Schedule: everything the arrival plan says is due by now
        //    (the plan stops at the deadline; the tail then drains).
        if now < deadline {
            let due_by_now = (now_ns as f64 / ns_per_req) as u64;
            while scheduled < due_by_now && (scheduled - completed) < MAX_OUTSTANDING as u64 {
                let slot = (scheduled as usize) % conns.len();
                let conn = &mut conns[slot];
                conn.wbuf.extend_from_slice(pick(scheduled));
                conn.due.push_back((scheduled as f64 * ns_per_req) as u64);
                scheduled += 1;
            }
        }

        // 2. Write: push queued bytes until the kernel pushes back.
        for conn in &mut conns {
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => panic!("server closed a load connection"),
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => panic!("load write failed: {e}"),
                }
            }
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
        }

        // 3. Read + parse: complete responses retire their request's
        //    scheduled stamp into the histogram.
        let mut progressed = false;
        for conn in &mut conns {
            if conn.due.is_empty() {
                continue;
            }
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => panic!("server hung up mid-benchmark"),
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&scratch[..n]);
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => panic!("load read failed: {e}"),
                }
            }
            let stamp = t0.elapsed().as_nanos() as u64;
            while let Some((len, status)) = parse_response(&conn.rbuf[conn.rpos..]) {
                conn.rpos += len;
                let due = conn.due.pop_front().expect("response without a request");
                hist.record(stamp.saturating_sub(due));
                completed += 1;
                progressed = true;
                if status != 200 {
                    errors += 1;
                }
            }
            // Compact once parsed bytes dominate the buffer.
            if conn.rpos > 32 * 1024 {
                conn.rbuf.drain(..conn.rpos);
                conn.rpos = 0;
            }
        }

        // 4. Done? The plan is exhausted and every response is home.
        if now >= deadline && completed == scheduled {
            break;
        }
        assert!(
            now < hard_stop,
            "load did not drain: {completed}/{scheduled} after {now:?}"
        );
        // 5. Ahead of plan with nothing in the pipes: yield the core to
        //    the server instead of spinning against it.
        if !progressed {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    assert_eq!(errors, 0, "{errors} non-200 responses under clean load");
    LoadResult {
        completed,
        wall: t0.elapsed().as_secs_f64(),
        hist,
    }
}

/// Parse one pipelined HTTP/1.1 response at the head of `buf`. Returns
/// `(total_len, status)` when the full head + body is present. The
/// server's header block is fixed-shape (status, content-type,
/// content-length, connection), so a plain scan is enough.
fn parse_response(buf: &[u8]) -> Option<(usize, u16)> {
    let head_end = find(buf, b"\r\n\r\n")?;
    let head = &buf[..head_end];
    let status: u16 = std::str::from_utf8(head.get(9..12)?).ok()?.parse().ok()?;
    let cl_at = find(head, b"content-length:")?;
    let digits = head[cl_at + 15..]
        .iter()
        .skip_while(|b| **b == b' ')
        .take_while(|b| b.is_ascii_digit())
        .fold(0usize, |acc, b| acc * 10 + (b - b'0') as usize);
    let total = head_end + 4 + digits;
    (buf.len() >= total).then_some((total, status))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Connect with a brief retry: 256 simultaneous connects can outrun
/// the listener's accept backlog.
fn connect_retry(addr: SocketAddr) -> TcpStream {
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(s) => return s,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("could not connect load generator to {addr}");
}

/// Fire one byte-identical cold request from `n` connections at once;
/// returns every response body (they must all match).
fn storm(addr: SocketAddr, n: usize) -> Vec<String> {
    let mut streams: Vec<TcpStream> = (0..n).map(|_| connect_retry(addr)).collect();
    let req = format!(
        "POST /v1/advise HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{STORM_BODY}",
        STORM_BODY.len()
    );
    // Write everywhere first, then read: all n requests are in flight
    // before the first response can possibly be consumed.
    for s in &mut streams {
        s.set_nodelay(true).ok();
        s.write_all(req.as_bytes()).expect("storm write");
    }
    streams
        .into_iter()
        .map(|s| {
            s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
            let mut reader = BufReader::new(s);
            let mut status_line = String::new();
            reader.read_line(&mut status_line).expect("storm status");
            assert!(
                status_line.contains("200"),
                "storm request failed: {status_line}"
            );
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("storm header");
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line
                    .to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::trim)
                {
                    content_length = v.parse().expect("storm length");
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).expect("storm body");
            String::from_utf8(body).expect("storm utf8")
        })
        .collect()
}

/// One request through the jittered-backoff retry path; a transport
/// failure costs a reconnect and a retry, not the whole benchmark.
fn post_with_retry(
    c: &mut Client,
    addr: SocketAddr,
    path: &str,
    body: &str,
    policy: &BackoffPolicy,
    rng: &mut Rng,
) -> u16 {
    retry_with_backoff(policy, rng, || match c.request("POST", path, body) {
        Ok((status, _)) => Ok(status),
        Err(e) => {
            if let Ok(fresh) = Client::connect(addr) {
                *c = fresh;
            }
            Err(e)
        }
    })
    .expect("request exhausted its retry budget")
}
