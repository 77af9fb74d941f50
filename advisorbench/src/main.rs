//! End-to-end and per-layer benchmark of the placement advisor.
//!
//! ```text
//! cargo run --release --offline --manifest-path advisorbench/Cargo.toml -- \
//!     --workload search-cold|search-warm|serve-predict --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` sets up several times (reporting the median set-up
//! time), runs the workload for `--seconds`, checks every answer and
//! prints the end-to-end metrics. `--trace 1` runs the traced ledger:
//! the workload once untraced and then every workload traced on a
//! fixed amount of work, and prints the per-layer metrics plus the
//! tracing overhead. The last line of stdout is one JSON object; see
//! README.md for the metrics and what moves them.

mod alloc;
mod plan;
mod report;
mod search;
mod serve;
mod setup;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

use hms_core::Predictor;
use hms_serve::Json;

use report::{Budget, Metric, Phase};
use spans::Tracer;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SearchCold,
    SearchWarm,
    ServePredict,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::SearchCold,
        Workload::SearchWarm,
        Workload::ServePredict,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SearchCold => "search-cold",
            Workload::SearchWarm => "search-warm",
            Workload::ServePredict => "serve-predict",
        }
    }

    /// Fixed work of the traced ledger: search rounds, or serve blocks.
    fn ledger_units(self) -> usize {
        match self {
            Workload::SearchCold => 3,
            Workload::SearchWarm => 6,
            Workload::ServePredict => 25,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace,
    })
}

/// Run output lives in the benchmark's own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

enum Ctx {
    Search(Box<search::SearchSetup>),
    Serve(Box<serve::ServeSetup>),
}

impl Ctx {
    fn predictor(&self) -> &Predictor {
        match self {
            Ctx::Search(s) => &s.predictor,
            Ctx::Serve(s) => s.predictor(),
        }
    }
}

struct Bench {
    skel_dir: PathBuf,
    /// serve-predict's miss pools, built on first use.
    pools: OnceLock<serve::Pools>,
}

impl Bench {
    fn pools(&self) -> &serve::Pools {
        self.pools.get_or_init(serve::Pools::new)
    }

    fn setup(&self, w: Workload, tr: &mut Tracer) -> Ctx {
        match w {
            Workload::SearchCold => Ctx::Search(Box::new(search::setup(None, tr))),
            Workload::SearchWarm => Ctx::Search(Box::new(search::setup(Some(&self.skel_dir), tr))),
            Workload::ServePredict => Ctx::Serve(Box::new(serve::setup(self.pools(), tr))),
        }
    }

    fn run(&self, ctx: &mut Ctx, seed: u64, budget: Budget, tr: &mut Tracer) -> Phase {
        match ctx {
            Ctx::Search(s) => search::run(s, seed, budget, tr),
            Ctx::Serve(s) => serve::run(s, self.pools(), seed, budget, tr),
        }
    }

    /// Set up `reps` times from scratch; keep the last, return the
    /// median set-up time in seconds.
    fn timed_setups(&self, w: Workload, reps: usize) -> (Ctx, f64) {
        if w == Workload::ServePredict {
            // Input generation, not set-up: keep it out of `setup_s`.
            self.pools();
        }
        let mut times = Vec::with_capacity(reps);
        let mut ctx = None;
        for _ in 0..reps {
            drop(ctx.take());
            let t0 = Instant::now();
            ctx = Some(self.setup(w, &mut Tracer::new(false)));
            times.push(t0.elapsed().as_secs_f64());
        }
        eprintln!("set-up times (s): {times:?}");
        (ctx.expect("at least one set-up"), stats::median(&times))
    }
}

/// The end-to-end timing metrics of one phase.
fn timings(phase: &Phase, setup_s: f64, peak_mb: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("p50_ms", phase.p(50.0), "ms"),
        Metric::new("p90_ms", phase.p(90.0), "ms"),
        Metric::new("p99_ms", phase.p(99.0), "ms"),
        Metric::new("throughput_per_s", phase.throughput_per_s(), "1/s"),
        Metric::new("candidates_per_s", phase.candidates_per_s(), "1/s"),
        Metric::new("peak_heap_mb", peak_mb, "MB"),
    ]
}

/// Per-class latencies, and how far the reported percentiles sit from
/// the boundaries between cost classes (the workloads are planned so
/// that this is at least 5 points).
fn summarize(phase: &Phase) {
    let mut classes = Vec::new();
    for (c, name) in phase.class_names.iter().enumerate() {
        let xs: Vec<f64> = phase
            .lat_ms
            .iter()
            .zip(&phase.class)
            .filter(|(_, k)| **k == c)
            .map(|(l, _)| *l)
            .collect();
        if !xs.is_empty() {
            let med = stats::median(&xs);
            eprintln!(
                "  {name:<10} n={:<5} p50 {med:.3} ms  max {:.3} ms",
                xs.len(),
                stats::percentile(&xs, 100.0)
            );
            classes.push((med, 100.0 * xs.len() as f64 / phase.lat_ms.len() as f64));
        }
    }
    classes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let shares: Vec<f64> = classes.iter().map(|c| c.1).collect();
    let margin = stats::boundary_margin(&[50.0, 90.0, 99.0], &stats::class_boundaries(&shares));
    eprintln!("  percentiles sit {margin:.1} points from the nearest class boundary");
}

/// `--trace 0`: the end-to-end metrics.
fn end_to_end(bench: &Bench, args: &Args) -> (Vec<Metric>, u64, u64, bool) {
    let (mut ctx, setup_s) = bench.timed_setups(args.workload, SETUP_REPS);
    alloc::reset_peak();
    let phase = bench.run(
        &mut ctx,
        args.seed,
        Budget::Seconds(args.seconds),
        &mut Tracer::new(false),
    );
    let peak = alloc::peak_mb();
    summarize(&phase);
    let q = setup::quality(ctx.predictor());
    let mut metrics = timings(&phase, setup_s, peak);
    metrics.push(Metric::new("model_err_pct", q.model_err_pct, "%"));
    metrics.push(Metric::new("regret_pct", q.regret_pct, "%"));
    metrics.push(Metric::new("gap_bound", q.gap_bound, "ratio"));
    let correct = phase.failed() == 0 && phase.violations.is_empty();
    (metrics, phase.attempted(), phase.failed(), correct)
}

/// `--trace 1`: the workload untraced on the ledger's fixed work, then
/// every workload's set-up and fixed work traced. Per-layer metrics
/// come from the spans; the overhead compares the two runs of the
/// chosen workload.
fn ledger(bench: &Bench, args: &Args) -> (Vec<Metric>, u64, u64, bool) {
    let w = args.workload;
    let (mut ctx, setup_untraced) = bench.timed_setups(w, 1);
    alloc::reset_peak();
    let reference = bench.run(
        &mut ctx,
        args.seed,
        Budget::Units(w.ledger_units()),
        &mut Tracer::new(false),
    );
    let untraced = timings(&reference, setup_untraced, alloc::peak_mb());
    drop(ctx);

    let mut attempted = reference.attempted();
    let mut failed = reference.failed();
    let mut correct = failed == 0 && reference.violations.is_empty();
    let mut tr = Tracer::new(true);
    let mut layers = Vec::new();
    let mut traced = Vec::new();
    for each in Workload::ALL {
        let t0 = Instant::now();
        let mut ctx = bench.setup(each, &mut tr);
        let setup_s = t0.elapsed().as_secs_f64();
        alloc::reset_peak();
        let phase = bench.run(
            &mut ctx,
            args.seed,
            Budget::Units(each.ledger_units()),
            &mut tr,
        );
        if each == w {
            traced = timings(&phase, setup_s, alloc::peak_mb());
        }
        attempted += phase.attempted();
        failed += phase.failed();
        correct &= phase.failed() == 0 && phase.violations.is_empty();
        layers.extend(phase.layers);
    }

    let totals = tr.totals();
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let setups = Workload::ALL.len() as f64;
    let mut metrics = vec![
        Metric::new("kernels.build_ms", total_ms("kernels.build") / setups, "ms"),
        Metric::new(
            "profile.simulate_ms",
            total_ms("profile.simulate") / setups,
            "ms",
        ),
        Metric::new(
            "toverlap.train_ms",
            total_ms("toverlap.train") / setups,
            "ms",
        ),
        Metric::new(
            "skelcache.populate_ms",
            total_ms("skelcache.populate"),
            "ms",
        ),
        Metric::new("serve.spawn_ms", total_ms("serve.spawn"), "ms"),
    ];
    metrics.extend(layers);
    for (u, t) in untraced.iter().zip(&traced) {
        let pct = if u.value != 0.0 {
            100.0 * (t.value / u.value - 1.0)
        } else {
            0.0
        };
        metrics.push(Metric::new(&format!("overhead.{}", u.name), pct, "%"));
    }
    let path = out_dir().join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    match tr.write(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    (metrics, attempted, failed, correct)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: advisorbench --workload search-cold|search-warm|serve-predict \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    eprintln!("{} on {} cores", args.workload.name(), setup::nproc());
    let bench = Bench {
        skel_dir: out_dir().join(format!("skel-{}", std::process::id())),
        pools: OnceLock::new(),
    };
    let (metrics, attempted, failed, correct) = if args.trace {
        ledger(&bench, &args)
    } else {
        end_to_end(&bench, &args)
    };
    let _ = std::fs::remove_dir_all(&bench.skel_dir);

    for m in &metrics {
        eprintln!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let members = metrics
        .into_iter()
        .map(|m| {
            (
                m.name,
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    let out = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(members)),
    ]);
    println!("{}", out.encode());
}
