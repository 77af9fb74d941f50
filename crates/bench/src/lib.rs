//! # hms-bench
//!
//! The experiment harness: everything needed to regenerate every table
//! and figure of the paper's evaluation (see DESIGN.md's experiment
//! index), plus the benchmark gates `scripts/ci.sh` runs
//! (`bench_anytime`, `bench_serve`; the search gate reads the
//! `advisorbench` package's search-warm workload).
//!
//! * [`suite`] — the benchmark/placement suites of Table IV: each
//!   kernel's *sample* placement and its placement tests, split into the
//!   evaluation set and the `T_overlap` training set;
//! * [`runner`] — profile / measure / predict plumbing with
//!   `hms_stats::par` parallelism across placements;
//! * [`table`] — plain-text table rendering for the experiment binaries.
//!
//! Binaries (all under `--release`):
//!
//! | binary          | artifact                                     |
//! |-----------------|----------------------------------------------|
//! | `table1`        | Table I (cosine similarity of events)        |
//! | `alg1`          | Algorithm 1 (mapping detection + latencies)  |
//! | `fig4`          | Figure 4 (inter-arrival distributions, c_a)  |
//! | `fig5`          | Figure 5 (ours vs [7] prediction accuracy)   |
//! | `fig6`          | Figure 6 (ranking vs PORPLE)                 |
//! | `fig7`          | Figure 7 (instruction-counting ablation)     |
//! | `fig8`          | Figure 8 (queuing + address-mapping ablation)|
//! | `fig9`          | Figure 9 (queuing-alone ablation)            |
//! | `train_overlap` | Section V training setup diagnostics         |

pub mod hist;
pub mod mining;
pub mod runner;
pub mod suite;
pub mod table;

pub use hist::Histogram;
pub use mining::{mine_events, mine_events_paper, MinedEvent, PlacementStudy};
pub use runner::{measure, run_suite, trained_predictor, ExperimentResult, Harness};
pub use suite::{evaluation_suite, training_suite, PlacementTest};
pub use table::Table;

/// Where the benchmark gates write their results: `target/bench/`
/// under the working directory, so a run never overwrites the committed
/// `BENCH_*.json` baseline it is compared against.
const BENCH_OUT_DIR: &str = "target/bench";

/// Write one benchmark result as `BENCH_OUT_DIR/<name>` and print the
/// path. Panics on I/O failure: a gate that cannot record its result
/// must not pass.
pub fn write_bench_json(name: &str, json: &str) {
    std::fs::create_dir_all(BENCH_OUT_DIR).expect("creates the bench output directory");
    let path = std::path::Path::new(BENCH_OUT_DIR).join(name);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writes {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
