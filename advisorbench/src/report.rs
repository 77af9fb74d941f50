//! What a timed phase produces, and the end-to-end metrics derived
//! from it.

use std::time::Instant;

use crate::stats::percentile;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// How much work a timed phase does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole units (search rounds, serve passes) until this much time
    /// has gone.
    Seconds(f64),
    /// Exactly this many units: search rounds, or blocks of the first
    /// serve pass. The traced ledger uses fixed work so its counts
    /// repeat exactly for a seed.
    Units(usize),
}

impl Budget {
    pub fn spent(&self, units_done: usize, start: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Units(n) => units_done >= n,
        }
    }
}

/// The ops of one timed phase, their checks and per-layer metrics.
#[derive(Debug, Default)]
pub struct Phase {
    pub class_names: Vec<&'static str>,
    /// Per op: latency, cost class and whether every check passed.
    pub lat_ms: Vec<f64>,
    pub class: Vec<usize>,
    pub ok: Vec<bool>,
    /// Placements the ops evaluated (search candidates, serve misses).
    pub candidates: u64,
    /// Broken invariants that belong to no single op.
    pub violations: Vec<String>,
    pub layers: Vec<Metric>,
}

impl Phase {
    pub fn new(class_names: Vec<&'static str>) -> Phase {
        Phase {
            class_names,
            ..Phase::default()
        }
    }

    pub fn attempted(&self) -> u64 {
        self.lat_ms.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ok.iter().filter(|ok| !**ok).count() as u64
    }

    pub fn record(&mut self, class: usize, ms: f64, ok: bool, candidates: u64) {
        self.lat_ms.push(ms);
        self.class.push(class);
        self.ok.push(ok);
        self.candidates += candidates;
    }

    pub fn fail_op(&mut self, op: usize) {
        self.ok[op] = false;
    }

    pub fn fail_class(&mut self, class: usize) {
        for (ok, c) in self.ok.iter_mut().zip(&self.class) {
            if *c == class {
                *ok = false;
            }
        }
    }

    pub fn violation(&mut self, what: String) {
        eprintln!("invariant broken: {what}");
        self.violations.push(what);
    }

    /// Time spent inside ops. The loop is closed with one client, so
    /// ops per busy second is the rate the caller sees.
    pub fn busy_s(&self) -> f64 {
        self.lat_ms.iter().sum::<f64>() / 1e3
    }

    pub fn p(&self, pct: f64) -> f64 {
        if self.lat_ms.is_empty() {
            0.0
        } else {
            percentile(&self.lat_ms, pct)
        }
    }

    pub fn throughput_per_s(&self) -> f64 {
        self.attempted() as f64 / self.busy_s().max(1e-12)
    }

    pub fn candidates_per_s(&self) -> f64 {
        self.candidates as f64 / self.busy_s().max(1e-12)
    }
}
