//! Beam search over per-array placement prefixes.
//!
//! The placement tree — candidate arrays in request order, each level
//! choosing that array's standalone-legal space — is walked
//! breadth-first, but only the `width` prefixes with the smallest
//! monotone lower bound survive a level. Surviving complete
//! assignments are joint-validated and evaluated exactly, in
//! deterministic `EVAL_BATCH` chunks.
//!
//! Because every dropped prefix's bound is recorded, the reported gap
//! is sound: the true optimum either survived to evaluation (then
//! `best` is it, or its leaf's bound is in the floor if the deadline
//! cut evaluation short) or lives under a dropped prefix whose bound
//! the floor already contains. With nothing dropped and nothing cut,
//! beam search *was* exhaustive over the legal tree and the gap is 0.

use std::time::Instant;

use hms_types::{MemorySpace, PlacementMap};

use crate::engine::Engine;
use crate::search::{RankedPlacement, SearchRequest, EVAL_BATCH};

use super::{full_assignment, gap_from_floor};

struct Prefix {
    assignment: Vec<Option<MemorySpace>>,
    pm: PlacementMap,
    lb: f64,
}

pub(crate) fn run(
    engine: &Engine<'_>,
    req: &SearchRequest<'_>,
    width: usize,
) -> Result<(Vec<RankedPlacement>, bool, f64), hms_types::HmsError> {
    let t0 = Instant::now();
    let n = req.arrays.len();
    let c = &engine.counters;
    let width = width.max(1);

    let root = Prefix {
        assignment: super::template(req),
        pm: req.base.clone(),
        lb: 0.0,
    };
    let mut beam: Vec<Prefix> = vec![root];
    // Min lower bound over everything the search will never evaluate:
    // dropped prefixes, limit-truncated leaves, deadline-cut leaves.
    let mut floor = f64::INFINITY;
    for &id in &req.candidates {
        let mut children: Vec<Prefix> = Vec::with_capacity(beam.len() * MemorySpace::ALL.len());
        for prefix in &beam {
            for &space in engine.legal_spaces(id) {
                let mut assignment = prefix.assignment.clone();
                assignment[id.index()] = Some(space);
                let lb = engine.lower_bound(&assignment);
                c.add(&c.candidates_visited, 1);
                children.push(Prefix {
                    assignment,
                    pm: prefix.pm.with(id, space),
                    lb,
                });
            }
        }
        // Stable sort: bound ties keep expansion order, so the beam's
        // contents are independent of anything but the request.
        children.sort_by(|a, b| a.lb.total_cmp(&b.lb));
        for dropped in children.iter().skip(width) {
            floor = floor.min(dropped.lb);
        }
        children.truncate(width);
        beam = children;
    }

    // Joint legality can be stricter than the per-array legality that
    // shaped the tree (e.g. shared capacity): a jointly-illegal leaf
    // contains no legal candidate, so skipping it costs nothing.
    let cfg = &engine.predictor().cfg;
    let mut leaves: Vec<Prefix> = beam
        .into_iter()
        .filter(|p| p.pm.validate(req.arrays, cfg).is_ok())
        .collect();
    for truncated in leaves.iter().skip(req.limit) {
        floor = floor.min(truncated.lb);
    }
    leaves.truncate(req.limit);
    if leaves.is_empty() && req.base.validate(req.arrays, cfg).is_ok() {
        // Every survivor was jointly illegal: fall back to the base
        // placement so the outcome still carries a real prediction.
        leaves.push(Prefix {
            assignment: full_assignment(req.base, n),
            pm: req.base.clone(),
            lb: engine.lower_bound(&full_assignment(req.base, n)),
        });
    }
    c.add(&c.candidates_enumerated, leaves.len() as u64);
    c.add(&c.enumerate_nanos, t0.elapsed().as_nanos() as u64);

    let mut ranked: Vec<RankedPlacement> = Vec::with_capacity(leaves.len());
    let mut partial = false;
    let mut cut_at = leaves.len();
    let pms: Vec<PlacementMap> = leaves.iter().map(|p| p.pm.clone()).collect();
    for (i, chunk) in pms.chunks(EVAL_BATCH).enumerate() {
        if !ranked.is_empty() && req.interrupted() {
            partial = true;
            cut_at = i * EVAL_BATCH;
            break;
        }
        ranked.extend(engine.evaluate_batch(chunk, req.threads)?);
    }
    for unevaluated in &leaves[cut_at..] {
        floor = floor.min(unevaluated.lb);
    }
    ranked.sort_by(|a, b| a.predicted_cycles.total_cmp(&b.predicted_cycles));

    let best = ranked.first().map(|r| r.predicted_cycles);
    if let Some(b) = best {
        floor = floor.min(b);
    }
    Ok((ranked, partial, gap_from_floor(best, floor)))
}
