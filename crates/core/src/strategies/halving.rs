//! Successive halving over skeleton groups.
//!
//! Candidates that place the same subset of arrays in shared memory
//! share one walk skeleton — one exact rewrite — in the incremental
//! engine. That makes the skeleton group the natural *arm* for a
//! bandit-style budget race: evaluating one more candidate from an arm
//! whose skeleton is already built costs only a delta replay.
//!
//! The strategy enumerates the legal space (respecting the request
//! limit), buckets it by shared set in enumeration order, then runs
//! rungs: every surviving arm advances its cursor by the rung budget,
//! arms are ranked by their best evaluated candidate, and the worse
//! half is retired. The budget doubles each rung, so the surviving
//! arm(s) end up exhaustively evaluated if time allows.
//!
//! The floor behind the reported gap is the minimum lower bound over
//! every enumerated-but-unevaluated candidate (retired arms' tails and
//! deadline-cut work), widened to the all-free floor only when the
//! enumeration itself was truncated by the limit.

use std::time::Instant;

use hms_types::PlacementMap;

use crate::engine::Engine;
use crate::search::{enumerate_placements, SearchRequest};

use super::{evaluate_in_order, finish, space_floor, Ranked};

struct Arm {
    /// Indices into the enumerated space, in enumeration order.
    members: Vec<usize>,
    /// How many of `members` have been evaluated.
    cursor: usize,
    /// Best predicted cycles seen in this arm so far.
    best: f64,
}

pub(crate) fn run(
    engine: &Engine<'_>,
    req: &SearchRequest<'_>,
) -> Result<Ranked, hms_types::HmsError> {
    let t0 = Instant::now();
    let cfg = &engine.predictor().cfg;
    let space = enumerate_placements(req.arrays, req.base, &req.candidates, cfg, req.limit);
    let truncated = space.len() >= req.limit;

    // Bucket by shared-memory set; first-seen order (over the sorted,
    // deduplicated enumeration) keeps arm identity deterministic.
    let mut arms: Vec<(Vec<bool>, Arm)> = Vec::new();
    for (i, pm) in space.iter().enumerate() {
        let key = engine.shared_key(pm);
        match arms.iter_mut().find(|(k, _)| *k == key) {
            Some((_, arm)) => arm.members.push(i),
            None => arms.push((
                key,
                Arm {
                    members: vec![i],
                    cursor: 0,
                    best: f64::INFINITY,
                },
            )),
        }
    }
    let mut arms: Vec<Arm> = arms.into_iter().map(|(_, a)| a).collect();
    engine.count(|s| {
        s.candidates_enumerated += space.len() as u64;
        s.candidates_visited += space.len() as u64;
        s.enumerate_nanos += t0.elapsed().as_nanos() as u64;
    });

    let mut evaluated = vec![false; space.len()];
    let mut ranked = Vec::with_capacity(space.len());
    let mut per_arm = 1usize;
    let mut partial = false;
    'rungs: loop {
        // This rung's work list: the next `per_arm` unevaluated members
        // of each surviving arm, arm-major so every arm gets service
        // even if the deadline lands mid-rung.
        let mut rung: Vec<usize> = Vec::new();
        for arm in &arms {
            let take = arm.members.len().min(arm.cursor + per_arm);
            rung.extend_from_slice(&arm.members[arm.cursor..take]);
        }
        if rung.is_empty() {
            break; // survivors fully evaluated
        }
        let pms: Vec<PlacementMap> = rung.iter().map(|&i| space[i].clone()).collect();
        let done = evaluate_in_order(engine, req, &pms, &mut ranked)?;
        partial = done < pms.len();
        // Credit results back to their arms (rung order is arm-major,
        // so a prefix of `rung` maps to per-arm cursor advances).
        for (&idx, r) in rung[..done].iter().zip(&ranked[ranked.len() - done..]) {
            debug_assert_eq!(space[idx], r.placement);
            evaluated[idx] = true;
        }
        let mut offset = 0usize;
        for arm in &mut arms {
            let take = arm.members.len().min(arm.cursor + per_arm) - arm.cursor;
            let served = take.min(done.saturating_sub(offset));
            // A deadline cut can leave later arms unserved (offset past
            // `done`); slicing is only legal for the served prefix.
            if served > 0 {
                let start = ranked.len() - done + offset;
                for r in &ranked[start..start + served] {
                    if r.predicted_cycles < arm.best {
                        arm.best = r.predicted_cycles;
                    }
                }
            }
            arm.cursor += served;
            offset += take;
        }
        if partial {
            break 'rungs;
        }
        if arms.len() > 1 {
            // Rank arms by best-so-far (stable: ties keep arm order)
            // and retire the worse half.
            arms.sort_by(|a, b| a.best.total_cmp(&b.best));
            arms.truncate(arms.len().div_ceil(2));
        }
        per_arm = per_arm.saturating_mul(2);
    }

    let unevaluated = space
        .iter()
        .enumerate()
        .filter(|&(i, _)| !evaluated[i])
        .map(|(_, pm)| pm);
    let floor = space_floor(engine, req, unevaluated, truncated);
    Ok(finish(ranked, partial, floor))
}
