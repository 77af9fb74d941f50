//! Deterministic seeded genetic local search.
//!
//! A small generational GA over placement genomes: each candidate
//! array's gene is an index into its standalone-legal space list. The
//! population starts from the base placement plus random genomes,
//! children come from uniform crossover of elite parents plus per-locus
//! mutation, and a few random immigrants per generation keep the pool
//! from collapsing.
//!
//! **The seed is the whole story.** Every stochastic choice draws from
//! one `hms_stats::rng::Rng` stream seeded by the request, and the
//! draws are consumed in an order that depends only on evaluation
//! *results* — which are themselves bit-identical at any worker count —
//! never on scheduling. So the entire outcome (population trajectory,
//! rankings, gap) is a pure function of `(request, seed)`, replayable
//! like the fault plans: `--threads 1`, `2`, and `8` produce the same
//! bytes.
//!
//! A stochastic search proves nothing about the space it never
//! visited, so the reported gap floor is the all-free lower bound —
//! honest, and typically the widest of the three strategies.

use std::collections::BTreeSet;
use std::time::Instant;

use hms_types::{MemorySpace, PlacementMap};

use crate::engine::Engine;
use crate::search::SearchRequest;

use super::{all_free_floor, evaluate_in_order, finish, Ranked};

const POP: usize = 24;
const GENERATIONS: usize = 16;
const ELITE: usize = 6;
const IMMIGRANTS: usize = 4;

pub(crate) fn run(
    engine: &Engine<'_>,
    req: &SearchRequest<'_>,
    seed: u64,
) -> Result<Ranked, hms_types::HmsError> {
    let t0 = Instant::now();
    let cfg = &engine.predictor().cfg;
    let mut rng = hms_stats::rng::Rng::seed_from_u64(seed);

    // Per-candidate gene alphabets. An array with no standalone-legal
    // space admits no legal placement at all; pinning its lone gene to
    // the base space keeps the genome total.
    let spaces: Vec<Vec<MemorySpace>> = req
        .candidates
        .iter()
        .map(|&id| {
            let legal = engine.legal_spaces(id);
            if legal.is_empty() {
                vec![req.base.space(id)]
            } else {
                legal.to_vec()
            }
        })
        .collect();
    let len = spaces.len();
    let decode = |genome: &[usize]| -> PlacementMap {
        let mut pm = req.base.clone();
        for (j, &id) in req.candidates.iter().enumerate() {
            pm = pm.with(id, spaces[j][genome[j]]);
        }
        pm
    };
    let random_genome = |rng: &mut hms_stats::rng::Rng| -> Vec<usize> {
        (0..len)
            .map(|j| rng.gen_range(0..spaces[j].len()))
            .collect()
    };
    // Base placement as a genome (gene 0 when its space is not in the
    // alphabet — joint validation decides legality either way).
    let base_genome: Vec<usize> = req
        .candidates
        .iter()
        .enumerate()
        .map(|(j, &id)| {
            spaces[j]
                .iter()
                .position(|&s| s == req.base.space(id))
                .unwrap_or(0)
        })
        .collect();

    let mut population: Vec<Vec<usize>> = vec![base_genome];
    while population.len() < POP {
        population.push(random_genome(&mut rng));
    }
    engine.count(|s| s.enumerate_nanos += t0.elapsed().as_nanos() as u64);

    let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
    // Evaluated pool across all generations, in evaluation order.
    let mut pool: Vec<(f64, Vec<usize>)> = Vec::new();
    let mut ranked = Vec::new();
    let mut partial = false;
    'generations: for _gen in 0..GENERATIONS {
        let visited = population.len() as u64;
        let mut fresh: Vec<Vec<usize>> = Vec::new();
        for genome in population.drain(..) {
            if seen.insert(genome.clone()) && decode(&genome).validate(req.arrays, cfg).is_ok() {
                fresh.push(genome);
            }
        }
        let pms: Vec<PlacementMap> = fresh.iter().map(|g| decode(g)).collect();
        engine.count(|s| {
            s.candidates_visited += visited;
            s.candidates_enumerated += pms.len() as u64;
        });
        let start = ranked.len();
        let done = evaluate_in_order(engine, req, &pms, &mut ranked)?;
        for (r, genome) in ranked[start..].iter().zip(fresh) {
            pool.push((r.predicted_cycles, genome));
        }
        if done < pms.len() {
            partial = true;
            break 'generations;
        }

        // Selection: stable sort keeps evaluation order on ties, so the
        // elite set — and every RNG draw below — depends only on the
        // (thread-invariant) predicted cycles.
        pool.sort_by(|a, b| a.0.total_cmp(&b.0));
        let elites: Vec<&Vec<usize>> = pool.iter().take(ELITE).map(|(_, g)| g).collect();
        for _ in 0..POP.saturating_sub(IMMIGRANTS) {
            if elites.is_empty() || len == 0 {
                population.push(random_genome(&mut rng));
                continue;
            }
            let pa = elites[rng.gen_range(0..elites.len())];
            let pb = elites[rng.gen_range(0..elites.len())];
            let mut child: Vec<usize> = (0..len)
                .map(|j| if rng.gen_bool(0.5) { pa[j] } else { pb[j] })
                .collect();
            for (j, gene) in child.iter_mut().enumerate() {
                if rng.gen_bool(1.0 / len as f64) {
                    *gene = rng.gen_range(0..spaces[j].len());
                }
            }
            // Forced point mutation: pure elite clones stall the search.
            let j = rng.gen_range(0..len);
            child[j] = rng.gen_range(0..spaces[j].len());
            population.push(child);
        }
        for _ in 0..IMMIGRANTS {
            population.push(random_genome(&mut rng));
        }
    }

    Ok(finish(ranked, partial, all_free_floor(engine, req)))
}
