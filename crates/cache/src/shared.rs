//! Shared-memory bank-conflict model.
//!
//! Kepler shared memory is organized as 32 banks of 4-byte words; a warp
//! access completes in one pass unless two lanes address *different
//! words in the same bank*, in which case the hardware serializes the
//! access into multiple passes. "Bank conflict in load/store for shared
//! memory" is instruction-replay cause (4) in the paper: each extra pass
//! is one replay.

/// Lanes counted in a stack buffer; a longer access (a machine with
/// warps wider than this) counts in a heap buffer instead.
const STACK_LANES: usize = 64;

/// Number of serialized passes a warp's shared-memory access needs, given
/// the active lanes' byte addresses and the bank count.
///
/// Lanes reading the *same* word broadcast for free; lanes reading
/// different words in the same bank conflict. The lanes' `(bank, word)`
/// keys are sorted in a fixed buffer, so each bank's distinct words form
/// one run and the longest run is the pass count.
pub fn shared_conflict_passes(lane_addrs: &[u64], banks: u32) -> u32 {
    let banks = u64::from(banks.max(1));
    let mut stack = [(0u64, 0u64); STACK_LANES];
    let mut heap = Vec::new();
    let keys: &mut [(u64, u64)] = if lane_addrs.len() <= STACK_LANES {
        &mut stack[..lane_addrs.len()]
    } else {
        heap.resize(lane_addrs.len(), (0, 0));
        &mut heap
    };
    for (key, &a) in keys.iter_mut().zip(lane_addrs) {
        let word = a / 4;
        *key = (word % banks, word);
    }
    keys.sort_unstable();
    let mut passes = 0;
    let mut run = 0;
    let mut prev = None;
    for &key in keys.iter() {
        match prev {
            Some(p) if p == key => continue,
            Some((bank, _)) if bank == key.0 => run += 1,
            _ => run = 1,
        }
        passes = passes.max(run);
        prev = Some(key);
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_stats::proptest_lite::{check, Config};

    /// The per-bank word lists the model was first written with: the
    /// oracle for the sorted count.
    fn reference_passes(lane_addrs: &[u64], banks: u32) -> u32 {
        if lane_addrs.is_empty() {
            return 0;
        }
        let banks = banks.max(1) as u64;
        let mut per_bank: Vec<Vec<u64>> = vec![Vec::new(); banks as usize];
        for &a in lane_addrs {
            let word = a / 4;
            let bank = (word % banks) as usize;
            if !per_bank[bank].contains(&word) {
                per_bank[bank].push(word);
            }
        }
        per_bank
            .iter()
            .map(|w| w.len() as u32)
            .max()
            .unwrap_or(0)
            .max(1)
    }

    #[test]
    fn sorted_count_matches_per_bank_lists() {
        check(
            "sorted_count_matches_per_bank_lists",
            &Config::with_cases(512),
            |rng| {
                // Past the stack buffer too, and address ranges from a
                // few words (heavy broadcast) to many (heavy conflict).
                let n = rng.gen_range(0usize..80);
                let span = [16u64, 256, 1 << 16][rng.gen_range(0..3) as usize];
                let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..span)).collect();
                let banks = [0u32, 1, 2, 7, 16, 32, 64][rng.gen_range(0..7) as usize];
                (addrs, banks)
            },
            |(addrs, banks)| {
                let got = shared_conflict_passes(addrs, *banks);
                let want = reference_passes(addrs, *banks);
                if got == want {
                    Ok(())
                } else {
                    Err(format!("{got} passes, reference {want}"))
                }
            },
        );
    }

    #[test]
    fn sequential_words_are_conflict_free() {
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 4).collect();
        assert_eq!(shared_conflict_passes(&addrs, 32), 1);
    }

    #[test]
    fn broadcast_is_free() {
        let addrs = vec![64u64; 32];
        assert_eq!(shared_conflict_passes(&addrs, 32), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        // Stride-2 word access: lanes 0 and 16 share bank 0, etc.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 2 * 4).collect();
        assert_eq!(shared_conflict_passes(&addrs, 32), 2);
    }

    #[test]
    fn stride_32_is_fully_serialized() {
        // All 32 lanes hit bank 0 with distinct words: 32 passes.
        let addrs: Vec<u64> = (0..32u64).map(|i| i * 32 * 4).collect();
        assert_eq!(shared_conflict_passes(&addrs, 32), 32);
    }

    #[test]
    fn empty_access_is_noop() {
        assert_eq!(shared_conflict_passes(&[], 32), 0);
    }
}
