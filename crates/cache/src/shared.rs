//! Shared-memory bank-conflict model.
//!
//! Kepler shared memory is organized as 32 banks of 4-byte words; a warp
//! access completes in one pass unless two lanes address *different
//! words in the same bank*, in which case the hardware serializes the
//! access into multiple passes. "Bank conflict in load/store for shared
//! memory" is instruction-replay cause (4) in the paper: each extra pass
//! is one replay.

/// Number of serialized passes a warp's shared-memory access needs, given
/// the active lanes' byte addresses and the bank count.
///
/// Lanes reading the *same* word broadcast for free; lanes reading
/// different words in the same bank conflict.
pub fn shared_conflict_passes(lane_addrs: &[u64], banks: u32) -> u32 {
    if lane_addrs.is_empty() {
        return 0;
    }
    let banks = banks.max(1) as u64;
    // Per bank, count distinct words.
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

#[cfg(test)]
mod tests {
    use super::*;

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
