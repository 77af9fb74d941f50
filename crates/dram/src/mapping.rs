//! The DRAM address-mapping scheme.
//!
//! "The address mapping scheme denotes how a given memory address is
//! resolved into indexes in terms of channel ID, rank ID, bank ID, row
//! address, and column address." (paper Section III-C2.)
//!
//! Following the paper's model needs, the mapping distinguishes three
//! classes of bits: **column bits** (same bank, same row — a row-buffer
//! hit when flipped), **row bits** (same bank, different row — a row
//! conflict when flipped) and everything else above the byte offset, whose
//! combination uniquely identifies a memory bank. Channel and rank are not
//! modeled separately; a "bank" here is a globally-identified bank, and the
//! controller derives its channel as `bank_id / banks_per_channel`.

/// Decoded coordinates of one physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    /// Global bank id in `[0, total_banks)`.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u64,
    /// Column index within the row.
    pub col: u64,
}

/// An address-mapping scheme described by explicit bit positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMapping {
    /// Number of meaningful address bits (addresses are masked to this).
    pub addr_bits: u32,
    /// Low bits addressing bytes inside one memory transaction; flipping
    /// one never changes the bank, row, or column.
    pub byte_bits: u32,
    /// Bit positions forming the column index (LSB first).
    pub col_bit_positions: Vec<u32>,
    /// Bit positions forming the row index (LSB first).
    pub row_bit_positions: Vec<u32>,
    /// Total banks the remaining ("other") bits are folded onto.
    pub total_banks: u32,
}

impl AddressMapping {
    /// Construct and sanity-check a mapping. Panics on overlapping or
    /// out-of-range bit positions — mappings are built from static
    /// configuration, so a malformed one is a programming error.
    pub fn new(
        addr_bits: u32,
        byte_bits: u32,
        col_bit_positions: Vec<u32>,
        row_bit_positions: Vec<u32>,
        total_banks: u32,
    ) -> Self {
        assert!(addr_bits <= 48, "unreasonable address width");
        assert!(total_banks > 0);
        let mut seen = vec![false; addr_bits as usize];
        for b in 0..byte_bits {
            seen[b as usize] = true;
        }
        for &p in col_bit_positions.iter().chain(&row_bit_positions) {
            assert!(p < addr_bits, "bit {p} outside {addr_bits}-bit address");
            assert!(!seen[p as usize], "bit {p} assigned twice");
            seen[p as usize] = true;
        }
        AddressMapping {
            addr_bits,
            byte_bits,
            col_bit_positions,
            row_bit_positions,
            total_banks,
        }
    }

    /// The default mapping of the simulated K80-like machine: 32-bit
    /// physical addresses, 32-byte transactions (5 byte bits), 6 column
    /// bits (64 x 32 B = 2 KiB rows), bank/channel bits 11..17, and row
    /// bits from 17 up.
    ///
    /// This is the *hidden ground truth* that `detect::detect_mapping`
    /// (the paper's Algorithm 1) must recover; the paper's own K80
    /// measurement reported rows at bits 8–21 and columns at bits 30–32 of
    /// the virtual address, which we preserve as [`AddressMapping::paper_k80`]
    /// for documentation, but the simulator uses this physically-plausible
    /// layout.
    pub fn k80_like(total_banks: u32) -> Self {
        AddressMapping::new(
            32,
            5,
            (5..11).collect(),  // 6 column bits
            (17..31).collect(), // 14 row bits
            total_banks,
        )
    }

    /// The bit layout the paper reports for its Tesla K80 (Section
    /// III-C2): row bits at positions 8–21 and column bits at 30–32 of the
    /// probed virtual address, byte bits in the last 3 bits.
    pub fn paper_k80(total_banks: u32) -> Self {
        AddressMapping::new(34, 3, (30..33).collect(), (8..22).collect(), total_banks)
    }

    /// Decode an address into bank/row/column coordinates.
    ///
    /// Convenience wrapper that compiles a [`DecodePlan`] per call; code
    /// decoding many addresses against one mapping should build the plan
    /// once with [`AddressMapping::plan`] and reuse it.
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        self.plan().decode(addr)
    }

    /// Precompile the per-bit classification into a [`DecodePlan`] so each
    /// subsequent decode is a handful of shift/mask operations instead of
    /// scanning the position lists for every address bit.
    pub fn plan(&self) -> DecodePlan {
        // "A combination of the other bits identifies a unique memory
        // bank": every bit that is neither byte nor row nor column, in
        // ascending order (matching the bit-scan the plan replaces).
        let other_bit_positions: Vec<u32> = (self.byte_bits..self.addr_bits)
            .filter(|bit| {
                !self.col_bit_positions.contains(bit) && !self.row_bit_positions.contains(bit)
            })
            .collect();
        DecodePlan {
            addr_mask: self.addr_mask(),
            col_runs: DecodePlan::compile_runs(&self.col_bit_positions),
            row_runs: DecodePlan::compile_runs(&self.row_bit_positions),
            other_runs: DecodePlan::compile_runs(&other_bit_positions),
            total_banks: u64::from(self.total_banks),
        }
    }

    /// Number of distinct columns per row.
    #[inline]
    pub fn columns(&self) -> u64 {
        1u64 << self.col_bit_positions.len()
    }

    #[inline]
    pub fn addr_mask(&self) -> u64 {
        if self.addr_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.addr_bits) - 1
        }
    }

    /// Per-bit reference gather; [`DecodePlan`]'s run-compiled form must
    /// stay bit-identical to this (see the equivalence test).
    #[cfg_attr(not(test), allow(dead_code))]
    fn gather(addr: u64, positions: &[u32]) -> u64 {
        let mut v = 0u64;
        for (i, &p) in positions.iter().enumerate() {
            v |= ((addr >> p) & 1) << i;
        }
        v
    }
}

/// A mapping with its bit classification resolved ahead of time.
///
/// Produced by [`AddressMapping::plan`]; decodes are bit-identical to
/// [`AddressMapping::decode`] but cost only one pass over the (short)
/// position lists, with no membership scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodePlan {
    addr_mask: u64,
    /// Maximal runs of consecutive source bits, compiled from the
    /// position lists: one `(shift, mask, out)` entry extracts a whole
    /// run with two shifts and a mask, so a decode costs a handful of
    /// run ops instead of one op per address bit.
    col_runs: Vec<GatherRun>,
    row_runs: Vec<GatherRun>,
    other_runs: Vec<GatherRun>,
    total_banks: u64,
}

/// One maximal run of consecutive source bits in a gather: the bits
/// `shift..shift+len` of the address land at output bits `out..out+len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GatherRun {
    shift: u32,
    mask: u64,
    out: u32,
}

impl DecodePlan {
    /// Compress a bit-position list into maximal consecutive runs.
    /// `gather` maps `positions[i]` to output bit `i`, so any stretch
    /// where the source positions increase by exactly 1 collapses into
    /// a single shift-mask-shift — bit-identical to the per-bit walk.
    fn compile_runs(positions: &[u32]) -> Vec<GatherRun> {
        let mut runs = Vec::new();
        let mut i = 0usize;
        while i < positions.len() {
            let start = i;
            while i + 1 < positions.len() && positions[i + 1] == positions[i] + 1 {
                i += 1;
            }
            let len = (i - start + 1) as u32;
            runs.push(GatherRun {
                shift: positions[start],
                mask: if len >= 64 {
                    u64::MAX
                } else {
                    (1u64 << len) - 1
                },
                out: start as u32,
            });
            i += 1;
        }
        runs
    }

    #[inline]
    fn gather_runs(addr: u64, runs: &[GatherRun]) -> u64 {
        let mut v = 0u64;
        for r in runs {
            v |= ((addr >> r.shift) & r.mask) << r.out;
        }
        v
    }

    /// Decode an address into bank/row/column coordinates.
    pub fn decode(&self, addr: u64) -> DecodedAddr {
        let addr = addr & self.addr_mask;
        let other = Self::gather_runs(addr, &self.other_runs);
        DecodedAddr {
            bank: (other % self.total_banks) as u32,
            row: Self::gather_runs(addr, &self.row_runs),
            col: Self::gather_runs(addr, &self.col_runs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k80_like_decodes_consistently() {
        let m = AddressMapping::k80_like(96);
        let d = m.decode(0);
        assert_eq!(
            d,
            DecodedAddr {
                bank: 0,
                row: 0,
                col: 0
            }
        );
        // Flipping a byte bit changes nothing.
        assert_eq!(m.decode(0b1), d);
        assert_eq!(m.decode(0b10000), d);
        // Flipping a column bit changes only the column.
        let c = m.decode(1 << 5);
        assert_eq!(c.bank, d.bank);
        assert_eq!(c.row, d.row);
        assert_eq!(c.col, 1);
        // Flipping a row bit changes only the row.
        let r = m.decode(1 << 17);
        assert_eq!(r.bank, d.bank);
        assert_eq!(r.col, d.col);
        assert_eq!(r.row, 1);
        // Flipping a bank bit changes the bank.
        let b = m.decode(1 << 11);
        assert_ne!(b.bank, d.bank);
        assert_eq!(b.row, d.row);
        assert_eq!(b.col, d.col);
    }

    #[test]
    fn sequential_transactions_walk_columns_first() {
        // 32-byte-stride streaming should enjoy row-buffer locality: the
        // first 64 transactions of a row share bank and row.
        let m = AddressMapping::k80_like(96);
        let base = m.decode(0);
        for t in 1..64u64 {
            let d = m.decode(t * 32);
            assert_eq!(d.bank, base.bank);
            assert_eq!(d.row, base.row);
            assert_eq!(d.col, t);
        }
        // The 65th transaction leaves the row (different bank bits).
        let next = m.decode(64 * 32);
        assert_ne!(next.bank, base.bank);
    }

    #[test]
    fn bank_fold_is_within_range() {
        let m = AddressMapping::k80_like(96);
        for i in 0..10_000u64 {
            let d = m.decode(i * 4096 + i * 7);
            assert!(d.bank < 96);
        }
    }

    #[test]
    fn paper_mapping_matches_reported_bits() {
        let m = AddressMapping::paper_k80(96);
        assert_eq!(m.byte_bits, 3);
        assert_eq!(m.row_bit_positions.len(), 14);
        assert_eq!(m.col_bit_positions, vec![30, 31, 32]);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn overlapping_bits_rejected() {
        AddressMapping::new(32, 5, vec![5, 6], vec![6, 7], 8);
    }

    #[test]
    fn plan_matches_reference_bit_scan() {
        // The plan must reproduce the definition exactly: gather col/row
        // by their position lists, then fold every remaining non-byte bit
        // (ascending) onto the bank count.
        let reference = |m: &AddressMapping, addr: u64| -> DecodedAddr {
            let addr = addr & m.addr_mask();
            let mut other = 0u64;
            let mut out = 0u32;
            for bit in m.byte_bits..m.addr_bits {
                if m.col_bit_positions.contains(&bit) || m.row_bit_positions.contains(&bit) {
                    continue;
                }
                other |= ((addr >> bit) & 1) << out;
                out += 1;
            }
            DecodedAddr {
                bank: (other % u64::from(m.total_banks)) as u32,
                row: AddressMapping::gather(addr, &m.row_bit_positions),
                col: AddressMapping::gather(addr, &m.col_bit_positions),
            }
        };
        for m in [
            AddressMapping::k80_like(96),
            AddressMapping::paper_k80(96),
            // Deliberately unsorted position lists: gather order must hold.
            AddressMapping::new(20, 2, vec![7, 3], vec![12, 9, 15], 5),
        ] {
            let plan = m.plan();
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..2000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                assert_eq!(plan.decode(x), reference(&m, x));
                assert_eq!(m.decode(x), reference(&m, x));
            }
        }
    }

    #[test]
    fn addr_mask_clips_high_bits() {
        let m = AddressMapping::k80_like(96);
        assert_eq!(m.decode(1u64 << 40), m.decode(0));
    }
}
