//! The memory controller: per-bank FIFO queues plus channel data buses.
//!
//! "A memory request, after the last level cache, is distributed to a
//! memory bank. If the memory request cannot be serviced by the memory
//! bank immediately, the memory request is placed into the queue
//! associated with the memory bank." (paper Section III-C1, Figure 3.)
//!
//! The controller is *timestamp-driven*: each request carries its arrival
//! cycle and the controller resolves its completion cycle immediately
//! using the bank's `free_at` bookkeeping. Requests must therefore be
//! submitted in non-decreasing arrival order (the simulator's cycle loop
//! guarantees this).

use hms_types::DramTimingConfig;

use crate::bank::{AccessKind, BankState};
use crate::mapping::AddressMapping;
use crate::stats::DramStats;

/// Completion information for one DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequestResult {
    /// Cycle at which the data is available.
    pub complete_at: u64,
    /// Total latency (queuing + service + bus) in cycles.
    pub latency: u64,
    /// Row-buffer outcome.
    pub kind: AccessKind,
    /// Global bank id serviced.
    pub bank: u32,
    /// Cycles spent waiting for the bank (the queuing delay the paper's
    /// G/G/1 model approximates).
    pub queuing: u64,
}

/// A GDDR5 memory controller front-ending all channels and banks.
#[derive(Debug, Clone)]
pub struct MemoryController {
    mapping: AddressMapping,
    timing: DramTimingConfig,
    banks: Vec<BankState>,
    stats: DramStats,
    last_arrival: u64,
    /// Cycle of the next auto-refresh boundary (u64::MAX when disabled).
    next_refresh: u64,
}

impl MemoryController {
    /// Build a controller; `record_arrivals` enables per-bank arrival
    /// logging (needed only for distribution analysis — it costs memory
    /// proportional to the request count).
    pub fn new(mapping: AddressMapping, timing: DramTimingConfig, record_arrivals: bool) -> Self {
        let nb = timing.total_banks();
        assert_eq!(
            mapping.total_banks, nb,
            "mapping folds onto {} banks but timing configures {}",
            mapping.total_banks, nb
        );
        MemoryController {
            mapping,
            timing,
            banks: vec![BankState::default(); nb as usize],
            stats: DramStats::new(nb, record_arrivals),
            last_arrival: 0,
            next_refresh: if timing.refresh_interval_cycles == 0 {
                u64::MAX
            } else {
                timing.refresh_interval_cycles
            },
        }
    }

    /// Service one request for the transaction containing `addr`, arriving
    /// at cycle `arrival`.
    pub fn access(&mut self, arrival: u64, addr: u64) -> DramRequestResult {
        debug_assert!(
            arrival >= self.last_arrival,
            "requests must arrive in non-decreasing cycle order"
        );
        self.last_arrival = arrival;
        // Auto-refresh: every tREFI boundary closes all row buffers,
        // turning the next access per bank into a plain row miss.
        while arrival >= self.next_refresh {
            for b in &mut self.banks {
                b.precharge();
            }
            self.next_refresh += self.timing.refresh_interval_cycles;
        }
        let d = self.mapping.decode(addr);
        let bank = &mut self.banks[d.bank as usize];
        let (bank_done, kind, queuing) = bank.service(arrival, d.row, &self.timing);
        // Data transfer occupies the channel bus for one burst. At the
        // K80's pin bandwidth the bus can move ~2 transactions per core
        // cycle per channel, so cross-request bus contention is
        // negligible at kernel scale and is not modeled; the burst is a
        // fixed transfer-time addend.
        let complete_at = bank_done + self.timing.burst_cycles;
        let latency = complete_at - arrival;
        self.stats
            .record(d.bank, arrival, kind, queuing, latency, 0);
        DramRequestResult {
            complete_at,
            latency,
            kind,
            bank: d.bank,
            queuing,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// The mapping in force (the simulator owns the "hidden" ground truth;
    /// Algorithm 1 must not look at this — it only calls [`Self::access`]).
    pub fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    pub fn timing(&self) -> &DramTimingConfig {
        &self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hms_types::GpuConfig;

    fn ctl() -> MemoryController {
        let t = GpuConfig::tesla_k80().dram;
        MemoryController::new(AddressMapping::k80_like(t.total_banks()), t, true)
    }

    #[test]
    fn streaming_hits_row_buffer() {
        let mut c = ctl();
        let first = c.access(0, 0);
        assert_eq!(first.kind, AccessKind::Miss);
        // Next transaction in the same row, arriving after the first
        // completes: pure row-buffer hit with no queuing.
        let second = c.access(first.complete_at, 32);
        assert_eq!(second.kind, AccessKind::Hit);
        assert_eq!(second.queuing, 0);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn burst_of_same_bank_requests_queues() {
        let mut c = ctl();
        // 8 simultaneous requests to the same row: each waits on the
        // previous (the per-bank FIFO of Figure 3).
        let mut last_latency = 0;
        for i in 0..8 {
            let r = c.access(0, 32 * i);
            assert!(r.latency >= last_latency);
            last_latency = r.latency;
        }
        assert!(c.stats().mean_queuing() > 0.0);
    }

    #[test]
    fn spread_banks_serve_in_parallel() {
        let t = GpuConfig::tesla_k80().dram;
        let mapping = AddressMapping::k80_like(t.total_banks());
        // Find 8 addresses on distinct banks and distinct channels where
        // possible.
        let mut addrs = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut a = 0u64;
        while addrs.len() < 8 {
            let d = mapping.decode(a);
            if seen.insert(d.bank) {
                addrs.push(a);
            }
            a += 2048; // stride through bank bits
        }
        let mut c = MemoryController::new(mapping, t, false);
        let latencies: Vec<u64> = addrs.iter().map(|&x| c.access(0, x).latency).collect();
        // No bank-level queuing: all requests are misses served in
        // parallel, differing only by channel-bus serialization.
        let worst = *latencies.iter().max().unwrap();
        assert!(worst < t.miss_cycles + 8 * t.burst_cycles + 1);
        assert_eq!(c.stats().mean_queuing(), 0.0);
    }

    #[test]
    fn row_conflict_costs_most() {
        let mut c = ctl();
        let m = c.access(0, 0);
        // Same bank, different row (flip a row bit at position 17).
        let r = c.access(m.complete_at, 1 << 17);
        assert_eq!(r.kind, AccessKind::Conflict);
        assert!(r.latency > m.latency);
    }

    #[test]
    fn burst_is_added_to_every_completion() {
        let t = GpuConfig::tesla_k80().dram;
        let mapping = AddressMapping::k80_like(t.total_banks());
        let mut c = MemoryController::new(mapping, t, false);
        let r = c.access(0, 0);
        assert_eq!(r.complete_at, t.miss_cycles + t.burst_cycles);
    }

    #[test]
    fn refresh_closes_rows() {
        let mut t = GpuConfig::tesla_k80().dram;
        t.refresh_interval_cycles = 10_000;
        let mapping = AddressMapping::k80_like(t.total_banks());
        let mut c = MemoryController::new(mapping, t, false);
        let first = c.access(0, 0);
        assert_eq!(first.kind, AccessKind::Miss);
        // Still within the refresh window: row-buffer hit.
        let warm = c.access(first.complete_at, 32);
        assert_eq!(warm.kind, AccessKind::Hit);
        // Past the boundary: the row was closed by refresh.
        let cold = c.access(10_001, 64);
        assert_eq!(cold.kind, AccessKind::Miss);
    }

    #[test]
    fn refresh_disabled_keeps_rows_open() {
        let mut t = GpuConfig::tesla_k80().dram;
        t.refresh_interval_cycles = 0;
        let mapping = AddressMapping::k80_like(t.total_banks());
        let mut c = MemoryController::new(mapping, t, false);
        let first = c.access(0, 0);
        let much_later = c.access(first.complete_at + 1_000_000, 32);
        assert_eq!(much_later.kind, AccessKind::Hit);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_arrivals_rejected_in_debug() {
        let mut c = ctl();
        c.access(100, 0);
        c.access(50, 64);
    }
}
