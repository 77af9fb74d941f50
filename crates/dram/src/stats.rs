//! Accumulated DRAM statistics: per-bank request mix and arrival streams.
//!
//! These counters feed three places: the simulator's `nvprof`-like event
//! set (row-buffer hit/miss/conflict events appear in the `T_overlap`
//! feature vector, Eq. 11), the `T_mem` queuing model's per-bank
//! inter-arrival and service statistics (Eq. 9–10), and Figure 4's
//! distribution analysis.

use crate::bank::AccessKind;

/// Per-bank counters.
#[derive(Debug, Clone, Default)]
pub struct BankStats {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub conflicts: u64,
    pub total_queuing: u64,
    pub total_latency: u64,
}

/// Device-wide DRAM statistics.
#[derive(Debug, Clone)]
pub struct DramStats {
    pub banks: Vec<BankStats>,
    /// Arrival cycles per bank, recorded only when `record_arrivals` was
    /// requested (used for Figure 4 and the queuing-model validation).
    pub arrivals: Vec<Vec<u64>>,
    record_arrivals: bool,
}

impl DramStats {
    pub fn new(num_banks: u32, record_arrivals: bool) -> Self {
        DramStats {
            banks: vec![BankStats::default(); num_banks as usize],
            arrivals: vec![
                Vec::new();
                if record_arrivals {
                    num_banks as usize
                } else {
                    0
                }
            ],
            record_arrivals,
        }
    }

    pub(crate) fn record(
        &mut self,
        bank: u32,
        arrival: u64,
        kind: AccessKind,
        queuing: u64,
        latency: u64,
    ) {
        let b = &mut self.banks[bank as usize];
        b.requests += 1;
        match kind {
            AccessKind::Hit => b.hits += 1,
            AccessKind::Miss => b.misses += 1,
            AccessKind::Conflict => b.conflicts += 1,
        }
        b.total_queuing += queuing;
        b.total_latency += latency;
        if self.record_arrivals {
            self.arrivals[bank as usize].push(arrival);
        }
    }

    /// Total requests across banks.
    pub fn total_requests(&self) -> u64 {
        self.banks.iter().map(|b| b.requests).sum()
    }

    /// Device-wide row-buffer event totals `(hits, misses, conflicts)`.
    pub fn row_buffer_totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for b in &self.banks {
            t.0 += b.hits;
            t.1 += b.misses;
            t.2 += b.conflicts;
        }
        t
    }

    /// Mean access latency (queuing + service) over all requests, or 0.
    pub fn mean_latency(&self) -> f64 {
        let reqs = self.total_requests();
        if reqs == 0 {
            return 0.0;
        }
        self.banks.iter().map(|b| b.total_latency).sum::<u64>() as f64 / reqs as f64
    }

    /// Mean queuing delay over all requests, or 0.
    pub fn mean_queuing(&self) -> f64 {
        let reqs = self.total_requests();
        if reqs == 0 {
            return 0.0;
        }
        self.banks.iter().map(|b| b.total_queuing).sum::<u64>() as f64 / reqs as f64
    }

    /// Inter-arrival times (cycles) of requests to `bank`; empty when
    /// arrival recording was off or the bank saw fewer than two requests.
    pub fn interarrival_times(&self, bank: u32) -> Vec<u64> {
        let Some(a) = self.arrivals.get(bank as usize) else {
            return Vec::new();
        };
        if a.len() < 2 {
            return Vec::new();
        }
        a.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Fraction of requests landing on each bank — the memory-request
    /// distribution of the paper's Eq. 7 weights.
    pub fn request_distribution(&self) -> Vec<f64> {
        let total = self.total_requests();
        if total == 0 {
            return vec![0.0; self.banks.len()];
        }
        self.banks
            .iter()
            .map(|b| b.requests as f64 / total as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut s = DramStats::new(4, true);
        s.record(0, 0, AccessKind::Miss, 0, 417);
        s.record(0, 10, AccessKind::Hit, 5, 203);
        s.record(2, 20, AccessKind::Conflict, 0, 566);
        assert_eq!(s.total_requests(), 3);
        assert_eq!(s.row_buffer_totals(), (1, 1, 1));
        assert_eq!(s.interarrival_times(0), vec![10]);
        assert!(s.interarrival_times(1).is_empty());
        let d = s.request_distribution();
        assert!((d[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((d[2] - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_latency() - (417.0 + 203.0 + 566.0) / 3.0).abs() < 1e-9);
        assert!((s.mean_queuing() - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn arrivals_not_recorded_when_disabled() {
        let mut s = DramStats::new(2, false);
        s.record(0, 0, AccessKind::Miss, 0, 417);
        s.record(0, 5, AccessKind::Hit, 0, 198);
        assert!(s.interarrival_times(0).is_empty());
        assert_eq!(s.total_requests(), 2);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DramStats::new(2, true);
        assert_eq!(s.mean_latency(), 0.0);
        assert_eq!(s.mean_queuing(), 0.0);
        assert_eq!(s.request_distribution(), vec![0.0, 0.0]);
    }
}
