//! The performance-collection network.
//!
//! Gathering measurements over a primary network would perturb the very
//! communication being measured, so SNAP-1 instruments the array through
//! an independent network: each PE writes an 8-bit event code and 24-bit
//! status word to its serial-port register and resumes immediately; the
//! serial controller shifts the record out at 2 Mb/s to a central
//! collection board, where it is timestamped and stored in a FIFO.

use crate::SimTime;

/// Serial link rate of the instrumentation network, bits per second.
pub const SERIAL_LINK_BPS: u64 = 2_000_000;

/// Bits per event record (8-bit code + 24-bit status).
pub const RECORD_BITS: u64 = 32;

/// Nanoseconds needed to shift one record out of a PE's serial port.
pub const RECORD_SHIFT_NS: SimTime = RECORD_BITS * 1_000_000_000 / SERIAL_LINK_BPS;

/// One collected performance event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerfEvent {
    /// Timestamp applied at the central collection board (ns).
    pub timestamp: SimTime,
    /// Index of the reporting PE.
    pub pe: u32,
    /// 8-bit event code.
    pub code: u8,
    /// 24-bit status word (stored in the low bits).
    pub status: u32,
}

/// Model of the performance-collection network: per-PE serial links
/// feeding a central timestamped FIFO.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfCollector {
    link_busy_until: Vec<SimTime>,
    events: Vec<PerfEvent>,
    dropped: u64,
    fifo_capacity: usize,
}

impl PerfCollector {
    /// Creates a collector for `pes` processing elements with the given
    /// central FIFO capacity.
    pub fn new(pes: usize, fifo_capacity: usize) -> Self {
        PerfCollector {
            link_busy_until: vec![0; pes],
            events: Vec::new(),
            dropped: 0,
            fifo_capacity,
        }
    }

    /// Records an event from `pe` at simulated time `now`. The PE is
    /// never delayed; the record arrives after its serial shift, queueing
    /// behind earlier records on the same link. Returns the arrival
    /// timestamp, or `None` if the central FIFO overflowed.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range.
    pub fn record(&mut self, pe: u32, now: SimTime, code: u8, status: u32) -> Option<SimTime> {
        let link = &mut self.link_busy_until[pe as usize];
        let start = now.max(*link);
        let arrival = start + RECORD_SHIFT_NS;
        *link = arrival;
        if self.events.len() >= self.fifo_capacity {
            self.dropped += 1;
            return None;
        }
        self.events.push(PerfEvent {
            timestamp: arrival,
            pe,
            code,
            status: status & 0x00FF_FFFF,
        });
        Some(arrival)
    }

    /// All collected events in arrival order.
    pub fn events(&self) -> &[PerfEvent] {
        &self.events
    }

    /// Number of records lost to FIFO overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the FIFO (transfer to mass storage).
    pub fn drain(&mut self) -> Vec<PerfEvent> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_shift_time_matches_2mbps() {
        // 32 bits at 2 Mb/s = 16 µs.
        assert_eq!(RECORD_SHIFT_NS, 16_000);
    }

    #[test]
    fn events_queue_behind_link() {
        let mut pc = PerfCollector::new(2, 100);
        let t1 = pc.record(0, 0, 1, 0xABCDEF).unwrap();
        assert_eq!(t1, 16_000);
        // Same PE immediately after: queues behind the first shift.
        let t2 = pc.record(0, 1_000, 2, 0).unwrap();
        assert_eq!(t2, 32_000);
        // Different PE: independent link.
        let t3 = pc.record(1, 1_000, 3, 0).unwrap();
        assert_eq!(t3, 17_000);
        assert_eq!(pc.events().len(), 3);
    }

    #[test]
    fn status_is_masked_to_24_bits() {
        let mut pc = PerfCollector::new(1, 10);
        pc.record(0, 0, 1, 0xFFFF_FFFF);
        assert_eq!(pc.events()[0].status, 0x00FF_FFFF);
    }

    #[test]
    fn fifo_overflow_drops_and_counts() {
        let mut pc = PerfCollector::new(1, 2);
        assert!(pc.record(0, 0, 1, 0).is_some());
        assert!(pc.record(0, 0, 2, 0).is_some());
        assert!(pc.record(0, 0, 3, 0).is_none());
        assert_eq!(pc.dropped(), 1);
        let drained = pc.drain();
        assert_eq!(drained.len(), 2);
        assert!(pc.events().is_empty());
    }
}
