//! The global broadcast bus between controller and array.
//!
//! The sequence control processor broadcasts SNAP instructions over a
//! dedicated global bus (32-bit data, 16-bit address) into the dual-port
//! instruction memories of every cluster simultaneously; with broadcast
//! disabled the same bus retrieves results from a single cluster. Because
//! the bus is separate from the marker ICN, broadcast overhead is small
//! and constant in the number of clusters — the property Fig. 21 reports.

use crate::SimTime;

/// Timing model of the global bus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusModel {
    busy_until: SimTime,
    broadcasts: u64,
    retrievals: u64,
    words_moved: u64,
}

impl BusModel {
    /// Creates an idle bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Broadcasts `words` 32-bit words to all clusters starting no
    /// earlier than `now`; `per_word_ns` is the bus word time. Returns
    /// the completion time. Cost is independent of the cluster count.
    pub fn broadcast(&mut self, now: SimTime, words: u64, per_word_ns: SimTime) -> SimTime {
        let start = now.max(self.busy_until);
        let done = start + words * per_word_ns;
        self.busy_until = done;
        self.broadcasts += 1;
        self.words_moved += words;
        done
    }

    /// Retrieves `words` words from one cluster (broadcast disabled,
    /// bidirectional mode). Returns the completion time.
    pub fn retrieve(&mut self, now: SimTime, words: u64, per_word_ns: SimTime) -> SimTime {
        let start = now.max(self.busy_until);
        let done = start + words * per_word_ns;
        self.busy_until = done;
        self.retrievals += 1;
        self.words_moved += words;
        done
    }

    /// Number of broadcasts performed.
    pub fn broadcasts(&self) -> u64 {
        self.broadcasts
    }

    /// Number of single-cluster retrievals performed.
    pub fn retrievals(&self) -> u64 {
        self.retrievals
    }

    /// Total words moved over the bus.
    pub fn words_moved(&self) -> u64 {
        self.words_moved
    }

    /// Earliest time the bus is free.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcasts_serialize_on_the_bus() {
        let mut bus = BusModel::new();
        let t1 = bus.broadcast(0, 4, 100);
        assert_eq!(t1, 400);
        let t2 = bus.broadcast(100, 2, 100);
        assert_eq!(t2, 600, "second broadcast waits for the bus");
        assert_eq!(bus.broadcasts(), 2);
        assert_eq!(bus.words_moved(), 6);
    }

    #[test]
    fn retrieval_shares_the_bus() {
        let mut bus = BusModel::new();
        bus.broadcast(0, 10, 50);
        let t = bus.retrieve(0, 4, 50);
        assert_eq!(t, 500 + 200);
        assert_eq!(bus.retrievals(), 1);
        assert_eq!(bus.free_at(), 700);
    }
}
