//! Deterministic model of the tiered synchronization scheme.
//!
//! The problem with barrier synchronization in a MIMD marker-propagation
//! machine is the lack of a global view: processing migrates between PEs
//! as markers propagate, and it is not known a priori how many
//! propagations take place or which PEs are involved. SNAP-1's controller
//! must determine that (1) all PEs are idle **and** (2) no markers are in
//! transit in the interconnection network.
//!
//! The *tiered* protocol distinguishes levels of propagation: each PE
//! keeps a marker message counter per level, incremented on process
//! creation and decremented on termination. Propagation has terminated
//! when the processors are idle and every level's counters sum to zero.
//! A *naive* detector that only checks PE idleness falsely reports
//! completion while messages are still in flight — reproduced here as the
//! ablation baseline ([`NaiveSyncModel`]).

/// Maximum propagation tiers tracked (deep enough for the 10–15 step
/// paths the paper reports, with margin).
pub(super) const MAX_LEVELS: usize = 64;

/// Deterministic state of the tiered termination detector, as evaluated
/// by the sequence control processor through the AND-tree and counter
/// network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieredSyncModel {
    /// Global creation-minus-termination count per level.
    counters: Vec<i64>,
    /// Idle flag per PE (the AND-tree inputs).
    idle: Vec<bool>,
}

/// The counter index a propagation level maps to: levels beyond the
/// hardware's tier table share the top tier. The termination condition
/// (every counter zero) stays exact — deep levels merely lose per-tier
/// attribution, as the real counter network would.
pub(super) fn tier(level: u8) -> usize {
    (level as usize).min(MAX_LEVELS - 1)
}

impl TieredSyncModel {
    /// Creates the detector for `pes` processing elements, all idle.
    pub fn new(pes: usize) -> Self {
        TieredSyncModel {
            counters: vec![0; MAX_LEVELS],
            idle: vec![true; pes],
        }
    }

    /// Records a marker/process creation at `level` (increment before the
    /// message is sent). Levels beyond `MAX_LEVELS` saturate into the
    /// top tier.
    pub fn created(&mut self, level: u8) {
        self.counters[tier(level)] += 1;
    }

    /// Records a marker/process termination at `level`. Levels beyond
    /// `MAX_LEVELS` saturate into the top tier.
    ///
    /// # Panics
    ///
    /// Panics if the counter would go negative — more terminations than
    /// creations indicates a protocol violation.
    pub fn consumed(&mut self, level: u8) {
        let c = &mut self.counters[tier(level)];
        assert!(*c > 0, "level {level} terminated more than created");
        *c -= 1;
    }

    /// Sets PE `pe`'s idle flag.
    pub fn set_idle(&mut self, pe: usize, idle: bool) {
        self.idle[pe] = idle;
    }

    /// `true` when every PE is idle **and** every level's counter is zero
    /// — the tiered barrier condition.
    pub fn is_complete(&self) -> bool {
        self.idle.iter().all(|&i| i) && self.counters.iter().all(|&c| c == 0)
    }

    /// Messages currently in transit (sum of all level counters).
    pub(crate) fn in_flight(&self) -> i64 {
        self.counters.iter().sum()
    }
}

/// The ablation: a detector using only the AND-tree idle signal, with no
/// in-transit accounting. It *falsely* detects completion whenever all
/// PEs happen to be idle while messages sit in the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveSyncModel {
    idle: Vec<bool>,
}

impl NaiveSyncModel {
    /// Creates the naive detector for `pes` PEs, all idle.
    pub fn new(pes: usize) -> Self {
        NaiveSyncModel {
            idle: vec![true; pes],
        }
    }

    /// Sets PE `pe`'s idle flag.
    pub fn set_idle(&mut self, pe: usize, idle: bool) {
        self.idle[pe] = idle;
    }

    /// `true` when every PE is idle — ignoring in-flight messages.
    pub fn is_complete(&self) -> bool {
        self.idle.iter().all(|&i| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn complete_only_when_idle_and_drained() {
        let mut sync = TieredSyncModel::new(2);
        assert!(sync.is_complete());
        // PE 0 starts propagating: creates a level-0 marker for PE 1.
        sync.set_idle(0, false);
        sync.created(0);
        sync.set_idle(0, true);
        // All PEs idle, but the message is in flight.
        assert!(!sync.is_complete());
        assert_eq!(sync.in_flight(), 1);
        // PE 1 receives and processes it, spawning a level-1 child.
        sync.set_idle(1, false);
        sync.created(1);
        sync.consumed(0);
        sync.set_idle(1, true);
        assert!(!sync.is_complete(), "level-1 child still outstanding");
        sync.consumed(1);
        assert!(sync.is_complete());
    }

    #[test]
    fn naive_detector_falsely_completes() {
        let mut tiered = TieredSyncModel::new(2);
        let mut naive = NaiveSyncModel::new(2);
        // PE 0 sends a message and goes idle before PE 1 sees it.
        tiered.set_idle(0, false);
        naive.set_idle(0, false);
        tiered.created(0);
        tiered.set_idle(0, true);
        naive.set_idle(0, true);
        assert!(naive.is_complete(), "naive detector fires while in flight");
        assert!(!tiered.is_complete(), "tiered detector does not");
    }

    #[test]
    #[should_panic(expected = "terminated more than created")]
    fn underflow_is_a_protocol_violation() {
        let mut sync = TieredSyncModel::new(1);
        sync.consumed(0);
    }

    #[test]
    fn deep_levels_saturate_into_top_tier() {
        let mut sync = TieredSyncModel::new(1);
        // Levels at and beyond the table share tier MAX_LEVELS - 1;
        // creations and terminations must still balance exactly.
        sync.created(MAX_LEVELS as u8);
        sync.created(200);
        sync.created(u8::MAX);
        assert_eq!(sync.in_flight(), 3);
        assert!(!sync.is_complete());
        sync.consumed(u8::MAX);
        sync.consumed(200);
        assert!(!sync.is_complete());
        sync.consumed(MAX_LEVELS as u8);
        assert!(sync.is_complete());
    }

    proptest! {
        /// Random create/consume schedules: the detector reports complete
        /// exactly when the ground-truth outstanding count is zero and
        /// everyone is idle.
        #[test]
        fn prop_matches_ground_truth(ops in proptest::collection::vec((0u8..4, 0usize..4), 0..200)) {
            let mut sync = TieredSyncModel::new(4);
            let mut outstanding = vec![0i64; MAX_LEVELS];
            let mut busy = [false; 4];
            for (level, pe) in ops {
                // Alternate: create if this PE's coin says so, else consume if possible.
                if outstanding[level as usize] > 0 && pe % 2 == 0 {
                    sync.consumed(level);
                    outstanding[level as usize] -= 1;
                } else {
                    sync.created(level);
                    outstanding[level as usize] += 1;
                }
                busy[pe] = !busy[pe];
                sync.set_idle(pe, !busy[pe]);
                let truth =
                    outstanding.iter().all(|&c| c == 0) && busy.iter().all(|&b| !b);
                prop_assert_eq!(sync.is_complete(), truth);
            }
        }
    }
}
