//! The calibrated cost model.
//!
//! Absolute hardware timings cannot be reproduced on a simulator, so the
//! model is calibrated to the *reported* characteristics of the
//! prototype and the figure shapes of Section IV:
//!
//! * SET/CLEAR instructions take ≈ 50 µs; `PROPAGATE` takes several
//!   hundred µs depending on path length (§IV "Processing Time");
//! * the hypercube moves an 8-bit slice every 80 ns port-to-port, so a
//!   64-bit message costs 640 ns per hop (§III-B);
//! * instruction broadcast is small and constant; message communication
//!   grows with hop count (∝ log N); barrier synchronization is
//!   proportional to the PE count with a small coefficient; and
//!   `COLLECT` is proportional to the cluster count with the largest
//!   coefficient (Fig. 21).
//!
//! All durations are nanoseconds of simulated time.

use crate::SimTime;

/// Per-operation costs of the machine, in nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Broadcasting one SNAP instruction over the global bus (constant
    /// in the number of clusters).
    pub broadcast_ns: SimTime,
    /// PU dequeue + decode + task setup per instruction.
    pub pu_decode_ns: SimTime,
    /// One 32-bit word of marker-status-table manipulation by an MU
    /// (the inner loop of boolean and set/clear instructions).
    pub word_op_ns: SimTime,
    /// Updating one complex-marker value slot (floating point load, op,
    /// store).
    pub value_op_ns: SimTime,
    /// Indexing one relation-table segment (16-slot row fetch).
    pub rel_lookup_ns: SimTime,
    /// Examining one relation slot against the propagation rule.
    pub link_scan_ns: SimTime,
    /// Setting a marker (status bit + node-table update) at a local
    /// destination during propagation.
    pub marker_set_ns: SimTime,
    /// CU service time per inter-cluster message (disassemble, DMA,
    /// enqueue).
    pub cu_service_ns: SimTime,
    /// Wire time per hypercube hop for one 64-bit message (8 bytes ×
    /// 80 ns byte time).
    pub hop_ns: SimTime,
    /// Fixed component of a barrier synchronization (AND-tree settle +
    /// controller check).
    pub sync_base_ns: SimTime,
    /// Per-PE component of a barrier (counter aggregation) — the small
    /// linear dependency of Fig. 21.
    pub sync_per_pe_ns: SimTime,
    /// Fixed controller cost of a COLLECT operation.
    pub collect_base_ns: SimTime,
    /// Polling one cluster's dual-port memory during COLLECT — the
    /// dominant, cluster-proportional overhead of Fig. 21.
    pub collect_per_cluster_ns: SimTime,
    /// Moving one collected item to the controller.
    pub collect_per_item_ns: SimTime,
    /// Controller-side work per node-maintenance operation.
    pub maintenance_ns: SimTime,
    /// Controller program-flow (PCP) cost per instruction.
    pub pcp_ns: SimTime,
}

impl CostModel {
    /// The default calibration for the prototype as built: 25 MHz
    /// array PEs, a 32 MHz controller and a 64-deep circular PU
    /// instruction queue. The clocks are folded into these nanoseconds
    /// and nothing scales them afterwards; the queue depth is not a
    /// parameter of the model.
    pub fn snap1() -> Self {
        CostModel {
            broadcast_ns: 5_000,
            pu_decode_ns: 18_000,
            word_op_ns: 900,
            value_op_ns: 400,
            rel_lookup_ns: 2_500,
            link_scan_ns: 450,
            marker_set_ns: 1_100,
            cu_service_ns: 1_500,
            hop_ns: 640,
            sync_base_ns: 12_000,
            sync_per_pe_ns: 450,
            collect_base_ns: 25_000,
            collect_per_cluster_ns: 18_000,
            collect_per_item_ns: 1_500,
            maintenance_ns: 20_000,
            pcp_ns: 1_500,
        }
    }

    /// Cost of a word-parallel global marker operation over `words`
    /// status words (executed by one MU).
    pub fn global_op_ns(&self, words: usize) -> SimTime {
        self.pu_decode_ns + words as SimTime * self.word_op_ns
    }

    /// Cost for an MU to expand one active node during propagation:
    /// `segments` relation-table rows fetched, `links` slots examined,
    /// `local_sets` local marker activations performed.
    pub fn expand_ns(&self, segments: usize, links: usize, local_sets: usize) -> SimTime {
        segments as SimTime * self.rel_lookup_ns
            + links as SimTime * self.link_scan_ns
            + local_sets as SimTime * (self.marker_set_ns + self.value_op_ns)
    }

    /// End-to-end wire+service latency for a message crossing `hops`
    /// hypercube hops (each intermediate CU relays it).
    pub fn message_ns(&self, hops: usize) -> SimTime {
        hops as SimTime * (self.hop_ns + self.cu_service_ns)
    }

    /// Barrier synchronization overhead for an array of `pes` PEs.
    pub fn barrier_ns(&self, pes: usize) -> SimTime {
        self.sync_base_ns + pes as SimTime * self.sync_per_pe_ns
    }

    /// COLLECT overhead for `clusters` clusters returning `items`
    /// results in total.
    pub fn collect_ns(&self, clusters: usize, items: usize) -> SimTime {
        self.collect_base_ns
            + clusters as SimTime * self.collect_per_cluster_ns
            + items as SimTime * self.collect_per_item_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::snap1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_lands_near_50_microseconds() {
        // A 1K-node cluster region has 32 status words.
        let c = CostModel::snap1();
        let ns = c.global_op_ns(32);
        assert!(
            (40_000..=60_000).contains(&ns),
            "set/clear ≈ 50 µs, got {ns} ns"
        );
    }

    #[test]
    fn propagate_step_costs_dominate_word_ops() {
        let c = CostModel::snap1();
        // Expanding a node with 8 links, 4 of them matching locally.
        let step = c.expand_ns(1, 8, 4);
        assert!(step > c.word_op_ns * 8);
        // A 12-step path over such nodes runs to hundreds of µs.
        let path = step * 12 + c.pu_decode_ns;
        assert!(
            (100_000..=900_000).contains(&path),
            "propagate path ≈ several hundred µs, got {path} ns"
        );
    }

    #[test]
    fn message_latency_matches_80ns_byte_time() {
        let c = CostModel::snap1();
        assert_eq!(c.hop_ns, 8 * 80);
        assert_eq!(c.message_ns(3), 3 * (640 + c.cu_service_ns));
        assert_eq!(c.message_ns(0), 0);
    }

    #[test]
    fn overhead_orderings_match_fig21() {
        let c = CostModel::snap1();
        // At the evaluation scale (16 clusters, 72 PEs, ~50 items):
        let broadcast = c.broadcast_ns;
        let comm = c.message_ns(2);
        let sync = c.barrier_ns(72);
        let collect = c.collect_ns(16, 50);
        assert!(broadcast < comm + sync, "broadcast is the small constant");
        assert!(collect > sync, "collect dominates");
        assert!(collect > comm);
    }
}
