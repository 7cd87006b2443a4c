//! Declarative, seeded fault schedules.

/// A one-shot worker-thread panic: cluster `cluster`'s worker dies the
/// first time it starts executing program step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanicSpec {
    /// Cluster whose worker thread panics.
    pub cluster: u8,
    /// Zero-based program step at which the panic fires.
    pub step: usize,
}

/// A deterministic, seeded schedule of injected faults.
///
/// Probabilities are evaluated by [`FaultInjector`](crate::FaultInjector)
/// against `(seed, site, counter)` hashes, never a live RNG: replaying
/// the same plan against the same deterministic counter streams yields
/// the same injected schedule. The discrete-event engine drives every
/// decision from its event sequence, so there the guarantee is absolute;
/// the threaded engine's counters are per-link send sequences, so its
/// schedule is deterministic per link but interleaving still varies.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Probability an off-cluster marker message is dropped in flight.
    pub drop_prob: f64,
    /// Probability an off-cluster marker message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a message is held back before delivery.
    pub delay_prob: f64,
    /// Upper bound on an injected delivery delay, in simulated ns.
    pub delay_ns: u64,
    /// Probability a message payload is corrupted in flight (checksums
    /// still reflect the original payload, so receivers can detect it).
    pub corrupt_prob: f64,
    /// Probability a scheduled PE task stalls before executing.
    pub stall_prob: f64,
    /// Length of an injected PE stall, in simulated ns.
    pub stall_ns: u64,
    /// Probability an arbiter grant is starved (held back) before issue.
    pub starvation_prob: f64,
    /// Length of an injected arbiter starvation, in ns.
    pub starvation_ns: u64,
    /// Hypercube links forced down for the whole run; sends over a down
    /// link are dropped every time (and counted as drops).
    pub down_links: Vec<(u8, u8)>,
    /// At most one scheduled worker-thread panic.
    pub panic_worker: Option<PanicSpec>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled; chain the
    /// builder methods to arm specific fault classes.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            delay_ns: 0,
            corrupt_prob: 0.0,
            stall_prob: 0.0,
            stall_ns: 0,
            starvation_prob: 0.0,
            starvation_ns: 0,
            down_links: Vec::new(),
            panic_worker: None,
        }
    }

    /// Arms message drops with probability `prob`.
    #[must_use]
    pub fn drops(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Arms message duplication with probability `prob`.
    #[must_use]
    pub fn duplicates(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Arms message delays: probability `prob`, up to `max_ns` each.
    #[must_use]
    pub fn delays(mut self, prob: f64, max_ns: u64) -> Self {
        self.delay_prob = prob;
        self.delay_ns = max_ns;
        self
    }

    /// Arms payload corruption with probability `prob`.
    #[must_use]
    pub fn corruptions(mut self, prob: f64) -> Self {
        self.corrupt_prob = prob;
        self
    }

    /// Arms PE stalls: probability `prob`, `ns` each.
    #[must_use]
    pub fn stalls(mut self, prob: f64, ns: u64) -> Self {
        self.stall_prob = prob;
        self.stall_ns = ns;
        self
    }

    /// Arms arbiter starvation: probability `prob`, `ns` each.
    #[must_use]
    pub fn starvation(mut self, prob: f64, ns: u64) -> Self {
        self.starvation_prob = prob;
        self.starvation_ns = ns;
        self
    }

    /// Forces the link between clusters `a` and `b` down (both
    /// directions) for the whole run.
    #[must_use]
    pub fn link_down(mut self, a: u8, b: u8) -> Self {
        self.down_links.push((a, b));
        self
    }

    /// Schedules cluster `cluster`'s worker thread to panic at program
    /// step `step`.
    #[must_use]
    pub fn worker_panic(mut self, cluster: u8, step: usize) -> Self {
        self.panic_worker = Some(PanicSpec { cluster, step });
        self
    }

    /// `true` when no fault class is armed.
    pub fn is_benign(&self) -> bool {
        self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.delay_prob == 0.0
            && self.corrupt_prob == 0.0
            && self.stall_prob == 0.0
            && self.starvation_prob == 0.0
            && self.down_links.is_empty()
            && self.panic_worker.is_none()
    }

    /// Checks every probability lies in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("delay_prob", self.delay_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("stall_prob", self.stall_prob),
            ("starvation_prob", self.starvation_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} = {p} is outside [0, 1]"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_arms_each_class() {
        let plan = FaultPlan::seeded(7)
            .drops(0.1)
            .duplicates(0.2)
            .delays(0.3, 500)
            .corruptions(0.05)
            .stalls(0.01, 1_000)
            .starvation(0.02, 2_000)
            .link_down(1, 5)
            .worker_panic(3, 0);
        assert!(!plan.is_benign());
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.down_links, vec![(1, 5)]);
        assert_eq!(
            plan.panic_worker,
            Some(PanicSpec {
                cluster: 3,
                step: 0
            })
        );
        plan.validate().unwrap();
    }

    #[test]
    fn empty_plan_is_benign_and_valid() {
        let plan = FaultPlan::seeded(0);
        assert!(plan.is_benign());
        plan.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_probability() {
        assert!(FaultPlan::seeded(1).drops(1.5).validate().is_err());
        assert!(FaultPlan::seeded(1).corruptions(-0.1).validate().is_err());
    }
}
