//! Property tests for the threaded tiered barrier: under any arrival
//! order — any interleaving of creations, consumptions, and busy
//! transitions, at any levels including the saturating deep tiers —
//! the barrier must never report completion while work is outstanding,
//! and must always report completion once everything drains.
//!
//! The deep-level cases are the regression guard for the tier
//! saturation fix: tokens created at levels at or beyond `MAX_LEVELS`
//! share the top tier, and creations must balance consumptions there
//! regardless of the exact (saturated) level values used on each side.

use super::model::MAX_LEVELS;
use super::TieredBarrier;
use crate::obs::Tracer;
use proptest::prelude::*;

/// Deterministically interleaves consumptions among later creations:
/// `ops[i] = (level, delay)` creates a token at `level` and schedules
/// its consumption `delay` operations later (capped at the end). This
/// covers in-order, out-of-order, and fully-deferred drains without
/// needing a shuffle combinator.
fn run_schedule(barrier: &TieredBarrier, ops: &[(u8, u8)]) {
    let mut due: Vec<Vec<u8>> = vec![Vec::new(); ops.len() + 1];
    for (i, &(level, delay)) in ops.iter().enumerate() {
        barrier.created(level);
        assert!(
            !barrier.is_complete(),
            "complete with token outstanding at op {i}"
        );
        let slot = (i + 1 + delay as usize).min(ops.len());
        due[slot].push(level);
        for level in due[i + 1].drain(..) {
            barrier.consumed(level);
        }
    }
    // Drain everything scheduled past the end.
    for slot in due.iter_mut() {
        for level in slot.drain(..) {
            barrier.consumed(level);
        }
    }
}

proptest! {
    /// For any creation levels and any drain order the counters balance:
    /// in-flight tracks outstanding tokens exactly, completion holds
    /// precisely when everything is drained, and deep levels saturate
    /// into the top tier without losing tokens.
    #[test]
    fn any_arrival_order_drains_to_completion(
        ops in proptest::collection::vec((0u8..=255, 0u8..32), 1..120),
    ) {
        let barrier = TieredBarrier::with_instruments(None, Tracer::default());
        run_schedule(&barrier, &ops);
        prop_assert!(barrier.is_complete());
        prop_assert_eq!(barrier.in_flight(), 0);
    }

    /// Saturation symmetry: a token created at one deep level may be
    /// consumed under any other deep level (both clamp to the top tier),
    /// which is exactly what the engine's `min(63)` clamping relies on.
    #[test]
    fn deep_levels_share_the_top_tier(
        create_levels in proptest::collection::vec(
            (MAX_LEVELS as u8)..=255, 1..40),
        consume_levels in proptest::collection::vec(
            (MAX_LEVELS as u8)..=255, 1..40),
    ) {
        let barrier = TieredBarrier::with_instruments(None, Tracer::default());
        let n = create_levels.len().min(consume_levels.len());
        for &l in &create_levels[..n] {
            barrier.created(l);
        }
        prop_assert_eq!(barrier.in_flight(), n as i64);
        for &l in &consume_levels[..n] {
            barrier.consumed(l);
        }
        prop_assert!(barrier.is_complete());
        prop_assert_eq!(barrier.in_flight(), 0);
    }

    /// Busy PEs gate completion independently of the counters: the
    /// barrier is complete only when both every token is drained and
    /// every PE has gone idle, in any interleaving.
    #[test]
    fn busy_pes_block_completion(
        tokens in proptest::collection::vec(0u8..=255, 0..20),
        busy in 1usize..8,
    ) {
        let barrier = TieredBarrier::with_instruments(None, Tracer::default());
        for _ in 0..busy {
            barrier.enter_busy();
        }
        for &l in &tokens {
            barrier.created(l);
        }
        for &l in &tokens {
            barrier.consumed(l);
        }
        // Counters drained, PEs still busy: not complete.
        prop_assert!(!barrier.is_complete());
        prop_assert_eq!(barrier.busy_pes(), busy);
        for i in 0..busy {
            prop_assert!(!barrier.is_complete(), "complete with {} busy", busy - i);
            barrier.exit_busy();
        }
        prop_assert!(barrier.is_complete());
    }

    /// Reset abandons any outstanding accounting (the recovery path):
    /// whatever was in flight, a reset barrier is immediately complete
    /// and usable for the replayed phase.
    #[test]
    fn reset_recovers_from_any_state(
        ops in proptest::collection::vec((0u8..=255, 0u8..16), 0..60),
        busy in 0usize..4,
        replay in proptest::collection::vec(0u8..=255, 0..20),
    ) {
        let barrier = TieredBarrier::with_instruments(None, Tracer::default());
        for _ in 0..busy {
            barrier.enter_busy();
        }
        // Create everything, consume only every other token: a mess.
        for (i, &(level, _)) in ops.iter().enumerate() {
            barrier.created(level);
            if i % 2 == 0 {
                barrier.consumed(level);
            }
        }
        barrier.reset();
        prop_assert!(barrier.is_complete());
        prop_assert_eq!(barrier.in_flight(), 0);
        // The replayed phase balances on the reset barrier.
        for &l in &replay {
            barrier.created(l);
        }
        for &l in &replay {
            barrier.consumed(l);
        }
        prop_assert!(barrier.is_complete());
    }
}
