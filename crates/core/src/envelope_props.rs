//! Property tests for the resilience primitives: envelope checksums
//! must round-trip for every routing tuple, detect every in-flight
//! corruption, and the dedup table must suppress duplicates so a
//! retry storm can never double-apply a payload.

use crate::envelope::{Corruptible, DedupTable, Envelope, Fingerprint};
use proptest::prelude::*;

/// A stand-in marker payload: the fingerprint covers the whole value,
/// as the engine's `PropTask` fingerprint covers every routed field.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Payload(u64);

impl Fingerprint for Payload {
    fn fingerprint(&self) -> u64 {
        self.0
    }
}

impl Corruptible for Payload {
    fn corrupt(&mut self, salt: u64) {
        // `| 1` guarantees at least one bit flips even for salt 0,
        // matching the engine's NetMsg corruption.
        self.0 ^= salt | 1;
    }
}

proptest! {
    /// Sealing never produces an envelope that fails its own check, for
    /// any epoch/route/sequence/payload combination.
    #[test]
    fn sealed_envelopes_verify(
        epoch in proptest::prelude::any::<u32>(),
        from in proptest::prelude::any::<u8>(),
        seq in proptest::prelude::any::<u64>(),
        value in proptest::prelude::any::<u64>(),
    ) {
        let env = Envelope::seal(epoch, from, seq, Payload(value));
        prop_assert!(env.is_intact());
        prop_assert_eq!(env.key(), (from, seq));
        // Resealing the same tuple reproduces the same checksum.
        let again = Envelope::seal(epoch, from, seq, Payload(value));
        prop_assert_eq!(env.checksum(), again.checksum());
    }

    /// Any in-flight payload corruption — any salt — is detected at the
    /// receiver. The corruption always flips at least one payload bit,
    /// and the digest is bijective in the fingerprint, so a damaged
    /// payload can never masquerade as intact.
    #[test]
    fn corruption_is_always_detected(
        epoch in proptest::prelude::any::<u32>(),
        from in proptest::prelude::any::<u8>(),
        seq in proptest::prelude::any::<u64>(),
        value in proptest::prelude::any::<u64>(),
        salt in proptest::prelude::any::<u64>(),
    ) {
        let mut env = Envelope::seal(epoch, from, seq, Payload(value));
        env.corrupt_in_flight(salt);
        prop_assert!(!env.is_intact());
    }

    /// The checksum binds the routing fields: altering epoch, sender, or
    /// sequence yields a different checksum, so an ack echoing the
    /// checksum can never acknowledge a different envelope.
    #[test]
    fn checksum_binds_routing(
        epoch in 0u32..1000,
        from in 0u8..32,
        seq in 0u64..10_000,
        value in proptest::prelude::any::<u64>(),
    ) {
        let base = Envelope::seal(epoch, from, seq, Payload(value));
        let bumped_seq = Envelope::seal(epoch, from, seq + 1, Payload(value));
        let bumped_epoch = Envelope::seal(epoch + 1, from, seq, Payload(value));
        let bumped_from = Envelope::seal(epoch, from + 1, seq, Payload(value));
        prop_assert_ne!(base.checksum(), bumped_seq.checksum());
        prop_assert_ne!(base.checksum(), bumped_epoch.checksum());
        prop_assert_ne!(base.checksum(), bumped_from.checksum());
    }

    /// Duplicate suppression: for an arbitrary arrival stream (including
    /// repeats, modeling retries racing their acks and injected
    /// duplicates), each distinct `(sender, seq)` key is applied exactly
    /// once, so the summed applied value equals the sum over distinct
    /// keys — never more.
    #[test]
    fn dedup_never_double_applies(
        arrivals in proptest::collection::vec((0u8..4, 0u64..16), 0..200),
    ) {
        let mut table = DedupTable::new();
        let mut applied: u64 = 0;
        let mut applied_keys: Vec<(u8, u64)> = Vec::new();
        for &(from, seq) in &arrivals {
            let env = Envelope::seal(0, from, seq, Payload(u64::from(from) * 1000 + seq));
            if table.insert(env.key()) {
                applied += env.payload.0;
                applied_keys.push(env.key());
            }
        }
        // Exactly the distinct keys, each once.
        let mut distinct: Vec<(u8, u64)> = arrivals.clone();
        distinct.sort_unstable();
        distinct.dedup();
        applied_keys.sort_unstable();
        prop_assert_eq!(&applied_keys, &distinct);
        let expected: u64 = distinct
            .iter()
            .map(|&(f, s)| u64::from(f) * 1000 + s)
            .sum();
        prop_assert_eq!(applied, expected);
        // Phase boundary: clearing re-admits every key once.
        table.clear();
        for &(from, seq) in &distinct {
            prop_assert!(table.insert((from, seq)));
        }
    }
}
