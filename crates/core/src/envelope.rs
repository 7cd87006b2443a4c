//! Checksummed message envelopes and duplicate suppression.

use std::collections::HashSet;

/// SplitMix64's increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Finalizer from SplitMix64: a cheap, well-mixed 64-bit hash used for
/// checksums and injection decisions throughout the crate.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of a SplitMix64 stream at `state`: the seedable generator
/// behind the schedule fuzzer's decisions and the fabric's reorder hook.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    let z = mix64(*state);
    *state = state.wrapping_add(GAMMA);
    z
}

/// Payloads that can be summarized into a 64-bit digest for envelope
/// checksums. The digest must cover every field that affects execution.
pub(crate) trait Fingerprint {
    /// Stable digest of the payload's contents.
    fn fingerprint(&self) -> u64;
}

/// Payloads the injector knows how to damage in flight. `salt` is the
/// injection decision hash, so corruption is deterministic per plan.
pub(crate) trait Corruptible {
    /// Flips some execution-relevant part of the payload.
    fn corrupt(&mut self, salt: u64);
}

/// A batch fingerprints as an order-sensitive chain over its elements,
/// so reordering, dropping, or editing any member changes the digest —
/// one checksum covers the whole coalesced envelope.
impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fingerprint(&self) -> u64 {
        let mut acc = mix64(self.len() as u64);
        for item in self {
            acc = mix64(acc ^ item.fingerprint());
        }
        acc
    }
}

/// In-flight corruption of a batch damages one salt-chosen element —
/// enough to invalidate the batch checksum whatever the contents.
impl<T: Corruptible> Corruptible for Vec<T> {
    fn corrupt(&mut self, salt: u64) {
        if self.is_empty() {
            return;
        }
        let idx = (salt as usize) % self.len();
        self[idx].corrupt(salt);
    }
}

/// A sequence-numbered, checksummed wrapper around one marker message.
///
/// The threaded engine sends every off-cluster marker inside an
/// envelope: `(from, seq)` keys acks and duplicate suppression, `epoch`
/// fences off traffic from before a cluster recovery, and `checksum`
/// (sealed over epoch, route, sequence, and payload fingerprint) lets
/// receivers detect in-flight corruption and discard the packet — the
/// sender's retry path then re-delivers the original.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Envelope<T> {
    /// Recovery epoch the sender was in; stale epochs are discarded.
    pub epoch: u32,
    /// Sending cluster.
    pub from: u8,
    /// Per-sender, per-phase sequence number.
    pub seq: u64,
    /// The wrapped marker payload.
    pub payload: T,
    checksum: u64,
}

impl<T: Fingerprint> Envelope<T> {
    /// Seals `payload` with a checksum over all routing fields.
    pub(crate) fn seal(epoch: u32, from: u8, seq: u64, payload: T) -> Self {
        let checksum = Self::digest(epoch, from, seq, &payload);
        Envelope {
            epoch,
            from,
            seq,
            payload,
            checksum,
        }
    }

    /// `true` when the checksum still matches the payload — i.e. the
    /// envelope was not corrupted after sealing.
    pub(crate) fn is_intact(&self) -> bool {
        self.checksum == Self::digest(self.epoch, self.from, self.seq, &self.payload)
    }

    /// The `(sender, sequence)` key used for acks and deduplication.
    pub(crate) fn key(&self) -> (u8, u64) {
        (self.from, self.seq)
    }

    /// The checksum receivers echo back in acks, so a corrupted ack
    /// cannot falsely acknowledge a different payload.
    pub(crate) fn checksum(&self) -> u64 {
        self.checksum
    }

    fn digest(epoch: u32, from: u8, seq: u64, payload: &T) -> u64 {
        mix64(
            payload
                .fingerprint()
                .wrapping_add(mix64(u64::from(epoch)))
                .wrapping_add(mix64(u64::from(from) | (seq << 8))),
        )
    }
}

impl<T: Corruptible> Envelope<T> {
    /// Damages the payload *without* resealing, modeling in-flight bit
    /// corruption: [`Envelope::is_intact`] turns false at the receiver.
    pub(crate) fn corrupt_in_flight(&mut self, salt: u64) {
        self.payload.corrupt(salt);
    }
}

/// Duplicate suppression over `(sender, seq)` keys.
///
/// Receivers insert every arriving envelope's key; a second arrival of
/// the same key (an injected duplicate, or a retry racing its ack) is
/// reported stale so its markers are not double-counted.
#[derive(Debug, Default)]
pub(crate) struct DedupTable {
    seen: HashSet<(u8, u64)>,
}

impl DedupTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        DedupTable::default()
    }

    /// Records `key`; returns `true` the first time it is seen.
    pub(crate) fn insert(&mut self, key: (u8, u64)) -> bool {
        self.seen.insert(key)
    }

    /// Forgets everything (called at phase boundaries, where sequence
    /// numbers restart).
    pub(crate) fn clear(&mut self) {
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Probe(u64);

    impl Fingerprint for Probe {
        fn fingerprint(&self) -> u64 {
            self.0
        }
    }

    impl Corruptible for Probe {
        fn corrupt(&mut self, salt: u64) {
            self.0 ^= salt | 1;
        }
    }

    #[test]
    fn sealed_envelope_is_intact() {
        let env = Envelope::seal(0, 3, 17, Probe(99));
        assert!(env.is_intact());
        assert_eq!(env.key(), (3, 17));
    }

    #[test]
    fn corruption_is_detected() {
        let mut env = Envelope::seal(1, 2, 5, Probe(42));
        env.corrupt_in_flight(0xDEAD);
        assert!(!env.is_intact());
    }

    #[test]
    fn checksum_binds_routing_fields() {
        let a = Envelope::seal(0, 1, 1, Probe(7));
        let b = Envelope::seal(0, 1, 2, Probe(7));
        let c = Envelope::seal(1, 1, 1, Probe(7));
        assert_ne!(a.checksum(), b.checksum());
        assert_ne!(a.checksum(), c.checksum());
    }

    #[test]
    fn dedup_reports_repeats() {
        let mut table = DedupTable::new();
        assert!(table.insert((0, 1)));
        assert!(!table.insert((0, 1)));
        assert!(table.insert((1, 1)));
        table.clear();
        assert!(table.insert((0, 1)));
    }

    #[test]
    fn batch_fingerprint_is_order_and_content_sensitive() {
        let a = vec![Probe(1), Probe(2)].fingerprint();
        let b = vec![Probe(2), Probe(1)].fingerprint();
        let c = vec![Probe(1), Probe(2), Probe(3)].fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, vec![Probe(1), Probe(2)].fingerprint());
    }

    #[test]
    fn corrupted_batch_envelope_is_detected() {
        let mut env = Envelope::seal(0, 1, 9, vec![Probe(5), Probe(6), Probe(7)]);
        assert!(env.is_intact());
        env.corrupt_in_flight(0xBEEF);
        assert!(!env.is_intact());
    }

    #[test]
    fn mix64_is_stable_and_spreading() {
        assert_eq!(mix64(0), mix64(0));
        let outputs: HashSet<u64> = (0..1000).map(mix64).collect();
        assert_eq!(outputs.len(), 1000);
    }
}
