//! Runner configuration and per-test RNG derivation.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runner knobs, mirroring `proptest::test_runner::Config`. Only
/// `cases` is honored by the shim; like the real crate, its default
/// reads the `PROPTEST_CASES` environment variable.
#[derive(Debug, Clone)]
#[allow(clippy::exhaustive_structs)]
pub struct ProptestConfig {
    /// Number of sampled cases each property runs.
    pub cases: u32,
    /// Accepted for API compatibility; the shim does not shrink.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|cases| cases.parse().ok())
                .unwrap_or(64),
            max_shrink_iters: 1024,
        }
    }
}

/// Derives a deterministic RNG from a test's name, so a failing case
/// reproduces on rerun without a persistence file.
pub fn rng_for_test(name: &str) -> StdRng {
    // FNV-1a over the name.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(hash)
}
