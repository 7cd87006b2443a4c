//! What the benchmark knows about the host it runs on: a reference
//! computation that tracks the host's speed from moment to moment, a
//! fixed integer spin, peak memory, and build provenance.
//!
//! Why a reference computation: this sandbox shares its cores and
//! caches with other tenants, and the same binary serving the same
//! stream measured 52k, 70k, 112k and 135k queries/s in regimes that
//! last from a fraction of a second to minutes — longer than a run, so
//! no estimator inside one run repeats. A fixed computation owned by
//! the benchmark (it calls nothing under `crates/`), run between the
//! slices of the measured loop, slows down and speeds up with the host
//! in the same direction. The measured loops lean less on the shared
//! cache than the reference does (across 80 runs a loop's rate moved
//! as the reference rate to the power 0.56 to 1.29, by workload), so a
//! slice's value is corrected by the reference rate beside it to the
//! power [`REF_GAMMA`], and the run reports the quiet decile of the
//! corrected slices. That repeats to a few percent where the raw
//! number moves by a factor of two. `norm_*` metrics are scaled by
//! [`REF_NOMINAL_PER_S`] so they read like raw numbers on a quiet host.

use crate::gen::Rng;
use std::time::Instant;

/// Reference queries per second on this sandbox when it is quiet. A
/// pure scale factor: it sets the level `norm_*` metrics read at, never
/// their ratio between two runs.
pub const REF_NOMINAL_PER_S: f64 = 1_800_000.0;

/// How strongly a slice is corrected for the host's speed: a slice
/// measured while the reference ran at `r` is scaled by
/// `(REF_NOMINAL_PER_S / r)^REF_GAMMA`. Full correction (1.0) overshoots
/// for the serving loops and is right for the simulator; 0.75 held the
/// run-to-run spread of both below 4 % on 36 same-seed runs each.
pub const REF_GAMMA: f64 = 0.75;

const REF_NODES: usize = 12_000;
/// f32 slots of scratch per node: 12 MB in all, so the reference leans
/// on the shared cache levels the way the serving state does.
const REF_PAD: usize = 256;
const REF_SEED: u64 = 0x5AA9_1991;

/// The reference computation: best-first marker spreading up a fixed
/// synthetic taxonomy, with a wide scratch write per arrival.
pub struct HostRef {
    off: Vec<u32>,
    dst: Vec<u32>,
    weight: Vec<f32>,
    stamp: Vec<u32>,
    best: Vec<f32>,
    pad: Vec<f32>,
    queue: Vec<u32>,
    gen: u32,
    next_seed: Rng,
    /// Expansions performed by all reference queries (kept so the
    /// optimiser cannot drop the walk, and so a test can hold two
    /// instances to the same work).
    pub expansions: u64,
}

impl Default for HostRef {
    fn default() -> Self {
        Self::new()
    }
}

impl HostRef {
    /// Builds the fixed reference graph: every node links to its parent
    /// in a ternary tree and, one node in three, to a second ancestor
    /// chosen by a fixed-seed draw. The same graph and the same query
    /// sequence in every run of every commit.
    pub fn new() -> Self {
        let mut rng = Rng::new(REF_SEED);
        let mut off = Vec::with_capacity(REF_NODES + 1);
        let mut dst = Vec::new();
        let mut weight = Vec::new();
        off.push(0);
        for i in 0..REF_NODES {
            if i > 0 {
                dst.push(((i - 1) / 3) as u32);
                weight.push(1.0);
                if i > 3 && rng.below(3) == 0 {
                    dst.push(rng.below(i / 3) as u32);
                    weight.push(1.5);
                }
            }
            off.push(dst.len() as u32);
        }
        HostRef {
            off,
            dst,
            weight,
            stamp: vec![0; REF_NODES],
            best: vec![0.0; REF_NODES],
            pad: vec![0.0; REF_NODES * REF_PAD],
            queue: Vec::with_capacity(REF_NODES),
            gen: 0,
            next_seed: Rng::new(REF_SEED ^ 0xFFFF),
            expansions: 0,
        }
    }

    #[inline(never)]
    fn query(&mut self, seed: u32) -> u64 {
        self.gen = self.gen.wrapping_add(1);
        let lane = self.gen as usize % REF_PAD;
        self.queue.clear();
        self.queue.push(seed);
        self.stamp[seed as usize] = self.gen;
        self.best[seed as usize] = 0.0;
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head] as usize;
            head += 1;
            let v = self.best[u];
            for e in self.off[u] as usize..self.off[u + 1] as usize {
                let d = self.dst[e] as usize;
                let nv = v + self.weight[e];
                self.pad[d * REF_PAD + lane] += nv;
                if self.stamp[d] != self.gen {
                    self.stamp[d] = self.gen;
                    self.best[d] = nv;
                    self.queue.push(d as u32);
                } else if nv < self.best[d] {
                    self.best[d] = nv;
                    self.queue.push(d as u32);
                }
            }
        }
        head as u64
    }

    /// Runs `queries` reference queries and returns their rate per
    /// second — the host's speed right now, in reference units. A
    /// quarter as many run untimed first, so the rate says how fast the
    /// host is, not how much of the scratch the measured loop evicted.
    pub fn slice(&mut self, queries: usize) -> f64 {
        for _ in 0..queries / 4 {
            let seed = (REF_NODES / 2 + self.next_seed.below(REF_NODES / 2)) as u32;
            self.expansions += self.query(seed);
        }
        let t = Instant::now();
        for _ in 0..queries {
            // Leaves of the tree, so every query climbs the full depth.
            let seed = (REF_NODES / 2 + self.next_seed.below(REF_NODES / 2)) as u32;
            self.expansions += self.query(seed);
        }
        let ns = t.elapsed().as_nanos().max(1) as f64;
        queries as f64 * 1e9 / ns
    }
}

/// Reference queries per slice in the saturated loops (about 1.3 ms).
pub const REF_SLICE: usize = 1_024;

/// Scales a raw rate measured beside reference rate `ref_rate` to the
/// nominal host.
pub fn norm_rate(rate: f64, ref_rate: f64) -> f64 {
    rate * (REF_NOMINAL_PER_S / ref_rate).powf(REF_GAMMA)
}

/// Scales a raw duration measured beside reference rate `ref_rate` to
/// the nominal host.
pub fn norm_time(time: f64, ref_rate: f64) -> f64 {
    time * (ref_rate / REF_NOMINAL_PER_S).powf(REF_GAMMA)
}

/// A fixed dependent integer chain, timed: `host.calib_ns`. It runs
/// from registers, so it moves with the core's clock and with nothing
/// else; two calibrations that disagree say the run was disturbed.
pub fn calib_ns() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let mut x: u64 = 0x1234_5678;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13) ^ i);
        }
        std::hint::black_box(x);
        best = best.min(t.elapsed().as_nanos() as f64);
    }
    best
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where and how this binary was built and is running; written into
/// every run record.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `available_parallelism` of the host.
    pub host_cpus: usize,
    /// `rustc --version` at build time.
    pub rustc: &'static str,
    /// Cargo profile plus the settings that change speed.
    pub profile: &'static str,
    /// The commit `HEAD` names, or `unknown` outside a repository.
    pub commit: String,
}

impl Provenance {
    /// Collects the provenance of this process.
    pub fn collect() -> Self {
        let commit = head_commit().unwrap_or_else(|| "unknown".into());
        Provenance {
            host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("SNAP_RUSTC_VERSION"),
            profile: concat!(env!("SNAP_BUILD_PROFILE"), "+fat-lto+cgu1"),
            commit,
        }
    }
}

/// The commit checked out in the repository this package sits in, read
/// from `.git` directly: the benchmark starts no process and reads
/// nothing above its checkout.
fn head_commit() -> Option<String> {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let git = std::path::Path::new(&manifest).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(git.join(name)) {
            Ok(hash) => hash.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|hash| hash.trim().to_string()))?,
        },
    };
    (hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()))
        .then(|| hash[..12].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_identical_across_instances() {
        let mut a = HostRef::new();
        let mut b = HostRef::new();
        a.slice(500);
        b.slice(500);
        assert_eq!(a.expansions, b.expansions);
        assert!(a.expansions > 500 * 8, "queries climb the whole tree");
    }

    #[test]
    fn normalisation_scales_by_the_reference_rate_to_gamma() {
        assert_eq!(norm_rate(100.0, REF_NOMINAL_PER_S), 100.0);
        let half = REF_NOMINAL_PER_S / 2.0;
        let scale = 2f64.powf(REF_GAMMA);
        assert!((norm_rate(100.0, half) - 100.0 * scale).abs() < 1e-9);
        assert!((norm_time(10.0, half) - 10.0 / scale).abs() < 1e-9);
        // A rate and the matching duration stay reciprocal.
        assert!((norm_rate(4.0, half) * norm_time(0.25, half) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 1.0);
    }
}
