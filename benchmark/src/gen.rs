//! Input generators. Every random draw comes from one [`Rng`] seeded by
//! the `--seed` argument, so a seed names its inputs exactly; the
//! system under test receives only the generated programs.

use snap_isa::{Program, PropRule, StepFunc};
use snap_kb::{Color, Marker, NodeId, RelationType};
use snap_nlu::kb::rel;

/// SplitMix64: small, seedable, and good enough for traffic draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Sampler of Zipf(`s`) ranks over `0..n`; rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Zipf over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// One of the three query shapes the serve workloads offer. The shape
/// decides what coalesces (same shape fuses; same shape and node is
/// bit-identical and shares a lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Shape {
    /// The parse query: `Spread(IS_A, ELEM_OF)`, `AddWeight`, from a noun.
    Parse,
    /// `Star(IS_A)` from a noun into `complex(3)`.
    Climb,
    /// `Star(SUBSUMES)` downward from a category, binary markers.
    Descend,
}

impl Shape {
    /// The propagation rule of this shape.
    pub fn rule(self) -> PropRule {
        match self {
            Shape::Parse => PropRule::Spread(rel::IS_A, rel::ELEM_OF),
            Shape::Climb => PropRule::Star(rel::IS_A),
            Shape::Descend => PropRule::Star(rel::SUBSUMES),
        }
    }

    /// The step function of this shape.
    pub fn func(self) -> StepFunc {
        match self {
            Shape::Parse | Shape::Climb => StepFunc::AddWeight,
            Shape::Descend => StepFunc::Identity,
        }
    }

    /// The marker the propagation writes and the collect reads.
    pub fn target(self) -> Marker {
        match self {
            Shape::Parse => Marker::complex(2),
            Shape::Climb => Marker::complex(3),
            Shape::Descend => Marker::binary(2),
        }
    }

    /// Builds the program of this shape seeded at `node`.
    pub fn program(self, node: NodeId) -> Program {
        Program::builder()
            .search_node(node, Marker::binary(1), 0.0)
            .propagate(Marker::binary(1), self.target(), self.rule(), self.func())
            .collect_marker(self.target())
            .build()
    }
}

/// The `engine-wave` query: mark every node, one `Star` wave over the
/// only relation of the synthetic network, collect.
pub fn wave_program() -> Program {
    Program::builder()
        .search_color(Color(0), Marker::binary(1), 0.0)
        .propagate(
            Marker::binary(1),
            Marker::complex(2),
            PropRule::Star(RelationType(0)),
            StepFunc::AddWeight,
        )
        .collect_marker(Marker::complex(2))
        .build()
}

/// A query of the pool: its shape and seed node (what the probes need
/// to replay it below the serving layer) and the pre-built program.
#[derive(Debug, Clone)]
pub struct Query {
    /// Shape of the program.
    pub shape: Shape,
    /// Node the search instruction names.
    pub node: NodeId,
    /// The program, built once during set-up and cloned per offer.
    pub program: Program,
}

impl Query {
    /// Builds the query of `shape` at `node`.
    pub fn new(shape: Shape, node: NodeId) -> Self {
        Query {
            shape,
            node,
            program: shape.program(node),
        }
    }
}

/// Length of every generated stream; loops cycle through it.
pub const STREAM_LEN: usize = 1 << 16;

/// Indices into a query pool, in offer order.
pub type Stream = Vec<u32>;

/// `serve-distinct` / `solo-shared`: uniform draws over `pool` queries.
pub fn uniform_stream(pool: usize, seed: u64) -> Stream {
    let mut rng = Rng::new(seed);
    (0..STREAM_LEN).map(|_| rng.below(pool) as u32).collect()
}

/// Exponent of the `serve-hot` popularity distribution.
pub const ZIPF_S: f64 = 1.2;

/// Hot set size of `serve-hot`.
pub const HOT_SEEDS: usize = 32;

/// `serve-hot`: picks [`HOT_SEEDS`] distinct pool entries, then draws
/// Zipf([`ZIPF_S`]) ranks over them.
pub fn hot_stream(pool: usize, seed: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let mut hot: Vec<u32> = Vec::with_capacity(HOT_SEEDS);
    while hot.len() < HOT_SEEDS.min(pool) {
        let pick = rng.below(pool) as u32;
        if !hot.contains(&pick) {
            hot.push(pick);
        }
    }
    let zipf = Zipf::new(hot.len(), ZIPF_S);
    (0..STREAM_LEN)
        .map(|_| hot[zipf.sample(&mut rng)])
        .collect()
}

/// Share of `serve-open-mixed` traffic per shape, in percent.
pub const MIX_PERCENT: [(Shape, usize); 3] =
    [(Shape::Parse, 60), (Shape::Climb, 30), (Shape::Descend, 10)];

/// `serve-open-mixed`: a pool laid out as `nouns` parse queries, then
/// `nouns` climb queries, then `categories` descend queries; each draw
/// first picks the shape 60/30/10, then a uniform seed of that shape.
pub fn mixed_stream(nouns: usize, categories: usize, seed: u64) -> Stream {
    let mut rng = Rng::new(seed);
    (0..STREAM_LEN)
        .map(|_| {
            let p = rng.below(100);
            let idx = if p < MIX_PERCENT[0].1 {
                rng.below(nouns)
            } else if p < MIX_PERCENT[0].1 + MIX_PERCENT[1].1 {
                nouns + rng.below(nouns)
            } else {
                2 * nouns + rng.below(categories)
            };
            idx as u32
        })
        .collect()
}

/// An open-loop arrival schedule: when query `i` is due, in ns from the
/// phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `size` queries due at the same instant every `period_ns` — a
    /// sentence's word hypotheses arriving together.
    Burst {
        /// Queries per burst.
        size: u64,
        /// Time between bursts.
        period_ns: u64,
    },
    /// One query every `interval_ns`.
    Even {
        /// Time between consecutive queries.
        interval_ns: u64,
    },
}

impl Schedule {
    /// The burst phase: 32 queries every 2 ms (16k qps).
    pub const BURST: Schedule = Schedule::Burst {
        size: 32,
        period_ns: 2_000_000,
    };

    /// The overload phase: 200k qps, evenly spaced.
    pub const OVERLOAD: Schedule = Schedule::Even { interval_ns: 5_000 };

    /// Evenly spaced arrivals at `qps`.
    pub fn even(qps: u64) -> Self {
        Schedule::Even {
            interval_ns: 1_000_000_000 / qps,
        }
    }

    /// Due time of arrival `i`.
    pub fn due_ns(self, i: u64) -> u64 {
        match self {
            Schedule::Burst { size, period_ns } => i / size * period_ns,
            Schedule::Even { interval_ns } => i * interval_ns,
        }
    }

    /// Arrivals due strictly before `duration_ns`.
    pub fn arrivals_in(self, duration_ns: u64) -> u64 {
        match self {
            Schedule::Burst { size, period_ns } => duration_ns.div_ceil(period_ns) * size,
            Schedule::Even { interval_ns } => duration_ns.div_ceil(interval_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the debug rendering of the program sequence a stream
    /// offers: two runs offer the same programs in the same order exactly
    /// when their hashes agree.
    fn sequence_hash(pool: &[Query], stream: &[u32]) -> u64 {
        let rendered: Vec<String> = pool.iter().map(|q| format!("{:?}", q.program)).collect();
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &i in stream {
            for b in rendered[i as usize].bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    fn pool(nouns: usize, categories: usize) -> Vec<Query> {
        let mut p = Vec::new();
        for n in 0..nouns {
            p.push(Query::new(Shape::Parse, NodeId(n as u32)));
        }
        for n in 0..nouns {
            p.push(Query::new(Shape::Climb, NodeId(n as u32)));
        }
        for c in 0..categories {
            p.push(Query::new(Shape::Descend, NodeId(10_000 + c as u32)));
        }
        p
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let p = pool(200, 50);
        for make in [
            |s| uniform_stream(200, s),
            |s| hot_stream(200, s),
            |s| mixed_stream(200, 50, s),
        ] {
            let a = sequence_hash(&p, &make(7));
            assert_eq!(a, sequence_hash(&p, &make(7)), "same seed, same programs");
            assert_ne!(a, sequence_hash(&p, &make(8)), "another seed differs");
        }
    }

    #[test]
    fn uniform_stream_covers_the_pool_evenly() {
        let s = uniform_stream(1_320, 1);
        assert_eq!(s.len(), STREAM_LEN);
        let mut counts = vec![0usize; 1_320];
        for &i in &s {
            counts[i as usize] += 1;
        }
        let mean = STREAM_LEN as f64 / 1_320.0;
        assert!(counts.iter().all(|&c| c > 0), "every noun is drawn");
        let worst = counts
            .iter()
            .map(|&c| (c as f64 - mean).abs())
            .fold(0.0, f64::max);
        assert!(worst < mean, "no seed is drawn at twice the mean rate");
    }

    #[test]
    fn hot_stream_is_zipf_over_32_seeds() {
        let s = hot_stream(1_320, 3);
        let mut counts = std::collections::HashMap::new();
        for &i in &s {
            *counts.entry(i).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), HOT_SEEDS);
        let mut by_rank: Vec<usize> = counts.into_values().collect();
        by_rank.sort_unstable_by(|a, b| b.cmp(a));
        // Zipf(1.2) over 32 ranks: P(rank 0) = 1 / H(32, 1.2) = 0.335,
        // and rank 0 is 2^1.2 = 2.30x rank 1.
        let top = by_rank[0] as f64 / STREAM_LEN as f64;
        assert!((top - 0.335).abs() < 0.01, "top share {top}");
        let ratio = by_rank[0] as f64 / by_rank[1] as f64;
        assert!((ratio - 2.30).abs() < 0.1, "rank0/rank1 {ratio}");
    }

    #[test]
    fn mixed_stream_holds_the_60_30_10_shape_mix() {
        let (nouns, cats) = (1_320, 500);
        let s = mixed_stream(nouns, cats, 5);
        let share = |lo: usize, hi: usize| {
            s.iter()
                .filter(|&&i| (lo..hi).contains(&(i as usize)))
                .count() as f64
                / STREAM_LEN as f64
        };
        assert!((share(0, nouns) - 0.60).abs() < 0.01);
        assert!((share(nouns, 2 * nouns) - 0.30).abs() < 0.01);
        assert!((share(2 * nouns, 2 * nouns + cats) - 0.10).abs() < 0.01);
    }

    #[test]
    fn burst_schedule_is_32_at_once_every_2_ms() {
        let b = Schedule::BURST;
        assert_eq!(b.due_ns(0), 0);
        assert_eq!(b.due_ns(31), 0);
        assert_eq!(b.due_ns(32), 2_000_000);
        assert_eq!(b.due_ns(95), 4_000_000);
        assert_eq!(b.arrivals_in(1_000_000_000), 16_000);
        assert_eq!(b.arrivals_in(1), 32, "the burst at t=0 is due");
    }

    #[test]
    fn overload_schedule_is_200k_evenly_spaced() {
        let o = Schedule::OVERLOAD;
        assert_eq!(o.due_ns(1) - o.due_ns(0), 5_000);
        assert_eq!(o.arrivals_in(1_000_000_000), 200_000);
        assert_eq!(Schedule::even(40_000).due_ns(4), 100_000);
    }

    #[test]
    fn shapes_build_distinct_programs() {
        let a = Shape::Parse.program(NodeId(1));
        let b = Shape::Climb.program(NodeId(1));
        let c = Shape::Descend.program(NodeId(1));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, Shape::Parse.program(NodeId(1)));
        assert_ne!(a, Shape::Parse.program(NodeId(2)));
    }
}
