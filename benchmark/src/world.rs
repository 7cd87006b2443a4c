//! Set-up: everything a run needs before its first measured operation,
//! built through the same public constructors a user calls, and the
//! memoised oracle the outputs are checked against.

use crate::gen::{self, Query, Shape, Stream};
use snap_core::{EngineKind, RunReport, Snap1};
use snap_isa::Program;
use snap_kb::{synth, NodeId, PartitionScheme, SemanticNetwork};
use snap_nlu::{
    DomainSpec, LinguisticKb, MemoryBasedParser, PartOfSpeech, Sentence, SentenceGenerator,
};
use snap_serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// Nodes of the parse knowledge base (the paper's evaluation size).
pub const PARSE_KB_NODES: usize = 12_000;

/// Nodes and attachments of the `engine-wave` network.
pub const WAVE_NODES: usize = 20_000;
/// Links each new node of the `engine-wave` network attaches with.
pub const WAVE_ATTACH: usize = 3;

/// Clusters of the simulated machine in the DES workloads.
pub const DES_CLUSTERS: usize = 16;

/// Sentences per pass of `parse-newswire`, a third each of at least 8,
/// 16 and 24 words.
pub const SENTENCES: usize = 24;

/// Queue depth the closed loops keep topped up.
pub const CLOSED_QUEUE: usize = 64;

/// Queue capacity of the overload phase.
pub const OVERLOAD_QUEUE: usize = 64;

/// The eight workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, uniform seeds.
    ServeDistinct,
    /// Closed loop, Zipf seeds.
    ServeHot,
    /// Open loop, three shapes, burst then overload.
    ServeOpenMixed,
    /// `run_shared` one call per query.
    SoloShared,
    /// One large wave, sequential engine.
    EngineWaveSeq,
    /// One large wave, discrete-event simulator.
    EngineWaveDes,
    /// Sentences, sequential engine.
    ParseSeq,
    /// Sentences, discrete-event simulator.
    ParseDes,
}

impl Workload {
    /// The workload named `name` in `BENCHMARK.json`.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "serve-distinct" => Workload::ServeDistinct,
            "serve-hot" => Workload::ServeHot,
            "serve-open-mixed" => Workload::ServeOpenMixed,
            "solo-shared" => Workload::SoloShared,
            "engine-wave-seq" => Workload::EngineWaveSeq,
            "engine-wave-des" => Workload::EngineWaveDes,
            "parse-newswire-seq" => Workload::ParseSeq,
            "parse-newswire-des" => Workload::ParseDes,
            _ => return None,
        })
    }

    /// Whether the workload runs on the discrete-event simulator.
    pub fn is_des(self) -> bool {
        matches!(self, Workload::EngineWaveDes | Workload::ParseDes)
    }
}

/// The sequential machine (also the oracle).
pub fn sequential_machine() -> Snap1 {
    Snap1::builder().engine(EngineKind::Sequential).build()
}

/// The 16-cluster discrete-event machine of the wave workload.
pub fn des_wave_machine() -> Snap1 {
    Snap1::builder()
        .clusters(DES_CLUSTERS)
        .partition(PartitionScheme::EdgeCut)
        .engine(EngineKind::Des)
        .build()
}

/// The paper's evaluation machine (16 clusters, 72 PEs) on the
/// discrete-event engine, for the parse workload.
pub fn des_parse_machine() -> Snap1 {
    Snap1::builder().engine(EngineKind::Des).build()
}

/// The parse KB's sentences and parser.
pub struct Nlu {
    /// The knowledge base; its network is borrowed mutably by `parse`.
    pub kb: LinguisticKb,
    /// The memory-based parser over `kb`.
    pub parser: MemoryBasedParser,
    /// The sentences of one pass.
    pub sentences: Vec<Sentence>,
}

/// Host times of the parts of one construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole construction, seconds.
    pub total_s: f64,
    /// `DomainSpec::build`, ms (0 for the wave workloads).
    pub kb_build_ms: f64,
    /// `flush_links`, ms.
    pub flush_links_ms: f64,
    /// `Server::new`, µs (0 outside the serve workloads).
    pub server_new_us: f64,
}

/// Everything one run needs.
pub struct World {
    /// The immutable snapshot queries run against (absent for parse).
    pub net: Option<Arc<SemanticNetwork>>,
    /// Pre-built queries; `stream` indexes into it.
    pub pool: Vec<Query>,
    /// Offer order.
    pub stream: Stream,
    /// The server of the closed loops and of the burst phase.
    pub server: Option<Server>,
    /// The bounded server of the overload phase.
    pub overload_server: Option<Server>,
    /// The machine of the engine workloads.
    pub machine: Snap1,
    /// The `engine-wave` program.
    pub wave: Option<Program>,
    /// Parser, KB and sentences of `parse-newswire`.
    pub nlu: Option<Nlu>,
    /// How long the parts took.
    pub times: SetupTimes,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The parse KB, flushed, with its noun and category nodes.
fn parse_kb(times: &mut SetupTimes) -> LinguisticKb {
    let t = Instant::now();
    let mut kb = DomainSpec::sized(PARSE_KB_NODES)
        .build()
        .expect("12,000 nodes fit the KB capacity");
    times.kb_build_ms = ms_since(t);
    let t = Instant::now();
    kb.network.flush_links();
    times.flush_links_ms = ms_since(t);
    kb
}

fn nouns(kb: &LinguisticKb) -> Vec<NodeId> {
    kb.words(PartOfSpeech::Noun)
        .iter()
        .filter_map(|w| kb.word(w))
        .collect()
}

fn server(net: &Arc<SemanticNetwork>, cfg: ServeConfig, times: &mut SetupTimes) -> Server {
    let t = Instant::now();
    let s = Server::new(Arc::clone(net), cfg).expect("the snapshot was flushed");
    times.server_new_us = ms_since(t) * 1e3;
    s
}

/// The burst-phase configuration: the default but for the queue named
/// in the issue.
pub fn burst_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 1024,
        ..ServeConfig::default()
    }
}

/// The overload-phase configuration.
pub fn overload_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: OVERLOAD_QUEUE,
        ..ServeConfig::default()
    }
}

impl World {
    /// Builds everything `workload` needs from `seed`, timing the parts.
    pub fn build(workload: Workload, seed: u64) -> World {
        let t0 = Instant::now();
        let mut times = SetupTimes::default();
        let mut world = World {
            net: None,
            pool: Vec::new(),
            stream: Vec::new(),
            server: None,
            overload_server: None,
            machine: sequential_machine(),
            wave: None,
            nlu: None,
            times: SetupTimes::default(),
        };
        match workload {
            Workload::ServeDistinct | Workload::ServeHot | Workload::SoloShared => {
                let kb = parse_kb(&mut times);
                world.pool = nouns(&kb)
                    .into_iter()
                    .map(|n| Query::new(Shape::Parse, n))
                    .collect();
                world.stream = if workload == Workload::ServeHot {
                    gen::hot_stream(world.pool.len(), seed)
                } else {
                    gen::uniform_stream(world.pool.len(), seed)
                };
                let net = Arc::new(kb.network);
                if workload != Workload::SoloShared {
                    world.server = Some(server(&net, ServeConfig::default(), &mut times));
                }
                world.net = Some(net);
            }
            Workload::ServeOpenMixed => {
                let kb = parse_kb(&mut times);
                let nouns = nouns(&kb);
                for shape in [Shape::Parse, Shape::Climb] {
                    world
                        .pool
                        .extend(nouns.iter().map(|&n| Query::new(shape, n)));
                }
                world
                    .pool
                    .extend(kb.categories.iter().map(|&c| Query::new(Shape::Descend, c)));
                world.stream = gen::mixed_stream(nouns.len(), kb.categories.len(), seed);
                let net = Arc::new(kb.network);
                world.overload_server = Some(server(&net, overload_config(), &mut times));
                world.server = Some(server(&net, burst_config(), &mut times));
                world.net = Some(net);
            }
            Workload::EngineWaveSeq | Workload::EngineWaveDes => {
                let mut net = synth::scale_free_network(WAVE_NODES, WAVE_ATTACH, seed);
                let t = Instant::now();
                net.flush_links();
                times.flush_links_ms = ms_since(t);
                world.net = Some(Arc::new(net));
                world.wave = Some(gen::wave_program());
                if workload == Workload::EngineWaveDes {
                    world.machine = des_wave_machine();
                }
            }
            Workload::ParseSeq | Workload::ParseDes => {
                let kb = parse_kb(&mut times);
                let parser = MemoryBasedParser::new(&kb);
                let mut generator = SentenceGenerator::new(&kb, seed);
                let sentences = (0..SENTENCES)
                    .map(|i| generator.generate(8 * (1 + i % 3)))
                    .collect();
                world.nlu = Some(Nlu {
                    kb,
                    parser,
                    sentences,
                });
                if workload == Workload::ParseDes {
                    world.machine = des_parse_machine();
                }
            }
        }
        times.total_s = t0.elapsed().as_secs_f64();
        world.times = times;
        world
    }

    /// The shared snapshot.
    ///
    /// # Panics
    ///
    /// Panics for the parse workloads, which own a mutable network.
    pub fn net(&self) -> &Arc<SemanticNetwork> {
        self.net
            .as_ref()
            .expect("this workload has a shared snapshot")
    }
}

/// What the oracle expects of one program.
#[derive(Debug, Clone)]
pub struct Expect {
    /// The sequential engine's full report.
    pub report: RunReport,
    /// Summed length of its collects (the timed loops' cheap check).
    pub collect_len: u32,
}

/// Summed length of a report's collects (what the timed loops add up).
pub fn report_collect_len(report: &RunReport) -> u64 {
    report.collects.iter().map(|c| c.len() as u64).sum()
}

/// Sequential-engine expectations, memoised per distinct program of the
/// pool that the stream uses.
pub struct Oracle {
    memo: Vec<Option<Expect>>,
}

impl Oracle {
    /// Runs the sequential engine once per pool entry the stream names.
    pub fn build(net: &Arc<SemanticNetwork>, pool: &[Query], stream: &[u32]) -> Self {
        let machine = sequential_machine();
        let mut memo: Vec<Option<Expect>> = vec![None; pool.len()];
        for &i in stream {
            let slot = &mut memo[i as usize];
            if slot.is_none() {
                let report = machine
                    .run_shared(net, &pool[i as usize].program)
                    .expect("the oracle runs every generated query");
                *slot = Some(Expect {
                    collect_len: report_collect_len(&report) as u32,
                    report,
                });
            }
        }
        Oracle { memo }
    }

    /// The expectation for pool entry `i`.
    pub fn expect(&self, i: u32) -> &Expect {
        self.memo[i as usize]
            .as_ref()
            .expect("every streamed program was memoised")
    }

    /// Expected collect length per pool entry (0 where unused).
    pub fn collect_lens(&self) -> Vec<u32> {
        self.memo
            .iter()
            .map(|e| e.as_ref().map_or(0, |e| e.collect_len))
            .collect()
    }

    /// `--self-check`: breaks the expectation of pool entry `i`, so the
    /// verification pass must report a mismatch.
    pub fn corrupt(&mut self, i: u32) {
        if let Some(e) = self.memo[i as usize].as_mut() {
            e.report.expansions += 1;
        }
    }

    /// Whether `got` matches the sequential engine on the four facts a
    /// completion is held to.
    pub fn matches(&self, i: u32, got: &RunReport) -> bool {
        let want = &self.expect(i).report;
        got.collects == want.collects
            && got.expansions == want.expansions
            && got.traffic.local_activations == want.traffic.local_activations
            && got.total_ns == want.total_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_through_the_spec() {
        for w in &crate::spec::WORKLOADS {
            assert!(Workload::from_name(w.name).is_some(), "{}", w.name);
        }
        assert!(Workload::from_name("nope").is_none());
    }

    #[test]
    fn wave_world_is_a_function_of_the_seed() {
        let a = World::build(Workload::EngineWaveSeq, 3);
        let b = World::build(Workload::EngineWaveSeq, 3);
        let c = World::build(Workload::EngineWaveSeq, 4);
        let links = |w: &World| {
            let net = w.net();
            net.nodes()
                .flat_map(|n| net.links(n).map(move |l| (n, l.destination)))
                .collect::<Vec<_>>()
        };
        assert_eq!(a.net().node_count(), WAVE_NODES);
        assert_eq!(links(&a), links(&b));
        assert_ne!(links(&a), links(&c));
    }
}
