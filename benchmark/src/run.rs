//! One run of one workload: set-up, verification, warm-up, the measured
//! phases, and with `--trace` the traced passes and layer probes.

use crate::gen::Schedule;
use crate::host::{self, HostRef};
use crate::loops::{self, Checked, ClosedLoop, Slice, Summary};
use crate::probe;
use crate::spec;
use crate::stats;
use crate::trace::Tracer;
use crate::world::{self, Oracle, SetupTimes, Workload, World};
use snap_core::RunReport;
use snap_nlu::ParseResult;
use std::collections::BTreeMap;

/// How a run is to be made.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seconds the measured phases share.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// `--self-check`: break one expectation and one expected sum.
    pub corrupt: bool,
}

/// Untimed warm-up on the same traffic before anything is measured.
const WARM_S: f64 = 1.0;
/// Constructions timed before the measured phases, and after them: the
/// two moments are ten seconds apart, so one slow spell of the host
/// cannot cover them all.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 3;
/// Two calibrations further apart than this mark the run disturbed.
const CALIB_DRIFT_LIMIT: f64 = 0.15;

/// What a run produced.
pub struct Outcome {
    /// Operations attempted and failed.
    pub check: Checked,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Whether the host disturbed the run (reported, never dropped).
    pub disturbed: bool,
    /// The span recorder of the traced pass, for the trace file.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Sets metric `name`; the name must be in the spec.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "{name} is not in the spec");
        self.metrics.insert(name, value);
    }
}

/// Records a run's end-to-end numbers, normalised and raw.
pub fn set_summary(out: &mut Outcome, s: &Summary) {
    out.set("norm_ops_per_s", s.norm_ops_per_s);
    out.set("norm_p50_us", s.norm_p50_us);
    out.set("norm_p90_us", s.norm_p90_us);
    out.set("raw.ops_per_s", s.raw_ops_per_s);
    out.set("raw.p50_us", s.raw_p50_us);
    out.set("raw.p90_us", s.raw_p90_us);
    out.set("host.ref_per_s", s.ref_per_s);
    out.set("bench.slices", s.slices as f64);
    out.set("bench.slice_spread", s.slice_spread);
}

/// The share of `seconds` each phase of the open-loop workload gets.
const BURST_SHARE: f64 = 0.6;

/// Runs `workload` on the inputs `seed` names.
pub fn run(workload: Workload, seed: u64, opts: Options) -> Outcome {
    let mut out = Outcome {
        check: Checked::default(),
        metrics: BTreeMap::new(),
        disturbed: false,
        tracer: None,
    };
    let calib_before = host::calib_ns();
    let mut href = HostRef::new();
    href.slice(4 * host::REF_SLICE);
    // Each construction is timed whole and corrected by the reference
    // slice right after it, like every other duration.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut build = |href: &mut HostRef| {
        let world = World::build(workload, seed);
        setups.push(world.times);
        setup_s.push(host::norm_time(
            world.times.total_s,
            href.slice(host::REF_SLICE),
        ));
        world
    };
    let mut world = build(&mut href);
    for _ in 1..SETUPS_BEFORE {
        world = build(&mut href);
    }

    match workload {
        Workload::ServeDistinct | Workload::ServeHot => {
            closed(&mut world, &mut href, opts, &mut out)
        }
        Workload::ServeOpenMixed => open(&mut world, &mut href, opts, &mut out),
        Workload::SoloShared => solo(&mut world, &mut href, opts, &mut out),
        Workload::EngineWaveSeq | Workload::EngineWaveDes => {
            wave(workload, &mut world, &mut href, opts, &mut out)
        }
        Workload::ParseSeq | Workload::ParseDes => {
            parse(workload, &mut world, &mut href, opts, &mut out)
        }
    }

    drop(world);
    for _ in 0..SETUPS_AFTER {
        build(&mut href);
    }
    let calib_after = host::calib_ns();
    let q25 = |f: &dyn Fn(&SetupTimes) -> f64| {
        let mut v: Vec<f64> = setups.iter().map(f).collect();
        stats::quantile(&mut v, 0.25)
    };
    let drift = (calib_after - calib_before).abs() / calib_before.min(calib_after);
    out.disturbed |= drift > CALIB_DRIFT_LIMIT;
    out.set("setup_s", stats::median(&mut setup_s));
    out.set("host.calib_ns", calib_before.min(calib_after));
    out.set("host.calib_drift", drift);
    out.set("nlu.kb_build_ms", q25(&|t| t.kb_build_ms));
    out.set("kb.flush_links_ms", q25(&|t| t.flush_links_ms));
    out.set("serve.server_new_us", q25(&|t| t.server_new_us));
    let disturbed = out.disturbed;
    out.set("bench.disturbed", f64::from(u8::from(disturbed)));
    if opts.trace {
        // A layer this workload does not exercise reads 0.
        for m in &spec::PER_LAYER {
            out.metrics.entry(m.name).or_insert(0.0);
        }
    }
    out.set("host.peak_rss_mb", host::peak_rss_mb());
    out
}

fn oracle_for(world: &World, opts: Options) -> (Oracle, Vec<u32>) {
    let mut oracle = Oracle::build(world.net(), &world.pool, &world.stream);
    let mut lens = oracle.collect_lens();
    if opts.corrupt {
        // One memoised expectation (caught by the verification pass) and
        // one expected collect length (caught by the timed loop's sum).
        oracle.corrupt(world.stream[0]);
        lens[world.stream[1] as usize] += 1;
    }
    (oracle, lens)
}

fn closed(world: &mut World, href: &mut HostRef, opts: Options, out: &mut Outcome) {
    let (oracle, lens) = oracle_for(world, opts);
    let cfg = snap_serve::ServeConfig::default();
    loops::verify_serve(
        world.net(),
        cfg.clone(),
        &world.pool,
        &world.stream,
        &oracle,
        &mut out.check,
    );
    let mut server = world.server.take().expect("serve workloads build a server");
    let mut off = Tracer::new(false);
    if !opts.trace {
        let mut lp = ClosedLoop::new(&mut server, &world.pool, &world.stream, &lens);
        lp.run(WARM_S, href, &mut off, &mut out.check);
        let pass = lp.run(opts.seconds, href, &mut off, &mut out.check);
        set_summary(out, &loops::summarise(&pass.slices));
        return;
    }
    probe::closed_traced(world, server, &lens, href, opts.seconds, out);
}

fn open(world: &mut World, href: &mut HostRef, opts: Options, out: &mut Outcome) {
    let (oracle, lens) = oracle_for(world, opts);
    loops::verify_serve(
        world.net(),
        world::burst_config(),
        &world.pool,
        &world.stream,
        &oracle,
        &mut out.check,
    );
    let mut burst_server = world.server.take().expect("burst server");
    let mut overload_server = world.overload_server.take().expect("overload server");
    let mut off = Tracer::new(false);
    let mut warm = Checked::default();
    for (server, schedule, share) in [
        (&mut burst_server, Schedule::BURST, BURST_SHARE),
        (&mut overload_server, Schedule::OVERLOAD, 1.0 - BURST_SHARE),
    ] {
        loops::open_loop(
            server,
            &world.pool,
            &world.stream,
            &lens,
            schedule,
            WARM_S * share,
            href,
            &mut off,
            &mut warm,
        );
    }
    out.check.failed += warm.failed;
    if opts.trace {
        probe::open_traced(
            world,
            burst_server,
            overload_server,
            &lens,
            href,
            opts.seconds,
            out,
        );
        return;
    }
    let burst = loops::open_loop(
        &mut burst_server,
        &world.pool,
        &world.stream,
        &lens,
        Schedule::BURST,
        opts.seconds * BURST_SHARE,
        href,
        &mut off,
        &mut out.check,
    );
    let overload = loops::open_loop(
        &mut overload_server,
        &world.pool,
        &world.stream,
        &lens,
        Schedule::OVERLOAD,
        opts.seconds * (1.0 - BURST_SHARE),
        href,
        &mut off,
        &mut out.check,
    );
    let summary = open_summary(&burst, &overload);
    set_summary(out, &summary);
    probe::set_lateness(out, &burst);
    out.set(
        "serve.shed_share",
        overload.shed as f64 / overload.arrivals.max(1) as f64,
    );
}

/// The open-loop workload's numbers: rate from the overload phase's
/// goodput, latency from the burst phase.
pub fn open_summary(burst: &loops::OpenOut, overload: &loops::OpenOut) -> Summary {
    let lat = loops::summarise(&burst.window_slices(Schedule::BURST));
    let rate = loops::summarise(&overload.window_slices(Schedule::OVERLOAD));
    Summary {
        norm_p50_us: lat.norm_p50_us,
        norm_p90_us: lat.norm_p90_us,
        raw_p50_us: lat.raw_p50_us,
        raw_p90_us: lat.raw_p90_us,
        slices: lat.slices + rate.slices,
        ..rate
    }
}

fn solo(world: &mut World, href: &mut HostRef, opts: Options, out: &mut Outcome) {
    let (oracle, lens) = oracle_for(world, opts);
    let net = world.net().clone();
    for &idx in world.stream.iter().take(512) {
        let result = world
            .machine
            .run_shared(&net, &world.pool[idx as usize].program);
        out.check.op(
            result.as_ref().is_ok_and(|r| oracle.matches(idx, r)),
            "solo verification: a report differs from the memoised oracle's",
        );
    }
    let mut cursor = 0u64;
    let mut off = Tracer::new(false);
    let go = |seconds: f64,
              tracer: &mut Tracer,
              check: &mut Checked,
              cursor: &mut u64,
              href: &mut HostRef| {
        loops::solo_loop(
            &world.machine,
            &net,
            &world.pool,
            &world.stream,
            &lens,
            cursor,
            seconds,
            href,
            tracer,
            check,
        )
    };
    go(WARM_S, &mut off, &mut out.check, &mut cursor, href);
    if !opts.trace {
        let slices = go(opts.seconds, &mut off, &mut out.check, &mut cursor, href);
        set_summary(out, &loops::summarise(&slices));
        return;
    }
    let plain = go(
        opts.seconds * 0.3,
        &mut off,
        &mut out.check,
        &mut cursor,
        href,
    );
    let mut tracer = Tracer::new(true);
    let traced = go(
        opts.seconds * 0.3,
        &mut tracer,
        &mut out.check,
        &mut cursor,
        href,
    );
    finish_traced(out, &plain, &traced, tracer);
    probe::layers(world, None, opts.seconds * 0.4, out);
}

/// Runs per slice of the wave workloads: about 25 ms on the sequential
/// engine, about 100 ms on the simulator.
fn wave_runs_per_slice(workload: Workload) -> u64 {
    if workload.is_des() {
        4
    } else {
        8
    }
}

fn wave(
    workload: Workload,
    world: &mut World,
    href: &mut HostRef,
    opts: Options,
    out: &mut Outcome,
) {
    let net = world.net().clone();
    let program = world.wave.clone().expect("wave program");
    let mut expect: RunReport = world::sequential_machine()
        .run_shared(&net, &program)
        .expect("the oracle runs the wave");
    let first = world.machine.run_shared(&net, &program);
    out.check.op(
        first
            .as_ref()
            .is_ok_and(|r| r.collects == expect.collects && r.expansions == expect.expansions),
        "wave verification: collects or expansions differ from the sequential engine's",
    );
    if opts.corrupt {
        expect.expansions += 1;
    }
    let per_slice = wave_runs_per_slice(workload);
    let mut off = Tracer::new(false);
    let go = |seconds: f64, tracer: &mut Tracer, check: &mut Checked, href: &mut HostRef| {
        loops::wave_loop(
            &world.machine,
            &net,
            &program,
            &expect,
            per_slice,
            seconds,
            href,
            tracer,
            check,
        )
    };
    go(WARM_S, &mut off, &mut out.check, href);
    if !opts.trace {
        let (slices, _) = go(opts.seconds, &mut off, &mut out.check, href);
        set_summary(out, &loops::summarise(&slices));
        return;
    }
    let (plain, _) = go(opts.seconds * 0.3, &mut off, &mut out.check, href);
    let mut tracer = Tracer::new(true);
    let (traced, last) = go(opts.seconds * 0.3, &mut tracer, &mut out.check, href);
    finish_traced(out, &plain, &traced, tracer);
    probe::layers(
        world,
        last.as_ref().filter(|_| workload.is_des()),
        opts.seconds * 0.4,
        out,
    );
}

fn same_parse(a: &ParseResult, b: &ParseResult) -> bool {
    a.clauses == b.clauses && a.templates == b.templates
}

fn parse(
    workload: Workload,
    world: &mut World,
    href: &mut HostRef,
    opts: Options,
    out: &mut Outcome,
) {
    let machine = world.machine.clone();
    let nlu = world
        .nlu
        .as_mut()
        .expect("parse workloads build the parser");
    let oracle = world::sequential_machine();
    let mut expect_winners = Vec::with_capacity(nlu.sentences.len());
    for sentence in &nlu.sentences {
        let want = nlu.parser.parse(&mut nlu.kb.network, &oracle, sentence);
        let got = nlu.parser.parse(&mut nlu.kb.network, &machine, sentence);
        let same = matches!((&want, &got), (Ok(w), Ok(g)) if same_parse(w, g));
        out.check.op(
            same,
            "parse verification: winners or templates differ from the sequential engine's",
        );
        expect_winners.push(want.as_ref().map_or(0, loops::winners));
    }
    if opts.corrupt {
        expect_winners[0] += 1;
    }
    let mut off = Tracer::new(false);
    loops::parse_loop(
        &machine,
        nlu,
        &expect_winners,
        WARM_S,
        href,
        &mut off,
        &mut out.check,
    );
    if !opts.trace {
        let (slices, _) = loops::parse_loop(
            &machine,
            nlu,
            &expect_winners,
            opts.seconds,
            href,
            &mut off,
            &mut out.check,
        );
        set_summary(out, &loops::summarise(&slices));
        return;
    }
    let (plain, _) = loops::parse_loop(
        &machine,
        nlu,
        &expect_winners,
        opts.seconds * 0.3,
        href,
        &mut off,
        &mut out.check,
    );
    let mut tracer = Tracer::new(true);
    let (traced, last_pass) = loops::parse_loop(
        &machine,
        nlu,
        &expect_winners,
        opts.seconds * 0.3,
        href,
        &mut tracer,
        &mut out.check,
    );
    finish_traced(out, &plain, &traced, tracer);
    probe::nlu_layers(workload, world, &last_pass, opts.seconds * 0.4, out);
}

/// Records what every traced workload reports from its two passes: the
/// raw numbers of the untraced pass, the cost of tracing, and how much
/// of the traced phase was the loop's own bookkeeping.
pub fn finish_traced(out: &mut Outcome, plain: &[Slice], traced: &[Slice], tracer: Tracer) {
    let a = loops::summarise(plain);
    let b = loops::summarise(traced);
    set_summary(out, &a);
    out.set(
        "bench.trace_overhead_share",
        (a.norm_ops_per_s - b.norm_ops_per_s) / a.norm_ops_per_s,
    );
    keep_tracer(out, tracer);
}

/// Records how much of the traced phases no layer call covers, and keeps
/// the recorder for the trace file.
pub fn keep_tracer(out: &mut Outcome, tracer: Tracer) {
    let selfs = tracer.self_times();
    let total: u64 = selfs.iter().map(|(_, ns)| ns).sum();
    let phase = selfs
        .iter()
        .find(|(n, _)| *n == crate::trace::Name::Phase)
        .map_or(0, |(_, ns)| *ns);
    out.set("bench.loop_self_share", phase as f64 / total.max(1) as f64);
    out.tracer = Some(tracer);
}
