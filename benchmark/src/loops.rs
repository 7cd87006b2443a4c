//! The measured loops. Each drives the system through public calls
//! only, cuts its run into slices, times a slice of the host reference
//! computation beside every slice, and checks every output it sees.

use crate::gen::{Query, Schedule, STREAM_LEN};
use crate::host::{norm_rate, norm_time, HostRef, REF_SLICE};
use crate::stats::{self, Better};
use crate::trace::{Name, Tracer};
use crate::world::{report_collect_len, Nlu, Oracle};
use snap_core::{RunReport, Snap1};
use snap_isa::Program;
use snap_kb::SemanticNetwork;
use snap_nlu::ParseResult;
use snap_serve::{Admission, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;

/// Completions per slice of the closed loops.
pub const CLOSED_SLICE_OPS: u64 = 2_048;
/// Calls per slice of `solo-shared`.
pub const SOLO_SLICE_OPS: u64 = 256;
/// Window of the open loop, by due time.
pub const WINDOW_NS: u64 = 50_000_000;
/// Latency limit of the open loop's goodput.
pub const SLO_US: f64 = 2_000.0;
/// Latency a refused arrival enters the window percentiles with.
pub const REFUSED_US: f32 = 1e6;
/// Verification replays this many queries of a serve stream.
const VERIFY_QUERIES: usize = 4_096;

/// Operations attempted and failed so far (typed errors, oracle
/// mismatches, refusals where nothing should be refused).
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Of those, how many were wrong.
    pub failed: u64,
}

impl Checked {
    /// Counts one checked operation; a wrong one is reported as `what`.
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Counts a failure outside the per-operation count and says which
    /// check caught it (the first few times).
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failed <= 8 {
            eprintln!("FAILED: {what}");
        }
    }
}

/// One slice of a measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Operations completed in the slice.
    pub ops: u64,
    /// Wall time of the slice.
    pub ns: u64,
    /// Host reference rate measured right after it.
    pub ref_rate: f64,
    /// Median operation latency within the slice, µs.
    pub p50_us: f64,
    /// 90th-percentile operation latency within the slice, µs.
    pub p90_us: f64,
}

/// A run's end-to-end numbers, normalised and raw.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    /// q90 over slices of the rate corrected to the nominal host.
    pub norm_ops_per_s: f64,
    /// q10 over slices of the p50 corrected to the nominal host.
    pub norm_p50_us: f64,
    /// q10 over slices of the p90 corrected to the nominal host.
    pub norm_p90_us: f64,
    /// q90 over slices of the raw rate.
    pub raw_ops_per_s: f64,
    /// q10 over slices of the raw p50.
    pub raw_p50_us: f64,
    /// q10 over slices of the raw p90.
    pub raw_p90_us: f64,
    /// Median reference rate.
    pub ref_per_s: f64,
    /// Slices measured.
    pub slices: usize,
    /// (q75 − q25) ÷ q50 of the raw slice rates.
    pub slice_spread: f64,
}

/// Reduces slices to the run's numbers.
pub fn summarise(slices: &[Slice]) -> Summary {
    if slices.is_empty() {
        return Summary::default();
    }
    let rate = |s: &Slice| s.ops as f64 * 1e9 / s.ns.max(1) as f64;
    let col = |f: &dyn Fn(&Slice) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let raw_rate = stats::quiet(&mut col(&rate), Better::Higher);
    Summary {
        norm_ops_per_s: stats::quiet(
            &mut col(&|s| norm_rate(rate(s), s.ref_rate)),
            Better::Higher,
        )
        .value,
        norm_p50_us: stats::quiet(
            &mut col(&|s| norm_time(s.p50_us, s.ref_rate)),
            Better::Lower,
        )
        .value,
        norm_p90_us: stats::quiet(
            &mut col(&|s| norm_time(s.p90_us, s.ref_rate)),
            Better::Lower,
        )
        .value,
        raw_ops_per_s: raw_rate.value,
        raw_p50_us: stats::quiet(&mut col(&|s| s.p50_us), Better::Lower).value,
        raw_p90_us: stats::quiet(&mut col(&|s| s.p90_us), Better::Lower).value,
        ref_per_s: stats::median(&mut col(&|s| s.ref_rate)),
        slices: slices.len(),
        slice_spread: raw_rate.spread,
    }
}

struct Clock(Instant);

impl Clock {
    fn new() -> Self {
        Clock(Instant::now())
    }
    #[inline]
    fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Nearest-rank p50 and p90 of `lat` (µs), sorting it in place.
fn slice_percentiles(lat: &mut [f32]) -> (f64, f64) {
    if lat.is_empty() {
        return (0.0, 0.0);
    }
    lat.sort_unstable_by(f32::total_cmp);
    let at = |q: f64| f64::from(lat[((lat.len() - 1) as f64 * q).round() as usize]);
    (at(0.5), at(0.9))
}

fn ref_slice(href: &mut HostRef, tracer: &mut Tracer, queries: usize) -> f64 {
    let s = tracer.now();
    let rate = href.slice(queries);
    tracer.leaf(Name::HostRef, s, 0);
    rate
}

/// What a closed-loop pass saw besides its slices.
#[derive(Debug, Default)]
pub struct ClosedOut {
    /// The measured slices.
    pub slices: Vec<Slice>,
    /// `pump_with` calls that served a batch.
    pub batches: u64,
    /// Summed `CompletionRef::batch_depth` over those calls.
    pub depth_sum: u64,
    /// Summed distinct programs per call (traced passes only).
    pub lanes_sum: u64,
    /// Stream indices of the distinct programs of the first observed
    /// batches (traced passes only), for the probes to replay.
    pub observed: Vec<Vec<u32>>,
    /// Wall time of the measured phase.
    pub wall_ns: u64,
}

const RING: usize = 128;
const MAX_OBSERVED: usize = 2_048;

/// A closed loop with one client: the queue is topped up to
/// `world::CLOSED_QUEUE`, then one `pump_with`. The server must be
/// fresh, so that query ids count offers.
pub struct ClosedLoop<'a> {
    server: &'a mut Server,
    pool: &'a [Query],
    stream: &'a [u32],
    lens: &'a [u32],
    next: u64,
    offered_at: [u64; RING],
    clock: Clock,
    lat: Vec<f32>,
    done: Vec<u64>,
}

impl<'a> ClosedLoop<'a> {
    /// A loop over a fresh `server`; `lens` is the expected collect
    /// length per pool entry.
    pub fn new(
        server: &'a mut Server,
        pool: &'a [Query],
        stream: &'a [u32],
        lens: &'a [u32],
    ) -> Self {
        assert_eq!(server.stats().offered, 0, "the loop maps ids to offers");
        ClosedLoop {
            server,
            pool,
            stream,
            lens,
            next: 0,
            offered_at: [0; RING],
            clock: Clock::new(),
            lat: Vec::with_capacity(CLOSED_SLICE_OPS as usize + 64),
            done: Vec::with_capacity(64),
        }
    }

    /// Runs for `seconds`, continuing the stream where the last call
    /// stopped (so a warm-up call leaves pools and caches as the
    /// measured call finds them).
    pub fn run(
        &mut self,
        seconds: f64,
        href: &mut HostRef,
        tracer: &mut Tracer,
        check: &mut Checked,
    ) -> ClosedOut {
        let mut out = ClosedOut::default();
        let budget_ns = (seconds * 1e9) as u64;
        let (mut got_len, mut want_len) = (0u64, 0u64);
        let mut slice_ops = 0u64;
        self.lat.clear();
        tracer.open(Name::Phase, 0);
        let phase_start = self.clock.ns();
        let mut slice_start = phase_start;
        loop {
            while self.server.queue_len() < crate::world::CLOSED_QUEUE {
                let idx = self.stream[self.next as usize % STREAM_LEN];
                let program = self.pool[idx as usize].program.clone();
                self.offered_at[self.next as usize % RING] = self.clock.ns();
                let s = tracer.now();
                let admission = self.server.offer(program);
                tracer.leaf(Name::Offer, s, self.next);
                if admission != Admission::Admitted(snap_serve::QueryId(self.next)) {
                    check.op(false, "closed loop: an offer was not admitted");
                }
                self.next += 1;
            }
            self.done.clear();
            let mut depth = 0;
            let s = tracer.now();
            let done = &mut self.done;
            self.server.pump_with(|c| {
                depth = c.batch_depth as u64;
                match c.result {
                    Ok(report) => got_len += report_collect_len(report),
                    Err(_) => check.fail("closed loop: a completion carried an error"),
                }
                done.push(c.id.0);
            });
            tracer.leaf(Name::Pump, s, out.batches);
            let t_done = self.clock.ns();
            for &id in self.done.iter() {
                let at = self.offered_at[id as usize % RING];
                self.lat.push((t_done - at) as f32 / 1e3);
                want_len += u64::from(self.lens[self.stream[id as usize % STREAM_LEN] as usize]);
            }
            check.attempted += self.done.len() as u64;
            slice_ops += self.done.len() as u64;
            out.batches += 1;
            out.depth_sum += depth;
            if tracer.on() {
                let mut lanes: Vec<u32> = self
                    .done
                    .iter()
                    .map(|&id| self.stream[id as usize % STREAM_LEN])
                    .collect();
                lanes.sort_unstable();
                lanes.dedup();
                out.lanes_sum += lanes.len() as u64;
                if out.observed.len() < MAX_OBSERVED {
                    out.observed.push(lanes);
                }
            }
            if slice_ops >= CLOSED_SLICE_OPS {
                let ns = t_done - slice_start;
                let (p50_us, p90_us) = slice_percentiles(&mut self.lat);
                out.slices.push(Slice {
                    ops: slice_ops,
                    ns,
                    ref_rate: ref_slice(href, tracer, REF_SLICE),
                    p50_us,
                    p90_us,
                });
                self.lat.clear();
                slice_ops = 0;
                slice_start = self.clock.ns();
                if slice_start - phase_start >= budget_ns {
                    break;
                }
            }
        }
        out.wall_ns = self.clock.ns() - phase_start;
        tracer.close();
        // One running sum stands in for a per-completion compare: the
        // verification pass compared whole reports before the clock ran.
        if got_len != want_len {
            check.fail("closed loop: collect lengths do not sum to the oracle's");
        }
        self.server.assert_accounting();
        out
    }
}

/// What one open-loop phase saw.
#[derive(Debug, Default)]
pub struct OpenOut {
    /// Arrivals generated.
    pub arrivals: u64,
    /// Latency from due time to the return of the completing pump, µs,
    /// per arrival; `NaN` for a refused arrival.
    pub lat_us: Vec<f32>,
    /// Offer time minus due time, µs, per arrival.
    pub late_us: Vec<f32>,
    /// Reference queries and their time, per wall-clock window.
    pub ref_windows: Vec<(u64, u64)>,
    /// Pump start minus due time of each completion, µs.
    pub wait_us: Vec<f32>,
    /// Span of each `pump_with` that served a batch, µs.
    pub service_us: Vec<f32>,
    /// `pump_with` calls that served a batch.
    pub batches: u64,
    /// Summed batch depth.
    pub depth_sum: u64,
    /// Batches shallower than `max_batch` that left a same-shape query
    /// queued behind them.
    pub fragments: u64,
    /// Arrivals refused at admission.
    pub shed: u64,
    /// Span of each refused `offer`, ns (traced passes only).
    pub shed_offer_ns: Vec<f32>,
    /// Wall time of the phase.
    pub wall_ns: u64,
}

const OPEN_RING: usize = 2_048;
/// Reference queries per idle gap of the open loop (about 200 µs with
/// their untimed quarter).
const REF_GAP: usize = 256;
/// The gap before the next due time that a reference slice must fit.
const REF_GAP_NS: u64 = 400_000;
/// Under saturation the open loop runs a reference slice this often
/// (about every 15 ms, three a window).
const REF_EVERY_PUMPS: u32 = 96;

/// The single-threaded event loop: offer everything due, then one
/// `pump_with`; idle time before the next due arrival goes to the host
/// reference. A refused offer is never a failed operation — shedding
/// is the overload phase's subject, and in the burst phase it takes a
/// host stall of 64 ms to fill the queue, which this sandbox delivers
/// about once in five minutes — but it misses every latency limit: it
/// stays in its window as a miss and enters the percentiles as
/// [`REFUSED_US`].
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    server: &mut Server,
    pool: &[Query],
    stream: &[u32],
    lens: &[u32],
    schedule: Schedule,
    seconds: f64,
    href: &mut HostRef,
    tracer: &mut Tracer,
    check: &mut Checked,
) -> OpenOut {
    let duration_ns = (seconds * 1e9) as u64;
    let n = schedule.arrivals_in(duration_ns);
    let windows = (duration_ns / WINDOW_NS + 2) as usize;
    let mut out = OpenOut {
        arrivals: n,
        lat_us: vec![f32::NAN; n as usize],
        late_us: vec![0.0; n as usize],
        ref_windows: vec![(0, 0); windows],
        ..OpenOut::default()
    };
    let max_batch = ServeConfig::default().max_batch as u64;
    let mut arrival_of = [0u32; OPEN_RING];
    let mut queued_by_shape = [0i64; 3];
    let shape_of =
        |arrival: u64| pool[stream[arrival as usize % STREAM_LEN] as usize].shape as usize;
    let first_id = server.stats().admitted;
    let (mut got_len, mut want_len) = (0u64, 0u64);
    let mut done: Vec<u64> = Vec::with_capacity(64);
    let mut next = 0u64;
    let mut pumps_since_ref = 0u32;
    tracer.open(Name::Phase, 0);
    let clock = Clock::new();
    loop {
        let mut now = clock.ns();
        while next < n && schedule.due_ns(next) <= now {
            let idx = stream[next as usize % STREAM_LEN];
            let program = pool[idx as usize].program.clone();
            now = clock.ns();
            out.late_us[next as usize] = (now - schedule.due_ns(next)) as f32 / 1e3;
            let s = tracer.now();
            let admission = server.offer(program);
            match admission {
                Admission::Admitted(id) => {
                    tracer.leaf(Name::Offer, s, next);
                    arrival_of[id.0 as usize % OPEN_RING] = next as u32;
                    queued_by_shape[shape_of(next)] += 1;
                }
                Admission::Shed(_) => {
                    if tracer.on() {
                        out.shed_offer_ns.push((tracer.now() - s) as f32);
                    }
                    tracer.leaf(Name::Offer, s, next);
                    out.shed += 1;
                }
            }
            next += 1;
        }
        if server.queue_len() == 0 {
            if next >= n {
                break;
            }
            let due = schedule.due_ns(next);
            let now = clock.ns();
            if due > now + REF_GAP_NS {
                let w = (now / WINDOW_NS) as usize;
                let t = Instant::now();
                ref_slice(href, tracer, REF_GAP);
                out.ref_windows[w].0 += REF_GAP as u64;
                out.ref_windows[w].1 += t.elapsed().as_nanos() as u64;
            } else {
                let s = tracer.now();
                while clock.ns() < due {
                    std::hint::spin_loop();
                }
                tracer.leaf(Name::Idle, s, next);
            }
            continue;
        }
        done.clear();
        let mut depth = 0;
        let s = tracer.now();
        let t_start = clock.ns();
        server.pump_with(|c| {
            depth = c.batch_depth as u64;
            match c.result {
                Ok(report) => got_len += report_collect_len(report),
                Err(_) => check.fail("open loop: a completion carried an error"),
            }
            done.push(c.id.0);
        });
        let t_done = clock.ns();
        tracer.leaf(Name::Pump, s, out.batches);
        out.service_us.push((t_done - t_start) as f32 / 1e3);
        let mut shape = 0;
        for &id in &done {
            let arrival = u64::from(arrival_of[id as usize % OPEN_RING]);
            debug_assert!(id >= first_id);
            let due = schedule.due_ns(arrival);
            out.lat_us[arrival as usize] = (t_done - due) as f32 / 1e3;
            out.wait_us.push(t_start.saturating_sub(due) as f32 / 1e3);
            want_len += u64::from(lens[stream[arrival as usize % STREAM_LEN] as usize]);
            shape = shape_of(arrival);
            queued_by_shape[shape] -= 1;
        }
        check.attempted += done.len() as u64;
        out.batches += 1;
        out.depth_sum += depth;
        if depth < max_batch && queued_by_shape[shape] > 0 {
            out.fragments += 1;
        }
        pumps_since_ref += 1;
        if pumps_since_ref >= REF_EVERY_PUMPS {
            pumps_since_ref = 0;
            let w = (clock.ns() / WINDOW_NS) as usize;
            if w < out.ref_windows.len() {
                let t = Instant::now();
                ref_slice(href, tracer, REF_GAP);
                out.ref_windows[w].0 += REF_GAP as u64;
                out.ref_windows[w].1 += t.elapsed().as_nanos() as u64;
            }
        }
    }
    out.wall_ns = clock.ns();
    tracer.close();
    if got_len != want_len {
        check.fail("open loop: collect lengths do not sum to the oracle's");
    }
    server.assert_accounting();
    out
}

impl OpenOut {
    /// Reference rate per window; a window that ran no reference slice
    /// takes the phase's median.
    fn window_ref_rates(&self) -> Vec<f64> {
        let mut seen: Vec<f64> = self
            .ref_windows
            .iter()
            .filter(|w| w.1 > 0)
            .map(|w| w.0 as f64 * 1e9 / w.1 as f64)
            .collect();
        let fallback = if seen.is_empty() {
            crate::host::REF_NOMINAL_PER_S
        } else {
            stats::median(&mut seen)
        };
        self.ref_windows
            .iter()
            .map(|w| {
                if w.1 > 0 {
                    w.0 as f64 * 1e9 / w.1 as f64
                } else {
                    fallback
                }
            })
            .collect()
    }

    /// One slice per 50 ms window of due time: the window's completions
    /// within the limit as `ops`, its latency percentiles, and the
    /// reference rate measured during it. Refused arrivals stay in the
    /// window as misses.
    pub fn window_slices(&self, schedule: Schedule) -> Vec<Slice> {
        let refs = self.window_ref_rates();
        let samples = self.lat_us.iter().enumerate().map(|(i, &l)| {
            (
                schedule.due_ns(i as u64),
                (!l.is_nan()).then_some(f64::from(l)),
            )
        });
        let mut slices = Vec::new();
        let mut w = 0usize;
        let mut current: Vec<Option<f64>> = Vec::new();
        let mut flush = |w: usize, current: &mut Vec<Option<f64>>| {
            if current.is_empty() {
                return;
            }
            let mut done: Vec<f32> = current
                .iter()
                .map(|v| v.map_or(REFUSED_US, |v| v as f32))
                .collect();
            let good = done.iter().filter(|&&v| f64::from(v) <= SLO_US).count();
            let (p50_us, p90_us) = slice_percentiles(&mut done);
            slices.push(Slice {
                ops: good as u64,
                ns: WINDOW_NS,
                ref_rate: refs
                    .get(w)
                    .copied()
                    .unwrap_or(crate::host::REF_NOMINAL_PER_S),
                p50_us,
                p90_us,
            });
            current.clear();
        };
        for (due, v) in samples {
            let this = (due / WINDOW_NS) as usize;
            if this != w {
                flush(w, &mut current);
                w = this;
            }
            current.push(v);
        }
        flush(w, &mut current);
        slices
    }

    /// Share of arrivals completed within the limit.
    pub fn share_in_slo(&self) -> f64 {
        let good = self
            .lat_us
            .iter()
            .filter(|l| !l.is_nan() && f64::from(**l) <= SLO_US)
            .count();
        good as f64 / self.arrivals.max(1) as f64
    }
}

/// Replays the head of a serve stream through a fresh server with owned
/// `pump()` completions and holds every report to the oracle.
pub fn verify_serve(
    net: &Arc<SemanticNetwork>,
    cfg: ServeConfig,
    pool: &[Query],
    stream: &[u32],
    oracle: &Oracle,
    check: &mut Checked,
) {
    let queries = VERIFY_QUERIES;
    let mut server = Server::new(Arc::clone(net), cfg).expect("the snapshot was flushed");
    let mut next = 0usize;
    let mut completed = 0usize;
    while completed < queries {
        while next < queries && server.queue_len() < crate::world::CLOSED_QUEUE {
            let admitted = matches!(
                server.offer(pool[stream[next % STREAM_LEN] as usize].program.clone()),
                Admission::Admitted(_)
            );
            if !admitted {
                check.op(false, "verification: an offer was not admitted");
            }
            next += 1;
        }
        let done = server.pump();
        if done.is_empty() {
            break;
        }
        for c in done {
            let idx = stream[c.id.0 as usize % STREAM_LEN];
            check.op(
                c.result.as_ref().is_ok_and(|r| oracle.matches(idx, r)),
                "verification: a served report differs from the sequential oracle's",
            );
            completed += 1;
        }
    }
    server.assert_accounting();
}

/// `solo-shared`: one `run_shared` call per query.
#[allow(clippy::too_many_arguments)]
pub fn solo_loop(
    machine: &Snap1,
    net: &Arc<SemanticNetwork>,
    pool: &[Query],
    stream: &[u32],
    lens: &[u32],
    cursor: &mut u64,
    seconds: f64,
    href: &mut HostRef,
    tracer: &mut Tracer,
    check: &mut Checked,
) -> Vec<Slice> {
    let budget_ns = (seconds * 1e9) as u64;
    let mut slices = Vec::new();
    let mut lat: Vec<f32> = Vec::with_capacity(SOLO_SLICE_OPS as usize);
    let (mut got_len, mut want_len) = (0u64, 0u64);
    tracer.open(Name::Phase, 0);
    let clock = Clock::new();
    loop {
        let slice_start = clock.ns();
        lat.clear();
        for _ in 0..SOLO_SLICE_OPS {
            let idx = stream[*cursor as usize % STREAM_LEN] as usize;
            let s = tracer.now();
            let t0 = clock.ns();
            let result = machine.run_shared(net, &pool[idx].program);
            lat.push((clock.ns() - t0) as f32 / 1e3);
            tracer.leaf(Name::MachineRun, s, *cursor);
            match &result {
                Ok(report) => got_len += report_collect_len(report),
                Err(_) => check.fail("solo: run_shared returned an error"),
            }
            want_len += u64::from(lens[idx]);
            check.attempted += 1;
            *cursor += 1;
        }
        let ns = clock.ns() - slice_start;
        let (p50_us, p90_us) = slice_percentiles(&mut lat);
        slices.push(Slice {
            ops: SOLO_SLICE_OPS,
            ns,
            ref_rate: ref_slice(href, tracer, REF_SLICE),
            p50_us,
            p90_us,
        });
        if clock.ns() >= budget_ns {
            break;
        }
    }
    tracer.close();
    if got_len != want_len {
        check.fail("solo: collect lengths do not sum to the oracle's");
    }
    slices
}

/// `engine-wave`: the same large query again and again; an operation is
/// one run, and `runs_per_slice` runs make a slice.
#[allow(clippy::too_many_arguments)]
pub fn wave_loop(
    machine: &Snap1,
    net: &Arc<SemanticNetwork>,
    program: &Program,
    expect: &RunReport,
    runs_per_slice: u64,
    seconds: f64,
    href: &mut HostRef,
    tracer: &mut Tracer,
    check: &mut Checked,
) -> (Vec<Slice>, Option<RunReport>) {
    let budget_ns = (seconds * 1e9) as u64;
    let mut slices = Vec::new();
    let mut lat: Vec<f32> = Vec::with_capacity(runs_per_slice as usize);
    let mut last = None;
    let mut run_no = 0u64;
    tracer.open(Name::Phase, 0);
    let clock = Clock::new();
    loop {
        let slice_start = clock.ns();
        lat.clear();
        for _ in 0..runs_per_slice {
            let s = tracer.now();
            let t0 = clock.ns();
            let result = machine.run_shared(net, program);
            lat.push((clock.ns() - t0) as f32 / 1e3);
            tracer.leaf(Name::MachineRun, s, run_no);
            run_no += 1;
            check.op(
                result.as_ref().is_ok_and(|r| {
                    r.expansions == expect.expansions
                        && report_collect_len(r) == report_collect_len(expect)
                }),
                "wave: expansions or collect length differ from the sequential engine's",
            );
            last = result.ok();
        }
        let ns = clock.ns() - slice_start;
        let (p50_us, p90_us) = slice_percentiles(&mut lat);
        slices.push(Slice {
            ops: runs_per_slice,
            ns,
            ref_rate: ref_slice(href, tracer, REF_SLICE),
            p50_us,
            p90_us,
        });
        if clock.ns() >= budget_ns {
            break;
        }
    }
    tracer.close();
    (slices, last)
}

/// Winners across the clauses of a parse (the timed loop's cheap check).
pub fn winners(result: &ParseResult) -> u64 {
    result.clauses.iter().map(|c| c.winners.len() as u64).sum()
}

/// `parse-newswire`: an operation is one sentence through
/// `MemoryBasedParser::parse`, and one pass over the sentences a slice.
pub fn parse_loop(
    machine: &Snap1,
    nlu: &mut Nlu,
    expect_winners: &[u64],
    seconds: f64,
    href: &mut HostRef,
    tracer: &mut Tracer,
    check: &mut Checked,
) -> (Vec<Slice>, Vec<ParseResult>) {
    let budget_ns = (seconds * 1e9) as u64;
    let mut slices = Vec::new();
    let mut lat: Vec<f32> = Vec::with_capacity(nlu.sentences.len());
    let mut last_pass = Vec::new();
    tracer.open(Name::Phase, 0);
    let clock = Clock::new();
    loop {
        let slice_start = clock.ns();
        lat.clear();
        last_pass.clear();
        for (i, sentence) in nlu.sentences.iter().enumerate() {
            let s = tracer.now();
            let t0 = clock.ns();
            let result = nlu.parser.parse(&mut nlu.kb.network, machine, sentence);
            lat.push((clock.ns() - t0) as f32 / 1e3);
            tracer.leaf(Name::Parse, s, i as u64);
            check.op(
                result
                    .as_ref()
                    .is_ok_and(|r| winners(r) == expect_winners[i]),
                "parse: winner count differs from the sequential engine's",
            );
            if let Ok(r) = result {
                last_pass.push(r);
            }
        }
        let ns = clock.ns() - slice_start;
        let (p50_us, p90_us) = slice_percentiles(&mut lat);
        slices.push(Slice {
            ops: nlu.sentences.len() as u64,
            ns,
            ref_rate: ref_slice(href, tracer, REF_SLICE),
            p50_us,
            p90_us,
        });
        if clock.ns() >= budget_ns {
            break;
        }
    }
    tracer.close();
    (slices, last_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ops: u64, ns: u64, ref_rate: f64, p50: f64, p90: f64) -> Slice {
        Slice {
            ops,
            ns,
            ref_rate,
            p50_us: p50,
            p90_us: p90,
        }
    }

    #[test]
    fn normalised_summary_cancels_a_host_slowdown() {
        let nominal = crate::host::REF_NOMINAL_PER_S;
        // Three quiet slices and two on a slow host: the reference
        // halves beside them, and the loop slows by 2^gamma.
        let slow = 2f64.powf(crate::host::REF_GAMMA);
        let ns = (10_000_000.0 * slow) as u64;
        let slices = vec![
            slice(1000, 10_000_000, nominal, 100.0, 200.0),
            slice(1000, 10_000_000, nominal, 100.0, 200.0),
            slice(1000, ns, nominal / 2.0, 100.0 * slow, 200.0 * slow),
            slice(1000, ns, nominal / 2.0, 100.0 * slow, 200.0 * slow),
            slice(1000, 10_000_000, nominal, 100.0, 200.0),
        ];
        let s = summarise(&slices);
        assert!((s.norm_ops_per_s - 100_000.0).abs() < 0.01);
        assert!((s.norm_p50_us - 100.0).abs() < 1e-6);
        assert!((s.norm_p90_us - 200.0).abs() < 1e-6);
        assert_eq!(s.raw_ops_per_s, 100_000.0, "q90 sits in the quiet regime");
        assert_eq!(s.raw_p50_us, 100.0);
        assert_eq!(s.slices, 5);
        assert!(s.slice_spread > 0.3);
    }

    #[test]
    fn slice_percentiles_use_nearest_rank() {
        let mut lat: Vec<f32> = (1..=10).map(|v| v as f32).collect();
        lat.reverse();
        assert_eq!(slice_percentiles(&mut lat), (6.0, 9.0));
        assert_eq!(slice_percentiles(&mut []), (0.0, 0.0));
    }

    #[test]
    fn open_windows_count_refusals_as_misses() {
        let schedule = Schedule::Even {
            interval_ns: 10_000_000,
        };
        // 10 arrivals over 100 ms = two 50 ms windows of five.
        let mut out = OpenOut {
            arrivals: 10,
            lat_us: vec![100.0; 10],
            ref_windows: vec![(64, 64_000), (0, 0), (0, 0)],
            ..OpenOut::default()
        };
        out.lat_us[1] = f32::NAN; // refused
        out.lat_us[7] = 5_000.0; // late
        let slices = out.window_slices(schedule);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].ops, 4, "the refusal is a miss");
        assert_eq!(slices[1].ops, 4, "so is the completion past the limit");
        assert_eq!(slices[0].ref_rate, 1e6);
        assert_eq!(slices[1].ref_rate, 1e6, "an empty window takes the median");
        assert!((out.share_in_slo() - 0.8).abs() < 1e-12);
    }
}
