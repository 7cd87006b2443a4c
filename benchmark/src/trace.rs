//! Spans recorded by the benchmark around every call into a layer.
//!
//! The library crates are not instrumented by this change: a span is
//! the benchmark's own clock read before and after a public call. Spans
//! stay in memory during the run and are written as chrome-trace JSON
//! when it ends. A layer's self time is its span minus the part its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// What a span timed. Rendered as `<crate>.<module>.<what>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// One measured phase of the benchmark loop (root span).
    Phase,
    /// `Server::offer`.
    Offer,
    /// `Server::pump_with`.
    Pump,
    /// The event loop waiting for the next due time.
    Idle,
    /// A slice of the host reference computation.
    HostRef,
    /// `Snap1::run_shared` / `Snap1::run`, one call.
    MachineRun,
    /// `MemoryBasedParser::parse`, one sentence.
    Parse,
}

impl Name {
    /// The span's display name.
    pub fn label(self) -> &'static str {
        match self {
            Name::Phase => "bench.phase",
            Name::Offer => "serve.server.offer",
            Name::Pump => "serve.server.pump_with",
            Name::Idle => "bench.loop.idle",
            Name::HostRef => "bench.host.reference",
            Name::MachineRun => "core.machine.run",
            Name::Parse => "nlu.parser.parse",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub name: Name,
    /// Start, ns from the recorder's origin.
    pub start: u64,
    /// End, ns from the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Query, batch or sentence number the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

const NO_PARENT: u32 = u32::MAX;

/// Most spans kept; a traced phase is sized to stay below it, and a
/// recorder that fills up counts what it dropped instead of growing.
const MAX_SPANS: usize = 6_000_000;

/// Most spans written to the chrome-trace file (the head of the run);
/// aggregates always use every span kept.
const MAX_FILE_SPANS: usize = 200_000;

/// The span recorder. When `on` is false every call is a predictable
/// branch and no clock is read, so one loop body serves both the
/// untraced run (the end-to-end numbers) and the traced one.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Spans not recorded because the recorder was full.
    pub dropped: u64,
}

impl Tracer {
    /// A recorder; `on` decides whether it records.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
            open: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The clock, ns from the origin; 0 when off.
    #[inline]
    pub fn now(&self) -> u64 {
        if self.on {
            self.origin.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span that later spans nest under, until [`Tracer::close`].
    pub fn open(&mut self, name: Name, id: u64) {
        if !self.on {
            return;
        }
        let start = self.now();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end = end;
        }
    }

    /// Records a finished leaf span that began at `start` (a value of
    /// [`Tracer::now`]) and ends now.
    #[inline]
    pub fn leaf(&mut self, name: Name, start: u64, id: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let end = self.now();
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
        });
    }

    /// Every span kept, in start order of recording.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: Name) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Summed duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: Name) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Self time (ns) per span name: each span's duration minus the
    /// durations of its direct children, summed by name.
    pub fn self_times(&self) -> Vec<(Name, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut by_name: std::collections::BTreeMap<Name, u64> = Default::default();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            *by_name.entry(s.name).or_insert(0) += s.ns().saturating_sub(c);
        }
        by_name.into_iter().collect()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto) of the first
    /// [`MAX_FILE_SPANS`] spans.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().take(MAX_FILE_SPANS).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent: i64 = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                s.name.label(),
                s.start as f64 / 1e3,
                s.ns() as f64 / 1e3,
                i,
                parent,
                s.id
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.open(Name::Phase, 0);
        let s = t.now();
        t.leaf(Name::Offer, s, 1);
        t.close();
        assert!(t.spans().is_empty());
        assert_eq!(t.now(), 0);
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new(true);
        t.spans.push(Span {
            name: Name::Phase,
            start: 0,
            end: 100,
            parent: NO_PARENT,
            id: 0,
        });
        for (name, start, end) in [
            (Name::Offer, 10, 20),
            (Name::Pump, 20, 70),
            (Name::Offer, 70, 75),
        ] {
            t.spans.push(Span {
                name,
                start,
                end,
                parent: 0,
                id: 0,
            });
        }
        let selfs = t.self_times();
        assert_eq!(
            selfs,
            vec![(Name::Phase, 35), (Name::Offer, 15), (Name::Pump, 50)]
        );
        let total: u64 = selfs.iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 100, "self times partition the root span");
        assert_eq!(t.total_ns(Name::Offer), 15);
        assert_eq!(t.durations(Name::Pump), vec![50.0]);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new(true);
        t.open(Name::Phase, 7);
        let s = t.now();
        t.leaf(Name::Pump, s, 3);
        t.open(Name::Parse, 4);
        let s = t.now();
        t.leaf(Name::MachineRun, s, 4);
        t.close();
        t.close();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert!(spans[0].end >= spans[3].end);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"core.machine.run\""));
        assert!(json.contains("\"parent\":2"));
        assert!(
            crate::json::parse(&json).is_ok(),
            "the trace file is valid JSON"
        );
    }
}
