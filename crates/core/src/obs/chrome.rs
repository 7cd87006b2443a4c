//! Chrome-trace (`about:tracing` / Perfetto) JSON export.
//!
//! The exporter renders a [`TraceReport`]'s event buffer into the
//! trace-event JSON object format: `{"traceEvents": [...]}`. Each
//! cluster becomes one process (`pid`), named via metadata events, so
//! Perfetto shows per-cluster tracks; the controller and global pseudo
//! tracks get their own processes. Phase start/end pairs become `B`/`E`
//! duration slices, barrier releases and arbiter deferrals become `X`
//! complete slices spanning their wait, and everything else is an `i`
//! instant. Timestamps are the stamp's microseconds — simulated time for
//! the discrete-event engine, monotonic wall time for the threaded one.
//!
//! The JSON is assembled by hand: the event shapes are small and fixed,
//! and the build carries no JSON serializer.

use super::event::{EventKind, Stamp, TraceEvent, CONTROLLER_TRACK, GLOBAL_TRACK};
use super::report::TraceReport;

/// Stable `pid` for a track. Cluster tracks keep their index; the pseudo
/// tracks get the next ids after the real clusters so they sort last.
fn pid_of(track: u16, clusters: usize) -> usize {
    match track {
        CONTROLLER_TRACK => clusters,
        GLOBAL_TRACK => clusters + 1,
        c => usize::from(c),
    }
}

fn push_meta(out: &mut String, pid: usize, name: &str) {
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
         \"args\":{{\"name\":\"{name}\"}}}}"
    ));
}

/// One `"args"` fragment (no trailing comma handling needed: always
/// rendered as a complete object).
fn args_of(ev: &TraceEvent) -> String {
    let phase = match ev.stamp {
        Stamp::Wall { phase, .. } => Some(phase),
        Stamp::Sim(_) => None,
    };
    let mut fields: Vec<String> = Vec::new();
    if let Some(p) = phase {
        fields.push(format!("\"phase\":{p}"));
    }
    match ev.kind {
        EventKind::PhaseStart { index, .. } | EventKind::PhaseEnd { index, .. } => {
            fields.push(format!("\"index\":{index}"));
        }
        EventKind::MsgSend { from, to, hops } => {
            fields.push(format!("\"from\":{from},\"to\":{to},\"hops\":{hops}"));
        }
        EventKind::MsgRecv { from, to } | EventKind::MsgRetry { from, to } => {
            fields.push(format!("\"from\":{from},\"to\":{to}"));
        }
        EventKind::BarrierArrive { level } => {
            fields.push(format!("\"level\":{level}"));
        }
        EventKind::BarrierRelease { wait_ns } => {
            fields.push(format!("\"wait_ns\":{wait_ns}"));
        }
        EventKind::BarrierStall {
            in_flight,
            busy_pes,
        } => {
            fields.push(format!("\"in_flight\":{in_flight},\"busy_pes\":{busy_pes}"));
        }
        EventKind::ArbiterDefer { wait_ns } => {
            fields.push(format!("\"wait_ns\":{wait_ns}"));
        }
        EventKind::QueueDepth { depth } => {
            fields.push(format!("\"depth\":{depth}"));
        }
        EventKind::ArbiterGrant | EventKind::Fault { .. } => {}
    }
    format!("{{{}}}", fields.join(","))
}

/// Renders `report` as chrome-trace JSON. Returns an empty
/// `traceEvents` document for empty reports, which still loads.
pub fn chrome_trace_json(report: &TraceReport) -> String {
    let clusters = report.clusters.len();
    let mut out = String::with_capacity(64 + report.events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };

    // Track-naming metadata.
    let mut seen = vec![false; clusters + 2];
    for ev in &report.events {
        let pid = pid_of(ev.track, clusters);
        if pid < seen.len() && !seen[pid] {
            seen[pid] = true;
            let name = match ev.track {
                CONTROLLER_TRACK => "controller".to_string(),
                GLOBAL_TRACK => "barrier-network".to_string(),
                c => format!("cluster {c}"),
            };
            sep(&mut out);
            push_meta(&mut out, pid, &name);
        }
    }

    for ev in &report.events {
        let pid = pid_of(ev.track, clusters);
        let ts = ev.stamp.micros();
        let name = ev.kind.name();
        let args = args_of(ev);
        sep(&mut out);
        match ev.kind {
            EventKind::PhaseStart { .. } => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"B\",\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{args}}}"
                ));
            }
            EventKind::PhaseEnd { .. } => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"phase\",\"ph\":\"E\",\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{args}}}"
                ));
            }
            EventKind::BarrierRelease { wait_ns } | EventKind::ArbiterDefer { wait_ns } => {
                // A complete slice ending at the stamp: start it wait_ns
                // earlier so the wait renders as occupancy.
                let dur = wait_ns as f64 / 1_000.0;
                let start = (ts - dur).max(0.0);
                let cat = if matches!(ev.kind, EventKind::BarrierRelease { .. }) {
                    "barrier"
                } else {
                    "arbiter"
                };
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                     \"ts\":{start},\"dur\":{dur},\"pid\":{pid},\"tid\":0,\"args\":{args}}}"
                ));
            }
            EventKind::Fault { .. } => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{args}}}"
                ));
            }
            _ => {
                out.push_str(&format!(
                    "{{\"name\":\"{name}\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":0,\"args\":{args}}}"
                ));
            }
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::event::{FaultKind, PhaseKind};

    fn report_with(events: Vec<TraceEvent>, clusters: usize) -> TraceReport {
        TraceReport {
            enabled: true,
            clusters: vec![Default::default(); clusters],
            events,
            ..Default::default()
        }
    }

    /// A structural validity check with no JSON parser available:
    /// balanced braces/brackets outside strings, balanced quotes, and no
    /// empty or trailing-comma elements.
    fn assert_well_formed(json: &str) {
        let mut depth_obj = 0i32;
        let mut depth_arr = 0i32;
        let mut in_str = false;
        let mut prev = ' ';
        for ch in json.chars() {
            if in_str {
                if ch == '"' && prev != '\\' {
                    in_str = false;
                }
            } else {
                match ch {
                    '"' => in_str = true,
                    '{' => depth_obj += 1,
                    '}' => depth_obj -= 1,
                    '[' => depth_arr += 1,
                    ']' => {
                        depth_arr -= 1;
                        assert_ne!(prev, ',', "trailing comma before ]");
                    }
                    ',' => assert_ne!(prev, ',', "empty element"),
                    _ => {}
                }
                assert!(depth_obj >= 0 && depth_arr >= 0);
            }
            prev = ch;
        }
        assert!(!in_str, "unterminated string");
        assert_eq!(depth_obj, 0, "unbalanced braces");
        assert_eq!(depth_arr, 0, "unbalanced brackets");
    }

    #[test]
    fn empty_report_is_a_loadable_document() {
        let json = chrome_trace_json(&TraceReport::default());
        assert_well_formed(&json);
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn phases_become_duration_slices() {
        let events = vec![
            TraceEvent {
                track: CONTROLLER_TRACK,
                stamp: Stamp::Sim(1_000),
                kind: EventKind::PhaseStart {
                    kind: PhaseKind::Propagate,
                    index: 0,
                },
            },
            TraceEvent {
                track: CONTROLLER_TRACK,
                stamp: Stamp::Sim(5_000),
                kind: EventKind::PhaseEnd {
                    kind: PhaseKind::Propagate,
                    index: 0,
                },
            },
        ];
        let json = chrome_trace_json(&report_with(events, 2));
        assert_well_formed(&json);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"name\":\"propagate\""));
        assert!(json.contains("\"name\":\"controller\""));
    }

    #[test]
    fn cluster_events_get_their_own_named_pids() {
        let events = vec![
            TraceEvent {
                track: 0,
                stamp: Stamp::Wall {
                    ns: 2_000,
                    phase: 1,
                },
                kind: EventKind::MsgSend {
                    from: 0,
                    to: 1,
                    hops: 1,
                },
            },
            TraceEvent {
                track: 1,
                stamp: Stamp::Wall {
                    ns: 3_000,
                    phase: 1,
                },
                kind: EventKind::MsgRecv { from: 0, to: 1 },
            },
            TraceEvent {
                track: 1,
                stamp: Stamp::Wall {
                    ns: 4_000,
                    phase: 1,
                },
                kind: EventKind::Fault {
                    kind: FaultKind::Drop,
                },
            },
        ];
        let json = chrome_trace_json(&report_with(events, 2));
        assert_well_formed(&json);
        assert!(json.contains("\"name\":\"cluster 0\""));
        assert!(json.contains("\"name\":\"cluster 1\""));
        assert!(json.contains("\"cat\":\"fault\""));
        assert!(json.contains("\"phase\":1"));
    }

    #[test]
    fn waits_become_complete_slices_with_duration() {
        let events = vec![TraceEvent {
            track: GLOBAL_TRACK,
            stamp: Stamp::Sim(10_000),
            kind: EventKind::BarrierRelease { wait_ns: 4_000 },
        }];
        let json = chrome_trace_json(&report_with(events, 1));
        assert_well_formed(&json);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":4"));
        assert!(json.contains("\"ts\":6"));
        assert!(json.contains("barrier-network"));
    }
}
