//! JSONL event log: a replayable, diffable serialization of the stream.
//!
//! ## Recording and rendering
//!
//! `EventLog` does not format while the simulation runs. Each callback
//! appends a tag plus the exact integers its JSONL line prints to one
//! `Vec<u64>` *tape*: list fields (profit segments, window job lists) are
//! length-prefixed, and admission verdicts and reasons are small codes that
//! map back to [`AdmissionReason::token`]. The one exception is the platform
//! line, which fires at most once per run and is pre-rendered into a side
//! table the tape indexes. [`EventLog::to_jsonl`] is the only renderer; it
//! walks the tape and produces the text on demand.
//!
//! ## Equality
//!
//! Two logs are equal iff their recorded streams are: same tape, same
//! platform lines. The not-yet-flushed pending window is coalescing scratch
//! and takes no part. Because every tape entry is tagged, every list is
//! length-prefixed, and the tape holds exactly the integers the line prints
//! (every token string is a fixed function of a tag or code), rendering is
//! injective and parsing the JSONL back recovers the tape. Hence
//! `a == b` ⇔ `a.to_jsonl() == b.to_jsonl()` — exact equality, not a hash —
//! and differential checks can compare logs without rendering them.
//!
//! ## Cross-path byte-identity
//!
//! The reference path reports each tick as a width-1 window while the
//! fast-forward path reports whole stable stretches, so the raw streams
//! differ in granularity (and in nothing else — see the engine's
//! `observe` module docs). `EventLog` therefore **coalesces** adjacent
//! windows that are provably the same stable stretch — contiguous in time,
//! identical job view, identical allocation — by summing their widths and
//! per-job progress. After coalescing, the two paths serialize to
//! byte-identical JSONL, which the stream-equivalence tests assert over the
//! differential corpus.
//!
//! The format is deliberately dependency-free (hand-rolled JSON of integers
//! and fixed token strings — nothing needs escaping).

use dagsched_core::{JobId, MachineGroups, NodeId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, AdmissionReason, JobInfo, SimObserver};
use std::fmt::Write as _;

/// Tape tags, one per event kind.
const START: u64 = 0;
const PLATFORM: u64 = 1;
const ARRIVE: u64 = 2;
const ADMISSION: u64 = 3;
const WINDOW: u64 = 4;
const NODE: u64 = 5;
const COMPLETE: u64 = 6;
const EXPIRE: u64 = 7;
const END: u64 = 8;

/// Admission verdict codes; a non-zero verdict is followed by a reason code.
const ADMITTED: u64 = 0;
const DEFERRED: u64 = 1;
const REJECTED: u64 = 2;

/// Reason codes are indices into this table.
const REASONS: [AdmissionReason; 7] = [
    AdmissionReason::BandCapacity,
    AdmissionReason::NotDeltaGood,
    AdmissionReason::Infeasible,
    AdmissionReason::DemandBound,
    AdmissionReason::SpanInfeasible,
    AdmissionReason::DeadlinePassed,
    AdmissionReason::Unconditional,
];

fn reason_code(r: AdmissionReason) -> u64 {
    REASONS
        .iter()
        .position(|&x| x == r)
        .expect("every reason is coded") as u64
}

/// The window awaiting possible coalescing with its successor. Its buffers
/// are reused across windows; `open` says whether they hold one.
#[derive(Debug, Default)]
struct PendingWindow {
    open: bool,
    at: Time,
    ticks: u64,
    jobs: Vec<(JobId, u32)>,
    alloc: Vec<(JobId, u32)>,
    progress: Vec<(JobId, u64)>,
}

/// Observer recording the full event stream, rendered as JSON lines on
/// demand. Equality compares the recorded streams (see the module docs).
#[derive(Debug, Default)]
pub struct EventLog {
    tape: Vec<u64>,
    platforms: Vec<String>,
    pending: PendingWindow,
}

impl PartialEq for EventLog {
    fn eq(&self, other: &EventLog) -> bool {
        self.tape == other.tape && self.platforms == other.platforms
    }
}

impl Eq for EventLog {}

fn push_pairs<T: Copy + Into<u64>>(tape: &mut Vec<u64>, items: &[(JobId, T)]) {
    tape.push(items.len() as u64);
    for &(id, v) in items {
        tape.extend([u64::from(id.0), v.into()]);
    }
}

/// Reads the tape front to back while rendering.
struct Cursor<'a>(std::slice::Iter<'a, u64>);

impl Cursor<'_> {
    fn next(&mut self) -> u64 {
        *self.0.next().expect("tape entry is complete")
    }

    fn pairs(&mut self, out: &mut String) {
        out.push('[');
        for i in 0..self.next() {
            if i > 0 {
                out.push(',');
            }
            let (id, v) = (self.next(), self.next());
            let _ = write!(out, "[{id},{v}]");
        }
        out.push(']');
    }
}

impl EventLog {
    /// Create an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// The whole log as one JSONL string (trailing newline included).
    /// Complete only after `on_end` (which flushes the last pending window).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.tape.len() * 8);
        let mut c = Cursor(self.tape.iter());
        let mut first = true;
        while let Some(&tag) = c.0.next() {
            if !first {
                out.push('\n');
            }
            first = false;
            match tag {
                START => {
                    let (m, num, den, horizon) = (c.next(), c.next(), c.next(), c.next());
                    let _ = write!(
                        out,
                        r#"{{"ev":"start","m":{m},"speed":[{num},{den}],"horizon":{horizon}}}"#
                    );
                }
                PLATFORM => out.push_str(&self.platforms[c.next() as usize]),
                ARRIVE => {
                    let (t, job, w, l) = (c.next(), c.next(), c.next(), c.next());
                    let _ = write!(
                        out,
                        r#"{{"ev":"arrive","t":{t},"job":{job},"w":{w},"l":{l},"profit":"#
                    );
                    c.pairs(&mut out);
                    let _ = write!(out, r#","tail":{}}}"#, c.next());
                }
                ADMISSION => {
                    let (t, job) = (c.next(), c.next());
                    let verdict = c.next();
                    let word = match verdict {
                        ADMITTED => "admitted",
                        DEFERRED => "deferred",
                        _ => "rejected",
                    };
                    let _ = write!(
                        out,
                        r#"{{"ev":"admission","t":{t},"job":{job},"decision":"{word}""#
                    );
                    if verdict != ADMITTED {
                        let reason = REASONS[c.next() as usize].token();
                        let _ = write!(out, r#","reason":"{reason}""#);
                    }
                    out.push('}');
                }
                WINDOW => {
                    let (t, ticks) = (c.next(), c.next());
                    let _ = write!(out, r#"{{"ev":"window","t":{t},"ticks":{ticks},"jobs":"#);
                    c.pairs(&mut out);
                    out.push_str(r#","alloc":"#);
                    c.pairs(&mut out);
                    out.push_str(r#","progress":"#);
                    c.pairs(&mut out);
                    out.push('}');
                }
                NODE => {
                    let (t, job, node) = (c.next(), c.next(), c.next());
                    let _ = write!(out, r#"{{"ev":"node","t":{t},"job":{job},"node":{node}}}"#);
                }
                COMPLETE => {
                    let (t, job, profit) = (c.next(), c.next(), c.next());
                    let _ = write!(
                        out,
                        r#"{{"ev":"complete","t":{t},"job":{job},"profit":{profit}}}"#
                    );
                }
                EXPIRE => {
                    let (t, job) = (c.next(), c.next());
                    let _ = write!(out, r#"{{"ev":"expire","t":{t},"job":{job}}}"#);
                }
                END => {
                    let _ = write!(out, r#"{{"ev":"end","t":{}}}"#, c.next());
                }
                _ => unreachable!("unknown tape tag {tag}"),
            }
        }
        out.push('\n');
        out
    }

    fn flush_window(&mut self) {
        let w = &mut self.pending;
        if !w.open {
            return;
        }
        w.open = false;
        self.tape.extend([WINDOW, w.at.ticks(), w.ticks]);
        push_pairs(&mut self.tape, &w.jobs);
        push_pairs(&mut self.tape, &w.alloc);
        push_pairs(&mut self.tape, &w.progress);
    }
}

impl SimObserver for EventLog {
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        self.tape.extend([
            START,
            u64::from(m),
            speed.units_per_tick(),
            speed.work_scale(),
            horizon.ticks(),
        ]);
    }

    fn on_platform(&mut self, groups: &MachineGroups) {
        // Fires only on non-uniform platforms, so uniform streams are
        // untouched; at most once per run, so it may render eagerly.
        let mut line = format!(
            r#"{{"ev":"platform","groups":"{groups}","scale":{},"units":["#,
            groups.work_scale()
        );
        for (i, u) in groups.units_per_group().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{u}");
        }
        line.push_str("]}");
        self.tape.extend([PLATFORM, self.platforms.len() as u64]);
        self.platforms.push(line);
    }

    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        self.flush_window();
        self.tape.extend([
            ARRIVE,
            now.ticks(),
            u64::from(info.id.0),
            info.work.units(),
            info.span.units(),
        ]);
        let segments = info.profit.segments();
        self.tape.push(segments.len() as u64);
        for &(t, p) in segments {
            self.tape.extend([t.ticks(), p]);
        }
        self.tape.push(info.profit.tail_value());
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        self.flush_window();
        self.tape
            .extend([ADMISSION, now.ticks(), u64::from(event.job.0)]);
        match event.decision {
            AdmissionDecision::Admitted => self.tape.push(ADMITTED),
            AdmissionDecision::Deferred(r) => self.tape.extend([DEFERRED, reason_code(r)]),
            AdmissionDecision::Rejected(r) => self.tape.extend([REJECTED, reason_code(r)]),
        }
    }

    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        let p = &mut self.pending;
        // Same stable stretch: contiguous, same view, same allocation.
        if p.open && at == p.at.after(p.ticks) && p.jobs == jobs && p.alloc == alloc {
            p.ticks += ticks;
            for (acc, &(id, delta)) in p.progress.iter_mut().zip(progress) {
                debug_assert_eq!(acc.0, id);
                acc.1 += delta;
            }
            return;
        }
        self.flush_window();
        let p = &mut self.pending;
        p.open = true;
        p.at = at;
        p.ticks = ticks;
        p.jobs.clear();
        p.jobs.extend_from_slice(jobs);
        p.alloc.clear();
        p.alloc.extend_from_slice(alloc);
        p.progress.clear();
        p.progress.extend_from_slice(progress);
    }

    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        self.flush_window();
        self.tape
            .extend([NODE, at.ticks(), u64::from(job.0), u64::from(node.0)]);
    }

    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        self.flush_window();
        self.tape
            .extend([COMPLETE, at.ticks(), u64::from(job.0), profit]);
    }

    fn on_job_expired(&mut self, at: Time, job: JobId) {
        self.flush_window();
        self.tape.extend([EXPIRE, at.ticks(), u64::from(job.0)]);
    }

    fn on_end(&mut self, at: Time) {
        self.flush_window();
        self.tape.extend([END, at.ticks()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_identical_windows_coalesce() {
        let mut log = EventLog::new();
        log.on_start(2, Speed::ONE, Time(100));
        let jobs = [(JobId(0), 3u32)];
        let alloc = [(JobId(0), 2u32)];
        // Three width-1 windows of the same stable stretch...
        for t in 0..3u64 {
            log.on_window(Time(t), 1, &jobs, &alloc, &[(JobId(0), 2)]);
        }
        // ...then the allocation changes.
        log.on_window(Time(3), 1, &jobs, &[(JobId(0), 1)], &[(JobId(0), 1)]);
        log.on_end(Time(4));
        let text = log.to_jsonl();
        let windows: Vec<&str> = text
            .lines()
            .filter(|l| l.contains(r#""ev":"window""#))
            .collect();
        assert_eq!(windows.len(), 2, "3 + 1 ticks must fold into 2 windows");
        assert!(windows[0].contains(r#""ticks":3"#), "{}", windows[0]);
        assert!(
            windows[0].contains("[[0,6]]"),
            "summed progress: {}",
            windows[0]
        );
        assert!(windows[1].contains(r#""ticks":1"#));
    }

    #[test]
    fn non_contiguous_windows_do_not_coalesce() {
        let mut log = EventLog::new();
        let jobs = [(JobId(0), 1u32)];
        let alloc = [(JobId(0), 1u32)];
        log.on_window(Time(0), 1, &jobs, &alloc, &[(JobId(0), 1)]);
        // Gap at t=1 (idle skip): same alloc but not contiguous.
        log.on_window(Time(5), 1, &jobs, &alloc, &[(JobId(0), 1)]);
        log.on_end(Time(6));
        let windows = log
            .to_jsonl()
            .lines()
            .filter(|l| l.contains(r#""ev":"window""#))
            .count();
        assert_eq!(windows, 2);
    }

    #[test]
    fn every_event_kind_serializes_one_line() {
        use dagsched_core::Work;
        use dagsched_workload::StepProfitFn;
        let mut log = EventLog::new();
        log.on_start(4, Speed::new(3, 2).unwrap(), Time(50));
        log.on_job_arrival(
            Time(0),
            &JobInfo {
                id: JobId(1),
                arrival: Time(0),
                work: Work(10),
                span: Work(2),
                profit: StepProfitFn::deadline(Time(9), 4),
            },
        );
        log.on_admission(
            Time(0),
            AdmissionEvent {
                job: JobId(1),
                decision: AdmissionDecision::Admitted,
            },
        );
        log.on_window(
            Time(0),
            2,
            &[(JobId(1), 1)],
            &[(JobId(1), 1)],
            &[(JobId(1), 6)],
        );
        log.on_node_complete(Time(2), JobId(1), NodeId(0));
        log.on_job_complete(Time(3), JobId(1), 4);
        log.on_job_expired(Time(3), JobId(2));
        log.on_end(Time(3));
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines[0].contains(r#""speed":[3,2]"#));
        assert!(lines[1].contains(r#""profit":[[9,4]]"#));
        assert!(lines[2].contains(r#""decision":"admitted""#));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn equality_ignores_the_pending_window() {
        let mut a = EventLog::new();
        let mut b = EventLog::new();
        for log in [&mut a, &mut b] {
            log.on_start(2, Speed::ONE, Time(10));
        }
        b.on_window(Time(0), 1, &[(JobId(0), 1)], &[(JobId(0), 1)], &[]);
        assert_eq!(a, b, "an unflushed window is not yet recorded");
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        a.on_end(Time(1));
        b.on_end(Time(1));
        assert_ne!(a, b, "flushed, the window is part of the stream");
        assert_ne!(a.to_jsonl(), b.to_jsonl());
    }

    /// Pins the exact JSONL bytes of a hand-driven stream touching every
    /// event kind, every verdict and reason token, a multi-segment profit
    /// with a tail, a platform line, an all-empty window and a coalesced
    /// window. Any change to this text is a format change.
    #[test]
    fn jsonl_bytes_are_pinned() {
        use dagsched_core::Work;
        use dagsched_engine::AdmissionReason as R;
        use dagsched_workload::StepProfitFn;
        let mut log = EventLog::new();
        log.on_start(3, Speed::new(3, 2).unwrap(), Time(40));
        log.on_platform(&"2x1,1x3/2".parse().unwrap());
        log.on_job_arrival(
            Time(0),
            &JobInfo {
                id: JobId(7),
                arrival: Time(0),
                work: Work(12),
                span: Work(3),
                profit: StepProfitFn::steps(vec![(Time(5), 9), (Time(8), 4)], 2).unwrap(),
            },
        );
        let decisions = [
            AdmissionDecision::Admitted,
            AdmissionDecision::Deferred(R::BandCapacity),
            AdmissionDecision::Rejected(R::NotDeltaGood),
            AdmissionDecision::Rejected(R::Infeasible),
            AdmissionDecision::Deferred(R::DemandBound),
            AdmissionDecision::Rejected(R::SpanInfeasible),
            AdmissionDecision::Rejected(R::DeadlinePassed),
            AdmissionDecision::Deferred(R::Unconditional),
        ];
        for (i, decision) in decisions.into_iter().enumerate() {
            log.on_admission(
                Time(0),
                AdmissionEvent {
                    job: JobId(i as u32),
                    decision,
                },
            );
        }
        log.on_window(Time(0), 1, &[], &[], &[]);
        let jobs = [(JobId(7), 2u32), (JobId(8), 1)];
        let alloc = [(JobId(7), 2u32)];
        log.on_window(Time(1), 2, &jobs, &alloc, &[(JobId(7), 6), (JobId(8), 0)]);
        log.on_window(Time(3), 1, &jobs, &alloc, &[(JobId(7), 3), (JobId(8), 0)]);
        log.on_node_complete(Time(4), JobId(7), NodeId(2));
        log.on_job_complete(Time(4), JobId(7), 9);
        log.on_job_expired(Time(5), JobId(8));
        log.on_end(Time(5));
        let expected = concat!(
            r#"{"ev":"start","m":3,"speed":[3,2],"horizon":40}"#,
            "\n",
            r#"{"ev":"platform","groups":"2x1,1x3/2","scale":2,"units":[2,3]}"#,
            "\n",
            r#"{"ev":"arrive","t":0,"job":7,"w":12,"l":3,"profit":[[5,9],[8,4]],"tail":2}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":0,"decision":"admitted"}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":1,"decision":"deferred","reason":"band-capacity"}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":2,"decision":"rejected","reason":"not-delta-good"}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":3,"decision":"rejected","reason":"infeasible"}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":4,"decision":"deferred","reason":"demand-bound"}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":5,"decision":"rejected","reason":"span-infeasible"}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":6,"decision":"rejected","reason":"deadline-passed"}"#,
            "\n",
            r#"{"ev":"admission","t":0,"job":7,"decision":"deferred","reason":"unconditional"}"#,
            "\n",
            r#"{"ev":"window","t":0,"ticks":1,"jobs":[],"alloc":[],"progress":[]}"#,
            "\n",
            r#"{"ev":"window","t":1,"ticks":3,"jobs":[[7,2],[8,1]],"alloc":[[7,2]],"progress":[[7,9],[8,0]]}"#,
            "\n",
            r#"{"ev":"node","t":4,"job":7,"node":2}"#,
            "\n",
            r#"{"ev":"complete","t":4,"job":7,"profit":9}"#,
            "\n",
            r#"{"ev":"expire","t":5,"job":8}"#,
            "\n",
            r#"{"ev":"end","t":5}"#,
            "\n",
        );
        assert_eq!(log.to_jsonl(), expected);
    }
}
