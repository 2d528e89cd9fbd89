//! JSONL event log: a replayable, diffable serialization of the stream.
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
use dagsched_engine::{AdmissionDecision, AdmissionEvent, JobInfo, SimObserver};
use std::fmt::Write as _;

/// A not-yet-flushed window, pending possible coalescing with its successor.
#[derive(Debug)]
struct PendingWindow {
    at: Time,
    ticks: u64,
    jobs: Vec<(JobId, u32)>,
    alloc: Vec<(JobId, u32)>,
    progress: Vec<(JobId, u64)>,
}

/// Observer serializing the full event stream to JSON lines.
#[derive(Debug, Default)]
pub struct EventLog {
    lines: Vec<String>,
    pending: Option<PendingWindow>,
}

fn pairs<T: Copy + Into<u64>>(out: &mut String, items: &[(JobId, T)]) {
    out.push('[');
    for (i, &(id, v)) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", id.0, v.into());
    }
    out.push(']');
}

impl EventLog {
    /// Create an empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// The serialized lines. Complete only after `on_end` (which flushes the
    /// last pending window).
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The whole log as one JSONL string (trailing newline included).
    pub fn to_jsonl(&self) -> String {
        let mut s = self.lines.join("\n");
        s.push('\n');
        s
    }

    fn flush_window(&mut self) {
        if let Some(w) = self.pending.take() {
            let mut line = format!(
                r#"{{"ev":"window","t":{},"ticks":{},"jobs":"#,
                w.at.ticks(),
                w.ticks
            );
            pairs(&mut line, &w.jobs);
            line.push_str(r#","alloc":"#);
            pairs(&mut line, &w.alloc);
            line.push_str(r#","progress":"#);
            pairs(&mut line, &w.progress);
            line.push('}');
            self.lines.push(line);
        }
    }
}

impl SimObserver for EventLog {
    fn on_start(&mut self, m: u32, speed: Speed, horizon: Time) {
        self.lines.push(format!(
            r#"{{"ev":"start","m":{m},"speed":[{},{}],"horizon":{}}}"#,
            speed.units_per_tick(),
            speed.work_scale(),
            horizon.ticks()
        ));
    }

    fn on_platform(&mut self, groups: &MachineGroups) {
        // Fires only on non-uniform platforms, so uniform streams are
        // untouched.
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
        self.lines.push(line);
    }

    fn on_job_arrival(&mut self, now: Time, info: &JobInfo) {
        self.flush_window();
        let mut line = format!(
            r#"{{"ev":"arrive","t":{},"job":{},"w":{},"l":{},"profit":["#,
            now.ticks(),
            info.id.0,
            info.work.units(),
            info.span.units()
        );
        for (i, &(t, p)) in info.profit.segments().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "[{},{p}]", t.ticks());
        }
        let _ = write!(line, r#"],"tail":{}}}"#, info.profit.tail_value());
        self.lines.push(line);
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        self.flush_window();
        let (verdict, reason) = match event.decision {
            AdmissionDecision::Admitted => ("admitted", None),
            AdmissionDecision::Deferred(r) => ("deferred", Some(r)),
            AdmissionDecision::Rejected(r) => ("rejected", Some(r)),
        };
        let mut line = format!(
            r#"{{"ev":"admission","t":{},"job":{},"decision":"{verdict}""#,
            now.ticks(),
            event.job.0
        );
        if let Some(r) = reason {
            let _ = write!(line, r#","reason":"{}""#, r.token());
        }
        line.push('}');
        self.lines.push(line);
    }

    fn on_window(
        &mut self,
        at: Time,
        ticks: u64,
        jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        progress: &[(JobId, u64)],
    ) {
        if let Some(p) = self.pending.as_mut() {
            // Same stable stretch: contiguous, same view, same allocation.
            if at == p.at.after(p.ticks) && p.jobs == jobs && p.alloc == alloc {
                p.ticks += ticks;
                for (acc, &(id, delta)) in p.progress.iter_mut().zip(progress) {
                    debug_assert_eq!(acc.0, id);
                    acc.1 += delta;
                }
                return;
            }
        }
        self.flush_window();
        self.pending = Some(PendingWindow {
            at,
            ticks,
            jobs: jobs.to_vec(),
            alloc: alloc.to_vec(),
            progress: progress.to_vec(),
        });
    }

    fn on_node_complete(&mut self, at: Time, job: JobId, node: NodeId) {
        self.flush_window();
        self.lines.push(format!(
            r#"{{"ev":"node","t":{},"job":{},"node":{}}}"#,
            at.ticks(),
            job.0,
            node.0
        ));
    }

    fn on_job_complete(&mut self, at: Time, job: JobId, profit: u64) {
        self.flush_window();
        self.lines.push(format!(
            r#"{{"ev":"complete","t":{},"job":{},"profit":{profit}}}"#,
            at.ticks(),
            job.0
        ));
    }

    fn on_job_expired(&mut self, at: Time, job: JobId) {
        self.flush_window();
        self.lines.push(format!(
            r#"{{"ev":"expire","t":{},"job":{}}}"#,
            at.ticks(),
            job.0
        ));
    }

    fn on_end(&mut self, at: Time) {
        self.flush_window();
        self.lines
            .push(format!(r#"{{"ev":"end","t":{}}}"#, at.ticks()));
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
        let windows: Vec<&String> = log
            .lines()
            .iter()
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
            .lines()
            .iter()
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
        assert_eq!(log.lines().len(), 8);
        assert!(log.lines()[0].contains(r#""speed":[3,2]"#));
        assert!(log.lines()[1].contains(r#""profit":[[9,4]]"#));
        assert!(log.lines()[2].contains(r#""decision":"admitted""#));
        assert!(log.to_jsonl().ends_with("}\n"));
    }
}
