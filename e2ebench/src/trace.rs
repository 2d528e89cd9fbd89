//! An in-memory span tracer for the traced run.
//!
//! A span is `(name, start, end, parent)`. Spans nest through a per-thread
//! stack, so a span opened while another is open becomes its child. Every
//! closed span folds into per-name totals — count, total time and *self
//! time*, the span's duration minus the time its child spans cover. The
//! first [`RECORD_CAP`] spans are also kept verbatim and written out by
//! [`write_json`] when the benchmark ends.
//!
//! Tracing is off by default; [`span`] then returns an inert guard and reads
//! no clock, so the untraced run pays one thread-local flag test per call.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// How many spans are kept verbatim; later spans still count in the totals.
pub const RECORD_CAP: usize = 100_000;

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans closed.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ (duration − time covered by child spans), ns.
    pub self_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Record {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    record: Option<u32>,
}

struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<Open>,
    records: Vec<Record>,
    dropped: u64,
    totals: Vec<(&'static str, SpanTotals)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            stack: Vec::new(),
            records: Vec::new(),
            dropped: 0,
            totals: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str) {
        let start = Instant::now();
        let record = if self.records.len() < RECORD_CAP {
            let parent = self.stack.last().and_then(|o| o.record);
            self.records.push(Record {
                name,
                start_ns: nanos(start - self.origin),
                end_ns: 0,
                parent,
            });
            Some((self.records.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            record,
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span closed without being opened");
        let dur = nanos(end - open.start);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.record {
            self.records[i as usize].end_ns = nanos(end - self.origin);
        }
        let slot = match self.totals.iter().position(|(n, _)| *n == open.name) {
            Some(i) => i,
            None => {
                self.totals.push((open.name, SpanTotals::default()));
                self.totals.len() - 1
            }
        };
        let t = &mut self.totals[slot].1;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new());
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

/// Closes its span when dropped. Inert when tracing was off at creation.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            TRACER.with(|t| t.borrow_mut().close());
        }
    }
}

/// Open a span named `name`, a child of the innermost open span.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let active = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            t.open(name);
        }
        t.enabled
    });
    SpanGuard { active }
}

/// The totals of every span name closed since the last [`take_totals`],
/// and reset them. Verbatim records are kept.
pub fn take_totals() -> Vec<(&'static str, SpanTotals)> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().totals))
}

/// Write the verbatim span records and `totals` (per phase) to `path` as
/// JSON: `{"spans": [[name, start_ns, end_ns, parent], …], "dropped": n,
/// "phases": {phase: {name: {count, total_ns, self_ns}}}}`. Returns how
/// many spans were dropped past [`RECORD_CAP`].
pub fn write_json(
    path: &Path,
    phases: &[(&str, &[(&'static str, SpanTotals)])],
) -> std::io::Result<u64> {
    let mut out = String::new();
    let dropped = TRACER.with(|t| {
        let t = t.borrow();
        out.push_str("{\"spans\": [");
        for (i, r) in t.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  [\"{}\", {}, {}, {}]",
                if i == 0 { "" } else { "," },
                r.name,
                r.start_ns,
                r.end_ns,
                parent
            );
        }
        let _ = write!(out, "\n],\n\"dropped\": {},\n\"phases\": {{", t.dropped);
        t.dropped
    });
    for (i, (phase, totals)) in phases.iter().enumerate() {
        let _ = write!(out, "{}\n  \"{phase}\": {{", if i == 0 { "" } else { "," });
        for (j, (name, s)) in totals.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if j == 0 { "" } else { "," },
                s.count,
                s.total_ns,
                s.self_ns
            );
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)?;
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        set_enabled(true);
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        set_enabled(false);
        {
            let _ignored = span("off");
        }
        let totals = take_totals();
        let get = |n: &str| totals.iter().find(|(k, _)| *k == n).map(|(_, t)| *t);
        let outer = get("outer").expect("outer recorded");
        let inner = get("inner").expect("inner recorded");
        assert!(get("off").is_none());
        assert_eq!(outer.count, 1);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(take_totals().is_empty(), "take_totals resets");
    }
}
