//! One benchmark run of one workload: set-up, references, the timed loop,
//! and the metrics — end to end (untraced) or per layer (traced).

use crate::layers::{EngineCounts, REASONS};
use crate::report::{median, peak_rss_mb, quantile, ratio, Metrics};
use crate::trace::{self, SpanTotals};
use crate::workloads::{Case, Kind, LayerOp, OpOutcome, Size, Workload};
use dagsched_engine::SimResult;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The end-to-end metrics the result line carries, in order.
pub const END_TO_END: [&str; 4] = ["run_ms_p75", "run_ms_p90", "setup_s", "peak_rss_mb"];

/// The per-layer metrics the traced result line carries, in order. A
/// layer a workload bypasses reads 0.
pub const PER_LAYER: [&str; 44] = [
    "workload.gen_ms",
    "workload.jobs",
    "workload.nodes",
    "workload.work",
    "engine.steps",
    "engine.ticks",
    "engine.skip_frac",
    "engine.self_ms",
    "engine.ns_per_step",
    "engine.naive_ms",
    "engine.ff_gain",
    "engine.arrivals",
    "engine.windows",
    "engine.node_completions",
    "engine.job_completions",
    "engine.expiries",
    "sched.arrival_ms",
    "sched.arrival_calls",
    "sched.alloc_ms",
    "sched.alloc_calls",
    "sched.delta_hit_frac",
    "sched.exit_ms",
    "sched.stable_until_calls",
    "sched.stable_until_ms",
    "sched.admit_frac",
    "sched.reject.band-capacity",
    "sched.reject.not-delta-good",
    "sched.reject.infeasible",
    "sched.reject.demand-bound",
    "sched.reject.span-infeasible",
    "sched.reject.deadline-passed",
    "sched.reject.unconditional",
    "sched.profit_frac",
    "verify.invariant_overhead",
    "verify.violations",
    "fuzz.execs",
    "fuzz.features",
    "fuzz.failures",
    "experiments.t1_ms",
    "experiments.tn_ms",
    "experiments.parallel_eff",
    "experiments.instances",
    "opt.ub_ms",
    "trace.overhead_frac",
];

/// Set-up is repeated at least this many times per run, and for at least
/// [`SETUP_MIN_S`], and its median reported. The time floor spreads cheap
/// set-ups over more than one stretch of the host's contention.
pub const SETUP_REPS: usize = 5;

/// See [`SETUP_REPS`].
pub const SETUP_MIN_S: f64 = 2.0;

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
}

/// A finished run.
#[derive(Debug)]
pub struct RunOutput {
    /// Every metric measured, end-to-end or per-layer.
    pub metrics: Metrics,
    /// Outputs checked.
    pub attempted: u64,
    /// Why each failed check failed.
    pub failures: Vec<String>,
    /// Findings that are measurements, not failed checks (invariant
    /// violations reported by the verify layer).
    pub notes: Vec<String>,
}

impl RunOutput {
    /// The result line: the metrics of [`END_TO_END`] or [`PER_LAYER`].
    pub fn json(&self, trace: bool) -> String {
        let keep: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
        self.metrics.json(
            keep,
            self.failures.is_empty(),
            self.attempted,
            self.failures.len() as u64,
        )
    }
}

/// Where the traced run writes its spans.
pub fn trace_path(kind: Kind, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-{seed}.json", kind.name()))
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run one workload end to end or traced, per `args`.
pub fn run(args: &Args) -> RunOutput {
    trace::set_enabled(args.trace);
    let mut setup_s = Vec::new();
    let mut gen_ms = Vec::new();
    let mut w: Option<Workload> = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_S {
        // One workload alive at a time, so repeating set-up leaves the
        // peak memory of a single set-up.
        drop(w.take());
        let t = Instant::now();
        let wl = Workload::setup(args.kind, args.seed, args.size);
        gen_ms.push(ms_since(t));
        wl.warm();
        setup_s.push(t.elapsed().as_secs_f64());
        w = Some(wl);
    }
    let mut w = w.expect("set-up ran");
    let setup_spans = trace::take_totals();
    trace::set_enabled(false);
    let naive_ms = w.prepare_reference(args.trace);
    if args.trace {
        traced_run(args, &mut w, median(&mut gen_ms), naive_ms, &setup_spans)
    } else {
        end_to_end_run(args, &mut w, &mut setup_s)
    }
}

fn end_to_end_run(args: &Args, w: &mut Workload, setup_s: &mut [f64]) -> RunOutput {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut ops: Vec<OpOutcome> = Vec::new();
    while ops.is_empty() || Instant::now() < deadline {
        ops.push(w.op());
    }
    let total_s: f64 = ops.iter().map(|o| o.ms).sum::<f64>() / 1e3;
    let sum = |f: fn(&OpOutcome) -> u64| ops.iter().map(f).sum::<u64>() as f64;
    let mut ms: Vec<f64> = ops.iter().map(|o| o.ms).collect();
    let (p75, _) = quantile(&mut ms, 0.75);
    let (p90, beyond) = quantile(&mut ms, 0.9);
    let attempted = sum(|o| o.checked);
    let failures: Vec<String> = ops.iter().flat_map(|o| o.failures.clone()).collect();

    // The result line carries p75 and p90, not p50. On a host whose speed
    // flips between contended and uncontended stretches, the median jumps
    // between the two speeds as the stretch mix of a run changes; the upper
    // quantiles stay on the contended speed, which every run spends at
    // least a quarter of its ops in.
    let n = ops.len();
    let mut m = Metrics::default();
    m.note("run_ms_p75", p75, "ms", format!("{n} ops"));
    m.note(
        "run_ms_p90",
        p90,
        "ms",
        format!("{beyond} of {n} ops beyond it"),
    );
    m.note(
        "setup_s",
        median(setup_s),
        "s",
        format!("median of {} set-ups", setup_s.len()),
    );
    m.push("peak_rss_mb", peak_rss_mb(), "MiB");
    m.note(
        "run_ms_p50",
        median(&mut ms),
        "ms",
        "moves with the host's contention mix",
    );
    if args.kind != Kind::Fuzz {
        m.push("jobs_per_s", sum(|o| o.jobs) / total_s, "jobs/s");
        m.note(
            "profit_frac",
            ratio(sum(|o| o.profit), sum(|o| o.offered)),
            "ratio",
            "profit earned / offered",
        );
    }
    match args.kind {
        Kind::Grid => m.push("cells_per_s", sum(|o| o.items) / total_s, "cells/s"),
        Kind::Fuzz => m.push("execs_per_s", sum(|o| o.items) / total_s, "execs/s"),
        _ => {}
    }
    m.note(
        "fail_frac",
        ratio(failures.len() as f64, attempted),
        "ratio",
        format!("{} of {attempted} checks failed", failures.len()),
    );
    RunOutput {
        metrics: m,
        attempted: attempted as u64,
        failures,
        notes: Vec::new(),
    }
}

fn get(totals: &[(&'static str, SpanTotals)], name: &str) -> SpanTotals {
    totals
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(SpanTotals::default(), |(_, t)| *t)
}

fn traced_run(
    args: &Args,
    w: &mut Workload,
    gen_ms: f64,
    naive_ms: f64,
    setup_spans: &[(&'static str, SpanTotals)],
) -> RunOutput {
    // Alternate untraced and traced layer ops so both see the same machine.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut plain: Vec<LayerOp> = Vec::new();
    let mut traced: Vec<LayerOp> = Vec::new();
    while traced.is_empty() || Instant::now() < deadline {
        plain.push(w.layer_op(false));
        trace::set_enabled(true);
        traced.push(w.layer_op(true));
        trace::set_enabled(false);
    }
    let spans = trace::take_totals();

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    for op in plain.iter().chain(&traced) {
        attempted += op.outcome.checked;
        failures.extend(op.outcome.failures.iter().cloned());
    }
    // An observed run must still produce the naive path's schedule.
    let mut check_observed = |c: &Case, r: &SimResult| {
        attempted += 1;
        if !r.same_outcome(c.reference.as_ref().expect("reference prepared")) {
            failures.push(format!(
                "{}: observed run differs from the naive path",
                c.label
            ));
        }
    };

    // Deterministic counts: one observed run per case.
    let mut counts = EngineCounts::default();
    for c in &w.cases {
        let (r, k) = c.run_counted();
        counts.add(&k);
        check_observed(c, &r);
    }

    // Invariant-suite overhead on the cases it models, median of 3. The
    // suite's verdicts are a measurement of the verify layer, reported as
    // `verify.violations` and listed as notes; the suite run's schedule
    // is an output, checked against the naive path like every other.
    let mut overhead = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    let checked: Vec<_> = w.cases.iter().filter(|c| c.invariants_apply()).collect();
    if !checked.is_empty() {
        for rep in 0..3 {
            let (mut plain_ms, mut suite_ms) = (0.0, 0.0);
            for c in &checked {
                let t = Instant::now();
                std::hint::black_box(c.run());
                plain_ms += ms_since(t);
                let t = Instant::now();
                let (r, found) = c.run_with_invariants();
                suite_ms += ms_since(t);
                check_observed(c, &r);
                if rep == 0 {
                    violations.extend(found.into_iter().map(|v| format!("{}: {v}", c.label)));
                }
            }
            overhead.push(suite_ms / plain_ms);
        }
    }
    let sweep = w.sweep_timings(3);
    let extra_spans = trace::take_totals();

    let n = traced.len() as f64;
    // Counts repeat on every op, except that each fuzz session draws a fresh
    // master seed; the first traced op is the same on every run of a seed.
    let first = traced.first().expect("at least one traced op");
    let step = get(&spans, "engine.step");
    let per_op_ms = |name: &str| get(&spans, name).total_ns as f64 / n / 1e6;
    let per_op_calls = |name: &str| get(&spans, name).count as f64 / n;
    let mut plain_ms: Vec<f64> = plain.iter().map(|o| o.outcome.ms).collect();
    let mut traced_ms: Vec<f64> = traced.iter().map(|o| o.outcome.ms).collect();
    let mut plain_sim_ms: Vec<f64> = plain.iter().map(|o| o.sim_ms).collect();
    let calls = traced.iter().fold((0, 0), |(c, h), o| {
        (c + o.calls.delta_calls, h + o.calls.delta_hits)
    });

    let mut m = Metrics::default();
    let f = w.facts;
    m.push("workload.gen_ms", gen_ms, "ms");
    m.push("workload.jobs", f.jobs as f64, "count");
    m.push("workload.nodes", f.nodes as f64, "count");
    m.push("workload.work", f.work as f64, "count");
    m.push("engine.steps", first.steps as f64, "count");
    m.push("engine.ticks", first.ticks as f64, "count");
    m.push(
        "engine.skip_frac",
        if first.ticks == 0 {
            0.0
        } else {
            1.0 - first.steps as f64 / first.ticks as f64
        },
        "ratio",
    );
    m.push("engine.self_ms", step.self_ns as f64 / n / 1e6, "ms");
    m.push(
        "engine.ns_per_step",
        ratio(step.self_ns as f64, first.steps as f64 * n),
        "ns",
    );
    m.push("engine.naive_ms", naive_ms, "ms");
    m.note(
        "engine.ff_gain",
        ratio(naive_ms, median(&mut plain_sim_ms)),
        "ratio",
        "naive ms / default ms",
    );
    m.push("engine.arrivals", counts.arrivals as f64, "count");
    m.push("engine.windows", counts.windows as f64, "count");
    m.push(
        "engine.node_completions",
        counts.node_completions as f64,
        "count",
    );
    m.push(
        "engine.job_completions",
        counts.job_completions as f64,
        "count",
    );
    m.push("engine.expiries", counts.expiries as f64, "count");
    m.push("sched.arrival_ms", per_op_ms("sched.arrival"), "ms");
    m.push(
        "sched.arrival_calls",
        per_op_calls("sched.arrival"),
        "count",
    );
    m.push("sched.alloc_ms", per_op_ms("sched.alloc"), "ms");
    m.push("sched.alloc_calls", per_op_calls("sched.alloc"), "count");
    m.push(
        "sched.delta_hit_frac",
        ratio(calls.1 as f64, calls.0 as f64),
        "ratio",
    );
    m.push("sched.exit_ms", per_op_ms("sched.exit"), "ms");
    m.push(
        "sched.stable_until_calls",
        per_op_calls("sched.stable_until"),
        "count",
    );
    m.push(
        "sched.stable_until_ms",
        per_op_ms("sched.stable_until"),
        "ms",
    );
    m.push(
        "sched.admit_frac",
        ratio(counts.admitted as f64, counts.arrivals as f64),
        "ratio",
    );
    for (r, k) in REASONS.iter().zip(counts.declined) {
        m.push(format!("sched.reject.{}", r.token()), k as f64, "count");
    }
    m.push(
        "sched.profit_frac",
        ratio(first.outcome.profit as f64, first.outcome.offered as f64),
        "ratio",
    );
    m.note(
        "verify.invariant_overhead",
        median(&mut overhead),
        "ratio",
        "suite ms / plain ms",
    );
    m.push("verify.violations", violations.len() as f64, "count");
    let fuzz = first.fuzz.as_ref();
    m.push("fuzz.execs", fuzz.map_or(0, |r| r.execs) as f64, "count");
    m.push(
        "fuzz.features",
        fuzz.map_or(0, |r| r.features) as f64,
        "count",
    );
    m.push(
        "fuzz.failures",
        fuzz.map_or(0, |r| r.failures.len()) as f64,
        "count",
    );
    let (t1, tn, threads, instances) = sweep.unwrap_or((0.0, 0.0, 0, 0));
    m.push("experiments.t1_ms", t1, "ms");
    m.note("experiments.tn_ms", tn, "ms", format!("{threads} threads"));
    m.push(
        "experiments.parallel_eff",
        ratio(t1, threads as f64 * tn),
        "ratio",
    );
    m.push("experiments.instances", instances as f64, "count");
    m.push("opt.ub_ms", per_op_ms("opt.ub"), "ms");
    m.note(
        "trace.overhead_frac",
        median(&mut traced_ms) / median(&mut plain_ms) - 1.0,
        "ratio",
        "traced wall / untraced wall - 1",
    );
    m.push("trace.ops", n, "count");
    let path = trace_path(args.kind, args.seed);
    let dropped = trace::write_json(
        &path,
        &[
            ("setup", setup_spans),
            ("ops", &spans),
            ("extras", &extra_spans),
        ],
    )
    .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    m.note(
        "trace.spans_dropped",
        dropped as f64,
        "count",
        format!("spans in {}", path.display()),
    );
    RunOutput {
        metrics: m,
        attempted,
        failures,
        notes: violations,
    }
}
