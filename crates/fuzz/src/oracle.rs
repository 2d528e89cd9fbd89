//! The four-headed oracle: what "the fuzzer found something" means.
//!
//! Every candidate instance is judged by up to four independent checks,
//! in order, stopping at the first failure:
//!
//! 1. **Invariants** — the `dagsched-verify` suite (band capacity per
//!    Observation 3, allotment discipline per Lemma 1, δ-goodness, work
//!    conservation) attached to a full run under the base config. The
//!    suite is built lenient so the loop collects violations rather than
//!    unwinding; under the `verify-strict` feature the semantics are
//!    identical, only the failure transport differs. When a differential
//!    head is enabled, this run also records the JSONL event stream, and
//!    it is the reference every differential head compares against.
//! 2. **Kernel vs scan** — the run repeated under the window mode the base
//!    config does not use ([`WindowMode::EventKernel`] or
//!    [`WindowMode::ReferenceScan`]) must produce the same outcome, the
//!    same step count, and a byte-identical JSONL event stream.
//! 3. **Paused vs one-shot** — a [`SimDriver`] paused at several
//!    deterministically-derived horizons must finish byte-identical to the
//!    head-1 run (the pacing-invisibility contract).
//! 4. **Delta vs rebuild** — the run repeated under the handoff mode the
//!    base config does not use ([`HandoffMode::Delta`] or
//!    [`HandoffMode::Rebuild`]) must produce the same outcome, step count
//!    and JSONL stream (the incremental-handoff contract from DESIGN.md
//!    §4.8).
//!
//! A simulation error from any head is itself a failure (`sim-error`) —
//! that is how scheduler mutants that emit invalid allocations are caught.
//!
//! The coverage features of head 1's run are returned alongside the
//! verdict, so one exec yields both signals with at most four simulations
//! (one per enabled head).
//!
//! All heads run over a caller-supplied *base* [`SimConfig`]
//! ([`run_exec_with`]) so the fuzz loop can judge candidates under the
//! mutated window/handoff configuration axis; the differential heads
//! override only the knob they are comparing.

use crate::coverage::CoverageObserver;
use dagsched_core::{AlgoParams, Rng64, Time};
use dagsched_engine::{
    simulate_observed, HandoffMode, Observers, OnlineScheduler, SimConfig, SimDriver, SimObserver,
    SimResult, WindowMode,
};
use dagsched_sched::{SchedulerS, SchedulerSProfit};
use dagsched_verify::{EventLog, InvariantSuite, WorkConservationChecker};
use dagsched_workload::Instance;
use std::collections::BTreeSet;

/// Which invariant checkers apply to a subject scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantProfile {
    /// The full scheduler-S suite (band, allotment, δ-good, work).
    SchedulerS {
        /// Relax the exact-allotment discipline (the S-wc variant).
        backfill: bool,
    },
    /// Only the universal work-conservation checker (baseline schedulers).
    WorkOnly,
    /// No invariant head (differential oracles only).
    Off,
}

/// The scheduler under test plus the invariant vocabulary that applies to
/// it. The default subject is the paper's scheduler S; the mutant-kill
/// tests substitute deliberately broken schedulers.
pub struct Subject {
    name: String,
    profile: InvariantProfile,
    make: Box<dyn Fn(u32) -> Box<dyn OnlineScheduler>>,
}

impl Subject {
    /// A subject from a factory closure (called once per simulation with
    /// the instance's machine count).
    pub fn new(
        name: impl Into<String>,
        profile: InvariantProfile,
        make: impl Fn(u32) -> Box<dyn OnlineScheduler> + 'static,
    ) -> Subject {
        Subject {
            name: name.into(),
            profile,
            make: Box::new(make),
        }
    }

    /// The default subject: scheduler S at ε = 1 with the full suite.
    pub fn scheduler_s() -> Subject {
        Subject::new("S", InvariantProfile::SchedulerS { backfill: false }, |m| {
            Box::new(SchedulerS::with_epsilon(m, 1.0))
        })
    }

    /// The general-profit subject: S-profit at ε = 1. Its slot-assignment
    /// admission deliberately breaks S's exact-allotment discipline, so only
    /// the universal work-conservation invariant applies; the differential
    /// heads (kernel/pause/handoff) carry the byte-equality burden —
    /// which is exactly where the slot-plan fast path would show a crack.
    pub fn scheduler_s_profit() -> Subject {
        Subject::new("S-profit", InvariantProfile::WorkOnly, |m| {
            Box::new(SchedulerSProfit::with_epsilon(m, 1.0))
        })
    }

    /// The subject's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instantiate the scheduler for `m` machines.
    pub fn instantiate(&self, m: u32) -> Box<dyn OnlineScheduler> {
        (self.make)(m)
    }
}

/// Which oracle heads run. All on by default; the mutant-kill tests switch
/// the differential heads off for speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleSet {
    /// Head 1: the invariant suite.
    pub invariants: bool,
    /// Head 2: kernel-vs-scan byte equality.
    pub kernel_diff: bool,
    /// Head 3: paused-vs-one-shot byte equality.
    pub pause_diff: bool,
    /// Head 4: delta-vs-rebuild handoff byte equality.
    pub handoff_diff: bool,
}

impl Default for OracleSet {
    fn default() -> OracleSet {
        OracleSet {
            invariants: true,
            kernel_diff: true,
            pause_diff: true,
            handoff_diff: true,
        }
    }
}

/// A failed oracle head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// Which head failed: `invariants`, `kernel-vs-scan`,
    /// `paused-vs-oneshot`, `delta-vs-rebuild`, or `sim-error`.
    pub oracle: &'static str,
    /// Human-readable evidence (violation list or first diverging line).
    pub detail: String,
}

/// The result of one fuzz exec: coverage features plus an optional failure.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Feature ids from the invariant head's run.
    pub features: BTreeSet<u32>,
    /// The first failing oracle head, if any.
    pub failure: Option<OracleFailure>,
}

fn first_diff(label: &str, a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("{label}: line {i}: {la:.120} != {lb:.120}");
        }
    }
    format!(
        "{label}: streams are a prefix of each other ({} vs {} lines)",
        a.lines().count(),
        b.lines().count()
    )
}

/// One simulation's result and its JSONL event stream.
type Run = (SimResult, String);

fn run_under(
    inst: &Instance,
    subject: &Subject,
    cfg: &SimConfig,
    label: &str,
) -> Result<Run, OracleFailure> {
    let mut log = EventLog::new();
    let mut sched = subject.instantiate(inst.m());
    match simulate_observed(inst, sched.as_mut(), cfg, &mut log) {
        Ok(r) => Ok((r, log.to_jsonl())),
        Err(e) => Err(OracleFailure {
            oracle: "sim-error",
            detail: format!("{label}: {e}"),
        }),
    }
}

/// A differential head's verdict on two named runs: outcome and step count
/// first, then the JSONL stream.
fn compare(
    oracle: &'static str,
    (an, a): (&str, &Run),
    (bn, b): (&str, &Run),
) -> Option<OracleFailure> {
    if !a.0.same_outcome(&b.0) || a.0.steps_executed != b.0.steps_executed {
        return Some(OracleFailure {
            oracle,
            detail: format!(
                "outcome diverges: {an} profit {} steps {}, {bn} profit {} steps {}",
                a.0.total_profit, a.0.steps_executed, b.0.total_profit, b.0.steps_executed
            ),
        });
    }
    (a.1 != b.1).then(|| OracleFailure {
        oracle,
        detail: first_diff(&format!("{an} != {bn}"), &a.1, &b.1),
    })
}

/// Run one candidate through the enabled oracle heads under the default
/// [`SimConfig`] (event kernel, delta handoff). See [`run_exec_with`].
pub fn run_exec(
    inst: &Instance,
    subject: &Subject,
    set: &OracleSet,
    pause_salt: u64,
    replay_seed: Option<u64>,
) -> ExecOutcome {
    run_exec_with(
        inst,
        subject,
        set,
        pause_salt,
        replay_seed,
        &SimConfig::default(),
    )
}

/// Run one candidate through the enabled oracle heads over `base`.
///
/// `base` is the engine configuration the candidate is judged under — the
/// fuzz loop passes [`FuzzInstance::base_config`](crate::ir::FuzzInstance)
/// so the mutated window/handoff axis actually takes effect. Head 1 runs
/// `base` itself; heads 2 and 4 run the window resp. handoff mode `base`
/// does not use and compare against head 1's run.
///
/// `pause_salt` seeds head 3's pause schedule; the caller derives it
/// deterministically (from the master RNG in the fuzz loop, from the
/// instance's content hash on replay). `replay_seed`, when given, is
/// published to `dagsched-verify`'s panic context so a strict-mode unwind
/// prints a reproduction command.
pub fn run_exec_with(
    inst: &Instance,
    subject: &Subject,
    set: &OracleSet,
    pause_salt: u64,
    replay_seed: Option<u64>,
    base: &SimConfig,
) -> ExecOutcome {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    if let Some(seed) = replay_seed {
        dagsched_verify::context::set_replay_seed(seed);
    }
    let differential = set.kernel_diff || set.pause_diff || set.handoff_diff;

    // Head 1 (always simulated — it carries the coverage signal, and when a
    // differential head runs, the reference event stream).
    let mut cov = CoverageObserver::new(params.c());
    let mut suite = match subject.profile {
        InvariantProfile::SchedulerS { backfill } if set.invariants => {
            let mut suite = InvariantSuite::for_scheduler_s(params);
            if backfill {
                suite = suite.allow_backfill();
            }
            Some(suite.lenient())
        }
        _ => None,
    };
    let mut work = (set.invariants && subject.profile == InvariantProfile::WorkOnly)
        .then(|| WorkConservationChecker::new().lenient());
    let mut log = EventLog::new();
    let ran = {
        let mut fan: Vec<&mut dyn SimObserver> = Vec::new();
        if let Some(s) = suite.as_mut() {
            fan.push(s);
        }
        if let Some(w) = work.as_mut() {
            fan.push(w);
        }
        fan.push(&mut cov);
        if differential {
            fan.push(&mut log);
        }
        let mut sched = subject.instantiate(inst.m());
        simulate_observed(inst, sched.as_mut(), base, &mut Observers::new(fan))
    };
    let one_shot = match ran {
        Err(e) => Err(OracleFailure {
            oracle: "sim-error",
            detail: e.to_string(),
        }),
        Ok(r) => {
            let vs = suite.as_ref().map_or_else(Vec::new, |s| s.violations());
            if !vs.is_empty() {
                let mut lines: Vec<String> = vs.iter().take(4).map(|v| v.to_string()).collect();
                if vs.len() > 4 {
                    lines.push(format!("... and {} more", vs.len() - 4));
                }
                Err(OracleFailure {
                    oracle: "invariants",
                    detail: lines.join("; "),
                })
            } else if let Some(v) = work.as_ref().and_then(|w| w.violations().first()) {
                Err(OracleFailure {
                    oracle: "invariants",
                    detail: v.to_string(),
                })
            } else {
                Ok((r, log.to_jsonl()))
            }
        }
    };
    let one_shot = match one_shot {
        Ok(run) if differential => run,
        verdict => {
            return ExecOutcome {
                features: cov.into_features(),
                failure: verdict.err(),
            }
        }
    };

    let mut failure = None;
    if set.kernel_diff {
        failure = kernel_vs_scan(inst, subject, base, &one_shot);
    }
    if failure.is_none() && set.pause_diff {
        failure = paused_vs_oneshot(inst, subject, base, &one_shot, pause_salt);
    }
    if failure.is_none() && set.handoff_diff {
        failure = delta_vs_rebuild(inst, subject, base, &one_shot);
    }
    ExecOutcome {
        features: cov.into_features(),
        failure,
    }
}

/// Head 2: the window mode `base` does not use, against the one-shot run.
fn kernel_vs_scan(
    inst: &Instance,
    subject: &Subject,
    base: &SimConfig,
    one_shot: &Run,
) -> Option<OracleFailure> {
    let window = match base.window {
        WindowMode::EventKernel => WindowMode::ReferenceScan,
        WindowMode::ReferenceScan => WindowMode::EventKernel,
    };
    let cfg = SimConfig {
        window,
        ..base.clone()
    };
    let other = match run_under(inst, subject, &cfg, &format!("{window:?}")) {
        Ok(run) => run,
        Err(f) => return Some(f),
    };
    let (kernel, scan) = match window {
        WindowMode::ReferenceScan => (one_shot, &other),
        WindowMode::EventKernel => (&other, one_shot),
    };
    compare("kernel-vs-scan", ("kernel", kernel), ("scan", scan))
}

/// Head 3: a driver paused at salt-derived horizons, against the one-shot
/// run.
fn paused_vs_oneshot(
    inst: &Instance,
    subject: &Subject,
    base: &SimConfig,
    one_shot: &Run,
    pause_salt: u64,
) -> Option<OracleFailure> {
    let sim_error = |what: &str, e: dagsched_core::SchedError| OracleFailure {
        oracle: "sim-error",
        detail: format!("paused {what}: {e}"),
    };
    let span = inst.stats().horizon.ticks().saturating_add(8);
    let mut prng = Rng64::seed_from(pause_salt);
    let n_pauses = 1 + prng.gen_range(6) as usize;
    let mut log = EventLog::new();
    let mut sched = subject.instantiate(inst.m());
    let mut driver =
        SimDriver::with_observer(inst, sched.as_mut(), base, &mut log as &mut dyn SimObserver);
    for _ in 0..n_pauses {
        if let Err(e) = driver.run_until(Time(prng.gen_range(span.max(1)))) {
            return Some(sim_error("run", e));
        }
    }
    let r = match driver.finish() {
        Ok(r) => r,
        Err(e) => return Some(sim_error("finish", e)),
    };
    compare(
        "paused-vs-oneshot",
        ("paused", &(r, log.to_jsonl())),
        ("one-shot", one_shot),
    )
}

/// Head 4: the handoff mode `base` does not use, against the one-shot run.
fn delta_vs_rebuild(
    inst: &Instance,
    subject: &Subject,
    base: &SimConfig,
    one_shot: &Run,
) -> Option<OracleFailure> {
    let (handoff, label) = match base.handoff {
        HandoffMode::Delta => (HandoffMode::Rebuild, "rebuild handoff"),
        HandoffMode::Rebuild => (HandoffMode::Delta, "delta handoff"),
    };
    let cfg = SimConfig {
        handoff,
        ..base.clone()
    };
    let other = match run_under(inst, subject, &cfg, label) {
        Ok(run) => run,
        Err(f) => return Some(f),
    };
    let (delta, rebuild) = match handoff {
        HandoffMode::Rebuild => (one_shot, &other),
        HandoffMode::Delta => (&other, one_shot),
    };
    compare("delta-vs-rebuild", ("delta", delta), ("rebuild", rebuild))
}
