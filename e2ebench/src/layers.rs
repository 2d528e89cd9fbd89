//! Layer boundaries as seen from the benchmark: a scheduler wrapper that
//! opens a span around every `sched` call, a counting observer for engine
//! events and admission decisions, and a stepped `engine` run that opens a
//! span around every [`SimDriver::step`].

use crate::trace::span;
use dagsched_core::{JobId, Result, Time};
use dagsched_engine::{
    AdmissionDecision, AdmissionEvent, AdmissionReason, Allocation, JobInfo, OnlineScheduler,
    SimConfig, SimDriver, SimObserver, SimResult, TickView, ViewDelta,
};
use dagsched_workload::Instance;

/// Call counts a [`TracedScheduler`] keeps beside its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCalls {
    /// `allocate_delta` calls.
    pub delta_calls: u64,
    /// `allocate_delta` calls that returned `true` (no fallback needed).
    pub delta_hits: u64,
}

/// Forwards **every** [`OnlineScheduler`] method to `inner`, timing the
/// calls that do work. A method left to its trait default here would make
/// the engine take another path than the unwrapped scheduler does, so the
/// capability queries (`allocation_stable_between_events`,
/// `completion_keys_stable`, `bounded_stability`, `group_aware`) forward
/// too.
pub struct TracedScheduler<'a> {
    inner: &'a mut dyn OnlineScheduler,
    /// Counts gathered so far.
    pub calls: SchedCalls,
}

impl<'a> TracedScheduler<'a> {
    /// Wrap `inner`.
    pub fn new(inner: &'a mut dyn OnlineScheduler) -> TracedScheduler<'a> {
        TracedScheduler {
            inner,
            calls: SchedCalls::default(),
        }
    }
}

impl OnlineScheduler for TracedScheduler<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn on_arrival(&mut self, job: &JobInfo, now: Time) {
        let _s = span("sched.arrival");
        self.inner.on_arrival(job, now);
    }

    fn on_completion(&mut self, id: JobId, now: Time) {
        let _s = span("sched.exit");
        self.inner.on_completion(id, now);
    }

    fn on_expiry(&mut self, id: JobId, now: Time) {
        let _s = span("sched.exit");
        self.inner.on_expiry(id, now);
    }

    fn allocate(&mut self, view: &TickView<'_>) -> Allocation {
        let _s = span("sched.alloc");
        self.inner.allocate(view)
    }

    fn allocate_into(&mut self, view: &TickView<'_>, out: &mut Allocation) {
        let _s = span("sched.alloc");
        self.inner.allocate_into(view, out);
    }

    fn allocate_delta(
        &mut self,
        delta: &ViewDelta,
        view: &TickView<'_>,
        out: &mut Allocation,
    ) -> bool {
        let _s = span("sched.alloc");
        let hit = self.inner.allocate_delta(delta, view, out);
        self.calls.delta_calls += 1;
        self.calls.delta_hits += u64::from(hit);
        hit
    }

    fn allocation_stable_between_events(&self) -> bool {
        self.inner.allocation_stable_between_events()
    }

    fn completion_keys_stable(&self) -> bool {
        self.inner.completion_keys_stable()
    }

    fn bounded_stability(&self) -> bool {
        self.inner.bounded_stability()
    }

    fn stable_until(&self, now: Time) -> Option<Time> {
        let _s = span("sched.stable_until");
        self.inner.stable_until(now)
    }

    fn enable_admission_reporting(&mut self) {
        self.inner.enable_admission_reporting();
    }

    fn drain_admission_events(&mut self, out: &mut Vec<AdmissionEvent>) {
        self.inner.drain_admission_events(out);
    }

    fn group_aware(&self) -> bool {
        self.inner.group_aware()
    }

    fn reset(&mut self) -> bool {
        self.inner.reset()
    }
}

/// Every [`AdmissionReason`], in declaration order, for per-reason counts.
pub const REASONS: [AdmissionReason; 7] = [
    AdmissionReason::BandCapacity,
    AdmissionReason::NotDeltaGood,
    AdmissionReason::Infeasible,
    AdmissionReason::DemandBound,
    AdmissionReason::SpanInfeasible,
    AdmissionReason::DeadlinePassed,
    AdmissionReason::Unconditional,
];

/// Engine event and admission counts of one observed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Jobs that arrived.
    pub arrivals: u64,
    /// Scheduling windows (one per engine step that ran an allocation).
    pub windows: u64,
    /// DAG nodes finished.
    pub node_completions: u64,
    /// Jobs completed.
    pub job_completions: u64,
    /// Jobs expired.
    pub expiries: u64,
    /// `Admitted` decisions.
    pub admitted: u64,
    /// `Deferred` plus `Rejected` decisions, indexed like [`REASONS`].
    pub declined: [u64; 7],
}

impl EngineCounts {
    /// Fold another run's counts into these.
    pub fn add(&mut self, o: &EngineCounts) {
        self.arrivals += o.arrivals;
        self.windows += o.windows;
        self.node_completions += o.node_completions;
        self.job_completions += o.job_completions;
        self.expiries += o.expiries;
        self.admitted += o.admitted;
        for (a, b) in self.declined.iter_mut().zip(o.declined) {
            *a += b;
        }
    }
}

impl SimObserver for EngineCounts {
    fn on_job_arrival(&mut self, _now: Time, _info: &JobInfo) {
        self.arrivals += 1;
    }

    fn on_admission(&mut self, _now: Time, event: AdmissionEvent) {
        match event.decision {
            AdmissionDecision::Admitted => self.admitted += 1,
            AdmissionDecision::Deferred(r) | AdmissionDecision::Rejected(r) => {
                let i = REASONS
                    .iter()
                    .position(|&x| x == r)
                    .expect("REASONS lists every variant");
                self.declined[i] += 1;
            }
        }
    }

    fn on_window(
        &mut self,
        _at: Time,
        _ticks: u64,
        _jobs: &[(JobId, u32)],
        _alloc: &[(JobId, u32)],
        _progress: &[(JobId, u64)],
    ) {
        self.windows += 1;
    }

    fn on_node_complete(&mut self, _at: Time, _job: JobId, _node: dagsched_core::NodeId) {
        self.node_completions += 1;
    }

    fn on_job_complete(&mut self, _at: Time, _job: JobId, _profit: u64) {
        self.job_completions += 1;
    }

    fn on_job_expired(&mut self, _at: Time, _job: JobId) {
        self.expiries += 1;
    }
}

/// Run `sched` on `inst` under `cfg` through the traced scheduler wrapper,
/// stepping the driver by hand with one `engine.step` span per step. The
/// result equals `simulate(inst, sched, cfg)`, `steps_executed` included.
///
/// # Errors
/// As [`dagsched_engine::simulate`].
pub fn traced_simulate(
    inst: &Instance,
    sched: &mut dyn OnlineScheduler,
    cfg: &SimConfig,
) -> Result<(SimResult, SchedCalls)> {
    cfg.resolve_groups(inst.m())?;
    let mut traced = TracedScheduler::new(sched);
    let r = {
        let mut driver = SimDriver::new(inst, &mut traced, cfg);
        loop {
            let _s = span("engine.step");
            if !driver.step()? {
                break;
            }
        }
        driver.finish()?
    };
    Ok((r, traced.calls))
}
