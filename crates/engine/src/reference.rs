//! Frozen reference implementations kept as differential-testing twins.
//!
//! [`HorizonScan`] is the pre-kernel next-event selection: an O(claimed)
//! fold for the nearest completion plus an O(alive) rescan for the nearest
//! zero-tail expiry boundary, every step. It is bit-for-bit the window and
//! expiry logic the engine shipped with through PR 5, now selectable via
//! [`WindowMode::ReferenceScan`](crate::events::WindowMode) so the
//! `event_kernel_differential` suite (and the `event-kernel` bench group)
//! can hold the [`EventKernel`](crate::events::EventKernel) byte-identical
//! to it on every corpus instance.
//!
//! [`ViewRebuild`] is the pre-delta scheduler handoff: rebuild the whole
//! `(id, ready_count)` view from the alive list every step and hand it to
//! a full `allocate_into`. It is verbatim the `Lifecycle::build_view` the
//! engine shipped with through PR 7, now selectable via
//! [`HandoffMode::Rebuild`](crate::sim::HandoffMode) so the
//! `view_delta_differential` suite (and the `view_delta` bench group) can
//! hold the maintained view and the incremental `allocate_delta` path
//! byte-identical to it.
//!
//! Nothing here is deprecated: the scan and the rebuild are the
//! *specification* the kernel and the delta path are tested against,
//! exactly as `dagsched_dag::reference` specifies the CSR arena and
//! `dagsched_sched::bands::reference` the admission treap.

use crate::clock::Clock;
use crate::lifecycle::Lifecycle;
use crate::observe::SimObserver;
use crate::sched_api::OnlineScheduler;
use dagsched_core::{JobId, Time};
use dagsched_workload::JobSpec;

/// The scan-based next-event twin. Stateless: both operations read the
/// lifecycle afresh each step, which is exactly the cost the kernel
/// amortizes away.
pub struct HorizonScan;

impl HorizonScan {
    /// The fast-forward window width from `t`, by rescanning: within
    /// `min_q - 1` ticks no claimed node finishes (`min_q` is the caller's
    /// fold over claimed nodes of `ceil(remaining/units)`), capped by the
    /// next arrival, the nearest zero-tail expiry boundary over *all* alive
    /// jobs, and the horizon.
    pub(crate) fn window(
        min_q: u64,
        jobs: &[JobSpec],
        life: &Lifecycle,
        clock: &Clock,
        t: Time,
    ) -> u64 {
        let mut s = min_q.saturating_sub(1);
        if life.pending_arrivals() {
            s = s.min(jobs[life.next_arrival].arrival.since(t));
        }
        for &id in &life.alive {
            let job = &jobs[id.index()];
            if job.profit.tail_value() == 0 {
                s = s.min(job.last_useful_abs().since(t));
            }
        }
        clock.cap_to_horizon(s)
    }

    /// The O(alive) expiry rescan:
    /// [`Lifecycle::expire_hopeless`](crate::lifecycle::Lifecycle), kept
    /// behind the same dispatch point as the kernel's indexed variant.
    pub(crate) fn expire<O: SimObserver + ?Sized>(
        life: &mut Lifecycle,
        jobs: &[JobSpec],
        t: Time,
        sched: &mut dyn OnlineScheduler,
        obs: &mut O,
        expired: &mut Vec<JobId>,
    ) -> bool {
        life.expire_hopeless(jobs, t, sched, obs, expired)
    }
}

/// The full-rebuild scheduler-handoff twin: reconstruct the whole
/// `(id, ready_count)` view from the alive list, every step. Stateless —
/// exactly the O(alive) cost the maintained view
/// ([`Lifecycle::view`]) amortizes away.
pub struct ViewRebuild;

impl ViewRebuild {
    /// Rebuild the scheduler's tick view into `out`: `(id, ready_count)`
    /// per alive job, in arrival order. Verbatim the pre-PR 8
    /// `Lifecycle::build_view`; public so the engine's own test suites can
    /// pin the maintained view against it.
    pub fn build(life: &Lifecycle, out: &mut Vec<(JobId, u32)>) {
        out.clear();
        for &id in life.alive() {
            let l = life.live[id.index()].as_ref().expect("alive implies live");
            out.push((id, l.ready_count() as u32));
        }
    }
}
