//! Lemma 1 and the allocation discipline as continuously-checked invariants.

use crate::model::{job_model, JobModel};
use crate::violation::{Recorder, Violation};
use dagsched_core::{AlgoParams, JobId, Speed, Time};
use dagsched_engine::{AdmissionDecision, AdmissionEvent, JobInfo, SimObserver};
use std::collections::HashMap;

/// Checks scheduler S's allocation discipline on every window:
///
/// * Σ alloc ≤ m (independently of the engine's own validation);
/// * every allocation goes to a *started* job, and grants it **exactly** its
///   allotment `n_i` (the paper's S always hands a scheduled job its full
///   allotment — surplus processors idle);
/// * Lemma 1 at admission: `n_i ≤ b²m + 1` (the `+1` is the integrality
///   slack of rounding the fractional allotment up).
///
/// The work-conserving variant S-wc deliberately backfills idle processors
/// beyond allotments and onto waiting jobs; for it, enable
/// [`allow_backfill`](AllotmentChecker::allow_backfill), which keeps the
/// Σ ≤ m and Lemma 1 checks but drops the exact-allotment discipline.
#[derive(Debug)]
pub struct AllotmentChecker {
    params: AlgoParams,
    speed_hint: f64,
    m: u32,
    backfill: bool,
    models: HashMap<JobId, JobModel>,
    started: Vec<JobId>,
    rec: Recorder,
}

impl AllotmentChecker {
    /// Create the checker; `params` must match the scheduler's.
    pub fn new(params: AlgoParams) -> AllotmentChecker {
        AllotmentChecker {
            params,
            speed_hint: 1.0,
            m: 0,
            backfill: false,
            models: HashMap::new(),
            started: Vec::new(),
            rec: Recorder::new("allotment"),
        }
    }

    /// Mirror the scheduler's speed hint.
    pub fn with_speed_hint(mut self, s: f64) -> AllotmentChecker {
        assert!(s.is_finite() && s > 0.0);
        self.speed_hint = s;
        self
    }

    /// Relax the exact-allotment discipline for work-conserving backfill.
    pub fn allow_backfill(mut self) -> AllotmentChecker {
        self.backfill = true;
        self
    }

    /// Collect violations instead of panicking under `verify-strict`.
    pub fn lenient(mut self) -> AllotmentChecker {
        self.rec.lenient();
        self
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        self.rec.violations()
    }
}

/// Lemma 1's bound `b²m + 1`, with `b² = (1+2δ)/(1+ε)` taken directly:
/// re-squaring the stored `b = √((1+2δ)/(1+ε))` can land 1 ulp low and
/// flag an allotment sitting exactly on the bound.
fn lemma1_bound(params: &AlgoParams, m: u32) -> f64 {
    (1.0 + 2.0 * params.delta()) / (1.0 + params.epsilon()) * m as f64 + 1.0
}

impl SimObserver for AllotmentChecker {
    fn on_start(&mut self, m: u32, _speed: Speed, _horizon: Time) {
        self.m = m;
    }

    fn on_job_arrival(&mut self, _now: Time, info: &JobInfo) {
        self.models.insert(
            info.id,
            job_model(info, &self.params, self.m, self.speed_hint),
        );
    }

    fn on_admission(&mut self, now: Time, event: AdmissionEvent) {
        if event.decision != AdmissionDecision::Admitted {
            return;
        }
        if !self.started.contains(&event.job) {
            self.started.push(event.job);
        }
        // Lemma 1 (with integrality slack): an admitted job's allotment is
        // at most b²m + 1.
        if let Some(jm) = self.models.get(&event.job) {
            let bound = lemma1_bound(&self.params, self.m);
            if jm.allot as f64 > bound {
                self.rec.flag(
                    now,
                    Some(event.job),
                    format!(
                        "Lemma 1 violated: allotment {} > b²m+1 = {bound:.3}",
                        jm.allot
                    ),
                );
            }
        }
    }

    fn on_window(
        &mut self,
        at: Time,
        _ticks: u64,
        _jobs: &[(JobId, u32)],
        alloc: &[(JobId, u32)],
        _progress: &[(JobId, u64)],
    ) {
        let total: u64 = alloc.iter().map(|&(_, k)| k as u64).sum();
        if total > self.m as u64 {
            self.rec.flag(
                at,
                None,
                format!("{total} processors allocated on an m = {} machine", self.m),
            );
        }
        if self.backfill {
            return;
        }
        for &(id, k) in alloc {
            if !self.started.contains(&id) {
                self.rec.flag(
                    at,
                    Some(id),
                    format!("{k} processors for an un-started job"),
                );
                continue;
            }
            if let Some(jm) = self.models.get(&id) {
                if k != jm.allot {
                    self.rec.flag(
                        at,
                        Some(id),
                        format!("holds {k} processors but allotment is {}", jm.allot),
                    );
                }
            }
        }
    }

    fn on_job_complete(&mut self, _at: Time, job: JobId, _profit: u64) {
        self.started.retain(|&j| j != job);
        self.models.remove(&job);
    }

    fn on_job_expired(&mut self, _at: Time, job: JobId) {
        self.started.retain(|&j| j != job);
        self.models.remove(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lenient ε = 1, m = 64 checker (b² = 0.75, so b²m + 1 = 49) that
    /// has seen one job whose model carries allotment `allot`, admitted.
    fn admit_with_allotment(allot: u32) -> AllotmentChecker {
        let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
        let mut c = AllotmentChecker::new(params).lenient();
        c.on_start(64, Speed::ONE, Time(1_000));
        c.models.insert(
            JobId(0),
            JobModel {
                allot,
                x: 1.0,
                density: 1.0,
                profit: 1,
                arrival: Time(0),
                rel_deadline: 10.0,
                abs_deadline: Time(10),
                admissible: true,
                delta_good: true,
            },
        );
        c.on_admission(
            Time(0),
            AdmissionEvent {
                job: JobId(0),
                decision: AdmissionDecision::Admitted,
            },
        );
        c
    }

    #[test]
    fn lemma1_bound_is_exact_at_the_boundary() {
        // Re-squaring the stored square root lands below 49 — the false
        // positive an allotment of exactly 49 used to trip.
        let p = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
        assert!(p.b().powi(2) * 64.0 + 1.0 < 49.0);
        assert_eq!(lemma1_bound(&p, 64), 49.0);
        assert!(admit_with_allotment(49).violations().is_empty());
        let over = admit_with_allotment(50);
        assert_eq!(over.violations().len(), 1);
        assert!(over.violations()[0].to_string().contains("Lemma 1"));
    }
}
