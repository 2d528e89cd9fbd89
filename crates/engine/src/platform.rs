//! The platform layer: machine-size and speed accounting.
//!
//! A [`Platform`] owns what the paper calls the machine — `m` processors
//! organized as [`MachineGroups`] of identical speed — plus the two things
//! that follow directly from it: exact speed arithmetic (per-processor
//! `units` scaled work units per tick at a common lcm `scale`) and per-tick
//! allocation validation (every grant to an alive job, every count ≥ 1, no
//! duplicates, total ≤ `m`). The processed scaled-units counter also lives
//! here, since it is the platform's view of consumed capacity.
//!
//! ## Placement order
//!
//! Allocation entries name *counts*, not processors; the platform fixes
//! which concrete processors an entry consumes by a placement order, stored
//! as one *run* per group — `count` consecutive processors of `group`, each
//! at `units` per tick — so the platform's size is O(groups), never O(m).
//! Entries consume processors sequentially (a forward-only cursor walks the
//! runs), so the `i`-th node picked for an entry binds to processor
//! `cursor + i`. Group-aware schedulers get
//! fastest-first order (descending units, ascending group index on ties);
//! aggregate-blind schedulers get declaration order — on a uniform platform
//! both are the single run `(m, units, 0)`, which is what keeps uniform
//! runs byte-identical regardless of awareness.

use crate::sched_api::Allocation;
use dagsched_core::{JobId, MachineGroups, Result, SchedError, Speed, Time};

/// One run of the placement order: `count` consecutive processors of group
/// `group`, each completing `units` scaled work units per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlacementRun {
    /// Processors in the run (positive).
    count: u32,
    /// Scaled work units each processor of the run completes per tick.
    units: u64,
    /// Owning group index.
    group: u32,
}

/// A forward-only walk over the placement order, one processor at a time.
/// One cursor serves one step's allocation: the entries' counts sum to at
/// most `m` (validation guarantees it), so the walk never runs off the end.
pub(crate) struct ProcCursor<'p> {
    /// The current run first; exhausted runs are sliced off the front.
    runs: &'p [PlacementRun],
    /// Processors not yet handed out in `runs[0]`.
    left: u32,
    /// `runs[0].units`, cached for the per-processor hot path.
    units: u64,
}

impl<'p> ProcCursor<'p> {
    fn new(runs: &'p [PlacementRun]) -> ProcCursor<'p> {
        ProcCursor {
            runs,
            left: runs[0].count,
            units: runs[0].units,
        }
    }

    /// Move to the next run (at most once per group per step).
    #[cold]
    fn next_run(&mut self) {
        *self = ProcCursor::new(&self.runs[1..]);
    }

    /// The per-tick rate of the next processor in placement order.
    #[inline]
    pub(crate) fn next_units(&mut self) -> u64 {
        if self.left == 0 {
            self.next_run();
        }
        self.left -= 1;
        self.units
    }

    /// Pass over the next `n` processors without binding them.
    #[inline]
    pub(crate) fn skip(&mut self, mut n: u32) {
        while n > self.left {
            n -= self.left;
            self.next_run();
        }
        self.left -= n;
    }
}

/// The simulated machine: size, speed groups, and capacity accounting. See
/// the [module docs](self).
#[derive(Debug, Clone)]
pub struct Platform {
    m: u32,
    speed: Speed,
    groups: MachineGroups,
    scale: u64,
    /// The placement order, one run per group.
    runs: Vec<PlacementRun>,
    units_processed: u64,
    /// Validation scratch, dense by job index; entries are set and cleared
    /// within one [`validate`](Platform::validate) call, keeping validation
    /// O(|alloc|).
    granted: Vec<bool>,
}

impl Platform {
    /// A uniform machine of `m` processors at `speed`, for an instance of
    /// `n` jobs. The single-group case of
    /// [`with_groups`](Platform::with_groups).
    #[cfg(test)]
    fn new(m: u32, speed: Speed, n: usize) -> Platform {
        let groups = MachineGroups::uniform(m, speed).expect("uniform group is valid for m >= 1");
        Platform::with_groups(groups, false, n)
    }

    /// A machine described by `groups`, for an instance of `n` jobs.
    ///
    /// `fastest_first` selects the placement order: `true` (group-aware
    /// schedulers) orders processors by descending units then ascending
    /// group index; `false` keeps declaration order.
    pub(crate) fn with_groups(groups: MachineGroups, fastest_first: bool, n: usize) -> Platform {
        let m = groups.total();
        let scale = groups.work_scale();
        let mut runs: Vec<PlacementRun> = groups
            .groups()
            .iter()
            .enumerate()
            .map(|(g, grp)| PlacementRun {
                count: grp.count,
                units: groups.units(g),
                group: g as u32,
            })
            .collect();
        if fastest_first {
            runs.sort_by(|a, b| b.units.cmp(&a.units).then(a.group.cmp(&b.group)));
        }
        // Reporting speed: the uniform speed, or the fastest group's speed
        // on a heterogeneous platform (what `on_start` serializes).
        let speed = groups.uniform_speed().unwrap_or_else(|| {
            let fastest = (0..groups.len())
                .max_by(|&a, &b| {
                    groups.groups()[a]
                        .speed
                        .cmp_exact(groups.groups()[b].speed)
                        .then(b.cmp(&a))
                })
                .expect("groups are non-empty");
            groups.groups()[fastest].speed
        });
        Platform {
            m,
            speed,
            groups,
            scale,
            runs,
            units_processed: 0,
            granted: vec![false; n],
        }
    }

    /// Machine size (total processors over all groups).
    #[inline]
    pub fn m(&self) -> u32 {
        self.m
    }

    /// Reporting speed: the uniform speed, or the fastest group's speed on
    /// a heterogeneous platform.
    #[inline]
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// The machine-group description.
    #[inline]
    pub fn groups(&self) -> &MachineGroups {
        &self.groups
    }

    /// The work scale (lcm of group denominators) all node work is
    /// multiplied by.
    #[inline]
    pub fn work_scale(&self) -> u64 {
        self.scale
    }

    /// A cursor at the first processor of the placement order.
    #[inline]
    pub(crate) fn procs(&self) -> ProcCursor<'_> {
        ProcCursor::new(&self.runs)
    }

    /// Scaled work units consumed so far.
    #[inline]
    pub fn scaled_units_processed(&self) -> u64 {
        self.units_processed
    }

    /// Record `u` scaled units of consumed capacity.
    #[inline]
    pub(crate) fn record_units(&mut self, u: u64) {
        self.units_processed += u;
    }

    /// Validate one tick's allocation against the machine and the alive set.
    ///
    /// # Errors
    /// [`SchedError::InvalidAllocation`] on a grant to a dead job, a zero
    /// grant, a duplicated job, or over-subscription past `m` (the message
    /// names the group whose processors ran out).
    pub(crate) fn validate(
        &mut self,
        t: Time,
        alloc: &Allocation,
        is_alive: impl Fn(JobId) -> bool,
    ) -> Result<()> {
        let mut used: u64 = 0;
        let mut bad = None;
        for &(id, k) in alloc {
            if !is_alive(id) {
                bad = Some(format!("tick {t}: job {id} is not alive"));
                break;
            }
            if k == 0 {
                bad = Some(format!("tick {t}: zero processors for {id}"));
                break;
            }
            if self.granted[id.index()] {
                bad = Some(format!("tick {t}: duplicate allocation for {id}"));
                break;
            }
            self.granted[id.index()] = true;
            used += k as u64;
            if used > self.m as u64 {
                let g = self.runs.last().expect("m >= 1").group;
                bad = Some(format!(
                    "tick {t}: {used} processors allocated but m = {} \
                     (exhausted at group {g} of {})",
                    self.m, self.groups
                ));
                break;
            }
        }
        for &(id, _) in alloc {
            if id.index() < self.granted.len() {
                self.granted[id.index()] = false;
            }
        }
        match bad {
            Some(msg) => Err(SchedError::InvalidAllocation(msg)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platform() -> Platform {
        Platform::new(2, Speed::new(3, 2).unwrap(), 4)
    }

    fn run(count: u32, units: u64, group: u32) -> PlacementRun {
        PlacementRun {
            count,
            units,
            group,
        }
    }

    #[test]
    fn speed_arithmetic_is_exposed_exactly() {
        let p = platform();
        assert_eq!(p.m(), 2);
        assert_eq!(p.work_scale(), 2);
        assert_eq!(p.runs, [run(2, 3, 0)]);
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let mut p = platform();
        let alive = |id: JobId| id.index() < 3;
        assert!(p
            .validate(Time(0), &vec![(JobId(0), 1), (JobId(1), 1)], alive)
            .is_ok());
        // Dead job.
        assert!(p.validate(Time(0), &vec![(JobId(3), 1)], alive).is_err());
        // Zero grant.
        assert!(p.validate(Time(0), &vec![(JobId(0), 0)], alive).is_err());
        // Duplicate.
        assert!(p
            .validate(Time(0), &vec![(JobId(0), 1), (JobId(0), 1)], alive)
            .is_err());
        // Over-subscription.
        assert!(p
            .validate(Time(0), &vec![(JobId(0), 2), (JobId(1), 1)], alive)
            .is_err());
        // The scratch is clean after a failure: a good allocation passes.
        assert!(p.validate(Time(1), &vec![(JobId(0), 2)], alive).is_ok());
        assert!(p.validate(Time(2), &vec![(JobId(0), 2)], alive).is_ok());
    }

    #[test]
    fn heterogeneous_placement_orders() {
        // 2 slow (1x) declared first, then 1 fast (2x).
        let groups: MachineGroups = "2x1,1x2".parse().unwrap();
        let blind = Platform::with_groups(groups.clone(), false, 1);
        assert_eq!(blind.m(), 3);
        assert_eq!(blind.work_scale(), 1);
        assert_eq!(
            blind.runs,
            [run(2, 1, 0), run(1, 2, 1)],
            "declaration order"
        );
        let aware = Platform::with_groups(groups, true, 1);
        assert_eq!(aware.runs, [run(1, 2, 1), run(2, 1, 0)], "fastest first");
        assert_eq!(aware.speed(), Speed::new(2, 1).unwrap());
    }

    #[test]
    fn fastest_first_breaks_unit_ties_by_group_index() {
        // Equal speeds in different groups: placement keeps group order.
        let groups: MachineGroups = "1x2,1x2,1x1".parse().unwrap();
        let p = Platform::with_groups(groups, true, 1);
        let order: Vec<u32> = p.runs.iter().map(|r| r.group).collect();
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn lcm_scale_spans_groups() {
        let groups: MachineGroups = "1x3/2,1x5/3".parse().unwrap();
        let p = Platform::with_groups(groups, false, 1);
        assert_eq!(p.work_scale(), 6);
        // 3/2 → 9 units at scale 6; 5/3 → 10 units.
        assert_eq!(p.runs, [run(1, 9, 0), run(1, 10, 1)]);
        assert_eq!(p.speed(), Speed::new(5, 3).unwrap(), "fastest group");
    }

    #[test]
    fn cursor_walks_processors_across_run_boundaries() {
        let groups: MachineGroups = "2x1,1x2,3x3".parse().unwrap();
        let p = Platform::with_groups(groups, false, 1);
        let mut c = p.procs();
        assert_eq!(c.next_units(), 1);
        c.skip(0);
        assert_eq!(c.next_units(), 1);
        assert_eq!(c.next_units(), 2, "crosses into the second run");
        c.skip(2);
        assert_eq!(c.next_units(), 3, "skip spans into the last run");
        let mut c = p.procs();
        c.skip(3);
        assert_eq!(c.next_units(), 3, "skip ending on a run boundary");
    }

    #[test]
    fn platform_size_is_independent_of_the_processor_count() {
        let p = Platform::new(4_000_000_000, Speed::ONE, 1);
        assert_eq!(p.m(), 4_000_000_000);
        assert_eq!(p.runs, [run(4_000_000_000, 1, 0)]);
        let mut c = p.procs();
        c.skip(3_999_999_999);
        assert_eq!(c.next_units(), 1, "the last processor is reachable");
    }
}
