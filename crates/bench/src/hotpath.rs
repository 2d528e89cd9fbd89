//! The perf-regression harness behind `dagsched-bench` (BENCH_pr8.json).
//!
//! Five measured hot paths, each timed as *legacy vs optimized in the same
//! process and run*:
//!
//! * **admission** — an overload admission storm: a stream of jobs with
//!   multi-band log-uniform densities (four decades, `10^[-2, 2]`) is
//!   offered to the band structure, `fits` → `insert` greedily, on a
//!   machine large enough that `|Q|` reaches the hundreds. Legacy is the
//!   retained O(|Q|)-per-query sweep
//!   ([`reference::ReferenceBands`](dagsched_sched::bands::reference)),
//!   optimized is the incremental treap
//!   ([`DensityBands`]).
//! * **backfill** — the work-conserving allocate of scheduler S on a hot
//!   state (hundreds of admitted and parked jobs, every one with spare
//!   ready nodes). Legacy is the frozen
//!   [`OracleSchedulerS`] (per
//!   call: two `HashMap`s plus an O(|out|) rescan per grant), optimized is
//!   the current [`SchedulerS`] with its dense
//!   scratch maps and slot index.
//! * **arrival storm** — many small jobs churning through per-job runtime
//!   state. Legacy is the frozen pre-CSR path
//!   ([`dagsched_dag::reference`]): nested `Vec<Vec<NodeId>>` adjacency, a
//!   fresh-allocated unfold state plus busy buffer per arrival. Optimized
//!   is the CSR spec with one pooled [`UnfoldState`]
//!   recycled through `reset_from`, as the engine lifecycle pool does.
//!
//! * **event-kernel** — full engine runs on event-dense workloads, timed
//!   with the heap-based [`WindowMode::EventKernel`] vs the frozen
//!   [`WindowMode::ReferenceScan`] twin
//!   ([`HorizonScan`](dagsched_engine::HorizonScan)). The gated cases
//!   (`dense/…`) park thousands of zero-tail deadline jobs in the alive
//!   set while a saturating foreground stream forces a step every tick, so
//!   the scan pays two O(alive) passes per step (window minimum and expiry
//!   rescan) where the kernel pays O(log n) pops; the `steady/…` case is
//!   informational — on sparse multi-node streams the scan's passes are
//!   cheap and the kernel's per-step heap traffic makes it the slower
//!   side, which is recorded, not gated.
//!
//! * **view-delta** — full engine runs on the same parked-set workloads,
//!   timed with the incremental [`HandoffMode::Delta`] scheduler handoff
//!   vs the frozen full-rebuild twin ([`HandoffMode::Rebuild`], the
//!   verbatim pre-PR8 `build_view` in
//!   [`ViewRebuild`](dagsched_engine::ViewRebuild)). The rebuild pays an
//!   O(alive) view reconstruction plus an O(alive) scheduler re-sort every
//!   step; the delta path pays O(changed) and, on event-free steps,
//!   replays the cached allocation outright. The `combined/…` cases stack
//!   both PR7+PR8 optimizations (kernel window + delta handoff) against
//!   the full legacy pipeline (horizon scan + rebuild); `steady/…` is
//!   informational, exactly as in the event-kernel group.
//!
//! * **profit** — full engine runs of the general-profit scheduler, timed
//!   as the PR-10 rewrite ([`SchedulerSProfit`]: incremental segment plan +
//!   bounded-stability fast-forward + delta cached replay) vs its frozen
//!   pre-rewrite twin ([`OracleSProfit`]:
//!   per-tick BTreeMap rescan, no stability claim, so the engine steps it
//!   every tick). The gated `parked/…` cases are the slot-plan regime: a
//!   majority of long two-step-profit jobs parks unallocated while a brief
//!   foreground wave churns the plan, leaving a long plan gap the rewrite
//!   crosses in O(1) windows and the twin grinds through tick by tick. The
//!   two sides are asserted outcome-identical (`SimResult::same_outcome`,
//!   which excludes `steps_executed` — the step reduction *is* the
//!   speedup) before timing; `steady/…` is informational, as in the
//!   event-kernel group.
//!
//! * **related-machines** — full EDF engine runs on a skewed heterogeneous
//!   platform (`4x1,2x2`: four unit-speed processors declared before two
//!   double-speed ones) over a deadline-wave workload where only the fast
//!   group can meet the urgent deadlines. Group-aware placement (the
//!   default for every baseline) is compared against the same scheduler
//!   wrapped in [`AggregateBlind`], which forces declaration-order
//!   placement and therefore fills the slow half first. The headline
//!   number is the **completed-profit ratio** (aware / blind) — a
//!   deterministic quantity, gated like the legacy-vs-optimized ratios —
//!   with both runs' wall times recorded informationally.
//!
//! A further group measures **sweep throughput**: the B1 [`SweepGrid`] run
//! sequentially vs sharded over 4 workers, in the same process. Unlike the
//! legacy-vs-optimized ratios, this one is *hardware-dependent* — on a
//! single-core box the 4-thread run cannot be faster — so the report also
//! records [`host_cores`] and the CI gate only enforces a parallel-speedup
//! floor when the machine actually has ≥ 4 cores.
//!
//! A final group measures **fuzz-loop throughput**: a bounded
//! coverage-guided run of `dagsched fuzz` (fixed master seed, all four
//! oracle heads) timed end to end, reported as `fuzz_execs_per_sec`. Like
//! the sweep ratio it is *hardware-dependent* — recorded for
//! trend-watching, never gated against a baseline from a different box.
//!
//! The report records *speedup ratios* (legacy time / optimized time), not
//! absolute times, so the committed baseline stays meaningful across
//! machines; the CI smoke job re-runs the harness with `--quick` and fails
//! when a ratio falls more than the allowed fraction below the baseline.

use dagsched_core::{AlgoParams, JobId, MachineGroups, Rng64, Time, Work};
use dagsched_dag::reference::{ReferenceDag, ReferenceUnfold};
use dagsched_dag::spec::DagJobSpec;
use dagsched_dag::{gen, UnfoldState};
use dagsched_engine::{
    simulate, Allocation, HandoffMode, JobInfo, OnlineScheduler, SimConfig, TickView, WindowMode,
};
use dagsched_experiments::SweepGrid;
use dagsched_sched::bands::{reference::ReferenceBands, DensityBands};
use dagsched_sched::oracle::{OracleSProfit, OracleSchedulerS};
use dagsched_sched::{AggregateBlind, Edf, SchedulerS, SchedulerSProfit};
use dagsched_workload::{Instance, JobSpec, StepProfitFn, WorkloadGen};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Number of logical cores on this machine (1 if it cannot be queried).
/// Recorded in the report so a committed baseline from a small box is not
/// mistaken for a parallel-speedup claim.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Short git revision of the working tree (`"unknown"` outside a checkout).
/// Recorded in the report — and in every group — so a committed baseline
/// can be traced back to the exact code that produced it.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One legacy-vs-optimized measurement.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case id, e.g. `"overload/p2000"`.
    pub id: String,
    /// Median legacy time per iteration, nanoseconds.
    pub legacy_ns: f64,
    /// Median optimized time per iteration, nanoseconds.
    pub new_ns: f64,
    /// `legacy_ns / new_ns`.
    pub speedup: f64,
}

/// One sweep-throughput measurement: the same grid run sequentially and on
/// `threads` workers, in the same process. `speedup` is `t1_ns / tn_ns` —
/// it is **hardware-dependent** (bounded by `host_cores`), unlike the
/// legacy-vs-optimized ratios.
#[derive(Debug, Clone)]
pub struct SweepCase {
    /// Case id, e.g. `"sweep/b1-t4"`.
    pub id: String,
    /// Median sequential (1-thread) time per grid run, nanoseconds.
    pub t1_ns: f64,
    /// Median `threads`-worker time per grid run, nanoseconds.
    pub tn_ns: f64,
    /// Worker count of the parallel run.
    pub threads: usize,
    /// `t1_ns / tn_ns`.
    pub speedup: f64,
}

/// One related-machines placement measurement: the same scheduler run
/// group-aware and aggregate-blind on the same skewed platform and
/// workload. `gain` is `aware_profit / blind_profit` — completed profit is
/// deterministic per (instance, scheduler, config), so unlike the timing
/// ratios this one is exactly reproducible and gated as such; the wall
/// times ride along informationally.
#[derive(Debug, Clone)]
pub struct RelatedCase {
    /// Case id, e.g. `"related/waves-w40"`.
    pub id: String,
    /// Total profit with group-aware (fastest-first) placement.
    pub aware_profit: u64,
    /// Total profit with aggregate-blind (declaration-order) placement.
    pub blind_profit: u64,
    /// `aware_profit / blind_profit`.
    pub gain: f64,
    /// Median group-aware run time, nanoseconds (informational).
    pub aware_ns: f64,
    /// Median aggregate-blind run time, nanoseconds (informational).
    pub blind_ns: f64,
}

/// One fuzz-throughput measurement: a bounded coverage-guided loop under a
/// fixed master seed, timed end to end. Absolute throughput — hardware-
/// dependent, recorded but never baseline-gated.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Case id, e.g. `"fuzz/e600"`.
    pub id: String,
    /// Execs attempted.
    pub execs: u64,
    /// Wall-clock nanoseconds for the whole loop.
    pub elapsed_ns: f64,
    /// `execs / seconds`.
    pub execs_per_sec: f64,
    /// Distinct coverage features the run discovered (a sanity probe that
    /// the measured loop was doing real judging work, not spinning).
    pub features: usize,
}

/// The full harness output, serialized to `BENCH_pr8.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether the reduced `--quick` sizes were used.
    pub quick: bool,
    /// Logical cores of the measuring machine ([`host_cores`]).
    pub host_cores: usize,
    /// Git revision the harness ran on ([`git_rev`]).
    pub git_rev: String,
    /// Admission-storm cases, ascending size.
    pub admission: Vec<CaseResult>,
    /// Backfill cases, ascending size.
    pub backfill: Vec<CaseResult>,
    /// Arrival-storm cases (fresh-per-arrival vs pooled job state),
    /// ascending size.
    pub arrival: Vec<CaseResult>,
    /// Event-kernel cases (heap windows vs the frozen horizon scan);
    /// `legacy_ns` is the scan, `new_ns` the kernel.
    pub event_kernel: Vec<CaseResult>,
    /// View-delta cases (incremental handoff vs the frozen full rebuild);
    /// `legacy_ns` is the rebuild, `new_ns` the delta path.
    pub view_delta: Vec<CaseResult>,
    /// General-profit scheduler cases (the PR-10 slot-plan rewrite vs the
    /// frozen per-tick twin); `legacy_ns` is [`OracleSProfit`], `new_ns`
    /// the rewritten [`SchedulerSProfit`] on its default fast path.
    pub profit: Vec<CaseResult>,
    /// Related-machines placement cases (group-aware vs aggregate-blind
    /// on a skewed heterogeneous platform); the gated number is the
    /// completed-profit gain.
    pub related: Vec<RelatedCase>,
    /// Sweep-throughput cases (sequential vs sharded grid runs).
    pub sweep: Vec<SweepCase>,
    /// Fuzz-loop throughput cases (bounded coverage-guided runs).
    pub fuzz: Vec<FuzzCase>,
}

impl BenchReport {
    /// Admission speedup of record: the *minimum* over cases with at least
    /// 10³ offered jobs (the acceptance bar measures the worst large case,
    /// not a friendly small one).
    pub fn admission_speedup(&self) -> f64 {
        min_speedup(self.admission.iter().filter(|c| case_size(&c.id) >= 1_000))
    }

    /// Backfill speedup of record: minimum over all backfill cases.
    pub fn backfill_speedup(&self) -> f64 {
        min_speedup(self.backfill.iter())
    }

    /// Arrival-storm speedup of record: minimum over all arrival cases.
    pub fn arrival_speedup(&self) -> f64 {
        min_speedup(self.arrival.iter())
    }

    /// Event-kernel speedup of record: the minimum over the *dense* cases
    /// (`dense/…` ids). The `steady/…` cases are informational — on sparse
    /// event streams the scan's O(alive) passes are cheap and parity is the
    /// expected result, so they are recorded but not gated.
    pub fn event_kernel_speedup(&self) -> f64 {
        min_speedup(
            self.event_kernel
                .iter()
                .filter(|c| c.id.starts_with("dense/")),
        )
    }

    /// View-delta speedup of record: the minimum over the `dense/…` and
    /// `combined/…` cases. As in the event-kernel group, `steady/…` is
    /// informational — on sparse streams the per-step rebuild is small and
    /// parity is the expected result — so it is recorded but not gated.
    pub fn view_delta_speedup(&self) -> f64 {
        min_speedup(
            self.view_delta
                .iter()
                .filter(|c| !c.id.starts_with("steady/")),
        )
    }

    /// General-profit speedup of record: the minimum over the `parked/…`
    /// cases — the slot-plan regime the rewrite targets. `steady/…` is
    /// informational, exactly as in the event-kernel and view-delta
    /// groups: on dense mixed streams the plan is rebuilt about as often
    /// as the twin rescans, and parity is the expected result.
    pub fn sprofit_speedup(&self) -> f64 {
        min_speedup(self.profit.iter().filter(|c| !c.id.starts_with("steady/")))
    }

    /// Related-machines gain of record: the minimum completed-profit ratio
    /// (group-aware / aggregate-blind) over the group's cases. Profit is
    /// deterministic, so this gate is machine-independent.
    pub fn related_machines_gain(&self) -> f64 {
        self.related
            .iter()
            .map(|c| c.gain)
            .fold(f64::INFINITY, f64::min)
    }

    /// Sweep speedup of record: the minimum `t1/tN` ratio over sweep cases.
    /// Only meaningful as a parallel-speedup claim when `host_cores` is at
    /// least the case's thread count.
    pub fn sweep_speedup(&self) -> f64 {
        self.sweep
            .iter()
            .map(|c| c.speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// Fuzz-loop throughput of record: the minimum execs/sec over fuzz
    /// cases (absolute, hardware-dependent — recorded, not gated).
    pub fn fuzz_execs_per_sec(&self) -> f64 {
        self.fuzz
            .iter()
            .map(|c| c.execs_per_sec)
            .fold(f64::INFINITY, f64::min)
    }

    /// Serialize to the committed JSON format. The top-level `host_cores`
    /// is written *before* any group so [`json_number`] (first occurrence
    /// wins) keeps reading the machine-level value; every group object
    /// repeats `host_cores` and `git_rev` so a group copied out of a report
    /// — or diffed between reports — still identifies the box and revision
    /// that produced it.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"pr\": 10,\n");
        s.push_str(&format!("  \"quick\": {},\n", self.quick));
        s.push_str(&format!("  \"host_cores\": {},\n", self.host_cores));
        s.push_str(&format!("  \"git_rev\": \"{}\",\n", self.git_rev));
        let group_head = |name: &str| {
            format!(
                "  \"{name}\": {{\"host_cores\": {}, \"git_rev\": \"{}\", \"cases\": [\n",
                self.host_cores, self.git_rev
            )
        };
        for (name, cases) in [
            ("admission", &self.admission),
            ("backfill", &self.backfill),
            ("arrival", &self.arrival),
            ("event_kernel", &self.event_kernel),
            ("view_delta", &self.view_delta),
            ("profit", &self.profit),
        ] {
            s.push_str(&group_head(name));
            for (i, c) in cases.iter().enumerate() {
                s.push_str(&format!(
                    "    {{\"id\": \"{}\", \"legacy_ns\": {:.0}, \"new_ns\": {:.0}, \"speedup\": {:.3}}}{}\n",
                    c.id,
                    c.legacy_ns,
                    c.new_ns,
                    c.speedup,
                    if i + 1 < cases.len() { "," } else { "" }
                ));
            }
            s.push_str("  ]},\n");
        }
        s.push_str(&group_head("related"));
        for (i, c) in self.related.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"aware_profit\": {}, \"blind_profit\": {}, \"gain\": {:.3}, \"aware_ns\": {:.0}, \"blind_ns\": {:.0}}}{}\n",
                c.id,
                c.aware_profit,
                c.blind_profit,
                c.gain,
                c.aware_ns,
                c.blind_ns,
                if i + 1 < self.related.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]},\n");
        s.push_str(&group_head("sweep"));
        for (i, c) in self.sweep.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"t1_ns\": {:.0}, \"tn_ns\": {:.0}, \"threads\": {}, \"speedup\": {:.3}}}{}\n",
                c.id,
                c.t1_ns,
                c.tn_ns,
                c.threads,
                c.speedup,
                if i + 1 < self.sweep.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]},\n");
        s.push_str(&group_head("fuzz"));
        for (i, c) in self.fuzz.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"execs\": {}, \"elapsed_ns\": {:.0}, \"execs_per_sec\": {:.0}, \"features\": {}}}{}\n",
                c.id,
                c.execs,
                c.elapsed_ns,
                c.execs_per_sec,
                c.features,
                if i + 1 < self.fuzz.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]},\n");
        s.push_str(&format!(
            "  \"admission_speedup\": {:.3},\n",
            self.admission_speedup()
        ));
        s.push_str(&format!(
            "  \"backfill_speedup\": {:.3},\n",
            self.backfill_speedup()
        ));
        s.push_str(&format!(
            "  \"arrival_speedup\": {:.3},\n",
            self.arrival_speedup()
        ));
        s.push_str(&format!(
            "  \"event_kernel_speedup\": {:.3},\n",
            self.event_kernel_speedup()
        ));
        s.push_str(&format!(
            "  \"view_delta_speedup\": {:.3},\n",
            self.view_delta_speedup()
        ));
        s.push_str(&format!(
            "  \"sprofit_speedup\": {:.3},\n",
            self.sprofit_speedup()
        ));
        s.push_str(&format!(
            "  \"related_machines_gain\": {:.3},\n",
            self.related_machines_gain()
        ));
        s.push_str(&format!(
            "  \"sweep_speedup\": {:.3},\n",
            self.sweep_speedup()
        ));
        s.push_str(&format!(
            "  \"fuzz_execs_per_sec\": {:.0}\n",
            self.fuzz_execs_per_sec()
        ));
        s.push_str("}\n");
        s
    }
}

fn min_speedup<'a>(cases: impl Iterator<Item = &'a CaseResult>) -> f64 {
    cases.map(|c| c.speedup).fold(f64::INFINITY, f64::min)
}

/// Parse the trailing integer out of a case id like `"overload/p2000"`.
fn case_size(id: &str) -> u64 {
    id.chars()
        .rev()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .chars()
        .rev()
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Extract `"key": <number>` from the harness's own JSON (used by the CI
/// regression check — no JSON dependency in this tree).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Median wall time of `f` over `iters` runs (after one warmup), in ns.
fn time_median_ns(iters: usize, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f()); // warmup
    let mut samples: Vec<f64> = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The multi-band overload stream: `(density, allot)` pairs, densities
/// log-uniform over four decades so the structure holds many disjoint
/// `[v, c·v)` bands at once.
fn admission_stream(n: usize, seed: u64) -> Vec<(f64, u32)> {
    let mut rng = Rng64::seed_from(seed);
    (0..n)
        .map(|_| {
            let d = 10f64.powf(rng.gen_f64_range(-2.0, 2.0));
            let a = 1 + rng.gen_range(8) as u32;
            (d, a)
        })
        .collect()
}

/// Greedy admission over the stream with the legacy sweep structure.
fn legacy_admission(stream: &[(f64, u32)], c: f64, cap: f64) -> u64 {
    let mut b = ReferenceBands::new(c, cap);
    let mut admitted = 0u64;
    for (i, &(d, a)) in stream.iter().enumerate() {
        if b.fits(d, a) {
            b.insert(JobId(i as u32), d, a);
            admitted += 1;
        }
    }
    admitted
}

/// Greedy admission over the stream with the incremental treap.
fn treap_admission(stream: &[(f64, u32)], c: f64, cap: f64) -> u64 {
    let mut b = DensityBands::new(c, cap);
    let mut admitted = 0u64;
    for (i, &(d, a)) in stream.iter().enumerate() {
        if b.fits(d, a) {
            b.insert(JobId(i as u32), d, a);
            admitted += 1;
        }
    }
    admitted
}

/// Run the admission-storm group at the given stream sizes.
pub fn run_admission(sizes: &[usize], iters: usize) -> Vec<CaseResult> {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    let (c, cap) = (params.c(), 0.9 * 512.0);
    sizes
        .iter()
        .map(|&n| {
            let stream = admission_stream(n, 0x5EED ^ n as u64);
            // Sanity: both sides must admit the same set before timing.
            assert_eq!(
                legacy_admission(&stream, c, cap),
                treap_admission(&stream, c, cap),
                "legacy and treap disagree on the stream"
            );
            let legacy_ns = time_median_ns(iters, || legacy_admission(&stream, c, cap));
            let new_ns = time_median_ns(iters, || treap_admission(&stream, c, cap));
            CaseResult {
                id: format!("overload/p{n}"),
                legacy_ns,
                new_ns,
                speedup: legacy_ns / new_ns,
            }
        })
        .collect()
}

/// Build a hot scheduler-S state: `n` jobs offered on an `m = 512` machine
/// with ample deadlines, so a few hundred are admitted into Q (allotment 1,
/// spread densities) and the band-capacity rest parks in P. Every job has 8
/// ready nodes in the view, so the work-conserving pass both tops up Q jobs
/// and backfills P jobs — the exact shape the grant-merge fix targets.
fn backfill_state<S: OnlineScheduler>(mut sched: S, n: usize) -> (S, Vec<(JobId, u32)>) {
    let mut rng = Rng64::seed_from(0xBACF11);
    let mut view = Vec::with_capacity(n);
    for i in 0..n {
        let profit = 1 + rng.gen_range(1000);
        let info = JobInfo {
            id: JobId(i as u32),
            arrival: Time(0),
            work: Work(40),
            span: Work(8),
            // Deadline far out: allotment 1, every job δ-good.
            profit: StepProfitFn::deadline(Time(600 + rng.gen_range(200)), profit),
        };
        sched.on_arrival(&info, Time(0));
        view.push((JobId(i as u32), 8u32));
    }
    (sched, view)
}

/// Run the backfill group at the given alive-set sizes.
pub fn run_backfill(sizes: &[usize], iters: usize) -> Vec<CaseResult> {
    let m = 512u32;
    sizes
        .iter()
        .map(|&n| {
            let (mut legacy, view_jobs) =
                backfill_state(OracleSchedulerS::with_epsilon(m, 1.0).work_conserving(), n);
            let (mut new, _) =
                backfill_state(SchedulerS::with_epsilon(m, 1.0).work_conserving(), n);
            let view = TickView::new(m, Time(1), &view_jobs);
            // Sanity: identical allocations before timing.
            assert_eq!(legacy.allocate(&view), new.allocate(&view));
            let legacy_ns = time_median_ns(iters, || {
                let a = legacy.allocate(&view);
                a.len() as u64
            });
            let mut buf: Allocation = Vec::new();
            let new_ns = time_median_ns(iters, || {
                new.allocate_into(&view, &mut buf);
                buf.len() as u64
            });
            CaseResult {
                id: format!("wc-allocate/q{n}"),
                legacy_ns,
                new_ns,
                speedup: legacy_ns / new_ns,
            }
        })
        .collect()
}

/// The many-small-jobs mix for the arrival storm: the shapes an overloaded
/// deadline stream is made of — short chains and small diamonds, a handful
/// of nodes each, so per-arrival state setup dominates per-node work.
fn storm_specs() -> Vec<Arc<DagJobSpec>> {
    vec![
        gen::chain(3, 2).into_shared(),
        gen::diamond(4, 2).into_shared(),
        gen::chain(5, 1).into_shared(),
        gen::diamond(6, 1).into_shared(),
    ]
}

/// Per-node budget large enough to finish any storm node in one `advance`.
const STORM_BUDGET: u64 = 1 << 30;

/// The pre-PR5 arrival path: every arrival heap-allocates a fresh unfold
/// state (plus the engine's busy buffer) over the nested-`Vec` adjacency,
/// unfolds the job to completion, and drops it all.
fn legacy_storm(dags: &[ReferenceDag], arrivals: usize) -> u64 {
    let mut consumed = 0u64;
    for i in 0..arrivals {
        let dag = &dags[i % dags.len()];
        let mut st = ReferenceUnfold::new(dag, 1);
        let busy = vec![false; dag.num_nodes()];
        black_box(&busy);
        while let Some(n) = st.first_ready() {
            consumed += st.advance(dag, n, STORM_BUDGET).0;
        }
    }
    consumed
}

/// The pooled CSR path: one `UnfoldState` and one busy buffer recycled
/// through `reset_from` across every arrival, as the lifecycle pool does.
fn pooled_storm(specs: &[Arc<DagJobSpec>], arrivals: usize) -> u64 {
    let mut consumed = 0u64;
    let mut st = UnfoldState::new(specs[0].clone(), 1);
    let mut busy: Vec<bool> = Vec::new();
    for i in 0..arrivals {
        let spec = &specs[i % specs.len()];
        st.reset_from(spec.clone(), 1);
        busy.clear();
        busy.resize(spec.num_nodes(), false);
        black_box(&busy);
        loop {
            let Some(n) = st.ready_iter().next() else {
                break;
            };
            consumed += st.advance(n, STORM_BUDGET).0;
        }
    }
    consumed
}

/// Run the arrival-storm group at the given arrival counts.
pub fn run_arrival_storm(sizes: &[usize], iters: usize) -> Vec<CaseResult> {
    let specs = storm_specs();
    let dags: Vec<ReferenceDag> = specs.iter().map(|s| ReferenceDag::from_spec(s)).collect();
    sizes
        .iter()
        .map(|&n| {
            // Sanity: both sides must consume identical total work before
            // timing (same jobs, same FIFO unfold order).
            assert_eq!(
                legacy_storm(&dags, n),
                pooled_storm(&specs, n),
                "legacy and pooled storms diverged"
            );
            let legacy_ns = time_median_ns(iters, || legacy_storm(&dags, n));
            let new_ns = time_median_ns(iters, || pooled_storm(&specs, n));
            CaseResult {
                id: format!("arrival-storm/j{n}"),
                legacy_ns,
                new_ns,
                speedup: legacy_ns / new_ns,
            }
        })
        .collect()
}

/// A parked-set instance, the regime the event kernel targets: `n`
/// *background* deadline jobs arrive at `t = 0` with huge work and a
/// far-out deadline, so under EDF they sit alive — and zero-tail — for the
/// whole run without being scheduled, while a *foreground* stream of tiny
/// tight-deadline jobs saturates the `m = 4` machine and drives a
/// completion-and-arrival event every tick. Every step, the scan walks the
/// whole parked set twice (window minimum over zero-tail jobs, expiry
/// rescan) even though none of those jobs is anywhere near its boundary;
/// the kernel holds each as one armed far-future entry and pays O(log n).
/// The run ends with the parked set expiring in one wave, which both modes
/// process as a single batch.
///
/// `chains` picks the foreground shape: `false` is two single-node jobs of
/// work 2 per tick; `true` is one 2-node chain of work 4 per tick, adding
/// intra-job ready-count events at node boundaries. Both keep the
/// foreground load exactly at `m`.
pub fn parked_instance(n: usize, chains: bool) -> Instance {
    let far = Time(500_000);
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(10_000).into_shared(),
                StepProfitFn::deadline(far, 1),
            )
        })
        .collect();
    let per_tick = if chains { 1 } else { 2 };
    for i in 0..n {
        let dag = if chains {
            gen::chain(2, 2).into_shared()
        } else {
            gen::single(2).into_shared()
        };
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time((i / per_tick) as u64),
            dag,
            StepProfitFn::deadline(Time(60), 3),
        ));
    }
    Instance::new(4, jobs).expect("valid parked instance")
}

/// One full EDF engine run under the given window and handoff modes; the
/// checksum keeps the run from being optimized away and doubles as an
/// equivalence probe. EDF (not FIFO) so the parked cases' background jobs —
/// earliest ids, latest deadlines — yield the machine to the foreground
/// stream.
pub fn handoff_run(inst: &Instance, window: WindowMode, handoff: HandoffMode) -> u64 {
    let cfg = SimConfig {
        window,
        handoff,
        ..SimConfig::default()
    };
    let mut sched = Edf::new(inst.m());
    let r = simulate(inst, &mut sched, &cfg).expect("bench run succeeds");
    r.total_profit
        .wrapping_mul(1_000_003)
        .wrapping_add(r.steps_executed)
}

fn kernel_run(inst: &Instance, mode: WindowMode) -> u64 {
    handoff_run(inst, mode, HandoffMode::default())
}

/// Run the event-kernel group: each case times complete engine runs with
/// heap windows (`new_ns`) vs the frozen horizon scan (`legacy_ns`). The
/// two modes are asserted step-identical before timing. `dense/…` cases
/// are the gated ones; `steady/…` is informational (sparse events).
pub fn run_event_kernel(
    dense_sizes: &[usize],
    steady_jobs: usize,
    iters: usize,
) -> Vec<CaseResult> {
    let mut cases: Vec<(String, Instance)> = Vec::new();
    for &n in dense_sizes {
        cases.push((format!("dense/parked-j{n}"), parked_instance(n, false)));
        cases.push((format!("dense/chains-j{n}"), parked_instance(n, true)));
    }
    cases.push((
        format!("steady/standard-j{steady_jobs}"),
        WorkloadGen::standard(8, steady_jobs, 11)
            .generate()
            .expect("valid steady workload"),
    ));
    cases
        .into_iter()
        .map(|(id, inst)| {
            assert_eq!(
                kernel_run(&inst, WindowMode::ReferenceScan),
                kernel_run(&inst, WindowMode::EventKernel),
                "kernel and scan diverged on {id}"
            );
            let legacy_ns = time_median_ns(iters, || kernel_run(&inst, WindowMode::ReferenceScan));
            let new_ns = time_median_ns(iters, || kernel_run(&inst, WindowMode::EventKernel));
            CaseResult {
                id,
                legacy_ns,
                new_ns,
                speedup: legacy_ns / new_ns,
            }
        })
        .collect()
}

/// Run the view-delta group: each case times complete engine runs with the
/// incremental delta handoff (`new_ns`) vs the frozen full-rebuild twin
/// (`legacy_ns`). `dense/…` cases hold both runs on the event kernel so
/// the handoff is the only variable; the `combined/…` cases stack the PR7
/// and PR8 optimizations (kernel + delta) against the full legacy pipeline
/// (horizon scan + rebuild); `steady/…` is informational. All four
/// window×handoff combinations are asserted checksum-identical before
/// timing.
pub fn run_view_delta(dense_sizes: &[usize], steady_jobs: usize, iters: usize) -> Vec<CaseResult> {
    let mut cases: Vec<(String, Instance, WindowMode)> = Vec::new();
    for &n in dense_sizes {
        cases.push((
            format!("dense/parked-j{n}"),
            parked_instance(n, false),
            WindowMode::EventKernel,
        ));
        cases.push((
            format!("dense/chains-j{n}"),
            parked_instance(n, true),
            WindowMode::EventKernel,
        ));
        cases.push((
            format!("combined/parked-j{n}"),
            parked_instance(n, false),
            WindowMode::ReferenceScan,
        ));
    }
    cases.push((
        format!("steady/standard-j{steady_jobs}"),
        WorkloadGen::standard(8, steady_jobs, 11)
            .generate()
            .expect("valid steady workload"),
        WindowMode::EventKernel,
    ));
    cases
        .into_iter()
        .map(|(id, inst, legacy_window)| {
            let reference = handoff_run(&inst, WindowMode::EventKernel, HandoffMode::Delta);
            for window in [WindowMode::EventKernel, WindowMode::ReferenceScan] {
                for handoff in [HandoffMode::Delta, HandoffMode::Rebuild] {
                    assert_eq!(
                        handoff_run(&inst, window, handoff),
                        reference,
                        "handoff/window combinations diverged on {id}"
                    );
                }
            }
            let legacy_ns = time_median_ns(iters, || {
                handoff_run(&inst, legacy_window, HandoffMode::Rebuild)
            });
            let new_ns = time_median_ns(iters, || {
                handoff_run(&inst, WindowMode::EventKernel, HandoffMode::Delta)
            });
            CaseResult {
                id,
                legacy_ns,
                new_ns,
                speedup: legacy_ns / new_ns,
            }
        })
        .collect()
}

/// The slot-plan regime the general-profit rewrite targets: `n` long
/// background jobs (work 5 000, a two-step profit whose cliffs sit at
/// `horizon / 2` and `horizon`) arrive at `t = 0` on an `m = 4` machine, so
/// the band capacity admits a handful and parks the rest until their
/// segments lapse; a brief foreground wave of small two-step chain jobs
/// (one every other tick, cliffs at 40 and 90) churns the plan early on.
/// Once the wave drains, the remaining run is one long plan gap: the
/// rewritten scheduler declares it stable and the engine crosses it in
/// O(1) bulk windows, while the frozen twin — no stability claim — is
/// stepped through every tick of it.
pub fn profit_instance(n: usize, horizon: u64) -> Instance {
    let mid = (horizon / 2).max(2);
    let background = StepProfitFn::steps(vec![(Time(mid), 4), (Time(horizon), 2)], 0)
        .expect("valid background profit");
    let wave =
        StepProfitFn::steps(vec![(Time(40), 3), (Time(90), 1)], 0).expect("valid wave profit");
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(5_000).into_shared(),
                background.clone(),
            )
        })
        .collect();
    for i in 0..n / 2 {
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time(2 * i as u64),
            gen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
    }
    Instance::new(4, jobs).expect("valid profit instance")
}

/// One full general-profit run, rewritten (`frozen = false`, the default
/// fast path) or on the frozen pre-rewrite twin (`frozen = true`, stepped
/// every tick). The checksum folds in `ticks_simulated` — identical on
/// both sides by `same_outcome` — but deliberately not `steps_executed`,
/// which differs by design.
fn sprofit_run(inst: &Instance, frozen: bool) -> u64 {
    let cfg = SimConfig::default();
    let r = if frozen {
        let mut sched = OracleSProfit::with_epsilon(inst.m(), 1.0);
        simulate(inst, &mut sched, &cfg)
    } else {
        let mut sched = SchedulerSProfit::with_epsilon(inst.m(), 1.0);
        simulate(inst, &mut sched, &cfg)
    }
    .expect("bench run succeeds");
    r.total_profit
        .wrapping_mul(1_000_003)
        .wrapping_add(r.ticks_simulated)
}

/// Run the general-profit group: each case times complete engine runs of
/// the rewritten [`SchedulerSProfit`] (`new_ns`) vs the frozen
/// [`OracleSProfit`] twin (`legacy_ns`). Both sides are asserted
/// outcome-identical before timing — `same_outcome` compares every
/// `SimResult` field except `steps_executed`, the one the rewrite exists
/// to shrink. `parked/…` cases are the gated ones; `steady/…` is
/// informational (dense mixed streams, no long gaps to skip).
pub fn run_profit(
    sizes: &[usize],
    horizon: u64,
    steady_jobs: usize,
    iters: usize,
) -> Vec<CaseResult> {
    let mut cases: Vec<(String, Instance)> = sizes
        .iter()
        .map(|&n| (format!("parked/j{n}"), profit_instance(n, horizon)))
        .collect();
    cases.push((
        format!("steady/standard-j{steady_jobs}"),
        WorkloadGen::standard(6, steady_jobs, 7)
            .generate()
            .expect("valid steady workload"),
    ));
    cases
        .into_iter()
        .map(|(id, inst)| {
            {
                let cfg = SimConfig::default();
                let mut fast = SchedulerSProfit::with_epsilon(inst.m(), 1.0);
                let mut twin = OracleSProfit::with_epsilon(inst.m(), 1.0);
                let fast = simulate(&inst, &mut fast, &cfg).expect("bench run succeeds");
                let twin = simulate(&inst, &mut twin, &cfg).expect("bench run succeeds");
                assert!(
                    fast.same_outcome(&twin),
                    "rewrite and frozen twin diverged on {id} \
                     (rewrite profit {}, twin profit {})",
                    fast.total_profit,
                    twin.total_profit
                );
            }
            let legacy_ns = time_median_ns(iters, || sprofit_run(&inst, true));
            let new_ns = time_median_ns(iters, || sprofit_run(&inst, false));
            CaseResult {
                id,
                legacy_ns,
                new_ns,
                speedup: legacy_ns / new_ns,
            }
        })
        .collect()
}

/// The skewed platform the related-machines group runs on: four unit-speed
/// processors declared *before* two double-speed ones, so a placement
/// cursor that ignores groups fills the slow half first.
fn skewed_platform() -> MachineGroups {
    "4x1,2x2".parse().expect("valid platform spec")
}

/// The deadline-wave workload for the related-machines group: every 15
/// ticks, two *hard* single-node jobs (work 20, deadline 12 ticks out,
/// profit 3) and two *easy* ones (work 5, deadline 30 ticks out, profit 1)
/// arrive. A double-speed processor finishes a hard job in 10 ticks; a
/// unit-speed one needs 20 and misses the deadline — so the urgent jobs are
/// worth their profit only on the fast group, and every wave is worth 8
/// profit to fastest-first placement versus 2 to slow-first.
pub fn related_instance(waves: usize) -> Instance {
    let mut jobs = Vec::with_capacity(waves * 4);
    for i in 0..waves {
        let t = (i as u64) * 15;
        for j in 0..4u64 {
            let (work, slack, profit) = if j < 2 { (20, 12, 3) } else { (5, 30, 1) };
            jobs.push(JobSpec::new(
                JobId((i * 4) as u32 + j as u32),
                Time(t),
                gen::single(work).into_shared(),
                StepProfitFn::deadline(Time(slack), profit),
            ));
        }
    }
    Instance::new(6, jobs).expect("valid related-machines instance")
}

/// One full EDF run on the skewed platform, group-aware or wrapped in
/// [`AggregateBlind`] (same allocations, declaration-order placement).
fn related_run(inst: &Instance, blind: bool) -> u64 {
    let cfg = SimConfig::on_groups(skewed_platform());
    if blind {
        let mut sched = AggregateBlind(Edf::new(inst.m()));
        simulate(inst, &mut sched, &cfg)
    } else {
        let mut sched = Edf::new(inst.m());
        simulate(inst, &mut sched, &cfg)
    }
    .expect("bench run succeeds")
    .total_profit
}

/// Run the related-machines group at the given wave counts. The profit
/// ratio is asserted strictly above 1 before anything is timed — a blind
/// run matching the aware one would mean group-aware placement stopped
/// doing its job, which is a correctness bug, not a perf result.
pub fn run_related(wave_counts: &[usize], iters: usize) -> Vec<RelatedCase> {
    wave_counts
        .iter()
        .map(|&waves| {
            let inst = related_instance(waves);
            let aware_profit = related_run(&inst, false);
            let blind_profit = related_run(&inst, true);
            assert!(
                blind_profit > 0 && aware_profit > blind_profit,
                "group-aware placement must beat aggregate-blind \
                 (aware {aware_profit}, blind {blind_profit})"
            );
            let aware_ns = time_median_ns(iters, || related_run(&inst, false));
            let blind_ns = time_median_ns(iters, || related_run(&inst, true));
            RelatedCase {
                id: format!("related/waves-w{waves}"),
                aware_profit,
                blind_profit,
                gain: aware_profit as f64 / blind_profit as f64,
                aware_ns,
                blind_ns,
            }
        })
        .collect()
}

/// Run the sweep-throughput group: the given grid sequentially vs sharded
/// over `threads` workers, median over `iters` runs each. The two runs are
/// asserted byte-identical before timing (sharding must be invisible).
pub fn run_sweep_grid(grid: &SweepGrid, threads: usize, iters: usize) -> Vec<SweepCase> {
    assert_eq!(
        grid.run(1),
        grid.run(threads),
        "sharded sweep diverged from sequential"
    );
    let checksum = |threads: usize| {
        grid.run(threads)
            .cells
            .iter()
            .map(|c| c.profit)
            .fold(0u64, u64::wrapping_add)
    };
    let t1_ns = time_median_ns(iters, || checksum(1));
    let tn_ns = time_median_ns(iters, || checksum(threads));
    vec![SweepCase {
        id: format!("sweep/{}-t{threads}", grid.name),
        t1_ns,
        tn_ns,
        threads,
        speedup: t1_ns / tn_ns,
    }]
}

/// Run the fuzz-throughput group: one bounded coverage-guided loop per
/// exec budget, fixed master seed, all four oracle heads, minimization
/// off (a clean scheduler never reaches the minimizer anyway — keeping it
/// off makes the timed work identical even if a future regression trips an
/// oracle). The loop must find failures *never*: a failure here is a
/// correctness bug, not a perf result, so it aborts the harness.
pub fn run_fuzz_throughput(budgets: &[u64]) -> Vec<FuzzCase> {
    use dagsched_fuzz::{FuzzConfig, FuzzSession};
    budgets
        .iter()
        .map(|&execs| {
            let report = FuzzSession::new(FuzzConfig {
                master_seed: 0x0DA6_5EED,
                max_execs: execs,
                minimize: false,
                ..FuzzConfig::default()
            })
            .run();
            assert!(
                report.failures.is_empty(),
                "fuzz throughput run found real failures: {:?}",
                report
                    .failures
                    .iter()
                    .map(|f| (&f.oracle, &f.detail))
                    .collect::<Vec<_>>()
            );
            FuzzCase {
                id: format!("fuzz/e{execs}"),
                execs: report.execs,
                elapsed_ns: report.elapsed.as_nanos() as f64,
                execs_per_sec: report.execs_per_sec(),
                features: report.features,
            }
        })
        .collect()
}

/// Run the whole harness. `quick` shrinks sizes and iteration counts for
/// the CI smoke job; the full run is what gets committed as
/// `BENCH_pr8.json`.
pub fn run_all(quick: bool) -> BenchReport {
    let (adm_sizes, bf_sizes, storm_sizes, iters): (&[usize], &[usize], &[usize], usize) = if quick
    {
        (&[1_000], &[500], &[10_000], 9)
    } else {
        (
            &[1_000, 4_000, 10_000],
            &[500, 2_000],
            &[10_000, 50_000],
            21,
        )
    };
    // Full engine runs are the unit of one event-kernel iteration, so this
    // group uses its own (smaller) iteration count.
    let (ek_sizes, ek_steady, ek_iters): (&[usize], usize, usize) = if quick {
        (&[1_000], 150, 5)
    } else {
        (&[1_000, 3_000], 400, 9)
    };
    // One frozen-twin profit iteration grinds the whole horizon tick by
    // tick, so quick mode drops the large case — but keeps the full
    // horizon: the measured ratio scales with the plan-gap length, so a
    // shorter quick horizon would make the baseline comparison a workload
    // mismatch, not a regression signal.
    let profit_sizes: &[usize] = if quick { &[40] } else { &[40, 160] };
    let profit_horizon = 50_000;
    // The B1 grid takes ~50 ms sequentially, so even the full sweep group
    // stays under a second.
    let sweep_iters = if quick { 5 } else { 11 };
    BenchReport {
        quick,
        host_cores: host_cores(),
        git_rev: git_rev(),
        admission: run_admission(adm_sizes, iters),
        backfill: run_backfill(bf_sizes, iters),
        arrival: run_arrival_storm(storm_sizes, iters),
        event_kernel: run_event_kernel(ek_sizes, ek_steady, ek_iters),
        view_delta: run_view_delta(ek_sizes, ek_steady, ek_iters),
        profit: run_profit(profit_sizes, profit_horizon, ek_steady, ek_iters),
        related: run_related(if quick { &[40] } else { &[40, 120] }, ek_iters),
        sweep: run_sweep_grid(&SweepGrid::b1(), 4, sweep_iters),
        fuzz: run_fuzz_throughput(if quick { &[200] } else { &[1_000] }),
    }
}

/// A seconds-scale harness pass at tiny sizes for the `dagsched bench` CLI
/// smoke command: every report group and JSON key is exercised, but the
/// measured ratios are *not* perf claims and must not be gated.
pub fn run_smoke() -> BenchReport {
    BenchReport {
        quick: true,
        host_cores: host_cores(),
        git_rev: git_rev(),
        // 1000 offered jobs: the smallest size admission_speedup() counts
        // (smaller cases are filtered out, which would leave the key `inf`).
        admission: run_admission(&[1_000], 3),
        backfill: run_backfill(&[150], 3),
        arrival: run_arrival_storm(&[1_000], 3),
        event_kernel: run_event_kernel(&[300], 60, 3),
        view_delta: run_view_delta(&[300], 60, 3),
        profit: run_profit(&[12], 3_000, 40, 3),
        related: run_related(&[10], 3),
        sweep: run_sweep_grid(&SweepGrid::smoke(), 2, 3),
        fuzz: run_fuzz_throughput(&[60]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_the_speedups() {
        let report = BenchReport {
            quick: true,
            host_cores: 8,
            git_rev: "abc1234".into(),
            admission: vec![CaseResult {
                id: "overload/p1000".into(),
                legacy_ns: 4000.0,
                new_ns: 1000.0,
                speedup: 4.0,
            }],
            backfill: vec![CaseResult {
                id: "wc-allocate/q500".into(),
                legacy_ns: 900.0,
                new_ns: 300.0,
                speedup: 3.0,
            }],
            arrival: vec![CaseResult {
                id: "arrival-storm/j10000".into(),
                legacy_ns: 5000.0,
                new_ns: 2500.0,
                speedup: 2.0,
            }],
            event_kernel: vec![
                CaseResult {
                    id: "dense/parked-j1000".into(),
                    legacy_ns: 3000.0,
                    new_ns: 2000.0,
                    speedup: 1.5,
                },
                CaseResult {
                    id: "steady/standard-j400".into(),
                    legacy_ns: 1000.0,
                    new_ns: 1250.0,
                    speedup: 0.8,
                },
            ],
            view_delta: vec![
                CaseResult {
                    id: "dense/parked-j1000".into(),
                    legacy_ns: 4200.0,
                    new_ns: 2000.0,
                    speedup: 2.1,
                },
                CaseResult {
                    id: "combined/parked-j1000".into(),
                    legacy_ns: 9000.0,
                    new_ns: 2000.0,
                    speedup: 4.5,
                },
                CaseResult {
                    id: "steady/standard-j400".into(),
                    legacy_ns: 1000.0,
                    new_ns: 1100.0,
                    speedup: 0.9,
                },
            ],
            profit: vec![
                CaseResult {
                    id: "parked/j40".into(),
                    legacy_ns: 9000.0,
                    new_ns: 3000.0,
                    speedup: 3.0,
                },
                CaseResult {
                    id: "steady/standard-j400".into(),
                    legacy_ns: 1000.0,
                    new_ns: 1050.0,
                    speedup: 0.95,
                },
            ],
            related: vec![RelatedCase {
                id: "related/waves-w40".into(),
                aware_profit: 320,
                blind_profit: 80,
                gain: 4.0,
                aware_ns: 1500.0,
                blind_ns: 1400.0,
            }],
            sweep: vec![SweepCase {
                id: "sweep/b1-t4".into(),
                t1_ns: 7000.0,
                tn_ns: 2000.0,
                threads: 4,
                speedup: 3.5,
            }],
            fuzz: vec![FuzzCase {
                id: "fuzz/e600".into(),
                execs: 600,
                elapsed_ns: 2_000_000_000.0,
                execs_per_sec: 300.0,
                features: 80,
            }],
        };
        let json = report.to_json();
        assert_eq!(json_number(&json, "admission_speedup"), Some(4.0));
        assert_eq!(json_number(&json, "backfill_speedup"), Some(3.0));
        assert_eq!(json_number(&json, "arrival_speedup"), Some(2.0));
        assert_eq!(
            json_number(&json, "event_kernel_speedup"),
            Some(1.5),
            "steady cases must not drag the gated dense minimum"
        );
        assert_eq!(
            json_number(&json, "view_delta_speedup"),
            Some(2.1),
            "the gated minimum spans dense and combined, never steady"
        );
        assert_eq!(
            json_number(&json, "sprofit_speedup"),
            Some(3.0),
            "the gated profit minimum covers parked cases, never steady"
        );
        assert_eq!(json_number(&json, "related_machines_gain"), Some(4.0));
        assert_eq!(json_number(&json, "sweep_speedup"), Some(3.5));
        assert_eq!(json_number(&json, "fuzz_execs_per_sec"), Some(300.0));
        assert_eq!(
            json_number(&json, "host_cores"),
            Some(8.0),
            "the first host_cores occurrence stays the top-level one"
        );
        assert!(json.contains("\"git_rev\": \"abc1234\""));
        assert_eq!(
            json.matches("\"host_cores\": 8").count(),
            10,
            "top level plus one per group"
        );
        assert_eq!(json.matches("\"git_rev\": \"abc1234\"").count(), 10);
        assert!(json.contains("\"overload/p1000\""));
        assert!(json.contains("\"parked/j40\""));
        assert!(json.contains("\"arrival-storm/j10000\""));
        assert!(json.contains("\"dense/parked-j1000\""));
        assert!(json.contains("\"combined/parked-j1000\""));
        assert!(json.contains("\"related/waves-w40\""));
        assert!(json.contains("\"sweep/b1-t4\""));
    }

    #[test]
    fn admission_speedup_ignores_small_cases() {
        let mk = |id: &str, speedup: f64| CaseResult {
            id: id.into(),
            legacy_ns: speedup,
            new_ns: 1.0,
            speedup,
        };
        let report = BenchReport {
            quick: true,
            host_cores: 1,
            git_rev: "abc1234".into(),
            admission: vec![mk("overload/p100", 0.5), mk("overload/p1000", 3.0)],
            backfill: vec![mk("wc-allocate/q500", 2.0)],
            arrival: vec![
                mk("arrival-storm/j10000", 2.5),
                mk("arrival-storm/j50000", 1.8),
            ],
            event_kernel: vec![
                mk("dense/parked-j1000", 2.2),
                mk("dense/chains-j1000", 2.6),
                mk("steady/standard-j400", 0.9),
            ],
            view_delta: vec![
                mk("dense/parked-j1000", 1.9),
                mk("combined/parked-j1000", 3.4),
                mk("steady/standard-j400", 0.8),
            ],
            profit: vec![mk("parked/j40", 7.5), mk("steady/standard-j400", 0.9)],
            related: vec![],
            sweep: vec![],
            fuzz: vec![],
        };
        assert_eq!(report.admission_speedup(), 3.0);
        assert_eq!(report.backfill_speedup(), 2.0);
        assert_eq!(report.arrival_speedup(), 1.8);
        assert_eq!(report.event_kernel_speedup(), 2.2);
        assert_eq!(
            report.view_delta_speedup(),
            1.9,
            "steady cases are informational, not gated"
        );
        assert_eq!(
            report.sprofit_speedup(),
            7.5,
            "the profit gate tracks the parked cases only"
        );
        assert_eq!(report.sweep_speedup(), f64::INFINITY);
        assert_eq!(report.related_machines_gain(), f64::INFINITY);
    }

    /// The related-machines harness case: group-aware placement must beat
    /// the aggregate-blind wrapper on profit, and by the designed margin —
    /// each wave is worth 8 profit to fastest-first placement and 2 to
    /// slow-first, so the gain is exactly 4.
    #[test]
    fn related_harness_shows_group_aware_beating_blind() {
        let cases = run_related(&[10], 1);
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.id, "related/waves-w10");
        assert_eq!(c.aware_profit, 80, "8 profit per wave, all deadlines met");
        assert_eq!(c.blind_profit, 20, "only the easy jobs survive slow-first");
        assert!((c.gain - 4.0).abs() < 1e-9, "{c:?}");
        assert!(c.aware_ns > 0.0 && c.blind_ns > 0.0);
    }

    #[test]
    fn both_admission_implementations_admit_identically() {
        let params = AlgoParams::from_epsilon(1.0).unwrap();
        let stream = admission_stream(600, 42);
        assert_eq!(
            legacy_admission(&stream, params.c(), 0.9 * 512.0),
            treap_admission(&stream, params.c(), 0.9 * 512.0)
        );
    }

    #[test]
    fn harness_smoke_runs_and_reports_positive_ratios() {
        // Tiny sizes: correctness of the harness, not perf claims.
        let adm = run_admission(&[200], 3);
        let bf = run_backfill(&[100], 3);
        let storm = run_arrival_storm(&[500], 3);
        for c in adm.iter().chain(bf.iter()).chain(storm.iter()) {
            assert!(
                c.legacy_ns > 0.0 && c.new_ns > 0.0 && c.speedup > 0.0,
                "{c:?}"
            );
        }
    }

    #[test]
    fn event_kernel_harness_runs_and_covers_both_case_families() {
        // Tiny sizes: the embedded kernel-vs-scan equivalence assert is the
        // point here, not the measured ratio.
        let cases = run_event_kernel(&[200], 40, 1);
        assert_eq!(cases.len(), 3);
        assert!(cases[0].id.starts_with("dense/parked-"));
        assert!(cases[1].id.starts_with("dense/chains-"));
        assert!(cases[2].id.starts_with("steady/"));
        for c in &cases {
            assert!(
                c.legacy_ns > 0.0 && c.new_ns > 0.0 && c.speedup > 0.0,
                "{c:?}"
            );
        }
    }

    #[test]
    fn view_delta_harness_runs_and_covers_the_case_families() {
        // Tiny sizes: the embedded delta-vs-rebuild equivalence assert is
        // the point here, not the measured ratio.
        let cases = run_view_delta(&[200], 40, 1);
        assert_eq!(cases.len(), 4);
        assert!(cases[0].id.starts_with("dense/parked-"));
        assert!(cases[1].id.starts_with("dense/chains-"));
        assert!(cases[2].id.starts_with("combined/parked-"));
        assert!(cases[3].id.starts_with("steady/"));
        for c in &cases {
            assert!(
                c.legacy_ns > 0.0 && c.new_ns > 0.0 && c.speedup > 0.0,
                "{c:?}"
            );
        }
    }

    /// The general-profit harness at tiny sizes: the embedded
    /// rewrite-vs-twin `same_outcome` assert is the point, and even on a
    /// short horizon the parked case must show the rewrite strictly
    /// ahead — the frozen twin steps every tick of the plan gap.
    #[test]
    fn profit_harness_runs_and_covers_both_case_families() {
        let cases = run_profit(&[12], 2_000, 30, 1);
        assert_eq!(cases.len(), 2);
        assert!(cases[0].id.starts_with("parked/"));
        assert!(cases[1].id.starts_with("steady/"));
        for c in &cases {
            assert!(
                c.legacy_ns > 0.0 && c.new_ns > 0.0 && c.speedup > 0.0,
                "{c:?}"
            );
        }
        assert!(
            cases[0].speedup > 1.0,
            "the parked case must favor the fast path: {:?}",
            cases[0]
        );
    }

    #[test]
    fn storm_paths_consume_identical_work() {
        let specs = storm_specs();
        let dags: Vec<ReferenceDag> = specs.iter().map(|s| ReferenceDag::from_spec(s)).collect();
        for n in [1, 7, 100] {
            assert_eq!(legacy_storm(&dags, n), pooled_storm(&specs, n));
        }
    }

    #[test]
    fn fuzz_harness_reports_real_throughput() {
        let cases = run_fuzz_throughput(&[20]);
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.id, "fuzz/e20");
        assert_eq!(c.execs, 20);
        assert!(c.elapsed_ns > 0.0 && c.execs_per_sec > 0.0, "{c:?}");
        assert!(c.features > 0, "the timed loop must be doing real work");
    }

    #[test]
    fn sweep_harness_times_the_smoke_grid() {
        // The smoke grid keeps this a harness-correctness test, not a perf
        // claim; run_all uses B1.
        let cases = run_sweep_grid(&SweepGrid::smoke(), 2, 1);
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.id, "sweep/smoke-t2");
        assert!(c.t1_ns > 0.0 && c.tn_ns > 0.0 && c.speedup > 0.0, "{c:?}");
        assert!(host_cores() >= 1);
    }
}
