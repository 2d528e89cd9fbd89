//! The benchmark's workloads: seeded inputs, the timed operation, and the
//! output check every operation passes through.
//!
//! | workload | one op | checked against |
//! |---|---|---|
//! | `cluster-day` | S and HDF each `simulate` the day once | naive-path run, `same_outcome` |
//! | `parked-profit` | S-profit on a parked profit instance, EDF and HDF on parked chains | naive-path run, `same_outcome` |
//! | `grid` | one B1 sweep pass at `nproc` threads plus `fractional_ub` per instance and speed | `run(1)`, and profit ≤ bound per cell |
//! | `fuzz` | one fuzz session, master seed drawn from the run's seed | zero failures, full exec budget |
//!
//! Every op runs the default [`SimConfig`]. A multi-scheduler op runs each
//! scheduler once, so its wall time is one sample rather than a mixture of
//! differently sized samples.

use crate::layers::{traced_simulate, EngineCounts, SchedCalls};
use crate::trace::span;
use dagsched_core::{AlgoParams, JobId, Rng64, Speed, Time};
use dagsched_dag::gen;
use dagsched_engine::{simulate, simulate_observed, SimConfig, SimResult};
use dagsched_experiments::{SchedKind, SweepGrid, SweepResult};
use dagsched_fuzz::{FuzzConfig, FuzzReport, FuzzSession};
use dagsched_opt::fractional_ub;
use dagsched_verify::InvariantSuite;
use dagsched_workload::{ClusterTraceGen, Instance, JobSpec, StepProfitFn, WorkloadGen};
use std::sync::Arc;
use std::time::Instant;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The realistic dense trace: fast-forward skips almost nothing.
    ClusterDay,
    /// Parked shapes where bulk fast-forward does most of the work.
    ParkedProfit,
    /// Many small instances through the sharded sweep runtime.
    Grid,
    /// Tiny adversarial instances through every oracle head.
    Fuzz,
}

impl Kind {
    /// Every workload, in reporting order.
    pub const ALL: [Kind; 4] = [Kind::ClusterDay, Kind::ParkedProfit, Kind::Grid, Kind::Fuzz];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ClusterDay => "cluster-day",
            Kind::ParkedProfit => "parked-profit",
            Kind::Grid => "grid",
            Kind::Fuzz => "fuzz",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Input sizes. [`Size::FULL`] is what the benchmark measures;
/// [`Size::SMALL`] keeps the same shapes at test scale.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Jobs in the cluster-day trace (on 64 processors).
    pub cluster_jobs: usize,
    /// Background (and foreground) jobs of the parked chains instance.
    pub parked_jobs: usize,
    /// Background jobs of the parked profit instance.
    pub profit_jobs: usize,
    /// Horizon of the parked profit instance's background profit.
    pub profit_horizon: u64,
    /// Workload seeds on the grid's seed axis.
    pub grid_seeds: u64,
    /// Exec budget of one fuzz session.
    pub fuzz_execs: u64,
}

impl Size {
    /// The measured sizes.
    pub const FULL: Size = Size {
        cluster_jobs: 20_000,
        parked_jobs: 1_500,
        profit_jobs: 4_000,
        profit_horizon: 50_000,
        grid_seeds: 24,
        fuzz_execs: 300,
    };

    /// Test sizes: same shapes, a few milliseconds per op.
    pub const SMALL: Size = Size {
        cluster_jobs: 400,
        parked_jobs: 60,
        profit_jobs: 60,
        profit_horizon: 5_000,
        grid_seeds: 1,
        fuzz_execs: 40,
    };
}

/// Seeded parked deadline chains: `n` long background jobs released at 0
/// with a far deadline, parked behind a stream of `n` short two-node
/// chains with tight deadlines. EDF and HDF run the stream first; once it
/// ends, the background runs in long stable windows that fast-forward
/// covers in one step each. The seed jitters background work and the
/// gaps between foreground arrivals.
pub fn parked_chains(n: usize, seed: u64) -> Instance {
    let mut rng = Rng64::seed_from(seed).child(0x9A4C);
    let far = Time(500_000);
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(9_000 + rng.gen_range(2_001)).into_shared(),
                StepProfitFn::deadline(far, 1),
            )
        })
        .collect();
    let mut t = 0u64;
    for i in 0..n {
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time(t),
            gen::chain(2, 2).into_shared(),
            StepProfitFn::deadline(Time(60), 3),
        ));
        t += rng.gen_range(3);
    }
    Instance::new(4, jobs).expect("parked chains are a valid instance")
}

/// Seeded parked two-step-profit instance: `n` background jobs whose
/// profit halves at `horizon / 2` and ends at `horizon`, plus a wave of
/// `n / 2` short chains with a two-step profit. S-profit's slot plan and
/// `stable_until` carry the long background stretches. The seed jitters
/// background work and the wave's arrival gaps.
pub fn parked_profit(n: usize, horizon: u64, seed: u64) -> Instance {
    let mut rng = Rng64::seed_from(seed).child(0x9F0F);
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
                gen::single(4_500 + rng.gen_range(1_001)).into_shared(),
                background.clone(),
            )
        })
        .collect();
    let mut t = 0u64;
    for i in 0..n / 2 {
        jobs.push(JobSpec::new(
            JobId((n + i) as u32),
            Time(t),
            gen::chain(3, 2).into_shared(),
            wave.clone(),
        ));
        t += 1 + rng.gen_range(3);
    }
    Instance::new(4, jobs).expect("parked profit is a valid instance")
}

/// One `simulate` call of an op.
pub struct Case {
    /// Scheduler label, for reports.
    pub label: String,
    /// The instance.
    pub inst: Arc<Instance>,
    /// The scheduler, built fresh for every call.
    pub sched: SchedKind,
    /// Engine configuration (the default, or the grid cell's speed).
    pub cfg: SimConfig,
    /// Σ max profit of the instance.
    pub offered: u64,
    /// The naive-path result (`fast_forward: false`), once computed.
    pub reference: Option<SimResult>,
}

impl Case {
    fn new(inst: Arc<Instance>, sched: SchedKind, cfg: SimConfig) -> Case {
        Case {
            label: sched.label(),
            offered: inst.jobs().iter().map(JobSpec::max_profit).sum(),
            inst,
            sched,
            cfg,
            reference: None,
        }
    }

    /// Default-path run, untimed and unchecked.
    pub fn run(&self) -> SimResult {
        let mut s = self.sched.build(self.inst.m());
        simulate(&self.inst, s.as_mut(), &self.cfg).expect("production schedulers allocate validly")
    }

    /// Default-path run through the traced scheduler and stepped driver.
    pub fn run_traced(&self) -> (SimResult, SchedCalls) {
        let mut s = self.sched.build(self.inst.m());
        traced_simulate(&self.inst, s.as_mut(), &self.cfg)
            .expect("production schedulers allocate validly")
    }

    /// Naive-path run: the reference every default-path run must equal.
    pub fn run_naive(&self) -> SimResult {
        let cfg = SimConfig {
            fast_forward: false,
            ..self.cfg.clone()
        };
        let mut s = self.sched.build(self.inst.m());
        simulate(&self.inst, s.as_mut(), &cfg).expect("production schedulers allocate validly")
    }

    /// Default-path run with the event-counting observer attached.
    pub fn run_counted(&self) -> (SimResult, EngineCounts) {
        let mut s = self.sched.build(self.inst.m());
        let mut counts = EngineCounts::default();
        let r = simulate_observed(&self.inst, s.as_mut(), &self.cfg, &mut counts)
            .expect("production schedulers allocate validly");
        (r, counts)
    }

    /// Whether the invariant suite for scheduler S applies: S itself, on a
    /// unit-speed uniform platform.
    pub fn invariants_apply(&self) -> bool {
        matches!(self.sched, SchedKind::S { .. })
            && self.cfg.speed == Speed::ONE
            && self.cfg.groups.is_none()
    }

    /// Run S under its invariant suite; returns the result and the
    /// violations recorded.
    pub fn run_with_invariants(&self) -> (SimResult, Vec<String>) {
        let SchedKind::S { epsilon } = self.sched else {
            panic!("the invariant suite models scheduler S only")
        };
        let params = AlgoParams::from_epsilon(epsilon).expect("valid epsilon");
        let mut suite = InvariantSuite::for_scheduler_s(params).lenient();
        let mut s = self.sched.build(self.inst.m());
        let r = simulate_observed(&self.inst, s.as_mut(), &self.cfg, &mut suite)
            .expect("production schedulers allocate validly");
        let violations = suite.violations().iter().map(|v| v.to_string()).collect();
        (r, violations)
    }
}

/// The fractional OPT bound of one grid instance at one speed.
struct Bound {
    inst: Arc<Instance>,
    seed: u64,
    m: u32,
    speed: Speed,
}

// One `Body` lives per process, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
enum Body {
    /// Workloads whose op is a list of `simulate` calls.
    Sim,
    /// The sweep grid; `cases` replays its cells one by one for the
    /// traced run.
    Grid {
        grid: SweepGrid,
        threads: usize,
        bounds: Vec<Bound>,
        reference: Option<(SweepResult, Vec<u64>)>,
        offered: u64,
        jobs: u64,
    },
    /// Fuzz sessions: op `i` runs `cfg` with the `i`-th master seed drawn
    /// from the run's seed, so one run averages over many trajectories.
    Fuzz { cfg: FuzzConfig, seeds: Rng64 },
}

/// The outcome of one op.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    /// Wall time of the op itself (checks excluded), ms.
    pub ms: f64,
    /// Units of throughput done: jobs on the `simulate` workloads, cells
    /// on the grid, execs on fuzz.
    pub items: u64,
    /// Simulated jobs retired (completed, expired or unfinished).
    pub jobs: u64,
    /// Profit earned.
    pub profit: u64,
    /// Profit offered.
    pub offered: u64,
    /// Outputs checked.
    pub checked: u64,
    /// Outputs that failed their check, with the reason.
    pub failures: Vec<String>,
}

/// Per-layer tallies of one traced (or untraced twin) layer op.
#[derive(Debug, Clone, Default)]
pub struct LayerOp {
    /// The op's checked outcome.
    pub outcome: OpOutcome,
    /// Wall time of the `simulate` calls alone, ms.
    pub sim_ms: f64,
    /// Engine steps executed, Σ over cases.
    pub steps: u64,
    /// Ticks simulated, Σ over cases.
    pub ticks: u64,
    /// Scheduler call counts, Σ over cases.
    pub calls: SchedCalls,
    /// Fuzz session report, on the fuzz workload.
    pub fuzz: Option<FuzzReport>,
}

/// Size facts of a workload's generated inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputFacts {
    /// Jobs over the distinct instances.
    pub jobs: u64,
    /// DAG nodes over the distinct instances.
    pub nodes: u64,
    /// Work units over the distinct instances.
    pub work: u64,
}

/// A set-up workload, ready to run ops.
pub struct Workload {
    /// The `simulate` calls of one op (sim workloads) or of one replayed
    /// grid pass (grid; the traced run's layer view).
    pub cases: Vec<Case>,
    /// Size facts of the generated inputs.
    pub facts: InputFacts,
    body: Body,
}

fn facts_of<'a>(insts: impl IntoIterator<Item = &'a Instance>) -> InputFacts {
    let mut f = InputFacts::default();
    for inst in insts {
        f.jobs += inst.len() as u64;
        for j in inst.jobs() {
            f.nodes += j.dag.num_nodes() as u64;
            f.work += j.work().units();
        }
    }
    f
}

/// The grid sweep's per-`(axis seed, m)` workload seed; mirrors
/// `dagsched_experiments::sweep`, and the replay check against the sweep's
/// own cells catches any drift.
fn grid_workload_seed(base: u64, axis_seed: u64, m: u32) -> u64 {
    Rng64::seed_from(base)
        .child(axis_seed)
        .child(m as u64)
        .next_u64()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Workload {
    /// Generate the workload's inputs from `seed` and build what its ops
    /// need. Everything here counts as set-up.
    pub fn setup(kind: Kind, seed: u64, size: Size) -> Workload {
        let _s = span("workload.gen");
        let cfg = SimConfig::default();
        let (cases, body, facts) = match kind {
            Kind::ClusterDay => {
                let inst = Arc::new(
                    ClusterTraceGen::new(64, size.cluster_jobs, seed)
                        .generate()
                        .expect("cluster trace generates"),
                );
                let facts = facts_of([inst.as_ref()]);
                let cases = vec![
                    Case::new(inst.clone(), SchedKind::S { epsilon: 1.0 }, cfg.clone()),
                    Case::new(inst, SchedKind::Hdf, cfg),
                ];
                (cases, Body::Sim, facts)
            }
            Kind::ParkedProfit => {
                let profit = Arc::new(parked_profit(size.profit_jobs, size.profit_horizon, seed));
                let chains = Arc::new(parked_chains(size.parked_jobs, seed));
                let facts = facts_of([profit.as_ref(), chains.as_ref()]);
                let cases = vec![
                    Case::new(profit, SchedKind::SProfit { epsilon: 1.0 }, cfg.clone()),
                    Case::new(chains.clone(), SchedKind::Edf, cfg.clone()),
                    Case::new(chains, SchedKind::Hdf, cfg),
                ];
                (cases, Body::Sim, facts)
            }
            Kind::Grid => {
                let grid = SweepGrid {
                    seeds: (1..=size.grid_seeds).collect(),
                    base_seed: seed,
                    ..SweepGrid::b1()
                };
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                let mut cases = Vec::with_capacity(grid.len());
                let mut bounds = Vec::new();
                let (mut offered, mut jobs) = (0, 0);
                let mut insts: Vec<Vec<Arc<Instance>>> = Vec::new();
                for &axis_seed in &grid.seeds {
                    let row: Vec<Arc<Instance>> = grid
                        .ms
                        .iter()
                        .map(|&m| {
                            let wseed = grid_workload_seed(grid.base_seed, axis_seed, m);
                            Arc::new(
                                WorkloadGen::standard(m, grid.n_jobs, wseed)
                                    .generate()
                                    .expect("standard workloads generate"),
                            )
                        })
                        .collect();
                    for (inst, &m) in row.iter().zip(&grid.ms) {
                        for &speed in &grid.speeds {
                            bounds.push(Bound {
                                inst: inst.clone(),
                                seed: axis_seed,
                                m,
                                speed,
                            });
                        }
                    }
                    insts.push(row);
                }
                // Cells in grid order: seed-major, then scheduler, speed, m.
                for row in &insts {
                    for kind in &grid.scheds {
                        for &speed in &grid.speeds {
                            for inst in row {
                                let case = Case::new(
                                    inst.clone(),
                                    kind.clone(),
                                    SimConfig::at_speed(speed),
                                );
                                offered += case.offered;
                                jobs += inst.len() as u64;
                                cases.push(case);
                            }
                        }
                    }
                }
                let facts = facts_of(insts.iter().flatten().map(|i| i.as_ref()));
                let body = Body::Grid {
                    grid,
                    threads,
                    bounds,
                    reference: None,
                    offered,
                    jobs,
                };
                (cases, body, facts)
            }
            Kind::Fuzz => {
                let cfg = FuzzConfig {
                    max_execs: size.fuzz_execs,
                    minimize: false,
                    ..FuzzConfig::default()
                };
                let seeds = Rng64::seed_from(seed).child(0xF022);
                // Fuzz instances are generated inside the session.
                let facts = InputFacts::default();
                (Vec::new(), Body::Fuzz { cfg, seeds }, facts)
            }
        };
        Workload { cases, facts, body }
    }

    /// Run one op without checking it: the warm-up that ends set-up.
    pub fn warm(&self) {
        match &self.body {
            Body::Sim => {
                for c in &self.cases {
                    std::hint::black_box(c.run());
                }
            }
            Body::Grid {
                grid,
                threads,
                bounds,
                ..
            } => {
                std::hint::black_box(grid.run(*threads));
                for b in bounds {
                    std::hint::black_box(fractional_ub(&b.inst, b.speed));
                }
            }
            Body::Fuzz { cfg, .. } => {
                // The default master seed: warm-up costs the same on every
                // run, whatever trajectories the run's own seed draws.
                std::hint::black_box(FuzzSession::new(cfg.clone()).run());
            }
        }
    }

    /// Compute the references every op is checked against: naive-path runs
    /// for `simulate` cases, `run(1)` and the bounds for the grid (fuzz
    /// sessions check themselves). The grid's replayed cells get
    /// naive-path references only when `layers` asks for the traced run's
    /// layer view. Returns the wall time of the naive-path runs in ms (0
    /// when none ran).
    pub fn prepare_reference(&mut self, layers: bool) -> f64 {
        let mut naive_ms = 0.0;
        if !self.cases.is_empty() && (layers || matches!(self.body, Body::Sim)) {
            let t = Instant::now();
            for c in &mut self.cases {
                c.reference = Some(c.run_naive());
            }
            naive_ms = ms_since(t);
        }
        match &mut self.body {
            Body::Sim => {}
            Body::Grid {
                grid,
                bounds,
                reference,
                ..
            } => {
                let ubs = bounds
                    .iter()
                    .map(|b| fractional_ub(&b.inst, b.speed))
                    .collect();
                *reference = Some((grid.run(1), ubs));
            }
            Body::Fuzz { .. } => {}
        }
        naive_ms
    }

    /// One timed end-to-end op, then its output checks.
    pub fn op(&mut self) -> OpOutcome {
        match &mut self.body {
            Body::Sim => {
                let mut out = OpOutcome::default();
                for c in &self.cases {
                    let t = Instant::now();
                    let r = std::hint::black_box(c.run());
                    out.ms += ms_since(t);
                    check_sim(c, &r, &mut out);
                }
                out
            }
            Body::Grid {
                grid,
                threads,
                bounds,
                reference,
                offered,
                jobs,
            } => {
                let t = Instant::now();
                let res = grid.run(*threads);
                let ubs: Vec<u64> = bounds
                    .iter()
                    .map(|b| fractional_ub(&b.inst, b.speed))
                    .collect();
                let ms = ms_since(t);
                let mut out = OpOutcome {
                    ms,
                    items: res.cells.len() as u64,
                    jobs: *jobs,
                    profit: res.cells.iter().map(|c| c.profit).sum(),
                    offered: *offered,
                    checked: 1,
                    failures: Vec::new(),
                };
                let (ref_res, ref_ubs) = reference.as_ref().expect("reference prepared");
                if &res != ref_res {
                    out.failures.push("grid pass differs from run(1)".into());
                } else if &ubs != ref_ubs {
                    out.failures
                        .push("fractional_ub differs between passes".into());
                } else if let Some(c) = res.cells.iter().find(|c| {
                    let b = bounds
                        .iter()
                        .position(|b| b.seed == c.seed && b.m == c.m && b.speed == c.speed)
                        .expect("every cell has a bound");
                    c.profit > ubs[b]
                }) {
                    out.failures.push(format!(
                        "{} earned {} above the OPT bound (seed {}, m {}, speed {})",
                        c.sched, c.profit, c.seed, c.m, c.speed
                    ));
                }
                out
            }
            Body::Fuzz { cfg, seeds } => fuzz_op(cfg, seeds).0,
        }
    }

    /// One layer op for the traced run: the same work as [`op`](Self::op)
    /// seen layer by layer. With `traced`, `simulate` cases run through
    /// the traced scheduler and stepped driver; without, they run plain —
    /// the untraced twin that prices the tracing. On the grid the layer
    /// view replays every cell on one thread.
    pub fn layer_op(&mut self, traced: bool) -> LayerOp {
        let mut lop = LayerOp::default();
        let out = &mut lop.outcome;
        let _op = span("op");
        let sweep_cells = match &self.body {
            Body::Grid { reference, .. } => {
                Some(&reference.as_ref().expect("reference prepared").0.cells)
            }
            _ => None,
        };
        for (i, c) in self.cases.iter().enumerate() {
            let t = Instant::now();
            let r = if traced {
                let (r, calls) = c.run_traced();
                lop.calls.delta_calls += calls.delta_calls;
                lop.calls.delta_hits += calls.delta_hits;
                r
            } else {
                c.run()
            };
            let ms = ms_since(t);
            out.ms += ms;
            lop.sim_ms += ms;
            lop.steps += r.steps_executed;
            lop.ticks += r.ticks_simulated;
            check_sim(c, &r, out);
            if let Some(cell) = sweep_cells.map(|cells| &cells[i]) {
                let replayed = (
                    r.total_profit,
                    r.completed(),
                    r.ticks_simulated,
                    r.steps_executed,
                );
                if replayed != (cell.profit, cell.completed, cell.ticks, cell.steps) {
                    out.failures.push(format!(
                        "{}: replayed cell differs from the sweep's (seed {}, m {}, speed {})",
                        c.label, cell.seed, cell.m, cell.speed
                    ));
                }
            }
        }
        match &mut self.body {
            Body::Sim => {}
            Body::Grid {
                bounds, reference, ..
            } => {
                out.items = self.cases.len() as u64;
                let t = Instant::now();
                let ubs: Vec<u64> = {
                    let _s = span("opt.ub");
                    bounds
                        .iter()
                        .map(|b| fractional_ub(&b.inst, b.speed))
                        .collect()
                };
                out.ms += ms_since(t);
                out.checked += 1;
                if ubs != reference.as_ref().expect("reference prepared").1 {
                    out.failures
                        .push("fractional_ub differs between passes".into());
                }
            }
            Body::Fuzz { cfg, seeds } => {
                let (outcome, rep) = fuzz_op(cfg, seeds);
                *out = outcome;
                lop.fuzz = Some(rep);
            }
        }
        lop
    }

    /// Sweep-runtime timings on the grid: `(t1_ms, tn_ms, threads,
    /// instances generated)`, each time the median of `reps` passes.
    /// `None` on other workloads.
    pub fn sweep_timings(&self, reps: usize) -> Option<(f64, f64, usize, usize)> {
        let Body::Grid { grid, threads, .. } = &self.body else {
            return None;
        };
        let mut t1 = Vec::new();
        let mut tn = Vec::new();
        let mut instances = 0;
        for _ in 0..reps {
            let t = Instant::now();
            instances = grid.run(1).instances_generated;
            t1.push(ms_since(t));
            let t = Instant::now();
            std::hint::black_box(grid.run(*threads));
            tn.push(ms_since(t));
        }
        Some((
            crate::report::median(&mut t1),
            crate::report::median(&mut tn),
            *threads,
            instances,
        ))
    }
}

/// Check a default-path result against its case's naive-path reference
/// and fold it into `out`.
fn check_sim(c: &Case, r: &SimResult, out: &mut OpOutcome) {
    out.items += c.inst.len() as u64;
    out.jobs += (r.completed() + r.expired() + r.unfinished()) as u64;
    out.profit += r.total_profit;
    out.offered += c.offered;
    out.checked += 1;
    let reference = c.reference.as_ref().expect("reference prepared");
    if !r.same_outcome(reference) {
        out.failures.push(format!(
            "{}: default path differs from the naive path (profit {} vs {})",
            c.label, r.total_profit, reference.total_profit
        ));
    }
}

/// Run one fuzz session on the next master seed and check it: no
/// failures, and the whole exec budget spent.
fn fuzz_op(cfg: &FuzzConfig, seeds: &mut Rng64) -> (OpOutcome, FuzzReport) {
    let cfg = FuzzConfig {
        master_seed: seeds.next_u64(),
        ..cfg.clone()
    };
    let t = Instant::now();
    let rep = {
        let _s = span("fuzz.session");
        FuzzSession::new(cfg.clone()).run()
    };
    let mut out = OpOutcome {
        ms: ms_since(t),
        items: rep.execs,
        checked: 1,
        ..OpOutcome::default()
    };
    if let Some(f) = rep.failures.first() {
        out.failures.push(format!(
            "fuzz seed {:#x}: {} failure(s); first: {} — {}",
            cfg.master_seed,
            rep.failures.len(),
            f.oracle,
            f.detail
        ));
    } else if rep.execs != cfg.max_execs {
        out.failures.push(format!(
            "fuzz seed {:#x}: ran {} of {} execs",
            cfg.master_seed, rep.execs, cfg.max_execs
        ));
    }
    (out, rep)
}
