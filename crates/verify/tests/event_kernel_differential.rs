//! Differential oracle for the discrete-event kernel: with every other
//! knob fixed, [`WindowMode::EventKernel`] and [`WindowMode::ReferenceScan`]
//! must be **byte-identical** — same `SimResult` (including
//! `steps_executed`), same JSONL event stream.
//!
//! `stream_equiv.rs` proves fast-forward vs naive; `driver_differential.rs`
//! proves pacing is invisible. This file closes the third axis: *which
//! next-event selection* computed each window and expiry batch. It runs the
//! kernel against the frozen [`HorizonScan`] twin over the same corpus
//! (standard seeds + overload), over hand-built adversarial-tie instances
//! (simultaneous arrival + expiry + completion on one tick, events exactly
//! on window edges), over proptest-generated collision-dense instances, and
//! through `run_until` at proptest-chosen pause horizons.

use dagsched_core::{AlgoParams, JobId, Speed, Time};
use dagsched_engine::{
    simulate_observed, NodePick, OnlineScheduler, SimConfig, SimDriver, SimObserver, SimResult,
    WindowMode,
};
use dagsched_sched::{Edf, EdfAc, Fifo, GreedyDensity, LeastLaxity, SNoAdmission, SchedulerS};
use dagsched_verify::EventLog;
use dagsched_workload::{
    ArrivalProcess, DeadlinePolicy, Instance, JobSpec, StepProfitFn, WorkloadGen,
};

type SchedFactory = Box<dyn Fn() -> Box<dyn OnlineScheduler>>;

fn factories(m: u32) -> Vec<(&'static str, SchedFactory)> {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    vec![
        (
            "S",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0)) as _),
        ),
        (
            "S-wc",
            Box::new(move || Box::new(SchedulerS::with_epsilon(m, 1.0).work_conserving()) as _),
        ),
        (
            "S-noadmit",
            Box::new(move || Box::new(SNoAdmission::new(m, params)) as _),
        ),
        ("FIFO", Box::new(move || Box::new(Fifo::new(m)) as _)),
        ("EDF", Box::new(move || Box::new(Edf::new(m)) as _)),
        (
            "HDF",
            Box::new(move || Box::new(GreedyDensity::new(m)) as _),
        ),
        ("LLF", Box::new(move || Box::new(LeastLaxity::new(m)) as _)),
        ("EDF-AC", Box::new(move || Box::new(EdfAc::new(m)) as _)),
    ]
}

/// One observed run under the given window mode.
fn run_mode(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
    window: WindowMode,
) -> (SimResult, String) {
    let cfg = SimConfig {
        window,
        ..cfg.clone()
    };
    let mut log = EventLog::new();
    let r = simulate_observed(inst, mk().as_mut(), &cfg, &mut log).expect("run succeeds");
    (r, log.to_jsonl())
}

fn assert_matches(label: &str, kernel: (SimResult, String), scan: &(SimResult, String)) {
    assert!(
        kernel.0.same_outcome(&scan.0),
        "{label}: kernel outcome diverges from scan\n\
         kernel: profit {} ticks {}\nscan  : profit {} ticks {}",
        kernel.0.total_profit,
        kernel.0.ticks_simulated,
        scan.0.total_profit,
        scan.0.ticks_simulated,
    );
    assert_eq!(
        kernel.0.steps_executed, scan.0.steps_executed,
        "{label}: step count diverges (a window boundary moved)"
    );
    if kernel.1 != scan.1 {
        for (i, (k, s)) in kernel.1.lines().zip(scan.1.lines()).enumerate() {
            assert_eq!(k, s, "{label}: event streams diverge at line {i}");
        }
        panic!(
            "{label}: streams are a prefix of each other ({} vs {} lines)",
            kernel.1.lines().count(),
            scan.1.lines().count()
        );
    }
}

fn check_pair(
    inst: &Instance,
    mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
    cfg: &SimConfig,
    label: &str,
) {
    let scan = run_mode(inst, mk, cfg, WindowMode::ReferenceScan);
    let kernel = run_mode(inst, mk, cfg, WindowMode::EventKernel);
    assert_matches(label, kernel, &scan);
}

fn check_all(inst: &Instance, m: u32, label: &str) {
    for speed in [
        Speed::ONE,
        Speed::new(3, 2).expect("positive"),
        Speed::integer(2).expect("positive"),
    ] {
        for pick in [NodePick::Fifo, NodePick::CriticalPathFirst] {
            let cfg = SimConfig {
                speed,
                pick: pick.clone(),
                ..SimConfig::default()
            };
            for (name, mk) in &factories(m) {
                check_pair(
                    inst,
                    mk,
                    &cfg,
                    &format!("{label}: {name} at speed {speed:?} pick {pick:?}"),
                );
            }
        }
    }
    // The kernel's expiry index is maintained on the naive path too: one
    // representative naive configuration per instance.
    let naive = SimConfig {
        fast_forward: false,
        ..SimConfig::default()
    };
    for (name, mk) in &factories(m) {
        check_pair(inst, mk, &naive, &format!("{label}: {name} naive"));
    }
}

#[test]
fn kernel_matches_scan_on_standard_workloads() {
    for seed in [7u64, 191, 2024] {
        let m = 4 + (seed % 5) as u32;
        let inst = WorkloadGen::standard(m, 30, seed)
            .generate()
            .expect("valid workload");
        check_all(&inst, m, &format!("standard seed {seed}"));
    }
}

#[test]
fn kernel_matches_scan_under_overload() {
    // Tight deadlines + hot arrivals: the densest event stream, where every
    // source kind keeps re-arming.
    let m = 6;
    let inst = WorkloadGen {
        arrivals: ArrivalProcess::poisson_for_load(4.0, 60.0, m),
        deadlines: DeadlinePolicy::SlackFactor(1.2),
        ..WorkloadGen::standard(m, 50, 99)
    }
    .generate()
    .expect("valid workload");
    check_all(&inst, m, "overload");
}

/// Hand-built tie nest: on one machine of 2 processors, tick 10 carries a
/// completion frontier (job 0's 11-unit node claimed from t = 0), an expiry
/// boundary (job 1, deadline exactly 10 with an unstartable workload), and
/// an arrival (job 2) — all three source kinds due on the same tick, which
/// is also exactly the preceding window's edge.
fn triple_tie_instance() -> Instance {
    use dagsched_dag::gen;
    let jobs = vec![
        JobSpec::new(
            JobId(0),
            Time(0),
            gen::single(11).into_shared(),
            StepProfitFn::deadline(Time(100), 7),
        ),
        JobSpec::new(
            JobId(1),
            Time(0),
            gen::chain(4, 25).into_shared(),
            StepProfitFn::deadline(Time(10), 5),
        ),
        JobSpec::new(
            JobId(2),
            Time(10),
            gen::single(3).into_shared(),
            StepProfitFn::deadline(Time(20), 3),
        ),
    ];
    Instance::new(2, jobs).expect("valid tie instance")
}

#[test]
fn simultaneous_arrival_expiry_completion_tie() {
    let inst = triple_tie_instance();
    check_all(&inst, 2, "triple tie at t=10");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Collision-dense random instances: arrivals, works, and deadlines all
    /// drawn from single-digit ranges so simultaneous events and
    /// window-edge coincidences are the norm, not the exception.
    fn collision_instance(seed: u64, n: usize, m: u32) -> Instance {
        use dagsched_dag::gen;
        let mut rng = dagsched_core::Rng64::seed_from(seed);
        let mut arrivals: Vec<u64> = (0..n).map(|_| rng.gen_range(8)).collect();
        arrivals.sort_unstable();
        let jobs: Vec<JobSpec> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let work = 1 + rng.gen_range(6);
                let dag = if rng.gen_range(2) == 0 {
                    gen::single(work).into_shared()
                } else {
                    gen::chain(2, work.max(1)).into_shared()
                };
                let deadline = 1 + rng.gen_range(9);
                JobSpec::new(
                    JobId(i as u32),
                    Time(a),
                    dag,
                    StepProfitFn::deadline(Time(deadline), 1 + rng.gen_range(5)),
                )
            })
            .collect();
        Instance::new(m, jobs).expect("valid collision instance")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Kernel == scan on collision-dense instances for every production
        /// scheduler, fast-forward and naive.
        #[test]
        fn kernel_matches_scan_under_adversarial_ties(
            seed in 0u64..1000,
            n in 3usize..14,
            m in 1u32..4,
            sched_idx in 0usize..8,
            ff in 0u8..2,
        ) {
            let inst = collision_instance(seed, n, m);
            let cfg = SimConfig {
                fast_forward: ff == 1,
                ..SimConfig::default()
            };
            let mks = factories(m);
            let (name, mk) = &mks[sched_idx % mks.len()];
            check_pair(
                &inst,
                mk,
                &cfg,
                &format!("ties seed {seed} n {n} m {m} {name} ff {ff}"),
            );
        }

        /// Pausing a kernel-mode driver at arbitrary horizons matches the
        /// one-shot scan-mode run: mode and pacing are jointly invisible.
        #[test]
        fn paused_kernel_run_matches_one_shot_scan(
            seed in 0u64..500,
            hseed in 0u64..500,
            n_pauses in 1usize..12,
            sched_idx in 0usize..8,
        ) {
            let m = 4 + (seed % 5) as u32;
            let inst = WorkloadGen::standard(m, 20, seed)
                .generate()
                .expect("valid workload");
            let mks = factories(m);
            let (name, mk) = &mks[sched_idx % mks.len()];
            let scan = run_mode(&inst, mk, &SimConfig::default(), WindowMode::ReferenceScan);

            let span = inst.stats().horizon.ticks() + 8;
            let mut rng = dagsched_core::Rng64::seed_from(hseed);
            let kernel_cfg = SimConfig {
                window: WindowMode::EventKernel,
                ..SimConfig::default()
            };
            let mut log = EventLog::new();
            let mut sched = mk();
            let mut driver = SimDriver::with_observer(
                &inst,
                sched.as_mut(),
                &kernel_cfg,
                &mut log as &mut dyn SimObserver,
            );
            for _ in 0..n_pauses {
                driver
                    .run_until(Time(rng.gen_range(span.max(1))))
                    .expect("run_until runs");
            }
            let r = driver.finish().expect("finish runs");
            assert_matches(
                &format!("paused kernel seed {seed} {name}"),
                (r, log.to_jsonl()),
                &scan,
            );
        }
    }
}

/// Satellite: pausing `run_until` *exactly* on a tie instant — the tick
/// where a completion, an arrival, and an expiry all fire — must be
/// invisible under both window modes. A pause boundary landing on the tie
/// is the sharpest pacing test there is: the driver must split the window
/// on the instant without reordering any of the three coincident events.
mod paused_at_ties {
    use super::*;
    use std::collections::BTreeMap;

    /// Per-tick bitmask of job-level event kinds: 1 = arrival,
    /// 2 = completion, 4 = expiry.
    #[derive(Default)]
    struct TieFinder {
        ticks: BTreeMap<u64, u8>,
    }

    impl SimObserver for TieFinder {
        fn on_job_arrival(&mut self, now: Time, _info: &dagsched_engine::JobInfo) {
            *self.ticks.entry(now.0).or_default() |= 1;
        }
        fn on_job_complete(&mut self, at: Time, _job: JobId, _profit: u64) {
            *self.ticks.entry(at.0).or_default() |= 2;
        }
        fn on_job_expired(&mut self, at: Time, _job: JobId) {
            *self.ticks.entry(at.0).or_default() |= 4;
        }
    }

    /// A driver run paused at the given instants, under the given mode.
    fn run_paused(
        inst: &Instance,
        mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
        window: WindowMode,
        pauses: &[Time],
    ) -> (SimResult, String) {
        let cfg = SimConfig {
            window,
            ..SimConfig::default()
        };
        let mut log = EventLog::new();
        let mut sched = mk();
        let mut driver =
            SimDriver::with_observer(inst, sched.as_mut(), &cfg, &mut log as &mut dyn SimObserver);
        for &p in pauses {
            driver.run_until(p).expect("run_until runs");
        }
        let r = driver.finish().expect("finish runs");
        (r, log.to_jsonl())
    }

    /// The hand-built triple tie at t = 10: pause exactly on the tie, one
    /// tick before, one tick after, and repeatedly on the same instant —
    /// for every scheduler, under both window modes, against the one-shot
    /// reference scan.
    #[test]
    fn pausing_exactly_on_the_triple_tie_is_invisible() {
        let inst = triple_tie_instance();
        let tie = Time(10);
        let schedules: [&[Time]; 4] = [
            &[tie],
            &[Time(9), tie, Time(11)],
            &[tie, tie, Time(11)],
            &[Time(9), Time(9), tie],
        ];
        for (name, mk) in &factories(2) {
            let scan = run_mode(&inst, mk, &SimConfig::default(), WindowMode::ReferenceScan);
            for window in [WindowMode::EventKernel, WindowMode::ReferenceScan] {
                for (i, pauses) in schedules.iter().enumerate() {
                    let paused = run_paused(&inst, mk, window, pauses);
                    assert_matches(
                        &format!("triple-tie pause #{i} {name} {window:?}"),
                        paused,
                        &scan,
                    );
                }
            }
        }
    }

    /// The fuzzer's collision family: discover every tie instant (ticks
    /// where at least two event kinds coincide) with an observer pass, then
    /// pause exactly on each of them under both modes. At least one *triple*
    /// tie must exist across the corpus, or the family has lost its teeth.
    #[test]
    fn pausing_on_discovered_tie_instants_is_invisible() {
        // Seed re-rolled in PR 10: the profit-cliff entry widened the seed
        // corpus, reshuffling the deterministic draw — this seed restores a
        // triple tie (completion = arrival = expiry) within 24 instances.
        let corpus = dagsched_fuzz::collision_instances(0xC0111DF, 24);
        let mut saw_triple = false;
        for (ci, inst) in corpus.iter().enumerate() {
            let m = inst.m();
            let mks = factories(m);
            let (name, mk) = &mks[0]; // scheduler S
            let mut finder = TieFinder::default();
            simulate_observed(inst, mk().as_mut(), &SimConfig::default(), &mut finder)
                .expect("finder run");
            let ties: Vec<Time> = finder
                .ticks
                .iter()
                .filter(|&(_, &mask)| mask.count_ones() >= 2)
                .map(|(&t, _)| Time(t))
                .collect();
            saw_triple |= finder.ticks.values().any(|&mask| mask == 7);
            let scan = run_mode(inst, mk, &SimConfig::default(), WindowMode::ReferenceScan);
            for &tie in &ties {
                for window in [WindowMode::EventKernel, WindowMode::ReferenceScan] {
                    let paused = run_paused(inst, mk, window, &[tie]);
                    assert_matches(
                        &format!("collision #{ci} pause at {} {name} {window:?}", tie.0),
                        paused,
                        &scan,
                    );
                }
            }
        }
        assert!(
            saw_triple,
            "no completion = arrival = expiry instant in the collision corpus"
        );
    }
}

/// Fast-forward windows take the completion bound from the claim pass's
/// per-step fold, not from heap entries. These cases pin the regimes the
/// old per-node completion entries needed special rules for, three ways:
/// the default kernel run must match the naive path (outcome and JSONL)
/// and the scan twin (outcome, `steps_executed` and JSONL).
mod fold_windows {
    use super::*;
    use dagsched_core::MachineGroups;
    use dagsched_engine::JobStatus;
    use dagsched_sched::{RandomOrder, SchedulerSProfit};
    use dagsched_workload::ProfitShape;

    /// Kernel vs naive and kernel vs scan, all under `cfg`'s platform.
    fn check_three_way(
        inst: &Instance,
        mk: &dyn Fn() -> Box<dyn OnlineScheduler>,
        cfg: &SimConfig,
        label: &str,
    ) -> SimResult {
        let kernel = run_mode(inst, mk, cfg, WindowMode::EventKernel);
        let scan = run_mode(inst, mk, cfg, WindowMode::ReferenceScan);
        let naive_cfg = SimConfig {
            fast_forward: false,
            ..cfg.clone()
        };
        let naive = run_mode(inst, mk, &naive_cfg, WindowMode::EventKernel);
        assert!(
            kernel.0.same_outcome(&naive.0),
            "{label}: fast-forward outcome diverges from naive"
        );
        assert_eq!(kernel.1, naive.1, "{label}: JSONL diverges from naive");
        let result = kernel.0.clone();
        assert_matches(label, kernel, &scan);
        result
    }

    fn related(shape: &str) -> SimConfig {
        SimConfig {
            groups: Some(shape.parse::<MachineGroups>().expect("valid shape")),
            ..SimConfig::default()
        }
    }

    /// On a `1x1,1x2` platform under EDF, job 0's 20-unit node runs on the
    /// slow processor over [0, 4) (completion frontier 0 + 20 − 1 = 19),
    /// loses its claim to two more urgent jobs over [4, 12), and is
    /// re-claimed at t = 12 onto the fast processor with 16 units left —
    /// frontier 12 + 8 − 1 = 19 again. A heap-kept completion entry for
    /// the node had to survive (or be re-pushed across) that claim gap at
    /// an unchanged key; the fold has no entry to lose and sees q = 8.
    #[test]
    fn reclaim_onto_a_faster_group_at_an_unchanged_frontier() {
        use dagsched_dag::gen;
        let jobs = vec![
            JobSpec::new(
                JobId(0),
                Time(0),
                gen::single(20).into_shared(),
                StepProfitFn::deadline(Time(100), 1),
            ),
            JobSpec::new(
                JobId(1),
                Time(0),
                gen::single(24).into_shared(),
                StepProfitFn::deadline(Time(30), 1),
            ),
            JobSpec::new(
                JobId(2),
                Time(4),
                gen::single(8).into_shared(),
                StepProfitFn::deadline(Time(40), 1),
            ),
        ];
        let inst = Instance::new(2, jobs).expect("valid instance");
        let r = check_three_way(
            &inst,
            &|| Box::new(Edf::new(2)) as _,
            &related("1x1,1x2"),
            "faster-group reclaim",
        );
        // Both urgent jobs finish at 12; job 0 then finishes its last 16
        // units on the fast processor by 20 — on the slow one it would
        // take until 28.
        let done: Vec<Time> = r
            .outcomes
            .iter()
            .map(|o| match *o {
                JobStatus::Completed { at, .. } => at,
                ref other => panic!("every job completes, got {other:?}"),
            })
            .collect();
        assert_eq!(done, vec![Time(20), Time(12), Time(12)]);
    }

    /// The same re-claim under a scheduler whose allocation reshuffles
    /// *between* events: `RandomOrder` re-rolls its order every tick on a
    /// `2x1,1x2` platform, so a node can lose its claim while every other
    /// claimed frontier lies beyond its own, and come back on the fast
    /// processor at an unchanged frontier. A heap that discarded the
    /// node's entry as stale during the gap and did not re-push it widened
    /// the next window past the node's completion; the fold cannot.
    #[test]
    fn random_order_reclaim_onto_a_faster_group() {
        let inst = dagsched_workload::codec::decode(
            "dagsched-instance v1\nm 3\njobs 4\n\
             job 0\narrival 1\nprofit 1 0\nseg 47 6\nnodes 2\nwork 23 23\nedges 1\nedge 0 1\nend\n\
             job 1\narrival 2\nprofit 1 0\nseg 27 3\nnodes 2\nwork 15 15\nedges 1\nedge 0 1\nend\n\
             job 2\narrival 2\nprofit 1 0\nseg 7 9\nnodes 2\nwork 7 7\nedges 1\nedge 0 1\nend\n\
             job 3\narrival 3\nprofit 1 0\nseg 31 9\nnodes 1\nwork 17\nedges 0\nend\n",
        )
        .expect("valid instance");
        check_three_way(
            &inst,
            &|| Box::new(RandomOrder::new(3, 60)) as _,
            &related("2x1,1x2"),
            "random-order faster-group reclaim",
        );
    }

    /// `RandomOrder` (single-tick bounded windows) and `SchedulerSProfit`
    /// (slot-plan bounded windows) on uniform and related platforms, over
    /// deadline and stepped-decay profit workloads.
    #[test]
    fn bounded_schedulers_take_fold_windows() {
        type Mk = Box<dyn Fn(u32) -> Box<dyn OnlineScheduler>>;
        let scheds: Vec<(&str, Mk)> = vec![
            (
                "random-order",
                Box::new(|m| Box::new(RandomOrder::new(m, 0xD1CE)) as _),
            ),
            (
                "S-profit",
                Box::new(|m| Box::new(SchedulerSProfit::with_epsilon(m, 1.0)) as _),
            ),
        ];
        for seed in [3u64, 41, 977] {
            for shape in [
                ProfitShape::Deadline,
                ProfitShape::SteppedDecay {
                    extra_steps: 3,
                    time_factor: 1.6,
                    value_factor: 0.4,
                },
            ] {
                let inst = WorkloadGen {
                    shape,
                    ..WorkloadGen::standard(4, 30, seed)
                }
                .generate()
                .expect("valid workload");
                for platform in [SimConfig::default(), related("2x1,2x2")] {
                    for (name, mk) in &scheds {
                        check_three_way(
                            &inst,
                            &|| mk(4),
                            &platform,
                            &format!("{name} seed {seed} {shape:?} groups {:?}", platform.groups),
                        );
                    }
                }
            }
        }
    }
}
