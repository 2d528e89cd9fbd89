//! Byte-level golden digests for the alive-set schedulers.
//!
//! The work-conserving baselines (EDF, HDF, FIFO, LLF, RandomOrder), the
//! admission-less ablation S-noadmit and the general-profit S-profit each
//! run a fixed corpus under the default [`SimConfig`] with an [`EventLog`]
//! attached. The test pins two 64-bit FNV-1a digests per run:
//!
//! * of the [`SimResult`] `Debug` string, which covers every field
//!   (scheduler name, per-job outcomes, profit, end time, tick and step
//!   counters), and
//! * of the JSONL event stream: every arrival, admission decision,
//!   execution window, completion and expiry.
//!
//! The constants were computed before the schedulers' alive index and slot
//! search were rewritten, so a hot-path change that alters any decision,
//! any tie-break or the engine's step count fails here. The baselines have
//! no frozen twin, so this file is their only byte-level oracle.
//!
//! Corpus (built inline; the same shapes as the benchmark's workloads):
//!
//! * `parked-chains` — 1,000 long background jobs released at 0 with
//!   jittered deadlines and heavy key ties, parked behind 1,000 short
//!   two-node chains with tight deadlines;
//! * `parked-profit` — 1,000 background jobs with a two-step profit
//!   (halving at tick 2,500, ending at 5,000) plus a wave of 500 short
//!   chains; S-profit rejects most of the background at admission;
//! * `standard-<seed>` — two `WorkloadGen::standard` instances.
//!
//! On a mismatch the test prints the whole table as computed, in the
//! source form of [`GOLDEN`].

use dagsched_core::{AlgoParams, JobId, Rng64, Time};
use dagsched_dag::gen;
use dagsched_engine::{simulate_observed, OnlineScheduler, SimConfig};
use dagsched_fuzz::ir::fnv1a;
use dagsched_sched::{
    Edf, Fifo, GreedyDensity, LeastLaxity, RandomOrder, SNoAdmission, SchedulerSProfit,
};
use dagsched_verify::EventLog;
use dagsched_workload::{Instance, JobSpec, StepProfitFn, WorkloadGen};

/// `(instance, scheduler, digest of the SimResult Debug string, digest of
/// the JSONL event log)`.
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    (
        "parked-chains",
        "EDF",
        0xc217b1446409361d,
        0x3aaaea89805f01b4,
    ),
    (
        "parked-chains",
        "HDF",
        0xdf5bcaa6fb42bc8f,
        0x563dc83f97eb1773,
    ),
    (
        "parked-chains",
        "FIFO",
        0x565dab2edf10a193,
        0xb80e078e510bc9cc,
    ),
    (
        "parked-chains",
        "LLF",
        0x3d38e6540e2a18ff,
        0xa85f99636e77b2f8,
    ),
    (
        "parked-chains",
        "RANDOM",
        0xcb07043ad2b264ba,
        0x79778636fe08cab7,
    ),
    (
        "parked-chains",
        "S-noadmit",
        0x2656d0eabae35cb9,
        0x2f611cecddde6d69,
    ),
    (
        "parked-chains",
        "S-profit",
        0x5f952d8323056910,
        0x8a33760fcc55fad6,
    ),
    (
        "parked-profit",
        "EDF",
        0x0c11a538372079e5,
        0xb3d7b0cc3ead7de4,
    ),
    (
        "parked-profit",
        "HDF",
        0x444025479dc78662,
        0x7b7525695e4fd45d,
    ),
    (
        "parked-profit",
        "FIFO",
        0x0ccdc6b5959c36d6,
        0xab7553a1fdf60de2,
    ),
    (
        "parked-profit",
        "LLF",
        0x15ee208ab4e6d890,
        0x7d5119dedca3a34e,
    ),
    (
        "parked-profit",
        "RANDOM",
        0xa7ae23065b59015a,
        0x43b5f747c2211f1b,
    ),
    (
        "parked-profit",
        "S-noadmit",
        0x855c84625304cb51,
        0xb71461d8f46961d3,
    ),
    (
        "parked-profit",
        "S-profit",
        0x58a9cb306fec9c60,
        0xd777715fcec2e528,
    ),
    ("standard-5", "EDF", 0x447bd5723a82d0d8, 0xf5a0aedf6c83f6d7),
    ("standard-5", "HDF", 0xfbed88b8d36c60a9, 0x83050e2e947678e0),
    ("standard-5", "FIFO", 0x48e0a11271fc9a67, 0x83050e2e947678e0),
    ("standard-5", "LLF", 0xcd519802857ac888, 0x8e8c651d52e71282),
    (
        "standard-5",
        "RANDOM",
        0x1854e21b6cc7c658,
        0x849d9a8b891be532,
    ),
    (
        "standard-5",
        "S-noadmit",
        0xb45beaad3e24a703,
        0x3b47b9ae6802b0b8,
    ),
    (
        "standard-5",
        "S-profit",
        0x6fa9f28a01462d2d,
        0x972d0802f83ff5e0,
    ),
    (
        "standard-2024",
        "EDF",
        0xd5341f4012e99120,
        0x6f1b38859961f23c,
    ),
    (
        "standard-2024",
        "HDF",
        0xad34dd8a5dc6d427,
        0x73b37f12f54cd042,
    ),
    (
        "standard-2024",
        "FIFO",
        0xd20f1c165f1315e9,
        0x73b37f12f54cd042,
    ),
    (
        "standard-2024",
        "LLF",
        0x3893bcb835c8e033,
        0xff1289c1668039f9,
    ),
    (
        "standard-2024",
        "RANDOM",
        0xa41d00ee1fb100c8,
        0x064589324091d1be,
    ),
    (
        "standard-2024",
        "S-noadmit",
        0xa67e610931c2f087,
        0xb2a7ded18c329b14,
    ),
    (
        "standard-2024",
        "S-profit",
        0x8d675ede2d5de5dd,
        0xbc280b24d1349ba7,
    ),
];

/// Parked deadline chains: `n` single-node background jobs released at 0
/// with deadlines jittered over `[3000, 6000)` (ties under EDF, HDF and
/// LLF), behind `n` two-node chains with a 60-tick deadline arriving every
/// 0–2 ticks.
fn parked_chains(n: usize, seed: u64) -> Instance {
    let mut rng = Rng64::seed_from(seed).child(0x9A4C);
    let mut jobs: Vec<JobSpec> = (0..n)
        .map(|i| {
            let work = 2_000 + rng.gen_range(2_001);
            let deadline = 3_000 + rng.gen_range(3_000);
            JobSpec::new(
                JobId(i as u32),
                Time(0),
                gen::single(work).into_shared(),
                StepProfitFn::deadline(Time(deadline), 1),
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

/// Parked two-step profit: `n` background jobs whose profit halves at
/// `horizon / 2` and ends at `horizon`, plus a wave of `n / 2` short
/// chains with a two-step profit.
fn parked_profit(n: usize, horizon: u64, seed: u64) -> Instance {
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

fn corpus() -> Vec<(String, Instance)> {
    let mut out = vec![
        ("parked-chains".to_string(), parked_chains(1_000, 11)),
        ("parked-profit".to_string(), parked_profit(1_000, 5_000, 12)),
    ];
    for seed in [5u64, 2024] {
        let m = 4 + (seed % 5) as u32;
        let inst = WorkloadGen::standard(m, 60, seed)
            .generate()
            .expect("standard workloads generate");
        out.push((format!("standard-{seed}"), inst));
    }
    out
}

fn schedulers(m: u32) -> Vec<(&'static str, Box<dyn OnlineScheduler>)> {
    let params = AlgoParams::from_epsilon(1.0).expect("valid epsilon");
    vec![
        ("EDF", Box::new(Edf::new(m))),
        ("HDF", Box::new(GreedyDensity::new(m))),
        ("FIFO", Box::new(Fifo::new(m))),
        ("LLF", Box::new(LeastLaxity::new(m))),
        ("RANDOM", Box::new(RandomOrder::new(m, 42))),
        ("S-noadmit", Box::new(SNoAdmission::new(m, params))),
        ("S-profit", Box::new(SchedulerSProfit::with_epsilon(m, 1.0))),
    ]
}

#[test]
fn alive_set_schedulers_match_their_golden_digests() {
    let mut actual: Vec<(String, &'static str, u64, u64)> = Vec::new();
    for (label, inst) in corpus() {
        for (name, mut sched) in schedulers(inst.m()) {
            let mut log = EventLog::new();
            let r = simulate_observed(&inst, sched.as_mut(), &SimConfig::default(), &mut log)
                .expect("simulation runs");
            let result = fnv1a(format!("{r:?}").as_bytes());
            let events = fnv1a(log.to_jsonl().as_bytes());
            actual.push((label.clone(), name, result, events));
        }
    }
    let matches = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|(a, g)| a.0 == g.0 && a.1 == g.1 && a.2 == g.2 && a.3 == g.3);
    if !matches {
        let mut table = String::new();
        for (label, name, result, events) in &actual {
            let pinned = GOLDEN
                .iter()
                .find(|g| g.0 == label && g.1 == *name)
                .map_or("new", |g| {
                    if (g.2, g.3) == (*result, *events) {
                        "same"
                    } else {
                        "DIFFERS"
                    }
                });
            table.push_str(&format!(
                "    (\"{label}\", \"{name}\", 0x{result:016x}, 0x{events:016x}), // {pinned}\n"
            ));
        }
        panic!("golden digests diverge; computed table:\n{table}");
    }
}
