//! `EventLog` equality is JSONL equality.
//!
//! The fuzz oracle's differential heads compare recorded logs with `==` and
//! render text only on a mismatch, which is sound only if two logs are
//! equal exactly when their JSONL renderings are. This suite checks both
//! directions over real runs: fast vs naive pairs (equal streams),
//! cross-scheduler and cross-speed pairs (unequal streams), and each run
//! against the same run one tick later (the same events at shifted
//! times, so streams of equal shape that differ only in values).

use dagsched_core::Speed;
use dagsched_engine::{simulate_observed, OnlineScheduler, SimConfig};
use dagsched_sched::{Edf, SchedulerS, SchedulerSProfit};
use dagsched_verify::EventLog;
use dagsched_workload::{Instance, JobSpec, WorkloadGen};
use proptest::prelude::*;

type Factory = fn(u32) -> Box<dyn OnlineScheduler>;

const SCHEDULERS: [(&str, Factory); 3] = [
    ("S", |m| Box::new(SchedulerS::with_epsilon(m, 1.0))),
    ("S-profit", |m| {
        Box::new(SchedulerSProfit::with_epsilon(m, 1.0))
    }),
    ("EDF", |m| Box::new(Edf::new(m))),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn log_equality_is_jsonl_equality(seed in 0u64..100_000, m in 2u32..6, n in 6usize..30) {
        let inst = WorkloadGen::standard(m, n, seed).generate().expect("valid workload");
        let shifted = inst
            .jobs()
            .iter()
            .map(|j| JobSpec {
                arrival: j.arrival.after(1),
                ..j.clone()
            })
            .collect();
        let shifted = Instance::new(m, shifted).expect("valid workload");
        let mut logs = Vec::new();
        for (inst, name, make) in [&inst, &shifted]
            .into_iter()
            .flat_map(|i| SCHEDULERS.map(|(name, make)| (i, name, make)))
        {
            for (num, den) in [(1, 1), (3, 2)] {
                for fast_forward in [true, false] {
                    let cfg = SimConfig {
                        speed: Speed::new(num, den).expect("positive"),
                        fast_forward,
                        ..SimConfig::default()
                    };
                    let mut log = EventLog::new();
                    simulate_observed(inst, make(m).as_mut(), &cfg, &mut log).expect("runs");
                    let jsonl = log.to_jsonl();
                    let start = inst.jobs()[0].arrival;
                    let label = format!("{name} {num}/{den} ff={fast_forward} from {start}");
                    logs.push((label, log, jsonl));
                }
            }
        }
        let mut equal_pairs = 0;
        for (i, (la, a, ja)) in logs.iter().enumerate() {
            for (lb, b, jb) in &logs[i + 1..] {
                prop_assert_eq!(a == b, ja == jb, "{} vs {}", la, lb);
                equal_pairs += usize::from(a == b);
            }
        }
        // At least every fast/naive pair is equal.
        prop_assert!(equal_pairs >= 2 * SCHEDULERS.len() * 2);
    }
}
