//! Observer-overhead benchmarks: the zero-observer path must cost nothing.
//!
//! `simulate` runs the engine with a `NullObserver`, whose inactive
//! `is_active()` lets the payload-assembly branches constant-fold away —
//! so `simulate` vs `simulate_observed(NullObserver)` vs the pre-observer
//! baseline should be indistinguishable here. The suite and event-log rows
//! quantify what attaching real checkers costs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dagsched_core::AlgoParams;
use dagsched_engine::{simulate, simulate_observed, NullObserver, SimConfig};
use dagsched_sched::SchedulerS;
use dagsched_verify::{EventLog, InvariantSuite};
use dagsched_workload::WorkloadGen;

fn bench_observer_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("observer");
    g.sample_size(20);
    let m = 16u32;
    let inst = WorkloadGen::standard(m, 200, 7).generate().unwrap();
    let work: u64 = inst.jobs().iter().map(|j| j.work().units()).sum();
    g.throughput(Throughput::Elements(work));
    let cfg = SimConfig::default();

    // Baseline: the plain entry point (internally a NullObserver run).
    g.bench_function("none/simulate", |b| {
        b.iter(|| {
            let mut s = SchedulerS::with_epsilon(m, 1.0);
            simulate(&inst, &mut s, &cfg).unwrap().total_profit
        })
    });

    // Explicit NullObserver through the observed entry point: the dyn
    // dispatch costs a virtual `is_active` call per emission site, but no
    // payload assembly — the gap to the row above bounds the plumbing.
    g.bench_function("none/simulate_observed", |b| {
        b.iter(|| {
            let mut s = SchedulerS::with_epsilon(m, 1.0);
            simulate_observed(&inst, &mut s, &cfg, &mut NullObserver)
                .unwrap()
                .total_profit
        })
    });

    // The full invariant suite: band + allotment + δ-good + work checkers.
    g.bench_function("suite/full-checkers", |b| {
        b.iter(|| {
            let mut s = SchedulerS::with_epsilon(m, 1.0);
            let mut suite = InvariantSuite::for_scheduler_s(AlgoParams::from_epsilon(1.0).unwrap());
            let r = simulate_observed(&inst, &mut s, &cfg, &mut suite).unwrap();
            suite.assert_clean();
            r.total_profit
        })
    });

    // JSONL serialization of the whole stream.
    g.bench_function("log/jsonl", |b| {
        b.iter(|| {
            let mut s = SchedulerS::with_epsilon(m, 1.0);
            let mut log = EventLog::new();
            simulate_observed(&inst, &mut s, &cfg, &mut log).unwrap();
            log.to_jsonl().len()
        })
    });

    g.finish();
}

criterion_group!(benches, bench_observer_overhead);
criterion_main!(benches);
