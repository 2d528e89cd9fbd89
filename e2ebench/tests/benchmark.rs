//! The benchmark's own checks, at test sizes: tracing never changes a
//! schedule, every op passes its output check, the seeded inputs repeat,
//! and `BENCHMARK.json` names exactly the metrics the runs print.

use dagsched_e2ebench::layers::TracedScheduler;
use dagsched_e2ebench::run::{END_TO_END, PER_LAYER};
use dagsched_e2ebench::workloads::{parked_chains, parked_profit, Kind, Size, Workload};
use dagsched_engine::OnlineScheduler as _;
use dagsched_experiments::SchedKind;
use dagsched_workload::codec::encode;

#[test]
fn traced_results_equal_untraced_for_every_workload_and_scheduler() {
    for kind in Kind::ALL {
        let w = Workload::setup(kind, 7, Size::SMALL);
        if kind == Kind::Fuzz {
            assert!(w.cases.is_empty(), "fuzz runs no simulate case of its own");
            continue;
        }
        assert!(!w.cases.is_empty());
        for c in &w.cases {
            let plain = c.run();
            let (traced, calls) = c.run_traced();
            assert!(
                traced.same_outcome(&plain) && traced.steps_executed == plain.steps_executed,
                "{} / {}: traced run differs (steps {} vs {})",
                kind.name(),
                c.label,
                traced.steps_executed,
                plain.steps_executed
            );
            assert!(calls.delta_hits <= calls.delta_calls);
        }
    }
}

#[test]
fn wrapper_forwards_every_capability_query() {
    let kinds = [
        SchedKind::S { epsilon: 1.0 },
        SchedKind::SProfit { epsilon: 1.0 },
        SchedKind::SWc { epsilon: 1.0 },
        SchedKind::Edf,
        SchedKind::EdfAc,
        SchedKind::Fifo,
        SchedKind::Hdf,
        SchedKind::Llf,
        SchedKind::MoldList,
        SchedKind::Equi,
    ];
    for kind in kinds {
        let mut inner = kind.build(8);
        let expect = (
            inner.name(),
            inner.allocation_stable_between_events(),
            inner.completion_keys_stable(),
            inner.bounded_stability(),
            inner.group_aware(),
        );
        let mut reference = kind.build(8);
        let reset = reference.reset();
        let mut traced = TracedScheduler::new(inner.as_mut());
        let got = (
            traced.name(),
            traced.allocation_stable_between_events(),
            traced.completion_keys_stable(),
            traced.bounded_stability(),
            traced.group_aware(),
        );
        assert_eq!(got, expect, "{}", kind.label());
        assert_eq!(traced.reset(), reset, "{}", kind.label());
    }
}

#[test]
fn every_op_passes_its_output_check() {
    for kind in Kind::ALL {
        let mut w = Workload::setup(kind, 3, Size::SMALL);
        w.warm();
        w.prepare_reference(true);
        let op = w.op();
        assert!(op.failures.is_empty(), "{}: {:?}", kind.name(), op.failures);
        assert!(op.checked > 0 && op.items > 0 && op.ms > 0.0);
        for traced in [false, true] {
            let lop = w.layer_op(traced);
            assert!(
                lop.outcome.failures.is_empty(),
                "{} layer op: {:?}",
                kind.name(),
                lop.outcome.failures
            );
        }
    }
}

#[test]
fn seeded_parked_generators_repeat_and_vary() {
    let chains = |seed| encode(&parked_chains(30, seed));
    let profit = |seed| encode(&parked_profit(30, 2_000, seed));
    assert_eq!(chains(5), chains(5));
    assert_ne!(chains(5), chains(6));
    assert_eq!(profit(5), profit(5));
    assert_ne!(profit(5), profit(6));
}

/// The `"name"` values of one array in `BENCHMARK.json`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name closes")].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
    assert_eq!(names_in(&json, "workloads"), workloads);
    assert_eq!(names_in(&json, "end_to_end"), END_TO_END);
    assert_eq!(names_in(&json, "per_layer"), PER_LAYER);
}
