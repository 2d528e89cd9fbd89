//! The `dagsched bench` subcommand: a seconds-scale harness smoke run.
//!
//! `dagsched-bench` (the dedicated binary) is the perf-regression exporter;
//! this subcommand exists so the *schema* of its JSON report is exercised
//! on every CI run of the main CLI. It runs the whole harness at tiny
//! sizes ([`run_smoke`]), self-validates that
//! every key the regression gates read is present and numeric, and prints
//! either a short human summary or (`--json`) the raw report. Measured
//! ratios at these sizes are noise — nothing here is a perf claim or a
//! gate; schema drift, however, fails fast.

use crate::hotpath::{json_number, run_smoke, BenchReport};

/// Every JSON key the `dagsched-bench` regression gates and the CI smoke
/// job read. `dagsched bench` fails if any of them goes missing or
/// non-numeric — that is the drift this subcommand exists to catch.
pub const REQUIRED_KEYS: &[&str] = &[
    "pr",
    "quick",
    "host_cores",
    "git_rev",
    "admission_speedup",
    "backfill_speedup",
    "arrival_speedup",
    "event_kernel_speedup",
    "view_delta_speedup",
    "sprofit_speedup",
    "related_machines_gain",
    "sweep_speedup",
    "fuzz_execs_per_sec",
];

/// What `dagsched bench` should print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchCmd {
    /// Print the full JSON report to stdout.
    Json,
    /// Print a one-line-per-group human summary.
    Summary,
    /// Print the subcommand's usage text.
    Help,
}

/// Usage text for `dagsched bench help`.
pub const USAGE: &str = "\
usage: dagsched bench [--json]

Run the hot-path perf harness at smoke sizes and validate the report
schema (the keys the dagsched-bench regression gates read). Ratios at
these sizes are not perf claims; use the dagsched-bench binary for those.

options:
  --json   print the raw JSON report instead of the summary
";

/// Parse `dagsched bench` arguments (everything after the subcommand).
pub fn parse(args: &[String]) -> Result<BenchCmd, String> {
    match args {
        [] => Ok(BenchCmd::Summary),
        [a] if a == "--json" => Ok(BenchCmd::Json),
        [a] if a == "help" || a == "--help" || a == "-h" => Ok(BenchCmd::Help),
        [other, ..] => Err(format!("unknown argument {other:?}; try `bench help`")),
    }
}

/// Validate that `json` carries every [`REQUIRED_KEYS`] entry as a number.
/// (`"quick"` is the one boolean and `"git_rev"` the one string —
/// presence is checked instead.)
fn validate_schema(json: &str) -> Result<(), String> {
    for key in REQUIRED_KEYS {
        let present = if *key == "quick" || *key == "git_rev" {
            json.contains(&format!("\"{key}\":"))
        } else {
            json_number(json, key).is_some()
        };
        if !present {
            return Err(format!("report is missing required key \"{key}\""));
        }
    }
    Ok(())
}

fn summarize(report: &BenchReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "bench smoke ok (host_cores {}):\n",
        report.host_cores
    ));
    for (group, n, speedup) in [
        (
            "admission",
            report.admission.len(),
            report.admission_speedup(),
        ),
        ("backfill", report.backfill.len(), report.backfill_speedup()),
        ("arrival", report.arrival.len(), report.arrival_speedup()),
        (
            "event-kernel",
            report.event_kernel.len(),
            report.event_kernel_speedup(),
        ),
        (
            "view-delta",
            report.view_delta.len(),
            report.view_delta_speedup(),
        ),
        ("profit", report.profit.len(), report.sprofit_speedup()),
    ] {
        s.push_str(&format!(
            "  {group:<13} {n} case(s), min speedup {speedup:.2}x (not gated at smoke sizes)\n"
        ));
    }
    s.push_str(&format!(
        "  {:<13} {} case(s), min profit gain {:.2}x (group-aware vs blind)\n",
        "related",
        report.related.len(),
        report.related_machines_gain()
    ));
    s.push_str(&format!(
        "  {:<13} {} case(s), speedup {:.2}x\n",
        "sweep",
        report.sweep.len(),
        report.sweep_speedup()
    ));
    s.push_str(&format!(
        "  {:<13} {} case(s), {:.0} execs/sec (absolute, not gated)\n",
        "fuzz",
        report.fuzz.len(),
        report.fuzz_execs_per_sec()
    ));
    s.push_str("  schema: all required keys present\n");
    s
}

/// Execute a parsed [`BenchCmd`], returning what to print on stdout.
pub fn execute(cmd: &BenchCmd) -> Result<String, String> {
    if *cmd == BenchCmd::Help {
        return Ok(USAGE.to_string());
    }
    let report = run_smoke();
    let json = report.to_json();
    validate_schema(&json)?;
    Ok(match cmd {
        BenchCmd::Json => json,
        BenchCmd::Summary => summarize(&report),
        BenchCmd::Help => unreachable!("handled above"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_three_forms() {
        let s = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse(&s(&[])), Ok(BenchCmd::Summary));
        assert_eq!(parse(&s(&["--json"])), Ok(BenchCmd::Json));
        assert_eq!(parse(&s(&["help"])), Ok(BenchCmd::Help));
        assert!(parse(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn validate_schema_catches_a_dropped_key() {
        let report = run_smoke();
        let json = report.to_json();
        assert!(validate_schema(&json).is_ok());
        let broken = json.replace("\"event_kernel_speedup\"", "\"renamed\"");
        let err = validate_schema(&broken).expect_err("drift must be caught");
        assert!(err.contains("event_kernel_speedup"), "{err}");
    }

    #[test]
    fn execute_smoke_produces_valid_json_and_summary() {
        let json = execute(&BenchCmd::Json).expect("json run succeeds");
        for key in REQUIRED_KEYS {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key}");
        }
        let summary = execute(&BenchCmd::Summary).expect("summary run succeeds");
        assert!(summary.contains("event-kernel"));
        assert!(summary.contains("view-delta"));
        assert!(summary.contains("profit"));
        assert!(summary.contains("group-aware vs blind"));
        assert!(summary.contains("schema: all required keys present"));
        assert_eq!(execute(&BenchCmd::Help).unwrap(), USAGE);
    }
}
