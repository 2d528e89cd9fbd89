//! The `dagsched fuzz` subcommand.
//!
//! Two modes:
//!
//! * `dagsched fuzz [--seed N] [--execs N] [--json]` — run the bounded
//!   coverage-guided loop. With `--json`, stdout carries only the
//!   deterministic report (two runs with the same seed diff clean) and the
//!   timing line goes to stderr — this is what the CI `fuzz-smoke` job
//!   diffs. Failures are minimized and written as replay fixtures
//!   (`fuzz-min-<i>.txt`) next to the working directory, each with its
//!   one-line replay command.
//! * `dagsched fuzz --replay <path|seed>` — re-judge a fixture file
//!   through all four oracle heads (exit non-zero on failure), or, given
//!   a bare integer, re-run the bounded loop under that master seed.

use crate::oracle::{run_exec, OracleSet, Subject};
use crate::run::{FuzzConfig, FuzzReport, FuzzSession};
use dagsched_workload::codec;
use std::fmt::Write as _;

/// Usage text for `dagsched fuzz help`.
pub const USAGE: &str = "\
usage: dagsched fuzz [--seed N] [--execs N] [--json]
       dagsched fuzz --replay <path|seed>

Coverage-guided adversarial workload fuzzing with four oracle heads:
the invariant suite, kernel-vs-scan byte equality, the
paused-vs-one-shot differential, and the delta-vs-rebuild handoff
differential. A fixed --seed reproduces the exact
corpus trajectory; failures are delta-debugged and written as replay
fixtures (fuzz-min-<i>.txt).

options:
  --seed N       master seed (default 0xDA65EED)
  --execs N      exec budget, at least 1 (default 1000)
  --json         deterministic JSON report on stdout, timing on stderr
  --replay T     re-judge a fixture file, or re-run a master seed
";

/// A parsed `dagsched fuzz` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzCmd {
    /// Run the bounded loop.
    Run {
        /// Master seed.
        seed: u64,
        /// Exec budget.
        execs: u64,
        /// Deterministic JSON to stdout instead of the human summary.
        json: bool,
    },
    /// Replay a fixture path or a master seed.
    Replay {
        /// Path to a `dagsched-instance v1` file, or a bare integer seed.
        target: String,
    },
    /// Print usage.
    Help,
}

/// Parse `dagsched fuzz` arguments (everything after the subcommand).
pub fn parse(args: &[String]) -> Result<FuzzCmd, String> {
    let mut seed = FuzzConfig::default().master_seed;
    let mut execs = FuzzConfig::default().max_execs;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "help" | "--help" | "-h" => return Ok(FuzzCmd::Help),
            "--json" => json = true,
            "--seed" | "--execs" => {
                let flag = args[i].clone();
                i += 1;
                let v = args.get(i).ok_or_else(|| format!("{flag} needs a value"))?;
                let n: u64 = parse_u64(v).ok_or_else(|| format!("{flag}: bad number {v:?}"))?;
                if flag == "--seed" {
                    seed = n;
                } else if n == 0 {
                    return Err("--execs expects a positive integer".into());
                } else {
                    execs = n;
                }
            }
            "--replay" => {
                i += 1;
                let target = args
                    .get(i)
                    .ok_or_else(|| "--replay needs a path or seed".to_string())?;
                return Ok(FuzzCmd::Replay {
                    target: target.clone(),
                });
            }
            other => return Err(format!("unknown argument {other:?}; try `fuzz help`")),
        }
        i += 1;
    }
    Ok(FuzzCmd::Run { seed, execs, json })
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn fixture_text(f: &crate::run::FailureReport, i: usize, seed: u64) -> String {
    format!(
        "# minimized fuzz counterexample {i}\n\
         # oracle: {}\n\
         # detail: {}\n\
         # found at exec {} of master seed {seed:#x}\n\
         # replay: dagsched fuzz --replay fuzz-min-{i}.txt\n\
         {}",
        f.oracle,
        f.detail.replace('\n', " "),
        f.exec_index,
        f.minimized
    )
}

fn run_summary(report: &FuzzReport) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{}", report.timing_line());
    let _ = writeln!(
        s,
        "  seed {:#x}, trajectory {:#018x}, {} invalid candidate(s)",
        report.master_seed, report.trajectory, report.invalid
    );
    for (i, f) in report.failures.iter().enumerate() {
        let _ = writeln!(
            s,
            "  FAILURE {i}: [{}] {}\n    fixture: fuzz-min-{i}.txt\n    replay: dagsched fuzz --replay fuzz-min-{i}.txt",
            f.oracle, f.detail
        );
    }
    if report.failures.is_empty() {
        let _ = writeln!(s, "  no oracle failures");
    }
    s
}

/// Judge one decoded instance through all four oracle heads; the replay
/// verdict text lists each head. Used by `--replay <path>` and the fixture
/// regression test. Fixtures carry no engine-configuration axis, so replay
/// always judges under the defaults (event kernel, delta handoff,
/// carry-over on, FIFO pick, uniform platform).
pub fn replay_instance(text: &str) -> Result<String, String> {
    let inst = codec::decode(text).map_err(|e| format!("cannot decode fixture: {e}"))?;
    let salt = crate::ir::fnv1a(text.as_bytes());
    let subject = Subject::scheduler_s();
    let off = OracleSet {
        invariants: false,
        kernel_diff: false,
        pause_diff: false,
        handoff_diff: false,
    };
    let heads: [(&str, OracleSet); 4] = [
        (
            "invariants",
            OracleSet {
                invariants: true,
                ..off
            },
        ),
        (
            "kernel-vs-scan",
            OracleSet {
                kernel_diff: true,
                ..off
            },
        ),
        (
            "paused-vs-oneshot",
            OracleSet {
                pause_diff: true,
                ..off
            },
        ),
        (
            "delta-vs-rebuild",
            OracleSet {
                handoff_diff: true,
                ..off
            },
        ),
    ];
    let mut out = String::new();
    let mut failed = false;
    for (name, set) in &heads {
        let outcome = run_exec(&inst, &subject, set, salt, None);
        match outcome.failure {
            None => {
                let _ = writeln!(out, "  {name:<18} PASS");
            }
            Some(f) => {
                failed = true;
                let _ = writeln!(out, "  {name:<18} FAIL [{}] {}", f.oracle, f.detail);
            }
        }
    }
    if failed {
        Err(format!("replay failed:\n{out}"))
    } else {
        Ok(format!("replay clean under all four oracles:\n{out}"))
    }
}

/// Execute a parsed command. `Ok` text goes to stdout; `Err` text to stderr
/// with a failing exit code. Side effects: `Run` writes one
/// `fuzz-min-<i>.txt` fixture per failure, and in `--json` mode prints the
/// timing line to stderr itself (stdout must stay deterministic).
pub fn execute(cmd: &FuzzCmd) -> Result<String, String> {
    match cmd {
        FuzzCmd::Help => Ok(USAGE.to_string()),
        FuzzCmd::Replay { target } => {
            if std::path::Path::new(target).is_file() {
                let text = std::fs::read_to_string(target)
                    .map_err(|e| format!("cannot read {target:?}: {e}"))?;
                replay_instance(&text).map(|ok| format!("{target}: {ok}"))
            } else if let Some(seed) = parse_u64(target) {
                execute(&FuzzCmd::Run {
                    seed,
                    execs: FuzzConfig::default().max_execs,
                    json: false,
                })
            } else {
                Err(format!(
                    "--replay target {target:?} is neither a file nor a seed"
                ))
            }
        }
        FuzzCmd::Run { seed, execs, json } => {
            let cfg = FuzzConfig {
                master_seed: *seed,
                max_execs: *execs,
                ..FuzzConfig::default()
            };
            let report = FuzzSession::new(cfg).run();
            for (i, f) in report.failures.iter().enumerate() {
                let path = format!("fuzz-min-{i}.txt");
                std::fs::write(&path, fixture_text(f, i, *seed))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
            let out = if *json {
                eprintln!("{}", report.timing_line());
                report.to_json()
            } else {
                run_summary(&report)
            };
            if report.failures.is_empty() {
                Ok(out)
            } else {
                Err(out)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_covers_the_grammar() {
        assert_eq!(
            parse(&s(&[])),
            Ok(FuzzCmd::Run {
                seed: FuzzConfig::default().master_seed,
                execs: FuzzConfig::default().max_execs,
                json: false
            })
        );
        assert_eq!(
            parse(&s(&["--seed", "0x2A", "--execs", "9", "--json"])),
            Ok(FuzzCmd::Run {
                seed: 42,
                execs: 9,
                json: true
            })
        );
        assert_eq!(
            parse(&s(&["--replay", "some/file.txt"])),
            Ok(FuzzCmd::Replay {
                target: "some/file.txt".into()
            })
        );
        assert_eq!(parse(&s(&["help"])), Ok(FuzzCmd::Help));
        assert!(parse(&s(&["--seed"])).is_err());
        assert!(parse(&s(&["--execs", "0"])).is_err());
        assert_eq!(
            parse(&s(&["--execs", "1"])),
            Ok(FuzzCmd::Run {
                seed: FuzzConfig::default().master_seed,
                execs: 1,
                json: false
            })
        );
        assert!(parse(&s(&["--what"])).is_err());
    }

    #[test]
    fn replay_of_a_clean_instance_passes_all_heads() {
        let inst = crate::corpus::seed_corpus()[0].to_instance().unwrap();
        let text = codec::encode(&inst);
        let verdict = replay_instance(&text).expect("clean replay");
        assert_eq!(verdict.matches("PASS").count(), 4);
        assert!(verdict.contains("delta-vs-rebuild"));
    }

    #[test]
    fn replay_rejects_garbage() {
        assert!(replay_instance("not an instance").is_err());
    }

    #[test]
    fn replay_target_falls_back_to_seed() {
        // A bare number that is not a file re-runs the loop; use a tiny
        // budget via parse-level Run instead to keep the test fast — here
        // just check the classification error for non-numeric non-files.
        let r = execute(&FuzzCmd::Replay {
            target: "no-such-file-and-not-a-number".into(),
        });
        assert!(r.is_err());
    }
}
