//! Command-line entry point; see the crate docs of `dagsched_e2ebench`.

use dagsched_e2ebench::run::{run, Args};
use dagsched_e2ebench::workloads::{Kind, Size};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: dagsched-e2ebench --workload <cluster-day|parked-profit|grid|fuzz|all> \
--seed <n> --seconds <s> --trace <0|1>";

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

/// Run every workload in a fresh child process, so peak memory and warm
/// caches do not carry over; fail if any child fails.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("current executable path");
    let mut ok = true;
    for kind in Kind::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".into(), kind.name().into()]);
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.workload == "all" {
        return run_all(&args);
    }
    let Some(kind) = Kind::parse(&cli.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", cli.workload);
        return ExitCode::from(2);
    };
    let args = Args {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        size: Size::FULL,
    };
    let out = run(&args);
    let mode = if args.trace { "traced" } else { "end-to-end" };
    print!(
        "{}",
        out.metrics
            .table(&format!("{} seed {} ({mode})", kind.name(), args.seed))
    );
    for n in &out.notes {
        println!("  NOTE: invariant violation: {n}");
    }
    for f in &out.failures {
        println!("  CHECK FAILED: {f}");
    }
    println!("{}", out.json(args.trace));
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
