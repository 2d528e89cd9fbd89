//! End-to-end benchmark of `dagsched`.
//!
//! One command runs a named workload on the **default** engine
//! configuration for a fixed number of seconds, checks every output, and
//! prints a table of metrics followed by one JSON result line:
//!
//! ```sh
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload cluster-day --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics ([`run::END_TO_END`]);
//! `--trace 1` is the traced run: the same work seen layer by layer, with
//! spans opened from this crate around calls into each layer
//! ([`run::PER_LAYER`]) and written to `e2ebench/out/` at exit.
//! `--workload all` runs every workload, each in a fresh process.
//!
//! * [`workloads`] — seeded inputs, the timed op and its output check;
//! * [`layers`] — the traced scheduler wrapper, counting observer and
//!   stepped engine run;
//! * [`trace`] — the in-memory span tracer;
//! * [`run`] — one run: set-up, references, timed loop, metrics;
//! * [`report`] — statistics and output formats.

#![warn(missing_docs)]

pub mod layers;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
