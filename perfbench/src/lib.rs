//! Seeded end-to-end and per-layer benchmark of the gpm stack.
//!
//! One process runs one workload as a closed loop with a single caller:
//! an untimed reference pass (which also warms every cache), then timed
//! passes over the same inputs for the requested time. Every call is
//! checked against the reference pass, so the deterministic outputs are
//! bit-identical across the passes of a run. See `README.md` for the
//! workloads, metrics and how to run it.

pub mod bench;
pub mod catalog;
pub mod fleet;
pub mod online;
pub mod oracle;
pub mod quality;
pub mod stats;
pub mod timed;
pub mod train;

use bench::{Report, Tally};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["online-mpc", "offline-oracle", "train", "fleet-faulted"];

/// Runs workload `name` (one of [`WORKLOADS`]).
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<(Report, Tally), String> {
    let mut report = Report::default();
    let mut tally = Tally::default();
    let run = match name {
        "online-mpc" => online::run,
        "offline-oracle" => oracle::run,
        "train" => train::run,
        "fleet-faulted" => fleet::run,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    run(seed, seconds, traced, &mut report, &mut tally);
    Ok((report, tally))
}
