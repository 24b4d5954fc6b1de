//! # gpm — Dynamic GPGPU Power Management Using Adaptive MPC
//!
//! A full reproduction of *"Dynamic GPGPU Power Management Using Adaptive
//! Model Predictive Control"* (HPCA 2017) as a Rust workspace: an
//! analytical APU simulator standing in for the paper's AMD A10-7850K
//! testbed, the MPC power governor itself, every baseline it is compared
//! against, the 15-benchmark workload suite, and a harness that
//! regenerates every table and figure of the evaluation.
//!
//! This crate is a facade: it re-exports the workspace's sub-crates under
//! one name so applications can depend on a single package.
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`hw`] | `gpm-hw` | DVFS state tables (Table I), [`hw::HwConfig`], config spaces |
//! | [`sim`] | `gpm-sim` | the APU simulator, kernel model, counters |
//! | [`model`] | `gpm-model` | Random Forest predictor, error models |
//! | [`pattern`] | `gpm-pattern` | kernel signatures and pattern extraction |
//! | [`governors`] | `gpm-governors` | Turbo Core, PPK, Theoretically Optimal |
//! | [`mpc`] | `gpm-mpc` | **the adaptive-MPC governor (the contribution)** |
//! | [`workloads`] | `gpm-workloads` | the 15 Table IV benchmarks |
//! | [`harness`] | `gpm-harness` | experiment runner, comparisons, reports |
//! | [`trace`] | `gpm-trace` | decision-level observability events and sinks |
//! | [`telemetry`] | `gpm-telemetry` | span profiler, Prometheus validator, chrome-trace/flamegraph exporters |
//! | [`faults`] | `gpm-faults` | deterministic fault injection (robustness studies) |
//! | [`fleet`] | `gpm-fleet` | sharded multi-device fleet service and scenario DSL |
//!
//! # Quickstart
//!
//! Evaluate MPC against Turbo Core on one benchmark (see
//! `examples/quickstart.rs` for the full program):
//!
//! ```no_run
//! use gpm::harness::{EvalContext, EvalOptions, ExecEnv, Scheme};
//! use gpm::harness::metrics::Comparison;
//! use gpm::mpc::HorizonMode;
//! use gpm::workloads::workload_by_name;
//!
//! let ctx = EvalContext::build(EvalOptions::default());
//! let kmeans = workload_by_name("kmeans").unwrap();
//! let env = ExecEnv::new();
//! let out = env.evaluate(&ctx, &kmeans, Scheme::MpcRf { horizon: HorizonMode::default() });
//! let c = Comparison::between(&out.baseline, &out.measured);
//! println!("energy savings {:.1}%, speedup {:.3}", c.energy_savings_pct, c.speedup);
//! ```

pub use gpm_faults as faults;
pub use gpm_fleet as fleet;
pub use gpm_governors as governors;
pub use gpm_harness as harness;
pub use gpm_hw as hw;
pub use gpm_model as model;
pub use gpm_mpc as mpc;
pub use gpm_pattern as pattern;
pub use gpm_sim as sim;
pub use gpm_telemetry as telemetry;
pub use gpm_trace as trace;
pub use gpm_workloads as workloads;
