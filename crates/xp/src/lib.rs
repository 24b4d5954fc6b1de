//! gpm-xp — the experiment registry and one-command paper-reproduction
//! pipeline.
//!
//! Every figure, table, and ablation of the HPCA'17 study (plus the
//! repo's extension studies) is a registered [`Experiment`]: a run
//! function producing a rendered report and named metrics, and a set of
//! [`Expectation`]s — paper values and implementation golden values with
//! tolerance bands. The [`runner`] schedules the registry
//! work-stealing-parallel over one shared [`gpm_harness::EvalContext`]
//! (so the Turbo Core baseline cache amortizes across experiments),
//! writes schema-versioned JSON artifacts per experiment, checkpoints
//! completed work for resume, and exits nonzero when any metric drifts
//! outside its band.
//!
//! The `reproduce` binary (in `gpm-bench`) is the entry point;
//! `reproduce --filter NAME` runs one experiment and prints its report.

pub mod artifact;
pub mod cli;
pub mod experiment;
pub mod experiments;
pub mod golden;
pub mod registry;
pub mod runner;
pub mod suite;

pub use artifact::{emit_artifact, emit_svg, ARTIFACT_SCHEMA_VERSION};
pub use experiment::{
    check_gates, metric, Expectation, Experiment, ExperimentOutput, GateResult, Metric, Mode,
    Source, XpEnv,
};
pub use registry::{registry, registry_names};
pub use runner::{phase_table, run_suite, PhaseRow, RunConfig, SuiteReport};
