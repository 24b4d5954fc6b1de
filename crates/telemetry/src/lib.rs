//! Phase-time telemetry: a hierarchical span profiler plus the
//! Prometheus page, chrome-trace and flamegraph exporters.
//!
//! `gpm-trace` is the one ledger of decision facts — every run,
//! dispatch, decision latency and baseline resolution is a typed
//! `TraceEvent`. This crate answers the other question, *where does the
//! time go*. The Prometheus page is a view over both:
//! `gpm_harness::report::prometheus` renders the decision families from
//! a `TraceSummary` and appends the span families of a
//! [`TelemetrySnapshot`], so the page cannot drift from the trace.
//!
//! # Layers
//!
//! * [`registry`] — the [`Telemetry`] handle and [`TelemetrySnapshot`],
//!   its frozen span rows, mergeable across shards like
//!   `TraceSummary::merge`.
//! * [`mod@span`] — RAII span guards ([`Telemetry::span`] or the free
//!   [`span()`] routed through the thread's *current* handle) recording
//!   count, total, and **self** time (total minus child spans) into
//!   per-thread span trees — the hot path takes one uncontended lock and
//!   allocates nothing once a span name has been seen.
//! * [`export`] — the span families of the Prometheus text page (plus
//!   [`validate_prometheus`]), chrome://tracing JSON (loadable in
//!   Perfetto), and folded stacks for flamegraphs.
//!
//! # Wiring
//!
//! The harness's `ExecEnv::with_telemetry` installs a handle as replay
//! middleware; deeper layers (forest fit, flat-forest specialization, the
//! governors' searches) emit spans through the thread-current handle, so
//! instrumented library code needs no plumbing:
//!
//! ```
//! use gpm_telemetry::{span, validate_prometheus, Telemetry};
//!
//! let t = Telemetry::new();
//! {
//!     let _enter = t.enter();              // make `t` current on this thread
//!     let _outer = span("search.hill_climb");
//!     let _inner = span("flat.specialize"); // child of hill_climb
//! }
//! let snap = t.snapshot();
//! assert_eq!(snap.span("search.hill_climb").unwrap().count, 1);
//! let page = snap.to_prometheus();
//! assert!(page.contains("gpm_span_count{path=\"search.hill_climb;flat.specialize\"} 1"));
//! assert!(validate_prometheus(&page).is_ok());
//! ```
//!
//! Telemetry is strictly read-only observability: installing or removing
//! a handle never changes a governor decision (pinned by the
//! `execenv_equivalence` and `fleet_determinism` suites), and measured
//! overhead on the steady-state MPC hot path is gated below 5% by the
//! `telemetry_overhead` bench.

#![warn(missing_docs)]

pub mod export;
pub mod registry;
pub mod span;

pub use export::{validate_prometheus, PromStats};
pub use registry::{SpanRow, Telemetry, TelemetrySnapshot};
pub use span::{span, EnterGuard, SpanGuard};
