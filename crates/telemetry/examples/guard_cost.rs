//! Microbenchmark for the telemetry primitives' unit costs.
//!
//! Prints the per-operation cost of a span guard (open + close), a bare
//! `Instant::now()` (two of which are the hard floor under every span),
//! and an *inert* span — the free-function guard on a thread with no
//! registry entered, which is what uninstrumented library callers pay.
//!
//! These are the numbers behind the overhead budget discussion in
//! `docs/TELEMETRY.md`; the end-to-end gate lives in the
//! `telemetry_overhead` bench binary. Run with `--release`.

use gpm_telemetry::{span, Telemetry};
use std::time::Instant;

fn per_op(n: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn main() {
    let t = Telemetry::new();
    let enter = t.enter();
    // Warm-up registers the span names and the thread slot, so the
    // timed loops measure the steady state.
    for _ in 0..10_000 {
        let _s = span("hot");
    }

    let n = 2_000_000u64;
    let hot = per_op(n, || {
        for _ in 0..n {
            let _s = span("hot");
        }
    });
    println!("span open+close   : {hot:.1} ns");

    let now = per_op(n, || {
        for _ in 0..n {
            std::hint::black_box(Instant::now());
        }
    });
    println!("Instant::now      : {now:.1} ns (x2 = span floor)");

    drop(enter);
    let inert = per_op(n, || {
        for _ in 0..n {
            let _s = span("hot");
        }
    });
    println!("inert span        : {inert:.1} ns (no registry entered)");
}
