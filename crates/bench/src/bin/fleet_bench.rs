//! Fleet scaling + determinism gate.
//!
//! Runs the canonical mixed fleet scenario through [`gpm_fleet`] at 1, 2,
//! and auto worker threads, after one untimed warm-up run, measuring
//! host wall-clock throughput at each setting, and:
//!
//! * asserts the serialized fleet artifacts are **byte-identical** across
//!   all three worker counts (the gpm-fleet determinism contract);
//! * gates auto-worker speedup over 1 worker at
//!   `GPM_FLEET_MIN_SCALING` (default 1.05×). When auto resolves to one
//!   worker (a single-core host) there is no scaling to measure: the
//!   auto point is recorded as skipped (`auto_speedup_over_1: null`).
//!
//! `--soak <seconds>` instead replays seeded scenarios (rotating seeds)
//! for at least that long, diffing every artifact against the first for
//! its seed — the CI fleet-soak job runs 60 s of this. Every run (soak
//! and sweep) executes under a live fleet [`gpm_telemetry`] registry
//! plus per-shard registries, and soak mode prints a periodic one-line
//! status from the running fleet rollup, the same values the Prometheus
//! page shows: jobs/s, p99 simulated decision latency, and the
//! fail-safe rate.
//!
//! `--telemetry-out PATH` writes the final Prometheus page (every run's
//! rollup merged, plus the fleet registry's worker/shard spans) and
//! exits non-zero when it fails validation; `--telemetry-port PORT`
//! additionally serves the latest page on `127.0.0.1:PORT/metrics` for
//! the duration of the run, so a soak can be watched from a real
//! Prometheus scraper.
//!
//! Emits `results/BENCH_fleet.json` either way. `GPM_BENCH_FAST=1`
//! selects the fast training context (CI default). Build with
//! `--release`; debug numbers are meaningless.

use gpm_bench::{bench_context, emit_artifact, fast_from_env};
use gpm_fleet::{FleetReport, FleetRollup, FleetScenario, FleetService};
use gpm_telemetry::{validate_prometheus, Telemetry};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

#[derive(Serialize)]
struct WorkerPoint {
    workers: usize,
    wall_s: f64,
    jobs_per_s: f64,
}

#[derive(Serialize)]
struct FleetBenchReport {
    scenario: String,
    seed: u64,
    shards: usize,
    jobs: usize,
    simulated_makespan_s: f64,
    simulated_throughput_gips: f64,
    fleet_energy_j: f64,
    fail_safe_entries: u64,
    fault_injections: u64,
    deterministic: bool,
    scaling: Vec<WorkerPoint>,
    /// `None` when auto resolves to one worker: nothing to compare.
    auto_speedup_over_1: Option<f64>,
    min_scaling_gate: f64,
    soak_seconds: f64,
    soak_iterations: usize,
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One timed scenario run; returns (report, artifact bytes, wall).
fn timed_run(svc: &FleetService, scenario: &FleetScenario) -> (FleetReport, String, f64) {
    let start = Instant::now();
    let report = svc.run(scenario);
    let wall = start.elapsed().as_secs_f64();
    let json = report.to_artifact_json();
    (report, json, wall)
}

/// One soak status line, from the running rollup of every fleet run —
/// the values its Prometheus page shows.
fn status_line(elapsed_s: f64, totals: &FleetRollup) -> String {
    let p99 = totals
        .trace
        .decision_latency
        .quantile(0.99)
        .map_or("n/a".to_string(), |s| format!("{:.1} us", s * 1e6));
    format!(
        "soak {elapsed_s:>5.1} s | {:.1} jobs/s | p99 decision {} | fail-safe {:.2}/job | {} shards",
        totals.jobs as f64 / elapsed_s.max(1e-9),
        p99,
        totals.fail_safe_entries as f64 / totals.jobs.max(1) as f64,
        totals.shards
    )
}

/// The Prometheus page of every run so far: the merged rollups plus the
/// fleet registry's worker/shard spans.
fn fleet_page(totals: &FleetRollup, telemetry: &Telemetry) -> String {
    let mut page = totals.clone();
    page.telemetry
        .get_or_insert_with(Default::default)
        .merge(&telemetry.snapshot());
    page.to_prometheus()
}

/// Serves the latest page on `127.0.0.1:port` from a detached thread
/// (dies with the process).
fn serve_prometheus(port: u16, page: Arc<Mutex<String>>) {
    let listener = TcpListener::bind(("127.0.0.1", port))
        .unwrap_or_else(|e| panic!("bind telemetry port {port}: {e}"));
    println!("serving Prometheus metrics on http://127.0.0.1:{port}/metrics");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain whatever request line arrives; every path gets the
            // same exposition.
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let body = page.lock().unwrap_or_else(PoisonError::into_inner).clone();
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            );
        }
    });
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let soak_secs: Option<f64> = argv
        .iter()
        .position(|a| a == "--soak")
        .map(|i| argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(60.0));
    let telemetry_out: Option<String> = argv.iter().position(|a| a == "--telemetry-out").map(|i| {
        argv.get(i + 1)
            .expect("--telemetry-out needs a path")
            .clone()
    });
    let telemetry_port: Option<u16> = argv.iter().position(|a| a == "--telemetry-port").map(|i| {
        argv.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--telemetry-port needs a port number")
    });

    let ctx = bench_context(fast_from_env());
    let seed = 0xF1EE7u64;
    let (shards, jobs_per_shard) = if fast_from_env() { (8, 2) } else { (12, 4) };
    let scenario = FleetScenario::mixed(seed, shards, jobs_per_shard);

    // One fleet-level registry spans the whole process (soak + sweep);
    // shard-level registries are created per shard by the service. Every
    // run's rollup folds into `totals`, which the status lines and the
    // Prometheus page render from.
    let telemetry = Telemetry::new();
    let mut totals = FleetRollup::default();
    let page = Arc::new(Mutex::new(fleet_page(&totals, &telemetry)));
    if let Some(port) = telemetry_port {
        serve_prometheus(port, Arc::clone(&page));
    }
    let record = |totals: &mut FleetRollup, report: &FleetReport| {
        totals.merge(&report.rollup);
        if telemetry_port.is_some() {
            *page.lock().unwrap_or_else(PoisonError::into_inner) = fleet_page(totals, &telemetry);
        }
    };

    let mut soak_elapsed = 0.0;
    let mut soak_iters = 0usize;
    if let Some(budget) = soak_secs {
        // Soak mode: rotate seeds, two replays per seed, diff against the
        // first artifact for that seed.
        let svc = FleetService::new(ctx.clone()).with_telemetry(telemetry.clone());
        let start = Instant::now();
        let mut last_status = Instant::now();
        let mut round = 0u64;
        while start.elapsed().as_secs_f64() < budget {
            let s = FleetScenario::mixed(seed ^ round.wrapping_mul(0x9e37_79b9), shards, 2);
            let (first_report, first, _) = timed_run(&svc, &s);
            let (report, again, _) = timed_run(&svc, &s);
            assert_eq!(first, again, "soak artifact drifted on round {round}");
            record(&mut totals, &first_report);
            record(&mut totals, &report);
            round += 1;
            soak_iters += 2;
            if last_status.elapsed().as_secs_f64() >= 5.0 {
                println!("  {}", status_line(start.elapsed().as_secs_f64(), &totals));
                last_status = Instant::now();
            }
        }
        soak_elapsed = start.elapsed().as_secs_f64();
        println!("  {}", status_line(soak_elapsed, &totals));
        println!("soak: {soak_iters} runs over {soak_elapsed:.1} s, no drift");
    }

    // Scaling sweep: one untimed warm-up run (caches, allocator, first
    // thread spawns), then 1, 2, auto workers over the same scenario.
    let auto_workers = FleetService::new(ctx.clone()).effective_workers(scenario.shards.len());
    let warm_up = FleetService::new(ctx.clone()).with_telemetry(telemetry.clone());
    record(&mut totals, &warm_up.run(&scenario));
    let mut scaling = Vec::new();
    let mut artifacts: Vec<String> = Vec::new();
    for &workers in &[1usize, 2, 0] {
        let svc = FleetService::new(ctx.clone())
            .with_workers(workers)
            .with_telemetry(telemetry.clone());
        let (full_report, json, wall) = timed_run(&svc, &scenario);
        record(&mut totals, &full_report);
        let effective = svc.effective_workers(scenario.shards.len());
        scaling.push(WorkerPoint {
            workers: effective,
            wall_s: wall,
            jobs_per_s: scenario.total_jobs() as f64 / wall,
        });
        println!(
            "  {effective:>2} workers: {wall:.3} s wall ({:.1} jobs/s)",
            scenario.total_jobs() as f64 / wall
        );
        artifacts.push(json);
    }

    let deterministic = artifacts.iter().all(|a| *a == artifacts[0]);
    let auto_speedup = (auto_workers >= 2).then(|| scaling[0].wall_s / scaling[2].wall_s);
    let gate = env_f64("GPM_FLEET_MIN_SCALING", 1.05);

    let report: FleetReport = serde_json::from_str(artifacts.last().expect("three sweep runs"))
        .expect("fleet artifact parses");
    let bench = FleetBenchReport {
        scenario: scenario.name.clone(),
        seed,
        shards: report.rollup.shards,
        jobs: report.rollup.jobs,
        simulated_makespan_s: report.rollup.makespan_s,
        simulated_throughput_gips: report.rollup.throughput_gips,
        fleet_energy_j: report.rollup.energy_j,
        fail_safe_entries: report.rollup.fail_safe_entries,
        fault_injections: report.rollup.fault_injections,
        deterministic,
        scaling,
        auto_speedup_over_1: auto_speedup,
        min_scaling_gate: gate,
        soak_seconds: soak_elapsed,
        soak_iterations: soak_iters,
    };
    emit_artifact("results/BENCH_fleet.json", &bench);

    let mut ok = true;
    if let Some(path) = &telemetry_out {
        let text = fleet_page(&totals, &telemetry);
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent).expect("create telemetry output directory");
        }
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
        if let Err(e) = validate_prometheus(&text) {
            eprintln!("FAIL: {path} is not a valid Prometheus page: {e}");
            ok = false;
        }
    }
    if !deterministic {
        eprintln!("FAIL: fleet artifacts differ across worker counts");
        ok = false;
    }
    match auto_speedup {
        Some(speedup) if speedup < gate => {
            eprintln!("FAIL: auto-worker speedup {speedup:.2}x below the {gate:.2}x scaling gate");
            ok = false;
        }
        Some(speedup) => {
            println!("auto speedup {speedup:.2}x (gate {gate:.2}x, {auto_workers} workers)")
        }
        None => println!("auto resolves to 1 worker: scaling point skipped"),
    }
    if !ok {
        std::process::exit(1);
    }
    println!("PASS: byte-identical at 1/2/auto workers");
}
