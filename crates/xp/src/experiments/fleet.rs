//! Fleet-scaling study: the sharded multi-device service of `gpm-fleet`
//! run at 1, 2, and auto workers over the canonical mixed scenario, after
//! one untimed warm-up run, with the byte-identity determinism contract
//! as a hard gate.

use crate::experiment::{metric, ExperimentOutput, XpEnv};
use gpm_fleet::{FleetScenario, FleetService};
use gpm_harness::report::{fmt, Table};
use std::fmt::Write;
use std::time::Instant;

/// `fleet_scaling`: runs the canonical mixed fleet scenario (8 shards
/// fast / 16 full, staggered arrivals, faulty and healthy shards) at
/// worker counts 1, 2, and auto; verifies every serialized artifact is
/// byte-identical; reports simulated fleet throughput and host-side
/// scaling. `auto_speedup_over_1` is omitted when auto resolves to one
/// worker, where it would compare a run with itself.
pub fn fleet_scaling(env: &XpEnv) -> ExperimentOutput {
    let (shards, jobs_per_shard) = if env.is_fast() { (8, 2) } else { (16, 4) };
    let scenario = FleetScenario::mixed(0xF1EE7, shards, jobs_per_shard);
    eprintln!(
        "  fleet_scaling: {} shards x {} jobs at workers 1/2/auto...",
        shards, jobs_per_shard
    );

    // Untimed warm-up: the first run pays for cold caches and first
    // thread spawns, which would otherwise all land on the 1-worker point.
    FleetService::new(env.ctx().clone()).run(&scenario);
    let mut table = Table::new(vec!["workers", "wall s", "jobs/s (host)"]);
    let mut artifacts: Vec<String> = Vec::new();
    let mut last = None;
    let mut wall_1 = 0.0f64;
    let mut wall_auto = 0.0f64;
    let mut auto_workers = 1usize;
    for &workers in &[1usize, 2, 0] {
        let svc = FleetService::new(env.ctx().clone()).with_workers(workers);
        let effective = svc.effective_workers(scenario.shards.len());
        let start = Instant::now();
        let report = svc.run(&scenario);
        let wall = start.elapsed().as_secs_f64();
        if workers == 1 {
            wall_1 = wall;
        } else if workers == 0 {
            wall_auto = wall;
            auto_workers = effective;
        }
        table.row(vec![
            format!("{effective}"),
            fmt(wall, 3),
            fmt(scenario.total_jobs() as f64 / wall, 1),
        ]);
        artifacts.push(report.to_artifact_json());
        last = Some(report);
    }
    let report = last.expect("three runs completed");
    let deterministic = artifacts.iter().all(|a| *a == artifacts[0]);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fleet scaling — {} ({} shards, {} jobs, seed {:#x})",
        scenario.name, report.rollup.shards, report.rollup.jobs, scenario.seed
    );
    out.push_str(&table.render());
    let _ = writeln!(
        out,
        "simulated: makespan {} s, throughput {} GI/s, energy {} J",
        fmt(report.rollup.makespan_s, 3),
        fmt(report.rollup.throughput_gips, 2),
        fmt(report.rollup.energy_j, 1),
    );
    let _ = writeln!(
        out,
        "determinism: artifacts at 1/2/auto workers {}",
        if deterministic {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    let auto_speedup = (auto_workers >= 2).then(|| wall_1 / wall_auto);
    let _ = match auto_speedup {
        Some(x) => writeln!(out, "auto speedup over 1 worker: {}x", fmt(x, 2)),
        None => writeln!(out, "auto resolves to 1 worker: scaling point skipped"),
    };

    let mut metrics = vec![
        metric("deterministic", if deterministic { 1.0 } else { 0.0 }),
        metric("shards", report.rollup.shards as f64),
        metric("jobs", report.rollup.jobs as f64),
        metric("fleet_throughput_gips", report.rollup.throughput_gips),
        metric("fleet_energy_j", report.rollup.energy_j),
        metric("fail_safe_entries", report.rollup.fail_safe_entries as f64),
        metric("fault_injections", report.rollup.fault_injections as f64),
        metric("auto_workers", auto_workers as f64),
    ];
    metrics.extend(auto_speedup.map(|x| metric("auto_speedup_over_1", x)));
    ExperimentOutput::new(out, metrics)
}
