//! Fleet telemetry: per-job and per-shard reports plus the fleet-level
//! rollup.
//!
//! Reports are plain serializable values assembled in shard order, so the
//! serialized [`FleetReport`] is the byte-identity artifact the
//! determinism suite diffs across worker counts.

use gpm_harness::{Comparison, SchemeOutcome};
use gpm_telemetry::TelemetrySnapshot;
use gpm_trace::TraceSummary;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One evaluated (workload, scheme) pair on one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Workload name.
    pub workload: String,
    /// Scheme display label.
    pub scheme: String,
    /// Scheme wall-clock time, seconds (kernels + overheads).
    pub wall_time_s: f64,
    /// Scheme chip-wide energy, joules.
    pub energy_j: f64,
    /// Work done, giga-instructions.
    pub ginstructions: f64,
    /// Chip-wide energy savings vs the shard's Turbo Core baseline, %.
    pub energy_savings_pct: f64,
    /// Wall-clock speedup vs the baseline.
    pub speedup: f64,
}

impl JobReport {
    /// Builds the report from an evaluated outcome.
    pub fn from_outcome(out: &SchemeOutcome) -> JobReport {
        let cmp = Comparison::between(&out.baseline, &out.measured);
        JobReport {
            workload: out.measured.workload.clone(),
            scheme: out.label.to_string(),
            wall_time_s: out.measured.wall_time_s(),
            energy_j: out.measured.total_energy_j(),
            ginstructions: out.measured.ginstructions,
            energy_savings_pct: cmp.energy_savings_pct,
            speedup: cmp.speedup,
        }
    }
}

/// Everything one shard produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardReport {
    /// Stable shard index.
    pub shard_id: usize,
    /// Device label from the plan.
    pub device: String,
    /// Arrival offset from the plan, seconds.
    pub arrival_offset_s: f64,
    /// Per-job results, in admission order.
    pub jobs: Vec<JobReport>,
    /// Simulated busy time: sum of job wall-clock times, seconds.
    pub busy_time_s: f64,
    /// Shard chip-wide energy, joules.
    pub energy_j: f64,
    /// Shard work done, giga-instructions.
    pub ginstructions: f64,
    /// Turbo Core baselines this shard resolved (computed or served from
    /// the shared cache). The compute/hit split depends only on worker
    /// scheduling, so the fleet artifact keeps the sum and zeroes the
    /// split inside `trace` to preserve byte-identity.
    pub baseline_resolutions: u64,
    /// The shard's merged decision-level trace counters
    /// (`baseline_simulations`/`baseline_cache_hits` normalized to 0 —
    /// see `baseline_resolutions`).
    pub trace: TraceSummary,
    /// Snapshot of the shard's private telemetry registry, populated when
    /// the service ran with [`crate::FleetService::with_telemetry`]. Span
    /// rows carry wall-clock timings, which are not deterministic, so
    /// this field is excluded from the serialized artifact to keep
    /// [`FleetReport::to_artifact_json`] byte-identical across worker
    /// counts and with/without registries live.
    #[serde(skip)]
    pub telemetry: Option<TelemetrySnapshot>,
}

impl ShardReport {
    /// Simulated completion time of the shard's last job (arrival offset
    /// plus busy time), seconds.
    pub fn completion_s(&self) -> f64 {
        self.arrival_offset_s + self.busy_time_s
    }
}

/// Fleet-level rollup across every shard.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetRollup {
    /// Shards executed.
    pub shards: usize,
    /// Jobs executed.
    pub jobs: usize,
    /// Total chip-wide energy, joules.
    pub energy_j: f64,
    /// Total work done, giga-instructions.
    pub ginstructions: f64,
    /// Simulated makespan: latest shard completion, seconds.
    pub makespan_s: f64,
    /// Fleet throughput: total giga-instructions / makespan.
    pub throughput_gips: f64,
    /// Fail-safe fallbacks observed fleet-wide.
    pub fail_safe_entries: u64,
    /// Faults injected fleet-wide.
    pub fault_injections: u64,
    /// All shard trace summaries merged in shard order.
    pub trace: TraceSummary,
    /// All per-shard telemetry snapshots merged in shard order (present
    /// when the service ran with a registry installed). Excluded from
    /// the serialized artifact for the same reason as
    /// [`ShardReport::telemetry`].
    #[serde(skip)]
    pub telemetry: Option<TelemetrySnapshot>,
}

impl FleetRollup {
    /// Rolls up shard reports (assumed sorted by `shard_id`).
    pub fn from_shards(shards: &[ShardReport]) -> FleetRollup {
        let mut rollup = FleetRollup::default();
        for s in shards {
            rollup.merge(&FleetRollup {
                shards: 1,
                jobs: s.jobs.len(),
                energy_j: s.energy_j,
                ginstructions: s.ginstructions,
                makespan_s: s.completion_s(),
                throughput_gips: 0.0,
                fail_safe_entries: s.trace.fail_safe_events,
                fault_injections: s.trace.fault_injections,
                trace: s.trace.clone(),
                telemetry: s.telemetry.clone(),
            });
        }
        rollup
    }

    /// Folds `other` in as if its shards had joined this fleet, which is
    /// what [`FleetRollup::from_shards`] over both shard sets gives:
    /// counts, energy, work, summaries and span profiles add, the
    /// makespan is the later completion, and throughput follows from it.
    pub fn merge(&mut self, other: &FleetRollup) {
        self.shards += other.shards;
        self.jobs += other.jobs;
        self.energy_j += other.energy_j;
        self.ginstructions += other.ginstructions;
        self.makespan_s = self.makespan_s.max(other.makespan_s);
        self.throughput_gips = if self.makespan_s > 0.0 {
            self.ginstructions / self.makespan_s
        } else {
            0.0
        };
        self.fail_safe_entries += other.fail_safe_entries;
        self.fault_injections += other.fault_injections;
        self.trace.merge(&other.trace);
        if let Some(snap) = &other.telemetry {
            self.telemetry
                .get_or_insert_with(Default::default)
                .merge(snap);
        }
    }

    /// The rollup's Prometheus page: the decision families and span
    /// profile of [`gpm_harness::report::prometheus`] over the merged
    /// trace and shard spans, then the `gpm_fleet_shards_total`,
    /// `gpm_fleet_jobs_total` and `gpm_fleet_fail_safe_total` counters.
    /// The baseline cache split is normalized out of fleet traces (see
    /// [`ShardReport::baseline_resolutions`]), so the page carries no
    /// baseline series.
    pub fn to_prometheus(&self) -> String {
        let spans = self.telemetry.clone().unwrap_or_default();
        let mut page = gpm_harness::report::prometheus(&self.trace, &spans);
        for (family, value) in [
            ("gpm_fleet_shards_total", self.shards as u64),
            ("gpm_fleet_jobs_total", self.jobs as u64),
            ("gpm_fleet_fail_safe_total", self.fail_safe_entries),
        ] {
            let _ = writeln!(page, "# TYPE {family} counter\n{family} {value}");
        }
        page
    }
}

/// The full fleet artifact: scenario identity, per-shard reports, and
/// the rollup. Serialized bytes of this value are the determinism
/// contract — identical for any worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Per-shard reports, sorted by `shard_id`.
    pub shards: Vec<ShardReport>,
    /// Fleet-level rollup.
    pub rollup: FleetRollup,
}

impl FleetReport {
    /// The canonical serialized artifact (pretty JSON, stable field
    /// order) used for byte-identity diffs and `results/` emission.
    pub fn to_artifact_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("fleet report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(id: usize, offset: f64, busy: f64, energy: f64, gi: f64) -> ShardReport {
        ShardReport {
            shard_id: id,
            device: format!("apu-{id:02}"),
            arrival_offset_s: offset,
            jobs: vec![JobReport {
                workload: "w".into(),
                scheme: "s".into(),
                wall_time_s: busy,
                energy_j: energy,
                ginstructions: gi,
                energy_savings_pct: 0.0,
                speedup: 1.0,
            }],
            busy_time_s: busy,
            energy_j: energy,
            ginstructions: gi,
            baseline_resolutions: 1,
            trace: TraceSummary::default(),
            telemetry: None,
        }
    }

    #[test]
    fn rollup_totals_energy_work_and_makespan() {
        let shards = vec![shard(0, 0.0, 2.0, 10.0, 4.0), shard(1, 0.5, 1.0, 6.0, 2.0)];
        let r = FleetRollup::from_shards(&shards);
        assert_eq!(r.shards, 2);
        assert_eq!(r.jobs, 2);
        assert!((r.energy_j - 16.0).abs() < 1e-12);
        assert!((r.ginstructions - 6.0).abs() < 1e-12);
        // Shard 0 completes at 2.0 s, shard 1 at 1.5 s.
        assert!((r.makespan_s - 2.0).abs() < 1e-12);
        assert!((r.throughput_gips - 3.0).abs() < 1e-12);
    }

    #[test]
    fn merged_rollups_equal_the_rollup_of_all_shards() {
        let shards = vec![
            shard(0, 0.0, 2.0, 10.0, 4.0),
            shard(1, 0.5, 1.0, 6.0, 2.0),
            shard(2, 3.0, 0.5, 1.0, 1.0),
        ];
        let mut merged = FleetRollup::from_shards(&shards[..1]);
        merged.merge(&FleetRollup::from_shards(&shards[1..]));
        assert_eq!(merged, FleetRollup::from_shards(&shards));
        let page = merged.to_prometheus();
        gpm_telemetry::validate_prometheus(&page).unwrap();
        assert!(page.contains("gpm_fleet_shards_total 3\n"));
        assert!(page.contains("gpm_fleet_jobs_total 3\n"));
    }

    #[test]
    fn rollup_of_empty_fleet_is_zero() {
        let r = FleetRollup::from_shards(&[]);
        assert_eq!(r.shards, 0);
        assert_eq!(r.jobs, 0);
        assert_eq!(r.throughput_gips, 0.0);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let shards = vec![shard(0, 0.0, 1.0, 5.0, 3.0)];
        let report = FleetReport {
            scenario: "t".into(),
            seed: 1,
            rollup: FleetRollup::from_shards(&shards),
            shards,
        };
        let json = report.to_artifact_json();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
