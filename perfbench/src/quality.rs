//! The deterministic end-to-end metrics: decision quality against the
//! Turbo Core baseline and the Theoretically Optimal plan, taken from the
//! reference pass so they never depend on how many calls were timed.

use crate::bench::Report;
use gpm_harness::metrics::summarize;
use gpm_harness::{Comparison, EvalContext, ExecEnv, Scheme};
use gpm_workloads::Workload;
use std::collections::BTreeMap;

/// Comparisons of the reference pass, one slot per call.
#[derive(Debug, Default)]
pub struct Quality {
    slots: Vec<Option<(Vec<Comparison>, u64, u64)>>,
}

impl Quality {
    /// Empty slots for `n` calls.
    pub fn new(n: usize) -> Quality {
        Quality {
            slots: vec![None; n],
        }
    }

    /// Keeps the first result of slot `i`: the scheme's runs against
    /// their baselines, its fail-safe decisions and all its decisions.
    pub fn first(&mut self, i: usize, comps: &[Comparison], fail_safe: u64, decisions: u64) {
        self.slots[i].get_or_insert_with(|| (comps.to_vec(), fail_safe, decisions));
    }

    /// Mean savings and geometric-mean speedup over the filled slots.
    pub fn mean(&self) -> Comparison {
        let comps: Vec<Comparison> = self
            .slots
            .iter()
            .flatten()
            .flat_map(|s| s.0.iter().copied())
            .collect();
        summarize(&comps)
    }

    /// The mean savings as a percentage of `to_savings_pct`, TO's mean
    /// savings on the same apps.
    pub fn capture_pct(&self, to_savings_pct: f64) -> f64 {
        100.0 * self.mean().energy_savings_pct / to_savings_pct
    }

    /// Records mean energy savings, geometric-mean speedup and the
    /// fail-safe share of decisions.
    pub fn record(&self, report: &mut Report) {
        let mean = self.mean();
        report.set("energy_savings_pct", mean.energy_savings_pct);
        report.set("sim_speedup", mean.speedup);
        let fail_safe: u64 = self.slots.iter().flatten().map(|s| s.1).sum();
        let decisions: u64 = self.slots.iter().flatten().map(|s| s.2).sum();
        report.set(
            "fail_safe_pct",
            100.0 * fail_safe as f64 / decisions.max(1) as f64,
        );
        report.note("fail_safe_decisions", fail_safe);
    }
}

/// Mean energy savings of the Theoretically Optimal plan over `apps`
/// (clean, untimed; each distinct app planned once): the reference for
/// `to_capture_pct`.
pub fn to_savings(env: &ExecEnv, ctx: &EvalContext, apps: &[&Workload]) -> f64 {
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    let total: f64 = apps
        .iter()
        .map(|app| {
            *by_name.entry(app.name()).or_insert_with(|| {
                let out = env.evaluate(ctx, app, Scheme::TheoreticallyOptimal);
                Comparison::between(&out.baseline, &out.measured).energy_savings_pct
            })
        })
        .sum();
    total / apps.len().max(1) as f64
}
