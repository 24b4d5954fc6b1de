//! Command-line entry point: `reproduce_main` backs the `reproduce`
//! binary.

use crate::experiment::Mode;
use crate::golden::default_tolerance;
use crate::registry::registry;
use crate::runner::{run_suite, ExperimentRecord, RunConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

fn print_gate_summary(record: &ExperimentRecord) {
    if record.gates.is_empty() {
        return;
    }
    eprintln!("gates ({}):", record.name);
    for g in &record.gates {
        eprintln!(
            "  [{}] {} {}: expected {} ± {}, got {}",
            if g.pass { "ok" } else { "FAIL" },
            g.source.as_str(),
            g.metric,
            g.expected,
            g.tol,
            g.actual
                .map(|a| format!("{a}"))
                .unwrap_or_else(|| "<missing>".to_string()),
        );
    }
}

struct ReproduceArgs {
    cfg: RunConfig,
    list: bool,
    emit_golden: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: reproduce [--fast | --full] [--filter SUBSTR]... [--jobs N]\n\
         \x20                [--resume] [--out DIR] [--aggregate PATH]\n\
         \x20                [--list] [--emit-golden PATH]\n\
         \n\
         Runs the registered paper-reproduction experiments in parallel over a\n\
         shared evaluation context, writes one schema-versioned JSON artifact\n\
         per experiment plus an aggregate report, and exits nonzero when any\n\
         metric leaves its tolerance band. Each experiment's report goes to\n\
         stdout. A --filter run writes the aggregate only to --aggregate PATH,\n\
         so it never overwrites the whole-registry report. --resume reuses\n\
         artifacts from a previous partial run when their fingerprints still\n\
         match."
    );
    std::process::exit(2);
}

fn parse_args<I: Iterator<Item = String>>(mut it: I) -> ReproduceArgs {
    let mut mode = Mode::Full;
    let mut filter = Vec::new();
    let mut jobs = 0usize;
    let mut resume = false;
    let mut out_dir: Option<PathBuf> = None;
    let mut aggregate: Option<PathBuf> = None;
    let mut list = false;
    let mut emit_golden = None;
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--fast" => mode = Mode::Fast,
            "--full" => mode = Mode::Full,
            "--filter" => filter.push(it.next().unwrap_or_else(|| usage())),
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--resume" => resume = true,
            "--out" => out_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--aggregate" => aggregate = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--list" => list = true,
            "--emit-golden" => {
                emit_golden = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    let mut cfg = RunConfig::for_mode(mode);
    // A filtered run covers part of the registry, so its aggregate would
    // clobber the whole-registry report: write one only when asked to.
    if aggregate.is_some() || !filter.is_empty() {
        cfg.aggregate_path = aggregate;
    }
    cfg.filter = filter;
    cfg.jobs = jobs;
    cfg.resume = resume;
    if let Some(dir) = out_dir {
        cfg.out_dir = dir;
    }
    ReproduceArgs {
        cfg,
        list,
        emit_golden,
    }
}

/// The `reproduce` binary: one command for the whole registry.
pub fn reproduce_main() -> ExitCode {
    let args = parse_args(std::env::args().skip(1));
    if args.list {
        println!("{:<24} {:<14} ctx  title", "name", "paper ref");
        for e in registry() {
            println!(
                "{:<24} {:<14} {}  {}",
                e.name,
                e.paper_ref,
                if e.needs_ctx { "yes" } else { " no" },
                e.title
            );
        }
        return ExitCode::SUCCESS;
    }

    let report = run_suite(&args.cfg);
    for r in &report.records {
        print!("{}", r.text);
    }
    if let Some(path) = &args.emit_golden {
        let text = render_golden_file(&report.records, args.cfg.mode);
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote golden table to {}", path.display());
    }

    let passed = report.records.iter().filter(|r| r.passed).count();
    eprintln!(
        "reproduce: {}/{} experiments passed ({} resumed, mode {})",
        passed,
        report.records.len(),
        report.resumed,
        args.cfg.mode
    );
    for r in report.records.iter().filter(|r| !r.passed) {
        eprintln!("FAILED: {}", r.name);
        print_gate_summary(r);
    }
    if report.all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders a regenerated `golden.rs`: this run's metrics for
/// `recorded_mode`, merged with the compiled-in rows of the other mode.
pub fn render_golden_file(records: &[ExperimentRecord], recorded_mode: Mode) -> String {
    let mut rows: Vec<(String, String, String, f64, f64)> = crate::golden::GOLDEN
        .iter()
        .filter(|(_, m, _, _, _)| *m != recorded_mode.as_str())
        .map(|&(e, m, k, v, t)| (e.to_string(), m.to_string(), k.to_string(), v, t))
        .collect();
    for r in records {
        if r.crashed {
            continue;
        }
        for m in &r.metrics {
            rows.push((
                r.name.clone(),
                recorded_mode.as_str().to_string(),
                m.name.clone(),
                m.value,
                default_tolerance(m.value),
            ));
        }
    }
    rows.sort_by(|a, b| (&a.0, &a.1, &a.2).cmp(&(&b.0, &b.1, &b.2)));

    let mut out = String::from(
        "//! Recorded golden values of this implementation, one row per\n\
         //! (experiment, mode, metric).\n\
         //!\n\
         //! THIS FILE IS GENERATED by `reproduce --emit-golden` — run the suite\n\
         //! in each mode and commit the regenerated file. Entries for the mode\n\
         //! *not* being re-recorded are preserved from the compiled-in table.\n\
         //!\n\
         //! Tolerances: exact (0) for integral values, else the wider of 2%\n\
         //! relative and 0.02 absolute — tight enough to flag behaviour changes,\n\
         //! loose enough to survive cross-platform libm variance.\n\
         \n\
         use crate::experiment::{Expectation, Mode, Source};\n\
         \n\
         /// (experiment, mode, metric, expected, tolerance).\n\
         pub type GoldenRow = (&'static str, &'static str, &'static str, f64, f64);\n\
         \n\
         /// The recorded table.\n\
         pub const GOLDEN: &[GoldenRow] = &[\n",
    );
    for (e, m, k, v, t) in &rows {
        writeln!(out, "    ({e:?}, {m:?}, {k:?}, {v:?}, {t:?}),").unwrap();
    }
    out.push_str(
        "];\n\
         \n\
         /// Golden expectations for one experiment under one mode.\n\
         pub fn golden_for(name: &str, mode: Mode) -> Vec<Expectation> {\n\
         \x20   GOLDEN\n\
         \x20       .iter()\n\
         \x20       .filter(|(exp, m, _, _, _)| *exp == name && *m == mode.as_str())\n\
         \x20       .map(|&(_, _, metric, expected, tol)| Expectation {\n\
         \x20           metric,\n\
         \x20           expected,\n\
         \x20           tol,\n\
         \x20           source: Source::Golden,\n\
         \x20           mode: Some(mode),\n\
         \x20       })\n\
         \x20       .collect()\n\
         }\n\
         \n\
         /// The default tolerance rule used by the emitter.\n\
         pub fn default_tolerance(value: f64) -> f64 {\n\
         \x20   if value.fract() == 0.0 && value.abs() < 1e9 {\n\
         \x20       0.0\n\
         \x20   } else {\n\
         \x20       (value.abs() * 0.02).max(0.02)\n\
         \x20   }\n\
         }\n\
         \n\
         #[cfg(test)]\n\
         mod tests {\n\
         \x20   use super::*;\n\
         \n\
         \x20   #[test]\n\
         \x20   fn tolerance_rule_distinguishes_counts_from_measurements() {\n\
         \x20       assert_eq!(default_tolerance(30.0), 0.0);\n\
         \x20       assert_eq!(default_tolerance(0.0), 0.0);\n\
         \x20       assert!((default_tolerance(24.8) - 0.496).abs() < 1e-9);\n\
         \x20       assert_eq!(default_tolerance(0.001), 0.02);\n\
         \x20   }\n\
         \n\
         \x20   #[test]\n\
         \x20   fn golden_rows_parse_into_expectations() {\n\
         \x20       for &(name, m, _, _, _) in GOLDEN {\n\
         \x20           assert!(m == \"fast\" || m == \"full\", \"{name}: bad mode {m}\");\n\
         \x20       }\n\
         \x20       // Unknown experiments yield no expectations.\n\
         \x20       assert!(golden_for(\"definitely-not-registered\", Mode::Fast).is_empty());\n\
         \x20   }\n\
         }\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_covers_all_flags() {
        let args = parse_args(
            [
                "--fast",
                "--filter",
                "fig8",
                "--filter",
                "table",
                "--jobs",
                "3",
                "--resume",
                "--out",
                "tmp/xp",
                "--aggregate",
                "tmp/REPRO.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(args.cfg.mode, Mode::Fast);
        assert_eq!(args.cfg.filter, vec!["fig8", "table"]);
        assert_eq!(args.cfg.jobs, 3);
        assert!(args.cfg.resume);
        assert_eq!(args.cfg.out_dir, PathBuf::from("tmp/xp"));
        assert_eq!(
            args.cfg.aggregate_path,
            Some(PathBuf::from("tmp/REPRO.json"))
        );
        assert!(!args.list);
        assert!(args.emit_golden.is_none());
    }

    #[test]
    fn aggregate_defaults_only_for_whole_registry_runs() {
        let parse = |flags: &[&str]| parse_args(flags.iter().map(|s| s.to_string())).cfg;
        assert_eq!(
            parse(&["--fast"]).aggregate_path,
            Some(PathBuf::from("results/REPRO_fast.json"))
        );
        assert_eq!(
            parse(&["--fast", "--filter", "search_cost"]).aggregate_path,
            None
        );
        assert_eq!(
            parse(&["--filter", "fig8", "--aggregate", "x.json"]).aggregate_path,
            Some(PathBuf::from("x.json"))
        );
    }

    #[test]
    fn golden_file_round_trips_through_rustfmt_shape() {
        use crate::experiment::metric;
        use gpm_trace::TraceSummary;
        use serde_json::Value;
        let records = vec![ExperimentRecord {
            name: "fig8".into(),
            paper_ref: "Figure 8".into(),
            title: "t".into(),
            mode: "fast".into(),
            fingerprint: 1,
            passed: true,
            crashed: false,
            metrics: vec![metric("mpc_energy_savings_pct", 28.75)],
            gates: vec![],
            trace: TraceSummary::default(),
            phases: vec![],
            duration_ms: 1,
            text: String::new(),
            details: Value::Null,
        }];
        let text = render_golden_file(&records, Mode::Fast);
        assert!(text.contains("(\"fig8\", \"fast\", \"mpc_energy_savings_pct\", 28.75,"));
        assert!(text.contains("pub const GOLDEN"));
        // The emitter preserves rows of the other mode from the compiled table.
        for (e, m, k, _, _) in crate::golden::GOLDEN
            .iter()
            .filter(|(_, m, _, _, _)| *m == "full")
        {
            assert!(text.contains(&format!("({e:?}, {m:?}, {k:?}")));
        }
    }
}
