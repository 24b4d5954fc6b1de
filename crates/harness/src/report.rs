//! Plain-text table and CSV rendering for the experiment binaries, and
//! the Prometheus page derived from a trace summary.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use gpm_harness::report::Table;
///
/// let mut t = Table::new(vec!["benchmark", "savings (%)"]);
/// t.row(vec!["kmeans".into(), "24.8".into()]);
/// let text = t.render();
/// assert!(text.contains("kmeans"));
/// assert!(text.contains("benchmark"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's arity differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&"-".repeat(*w));
        }
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        let _ = cols;
        out
    }

    /// Renders as RFC-4180-ish CSV (cells containing commas or quotes are
    /// quoted).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.headers);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// Formats a percentage with sign, one decimal.
pub fn pct(value: f64) -> String {
    format!("{value:+.1}%")
}

/// Renders a [`gpm_trace::TraceSummary`] as a metric/value table — the
/// trace-summary section appended to scheme reports and printed by the
/// `trace_report` binary.
pub fn trace_summary_table(s: &gpm_trace::TraceSummary) -> Table {
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["runs".into(), s.runs.to_string()]);
    t.row(vec![
        "baseline simulations".into(),
        s.baseline_simulations.to_string(),
    ]);
    t.row(vec![
        "baseline cache hits".into(),
        s.baseline_cache_hits.to_string(),
    ]);
    t.row(vec!["dispatches".into(), s.dispatches.to_string()]);
    t.row(vec!["decisions".into(), s.decisions.to_string()]);
    t.row(vec![
        "horizon decisions".into(),
        s.horizon_decisions.to_string(),
    ]);
    t.row(vec!["mean horizon".into(), fmt(s.mean_horizon, 3)]);
    t.row(vec![
        "overhead per decision (us)".into(),
        fmt(s.overhead_per_decision_s * 1e6, 2),
    ]);
    t.row(vec![
        "horizon evaluations".into(),
        s.horizon_evaluations.to_string(),
    ]);
    t.row(vec![
        "total evaluations".into(),
        s.total_evaluations.to_string(),
    ]);
    t.row(vec!["searches".into(), s.searches.to_string()]);
    t.row(vec![
        "knob visits (cpu pstate)".into(),
        s.knob_visits.cpu_pstate.to_string(),
    ]);
    t.row(vec![
        "knob visits (nb state)".into(),
        s.knob_visits.nb_state.to_string(),
    ]);
    t.row(vec![
        "knob visits (gpu dpm)".into(),
        s.knob_visits.gpu_dpm.to_string(),
    ]);
    t.row(vec![
        "knob visits (cu count)".into(),
        s.knob_visits.cu_count.to_string(),
    ]);
    t.row(vec![
        "pruned candidates".into(),
        s.pruned_candidates.to_string(),
    ]);
    t.row(vec![
        "fail-safe events".into(),
        s.fail_safe_events.to_string(),
    ]);
    t.row(vec!["pattern misses".into(), s.pattern_misses.to_string()]);
    t.row(vec![
        "fault injections".into(),
        s.fault_injections.to_string(),
    ]);
    t.row(vec!["recoveries".into(), s.recoveries.to_string()]);
    t.row(vec!["outcomes".into(), s.outcomes.to_string()]);
    t.row(vec![
        "mean |time error| (ms)".into(),
        fmt(s.mean_abs_time_error_s * 1e3, 4),
    ]);
    t.row(vec![
        "mean signed energy error (J)".into(),
        fmt(s.mean_signed_energy_error_j, 4),
    ]);
    t.row(vec!["min headroom (s)".into(), fmt(s.min_headroom_s, 4)]);
    t.row(vec!["mean headroom (s)".into(), fmt(s.mean_headroom_s, 4)]);
    t
}

/// Renders the Prometheus text exposition page of one decision ledger.
///
/// Every decision family is a view of the trace stream summarized in
/// `summary`, so the page cannot disagree with it:
///
/// | family | trace fact |
/// |---|---|
/// | `gpm_runs_total` | `RunStart` events |
/// | `gpm_dispatches_total` | `Dispatch` events |
/// | `gpm_decision_seconds` (+ `_rejected`) | `TraceSummary::decision_latency` |
/// | `gpm_baseline_resolutions_total{cache}` | `BaselineResolved{cached}` |
///
/// A baseline series appears once its count is non-zero. The span
/// families of `spans` ([`TelemetrySnapshot::to_prometheus`]) follow.
/// Output is deterministic and passes
/// [`gpm_telemetry::validate_prometheus`].
///
/// [`TelemetrySnapshot::to_prometheus`]: gpm_telemetry::TelemetrySnapshot::to_prometheus
pub fn prometheus(
    summary: &gpm_trace::TraceSummary,
    spans: &gpm_telemetry::TelemetrySnapshot,
) -> String {
    let mut out = String::new();
    let h = &summary.decision_latency;
    let _ = writeln!(out, "# TYPE gpm_runs_total counter");
    let _ = writeln!(out, "gpm_runs_total {}", summary.runs);
    let _ = writeln!(out, "# TYPE gpm_dispatches_total counter");
    let _ = writeln!(out, "gpm_dispatches_total {}", summary.dispatches);
    let _ = writeln!(out, "# TYPE gpm_decision_seconds histogram");
    let mut cum = 0;
    for (i, c) in h.counts.iter().enumerate() {
        cum += c;
        let le = h.bounds.get(i).map_or("+Inf".to_string(), f64::to_string);
        let _ = writeln!(out, "gpm_decision_seconds_bucket{{le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "gpm_decision_seconds_sum {}", h.sum);
    let _ = writeln!(out, "gpm_decision_seconds_count {}", h.n);
    let _ = writeln!(out, "# TYPE gpm_decision_seconds_rejected counter");
    let _ = writeln!(out, "gpm_decision_seconds_rejected {}", h.rejected);
    let baselines = [
        ("hit", summary.baseline_cache_hits),
        ("miss", summary.baseline_simulations),
    ];
    if baselines.iter().any(|&(_, n)| n > 0) {
        let _ = writeln!(out, "# TYPE gpm_baseline_resolutions_total counter");
        for (cache, n) in baselines.into_iter().filter(|&(_, n)| n > 0) {
            let _ = writeln!(
                out,
                "gpm_baseline_resolutions_total{{cache=\"{cache}\"}} {n}"
            );
        }
    }
    out.push_str(&spans.to_prometheus());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["alpha".into(), "1.5".into()]);
        t.row(vec!["b".into(), "22".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
        // All rows same width.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(pct(24.81), "+24.8%");
        assert_eq!(pct(-1.84), "-1.8%");
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new(vec!["x"]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
