//! The Prometheus page is a view of the trace: rendered from an
//! `AggregateSink` summary of any event stream — non-finite decision
//! overheads and the empty stream included — it validates, and every
//! decision family reads exactly its `TraceSummary` field.

use gpm_harness::report::prometheus;
use gpm_hw::HwConfig;
use gpm_telemetry::{validate_prometheus, TelemetrySnapshot};
use gpm_trace::{AggregateSink, TraceEvent, TraceSink, TraceSummary};
use proptest::prelude::*;

/// Decision overheads spanning every latency bucket, the open-ended
/// ends, and the samples the histogram must reject.
const OVERHEADS: [f64; 8] = [
    0.0,
    5e-7,
    3e-5,
    2e-3,
    0.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (0usize..4).prop_map(|run_index| TraceEvent::RunStart {
            workload: "w".into(),
            governor: "g".into(),
            run_index,
            total_kernels: 3,
        }),
        (0usize..8).prop_map(|position| TraceEvent::Dispatch {
            run_index: 1,
            position,
            kernel: "k".into(),
        }),
        (0usize..OVERHEADS.len(), 0u64..40).prop_map(|(i, evaluations)| {
            TraceEvent::Decision {
                run_index: 1,
                position: 0,
                config: HwConfig::FAIL_SAFE,
                horizon: Some(2),
                evaluations,
                overhead_s: OVERHEADS[i],
                predicted_time_s: None,
                predicted_power_w: None,
                predicted_energy_j: None,
            }
        }),
        proptest::strategy::AnyBool.prop_map(|cached| TraceEvent::BaselineResolved {
            run_index: 0,
            workload: "w".into(),
            cached,
        }),
    ]
}

/// The value of the one sample whose name-and-labels prefix is `series`.
fn sample(page: &str, series: &str) -> Option<f64> {
    page.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .map(|v| v.parse().expect("numeric sample"))
}

/// Asserts the page validates and each family equals its trace fact.
fn check_page(s: &TraceSummary) {
    let page = prometheus(s, &TelemetrySnapshot::default());
    validate_prometheus(&page).unwrap_or_else(|e| panic!("{e}\n{page}"));
    let h = &s.decision_latency;
    assert_eq!(sample(&page, "gpm_runs_total"), Some(s.runs as f64));
    assert_eq!(
        sample(&page, "gpm_dispatches_total"),
        Some(s.dispatches as f64)
    );
    assert_eq!(
        sample(&page, "gpm_decision_seconds_count"),
        Some(h.n as f64)
    );
    assert_eq!(
        sample(&page, "gpm_decision_seconds_bucket{le=\"+Inf\"}"),
        Some(h.n as f64)
    );
    assert_eq!(
        sample(&page, "gpm_decision_seconds_rejected"),
        Some(h.rejected as f64)
    );
    assert_eq!(h.n + h.rejected, s.decisions);
    for (cache, n) in [
        ("hit", s.baseline_cache_hits),
        ("miss", s.baseline_simulations),
    ] {
        let series = format!("gpm_baseline_resolutions_total{{cache=\"{cache}\"}}");
        assert_eq!(sample(&page, &series), (n > 0).then_some(n as f64));
    }
}

#[test]
fn empty_summary_renders_a_valid_zero_page() {
    let s = AggregateSink::new().summary();
    check_page(&s);
    let page = prometheus(&s, &TelemetrySnapshot::default());
    assert!(!page.contains("gpm_baseline_resolutions_total"));
    assert!(!page.contains("gpm_span_count"));
}

#[test]
fn nan_overhead_is_rejected_not_bucketed() {
    let agg = AggregateSink::new();
    for overhead_s in [f64::NAN, 2e-3] {
        agg.record(&TraceEvent::Decision {
            run_index: 1,
            position: 0,
            config: HwConfig::FAIL_SAFE,
            horizon: None,
            evaluations: 1,
            overhead_s,
            predicted_time_s: None,
            predicted_power_w: None,
            predicted_energy_j: None,
        });
    }
    let page = prometheus(&agg.summary(), &TelemetrySnapshot::default());
    assert!(page.contains("gpm_decision_seconds_bucket{le=\"0.001\"} 0\n"));
    assert!(page.contains("gpm_decision_seconds_bucket{le=\"0.01\"} 1\n"));
    assert!(page.contains("gpm_decision_seconds_count 1\n"));
    assert!(page.contains("gpm_decision_seconds_rejected 1\n"));
    check_page(&agg.summary());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_families_equal_the_trace_summary(
        events in prop::collection::vec(event_strategy(), 0..120),
    ) {
        let agg = AggregateSink::new();
        for e in &events {
            agg.record(e);
        }
        check_page(&agg.summary());
    }
}
