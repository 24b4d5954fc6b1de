//! Property tests for [`TelemetrySnapshot::merge`], mirroring the
//! `TraceSummary::merge` suite in `gpm-trace`: folding per-chunk span
//! snapshots — in any chunking, association order or shard order —
//! agrees with one snapshot holding every row. Span timings are
//! integers, so every assertion is exact equality.

use gpm_telemetry::{SpanRow, TelemetrySnapshot};
use proptest::prelude::*;

const PATHS: [&str; 4] = [
    "env.dispatch",
    "env.dispatch;search.hill_climb",
    "fleet.worker;fleet.shard",
    "xp.experiment",
];

fn row_strategy() -> impl Strategy<Value = SpanRow> {
    (
        0usize..PATHS.len(),
        1u64..50,
        0u64..1_000_000,
        0u64..1_000_000,
    )
        .prop_map(|(p, count, a, b)| SpanRow {
            path: PATHS[p].to_string(),
            count,
            total_ns: a.max(b),
            self_ns: a.min(b),
        })
}

/// One snapshot per row, folded in order — the per-shard rollup shape.
fn fold(rows: &[SpanRow]) -> TelemetrySnapshot {
    let mut acc = TelemetrySnapshot::default();
    for r in rows {
        acc.merge(&TelemetrySnapshot {
            spans: vec![r.clone()],
        });
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunked snapshots merged in order == one fold over every row, and
    /// the result has one sorted row per path whose counts add up.
    #[test]
    fn chunked_merge_agrees_with_single_fold(
        rows in prop::collection::vec(row_strategy(), 1..80),
        cuts in prop::collection::vec(0usize..80, 0..4),
    ) {
        let whole = fold(&rows);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (rows.len() + 1)).collect();
        bounds.push(0);
        bounds.push(rows.len());
        bounds.sort_unstable();
        let mut merged = TelemetrySnapshot::default();
        for pair in bounds.windows(2) {
            merged.merge(&fold(&rows[pair[0]..pair[1]]));
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert!(whole.spans.windows(2).all(|w| w[0].path < w[1].path));
        let count: u64 = rows.iter().map(|r| r.count).sum();
        prop_assert_eq!(whole.spans.iter().map(|r| r.count).sum::<u64>(), count);
    }

    /// Merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c) exactly.
    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(row_strategy(), 0..30),
        b in prop::collection::vec(row_strategy(), 0..30),
        c in prop::collection::vec(row_strategy(), 0..30),
    ) {
        let (sa, sb, sc) = (fold(&a), fold(&b), fold(&c));
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        let mut bc = sb;
        bc.merge(&sc);
        let mut right = sa;
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    /// A reshuffled row stream folds identically — which worker thread
    /// closed which span can never leak into a rollup.
    #[test]
    fn aggregation_is_order_insensitive(
        rows in prop::collection::vec(row_strategy(), 1..60),
        rot in 0usize..60,
    ) {
        let mut rotated = rows.clone();
        rotated.rotate_left(rot % rows.len());
        prop_assert_eq!(fold(&rotated), fold(&rows));
    }

    /// Merging with an empty snapshot is the identity, both ways.
    #[test]
    fn empty_is_identity(rows in prop::collection::vec(row_strategy(), 0..40)) {
        let s = fold(&rows);
        let mut left = s.clone();
        left.merge(&TelemetrySnapshot::default());
        prop_assert_eq!(&left, &s);
        let mut right = TelemetrySnapshot::default();
        right.merge(&s);
        prop_assert_eq!(&right, &s);
    }
}
