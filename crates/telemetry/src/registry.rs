//! The telemetry handle and its frozen, mergeable snapshot.
//!
//! A [`Telemetry`] handle owns the span profiler's per-thread span trees
//! and, optionally, a bounded ring of completed spans for chrome-trace
//! export. Decision facts (runs, dispatches, decision latency, baseline
//! resolutions) are not counted here: they live in the `gpm-trace` event
//! stream, and `gpm_harness::report::prometheus` renders them from its
//! summary.

use crate::span::{SpanEvent, ThreadSlot};
use serde::{Deserialize, Serialize};
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Bounded ring of completed span events for chrome-trace export.
pub(crate) struct EventRing {
    pub(crate) capacity: usize,
    pub(crate) events: Mutex<Vec<SpanEvent>>,
    pub(crate) cursor: AtomicUsize,
}

pub(crate) struct Inner {
    pub(crate) epoch: Instant,
    pub(crate) threads: Mutex<Vec<Arc<ThreadSlot>>>,
    pub(crate) events: Option<Arc<EventRing>>,
}

/// A cheaply clonable telemetry handle: the span profiler state. Clones
/// share storage; [`Telemetry::snapshot`] freezes it into a serializable
/// [`TelemetrySnapshot`].
#[derive(Clone)]
pub struct Telemetry {
    pub(crate) inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("events", &self.inner.events.is_some())
            .finish()
    }
}

impl Telemetry {
    /// A fresh, empty handle with span-event recording disabled.
    pub fn new() -> Telemetry {
        Telemetry::build(None)
    }

    /// A handle that additionally keeps the most recent `capacity`
    /// completed spans as chrome-trace events
    /// ([`Telemetry::chrome_trace`]).
    pub fn with_events(capacity: usize) -> Telemetry {
        Telemetry::build(Some(Arc::new(EventRing {
            capacity: capacity.max(1),
            events: Mutex::new(Vec::new()),
            cursor: AtomicUsize::new(0),
        })))
    }

    fn build(events: Option<Arc<EventRing>>) -> Telemetry {
        Telemetry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                threads: Mutex::new(Vec::new()),
                events,
            }),
        }
    }

    /// Whether two handles share one registry.
    pub fn same_registry(&self, other: &Telemetry) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Freezes the span trees into a mergeable, serializable snapshot.
    /// Spans may keep closing concurrently; active spans are not counted.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut spans = crate::span::collect_spans(&self.inner);
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        TelemetrySnapshot { spans }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

/// One aggregated span path in a snapshot: the `;`-joined ancestry
/// (flamegraph folded-stack key), with total and self time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRow {
    /// `;`-joined span ancestry, root first (e.g.
    /// `env.dispatch;search.hill_climb`).
    pub path: String,
    /// Completed spans on this path.
    pub count: u64,
    /// Wall time inside these spans, nanoseconds.
    pub total_ns: u64,
    /// `total_ns` minus time attributed to child spans.
    pub self_ns: u64,
}

impl SpanRow {
    /// The leaf span name (last `;` segment).
    pub fn name(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }
}

/// A frozen, mergeable view of one registry's span profile, rows sorted
/// by path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Aggregated span rows, sorted by path.
    pub spans: Vec<SpanRow>,
}

impl TelemetrySnapshot {
    /// Folds `other` into this snapshot: rows on the same path add
    /// their counts and times. Merging per-shard snapshots in any
    /// grouping or order agrees with one registry having recorded every
    /// span (property-tested).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for theirs in &other.spans {
            match self.spans.iter_mut().find(|s| s.path == theirs.path) {
                None => self.spans.push(theirs.clone()),
                Some(ours) => {
                    ours.count += theirs.count;
                    ours.total_ns += theirs.total_ns;
                    ours.self_ns += theirs.self_ns;
                }
            }
        }
        self.spans.sort_by(|a, b| a.path.cmp(&b.path));
    }

    /// The aggregated span row whose leaf name is `name` summed over
    /// every path it appears on (`None` when never recorded).
    pub fn span(&self, name: &str) -> Option<SpanRow> {
        let mut acc: Option<SpanRow> = None;
        for row in self.spans.iter().filter(|s| s.name() == name) {
            match &mut acc {
                None => {
                    acc = Some(SpanRow {
                        path: name.to_string(),
                        count: row.count,
                        total_ns: row.total_ns,
                        self_ns: row.self_ns,
                    })
                }
                Some(a) => {
                    a.count += row.count;
                    a.total_ns += row.total_ns;
                    a.self_ns += row.self_ns;
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, count: u64, total_ns: u64, self_ns: u64) -> SpanRow {
        SpanRow {
            path: path.to_string(),
            count,
            total_ns,
            self_ns,
        }
    }

    #[test]
    fn span_sums_a_leaf_over_every_path() {
        let snap = TelemetrySnapshot {
            spans: vec![
                row("env.dispatch", 4, 100, 60),
                row("env.dispatch;search.hill_climb", 3, 40, 40),
                row("search.hill_climb", 1, 10, 10),
            ],
        };
        assert_eq!(
            snap.span("search.hill_climb"),
            Some(row("search.hill_climb", 4, 50, 50))
        );
        assert_eq!(snap.span("rf.fit"), None);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let t = Telemetry::new();
        {
            let _e = t.enter();
            let _s = crate::span("env.dispatch");
        }
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
