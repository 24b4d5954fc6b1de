//! Hierarchical span profiler: RAII guards over per-thread span trees.
//!
//! A span records *where the time goes*: entering one pushes onto the
//! thread's active-span stack, dropping it attributes the elapsed wall
//! time to the span's path (its ancestry) and to the parent's child
//! time, so snapshots can report both **total** and **self** time per
//! path. The hot path is allocation-free once a path has been seen: the
//! guard takes one uncontended per-thread lock and indexes into a node
//! arena keyed by `&'static str` names.
//!
//! Spans route through the thread's *current* registry, established
//! with [`Telemetry::enter`]. Library code (forest fit, governor
//! search) calls the free [`span()`] without holding a handle; when no
//! registry is current on the thread, the guard is inert and costs one
//! thread-local read.

use crate::registry::{Inner, SpanRow, Telemetry};
use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// One span-tree node: a `&'static str` name under a parent path.
struct Node {
    name: &'static str,
    parent: Option<usize>,
    children: Vec<(&'static str, usize)>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

/// An active (not yet finished) span on the thread's stack.
struct Frame {
    node: usize,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct ThreadSpans {
    nodes: Vec<Node>,
    roots: Vec<(&'static str, usize)>,
    stack: Vec<Frame>,
}

/// Per-(thread, registry) span state. Only this thread writes; the
/// snapshotting thread reads under the same mutex, which is therefore
/// uncontended in steady state. The registry's epoch is cached here so
/// a span guard needs only this one (thread-private, cache-warm)
/// allocation — no pointer chase into the shared `Inner`.
pub(crate) struct ThreadSlot {
    epoch: Instant,
    spans: Mutex<ThreadSpans>,
}

thread_local! {
    /// Stack of registries made current via [`Telemetry::enter`], with
    /// this thread's slot in each resolved once at enter time.
    static CURRENT: RefCell<Vec<(Telemetry, Arc<ThreadSlot>)>> = const { RefCell::new(Vec::new()) };
    /// Registry → slot cache so repeated [`Telemetry::span`] /
    /// [`Telemetry::enter`] calls skip the registry's thread list lock.
    static SLOTS: RefCell<Vec<(Weak<Inner>, Arc<ThreadSlot>)>> = const { RefCell::new(Vec::new()) };
}

fn slot_for_thread(t: &Telemetry) -> Arc<ThreadSlot> {
    SLOTS.with(|cache| {
        let mut cache = cache.borrow_mut();
        cache.retain(|(weak, _)| weak.strong_count() > 0);
        for (weak, slot) in cache.iter() {
            if let Some(inner) = weak.upgrade() {
                if Arc::ptr_eq(&inner, &t.inner) {
                    return Arc::clone(slot);
                }
            }
        }
        let mut threads = t.inner.threads.lock().unwrap_or_else(|p| p.into_inner());
        let slot = Arc::new(ThreadSlot {
            epoch: t.inner.epoch,
            spans: Mutex::new(ThreadSpans::default()),
        });
        threads.push(Arc::clone(&slot));
        cache.push((Arc::downgrade(&t.inner), Arc::clone(&slot)));
        slot
    })
}

impl Telemetry {
    /// Makes this registry the thread's current one until the returned
    /// guard drops; the free [`span()`] then records into it. Nested
    /// enters stack (innermost wins), and the guard is not `Send`.
    pub fn enter(&self) -> EnterGuard {
        let slot = slot_for_thread(self);
        CURRENT.with(|c| c.borrow_mut().push((self.clone(), slot)));
        EnterGuard {
            _not_send: PhantomData,
        }
    }

    /// Opens a span directly on this registry (no thread-current
    /// indirection). Prefer the free [`span()`] in library code.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::begin(slot_for_thread(self), name)
    }

    /// The thread's current registry, if one is entered.
    pub fn current() -> Option<Telemetry> {
        CURRENT.with(|c| c.borrow().last().map(|(t, _)| t.clone()))
    }
}

/// Scope guard from [`Telemetry::enter`]; dropping restores the
/// previously current registry.
#[must_use = "dropping the guard immediately un-enters the registry"]
pub struct EnterGuard {
    _not_send: PhantomData<*const ()>,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// Opens a span on the thread's current registry ([`Telemetry::enter`]).
/// With no registry current the guard is inert: one thread-local read,
/// no allocation, no lock.
pub fn span(name: &'static str) -> SpanGuard {
    CURRENT.with(|c| match c.borrow().last() {
        Some((_, slot)) => SpanGuard::begin(Arc::clone(slot), name),
        None => SpanGuard {
            active: None,
            _not_send: PhantomData,
        },
    })
}

/// RAII span: dropping it attributes the elapsed time to the span path.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// `(this thread's slot, stack depth of our frame)`.
    active: Option<(Arc<ThreadSlot>, usize)>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    fn begin(slot: Arc<ThreadSlot>, name: &'static str) -> SpanGuard {
        let now = slot.epoch.elapsed().as_nanos() as u64;
        let depth = {
            let mut spans = slot.spans.lock().unwrap_or_else(|p| p.into_inner());
            let parent = spans.stack.last().map(|f| f.node);
            let node = spans.child_node(parent, name);
            spans.stack.push(Frame {
                node,
                start_ns: now,
                child_ns: 0,
            });
            spans.stack.len()
        };
        SpanGuard {
            active: Some((slot, depth)),
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((slot, depth)) = self.active.take() else {
            return;
        };
        let now = slot.epoch.elapsed().as_nanos() as u64;
        let mut spans = slot.spans.lock().unwrap_or_else(|p| p.into_inner());
        // Out-of-order drops (guard held past a later sibling) close
        // every span opened after ours as well, so the stack and the
        // tree stay consistent.
        while spans.stack.len() >= depth {
            let frame = match spans.stack.pop() {
                Some(f) => f,
                None => break,
            };
            let dur = now.saturating_sub(frame.start_ns);
            let node = &mut spans.nodes[frame.node];
            node.count += 1;
            node.total_ns += dur;
            node.child_ns += frame.child_ns;
            if let Some(parent) = spans.stack.last_mut() {
                parent.child_ns += dur;
            }
        }
    }
}

impl ThreadSpans {
    /// The node for `name` under `parent`, creating it on first sight
    /// (the only allocation on the span path).
    fn child_node(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&(_, idx)) = siblings.iter().find(|(n, _)| *n == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            name,
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            child_ns: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push((name, idx)),
            None => self.roots.push((name, idx)),
        }
        idx
    }

    fn path_of(&self, mut idx: usize) -> String {
        let mut names = vec![self.nodes[idx].name];
        while let Some(p) = self.nodes[idx].parent {
            names.push(self.nodes[p].name);
            idx = p;
        }
        names.reverse();
        names.join(";")
    }
}

/// Flattens every thread's span tree into path-keyed rows, merging
/// identical paths across threads. Active (unfinished) spans are not
/// counted.
pub(crate) fn collect_spans(inner: &Inner) -> Vec<SpanRow> {
    let mut by_path: HashMap<String, SpanRow> = HashMap::new();
    let threads = inner.threads.lock().unwrap_or_else(|p| p.into_inner());
    for slot in threads.iter() {
        let spans = slot.spans.lock().unwrap_or_else(|p| p.into_inner());
        for (idx, node) in spans.nodes.iter().enumerate() {
            if node.count == 0 {
                continue;
            }
            let path = spans.path_of(idx);
            let row = by_path.entry(path.clone()).or_insert_with(|| SpanRow {
                path,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += node.count;
            row.total_ns += node.total_ns;
            row.self_ns += node.total_ns.saturating_sub(node.child_ns);
        }
    }
    by_path.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_and_child_time() {
        let t = Telemetry::new();
        {
            let _outer = t.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _inner = t.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let snap = t.snapshot();
        let outer = snap.span("outer").unwrap();
        let inner = snap.span("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert_eq!(
            snap.spans
                .iter()
                .map(|s| s.path.as_str())
                .collect::<Vec<_>>(),
            vec!["outer", "outer;inner"]
        );
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn free_span_is_inert_without_a_current_registry() {
        let _g = span("nobody.listening");
        let t = Telemetry::new();
        assert!(t.snapshot().spans.is_empty());
    }

    #[test]
    fn enter_routes_free_spans_and_unroutes_on_drop() {
        let t = Telemetry::new();
        {
            let _e = t.enter();
            assert!(Telemetry::current().unwrap().same_registry(&t));
            let _s = span("phase.a");
        }
        assert!(Telemetry::current().is_none());
        let _after = span("phase.b");
        let snap = t.snapshot();
        assert_eq!(snap.span("phase.a").unwrap().count, 1);
        assert!(snap.span("phase.b").is_none());
    }

    #[test]
    fn nested_enters_stack_innermost_wins() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        let _ea = a.enter();
        {
            let _eb = b.enter();
            let _s = span("x");
        }
        let _s2 = span("y");
        drop(_s2);
        assert_eq!(b.snapshot().span("x").unwrap().count, 1);
        let a_snap = a.snapshot();
        assert!(a_snap.span("x").is_none());
        assert_eq!(a_snap.span("y").unwrap().count, 1);
    }

    #[test]
    fn out_of_order_drop_closes_descendants() {
        let t = Telemetry::new();
        let outer = t.span("outer");
        let inner = t.span("inner");
        drop(outer); // closes inner too
        drop(inner); // inert: already closed
        let snap = t.snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("inner").unwrap().count, 1);
    }

    #[test]
    fn sibling_spans_on_threads_merge_by_path() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    let _e = t.enter();
                    for _ in 0..10 {
                        let _outer = span("fleet.worker");
                        let _inner = span("fleet.shard");
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.span("fleet.worker").unwrap().count, 40);
        let shard = snap
            .spans
            .iter()
            .find(|s| s.path == "fleet.worker;fleet.shard")
            .unwrap();
        assert_eq!(shard.count, 40);
    }

    #[test]
    fn repeated_spans_do_not_grow_the_arena() {
        let t = Telemetry::new();
        for _ in 0..100 {
            let _s = t.span("steady");
        }
        let threads = t.inner.threads.lock().unwrap();
        let spans = threads[0].spans.lock().unwrap();
        assert_eq!(spans.nodes.len(), 1);
        assert_eq!(spans.nodes[0].count, 100);
    }
}
