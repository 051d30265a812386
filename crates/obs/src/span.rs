//! Aggregating hierarchical spans.
//!
//! A span is a scope guard opened with [`enter`] (or the [`span!`]
//! macro). Guards nest per thread: each reads one tick from the span
//! clock on enter and one on exit and adds the difference to a
//! `(count, total_ticks)` cell keyed by the *path* of currently open
//! span names, rather than producing one record per event. That keeps
//! memory O(distinct paths) — independent of corpus size — and,
//! because nothing is ever logged in between, tracing cannot reorder or
//! interleave any observable output.
//!
//! Aggregation is two-level: each thread accumulates into a private
//! shard (no synchronisation per span) and flushes it into the
//! process-global cells when the thread exits — the runtime's scoped
//! workers exit at the end of every parallel call, so their data is
//! merged by the time the caller regains control. The owning thread
//! flushes explicitly via [`profile`] / [`stage_tree`] /
//! [`flush_local`] when telemetry is gathered.
//!
//! The global cells are the only span aggregate: [`profile`] exports
//! them as a [`Profile`], and [`stage_tree`] is a projection of that
//! profile. Ticks come from [`MonotonicClock`] unless a test installs
//! another clock with [`set_clock`].
//!
//! [`span!`]: crate::span!

use crate::profile::{lock, Cells, Profile};
use crate::window::{Clock, MonotonicClock, TICKS_PER_SEC};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Process-global cells, fed by thread shards.
static CELLS: Mutex<Cells> = Mutex::new(Cells::new());

/// A clock installed by [`set_clock`], with its export label; `None`
/// means [`MonotonicClock`].
static CLOCK: Mutex<Option<(Arc<dyn Clock>, String)>> = Mutex::new(None);

/// Whether [`CLOCK`] holds an installed clock, so spans under the
/// default clock never touch its lock. It publishes nothing: the clock
/// itself is read under the lock.
static INSTALLED: AtomicBool = AtomicBool::new(false);

fn now_ticks() -> u64 {
    if INSTALLED.load(Ordering::Relaxed) {
        if let Some((clock, _)) = &*lock(&CLOCK) {
            return clock.now_ticks();
        }
    }
    MonotonicClock.now_ticks()
}

/// One thread's open spans (root first) and not-yet-flushed cells.
struct Shard {
    stack: Vec<&'static str>,
    cells: Cells,
}

impl Drop for Shard {
    fn drop(&mut self) {
        if !self.cells.is_empty() {
            self.cells.drain_into(&mut lock(&CELLS));
        }
    }
}

thread_local! {
    static SHARD: RefCell<Shard> = const {
        RefCell::new(Shard {
            stack: Vec::new(),
            cells: Cells::new(),
        })
    };
}

/// Guard returned by [`enter`]; records on drop. Inert (holds no start
/// tick) when tracing was disabled at entry. `traced` remembers whether
/// the event tracer sampled this span's begin event, so exactly the
/// matching end event is emitted on drop.
#[must_use = "a span only measures the scope the guard lives in"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<u64>,
    traced: bool,
}

/// Open a span named `name` under the thread's currently open spans.
/// When tracing is disabled this is a single relaxed atomic load and the
/// returned guard does nothing. When the event tracer is also running
/// ([`crate::event::start`]) a begin event is recorded, subject to
/// sampling.
#[inline]
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard {
            start: None,
            traced: false,
        };
    }
    enter_enabled(name)
}

/// [`enter`] with tracing on, kept out of line so the disabled check
/// stays a load and a branch at every site.
fn enter_enabled(name: &'static str) -> SpanGuard {
    // The shard is gone during thread teardown; such late spans have
    // nowhere to aggregate.
    if SHARD.try_with(|s| s.borrow_mut().stack.push(name)).is_err() {
        return SpanGuard {
            start: None,
            traced: false,
        };
    }
    let traced = crate::event::on_span_enter(name);
    SpanGuard {
        start: Some(now_ticks()),
        traced,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let ticks = now_ticks().saturating_sub(start);
        let _ = SHARD.try_with(|s| {
            let mut guard = s.borrow_mut();
            let shard = &mut *guard;
            if self.traced {
                if let Some(name) = shard.stack.last() {
                    crate::event::on_span_exit(name);
                }
            }
            shard.cells.add(&shard.stack, 1, ticks);
            shard.stack.pop();
        });
    }
}

/// Replace the tick source of every span (default [`MonotonicClock`];
/// a test installs a [`crate::window::VirtualClock`]) and drop all
/// aggregated spans, since ticks of two clocks do not add. `label`
/// becomes [`Profile::clock`]. Install with no spans open; [`reset`]
/// restores the default.
pub fn set_clock(clock: Arc<dyn Clock>, label: &str) {
    reset();
    *lock(&CLOCK) = Some((clock, label.to_string()));
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Flush the calling thread's span aggregates into the global cells.
/// Worker threads flush automatically on exit; the owning thread calls
/// this (via [`profile`] / [`stage_tree`]) before exporting.
pub fn flush_local() {
    let _ = SHARD.try_with(|s| s.borrow_mut().cells.drain_into(&mut lock(&CELLS)));
}

/// Drop every aggregated span, globally and on the calling thread, and
/// restore the [`MonotonicClock`].
pub fn reset() {
    let _ = SHARD.try_with(|s| s.borrow_mut().cells.clear());
    lock(&CELLS).clear();
    INSTALLED.store(false, Ordering::Relaxed);
    *lock(&CLOCK) = None;
}

/// Export the aggregated spans as a [`Profile`] labelled with the span
/// clock. Flushes the calling thread first.
pub fn profile() -> Profile {
    flush_local();
    let label = match &*lock(&CLOCK) {
        Some((_, label)) => label.clone(),
        None => "monotonic".to_string(),
    };
    lock(&CELLS).to_profile(&label)
}

/// One node of the exported stage tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageNode {
    /// Span name (one path segment).
    pub name: String,
    /// Times a span closed at exactly this path. A node that only ever
    /// appeared as an ancestor of closed spans reports 0 (e.g. the tree
    /// was exported while it was still open).
    pub count: u64,
    /// Total wall time of spans closed at this path, summed across
    /// threads — on worker threads this approximates busy (CPU) time
    /// rather than elapsed time. Tick resolution (µs).
    pub wall_s: f64,
    /// Child stages, sorted by name.
    pub children: Vec<StageNode>,
}

/// Export the aggregated spans as a stage tree (children sorted by
/// name): the nesting of [`profile`]'s path-sorted nodes, with
/// `wall_s = total_ticks / TICKS_PER_SEC`.
pub fn stage_tree() -> Vec<StageNode> {
    let mut roots: Vec<StageNode> = Vec::new();
    for node in profile().nodes {
        let mut level = &mut roots;
        for (depth, name) in node.path.iter().enumerate() {
            let pos = match level.iter().position(|n| n.name == *name) {
                Some(p) => p,
                None => {
                    level.push(StageNode {
                        name: name.clone(),
                        count: 0,
                        wall_s: 0.0,
                        children: Vec::new(),
                    });
                    level.len() - 1
                }
            };
            if depth + 1 == node.path.len() {
                level[pos].count = node.count;
                level[pos].wall_s = node.total_ticks as f64 / TICKS_PER_SEC as f64;
            }
            level = &mut level[pos].children;
        }
    }
    roots
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests toggle the process-wide ENABLED flag and share the
    // process-wide span map, so they serialize on the crate test lock.
    #[test]
    fn spans_aggregate_into_a_stage_tree() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        reset();
        {
            let _root = enter("extract");
            for _ in 0..3 {
                let _tag = enter("tagger.tag");
            }
            {
                let _ner = enter("ner.decode");
                let _inner = enter("viterbi");
            }
        }
        let tree = stage_tree();
        crate::set_enabled(false);
        assert_eq!(tree.len(), 1, "single root, got {tree:?}");
        let root = &tree[0];
        assert_eq!(root.name, "extract");
        assert_eq!(root.count, 1);
        assert!(root.wall_s >= 0.0);
        let names: Vec<&str> = root.children.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["ner.decode", "tagger.tag"], "sorted children");
        assert_eq!(root.children[1].count, 3, "three tag spans aggregated");
        assert_eq!(root.children[0].children[0].name, "viterbi");
        assert_eq!(root.children[0].children[0].count, 1);
    }

    #[test]
    fn worker_thread_spans_flush_on_exit() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        reset();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = enter("worker.chunk");
                });
            }
        });
        let tree = stage_tree();
        crate::set_enabled(false);
        let node = tree
            .iter()
            .find(|n| n.name == "worker.chunk")
            .expect("worker spans flushed");
        assert_eq!(node.count, 4);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = crate::tests_lock();
        crate::set_enabled(false);
        reset();
        {
            let _g = enter("ghost");
        }
        assert!(stage_tree().is_empty(), "disabled span left a trace");
    }
}
