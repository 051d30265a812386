//! Lock-free per-thread event tracing with Chrome-trace export.
//!
//! Where [`crate::span`] *aggregates* (one cell per distinct path), this
//! module records individual begin/end/instant events — enough to
//! reconstruct a timeline in `chrome://tracing` / Perfetto. The cost
//! model is the same as the rest of the crate:
//!
//! - **Off by default.** When event tracing is not started, the only
//!   cost at an instrumented site is one relaxed atomic load — and that
//!   load sits *inside* the span-enabled branch, so the fully disabled
//!   pipeline pays nothing extra at all.
//! - **Lock-free hot path.** Each thread records into its own bounded
//!   ring buffer (a plain thread-local — no atomics, no locks). Rings
//!   drain into a global sink either explicitly ([`flush_local`]) or
//!   when the thread exits, mirroring the span aggregation flow; the
//!   runtime's scoped workers exit at the end of every parallel call,
//!   so their events are merged by the time the caller exports.
//! - **Bounded memory.** A ring holds at most
//!   [`TraceConfig::per_thread_capacity`] events and overwrites its
//!   oldest entries on wraparound; the global sink is capped at
//!   [`TraceConfig::GLOBAL_CAPACITY`] events. Overflow is counted, never
//!   allocated.
//! - **Deterministic sampling.** `--trace-sample RATE` keeps a fraction
//!   of begin/end pairs using a per-thread error accumulator
//!   (`acc += rate; take when acc >= 1.0`), so a rate of `0.0` records
//!   nothing, `1.0` records everything, and the decision never consults
//!   a clock or RNG.
//!
//! Tracing must never perturb artifacts: events carry no payload
//! computed from pipeline data beyond the static site name, and nothing
//! here feeds back into any computation.

use serde_json::{json, Value};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// What a single trace event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in Chrome trace format).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded event. `name` is always a static site label (never
/// derived from pipeline data), `tid` is a small dense id assigned per
/// thread in first-event order, and `ts_ns` is nanoseconds since the
/// process trace epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event kind (begin/end/instant).
    pub kind: EventKind,
    /// Static site name, lowercase dot-separated (`ner.decode`).
    pub name: &'static str,
    /// Dense trace-local thread id (assigned in first-event order).
    pub tid: u64,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Global sequence number; total order across threads.
    pub seq: u64,
}

/// Configuration applied by [`start`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Fraction of begin/end pairs to keep, `0.0..=1.0`. Sampling is
    /// deterministic per thread (error accumulator, no RNG).
    pub sample: f64,
    /// Ring capacity per thread; the oldest events are overwritten on
    /// wraparound.
    pub per_thread_capacity: usize,
}

impl TraceConfig {
    /// Upper bound on events retained in the global sink. At ~40 bytes
    /// per event this caps trace memory at a few tens of megabytes.
    pub const GLOBAL_CAPACITY: usize = 1 << 20;

    /// Default ring size: 64Ki events per thread (~2.5 MiB per thread).
    pub const DEFAULT_PER_THREAD_CAPACITY: usize = 1 << 16;
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            sample: 1.0,
            per_thread_capacity: Self::DEFAULT_PER_THREAD_CAPACITY,
        }
    }
}

/// Whether event tracing is active. Checked (relaxed) inside the
/// span-enabled branch only.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Sampling rate, stored as `f64` bits so it can live in an atomic.
static SAMPLE_BITS: AtomicU64 = AtomicU64::new(0x3FF0_0000_0000_0000); // 1.0

/// Per-thread ring capacity; read when a thread's ring first records.
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(TraceConfig::DEFAULT_PER_THREAD_CAPACITY);

/// Global event sequence; gives a total order that survives equal
/// timestamps (coarse clocks) across threads.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Dense thread-id allocator (std's `ThreadId` has no stable integer
/// form, and Chrome traces want small numeric tids).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// All flushed events plus overflow accounting.
#[derive(Default)]
struct Sink {
    events: Vec<TraceEvent>,
    /// Events lost to ring wraparound or the global cap.
    dropped: u64,
    /// Thread names registered via [`set_thread_name`], as `(tid, name)`.
    thread_names: Vec<(u64, String)>,
}

static SINK: Mutex<Sink> = Mutex::new(Sink {
    events: Vec::new(),
    dropped: 0,
    thread_names: Vec::new(),
});

fn sink() -> std::sync::MutexGuard<'static, Sink> {
    SINK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Monotonic epoch shared by every event in the process; installed
/// lazily by the first event after start-up.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Fixed-capacity ring: overwrites the oldest event once full. `start`
/// is the index of the logical first (oldest) event.
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    start: usize,
    overwritten: u64,
    /// Sampling error accumulator for this thread.
    acc: f64,
    /// This thread's dense trace id.
    tid: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            buf: Vec::new(),
            cap: RING_CAPACITY.load(Ordering::Relaxed).max(1),
            start: 0,
            overwritten: 0,
            acc: 0.0,
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.overwritten += 1;
        }
    }

    /// Events in recording order (oldest retained first).
    fn drain_ordered(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.start..]);
        out.extend_from_slice(&self.buf[..self.start]);
        self.buf.clear();
        self.start = 0;
        out
    }

    fn flush(&mut self) {
        let overwritten = std::mem::take(&mut self.overwritten);
        let events = self.drain_ordered();
        if events.is_empty() && overwritten == 0 {
            return;
        }
        let mut sink = sink();
        sink.dropped += overwritten;
        let room = TraceConfig::GLOBAL_CAPACITY.saturating_sub(sink.events.len());
        if events.len() > room {
            sink.dropped += (events.len() - room) as u64;
        }
        sink.events
            .extend_from_slice(&events[..room.min(events.len())]);
    }
}

/// Wrapper so thread exit flushes the ring, like the span shards.
struct LocalRing {
    ring: RefCell<Ring>,
}

impl Drop for LocalRing {
    fn drop(&mut self) {
        self.ring.borrow_mut().flush();
    }
}

thread_local! {
    static LOCAL_RING: LocalRing = LocalRing {
        ring: RefCell::new(Ring::new()),
    };
}

/// Whether event tracing is currently recording.
#[inline]
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn sample_rate() -> f64 {
    f64::from_bits(SAMPLE_BITS.load(Ordering::Relaxed))
}

/// Start event tracing with `cfg`. Clears any previously recorded
/// events. The sample rate is clamped to `0.0..=1.0`.
pub fn start(cfg: &TraceConfig) {
    reset();
    SAMPLE_BITS.store(cfg.sample.clamp(0.0, 1.0).to_bits(), Ordering::Relaxed);
    RING_CAPACITY.store(cfg.per_thread_capacity.max(1), Ordering::Relaxed);
    // Install the epoch before any event needs it.
    let _ = epoch();
    TRACING.store(true, Ordering::Relaxed);
}

/// Stop recording. Already-recorded events stay available to [`drain`].
pub fn stop() {
    TRACING.store(false, Ordering::Relaxed);
}

/// Drop every recorded event, globally and on the calling thread, and
/// stop tracing.
pub fn reset() {
    TRACING.store(false, Ordering::Relaxed);
    let _ = LOCAL_RING.try_with(|l| {
        let mut ring = l.ring.borrow_mut();
        ring.buf.clear();
        ring.start = 0;
        ring.overwritten = 0;
        ring.acc = 0.0;
    });
    let mut sink = sink();
    sink.events.clear();
    sink.dropped = 0;
    sink.thread_names.clear();
}

/// Called by [`crate::span::enter`] when tracing-grade telemetry is on.
/// Returns `true` when this span was sampled in (so its matching end
/// event must also be emitted).
#[inline]
pub(crate) fn on_span_enter(name: &'static str) -> bool {
    if !tracing() {
        return false;
    }
    let rate = sample_rate();
    LOCAL_RING
        .try_with(|l| {
            let mut ring = l.ring.borrow_mut();
            ring.acc += rate;
            if ring.acc < 1.0 {
                return false;
            }
            ring.acc -= 1.0;
            let ev = TraceEvent {
                kind: EventKind::Begin,
                name,
                tid: ring.tid,
                ts_ns: now_ns(),
                seq: SEQ.fetch_add(1, Ordering::Relaxed),
            };
            ring.push(ev);
            true
        })
        .unwrap_or(false)
}

/// Called by the span guard's drop when its begin event was sampled.
#[inline]
pub(crate) fn on_span_exit(name: &'static str) {
    let _ = LOCAL_RING.try_with(|l| {
        let mut ring = l.ring.borrow_mut();
        let ev = TraceEvent {
            kind: EventKind::End,
            name,
            tid: ring.tid,
            ts_ns: now_ns(),
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
        };
        ring.push(ev);
    });
}

/// Record a point-in-time marker. Instants are rare (a handful per run)
/// and bypass sampling so milestones always appear in the timeline.
/// No-op unless both the tracing switch and event tracing are on.
pub fn instant(name: &'static str) {
    if !crate::enabled() || !tracing() {
        return;
    }
    let _ = LOCAL_RING.try_with(|l| {
        let mut ring = l.ring.borrow_mut();
        let ev = TraceEvent {
            kind: EventKind::Instant,
            name,
            tid: ring.tid,
            ts_ns: now_ns(),
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
        };
        ring.push(ev);
    });
}

/// Register a human-readable name for the calling thread in the
/// exported timeline (`thread_name` metadata event). No-op when event
/// tracing is off.
pub fn set_thread_name(name: &str) {
    if !tracing() {
        return;
    }
    let tid = LOCAL_RING.try_with(|l| l.ring.borrow().tid);
    let Ok(tid) = tid else { return };
    let mut sink = sink();
    if !sink.thread_names.iter().any(|(t, _)| *t == tid) {
        sink.thread_names.push((tid, name.to_string()));
    }
}

/// Flush the calling thread's ring into the global sink. Worker threads
/// flush automatically on exit; the owning thread calls this before
/// [`drain`].
pub fn flush_local() {
    let _ = LOCAL_RING.try_with(|l| l.ring.borrow_mut().flush());
}

/// Everything recorded since [`start`]: events sorted by `(ts, seq)`
/// plus the overflow count.
#[derive(Debug, Clone, Default)]
pub struct TraceSession {
    /// Recorded events, sorted by timestamp then sequence number.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound or the global cap.
    pub dropped: u64,
    /// Registered thread names as `(tid, name)`.
    pub thread_names: Vec<(u64, String)>,
}

/// Take every recorded event out of the global sink (flushing the
/// calling thread first) in a canonical order.
pub fn drain() -> TraceSession {
    flush_local();
    let mut sink = sink();
    let mut events = std::mem::take(&mut sink.events);
    let dropped = std::mem::take(&mut sink.dropped);
    let mut thread_names = std::mem::take(&mut sink.thread_names);
    drop(sink);
    events.sort_by_key(|e| (e.ts_ns, e.seq));
    thread_names.sort();
    TraceSession {
        events,
        dropped,
        thread_names,
    }
}

fn phase(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
    }
}

/// First dot-segment of a site name, used as the Chrome trace category.
fn category(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Export a drained session as a Chrome trace (JSON Object Format, the
/// shape `chrome://tracing` and Perfetto load directly). Begin/end
/// events become `ph: "B"`/`"E"` duration pairs; unmatched end events —
/// possible when a ring overwrote the matching begin — are dropped so
/// the viewer never sees a negative-depth stack. Timestamps are
/// microseconds (fractional) since the trace epoch.
pub fn export_chrome_trace(session: &TraceSession) -> Value {
    let mut trace_events: Vec<Value> = Vec::with_capacity(session.events.len() + 8);
    trace_events.push(json!({
        "name": "process_name",
        "ph": "M",
        "ts": 0.0,
        "pid": 1,
        "tid": 0,
        "args": {"name": "recipe-mine"},
    }));
    for (tid, name) in &session.thread_names {
        trace_events.push(json!({
            "name": "thread_name",
            "ph": "M",
            "ts": 0.0,
            "pid": 1,
            "tid": tid,
            "args": {"name": name},
        }));
    }
    // Per-thread open-span depth, to drop end events whose begin was
    // lost to wraparound. Events arrive sorted by (ts, seq); within a
    // thread that preserves recording order.
    let mut depth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for ev in &session.events {
        match ev.kind {
            EventKind::Begin => *depth.entry(ev.tid).or_insert(0) += 1,
            EventKind::End => {
                let d = depth.entry(ev.tid).or_insert(0);
                if *d == 0 {
                    continue; // orphaned end: begin was overwritten
                }
                *d -= 1;
            }
            EventKind::Instant => {}
        }
        let ts_us = ev.ts_ns as f64 / 1e3;
        let mut fields: Vec<(String, Value)> = vec![
            ("name".to_string(), json!(ev.name)),
            ("cat".to_string(), json!(category(ev.name))),
            ("ph".to_string(), json!(phase(ev.kind))),
            ("ts".to_string(), json!(ts_us)),
            ("pid".to_string(), json!(1u64)),
            ("tid".to_string(), json!(ev.tid)),
        ];
        if ev.kind == EventKind::Instant {
            // Thread-scoped instant marker.
            fields.push(("s".to_string(), json!("t")));
        }
        trace_events.push(Value::Object(fields));
    }
    json!({
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "dropped_events": session.dropped,
        },
    })
}

/// Validate that `v` is a loadable Chrome trace (JSON Object Format):
/// a `traceEvents` array whose entries each carry a string `name`, a
/// known one-character `ph`, and numeric `ts`/`pid`/`tid`. Returns the
/// first problem found.
pub fn validate_chrome_trace(v: &Value) -> Result<(), String> {
    let obj = v
        .as_object()
        .ok_or_else(|| "trace must be an object".to_string())?;
    let events = obj
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .ok_or_else(|| "trace missing `traceEvents`".to_string())?
        .as_array()
        .ok_or_else(|| "traceEvents must be an array".to_string())?;
    for (i, ev) in events.iter().enumerate() {
        let fields = ev
            .as_object()
            .ok_or_else(|| format!("traceEvents[{i}] must be an object"))?;
        let field = |name: &str| {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("traceEvents[{i}] missing `{name}`"))
        };
        if field("name")?.as_str().is_none() {
            return Err(format!("traceEvents[{i}].name must be a string"));
        }
        let ph = field("ph")?
            .as_str()
            .ok_or_else(|| format!("traceEvents[{i}].ph must be a string"))?;
        if !matches!(ph, "B" | "E" | "i" | "I" | "X" | "M") {
            return Err(format!("traceEvents[{i}].ph `{ph}` is not a known phase"));
        }
        for want in ["ts", "pid", "tid"] {
            if field(want)?.as_f64().is_none() {
                return Err(format!("traceEvents[{i}].{want} must be a number"));
            }
        }
        if ph == "M" && field("args")?.as_object().is_none() {
            return Err(format!("traceEvents[{i}].args must be an object"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push_n(ring: &mut Ring, n: u64) {
        for seq in 0..n {
            ring.push(TraceEvent {
                kind: EventKind::Instant,
                name: "test.ev",
                tid: ring.tid,
                ts_ns: seq,
                seq,
            });
        }
    }

    #[test]
    fn ring_wraparound_keeps_most_recent_in_order() {
        let mut ring = Ring::new();
        ring.cap = 8;
        push_n(&mut ring, 20);
        assert_eq!(ring.overwritten, 12);
        let events = ring.drain_ordered();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<u64>>(), "oldest overwritten");
    }

    #[test]
    fn ring_below_capacity_is_untouched() {
        let mut ring = Ring::new();
        ring.cap = 8;
        push_n(&mut ring, 5);
        assert_eq!(ring.overwritten, 0);
        let seqs: Vec<u64> = ring.drain_ordered().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sampling_zero_records_nothing_and_one_records_everything() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);

        start(&TraceConfig {
            sample: 0.0,
            ..TraceConfig::default()
        });
        for _ in 0..50 {
            let _g = crate::span::enter("sample.zero");
        }
        let session = drain();
        assert!(
            session.events.is_empty(),
            "rate 0.0 recorded {} events",
            session.events.len()
        );

        start(&TraceConfig {
            sample: 1.0,
            ..TraceConfig::default()
        });
        for _ in 0..50 {
            let _g = crate::span::enter("sample.one");
        }
        let session = drain();
        reset();
        crate::set_enabled(false);
        let begins = session
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .count();
        let ends = session
            .events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .count();
        assert_eq!(begins, 50, "rate 1.0 keeps every begin");
        assert_eq!(ends, 50, "every begin gets its end");
    }

    #[test]
    fn fractional_sampling_keeps_a_proportional_deterministic_subset() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        start(&TraceConfig {
            sample: 0.25,
            ..TraceConfig::default()
        });
        for _ in 0..100 {
            let _g = crate::span::enter("sample.quarter");
        }
        let session = drain();
        reset();
        crate::set_enabled(false);
        let begins = session
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .count();
        assert_eq!(begins, 25, "accumulator sampling is exact on one thread");
    }

    #[test]
    fn worker_events_flush_on_thread_exit_and_export_validates() {
        let _lock = crate::tests_lock();
        crate::set_enabled(true);
        start(&TraceConfig::default());
        set_thread_name("main");
        instant("test.milestone");
        {
            let _root = crate::span::enter("test.root");
            std::thread::scope(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        set_thread_name("worker");
                        let _g = crate::span::enter("test.chunk");
                    });
                }
            });
        }
        let session = drain();
        reset();
        crate::set_enabled(false);

        let tids: std::collections::BTreeSet<u64> = session.events.iter().map(|e| e.tid).collect();
        assert!(tids.len() >= 2, "worker events flushed: {tids:?}");
        assert!(session
            .events
            .iter()
            .any(|e| e.kind == EventKind::Instant && e.name == "test.milestone"));
        // Timestamps are sorted and begin precedes end per thread.
        for pair in session.events.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }

        let trace = export_chrome_trace(&session);
        validate_chrome_trace(&trace).expect("valid chrome trace");
        let events = trace
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v))
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // 1 process_name + >=2 thread_name metadata events present.
        let meta = events
            .iter()
            .filter(|e| {
                e.as_object()
                    .and_then(|o| o.iter().find(|(k, _)| k == "ph").map(|(_, v)| v))
                    .and_then(|v| v.as_str())
                    == Some("M")
            })
            .count();
        assert!(meta >= 3, "metadata events present, got {meta}");
    }

    #[test]
    fn orphaned_end_events_are_dropped_from_export() {
        let session = TraceSession {
            events: vec![
                TraceEvent {
                    kind: EventKind::End,
                    name: "orphan",
                    tid: 7,
                    ts_ns: 10,
                    seq: 0,
                },
                TraceEvent {
                    kind: EventKind::Begin,
                    name: "ok",
                    tid: 7,
                    ts_ns: 20,
                    seq: 1,
                },
                TraceEvent {
                    kind: EventKind::End,
                    name: "ok",
                    tid: 7,
                    ts_ns: 30,
                    seq: 2,
                },
            ],
            dropped: 1,
            thread_names: Vec::new(),
        };
        let trace = export_chrome_trace(&session);
        validate_chrome_trace(&trace).expect("valid");
        let names: Vec<String> = trace
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v))
            .and_then(|v| v.as_array())
            .expect("array")
            .iter()
            .filter_map(|e| {
                let o = e.as_object()?;
                let ph = o.iter().find(|(k, _)| k == "ph")?.1.as_str()?;
                if ph == "M" {
                    return None;
                }
                Some(o.iter().find(|(k, _)| k == "name")?.1.as_str()?.to_string())
            })
            .collect();
        assert_eq!(names, vec!["ok", "ok"], "orphan end dropped");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace(&json!([])).is_err());
        assert!(validate_chrome_trace(&json!({})).is_err());
        assert!(validate_chrome_trace(&json!({"traceEvents": 3})).is_err());
        assert!(
            validate_chrome_trace(&json!({"traceEvents": [json!({"name": "x"})]})).is_err(),
            "missing ph/ts/pid/tid"
        );
        assert!(validate_chrome_trace(&json!({"traceEvents": [
            json!({"name": "x", "ph": "Q", "ts": 0, "pid": 1, "tid": 1})
        ]}))
        .is_err());
        assert!(validate_chrome_trace(&json!({"traceEvents": [
            json!({"name": "x", "ph": "B", "ts": 0, "pid": 1, "tid": 1}),
            json!({"name": "x", "ph": "E", "ts": 1, "pid": 1, "tid": 1})
        ]}))
        .is_ok());
    }
}
