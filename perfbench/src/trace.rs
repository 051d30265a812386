//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a layer's
//! public functions: name, start, end, parent span and request id. They
//! stay in memory and are written out once the run ends. A disabled
//! tracer runs the same closures without recording, so the difference
//! between a traced and an untraced replay is the tracer's own cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// No parent (a root span).
const ROOT: u32 = u32::MAX;

/// One closed span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or `ROOT`.
    pub parent: u32,
    /// Request (or recipe) id the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        out
    }

    /// Record an already-measured interval (the HTTP client times its
    /// phases inline) under `parent`, or as a root; returns its index.
    pub fn record(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let idx = self.spans.len() as u32;
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
                parent: parent.unwrap_or(ROOT),
                req,
            });
        }
        idx
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Aggregate per span name: count, total and self nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the durations
/// of its direct children (children lie inside their parent's
/// interval, so this is the part of the interval no child covers).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.dur_ns();
        a.self_ns += s.dur_ns().saturating_sub(*c);
    }
    out
}

/// Write spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `req`); `parent` is -1 for roots. Spans of several tracers are
/// written as one list: `base` offsets each list's parent indices.
pub fn write_spans(path: &std::path::Path, lists: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0i64;
    for spans in lists {
        for s in spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                base + i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        base += spans.len() as i64;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: ROOT,
                req: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 50,
                parent: 0,
                req: 1,
            },
            Span {
                name: "b",
                start_ns: 20,
                end_ns: 30,
                parent: 1,
                req: 1,
            },
            Span {
                name: "a",
                start_ns: 60,
                end_ns: 70,
                parent: 0,
                req: 1,
            },
        ];
        let agg = self_times(&spans);
        assert_eq!(
            agg["root"],
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            agg["a"],
            Agg {
                count: 2,
                total_ns: 50,
                self_ns: 40
            }
        );
        assert_eq!(
            agg["b"],
            Agg {
                count: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root interval exactly.
        let sum: u64 = agg.values().map(|a| a.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(Instant::now(), true);
        t.span("outer", 7, |t| t.span("inner", 7, |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", 1, |_| 5), 5);
        assert!(t.into_spans().is_empty());
    }
}
