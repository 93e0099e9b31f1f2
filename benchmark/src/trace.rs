//! In-memory spans recorded around the public calls the benchmark makes.
//!
//! A span is a name, a start and an end on the [`crate::clock`] clock, the
//! span that encloses it, and the unit it belongs to (set-up spans belong
//! to none). Spans stay in memory while the benchmark runs and are written
//! out once, at exit, in the Chrome trace-event format (opens in Perfetto).
//! A span's self time is its duration minus the time its child spans
//! cover.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`phy.receive_with`, `core.join_with`, …).
    pub name: &'static str,
    /// Start, nanoseconds on the monotonic clock.
    pub start_ns: u64,
    /// End, nanoseconds on the monotonic clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit this span belongs to (`None` during set-up).
    pub unit: Option<u64>,
}

impl Span {
    /// Duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Totals of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per span, microseconds.
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 * 1e-3 / self.count.max(1) as f64
    }

    /// Mean self time per span, microseconds.
    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 * 1e-3 / self.count.max(1) as f64
    }
}

/// The span recorder.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: Option<u64>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Tags the spans that follow with a unit id (`None` = set-up).
    pub fn set_unit(&mut self, unit: Option<u64>) {
        self.unit = unit;
    }

    /// Opens a span inside the innermost open one; close it with
    /// [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration.
    pub fn end(&mut self, id: usize) -> u64 {
        let end = now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Records `f` as one leaf span; returns its result and duration.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, with self time net of child spans.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(*child);
        }
        out
    }

    /// Renders every span as a Chrome trace-event document; `metadata` is a
    /// JSON object stored alongside.
    pub fn chrome_json(&self, metadata: &str) -> String {
        let origin = self.spans.first().map_or(0, |s| s.start_ns);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let unit = s.unit.map_or("null".to_string(), |u| u.to_string());
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"unit\":{unit}}}}}",
                s.name,
                (s.start_ns - origin) as f64 * 1e-3,
                s.dur_ns() as f64 * 1e-3,
            );
        }
        let _ = write!(out, "\n],\"metadata\":{metadata}}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.set_unit(Some(7));
        let outer = rec.begin("outer");
        let ((), _) = rec.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end(outer);
        let t = rec.totals();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].unit, Some(7));
        let doc = rec.chrome_json("{}");
        assert!(doc.contains("\"name\":\"inner\""));
        assert!(doc.trim_end().ends_with("\"metadata\":{}}"));
    }
}
