//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, and the timestamp id of the step it
//! belongs to as its request id. Spans stay in memory and are written out
//! as JSON lines when the run ends. A layer's self time is its span's
//! duration minus the part its child spans cover.
//!
//! [`Trace`] is a cheap cloneable handle; the disabled handle records
//! nothing and never reads the clock, so untraced runs pay one branch per
//! call site.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps (`"net.close_round"`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Timestamp id of the step the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

/// Handle to a span recorder; `Trace::off()` records nothing.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Arc<Mutex<Tracer>>>);

impl Trace {
    /// A recording handle.
    pub fn on() -> Trace {
        Trace(Some(Arc::new(Mutex::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }))))
    }

    /// A handle that records nothing.
    pub fn off() -> Trace {
        Trace(None)
    }

    /// Tag every span opened from now on with request id `request`.
    pub fn set_request(&self, request: u64) {
        if let Some(t) = &self.0 {
            t.lock().expect("tracer lock poisoned").request = request;
        }
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(t) = &self.0 else { return f() };
        let id = {
            let mut g = t.lock().expect("tracer lock poisoned");
            let tr = &mut *g;
            let id = tr.spans.len();
            let start_ns = tr.epoch.elapsed().as_nanos() as u64;
            tr.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: tr.stack.last().copied(),
                request: tr.request,
            });
            tr.stack.push(id);
            id
        };
        let out = f();
        let mut g = t.lock().expect("tracer lock poisoned");
        let tr = &mut *g;
        tr.spans[id].end_ns = tr.epoch.elapsed().as_nanos() as u64;
        tr.stack.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(t) => t.lock().expect("tracer lock poisoned").spans.clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(&child)
        .map(|(s, c)| s.duration_ns().saturating_sub(*c))
        .collect()
}

/// Per step, how much of its independently measured wall time
/// `step_ns[t]` the layer spans of request `t` leave uncovered: the wall
/// time minus the self times of every span below a root, grouped by
/// request id. Layer spans covering more than the step count as a gap of
/// the excess. A missing span, a span tagged with the wrong step, or
/// layer work done outside every span shows up here.
pub fn unattributed_ns(spans: &[Span], step_ns: &[u64]) -> Vec<u64> {
    let mut covered = vec![0u64; step_ns.len()];
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.parent.is_some() {
            if let Some(c) = covered.get_mut(s.request as usize) {
                *c += own;
            }
        }
    }
    step_ns
        .iter()
        .zip(covered)
        .map(|(wall, c)| wall.abs_diff(c))
        .collect()
}

/// Write `spans` as JSON lines, one span per line, tagged with `lane`
/// (the driver and episode that recorded them).
fn write_jsonl(out: &mut impl Write, lane: usize, spans: &[Span]) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"lane\":{lane},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    Ok(())
}

/// Write every lane's spans to `path` (created or truncated).
pub fn write_file(path: &Path, lanes: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (lane, spans) in lanes.iter().enumerate() {
        write_jsonl(&mut out, lane, spans)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_times_subtract_children() {
        let spans = vec![
            span("step", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 40, 10]);
    }

    #[test]
    fn unattributed_time_is_measured_against_the_step_clock() {
        let mut spans = vec![
            span("step", 0, 100, None),
            span("a", 0, 40, Some(0)),
            span("b", 40, 100, Some(0)),
            span("step", 100, 200, None),
            span("a", 100, 150, Some(3)),
            span("b", 150, 200, Some(3)),
        ];
        for s in &mut spans[3..] {
            s.request = 1;
        }
        assert_eq!(unattributed_ns(&spans, &[100, 100]), vec![0, 0]);
        // The step clock saw 10 ns no span covers.
        assert_eq!(unattributed_ns(&spans, &[110, 100]), vec![10, 0]);
        // A layer without its span.
        let missing: Vec<Span> = spans
            .iter()
            .filter(|s| !(s.name == "a" && s.request == 1))
            .map(|s| Span {
                parent: s.parent.map(|p| if p > 3 { p - 1 } else { p }),
                ..s.clone()
            })
            .collect();
        assert_eq!(unattributed_ns(&missing, &[100, 100]), vec![0, 50]);
        // Spans tagged with the wrong step.
        spans[5].request = 0;
        assert_eq!(unattributed_ns(&spans, &[100, 100]), vec![50, 50]);
    }

    #[test]
    fn recorded_spans_nest() {
        let t = Trace::on();
        t.set_request(7);
        t.span("outer", || t.span("inner", || ()));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::off();
        assert_eq!(t.span("x", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
