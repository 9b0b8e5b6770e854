//! In-memory span recorder for the traced run.
//!
//! The harness wraps each public call it makes into the program in a
//! span (name, start, end, parent). Spans are kept in memory and written
//! out once, at the end of the run. Recording is single-threaded and
//! strictly nested, so a span's self time is its duration minus the sum
//! of its children's durations.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `fleet.quote_table`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration, seconds.
    #[must_use]
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The recorder. A disabled recorder (the end-to-end mode) only runs
/// the wrapped calls.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records (`true`) or only runs the calls (`false`).
    #[must_use]
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`exit`](Self::exit).
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("exit() matches an enter()");
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`, seconds: its duration minus the time
    /// its child spans cover.
    #[must_use]
    pub fn self_secs(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::secs)
            .sum();
        self.spans[idx].secs() - children
    }

    /// The spans as a JSON array, one object per span with its self time.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{:.0}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_secs(i) * 1e9,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(true);
        spans.enter("outer");
        spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.exit();
        assert_eq!(spans.spans().len(), 2);
        assert_eq!(spans.spans()[1].parent, Some(0));
        let outer = spans.spans()[0].secs();
        assert!(spans.self_secs(0) < outer);
        assert!((spans.self_secs(0) + spans.spans()[1].secs() - outer).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        assert_eq!(spans.time("x", || 7), 7);
        assert!(spans.spans().is_empty());
    }
}
