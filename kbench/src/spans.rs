//! Outside-in spans: the benchmark times each public call it makes into the
//! program. Spans stay in memory and are written out when the run ends.

use crate::json::{number, quote};
use std::time::Instant;

/// One timed call. Times are microseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to; every span of one op shares it.
    pub op: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records nested spans on one thread. A disabled tracer runs the closures
/// and records nothing, so traced and untraced runs share one op path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (the traced run times a stretch of
    /// untraced ops to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Sets the op id stamped on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the part its children cover, µs.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// `(name, count, total ms, self ms)` per span name, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let i = match out.iter().position(|r| r.0 == s.name) {
                Some(i) => i,
                None => {
                    out.push((s.name, 0, 0.0, 0.0));
                    out.len() - 1
                }
            };
            out[i].1 += 1;
            out[i].2 += s.dur_us() / 1e3;
            out[i].3 += own / 1e3;
        }
        out
    }

    /// The spans as a JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\": {}, \"spans\": [", quote(workload));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n  {{\"id\": {i}, \"name\": {}, \"op\": {}, \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}",
                quote(s.name),
                s.op,
                number(s.start_us),
                number(s.end_us)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let v = t.span("op", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", |t| t.span("c", |_| 5))
        });
        assert_eq!(v, 5);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(
            (s[1].parent, s[2].parent, s[3].parent),
            (Some(0), Some(0), Some(2))
        );
        assert!(s.iter().all(|x| x.op == 7 && x.end_us >= x.start_us));
        assert!(t.self_times().iter().all(|&x| x >= 0.0));
        assert!(t.self_times()[0] < s[0].dur_us());
        let names: Vec<&str> = t.summary().iter().map(|r| r.0).collect();
        assert_eq!(names, ["op", "a", "b", "c"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", |t| t.span("a", |_| 3)), 3);
        assert!(t.spans().is_empty());
    }
}
