//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public entry points (nothing inside the program is instrumented), kept
//! in memory, and written out as Chrome trace-event JSON when the run
//! ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `nn.main_exit`.
    pub name: &'static str,
    /// Category: `setup`, `path` (on the workload's request path),
    /// `probe` (a layer call off the workload's path) or `kernel`.
    pub cat: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request the span worked for, if it worked for one alone.
    pub req: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: Option<usize>,
        req: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, cat, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        cat: &'static str,
        parent: Option<usize>,
        req: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, cat, parent, req);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 * 1e-9).collect()
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// part of its interval that its children's intervals cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered
            })
            .collect()
    }

    /// Writes the spans as Chrome trace-event JSON (complete `X` events,
    /// microsecond timestamps), viewable in `chrome://tracing` or Perfetto.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.map_or("null".to_string(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{req}}}}}{sep}",
                s.name,
                s.cat,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "s", cat: "path", start_ns, end_ns, parent, req: None }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child: union is [10, 50)
            span(60, 70, Some(0)),
            span(25, 28, Some(2)),
        ];
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 10, 20, 30 - 3, 10, 3]);
    }

    #[test]
    fn leaf_spans_nest_under_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin("replay.request", "path", None, Some(7));
        let v = t.leaf("nn.main_exit", "path", Some(root), Some(7), || 41 + 1);
        t.end(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_times = t.self_times_ns();
        assert_eq!(self_times[0] + self_times[1], spans[0].dur_ns());
        assert_eq!(t.durations_s("nn.main_exit").len(), 1);
    }
}
