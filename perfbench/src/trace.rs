//! In-memory span recorder for the traced run.
//!
//! Spans are opened only in the benchmark's own files, around calls into
//! the crates. Each holds its name, start, end, parent and a request id
//! (`workload/point/run`). They stay in memory and are written out once,
//! at exit. A span's self time is its duration minus the time its
//! children cover; children never overlap because every span opens on
//! the benchmark's main thread.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `link.gearbox.tx`.
    name: &'static str,
    /// Request id: `workload/point/run`.
    req: String,
    /// Start, nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Summed duration of direct children.
    child_ns: u64,
}

impl Span {
    /// Wall duration.
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration minus the time covered by direct children.
    fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed wall duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

/// The recorder. Disabled recorders run the wrapped closure and record
/// nothing, so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `req` builds the request id and
    /// is only called when recording.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: impl FnOnce() -> String,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            req: req(),
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            child_ns: 0,
        });
        self.stack.push(idx);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += end - start;
        }
        out
    }

    /// Aggregates by span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.self_ns();
        }
        out
    }

    /// Aggregate for one name (zeros when absent).
    pub fn stat(&self, name: &str) -> SpanStats {
        self.stats().get(name).copied().unwrap_or_default()
    }

    /// Wall durations of every span named `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// The self-time table: one row per name, largest self time first.
    pub fn render_table(&self, title: &str) -> String {
        let mut rows: Vec<(&'static str, SpanStats)> = self.stats().into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let all_self: u64 = rows.iter().map(|r| r.1.self_ns).sum();
        let mut out = format!(
            "span self times — {title}\n  {:<34} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "total ms", "self ms", "self %"
        );
        for (name, s) in rows {
            out.push_str(&format!(
                "  {:<34} {:>9} {:>12.3} {:>12.3} {:>6.1}%\n",
                name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                100.0 * s.self_ns as f64 / all_self.max(1) as f64
            ));
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"req\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}",
                s.name,
                s.req,
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        f.flush()
    }
}
