//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, start, end, the span
//! that was open when it began (its parent), and the id of the workload
//! operation it belongs to. Spans stay in memory while the run measures
//! and are written out as JSON lines when it ends. End-to-end runs
//! create no tracer at all.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The workload operation this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Nanoseconds since the Unix epoch, so spans of several processes
    /// line up in one file.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    origin_ns: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        let origin_ns =
            SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64);
        Tracer { origin: Instant::now(), origin_ns, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; spans opened before it closes become its children.
    pub fn begin(&mut self, name: &str, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(&mut self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Adopt spans recorded by another process or thread under the open
    /// span `parent`, keeping their own nesting; they join its operation.
    pub fn adopt(&mut self, parent: usize, spans: Vec<Span>) {
        let base = self.spans.len();
        let op = self.spans[parent].op;
        for mut span in spans {
            span.parent = Some(span.parent.map_or(parent, |p| p + base));
            span.op = op;
            self.spans.push(span);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// A span's duration minus the time its children cover. Children of
    /// one span never overlap here: each tracer is driven by one thread.
    pub fn self_ms(&self, id: usize) -> f64 {
        let children: f64 = self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::ms).sum();
        self.spans[id].ms() - children
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Read spans written by [`Tracer::write_jsonl`].
pub fn read_spans(path: &Path) -> io::Result<Vec<Span>> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut spans = Vec::new();
    for line in std::fs::read_to_string(path)?.lines() {
        let value: serde_json::Value =
            serde_json::from_str(line).map_err(|e| invalid(&e.to_string()))?;
        let number = |key: &str| value.get(key).and_then(serde_json::Value::as_u64);
        spans.push(Span {
            name: value.get("name").and_then(|v| v.as_str()).ok_or_else(|| invalid("name"))?.into(),
            op: number("op").ok_or_else(|| invalid("op"))?,
            parent: number("parent").map(|p| p as usize),
            start_ns: number("start_ns").ok_or_else(|| invalid("start_ns"))?,
            end_ns: number("end_ns").ok_or_else(|| invalid("end_ns"))?,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("root", 1);
        tracer.time("child", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(tracer.self_ms(root) >= 0.0);
        assert!(tracer.self_ms(root) < spans[0].ms());
    }

    #[test]
    fn spans_round_trip_through_a_file_and_adopt_under_a_parent() {
        let mut child = Tracer::new();
        let top = child.begin("a", 0);
        child.time("b", 0, || ());
        child.end(top);
        let dir = crate::work_root().join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        child.write_jsonl(&path).unwrap();
        let read = read_spans(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(read, child.spans());

        let mut parent = Tracer::new();
        let process = parent.begin("process", 7);
        parent.adopt(process, read);
        parent.end(process);
        assert_eq!(parent.spans()[1].parent, Some(process));
        assert_eq!(parent.spans()[2].parent, Some(1));
        assert!(parent.spans().iter().all(|s| s.op == 7));
    }
}
