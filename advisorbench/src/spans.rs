//! In-memory spans around the benchmark's calls into each layer, for
//! the traced run. A span is (name, start, end, parent, op id); spans
//! stay in memory until the run ends and are then written out whole.
//! With tracing off every call is a no-op, so the untraced run pays
//! one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; closing it records the end time.
#[must_use]
pub struct SpanId(Option<usize>);

/// Per-name totals over the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by direct children.
    pub self_ns: u64,
}

impl Totals {
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, span: SpanId) {
        if let Some(id) = span.0 {
            self.spans[id].end_ns = self.now();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name, op);
        let out = f();
        self.exit(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new(true);
        let op = tr.enter("op", 1);
        tr.time("leaf", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.time("leaf", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.exit(op);
        let t = tr.totals();
        assert_eq!(t["leaf"].count, 2);
        assert_eq!(t["leaf"].self_ns, t["leaf"].total_ns);
        assert_eq!(t["op"].self_ns, t["op"].total_ns - t["leaf"].total_ns);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.enter("op", 0);
        assert_eq!(tr.time("leaf", 0, || 3), 3);
        tr.exit(s);
        assert!(tr.spans().is_empty());
    }
}
