//! Benchmark-side spans: recorded around the benchmark's own calls into
//! each layer, kept in memory, written out when the pass ends. Spans
//! inside the program are a later change.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the span that caused it; spans of
/// one replayed request share `request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u64,
}

/// Records nested spans. Past `limit` spans it stops recording (the
/// replay goes on untimed), so memory is bounded whatever the input size.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    limit: usize,
    skipped_depth: usize,
}

impl Tracer {
    pub fn new(limit: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(limit.min(1 << 20)),
            open: Vec::new(),
            limit,
            skipped_depth: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request: u64) {
        // A root span is only started while a whole request still fits;
        // children of a skipped root are skipped with it.
        if self.skipped_depth > 0 || (self.open.is_empty() && self.spans.len() + 16 > self.limit) {
            self.skipped_depth += 1;
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.skipped_depth > 0 {
            self.skipped_depth -= 1;
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many were recorded and their summed self time,
    /// a span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child_ns);
        }
        out
    }

    /// Writes the spans as one JSON array, one object per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}{}",
                s.name, s.start_ns, s.end_ns, parent, s.request, comma
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(1024);
        t.enter("request", 7);
        t.enter("parse", 7);
        t.exit();
        t.enter("decide", 7);
        t.enter("reserve", 7);
        t.exit();
        t.exit();
        t.exit();
        // Pin the clock readings so the arithmetic is exact.
        let fixed = [(0, 100), (10, 30), (40, 90), (50, 70)];
        for (s, (a, b)) in t.spans.iter_mut().zip(fixed) {
            s.start_ns = a;
            s.end_ns = b;
        }
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.request == 7));
        let st = t.self_times();
        assert_eq!(st["request"], (1, 100 - 20 - 50));
        assert_eq!(st["parse"], (1, 20));
        assert_eq!(st["decide"], (1, 50 - 20));
        assert_eq!(st["reserve"], (1, 20));
    }

    #[test]
    fn recording_stops_at_the_limit_without_unbalancing() {
        let mut t = Tracer::new(20);
        for r in 0..10 {
            t.enter("request", r);
            t.enter("child", r);
            t.exit();
            t.exit();
        }
        assert!(t.spans().len() <= 20);
        assert!(t.open.is_empty() && t.skipped_depth == 0);
        // Whole requests only: every recorded child has its parent.
        assert_eq!(t.spans().len() % 2, 0);
    }
}
