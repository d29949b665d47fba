//! In-memory spans around the harness's own calls into each layer.
//!
//! Spans are recorded from outside the program (the benchmark's files
//! only), kept in memory, and written out once when the traced run
//! ends. A layer's self time is its span minus what its children cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that caused
/// it; spans of one repeat share a `segment_id`.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub segment_id: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that will get children; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, segment_id: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            segment_id,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record a leaf span around `f`.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        segment_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, segment_id);
        let r = f();
        self.close(id);
        r
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Summed duration of the direct children of `id` named `name`
    /// (every direct child when `name` is `None`).
    pub fn children_ns(&self, id: usize, name: Option<&str>) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id) && name.is_none_or(|n| n == s.name))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"segment_id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.segment_id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
