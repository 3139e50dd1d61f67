//! In-memory spans around the benchmark's calls into the system. A span
//! is a name, a start and end (nanoseconds since the run's epoch), the
//! span that caused it, and the request it belongs to. Spans are kept in
//! a `Vec` while the run measures and written out once it ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u64,
}

/// A span recorder; disabled recorders drop every span at no cost beyond
/// the branch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Spans {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span and return its id (usable as a parent), or [`ROOT`]
    /// when disabled.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: u32, request_id: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// End span `id` at `end`, filling in a request id learned late (a
    /// socket reply carries it; the submit only had a tag).
    pub fn close(&mut self, id: u32, end: Instant, request_id: u64) {
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
            if s.request_id == 0 {
                s.request_id = request_id;
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move in the spans of another recorder on the same epoch, re-basing
    /// their parent ids.
    pub fn absorb(&mut self, other: Spans) {
        assert_eq!(self.epoch, other.epoch, "recorders share the run's epoch");
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations (µs) of every span named `name`.
    #[cfg(test)]
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .with("id", id)
                .with("name", s.name)
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with(
                    "parent",
                    if s.parent == ROOT {
                        Json::Null
                    } else {
                        Json::from(s.parent as u64)
                    },
                )
                .with("request_id", s.request_id);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let t = Instant::now();
        let mut s = Spans::new(t, false);
        assert_eq!(s.record("x", t, t, ROOT, 1), ROOT);
        assert!(s.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(10);
        let mut a = Spans::new(t0, true);
        a.record("a", t0, t1, ROOT, 0);
        let mut b = Spans::new(t0, true);
        let root = b.record("req", t1, t1 + Duration::from_micros(5), ROOT, 7);
        b.record("submit", t1, t1 + Duration::from_micros(1), root, 7);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s[2].parent, 1);
        assert_eq!(s[1].start_ns, 10_000);
        assert_eq!(a.durations_us("req"), vec![5.0]);
    }
}
