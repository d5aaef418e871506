//! Spans around the benchmark's own calls into each layer. A span has a
//! name (`layer.call`), start, end, parent and request id; spans are held
//! in memory and written out once the run ends. Spans inside the program
//! are not recorded here.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`]. Returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in µs.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.dur_ns() as f64 / 1e3
    }

    /// A span's duration minus the time its children cover. The client is
    /// single-threaded, so children never overlap one another.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total self time in seconds and span count per layer (the name's
    /// part before the first dot).
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let e = out.entry(layer).or_insert((0.0, 0));
            e.0 += self_ns as f64 / 1e9;
            e.1 += 1;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        let root = t.begin("request", None, 0);
        let a = t.begin("serve.search", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("serve.merge", Some(root), 0);
        t.end(b);
        t.end(root);
        let own = t.self_ns();
        let dur = |i: usize| t.spans[i].dur_ns();
        assert_eq!(own[root], dur(root) - dur(a) - dur(b));
        assert_eq!(own[a], dur(a));
        let layers = t.self_time_by_layer();
        assert_eq!(layers["serve"].1, 2);
        assert!(layers["serve"].0 >= 0.002);
    }
}
