//! In-memory spans recorded by the benchmark around its calls into the
//! program. Nothing here reaches inside a crate: a span starts and ends
//! in benchmark code, so the traced run measures the same program as the
//! untraced one.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one cell or one job.
    pub trace: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Work items the call carried (images or masks), 0 when not a count.
    pub items: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// A span collector shared by every thread of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Reserves an id for a span that ends later (a parent whose
    /// children are recorded first).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("no thread panicked while recording a span").push(span);
    }

    /// Records a finished span and returns its new id.
    pub fn push(
        &self,
        parent: u64,
        trace: u64,
        name: &'static str,
        start: f64,
        end: f64,
        items: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record(Span { id, parent, trace, name, start, end, items });
        id
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans =
            self.spans.lock().expect("no thread panicked while recording a span").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children counted
/// once). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    spans
        .iter()
        .map(|span| {
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == span.id)
                .map(|c| (c.start.max(span.start), c.end.min(span.end)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = span.start;
            for (s, e) in children {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Sum of self times per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut totals: Vec<(&'static str, f64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match totals.iter_mut().find(|(name, _)| *name == span.name) {
            Some((_, total)) => *total += own,
            None => totals.push((span.name, own)),
        }
    }
    totals
}

/// Writes a traced run's spans to `<dir>/<name>.jsonl`, one JSON line
/// per span with its self time, and prints each span name's total self
/// time.
pub fn save(spans: &[Span], dir: &Path, name: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.jsonl"));
    write_jsonl(spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace: {} spans -> {}", spans.len(), path.display());
    for (name, own) in self_time_by_name(spans) {
        println!("self time {name:>20}: {own:.3} s");
    }
    Ok(())
}

fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, own) in spans.iter().zip(self_times(spans)) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\
             \"self_s\":{},\"items\":{}}}",
            span.id, span.parent, span.trace, span.name, span.start, span.end, own, span.items
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: if parent == 0 { "cell" } else { "detect" },
            start,
            end,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 3.0),
            span(3, 1, 2.0, 4.0),  // overlaps the previous child
            span(4, 1, 9.0, 12.0), // runs past its parent: clipped
            span(5, 0, 20.0, 21.0),
        ];
        let own = self_times(&spans);
        assert!((own[0] - (10.0 - 3.0 - 1.0)).abs() < 1e-12);
        assert_eq!(own[1], 2.0);
        assert_eq!(own[4], 1.0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[0].0, "cell");
        assert!((by_name[0].1 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_orders_spans_by_id() {
        let tracer = Tracer::new(Instant::now());
        let parent = tracer.reserve();
        let child = tracer.push(parent, 9, "detect", 0.5, 0.7, 3);
        tracer.record(Span {
            id: parent,
            parent: 0,
            trace: 9,
            name: "cell",
            start: 0.0,
            end: 1.0,
            items: 0,
        });
        let spans = tracer.spans();
        assert_eq!(spans.iter().map(|s| s.id).collect::<Vec<_>>(), vec![parent, child]);
        assert!((self_times(&spans)[0] - 0.8).abs() < 1e-12);
    }
}
