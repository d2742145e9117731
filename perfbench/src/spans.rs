//! In-memory span recorder for the traced runs.
//!
//! A span is opened around one call into a layer's public API; it records
//! its name, start, end, the span that was open when it started (its
//! parent) and the cell it belongs to.  Spans stay in memory until the run
//! ends and are then written out as JSON.  A span's *self time* is its
//! duration minus the time its child spans cover.

use g10_bench::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: Option<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: None,
        }
    }
}

impl Recorder {
    /// Tags the spans opened from now on with `cell` (`None` for spans
    /// outside any cell).
    pub fn set_cell(&mut self, cell: Option<usize>) {
        self.cell = cell;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<R>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name.clone()).or_insert(0.0) +=
                span.duration_ns().saturating_sub(children) as f64 / 1e6;
        }
        totals
    }

    /// Every span as a JSON array, one object per span.
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    obj(vec![
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(span.name.clone())),
                        ("start_ns", Json::Num(span.start_ns as f64)),
                        ("end_ns", Json::Num(span.end_ns as f64)),
                        ("parent", opt(span.parent)),
                        ("cell", opt(span.cell)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::default();
        rec.span("outer", |rec| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let own = rec.self_ms();
        assert!(own["inner"] >= 3.0);
        let outer_ms = rec.spans()[0].duration_ns() as f64 / 1e6;
        assert!(own["outer"] >= 2.0 && own["outer"] < outer_ms - 2.9);
        assert_eq!(rec.spans()[1].parent, Some(0));
    }
}
