//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (the program itself is not instrumented). They stay in
//! memory until the run ends and are then written to `perf-trace.json`. A
//! layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use crate::catalog::object;
use serde::{Number, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Ordinal of the benchmark operation this span belongs to; spans of
    /// one operation share it.
    pub op: u32,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Starts the next operation; later spans carry its ordinal.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost span
    /// still open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Summed duration per span name, in milliseconds.
    pub fn total_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        let int = |v: u64| Value::Number(Number::UInt(v));
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    object(vec![
                        ("name", Value::String(s.name.into())),
                        ("op", int(u64::from(s.op))),
                        ("parent", s.parent.map_or(Value::Null, |p| int(p as u64))),
                        ("start_ns", int(s.start_ns)),
                        ("end_ns", int(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                if b > reach {
                    covered += b - a.max(reach);
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
            span(Some(2), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 110, 150),
            span(Some(0), 140, 160), // overlaps its sibling by 10
            span(Some(0), 190, 250), // overhangs the parent's end
            span(Some(0), 50, 60),   // entirely outside
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorder_nests_and_tags_ops() {
        let mut tr = Tracer::new();
        tr.next_op();
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
        });
        tr.next_op();
        tr.span("outer", |_| ());
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert_eq!((s[0].op, s[1].op, s[2].op), (1, 1, 2));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
        let selfs = tr.self_ms_by_name();
        let totals = tr.total_ms_by_name();
        assert!(selfs["outer"] <= totals["outer"]);
        assert_eq!(tr.to_json().as_array().map(<[_]>::len), Some(3));
    }
}
