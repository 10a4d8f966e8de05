//! Spans recorded from outside the program, around the calls into each
//! layer's public functions.
//!
//! A span carries a name, start, end, parent and request id. Spans are
//! kept in memory and written out once, when the run ends. A span's
//! *self time* is its duration minus the part of its interval covered
//! by its direct children (the union of their intervals, so children
//! that ran in parallel on worker threads are not double-counted).

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// "No parent".
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `serve.spec.parse`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Request (or batch / candidate) id the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The in-memory span log with an open-span stack.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The nanosecond offset of an instant taken elsewhere.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one).
    pub fn exit(&mut self, id: u32) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end = end;
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-finished span (e.g. one timed on a worker
    /// thread) under `parent`.
    pub fn record(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the log once, as TSV: `index parent name req start_ns
    /// end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let own = self_times(&self.spans);
        writeln!(out, "index\tparent\tname\treq\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.name, s.req, s.start, s.end
            )?;
        }
        out.flush()
    }

    /// The closure table: self time per span name, as a share of the
    /// summed duration of all root spans (so the shares add to 100%).
    pub fn layer_table(&self) -> Vec<String> {
        let own = self_times(&self.spans);
        let wall: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == ROOT)
            .map(Span::dur)
            .sum();
        let mut rows = self_by_name(&self.spans, &own);
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        let mut out = vec![format!(
            "self time by span, share of all root spans ({:.3} s):",
            wall as f64 / 1e9
        )];
        for (name, t, n) in rows {
            out.push(format!(
                "  {name:<30} {:>10.3} ms {:>7.2}% calls={n}",
                t as f64 / 1e6,
                100.0 * t as f64 / wall.max(1) as f64
            ));
        }
        out
    }
}

/// Length of the union of `intervals` (sorted in place).
fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let start = s.start.clamp(p.start, p.end);
            children[s.parent as usize].push((start, s.end.clamp(start, p.end)));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur().saturating_sub(union_len(kids)))
        .collect()
}

/// Indices of `root` and every span beneath it.
fn subtree(spans: &[Span], root: u32) -> Vec<usize> {
    // Parents always precede children in the log, so one forward pass
    // with a membership mask finds the subtree.
    let mut inside = vec![false; spans.len()];
    inside[root as usize] = true;
    let mut out = vec![root as usize];
    for (i, s) in spans.iter().enumerate().skip(root as usize + 1) {
        if s.parent != ROOT && inside[s.parent as usize] {
            inside[i] = true;
            out.push(i);
        }
    }
    out
}

/// Time attributed to layer spans beneath `root`: the sum of their
/// self times within the subtree, excluding `root` itself.
pub fn attributed(spans: &[Span], root: u32) -> u64 {
    let idx = subtree(spans, root);
    let local: Vec<Span> = idx
        .iter()
        .map(|&i| {
            let s = spans[i];
            let parent = if i == root as usize {
                ROOT
            } else {
                idx.binary_search(&(s.parent as usize))
                    .expect("a subtree span's parent is in the subtree") as u32
            };
            Span { parent, ..s }
        })
        .collect();
    self_times(&local).iter().skip(1).sum()
}

/// Per-name aggregate: every span duration of that name, in ns.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Total self time per span name, in first-seen order.
pub fn self_by_name(spans: &[Span], own: &[u64]) -> Vec<(&'static str, u64, usize)> {
    let mut out: Vec<(&'static str, u64, usize)> = Vec::new();
    for (s, &t) in spans.iter().zip(own) {
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += t;
                e.2 += 1;
            }
            None => out.push((s.name, t, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 1,
        }
    }

    /// request [0,100]
    ///   parse [0,10]
    ///   compile [10,50]
    ///     netlist [10,20]
    ///     sta [20,45]
    ///   executor [50,90]
    ///     job-a [52,80]   (parallel workers)
    ///     job-b [55,88]
    fn tree() -> Vec<Span> {
        vec![
            span("request", 0, 100, ROOT),
            span("parse", 0, 10, 0),
            span("compile", 10, 50, 0),
            span("netlist", 10, 20, 2),
            span("sta", 20, 45, 2),
            span("executor", 50, 90, 0),
            span("job", 52, 80, 5),
            span("job", 55, 88, 5),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let own = self_times(&tree());
        assert_eq!(own, vec![10, 10, 5, 10, 25, 4, 28, 33]);
    }

    #[test]
    fn closure_against_the_whole() {
        let spans = tree();
        // Everything under the root but its own 10 ns of glue.
        assert_eq!(attributed(&spans, 0), 10 + 5 + 10 + 25 + 4 + 28 + 33);
        // Against an untraced whole of 100 ns: parallel job time counts
        // in full, so attribution can exceed the wall clock.
        let gap = 1.0 - attributed(&spans, 0) as f64 / 100.0;
        assert!((gap - (1.0 - 115.0 / 100.0)).abs() < 1e-12);
        // A subtree is its own closure root.
        assert_eq!(attributed(&spans, 2), 35);
        assert!((1.0 - attributed(&spans, 2) as f64 / 40.0 - 0.125).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 7);
        t.span("inner", 7, || std::hint::black_box(3));
        t.span("inner", 7, || std::hint::black_box(4));
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(spans[0].parent, ROOT);
        let own = self_times(spans);
        let by = self_by_name(spans, &own);
        assert_eq!(by.len(), 2);
        assert_eq!(by[1].2, 2);
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur());
        let table = t.layer_table();
        // A header and one row per name.
        assert_eq!(table.len(), 3);
        assert!(table[1].contains("calls=") && table[2].contains("calls="));
    }
}
