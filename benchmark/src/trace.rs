//! The harness's own span recorder. Spans are stamped around calls into the
//! program's public functions, kept in a pre-allocated vector, and written
//! out (Chrome trace-event JSON) only after the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a request root.
    pub parent: Option<usize>,
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            spans: Vec::with_capacity(spans),
        }
    }

    /// Records a span and returns its index, for use as a child's `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the part of it its children cover. Children may
/// overlap each other and may stick out of the parent; both are clipped.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    span.duration_ns() - covered
}

/// One row of the per-layer table: where request time was spent.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub self_ns: u64,
    /// This layer's self time as a share of all root-span time.
    pub share_of_request: f64,
}

/// What the spans add up to: the per-layer self-time table and, per
/// request, how much of the root span its children account for.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub layers: Vec<LayerRow>,
    /// Per root span: Σ children's self time / root duration.
    pub coverage: Vec<f64>,
}

pub fn breakdown(spans: &[Span]) -> Breakdown {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            children[p].push(i);
        }
    }
    let self_ns: Vec<u64> = spans
        .iter()
        .enumerate()
        .map(|(i, span)| {
            let kids: Vec<&Span> = children[i].iter().map(|&c| &spans[c]).collect();
            self_time_ns(span, &kids)
        })
        .collect();

    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut root_ns = 0u64;
    let mut coverage = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        let row = by_name.entry(span.name).or_default();
        row.0 += 1;
        row.1 += self_ns[i];
        if span.parent.is_none() {
            root_ns += span.duration_ns();
            if span.duration_ns() > 0 && !children[i].is_empty() {
                let kids: u64 = descendants_self_ns(i, &children, &self_ns);
                coverage.push(kids as f64 / span.duration_ns() as f64);
            }
        }
    }
    let layers = by_name
        .into_iter()
        .map(|(name, (count, self_ns))| LayerRow {
            name,
            count,
            self_ns,
            share_of_request: self_ns as f64 / root_ns.max(1) as f64,
        })
        .collect();
    Breakdown { layers, coverage }
}

fn descendants_self_ns(root: usize, children: &[Vec<usize>], self_ns: &[u64]) -> u64 {
    children[root]
        .iter()
        .map(|&c| self_ns[c] + descendants_self_ns(c, children, self_ns))
        .sum()
}

/// Writes span groups as Chrome trace events (`chrome://tracing`, Perfetto).
/// Each group is a prefix of one recorder's spans, so a span's parent is in
/// its own group. Lanes are span names, so overlapping requests stay
/// readable.
pub fn write_chrome_trace(path: &Path, groups: &[&[Span]]) -> std::io::Result<()> {
    let mut lanes: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut offset = 0;
    for spans in groups {
        for (i, span) in spans.iter().enumerate() {
            let next_lane = lanes.len();
            let lane = *lanes.entry(span.name).or_insert(next_lane);
            if offset + i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{},\"parent\":{},\"request_id\":{}}}}}",
                span.name,
                lane,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                offset + i,
                span.parent
                    .map_or("null".to_string(), |p| (offset + p).to_string()),
                span.request_id,
            )?;
        }
        offset += spans.len();
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let root = span("root", 100, 200, None);
        let a = span("a", 110, 150, Some(0));
        let b = span("b", 140, 170, Some(0)); // overlaps a by 10
        let c = span("c", 190, 260, Some(0)); // sticks out by 60
        let d = span("d", 120, 130, Some(0)); // inside a
        assert_eq!(self_time_ns(&root, &[&a, &b, &c, &d]), 100 - 60 - 10);
        assert_eq!(self_time_ns(&root, &[]), 100);
        // A child covering everything leaves nothing.
        assert_eq!(self_time_ns(&root, &[&span("e", 0, 1000, Some(0))]), 0);
    }

    #[test]
    fn breakdown_attributes_time_to_the_deepest_layer() {
        let spans = vec![
            span("request", 0, 100, None),
            span("queue", 0, 40, Some(0)),
            span("backend", 40, 90, Some(0)),
            span("scan", 50, 80, Some(2)),
        ];
        let b = breakdown(&spans);
        let get = |name| b.layers.iter().find(|r| r.name == name).unwrap().self_ns;
        assert_eq!(get("request"), 10);
        assert_eq!(get("queue"), 40);
        assert_eq!(get("backend"), 20);
        assert_eq!(get("scan"), 30);
        assert_eq!(b.coverage, vec![0.9]);
        let shares: f64 = b.layers.iter().map(|r| r.share_of_request).sum();
        assert!((shares - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace.json");
        let spans = vec![
            span("request", 0, 1500, None),
            span("queue", 0, 400, Some(0)),
        ];
        write_chrome_trace(&path, &[&spans, &spans]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = serde_json::parse(&text).unwrap();
        match doc.get("traceEvents") {
            Some(serde::Value::Seq(events)) => {
                assert_eq!(events.len(), 4);
                assert_eq!(events[1].get("dur").and_then(|v| v.as_f64()), Some(0.4));
                // The second group's parent index is shifted past the first.
                let parent = events[3].get("args").and_then(|a| a.get("parent"));
                assert_eq!(parent.and_then(|p| p.as_u64()), Some(2));
            }
            other => panic!("traceEvents missing: {other:?}"),
        }
    }
}
