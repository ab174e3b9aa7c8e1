//! Benchmark-side spans: one per call into a layer, recorded around the
//! call from outside (the program itself carries no tracing switch).
//! Spans stay in memory until the run ends. With tracing off `begin`
//! and `end` do nothing, so the plain pass pays for none of this.

use std::time::Instant;

pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Durations (us) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// One JSON object per line.
    pub fn dump(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}\n",
                s.name, s.op, s.start_ns, s.end_ns, self_ns[i]
            ));
        }
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut upto = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(upto);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child by 10
            span(60, 70, Some(0)),  // disjoint child
            span(22, 28, Some(2)),  // grandchild: charged to span 2 only
            span(90, 130, Some(0)), // runs past its parent: clipped
        ];
        let st = self_times(&spans);
        // root: 100 - ([10,50) + [60,70) + [90,100)) = 100 - 60
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 20);
        assert_eq!(st[2], 24);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 6);
        assert_eq!(st[5], 40);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 1, None);
        t.end(id);
        assert!(id.is_none() && t.spans.is_empty());
        let mut t = Tracer::new(true);
        let root = t.begin("root", 7, None);
        let kid = t.begin("kid", 7, root);
        t.end(kid);
        t.end(root);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.durations_us("kid").len(), 1);
        assert_eq!(t.dump().lines().count(), 2);
    }
}
