//! The benchmark's span buffer: spans are recorded here, around the calls
//! into each layer, kept in memory, and written out once at exit. Nothing
//! under `crates/` knows it exists.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the buffer.
    pub id: u32,
    /// The span this one ran inside, if any.
    pub parent: Option<u32>,
    /// Shared by every span of one block (or one schedule).
    pub group: u32,
    /// What ran.
    pub name: &'static str,
    /// Nanoseconds since the buffer was created.
    pub start_ns: u64,
    /// Nanoseconds since the buffer was created.
    pub end_ns: u64,
}

/// An in-memory span buffer. A disabled buffer records nothing, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    group: u32,
}

impl Spans {
    /// A buffer that records (`true`) or ignores (`false`) every call.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the buffer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new group: the spans of the next block or schedule share it.
    pub fn next_group(&mut self) {
        self.group += 1;
    }

    /// Runs `f` inside a span named `name`, nested in whichever span is
    /// open.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group: self.group,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Adds an already-measured child of the open span (the per-request
    /// spans, timed on the client threads).
    pub fn add_child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            group: self.group,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The buffer as a JSON document, each span with its self time.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times(&self.spans);
        let mut out = format!(
            "{{\"schema\":\"wdog-bench-trace/v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n"
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}{}\n",
                s.id,
                s.group,
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover. Children that overlap one another (the two clients'
/// requests under one `measure`) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            group: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, 0, 100),    // root
            span(1, Some(0), 10, 40), // sibling a
            span(2, Some(0), 50, 70), // sibling b
            span(3, Some(1), 15, 25), // nested under a
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 80),
            span(3, Some(0), 90, 120), // runs past the parent: clipped
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn scopes_nest_and_share_the_group() {
        let mut b = Spans::new(true);
        b.next_group();
        b.scope("block", |b| {
            b.scope("boot", |_| ());
            b.scope("measure", |b| b.add_child("request", 1, 2));
        });
        let s = b.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|x| x.group == 1));
        assert!(s[0].end_ns >= s[2].end_ns);
        assert!(b.to_json("w", 1).contains("\"name\":\"request\""));
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut b = Spans::new(false);
        assert_eq!(
            b.scope("x", |b| {
                b.add_child("y", 0, 1);
                5
            }),
            5
        );
        assert!(b.spans().is_empty());
    }
}
