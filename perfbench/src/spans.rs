//! In-memory span recording around calls into the program's layers.
//!
//! A [`Tracer`] is either off (every call runs the closure and records
//! nothing) or on, in which case each [`Tracer::span`] appends a [`Span`]
//! whose parent is the innermost span still open.  Spans stay in memory
//! until [`Tracer::spans`] copies them out at the end of a run.

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Log {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Log {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A cloneable handle to one run's span log (or to nothing, when off).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    log: Option<Arc<Mutex<Log>>>,
}

/// Closes its span when dropped, so a panicking call still ends its span.
struct Open<'a> {
    log: &'a Mutex<Log>,
    id: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        if let Ok(mut log) = self.log.lock() {
            let end = log.now_ns();
            log.spans[self.id].end_ns = end;
            if let Some(pos) = log.open.iter().rposition(|&id| id == self.id) {
                log.open.remove(pos);
            }
        }
    }
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Tracer {
            log: Some(Arc::new(Mutex::new(Log {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            }))),
        }
    }

    /// Whether this tracer records spans.
    pub fn is_on(&self) -> bool {
        self.log.is_some()
    }

    /// Runs `f` inside a span named `name` (just runs it when off).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let Some(log) = &self.log else {
            return f();
        };
        let id = {
            let mut guard = log.lock().expect("span log poisoned");
            let id = guard.spans.len();
            let start_ns = guard.now_ns();
            let parent = guard.open.last().copied();
            guard.spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns: start_ns,
            });
            guard.open.push(id);
            id
        };
        let _open = Open { log, id };
        f()
    }

    /// Number of spans recorded so far (0 when off).
    pub fn len(&self) -> usize {
        self.log
            .as_ref()
            .map_or(0, |log| log.lock().expect("span log poisoned").spans.len())
    }

    /// A copy of the spans recorded so far (empty when off).
    pub fn spans(&self) -> Vec<Span> {
        self.log.as_ref().map_or_else(Vec::new, |log| {
            log.lock().expect("span log poisoned").spans.clone()
        })
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.  Indexed like
/// `spans`, whose ids must equal their positions.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Marks the spans inside the subtree rooted at `root` (root included).
/// Relies on a child always being recorded after its parent.
pub fn subtree(spans: &[Span], root: usize) -> Vec<bool> {
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    for s in &spans[root + 1..] {
        inside[s.id] = s.parent.is_some_and(|p| inside[p]);
    }
    inside
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, None, 0, 100),
            // Two overlapping children cover [10, 40); a third [60, 70).
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 40),
            span(3, Some(0), 60, 70),
            // A grandchild counts against its parent only.
            span(4, Some(3), 62, 65),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 20, 7, 3]);
    }

    #[test]
    fn children_are_clipped_to_the_parent_interval() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 5, 15)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn recorded_spans_nest_and_subtrees_follow_parents() {
        let t = Tracer::on();
        t.span("a.outer", || {
            t.span("b.inner", || std::hint::black_box(1));
            t.span("b.inner", || ());
        });
        t.span("a.next", || ());
        let spans = t.spans();
        let parents: Vec<_> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(subtree(&spans, 0), vec![true, true, true, false]);
        let selfs = self_times(&spans);
        assert!(selfs[0] <= spans[0].duration_ns());
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let t = Tracer::default();
        assert_eq!(t.span("x.y", || 7), 7);
        assert!(!t.is_on());
        assert_eq!(t.len(), 0);
    }
}
