//! The span recorder of the traced run.
//!
//! A span is a name, a start, an end and a parent, recorded by the
//! harness around its calls into one layer of the workspace. Spans stay
//! in memory and are written out when the run ends. A disabled tracer
//! records nothing and never reads the clock, so the untraced runs pay
//! one branch per would-be span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct State {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans opened and not yet closed, innermost last.
    open: Vec<usize>,
}

/// A shareable handle on the recorder; cloning shares the span list.
/// Spans nest by call order, so they are recorded from one thread at a
/// time (the harness's main thread, and the backend it drives).
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Arc<Mutex<State>>>);

/// Closes its span when dropped.
#[must_use]
pub struct Guard {
    tracer: Tracer,
    index: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer(enabled.then(|| {
            Arc::new(Mutex::new(State {
                origin: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
            }))
        }))
    }

    /// Opens a span whose parent is the innermost open span.
    pub fn enter(&self, name: &'static str) -> Guard {
        let index = match &self.0 {
            None => usize::MAX,
            Some(state) => {
                let mut s = state.lock().expect("tracer poisoned");
                let start_ns = s.origin.elapsed().as_nanos() as u64;
                let parent = s.open.last().copied();
                let index = s.spans.len();
                s.spans.push(Span {
                    name,
                    start_ns,
                    end_ns: start_ns,
                    parent,
                });
                s.open.push(index);
                index
            }
        };
        Guard {
            tracer: self.clone(),
            index,
        }
    }

    fn close(&self, index: usize) {
        if let Some(state) = &self.0 {
            let mut s = state.lock().expect("tracer poisoned");
            let end_ns = s.origin.elapsed().as_nanos() as u64;
            s.spans[index].end_ns = end_ns;
            if let Some(pos) = s.open.iter().rposition(|&i| i == index) {
                s.open.truncate(pos);
            }
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |s| {
            s.lock().expect("tracer poisoned").spans.clone()
        })
    }
}

/// Writes spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`
/// index or null).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent}}}"#,
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.index != usize::MAX {
            self.tracer.close(self.index);
        }
    }
}

/// Per-name totals over a span list: call count, total duration and self
/// time (duration minus the time covered by direct children).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// The direct children of span `parent`, in order.
pub fn children(spans: &[Span], parent: usize) -> impl Iterator<Item = &Span> {
    spans.iter().filter(move |s| s.parent == Some(parent))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "evo",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "machine",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
            },
            Span {
                name: "machine",
                start_ns: 50,
                end_ns: 80,
                parent: Some(0),
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["evo"].self_ns, 50);
        assert_eq!(t["machine"].calls, 2);
        assert_eq!(t["machine"].total_ns, 50);
        assert_eq!(children(&spans, 0).count(), 2);
    }

    #[test]
    fn nested_guards_record_parents() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.enter("outer");
            let _inner = tracer.enter("inner");
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(Tracer::new(false).spans().is_empty());
    }
}
