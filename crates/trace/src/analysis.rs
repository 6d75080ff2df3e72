//! Span-tree reconstruction and structural invariants.
//!
//! Exporters that need nesting (folded stacks, the summary's
//! self-vs-child split) rebuild the per-track span forest from the
//! event stream here, and the property tests assert the invariants
//! ([`check_nesting`]) every well-formed trace satisfies.

use crate::model::{EventKind, Name, Trace, TrackId};
use std::collections::HashMap;
use std::fmt;

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: Name,
    /// Owning track.
    pub track: TrackId,
    /// Opening cycle.
    pub start: u64,
    /// Closing cycle (`end >= start`).
    pub end: u64,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Indices of child spans in [`Forest::nodes`].
    pub children: Vec<usize>,
}

impl SpanNode {
    /// Span duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end - self.start
    }
}

/// The reconstructed span forest of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Forest {
    /// All spans, in closing order.
    pub nodes: Vec<SpanNode>,
    /// Indices of root spans (per-track interleaved, in closing order).
    pub roots: Vec<usize>,
}

impl Forest {
    /// Sum of the direct children's cycles of `node`.
    pub fn child_cycles(&self, node: usize) -> u64 {
        self.nodes[node]
            .children
            .iter()
            .map(|&c| self.nodes[c].cycles())
            .sum()
    }

    /// Cycles of `node` not covered by its direct children
    /// (saturating: a malformed trace cannot underflow).
    pub fn self_cycles(&self, node: usize) -> u64 {
        self.nodes[node]
            .cycles()
            .saturating_sub(self.child_cycles(node))
    }
}

/// A structural defect found while rebuilding or checking a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// An `End` event arrived with no span open on its track, or with
    /// a span id that is not the innermost open span.
    UnmatchedEnd {
        /// Track of the offending event.
        track: TrackId,
        /// Cycle of the offending event.
        cycle: u64,
    },
    /// A span was still open when the event stream ended.
    UnclosedSpan {
        /// Name of the dangling span.
        name: String,
        /// Its opening cycle.
        start: u64,
    },
    /// A span closed before it opened.
    NegativeSpan {
        /// Name of the offending span.
        name: String,
        /// Its opening cycle.
        start: u64,
        /// The earlier closing cycle.
        end: u64,
    },
    /// A child span extends beyond its parent, or the children of one
    /// parent together exceed the parent's extent.
    ChildExceedsParent {
        /// Parent span name.
        parent: String,
        /// Child span name (or `*` for the aggregate-sum check).
        child: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnmatchedEnd { track, cycle } => {
                write!(
                    f,
                    "end event with no matching open span (track {}, cc {cycle})",
                    track.0
                )
            }
            TraceError::UnclosedSpan { name, start } => {
                write!(f, "span '{name}' opened at cc {start} never closed")
            }
            TraceError::NegativeSpan { name, start, end } => {
                write!(
                    f,
                    "span '{name}' closes at cc {end} before opening at cc {start}"
                )
            }
            TraceError::ChildExceedsParent { parent, child } => {
                write!(f, "child span '{child}' exceeds parent '{parent}'")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Rebuilds the per-track span forest from the event stream.
///
/// `Begin`/`End` pairs nest by emission order per track (a strict
/// stack discipline); `Complete` events attach as leaves under the
/// innermost open span of their track at emission time.
///
/// # Errors
///
/// Returns the first [`TraceError::UnmatchedEnd`] or
/// [`TraceError::UnclosedSpan`] defect found.
pub fn build_forest(trace: &Trace) -> Result<Forest, TraceError> {
    struct Open {
        id: Option<crate::model::SpanId>,
        name: Name,
        start: u64,
        children: Vec<usize>,
    }
    let mut forest = Forest::default();
    // Per-track stack of open spans.
    let mut stacks: HashMap<u32, Vec<Open>> = HashMap::new();

    let close = |forest: &mut Forest,
                 stack: &mut Vec<Open>,
                 track: TrackId,
                 open: Open,
                 end: u64|
     -> Result<usize, TraceError> {
        if end < open.start {
            return Err(TraceError::NegativeSpan {
                name: open.name.as_str().to_string(),
                start: open.start,
                end,
            });
        }
        let depth = stack.len();
        let idx = forest.nodes.len();
        forest.nodes.push(SpanNode {
            name: open.name,
            track,
            start: open.start,
            end,
            depth,
            children: open.children,
        });
        match stack.last_mut() {
            Some(parent) => parent.children.push(idx),
            None => forest.roots.push(idx),
        }
        Ok(idx)
    };

    for ev in &trace.events {
        let stack = stacks.entry(ev.track.0).or_default();
        match &ev.kind {
            EventKind::Begin { id, name, .. } => stack.push(Open {
                id: Some(*id),
                name: name.clone(),
                start: ev.cycle,
                children: Vec::new(),
            }),
            EventKind::End { id } => {
                let open = stack.pop().ok_or(TraceError::UnmatchedEnd {
                    track: ev.track,
                    cycle: ev.cycle,
                })?;
                if open.id != Some(*id) {
                    return Err(TraceError::UnmatchedEnd {
                        track: ev.track,
                        cycle: ev.cycle,
                    });
                }
                close(&mut forest, stack, ev.track, open, ev.cycle)?;
            }
            EventKind::Complete { name, dur, .. } => {
                let leaf = Open {
                    id: None,
                    name: name.clone(),
                    start: ev.cycle,
                    children: Vec::new(),
                };
                close(&mut forest, stack, ev.track, leaf, ev.cycle + dur)?;
            }
            EventKind::Instant { .. } | EventKind::Counter { .. } => {}
        }
    }

    for stack in stacks.values() {
        if let Some(open) = stack.last() {
            return Err(TraceError::UnclosedSpan {
                name: open.name.as_str().to_string(),
                start: open.start,
            });
        }
    }
    Ok(forest)
}

/// Checks the nesting invariants of a rebuilt forest: every child lies
/// within its parent's extent, and the direct children of any span
/// together never exceed it.
///
/// # Errors
///
/// Returns the first [`TraceError::ChildExceedsParent`] violation.
pub fn check_nesting(forest: &Forest) -> Result<(), TraceError> {
    for (i, node) in forest.nodes.iter().enumerate() {
        for &c in &node.children {
            let child = &forest.nodes[c];
            if child.start < node.start || child.end > node.end {
                return Err(TraceError::ChildExceedsParent {
                    parent: node.name.as_str().to_string(),
                    child: child.name.as_str().to_string(),
                });
            }
        }
        if forest.child_cycles(i) > node.cycles() {
            return Err(TraceError::ChildExceedsParent {
                parent: node.name.as_str().to_string(),
                child: "*".to_string(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Args;
    use crate::Tracer;

    fn sample_trace() -> Trace {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        let outer = t.span_at(track, "outer", 0);
        let inner = t.span_at(track, "inner", 2);
        t.complete(track, "op", 3, 1, Args::new());
        inner.end(6);
        outer.end(10);
        t.finish().unwrap()
    }

    #[test]
    fn forest_reconstructs_nesting() {
        let forest = build_forest(&sample_trace()).unwrap();
        assert_eq!(forest.nodes.len(), 3);
        assert_eq!(forest.roots.len(), 1);
        let outer = &forest.nodes[forest.roots[0]];
        assert_eq!(outer.name.as_str(), "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.children.len(), 1);
        let inner = &forest.nodes[outer.children[0]];
        assert_eq!(inner.name.as_str(), "inner");
        assert_eq!(inner.depth, 1);
        assert_eq!(forest.nodes[inner.children[0]].name.as_str(), "op");
        check_nesting(&forest).unwrap();
    }

    #[test]
    fn self_cycles_subtract_children() {
        let forest = build_forest(&sample_trace()).unwrap();
        let outer = forest.roots[0];
        assert_eq!(forest.nodes[outer].cycles(), 10);
        assert_eq!(forest.child_cycles(outer), 4); // inner [2,6)
        assert_eq!(forest.self_cycles(outer), 6);
    }

    #[test]
    fn unclosed_span_is_reported() {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        let guard = t.span_at(track, "dangling", 1);
        std::mem::forget(guard); // suppress the RAII close
        let err = build_forest(&t.finish().unwrap()).unwrap_err();
        assert!(matches!(err, TraceError::UnclosedSpan { .. }));
        assert!(err.to_string().contains("dangling"));
    }

    #[test]
    fn sibling_overflow_is_caught() {
        // Two children summing past the parent's extent.
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        let outer = t.span_at(track, "outer", 0);
        t.complete(track, "a", 0, 8, Args::new());
        t.complete(track, "b", 0, 8, Args::new());
        outer.end(10);
        let forest = build_forest(&t.finish().unwrap()).unwrap();
        let err = check_nesting(&forest).unwrap_err();
        assert!(matches!(err, TraceError::ChildExceedsParent { .. }));
    }
}
