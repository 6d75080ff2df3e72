//! Folded-stack export (`inferno` / `flamegraph.pl` input format).
//!
//! One line per unique span stack, `frame;frame;frame <self-cycles>`,
//! with the process and track names as the two root frames. Lines are
//! sorted lexicographically, so the output is deterministic regardless
//! of event interleaving across tracks.

use crate::analysis::{build_forest, Forest, TraceError};
use crate::model::Trace;
use std::collections::BTreeMap;

/// Renders `trace` in folded-stack format, attributing each span's
/// **self** cycles (duration minus direct children) to its stack.
///
/// # Errors
///
/// Propagates [`TraceError`] from span-forest reconstruction.
pub fn to_folded(trace: &Trace) -> Result<String, TraceError> {
    let forest = build_forest(trace)?;
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for &root in &forest.roots {
        let track = forest.nodes[root].track;
        let prefix = format!(
            "{};{}",
            sanitize(trace.process_name_of(track)),
            sanitize(trace.track_name(track))
        );
        fold_into(&forest, root, &prefix, &mut stacks);
    }
    let mut out = String::new();
    for (stack, cycles) in &stacks {
        if *cycles > 0 {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&cycles.to_string());
            out.push('\n');
        }
    }
    Ok(out)
}

fn fold_into(forest: &Forest, node: usize, prefix: &str, stacks: &mut BTreeMap<String, u64>) {
    let n = &forest.nodes[node];
    let stack = format!("{prefix};{}", sanitize(n.name.as_str()));
    *stacks.entry(stack.clone()).or_insert(0) += forest.self_cycles(node);
    for &c in &n.children {
        fold_into(forest, c, &stack, stacks);
    }
}

/// Frame names must not contain the folded format's separators: `;`
/// splits frames and the *last* space splits the sample count, and a
/// literal newline (or any other whitespace control) would break the
/// line structure outright. Every such character folds to `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Args;
    use crate::Tracer;

    #[test]
    fn folded_attributes_self_cycles() {
        let t = Tracer::recording();
        let track = t.track(t.process("mult n=64"), "stage 1");
        let outer = t.span_at(track, "precompute", 0);
        t.complete(track, "add a10", 8, 20, Args::new());
        t.complete(track, "add a32", 28, 20, Args::new());
        outer.end(100);
        let folded = to_folded(&t.finish().unwrap()).unwrap();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "mult_n=64;stage_1;precompute 60",
                "mult_n=64;stage_1;precompute;add_a10 20",
                "mult_n=64;stage_1;precompute;add_a32 20",
            ]
        );
    }

    #[test]
    fn identical_stacks_aggregate() {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        t.complete(track, "op", 0, 3, Args::new());
        t.complete(track, "op", 5, 4, Args::new());
        let folded = to_folded(&t.finish().unwrap()).unwrap();
        assert_eq!(folded, "p;t;op 7\n");
    }

    #[test]
    fn zero_self_cycle_stacks_are_omitted() {
        let t = Tracer::recording();
        let track = t.track(t.process("p"), "t");
        let outer = t.span_at(track, "wrapper", 0);
        t.complete(track, "work", 0, 10, Args::new());
        outer.end(10);
        let folded = to_folded(&t.finish().unwrap()).unwrap();
        assert_eq!(folded, "p;t;wrapper;work 10\n");
    }
}
