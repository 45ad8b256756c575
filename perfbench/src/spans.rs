//! Parents for the probe's call spans, and the trace file.
//!
//! A call's parent is the innermost enclosing span on the same node, in
//! virtual time: a `kv` request span, else a kernel `phase` span (both
//! from the simulator's trace session), else the benchmark's own span
//! around the whole kernel.

use crate::probe::{Span, OPS};
use sim::TraceEvent;
use std::fmt::Write as _;

/// A span that can parent call spans.
pub struct Parent {
    pub name: String,
    pub node: usize,
    pub virt_start: u64,
    pub virt_end: u64,
}

/// One node's calls with their parents resolved.
pub struct NodeSpans {
    pub node: usize,
    pub calls: Vec<Span>,
    /// Index into the parent table, per call.
    pub parent: Vec<usize>,
}

/// Per-node parent candidates of one kind, sorted by end. Spans of one
/// kind on one node complete in order (phases never overlap; a node
/// serves one request at a time), so the first span ending at or after
/// a call is the only one that can contain it.
fn by_end(events: &[TraceEvent], module: &str, node: usize) -> Vec<(u64, u64, &'static str)> {
    let mut v: Vec<_> = events
        .iter()
        .filter(|e| e.module == module && e.node == node && e.dur_ns > 0)
        .map(|e| (e.t_ns, e.t_ns + e.dur_ns, e.op))
        .collect();
    v.sort_by_key(|s| (s.1, s.0));
    v
}

fn enclosing(cands: &[(u64, u64, &'static str)], start: u64, end: u64) -> Option<usize> {
    let i = cands.partition_point(|c| c.1 < end);
    (i < cands.len() && cands[i].0 <= start).then_some(i)
}

/// Resolve parents for every node's calls. `kernel` names the root span
/// and `roots[node]` gives its virtual interval.
pub fn resolve(
    kernel: &str,
    roots: &[(u64, u64)],
    calls: Vec<Vec<Span>>,
    events: &[TraceEvent],
    parents: &mut Vec<Parent>,
) -> Vec<NodeSpans> {
    let mut out = Vec::new();
    for (node, calls) in calls.into_iter().enumerate() {
        let kv = by_end(events, "kv", node);
        let phase = by_end(events, "phase", node);
        let root = parents.len();
        parents.push(Parent {
            name: format!("kernel:{kernel}"),
            node,
            virt_start: roots[node].0,
            virt_end: roots[node].1,
        });
        // Parent table indices of candidates already emitted.
        let mut seen: std::collections::HashMap<(&str, usize), usize> = Default::default();
        let mut parent = Vec::with_capacity(calls.len());
        for c in &calls {
            let (s, e) = (c.virt_start, c.virt_start + c.virt_ns);
            let hit = enclosing(&kv, s, e)
                .map(|i| ("kv", i, kv[i]))
                .or_else(|| enclosing(&phase, s, e).map(|i| ("phase", i, phase[i])));
            let p = match hit {
                None => root,
                Some((kind, i, (vs, ve, op))) => *seen.entry((kind, i)).or_insert_with(|| {
                    parents.push(Parent {
                        name: format!("{kind}:{op}"),
                        node,
                        virt_start: vs,
                        virt_end: ve,
                    });
                    parents.len() - 1
                }),
            };
            parent.push(p);
        }
        out.push(NodeSpans { node, calls, parent });
    }
    out
}

/// Render the spans of one traced run as JSON.
pub fn to_json(workload: &str, parents: &[Parent], nodes: &[NodeSpans]) -> String {
    let mut s = String::new();
    let _ = write!(s, "{{\"workload\":\"{workload}\",\"parents\":[");
    for (i, p) in parents.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"node\":{},\"virt_start_ns\":{},\"virt_ns\":{}}}",
            p.name,
            p.node,
            p.virt_start,
            p.virt_end - p.virt_start
        );
    }
    s.push_str("],\"spans\":[");
    let mut first = true;
    for n in nodes {
        for (c, p) in n.calls.iter().zip(&n.parent) {
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                s,
                "{sep}\n{{\"node\":{},\"name\":\"{}\",\"parent\":{p},\"host_start_ns\":{},\"host_ns\":{},\"virt_start_ns\":{},\"virt_ns\":{}}}",
                n.node, OPS[c.op as usize], c.host_start, c.host_ns, c.virt_start, c.virt_ns
            );
        }
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Op;

    fn ev(t: u64, dur: u64, node: usize, module: &'static str, op: &'static str) -> TraceEvent {
        TraceEvent { t_ns: t, dur_ns: dur, node, module, op, arg: 0, corr: 0 }
    }

    fn call(v0: u64, v: u64) -> Span {
        Span { op: Op::Read, host_start: 0, host_ns: 1, virt_start: v0, virt_ns: v }
    }

    #[test]
    fn innermost_enclosing_span_wins() {
        // Overlapping requests (a queued request issued before the
        // previous one completed) resolve by completion order.
        let events = [
            ev(0, 100, 0, "phase", "serve"),
            ev(10, 20, 0, "kv", "get"),
            ev(15, 30, 0, "kv", "put"),
            ev(0, 100, 1, "kv", "get"),
        ];
        let mut parents = Vec::new();
        let calls = vec![vec![call(12, 5), call(32, 13), call(60, 1)], vec![]];
        let nodes = resolve("kv", &[(0, 200), (0, 200)], calls, &events, &mut parents);
        let names: Vec<_> = nodes[0].parent.iter().map(|&p| parents[p].name.as_str()).collect();
        assert_eq!(names, ["kv:get", "kv:put", "phase:serve"]);
        assert!(to_json("kv", &parents, &nodes).contains("\"parent\":"));
    }
}
