//! The aggregate span tree: a fold over one capture's span records.
//!
//! A capture (see [`crate::record`]) keeps every span occurrence. Folding
//! merges the occurrences that share a dotted path into one node (entry
//! count, total time, summed counter deltas), which keeps the tree
//! readable when a phase runs in a loop. The result is in pre-order with
//! children in first-entry order, and renders as a flame-style text tree
//! for `cqp_shell`.

use crate::record::Record;
use std::collections::BTreeMap;
use std::time::Duration;

/// Read-only view of one span node, for exporters.
#[derive(Debug, Clone)]
pub struct SpanView {
    /// Dotted path from the root, e.g. `"solve.find_boundaries"`.
    pub path: String,
    /// Span name (last path segment).
    pub name: &'static str,
    /// Tree depth (root children are 0).
    pub depth: usize,
    /// Times the span was entered (and closed).
    pub count: u64,
    /// Total wall-clock across entries.
    pub total: Duration,
    /// Counter deltas attributed to this span (children included).
    pub counter_deltas: Vec<(&'static str, u64)>,
}

struct Node {
    name: &'static str,
    children: Vec<usize>,
    count: u64,
    total: Duration,
    counter_deltas: BTreeMap<&'static str, u64>,
}

/// Merges span occurrences into the aggregate tree. `records` lists every
/// parent before its children. A span still open adds its node (so its
/// closed children have a parent) but neither a count nor time.
pub(crate) fn fold(records: &[Record]) -> Vec<SpanView> {
    let mut nodes: Vec<Node> = Vec::new();
    let mut roots: Vec<usize> = Vec::new();
    // The node each record merged into, by record index.
    let mut node_of: Vec<usize> = Vec::with_capacity(records.len());
    for r in records {
        let parent = r.parent.and_then(|p| node_of.get(p).copied());
        let siblings = match parent {
            Some(p) => &nodes[p].children,
            None => &roots,
        };
        let existing = siblings.iter().copied().find(|&i| nodes[i].name == r.name);
        let node = existing.unwrap_or_else(|| {
            nodes.push(Node {
                name: r.name,
                children: Vec::new(),
                count: 0,
                total: Duration::ZERO,
                counter_deltas: BTreeMap::new(),
            });
            let i = nodes.len() - 1;
            match parent {
                Some(p) => nodes[p].children.push(i),
                None => roots.push(i),
            }
            i
        });
        node_of.push(node);
        if let Some(end_ns) = r.end_ns {
            let n = &mut nodes[node];
            n.count += 1;
            n.total += Duration::from_nanos(end_ns.saturating_sub(r.start_ns));
            for &(name, delta) in &r.counters {
                *n.counter_deltas.entry(name).or_insert(0) += delta;
            }
        }
    }
    let mut out = Vec::with_capacity(nodes.len());
    for &root in &roots {
        flatten(&nodes, root, "", 0, &mut out);
    }
    out
}

fn flatten(nodes: &[Node], node: usize, prefix: &str, depth: usize, out: &mut Vec<SpanView>) {
    let n = &nodes[node];
    let path = if prefix.is_empty() {
        n.name.to_string()
    } else {
        format!("{prefix}.{}", n.name)
    };
    out.push(SpanView {
        path: path.clone(),
        name: n.name,
        depth,
        count: n.count,
        total: n.total,
        counter_deltas: n.counter_deltas.iter().map(|(&k, &v)| (k, v)).collect(),
    });
    for &child in &n.children {
        flatten(nodes, child, &path, depth + 1, out);
    }
}

/// Flame-style text rendering of a folded tree, one line per node: tree
/// guides, name, total time, entry count, and counter deltas.
pub fn render(spans: &[SpanView]) -> String {
    let mut out = String::new();
    // Per depth on the current path: whether that ancestor has a later
    // sibling, so its column keeps a `│` guide.
    let mut more: Vec<bool> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let last = spans[i + 1..]
            .iter()
            .take_while(|n| n.depth >= s.depth)
            .all(|n| n.depth != s.depth);
        more.truncate(s.depth);
        if s.depth > 0 {
            for &m in &more[1..] {
                out.push_str(if m { "│  " } else { "   " });
            }
            out.push_str(if last { "└─ " } else { "├─ " });
        }
        more.push(!last);
        out.push_str(s.name);
        out.push_str(&format!("  {}", fmt_duration(s.total)));
        if s.count != 1 {
            out.push_str(&format!("  ({}x)", s.count));
        }
        if !s.counter_deltas.is_empty() {
            let deltas: Vec<String> = s
                .counter_deltas
                .iter()
                .map(|(k, v)| format!("{k} +{v}"))
                .collect();
            out.push_str(&format!("  [{}]", deltas.join(", ")));
        }
        out.push('\n');
    }
    out
}

/// Human-readable duration: ns/µs/ms/s with sensible precision.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3}s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Capture;
    use std::time::Instant;

    fn paths(spans: &[SpanView]) -> Vec<&str> {
        spans.iter().map(|s| s.path.as_str()).collect()
    }

    #[test]
    fn nesting_builds_a_tree_with_paths() {
        let c = Capture::new(Instant::now());
        c.enter("solve");
        c.enter("find_boundaries");
        c.exit();
        c.enter("find_max_doi");
        c.exit();
        c.exit();
        let spans = c.spans();
        assert_eq!(
            paths(&spans),
            ["solve", "solve.find_boundaries", "solve.find_max_doi"]
        );
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].depth, 1);
    }

    #[test]
    fn reentering_a_span_aggregates() {
        let c = Capture::new(Instant::now());
        for _ in 0..3 {
            c.enter("phase");
            c.exit();
        }
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].count, 3);
    }

    #[test]
    fn children_stay_in_their_parents_subtree_in_first_entry_order() {
        // A{B}, then A{C}, then A{B{D}}: D is first seen under the third
        // entry of A but is listed under B, before A's later child C.
        let c = Capture::new(Instant::now());
        for children in [&["B"][..], &["C"], &["B", "D"]] {
            c.enter("A");
            for &name in children {
                c.enter(name);
            }
            for _ in children {
                c.exit();
            }
            c.exit();
        }
        let spans = c.spans();
        assert_eq!(paths(&spans), ["A", "A.B", "A.B.D", "A.C"]);
        let counts: Vec<u64> = spans.iter().map(|s| s.count).collect();
        assert_eq!(counts, [3, 2, 1, 1]);
    }

    #[test]
    fn parent_time_covers_child_time() {
        let c = Capture::new(Instant::now());
        c.enter("parent");
        c.enter("child");
        std::thread::sleep(Duration::from_millis(2));
        c.exit();
        c.exit();
        let spans = c.spans();
        let parent = spans.iter().find(|s| s.name == "parent").unwrap();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert!(child.total >= Duration::from_millis(2));
        assert!(
            parent.total >= child.total,
            "parent {:?} < child {:?}",
            parent.total,
            child.total
        );
    }

    #[test]
    fn counter_deltas_attributed_to_span() {
        let c = Capture::new(Instant::now());
        c.count("io.blocks", 10);
        c.enter("work");
        c.count("io.blocks", 15);
        c.count("io.other", 3);
        c.exit();
        c.enter("work");
        c.count("io.blocks", 5);
        c.exit();
        let spans = c.spans();
        assert_eq!(
            spans[0].counter_deltas,
            vec![("io.blocks", 20), ("io.other", 3)]
        );
    }

    #[test]
    fn unbalanced_exit_is_harmless() {
        let c = Capture::new(Instant::now());
        c.exit();
        c.enter("a");
        c.exit();
        c.exit();
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].count, 1);
        // Nothing is left open: a new span is a root, not a child of `a`.
        c.enter("b");
        c.exit();
        assert_eq!(paths(&c.spans()), ["a", "b"]);
    }

    #[test]
    fn render_contains_guides_and_names() {
        let c = Capture::new(Instant::now());
        c.enter("solve");
        c.enter("a");
        c.enter("x");
        c.exit();
        c.count("n", 7);
        c.exit();
        c.enter("b");
        c.exit();
        c.exit();
        let text = render(&c.spans());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("solve  "));
        assert!(lines[1].starts_with("├─ a  "));
        assert!(lines[1].ends_with("[n +7]"));
        assert!(lines[2].starts_with("│  └─ x  "));
        assert!(lines[3].starts_with("└─ b  "));
    }
}
