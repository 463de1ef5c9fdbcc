//! Graphviz/DOT and ASCII rendering of graphs — used to regenerate the
//! paper's Figure 1 (see the F1 binary, `crates/bench/src/bin/fig1.rs`).

use core::fmt::Write as _;

use crate::digraph::Digraph;
use crate::labeled::LabeledDigraph;
use crate::process::ProcessId;
use crate::pset::ProcessSet;

/// Rendering options shared by the DOT emitters.
#[derive(Clone, Debug)]
pub struct DotOptions {
    /// Graph name in the `digraph <name> { … }` header.
    pub name: String,
    /// Skip self-loop edges, like the paper's figures do.
    pub hide_self_loops: bool,
    /// Only render these nodes (default: every node incident to an edge).
    pub restrict_to: Option<ProcessSet>,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "G".to_owned(),
            hide_self_loops: true,
            restrict_to: None,
        }
    }
}

fn node_line(out: &mut String, p: ProcessId) {
    let _ = writeln!(out, "    {p} [shape=circle];");
}

/// Renders a plain digraph as DOT.
pub fn digraph_to_dot(g: &Digraph, opts: &DotOptions) -> String {
    let nodes = opts
        .restrict_to
        .clone()
        .unwrap_or_else(|| g.non_isolated_nodes());
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", opts.name);
    let _ = writeln!(out, "    rankdir=LR;");
    for p in nodes.iter() {
        node_line(&mut out, p);
    }
    for (u, v) in g.edges() {
        if opts.hide_self_loops && u == v {
            continue;
        }
        if nodes.contains(u) && nodes.contains(v) {
            let _ = writeln!(out, "    {u} -> {v};");
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a round-labelled digraph as DOT; edge labels carry the round the
/// edge was added, exactly like Figures 1c–1h.
pub fn labeled_to_dot(g: &LabeledDigraph, opts: &DotOptions) -> String {
    let nodes = opts
        .restrict_to
        .clone()
        .unwrap_or_else(|| g.nodes().clone());
    let mut out = String::new();
    let _ = writeln!(out, "digraph {} {{", opts.name);
    let _ = writeln!(out, "    rankdir=LR;");
    for p in nodes.iter() {
        node_line(&mut out, p);
    }
    for (u, v, label) in g.edges() {
        if opts.hide_self_loops && u == v {
            continue;
        }
        if nodes.contains(u) && nodes.contains(v) {
            let _ = writeln!(out, "    {u} -> {v} [label=\"{label}\"];");
        }
    }
    out.push_str("}\n");
    out
}

/// One-line ASCII summary of a digraph: `p1→p2, p2→p1, …` (self-loops
/// hidden), the compact notation the F1 binary (`fig1`) prints.
pub fn digraph_to_ascii(g: &Digraph) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (u, v) in g.edges() {
        if u != v {
            parts.push(format!("{u}→{v}"));
        }
    }
    if parts.is_empty() {
        "(no edges)".to_owned()
    } else {
        parts.join(", ")
    }
}

/// One-line ASCII summary of a labelled digraph: `p2--1->p6, …`.
pub fn labeled_to_ascii(g: &LabeledDigraph) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (u, v, l) in g.edges() {
        if u != v {
            parts.push(format!("{u}--{l}->{v}"));
        }
    }
    if parts.is_empty() {
        format!("nodes {} (no edges)", g.nodes())
    } else {
        format!("nodes {}: {}", g.nodes(), parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from_usize(i)
    }

    #[test]
    fn dot_contains_edges_and_header() {
        let mut g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        g.add_self_loops();
        let dot = digraph_to_dot(&g, &DotOptions::default());
        assert!(dot.starts_with("digraph G {"));
        assert!(dot.contains("p1 -> p2;"));
        assert!(dot.contains("p2 -> p3;"));
        // self-loops hidden by default
        assert!(!dot.contains("p1 -> p1"));
    }

    #[test]
    fn dot_can_show_self_loops() {
        let mut g = Digraph::empty(2);
        g.add_self_loops();
        let opts = DotOptions {
            hide_self_loops: false,
            ..DotOptions::default()
        };
        let dot = digraph_to_dot(&g, &opts);
        assert!(dot.contains("p1 -> p1;"));
    }

    #[test]
    fn labeled_dot_carries_round_labels() {
        let mut g = LabeledDigraph::new(6);
        g.set_edge_max(p(1), p(5), 1);
        let dot = labeled_to_dot(&g, &DotOptions::default());
        assert!(dot.contains("p2 -> p6 [label=\"1\"];"));
    }

    #[test]
    fn ascii_round_trips_edges() {
        let g = Digraph::from_edges(3, [(0, 1), (2, 0)]);
        assert_eq!(digraph_to_ascii(&g), "p1→p2, p3→p1");
        assert_eq!(digraph_to_ascii(&Digraph::empty(2)), "(no edges)");
        let mut lg = LabeledDigraph::new(3);
        lg.set_edge_max(p(0), p(1), 4);
        assert_eq!(labeled_to_ascii(&lg), "nodes {p1, p2}: p1--4->p2");
    }

    #[test]
    fn restrict_to_filters_nodes() {
        let g = Digraph::from_edges(4, [(0, 1), (2, 3)]);
        let opts = DotOptions {
            restrict_to: Some(ProcessSet::from_indices(4, [0, 1])),
            ..DotOptions::default()
        };
        let dot = digraph_to_dot(&g, &opts);
        assert!(dot.contains("p1 -> p2;"));
        assert!(!dot.contains("p3 -> p4;"));
    }
}
