//! Call graphs (Figure 5): nodes are ecalls/ocalls, solid edges are direct
//! parent relationships, dashed edges indirect parents, edge labels carry
//! call counts.

use std::fmt::{self, Write};

use crate::events::{CallKind, CallRef};

use super::parents::{CallId, Instances};

/// One node of the call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphNode {
    /// The call.
    pub call: CallRef,
    /// Its symbol name.
    pub name: String,
    /// How many times it executed.
    pub count: usize,
}

/// One edge of the call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphEdge {
    /// Source call (the parent).
    pub from: CallRef,
    /// Destination call (the child).
    pub to: CallRef,
    /// Number of observed parent→child occurrences.
    pub count: usize,
    /// `false` for direct-parent (solid) edges, `true` for indirect-parent
    /// (dashed) edges.
    pub indirect: bool,
}

/// The assembled call graph of a trace.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// All nodes, sorted by call.
    pub nodes: Vec<GraphNode>,
    /// All edges, sorted by (from, to, indirect).
    pub edges: Vec<GraphEdge>,
}

impl CallGraph {
    /// Builds the graph from the instance view.
    pub fn build(instances: &Instances) -> CallGraph {
        let ids = instances.ids();
        let mut direct: Vec<(CallId, CallId)> = Vec::new();
        let mut indirect: Vec<(CallId, CallId)> = Vec::new();
        for (idx, i) in instances.all.iter().enumerate() {
            if let Some((kind, row)) = i.direct_parent {
                if let Some(p) = instances.position(kind, row) {
                    direct.push((ids[p], ids[idx]));
                }
            }
            if let Some(p) = i.indirect_parent {
                indirect.push((ids[p], ids[idx]));
            }
        }
        let table = instances.table();
        let nodes = instances
            .call_ids()
            .map(|id| GraphNode {
                call: table.call(id),
                name: table.name(id).into_owned(),
                count: instances.members(id).len(),
            })
            .collect();
        // Count each (parent, child) pair by sorting; call numbers sort
        // like the calls they stand for.
        let mut edges: Vec<GraphEdge> = Vec::new();
        for (mut pairs, indirect) in [(direct, false), (indirect, true)] {
            pairs.sort_unstable();
            edges.extend(pairs.chunk_by(|a, b| a == b).map(|run| GraphEdge {
                from: table.call(run[0].0),
                to: table.call(run[0].1),
                count: run.len(),
                indirect,
            }));
        }
        edges.sort_by_key(|e| (e.from, e.to, e.indirect));
        CallGraph { nodes, edges }
    }

    /// Renders the graph in Graphviz DOT: square nodes for ecalls, round
    /// nodes for ocalls, solid edges for direct parents, dashed for
    /// indirect parents — the exact conventions of Figure 5. Symbol names
    /// come from the trace, so `"` and `\` in them are escaped.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph calls {\n  rankdir=TB;\n");
        // Writing into a `String` cannot fail.
        for n in &self.nodes {
            let shape = match n.call.kind {
                CallKind::Ecall => "box",
                CallKind::Ocall => "ellipse",
            };
            let _ = writeln!(
                out,
                "  \"{}\" [shape={shape}, label=\"[{}] {}\"];",
                NodeId(n.call),
                n.call.index,
                Escaped(&n.name)
            );
        }
        for e in &self.edges {
            let style = if e.indirect { ", style=dashed" } else { "" };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\"{style}];",
                NodeId(e.from),
                NodeId(e.to),
                e.count
            );
        }
        out.push_str("}\n");
        out
    }

    /// Total number of direct edges.
    pub fn direct_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| !e.indirect).count()
    }
}

/// A call's DOT node id, such as `e1_ec0`.
struct NodeId(CallRef);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.0.kind {
            CallKind::Ecall => "ec",
            CallKind::Ocall => "oc",
        };
        write!(f, "e{}_{kind}{}", self.0.enclave, self.0.index)
    }
}

/// Text for the inside of a DOT quoted string: `"` and `\` get a
/// backslash, everything else is written as it is.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(at) = rest.find(['"', '\\']) {
            f.write_str(&rest[..at])?;
            f.write_char('\\')?;
            f.write_str(&rest[at..=at])?;
            rest = &rest[at + 1..];
        }
        f.write_str(rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EcallRow, OcallRow, SymbolRow};
    use crate::trace::TraceDb;
    use sim_core::HwProfile;

    fn sample_trace() -> TraceDb {
        named_trace("ecall_read", "ocall_io")
    }

    fn named_trace(ecall: &str, ocall: &str) -> TraceDb {
        let mut trace = TraceDb::default();
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: true,
            index: 0,
            name: ecall.into(),
            public: true,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        trace.symbols.insert(SymbolRow {
            enclave: 1,
            kind_is_ecall: false,
            index: 0,
            name: ocall.into(),
            public: false,
            allowed_ecalls: vec![],
            user_check_params: vec![],
        });
        for k in 0..3u64 {
            trace.ecalls.insert(EcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: k * 100,
                end_ns: k * 100 + 80,
                parent_ocall: None,
                aex_count: 0,
                failed: false,
            });
            trace.ocalls.insert(OcallRow {
                thread: 0,
                enclave: 1,
                call_index: 0,
                start_ns: k * 100 + 10,
                end_ns: k * 100 + 50,
                parent_ecall: Some(k),
                failed: false,
            });
        }
        trace
    }

    #[test]
    fn graph_counts_nodes_and_edges() {
        let trace = sample_trace();
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let graph = CallGraph::build(&inst);
        assert_eq!(graph.nodes.len(), 2);
        let ecall_node = graph
            .nodes
            .iter()
            .find(|n| n.call.kind == CallKind::Ecall)
            .unwrap();
        assert_eq!(ecall_node.count, 3);
        // One direct edge ecall→ocall (count 3) and one dashed indirect
        // edge ecall→ecall (count 2).
        let direct = graph.edges.iter().find(|e| !e.indirect).unwrap();
        assert_eq!(direct.count, 3);
        assert_eq!(direct.from.kind, CallKind::Ecall);
        assert_eq!(direct.to.kind, CallKind::Ocall);
        let indirect = graph.edges.iter().find(|e| e.indirect).unwrap();
        assert_eq!(indirect.count, 2);
        assert_eq!(graph.direct_edge_count(), 1);
    }

    #[test]
    fn dot_uses_figure5_conventions() {
        let trace = sample_trace();
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let dot = CallGraph::build(&inst).to_dot();
        assert!(dot.contains("shape=box"), "{dot}");
        assert!(dot.contains("shape=ellipse"), "{dot}");
        assert!(dot.contains("style=dashed"), "{dot}");
        assert!(dot.contains("[0] ecall_read"), "{dot}");
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn dot_escapes_quotes_and_backslashes_in_names() {
        let trace = named_trace("say \"hi\"", "dir\\");
        let inst = Instances::build(&trace, &HwProfile::Unpatched.cost_model());
        let dot = CallGraph::build(&inst).to_dot();
        assert!(dot.contains(r#"label="[0] say \"hi\""];"#), "{dot}");
        assert!(dot.contains(r#"label="[0] dir\\"];"#), "{dot}");
        // Every quoted string closes: the unescaped quotes pair up.
        for line in dot.lines() {
            let (mut quotes, mut escaped) = (0, false);
            for c in line.chars() {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => quotes += 1,
                    _ => {}
                }
            }
            assert_eq!(quotes % 2, 0, "{line}");
        }
    }
}
