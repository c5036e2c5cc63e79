//! Structural netlist extraction and Graphviz export.
//!
//! A built [`Circuit`] knows every channel's driver and reader; this
//! module turns that into an inspectable graph — render it with
//! `dot -Tsvg` to *see* the elaborated elastic circuit.

use std::fmt::Write as _;

use crate::circuit::Circuit;
use crate::component::FusedOpKind;
use crate::token::Token;

/// One channel edge of the netlist.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetlistEdge {
    /// Channel name.
    pub channel: String,
    /// Thread count of the channel.
    pub threads: usize,
    /// Driving component (index into [`NetlistGraph::components`]).
    pub from: usize,
    /// Reading component (index into [`NetlistGraph::components`]).
    pub to: usize,
}

/// The extracted component/channel graph of a circuit.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NetlistGraph {
    /// Component instance names, in evaluation order.
    pub components: Vec<String>,
    /// Op class of each component (same order as
    /// [`components`](NetlistGraph::components)).
    pub kinds: Vec<FusedOpKind>,
    /// Channel edges.
    pub edges: Vec<NetlistEdge>,
}

impl NetlistGraph {
    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether the graph contains a directed cycle (a feedback loop
    /// through the datapath — legal in elastic circuits when cut by
    /// buffers, but worth knowing about).
    pub fn has_cycle(&self) -> bool {
        // Iterative DFS with colors.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.components.len();
        let mut adj = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.from].push(e.to);
        }
        let mut color = vec![Color::White; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // (node, next child index)
            let mut stack = vec![(start, 0usize)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if *child < adj[node].len() {
                    let next = adj[node][*child];
                    *child += 1;
                    match color[next] {
                        Color::Gray => return true,
                        Color::White => {
                            color[next] = Color::Gray;
                            stack.push((next, 0));
                        }
                        Color::Black => {}
                    }
                } else {
                    color[node] = Color::Black;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Renders the graph in Graphviz DOT syntax. Multithreaded channels
    /// are labelled with their thread count; node shapes follow
    /// [`FusedOpKind::dot_shape`] (buffers as cylinders, routing as
    /// diamonds, barriers as octagons, endpoints as ellipses).
    pub fn to_dot(&self) -> String {
        self.to_dot_styled(&[])
    }

    /// [`to_dot`](Self::to_dot) with extra per-node attributes: each
    /// `(component name, attributes)` pair appends `attributes` verbatim
    /// to that node's attribute list (e.g. `("buf", "color=green,
    /// penwidth=2")`). Names with no entry render as in `to_dot`; pass
    /// highlighting (`elastic-synth`'s `dot_with_deltas`) uses this to
    /// colour inserted/resized/moved buffers.
    pub fn to_dot_styled(&self, styles: &[(String, String)]) -> String {
        let mut out = String::from(
            "digraph elastic {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n",
        );
        for (i, name) in self.components.iter().enumerate() {
            let kind = self.kinds.get(i).copied().unwrap_or(FusedOpKind::Custom);
            let shape = kind.dot_shape();
            let mut attrs = format!("label=\"{}\"", name.replace('"', "'"));
            if shape != "box" {
                let _ = write!(attrs, ", shape={shape}");
            }
            if let Some((_, extra)) = styles.iter().find(|(n, _)| n == name) {
                let _ = write!(attrs, ", {extra}");
            }
            let _ = writeln!(out, "  n{i} [{attrs}];");
        }
        for e in &self.edges {
            let label = if e.threads > 1 {
                format!("{} ({}t)", e.channel, e.threads)
            } else {
                e.channel.clone()
            };
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}\"];",
                e.from,
                e.to,
                label.replace('"', "'")
            );
        }
        out.push_str("}\n");
        out
    }
}

impl std::fmt::Display for NetlistGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "netlist: {} components, {} channels{}",
            self.component_count(),
            self.channel_count(),
            if self.has_cycle() {
                " (contains feedback)"
            } else {
                ""
            }
        )?;
        for e in &self.edges {
            writeln!(
                f,
                "  {} --[{} x{}]--> {}",
                self.components[e.from], e.channel, e.threads, self.components[e.to]
            )?;
        }
        Ok(())
    }
}

impl<T: Token> Circuit<T> {
    /// Extracts the structural netlist of this circuit.
    pub fn netlist(&self) -> NetlistGraph {
        let components = self.component_names();
        let kinds = self.op_kinds.clone();
        let edges = self
            .channel_ids()
            .into_iter()
            .map(|ch| NetlistEdge {
                channel: self.channel_name(ch).to_string(),
                threads: self.channel_threads(ch),
                from: self.channel_driver(ch),
                to: self.channel_reader(ch),
            })
            .collect();
        NetlistGraph {
            components,
            kinds,
            edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::schedule::{ReadyPolicy, Sink, Source};
    use crate::varlat::Transform;

    fn pipeline() -> Circuit<u64> {
        let mut b = CircuitBuilder::<u64>::new();
        let a = b.channel("a", 2);
        let c = b.channel("c", 2);
        let mut src = Source::new("src", a, 2);
        src.push(0, 1);
        b.add(src);
        b.add(Transform::new("double", a, c, 2, |x| x * 2));
        b.add(Sink::new("snk", c, 2, ReadyPolicy::Always));
        b.build().expect("valid")
    }

    #[test]
    fn netlist_extracts_components_and_edges() {
        let g = pipeline().netlist();
        assert_eq!(g.component_count(), 3);
        assert_eq!(g.channel_count(), 2);
        // Rank order, not insertion order: the sink has no combinational
        // paths so it evaluates first; src and the pass-through transform
        // form one SCC (src's damped ready→valid closes their loop) and
        // keep their relative insertion order at the next level.
        assert_eq!(g.components, vec!["snk", "src", "double"]);
        // `a`: src → double, `c`: double → snk. src drives one channel and
        // reads none; snk reads one and drives none.
        let ends: Vec<(usize, usize)> = g.edges.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(ends, vec![(1, 2), (2, 0)]);
        assert!(!g.has_cycle());
    }

    #[test]
    fn dot_output_is_wellformed() {
        let dot = pipeline().netlist().to_dot();
        assert!(dot.starts_with("digraph elastic {"));
        assert!(dot.contains("n1 -> n2"), "src feeds the transform:\n{dot}");
        assert!(dot.contains("(2t)"), "{dot}");
        // Endpoints (src/snk) render as ellipses via their declared kind.
        assert!(dot.contains("shape=ellipse"), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn styled_dot_appends_node_attributes() {
        let styles = vec![("double".to_string(), "color=orange, penwidth=2".to_string())];
        let g = pipeline().netlist();
        let dot = g.to_dot_styled(&styles);
        assert!(
            dot.contains("label=\"double\", color=orange, penwidth=2"),
            "{dot}"
        );
        assert!(!dot.contains("label=\"src\", color"), "{dot}");
        // No styles renders byte-identically to the plain form.
        assert_eq!(g.to_dot_styled(&[]), g.to_dot());
    }

    #[test]
    fn netlist_kinds_follow_component_declarations() {
        let g = pipeline().netlist();
        // Rank order: 0 = snk, 1 = src, 2 = double.
        assert_eq!(
            g.kinds,
            vec![
                FusedOpKind::Sink,
                FusedOpKind::Source,
                FusedOpKind::Transform
            ]
        );
    }

    #[test]
    fn cycle_detection_finds_feedback() {
        // Manually constructed graph with a loop.
        let g = NetlistGraph {
            components: vec!["a".into(), "b".into(), "c".into()],
            kinds: vec![FusedOpKind::Custom; 3],
            edges: vec![
                NetlistEdge {
                    channel: "x".into(),
                    threads: 1,
                    from: 0,
                    to: 1,
                },
                NetlistEdge {
                    channel: "y".into(),
                    threads: 1,
                    from: 1,
                    to: 2,
                },
                NetlistEdge {
                    channel: "z".into(),
                    threads: 1,
                    from: 2,
                    to: 1,
                },
            ],
        };
        assert!(g.has_cycle());
        assert!(g.to_string().contains("feedback"));
    }

    #[test]
    fn display_lists_edges() {
        let text = pipeline().netlist().to_string();
        assert!(text.contains("src --[a x2]--> double"));
    }
}
