//! Build-time levelized rank schedule for the settle loop.
//!
//! The elastic protocol guarantees that between sequential boundaries
//! (EB/MEB registers) the combinational forward (`valid`/`data`) and
//! backward (`ready`) networks form a DAG — that is what makes
//! latency-insensitive synthesis legal in the first place (paper Sec. III;
//! Cortadella et al., DAC 2006). This module exploits the guarantee at
//! `build()` time instead of paying for it at runtime:
//!
//! 1. Every component declares its combinational paths
//!    ([`Component::comb_paths`]); the declarations are assembled into a
//!    **signal-level dependency graph** with two nodes per channel —
//!    `valid`/`data` (forward) and `ready` (backward).
//! 2. Tarjan SCC over the *strict* (undamped) edges rejects true
//!    combinational cycles with a named
//!    [`BuildError::CombinationalLoop`] — the runtime iteration cap is no
//!    longer the detector, just a safety net for damped hysteretic loops.
//! 3. Tarjan SCC over *all* edges marks `feedback` channels (those whose
//!    `valid` and `ready` take part in one combinational cycle); only
//!    those channels keep the arbiters' anti-swap guards, and only there
//!    does a signal change re-wake the component that wrote it — and
//!    only if that component declared a damped arc, because only a
//!    hysteretic `eval` reads a signal it drives.
//! 4. The component-level condensation of the graph is levelized, and the
//!    evaluation order is permuted to rank order: every component is
//!    evaluated after everything it combinationally depends on, so the
//!    round-1 full sweep settles almost every cycle in exactly one pass.

use crate::channel::ChannelSpec;
use crate::component::{CombPath, Component, Ports};
use crate::error::BuildError;
use crate::token::Token;

/// A directed graph over nodes `0..n` in compressed sparse row form:
/// every node's successors in one slice of a single edge array, in the
/// order their edges were given. Two allocations per graph, however many
/// nodes and edges it has.
///
/// ```
/// use elastic_sim::Adjacency;
///
/// let edges = [(2, 0), (0, 1), (2, 1), (0, 2)];
/// let g = Adjacency::new(3, || edges.iter().copied());
/// assert_eq!(g.successors(0), [1, 2]);
/// assert!(g.successors(1).is_empty());
/// assert_eq!(g.successors(2), [0, 1]);
/// ```
#[derive(Debug)]
pub struct Adjacency {
    /// `succ[start[v]..start[v + 1]]` are the successors of `v`.
    start: Vec<usize>,
    succ: Vec<usize>,
}

impl Adjacency {
    /// The graph over nodes `0..n` with the edges `edges()` yields, as
    /// `(from, to)` pairs. `edges` is called twice, to count and then to
    /// place, and must yield the same edges both times.
    ///
    /// # Panics
    ///
    /// Panics if an edge leaves a node `>= n`.
    pub fn new<I: Iterator<Item = (usize, usize)>>(n: usize, edges: impl Fn() -> I) -> Self {
        let mut start = vec![0usize; n + 1];
        for (u, _) in edges() {
            start[u + 1] += 1;
        }
        for v in 1..=n {
            start[v] += start[v - 1];
        }
        let mut succ = vec![0usize; start[n]];
        for (u, v) in edges() {
            succ[start[u]] = v;
            start[u] += 1;
        }
        // Each cursor now sits where the next node's edges start.
        start.copy_within(0..n, 1);
        start[0] = 0;
        Self { start, succ }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.start.len() - 1
    }

    /// The successors of `v`, in edge order.
    pub fn successors(&self, v: usize) -> &[usize] {
        &self.succ[self.start[v]..self.start[v + 1]]
    }
}

/// The static schedule computed at build time.
#[derive(Debug)]
pub(crate) struct Schedule {
    /// `order[k]` is the insertion index of the k-th component to
    /// evaluate.
    pub order: Vec<usize>,
    /// Per-channel: the reader declared a path triggered by this
    /// channel's `valid`/`data` — a change must wake it.
    pub listen_valid: Vec<bool>,
    /// Per-channel: the driver declared a path triggered by this
    /// channel's `ready` — a change must wake it.
    pub listen_ready: Vec<bool>,
    /// Per-channel: `valid` and `ready` belong to one combinational SCC,
    /// so hysteretic selection on it must keep its anti-swap guard.
    pub feedback: Vec<bool>,
    /// Per-channel: a `valid`/`data` change re-wakes the channel's
    /// driver — the channel is `feedback` and the driver declared a
    /// damped arc, so its `eval` reads what it drives.
    pub self_wake_valid: Vec<bool>,
    /// Per-channel: a `ready` change re-wakes the channel's reader (the
    /// same rule, for the reader).
    pub self_wake_ready: Vec<bool>,
    /// Largest number of components sharing one rank level.
    pub rank_width: u64,
}

/// One edge of the signal-level dependency graph.
struct SigEdge {
    from: usize,
    to: usize,
    damped: bool,
    /// Insertion index of the component whose eval implements the path.
    owner: usize,
}

/// Signal-node encoding: two nodes per channel.
#[inline]
fn v_node(ch: usize) -> usize {
    2 * ch
}
#[inline]
fn r_node(ch: usize) -> usize {
    2 * ch + 1
}

/// Iterative Tarjan SCC. Returns the SCC id of every node; ids are
/// assigned in emission order, which for Tarjan is reverse topological:
/// if an edge `a -> b` crosses SCCs then `scc[b] < scc[a]`.
fn tarjan(adj: &Adjacency) -> (Vec<usize>, usize) {
    const UNSET: usize = usize::MAX;
    let n = adj.node_count();
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut scc = vec![UNSET; n];
    let mut stack: Vec<usize> = Vec::with_capacity(n);
    let mut work: Vec<(usize, usize)> = Vec::with_capacity(n);
    let mut next = 0usize;
    let mut count = 0usize;
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        work.push((start, 0));
        while let Some(frame) = work.last_mut() {
            let (v, ci) = (frame.0, frame.1);
            if ci == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj.successors(v).get(ci) {
                frame.1 += 1;
                if index[w] == UNSET {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(p, _)) = work.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        scc[w] = count;
                        if w == v {
                            break;
                        }
                    }
                    count += 1;
                }
            }
        }
    }
    (scc, count)
}

/// Collects and validates every component's combinational-path
/// declarations into signal-graph edges.
fn collect_edges<T: Token>(
    components: &[Box<dyn Component<T>>],
    ports: &[Ports],
    specs: &[ChannelSpec],
) -> Result<Vec<SigEdge>, BuildError> {
    let mut edges = Vec::new();
    for (i, (comp, ports)) in components.iter().zip(ports).enumerate() {
        let bad = |ch: crate::channel::ChannelId| BuildError::InvalidCombPath {
            component: comp.name().to_string(),
            channel: specs
                .get(ch.index())
                .map_or_else(|| format!("#{}", ch.index()), |s| s.name.clone()),
        };
        for path in comp.comb_paths() {
            let (from, to, damped) = match path {
                CombPath::ValidToValid { from, to } => {
                    if !ports.inputs.contains(&from) || !ports.outputs.contains(&to) {
                        return Err(bad(if ports.inputs.contains(&from) {
                            to
                        } else {
                            from
                        }));
                    }
                    (v_node(from.index()), v_node(to.index()), false)
                }
                CombPath::ValidToReady { from, to } => {
                    if !ports.inputs.contains(&from) || !ports.inputs.contains(&to) {
                        return Err(bad(if ports.inputs.contains(&from) {
                            to
                        } else {
                            from
                        }));
                    }
                    (v_node(from.index()), r_node(to.index()), false)
                }
                CombPath::ReadyToValid { from, to, damped } => {
                    if !ports.outputs.contains(&from) || !ports.outputs.contains(&to) {
                        return Err(bad(if ports.outputs.contains(&from) {
                            to
                        } else {
                            from
                        }));
                    }
                    (r_node(from.index()), v_node(to.index()), damped)
                }
                CombPath::ReadyToReady { from, to } => {
                    if !ports.outputs.contains(&from) || !ports.inputs.contains(&to) {
                        return Err(bad(if ports.outputs.contains(&from) {
                            to
                        } else {
                            from
                        }));
                    }
                    (r_node(from.index()), r_node(to.index()), false)
                }
            };
            edges.push(SigEdge {
                from,
                to,
                damped,
                owner: i,
            });
        }
    }
    Ok(edges)
}

/// Computes the rank schedule for a validated netlist.
///
/// `ports[i]` is component `i`'s [`Component::ports`], and `driver[ch]` /
/// `reader[ch]` are insertion-order component indices (the builder
/// resolves them before calling this); the returned [`Schedule::order`]
/// is likewise in insertion indices — the builder applies the
/// permutation.
pub(crate) fn compute_schedule<T: Token>(
    components: &[Box<dyn Component<T>>],
    ports: &[Ports],
    specs: &[ChannelSpec],
    driver: &[usize],
    reader: &[usize],
) -> Result<Schedule, BuildError> {
    let n = components.len();
    let n_ch = specs.len();
    let edges = collect_edges(components, ports, specs)?;

    // 1. Reject all-strict cycles: any cycle in the strict-edge subgraph
    // can never settle, regardless of evaluation order. Cycles that pass
    // through at least one damped (hysteretic) path converge under the
    // runtime iteration cap and stay legal.
    let strict_adj = Adjacency::new(2 * n_ch, || {
        edges.iter().filter(|e| !e.damped).map(|e| (e.from, e.to))
    });
    let (strict_scc, strict_count) = tarjan(&strict_adj);
    let mut scc_size = vec![0usize; strict_count];
    for &s in &strict_scc {
        scc_size[s] += 1;
    }
    let cyclic_scc = (0..strict_count).find(|&s| {
        scc_size[s] > 1
            || edges
                .iter()
                .any(|e| !e.damped && e.from == e.to && strict_scc[e.from] == s)
    });
    if let Some(s) = cyclic_scc {
        // Name the components whose declared paths form the cycle, in
        // insertion order, deduplicated.
        let mut owners: Vec<usize> = edges
            .iter()
            .filter(|e| !e.damped && strict_scc[e.from] == s && strict_scc[e.to] == s)
            .map(|e| e.owner)
            .collect();
        owners.sort_unstable();
        owners.dedup();
        return Err(BuildError::CombinationalLoop {
            components: owners
                .into_iter()
                .map(|i| components[i].name().to_string())
                .collect(),
        });
    }

    // 2. Feedback channels: valid and ready of the channel share an SCC
    // of the full (strict + damped) signal graph. Such a channel is part
    // of a legal hysteretic loop — its selection guards, and the
    // self-wake of a damped writer (step 3), must stay active.
    let (full_scc, _) = tarjan(&Adjacency::new(2 * n_ch, || {
        edges.iter().map(|e| (e.from, e.to))
    }));
    let feedback: Vec<bool> = (0..n_ch)
        .map(|ch| full_scc[v_node(ch)] == full_scc[r_node(ch)])
        .collect();

    // 3. Wake-map narrowing: a signal change only needs to wake a
    // component that declared a path triggered by that signal.
    let mut listen_valid = vec![false; n_ch];
    let mut listen_ready = vec![false; n_ch];
    let mut damped_owner = vec![false; n];
    for e in &edges {
        if e.from % 2 == 0 {
            listen_valid[e.from / 2] = true;
        } else {
            listen_ready[e.from / 2] = true;
        }
        damped_owner[e.owner] |= e.damped;
    }
    // Self-wake only where an `eval` may read what it drives: on a
    // feedback channel, for a writer that declared a damped arc.
    let self_wake_valid = (0..n_ch)
        .map(|ch| feedback[ch] && damped_owner[driver[ch]])
        .collect();
    let self_wake_ready = (0..n_ch)
        .map(|ch| feedback[ch] && damped_owner[reader[ch]])
        .collect();

    // 4. Component-level levelization. An edge `a -> b` means component
    // b's eval reads a signal that component a drives, so a must come
    // first: the trigger of a forward (`valid`) path is driven by the
    // channel's driver, of a backward (`ready`) path by its reader.
    let comp_adj = Adjacency::new(n, || {
        edges.iter().filter_map(|e| {
            let ch = e.from / 2;
            let src = if e.from % 2 == 0 {
                driver[ch]
            } else {
                reader[ch]
            };
            (src != e.owner).then_some((src, e.owner))
        })
    });
    let (comp_scc, comp_count) = tarjan(&comp_adj);
    let (adj, scc) = (&comp_adj, &comp_scc);
    let cond = Adjacency::new(comp_count, || {
        (0..n)
            .flat_map(move |a| adj.successors(a).iter().map(move |&b| (scc[a], scc[b])))
            .filter(|&(sa, sb)| sa != sb)
    });
    // Tarjan emits SCCs in reverse topological order, so iterating ids
    // from high to low visits every dependency source before its targets.
    let mut level = vec![0usize; comp_count];
    for s in (0..comp_count).rev() {
        for &d in cond.successors(s) {
            level[d] = level[d].max(level[s] + 1);
        }
    }
    let comp_level: Vec<usize> = (0..n).map(|i| level[comp_scc[i]]).collect();
    let mut width = vec![0u64; comp_level.iter().map(|&l| l + 1).max().unwrap_or(1)];
    for &l in &comp_level {
        width[l] += 1;
    }
    let rank_width = width.into_iter().max().unwrap_or(1);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (comp_level[i], i));

    Ok(Schedule {
        order,
        listen_valid,
        listen_ready,
        feedback,
        self_wake_valid,
        self_wake_ready,
        rank_width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelId;
    use crate::circuit::{EvalCtx, TickCtx};

    /// A declaration-only component for schedule tests.
    struct Decl {
        name: String,
        ports: Ports,
        paths: Vec<CombPath>,
    }

    impl Component<u64> for Decl {
        fn name(&self) -> &str {
            &self.name
        }
        fn ports(&self) -> Ports {
            self.ports.clone()
        }
        fn comb_paths(&self) -> Vec<CombPath> {
            self.paths.clone()
        }
        fn eval(&mut self, _ctx: &mut EvalCtx<'_, u64>) {}
        fn tick(&mut self, _ctx: &TickCtx<'_, u64>) {}
        crate::impl_as_any!();
    }

    fn decl(
        name: &str,
        inputs: Vec<ChannelId>,
        outputs: Vec<ChannelId>,
        paths: Vec<CombPath>,
    ) -> Box<dyn Component<u64>> {
        Box::new(Decl {
            name: name.into(),
            ports: Ports { inputs, outputs },
            paths,
        })
    }

    /// The schedule of `comps` over `n_ch` one-thread channels `ch0`, `ch1`, ….
    fn schedule(
        comps: &[Box<dyn Component<u64>>],
        n_ch: usize,
        driver: &[usize],
        reader: &[usize],
    ) -> Result<Schedule, BuildError> {
        let specs: Vec<ChannelSpec> = (0..n_ch)
            .map(|i| ChannelSpec {
                name: format!("ch{i}"),
                threads: 1,
            })
            .collect();
        let ports: Vec<Ports> = comps.iter().map(|c| c.ports()).collect();
        compute_schedule(comps, &ports, &specs, driver, reader)
    }

    /// src -(a)-> buf -(b)-> snk, where buf registers both directions
    /// (an EB): the schedule is a pure chain ranked sink-to-source for
    /// the backward signals only where declared.
    #[test]
    fn registered_pipeline_ranks_consumers_first() {
        let a = ChannelId(0);
        let b = ChannelId(1);
        let comps = vec![
            // src reads ready(a) to pick what to offer (damped, like Source).
            decl(
                "src",
                vec![],
                vec![a],
                vec![CombPath::ReadyToValid {
                    from: a,
                    to: a,
                    damped: true,
                }],
            ),
            // buf cuts every path (an EB) but still listens on ready(b).
            decl(
                "buf",
                vec![a],
                vec![b],
                vec![CombPath::ReadyToValid {
                    from: b,
                    to: b,
                    damped: true,
                }],
            ),
            decl("snk", vec![b], vec![], vec![]),
        ];
        let s = schedule(&comps, 2, &[0, 1], &[1, 2]).expect("acyclic");
        // Dependencies: snk drives ready(b) -> buf; buf drives ready(a) -> src.
        assert_eq!(s.order, vec![2, 1, 0]);
        assert_eq!(s.rank_width, 1);
        assert_eq!(s.feedback, vec![false, false]);
        assert_eq!(s.self_wake_valid, vec![false, false]);
        assert_eq!(s.self_wake_ready, vec![false, false]);
        assert_eq!(s.listen_valid, vec![false, false]);
        assert_eq!(s.listen_ready, vec![true, true]);
    }

    /// Two pass-through stages wired in a ring: valid chases valid around
    /// the loop with no register and no damping — rejected, both names
    /// reported in insertion order.
    #[test]
    fn strict_ring_is_rejected_with_names() {
        let a = ChannelId(0);
        let b = ChannelId(1);
        let passthrough = |name: &str, inp: ChannelId, out: ChannelId| {
            decl(
                name,
                vec![inp],
                vec![out],
                vec![
                    CombPath::ValidToValid { from: inp, to: out },
                    CombPath::ReadyToReady { from: out, to: inp },
                ],
            )
        };
        let comps = vec![passthrough("t1", a, b), passthrough("t2", b, a)];
        let err = schedule(&comps, 2, &[1, 0], &[0, 1]).expect_err("strict ring");
        assert_eq!(
            err,
            BuildError::CombinationalLoop {
                components: vec!["t1".into(), "t2".into()],
            }
        );
    }

    /// The same ring with one damped edge converges under hysteresis:
    /// legal, and every channel on the cycle is marked feedback.
    #[test]
    fn damped_cycle_is_legal_and_marks_feedback() {
        let a = ChannelId(0);
        let b = ChannelId(1);
        let comps = vec![
            decl(
                "sel",
                vec![a],
                vec![b],
                vec![
                    CombPath::ReadyToValid {
                        from: b,
                        to: b,
                        damped: true,
                    },
                    CombPath::ValidToReady { from: a, to: a },
                ],
            ),
            decl(
                "join",
                vec![b],
                vec![a],
                vec![
                    CombPath::ValidToValid { from: b, to: a },
                    CombPath::ReadyToReady { from: a, to: b },
                ],
            ),
        ];
        let s = schedule(&comps, 2, &[1, 0], &[0, 1]).expect("damped cycle is legal");
        // R(b) -> V(b) (damped) -> V(a) -> R(a) -> R(b): one SCC touching
        // both signals of both channels.
        assert_eq!(s.feedback, vec![true, true]);
        // Only `sel` declared a damped arc, so only its writes re-wake
        // the writer: `valid(b)`, which it drives, and `ready(a)`, which
        // it asserts. `join`'s writes never wake `join`.
        assert_eq!(s.self_wake_valid, vec![false, true]);
        assert_eq!(s.self_wake_ready, vec![true, false]);
        // Both components sit in one component-level SCC: same rank, kept
        // in insertion order.
        assert_eq!(s.order, vec![0, 1]);
        assert_eq!(s.rank_width, 2);
    }

    /// A strict sub-cycle hidden inside a larger SCC that also contains
    /// damped edges must still be rejected: legality is a property of the
    /// strict subgraph, not of whole mixed SCCs.
    #[test]
    fn strict_subcycle_inside_damped_scc_is_rejected() {
        let a = ChannelId(0);
        let b = ChannelId(1);
        let comps = vec![
            decl(
                "t1",
                vec![a],
                vec![b],
                vec![
                    CombPath::ValidToValid { from: a, to: b },
                    // A damped self path that merges into the same SCC.
                    CombPath::ReadyToValid {
                        from: b,
                        to: b,
                        damped: true,
                    },
                ],
            ),
            decl(
                "t2",
                vec![b],
                vec![a],
                vec![
                    CombPath::ValidToValid { from: b, to: a },
                    CombPath::ReadyToReady { from: a, to: b },
                ],
            ),
        ];
        let err = schedule(&comps, 2, &[1, 0], &[0, 1])
            .expect_err("strict V-ring survives damping elsewhere");
        match err {
            BuildError::CombinationalLoop { components } => {
                assert_eq!(components, vec!["t1".to_string(), "t2".to_string()]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn misdeclared_path_is_rejected() {
        let a = ChannelId(0);
        let comps = vec![
            decl(
                "src",
                vec![],
                vec![a],
                // Claims a valid trigger on a channel it does not read.
                vec![CombPath::ValidToValid { from: a, to: a }],
            ),
            decl("snk", vec![a], vec![], vec![]),
        ];
        let err = schedule(&comps, 1, &[0], &[1]).expect_err("bad declaration");
        assert_eq!(
            err,
            BuildError::InvalidCombPath {
                component: "src".into(),
                channel: "ch0".into(),
            }
        );
    }

    /// A diamond gives parallel ranks: the two middle components share a
    /// level, so the rank width is 2.
    #[test]
    fn diamond_rank_width_is_two() {
        let (a, b, c, d) = (ChannelId(0), ChannelId(1), ChannelId(2), ChannelId(3));
        let pass = |name: &str, inp: ChannelId, out: ChannelId| {
            decl(
                name,
                vec![inp],
                vec![out],
                vec![CombPath::ReadyToReady { from: out, to: inp }],
            )
        };
        let comps = vec![
            decl("fork", vec![], vec![a, b], vec![]),
            pass("l", a, c),
            pass("r", b, d),
            decl("join", vec![c, d], vec![], vec![]),
        ];
        let s = schedule(&comps, 4, &[0, 0, 1, 2], &[1, 2, 3, 3]).expect("acyclic");
        // join drives ready(c)/ready(d) -> l and r depend on it; fork has
        // no declared reads at all.
        assert_eq!(s.rank_width, 2);
        let pos = |n: usize| s.order.iter().position(|&i| i == n).unwrap();
        assert!(pos(3) < pos(1), "join before l");
        assert!(pos(3) < pos(2), "join before r");
        assert!(pos(1) < pos(2), "ties stay in insertion order");
    }
}
