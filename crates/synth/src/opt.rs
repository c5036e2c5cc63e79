//! Transforming optimization passes: data-driven MEB depth sizing,
//! slack matching on reconvergent fork/join paths, and buffer retiming
//! across combinational transforms.
//!
//! Where [`crate::passes`] holds the rewrite/lint infrastructure, this
//! module holds the passes that *optimize*: each one mutates the IR and
//! reports a machine-readable [`PassDelta`] per change, so a closed-loop
//! tuner (the `synth_optimize` bench bin) can delta-check the cost
//! model's re-derived inventory, replay accepted transforms via
//! [`TransformSpec`], and render the diff with [`dot_with_deltas`].
//!
//! All three passes exploit the paper's central property: buffer
//! placement and sizing are *latency-insensitive* degrees of freedom. A
//! legal transform changes timing (and therefore throughput and area)
//! but never per-thread token streams, which is what lets an autotuner
//! accept a candidate purely on a measured (throughput, LEs) point plus
//! a digest-equality check against the exhaustive oracle.
//!
//! | pass | what it does | legality |
//! |---|---|---|
//! | [`MebDepthSizing`] | resizes FIFO-MEB depths from a measured [`FeedbackProfile`] | always legal (capacity change) |
//! | [`SlackMatching`] | inserts buffers on the shallow side of reconvergent fork paths | always legal (buffer insertion) |
//! | [`Retiming`] | moves an EB/MEB across an adjacent 1→1 `Transform` | pure transform, no initial tokens, cycle cover re-checked |

use crate::ir::{ElasticIr, IrChannelId, IrNodeId, IrNodeKind, IrNodeTag};
use crate::passes::{Pass, PassDelta, PassError, PassReport, RetimeDirection};
use elastic_core::{ArbiterKind, MebKind};
use elastic_sim::{FeedbackProfile, Token};

/// Resizes FIFO-MEB depths from measured backpressure: for every MEB
/// whose *input* channel appears in the [`FeedbackProfile`], the pass
/// derives a target depth from the channel's occupancy histogram (the
/// mean backlog of its backpressure streaks, rounded up, at least 1) and
/// rewrites `Fifo` MEBs whose depth disagrees. The depth is at most
/// [`OCCUPANCY_BUCKETS`](elastic_sim::OCCUPANCY_BUCKETS), because the
/// histogram's last bucket holds every streak of that length or longer.
///
/// An input-channel stall means *this* buffer was full while upstream
/// offered a token, and the streak length bounds the backlog a deeper
/// FIFO could have absorbed — so the histogram is exactly the sizing
/// signal. A channel that never stalls sizes to depth 1 (capacity the
/// design never used is area for free).
///
/// With [`converting`](Self::converting), `Full`/`Reduced` MEBs are also
/// rewritten to the sized FIFO ablation — the move that trades the
/// paper's Table I microarchitectures against measured demand.
pub struct MebDepthSizing {
    profile: FeedbackProfile,
    convert: bool,
}

impl MebDepthSizing {
    /// A sizing pass over `profile`, resizing existing FIFO MEBs only, to
    /// depths of 1 up to
    /// [`OCCUPANCY_BUCKETS`](elastic_sim::OCCUPANCY_BUCKETS).
    pub fn new(profile: FeedbackProfile) -> Self {
        Self {
            profile,
            convert: false,
        }
    }

    /// Also convert `Full`/`Reduced` MEBs to sized FIFOs (chainable).
    #[must_use]
    pub fn converting(mut self) -> Self {
        self.convert = true;
        self
    }

    /// The depth the profile suggests for a buffer fed by `channel`:
    /// `ceil(mean backlog)` of the channel's backpressure streaks, at
    /// least 1 and at most
    /// [`OCCUPANCY_BUCKETS`](elastic_sim::OCCUPANCY_BUCKETS); `None` when
    /// the channel was not measured.
    pub fn suggested_depth(&self, channel: &str) -> Option<usize> {
        let fb = self.profile.channel(channel)?;
        let depth = fb.mean_backlog().ceil() as usize;
        Some(depth.max(1))
    }
}

impl<T: Token> Pass<T> for MebDepthSizing {
    fn name(&self) -> &'static str {
        "meb-depth-sizing"
    }

    fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError> {
        let mut plan: Vec<(IrNodeId, MebKind, MebKind)> = Vec::new();
        let mut checked = 0;
        for id in ir.node_ids() {
            let IrNodeTag::Meb(kind) = ir.node(id).tag() else {
                continue;
            };
            checked += 1;
            let input = ir.node(id).inputs()[0];
            let Some(depth) = self.suggested_depth(&ir.channel_info(input).name) else {
                continue;
            };
            let resize = match kind {
                MebKind::Fifo { depth: d } => d != depth,
                MebKind::Full | MebKind::Reduced => self.convert,
            };
            if resize {
                plan.push((id, kind, MebKind::Fifo { depth }));
            }
        }

        let mut deltas = Vec::new();
        for (id, from, to) in plan {
            let threads = ir.node_threads(id);
            let width = ir.node_width(id);
            let name = ir.node(id).name().to_string();
            if let IrNodeKind::Meb { kind, .. } = ir.node_mut(id).kind_mut() {
                *kind = to;
            }
            deltas.push(PassDelta::Resized {
                node: name,
                from,
                to,
                threads,
                width,
            });
        }
        Ok(
            PassReport::new(<Self as Pass<T>>::name(self), deltas.len(), checked)
                .with_deltas(deltas),
        )
    }
}

/// Inserts slack buffers on reconvergent fork paths with unbalanced
/// buffering: for every [`Fork`](IrNodeTag::Fork), the pass follows each
/// output down its linear chain (1-output nodes) until the chains
/// reconverge at a [`Join`](IrNodeTag::Join) or
/// [`Merge`](IrNodeTag::Merge), counts the handshake-registering cut
/// nodes on each chain, and inserts MEBs at the head of the shallower
/// chain until the counts match.
///
/// The imbalance matters because an eager fork holds its input until
/// *every* output accepts, and a join fires only when *every* input
/// offers: a short unbuffered path couples the fork directly to the
/// join's wait for the deep path, serializing iterations that the slack
/// buffers (the "relax instantly" reorder tolerance) would pipeline.
pub struct SlackMatching {
    kind: MebKind,
}

impl SlackMatching {
    /// A slack-matching pass inserting round-robin buffers of the given
    /// microarchitecture, as many as the paths are apart.
    pub fn new(kind: MebKind) -> Self {
        Self { kind }
    }
}

/// A fork output's walk to reconvergence: the channels of the linear
/// chain plus the number of cycle-cutting (buffering) nodes on it.
struct ChainEnd {
    /// Node where the chain ended (a join/merge), if it reconverged.
    sink: Option<IrNodeId>,
    /// First channel of the chain (the fork output) — where slack is
    /// inserted.
    head: IrChannelId,
    /// Cut nodes (EB/MEB/latency) seen along the chain.
    cuts: usize,
}

/// Follows a linear chain from `start` until a join/merge, a node with
/// fan-out (nested fork/branch — give up), an endpoint, or a length cap
/// (feedback protection).
fn walk_chain<T: Token>(ir: &ElasticIr<T>, start: IrChannelId) -> ChainEnd {
    let mut cuts = 0;
    let mut ch = start;
    for _ in 0..ir.node_count() + 1 {
        let Some(reader) = ir.reader_of(ch) else {
            break;
        };
        let tag = ir.node(reader).tag();
        if matches!(tag, IrNodeTag::Join | IrNodeTag::Merge) {
            return ChainEnd {
                sink: Some(reader),
                head: start,
                cuts,
            };
        }
        if tag.cuts_cycles() {
            cuts += 1;
        }
        let outs = ir.node(reader).outputs();
        if outs.len() != 1 {
            break;
        }
        ch = outs[0];
    }
    ChainEnd {
        sink: None,
        head: start,
        cuts,
    }
}

impl<T: Token> Pass<T> for SlackMatching {
    fn name(&self) -> &'static str {
        "slack-matching"
    }

    fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError> {
        // Plan first (immutable walk), then mutate: insertion invalidates
        // nothing because new nodes/channels append at the end.
        let mut plan: Vec<(IrChannelId, usize)> = Vec::new();
        let mut checked = 0;
        for id in ir.node_ids() {
            if ir.node(id).tag() != IrNodeTag::Fork {
                continue;
            }
            checked += 1;
            let chains: Vec<ChainEnd> = ir
                .node(id)
                .outputs()
                .iter()
                .map(|&out| walk_chain(ir, out))
                .collect();
            // For every pair of chains meeting at the same join/merge,
            // top the shallower one up to the deeper one's cut count.
            let deepest: usize = chains
                .iter()
                .filter(|c| c.sink.is_some())
                .map(|c| c.cuts)
                .max()
                .unwrap_or(0);
            for chain in &chains {
                let Some(sink) = chain.sink else { continue };
                let reconverges = chains
                    .iter()
                    .any(|o| o.head != chain.head && o.sink == Some(sink));
                if reconverges && chain.cuts < deepest {
                    plan.push((chain.head, deepest - chain.cuts));
                }
            }
        }

        let mut deltas = Vec::new();
        for (head, count) in plan {
            let mut ch = head;
            for _ in 0..count {
                let channel_name = ir.channel_info(ch).name.clone();
                let node_name = unique_name(format!("slack:{channel_name}"), |n| {
                    ir.node_named(n).is_some()
                });
                let (buf, tail) =
                    insert_buffer_on(ir, ch, &node_name, self.kind, ArbiterKind::RoundRobin)?;
                deltas.push(PassDelta::Inserted {
                    node: ir.node(buf).name().to_string(),
                    channel: channel_name,
                    kind: self.kind,
                    threads: ir.node_threads(buf),
                    width: ir.node_width(buf),
                });
                ch = tail;
            }
        }
        Ok(
            PassReport::new(<Self as Pass<T>>::name(self), deltas.len(), checked)
                .with_deltas(deltas),
        )
    }
}

/// `base` if the predicate clears it, else the first free `base:{i}` —
/// generated names must stay unique so delta replay and the cost
/// model's name-keyed lookups stay unambiguous.
fn unique_name(base: String, taken: impl Fn(&str) -> bool) -> String {
    if !taken(&base) {
        return base;
    }
    (1..)
        .map(|i| format!("{base}:{i}"))
        .find(|cand| !taken(cand))
        .expect("some suffix is free")
}

/// Splices a new MEB onto `ch`: the buffer takes over `ch` as its input,
/// a fresh tail channel (same threads/width, name `<ch>+slack`,
/// uniquified) carries its output, and `ch`'s original reader is rewired
/// to the tail. Returns the new node and the tail channel.
fn insert_buffer_on<T: Token>(
    ir: &mut ElasticIr<T>,
    ch: IrChannelId,
    name: &str,
    kind: MebKind,
    arbiter: ArbiterKind,
) -> Result<(IrNodeId, IrChannelId), PassError> {
    let reader = ir.reader_of(ch).ok_or_else(|| PassError::NoReader {
        channel: ir.channel_info(ch).name.clone(),
    })?;
    let info = ir.channel_info(ch).clone();
    let tail_name = unique_name(format!("{}+slack", info.name), |n| {
        ir.channel_named(n).is_some()
    });
    let tail = match info.width {
        Some(w) => ir.channel_with_width(tail_name, info.threads, w),
        None => ir.channel(tail_name, info.threads),
    };
    for port in ir.node_mut(reader).inputs_mut() {
        if *port == ch {
            *port = tail;
            break;
        }
    }
    let buf = ir.add(
        name,
        IrNodeKind::Meb {
            kind,
            arbiter,
            initial: Vec::new(),
            auto: true,
        },
        vec![ch],
        vec![tail],
    );
    Ok((buf, tail))
}

/// Moves one named EB/MEB across the adjacent pure
/// [`Transform`](IrNodeTag::Transform), in the given
/// [`RetimeDirection`] — the elastic version of register retiming.
///
/// Legality (checked, reported as
/// [`PassError::IllegalRetiming`]):
///
/// * the target is an EB or MEB with one input and one output;
/// * a MEB holds no initial tokens (they would have to be mapped
///   through the transform's function);
/// * the neighbour in the move direction is a 1→1 `Transform` — pure
///   combinational, so commuting it with a buffer permutes *where* the
///   stream is stored, never the stream itself;
/// * the move preserves the EB/MEB cycle cover: the pass re-runs
///   [`CycleCoverLint`](crate::passes::CycleCoverLint) on the mutated IR
///   and reverts the swap if a cycle became uncovered (it cannot on a
///   linted single-reader netlist — any cycle through the buffer also
///   traverses the adjacent transform — but the check keeps `build()`
///   acceptance a theorem rather than an argument).
pub struct Retiming {
    node: String,
    direction: RetimeDirection,
}

impl Retiming {
    /// A retiming pass moving the buffer named `node` in `direction`.
    pub fn new(node: impl Into<String>, direction: RetimeDirection) -> Self {
        Self {
            node: node.into(),
            direction,
        }
    }
}

impl Retiming {
    /// The (buffer, transform) swap: rewires the two nodes' single
    /// ports so the transform takes the buffer's outer channel and the
    /// buffer takes the transform's. Symmetric, so calling it again
    /// reverts the move.
    fn swap<T: Token>(ir: &mut ElasticIr<T>, buf: IrNodeId, xform: IrNodeId) {
        let (b_in, b_out) = (ir.node(buf).inputs()[0], ir.node(buf).outputs()[0]);
        let (t_in, t_out) = (ir.node(xform).inputs()[0], ir.node(xform).outputs()[0]);
        if b_out == t_in {
            // Forward: D→a→Buf→b→T→c becomes D→a→T→b→Buf→c.
            ir.node_mut(xform).inputs_mut()[0] = b_in;
            ir.node_mut(xform).outputs_mut()[0] = b_out;
            ir.node_mut(buf).inputs_mut()[0] = t_in;
            ir.node_mut(buf).outputs_mut()[0] = t_out;
        } else {
            // Backward: D→a→T→b→Buf→c becomes D→a→Buf→b→T→c.
            ir.node_mut(buf).inputs_mut()[0] = t_in;
            ir.node_mut(buf).outputs_mut()[0] = t_out;
            ir.node_mut(xform).inputs_mut()[0] = b_in;
            ir.node_mut(xform).outputs_mut()[0] = b_out;
        }
    }
}

impl<T: Token> Pass<T> for Retiming {
    fn name(&self) -> &'static str {
        "retiming"
    }

    fn run(&mut self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError> {
        let illegal = |reason: &str| PassError::IllegalRetiming {
            node: self.node.clone(),
            reason: reason.to_string(),
        };
        let buf = ir
            .node_named(&self.node)
            .ok_or_else(|| PassError::NoSuchNode {
                node: self.node.clone(),
            })?;
        let kind = match ir.node(buf).tag() {
            IrNodeTag::Eb => None,
            IrNodeTag::Meb(k) => Some(k),
            _ => return Err(illegal("not an EB/MEB")),
        };
        if ir.node(buf).inputs().len() != 1 || ir.node(buf).outputs().len() != 1 {
            return Err(illegal("buffer is not 1-input/1-output"));
        }
        if let IrNodeKind::Meb { initial, .. } = ir.node(buf).kind() {
            if !initial.is_empty() {
                return Err(illegal("buffer holds initial tokens"));
            }
        }
        let xform = match self.direction {
            RetimeDirection::Forward => ir.reader_of(ir.node(buf).outputs()[0]),
            RetimeDirection::Backward => ir.driver_of(ir.node(buf).inputs()[0]),
        }
        .ok_or_else(|| illegal("buffer has no neighbour in the move direction"))?;
        if ir.node(xform).tag() != IrNodeTag::Transform {
            return Err(illegal(
                "neighbour in the move direction is not a pure transform",
            ));
        }
        debug_assert!(
            ir.node(xform).inputs().len() == 1 && ir.node(xform).outputs().len() == 1,
            "transforms are 1→1 by construction"
        );

        let from_width = ir.node_width(buf);
        Self::swap(ir, buf, xform);
        if let Err(e) = crate::passes::CycleCoverLint.run(ir) {
            Self::swap(ir, buf, xform); // revert
            return Err(match e {
                PassError::UnbufferedCycle { nodes } => PassError::IllegalRetiming {
                    node: self.node.clone(),
                    reason: format!("move would uncover the cycle {}", nodes.join(" -> ")),
                },
                other => other,
            });
        }
        let to_width = ir.node_width(buf);

        let delta = PassDelta::Moved {
            node: self.node.clone(),
            across: ir.node(xform).name().to_string(),
            direction: self.direction,
            kind,
            threads: ir.node_threads(buf),
            from_width,
            to_width,
        };
        Ok(PassReport::new(<Self as Pass<T>>::name(self), 1, 1).with_deltas(vec![delta]))
    }
}

/// A concrete, replayable transform candidate — the unit of the
/// autotuner's accept/reject loop. [`ElasticIr`] is not `Clone` (it owns
/// boxed closures), so an optimizer holds an IR *factory* plus the list
/// of accepted `TransformSpec`s and re-applies them to every fresh
/// build; a spec is therefore fully named (node/channel strings, no
/// handles) and deterministic.
///
/// Proposal passes map onto specs naturally: a
/// [`PassDelta::Resized`] becomes a [`Substitute`](Self::Substitute), an
/// [`PassDelta::Inserted`] becomes an
/// [`InsertSlack`](Self::InsertSlack), a [`PassDelta::Moved`] becomes a
/// [`Retime`](Self::Retime) (see [`TransformSpec::from_delta`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TransformSpec {
    /// Retarget the named MEB's microarchitecture.
    Substitute {
        /// Target MEB node.
        node: String,
        /// New microarchitecture.
        kind: MebKind,
    },
    /// Insert a slack MEB on the named channel.
    InsertSlack {
        /// Channel to buffer.
        channel: String,
        /// Inserted buffer's microarchitecture.
        kind: MebKind,
    },
    /// Move the named buffer across its adjacent transform.
    Retime {
        /// Target EB/MEB node.
        node: String,
        /// Move direction.
        direction: RetimeDirection,
    },
}

impl TransformSpec {
    /// The spec that replays `delta` on a fresh IR.
    pub fn from_delta(delta: &PassDelta) -> TransformSpec {
        match delta {
            PassDelta::Resized { node, to, .. } => TransformSpec::Substitute {
                node: node.clone(),
                kind: *to,
            },
            PassDelta::Inserted { channel, kind, .. } => TransformSpec::InsertSlack {
                channel: channel.clone(),
                kind: *kind,
            },
            PassDelta::Moved {
                node, direction, ..
            } => TransformSpec::Retime {
                node: node.clone(),
                direction: *direction,
            },
        }
    }

    /// Applies the spec to `ir`, returning the pass report (with its
    /// [`PassDelta`]s).
    ///
    /// # Errors
    ///
    /// Whatever the underlying pass reports — plus
    /// [`PassError::NoSuchNode`] for a vanished channel name on
    /// [`InsertSlack`](Self::InsertSlack).
    pub fn apply<T: Token>(&self, ir: &mut ElasticIr<T>) -> Result<PassReport, PassError> {
        match self {
            TransformSpec::Substitute { node, kind } => {
                crate::passes::MebSubstitution::named(node.clone(), *kind).run(ir)
            }
            TransformSpec::InsertSlack { channel, kind } => {
                let ch = ir
                    .channel_named(channel)
                    .ok_or_else(|| PassError::NoSuchNode {
                        node: channel.clone(),
                    })?;
                let name = unique_name(format!("slack:{channel}"), |n| ir.node_named(n).is_some());
                let (buf, _) = insert_buffer_on(ir, ch, &name, *kind, ArbiterKind::RoundRobin)?;
                let delta = PassDelta::Inserted {
                    node: name.clone(),
                    channel: channel.clone(),
                    kind: *kind,
                    threads: ir.node_threads(buf),
                    width: ir.node_width(buf),
                };
                Ok(PassReport::new("insert-slack", 1, 1).with_deltas(vec![delta]))
            }
            TransformSpec::Retime { node, direction } => {
                Retiming::new(node.clone(), *direction).run(ir)
            }
        }
    }

    /// A one-line human-readable rendering (for logs and JSON reports).
    pub fn describe(&self) -> String {
        match self {
            TransformSpec::Substitute { node, kind } => {
                format!("substitute {node} -> {kind:?}")
            }
            TransformSpec::InsertSlack { channel, kind } => {
                format!("insert {kind:?} slack on {channel}")
            }
            TransformSpec::Retime { node, direction } => {
                format!("retime {node} {direction}")
            }
        }
    }
}

/// Per-node DOT attribute styles for a set of deltas: inserted buffers
/// render green, resized orange, moved blue (all with `penwidth=2`), so
/// an accepted transform is visually auditable on the rendered netlist.
pub fn delta_styles(deltas: &[PassDelta]) -> Vec<(String, String)> {
    deltas
        .iter()
        .map(|d| match d {
            PassDelta::Inserted { node, .. } => {
                (node.clone(), "color=green, penwidth=2".to_string())
            }
            PassDelta::Resized { node, .. } => {
                (node.clone(), "color=orange, penwidth=2".to_string())
            }
            PassDelta::Moved { node, .. } => (node.clone(), "color=blue, penwidth=2".to_string()),
        })
        .collect()
}

/// Renders `ir` in DOT with the buffers touched by `deltas`
/// highlighted (see [`delta_styles`]).
pub fn dot_with_deltas<T: Token>(ir: &ElasticIr<T>, deltas: &[PassDelta]) -> String {
    ir.to_netlist().to_dot_styled(&delta_styles(deltas))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassManager;
    use elastic_sim::{ChannelFeedback, ReadyPolicy, OCCUPANCY_BUCKETS};

    fn fifo(depth: usize) -> IrNodeKind<u64> {
        IrNodeKind::Meb {
            kind: MebKind::Fifo { depth },
            arbiter: ArbiterKind::RoundRobin,
            initial: Vec::new(),
            auto: true,
        }
    }

    fn sink() -> IrNodeKind<u64> {
        IrNodeKind::Sink {
            capture: false,
            policy: ReadyPolicy::Always,
        }
    }

    /// src -> a -> buf -> b -> snk, with `buf` of the given kind.
    fn chain_ir(kind: IrNodeKind<u64>) -> ElasticIr<u64> {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel_with_width("a", 2, 8);
        let b = ir.channel_with_width("b", 2, 8);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add("buf", kind, vec![a], vec![b]);
        ir.add("snk", sink(), vec![b], vec![]);
        ir
    }

    /// A profile whose only channel saw `streaks` backpressure streaks,
    /// every one `len` cycles long.
    fn profile_with(channel: &str, len: usize, streaks: u64) -> FeedbackProfile {
        let mut hist = [0u64; OCCUPANCY_BUCKETS];
        if len > 0 {
            hist[(len - 1).min(OCCUPANCY_BUCKETS - 1)] = streaks;
        }
        FeedbackProfile {
            cycles: 1000,
            channels: vec![ChannelFeedback {
                name: channel.to_string(),
                threads: 2,
                transfers: 100,
                stall_cycles: len as u64 * streaks,
                utilization: 0.5,
                stall_rate: 0.1,
                occupancy_hist: hist,
            }],
        }
    }

    #[test]
    fn depth_sizing_resizes_fifo_from_measured_backlog() {
        let mut ir = chain_ir(fifo(1));
        let mut pass = MebDepthSizing::new(profile_with("a", 3, 5));
        let report = Pass::<u64>::run(&mut pass, &mut ir).expect("sizing");
        assert_eq!(report.changed, 1);
        assert_eq!(
            report.deltas,
            vec![PassDelta::Resized {
                node: "buf".to_string(),
                from: MebKind::Fifo { depth: 1 },
                to: MebKind::Fifo { depth: 3 },
                threads: 2,
                width: 8,
            }]
        );
        let buf = ir.node_named("buf").unwrap();
        assert_eq!(
            ir.node(buf).tag(),
            IrNodeTag::Meb(MebKind::Fifo { depth: 3 })
        );
        // Fixpoint: a second run under the same profile changes nothing.
        let again = Pass::<u64>::run(&mut pass, &mut ir).expect("sizing");
        assert_eq!(again.changed, 0);
        assert!(again.deltas.is_empty());
    }

    #[test]
    fn depth_sizing_shrinks_idle_buffer_to_depth_one() {
        let mut ir = chain_ir(fifo(4));
        // Measured but never stalled: capacity the design never used.
        let mut pass = MebDepthSizing::new(profile_with("a", 0, 0));
        let report = Pass::<u64>::run(&mut pass, &mut ir).expect("sizing");
        assert_eq!(report.changed, 1);
        let buf = ir.node_named("buf").unwrap();
        assert_eq!(
            ir.node(buf).tag(),
            IrNodeTag::Meb(MebKind::Fifo { depth: 1 })
        );
    }

    #[test]
    fn depth_sizing_clamps_to_max_depth_and_skips_unmeasured() {
        let mut ir = chain_ir(fifo(2));
        // Streaks deeper than the histogram's last bucket size to its
        // depth...
        let mut pass = MebDepthSizing::new(profile_with("a", 12, 10));
        Pass::<u64>::run(&mut pass, &mut ir).expect("sizing");
        let buf = ir.node_named("buf").unwrap();
        assert_eq!(
            ir.node(buf).tag(),
            IrNodeTag::Meb(MebKind::Fifo { depth: 8 })
        );
        // ...and a profile that never measured this channel leaves it be.
        let mut blind = MebDepthSizing::new(profile_with("elsewhere", 8, 10));
        let report = Pass::<u64>::run(&mut blind, &mut ir).expect("sizing");
        assert_eq!(report.changed, 0);
    }

    #[test]
    fn depth_sizing_converts_full_mebs_only_when_asked() {
        let mut ir = chain_ir(IrNodeKind::Meb {
            kind: MebKind::Full,
            arbiter: ArbiterKind::RoundRobin,
            initial: Vec::new(),
            auto: true,
        });
        let profile = profile_with("a", 2, 5);
        let mut keep = MebDepthSizing::new(profile.clone());
        assert_eq!(Pass::<u64>::run(&mut keep, &mut ir).unwrap().changed, 0);
        let mut convert = MebDepthSizing::new(profile).converting();
        let report = Pass::<u64>::run(&mut convert, &mut ir).unwrap();
        assert_eq!(report.changed, 1);
        let buf = ir.node_named("buf").unwrap();
        assert_eq!(
            ir.node(buf).tag(),
            IrNodeTag::Meb(MebKind::Fifo { depth: 2 })
        );
    }

    /// src -> fork -> {deep: transform -> meb -> join, shallow: join}
    /// -> snk: the classic unbalanced reconvergence.
    fn unbalanced_fork_ir() -> ElasticIr<u64> {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel_with_width("a", 2, 8);
        let deep = ir.channel_with_width("deep", 2, 8);
        let shallow = ir.channel_with_width("shallow", 2, 8);
        let stepped = ir.channel_with_width("stepped", 2, 8);
        let buffered = ir.channel_with_width("buffered", 2, 8);
        let joined = ir.channel_with_width("joined", 2, 8);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add(
            "fork",
            IrNodeKind::Fork { route: None },
            vec![a],
            vec![deep, shallow],
        );
        ir.add(
            "double",
            IrNodeKind::Transform {
                f: Box::new(|&v| v * 2),
            },
            vec![deep],
            vec![stepped],
        );
        ir.add("deep_buf", fifo(2), vec![stepped], vec![buffered]);
        ir.add(
            "join",
            IrNodeKind::Join {
                combine: Box::new(|toks: &[&u64]| toks[0] + toks[1]),
            },
            vec![buffered, shallow],
            vec![joined],
        );
        ir.add("snk", sink(), vec![joined], vec![]);
        ir
    }

    #[test]
    fn slack_matching_buffers_the_shallow_path() {
        let mut ir = unbalanced_fork_ir();
        let mut pass = SlackMatching::new(MebKind::Reduced);
        let report = Pass::<u64>::run(&mut pass, &mut ir).expect("slack");
        assert_eq!(
            report.deltas,
            vec![PassDelta::Inserted {
                node: "slack:shallow".to_string(),
                channel: "shallow".to_string(),
                kind: MebKind::Reduced,
                threads: 2,
                width: 8,
            }]
        );
        // The buffer is spliced in: shallow now feeds it, and its tail
        // feeds the join.
        let buf = ir.node_named("slack:shallow").expect("inserted");
        let tail = ir.node(buf).outputs()[0];
        assert_eq!(ir.channel_info(tail).name, "shallow+slack");
        let join = ir.node_named("join").unwrap();
        assert!(ir.node(join).inputs().contains(&tail));
        PassManager::lint_suite()
            .run(&mut ir)
            .expect("still well-formed");
        // Fixpoint: the paths are now balanced.
        let again =
            Pass::<u64>::run(&mut SlackMatching::new(MebKind::Reduced), &mut ir).expect("slack");
        assert_eq!(again.changed, 0);
    }

    #[test]
    fn slack_matching_names_stay_unique_on_a_reused_head() {
        let mut ir = unbalanced_fork_ir();
        let mut pass = SlackMatching::new(MebKind::Reduced);
        let first = Pass::<u64>::run(&mut pass, &mut ir).expect("slack");
        assert_eq!(first.changed, 1);
        // Deepen the deep path by one more buffer, so the next run tops
        // the shallow path up again from the same head channel.
        let buf = ir.node_named("deep_buf").unwrap();
        let out = ir.node(buf).outputs()[0];
        insert_buffer_on(
            &mut ir,
            out,
            "deep_buf2",
            MebKind::Reduced,
            ArbiterKind::RoundRobin,
        )
        .expect("splice");
        let second = Pass::<u64>::run(&mut pass, &mut ir).expect("slack");
        assert_eq!(second.changed, 1);
        assert!(ir.node_named("slack:shallow").is_some());
        assert!(ir.node_named("slack:shallow:1").is_some());
    }

    /// src -> a -> buf -> b -> double -> c -> snk.
    fn retimable_ir() -> ElasticIr<u64> {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel_with_width("a", 2, 8);
        let b = ir.channel_with_width("b", 2, 8);
        let c = ir.channel_with_width("c", 2, 16);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add("buf", fifo(2), vec![a], vec![b]);
        ir.add(
            "double",
            IrNodeKind::Transform {
                f: Box::new(|&v| v * 2),
            },
            vec![b],
            vec![c],
        );
        ir.add("snk", sink(), vec![c], vec![]);
        ir
    }

    #[test]
    fn retiming_moves_a_buffer_forward_across_a_transform() {
        let mut ir = retimable_ir();
        let before = ir.structural_hash();
        let mut pass = Retiming::new("buf", RetimeDirection::Forward);
        let report = Pass::<u64>::run(&mut pass, &mut ir).expect("legal move");
        assert_eq!(
            report.deltas,
            vec![PassDelta::Moved {
                node: "buf".to_string(),
                across: "double".to_string(),
                direction: RetimeDirection::Forward,
                kind: Some(MebKind::Fifo { depth: 2 }),
                threads: 2,
                from_width: 8,
                to_width: 16,
            }]
        );
        // The transform now reads the source directly; the buffer sits
        // on its output.
        let a = ir.channel_named("a").unwrap();
        let c = ir.channel_named("c").unwrap();
        let double = ir.node_named("double").unwrap();
        let buf = ir.node_named("buf").unwrap();
        assert_eq!(ir.reader_of(a), Some(double));
        assert_eq!(ir.driver_of(c), Some(buf));
        assert_ne!(ir.structural_hash(), before, "move is hash-visible");
        PassManager::lint_suite()
            .run(&mut ir)
            .expect("still well-formed");
        // Moving it back restores the original structure exactly.
        Pass::<u64>::run(
            &mut Retiming::new("buf", RetimeDirection::Backward),
            &mut ir,
        )
        .expect("legal move");
        assert_eq!(ir.structural_hash(), before);
    }

    #[test]
    fn retiming_rejects_illegal_targets() {
        // Not a buffer.
        let err = Pass::<u64>::run(
            &mut Retiming::new("double", RetimeDirection::Forward),
            &mut retimable_ir(),
        )
        .expect_err("not a buffer");
        assert!(err.to_string().contains("not an EB/MEB"), "{err}");

        // Neighbour in the move direction is not a transform.
        let err = Pass::<u64>::run(
            &mut Retiming::new("buf", RetimeDirection::Backward),
            &mut retimable_ir(),
        )
        .expect_err("source is not a transform");
        assert!(err.to_string().contains("not a pure transform"), "{err}");

        // Initial tokens cannot be mapped through the transform.
        let mut ir = retimable_ir();
        let buf = ir.node_named("buf").unwrap();
        if let IrNodeKind::Meb { initial, .. } = ir.node_mut(buf).kind_mut() {
            initial.push((0, 7));
        }
        let err = Pass::<u64>::run(&mut Retiming::new("buf", RetimeDirection::Forward), &mut ir)
            .expect_err("initial tokens");
        assert!(err.to_string().contains("initial tokens"), "{err}");

        // Unknown node.
        let err = Pass::<u64>::run(
            &mut Retiming::new("ghost", RetimeDirection::Forward),
            &mut retimable_ir(),
        )
        .expect_err("missing");
        assert!(matches!(err, PassError::NoSuchNode { .. }));
    }

    #[test]
    fn transform_specs_replay_deltas_onto_a_fresh_ir() {
        // Run the proposal pass on one IR...
        let mut proposed = unbalanced_fork_ir();
        let report =
            Pass::<u64>::run(&mut SlackMatching::new(MebKind::Reduced), &mut proposed).unwrap();
        let specs: Vec<TransformSpec> = report
            .deltas
            .iter()
            .map(TransformSpec::from_delta)
            .collect();
        assert_eq!(
            specs,
            vec![TransformSpec::InsertSlack {
                channel: "shallow".to_string(),
                kind: MebKind::Reduced,
            }]
        );
        // ...and replay the specs on a fresh build: same structure.
        let mut replayed = unbalanced_fork_ir();
        for spec in &specs {
            spec.apply(&mut replayed).expect("replay");
        }
        assert_eq!(replayed.structural_hash(), proposed.structural_hash());

        // Substitution and retiming specs replay the same way.
        let mut a = chain_ir(fifo(1));
        let mut b = chain_ir(fifo(1));
        let sized =
            Pass::<u64>::run(&mut MebDepthSizing::new(profile_with("a", 3, 5)), &mut a).unwrap();
        for spec in sized.deltas.iter().map(TransformSpec::from_delta) {
            spec.apply(&mut b).expect("replay");
        }
        assert_eq!(a.structural_hash(), b.structural_hash());
    }

    #[test]
    fn delta_dot_highlights_touched_buffers() {
        let mut ir = unbalanced_fork_ir();
        let report = Pass::<u64>::run(&mut SlackMatching::new(MebKind::Reduced), &mut ir).unwrap();
        let dot = dot_with_deltas(&ir, &report.deltas);
        assert!(
            dot.contains("color=green, penwidth=2"),
            "inserted buffer highlighted: {dot}"
        );
        let styles = delta_styles(&[
            PassDelta::Resized {
                node: "x".into(),
                from: MebKind::Full,
                to: MebKind::Fifo { depth: 2 },
                threads: 2,
                width: 8,
            },
            PassDelta::Moved {
                node: "y".into(),
                across: "t".into(),
                direction: RetimeDirection::Forward,
                kind: None,
                threads: 2,
                from_width: 8,
                to_width: 8,
            },
        ]);
        assert_eq!(styles[0].1, "color=orange, penwidth=2");
        assert_eq!(styles[1].1, "color=blue, penwidth=2");
    }
}
