//! Deriving an area inventory from a structural [`ElasticIr`] netlist.
//!
//! [`Inventory::from_ir`] walks the same circuit description that feeds
//! the simulator and the DOT renderer, so the cost model needs no
//! parallel description of a design: every MEB (and EB, and barrier) is
//! costed from its node and the width annotation of its channels, and
//! the combinational payload the structure cannot see (ALUs, unrolled
//! hash steps, decoders) comes from the
//! [`CostHint`](elastic_synth::CostHint)s attached to the nodes.

use crate::primitives::{arbiter, barrier, eb_control, mux, register, shared_gate, Inventory};
use elastic_core::MebKind;
use elastic_sim::Token;
use elastic_synth::{ElasticIr, IrNodeTag, PassDelta};

/// The rows of one `width`-bit, `threads`-thread MEB's area, as
/// `(label, count, LEs each)`; a row the kind does not have is `None`.
/// The one table behind [`meb_inventory`] and [`meb_les`].
fn meb_rows(
    kind: MebKind,
    threads: usize,
    width: usize,
) -> [Option<(&'static str, usize, usize)>; 7] {
    let s = threads;
    let reduced = kind == MebKind::Reduced;
    let storage = match kind {
        MebKind::Full => ("main+aux registers", 2 * s, register(width)),
        MebKind::Reduced => ("main registers", s, register(width)),
        MebKind::Fifo { depth } => ("fifo registers", s * depth, register(width)),
    };
    [
        Some(storage),
        reduced.then(|| ("shared register", 1, register(width))),
        (!matches!(kind, MebKind::Fifo { .. })).then(|| ("refill muxes", s, mux(width, 2))),
        Some(("output mux", 1, mux(width, s))),
        Some(("EB control FSMs", s, eb_control())),
        reduced.then(|| ("shared-buffer gate", 1, shared_gate(s))),
        Some(("arbiter", 1, arbiter(s))),
    ]
}

/// Itemized area of one `width`-bit, `threads`-thread MEB.
///
/// Every kind has the S-way output multiplexer, a control FSM per thread
/// and the arbiter. The full and reduced MEBs (Table I's column pairs)
/// also put a 2:1 refill mux in front of each thread's main register
/// (`data_in` vs the auxiliary slot); they differ in storage (`2S` vs
/// `S+1` registers) and in the reduced variant's shared-buffer FSM and
/// HALF→FULL gate. The FIFO ablation, which has no Table I row, stores
/// `S·depth` registers and has no refill muxes.
pub fn meb_inventory(kind: MebKind, threads: usize, width: usize) -> Inventory {
    let mut inv = Inventory::new();
    for (name, count, les_each) in meb_rows(kind, threads, width).into_iter().flatten() {
        inv.push(name, count, les_each);
    }
    inv
}

/// Total LEs of one MEB, `meb_inventory(kind, threads, width).total_les()`
/// without building the rows' labels.
fn meb_les(kind: MebKind, threads: usize, width: usize) -> usize {
    meb_rows(kind, threads, width)
        .into_iter()
        .flatten()
        .map(|(_, count, les_each)| count * les_each)
        .sum()
}

/// Total LEs of one buffer: a MEB of the given microarchitecture, or —
/// for [`None`] — the baseline two-slot EB (matching the structural rows
/// of [`Inventory::from_ir`] exactly).
fn buffer_les(kind: Option<MebKind>, threads: usize, width: usize) -> i64 {
    let les = match kind {
        Some(kind) => meb_les(kind, threads, width),
        None => 2 * register(width) + eb_control(),
    };
    les as i64
}

/// The LE change a list of [`PassDelta`]s predicts, for delta-checking
/// [`Inventory::from_ir`] across a transforming pass:
///
/// ```text
/// from_ir(after).total_les() - from_ir(before).total_les()
///     == expected_les_delta(&report.deltas)
/// ```
///
/// * [`Resized`](PassDelta::Resized): cost of the new microarchitecture
///   minus the old;
/// * [`Inserted`](PassDelta::Inserted): cost of the new buffer;
/// * [`Moved`](PassDelta::Moved): cost at the new width minus cost at
///   the old (a retimed buffer changes area only through the channel
///   width it lands on).
///
/// The autotuner asserts this equality after every applied transform, so
/// a pass whose reported delta disagrees with the re-derived inventory
/// fails loudly instead of skewing the pareto front.
pub fn expected_les_delta(deltas: &[PassDelta]) -> i64 {
    deltas
        .iter()
        .map(|delta| match delta {
            PassDelta::Resized {
                from,
                to,
                threads,
                width,
                ..
            } => {
                buffer_les(Some(*to), *threads, *width) - buffer_les(Some(*from), *threads, *width)
            }
            PassDelta::Inserted {
                kind,
                threads,
                width,
                ..
            } => buffer_les(Some(*kind), *threads, *width),
            PassDelta::Moved {
                kind,
                threads,
                from_width,
                to_width,
                ..
            } => buffer_les(*kind, *threads, *to_width) - buffer_les(*kind, *threads, *from_width),
        })
        .sum()
}

impl Inventory {
    /// Derives the itemized area inventory of an IR netlist.
    ///
    /// Structural rows:
    ///
    /// * every [`Meb`](IrNodeTag::Meb) node costs [`meb_inventory`] of
    ///   its kind at the node's thread count and channel width;
    /// * every [`Eb`](IrNodeTag::Eb) node costs two registers plus one
    ///   EB control FSM (the baseline two-slot buffer of paper Sec. II);
    /// * every [`Barrier`](IrNodeTag::Barrier) node costs
    ///   [`barrier`]`(S)`.
    ///
    /// All other node kinds contribute only their attached cost hints
    /// (forks/joins/branches/merges are handshake gating folded into the
    /// designs' control constants, sources/sinks are testbench artifacts,
    /// and transform/latency payloads are design logic the hints
    /// describe).
    ///
    /// A node's width is [`ElasticIr::node_width`], its first
    /// width-annotated channel (outputs first, then inputs), and its
    /// thread count is [`ElasticIr::node_threads`], its first input's (a
    /// source's first output's). An unannotated buffer costs its control
    /// but zero datapath bits, so annotate widths on every MEB-adjacent
    /// channel you want accounted.
    pub fn from_ir<T: Token>(ir: &ElasticIr<T>) -> Inventory {
        let mut inv = Inventory::new();
        for id in ir.node_ids() {
            let node = ir.node(id);
            let (width, threads) = (ir.node_width(id), ir.node_threads(id));
            match node.tag() {
                IrNodeTag::Meb(kind) => {
                    let name = node.name();
                    let label = match kind {
                        MebKind::Full => format!("MEB `{name}` ({width}b, Full MEB)"),
                        MebKind::Reduced => format!("MEB `{name}` ({width}b, Reduced MEB)"),
                        MebKind::Fifo { depth } => {
                            format!("MEB `{name}` ({width}b, FIFO x{depth})")
                        }
                    };
                    inv.push(label, 1, meb_les(kind, threads, width));
                }
                IrNodeTag::Eb => {
                    inv.push(
                        format!("EB `{}` ({width}b)", node.name()),
                        1,
                        2 * register(width) + eb_control(),
                    );
                }
                IrNodeTag::Barrier => {
                    inv.push(format!("barrier `{}`", node.name()), 1, barrier(threads));
                }
                _ => {}
            }
            for hint in node.cost_hints() {
                inv.push(hint.name.clone(), hint.count, hint.les_each);
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_core::ArbiterKind;
    use elastic_sim::ReadyPolicy;
    use elastic_synth::IrNodeKind;

    fn pipeline_ir(kind: MebKind) -> ElasticIr<u64> {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel("a", 4);
        let b = ir.channel_with_width("b", 4, 32);
        let c = ir.channel_with_width("c", 4, 32);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add(
            "buf",
            IrNodeKind::Meb {
                kind,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: false,
            },
            vec![a],
            vec![b],
        );
        let bar = ir.add(
            "sync",
            IrNodeKind::Barrier {
                participants: None,
                on_release: None,
            },
            vec![b],
            vec![c],
        );
        ir.add_cost_hint(bar, "control glue", 1, 10);
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![c],
            vec![],
        );
        ir
    }

    #[test]
    fn meb_slot_counts_match_the_paper() {
        // Register LEs dominate; full stores 2S tokens, reduced S+1.
        let full = meb_inventory(MebKind::Full, 8, 100);
        let reduced = meb_inventory(MebKind::Reduced, 8, 100);
        let full_regs: usize = full.items[0].total();
        let reduced_regs: usize = reduced.items[0].total() + reduced.items[1].total();
        assert_eq!(full_regs, 16 * 100);
        assert_eq!(reduced_regs, 9 * 100);
        assert!(full.total_les() > reduced.total_les());
    }

    #[test]
    fn meb_rows_match_the_hand_formula() {
        for kind in [MebKind::Full, MebKind::Reduced] {
            let inv = Inventory::from_ir(&pipeline_ir(kind));
            let meb_row = inv
                .items
                .iter()
                .find(|i| i.name.contains("MEB `buf`"))
                .expect("meb row");
            assert_eq!(meb_row.total(), meb_inventory(kind, 4, 32).total_les());
        }
    }

    #[test]
    fn same_named_mebs_are_costed_at_their_own_width() {
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel_with_width("a", 4, 8);
        let b = ir.channel_with_width("b", 4, 8);
        let c = ir.channel_with_width("c", 4, 64);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        for (input, output) in [(a, b), (b, c)] {
            let meb = IrNodeKind::Meb {
                kind: MebKind::Reduced,
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: false,
            };
            ir.add("buf", meb, vec![input], vec![output]);
        }
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![c],
            vec![],
        );
        let rows: Vec<(String, usize)> = Inventory::from_ir(&ir)
            .items
            .into_iter()
            .map(|item| (item.name.clone(), item.total()))
            .collect();
        let reduced = |width| meb_inventory(MebKind::Reduced, 4, width).total_les();
        assert_eq!(
            rows,
            vec![
                ("MEB `buf` (8b, Reduced MEB)".to_string(), reduced(8)),
                ("MEB `buf` (64b, Reduced MEB)".to_string(), reduced(64)),
            ]
        );
    }

    #[test]
    fn barrier_and_hints_are_counted() {
        let inv = Inventory::from_ir(&pipeline_ir(MebKind::Reduced));
        assert!(inv.items.iter().any(|i| i.name == "barrier `sync`"));
        let hint = inv.items.iter().find(|i| i.name == "control glue").unwrap();
        assert_eq!(hint.total(), 10);
        let expected = meb_inventory(MebKind::Reduced, 4, 32).total_les() + barrier(4) + 10;
        assert_eq!(inv.total_les(), expected);
    }

    #[test]
    fn expected_delta_matches_rederived_inventory_across_passes() {
        use elastic_synth::{MebSubstitution, Pass, RetimeDirection, Retiming, TransformSpec};

        // Resized: retarget the pipeline MEB to a FIFO ablation.
        let mut ir = pipeline_ir(MebKind::Full);
        let before = Inventory::from_ir(&ir).total_les() as i64;
        let report = MebSubstitution::named("buf", MebKind::Fifo { depth: 1 })
            .run(&mut ir)
            .expect("substitute");
        let after = Inventory::from_ir(&ir).total_les() as i64;
        assert_eq!(after - before, expected_les_delta(&report.deltas));
        assert_ne!(after, before, "delta is non-trivial");

        // Inserted: slack buffer spliced onto a named channel.
        let before = after;
        let report = TransformSpec::InsertSlack {
            channel: "b".to_string(),
            kind: MebKind::Reduced,
        }
        .apply(&mut ir)
        .expect("insert");
        let after = Inventory::from_ir(&ir).total_les() as i64;
        assert_eq!(after - before, expected_les_delta(&report.deltas));

        // Moved: a buffer retimed across a width-changing transform.
        let mut ir = ElasticIr::<u64>::new();
        let a = ir.channel_with_width("a", 4, 32);
        let b = ir.channel_with_width("b", 4, 32);
        let c = ir.channel_with_width("c", 4, 16);
        ir.add("src", IrNodeKind::Source, vec![], vec![a]);
        ir.add(
            "buf",
            IrNodeKind::Meb {
                kind: MebKind::Fifo { depth: 2 },
                arbiter: ArbiterKind::RoundRobin,
                initial: Vec::new(),
                auto: true,
            },
            vec![a],
            vec![b],
        );
        ir.add(
            "narrow",
            IrNodeKind::Transform {
                f: Box::new(|&v| v >> 16),
            },
            vec![b],
            vec![c],
        );
        ir.add(
            "snk",
            IrNodeKind::Sink {
                capture: false,
                policy: ReadyPolicy::Always,
            },
            vec![c],
            vec![],
        );
        let before = Inventory::from_ir(&ir).total_les() as i64;
        let report = Retiming::new("buf", RetimeDirection::Forward)
            .run(&mut ir)
            .expect("retime");
        let after = Inventory::from_ir(&ir).total_les() as i64;
        assert_eq!(after - before, expected_les_delta(&report.deltas));
        assert!(after < before, "landing on the narrower channel saves area");
    }

    #[test]
    fn fifo_ablation_scales_with_depth() {
        let fifo = |depth, threads| meb_inventory(MebKind::Fifo { depth }, threads, 32).total_les();
        assert_eq!(fifo(8, 4) - fifo(2, 4), (8 - 2) * 4 * register(32));
        // No Table I row to match; a 4-deep FIFO bank is not absurdly
        // cheap against a full MEB of the same shape.
        for threads in [2, 4, 8, 16] {
            assert!(fifo(4, threads) > fifo(1, threads), "S={threads}");
            let full = meb_inventory(MebKind::Full, threads, 32).total_les();
            assert!(2 * fifo(4, threads) > full, "S={threads}");
        }
    }
}
