//! Regenerates the paper's Table I — FPGA implementation results of the
//! 8-thread design examples — alongside the paper's reported numbers.
//!
//! Every area is [`Inventory::from_ir`] of the design's own IR, the one
//! description its simulation elaborates, after
//! [`MebSubstitution::all`] has chosen the buffer microarchitecture. The
//! only per-design number written here is the logic depth the delay
//! model needs ([`Design::logic_levels`], next to [`Design::freq_mhz`]).

use elastic_core::MebKind;
use elastic_cost::Inventory;
use elastic_md5::Md5Circuit;
use elastic_proc::Cpu;
use elastic_sim::Token;
use elastic_synth::{ElasticIr, MebSubstitution, Pass};

use crate::gcd::gcd_ir;

/// Table I's column pairs: each MEB microarchitecture with its label.
pub const KINDS: [(MebKind, &str); 2] = [
    (MebKind::Full, "Full MEB"),
    (MebKind::Reduced, "Reduced MEB"),
];

/// A design example the model costs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Design {
    /// The MD5 hash loop (paper, Sec. V-A): [`Md5Circuit::ir`] with the
    /// single-cycle unrolled round.
    Md5,
    /// The multithreaded processor (paper, Sec. V-B): [`Cpu::cost_ir`].
    Processor,
    /// The synthesized GCD loop (extension, not in the paper):
    /// [`gcd_ir`].
    Gcd,
}

impl Design {
    /// The two designs of Table I.
    pub const TABLE1: [Design; 2] = [Design::Md5, Design::Processor];

    /// Row label.
    pub fn name(self) -> &'static str {
        match self {
            Design::Md5 => "MD5 hash",
            Design::Processor => "Processor",
            Design::Gcd => "GCD (synth)",
        }
    }

    /// Logic depth of the critical combinational path, in LUT levels —
    /// the documented calibration input of [`freq_mhz`](Self::freq_mhz).
    pub fn logic_levels(self) -> f64 {
        match self {
            // 16 unrolled steps at ~4.5 LUT levels each (carry-chain
            // adder + boolean function + word select).
            Design::Md5 => 72.0,
            // One ALU stage: 32-bit carry chain + decode/select.
            Design::Processor => 6.5,
            // The 64-bit compare/subtract carry chain dominates.
            Design::Gcd => 10.0,
        }
    }

    /// Estimated maximum frequency in MHz at `les` logic elements.
    ///
    /// `t = levels · T_LUT + ρ · LEs/1000` with `T_LUT = 1 ns` and
    /// `ρ = 1.5 ns/kLE` — the second term models routing/congestion delay
    /// growing with area, which is how the paper's *smaller* reduced-MEB
    /// designs clock slightly *faster* ("a result of the smaller wiring
    /// delays due to lower area").
    pub fn freq_mhz(self, les: usize) -> f64 {
        const T_LUT_NS: f64 = 1.0;
        const RHO_NS_PER_KLE: f64 = 1.5;
        1000.0 / (self.logic_levels() * T_LUT_NS + RHO_NS_PER_KLE * les as f64 / 1000.0)
    }

    /// Itemized inventory of the design at `threads` threads with every
    /// MEB of microarchitecture `kind`.
    pub fn inventory(self, kind: MebKind, threads: usize) -> Inventory {
        match self {
            Design::Md5 => costed(Md5Circuit::ir(threads, threads, 1).ir, kind),
            Design::Processor => costed(Cpu::cost_ir(threads).ir, kind),
            Design::Gcd => costed(gcd_ir(threads), kind),
        }
    }

    /// Total area in LEs.
    pub fn area_les(self, kind: MebKind, threads: usize) -> usize {
        self.inventory(kind, threads).total_les()
    }

    /// Relative area saving of the reduced MEB at `threads`.
    pub fn savings_fraction(self, threads: usize) -> f64 {
        let full = self.area_les(MebKind::Full, threads) as f64;
        let reduced = self.area_les(MebKind::Reduced, threads) as f64;
        (full - reduced) / full
    }
}

fn costed<T: Token>(mut ir: ElasticIr<T>, kind: MebKind) -> Inventory {
    MebSubstitution::all(kind)
        .run(&mut ir)
        .expect("substitution applies to every MEB");
    Inventory::from_ir(&ir)
}

/// The paper's reported Table I numbers: `(design, kind) → (LEs, MHz)`.
pub fn paper_reference(design: Design, kind: MebKind) -> Option<(usize, f64)> {
    Some(match (design, kind) {
        (Design::Md5, MebKind::Full) => (12780, 11.0),
        (Design::Md5, MebKind::Reduced) => (11200, 12.0),
        (Design::Processor, MebKind::Full) => (6850, 60.0),
        (Design::Processor, MebKind::Reduced) => (5590, 68.0),
        _ => return None,
    })
}

/// One row of the regenerated table.
#[derive(Clone, PartialEq, Debug)]
pub struct Table1Row {
    /// The design.
    pub design: Design,
    /// Thread count.
    pub threads: usize,
    /// MEB microarchitecture.
    pub kind: MebKind,
    /// Buffer column label.
    pub buffer: &'static str,
    /// Modelled area in LEs.
    pub area_les: usize,
    /// Modelled Fmax in MHz.
    pub freq_mhz: f64,
    /// The paper's reported numbers, when this row appears in Table I.
    pub paper: Option<(usize, f64)>,
}

/// Computes all rows for a thread count (8 reproduces Table I; 16
/// addresses the paper's ">22 % savings" extension claim).
pub fn table1_rows(threads: usize) -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for design in Design::TABLE1 {
        for (kind, buffer) in KINDS {
            let area = design.area_les(kind, threads);
            rows.push(Table1Row {
                design,
                threads,
                kind,
                buffer,
                area_les: area,
                freq_mhz: design.freq_mhz(area),
                paper: if threads == 8 {
                    paper_reference(design, kind)
                } else {
                    None
                },
            });
        }
    }
    rows
}

/// Average reduced-MEB saving over both Table I designs.
pub fn average_savings(threads: usize) -> f64 {
    Design::TABLE1
        .iter()
        .map(|d| d.savings_fraction(threads))
        .sum::<f64>()
        / 2.0
}

/// Renders the regenerated Table I (one section per requested thread
/// count) as an aligned ASCII table with the paper's numbers for
/// comparison.
pub fn render(thread_counts: &[usize]) -> String {
    let mut out = String::new();
    out.push_str("TABLE I — FPGA implementation results (structural cost model vs paper)\n\n");
    out.push_str(&format!(
        "{:<10} {:>3}  {:<12} {:>10} {:>10}   {:>10} {:>10}\n",
        "Design", "S", "Buffer", "LEs", "MHz", "paper LEs", "paper MHz"
    ));
    out.push_str(&"-".repeat(76));
    out.push('\n');
    for &threads in thread_counts {
        for row in table1_rows(threads) {
            let (p_les, p_mhz) = match row.paper {
                Some((a, f)) => (a.to_string(), format!("{f:.0}")),
                None => ("—".to_string(), "—".to_string()),
            };
            out.push_str(&format!(
                "{:<10} {:>3}  {:<12} {:>10} {:>10.1}   {:>10} {:>10}\n",
                row.design.name(),
                row.threads,
                row.buffer,
                row.area_les,
                row.freq_mhz,
                p_les,
                p_mhz
            ));
        }
        out.push_str(&format!(
            "{:<10} {:>3}  average reduced-MEB area saving: {:.1}%  (paper: {})\n\n",
            "",
            threads,
            100.0 * average_savings(threads),
            match threads {
                8 => "≈15%",
                16 => ">22%",
                _ => "n/a",
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_both_designs_and_paper_numbers() {
        let table = render(&[8, 16]);
        assert!(table.contains("MD5 hash"));
        assert!(table.contains("Processor"));
        assert!(table.contains("12780"));
        assert!(table.contains("5590"));
    }

    #[test]
    fn inventories_are_itemized() {
        let inv = Design::Md5.inventory(MebKind::Reduced, 8);
        let rows = |prefix: &str| {
            inv.items
                .iter()
                .filter(|item| item.name.starts_with(prefix))
                .count()
        };
        assert_eq!(rows("unrolled step"), 1);
        assert_eq!(rows("MEB `"), 2);
        assert_eq!(rows("barrier `"), 1);
        assert!(inv.render().contains("(128b, Reduced MEB)"));
    }
}
