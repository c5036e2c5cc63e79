//! Cost consistency — Table I is `Inventory::from_ir` over each design's
//! own structural IR, so these tests pin what that derivation yields:
//! every LE total the table reports, for both designs and the GCD
//! extension row, S ∈ {2, 4, 8, 16}, full and reduced MEBs.
//!
//! An MEB channel that loses its width annotation costs zero datapath
//! bits in `from_ir`; the pinned totals are what notices.

use mt_elastic::core::MebKind;
use mt_elastic::cost::Inventory;
use mt_elastic::md5::Md5Circuit;

use elastic_bench::Design;

#[test]
fn table1_totals_are_pinned() {
    // (Full, Reduced) LEs at S = 2, 4, 8, 16.
    let golden = [
        (
            Design::Md5,
            [(6526, 6278), (8611, 7855), (12780, 11008), (21117, 17313)],
        ),
        (
            Design::Processor,
            [(1982, 1822), (3604, 3094), (6848, 5638), (13336, 10726)],
        ),
        (
            Design::Gcd,
            [(2256, 2004), (4364, 3596), (8580, 6780), (17012, 13148)],
        ),
    ];
    for (design, totals) in golden {
        for (threads, (full, reduced)) in [2, 4, 8, 16].into_iter().zip(totals) {
            let got = (
                design.area_les(MebKind::Full, threads),
                design.area_les(MebKind::Reduced, threads),
            );
            assert_eq!(got, (full, reduced), "{} S={threads}", design.name());
        }
    }
}

#[test]
fn md5_ir_inventory_is_stage_count_invariant() {
    // Pipelining the round unit splits the unrolled-step rows across
    // stages and adds MEB pipeline registers, but the combinational
    // payload total must not change.
    let comb_total = |stages: usize| -> usize {
        let md5 = Md5Circuit::ir(8, 8, stages);
        Inventory::from_ir(&md5.ir)
            .items
            .iter()
            .filter(|item| item.name.contains("unrolled step"))
            .map(|item| item.count * item.les_each)
            .sum()
    };
    let one = comb_total(1);
    assert!(one > 0);
    for stages in [2, 4, 8, 16] {
        assert_eq!(comb_total(stages), one, "at {stages} stages");
    }
}
