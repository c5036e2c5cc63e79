//! E-T1 — integration tests pinning the regenerated Table I against the
//! paper's reported shape: who wins, by what factor, and how the gap
//! moves with the thread count.

use mt_elastic::core::MebKind;

use elastic_bench::table1::{average_savings, paper_reference, table1_rows};
use elastic_bench::Design;

/// Every Table I row: the model's area is within 20 % of the paper's and
/// its frequency within 20 % (a structural model, not a synthesis flow).
#[test]
fn absolute_numbers_within_20_percent_of_paper() {
    for row in table1_rows(8) {
        let (paper_les, paper_mhz) = paper_reference(row.design, row.kind).expect("in Table I");
        let area_err = (row.area_les as f64 - paper_les as f64).abs() / paper_les as f64;
        let freq_err = (row.freq_mhz - paper_mhz).abs() / paper_mhz;
        let name = row.design.name();
        assert!(
            area_err < 0.20,
            "{name} {}: {} vs {paper_les}",
            row.buffer,
            row.area_les
        );
        assert!(
            freq_err < 0.20,
            "{name} {}: {:.1} vs {paper_mhz}",
            row.buffer,
            row.freq_mhz
        );
    }
}

/// Table I's ordering: reduced < full in area for both designs, and the
/// reduced design clocks strictly faster ("slightly higher clock
/// frequencies … due to lower area").
#[test]
fn reduced_is_smaller_and_not_slower() {
    for design in Design::TABLE1 {
        let full = design.area_les(MebKind::Full, 8);
        let reduced = design.area_les(MebKind::Reduced, 8);
        assert!(reduced < full, "{}", design.name());
        let (f_full, f_red) = (design.freq_mhz(full), design.freq_mhz(reduced));
        assert!(
            f_red > f_full,
            "{}: {f_red:.1} vs {f_full:.1} MHz",
            design.name()
        );
    }
}

/// The paper's "~15 % average savings" headline at 8 threads.
#[test]
fn average_savings_match_the_paper_headline() {
    let avg = average_savings(8);
    assert!((0.12..=0.19).contains(&avg), "average savings {avg:.3}");
}

/// "The savings in the processor are larger than in MD5, since it has a
/// larger ratio of MEB area vs combinational logic area."
#[test]
fn processor_savings_exceed_md5_savings() {
    let md5 = Design::Md5.savings_fraction(8);
    let proc = Design::Processor.savings_fraction(8);
    assert!(proc > md5, "md5 {md5:.3}, proc {proc:.3}");
}

/// "If we increase the number of threads to 16 the average savings rise"
/// — the model reproduces the direction and most of the magnitude
/// (paper: >22 %; structural model: ~19 %, see EXPERIMENTS.md). MD5's
/// own saving grows at every step from 2 to 16 threads.
#[test]
fn savings_rise_with_16_threads() {
    let s8 = average_savings(8);
    let s16 = average_savings(16);
    assert!(s16 > s8 + 0.03, "saving must grow: {s8:.3} -> {s16:.3}");
    assert!(s16 > 0.18, "16-thread saving {s16:.3}");
    let md5 = |threads| Design::Md5.savings_fraction(threads);
    assert!(
        md5(2) < md5(8) && md5(8) < md5(16),
        "md5 saving at S = 2, 8, 16: {:.3}, {:.3}, {:.3}",
        md5(2),
        md5(8),
        md5(16)
    );
}

/// MD5's fully unrolled round gives it an order-of-magnitude lower clock
/// than the processor — the most striking feature of Table I.
#[test]
fn clock_gap_between_designs() {
    let rows = table1_rows(8);
    let freq = |design| {
        rows.iter()
            .find(|r| r.design == design)
            .expect("row")
            .freq_mhz
    };
    let (md5_f, cpu_f) = (freq(Design::Md5), freq(Design::Processor));
    assert!(
        cpu_f > 4.0 * md5_f,
        "cpu {cpu_f:.1} MHz vs md5 {md5_f:.1} MHz"
    );
}
