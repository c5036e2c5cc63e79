//! Static design checks over the structural IR of every example design —
//! the CI gate that runs *before* any simulation: protocol lint (thread
//! widths, arities, single driver/reader per channel), cycle-cover lint
//! (every loop cut by an EB/MEB/latency unit), and golden-file checks on
//! the GCD circuit's DOT rendering — plain, and with transforming-pass
//! deltas highlighted (inserted buffers green, resized orange).
//!
//! ```text
//! cargo run --release -p elastic-bench --bin design_lint            # check
//! cargo run --release -p elastic-bench --bin design_lint -- --write # regenerate golden
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use elastic_bench::gcd_ir;
use elastic_core::MebKind;
use elastic_md5::Md5Circuit;
use elastic_proc::Cpu;
use elastic_sim::Token;
use elastic_synth::{
    dot_with_deltas, ElasticIr, MebSubstitution, Pass, PassManager, PassReport, TransformSpec,
};

/// Repo-relative path of the committed golden DOT file.
const GOLDEN: &str = "golden/gcd_circuit.dot";
/// Golden for the delta-highlighted rendering of a transformed GCD IR.
const GOLDEN_DELTAS: &str = "golden/gcd_deltas.dot";

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../{name}"))
}

/// Applies a canonical transform set to the linted GCD IR and renders the
/// result with the pass deltas highlighted: the loop-cutting auto-MEB
/// resized to a FIFO ablation (orange) plus a slack buffer spliced onto
/// the step output (green). The golden pins both the rewired topology and
/// the delta styling.
fn gcd_deltas_dot(gcd: &mut ElasticIr<(u64, u64)>) -> String {
    let mut deltas = Vec::new();
    let resized = MebSubstitution::auto(MebKind::Fifo { depth: 2 })
        .run(gcd)
        .expect("gcd auto-MEBs substitute");
    deltas.extend(resized.deltas);
    let branch = gcd.node_named("done?").expect("gcd has its loop branch");
    let cont = gcd.node(branch).outputs()[1];
    let inserted = TransformSpec::InsertSlack {
        channel: gcd.channel_info(cont).name.clone(),
        kind: MebKind::Fifo { depth: 1 },
    }
    .apply(gcd)
    .expect("slack inserts on the branch continue edge");
    deltas.extend(inserted.deltas);
    PassManager::lint_suite()
        .run(gcd)
        .expect("transformed gcd still lints");
    dot_with_deltas(gcd, &deltas)
}

/// Compares (or, with `--write`, regenerates) one golden file.
fn golden_check(write: bool, name: &str, rendered: &str) -> bool {
    let path = golden_path(name);
    if write {
        std::fs::write(&path, rendered).expect("golden file is writable");
        println!("wrote {name} ({} bytes)", rendered.len());
        return true;
    }
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == rendered => {
            println!(
                "golden DOT check: {name} matches ({} bytes)",
                rendered.len()
            );
            true
        }
        Ok(_) => {
            eprintln!(
                "golden DOT check FAILED: {name} is stale — rerun with --write \
                 and commit the diff"
            );
            false
        }
        Err(e) => {
            eprintln!("golden DOT check FAILED: cannot read {name}: {e}");
            false
        }
    }
}

fn render(design: &str, reports: &[PassReport]) {
    for r in reports {
        println!(
            "  {design:<10} {:<14} checked {:>3} entities, rewrote {:>2} nodes",
            r.pass, r.checked, r.changed
        );
    }
}

fn lint<T: Token>(design: &str, ir: &mut ElasticIr<T>) -> bool {
    match PassManager::lint_suite().run(ir) {
        Ok(reports) => {
            render(design, &reports);
            true
        }
        Err(e) => {
            eprintln!("  {design:<10} FAILED: {e}");
            false
        }
    }
}

fn main() -> ExitCode {
    let write = std::env::args().any(|a| a == "--write");
    let mut ok = true;

    println!("design lints (protocol + cycle cover):");
    let mut gcd = gcd_ir(4);
    ok &= lint("gcd", &mut gcd);
    let mut md5 = Md5Circuit::ir(8, 8, 1);
    ok &= lint("md5", &mut md5.ir);
    let mut md5_piped = Md5Circuit::ir(8, 8, 4);
    ok &= lint("md5x4", &mut md5_piped.ir);
    let mut cpu = Cpu::cost_ir(8);
    ok &= lint("processor", &mut cpu.ir);

    ok &= golden_check(write, GOLDEN, &gcd.to_dot());
    ok &= golden_check(write, GOLDEN_DELTAS, &gcd_deltas_dot(&mut gcd));

    if ok {
        println!("all design checks passed");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
