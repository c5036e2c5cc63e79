//! What allocates, and what does not.
//!
//! A counting global allocator watches two paths:
//!
//! * **The processor's cycle loop.** `Cpu::run_to_halt` from start to
//!   halt: every `eval` and `tick` of the fetcher, register unit, data
//!   memory, variable-latency units, routing fork and pipeline MEBs, plus
//!   the driver loop itself. However many cycles a program takes, the
//!   only allocations are the two per-thread vectors of the returned
//!   `CpuRunStats`. Speculative runs are left out on purpose: each
//!   misprediction opens a new epoch in the shared squash table, which
//!   grows (amortised) with the number of mispredictions, not with the
//!   cycle count.
//! * **The checks every autotuner candidate passes.** The lint suite
//!   allocates per design, not per node or channel: the 16-stage MD5 loop
//!   costs it as many allocations as the 1-stage one. The structural hash
//!   allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mt_elastic::md5::Md5Circuit;
use mt_elastic::proc::{programs, Cpu, CpuConfig};
use mt_elastic::synth::PassManager;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
        }
    });
}

/// The system allocator, counting allocations on threads that asked.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // the system allocator underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counting_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let result = f();
    COUNTING.with(|on| on.set(false));
    (result, ALLOCATIONS.with(Cell::get))
}

#[test]
fn run_to_halt_allocates_only_its_result() {
    for (name, source, _) in programs::all() {
        for threads in [2usize, 8] {
            let mut cpu = Cpu::from_asm(CpuConfig::new(threads), source).expect("assembles");
            for a in 0..threads * 64 {
                cpu.set_mem(a, (a * 13 % 41) as u32);
            }
            let (stats, allocations) =
                counting_allocations(|| cpu.run_to_halt(3_000_000).expect("halts"));
            assert!(stats.cycles > 100, "{name}: a run long enough to tell");
            assert!(
                allocations <= 2,
                "{name} on {threads} threads: {allocations} allocations in {} cycles",
                stats.cycles
            );
        }
    }
}

#[test]
fn the_lint_suite_allocates_per_design_not_per_node() {
    let lint_allocations = |stages| {
        let mut ir = Md5Circuit::ir(8, 8, stages).ir;
        let nodes = ir.node_count();
        let (result, allocations) =
            counting_allocations(|| PassManager::lint_suite().run(&mut ir).map(drop));
        result.expect("the MD5 loop lints clean");
        (nodes, allocations)
    };
    let (small, large) = (lint_allocations(1), lint_allocations(16));
    assert!(large.0 > 4 * small.0, "{small:?} vs {large:?}");
    assert_eq!(small.1, large.1, "(nodes, allocations)");
}

#[test]
fn structural_hash_allocates_nothing() {
    for stages in [1, 16] {
        let ir = Md5Circuit::ir(8, 8, stages).ir;
        let (_, allocations) = counting_allocations(|| ir.structural_hash());
        assert_eq!(allocations, 0, "{stages} stage(s)");
    }
}
