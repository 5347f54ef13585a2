//! The batched solve path performs **zero heap allocations after
//! warm-up**, like the scalar one: `predict_batch` / `predict_all` run
//! entirely out of the solver's scratch once every buffer has grown to
//! steady-state size — including the sort-merge aggregation path and
//! the zeta strategy's subset-sum buffer.
//!
//! The counter is a per-thread cell, so allocations by the libtest
//! harness (which runs on its own threads) cannot leak into the measured
//! window — only what the evaluating thread itself allocates counts.

use pmevo_core::{
    CompiledExperiments, Experiment, InstId, MeasuredExperiment, PortSet, ThreeLevelMapping,
    ThroughputSolver, UopEntry,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

std::thread_local! {
    /// Const-initialized so reading/bumping it never allocates itself.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

fn bump() {
    // `try_with`: allocations during TLS teardown are simply not counted.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// A platform that drives every piece of the solve path at once: 12
/// zeta-heavy instructions (more than 16 µop contributions per row, so
/// the sort-merge aggregation path runs), plus narrow instructions whose
/// singletons take union-closure.
fn workload() -> (ThreeLevelMapping, CompiledExperiments) {
    let mut decomps: Vec<Vec<UopEntry>> = Vec::new();
    for s in 0..12u32 {
        let mut uops = Vec::new();
        for a in 0..6usize {
            uops.push(UopEntry::new(1 + (s + a as u32) % 3, PortSet::from_ports(&[a])));
            for b in (a + 1)..6 {
                uops.push(UopEntry::new(1 + s % 2, PortSet::from_ports(&[a, b])));
            }
        }
        decomps.push(uops);
    }
    for s in 0..4usize {
        decomps.push(vec![
            UopEntry::new(1, PortSet::from_ports(&[s])),
            UopEntry::new(2, PortSet::from_ports(&[s + 1])),
        ]);
    }
    let mapping = ThreeLevelMapping::new(6, decomps);
    let n = mapping.num_insts() as u32;
    let mut experiments: Vec<Experiment> = (0..n).map(InstId).map(Experiment::singleton).collect();
    for i in 0..n {
        experiments.push(Experiment::pair(InstId(i), 2, InstId((i + 5) % n), 1));
    }
    let measured: Vec<MeasuredExperiment> =
        experiments.into_iter().map(|e| MeasuredExperiment::new(e, 1.0)).collect();
    (mapping, CompiledExperiments::compile(&measured))
}

#[test]
fn batch_path_is_allocation_free_after_warmup() {
    let (mapping, compiled) = workload();
    let mut solver = ThroughputSolver::new();
    let indices: Vec<u32> = (0..compiled.num_experiments() as u32).collect();
    let mut out = Vec::new();
    let mut all = Vec::new();

    // Warm-up: grow the kernel and aggregation scratch and the output
    // vectors to steady-state size.
    solver.load_mapping(&compiled, &mapping);
    for _ in 0..3 {
        solver.predict_batch(&compiled, &indices, &mut out);
        solver.predict_all(&compiled, &mut all);
        for e in 0..compiled.num_experiments() {
            solver.predict(&compiled, e);
        }
    }

    let before = thread_allocations();
    let mut acc = 0.0f64;
    for _ in 0..32 {
        solver.load_mapping(&compiled, &mapping);
        solver.predict_batch(&compiled, &indices, &mut out);
        acc += out.iter().sum::<f64>();
        solver.predict_all(&compiled, &mut all);
        acc += all.iter().sum::<f64>();
        for e in 0..compiled.num_experiments() {
            acc += solver.predict(&compiled, e);
        }
    }
    let after = thread_allocations();

    assert!(acc.is_finite() && acc > 0.0);
    assert_eq!(
        after - before,
        0,
        "batched solve path allocated {} times across 32 rounds",
        after - before
    );
}
